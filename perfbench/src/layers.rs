//! The traced run: untraced and traced repetitions of the same seeds, the
//! traced-equals-untraced gate, the per-layer metrics, the layer-cost
//! ledger and the span dump.
//!
//! Per-layer sums and counts are per repetition (the mean over the traced
//! repetitions), so they do not scale with how many repetitions fit into
//! `--seconds`.

use crate::engine::RepKind;
use crate::rep::{Rep, Traced};
use crate::stats::Ops;
use crate::wrap::phase_name;
use crate::{daemon, engine, probes, rep_seed};
use proauth_sim::runner::SimResult;
use proauth_telemetry::MetricsSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub const PHASES: [&str; 4] = ["setup", "normal", "refresh1", "refresh2"];

pub struct TracedResult {
    pub correct: bool,
    pub ops: Ops,
    pub metrics: Vec<(String, f64, &'static str)>,
}

fn rep_with_result(workload: &str, seed: u64, traced: bool) -> (Rep, Option<SimResult>) {
    match workload {
        "refresh-n13" => engine::flat_rep(seed, traced, RepKind::Full).map_result(),
        "hier-n64" => engine::hier_rep(seed, traced, RepKind::Full).map_result(),
        "service-n13" => engine::service_rep(seed, traced, RepKind::Full).map_result(),
        _ => (daemon::daemon_rep(seed, traced, RepKind::Full), None),
    }
}

trait MapResult {
    fn map_result(self) -> (Rep, Option<SimResult>);
}

impl MapResult for (Rep, SimResult) {
    fn map_result(self) -> (Rep, Option<SimResult>) {
        (self.0, Some(self.1))
    }
}

/// Sum of a latency histogram, seconds, and its count.
fn hist(snap: &MetricsSnapshot, name: &str) -> (f64, f64) {
    snap.hists
        .get(name)
        .map_or((0.0, 0.0), |h| (h.total as f64, h.sum_ns as f64 * 1e-9))
}

fn counter(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.counters.get(name).copied().unwrap_or(0) as f64
}

/// Total of the crypto timers (verify + sign + batch verify), seconds.
fn crypto_s(snap: &MetricsSnapshot) -> f64 {
    [
        "crypto/verify_ns",
        "crypto/sign_ns",
        "crypto/batch_verify_ns",
    ]
    .iter()
    .map(|n| hist(snap, n).1)
    .sum()
}

/// Per-phase time ledger of one traced rep.
#[derive(Default, Clone, Copy)]
struct PhaseRow {
    wall: f64,
    busy: f64,
    crypto: f64,
    pool_idle: f64,
    engine_self: f64,
}

fn ledger(rep: &Rep, tr: &Traced) -> BTreeMap<&'static str, PhaseRow> {
    let mut rows: BTreeMap<&'static str, PhaseRow> =
        PHASES.iter().map(|p| (*p, PhaseRow::default())).collect();
    let w = tr.workers as f64;
    // Busy time per (setup?, round, worker).
    let mut per_round: BTreeMap<(bool, u64), BTreeMap<u32, f64>> = BTreeMap::new();
    for s in &tr.steps {
        *per_round
            .entry((s.setup, s.round))
            .or_default()
            .entry(s.thread)
            .or_default() += s.end - s.start;
    }
    for ((setup, round), workers) in &per_round {
        let phase = if *setup {
            "setup"
        } else {
            phase_name(rep.schedule.phase_of(*round))
        };
        let busy: f64 = workers.values().sum();
        let max = workers.values().copied().fold(0.0, f64::max);
        let row = rows.get_mut(phase).expect("known phase");
        row.busy += busy;
        row.pool_idle += w * max - busy;
        // Busiest worker per round; the remainder of the wall is the
        // engine's own time (filled in below, once walls are known).
        row.engine_self -= max;
    }
    rows.get_mut("setup").expect("setup row").wall = rep.setup_s;
    for r in 0..rep.clock.rounds() as u64 {
        rows.get_mut(phase_name(rep.schedule.phase_of(r)))
            .expect("known phase")
            .wall += rep.clock.round_s(r);
    }
    for row in rows.values_mut() {
        row.engine_self += row.wall;
    }
    // Crypto sums per phase from the registry snapshots at phase starts
    // (the first one, at round 0, closes setup).
    if let Some((_, _, first)) = tr.phase_snaps.first() {
        rows.get_mut("setup").expect("setup row").crypto = crypto_s(first);
        for (k, (_, phase, snap)) in tr.phase_snaps.iter().enumerate() {
            let next = tr
                .phase_snaps
                .get(k + 1)
                .map_or(&tr.end_snap, |(_, _, s)| s);
            rows.get_mut(phase).expect("known phase").crypto += crypto_s(next) - crypto_s(snap);
        }
    }
    rows
}

/// Writes the traced reps' spans (rounds, and node steps as their
/// children) as JSONL.
fn dump_spans(path: &std::path::Path, reps: &[&Rep]) -> std::io::Result<()> {
    let mut out = String::new();
    for (k, rep) in reps.iter().enumerate() {
        let Some(tr) = &rep.traced else { continue };
        for r in 0..rep.clock.rounds() {
            let _ = writeln!(
                out,
                "{{\"rep\":{k},\"name\":\"round\",\"id\":\"r{r}\",\"start\":{},\"end\":{},\"parent\":null}}",
                rep.clock.starts[r],
                rep.clock.starts[r + 1]
            );
        }
        for s in &tr.steps {
            let parent = if s.setup {
                format!("s{}", s.round)
            } else {
                format!("r{}", s.round)
            };
            let _ = writeln!(
                out,
                "{{\"rep\":{k},\"name\":\"node_step\",\"node\":{},\"thread\":{},\"start\":{},\"end\":{},\"parent\":\"{parent}\"}}",
                s.node, s.thread, s.start, s.end
            );
        }
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

pub fn traced_run(workload: &str, seed: u64, seconds: f64) -> TracedResult {
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut last_result: Option<SimResult> = None;
    let start = Instant::now();
    // Each pair costs two repetitions.
    for i in 0..crate::reps_for(workload, seconds, 2.0) {
        if !crate::within_time(start, seconds, i, start.elapsed().as_secs_f64()) {
            eprintln!("perfbench: time is up after {i} pairs");
            break;
        }
        let s = rep_seed(seed, i);
        let (plain, plain_result) = rep_with_result(workload, s, false);
        let (rep, result) = rep_with_result(workload, s, true);
        if plain_result != result {
            failures.push(format!(
                "traced result differs from the untraced one (seed {s})"
            ));
        }
        for r in [&plain, &rep] {
            failures.extend(r.failures.iter().cloned());
        }
        last_result = result.or(last_result);
        untraced.push(plain);
        traced.push(rep);
    }
    for f in &failures {
        eprintln!("FAILED: {f}");
    }
    let (_, ops) = crate::rep::op_counts(untraced.iter().chain(&traced));
    let k = traced.len() as f64;
    let rps = |reps: &[Rep]| {
        reps.iter().map(|r| r.clock.rounds()).sum::<usize>() as f64
            / reps.iter().map(Rep::post_s).sum::<f64>()
    };
    let overhead_pct = (rps(&untraced) - rps(&traced)) / rps(&untraced) * 100.0;

    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let mut rows: BTreeMap<&'static str, PhaseRow> =
        PHASES.iter().map(|p| (*p, PhaseRow::default())).collect();
    let mut totals: BTreeMap<String, f64> = BTreeMap::new();
    let mut net: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut captured = Vec::new();
    let mut adversary_s = 0.0;
    for rep in &traced {
        let tr = rep.traced.as_ref().expect("traced reps carry their trace");
        for (phase, row) in ledger(rep, tr) {
            let acc = rows.get_mut(phase).expect("known phase");
            acc.wall += row.wall / k;
            acc.busy += row.busy / k;
            acc.crypto += row.crypto / k;
            acc.pool_idle += row.pool_idle / k;
            acc.engine_self += row.engine_self / k;
        }
        let snap = &tr.end_snap;
        let mut add = |name: &str, v: f64| *totals.entry(name.to_owned()).or_default() += v / k;
        for (name, h) in [
            ("crypto.verify", "crypto/verify_ns"),
            ("crypto.sign", "crypto/sign_ns"),
            ("crypto.batch_verify", "crypto/batch_verify_ns"),
        ] {
            let (n, s) = hist(snap, h);
            add(&format!("{name}_n"), n);
            add(&format!("{name}_s"), s);
        }
        for (name, c) in [
            ("core.uls.certs_checked", "uls/certs_checked"),
            ("core.uls.accepted", "uls/accepted"),
            ("core.disperse.relays", "disperse/relays"),
            (
                "core.disperse.dedup_suppressed",
                "disperse/dedup_suppressed",
            ),
            ("core.disperse.bytes", "disperse/bytes"),
            ("core.pa.evidence", "pa/evidence"),
            ("core.hier.top_envelopes", "hier/top_envelopes"),
            ("pds.sign_started", "pds/sign_started"),
            ("pds.sign_completed", "pds/sign_completed"),
            ("pds.nonce_pool_hit", "pds/nonce_pool_hit"),
            ("pds.nonce_pool_miss", "pds/nonce_pool_miss"),
            ("pds.verify_batched", "pds/verify_batched"),
        ] {
            add(name, counter(snap, c));
        }
        add("pds.refresh_step_s", hist(snap, "pds/refresh_step_ns").1);
        add("sim.msgs", tr.msgs as f64);
        add("sim.bytes", tr.bytes as f64);
        adversary_s += tr.adversary_s / k;
        for (name, v) in &tr.net {
            *net.entry(name).or_default() += v / k;
        }
        if captured.is_empty() {
            captured = tr.captured.clone();
        }
    }
    let get = |name: &str| totals.get(name).copied().unwrap_or(0.0);

    for phase in PHASES {
        let row = rows[phase];
        m.push((format!("sim.node_busy_s.{phase}"), row.busy, "s"));
        m.push((format!("sim.pool_idle_s.{phase}"), row.pool_idle, "s"));
        m.push((format!("sim.engine_self_s.{phase}"), row.engine_self, "s"));
    }
    m.push(("sim.adversary_s".into(), adversary_s, "s"));
    m.push(("sim.msgs".into(), get("sim.msgs"), "count"));
    m.push(("sim.bytes".into(), get("sim.bytes"), "B"));
    for name in ["crypto.verify", "crypto.sign", "crypto.batch_verify"] {
        m.push((format!("{name}_n"), get(&format!("{name}_n")), "count"));
        m.push((format!("{name}_s"), get(&format!("{name}_s")), "s"));
    }
    for name in [
        "core.uls.certs_checked",
        "core.uls.accepted",
        "core.disperse.relays",
        "core.disperse.dedup_suppressed",
        "core.disperse.bytes",
        "core.pa.evidence",
        "core.hier.top_envelopes",
    ] {
        m.push((
            name.into(),
            get(name),
            if name.ends_with("bytes") {
                "B"
            } else {
                "count"
            },
        ));
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    m.push((
        "core.uls.checks_per_accept".into(),
        ratio(get("core.uls.certs_checked"), get("core.uls.accepted")),
        "ratio",
    ));
    for phase in PHASES {
        let row = rows[phase];
        // Without phase snapshots (the daemon) there is no per-phase
        // crypto sum, so nothing is attributed and the row reads 0.
        let unattributed = if traced
            .iter()
            .any(|r| r.traced.as_ref().is_some_and(|t| !t.phase_snaps.is_empty()))
        {
            row.busy - row.crypto
        } else {
            0.0
        };
        m.push((format!("core.unattributed_s.{phase}"), unattributed, "s"));
    }
    for name in [
        "pds.sign_started",
        "pds.sign_completed",
        "pds.nonce_pool_hit",
        "pds.nonce_pool_miss",
        "pds.verify_batched",
    ] {
        m.push((name.into(), get(name), "count"));
    }
    m.push((
        "pds.completed_per_started".into(),
        ratio(get("pds.sign_completed"), get("pds.sign_started")),
        "ratio",
    ));
    m.push(("pds.refresh_step_s".into(), get("pds.refresh_step_s"), "s"));

    let wire = match workload {
        "service-n13" => probes::Wire::Als,
        "hier-n64" => probes::Wire::Hier,
        _ => probes::Wire::Uls,
    };
    let joint_key = last_result
        .as_ref()
        .and_then(|r| r.roms.first())
        .and_then(|rom| rom.read("v_cert"))
        .map(<[u8]>::to_vec);
    let probe_rows = probes::run(joint_key.as_deref(), &captured, wire, seed);
    m.extend(probe_rows);
    m.push((
        "crypto.probe_samples".into(),
        probes::SAMPLES as f64,
        "count",
    ));

    for (name, unit) in [
        ("net.cpu_ms_per_round", "ms"),
        ("net.sys_share", "ratio"),
        ("net.overhead_ms_per_round", "ms"),
        ("net.frames", "count"),
        ("net.frame_bytes", "B"),
        ("net.late_frames", "count"),
        ("net.mark_timeouts", "count"),
    ] {
        m.push((name.into(), net.get(name).copied().unwrap_or(0.0), unit));
    }
    m.extend(crate::latency_metrics(&untraced));
    m.push(("telemetry.overhead_pct".into(), overhead_pct, "%"));

    // The ledger: per phase, node busy time, the crypto sums, the
    // unattributed remainder with its base, pool idle and engine self time.
    println!(
        "ledger {workload} (seconds per repetition, {} traced repetitions):",
        traced.len()
    );
    println!(
        "  {:<9} {:>9} {:>9} {:>9} {:>9} {:>13} {:>9} {:>11}",
        "phase", "wall", "busy", "crypto", "unattr", "unattr/busy", "idle", "engine_self"
    );
    for phase in PHASES {
        let r = rows[phase];
        println!(
            "  {:<9} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>12.1}% {:>9.3} {:>11.3}",
            phase,
            r.wall,
            r.busy,
            r.crypto,
            r.busy - r.crypto,
            ratio(r.busy - r.crypto, r.busy) * 100.0,
            r.pool_idle,
            r.engine_self
        );
    }
    if let Some(tr) = traced
        .iter()
        .find_map(|r| r.traced.as_ref().filter(|t| t.phase_snaps.is_empty()))
    {
        println!(
            "  crypto (all phases, no per-phase snapshots): {:.3}",
            crypto_s(&tr.end_snap)
        );
    }
    println!(
        "  telemetry.overhead_pct {overhead_pct:.2}% (untraced {:.2} vs traced {:.2} rounds/s)",
        rps(&untraced),
        rps(&traced)
    );
    let span_path = std::path::Path::new(".bench_build")
        .join("pb")
        .join(format!("spans-{workload}-{seed}.jsonl"));
    let refs: Vec<&Rep> = traced.iter().collect();
    match dump_spans(&span_path, &refs) {
        Ok(()) => println!("  spans: {}", span_path.display()),
        Err(e) => eprintln!("cannot write spans to {}: {e}", span_path.display()),
    }
    for (name, v, unit) in &m {
        eprintln!("  {name:<36} {v:>16.4} {unit}");
    }
    TracedResult {
        correct: failures.is_empty(),
        ops,
        metrics: m,
    }
}
