//! Cross-backend consistency: the multi-process daemon engine must reach the
//! same protocol outcomes as the in-process round engine.
//!
//! Nodes here run as threads (one `NodeLoop` each) over real Unix-domain
//! sockets — the same code path `proauth serve` uses, minus `fork`. The
//! faithful test demands bit-identical output logs and ROMs against
//! `run_ul`; the chaos test routes everything through the adversarial proxy
//! and demands the same against `run_ul` under the engine's `ChaosNet` with
//! the same spec, on top of the model-level invariants (setup faithfulness,
//! zero forgeries, progress under delay, duplication and a partition).

use proauth_sim::adversary::FaithfulUl;
use proauth_sim::chaos::{ChaosNet, ChaosSpec, FaultSchedule, PartitionWindow};
use proauth_sim::clock::Schedule;
use proauth_sim::message::{NodeId, OutputEvent};
use proauth_sim::net::{
    collect, run_node, AddrPlan, CollectorConfig, DaemonOutcome, NodeNetConfig, ProxyConfig,
    ProxyStats, TraceSpec,
};
use proauth_sim::process::{Process, RoundCtx, SetupCtx};
use proauth_sim::runner::{run_ul, SimConfig, SimResult};
use proauth_sim::ProcessDriver;
use proauth_telemetry::{memory_contents, strip_wall_fields, Telemetry};
use rand::RngCore;
use std::any::Any;
use std::path::PathBuf;

/// A heartbeat-style node: random setup key exchange into the ROM, then an
/// authenticated-echo round loop that accepts peers' heartbeats.
struct HbNode {
    me: NodeId,
}

impl Process for HbNode {
    fn on_setup_round(&mut self, ctx: &mut SetupCtx<'_>) {
        match ctx.setup_round {
            0 => {
                let mut key = vec![0u8; 8];
                ctx.rng.fill_bytes(&mut key);
                ctx.rom.write("self_key", key.clone());
                ctx.send_all(key);
            }
            1 => {
                // Freeze the peer table: concatenation in NodeId order, which
                // is exactly the engine's inbox order — equality of this ROM
                // entry across backends proves setup delivery order matched.
                let mut table = Vec::new();
                for env in ctx.inbox {
                    table.push(env.from.0 as u8);
                    table.extend_from_slice(&env.payload);
                }
                ctx.rom.write("peer_table", table);
            }
            _ => {}
        }
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
        for env in ctx.inbox {
            if env.payload.starts_with(b"hb:") {
                proauth_telemetry::count("hb/accepted", 1);
                ctx.emit(OutputEvent::Accepted {
                    from: env.from,
                    msg: env.payload.to_vec(),
                });
            }
        }
        let hb = format!("hb:{}:{}", self.me.0, ctx.time.round).into_bytes();
        ctx.send_all(hb);
        if ctx.time.round_in_unit == 0 && ctx.time.unit > 0 {
            ctx.emit(OutputEvent::Custom(format!("unit:{}", ctx.time.unit)));
        }
    }

    fn state_mut(&mut self) -> &mut dyn Any {
        self
    }
}

const SEED: u64 = 1234;
const N: usize = 4;
const SETUP_ROUNDS: u64 = 3;
const TOTAL_ROUNDS: u64 = 16;

fn schedule() -> Schedule {
    Schedule::new(8, 2, 2)
}

/// The engine run of the scenario, under the chaos model `spec`.
fn engine_run(n: usize, spec: ChaosSpec) -> SimResult {
    let mut cfg = SimConfig::new(n, 1, schedule());
    cfg.seed = SEED;
    cfg.setup_rounds = SETUP_ROUNDS;
    cfg.total_rounds = TOTAL_ROUNDS;
    cfg.parallel = false;
    let mut adv = ChaosNet::new(FaithfulUl, spec, FaultSchedule::default(), None, n);
    run_ul(cfg, |id| HbNode { me: id }, &mut adv)
}

/// Same scenario as [`engine_run`], but with the flight recorder on;
/// returns the engine's trace JSONL.
fn engine_trace(n: usize) -> String {
    let (tele, buf) = Telemetry::with_memory_sink();
    let mut cfg = SimConfig::new(n, 1, schedule());
    cfg.seed = SEED;
    cfg.setup_rounds = SETUP_ROUNDS;
    cfg.total_rounds = TOTAL_ROUNDS;
    cfg.parallel = false;
    cfg.telemetry = tele;
    run_ul(cfg, |id| HbNode { me: id }, &mut FaithfulUl);
    memory_contents(&buf)
}

fn temp_plan(tag: &str) -> (AddrPlan, PathBuf) {
    let dir = std::env::temp_dir().join(format!("proauth-daemon-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    (AddrPlan::Unix { dir: dir.clone() }, dir)
}

/// Runs `n` NodeLoops in threads (mesh or via a chaos proxy) plus a
/// collector; returns the assembled outcome and proxy stats (if any).
fn daemon_run(
    n: usize,
    plan: AddrPlan,
    chaos: Option<ChaosSpec>,
    obs: bool,
) -> (DaemonOutcome, Option<ProxyStats>) {
    let via_proxy = chaos.is_some();
    let collector_cfg = CollectorConfig {
        n,
        plan: plan.clone(),
        run_id: SEED,
        idle_timeout_ms: 30_000,
        t: 1,
        unit_rounds: schedule().unit_rounds,
        status: false,
        trace_spec: obs.then(|| TraceSpec {
            n,
            s: 1,
            seed: SEED,
            schedule: schedule(),
            setup_rounds: SETUP_ROUNDS,
            total_rounds: TOTAL_ROUNDS,
        }),
    };
    // Bind order matters: collector (and proxy) listen before any node dials.
    let collector = std::thread::spawn({
        let cfg = collector_cfg;
        move || collect(cfg)
    });
    let proxy = chaos.map(|spec| {
        let cfg = ProxyConfig {
            n,
            plan: plan.clone(),
            spec,
            run_id: SEED,
            idle_timeout_ms: 30_000,
        };
        std::thread::spawn(move || proauth_sim::net::run_proxy(cfg))
    });
    // Give the listeners a moment to bind (dial retries cover the rest).
    std::thread::sleep(std::time::Duration::from_millis(50));
    let nodes: Vec<_> = (1..=n as u32)
        .map(|id| {
            let plan = plan.clone();
            std::thread::spawn(move || {
                let me = NodeId(id);
                let mut cfg = NodeNetConfig::new(me, n, plan, schedule());
                cfg.seed = SEED;
                cfg.run_id = SEED;
                cfg.via_proxy = via_proxy;
                cfg.report = true;
                cfg.setup_rounds = SETUP_ROUNDS;
                cfg.total_rounds = TOTAL_ROUNDS;
                cfg.round_ms = 2_000;
                cfg.connect_timeout_ms = 30_000;
                cfg.telemetry = obs;
                cfg.stream_trace = obs;
                let mut driver = ProcessDriver::new(HbNode { me }, me, n, SEED);
                run_node(cfg, &mut driver, |_, _| None)
            })
        })
        .collect();
    for t in nodes {
        t.join().unwrap().expect("node loop failed");
    }
    let outcome = collector.join().unwrap().expect("collector failed");
    let proxy_stats = proxy.map(|t| t.join().unwrap().expect("proxy failed"));
    (outcome, proxy_stats)
}

#[test]
fn faithful_daemon_matches_engine_bit_for_bit() {
    let engine = engine_run(N, ChaosSpec::faithful());
    let (plan, dir) = temp_plan("mesh");
    let (outcome, _) = daemon_run(N, plan, None, false);
    let _ = std::fs::remove_dir_all(dir);

    // Identical ROMs: setup delivery (content and order) matched.
    assert_eq!(outcome.roms, engine.roms, "ROMs must match engine setup");
    // Identical output logs: every round's inbox matched, in order.
    for (i, (got, want)) in outcome.outputs.iter().zip(&engine.outputs).enumerate() {
        assert_eq!(got, want, "node {} output log diverged", i + 1);
    }
    // Reports are self-consistent.
    for rep in &outcome.reports {
        assert_eq!(rep.rounds, TOTAL_ROUNDS);
        assert_eq!(rep.mark_timeouts, 0, "faithful run must never hit deadlines");
        assert_eq!(rep.alerts, 0);
    }
    assert!(outcome.accepted_bytes() > 0);
    assert!(outcome.goodput() > 0.0);
}

#[test]
fn chaos_proxy_preserves_model_invariants() {
    let n = 5;
    for seed in [77u64, 78, 79] {
        let spec = ChaosSpec {
            seed,
            delay_pct: 25,
            delay_max: 3,
            dup_pct: 10,
            reset_pct: 0,
            partition: Some(PartitionWindow {
                start: 5,
                end: 8,
                split: 2,
            }),
        };
        let (plan, dir) = temp_plan(&format!("chaos-{seed}"));
        let (outcome, proxy_stats) = daemon_run(n, plan, Some(spec), false);
        let _ = std::fs::remove_dir_all(dir);
        check_chaos_run(n, spec, &outcome, proxy_stats.expect("proxy ran"));
    }
}

fn check_chaos_run(n: usize, spec: ChaosSpec, outcome: &DaemonOutcome, stats: ProxyStats) {
    let seed = spec.seed;
    let engine = engine_run(n, spec);

    // The proxy actually manipulated traffic.
    assert!(stats.delayed > 0, "seed {seed}: chaos must delay some frames: {stats:?}");
    assert!(stats.duplicated > 0, "seed {seed}: chaos must duplicate some frames: {stats:?}");
    assert!(stats.forwarded > 0);

    // Setup is adversary-free: ROMs still match the engine exactly.
    assert_eq!(outcome.roms, engine.roms, "seed {seed}: chaos must not touch setup");

    // Bit-identity with the engine under the same chaos spec: every frame
    // was delivered in the round the shared fate function chose, so every
    // node-emitted output event matches, as do the per-node alert counts.
    // The engine's ground-truth Compromised/Recovered lines are its own, not
    // the nodes'.
    for (i, (got, want)) in outcome.outputs.iter().zip(&engine.outputs).enumerate() {
        let want: Vec<_> = want.iter().filter(|(_, e)| !e.is_ground_truth()).cloned().collect();
        assert_eq!(got, &want, "seed {seed}: node {} output log diverged", i + 1);
    }
    for (i, rep) in outcome.reports.iter().enumerate() {
        assert_eq!(rep.alerts, engine.stats.alerts[i], "seed {seed}: node {} alerts", i + 1);
    }

    // Zero forgeries: every accepted heartbeat is a message its claimed
    // sender really sends (delay/dup can move or repeat heartbeats, never
    // mint them).
    for (i, log) in outcome.outputs.iter().enumerate() {
        for (_, event) in log {
            if let OutputEvent::Accepted { from, msg } = event {
                let text = String::from_utf8(msg.clone()).expect("utf8 heartbeat");
                let mut parts = text.splitn(3, ':');
                assert_eq!(parts.next(), Some("hb"));
                assert_eq!(
                    parts.next(),
                    Some(from.0.to_string().as_str()),
                    "node {} accepted a forged heartbeat: {text}",
                    i + 1
                );
                let round: u64 = parts.next().unwrap().parse().unwrap();
                assert!(round < TOTAL_ROUNDS);
            }
        }
    }

    // Progress: despite the chaos, the run completed both units and accepted
    // a substantial share of heartbeats (duplicates may push this above the
    // faithful count; delays near the end may drop it below).
    let accepted = outcome.count_events(|e| matches!(e, OutputEvent::Accepted { .. }));
    let faithful_accepted = (n as u64) * (n as u64 - 1) * (TOTAL_ROUNDS - 1);
    assert!(
        accepted >= faithful_accepted / 2,
        "seed {seed}: accepted {accepted} of ~{faithful_accepted}"
    );
    let units = outcome.count_events(|e| matches!(e, OutputEvent::Custom(s) if s == "unit:1"));
    assert_eq!(units, n as u64, "every node must reach unit 1");
    for rep in &outcome.reports {
        assert_eq!(rep.rounds, TOTAL_ROUNDS);
    }
    // Delayed frames were delivered late, and the receivers noticed.
    let late: u64 = outcome.reports.iter().map(|r| r.late_frames).sum();
    assert!(late > 0, "seed {seed}: delays must surface as late frames");
}

#[test]
fn observability_plane_merges_metrics_and_reassembles_engine_trace() {
    let (plan, dir) = temp_plan("obs");
    let (outcome, _) = daemon_run(N, plan, None, true);
    let _ = std::fs::remove_dir_all(dir);

    // The cluster registry is exactly the sum of the per-node registries:
    // no delta was lost, duplicated, or misattributed on the way in.
    assert_eq!(outcome.node_metrics.len(), N);
    let mut summed: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for snap in &outcome.node_metrics {
        for (name, v) in &snap.counters {
            *summed.entry(name).or_insert(0) += v;
        }
    }
    let merged: std::collections::BTreeMap<&str, u64> = outcome
        .merged
        .counters
        .iter()
        .map(|(k, v)| (*k, *v))
        .collect();
    assert_eq!(merged, summed, "merged registry must equal per-node sum");
    // The protocol counters actually flowed: every accepted heartbeat was
    // counted once (heartbeats sent in round r arrive in round r+1).
    let accepted = outcome.merged.counters.get("hb/accepted").copied().unwrap_or(0);
    assert_eq!(accepted, (N as u64) * (N as u64 - 1) * (TOTAL_ROUNDS - 1));
    // A faithful run raises no alarms.
    assert!(
        outcome.alarms.is_empty(),
        "faithful run must be alarm-free: {:?}",
        outcome.alarms
    );

    // Golden-trace guarantee, daemon edition: the collector-assembled trace,
    // stripped of wall-clock fields, is byte-identical to the in-process
    // engine's for the same scenario.
    let daemon_trace = outcome.trace.expect("trace assembly must complete");
    let engine = engine_trace(N);
    assert_eq!(
        strip_wall_fields(&daemon_trace),
        strip_wall_fields(&engine),
        "stripped daemon trace must match engine trace byte-for-byte"
    );
}
