//! The in-process subcommands: the flat ULS scenario, the §6 hierarchy
//! (`--clusters`), the `chaos` degradation sweep and the `service` signing
//! service (open and closed loop).

use crate::flags::{fail, Flags, OrExit};
use crate::scenario::Scenario;
use proauth_adversary::{
    run_sweep, CorruptMode, Hijacker, LimitObserver, LinkCutter, MobileBreakins, RandomDropper,
    Replayer, SweepConfig, Visit,
};
use proauth_core::authenticator::HeartbeatApp;
use proauth_core::awareness;
use proauth_crypto::group::Group;
use proauth_pds::als::{AlsConfig, AlsPds};
use proauth_pds::als_node::AlsProcess;
use proauth_sim::adversary::{FaithfulUl, PassiveAl};
use proauth_sim::clock::Schedule;
use proauth_sim::message::{NodeId, OutputEvent};
use proauth_sim::process::Process;
use proauth_sim::runner::{run_al_with_inputs, run_ul, SimConfig, SimResult};
use proauth_sim::Telemetry;
use std::collections::BTreeSet;
use std::process::exit;

/// Runs `cfg` under the `--adversary` spec and returns the result plus the
/// adversary's one-line limit note. On a clustered config (the hierarchy),
/// only the adversaries that need no flat `UlsNode` apply, and the (s,t)
/// observer also scores majority-compromised clusters.
fn run_adversary<P: Process + Send>(
    spec: &str,
    sc: &Scenario,
    cfg: SimConfig,
    make_node: impl FnMut(NodeId) -> P,
) -> Result<(SimResult, String), String> {
    let unit_rounds = cfg.schedule.unit_rounds;
    let clusters = cfg.clusters.clone();
    let node = |id: &str| -> Result<NodeId, String> {
        let id: u32 = id.parse().map_err(|_| format!("bad node id {id}"))?;
        if id == 0 || id as usize > sc.n {
            return Err(format!("node id out of range: {id}"));
        }
        Ok(NodeId(id))
    };
    Ok(match spec.split_once(':') {
        None if spec == "none" => (run_ul(cfg, make_node, &mut FaithfulUl), String::new()),
        None if spec == "replay" => (run_ul(cfg, make_node, &mut Replayer::new(6)), String::new()),
        Some(("drop", pct)) => {
            let p = pct
                .parse::<f64>()
                .map_err(|_| format!("bad drop percentage {pct}"))?;
            let mut adv = RandomDropper::new(p / 100.0, sc.seed ^ 0xD20);
            (run_ul(cfg, make_node, &mut adv), String::new())
        }
        Some(("isolate", id)) => {
            let cut = LinkCutter::isolate(node(id)?, sc.n).during(unit_rounds, 2 * unit_rounds);
            let mut adv = match clusters.clone() {
                None => LimitObserver::new(cut),
                Some(c) => LimitObserver::with_clusters(cut, c),
            };
            let result = run_ul(cfg, make_node, &mut adv);
            let mut note = format!("max impaired per unit: {}", adv.max_impaired());
            if clusters.is_some() {
                let k = adv.max_compromised_clusters();
                note += &format!(", majority-compromised clusters: {k}");
            }
            (result, note)
        }
        Some(("wipe", id)) if clusters.is_none() => {
            let visit = Visit {
                node: node(id)?,
                break_at: 4,
                leave_at: 8,
            };
            let mut adv = MobileBreakins::<HeartbeatApp>::new(vec![visit], CorruptMode::Wipe);
            (run_ul(cfg, make_node, &mut adv), String::new())
        }
        Some(("hijack", id)) if clusters.is_none() => {
            if sc.units < 2 {
                return Err("hijack needs at least 2 units".to_owned());
            }
            let hijacker = Hijacker::new(Group::new(sc.group), node(id)?, 1, unit_rounds);
            let mut adv = LimitObserver::new(hijacker);
            let result = run_ul(cfg, make_node, &mut adv);
            let note = format!(
                "cert harvested: {}, forgeries: {}, max impaired per unit: {}",
                adv.inner.harvested_cert.is_some(),
                adv.inner.forgeries_sent,
                adv.max_impaired()
            );
            (result, note)
        }
        _ if clusters.is_some() => {
            let supported = "none | drop:<pct> | replay | isolate:<node>";
            return Err(format!("--clusters supports adversary {supported}"));
        }
        _ => return Err(format!("unknown adversary {spec}")),
    })
}

/// Runs `cfg` under the `--adversary` and prints the report shared by the
/// flat and hierarchy scenarios; `ledgers` prints the caller's own tables
/// before it.
fn simulate<P: Process + Send>(
    f: &Flags,
    sc: &Scenario,
    mut cfg: SimConfig,
    make_node: impl FnMut(NodeId) -> P,
    ledgers: impl FnOnce(&SimResult),
) -> ! {
    cfg.parallel = f.has("parallel");
    // A requested-and-unusable trace is a hard error for the CLI, not a
    // silent run.
    if let Some(path) = f.value("trace") {
        cfg.telemetry = Telemetry::with_trace_path(path)
            .map_err(|e| format!("cannot open trace file {path}: {e}"))
            .or_exit();
    } else if let Ok(path) = std::env::var(proauth_sim::telemetry::TRACE_ENV) {
        // SimConfig::new already resolved PROAUTH_TRACE; the library falls
        // back to no tracing when the path is unwritable.
        if !path.is_empty() && !cfg.telemetry.is_on() {
            fail(format!(
                "cannot open trace file {path} (from PROAUTH_TRACE)"
            ));
        }
    }
    // Keep a handle for the metrics report (the config moves into the run).
    let telemetry = cfg.telemetry.clone();
    let schedule = cfg.schedule;
    let spec = f.value("adversary").unwrap_or("none");
    println!("adversary: {spec}\n");
    let (result, limit_note) = run_adversary(spec, sc, cfg, make_node).or_exit();
    ledgers(&result);

    println!("per-node summary:");
    for id in NodeId::all(sc.n) {
        let log = &result.outputs[id.idx()];
        let count = |f: &dyn Fn(&OutputEvent) -> bool| log.iter().filter(|(_, e)| f(e)).count();
        println!(
            "  {id}: accepted {:4}  sent {:4}  alerts {}  broken-rounds {:3}  operational {}",
            count(&|e| matches!(e, OutputEvent::Accepted { .. })),
            count(&|e| matches!(e, OutputEvent::Sent { .. })),
            count(&|e| *e == OutputEvent::Alert),
            result.stats.broken_rounds[id.idx()],
            result.final_operational[id.idx()],
        );
    }
    println!("\ntraffic: {}", result.stats);
    if !limit_note.is_empty() {
        println!("adversary: {limit_note}");
    }

    // Awareness analysis.
    let imps = awareness::find_impersonations(&result.outputs, &schedule, |_, _| false);
    let uncovered = awareness::unalerted_impersonations(
        &result.outputs,
        &schedule,
        |_, _| false,
        |node, unit| result.alerted_in_unit(node, unit, &schedule),
    );
    println!(
        "awareness: {} impersonation incidents, {} NOT covered by same-unit alerts",
        imps.len(),
        uncovered.len()
    );

    // Unit-by-unit operator view.
    println!("\nunit timeline:");
    for summary in proauth_sim::report::unit_summaries(&result, &schedule) {
        print!("{summary}");
    }

    if let Some(metrics) = proauth_sim::report::render_metrics(&telemetry) {
        println!("\nmetrics:");
        print!("{metrics}");
        if let Some(path) = f.value("trace") {
            println!("trace written to {path}");
        }
    }

    if f.has("verbose") {
        println!("\nfull event log:");
        for id in NodeId::all(sc.n) {
            for (round, ev) in &result.outputs[id.idx()] {
                println!("  [{round:4}] {id}: {ev:?}");
            }
        }
    }

    for line in &result.adversary_output {
        println!("adversary output: {line}");
    }
    exit(0)
}

/// The flat scenario: a ULS network against the chosen adversary.
pub fn run_main(f: &Flags) -> ! {
    let sc = Scenario::from_flags(f).or_exit();
    println!(
        "proauth scenario: n={} t={} units={} group={} auth={:?} seed={}",
        sc.n, sc.t, sc.units, sc.group, sc.auth, sc.seed
    );
    let group = Group::new(sc.group);
    let make_node = |id| sc.uls_node(&group, id);
    simulate(f, &sc, sc.uls_config(), make_node, |_| {})
}

/// The `--clusters` scenario: the §6 two-level hierarchy — √n clusters, each
/// running its own cluster-local ULS stack, a top-level PDS over the cluster
/// representatives, and inter-cluster traffic certified through the
/// authenticator.
pub fn clusters_main(f: &Flags) -> ! {
    use proauth_core::hier::{heartbeat_msg, HierConfig, HierNode, HIER_SETUP_ROUNDS};

    let sc = Scenario::from_flags(f).or_exit();
    let mut hcfg = HierConfig::new(Group::new(sc.group), sc.n);
    hcfg.auth_mode = sc.auth;
    let clusters = &hcfg.partition.clusters;
    let mut cfg = sc.sim_config(sc.schedule(), HIER_SETUP_ROUNDS);
    cfg.s = 1;
    cfg.clusters = Some(clusters.clone());

    println!(
        "proauth hierarchy: n={} clusters={} group={} auth={:?} units={} seed={}",
        sc.n,
        hcfg.partition.cluster_count(),
        sc.group,
        sc.auth,
        sc.units,
        sc.seed
    );
    for (c, members) in clusters.iter().enumerate() {
        println!(
            "  cluster {c}: nodes {}..{} (t={}, representative {})",
            members.first().unwrap(),
            members.last().unwrap(),
            hcfg.partition.cluster_threshold(c),
            hcfg.partition.representative(c, 0),
        );
    }
    let make_node = |id: NodeId| HierNode::new(hcfg.clone(), id, HeartbeatApp::default());
    simulate(f, &sc, cfg, make_node, |result| {
        // Per-cluster liveness: which units each cluster co-signed the
        // top-level heartbeat for (any member — robust to re-elections).
        println!("top-level heartbeat signatures per cluster:");
        for (c, members) in clusters.iter().enumerate() {
            let mut units_signed: Vec<u64> = members
                .iter()
                .flat_map(|&m| result.events_of(NodeId(m)))
                .filter_map(|(_, ev)| match ev {
                    OutputEvent::Signed { msg, unit } if *msg == heartbeat_msg(*unit) => {
                        Some(*unit)
                    }
                    _ => None,
                })
                .collect();
            units_signed.sort_unstable();
            units_signed.dedup();
            println!("  cluster {c}: units {units_signed:?}");
        }
        println!();

        // The engine's own two-level Definition-7 scoreboard: distinct
        // impaired nodes per unit, scored against each cluster's PDS
        // threshold and the top-level PDS over representatives.
        println!("per-unit two-level (s,t) scoreboard:");
        for score in &result.stats.unit_scores {
            let per_cluster: Vec<String> = score
                .clusters
                .iter()
                .map(|c| {
                    let mark = if c.majority_compromised() { "!" } else { "" };
                    format!("{}/{}{mark}", c.impaired, c.size)
                })
                .collect();
            let verdict = if score.within_two_level_budget() {
                "within"
            } else {
                "OVER"
            };
            println!(
                "  unit {}: impaired {} non-op {}  clusters [{}]  majority-compromised {}  \
                 {verdict} two-level budget",
                score.unit,
                score.impaired,
                score.non_operational,
                per_cluster.join(" "),
                score.majority_compromised_clusters(),
            );
        }
        println!();
    })
}

/// The `chaos` subcommand: run the standard degradation ramp and report
/// whether the (s,t) boundary showed up where the paper says it should.
pub fn chaos_main(f: &Flags) -> ! {
    let sc = Scenario::from_flags(f).or_exit();
    let (n, t, units, normal, seed) = (sc.n, sc.t, sc.units, sc.normal, sc.seed);
    println!("proauth chaos sweep: n={n} t={t} units={units} normal={normal} seed={seed}");
    println!("impairment budget: t={t} nodes per unit (Definition 7)\n");

    let mut demonstrated = true;
    for p in &run_sweep(&SweepConfig::boundary_ramp(n, t, units, normal, seed)) {
        println!("{p}");
        // Sub-budget points must uphold every guarantee; over-budget points
        // must degrade *loudly* — a silent pass past the boundary means the
        // accounting is broken.
        if p.intended_sub_budget != p.healthy() || p.intended_sub_budget == p.alarm() {
            demonstrated = false;
        }
    }
    println!();
    if demonstrated {
        println!(
            "boundary demonstrated: sub-budget guarantees held, over-budget degraded with alarms"
        );
        exit(0)
    }
    println!("boundary NOT demonstrated (see points above)");
    exit(1)
}

/// The batch-verify window (`--window`).
fn verify_window(f: &Flags) -> usize {
    f.get("window", 8).or_exit()
}

/// Runs the ALS signing service over 20-round units (1 + 8-round refresh)
/// with client requests from `input`, which may read the run's telemetry.
/// Returns the number of distinct (message, unit) signatures, the telemetry
/// and the number of rounds run.
fn run_service(
    f: &Flags,
    sc: &Scenario,
    mut input: impl FnMut(&Telemetry, NodeId, u64) -> Option<Vec<u8>>,
) -> (usize, Telemetry, u64) {
    let (window, preprocess) = (verify_window(f), f.has("preprocess"));
    let mut cfg = sc.sim_config(Schedule::new(20, 1, 8), 2);
    let rounds = cfg.total_rounds;
    cfg.parallel = f.has("parallel");
    let telemetry = Telemetry::enabled();
    cfg.telemetry = telemetry.clone();
    let group = Group::new(sc.group);
    let make_node = |id| {
        let mut c = AlsConfig::new(group.clone(), sc.n, sc.t);
        c.nonce_pool = if preprocess { 64 } else { 0 };
        c.verify_window = window;
        AlsProcess::new(AlsPds::new(c, id))
    };
    let result = run_al_with_inputs(cfg, make_node, &mut PassiveAl, |id, round| {
        input(&telemetry, id, round)
    });
    let signed: BTreeSet<_> = result
        .outputs
        .iter()
        .flatten()
        .filter_map(|(_, ev)| match ev {
            OutputEvent::Signed { msg, unit } => Some((msg, *unit)),
            _ => None,
        })
        .collect();
    (signed.len(), telemetry, rounds)
}

/// The `service` subcommand: drive the ALS layer with the open-loop client
/// workload and report signing-as-a-service throughput and latency.
pub fn service_main(f: &Flags) -> ! {
    use proauth_sim::workload::{Workload, WorkloadConfig};

    let sc = Scenario::from_flags(f).or_exit();
    let rate: u64 = f.get("rate", 2_000).or_exit();
    let (window, preprocess) = (verify_window(f), f.has("preprocess"));
    let mix = f.value("mix");
    println!(
        "proauth signing service: n={} t={} units={} group={} rate={rate}m ops/round \
         window={window} mix={} preprocess={preprocess} seed={}\n",
        sc.n,
        sc.t,
        sc.units,
        sc.group,
        mix.unwrap_or("sign=3,verify=1"),
        sc.seed
    );
    let wcfg = match mix {
        None => WorkloadConfig::with_rate(sc.seed ^ 0xE13, rate),
        Some(spec) => WorkloadConfig::with_mix(sc.seed ^ 0xE13, rate, spec)
            .map_err(|e| format!("bad --mix: {e}"))
            .or_exit(),
    };
    let workload = Workload::new(wcfg, sc.n);
    let start = std::time::Instant::now();
    let (signed, telemetry, rounds) = run_service(f, &sc, |_, id, r| workload.input(id, r));
    let elapsed = start.elapsed();

    let snap = telemetry.snapshot().expect("telemetry enabled");
    let normal_ns = snap.hists.get("phase/normal_ns").map_or(0, |h| h.sum_ns);
    println!(
        "signed {signed} of {} offered sign requests",
        workload.offered_signs(rounds)
    );
    if normal_ns > 0 {
        println!(
            "online throughput:    {:.1} sig/s of normal-phase engine time",
            signed as f64 * 1e9 / normal_ns as f64
        );
    }
    if !elapsed.is_zero() {
        println!(
            "sustained throughput: {:.1} sig/s wall-clock (setup + refresh included)",
            signed as f64 / elapsed.as_secs_f64()
        );
    }
    if let Some(h) = snap.value_hists.get("pds/sign_latency_rounds") {
        let q = h.quantiles_value(&[0.5, 0.95, 0.99]);
        println!(
            "sign latency (rounds): p50 {}  p95 {}  p99 {}",
            q[0], q[1], q[2]
        );
    }
    if let Some(metrics) = proauth_sim::report::render_metrics(&telemetry) {
        println!("\nmetrics:");
        print!("{metrics}");
    }
    exit(0)
}

/// `service --closed-loop`: sweep the outstanding-request window and print
/// the latency-vs-offered-load curve. Open-loop runs show overload as
/// unbounded queueing; the closed loop instead throttles the client to the
/// service's own completion rate, so the sweep traces the classic curve —
/// throughput climbs with the window until the service saturates (the
/// *knee*), after which extra outstanding work only buys latency.
pub fn closed_loop_main(f: &Flags) -> ! {
    use proauth_sim::workload::ClosedLoopWorkload;

    let sc = Scenario::from_flags(f).or_exit();
    let windows: Vec<usize> = match f.value("windows") {
        None => vec![1, 2, 4, 8, 16, 32],
        Some(spec) => spec
            .split(',')
            .map(|w| w.trim().parse().ok().filter(|&w| w > 0))
            .collect::<Option<_>>()
            .ok_or("--windows wants a comma list of positive ints, e.g. 1,2,4,8".to_owned())
            .or_exit(),
    };
    println!(
        "proauth signing service, closed loop: n={} t={} units={} group={} preprocess={} \
         seed={} windows={windows:?}\n",
        sc.n,
        sc.t,
        sc.units,
        sc.group,
        f.has("preprocess"),
        sc.seed
    );

    // (window, issued, signed, sigs/round, p50, p95) per sweep point.
    let mut curve: Vec<(usize, u64, usize, f64, u64, u64)> = Vec::new();
    for &w in &windows {
        let mut wl = ClosedLoopWorkload::new(sc.seed ^ 0xC105ED, w);
        // Every node increments `pds/sign_completed` once per finished
        // session, so the per-client completion count is the counter divided
        // by n. The registry only changes at round barriers, which keeps the
        // feedback (and so the issued stream) deterministic for any engine.
        let (signed, telemetry, rounds) = run_service(f, &sc, |tele, id, round| {
            wl.input(id, round, tele.counter("pds/sign_completed") / sc.n as u64)
        });
        let snap = telemetry.snapshot().expect("telemetry enabled");
        let (p50, p95) = snap
            .value_hists
            .get("pds/sign_latency_rounds")
            .map_or((0, 0), |h| {
                let q = h.quantiles_value(&[0.5, 0.95]);
                (q[0], q[1])
            });
        curve.push((
            w,
            wl.issued(),
            signed,
            signed as f64 / rounds as f64,
            p50,
            p95,
        ));
    }

    // The knee: the last window that still bought a meaningful (≥10%)
    // throughput gain — past it, deeper pipelines only add latency.
    let mut knee = curve.first().map_or(1, |c| c.0);
    for pair in curve.windows(2) {
        if pair[1].3 > pair[0].3 * 1.10 {
            knee = pair[1].0;
        }
    }
    println!("latency vs offered load (closed loop, sign-only):");
    println!(
        "  {:>7} {:>7} {:>7} {:>10} {:>11} {:>11}",
        "window", "issued", "signed", "sigs/round", "p50 rounds", "p95 rounds"
    );
    for &(w, issued, signed, per_round, p50, p95) in &curve {
        let knee_mark = if w == knee { "   <- knee" } else { "" };
        let per_round = format!("{per_round:.2}");
        println!("  {w:>7} {issued:>7} {signed:>7} {per_round:>10} {p50:>11} {p95:>11}{knee_mark}");
    }
    println!(
        "\nknee at window {knee}: larger windows raise latency without a matching \
         throughput gain"
    );
    exit(0)
}
