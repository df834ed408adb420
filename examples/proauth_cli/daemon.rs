//! Daemon mode: the protocol over real sockets, one OS process per node.
//! `serve` is one node, `proxy` the adversarial router, `client` the
//! collector, `top` a status-endpoint scraper, and `daemon` the supervisor
//! that spawns and heals all of them.

use crate::flags::{fail, Flags, OrExit};
use crate::scenario::{addr_arg, chaos_argv, chaos_spec, pace, serve_argv, Scenario};
use proauth_crypto::group::Group;
use proauth_sim::chaos::{ChaosSpec, FaultSchedule};
use proauth_sim::message::{NodeId, OutputEvent};
use proauth_sim::net::{AddrPlan, DaemonOutcome, StateDir};
use std::process::exit;

/// `serve`: one node of the deployment, as this process.
pub fn serve_main(f: &Flags) -> ! {
    use proauth_sim::net::{run_node, Load};
    use proauth_sim::ProcessDriver;

    let sc = Scenario::from_flags(f).or_exit();
    let mut cfg = sc.node_config(f).or_exit();
    let me = cfg.me;

    // Durable state: with --state-dir, a restarted process finds its ROM
    // image and round watermark on disk and rejoins the running cluster
    // instead of re-running setup. A corrupt watermark demotes to a full
    // catch-up from round 0 (share recovery repairs the lost shares); a
    // corrupt ROM is fatal — the write-once image is the node's identity
    // and cannot be reconstructed locally.
    let rom = cfg.state_dir.clone().and_then(|root| {
        let sd = StateDir::open(&root, me.0).unwrap_or_else(|e| {
            eprintln!("node {me}: cannot open state dir {}: {e}", root.display());
            exit(1)
        });
        let rom = match sd.load_rom() {
            Load::Absent => return None,
            Load::Ok(rom) => rom,
            Load::Corrupt => {
                eprintln!("node {me}: durable ROM image is corrupt; refusing to rejoin");
                exit(1)
            }
        };
        let resume = match sd.load_watermark() {
            Load::Ok(wm) => wm.completed_rounds,
            Load::Absent => 0,
            Load::Corrupt => {
                eprintln!(
                    "node {me}: watermark corrupt; rejoining from round 0 \
                     (full catch-up + share recovery)"
                );
                0
            }
        };
        eprintln!("node {me}: rejoining from durable state at round {resume}");
        cfg.resume = Some(resume);
        Some(rom)
    });
    let node = sc.uls_node(&Group::new(sc.group), me);
    let mut driver = match rom {
        None => ProcessDriver::new(node, me, sc.n, sc.seed),
        Some(rom) => ProcessDriver::with_rom(node, me, sc.n, sc.seed, rom),
    };
    let run = run_node(cfg, &mut driver, |_, _| None);
    finish(&format!("node {me}"), run, |rep| {
        println!(
            "node {me}: rounds {} sent {} received {} bytes_sent {} alerts {} late {} \
             mark_timeouts {}",
            rep.rounds,
            rep.sent,
            rep.received,
            rep.bytes_sent,
            rep.alerts,
            rep.late_frames,
            rep.mark_timeouts
        )
    })
}

/// Exits 0 after `report`ing a successful run, or 1 after saying why `what`
/// failed.
fn finish<T, E: std::fmt::Display>(what: &str, run: Result<T, E>, report: impl FnOnce(T)) -> ! {
    match run {
        Ok(outcome) => {
            report(outcome);
            exit(0)
        }
        Err(e) => {
            eprintln!("{what} failed: {e}");
            exit(1)
        }
    }
}

/// `proxy`: the adversarial router, as this process.
pub fn proxy_main(f: &Flags) -> ! {
    use proauth_sim::net::{run_proxy, ProxyConfig};

    let sc = Scenario::from_flags(f).or_exit();
    let spec = chaos_spec(f, sc.n).or_exit();
    let cfg = ProxyConfig {
        n: sc.n,
        plan: sc.plan().clone(),
        spec,
        run_id: sc.run_id(),
        idle_timeout_ms: f.get("idle-timeout", 60_000).or_exit(),
    };
    println!("proxy: n={} chaos: {}", sc.n, chaos_summary(&spec));
    finish("proxy", run_proxy(cfg), |stats| {
        println!(
            "proxy: forwarded {} delayed {} duplicated {} resets {} setup {} marks {}",
            stats.forwarded,
            stats.delayed,
            stats.duplicated,
            stats.resets,
            stats.setup_forwarded,
            stats.marks
        )
    })
}

/// The chaos knobs as the proxy and the daemon print them.
fn chaos_summary(spec: &ChaosSpec) -> String {
    format!(
        "delay {}%/{}r dup {}% reset {}% partition {:?}",
        spec.delay_pct,
        spec.delay_max,
        spec.dup_pct,
        spec.reset_pct,
        spec.partition
    )
}

/// The collector's config for `sc`.
fn collector_config(sc: &Scenario, idle_timeout_ms: u64) -> proauth_sim::net::CollectorConfig {
    proauth_sim::net::CollectorConfig {
        n: sc.n,
        plan: sc.plan().clone(),
        run_id: sc.run_id(),
        idle_timeout_ms,
        t: sc.t,
        unit_rounds: sc.schedule().unit_rounds,
        status: false,
        trace_spec: None,
    }
}

/// `client`: the collector, as this process.
pub fn client_main(f: &Flags) -> ! {
    let sc = Scenario::from_flags(f).or_exit();
    let mut cfg = collector_config(&sc, f.get("idle-timeout", 60_000).or_exit());
    cfg.status = f.has("status");
    finish("collector", proauth_sim::net::collect(cfg), |outcome| {
        print_goodput_report(&sc, &outcome)
    })
}

/// The goodput report shared by `client` and `daemon`.
fn print_goodput_report(sc: &Scenario, outcome: &DaemonOutcome) {
    let (n, units, rounds) = (sc.n, sc.units, sc.total_rounds());
    println!("\ndaemon run complete: n={n} units={units} rounds={rounds}");
    println!("per-node summary:");
    for id in NodeId::all(n) {
        let rep = &outcome.reports[id.idx()];
        let accepted = outcome.outputs[id.idx()]
            .iter()
            .filter(|(_, e)| matches!(e, OutputEvent::Accepted { .. }))
            .count();
        println!(
            "  {id}: accepted {accepted:4}  sent {:5}  late {:3}  mark-timeouts {:2}  alerts {}",
            rep.sent, rep.late_frames, rep.mark_timeouts, rep.alerts
        );
    }
    let wall = outcome.wall.as_secs_f64();
    println!(
        "\nwall clock: {wall:.2}s  rounds/s: {:.1}  msgs/s: {:.0}",
        outcome.rounds_per_sec(),
        outcome.reports.iter().map(|r| r.sent).sum::<u64>() as f64 / wall.max(1e-9),
    );
    println!(
        "authenticated goodput: {:.0} B/s ({} accepted payload bytes)",
        outcome.goodput(),
        outcome.accepted_bytes()
    );
}

/// The observability-plane summary: merged transport counters and the alarm
/// stream (empty on a clean run).
fn print_observability_report(outcome: &DaemonOutcome) {
    let c = |name: &str| outcome.merged.counters.get(name).copied().unwrap_or(0);
    if !outcome.merged.counters.is_empty() {
        println!(
            "observability: late_frames {} mark_timeouts {} dup {} reorder {} \
             rejected {} alerts {}",
            c("net/late_frames"),
            c("net/mark_timeouts"),
            c("net/dup_frames"),
            c("net/reorder_frames"),
            c("uls/rejected"),
            c("uls/alerts"),
        );
    }
    if let Some(h) = outcome.merged.value_hists.get("net/recovery_latency_ms") {
        let q = h.quantiles_value(&[0.5, 0.95, 1.0]);
        println!(
            "recovery latency: {} restart(s) healed, p50 {}ms p95 {}ms max {}ms",
            h.total, q[0], q[1], q[2]
        );
    }
    if std::env::var_os("PROAUTH_DEBUG_COUNTERS").is_some() {
        for (name, v) in &outcome.merged.counters {
            println!("  counter {name} = {v}");
        }
    }
    if outcome.alarms.is_empty() {
        println!("alarms: none");
    } else {
        println!("alarms: {}", outcome.alarms.len());
        for a in &outcome.alarms {
            let (node, round, kind, detail) = (a.node, a.round, &a.kind, &a.detail);
            println!(
                "  [{}] node {node} round {round}: {kind} ({detail})",
                a.severity.label()
            );
        }
    }
}

/// `top`: scrape the collector's live status socket and print the result.
/// `--view metrics|json|top` picks the rendering (default `top`); `--once`
/// prints one snapshot, otherwise refreshes every `--interval` ms.
pub fn top_main(f: &Flags) -> ! {
    use proauth_sim::net::Endpoint;
    use std::io::{Read, Write};

    let endpoint = Scenario::from_flags(f).or_exit().plan().status();
    let view = f.value("view").unwrap_or("top");
    if !matches!(view, "metrics" | "json" | "top") {
        fail("--view wants metrics|json|top");
    }
    let interval = std::time::Duration::from_millis(f.get("interval", 1_000).or_exit());

    let scrape = || -> std::io::Result<String> {
        fn ask(mut s: impl Read + Write, view: &str) -> std::io::Result<String> {
            let mut body = String::new();
            s.write_all(format!("{view}\n").as_bytes())?;
            s.read_to_string(&mut body)?;
            Ok(body)
        }
        match &endpoint {
            Endpoint::Tcp(addr) => ask(std::net::TcpStream::connect(addr)?, view),
            Endpoint::Unix(path) => ask(std::os::unix::net::UnixStream::connect(path)?, view),
        }
    };
    loop {
        let body = scrape().unwrap_or_else(|e| {
            eprintln!("cannot scrape {endpoint}: {e}");
            exit(1)
        });
        print!("{body}");
        if !body.ends_with('\n') {
            println!();
        }
        if f.has("once") {
            exit(0)
        }
        println!("---");
        std::thread::sleep(interval);
    }
}

/// `--check`: runs the same scenario on the in-process engine, under the
/// same chaos spec, and checks the outcome against the protocol's promises —
/// certified keys match the engine's, every node made progress, and nothing
/// was accepted that its claimed sender never sends. A run without kills or
/// socket resets (`identical`) must moreover match the engine bit for bit:
/// every node-emitted output event and every node's alert count (the
/// engine's ground-truth `Compromised`/`Recovered` lines are its own), plus
/// the stripped trace when the network was faithful. Prints the verdict and
/// returns whether it passed.
///
/// Restarted nodes are read off the collector's `node_restarted` alarm
/// stream (the supervisor emits one per respawn, stamped with the observed
/// round): a restarted node's report covers only the rounds since its
/// rejoin (the dead instance never reported), so its round count is checked
/// for progress rather than completeness, and its liveness must be
/// demonstrated *at or after* the restart round — proof that the respawned
/// process caught up and the cluster still authenticates it.
fn check_outcome(sc: &Scenario, outcome: &DaemonOutcome, spec: ChaosSpec, identical: bool) -> bool {
    println!("\nchecking against the in-process engine...");
    let (engine, engine_trace) = sc.engine_run(spec);
    let mut failures = Vec::new();
    // Certified keys: setup is adversary-free even under the chaos proxy, so
    // every ROM (v_cert and friends) must equal the engine's exactly.
    if outcome.roms != engine.roms {
        failures.push("ROMs (certified keys) diverged from the engine run".to_owned());
    }
    let accepted = |e: &OutputEvent| matches!(e, OutputEvent::Accepted { .. });
    for id in NodeId::all(sc.n) {
        let log = &outcome.outputs[id.idx()];
        // The last round this node's process was respawned at, per the
        // supervisor's alarms (None = never restarted).
        let restart_round = outcome
            .alarms
            .iter()
            .filter(|a| a.kind == "node_restarted" && a.node == id.0)
            .map(|a| a.round)
            .max();
        // Liveness: heartbeats verified at every node — for a restarted
        // node, at or after the restart, but only when recovery is
        // observable. A respawned process rebuilds its volatile protocol
        // state through share recovery at the next refreshment phase, so it
        // can only prove liveness if a complete time unit (refresh, then
        // normal rounds) starts at or after the restart; a kill inside the
        // final unit heals the process but leaves nothing on the schedule
        // to accept.
        let live = match restart_round {
            None => log.iter().any(|(_, e)| accepted(e)),
            Some(rr) => {
                let sched = sc.schedule();
                let unit_rounds = sched.unit_rounds;
                let next_unit_start = rr.div_ceil(unit_rounds) * unit_rounds;
                let observable = next_unit_start + unit_rounds <= sc.total_rounds();
                // The victim verifies peers from its durable ROM right away;
                // the cluster re-authenticates the victim only once the
                // refresh after its restart hands it fresh certified keys.
                // Both directions must be visible: the respawned process
                // accepts, and some peer accepts *from* it post-recovery.
                let recertified_by = next_unit_start + sched.refresh_rounds();
                let accepts = log.iter().any(|(r, e)| *r >= rr && accepted(e));
                let heard_from = outcome.outputs.iter().flatten().any(|(r, e)| {
                    *r >= recertified_by
                        && matches!(e, OutputEvent::Accepted { from, .. } if *from == id)
                });
                !observable || (accepts && heard_from)
            }
        };
        if !live {
            let last_accept = log
                .iter()
                .filter(|(_, e)| accepted(e))
                .map(|(r, _)| *r)
                .max();
            failures.push(match restart_round {
                None => format!("{id} accepted no heartbeats"),
                Some(rr) => format!(
                    "{id} accepted no heartbeats after its restart at round {rr} \
                     (last accept: {})",
                    last_accept.map_or("never".into(), |r| format!("round {r}")),
                ),
            });
        }
        let rounds = outcome.reports[id.idx()].rounds;
        match restart_round {
            None if rounds != sc.total_rounds() => {
                failures.push(format!("{id} did not complete all rounds"));
            }
            Some(_) if rounds == 0 || rounds > sc.total_rounds() => {
                failures.push(format!(
                    "{id} rejoined instance reported a nonsensical round count {rounds}"
                ));
            }
            _ => {}
        }
        // Zero forgeries: an accepted heartbeat must be one its claimed
        // sender actually emits ("hb:<sender>:<round>").
        for (_, ev) in log {
            if let OutputEvent::Accepted { from, msg } = ev {
                let ok = std::str::from_utf8(msg).is_ok_and(|text| {
                    let mut parts = text.splitn(3, ':');
                    parts.next() == Some("hb")
                        && parts.next() == Some(from.0.to_string().as_str())
                        && parts.next().is_some_and(|r| r.parse::<u64>().is_ok())
                });
                if !ok {
                    failures.push(format!("{id} accepted a forged message: {msg:?}"));
                }
            }
        }
    }
    if identical {
        for id in NodeId::all(sc.n) {
            let node_emitted = engine.outputs[id.idx()]
                .iter()
                .filter(|(_, e)| !e.is_ground_truth());
            if !outcome.outputs[id.idx()].iter().eq(node_emitted) {
                failures.push(format!("{id} output log diverged from the engine"));
            }
            if outcome.reports[id.idx()].alerts != engine.stats.alerts[id.idx()] {
                failures.push(format!("{id} alert count diverged from the engine"));
            }
        }
    }
    if identical && spec.is_faithful() {
        // Golden-trace guarantee, daemon edition: the collector-assembled
        // trace, stripped of wall-clock fields, must be byte-identical to the
        // engine's flight recorder. (Under chaos the engine's round footers
        // count the adversary's drops and injections; the daemon's cannot.)
        use proauth_sim::telemetry::strip_wall_fields;
        match &outcome.trace {
            Some(trace) if strip_wall_fields(trace) != strip_wall_fields(&engine_trace) => {
                failures.push("assembled trace diverged from the engine trace".to_owned());
            }
            Some(_) => {}
            None => failures.push("trace assembly did not complete".to_owned()),
        }
    }
    if !failures.is_empty() {
        println!("check FAILED:");
        for f in &failures {
            println!("  {f}");
        }
        return false;
    }
    let by_engine = engine
        .outputs
        .iter()
        .flatten()
        .filter(|(_, e)| accepted(e))
        .count();
    let how = if identical {
        "bit-identical"
    } else {
        "chaos run"
    };
    println!(
        "check PASSED: certified keys match, zero forgeries, all nodes live \
         (daemon accepted {}, engine {by_engine}, {how})",
        outcome.count_events(accepted)
    );
    true
}

/// The node ids this invocation spawns: all of them, or with `--hosts` the
/// ranges of the `--local` label. Remote ranges get their exact serve
/// command printed for the operator to run; the collector then waits for
/// them to dial in.
fn local_nodes(f: &Flags, sc: &Scenario, serve_argv: impl Fn(u32) -> Vec<String>) -> Vec<u32> {
    let Some(path) = f.value("hosts") else {
        return (1..=sc.n as u32).collect();
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read hosts manifest {path}: {e}"))
        .or_exit();
    if matches!(sc.plan(), AddrPlan::Unix { .. }) {
        eprintln!(
            "warning: --hosts over unix sockets only reaches this machine; \
             use --addr tcp:HOST:PORT for a real multi-host run"
        );
    }
    let local_label = f.value("local").unwrap_or_default();
    let mut local = Vec::new();
    let mut matched = false;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parsed = line
            .split_once(char::is_whitespace)
            .and_then(|(label, range)| {
                let (lo, hi) = range.trim().split_once('-')?;
                Some((
                    label,
                    lo.trim().parse::<u32>().ok()?,
                    hi.trim().parse::<u32>().ok()?,
                ))
            });
        let at = format!("{path}:{}", lineno + 1);
        let Some((label, lo, hi)) = parsed else {
            fail(format!("{at}: want `<label> <lo>-<hi>`, got: {line}"))
        };
        if lo == 0 || hi as usize > sc.n || lo > hi {
            fail(format!("{at}: node range {lo}-{hi} out of 1..={}", sc.n))
        }
        if label == local_label {
            matched = true;
            local.extend(lo..=hi);
        } else {
            println!("host {label}: run nodes {lo}-{hi} with:");
            for id in lo..=hi {
                println!("  proauth {}", serve_argv(id).join(" "));
            }
        }
    }
    if !local_label.is_empty() && !matched {
        fail(format!("--local {local_label} matches no line in {path}"));
    }
    local
}

/// `daemon`: orchestrates a full deployment — spawns `serve` children (and a
/// `proxy` when chaos flags are set), runs the collector inline, reports
/// goodput, and optionally verifies against the in-process engine.
pub fn daemon_main(f: &Flags) -> ! {
    use crate::supervisor::{supervise, Slot};
    use proauth_sim::net::{Collector, NodeNetConfig};

    let mut sc = Scenario::from_flags(f).or_exit();
    if sc.addr.is_none() {
        // The children share this plan through their --addr.
        let dir = std::env::temp_dir().join(format!("proauth-daemon-{}", std::process::id()));
        sc.addr = Some(AddrPlan::Unix { dir });
    }
    let spec = chaos_spec(f, sc.n).or_exit();
    let chaos = !spec.is_faithful();
    let check = f.has("check");
    // Process-level chaos and the self-healing knobs. Kills only make sense
    // with durable state: a respawned node without a ROM image on disk would
    // try to re-run setup against a cluster whose setup barrier has passed.
    let kill_plan = match f.value("kill") {
        None => FaultSchedule::default(),
        Some("auto") => {
            FaultSchedule::kill_all_once(sc.n, sc.t, &sc.schedule(), sc.total_rounds(), sc.seed)
                .map_err(|e| format!("bad --kill auto: {e}"))
                .or_exit()
        }
        Some(plan) => plan
            .parse::<FaultSchedule>()
            .map_err(|e| format!("bad --kill: {e}"))
            .or_exit(),
    };
    let rounds = sc.total_rounds();
    for &(round, victim) in kill_plan.events() {
        if victim.idx() >= sc.n || round >= rounds {
            fail(format!(
                "--kill {}:{round} is out of range (n={}, rounds={rounds})",
                victim.0, sc.n
            ));
        }
    }
    let kills = !kill_plan.events().is_empty();
    let truncate = f.has("truncate-state");

    // Every node process gets this config, but for its id. Observability is
    // on by default in daemon mode: each node folds its registry into
    // per-round metrics deltas and a health beacon. Trace assembly needs the
    // nodes to stream their flight-recorder events; `--check` compares the
    // assembled trace against the engine (faithful runs only), `--trace
    // PATH` saves it.
    let mut node = sc.node_defaults(NodeId(0));
    node.via_proxy = chaos;
    node.report = true;
    node.telemetry = true;
    node.stream_trace = check || f.has("trace");
    node.round_ms = 1_000;
    pace(f, &mut node).or_exit();
    if kills && !f.has("min-round-ms") {
        // A kill schedule fires on beacon-observed rounds, so rounds must
        // take long enough for the supervisor to interleave; unpaced rounds
        // finish in microseconds and every kill would land after the run.
        // Pace at a quarter of the round deadline by default.
        node.min_round_ms = (node.round_ms / 4).max(20);
    }
    if kills && node.state_dir.is_none() {
        fail("--kill needs --state-dir (a killed node can only rejoin from durable state)");
    }

    if let AddrPlan::Unix { dir } = sc.plan() {
        std::fs::create_dir_all(dir).expect("socket directory");
    }
    println!(
        "proauth daemon: n={} t={} units={} normal={} group={} auth={:?} seed={} addr={}",
        sc.n,
        sc.t,
        sc.units,
        sc.normal,
        sc.group,
        sc.auth,
        sc.seed,
        addr_arg(sc.plan())
    );
    if chaos {
        println!("chaos proxy: {} (seed {})", chaos_summary(&spec), spec.seed);
    } else {
        println!("topology: direct full mesh (no proxy)");
    }
    if let Some(root) = &node.state_dir {
        println!("durable state: {}", root.display());
    }
    if kills {
        let sched: Vec<String> = kill_plan
            .events()
            .iter()
            .map(|(r, v)| format!("{}@r{r}", v.0))
            .collect();
        println!(
            "kill schedule: {} (truncate-state: {})",
            sched.join(" "),
            if truncate { "yes" } else { "no" }
        );
    }

    // Bind the collector before any child starts so report dials never race.
    // The live status socket is always on in daemon mode (`proauth top`
    // scrapes it at `plan.status()`).
    let mut ccfg = collector_config(&sc, f.get("idle-timeout", 120_000).or_exit());
    ccfg.status = true;
    ccfg.trace_spec = node.stream_trace.then(|| sc.trace_spec());
    let mut collector = Collector::bind(ccfg).unwrap_or_else(|e| {
        eprintln!("cannot bind collector: {e}");
        exit(1)
    });
    println!("status endpoint: {}", sc.plan().status());

    // Children are described by argv vectors, not pre-built Commands, so the
    // supervisor can respawn a dead node with exactly the arguments it was
    // born with.
    let child_argv = |id: u32| {
        let c = NodeNetConfig {
            me: NodeId(id),
            ..node.clone()
        };
        [vec!["serve".to_owned()], sc.to_argv(), serve_argv(&c)].concat()
    };
    let local = local_nodes(f, &sc, child_argv);

    let mut slots: Vec<Slot> = Vec::new();
    if chaos {
        let argv = [vec!["proxy".to_owned()], sc.to_argv(), chaos_argv(&spec)].concat();
        slots.push(Slot::spawn("proxy".into(), 0, argv, false));
    }
    for id in local {
        slots.push(Slot::spawn(format!("node {id}"), id, child_argv(id), true));
    }

    let state_root = node.state_dir.clone();
    let supervisor = supervise(f, sc.seed, slots, kill_plan, truncate, state_root, &mut collector);
    let outcome = collector.run();
    let (child_failures, restarts_total) = supervisor();
    let outcome = outcome.unwrap_or_else(|e| {
        eprintln!("collector failed: {e}");
        for f in &child_failures {
            eprintln!("  {f}");
        }
        exit(1)
    });
    print_goodput_report(&sc, &outcome);
    print_observability_report(&outcome);
    if restarts_total > 0 {
        println!("supervisor: {restarts_total} restart(s) performed");
    }
    for f in &child_failures {
        eprintln!("child failure: {f}");
    }

    if let Some(path) = f.value("trace") {
        match &outcome.trace {
            Some(trace) => {
                std::fs::write(path, trace).unwrap_or_else(|e| {
                    eprintln!("cannot write trace to {path}: {e}");
                    exit(1)
                });
                println!(
                    "assembled cluster trace: {path} ({} lines)",
                    trace.lines().count()
                );
            }
            None => eprintln!("trace assembly incomplete; {path} not written"),
        }
    }

    // Link chaos is the engine's own adversary model, so a run under it is
    // bit-comparable. Kills and socket resets are not: the certified keys
    // and safety properties must hold exactly, but a rejoined node's log
    // starts at its resume watermark, and a torn link delivers its frames
    // whenever the redial lands.
    let identical = !kills && spec.reset_pct == 0;
    if check && !check_outcome(&sc, &outcome, spec, identical) {
        exit(1)
    }
    if !child_failures.is_empty() {
        exit(1)
    }
    exit(0)
}
