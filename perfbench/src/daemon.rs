//! The `daemon-n3` workload: the real multi-process deployment
//! (`sim::net`). The benchmark binary is its own node program: it spawns
//! three `perfbench node` children that run `sim::net::run_node` over Unix
//! sockets with the flat ULS stack inside the benchmark's node wrapper, and
//! runs the collector itself. Each child writes its round boundaries and
//! check results to a file; the parent compares the outcome with the
//! in-process engine run of the same scenario (bit-identical output logs
//! and ROMs, and on traced reps the assembled flight-recorder trace).

use crate::engine::{uls_rep, unit_key_check, RepKind};
use crate::rep::{alerts, heartbeats, Rep, Traced};
use crate::stats::{cross_latency_s, Ops, RoundClock};
use crate::wrap::{Check, Node};
use proauth_core::authenticator::HeartbeatApp;
use proauth_core::awareness;
use proauth_core::uls::{uls_schedule, UlsConfig, UlsNode, SETUP_ROUNDS};
use proauth_crypto::group::{Group, GroupId};
use proauth_sim::message::NodeId;
use proauth_sim::net::{run_node, AddrPlan, Collector, CollectorConfig, NodeNetConfig, TraceSpec};
use proauth_sim::telemetry::strip_wall_fields;
use proauth_sim::ProcessDriver;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

pub const N: usize = 3;
pub const T: usize = 1;
pub const NORMAL: u64 = 8;
pub const UNITS: u64 = 24;
/// Round pacing deadline (the CLI daemon's default); rounds advance as
/// soon as every mark is in, so this only bounds a stalled round.
const ROUND_MS: u64 = 1_000;
/// A child that has not finished this long after the collector returned
/// is killed.
const CHILD_GRACE: Duration = Duration::from_secs(10);

/// Seconds since the Unix epoch (the one clock parent and children share).
fn wall_now() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64())
}

/// Working directory for sockets and child files, relative to the checkout
/// (Unix socket paths must stay short).
fn work_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    Path::new(".bench_build").join("pb").join(format!(
        "{tag}{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn run_id(seed: u64, rounds: u64) -> u64 {
    let d = proauth_primitives::sha256::hash_parts(
        "perfbench/daemon/run-id",
        &[
            &seed.to_be_bytes(),
            &(N as u64).to_be_bytes(),
            &rounds.to_be_bytes(),
        ],
    );
    u64::from_be_bytes(d[..8].try_into().expect("8 of 32 digest bytes"))
}

/// `getrusage(RUSAGE_CHILDREN)`: user and system CPU seconds of reaped
/// children.
fn children_rusage() -> (f64, f64) {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a properly aligned, writable `struct rusage` (two
    // `timeval`s followed by fourteen `long`s on 64-bit Linux) that lives
    // for the duration of the call; getrusage writes nothing else.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    if rc != 0 {
        return (0.0, 0.0);
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    (secs(&u.utime), secs(&u.stime))
}

/// What one child reported through its file.
#[derive(Default)]
struct ChildLog {
    /// `rounds[r] = (start, end)` of the node's `on_round(r)`, wall seconds.
    rounds: Vec<(f64, f64)>,
    setup_steps: Vec<(u64, f64, f64)>,
    failures: Vec<String>,
    /// The node process's peak resident memory, MiB.
    rss_mib: f64,
}

fn read_child(path: &Path) -> Result<ChildLog, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut log = ChildLog::default();
    for line in text.lines() {
        let mut f = line.splitn(4, ' ');
        let kind = f.next().unwrap_or("");
        let num = |s: Option<&str>| s.and_then(|v| v.parse::<f64>().ok()).unwrap_or(f64::NAN);
        match kind {
            "setup" => {
                let r = num(f.next()) as u64;
                log.setup_steps.push((r, num(f.next()), num(f.next())));
            }
            "round" => {
                let _r = f.next();
                log.rounds.push((num(f.next()), num(f.next())));
            }
            "fail" => log.failures.push(line[5..].to_owned()),
            "rss" => log.rss_mib = num(f.next()),
            _ => return Err(format!("{}: bad line {line:?}", path.display())),
        }
    }
    Ok(log)
}

/// Kills and reaps every child still running (`(node id, child)`).
fn reap(children: &mut [(u32, Child)], failures: &mut Vec<String>) {
    let deadline = Instant::now() + CHILD_GRACE;
    for (id, child) in children.iter_mut() {
        loop {
            match child.try_wait() {
                Ok(Some(status)) => {
                    if !status.success() {
                        failures.push(format!("node {id} exited with {status}"));
                    }
                    break;
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    failures.push(format!("node {id} hung; killed"));
                    break;
                }
            }
        }
    }
}

/// One rep: spawn, connect, set up, run `UNITS` units, collect, check.
pub fn daemon_rep(seed: u64, traced: bool, kind: RepKind) -> Rep {
    let dir = work_dir("d");
    std::fs::create_dir_all(&dir).expect("create the daemon work directory");
    let schedule = uls_schedule(NORMAL);
    let total_rounds = kind.rounds(&schedule, UNITS);
    let plan = AddrPlan::Unix { dir: dir.clone() };
    let (cpu_u0, cpu_s0) = children_rusage();
    let t0 = wall_now();
    let mut failures = Vec::new();
    let collector = Collector::bind(CollectorConfig {
        n: N,
        plan: plan.clone(),
        run_id: run_id(seed, total_rounds),
        idle_timeout_ms: 20_000,
        t: T,
        unit_rounds: schedule.unit_rounds,
        status: false,
        trace_spec: traced.then_some(TraceSpec {
            n: N,
            s: T,
            seed,
            schedule,
            setup_rounds: SETUP_ROUNDS,
            total_rounds,
        }),
    })
    .expect("bind the collector socket");
    let exe = std::env::current_exe().expect("own executable path");
    let mut children = Vec::new();
    // Highest id first. A node dials every lower-numbered peer and retries
    // a dial every 20 ms until that peer listens; spawned in ascending order,
    // whether node 2 beats node 1's bind is a coin flip, and set-up times
    // split into two modes 20 ms apart. Descending, every set-up pays the
    // retry, so `setup_s` has one mode and still shows the dial cost.
    for id in (1..=N as u32).rev() {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "node".to_owned(),
            id.to_string(),
            seed.to_string(),
            total_rounds.to_string(),
            dir.display().to_string(),
            u8::from(traced).to_string(),
        ]);
        cmd.stdout(Stdio::null()).stderr(Stdio::inherit());
        match cmd.spawn() {
            Ok(c) => children.push((id, c)),
            Err(e) => failures.push(format!("spawn node {id}: {e}")),
        }
    }
    let outcome = collector.run();
    reap(&mut children, &mut failures);
    let (cpu_u1, cpu_s1) = children_rusage();

    let logs: Vec<ChildLog> = (1..=N)
        .map(|id| {
            read_child(&dir.join(format!("node-{id}.log"))).unwrap_or_else(|e| {
                failures.push(e);
                ChildLog::default()
            })
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    let complete = logs.iter().all(|l| l.rounds.len() as u64 == total_rounds);
    let outcome = match outcome {
        Ok(o) if complete => o,
        Ok(_) => {
            failures.push("a node did not complete every round".to_owned());
            return failed_rep(schedule, failures);
        }
        Err(e) => {
            failures.push(format!("collector: {e}"));
            return failed_rep(schedule, failures);
        }
    };
    for l in &logs {
        failures.extend(l.failures.iter().cloned());
    }

    // Per-node clocks from the children's own boundaries; the cluster's
    // round r begins when its last node entered it.
    let clocks: Vec<RoundClock> = logs
        .iter()
        .map(|l| {
            let mut starts: Vec<f64> = l.rounds.iter().map(|(s, _)| s - t0).collect();
            starts.push(l.rounds.last().map_or(0.0, |(_, e)| e - t0));
            RoundClock { starts }
        })
        .collect();
    let cluster = RoundClock {
        starts: (0..=total_rounds as usize)
            .map(|r| clocks.iter().map(|c| c.starts[r]).fold(f64::MIN, f64::max))
            .collect(),
    };
    let setup_s = cluster.starts[0];
    let total_s = cluster.starts[total_rounds as usize];

    // The in-process engine run of the same scenario (the `--check`
    // reference), also the baseline of the network overhead.
    let (engine, reference) = uls_rep(N, T, NORMAL, UNITS, kind, seed, traced);
    if outcome.roms != reference.roms {
        failures.push("ROMs diverged from the engine run".to_owned());
    }
    for id in NodeId::all(N) {
        if outcome.outputs[id.idx()] != reference.outputs[id.idx()] {
            failures.push(format!("{id} output log diverged from the engine"));
        }
    }
    let a = alerts(&outcome.outputs);
    if a > 0 {
        failures.push(format!("{a} alerts"));
    }
    if !awareness::find_impersonations(&outcome.outputs, &schedule, |_, _| false).is_empty() {
        failures.push("forgeries accepted".to_owned());
    }
    if traced {
        let engine_trace = engine
            .traced
            .as_ref()
            .map(|t| t.trace.as_str())
            .unwrap_or("");
        match &outcome.trace {
            Some(tr) if strip_wall_fields(tr) == strip_wall_fields(engine_trace) => {}
            Some(_) => failures.push("assembled trace diverged from the engine trace".to_owned()),
            None => failures.push("trace assembly did not complete".to_owned()),
        }
    }

    let flat = |id: NodeId| (0, id.0);
    let (auth_lat, sign_lat, auth, goodput) = heartbeats(
        &outcome.outputs,
        &flat,
        &|from, s, to, a| cross_latency_s(&clocks[from.idx()], s, &clocks[to.idx()], a),
        &|from, s| {
            let c = &clocks[from.idx()];
            ((s as usize) < c.rounds()).then(|| c.round_s(s))
        },
    );

    let traced = traced.then(|| {
        let mut steps = Vec::new();
        for (i, l) in logs.iter().enumerate() {
            let node = i as u32 + 1;
            for &(r, s, e) in &l.setup_steps {
                steps.push(crate::wrap::Step {
                    round: r,
                    setup: true,
                    node,
                    thread: node,
                    start: s - t0,
                    end: e - t0,
                });
            }
            for (r, &(s, e)) in l.rounds.iter().enumerate() {
                steps.push(crate::wrap::Step {
                    round: r as u64,
                    setup: false,
                    node,
                    thread: node,
                    start: s - t0,
                    end: e - t0,
                });
            }
        }
        let c = |name: &str| outcome.merged.counters.get(name).copied().unwrap_or(0) as f64;
        let cpu = (cpu_u1 - cpu_u0) + (cpu_s1 - cpu_s0);
        let rounds = total_rounds as f64;
        let daemon_round_ms = (total_s - setup_s) * 1e3 / rounds;
        let engine_round_ms = engine.post_s() * 1e3 / rounds;
        let net = vec![
            ("net.cpu_ms_per_round", cpu * 1e3 / rounds),
            (
                "net.sys_share",
                if cpu > 0.0 {
                    (cpu_s1 - cpu_s0) / cpu
                } else {
                    0.0
                },
            ),
            (
                "net.overhead_ms_per_round",
                daemon_round_ms - engine_round_ms,
            ),
            (
                "net.frames",
                outcome.reports.iter().map(|r| r.sent).sum::<u64>() as f64,
            ),
            (
                "net.frame_bytes",
                outcome.reports.iter().map(|r| r.bytes_sent).sum::<u64>() as f64,
            ),
            ("net.late_frames", c("net/late_frames")),
            ("net.mark_timeouts", c("net/mark_timeouts")),
        ];
        let eng = engine.traced.unwrap_or_default();
        Traced {
            steps,
            workers: N,
            adversary_s: 0.0,
            phase_snaps: Vec::new(),
            end_snap: outcome.merged.clone(),
            msgs: outcome.reports.iter().map(|r| r.sent).sum(),
            bytes: outcome.reports.iter().map(|r| r.bytes_sent).sum(),
            captured: eng.captured,
            trace: outcome.trace.clone().unwrap_or_default(),
            net,
        }
    });
    Rep {
        setup_s,
        total_s,
        clock: cluster,
        schedule,
        auth_lat,
        auth,
        sign_lat,
        signs: Ops::default(),
        signed: auth.attempted,
        goodput_bytes: goodput,
        node_rss_mib: Some(logs.iter().map(|l| l.rss_mib).fold(0.0, f64::max)),
        failures,
        traced,
    }
}

fn failed_rep(schedule: proauth_sim::clock::Schedule, failures: Vec<String>) -> Rep {
    Rep {
        setup_s: 0.0,
        total_s: 0.0,
        clock: RoundClock {
            starts: vec![0.0, 0.0],
        },
        schedule,
        auth_lat: Vec::new(),
        auth: Ops {
            attempted: 1,
            failed: 1,
        },
        sign_lat: Vec::new(),
        signs: Ops::default(),
        signed: 0,
        goodput_bytes: 0,
        node_rss_mib: None,
        failures,
        traced: None,
    }
}

/// `perfbench node <id> <seed> <rounds> <dir> <traced>`: one node process
/// of a daemon rep. Writes `<dir>/node-<id>.log` and exits 0 on success.
pub fn node_main(args: &[String]) -> ! {
    let [id, seed, rounds, dir, traced] = args else {
        eprintln!("perfbench node: want <id> <seed> <rounds> <dir> <traced>");
        std::process::exit(2)
    };
    let (Ok(id), Ok(seed), Ok(rounds), Ok(traced)) = (
        id.parse::<u32>(),
        seed.parse::<u64>(),
        rounds.parse::<u64>(),
        traced.parse::<u8>(),
    ) else {
        eprintln!("perfbench node: bad arguments {args:?}");
        std::process::exit(2)
    };
    let me = NodeId(id);
    let dir = PathBuf::from(dir);
    let wall0 = wall_now();
    let epoch = Instant::now();
    let schedule = uls_schedule(NORMAL);
    let group = Group::new(GroupId::S256);
    let mut cfg = NodeNetConfig::new(me, N, AddrPlan::Unix { dir: dir.clone() }, schedule);
    cfg.seed = seed;
    cfg.run_id = run_id(seed, rounds);
    cfg.report = true;
    cfg.setup_rounds = SETUP_ROUNDS;
    cfg.total_rounds = rounds;
    cfg.round_ms = ROUND_MS;
    cfg.telemetry = true;
    cfg.stream_trace = traced == 1;
    let ur = schedule.unit_rounds;
    let g = group.clone();
    let check: Check<UlsNode<HeartbeatApp>> =
        Box::new(move |node, time, rom| unit_key_check(node, me, &g, time, rom, ur));
    let (node, rec) = Node::new(
        UlsNode::new(UlsConfig::new(group, N, T), me, HeartbeatApp::default()),
        me,
        epoch,
        true,
        Some(check),
    );
    let mut driver = ProcessDriver::new(node, me, N, seed);
    let result = run_node(cfg, &mut driver, |_, _| None);
    let mut out = String::new();
    for s in rec.take_steps() {
        let kind = if s.setup { "setup" } else { "round" };
        out.push_str(&format!(
            "{kind} {} {} {}\n",
            s.round,
            wall0 + s.start,
            wall0 + s.end
        ));
    }
    for f in rec.take_failures() {
        out.push_str(&format!("fail {f}\n"));
    }
    if let Err(e) = &result {
        out.push_str(&format!("fail node {me}: {e}\n"));
    }
    out.push_str(&format!("rss {}\n", crate::peak_rss_mib()));
    let path = dir.join(format!("node-{id}.log"));
    let written = std::fs::File::create(&path).and_then(|mut f| {
        f.write_all(out.as_bytes())?;
        f.sync_all()
    });
    if let Err(e) = written {
        eprintln!("perfbench node {id}: cannot write {}: {e}", path.display());
        std::process::exit(1)
    }
    std::process::exit(i32::from(result.is_err()))
}
