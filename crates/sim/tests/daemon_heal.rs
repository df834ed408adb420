//! Kill-and-recover end-to-end: a node process dies mid-run (mid-refresh,
//! by the Fig-1 schedule), is respawned from its durable state, reconnects,
//! and rejoins the running cluster — the supervised-respawn path `proauth
//! daemon` drives with real processes, here exercised in threads over Unix
//! sockets so the crash, the state reload, and the rejoin handshake all run
//! under the test harness.
//!
//! Invariants checked: setup ROMs (the cluster's certified identity) match
//! the engine run exactly, the victim is heard from again after its rejoin,
//! nothing forged is ever accepted, the collector retains the victim's slot
//! across the re-handshake (one output log, both incarnations), and healthy
//! peers observe no duplicate or reordered frames from the victim's fresh
//! streams.

use proauth_sim::adversary::FaithfulUl;
use proauth_sim::clock::Schedule;
use proauth_sim::message::{NodeId, OutputEvent};
use proauth_sim::net::{
    collect, run_node, AddrPlan, CollectorConfig, DaemonOutcome, Load, NodeNetConfig, StateDir,
};
use proauth_sim::process::{Process, RoundCtx, SetupCtx};
use proauth_sim::runner::{run_ul, SimConfig, SimResult};
use proauth_sim::ProcessDriver;
use rand::RngCore;
use std::any::Any;
use std::path::PathBuf;

/// Heartbeat node with a crash fuse: panics at `crash_at` (first incarnation
/// only), which the driver surfaces as a crashed step — the thread-level
/// stand-in for SIGKILL. The respawned incarnation runs with the fuse unset.
struct HealNode {
    me: NodeId,
    crash_at: Option<u64>,
}

impl Process for HealNode {
    fn on_setup_round(&mut self, ctx: &mut SetupCtx<'_>) {
        match ctx.setup_round {
            0 => {
                let mut key = vec![0u8; 8];
                ctx.rng.fill_bytes(&mut key);
                ctx.rom.write("self_key", key.clone());
                ctx.send_all(key);
            }
            1 => {
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
        if self.crash_at == Some(ctx.time.round) {
            panic!("injected crash at round {}", ctx.time.round);
        }
        for env in ctx.inbox {
            if env.payload.starts_with(b"hb:") {
                ctx.emit(OutputEvent::Accepted {
                    from: env.from,
                    msg: env.payload.to_vec(),
                });
            }
        }
        let hb = format!("hb:{}:{}", self.me.0, ctx.time.round).into_bytes();
        ctx.send_all(hb);
    }

    fn state_mut(&mut self) -> &mut dyn Any {
        self
    }
}

const SEED: u64 = 4321;
const N: usize = 4;
const SETUP_ROUNDS: u64 = 3;
const TOTAL_ROUNDS: u64 = 24; // three time units
const VICTIM: NodeId = NodeId(3);
/// Unit 1's refreshment phase spans rounds 8..12; round 10 is Part 2.
const CRASH_ROUND: u64 = 10;

fn schedule() -> Schedule {
    Schedule::new(8, 2, 2)
}

fn engine_run() -> SimResult {
    let mut cfg = SimConfig::new(N, 1, schedule());
    cfg.seed = SEED;
    cfg.setup_rounds = SETUP_ROUNDS;
    cfg.total_rounds = TOTAL_ROUNDS;
    cfg.parallel = false;
    run_ul(
        cfg,
        |id| HealNode {
            me: id,
            crash_at: None,
        },
        &mut FaithfulUl,
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("proauth-heal-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn node_cfg(me: NodeId, plan: &AddrPlan, state_root: &std::path::Path) -> NodeNetConfig {
    let mut cfg = NodeNetConfig::new(me, N, plan.clone(), schedule());
    cfg.seed = SEED;
    cfg.run_id = SEED;
    cfg.report = true;
    cfg.setup_rounds = SETUP_ROUNDS;
    cfg.total_rounds = TOTAL_ROUNDS;
    cfg.round_ms = 2_000;
    // Keep the cluster on a wall-clock tempo so the victim's death and
    // respawn happen while rounds are still being played.
    cfg.min_round_ms = 50;
    cfg.connect_timeout_ms = 30_000;
    cfg.state_dir = Some(state_root.to_path_buf());
    // Stream beacons and alarms, so the collector's Definition-7 accounting
    // sees the restart.
    cfg.telemetry = true;
    cfg
}

/// Runs the cluster with the victim crashing once and being respawned from
/// durable state. `corrupt_watermark` truncates the victim's watermark file
/// before the respawn, forcing detection-by-digest and a round-0 rejoin.
fn heal_run(tag: &str, corrupt_watermark: bool) -> DaemonOutcome {
    let dir = temp_dir(tag);
    let plan = AddrPlan::Unix { dir: dir.clone() };
    let state_root = dir.join("state");
    std::fs::create_dir_all(&state_root).unwrap();

    let collector_cfg = CollectorConfig {
        n: N,
        plan: plan.clone(),
        run_id: SEED,
        idle_timeout_ms: 30_000,
        t: 1,
        unit_rounds: schedule().unit_rounds,
        status: false,
        trace_spec: None,
    };
    let collector = std::thread::spawn(move || collect(collector_cfg));
    std::thread::sleep(std::time::Duration::from_millis(50));

    let nodes: Vec<_> = (1..=N as u32)
        .map(|id| {
            let plan = plan.clone();
            let state_root = state_root.clone();
            std::thread::spawn(move || {
                let me = NodeId(id);
                let cfg = node_cfg(me, &plan, &state_root);
                if me != VICTIM {
                    let mut driver = ProcessDriver::new(
                        HealNode { me, crash_at: None },
                        me,
                        N,
                        SEED,
                    );
                    return run_node(cfg, &mut driver, |_, _| None);
                }
                // The victim: first incarnation crashes mid-refresh...
                let mut driver = ProcessDriver::new(
                    HealNode {
                        me,
                        crash_at: Some(CRASH_ROUND),
                    },
                    me,
                    N,
                    SEED,
                );
                let crashed = run_node(cfg.clone(), &mut driver, |_, _| None);
                assert!(crashed.is_err(), "the injected crash must kill the loop");
                // ...and the supervisor respawns it from durable state.
                let sd = StateDir::open(&state_root, me.0).unwrap();
                if corrupt_watermark {
                    assert!(sd.truncate_state_file().unwrap(), "state file existed");
                }
                let rom = match sd.load_rom() {
                    Load::Ok(rom) => rom,
                    other => panic!("durable ROM must survive the crash: {other:?}"),
                };
                let resume = match sd.load_watermark() {
                    Load::Ok(wm) => {
                        assert!(!corrupt_watermark, "truncated watermark must not load");
                        wm.completed_rounds
                    }
                    Load::Corrupt => {
                        assert!(corrupt_watermark, "intact watermark read as corrupt");
                        0
                    }
                    Load::Absent => panic!("watermark file must exist after barriers"),
                };
                let mut cfg = node_cfg(me, &plan, &state_root);
                cfg.resume = Some(resume);
                let mut driver = ProcessDriver::with_rom(
                    HealNode { me, crash_at: None },
                    me,
                    N,
                    SEED,
                    rom,
                );
                run_node(cfg, &mut driver, |_, _| None)
            })
        })
        .collect();
    for t in nodes {
        t.join().unwrap().expect("node loop failed");
    }
    let outcome = collector.join().unwrap().expect("collector failed");
    let _ = std::fs::remove_dir_all(dir);
    outcome
}

fn assert_healed(outcome: &DaemonOutcome, engine: &SimResult, full_replay: bool) {
    // Setup happened before the crash and is durable: the cluster identity
    // (every ROM, the "joint key" of this harness) matches the engine run.
    assert_eq!(outcome.roms, engine.roms, "ROMs must survive the crash");

    // Zero forgeries anywhere, both victim incarnations included.
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
            }
        }
    }

    // Liveness both ways after the rejoin: the respawned victim accepts
    // peers' heartbeats, and — the stronger direction — peers accept
    // heartbeats *from* the victim for late rounds, proving the cluster
    // re-authenticates the respawned process.
    let victim_accepts_late = outcome.outputs[VICTIM.idx()]
        .iter()
        .any(|(r, e)| *r > CRASH_ROUND + 2 && matches!(e, OutputEvent::Accepted { .. }));
    assert!(victim_accepts_late, "victim must accept after its rejoin");
    let heard_from_victim = outcome
        .outputs
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != VICTIM.idx())
        .flat_map(|(_, l)| l.iter())
        .any(|(r, e)| {
            *r > CRASH_ROUND + 2
                && matches!(e, OutputEvent::Accepted { from, .. } if *from == VICTIM)
        });
    assert!(heard_from_victim, "peers must hear the victim post-rejoin");

    // Slot retention: the collector kept one identity-keyed slot across the
    // victim's re-handshake — a single log holding pre-crash events AND
    // post-rejoin events, and the final report is the live incarnation's.
    let victim_log = &outcome.outputs[VICTIM.idx()];
    assert!(
        victim_log.iter().any(|(r, _)| *r < CRASH_ROUND),
        "pre-crash events retained"
    );
    assert!(
        victim_log.iter().any(|(r, _)| *r >= TOTAL_ROUNDS - 2),
        "post-rejoin events present"
    );
    assert!(outcome.reports[VICTIM.idx()].rounds > 0);

    // The rejoin was observed and charged: the collector's alarm stream
    // names the victim.
    assert!(
        outcome
            .alarms
            .iter()
            .any(|a| (a.kind == "rejoin" || a.kind == "node_rejoined") && a.node == VICTIM.0),
        "rejoin must surface in the alarm stream: {:?}",
        outcome.alarms
    );

    // No healthy peer is charged for it: the victim's replayed frames reach
    // them after their stamped round, which is the restart's doing, not a
    // link the adversary made unreliable, so the unit budget holds.
    for (unit, nodes) in &outcome.unit_impairments {
        assert!(
            nodes.iter().all(|&node| node == VICTIM.0),
            "unit {unit} charged healthy peers: {nodes:?}"
        );
    }
    assert!(
        !outcome.alarms.iter().any(|a| a.kind == "budget_exceeded"),
        "one restart must not breach the budget: {:?}",
        outcome.alarms
    );

    // Seq continuity: the victim's fresh streams re-handshake cleanly; no
    // healthy peer observes duplicated or reordered frames. A full round-0
    // replay is the exception — the victim legitimately re-sends frames for
    // rounds still inside the peers' seq-tracking window, and the duplicate
    // observation is the faithful record of that replay.
    for (i, rep) in outcome.reports.iter().enumerate() {
        if i == VICTIM.idx() {
            continue;
        }
        assert_eq!(rep.rounds, TOTAL_ROUNDS, "peer {} completed", i + 1);
        if !full_replay {
            assert_eq!(rep.dup_frames, 0, "peer {} saw duplicate frames", i + 1);
        }
        assert_eq!(rep.reorder_frames, 0, "peer {} saw reordered frames", i + 1);
    }
}

#[test]
fn killed_node_rejoins_from_durable_state_and_cluster_heals() {
    let engine = engine_run();
    let outcome = heal_run("kill", false);
    assert_healed(&outcome, &engine, false);
    // The intact watermark spared the victim a full replay: its live
    // incarnation covers only the tail of the schedule.
    assert!(outcome.reports[VICTIM.idx()].rounds < TOTAL_ROUNDS);
}

#[test]
fn corrupt_watermark_detected_by_digest_heals_from_round_zero() {
    let engine = engine_run();
    let outcome = heal_run("corrupt", true);
    assert_healed(&outcome, &engine, true);
    // The digest rejected the truncated watermark, so the victim rejoined
    // from round 0 and re-executed the whole schedule.
    assert_eq!(outcome.reports[VICTIM.idx()].rounds, TOTAL_ROUNDS);
}
