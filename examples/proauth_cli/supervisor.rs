//! The daemon's supervisor thread: fires scheduled kills on protocol time,
//! reaps children, classifies their exits, and respawns crashed nodes under
//! the restart policy while the collector runs on the main thread.

use crate::flags::{Flags, OrExit};
use proauth_sim::net::{Alarm, Collector, Severity, StateDir};
use proauth_sim::FaultSchedule;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

/// Where a supervised child is in its life.
enum State {
    Running(Child),
    /// Dead, to be respawned at the given time.
    Backoff(Instant),
    Done,
}

/// One supervised child: its respawn recipe and restart accounting.
pub struct Slot {
    name: String,
    /// 0 = the proxy (never respawned: it holds no protocol state worth
    /// healing, so its death fails the run).
    node: u32,
    argv: Vec<String>,
    state: State,
    /// How the last instance died.
    why: String,
    /// Respawn attempts so far.
    attempt: u32,
    restarts: Vec<Instant>,
}

impl Slot {
    /// Spawns `argv` as the supervised child `name`.
    pub fn spawn(name: String, node: u32, argv: Vec<String>, quiet: bool) -> Self {
        let child = spawn(&argv, quiet).unwrap_or_else(|e| panic!("spawn {name}: {e}"));
        let state = State::Running(child);
        Slot {
            name,
            node,
            argv,
            state,
            why: String::new(),
            attempt: 0,
            restarts: Vec::new(),
        }
    }
}

/// Spawns this executable with `argv`; a quiet child's stdout is dropped
/// (node stdout is summary-only), stderr always surfaces.
fn spawn(argv: &[String], quiet: bool) -> std::io::Result<Child> {
    // Resolved once, so a respawn runs the binary the daemon started from.
    static EXE: OnceLock<PathBuf> = OnceLock::new();
    let exe = EXE.get_or_init(|| std::env::current_exe().expect("own executable path"));
    let stdout = if quiet {
        Stdio::null()
    } else {
        Stdio::inherit()
    };
    Command::new(exe)
        .args(argv)
        .stdout(stdout)
        .stderr(Stdio::inherit())
        .spawn()
}

/// The children, the restart policy, the kill schedule, and the two taps
/// into the collector's observability plane.
struct Supervisor {
    slots: Vec<Slot>,
    seed: u64,
    max_restarts: usize,
    restart_window: Duration,
    backoff_ms: u64,
    /// Kills fire in order, from `next_kill` on.
    kill_plan: FaultSchedule,
    next_kill: usize,
    /// Whether a kill victim loses its watermark before its respawn.
    truncate: bool,
    state_root: Option<PathBuf>,
    /// The highest beacon round the collector has seen.
    round_watch: Arc<AtomicU64>,
    alarm_tx: mpsc::Sender<Alarm>,
}

/// Supervises `slots` on a thread of their own, under the daemon's
/// restart-policy flags. Restart alarms flow into `collector`'s alarm
/// stream (Warning severity, so a kill charges the victim's Definition-7
/// budget), and the collector publishes the highest beacon round so kills
/// fire on protocol time, not wall clock. The returned call stops the
/// supervisor once the collector is done and waits for every child; it
/// yields the child failures and the number of restarts.
pub fn supervise(
    f: &Flags,
    seed: u64,
    slots: Vec<Slot>,
    kill_plan: FaultSchedule,
    truncate: bool,
    state_root: Option<PathBuf>,
    collector: &mut Collector,
) -> impl FnOnce() -> (Vec<String>, u64) {
    let (alarm_tx, alarm_rx) = mpsc::channel();
    let round_watch = Arc::new(AtomicU64::new(0));
    collector.set_alarm_channel(alarm_rx);
    collector.set_round_watch(round_watch.clone());
    let mut sup = Supervisor {
        slots,
        seed,
        max_restarts: f.get("max-restarts", 3).or_exit(),
        restart_window: Duration::from_secs(f.get("restart-window", 60).or_exit()),
        backoff_ms: f.get("backoff-ms", 100).or_exit(),
        kill_plan,
        next_kill: 0,
        truncate,
        state_root,
        round_watch,
        alarm_tx,
    };
    let stop = Arc::new(AtomicBool::new(false));
    let stopped = Arc::clone(&stop);
    let thread = std::thread::spawn(move || {
        let mut failures = Vec::new();
        let mut shutdown_deadline: Option<Instant> = None;
        loop {
            let stopping = stopped.load(Ordering::Relaxed);
            if stopping && shutdown_deadline.is_none() {
                // Children self-terminate (round deadlines, idle
                // timeouts); give the stragglers a grace period.
                shutdown_deadline = Some(Instant::now() + Duration::from_secs(30));
                sup.next_kill = sup.kill_plan.events().len();
            }
            sup.fire_due_kills();
            for i in 0..sup.slots.len() {
                if let Err(why) = sup.step(i, stopping) {
                    sup.slots[i].state = State::Done;
                    failures.push(why);
                }
            }
            if shutdown_deadline.is_some_and(|d| Instant::now() >= d) {
                for slot in &mut sup.slots {
                    if let State::Running(child) = &mut slot.state {
                        let _ = child.kill();
                        let _ = child.wait();
                        failures.push(format!("{} hung; killed", slot.name));
                    }
                    slot.state = State::Done;
                }
            }
            if sup.slots.iter().all(|s| matches!(s.state, State::Done)) {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let restarts = sup.slots.iter().map(|s| u64::from(s.attempt)).sum();
        (failures, restarts)
    });
    move || {
        stop.store(true, Ordering::Relaxed);
        thread.join().expect("supervisor thread")
    }
}

impl Supervisor {
    /// SIGKILLs every node whose scheduled round has come: mid-protocol, no
    /// warning — the process-level analogue of the paper's break-in.
    fn fire_due_kills(&mut self) {
        let cur = self.round_watch.load(Ordering::Relaxed);
        while let Some(&(round, victim)) = self.kill_plan.events().get(self.next_kill) {
            if round > cur {
                break;
            }
            self.next_kill += 1;
            let victim = victim.0;
            let slot = self.slots.iter_mut().find(|s| s.node == victim);
            if let Some(State::Running(child)) = slot.map(|s| &mut s.state) {
                println!(
                    "supervisor: SIGKILL node {victim} (scheduled round {round}, cluster at {cur})"
                );
                let _ = child.kill();
            }
        }
    }

    /// Reaps or respawns slot `i`; an error says why the slot failed for
    /// good.
    fn step(&mut self, i: usize, stopping: bool) -> Result<(), String> {
        let slot = &mut self.slots[i];
        match &mut slot.state {
            State::Done => Ok(()),
            State::Running(child) => {
                let status = match child.try_wait() {
                    Ok(Some(status)) => status,
                    Ok(None) => return Ok(()),
                    Err(e) => return Err(format!("{}: wait failed: {e}", slot.name)),
                };
                if status.success() {
                    slot.state = State::Done;
                    return Ok(());
                }
                use std::os::unix::process::ExitStatusExt;
                slot.why = match status.signal() {
                    Some(sig) => format!("killed by signal {sig}"),
                    None => format!("exited with {status}"),
                };
                if stopping || slot.node == 0 {
                    return Err(format!("{} {}", slot.name, slot.why));
                }
                let now = Instant::now();
                let window = self.restart_window;
                slot.restarts.retain(|t| now.duration_since(*t) < window);
                if slot.restarts.len() >= self.max_restarts {
                    let budget = format!("{} per {}s", self.max_restarts, window.as_secs());
                    let why = &slot.why;
                    return Err(format!(
                        "{} {why}; restart budget exhausted ({budget})",
                        slot.name
                    ));
                }
                // Bounded exponential backoff with deterministic jitter so
                // simultaneous deaths do not respawn in lockstep.
                let base = self.backoff_ms.saturating_mul(1 << slot.attempt.min(5));
                let d = proauth_primitives::sha256::hash_parts(
                    "proauth/net/backoff",
                    &[
                        &self.seed.to_be_bytes(),
                        &slot.node.to_be_bytes(),
                        &slot.attempt.to_be_bytes(),
                    ],
                );
                let jitter = u64::from_be_bytes(d[..8].try_into().expect("8 of 32 digest bytes"))
                    % self.backoff_ms.max(1);
                let backoff = Duration::from_millis(base.min(10_000) + jitter);
                slot.state = State::Backoff(now + backoff);
                Ok(())
            }
            State::Backoff(_) if stopping => {
                Err(format!("{} down at shutdown ({})", slot.name, slot.why))
            }
            State::Backoff(at) if Instant::now() < *at => Ok(()),
            State::Backoff(_) => {
                slot.restarts.push(Instant::now());
                slot.attempt += 1;
                let node = slot.node;
                let victim = self.kill_plan.events().iter().any(|e| e.1 .0 == node);
                if let (true, Some(root)) = (self.truncate && victim, &self.state_root) {
                    match StateDir::open(root, node).and_then(|sd| sd.truncate_state_file()) {
                        Ok(true) => {
                            println!("supervisor: truncated node {node}'s watermark before respawn")
                        }
                        Ok(false) => {}
                        Err(e) => eprintln!("supervisor: cannot truncate node {node}'s state: {e}"),
                    }
                }
                let respawned = spawn(&slot.argv, true);
                let child = respawned.map_err(|e| format!("{}: respawn failed: {e}", slot.name))?;
                println!(
                    "supervisor: respawned {} (attempt {}, was {})",
                    slot.name, slot.attempt, slot.why
                );
                slot.state = State::Running(child);
                // Warning severity: the restart impairs the victim for
                // Definition-7 accounting, exactly like an in-engine break-in
                // would.
                let _ = self.alarm_tx.send(Alarm {
                    node,
                    round: self.round_watch.load(Ordering::Relaxed),
                    severity: Severity::Warning,
                    kind: "node_restarted".to_owned(),
                    detail: format!("{}; respawn attempt {}", slot.why, slot.attempt),
                });
                Ok(())
            }
        }
    }
}
