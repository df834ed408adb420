//! The benchmark's wrappers around the program's public seams: a node
//! wrapper around `Process::on_setup_round`/`on_round` (step spans with the
//! executing thread, plus a per-round correctness hook), and adversary
//! wrappers that timestamp round boundaries, time the adversary's own
//! calls, snapshot the metrics registry at phase boundaries and capture
//! envelope payloads for the wire probe. Nothing here changes what the
//! wrapped objects compute.

use proauth_sim::adversary::{AlAdversary, BreakPlan, NetView, UlAdversary};
use proauth_sim::clock::{Phase, TimeView};
use proauth_sim::message::{Envelope, NodeId};
use proauth_sim::process::{Process, Rom, RoundCtx, SetupCtx};
use proauth_sim::Telemetry;
use proauth_telemetry::MetricsSnapshot;
use std::any::Any;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Seconds from `epoch` to now.
pub fn since(epoch: Instant) -> f64 {
    epoch.elapsed().as_secs_f64()
}

/// Small dense id of the calling thread (0, 1, 2, … in first-use order).
pub fn thread_index() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static ID: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

/// One node step: a span whose parent is its round.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Setup round index when `setup`, else the post-setup round.
    pub round: u64,
    pub setup: bool,
    pub node: u32,
    pub thread: u32,
    pub start: f64,
    pub end: f64,
}

/// What one node's wrapper recorded; shared with the harness.
#[derive(Debug, Default)]
pub struct NodeRec {
    pub steps: Mutex<Vec<Step>>,
    /// Correctness failures found by the per-round hook.
    pub failures: Mutex<Vec<String>>,
}

impl NodeRec {
    pub fn take_steps(&self) -> Vec<Step> {
        std::mem::take(&mut *self.steps.lock().unwrap_or_else(PoisonError::into_inner))
    }

    pub fn take_failures(&self) -> Vec<String> {
        std::mem::take(&mut *self.failures.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// A correctness hook run after every `on_round`, outside the timed span.
pub type Check<P> = Box<dyn Fn(&mut P, &TimeView, &Rom) -> Option<String> + Send>;

/// Wraps a node program. With `timed` off only the hook runs.
pub struct Node<P> {
    pub inner: P,
    id: u32,
    rec: Arc<NodeRec>,
    epoch: Instant,
    timed: bool,
    check: Option<Check<P>>,
}

impl<P> Node<P> {
    pub fn new(
        inner: P,
        id: NodeId,
        epoch: Instant,
        timed: bool,
        check: Option<Check<P>>,
    ) -> (Self, Arc<NodeRec>) {
        let rec = Arc::new(NodeRec::default());
        let node = Node {
            inner,
            id: id.0,
            rec: rec.clone(),
            epoch,
            timed,
            check,
        };
        (node, rec)
    }

    fn push(&self, round: u64, setup: bool, start: f64) {
        let end = since(self.epoch);
        self.rec
            .steps
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Step {
                round,
                setup,
                node: self.id,
                thread: thread_index(),
                start,
                end,
            });
    }
}

impl<P: Process> Process for Node<P> {
    fn on_setup_round(&mut self, ctx: &mut SetupCtx<'_>) {
        let start = self.timed.then(|| since(self.epoch));
        self.inner.on_setup_round(ctx);
        if let Some(start) = start {
            self.push(ctx.setup_round, true, start);
        }
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
        let start = self.timed.then(|| since(self.epoch));
        self.inner.on_round(ctx);
        if let Some(start) = start {
            self.push(ctx.time.round, false, start);
        }
        if let Some(check) = &self.check {
            if let Some(err) = check(&mut self.inner, &ctx.time, ctx.rom) {
                self.rec
                    .failures
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(err);
            }
        }
    }

    fn state_mut(&mut self) -> &mut dyn Any {
        self.inner.state_mut()
    }
}

/// Phase label of a post-setup phase.
pub fn phase_name(phase: Phase) -> &'static str {
    match phase {
        Phase::Normal => "normal",
        Phase::RefreshPart1 { .. } => "refresh1",
        Phase::RefreshPart2 { .. } => "refresh2",
    }
}

/// Round-boundary recorder shared by the UL and AL adversary wrappers.
pub struct Clock {
    epoch: Instant,
    /// Start of each post-setup round, seconds from the epoch.
    pub starts: Vec<f64>,
    /// Time spent inside the wrapped adversary's callbacks.
    pub adversary_s: f64,
    /// Registry snapshots taken at the start of each phase run:
    /// `(first round, phase, snapshot)`. Empty when telemetry is off.
    pub phase_snaps: Vec<(u64, &'static str, MetricsSnapshot)>,
    /// Honest envelopes sent per round (the adversary's view).
    pub sent: Vec<u64>,
    /// Sampled envelope payloads (for the wire probe), when capturing.
    pub captured: Vec<Vec<u8>>,
    capture_every: u64,
    seen: u64,
    tele: Telemetry,
    last_phase: Option<&'static str>,
}

/// Payloads kept for the wire probe.
const CAPTURE_CAP: usize = 2_000;

impl Clock {
    pub fn new(epoch: Instant, tele: Telemetry, capture_every: u64) -> Self {
        Clock {
            epoch,
            starts: Vec::new(),
            adversary_s: 0.0,
            phase_snaps: Vec::new(),
            sent: Vec::new(),
            captured: Vec::new(),
            capture_every,
            seen: 0,
            tele,
            last_phase: None,
        }
    }

    fn round_start(&mut self, view: &NetView<'_>) {
        self.starts.push(since(self.epoch));
        let phase = phase_name(view.time.phase);
        if self.last_phase != Some(phase) {
            self.last_phase = Some(phase);
            if let Some(snap) = self.tele.snapshot() {
                self.phase_snaps.push((view.time.round, phase, snap));
            }
        }
    }

    fn observe(&mut self, sent: &[Envelope]) {
        self.sent.push(sent.len() as u64);
        if self.capture_every == 0 {
            return;
        }
        for env in sent {
            self.seen += 1;
            if self.seen.is_multiple_of(self.capture_every) && self.captured.len() < CAPTURE_CAP {
                self.captured.push(env.payload.to_vec());
            }
        }
    }

    /// Closes the last round (call once the run returned).
    pub fn finish(&mut self) -> (f64, Option<MetricsSnapshot>) {
        let end = since(self.epoch);
        self.starts.push(end);
        (end, self.tele.snapshot())
    }
}

/// Wraps a UL adversary.
pub struct ClockedUl<A> {
    pub inner: A,
    pub clock: Clock,
}

impl<A: UlAdversary> UlAdversary for ClockedUl<A> {
    fn plan(&mut self, view: &NetView<'_>) -> BreakPlan {
        self.clock.round_start(view);
        let t = Instant::now();
        let plan = self.inner.plan(view);
        self.clock.adversary_s += t.elapsed().as_secs_f64();
        plan
    }

    fn corrupt(&mut self, node: NodeId, state: &mut dyn Any, time: &TimeView) {
        let t = Instant::now();
        self.inner.corrupt(node, state, time);
        self.clock.adversary_s += t.elapsed().as_secs_f64();
    }

    fn deliver(&mut self, sent: &[Envelope], view: &NetView<'_>) -> Vec<Envelope> {
        self.clock.observe(sent);
        let t = Instant::now();
        let out = self.inner.deliver(sent, view);
        self.clock.adversary_s += t.elapsed().as_secs_f64();
        out
    }

    fn output(&mut self) -> Vec<String> {
        self.inner.output()
    }
}

/// Inspects every honest envelope of an AL run (the service's `SignDone`
/// harvest).
pub type Tap = Box<dyn FnMut(&Envelope)>;

/// Wraps an AL adversary.
pub struct ClockedAl<A> {
    pub inner: A,
    pub clock: Clock,
    pub tap: Tap,
}

impl<A: AlAdversary> AlAdversary for ClockedAl<A> {
    fn plan(&mut self, view: &NetView<'_>) -> BreakPlan {
        self.clock.round_start(view);
        let t = Instant::now();
        let plan = self.inner.plan(view);
        self.clock.adversary_s += t.elapsed().as_secs_f64();
        plan
    }

    fn corrupt(&mut self, node: NodeId, state: &mut dyn Any, time: &TimeView) {
        let t = Instant::now();
        self.inner.corrupt(node, state, time);
        self.clock.adversary_s += t.elapsed().as_secs_f64();
    }

    fn broken_sends(&mut self, honest_sent: &[Envelope], view: &NetView<'_>) -> Vec<Envelope> {
        self.clock.observe(honest_sent);
        for env in honest_sent {
            (self.tap)(env);
        }
        let t = Instant::now();
        let out = self.inner.broken_sends(honest_sent, view);
        self.clock.adversary_s += t.elapsed().as_secs_f64();
        out
    }

    fn output(&mut self) -> Vec<String> {
        self.inner.output()
    }
}
