//! Deterministic chaos: one adversary model for the in-process engine and
//! the multi-process daemon.
//!
//! The paper's protocols are built to survive transient faults — break-ins,
//! lost state, `s`-disconnection — so the harness must be able to *produce*
//! those faults on demand. In the UL model (§2.2) one adversary decides,
//! message by message, when each message is delivered; this module states
//! that adversary once, for both backends:
//!
//! * [`ChaosSpec::fate`] is a pure per-message decision `(round, from, to,
//!   seq) → (deliver_round, copies)`: delay by whole rounds, duplication, and
//!   a round-windowed partition. [`ChaosNet`] applies it inside the engine;
//!   the daemon's chaos proxy (`net::proxy`) applies it to real frames and
//!   stamps the delivery round into each one. Same spec ⇒ same inboxes on
//!   both backends, which is what lets `daemon --check` demand bit-identity
//!   under chaos.
//! * [`FaultSchedule`] is one sorted list of `(round, node)` crash events.
//!   [`FaultSchedule::compile`] aims engine crash-stops at the Fig-1
//!   refreshment-phase boundaries (where mid-refresh state loss hurts most);
//!   [`FaultSchedule::kill_all_once`] spreads the daemon supervisor's
//!   SIGKILLs over recovery windows; both, and the `node:round,...` text
//!   form, yield the same type.
//!
//! There is no reordering knob. Both backends hand a node its inbox sorted
//! by `(send round, sender, seq)`, so arrival order within a round never
//! reaches protocol code; the engine-side order-independence check is the
//! adversary crate's `Reorderer`, composed on top when wanted.
//!
//! Everything is a pure function of the configuration and the seed:
//! schedules are precompiled, delivery fates are keyed by SHA-256, and all
//! decisions run on the engine thread. Same seed ⇒ bit-identical
//! [`crate::runner::SimResult`] and trace across serial and pooled
//! execution, like every other adversary.
//!
//! Crash semantics (vs break-ins, Definitions 4–7): a crashed node does not
//! execute and its pending traffic is *discarded*, not diverted — the
//! adversary gains nothing from a crash except the outage. A restarted node
//! comes back as a freshly constructed instance: volatile state (key shares,
//! sessions, counters) is gone, the ROM survives. It then recovers via the
//! §4.2 path — share recovery inside the next refreshment phase and
//! re-certification at its end. Crashed rounds are charged against the
//! `(s,t)` budget exactly like broken rounds, so Definition 7 stays the
//! ground truth for "did the adversary stay within its allowance".

use crate::adversary::{AlAdversary, BreakPlan, NetView, UlAdversary};
use crate::clock::{Phase, Schedule, TimeView};
use crate::message::{Envelope, NodeId};
use crate::process::{Process, RoundCtx, SetupCtx};
use proauth_primitives::sha256;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// A partition window: during rounds `[start, end)`, messages between the
/// two groups (`id <= split` vs `id > split`) are held and delivered in
/// round `end + 1`, the round after the partition heals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionWindow {
    /// First partitioned round.
    pub start: u64,
    /// First healed round.
    pub end: u64,
    /// Largest node id of the first group.
    pub split: u32,
}

impl PartitionWindow {
    /// Whether the window separates `from` and `to` at `round`.
    fn cuts(&self, round: u64, from: NodeId, to: NodeId) -> bool {
        (self.start..self.end).contains(&round) && (from.0 <= self.split) != (to.0 <= self.split)
    }
}

/// `start:end:split`, the inverse of the `FromStr` impl.
impl fmt::Display for PartitionWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.start, self.end, self.split)
    }
}

/// Parses `start:end:split` strictly: exactly three integer fields, a
/// non-empty window (`start < end`) and a non-empty first group
/// (`split >= 1`). Whether the second group is non-empty depends on `n`,
/// which the caller checks.
impl FromStr for PartitionWindow {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let bad = || format!("bad partition '{s}' (want start:end:split)");
        let mut fields = s.split(':');
        let (Some(start), Some(end), Some(split), None) =
            (fields.next(), fields.next(), fields.next(), fields.next())
        else {
            return Err(bad());
        };
        let w = PartitionWindow {
            start: start.parse().map_err(|_| bad())?,
            end: end.parse().map_err(|_| bad())?,
            split: split.parse().map_err(|_| bad())?,
        };
        if w.start >= w.end {
            return Err(format!("partition '{s}' is empty: start must be below end"));
        }
        if w.split == 0 {
            return Err(format!(
                "partition '{s}' leaves the first group empty (split >= 1)"
            ));
        }
        Ok(w)
    }
}

/// The delivery adversary, shared by both backends. Percentages are per
/// round message, decided by [`ChaosSpec::fate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosSpec {
    /// Chaos decision seed (independent of the protocol seed).
    pub seed: u64,
    /// Percent of round messages delayed by extra rounds.
    pub delay_pct: u8,
    /// Most extra rounds a delayed message waits (0 counts as 1).
    pub delay_max: u64,
    /// Percent of round messages delivered twice.
    pub dup_pct: u8,
    /// Percent of `(round, node)` pairs whose proxy link is reset mid-frame
    /// right after the node's barrier mark: the node sees a torn frame and a
    /// dead socket, and must redial and re-handshake. Daemon only — the
    /// engine has no sockets to tear.
    pub reset_pct: u8,
    /// Optional partition window.
    pub partition: Option<PartitionWindow>,
}

impl ChaosSpec {
    /// A faithful network: every message arrives once, the next round.
    pub fn faithful() -> Self {
        ChaosSpec {
            seed: 0,
            delay_pct: 0,
            delay_max: 0,
            dup_pct: 0,
            reset_pct: 0,
            partition: None,
        }
    }

    /// Whether no manipulation is enabled.
    pub fn is_faithful(&self) -> bool {
        self.delay_pct == 0 && self.dup_pct == 0 && self.reset_pct == 0 && self.partition.is_none()
    }

    /// The fate of one round message: the round it is delivered in, and how
    /// many copies arrive. `seq` numbers the sender's messages of `round` in
    /// send order (the daemon's frame numbering).
    ///
    /// A faithful network gives `(round + 1, 1)`. A message the partition
    /// cuts is held until `end + 1`. Otherwise `delay_pct` percent of
    /// messages wait `1..=delay_max` extra rounds and, independently,
    /// `dup_pct` percent arrive twice. The decision is keyed by SHA-256 over
    /// `(seed, round, from, to, seq)`: a pure function, identical in the
    /// engine and on the wire.
    pub fn fate(&self, round: u64, from: NodeId, to: NodeId, seq: u32) -> (u64, u32) {
        if let Some(p) = self.partition.filter(|p| p.cuts(round, from, to)) {
            return (p.end.saturating_add(1), 1);
        }
        if self.delay_pct == 0 && self.dup_pct == 0 {
            return (round.saturating_add(1), 1);
        }
        let h = sha256::hash_parts(
            "proauth/net/chaos",
            &[
                &self.seed.to_be_bytes(),
                &round.to_be_bytes(),
                &from.0.to_be_bytes(),
                &to.0.to_be_bytes(),
                &seq.to_be_bytes(),
            ],
        );
        let delay = if h[0] % 100 < self.delay_pct {
            1 + u64::from(h[3]) % self.delay_max.max(1)
        } else {
            0
        };
        let copies = if h[1] % 100 < self.dup_pct { 2 } else { 1 };
        (round.saturating_add(1 + delay), copies)
    }

    /// Deterministic socket-reset decision for `(round, node)`.
    pub fn reset_due(&self, round: u64, node: NodeId) -> bool {
        if self.reset_pct == 0 {
            return false;
        }
        let h = sha256::hash_parts(
            "proauth/net/chaos",
            &[
                b"reset",
                &self.seed.to_be_bytes(),
                &round.to_be_bytes(),
                &node.0.to_be_bytes(),
            ],
        );
        (h[0] % 100) < self.reset_pct
    }
}

/// How [`FaultSchedule::compile`] places engine crash-stops. The default is
/// calm (no crashes); a sweep driver scales these across the `(s,t)`
/// boundary.
#[derive(Debug, Clone)]
pub struct CrashConfig {
    /// Per-node per-round crash probability (background crashes).
    pub crash_p: f64,
    /// Probability of crashing one extra node at each refreshment-phase
    /// boundary (the first round of Part I and of Part II) — the rounds
    /// where losing volatile state interacts worst with the Fig-1 schedule.
    pub boundary_crash_p: f64,
    /// Rounds a crashed node stays down before [`ChaosNet`] restarts it
    /// (`None` = crashed nodes never come back).
    pub restart_after: Option<u64>,
    /// Cap on simultaneously crashed nodes when compiling the schedule.
    /// Keeping this ≤ the run's `t` keeps the schedule inside the
    /// Definition-7 budget; raising it past `t` drives the run over the
    /// boundary on purpose.
    pub max_down: usize,
    /// Rounds the schedule compiler presumes a crash victim stays *impaired*
    /// (counted against `max_down`); defaults to the restart outage. A
    /// restarted node is still non-operational until it re-certifies at the
    /// next refresh end, so a schedule that must provably respect a
    /// Definition-7 budget should cover that tail (outage + up to two
    /// units).
    pub presumed_down: Option<u64>,
}

impl Default for CrashConfig {
    fn default() -> Self {
        CrashConfig {
            crash_p: 0.0,
            boundary_crash_p: 0.0,
            restart_after: None,
            max_down: usize::MAX,
            presumed_down: None,
        }
    }
}

/// Derives the deterministic per-round schedule RNG. Keyed, not streamed:
/// the decisions at round `w` are a pure function of `(seed, w)`.
fn chaos_rng(seed: u64, round: u64, tag: &str) -> StdRng {
    let digest = sha256::hash_parts(
        "proauth/sim/chaos-rng",
        &[tag.as_bytes(), &seed.to_be_bytes(), &round.to_be_bytes()],
    );
    StdRng::from_seed(digest)
}

/// One crash/kill schedule: `(round, node)` events, sorted by round, then
/// node. [`ChaosNet`] crash-stops each node at its round; the daemon's
/// supervisor SIGKILLs the node's process once the cluster reaches it — a
/// killed OS process and a crash-stopped simulated node are the same fault
/// at different layers, charged to the Definition-7 budget alike.
///
/// Restarts are *not* part of the schedule: [`ChaosNet`] and the supervisor
/// issue them reactively from the observed crashes, so a panic-induced crash
/// (a node step that died on its own) gets the same treatment as a
/// scheduled one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    /// The crash events, sorted (every constructor goes through `sorted`).
    events: Vec<(u64, NodeId)>,
}

impl FaultSchedule {
    fn sorted(mut events: Vec<(u64, NodeId)>) -> Self {
        events.sort_unstable();
        FaultSchedule { events }
    }

    /// The crash events, sorted by round then node.
    pub fn events(&self) -> &[(u64, NodeId)] {
        &self.events
    }

    /// Compiles `cfg` + `seed` into a deterministic crash schedule for a run
    /// of `total_rounds` rounds over `n` nodes under `schedule`.
    ///
    /// The compiler tracks a presumed outage window per node
    /// (`restart_after` rounds, or forever) and never exceeds
    /// `cfg.max_down` simultaneous crashes, so the schedule's pressure on
    /// the `(s,t)` budget is controlled by configuration, not luck.
    pub fn compile(
        cfg: &CrashConfig,
        n: usize,
        total_rounds: u64,
        schedule: &Schedule,
        seed: u64,
    ) -> Self {
        let mut events = Vec::new();
        // Presumed first round each node is back up (schedule-local view;
        // the +1 mirrors ChaosNet observing the crash one round later).
        let down_span = cfg.presumed_down.or(cfg.restart_after).map(|d| d + 1);
        let mut up_at = vec![0u64; n];
        for round in 0..total_rounds {
            let mut rng = chaos_rng(seed, round, "schedule");
            let mut down_now = up_at.iter().filter(|&&u| u > round).count();
            // In budget-proof mode (`presumed_down` set) every victim must
            // have time to restart *and* re-certify before the run ends, so
            // stop scheduling crashes whose presumed impairment would spill
            // past the final round.
            let in_horizon = cfg.presumed_down.is_none()
                || down_span.is_some_and(|s| round + s <= total_rounds);
            let mut crash = |id: NodeId, up_at: &mut Vec<u64>, down_now: &mut usize| {
                up_at[id.idx()] = down_span.map_or(u64::MAX, |s| round + s);
                *down_now += 1;
                events.push((round, id));
            };
            // Phase-boundary crash: one victim at the start of refresh
            // Part I / Part II, chosen among currently-up nodes.
            let boundary = matches!(
                schedule.phase_of(round),
                Phase::RefreshPart1 { step: 0 } | Phase::RefreshPart2 { step: 0 }
            );
            if boundary
                && in_horizon
                && down_now < cfg.max_down
                && cfg.boundary_crash_p > 0.0
                && rng.gen::<f64>() < cfg.boundary_crash_p
            {
                let up: Vec<NodeId> = NodeId::all(n)
                    .filter(|&id| up_at[id.idx()] <= round)
                    .collect();
                if let Some(&id) = up.choose(&mut rng) {
                    crash(id, &mut up_at, &mut down_now);
                }
            }
            // Background crashes: independent per node, budget-capped.
            if cfg.crash_p > 0.0 && in_horizon {
                for id in NodeId::all(n) {
                    if up_at[id.idx()] > round || down_now >= cfg.max_down {
                        continue;
                    }
                    if rng.gen::<f64>() < cfg.crash_p {
                        crash(id, &mut up_at, &mut down_now);
                    }
                }
            }
        }
        Self::sorted(events)
    }

    /// One kill per node, spread deterministically from `seed` across the
    /// run's *recovery windows*. A killed process loses its volatile state —
    /// key shares included — and regains it only through share recovery in
    /// the next refreshment phase, which itself needs `t+1` intact shares.
    /// The schedule therefore respects three placement rules:
    ///
    /// * **at most `n - (t+1)` victims per time unit** — more would drop the
    ///   surviving share count below the signing threshold and destroy the
    ///   joint key irrecoverably (the paper's corruption bound, Def. 7);
    /// * **normal-phase rounds only, with a margin before the next unit
    ///   boundary** — the victim must respawn, catch up, and announce fresh
    ///   keys at the next refresh's first round (URfr I.1); a kill too close
    ///   to the boundary slips its recovery a whole extra unit. The margin
    ///   also absorbs kill-delivery lag (the supervisor fires on
    ///   beacon-observed rounds, which trail the cluster by a few);
    /// * **a complete unit after every kill's unit** — so the refresh that
    ///   heals the victim actually runs; setup is likewise excluded (the
    ///   setup barrier is hard and the phase adversary-free by model §2.1).
    ///
    /// Errors when `total_rounds` holds too few units to spread `n` kills
    /// under the threshold cap — the fix is more units, not fewer kills.
    pub fn kill_all_once(
        n: usize,
        t: usize,
        schedule: &Schedule,
        total_rounds: u64,
        seed: u64,
    ) -> Result<Self, String> {
        let unit_rounds = schedule.unit_rounds;
        let normal = unit_rounds - schedule.refresh_rounds();
        let margin = (normal / 2).clamp(2, 8);
        let cap = n.saturating_sub(t + 1).max(1);
        // Units eligible to host kills: a full unit must follow.
        let units: Vec<u64> = (0..)
            .take_while(|u| (u + 2) * unit_rounds <= total_rounds)
            .collect();
        let needed = n.div_ceil(cap);
        if units.len() < needed {
            return Err(format!(
                "cannot kill all {n} nodes: at most {cap} per unit (t={t} needs t+1 \
                 surviving shares per refresh) requires {needed} kill-eligible units \
                 plus a final clean one, but {total_rounds} rounds hold only {} — \
                 raise --units to at least {}",
                units.len(),
                needed + 1
            ));
        }
        // Deterministic victim order, then round-robin across eligible units
        // so concurrent share loss stays maximally below the cap.
        let mut victims: Vec<u32> = (1..=n as u32).collect();
        victims.sort_by_key(|node| {
            sha256::hash_parts(
                "proauth/net/killplan",
                &[&seed.to_be_bytes(), &node.to_be_bytes()],
            )
        });
        let spread = units.len().min(needed.max(1));
        let mut events = Vec::with_capacity(n);
        for (i, &node) in victims.iter().enumerate() {
            let unit = units[i % spread];
            // Normal-phase window of this unit (unit 0 is all normal; later
            // units open with their refresh), minus the boundary margin.
            let win_lo = if unit == 0 {
                2
            } else {
                unit * unit_rounds + schedule.refresh_rounds()
            };
            let win_hi = ((unit + 1) * unit_rounds - margin).max(win_lo + 1);
            let h = sha256::hash_parts(
                "proauth/net/killround",
                &[&seed.to_be_bytes(), &node.to_be_bytes()],
            );
            let r = win_lo
                + u64::from_be_bytes(h[..8].try_into().expect("8 bytes")) % (win_hi - win_lo);
            events.push((r, NodeId(node)));
        }
        Ok(Self::sorted(events))
    }

    /// The events scheduled at `round`.
    pub fn crashes_at(&self, round: u64) -> &[(u64, NodeId)] {
        let lo = self.events.partition_point(|e| e.0 < round);
        let hi = self.events.partition_point(|e| e.0 <= round);
        &self.events[lo..hi]
    }
}

/// `node:round,node:round,...` in event order, the inverse of the `FromStr`
/// impl.
impl fmt::Display for FaultSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, (round, node)) in self.events.iter().enumerate() {
            let sep = if k == 0 { "" } else { "," };
            write!(f, "{sep}{}:{round}", node.0)?;
        }
        Ok(())
    }
}

/// Parses `node:round,...` strictly: every comma-separated entry is exactly
/// two integer fields with a node id of at least 1 (the empty string is the
/// empty schedule). Entries may come in any order; the schedule sorts them.
impl FromStr for FaultSchedule {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        if s.is_empty() {
            return Ok(FaultSchedule::default());
        }
        let events = s
            .split(',')
            .map(|entry| {
                let bad = || format!("bad kill entry '{entry}' (want node:round)");
                let (node, round) = entry.split_once(':').ok_or_else(bad)?;
                let node: u32 = node.parse().map_err(|_| bad())?;
                let round: u64 = round.parse().map_err(|_| bad())?;
                if node == 0 {
                    return Err(format!("bad kill entry '{entry}': nodes count from 1"));
                }
                Ok((round, NodeId(node)))
            })
            .collect::<Result<_, String>>()?;
        Ok(Self::sorted(events))
    }
}

/// A message in flight inside [`ChaosNet`]: its `(send round, sender, seq)`
/// order key, its copy count, and the envelope.
type Parked = ((u64, NodeId, u32), u32, Envelope);

/// Wraps an adversary with the chaos engine: executes a [`FaultSchedule`],
/// restarts crashed nodes (scheduled *or* panic-induced) after
/// `restart_after` rounds, and — under the UL model — hands the inner
/// adversary's deliveries to [`ChaosSpec::fate`].
///
/// Delivery mirrors the daemon exactly: each sender's envelopes of a round
/// are numbered in order as the daemon numbers its frames, parked by
/// delivery round, and released in `(send round, sender, seq)` order — the
/// order a daemon node sorts its inbox into.
///
/// Under the AL model only the crash/restart plan applies: the AL adversary
/// has no power over honest delivery, so the spec is ignored.
pub struct ChaosNet<A> {
    /// The wrapped adversary (its plan and delivery run first).
    pub inner: A,
    spec: ChaosSpec,
    schedule: FaultSchedule,
    restart_after: Option<u64>,
    /// Messages in flight, keyed by delivery round.
    parked: BTreeMap<u64, Vec<Parked>>,
    /// Round each node was first *observed* crashed; drives restarts.
    crashed_since: Vec<Option<u64>>,
}

impl<A> ChaosNet<A> {
    /// Wraps `inner` with a delivery spec and a crash schedule.
    pub fn new(
        inner: A,
        spec: ChaosSpec,
        schedule: FaultSchedule,
        restart_after: Option<u64>,
        n: usize,
    ) -> Self {
        ChaosNet {
            inner,
            spec,
            schedule,
            restart_after,
            parked: BTreeMap::new(),
            crashed_since: vec![None; n],
        }
    }

    /// Compiles the crash schedule from `crash` (seeded by `spec.seed`) and
    /// wraps `inner` in one step.
    pub fn compile(
        inner: A,
        spec: ChaosSpec,
        crash: &CrashConfig,
        n: usize,
        total_rounds: u64,
        schedule: &Schedule,
    ) -> Self {
        let compiled = FaultSchedule::compile(crash, n, total_rounds, schedule, spec.seed);
        Self::new(inner, spec, compiled, crash.restart_after, n)
    }

    /// The chaos engine's own plan for this round: scheduled crashes plus
    /// reactive restarts for any node observed crashed long enough —
    /// including nodes the engine crashed because their step panicked.
    fn chaos_plan(&mut self, view: &NetView<'_>) -> BreakPlan {
        let round = view.time.round;
        let mut plan = BreakPlan::none();
        plan.crash
            .extend(self.schedule.crashes_at(round).iter().map(|e| e.1));
        for id in NodeId::all(view.n) {
            let idx = id.idx();
            if view.crashed[idx] {
                let since = *self.crashed_since[idx].get_or_insert(round);
                if let Some(delay) = self.restart_after {
                    if round >= since + delay {
                        plan.restart.push(id);
                    }
                }
            } else {
                self.crashed_since[idx] = None;
            }
        }
        plan
    }

    /// Parks the round's delivered set by fate and releases what is due in
    /// the next round.
    fn chaos_deliver(&mut self, delivered: Vec<Envelope>, round: u64) -> Vec<Envelope> {
        if self.spec.is_faithful() && self.parked.is_empty() {
            return delivered;
        }
        let mut seqs = vec![0u32; self.crashed_since.len()];
        for env in delivered {
            let seq = &mut seqs[env.from.idx()];
            let (at, copies) = self.spec.fate(round, env.from, env.to, *seq);
            let key = (round, env.from, *seq);
            *seq += 1;
            self.parked.entry(at).or_default().push((key, copies, env));
        }
        let mut due = self.parked.remove(&(round + 1)).unwrap_or_default();
        due.sort_unstable_by_key(|p| p.0);
        due.into_iter()
            .flat_map(|(_, copies, env)| std::iter::repeat_n(env, copies as usize))
            .collect()
    }
}

impl<A: UlAdversary> UlAdversary for ChaosNet<A> {
    fn plan(&mut self, view: &NetView<'_>) -> BreakPlan {
        let mut p = self.inner.plan(view);
        p.merge(self.chaos_plan(view));
        p
    }

    fn corrupt(&mut self, node: NodeId, state: &mut dyn std::any::Any, time: &TimeView) {
        self.inner.corrupt(node, state, time);
    }

    fn deliver(&mut self, sent: &[Envelope], view: &NetView<'_>) -> Vec<Envelope> {
        let mid = self.inner.deliver(sent, view);
        self.chaos_deliver(mid, view.time.round)
    }

    fn output(&mut self) -> Vec<String> {
        self.inner.output()
    }
}

impl<A: AlAdversary> AlAdversary for ChaosNet<A> {
    fn plan(&mut self, view: &NetView<'_>) -> BreakPlan {
        let mut p = self.inner.plan(view);
        p.merge(self.chaos_plan(view));
        p
    }

    fn corrupt(&mut self, node: NodeId, state: &mut dyn std::any::Any, time: &TimeView) {
        self.inner.corrupt(node, state, time);
    }

    fn broken_sends(&mut self, honest_sent: &[Envelope], view: &NetView<'_>) -> Vec<Envelope> {
        self.inner.broken_sends(honest_sent, view)
    }

    fn output(&mut self) -> Vec<String> {
        self.inner.output()
    }
}

/// Test hook: a process wrapper that panics on one configured `(node,
/// round)` step, for exercising the engine's panic→crash conversion. The
/// inner process is fully transparent otherwise (including `state_mut`, so
/// adversary downcasts still reach the real node state).
pub struct PanicOn<P> {
    inner: P,
    node: NodeId,
    round: u64,
}

impl<P> PanicOn<P> {
    /// Wraps `inner`; the wrapper panics when `node` executes `round`.
    pub fn at(inner: P, node: NodeId, round: u64) -> Self {
        PanicOn { inner, node, round }
    }
}

impl<P: Process> Process for PanicOn<P> {
    fn on_setup_round(&mut self, ctx: &mut SetupCtx<'_>) {
        self.inner.on_setup_round(ctx);
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
        assert!(
            !(ctx.me == self.node && ctx.time.round == self.round),
            "chaos: injected panic ({} at round {})",
            self.node,
            self.round
        );
        self.inner.on_round(ctx);
    }

    fn state_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.state_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::FaithfulUl;
    use crate::runner::{run_ul, SimConfig};
    use std::any::Any;

    /// Counts what it hears; crashes lose the count (volatile state).
    struct Counter {
        heard: u64,
    }

    impl Process for Counter {
        fn on_setup_round(&mut self, _ctx: &mut SetupCtx<'_>) {}
        fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
            self.heard += ctx.inbox.len() as u64;
            ctx.send_all(vec![0x01]);
        }
        fn state_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn cfg(n: usize, rounds: u64) -> SimConfig {
        let mut c = SimConfig::new(n, 1, Schedule::new(10, 2, 2));
        c.total_rounds = rounds;
        c.setup_rounds = 1;
        c
    }

    fn stormy(seed: u64) -> ChaosSpec {
        ChaosSpec {
            seed,
            delay_pct: 30,
            delay_max: 3,
            dup_pct: 10,
            ..ChaosSpec::faithful()
        }
    }

    #[test]
    fn fate_is_deterministic_and_bounded() {
        let spec = stormy(42);
        let (mut delayed, mut duplicated) = (0u32, 0u32);
        for seq in 0..1000 {
            let (at, copies) = spec.fate(7, NodeId(1), NodeId(2), seq);
            assert_eq!(
                (at, copies),
                spec.fate(7, NodeId(1), NodeId(2), seq),
                "fates must be reproducible"
            );
            assert!((8..=11).contains(&at), "delivered in round {at}");
            assert!((1..=2).contains(&copies));
            delayed += u32::from(at > 8);
            duplicated += u32::from(copies == 2);
        }
        // ~30% and ~10% of 1000, generously bracketed.
        assert!((150..450).contains(&delayed), "delayed={delayed}");
        assert!((30..200).contains(&duplicated), "duplicated={duplicated}");
    }

    #[test]
    fn fate_is_keyed_per_seq() {
        // Two messages on one link in one round are decided independently:
        // the seq is part of the key, so fates vary along it.
        let spec = stormy(9);
        let fates: Vec<(u64, u32)> = (0..64)
            .map(|seq| spec.fate(3, NodeId(2), NodeId(4), seq))
            .collect();
        assert!(fates.iter().any(|f| *f != fates[0]), "fates vary with seq");
        // And a different seed decides differently.
        let other: Vec<(u64, u32)> = (0..64)
            .map(|seq| stormy(10).fate(3, NodeId(2), NodeId(4), seq))
            .collect();
        assert_ne!(fates, other);
    }

    #[test]
    fn partition_holds_cross_group_until_end_plus_one() {
        let spec = ChaosSpec {
            partition: Some(PartitionWindow {
                start: 10,
                end: 20,
                split: 3,
            }),
            ..stormy(5)
        };
        // Cross-group, inside the window: delivered the round after healing,
        // exactly once, in either direction.
        for round in 10..20 {
            assert_eq!(spec.fate(round, NodeId(1), NodeId(5), 0), (21, 1));
            assert_eq!(spec.fate(round, NodeId(5), NodeId(3), 7), (21, 1));
        }
        // Same group inside the window, or any link outside it: the delay
        // and dup knobs decide, as if there were no partition.
        let open = stormy(5);
        for (round, from, to) in [(12, 1, 3), (12, 4, 5), (20, 1, 5), (9, 1, 5)] {
            for seq in 0..32 {
                let (from, to) = (NodeId(from), NodeId(to));
                assert_eq!(spec.fate(round, from, to, seq), open.fate(round, from, to, seq));
            }
        }
    }

    #[test]
    fn faithful_spec_is_identity() {
        let spec = ChaosSpec::faithful();
        assert!(spec.is_faithful());
        for round in [0, 5, 1 << 40] {
            for seq in 0..16 {
                assert_eq!(spec.fate(round, NodeId(1), NodeId(2), seq), (round + 1, 1));
            }
            assert!(!spec.reset_due(round, NodeId(1)));
        }
        // Faithful delivery through ChaosNet is FaithfulUl, bit for bit.
        let plain = run_ul(cfg(4, 12), |_| Counter { heard: 0 }, &mut FaithfulUl);
        let mut adv = ChaosNet::new(FaithfulUl, spec, FaultSchedule::default(), None, 4);
        assert_eq!(run_ul(cfg(4, 12), |_| Counter { heard: 0 }, &mut adv), plain);
    }

    #[test]
    fn partition_window_parses_strictly() {
        let w: PartitionWindow = "4:12:2".parse().unwrap();
        assert_eq!((w.start, w.end, w.split), (4, 12, 2));
        assert_eq!(w.to_string(), "4:12:2");
        for bad in [
            "4:x:12:2",
            "4:12",
            "4:12:2:",
            "12:4:2",
            "4:12:0",
            "4:12:4294967296",
        ] {
            assert!(bad.parse::<PartitionWindow>().is_err(), "{bad}");
        }
    }

    #[test]
    fn schedule_is_deterministic_and_budget_capped() {
        let crash = CrashConfig {
            crash_p: 0.08,
            boundary_crash_p: 0.5,
            restart_after: Some(4),
            max_down: 2,
            ..CrashConfig::default()
        };
        let sched = Schedule::new(10, 2, 2);
        let a = FaultSchedule::compile(&crash, 6, 40, &sched, 77);
        let b = FaultSchedule::compile(&crash, 6, 40, &sched, 77);
        assert_eq!(a, b);
        assert!(!a.events.is_empty(), "intensity this high must crash");
        assert!(a.events.windows(2).all(|w| w[0] < w[1]), "sorted");
        // The compiler's own outage presumption never exceeds max_down.
        let mut up_at = [0u64; 6];
        for round in 0..40 {
            for (_, id) in a.crashes_at(round) {
                up_at[id.idx()] = round + 5;
            }
            let down = up_at.iter().filter(|&&u| u > round).count();
            assert!(down <= 2, "round {round}: {down} down");
        }
        // A different seed produces a different schedule.
        let c = FaultSchedule::compile(&crash, 6, 40, &sched, 78);
        assert_ne!(a, c);
    }

    #[test]
    fn crash_discards_state_and_restart_rejoins() {
        // One scheduled crash of node 2 at round 3, restart after 2 rounds.
        let schedule: FaultSchedule = "2:3".parse().unwrap();
        let mut adv = ChaosNet::new(FaithfulUl, ChaosSpec::faithful(), schedule, Some(2), 3);
        let result = run_ul(cfg(3, 20), |_| Counter { heard: 0 }, &mut adv);
        // Crashed rounds are charged: node 2 down from round 3 until the
        // restart lands (observed crashed at 4, restarted at plan of 6).
        assert_eq!(result.stats.crashes, 1);
        assert_eq!(result.stats.restarts, 1);
        assert_eq!(result.stats.panics, 0);
        let down = result.stats.crashed_rounds[NodeId(2).idx()];
        assert_eq!(down, 3, "rounds 3,4,5 spent crashed");
        // While down it sent nothing: 2 peers × 3 rounds missing.
        assert_eq!(result.stats.messages_sent, 3 * 2 * 20 - 6);
        // The crash is charged to ground truth: node 2 lost s-operational
        // status (UL impairment lines fired) and rejoined at a refresh end.
        let evs: Vec<_> = result.outputs[NodeId(2).idx()]
            .iter()
            .map(|(_, e)| e.clone())
            .collect();
        assert!(evs.contains(&crate::message::OutputEvent::Compromised));
        assert!(evs.contains(&crate::message::OutputEvent::Recovered));
    }

    #[test]
    fn chaotic_delivery_preserves_multiset_per_link() {
        // Delay + dup never forge or modify: every delivered envelope
        // matches something sent on the same link.
        let mut adv = ChaosNet::new(FaithfulUl, stormy(9), FaultSchedule::default(), None, 4);
        let mut c = cfg(4, 15);
        c.record_transcript = true;
        let result = run_ul(c, |_| Counter { heard: 0 }, &mut adv);
        assert_eq!(result.stats.messages_modified, 0);
        let t = result.transcript.expect("transcript");
        for rec in &t {
            for env in &rec.delivered {
                assert!(
                    t.iter().any(|r| r
                        .sent
                        .iter()
                        .any(|s| s.from == env.from && s.to == env.to && s.payload == env.payload)),
                    "delivered envelope was never sent"
                );
            }
        }
        // Duplication actually fired.
        assert!(result.stats.messages_injected > 0, "duplicates count as injected");
    }

    #[test]
    fn process_fault_plan_is_deterministic_and_post_setup() {
        // 13 nodes, t=6 → at most 6 victims per unit, so 3 kill units plus a
        // final clean one: uls-style units of 26 rounds (refresh 18).
        let sched = Schedule::new(26, 10, 8);
        let a = FaultSchedule::kill_all_once(13, 6, &sched, 26 * 4, 42).expect("fits");
        let b = FaultSchedule::kill_all_once(13, 6, &sched, 26 * 4, 42).expect("fits");
        assert_eq!(a, b);
        assert_eq!(a.events.len(), 13);
        // Every node killed exactly once.
        let mut nodes: Vec<u32> = a.events.iter().map(|&(_, id)| id.0).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, (1..=13).collect::<Vec<u32>>());
        // Placement rules: normal-phase rounds only (unit 0 all-normal, later
        // units after their refresh), margin before each boundary, never the
        // final unit, and at most n-(t+1)=6 victims per unit.
        let margin = 4; // (normal=8)/2
        let mut per_unit = [0usize; 4];
        for &(round, _) in &a.events {
            let unit = (round / 26) as usize;
            assert!(unit < 3, "kill at round {round} leaves no clean unit");
            per_unit[unit] += 1;
            let in_unit = round % 26;
            if unit > 0 {
                assert!(in_unit >= 18, "kill at round {round} lands mid-refresh");
            } else {
                assert!(round >= 2, "kill at round {round} lands in setup");
            }
            assert!(in_unit < 26 - margin, "kill at round {round} ignores margin");
        }
        assert!(per_unit.iter().all(|&k| k <= 6), "threshold cap: {per_unit:?}");
        // Sorted by round for the supervisor's cursor.
        assert!(a.events.windows(2).all(|w| w[0] <= w[1]));
        let c = FaultSchedule::kill_all_once(13, 6, &sched, 26 * 4, 43).expect("fits");
        assert_ne!(a, c, "different seed, different spread");
        // Too few units to spread the kills → explicit error, not a bad plan.
        let err = FaultSchedule::kill_all_once(13, 6, &sched, 26 * 2, 42);
        assert!(err.is_err(), "2 units cannot host 13 kills under the cap");
    }

    #[test]
    fn process_fault_plan_parses_explicit_schedules() {
        let p: FaultSchedule = "3:10,1:4,2:10".parse().expect("parses");
        assert_eq!(p.events, vec![(4, NodeId(1)), (10, NodeId(2)), (10, NodeId(3))]);
        assert_eq!(p.crashes_at(10), &[(10, NodeId(2)), (10, NodeId(3))]);
        assert!(p.crashes_at(5).is_empty());
        for bad in ["3-10", "x:10", "3:10:1", "0:4", "3:10,", ",3:10", "3:10, 1:4", " 3:10"] {
            assert!(bad.parse::<FaultSchedule>().is_err(), "{bad:?}");
        }
        assert!("".parse::<FaultSchedule>().expect("empty ok").events.is_empty());
    }

    #[test]
    fn fault_schedule_text_round_trips() {
        // Display is the exact inverse of FromStr, for explicit, compiled and
        // kill-all-once schedules alike.
        let sched = Schedule::new(26, 10, 8);
        let crash = CrashConfig {
            crash_p: 0.05,
            boundary_crash_p: 1.0,
            restart_after: Some(3),
            max_down: 3,
            ..CrashConfig::default()
        };
        for s in [
            FaultSchedule::default(),
            "2:7".parse().unwrap(),
            "3:10,1:4,2:10".parse().unwrap(),
            FaultSchedule::compile(&crash, 7, 80, &sched, 3),
            FaultSchedule::kill_all_once(13, 6, &sched, 26 * 4, 42).unwrap(),
        ] {
            let text = s.to_string();
            assert_eq!(text.parse::<FaultSchedule>(), Ok(s.clone()), "{text}");
        }
        assert_eq!("3:10,1:4".parse::<FaultSchedule>().unwrap().to_string(), "1:4,3:10");
    }

    #[test]
    fn panicking_step_becomes_crash_and_run_continues() {
        let run = |parallel: bool| {
            let mut c = cfg(3, 12);
            c.parallel = parallel;
            run_ul(
                c,
                |_| PanicOn::at(Counter { heard: 0 }, NodeId(2), 4),
                &mut FaithfulUl,
            )
        };
        let serial = run(false);
        assert_eq!(serial.stats.panics, 1);
        assert_eq!(serial.stats.crashes, 1);
        assert_eq!(serial.stats.restarts, 0);
        // Crashed from its panicking round 4 to the end of the run.
        assert_eq!(serial.stats.crashed_rounds[NodeId(2).idx()], 8);
        // The run completed: the other nodes kept sending every round.
        assert_eq!(serial.stats.messages_sent, 3 * 2 * 12 - 2 * 8);
        // The pool engine converts the panic identically.
        let pooled = run(true);
        assert_eq!(serial, pooled);
    }
}
