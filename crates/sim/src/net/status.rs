//! The collector-side observability plane: the live merged registry, beacon
//! and alarm state, Definition-7 budget accounting, the cluster-trace
//! assembler, and the status-socket renderers (Prometheus exposition, JSON
//! snapshot, `top` scoreboard).
//!
//! # Live state vs. trace state
//!
//! Two stores deliberately coexist:
//!
//! * [`LiveState`] applies every metrics delta the moment it arrives —
//!   including the wall-clock-dependent `net/*` transport counters — because
//!   an operator polling the status socket wants *now*, not the last round
//!   barrier;
//! * [`TraceAssembler`] buffers per-`(node, round)` deltas and trace blobs
//!   and replays them in the engine's exact order (rounds in sequence, node
//!   shards in `NodeId` order), **excluding** `net/*` counters — those exist
//!   only in daemon mode, so admitting them would break the golden-trace
//!   guarantee that a stripped daemon trace is byte-identical to the
//!   in-process engine's.
//!
//! # Status protocol
//!
//! One request per connection, newline-terminated: `metrics` (Prometheus
//! text exposition), `json` (snapshot object), or `top` (pre-rendered
//! scoreboard). The response is written and the connection closed — no
//! framing, so `nc`/`curl --unix-socket` style tooling works.

use super::msg::{Alarm, HealthBeacon, Severity};
use super::peer::NetStream;
use crate::clock::{Phase, Schedule, TimeView};
use proauth_telemetry::{
    self as telemetry, intern_name, MetricsDelta, MetricsSnapshot, PhaseTimer, Registry, Telemetry,
};
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long a status connection may live before the collector sweeps it. A
/// scraper that connects and then stalls (never sends its newline, never
/// drains the response) would otherwise hold its slot forever — and since a
/// silent socket never wakes the poll loop, the deadline is enforced by the
/// collector's sweep, not by `drive`.
const STATUS_CONN_DEADLINE: Duration = Duration::from_secs(2);

/// Counter names excluded from trace synthesis: the daemon-only transport
/// layer. Everything under this prefix is wall-clock- and deployment-
/// dependent, so it may appear in the live registry and the exposition but
/// never in the golden trace.
const TRACE_EXCLUDE_PREFIX: &str = "net/";

/// Scenario parameters the collector needs to synthesize the engine's trace
/// framing (`run_start`, phase spans, `round_start`/`round_end`, `unit_end`,
/// `run_end`) around the nodes' streamed shard blobs.
#[derive(Debug, Clone)]
pub struct TraceSpec {
    /// Network size.
    pub n: usize,
    /// Operational threshold `s` (the engine stamps it into `run_start`).
    pub s: usize,
    /// Master seed.
    pub seed: u64,
    /// Round/unit layout (Fig. 1).
    pub schedule: Schedule,
    /// Adversary-free setup rounds.
    pub setup_rounds: u64,
    /// Post-setup rounds.
    pub total_rounds: u64,
}

/// Per-round buffered node contributions, held until every node's beacon for
/// the round has arrived.
#[derive(Debug, Default, Clone)]
struct PendingRound {
    /// Trace-event bytes per node (index = node idx).
    blobs: Vec<Option<Vec<u8>>>,
    /// Metrics delta per node.
    deltas: Vec<Option<MetricsDelta>>,
    /// `(sent_round, alerts_round)` per node, set by the beacon — beacon
    /// presence is the round-complete signal (stream FIFO order guarantees
    /// the trace and metrics frames preceded it).
    stats: Vec<Option<(u64, u64)>>,
}

impl PendingRound {
    fn sized(n: usize) -> Self {
        PendingRound {
            blobs: vec![None; n],
            deltas: vec![None; n],
            stats: vec![None; n],
        }
    }
}

/// Rebuilds the engine's flight-recorder trace from the per-node streams:
/// rounds strictly in order, node shards in `NodeId` order, engine framing
/// synthesized from [`TraceSpec`]. The output (stripped of `wall_*` fields)
/// is byte-identical to an in-process run of the same scenario — the
/// golden-trace guarantee extended to daemon mode.
pub struct TraceAssembler {
    spec: TraceSpec,
    tele: Telemetry,
    buf: Arc<Mutex<Vec<u8>>>,
    phase: PhaseTimer,
    pending: BTreeMap<u64, PendingRound>,
    next_round: u64,
    started: bool,
    finished: bool,
    total_sent: u64,
    total_alerts: u64,
}

impl TraceAssembler {
    /// A fresh assembler writing to an in-memory sink.
    pub fn new(spec: TraceSpec) -> Self {
        let (tele, buf) = Telemetry::with_memory_sink();
        TraceAssembler {
            spec,
            tele,
            buf,
            phase: PhaseTimer::default(),
            pending: BTreeMap::new(),
            next_round: 0,
            started: false,
            finished: false,
            total_sent: 0,
            total_alerts: 0,
        }
    }

    fn slot(&mut self, round: u64) -> Option<&mut PendingRound> {
        if round < self.next_round || round >= self.spec.total_rounds {
            return None;
        }
        let n = self.spec.n;
        Some(
            self.pending
                .entry(round)
                .or_insert_with(|| PendingRound::sized(n)),
        )
    }

    /// Buffers one node's trace blob for `round`.
    pub fn on_trace(&mut self, idx: usize, round: u64, events: Vec<u8>) {
        if let Some(slot) = self.slot(round) {
            if idx < slot.blobs.len() {
                slot.blobs[idx] = Some(events);
            }
        }
    }

    /// Buffers one node's metrics delta for `round`.
    pub fn on_metrics(&mut self, idx: usize, round: u64, delta: &MetricsDelta) {
        if let Some(slot) = self.slot(round) {
            if idx < slot.deltas.len() {
                slot.deltas[idx] = Some(delta.clone());
            }
        }
    }

    /// Records one node's beacon (the round-complete signal) and advances
    /// the assembly as far as completed rounds allow.
    pub fn on_beacon(&mut self, idx: usize, beacon: &HealthBeacon) {
        if let Some(slot) = self.slot(beacon.round) {
            if idx < slot.stats.len() {
                slot.stats[idx] = Some((beacon.sent_round, beacon.alerts_round));
            }
        }
        self.advance();
    }

    fn advance(&mut self) {
        while self.next_round < self.spec.total_rounds {
            let complete = self
                .pending
                .get(&self.next_round)
                .is_some_and(|p| p.stats.iter().all(Option::is_some));
            if !complete {
                return;
            }
            let slot = self.pending.remove(&self.next_round).expect("checked");
            self.emit_round(self.next_round, slot);
            self.next_round += 1;
        }
        self.finish();
    }

    fn emit_round(&mut self, round: u64, slot: PendingRound) {
        if !self.started {
            self.started = true;
            let spec = &self.spec;
            self.tele.emit_event("run_start", |ev| {
                ev.u64("n", spec.n as u64)
                    .u64("s", spec.s as u64)
                    .u64("seed", spec.seed)
                    .u64("setup_rounds", spec.setup_rounds)
                    .u64("total_rounds", spec.total_rounds)
                    .u64("unit_rounds", spec.schedule.unit_rounds)
                    .u64("part1_rounds", spec.schedule.part1_rounds)
                    .u64("part2_rounds", spec.schedule.part2_rounds);
            });
        }
        let time = TimeView::at(&self.spec.schedule, round);
        let label = match time.phase {
            Phase::RefreshPart1 { .. } => telemetry::PHASE_REFRESH1,
            Phase::RefreshPart2 { .. } => telemetry::PHASE_REFRESH2,
            Phase::Normal => telemetry::PHASE_NORMAL,
        };
        self.phase.on_round(&self.tele, round, time.unit, label);
        self.tele.emit_event("round_start", |ev| {
            ev.u64("round", round)
                .u64("unit", time.unit)
                .u64("auth_unit", time.auth_unit)
                .str("phase", label)
                .u64("round_in_unit", time.round_in_unit);
        });
        // Node contributions in NodeId order — the same merge order the
        // engine uses at its round barrier.
        let mut sent = 0u64;
        let mut alerts = 0u64;
        for idx in 0..self.spec.n {
            if let Some(blob) = &slot.blobs[idx] {
                self.tele.append_raw(blob);
            }
            if let Some(delta) = &slot.deltas[idx] {
                apply_filtered(delta, &self.tele);
            }
            if let Some((s, a)) = slot.stats[idx] {
                sent += s;
                alerts += a;
            }
        }
        self.total_sent += sent;
        self.total_alerts += alerts;
        // Faithful-run footer: the daemon has no in-band adversary, so
        // delivered == sent and the interference fields are zero (chaos runs
        // are never trace-compared). `wall_ns` is stripped before comparison.
        self.tele.emit_event("round_end", |ev| {
            ev.u64("round", round)
                .u64("sent", sent)
                .u64("delivered", sent)
                .u64("dropped", 0)
                .u64("injected", 0)
                .u64("modified", 0)
                .u64("alerts", alerts)
                .u64("broken", 0)
                .u64("crashed", 0)
                .u64("wall_ns", 0);
        });
        if time.round_in_unit + 1 == self.spec.schedule.unit_rounds
            || round + 1 == self.spec.total_rounds
        {
            self.tele.unit_mark(time.unit);
        }
    }

    fn finish(&mut self) {
        if self.finished || !self.started {
            return;
        }
        self.finished = true;
        self.phase.finish(&self.tele, self.spec.total_rounds);
        let (rounds, sent, alerts) = (self.spec.total_rounds, self.total_sent, self.total_alerts);
        self.tele.emit_event("run_end", |ev| {
            ev.u64("rounds", rounds)
                .u64("sent", sent)
                .u64("delivered", sent)
                .u64("dropped", 0)
                .u64("injected", 0)
                .u64("modified", 0)
                .u64("alerts", alerts);
        });
        self.tele.flush();
    }

    /// Whether every round has been emitted and the trace closed.
    pub fn complete(&self) -> bool {
        self.finished
    }

    /// The assembled trace so far, as JSONL.
    pub fn contents(&self) -> String {
        telemetry::memory_contents(&self.buf)
    }
}

/// Applies a delta to the assembler's registry, excluding the daemon-only
/// transport counters.
fn apply_filtered(delta: &MetricsDelta, tele: &Telemetry) {
    for (name, v) in &delta.counters {
        if !name.starts_with(TRACE_EXCLUDE_PREFIX) {
            tele.add(intern_name(name), *v);
        }
    }
    for (name, v) in &delta.maxes {
        if !name.starts_with(TRACE_EXCLUDE_PREFIX) {
            tele.gauge_max(intern_name(name), *v);
        }
    }
    // Histograms never enter trace events or unit marks; skipping them keeps
    // the assembler registry minimal.
}

/// Per-node liveness state derived from the beacon stream.
#[derive(Debug, Clone, Default)]
pub struct NodeHealth {
    /// The node's most recent beacon.
    pub last: HealthBeacon,
    /// When the first beacon arrived (rate base).
    first_at: Option<(u64, Instant)>,
    /// When the most recent beacon arrived.
    last_at: Option<Instant>,
    /// Beacons received in total.
    pub beacons: u64,
}

impl NodeHealth {
    /// Average rounds per second across the beacon history.
    pub fn rounds_per_sec(&self) -> f64 {
        let (Some((r0, t0)), Some(t1)) = (self.first_at, self.last_at) else {
            return 0.0;
        };
        let secs = t1.duration_since(t0).as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        (self.last.round.saturating_sub(r0)) as f64 / secs
    }
}

/// The cluster-wide live observability state: merged registry, per-node
/// registries and health, the alarm log, and Definition-7 budget accounting.
pub struct LiveState {
    /// Network size.
    n: usize,
    /// Impairment budget `t`: more than `t` distinct impaired nodes in one
    /// unit raises a `budget_exceeded` alarm.
    t: usize,
    /// Rounds per unit (for assigning beacons/alarms to units).
    unit_rounds: u64,
    /// Cluster-wide merged registry (all deltas, including `net/*`).
    pub merged: Registry,
    /// Per-node registries.
    pub per_node: Vec<Registry>,
    /// Per-node beacon-derived health.
    pub health: Vec<NodeHealth>,
    /// Every alarm observed or raised, in arrival order.
    pub alarms: Vec<Alarm>,
    /// Distinct impaired nodes per unit.
    unit_impaired: BTreeMap<u64, BTreeSet<u32>>,
    /// Units whose budget alarm already fired.
    budget_fired: BTreeSet<u64>,
    /// Last seen cumulative `(delayed_frames, mark_timeouts)` per node, for
    /// detecting fresh impairment from beacons.
    last_transport: Vec<(u64, u64)>,
}

impl LiveState {
    /// Fresh state for an `n`-node deployment under budget `t`.
    pub fn new(n: usize, t: usize, unit_rounds: u64) -> Self {
        LiveState {
            n,
            t,
            unit_rounds: unit_rounds.max(1),
            merged: Registry::default(),
            per_node: (0..n).map(|_| Registry::default()).collect(),
            health: vec![NodeHealth::default(); n],
            alarms: Vec::new(),
            unit_impaired: BTreeMap::new(),
            budget_fired: BTreeSet::new(),
            last_transport: vec![(0, 0); n],
        }
    }

    /// Applies one node's metrics delta to the live stores.
    pub fn on_metrics(&mut self, idx: usize, delta: &MetricsDelta) {
        delta.apply_to(&self.merged);
        if let Some(reg) = self.per_node.get(idx) {
            delta.apply_to(reg);
        }
    }

    /// Records a beacon: health bookkeeping plus impairment detection. A
    /// node whose barrier gave up on a peer's mark lost round alignment, and
    /// a node that received delayed frames (delivered in a stamped round
    /// past the one after they were sent) had a link the adversary delayed
    /// or cut. Either way one of its links was unreliable (Definition 4),
    /// and the node is charged for the unit. Frames that merely missed
    /// their stamped round — a restarted peer's catch-up replay — charge
    /// nobody; the supervisor's `node_restarted` alarm charges the restarted
    /// node itself.
    pub fn on_beacon(&mut self, idx: usize, beacon: HealthBeacon) {
        if idx >= self.n {
            return;
        }
        let now = Instant::now();
        let unit = beacon.round / self.unit_rounds;
        let h = &mut self.health[idx];
        if h.first_at.is_none() {
            h.first_at = Some((beacon.round, now));
        }
        h.last_at = Some(now);
        h.beacons += 1;
        let (delayed0, to0) = self.last_transport[idx];
        let disrupted = beacon.delayed_frames > delayed0 || beacon.mark_timeouts > to0;
        self.last_transport[idx] = (delayed0.max(beacon.delayed_frames), beacon.mark_timeouts);
        let node = beacon.node;
        h.last = beacon;
        if disrupted {
            self.mark_impaired(unit, node);
        }
    }

    /// Records a node-originated alarm; warning-or-worse alarms count the
    /// node as impaired for the unit the alarmed round falls in — except
    /// `forgery_reject`: rejecting a forged or round-stale frame indicts the
    /// sender (who is charged through its own alarms), not the rejector,
    /// whose protocol state is untouched by the drop.
    pub fn on_alarm(&mut self, alarm: Alarm) {
        if alarm.severity >= Severity::Warning
            && alarm.node != 0
            && alarm.kind != "forgery_reject"
        {
            let unit = alarm.round / self.unit_rounds;
            self.mark_impaired(unit, alarm.node);
        }
        self.alarms.push(alarm);
    }

    /// Marks `node` impaired in `unit` and fires the budget alarm the first
    /// time the unit's distinct-impaired count crosses `t`.
    fn mark_impaired(&mut self, unit: u64, node: u32) {
        let set = self.unit_impaired.entry(unit).or_default();
        set.insert(node);
        let count = set.len();
        if count > self.t && self.budget_fired.insert(unit) {
            self.alarms.push(Alarm {
                node: 0,
                round: unit.saturating_mul(self.unit_rounds),
                severity: Severity::Critical,
                kind: "budget_exceeded".to_owned(),
                detail: format!("unit {unit}: {count} impaired nodes > budget t={}", self.t),
            });
        }
    }

    /// Alarm counts by severity label.
    pub fn alarm_counts(&self) -> BTreeMap<&'static str, u64> {
        let mut counts = BTreeMap::new();
        for a in &self.alarms {
            *counts.entry(a.severity.label()).or_insert(0) += 1;
        }
        counts
    }

    /// Distinct impaired nodes per unit — the collector's live Definition-7
    /// accounting, for comparison against engine-side ground truth.
    pub fn unit_impairments(&self) -> BTreeMap<u64, Vec<u32>> {
        self.unit_impaired
            .iter()
            .map(|(u, s)| (*u, s.iter().copied().collect()))
            .collect()
    }

    /// The highest unit with impairment bookkeeping, with its distinct
    /// impaired-node count (0,0 when nothing was ever impaired).
    pub fn budget_state(&self) -> (u64, usize) {
        self.unit_impaired
            .iter()
            .next_back()
            .map(|(u, s)| (*u, s.len()))
            .unwrap_or((0, 0))
    }

    /// Renders the Prometheus-style text exposition: merged counters and
    /// gauges, per-node counters as labeled series, histogram count/sum
    /// pairs, beacon-derived per-node gauges, and alarm totals.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let merged = self.merged.snapshot();
        let node_snaps: Vec<MetricsSnapshot> =
            self.per_node.iter().map(Registry::snapshot).collect();
        for (name, v) in &merged.counters {
            let metric = prom_name(name);
            out.push_str(&format!("# TYPE {metric} counter\n{metric} {v}\n"));
            for (idx, snap) in node_snaps.iter().enumerate() {
                if let Some(nv) = snap.counters.get(name) {
                    out.push_str(&format!("{metric}{{node=\"{}\"}} {nv}\n", idx + 1));
                }
            }
        }
        for (name, v) in &merged.maxes {
            let metric = prom_name(name);
            out.push_str(&format!("# TYPE {metric} gauge\n{metric} {v}\n"));
        }
        for (name, h) in merged.hists.iter().chain(merged.value_hists.iter()) {
            let metric = prom_name(name);
            out.push_str(&format!(
                "# TYPE {metric} summary\n{metric}_count {}\n{metric}_sum {}\n",
                h.total, h.sum_ns
            ));
        }
        for (idx, h) in self.health.iter().enumerate() {
            if h.beacons == 0 {
                continue;
            }
            let node = idx + 1;
            let b = &h.last;
            out.push_str(&format!(
                "proauth_node_round{{node=\"{node}\"}} {}\n\
                 proauth_node_round_ms{{node=\"{node}\"}} {}\n\
                 proauth_node_lag_ms{{node=\"{node}\"}} {}\n\
                 proauth_node_inbox_depth{{node=\"{node}\"}} {}\n\
                 proauth_node_peers_live{{node=\"{node}\"}} {}\n\
                 proauth_node_beacons{{node=\"{node}\"}} {}\n",
                b.round, b.round_ms, b.lag_ms, b.inbox_depth, b.peers_live, h.beacons
            ));
        }
        let counts = self.alarm_counts();
        out.push_str("# TYPE proauth_alarms_total counter\n");
        for label in ["info", "warning", "critical"] {
            out.push_str(&format!(
                "proauth_alarms_total{{severity=\"{label}\"}} {}\n",
                counts.get(label).copied().unwrap_or(0)
            ));
        }
        let (unit, impaired) = self.budget_state();
        out.push_str(&format!(
            "proauth_budget_unit {unit}\nproauth_budget_impaired {impaired}\nproauth_budget_t {}\n",
            self.t
        ));
        out
    }

    /// Renders the JSON snapshot: merged counters, per-node health, alarms,
    /// budget state.
    pub fn render_json(&self) -> String {
        let merged = self.merged.snapshot();
        let mut out = String::from("{");
        out.push_str(&format!("\"n\":{},\"t\":{},", self.n, self.t));
        out.push_str("\"counters\":{");
        let mut first = true;
        for (name, v) in &merged.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{}\":{v}", json_escape(name)));
        }
        out.push_str("},\"nodes\":[");
        for (idx, h) in self.health.iter().enumerate() {
            if idx > 0 {
                out.push(',');
            }
            let b = &h.last;
            out.push_str(&format!(
                "{{\"node\":{},\"round\":{},\"round_ms\":{},\"lag_ms\":{},\
                 \"inbox_depth\":{},\"late_frames\":{},\"mark_timeouts\":{},\
                 \"peers_live\":{},\"beacons\":{},\"rounds_per_sec\":{:.2}}}",
                idx + 1,
                b.round,
                b.round_ms,
                b.lag_ms,
                b.inbox_depth,
                b.late_frames,
                b.mark_timeouts,
                b.peers_live,
                h.beacons,
                h.rounds_per_sec()
            ));
        }
        out.push_str("],\"alarms\":[");
        for (k, a) in self.alarms.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"node\":{},\"round\":{},\"severity\":\"{}\",\"kind\":\"{}\",\"detail\":\"{}\"}}",
                a.node,
                a.round,
                a.severity.label(),
                json_escape(&a.kind),
                json_escape(&a.detail)
            ));
        }
        let (unit, impaired) = self.budget_state();
        out.push_str(&format!(
            "],\"budget\":{{\"unit\":{unit},\"impaired\":{impaired},\"t\":{},\"exceeded\":{}}}}}",
            self.t,
            impaired > self.t
        ));
        out
    }

    /// Renders the scoreboard the `proauth top` subcommand displays: one row
    /// per node plus cluster summary and recent alarms.
    pub fn render_top(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "proauth cluster status — {} nodes, budget t={}\n\n",
            self.n, self.t
        ));
        out.push_str(
            "node   round  rnd/s   round_ms  lag_ms  inbox  late  tmout  peers  beacons\n",
        );
        for (idx, h) in self.health.iter().enumerate() {
            let b = &h.last;
            out.push_str(&format!(
                "{:<5}  {:<5}  {:<6.1}  {:<8}  {:<6}  {:<5}  {:<4}  {:<5}  {:<5}  {}\n",
                idx + 1,
                b.round,
                h.rounds_per_sec(),
                b.round_ms,
                b.lag_ms,
                b.inbox_depth,
                b.late_frames,
                b.mark_timeouts,
                b.peers_live,
                h.beacons
            ));
        }
        let merged = self.merged.snapshot();
        let accepted = merged.counters.get("uls/accepted").copied().unwrap_or(0);
        let rejected = merged.counters.get("uls/rejected").copied().unwrap_or(0);
        let alerts = merged.counters.get("uls/alerts").copied().unwrap_or(0);
        out.push_str(&format!(
            "\ncluster: accepted={accepted} rejected={rejected} alerts={alerts}\n"
        ));
        let (unit, impaired) = self.budget_state();
        out.push_str(&format!(
            "budget:  unit={unit} impaired={impaired}/{} {}\n",
            self.t,
            if impaired > self.t {
                "EXCEEDED"
            } else {
                "within budget"
            }
        ));
        let counts = self.alarm_counts();
        out.push_str(&format!(
            "alarms:  info={} warning={} critical={}\n",
            counts.get("info").copied().unwrap_or(0),
            counts.get("warning").copied().unwrap_or(0),
            counts.get("critical").copied().unwrap_or(0)
        ));
        for a in self.alarms.iter().rev().take(8).rev() {
            out.push_str(&format!(
                "  [{}] node {} round {}: {} ({})\n",
                a.severity.label(),
                a.node,
                a.round,
                a.kind,
                a.detail
            ));
        }
        out
    }
}

/// Mangles a registry metric name into a Prometheus-legal one.
fn prom_name(name: &str) -> String {
    let mangled: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("proauth_{mangled}")
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One status-socket connection: reads a newline-terminated request, writes
/// the rendered response, closes. Nonblocking, driven by the collector's
/// poll loop.
pub struct StatusConn {
    stream: NetStream,
    inbuf: Vec<u8>,
    out: Vec<u8>,
    pos: usize,
    /// When the connection was accepted; past the deadline it is swept.
    born: Instant,
    deadline: Duration,
    /// Response fully written (or the peer vanished) — drop me.
    pub done: bool,
}

impl StatusConn {
    /// Wraps a freshly accepted stream.
    pub fn new(stream: NetStream) -> Self {
        Self::with_deadline(stream, STATUS_CONN_DEADLINE)
    }

    /// Wraps a stream with an explicit lifetime deadline (tests).
    pub fn with_deadline(stream: NetStream, deadline: Duration) -> Self {
        StatusConn {
            stream,
            inbuf: Vec::new(),
            out: Vec::new(),
            pos: 0,
            born: Instant::now(),
            deadline,
            done: false,
        }
    }

    /// Whether the connection has outlived its deadline. The collector's
    /// sweep drops expired connections — a stalled scraper (silent socket,
    /// so no poll wake-up ever fires for it) cannot wedge the poll loop or
    /// hold its slot forever.
    pub fn expired(&self) -> bool {
        self.born.elapsed() > self.deadline
    }

    /// The raw descriptor for the poll set; poll for writability once a
    /// response is pending.
    pub fn raw_fd(&self) -> std::os::fd::RawFd {
        self.stream.raw_fd()
    }

    /// Whether the connection waits to write.
    pub fn wants_write(&self) -> bool {
        !self.out.is_empty() && self.pos < self.out.len()
    }

    /// Advances the connection: reads request bytes until the newline, then
    /// renders via `render` and writes the response out.
    pub fn drive(&mut self, state: &LiveState) {
        if self.done {
            return;
        }
        if self.out.is_empty() {
            let mut chunk = [0u8; 256];
            loop {
                match self.stream.read(&mut chunk) {
                    Ok(0) => {
                        self.done = true;
                        return;
                    }
                    Ok(k) => {
                        self.inbuf.extend_from_slice(&chunk[..k]);
                        if self.inbuf.len() > 4096 {
                            self.done = true;
                            return;
                        }
                        if self.inbuf.contains(&b'\n') {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                    Err(_) => {
                        self.done = true;
                        return;
                    }
                }
            }
            let line = self
                .inbuf
                .split(|&b| b == b'\n')
                .next()
                .unwrap_or_default();
            let request = String::from_utf8_lossy(line);
            let response = match request.trim() {
                "metrics" => state.render_prometheus(),
                "json" => state.render_json(),
                "top" => state.render_top(),
                other => format!("error: unknown request '{other}' (want metrics|json|top)\n"),
            };
            self.out = response.into_bytes();
        }
        while self.pos < self.out.len() {
            match self.stream.write(&self.out[self.pos..]) {
                Ok(0) => {
                    self.done = true;
                    return;
                }
                Ok(k) => self.pos += k,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    self.done = true;
                    return;
                }
            }
        }
        let _ = self.stream.flush();
        self.done = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beacon(node: u32, round: u64) -> HealthBeacon {
        HealthBeacon {
            node,
            round,
            round_ms: 250,
            peers_live: 2,
            sent_round: 6,
            alerts_round: 0,
            ..HealthBeacon::default()
        }
    }

    #[test]
    fn live_state_merges_and_budgets() {
        let mut st = LiveState::new(3, 1, 10);
        let mut delta = MetricsDelta::default();
        delta.counters.insert("uls/accepted".into(), 5);
        st.on_metrics(0, &delta);
        st.on_metrics(1, &delta);
        assert_eq!(st.merged.counter("uls/accepted"), 10);
        assert_eq!(st.per_node[0].counter("uls/accepted"), 5);

        // Two nodes with fresh mark timeouts in the same unit beat t=1.
        let mut b1 = beacon(1, 3);
        b1.mark_timeouts = 1;
        st.on_beacon(0, b1);
        assert!(st.alarms.is_empty());
        let mut b2 = beacon(2, 4);
        b2.mark_timeouts = 2;
        st.on_beacon(1, b2);
        assert_eq!(st.alarms.len(), 1);
        assert_eq!(st.alarms[0].kind, "budget_exceeded");
        assert_eq!(st.alarms[0].severity, Severity::Critical);
        // Fires once per unit.
        let mut b3 = beacon(3, 5);
        b3.mark_timeouts = 1;
        st.on_beacon(2, b3);
        assert_eq!(st.alarms.len(), 1);
        let (unit, impaired) = st.budget_state();
        assert_eq!((unit, impaired), (0, 3));
    }

    #[test]
    fn node_alarms_count_toward_budget() {
        let mut st = LiveState::new(2, 0, 10);
        st.on_alarm(Alarm {
            node: 2,
            round: 12,
            severity: Severity::Warning,
            kind: "uls_alert".into(),
            detail: "uls/alerts +1".into(),
        });
        assert_eq!(st.alarms.len(), 2); // the alarm itself + budget_exceeded
        assert!(st.alarms.iter().any(|a| a.kind == "budget_exceeded"));
        let (unit, impaired) = st.budget_state();
        assert_eq!((unit, impaired), (1, 1));
    }

    #[test]
    fn forgery_rejection_does_not_impair_the_rejector() {
        // A node dropping forged/round-stale frames is the protocol working;
        // it must not eat into the unit's Definition-7 budget.
        let mut st = LiveState::new(2, 0, 10);
        st.on_alarm(Alarm {
            node: 2,
            round: 12,
            severity: Severity::Warning,
            kind: "forgery_reject".into(),
            detail: "uls/rejected +3".into(),
        });
        assert_eq!(st.alarms.len(), 1); // the alarm alone, no budget breach
        let (_, impaired) = st.budget_state();
        assert_eq!(impaired, 0);
        // Frames received after their stamped round (a restarted peer's
        // catch-up replay) don't impair the receiver either.
        let mut b = beacon(1, 12);
        b.late_frames = 9;
        st.on_beacon(0, b);
        let (_, impaired) = st.budget_state();
        assert_eq!(impaired, 0);
    }

    #[test]
    fn delayed_frames_charge_the_receiver() {
        // Frames carry their delivery round, so a rise in a node's delayed
        // frames means the adversary delayed or cut one of its links: the
        // node is charged, and t+1 charged nodes breach the unit's budget.
        let mut st = LiveState::new(4, 1, 10);
        let mut b1 = beacon(1, 12);
        b1.late_frames = 3;
        b1.delayed_frames = 3;
        st.on_beacon(0, b1.clone());
        assert_eq!(st.budget_state(), (1, 1));
        assert!(st.alarms.is_empty());
        // The same cumulative count again is no fresh rise.
        b1.round = 22;
        st.on_beacon(0, b1);
        assert_eq!(st.budget_state(), (1, 1));
        let mut b2 = beacon(2, 13);
        b2.late_frames = 1;
        b2.delayed_frames = 1;
        st.on_beacon(1, b2);
        assert_eq!(st.budget_state(), (1, 2));
        assert_eq!(st.alarms.len(), 1);
        assert_eq!(st.alarms[0].kind, "budget_exceeded");
        assert_eq!(st.alarms[0].severity, Severity::Critical);
    }

    #[test]
    fn clean_beacons_charge_nobody() {
        let mut st = LiveState::new(3, 0, 10);
        for round in 0..30 {
            for idx in 0..3 {
                st.on_beacon(idx, beacon(idx as u32 + 1, round));
            }
        }
        assert_eq!(st.budget_state(), (0, 0));
        assert!(st.alarms.is_empty(), "{:?}", st.alarms);
    }

    #[test]
    fn renders_are_well_formed() {
        let mut st = LiveState::new(2, 1, 10);
        let mut delta = MetricsDelta::default();
        delta.counters.insert("uls/accepted".into(), 3);
        delta.maxes.insert("engine/peak".into(), 9);
        st.on_metrics(0, &delta);
        st.on_beacon(0, beacon(1, 2));
        let prom = st.render_prometheus();
        assert!(prom.contains("proauth_uls_accepted 3"));
        assert!(prom.contains("proauth_uls_accepted{node=\"1\"} 3"));
        assert!(prom.contains("proauth_node_round{node=\"1\"} 2"));
        assert!(prom.contains("proauth_budget_t 1"));
        let json = st.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"uls/accepted\":3"));
        assert!(json.contains("\"exceeded\":false"));
        let top = st.render_top();
        assert!(top.contains("within budget"));
    }

    #[test]
    fn trace_assembler_orders_rounds_and_nodes() {
        use crate::clock::Schedule;
        let spec = TraceSpec {
            n: 2,
            s: 2,
            seed: 7,
            schedule: Schedule::new(4, 1, 1),
            setup_rounds: 2,
            total_rounds: 4,
        };
        let mut asm = TraceAssembler::new(spec);
        // Node 2 races ahead; rounds must still come out in order with node
        // blobs in NodeId order.
        for r in 0..4u64 {
            asm.on_trace(1, r, format!("{{\"ev\":\"x\",\"node\":2,\"round\":{r}}}\n").into_bytes());
            asm.on_beacon(1, &beacon(2, r));
        }
        assert!(!asm.complete());
        assert_eq!(asm.contents(), "");
        for r in 0..4u64 {
            asm.on_trace(0, r, format!("{{\"ev\":\"x\",\"node\":1,\"round\":{r}}}\n").into_bytes());
            asm.on_beacon(0, &beacon(1, r));
        }
        assert!(asm.complete());
        let trace = asm.contents();
        let lines: Vec<&str> = trace.lines().collect();
        assert!(lines[0].starts_with("{\"ev\":\"run_start\",\"n\":2"));
        assert!(trace.ends_with("\"alerts\":0}\n"));
        let n1 = trace.find("\"node\":1,\"round\":0").expect("node 1 round 0");
        let n2 = trace.find("\"node\":2,\"round\":0").expect("node 2 round 0");
        assert!(n1 < n2, "node blobs must be in NodeId order");
        assert!(trace.contains("\"ev\":\"round_end\",\"round\":3"));
        assert!(trace.contains("\"ev\":\"unit_end\""));
    }
}
