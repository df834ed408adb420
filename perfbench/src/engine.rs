//! The in-process engine workloads: the flat ULS stack (`refresh-n13`), the
//! §6 hierarchy (`hier-n64`) and the AL-model signing service
//! (`service-n13`). Each rep runs one complete scenario on the worker pool
//! and applies the workload's correctness gate.

use crate::rep::{alerts, heartbeats, Rep, Traced};
use crate::stats::{Ops, RoundClock};
use crate::wrap::{Check, Clock, ClockedAl, ClockedUl, Node, NodeRec};
use proauth_core::authenticator::HeartbeatApp;
use proauth_core::awareness;
use proauth_core::certify::cert_payload;
use proauth_core::hier::{heartbeat_msg, HierConfig, HierNode, HIER_SETUP_ROUNDS};
use proauth_core::uls::{uls_schedule, UlsConfig, UlsNode, SETUP_ROUNDS};
use proauth_crypto::group::{Group, GroupId};
use proauth_crypto::schnorr::{Signature, VerifyKey};
use proauth_pds::als::{AlsConfig, AlsPds};
use proauth_pds::als_node::AlsProcess;
use proauth_pds::msg::{sid_for, signing_payload, AlsMsg, Sid};
use proauth_primitives::bigint::BigUint;
use proauth_primitives::wire::Decode;
use proauth_sim::adversary::{FaithfulUl, PassiveAl};
use proauth_sim::clock::{Schedule, TimeView};
use proauth_sim::message::{NodeId, OutputEvent};
use proauth_sim::process::Rom;
use proauth_sim::runner::{run_al_with_inputs, run_ul, SimConfig, SimResult};
use proauth_sim::workload::{Workload, WorkloadConfig};
use proauth_sim::Telemetry;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Flat stack: n = 13, t = 6, normal phase of 12 rounds, two units (the
/// second refresh-bearing).
pub const FLAT_N: usize = 13;
pub const FLAT_T: usize = 6;
pub const FLAT_NORMAL: u64 = 12;
pub const FLAT_UNITS: u64 = 2;
/// Hierarchy: n = 64 as 8 clusters of 8, two units.
pub const HIER_N: usize = 64;
pub const HIER_UNITS: u64 = 2;
/// Service: n = 13, t = 6, 20-round units (1 + 8 refresh rounds).
pub const SVC_N: usize = 13;
pub const SVC_T: usize = 6;
pub const SVC_UNITS: u64 = 12;
pub const SVC_RATE_MILLIS: u64 = 3_000;
pub const SVC_MIX: &str = "sign=3,verify=1";
pub const SVC_WINDOW: usize = 8;
pub const SVC_NONCE_POOL: usize = 64;

/// Engine threads: one per CPU available to the benchmark. The pool's
/// publisher thread executes node steps next to its workers, so a pool gets
/// one worker fewer; with a single CPU the engine runs serially.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// How much of a scenario a rep runs: every unit, or set-up plus one round
/// (the extra `setup_s` samples).
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum RepKind {
    Full,
    SetupOnly,
}

impl RepKind {
    /// Post-setup rounds of a scenario of `units` time units.
    pub fn rounds(self, schedule: &Schedule, units: u64) -> u64 {
        match self {
            RepKind::Full => schedule.unit_rounds * units,
            RepKind::SetupOnly => 1,
        }
    }
}

fn base_config(
    n: usize,
    s: usize,
    schedule: Schedule,
    setup_rounds: u64,
    total_rounds: u64,
    seed: u64,
    tele: Telemetry,
) -> SimConfig {
    let mut cfg = SimConfig::new(n, s, schedule);
    cfg.setup_rounds = setup_rounds;
    cfg.total_rounds = total_rounds;
    cfg.seed = seed;
    cfg.parallel = threads() > 1;
    cfg.threads = threads() - 1;
    cfg.telemetry = tele;
    cfg
}

/// Telemetry for a rep: the flight recorder into memory when traced.
fn telemetry(traced: bool) -> (Telemetry, Option<Arc<std::sync::Mutex<Vec<u8>>>>) {
    if traced {
        let (t, buf) = Telemetry::with_memory_sink();
        (t, Some(buf))
    } else {
        (Telemetry::off(), None)
    }
}

/// Per-round key check of the ULS stack: at the last round of every unit
/// the node's local keys belong to that unit and carry a certificate that
/// verifies under the ROM's `v_cert`.
pub fn unit_key_check(
    node: &UlsNode<HeartbeatApp>,
    me: NodeId,
    group: &Group,
    time: &TimeView,
    rom: &Rom,
    unit_rounds: u64,
) -> Option<String> {
    if time.round_in_unit + 1 != unit_rounds {
        return None;
    }
    let Some(keys) = node.local_keys() else {
        return Some(format!(
            "{me} holds no local keys at the end of unit {}",
            time.unit
        ));
    };
    if keys.unit != time.unit {
        return Some(format!(
            "{me} ends unit {} with unit-{} keys",
            time.unit, keys.unit
        ));
    }
    let Some(cert) = &keys.cert else {
        return Some(format!("{me} has no certificate for unit {}", time.unit));
    };
    let Some(v_cert) = rom.read("v_cert") else {
        return Some(format!("{me} has no v_cert in ROM"));
    };
    let vk = VerifyKey::from_element_trusted(group, BigUint::from_bytes_be(v_cert));
    if !vk.verify(&cert_payload(me, time.unit, &keys.vk_bytes()), cert) {
        return Some(format!(
            "{me}'s unit-{} certificate does not verify",
            time.unit
        ));
    }
    None
}

/// The common ULS gate over a finished run: zero alerts, zero
/// impersonations (accepted messages nobody sent), plus the per-unit key
/// checks the node wrappers collected.
fn uls_gate(result: &SimResult, schedule: &Schedule, recs: &[Arc<NodeRec>]) -> Vec<String> {
    let mut failures: Vec<String> = recs.iter().flat_map(|r| r.take_failures()).collect();
    let a = alerts(&result.outputs);
    if a > 0 {
        failures.push(format!("{a} alerts"));
    }
    let imps = awareness::find_impersonations(&result.outputs, schedule, |_, _| false);
    if !imps.is_empty() {
        failures.push(format!("{} forgeries accepted", imps.len()));
    }
    failures
}

fn finish_rep(
    setup_s: f64,
    mut clock: Clock,
    schedule: Schedule,
    result: &SimResult,
    recs: &[Arc<NodeRec>],
    traced: bool,
    trace_buf: Option<Arc<std::sync::Mutex<Vec<u8>>>>,
) -> (Rep, Option<Traced>) {
    let (end, end_snap) = clock.finish();
    let round_clock = RoundClock {
        starts: clock.starts.clone(),
    };
    let rep = Rep {
        setup_s,
        total_s: end,
        clock: round_clock,
        schedule,
        auth_lat: Vec::new(),
        auth: Ops::default(),
        sign_lat: Vec::new(),
        signs: Ops::default(),
        signed: 0,
        goodput_bytes: 0,
        node_rss_mib: None,
        failures: Vec::new(),
        traced: None,
    };
    let traced = traced.then(|| Traced {
        steps: recs.iter().flat_map(|r| r.take_steps()).collect(),
        workers: threads(),
        adversary_s: clock.adversary_s,
        phase_snaps: std::mem::take(&mut clock.phase_snaps),
        end_snap: end_snap.unwrap_or_default(),
        msgs: result.stats.messages_sent,
        bytes: result.stats.bytes_sent,
        captured: std::mem::take(&mut clock.captured),
        trace: trace_buf.map_or_else(String::new, |b| proauth_telemetry::memory_contents(&b)),
        net: Vec::new(),
    });
    (rep, traced)
}

/// Capture every 97th envelope for the wire probe (traced reps).
fn capture_every(traced: bool) -> u64 {
    if traced {
        97
    } else {
        0
    }
}

/// One rep of the flat ULS stack. Returns the rep and the raw result (for
/// the traced-equals-untraced check).
pub fn flat_rep(seed: u64, traced: bool, kind: RepKind) -> (Rep, SimResult) {
    uls_rep(FLAT_N, FLAT_T, FLAT_NORMAL, FLAT_UNITS, kind, seed, traced)
}

/// One rep of a flat ULS stack of `n` nodes (also the daemon's reference
/// engine run).
pub fn uls_rep(
    n: usize,
    t: usize,
    normal: u64,
    units: u64,
    kind: RepKind,
    seed: u64,
    traced: bool,
) -> (Rep, SimResult) {
    let epoch = Instant::now();
    let group = Group::new(GroupId::S256);
    let schedule = uls_schedule(normal);
    let (tele, buf) = telemetry(traced);
    let cfg = base_config(
        n,
        t,
        schedule,
        SETUP_ROUNDS,
        kind.rounds(&schedule, units),
        seed,
        tele.clone(),
    );
    let mut recs = Vec::new();
    let g = group.clone();
    let make = |id: NodeId| {
        let c = UlsConfig::new(g.clone(), n, t);
        let gk = g.clone();
        let ur = schedule.unit_rounds;
        let check: Check<UlsNode<HeartbeatApp>> =
            Box::new(move |node, time, rom| unit_key_check(node, id, &gk, time, rom, ur));
        let (node, rec) = Node::new(
            UlsNode::new(c, id, HeartbeatApp::default()),
            id,
            epoch,
            traced,
            Some(check),
        );
        recs.push(rec);
        node
    };
    let mut adv = ClockedUl {
        inner: FaithfulUl,
        clock: Clock::new(epoch, tele, capture_every(traced)),
    };
    let result = run_ul(cfg, make, &mut adv);
    let setup_s = adv.clock.starts.first().copied().unwrap_or(0.0);
    let (mut rep, tr) = finish_rep(setup_s, adv.clock, schedule, &result, &recs, traced, buf);
    let flat = |id: NodeId| (0, id.0);
    uls_metrics(&mut rep, &result, &flat);
    rep.failures = uls_gate(&result, &schedule, &recs);
    rep.traced = tr;
    (rep, result)
}

/// Heartbeat-derived figures of a ULS rep on the engine's shared clock.
fn uls_metrics(rep: &mut Rep, result: &SimResult, locate: &dyn Fn(NodeId) -> (u32, u32)) {
    let clock = &rep.clock;
    let (lat, sign, ops, bytes) = heartbeats(
        &result.outputs,
        locate,
        &|_, s, _, a| clock.latency_s(s, a),
        &|_, s| ((s as usize) < clock.rounds()).then(|| clock.round_s(s)),
    );
    rep.signed = ops.attempted;
    rep.auth_lat = lat;
    rep.sign_lat = sign;
    rep.auth = ops;
    rep.goodput_bytes = bytes;
}

/// One rep of the §6 hierarchy.
pub fn hier_rep(seed: u64, traced: bool, kind: RepKind) -> (Rep, SimResult) {
    let epoch = Instant::now();
    let group = Group::new(GroupId::S256);
    let hcfg = HierConfig::new(group.clone(), HIER_N);
    let schedule = uls_schedule(FLAT_NORMAL);
    let (tele, buf) = telemetry(traced);
    let mut cfg = base_config(
        HIER_N,
        1,
        schedule,
        HIER_SETUP_ROUNDS,
        kind.rounds(&schedule, HIER_UNITS),
        seed,
        tele.clone(),
    );
    cfg.clusters = Some(hcfg.partition.clusters.clone());
    let mut recs = Vec::new();
    let make = |id: NodeId| {
        let gk = group.clone();
        let ur = schedule.unit_rounds;
        let check: Check<HierNode<HeartbeatApp>> = Box::new(move |node, time, rom| {
            let me = node.me_local();
            unit_key_check(&node.inner, me, &gk, time, rom, ur)
        });
        let (node, rec) = Node::new(
            HierNode::new(hcfg.clone(), id, HeartbeatApp::default()),
            id,
            epoch,
            traced,
            Some(check),
        );
        recs.push(rec);
        node
    };
    let mut adv = ClockedUl {
        inner: FaithfulUl,
        clock: Clock::new(epoch, tele, capture_every(traced)),
    };
    let result = run_ul(cfg, make, &mut adv);
    let setup_s = adv.clock.starts.first().copied().unwrap_or(0.0);
    let (mut rep, tr) = finish_rep(setup_s, adv.clock, schedule, &result, &recs, traced, buf);
    let part = &hcfg.partition;
    let locate = |id: NodeId| {
        let c = part.cluster_of(id.0).expect("partition covers every node");
        let local = part.clusters[c]
            .iter()
            .position(|&g| g == id.0)
            .expect("member") as u32
            + 1;
        (c as u32, local)
    };
    uls_metrics(&mut rep, &result, &locate);
    let mut failures = uls_gate(&result, &schedule, &recs);
    // Every cluster co-signs the top-level heartbeat of every unit.
    for (c, members) in part.clusters.iter().enumerate() {
        for unit in 0..rep.clock.rounds() as u64 / schedule.unit_rounds {
            let want = heartbeat_msg(unit);
            let signed = members.iter().any(|&m| {
                result.events_of(NodeId(m)).iter().any(|(_, ev)| {
                    matches!(ev, OutputEvent::Signed { msg, unit: u } if *msg == want && *u == unit)
                })
            });
            if !signed {
                failures.push(format!(
                    "cluster {c} did not co-sign the unit-{unit} heartbeat"
                ));
            }
        }
    }
    rep.failures = failures;
    rep.traced = tr;
    (rep, result)
}

/// One rep of the signing service. The harness harvests every `SignDone`
/// gossip from the AL adversary's view and checks each distinct signed
/// `(msg, unit)` against the joint key with `crypto::schnorr`.
pub fn service_rep(seed: u64, traced: bool, kind: RepKind) -> (Rep, SimResult) {
    let epoch = Instant::now();
    let group = Group::new(GroupId::S256);
    let schedule = Schedule::new(20, 1, 8);
    let (tele, buf) = telemetry(traced);
    let cfg = base_config(
        SVC_N,
        SVC_T,
        schedule,
        2,
        kind.rounds(&schedule, SVC_UNITS),
        seed,
        tele.clone(),
    );
    let wcfg = WorkloadConfig::with_mix(seed ^ 0xE13, SVC_RATE_MILLIS, SVC_MIX).expect("valid mix");
    let workload = Workload::new(wcfg, SVC_N);
    let mut recs = Vec::new();
    let make = |id: NodeId| {
        let mut c = AlsConfig::new(group.clone(), SVC_N, SVC_T);
        c.nonce_pool = SVC_NONCE_POOL;
        c.verify_window = SVC_WINDOW;
        let (node, rec) = Node::new(AlsProcess::new(AlsPds::new(c, id)), id, epoch, traced, None);
        recs.push(rec);
        node
    };
    let done: Rc<RefCell<HashMap<Sid, Signature>>> = Rc::default();
    let sink = done.clone();
    let mut adv = ClockedAl {
        inner: PassiveAl,
        clock: Clock::new(epoch, tele, capture_every(traced)),
        tap: Box::new(move |env| {
            // Tag 4 is `AlsMsg::SignDone`; skip the rest undecoded.
            if env.payload.first() == Some(&4) {
                if let Ok(AlsMsg::SignDone { sid, e, s }) = AlsMsg::from_bytes(&env.payload) {
                    sink.borrow_mut().entry(sid).or_insert(Signature { e, s });
                }
            }
        }),
    };
    let result = run_al_with_inputs(cfg, make, &mut adv, |id, round| workload.input(id, round));
    let setup_s = adv.clock.starts.first().copied().unwrap_or(0.0);
    let sent = std::mem::take(&mut adv.clock.sent);
    let (mut rep, tr) = finish_rep(setup_s, adv.clock, schedule, &result, &recs, traced, buf);

    // Sign requests: due at the first round any node saw the request,
    // served at the first round any node output the signature.
    let mut due: BTreeMap<&[u8], (u64, u64)> = BTreeMap::new();
    let mut out: BTreeMap<(&[u8], u64), u64> = BTreeMap::new();
    for log in &result.outputs {
        for (round, ev) in log {
            match ev {
                OutputEvent::SignRequested { msg, unit } => {
                    let e = due.entry(msg.as_slice()).or_insert((*round, *unit));
                    e.0 = e.0.min(*round);
                }
                OutputEvent::Signed { msg, unit } => {
                    let e = out.entry((msg.as_slice(), *unit)).or_insert(*round);
                    *e = (*e).min(*round);
                }
                _ => {}
            }
        }
    }
    let first_signed: HashMap<&[u8], u64> =
        out.iter().fold(HashMap::new(), |mut m, ((msg, _), r)| {
            let e = m.entry(*msg).or_insert(*r);
            *e = (*e).min(*r);
            m
        });
    for (msg, (round, _)) in &due {
        rep.signs.attempted += 1;
        match first_signed.get(msg) {
            Some(&r) => {
                if let Some(l) = rep.clock.latency_s(*round, r) {
                    rep.sign_lat.push(l);
                }
            }
            None => rep.signs.failed += 1,
        }
    }
    rep.signed = out.len() as u64;
    rep.goodput_bytes = out.keys().map(|(m, _)| m.len() as u64).sum();
    // AL links are authenticated by the model: every protocol message
    // sent in round r is consumed in round r + 1.
    for (r, &k) in sent.iter().enumerate() {
        if let Some(l) = rep.clock.latency_s(r as u64, r as u64 + 1) {
            rep.auth_lat.extend(std::iter::repeat_n(l, k as usize));
        }
    }

    let mut failures: Vec<String> = recs.iter().flat_map(|r| r.take_failures()).collect();
    let a = alerts(&result.outputs);
    if a > 0 {
        failures.push(format!("{a} alerts"));
    }
    match result.roms.first().and_then(|rom| rom.read("v_cert")) {
        None => failures.push("no joint key in ROM".to_owned()),
        Some(pk) => {
            let vk = VerifyKey::from_element_trusted(&group, BigUint::from_bytes_be(pk));
            let done = done.borrow();
            let mut bad = 0usize;
            for (msg, unit) in out.keys() {
                let ok = done
                    .get(&sid_for(msg, *unit))
                    .is_some_and(|sig| vk.verify(&signing_payload(msg, *unit), sig));
                bad += usize::from(!ok);
            }
            if bad > 0 {
                failures.push(format!(
                    "{bad} of {} output signatures do not verify",
                    out.len()
                ));
            }
        }
    }
    if rep.signed == 0 && kind == RepKind::Full {
        failures.push("nothing was signed".to_owned());
    }
    rep.failures = failures;
    rep.traced = tr;
    (rep, result)
}
