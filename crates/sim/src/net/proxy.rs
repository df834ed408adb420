//! The chaos proxy: an adversarial *process* on the wire.
//!
//! In hub topology every node holds one connection to the proxy, which
//! routes protocol frames by destination. Because all traffic crosses it,
//! the proxy is exactly the paper's UL adversary boundary made physical. It
//! applies the shared chaos model ([`ChaosSpec::fate`]) to every round
//! frame: it restamps the frame's delivery round (delay, partition), sends
//! it once or twice (duplication), and forwards it at once — the receiver
//! holds it until the stamped round. Decisions are keyed by a seed and the
//! frame's `(round, from, to, seq)` identity, so a chaos run is reproducible
//! bit for bit, and equal to the engine's [`crate::chaos::ChaosNet`] under
//! the same spec.
//!
//! Model discipline is kept:
//!
//! * **setup traffic is faithful** — the set-up phase is adversary-free by
//!   assumption (§2.1), so `Setup`/`SetupMark` frames are forwarded verbatim
//!   and immediately;
//! * **marks are faithful** — barriers are engine pacing, not protocol
//!   messages; tampering with them would simulate a *slow engine*, not an
//!   adversarial network;
//! * **round frames** are fair game, and every manipulation maps to a legal
//!   UL adversary action (delayed or duplicated delivery);
//! * **socket resets** tear a node's link right after its mark — transport
//!   chaos the engine has no counterpart for.

use super::msg::NetMsg;
use super::peer::{AddrPlan, Conn, NetListener};
use super::poll;
use crate::chaos::ChaosSpec;
use crate::message::NodeId;
use std::io;
use std::os::fd::RawFd;
use std::time::{Duration, Instant};

/// Cap on frames parked for a node whose link is down; beyond this new
/// frames are dropped — matching engine crash semantics.
const PENDING_CAP: usize = 4096;

/// Proxy accounting, printed by the CLI at shutdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProxyStats {
    /// Round frames forwarded (including duplicate copies).
    pub forwarded: u64,
    /// Frames restamped for a later round (delay or partition).
    pub delayed: u64,
    /// Duplicate copies injected.
    pub duplicated: u64,
    /// Setup frames forwarded verbatim.
    pub setup_forwarded: u64,
    /// Marks fanned out.
    pub marks: u64,
    /// Node links reset mid-frame (socket-reset chaos).
    pub resets: u64,
}

/// Chaos proxy deployment parameters.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// Network size (number of node connections to expect).
    pub n: usize,
    /// Address plan (the proxy listens at `plan.proxy()`).
    pub plan: AddrPlan,
    /// Manipulation parameters.
    pub spec: ChaosSpec,
    /// Scenario digest; Hellos with a different `run_id` are rejected.
    pub run_id: u64,
    /// Exit with an error if no traffic arrives for this long.
    pub idle_timeout_ms: u64,
}

/// The proxy process body: accept `n` nodes, route until all say Bye.
pub struct Proxy {
    cfg: ProxyConfig,
    listener: NetListener,
    conns: Vec<Option<Conn>>,
    limbo: Vec<Conn>,
    /// Highest round any node has marked complete (answers rejoiners).
    observed_round: u64,
    /// Frames for destinations that have not connected yet (nodes start in
    /// arbitrary order; early setup traffic must not be lost).
    pending: Vec<Vec<NetMsg>>,
    departed: Vec<bool>,
    stats: ProxyStats,
}

impl Proxy {
    /// Binds the proxy endpoint.
    pub fn bind(cfg: ProxyConfig) -> io::Result<Self> {
        let listener = NetListener::bind(&cfg.plan.proxy())?;
        let n = cfg.n;
        Ok(Proxy {
            cfg,
            listener,
            conns: (0..n).map(|_| None).collect(),
            limbo: Vec::new(),
            observed_round: 0,
            pending: (0..n).map(|_| Vec::new()).collect(),
            departed: vec![false; n],
            stats: ProxyStats::default(),
        })
    }

    /// Runs the routing loop until every node departed (or went silent past
    /// the idle timeout). Returns the accounting.
    pub fn run(mut self) -> io::Result<ProxyStats> {
        let idle = Duration::from_millis(self.cfg.idle_timeout_ms);
        let mut last_traffic = Instant::now();
        loop {
            if self.departed.iter().all(|&d| d) || self.all_conns_dead() {
                break;
            }
            if last_traffic.elapsed() > idle {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "proxy idle for {}ms with {} nodes still connected",
                        self.cfg.idle_timeout_ms,
                        self.departed.iter().filter(|&&d| !d).count()
                    ),
                ));
            }
            if self.pump()? {
                last_traffic = Instant::now();
            }
        }
        for conn in self.conns.iter_mut().flatten() {
            conn.flush_blocking(Duration::from_millis(500));
        }
        Ok(self.stats)
    }

    fn all_conns_dead(&self) -> bool {
        // Only meaningful once every slot has been claimed at least once.
        self.conns
            .iter()
            .all(|c| matches!(c, Some(conn) if conn.closed))
    }

    /// One poll iteration; returns whether any traffic moved.
    fn pump(&mut self) -> io::Result<bool> {
        let mut fds: Vec<(RawFd, bool)> = Vec::new();
        enum Slot {
            Node(usize),
            Limbo,
            Listener,
        }
        let mut slots: Vec<Slot> = Vec::new();
        for (idx, conn) in self.conns.iter().enumerate() {
            if let Some(c) = conn {
                if !c.closed {
                    fds.push((c.raw_fd(), c.wants_write()));
                    slots.push(Slot::Node(idx));
                }
            }
        }
        for (k, c) in self.limbo.iter().enumerate() {
            if !c.closed {
                fds.push((c.raw_fd(), false));
                slots.push(Slot::Limbo);
                let _ = k;
            }
        }
        fds.push((self.listener.raw_fd(), false));
        slots.push(Slot::Listener);

        let ready = poll::poll(&fds, Some(50))?;
        let mut moved = false;
        let mut inbound: Vec<(NodeId, NetMsg)> = Vec::new();
        for (slot, r) in slots.iter().zip(&ready) {
            match slot {
                Slot::Node(idx) => {
                    let conn = self.conns[*idx].as_mut().expect("slot maps live conn");
                    if r.writable {
                        let _ = conn.flush();
                    }
                    if r.readable || r.hangup {
                        let from = NodeId::from_idx(*idx);
                        for m in conn.recv() {
                            inbound.push((from, m));
                        }
                    }
                }
                Slot::Limbo => {} // adoption below reads these
                Slot::Listener => {
                    if r.readable {
                        while let Some(stream) = self.listener.accept()? {
                            self.limbo.push(Conn::new(stream));
                            moved = true;
                        }
                    }
                }
            }
        }
        self.adopt_identified();
        for (from, msg) in inbound {
            moved = true;
            self.route(from, msg);
        }
        Ok(moved)
    }

    /// Claims limbo connections whose Hello arrived.
    fn adopt_identified(&mut self) {
        let mut k = 0;
        while k < self.limbo.len() {
            let msgs = self.limbo[k].recv();
            let mut hello_from: Option<u32> = None;
            let mut rest: Vec<NetMsg> = Vec::new();
            for m in msgs {
                match m {
                    NetMsg::Hello { node, run_id } => {
                        if run_id == self.cfg.run_id && node >= 1 && node as usize <= self.cfg.n {
                            hello_from = Some(node);
                        }
                    }
                    other => rest.push(other),
                }
            }
            if let Some(node) = hello_from {
                let conn = self.limbo.remove(k);
                let idx = NodeId(node).idx();
                self.conns[idx] = Some(conn);
                self.departed[idx] = false;
                // Frames that arrived for this node before it connected.
                let queued = std::mem::take(&mut self.pending[idx]);
                if let Some(c) = self.conns[idx].as_mut() {
                    for m in &queued {
                        c.send(m);
                    }
                }
                for m in rest {
                    self.route(NodeId(node), m);
                }
            } else {
                if self.limbo[k].closed {
                    self.limbo.remove(k);
                    continue;
                }
                k += 1;
            }
        }
    }

    fn send_to(&mut self, to: NodeId, msg: &NetMsg) {
        let idx = to.idx();
        match self.conns[idx].as_mut() {
            Some(conn) if !conn.closed => conn.send(msg),
            // Not connected (yet, or its link died): hold until the node's
            // Hello (re-)arrives — slot retention across a restart. Departed
            // nodes get nothing; the backlog is bounded.
            _ => {
                if !self.departed[idx] && self.pending[idx].len() < PENDING_CAP {
                    self.pending[idx].push(msg.clone());
                }
            }
        }
    }

    fn fan_out(&mut self, from: NodeId, msg: &NetMsg) {
        self.stats.marks += 1;
        for id in NodeId::all(self.cfg.n) {
            if id != from {
                self.send_to(id, msg);
            }
        }
    }

    /// Routes one frame received from `from`, applying chaos to round
    /// traffic.
    fn route(&mut self, from: NodeId, msg: NetMsg) {
        match msg {
            NetMsg::Hello { .. } => {}
            // Setup traffic: faithful, immediate.
            NetMsg::Setup { to, .. } => {
                self.stats.setup_forwarded += 1;
                self.send_to(to, &msg);
            }
            NetMsg::SetupMark { .. } => self.fan_out(from, &msg),
            NetMsg::Round {
                round,
                seq,
                from: claimed,
                to,
                payload,
                ..
            } => {
                let (deliver, copies) = self.cfg.spec.fate(round, from, to, seq);
                if deliver > round + 1 {
                    self.stats.delayed += 1;
                }
                self.stats.duplicated += u64::from(copies - 1);
                self.stats.forwarded += u64::from(copies);
                let msg = NetMsg::Round {
                    round,
                    deliver,
                    seq,
                    from: claimed,
                    to,
                    payload,
                };
                for _ in 0..copies {
                    self.send_to(to, &msg);
                }
            }
            NetMsg::RoundMark { round, .. } => {
                self.observed_round = self.observed_round.max(round);
                self.fan_out(from, &msg);
                // Socket-reset chaos: tear this node's link mid-frame right
                // after its mark — a half-written frame, then a dead socket.
                // The node must notice, redial, and re-handshake; its decoder
                // must survive the torn frame.
                if self.cfg.spec.reset_due(round, from) {
                    self.stats.resets += 1;
                    if let Some(conn) = self.conns[from.idx()].as_mut() {
                        conn.send_partial(&NetMsg::RoundMark { round, from });
                    }
                    self.conns[from.idx()] = None;
                }
            }
            NetMsg::Rejoin { node, .. } => {
                // A restarted node announces its return: clear its departure,
                // relay the announcement to every peer, and ack directly with
                // the live round the hub has observed.
                if node >= 1 && node as usize <= self.cfg.n {
                    self.departed[NodeId(node).idx()] = false;
                }
                self.fan_out(from, &msg);
                self.send_to(
                    from,
                    &NetMsg::RejoinAck {
                        node: 0,
                        round: self.observed_round,
                    },
                );
            }
            // Peer acks carry no destination; fan them out — receivers fold
            // the round into their live-round hint monotonically.
            NetMsg::RejoinAck { .. } => self.fan_out(from, &msg),
            NetMsg::Bye { node } => {
                if node >= 1 && node as usize <= self.cfg.n {
                    self.departed[NodeId(node).idx()] = true;
                }
                self.fan_out(from, &msg);
            }
            // Collector-bound traffic does not transit the proxy.
            NetMsg::Event { .. }
            | NetMsg::Report(_)
            | NetMsg::Metrics { .. }
            | NetMsg::Beacon(_)
            | NetMsg::Alarm(_)
            | NetMsg::Trace { .. } => {}
        }
    }
}

/// Convenience: bind and run in one call.
pub fn run_proxy(cfg: ProxyConfig) -> io::Result<ProxyStats> {
    Proxy::bind(cfg)?.run()
}
