//! The daemon wire vocabulary: every frame payload is one [`NetMsg`] in the
//! canonical `primitives::wire` encoding.
//!
//! Protocol traffic ([`NetMsg::Setup`], [`NetMsg::Round`]) carries the same
//! opaque payload bytes the in-process engine moves between nodes, tagged
//! with `(round, seq)` so a receiver can reproduce the engine's inbox order
//! exactly: deliveries sorted by (round, sender, seq) match the simulator's
//! "senders in `NodeId` order, each sender's outbox in send order" merge.
//! A round frame also carries the round it is delivered in — the next one,
//! unless the chaos proxy restamped it — so delivery never depends on when
//! the frame happens to arrive.
//! Marks are the soft round barrier; events and reports stream each node's
//! output log and final state to the collector.

use crate::message::{NodeId, OutputEvent};
use proauth_primitives::wire::{Decode, Encode, Reader, WireError, Writer};
use proauth_telemetry::MetricsDelta;

/// One frame's payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetMsg {
    /// First frame on every connection: who is dialing, and a digest of the
    /// scenario configuration so mismatched invocations fail fast instead of
    /// hanging on divergent schedules.
    Hello {
        /// The dialing node (0 = the chaos proxy, collector-bound dials use
        /// their node id).
        node: u32,
        /// Scenario digest; peers reject a Hello whose `run_id` differs.
        run_id: u64,
    },
    /// A setup-phase protocol message (faithful delivery by model).
    Setup {
        /// Setup round it was sent in.
        setup_round: u64,
        /// Index in the sender's expanded outbox this round (inbox ordering).
        seq: u32,
        /// Claimed sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
        /// Opaque protocol payload.
        payload: Vec<u8>,
    },
    /// Setup barrier: the sender has transmitted all its `setup_round`
    /// messages (TCP/Unix streams are FIFO, so the mark arriving implies the
    /// messages arrived).
    SetupMark {
        /// Completed setup round.
        setup_round: u64,
        /// Sender.
        from: NodeId,
    },
    /// A post-setup protocol message.
    Round {
        /// Round it was sent in.
        round: u64,
        /// Round it is delivered in: `round + 1` as sent, later if the chaos
        /// proxy delays it. Always above `round` — the decoder rejects a
        /// frame that would schedule itself into the past.
        deliver: u64,
        /// Index in the sender's expanded outbox this round.
        seq: u32,
        /// Claimed sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
        /// Opaque protocol payload.
        payload: Vec<u8>,
    },
    /// Soft round barrier: the sender has transmitted all its round-`round`
    /// messages. Receivers advance when every live peer's mark has arrived
    /// or the wall-clock deadline expires, whichever is first.
    RoundMark {
        /// Completed round.
        round: u64,
        /// Sender.
        from: NodeId,
    },
    /// One output-log event, streamed node → collector as it is emitted.
    Event {
        /// Emitting node.
        node: NodeId,
        /// Round the event was logged at.
        round: u64,
        /// The event.
        event: OutputEvent,
    },
    /// A node's end-of-run report to the collector.
    Report(NodeReport),
    /// Clean-shutdown marker; the sender closes after this.
    Bye {
        /// Departing node.
        node: u32,
    },
    /// A node's registry increments since its previous `Metrics` frame,
    /// streamed node → collector once per round. Applying a node's deltas in
    /// order reconstructs its registry exactly (see `telemetry::delta`).
    Metrics {
        /// Reporting node.
        node: u32,
        /// Round the delta covers (the node's just-completed round).
        round: u64,
        /// The increments.
        delta: MetricsDelta,
    },
    /// A node's per-round health beacon (liveness + pacing view).
    Beacon(HealthBeacon),
    /// A security- or liveness-relevant event promoted out of the metrics
    /// stream, with severity. Node-originated (forgery rejects, break-in
    /// observations) or collector-originated (Def-7 budget accounting).
    Alarm(Alarm),
    /// One round's flight-recorder trace events (JSONL bytes) from a node,
    /// merged by the collector in `NodeId` order into the cluster trace.
    Trace {
        /// Emitting node.
        node: u32,
        /// Round the events belong to.
        round: u64,
        /// Concatenated JSONL event lines, exactly as a local sink would
        /// have received them.
        events: Vec<u8>,
    },
    /// Re-handshake from a restarted node: sent right after `Hello` on every
    /// connection of its new incarnation. Carries the durable round
    /// watermark so peers can replay the barrier marks the rejoiner missed
    /// while it was down and resynchronize it at the next round barrier.
    Rejoin {
        /// The rejoining node.
        node: u32,
        /// Scenario digest — a rejoin into a different run is rejected just
        /// like a mismatched `Hello`.
        run_id: u64,
        /// Rounds the node durably completed before the crash (it resumes
        /// executing at round `watermark`).
        watermark: u64,
    },
    /// Reply to a `Rejoin`: the responder's current round, giving the
    /// rejoiner a live-cluster position so it can pace its catch-up instead
    /// of waiting out full round deadlines for rounds the cluster already
    /// left behind.
    RejoinAck {
        /// Responding node (0 = the chaos proxy / collector).
        node: u32,
        /// The responder's current round.
        round: u64,
    },
}

/// Alarm severity, ordered worst-last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Noteworthy but expected under the configured adversary.
    Info = 0,
    /// Degradation that consumes Definition-7 budget.
    Warning = 1,
    /// A guarantee is (or is about to be) void: budget exceeded, forgery
    /// accepted, refresh liveness lost.
    Critical = 2,
}

impl Severity {
    /// Stable lowercase label (exposition + scoreboard).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

impl Encode for Severity {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self as u8);
    }
}

impl Decode for Severity {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(Severity::Info),
            1 => Ok(Severity::Warning),
            2 => Ok(Severity::Critical),
            t => Err(WireError::InvalidTag(t)),
        }
    }
}

/// One entry in the typed alarm stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alarm {
    /// Originating node (0 = the collector itself, e.g. budget accounting).
    pub node: u32,
    /// Round the condition was observed at.
    pub round: u64,
    /// How bad it is.
    pub severity: Severity,
    /// Stable machine-readable kind, e.g. `forgery_reject`, `break_in`,
    /// `impaired`, `recovered`, `mark_timeout`, `budget_exceeded`.
    pub kind: String,
    /// Free-form human-readable detail.
    pub detail: String,
}

impl Encode for Alarm {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.node);
        w.put_u64(self.round);
        self.severity.encode(w);
        self.kind.encode(w);
        self.detail.encode(w);
    }
}

impl Decode for Alarm {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Alarm {
            node: r.get_u32()?,
            round: r.get_u64()?,
            severity: Severity::decode(r)?,
            kind: String::decode(r)?,
            detail: String::decode(r)?,
        })
    }
}

/// A node's per-round liveness report: where it is in the schedule, how far
/// behind wall-clock pacing it is, and the transport pressure it sees.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthBeacon {
    /// Reporting node.
    pub node: u32,
    /// The round the node just completed.
    pub round: u64,
    /// The pacing interval the node is currently using (adaptive or fixed).
    pub round_ms: u64,
    /// Wall-clock lag behind the nominal `round_ms` schedule, in ms
    /// (0 when running at or ahead of schedule).
    pub lag_ms: u64,
    /// Messages buffered for future rounds at beacon time.
    pub inbox_depth: u64,
    /// Cumulative frames delivered later than the round after they were
    /// sent (see [`NodeReport::late_frames`]).
    pub late_frames: u64,
    /// Cumulative late frames the adversary delayed (see
    /// [`NodeReport::delayed_frames`]).
    pub delayed_frames: u64,
    /// Cumulative rounds advanced on deadline expiry.
    pub mark_timeouts: u64,
    /// Peer connections currently open.
    pub peers_live: u32,
    /// Protocol envelopes sent in the completed round.
    pub sent_round: u64,
    /// Alerts raised in the completed round.
    pub alerts_round: u64,
}

impl Encode for HealthBeacon {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.node);
        w.put_u64(self.round);
        w.put_u64(self.round_ms);
        w.put_u64(self.lag_ms);
        w.put_u64(self.inbox_depth);
        w.put_u64(self.late_frames);
        w.put_u64(self.delayed_frames);
        w.put_u64(self.mark_timeouts);
        w.put_u32(self.peers_live);
        w.put_u64(self.sent_round);
        w.put_u64(self.alerts_round);
    }
}

impl Decode for HealthBeacon {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(HealthBeacon {
            node: r.get_u32()?,
            round: r.get_u64()?,
            round_ms: r.get_u64()?,
            lag_ms: r.get_u64()?,
            inbox_depth: r.get_u64()?,
            late_frames: r.get_u64()?,
            delayed_frames: r.get_u64()?,
            mark_timeouts: r.get_u64()?,
            peers_live: r.get_u32()?,
            sent_round: r.get_u64()?,
            alerts_round: r.get_u64()?,
        })
    }
}

/// A node's final accounting, shipped to the collector in one frame.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeReport {
    /// Reporting node.
    pub node: u32,
    /// Rounds executed.
    pub rounds: u64,
    /// Protocol envelopes sent.
    pub sent: u64,
    /// Protocol envelopes received.
    pub received: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Alerts emitted.
    pub alerts: u64,
    /// Frames delivered later than the round after they were sent: the
    /// adversary delayed or held them, or (after a mark timeout) they
    /// missed their stamped round.
    pub late_frames: u64,
    /// The late frames delivered in the round stamped on them: the
    /// adversary scheduled them past the round after they were sent.
    pub delayed_frames: u64,
    /// Rounds advanced on deadline expiry instead of a complete mark set.
    pub mark_timeouts: u64,
    /// Frames observed more than once (same `(round, from, seq)` key).
    pub dup_frames: u64,
    /// Frames whose `seq` regressed within a `(round, from)` stream —
    /// evidence of reordering between sender and receiver.
    pub reorder_frames: u64,
    /// The node's ROM as frozen at the end of setup (key-ordered).
    pub rom_keys: Vec<String>,
    /// ROM values, parallel to `rom_keys`.
    pub rom_values: Vec<Vec<u8>>,
}

impl Encode for NodeReport {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.node);
        w.put_u64(self.rounds);
        w.put_u64(self.sent);
        w.put_u64(self.received);
        w.put_u64(self.bytes_sent);
        w.put_u64(self.alerts);
        w.put_u64(self.late_frames);
        w.put_u64(self.delayed_frames);
        w.put_u64(self.mark_timeouts);
        w.put_u64(self.dup_frames);
        w.put_u64(self.reorder_frames);
        self.rom_keys.encode(w);
        self.rom_values.encode(w);
    }
}

impl Decode for NodeReport {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let report = NodeReport {
            node: r.get_u32()?,
            rounds: r.get_u64()?,
            sent: r.get_u64()?,
            received: r.get_u64()?,
            bytes_sent: r.get_u64()?,
            alerts: r.get_u64()?,
            late_frames: r.get_u64()?,
            delayed_frames: r.get_u64()?,
            mark_timeouts: r.get_u64()?,
            dup_frames: r.get_u64()?,
            reorder_frames: r.get_u64()?,
            rom_keys: Vec::<String>::decode(r)?,
            rom_values: Vec::<Vec<u8>>::decode(r)?,
        };
        if report.rom_keys.len() != report.rom_values.len() {
            return Err(WireError::BadLength);
        }
        Ok(report)
    }
}

impl Encode for NetMsg {
    fn encode(&self, w: &mut Writer) {
        match self {
            NetMsg::Hello { node, run_id } => {
                w.put_u8(1);
                w.put_u32(*node);
                w.put_u64(*run_id);
            }
            NetMsg::Setup {
                setup_round,
                seq,
                from,
                to,
                payload,
            } => {
                w.put_u8(2);
                w.put_u64(*setup_round);
                w.put_u32(*seq);
                from.encode(w);
                to.encode(w);
                w.put_bytes(payload);
            }
            NetMsg::SetupMark { setup_round, from } => {
                w.put_u8(3);
                w.put_u64(*setup_round);
                from.encode(w);
            }
            NetMsg::Round {
                round,
                deliver,
                seq,
                from,
                to,
                payload,
            } => {
                w.put_u8(4);
                w.put_u64(*round);
                w.put_u64(*deliver);
                w.put_u32(*seq);
                from.encode(w);
                to.encode(w);
                w.put_bytes(payload);
            }
            NetMsg::RoundMark { round, from } => {
                w.put_u8(5);
                w.put_u64(*round);
                from.encode(w);
            }
            NetMsg::Event { node, round, event } => {
                w.put_u8(6);
                node.encode(w);
                w.put_u64(*round);
                event.encode(w);
            }
            NetMsg::Report(report) => {
                w.put_u8(7);
                report.encode(w);
            }
            NetMsg::Bye { node } => {
                w.put_u8(8);
                w.put_u32(*node);
            }
            NetMsg::Metrics { node, round, delta } => {
                w.put_u8(9);
                w.put_u32(*node);
                w.put_u64(*round);
                delta.encode(w);
            }
            NetMsg::Beacon(beacon) => {
                w.put_u8(10);
                beacon.encode(w);
            }
            NetMsg::Alarm(alarm) => {
                w.put_u8(11);
                alarm.encode(w);
            }
            NetMsg::Trace { node, round, events } => {
                w.put_u8(12);
                w.put_u32(*node);
                w.put_u64(*round);
                w.put_bytes(events);
            }
            NetMsg::Rejoin {
                node,
                run_id,
                watermark,
            } => {
                w.put_u8(13);
                w.put_u32(*node);
                w.put_u64(*run_id);
                w.put_u64(*watermark);
            }
            NetMsg::RejoinAck { node, round } => {
                w.put_u8(14);
                w.put_u32(*node);
                w.put_u64(*round);
            }
        }
    }
}

impl Decode for NetMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.get_u8()? {
            1 => NetMsg::Hello {
                node: r.get_u32()?,
                run_id: r.get_u64()?,
            },
            2 => NetMsg::Setup {
                setup_round: r.get_u64()?,
                seq: r.get_u32()?,
                from: NodeId::decode(r)?,
                to: NodeId::decode(r)?,
                payload: r.get_bytes()?,
            },
            3 => NetMsg::SetupMark {
                setup_round: r.get_u64()?,
                from: NodeId::decode(r)?,
            },
            4 => {
                let (round, deliver) = (r.get_u64()?, r.get_u64()?);
                if deliver <= round {
                    return Err(WireError::OutOfRange);
                }
                NetMsg::Round {
                    round,
                    deliver,
                    seq: r.get_u32()?,
                    from: NodeId::decode(r)?,
                    to: NodeId::decode(r)?,
                    payload: r.get_bytes()?,
                }
            }
            5 => NetMsg::RoundMark {
                round: r.get_u64()?,
                from: NodeId::decode(r)?,
            },
            6 => NetMsg::Event {
                node: NodeId::decode(r)?,
                round: r.get_u64()?,
                event: OutputEvent::decode(r)?,
            },
            7 => NetMsg::Report(NodeReport::decode(r)?),
            8 => NetMsg::Bye { node: r.get_u32()? },
            9 => NetMsg::Metrics {
                node: r.get_u32()?,
                round: r.get_u64()?,
                delta: MetricsDelta::decode(r)?,
            },
            10 => NetMsg::Beacon(HealthBeacon::decode(r)?),
            11 => NetMsg::Alarm(Alarm::decode(r)?),
            12 => NetMsg::Trace {
                node: r.get_u32()?,
                round: r.get_u64()?,
                events: r.get_bytes()?,
            },
            13 => NetMsg::Rejoin {
                node: r.get_u32()?,
                run_id: r.get_u64()?,
                watermark: r.get_u64()?,
            },
            14 => NetMsg::RejoinAck {
                node: r.get_u32()?,
                round: r.get_u64()?,
            },
            t => return Err(WireError::InvalidTag(t)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netmsg_roundtrip() {
        let msgs = vec![
            NetMsg::Hello { node: 3, run_id: 99 },
            NetMsg::Setup {
                setup_round: 2,
                seq: 7,
                from: NodeId(1),
                to: NodeId(4),
                payload: vec![1, 2, 3],
            },
            NetMsg::SetupMark {
                setup_round: 2,
                from: NodeId(1),
            },
            NetMsg::Round {
                round: 40,
                deliver: 43,
                seq: 0,
                from: NodeId(5),
                to: NodeId(2),
                payload: vec![],
            },
            NetMsg::RoundMark {
                round: 40,
                from: NodeId(5),
            },
            NetMsg::Event {
                node: NodeId(2),
                round: 41,
                event: OutputEvent::Accepted {
                    from: NodeId(5),
                    msg: b"hb:5:40".to_vec(),
                },
            },
            NetMsg::Report(NodeReport {
                node: 2,
                rounds: 72,
                sent: 1000,
                received: 990,
                bytes_sent: 123456,
                alerts: 0,
                late_frames: 3,
                delayed_frames: 2,
                mark_timeouts: 1,
                dup_frames: 2,
                reorder_frames: 4,
                rom_keys: vec!["v_cert".into()],
                rom_values: vec![vec![9; 32]],
            }),
            NetMsg::Bye { node: 2 },
            NetMsg::Metrics {
                node: 3,
                round: 12,
                delta: {
                    let mut d = MetricsDelta::default();
                    d.counters.insert("uls/accepted".into(), 4);
                    d.maxes.insert("engine/peak".into(), 17);
                    d
                },
            },
            NetMsg::Beacon(HealthBeacon {
                node: 3,
                round: 12,
                round_ms: 180,
                lag_ms: 4,
                inbox_depth: 6,
                late_frames: 1,
                delayed_frames: 1,
                mark_timeouts: 0,
                peers_live: 4,
                sent_round: 8,
                alerts_round: 0,
            }),
            NetMsg::Alarm(Alarm {
                node: 3,
                round: 12,
                severity: Severity::Critical,
                kind: "budget_exceeded".into(),
                detail: "impaired 7 > t 6 in unit 1".into(),
            }),
            NetMsg::Trace {
                node: 3,
                round: 12,
                events: b"{\"ev\":\"tick\",\"node\":3,\"round\":12}\n".to_vec(),
            },
            NetMsg::Rejoin {
                node: 7,
                run_id: 99,
                watermark: 23,
            },
            NetMsg::RejoinAck { node: 4, round: 26 },
        ];
        for m in msgs {
            let bytes = m.to_bytes();
            assert_eq!(NetMsg::from_bytes(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn garbage_rejected() {
        assert!(NetMsg::from_bytes(&[]).is_err());
        assert!(NetMsg::from_bytes(&[0]).is_err());
        assert!(NetMsg::from_bytes(&[99, 1, 2]).is_err());
        // Valid prefix + trailing garbage is rejected (strict decode).
        let mut bytes = NetMsg::Bye { node: 1 }.to_bytes();
        bytes.push(0);
        assert!(NetMsg::from_bytes(&bytes).is_err());
        // NodeId 0 is never valid on the wire.
        let bad = NetMsg::SetupMark {
            setup_round: 0,
            from: NodeId(1),
        }
        .to_bytes()
        .iter()
        .enumerate()
        .map(|(i, b)| if i >= 9 { 0 } else { *b }) // zero the from field
        .collect::<Vec<u8>>();
        assert!(NetMsg::from_bytes(&bad).is_err());
        // A round frame may not be delivered in or before its send round.
        for deliver in [0, 39, 40] {
            let past = NetMsg::Round {
                round: 40,
                deliver,
                seq: 0,
                from: NodeId(1),
                to: NodeId(2),
                payload: vec![7],
            };
            assert_eq!(NetMsg::from_bytes(&past.to_bytes()), Err(WireError::OutOfRange));
        }
    }
}
