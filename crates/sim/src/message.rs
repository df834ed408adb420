//! Messages, node identifiers, and per-round outputs.

use proauth_primitives::wire::{Decode, Encode, Reader, WireError, Writer};
use std::fmt;
use std::sync::Arc;

/// An immutable, cheaply clonable message payload.
///
/// Payloads are written once (by the sending node or the adversary) and then
/// fan out through the delivery map, DISPERSE relays, pending inboxes, and
/// transcripts. Backing them with `Arc<[u8]>` makes every one of those copies
/// a reference-count bump instead of a heap copy, which is what lets the
/// round engine clone envelopes freely on the hot path.
pub type Payload = Arc<[u8]>;

/// A node identifier, 1-based (matching the Shamir evaluation points used by
/// the crypto layer). `NodeId(0)` is never a valid node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The 0-based vector index for this node.
    pub fn idx(self) -> usize {
        (self.0 - 1) as usize
    }

    /// Builds a `NodeId` from a 0-based index.
    pub fn from_idx(idx: usize) -> Self {
        NodeId(idx as u32 + 1)
    }

    /// Iterates all node ids for an `n`-node network.
    pub fn all(n: usize) -> impl Iterator<Item = NodeId> {
        (1..=n as u32).map(NodeId)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// A message in flight: `from` is the *claimed* sender (in the UL model the
/// adversary may claim anything), `to` the destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Claimed sender.
    pub from: NodeId,
    /// Destination.
    pub to: NodeId,
    /// Opaque payload (upper layers encode/decode with `proauth-primitives::wire`).
    /// Shared, immutable bytes: cloning an envelope never copies the payload.
    pub payload: Payload,
}

impl Envelope {
    /// Convenience constructor. Accepts anything convertible into a shared
    /// payload (`Vec<u8>`, `&[u8]`, or an existing [`Payload`] — the latter
    /// without copying).
    pub fn new(from: NodeId, to: NodeId, payload: impl Into<Payload>) -> Self {
        Envelope {
            from,
            to,
            payload: payload.into(),
        }
    }
}

/// A sender's queued transmission: one shared payload bound for one or more
/// destinations.
///
/// Nodes emit entries; the round engine expands them into per-destination
/// [`Envelope`]s only at the adversary boundary (the `deliver` callback must
/// see individual envelopes — the UL adversary drops and injects per link).
/// Until then a broadcast or DISPERSE fan-out is a single payload allocation
/// plus a destination list, instead of `n − 1` envelope clones queued,
/// merged, and counted one by one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutboxEntry {
    /// Claimed sender.
    pub from: NodeId,
    /// Destinations, in delivery order.
    pub to: Vec<NodeId>,
    /// Shared payload bytes.
    pub payload: Payload,
}

impl OutboxEntry {
    /// An entry with a single destination.
    pub fn single(from: NodeId, to: NodeId, payload: impl Into<Payload>) -> Self {
        OutboxEntry {
            from,
            to: vec![to],
            payload: payload.into(),
        }
    }

    /// Number of physical envelopes this entry expands into.
    pub fn fanout(&self) -> usize {
        self.to.len()
    }

    /// Expands into per-destination envelopes (payload shared, not copied).
    pub fn envelopes(&self) -> impl Iterator<Item = Envelope> + '_ {
        self.to
            .iter()
            .map(move |&to| Envelope::new(self.from, to, self.payload.clone()))
    }
}

/// A single local-output event, in the sense of the paper's "global output":
/// the externally visible functionality of the protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutputEvent {
    /// "Node N_i is compromised" — broken into (AL) or broken/disconnected (UL).
    Compromised,
    /// "Node N_i is recovered".
    Recovered,
    /// The node detected impersonation or a failed refresh (§2.3 awareness).
    Alert,
    /// "N_i is asked to sign m at time unit u".
    SignRequested {
        /// Message to sign.
        msg: Vec<u8>,
        /// Time unit of the request.
        unit: u64,
    },
    /// "(m, u) is signed".
    Signed {
        /// The signed message.
        msg: Vec<u8>,
        /// Time unit in which it was signed.
        unit: u64,
    },
    /// The (unbreakable) verifier accepted `msg` as signed.
    Verified {
        /// The verified message.
        msg: Vec<u8>,
    },
    /// An application-layer (π) message was accepted as authentic.
    Accepted {
        /// Claimed sender it was accepted from.
        from: NodeId,
        /// The payload.
        msg: Vec<u8>,
    },
    /// An application-layer (π) message was sent by the top layer.
    Sent {
        /// Destination.
        to: NodeId,
        /// The payload.
        msg: Vec<u8>,
    },
    /// Free-form protocol output.
    Custom(String),
}

impl OutputEvent {
    /// Whether the engine's ground truth writes this line rather than the
    /// node's program: `Compromised`/`Recovered` track Definitions 5–7,
    /// which a daemon node cannot observe, so a daemon log never has them.
    pub fn is_ground_truth(&self) -> bool {
        matches!(self, OutputEvent::Compromised | OutputEvent::Recovered)
    }
}

/// One node's timestamped output log.
pub type OutputLog = Vec<(u64, OutputEvent)>;

impl Encode for NodeId {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.0);
    }
}

impl Decode for NodeId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u32()? {
            0 => Err(WireError::InvalidTag(0)),
            id => Ok(NodeId(id)),
        }
    }
}

// Canonical encoding of output events, so the daemon backend can stream a
// node's output log over the wire and the collector can reassemble the exact
// `OutputLog` the in-process engine would have produced.
impl Encode for OutputEvent {
    fn encode(&self, w: &mut Writer) {
        match self {
            OutputEvent::Compromised => w.put_u8(0),
            OutputEvent::Recovered => w.put_u8(1),
            OutputEvent::Alert => w.put_u8(2),
            OutputEvent::SignRequested { msg, unit } => {
                w.put_u8(3);
                w.put_bytes(msg);
                w.put_u64(*unit);
            }
            OutputEvent::Signed { msg, unit } => {
                w.put_u8(4);
                w.put_bytes(msg);
                w.put_u64(*unit);
            }
            OutputEvent::Verified { msg } => {
                w.put_u8(5);
                w.put_bytes(msg);
            }
            OutputEvent::Accepted { from, msg } => {
                w.put_u8(6);
                from.encode(w);
                w.put_bytes(msg);
            }
            OutputEvent::Sent { to, msg } => {
                w.put_u8(7);
                to.encode(w);
                w.put_bytes(msg);
            }
            OutputEvent::Custom(s) => {
                w.put_u8(8);
                s.encode(w);
            }
        }
    }
}

impl Decode for OutputEvent {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.get_u8()? {
            0 => OutputEvent::Compromised,
            1 => OutputEvent::Recovered,
            2 => OutputEvent::Alert,
            3 => OutputEvent::SignRequested {
                msg: r.get_bytes()?,
                unit: r.get_u64()?,
            },
            4 => OutputEvent::Signed {
                msg: r.get_bytes()?,
                unit: r.get_u64()?,
            },
            5 => OutputEvent::Verified {
                msg: r.get_bytes()?,
            },
            6 => OutputEvent::Accepted {
                from: NodeId::decode(r)?,
                msg: r.get_bytes()?,
            },
            7 => OutputEvent::Sent {
                to: NodeId::decode(r)?,
                msg: r.get_bytes()?,
            },
            8 => OutputEvent::Custom(String::decode(r)?),
            t => return Err(WireError::InvalidTag(t)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_indexing() {
        assert_eq!(NodeId(1).idx(), 0);
        assert_eq!(NodeId::from_idx(4), NodeId(5));
        let all: Vec<NodeId> = NodeId::all(3).collect();
        assert_eq!(all, vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(format!("{}", NodeId(7)), "N7");
    }

    #[test]
    fn envelope_construction() {
        let e = Envelope::new(NodeId(1), NodeId(2), vec![1, 2, 3]);
        assert_eq!(e.from, NodeId(1));
        assert_eq!(e.to, NodeId(2));
        assert_eq!(&e.payload[..], &[1, 2, 3]);
        // Cloning shares the payload allocation.
        let c = e.clone();
        assert!(std::sync::Arc::ptr_eq(&e.payload, &c.payload));
    }

    #[test]
    fn outbox_entry_expands_in_destination_order() {
        let entry = OutboxEntry {
            from: NodeId(1),
            to: vec![NodeId(3), NodeId(2), NodeId(4)],
            payload: vec![9u8].into(),
        };
        assert_eq!(entry.fanout(), 3);
        let envs: Vec<Envelope> = entry.envelopes().collect();
        assert_eq!(
            envs.iter().map(|e| e.to).collect::<Vec<_>>(),
            vec![NodeId(3), NodeId(2), NodeId(4)]
        );
        // Every expanded envelope shares the entry's payload allocation.
        for env in &envs {
            assert!(std::sync::Arc::ptr_eq(&env.payload, &entry.payload));
            assert_eq!(env.from, NodeId(1));
        }
        let single = OutboxEntry::single(NodeId(2), NodeId(1), vec![7u8]);
        assert_eq!(single.fanout(), 1);
    }
}
