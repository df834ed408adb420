//! Property tests for the daemon-mode frame codec: round-trips under
//! arbitrary chunking, and robustness against truncated, oversized, and
//! garbage input — the decoder must reject or wait, never panic, and must
//! resume correctly after any partial delivery.

use proauth_primitives::wire::{Decode, Encode};
use proauth_sim::message::NodeId;
use proauth_sim::net::{encode_frame, FrameDecoder, FrameError, NetMsg, MAX_FRAME};
use proptest::prelude::*;

/// Drains every complete frame currently buffered.
fn drain(dec: &mut FrameDecoder) -> Result<Vec<Vec<u8>>, FrameError> {
    let mut out = Vec::new();
    while let Some(f) = dec.next_frame()? {
        out.push(f);
    }
    Ok(out)
}

/// Splits `stream` into chunks at the given cut points (fractions of the
/// stream length), so chunk boundaries land anywhere relative to frame
/// boundaries.
fn chunked(stream: &[u8], cuts: &[usize]) -> Vec<Vec<u8>> {
    let mut points: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
    points.push(0);
    points.push(stream.len());
    points.sort_unstable();
    points.dedup();
    points
        .windows(2)
        .map(|w| stream[w[0]..w[1]].to_vec())
        .collect()
}

proptest! {
    /// Any sequence of payloads, fed through any chunking, comes out intact
    /// and in order.
    #[test]
    fn roundtrip_any_chunking(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..300), 0..12),
        cuts in proptest::collection::vec(any::<usize>(), 0..16),
    ) {
        let mut stream = Vec::new();
        for p in &payloads {
            encode_frame(&mut stream, p);
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for chunk in chunked(&stream, &cuts) {
            dec.push(&chunk);
            got.extend(drain(&mut dec).unwrap());
        }
        prop_assert_eq!(got, payloads);
        prop_assert_eq!(dec.pending(), 0);
    }

    /// A truncated stream is never an error: the decoder yields exactly the
    /// complete frames and waits for the rest.
    #[test]
    fn truncation_yields_prefix_and_waits(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..100), 1..8),
        cut_seed in any::<usize>(),
    ) {
        let mut stream = Vec::new();
        let mut boundaries = Vec::new();
        for p in &payloads {
            encode_frame(&mut stream, p);
            boundaries.push(stream.len());
        }
        let cut = cut_seed % stream.len(); // strictly truncated
        let complete = boundaries.iter().filter(|&&b| b <= cut).count();
        let mut dec = FrameDecoder::new();
        dec.push(&stream[..cut]);
        let got = drain(&mut dec).unwrap();
        prop_assert_eq!(got.len(), complete, "exactly the fully-delivered frames");
        prop_assert_eq!(&got[..], &payloads[..complete]);
        // Feeding the remainder completes the run with nothing lost.
        dec.push(&stream[cut..]);
        let rest = drain(&mut dec).unwrap();
        prop_assert_eq!(&rest[..], &payloads[complete..]);
        prop_assert_eq!(dec.pending(), 0);
    }

    /// An oversized length prefix is rejected as an error — after any number
    /// of valid frames, and regardless of what garbage follows it.
    #[test]
    fn oversized_always_rejected(
        prefix in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..50), 0..4),
        announced in (MAX_FRAME as u64 + 1..=u32::MAX as u64),
        tail in proptest::collection::vec(any::<u8>(), 0..50),
    ) {
        let mut stream = Vec::new();
        for p in &prefix {
            encode_frame(&mut stream, p);
        }
        stream.extend_from_slice(&(announced as u32).to_be_bytes());
        stream.extend_from_slice(&tail);
        let mut dec = FrameDecoder::new();
        dec.push(&stream);
        // The valid prefix still decodes...
        for p in &prefix {
            let frame = dec.next_frame().unwrap();
            prop_assert_eq!(frame.as_deref(), Some(&p[..]));
        }
        // ...then the poisoned header errors, and keeps erroring (the stream
        // cannot be resynchronized).
        prop_assert_eq!(
            dec.next_frame(),
            Err(FrameError::Oversized { announced: announced as usize })
        );
        prop_assert!(dec.next_frame().is_err());
    }

    /// Arbitrary garbage never panics the codec stack: framing either
    /// yields "frames" (which then face the `NetMsg` decoder) or errors.
    /// `NetMsg::decode` on those frames must reject or decode, never panic.
    #[test]
    fn garbage_never_panics(
        chunks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..600), 0..8),
    ) {
        let mut dec = FrameDecoder::new();
        'outer: for chunk in &chunks {
            dec.push(chunk);
            loop {
                match dec.next_frame() {
                    Ok(Some(frame)) => {
                        // Whatever framing produced, message decode must not
                        // panic; Ok and Err are both acceptable.
                        let _ = NetMsg::from_bytes(&frame);
                    }
                    Ok(None) => break,
                    Err(_) => break 'outer, // poisoned: connection would close
                }
            }
        }
    }

    /// Reconnect mid-frame: a connection dies while a frame is partially
    /// delivered (the daemon kill/RST case). The torn decoder never invents
    /// a frame from its dangling tail, and the fresh decoder on the new
    /// connection — to which the sender re-transmits from a frame boundary —
    /// yields exactly the re-sent frames. No state bleeds across the
    /// re-handshake.
    #[test]
    fn reconnect_mid_frame_never_leaks_across_streams(
        delivered in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..120), 0..6),
        torn in proptest::collection::vec(any::<u8>(), 1..120),
        resent in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..120), 1..6),
        cut_seed in any::<usize>(),
    ) {
        // Old connection: `delivered` frames arrive whole, then the stream
        // dies somewhere strictly inside the `torn` frame's encoding.
        let mut old_stream = Vec::new();
        for p in &delivered {
            encode_frame(&mut old_stream, p);
        }
        let boundary = old_stream.len();
        encode_frame(&mut old_stream, &torn);
        let cut = boundary + cut_seed % (old_stream.len() - boundary);
        let mut old_dec = FrameDecoder::new();
        old_dec.push(&old_stream[..cut]);
        let got = drain(&mut old_dec).unwrap();
        prop_assert_eq!(&got[..], &delivered[..], "whole frames only");
        // The dangling tail never materializes as a frame, no matter how
        // often the torn decoder is polled.
        prop_assert_eq!(old_dec.next_frame().unwrap(), None);
        prop_assert_eq!(old_dec.next_frame().unwrap(), None);

        // New connection, fresh decoder: the sender re-transmits from the
        // frame boundary (the torn frame first, then new traffic).
        let mut new_stream = Vec::new();
        encode_frame(&mut new_stream, &torn);
        for p in &resent {
            encode_frame(&mut new_stream, p);
        }
        let mut new_dec = FrameDecoder::new();
        new_dec.push(&new_stream);
        let mut want: Vec<Vec<u8>> = vec![torn.clone()];
        want.extend(resent.iter().cloned());
        prop_assert_eq!(drain(&mut new_dec).unwrap(), want);
        prop_assert_eq!(new_dec.pending(), 0);
    }

    /// The re-handshake byte (`Hello` first on every fresh stream) survives
    /// arriving glued to, or split across, the frames that follow it — the
    /// exact arrival patterns a rejoining node's burst produces.
    #[test]
    fn rejoin_burst_decodes_under_any_chunking(
        node in 1u32..200,
        run_id in any::<u64>(),
        watermark in any::<u64>(),
        rounds in proptest::collection::vec((0..u64::MAX, 1..64u64, any::<u32>()), 0..8),
        cuts in proptest::collection::vec(any::<usize>(), 0..10),
    ) {
        let mut msgs = vec![NetMsg::Hello { node, run_id }];
        msgs.push(NetMsg::Rejoin { node, run_id, watermark });
        for (round, delay, seq) in &rounds {
            msgs.push(NetMsg::Round {
                round: *round,
                deliver: round.saturating_add(*delay),
                seq: *seq,
                from: NodeId(node),
                to: NodeId(node % 7 + 1),
                payload: vec![0xAB; (*seq % 64) as usize],
            });
        }
        let mut stream = Vec::new();
        for m in &msgs {
            encode_frame(&mut stream, &m.to_bytes());
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for chunk in chunked(&stream, &cuts) {
            dec.push(&chunk);
            for frame in drain(&mut dec).unwrap() {
                got.push(NetMsg::from_bytes(&frame).unwrap());
            }
        }
        prop_assert_eq!(got, msgs);
    }

    /// Message-layer round-trip through the framing layer: a `NetMsg` framed
    /// and unframed decodes to itself (spot-checking the variants daemon
    /// traffic actually uses).
    #[test]
    fn netmsg_roundtrip_through_frames(
        node in 1u32..200,
        run_id in any::<u64>(),
        round in 0..u64::MAX,
        deliver_seed in any::<u64>(),
        seq in any::<u32>(),
        to in 1u32..200,
        payload in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        // Any delivery round after the send round is valid on the wire.
        let deliver = round + 1 + deliver_seed % (u64::MAX - round);
        let msgs = [
            NetMsg::Hello { node, run_id },
            NetMsg::Round {
                round,
                deliver,
                seq,
                from: NodeId(node),
                to: NodeId(to),
                payload: payload.clone(),
            },
            NetMsg::RoundMark { round, from: NodeId(node) },
            NetMsg::Bye { node },
        ];
        let mut stream = Vec::new();
        for m in &msgs {
            encode_frame(&mut stream, &m.to_bytes());
        }
        let mut dec = FrameDecoder::new();
        dec.push(&stream);
        for want in &msgs {
            let frame = dec.next_frame().unwrap().expect("frame present");
            prop_assert_eq!(&NetMsg::from_bytes(&frame).unwrap(), want);
        }
        // A hostile frame cannot schedule itself into the past: a delivery
        // round at or before the send round is rejected.
        let past = NetMsg::Round {
            round,
            deliver: deliver_seed % (round + 1),
            seq,
            from: NodeId(node),
            to: NodeId(to),
            payload,
        };
        prop_assert!(NetMsg::from_bytes(&past.to_bytes()).is_err());
    }
}
