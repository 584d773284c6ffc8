//! Property tests for the wire codec: round-trips and total decoding.
//!
//! The codec's contract is that `decode(encode(m)) == m` for every message
//! and that *no* byte sequence — truncated, bit-flipped, or pure garbage —
//! can make the decoder panic or allocate unboundedly. The unit tests in
//! `codec.rs` pin the byte layout; these properties sweep the input space.

use bytes::Bytes;
use osn_net::codec::{decode, encode, read_frame};
use osn_overlay::RingId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use select_core::wire::{TraceContext, WireMsg};
use std::sync::Arc;

/// Trace context present on odd seeds, absent on even ones — so every
/// property sweeps frames with and without the optional v2 field.
fn arb_trace(seed: u64) -> Option<TraceContext> {
    (seed % 2 == 1).then(|| TraceContext {
        trace_id: seed.rotate_left(17),
        parent_span: if seed % 4 == 1 {
            0 // the driver-root sentinel must round-trip too
        } else {
            seed.rotate_right(9)
        },
        hop: (seed % 7) as u8,
    })
}

/// Deterministically builds an arbitrary message of the given shape from a
/// seed: every variant, with field sizes swept from empty to paper-scale.
fn arb_msg(tag: u8, seed: u64) -> WireMsg {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ids = |n: usize| -> Vec<u32> { (0..n).map(|_| rng.gen::<u32>()).collect() };
    match tag {
        1 => WireMsg::Join { peer: seed as u32 },
        2 => {
            let nn = (seed % 40) as usize;
            let nl = (seed % 17) as usize;
            WireMsg::ExchangeRt {
                from: seed as u32,
                position: RingId(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                neighbourhood: ids(nn),
                links: ids(nl),
            }
        }
        3 => WireMsg::ExchangeReply {
            from: seed as u32,
            position: RingId(!seed),
            n_mutual: (seed >> 32) as u32,
            links: ids((seed % 23) as usize),
        },
        4 => WireMsg::Probe {
            from: seed as u32,
            nonce: seed,
            trace: arb_trace(seed),
        },
        5 => WireMsg::ProbeReply {
            from: seed as u32,
            nonce: seed,
            online: seed.is_multiple_of(2),
        },
        6 => {
            let n_relays = (seed % 12) as usize;
            let mut children = Vec::with_capacity(n_relays);
            for i in 0..n_relays {
                let kids = ids((seed as usize + i) % 6);
                children.push((i as u32 * 3, kids)); // ascending peers
            }
            let payload_len = (seed % 5000) as usize;
            WireMsg::Publish {
                pub_id: seed,
                attempt: (seed % 5) as u32,
                publisher: (seed % 100) as u32,
                children: Arc::new(children),
                payload: Bytes::from(vec![(seed % 251) as u8; payload_len]),
                trace: arb_trace(seed),
            }
        }
        7 => WireMsg::Ack {
            pub_id: seed,
            peer: seed as u32,
            bytes: seed >> 3,
            trace: arb_trace(seed),
        },
        8 => WireMsg::Shutdown,
        other => panic!("no generator for wire tag {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every message survives an encode/decode round-trip bit-identically,
    /// and the decoder consumes exactly the frame it was given.
    #[test]
    fn round_trip_is_identity(tag in 1u8..=8, seed in any::<u64>()) {
        let msg = arb_msg(tag, seed);
        let frame = encode(&msg).map_err(|e| TestCaseError(format!("{e}")))?;
        let (back, used) = decode(&frame).map_err(|e| TestCaseError(format!("{e}")))?;
        prop_assert_eq!(used, frame.len());
        prop_assert_eq!(back, msg);
    }

    /// Every strict prefix of a valid frame is rejected as an error — the
    /// decoder neither panics nor invents a message from partial bytes.
    #[test]
    fn any_truncation_errors(tag in 1u8..=8, seed in any::<u64>(), frac in 0.0f64..1.0) {
        let frame = encode(&arb_msg(tag, seed)).map_err(|e| TestCaseError(format!("{e}")))?;
        let cut = ((frame.len() as f64) * frac) as usize; // < len since frac < 1
        prop_assert!(decode(&frame[..cut]).is_err());
    }

    /// Arbitrary garbage never panics the buffer decoder or the stream
    /// reader; it either errors or (vanishingly unlikely) decodes.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode(&bytes);
        let mut r = &bytes[..];
        let _ = read_frame(&mut r);
    }

    /// Version negotiation: any trace-free frame rewritten as wire v1 —
    /// version byte 1, no trailing trace presence byte — decodes to the
    /// same message under the v2 codec. Old peers' frames stay readable.
    #[test]
    fn v1_downgrade_decodes_identically(tag in 1u8..=8, seed in any::<u64>()) {
        let msg = arb_msg(tag, seed & !1); // even seed → no trace context
        let mut frame = encode(&msg).map_err(|e| TestCaseError(format!("{e}")))?;
        frame[6] = 1; // claim wire version 1
        if matches!(tag, 4 | 6 | 7) {
            // v1 bodies predate the trailing trace presence byte.
            prop_assert_eq!(frame.pop(), Some(0));
            let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) - 1;
            frame[..4].copy_from_slice(&len.to_le_bytes());
        }
        let (back, used) = decode(&frame).map_err(|e| TestCaseError(format!("{e}")))?;
        prop_assert_eq!(used, frame.len());
        prop_assert_eq!(back, msg);
    }

    /// A single flipped byte in a valid frame never panics; if the frame
    /// still decodes (a payload-byte flip), the result re-encodes cleanly.
    #[test]
    fn bit_flips_never_panic(tag in 1u8..=8, seed in any::<u64>(), at in any::<u64>(), bit in 0u8..8) {
        let mut frame = encode(&arb_msg(tag, seed)).map_err(|e| TestCaseError(format!("{e}")))?;
        let idx = (at % frame.len() as u64) as usize;
        frame[idx] ^= 1 << bit;
        if let Ok((msg, _)) = decode(&frame) {
            prop_assert!(encode(&msg).is_ok());
        }
    }
}
