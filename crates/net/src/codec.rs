//! Binary codec for [`WireMsg`]: the byte format the transports speak.
//!
//! The format is hand-rolled, dependency-free, little-endian, and pinned by
//! bytes — not by any serializer's internals — so two builds of this
//! repository (or a future reimplementation in another language) agree on
//! every frame. Layout (DESIGN.md §12 has the per-message field tables):
//!
//! ```text
//! frame   := [len: u32] body               len = |body|, ≤ MAX_FRAME
//! body    := [magic: u16 = 0x5EC7] [version: u8 = 2] [tag: u8] fields
//! u32/u64 := little-endian
//! vec<u32>:= [count: u32] count × u32
//! bytes   := [count: u32] count raw bytes
//! childmap:= [count: u32] count × ([peer: u32] vec<u32>)
//! bool    := u8, strictly 0 or 1
//! trace   := [present: u8 (0|1)] present=1 ⇒ [trace_id: u64]
//!            [parent_span: u64] [hop: u8]          (v2+, trailing field)
//! ```
//!
//! Decoding is **total**: any byte sequence produces either a message or a
//! [`WireError`], never a panic, and no allocation is sized from an
//! unvalidated count (a claimed length is checked against the bytes that
//! actually remain before anything is reserved). Frames above [`MAX_FRAME`]
//! are rejected before their body is read, so a corrupt length prefix
//! cannot OOM the receiver. Trailing bytes after a well-formed message are
//! an error — a frame means exactly one message.
//!
//! Versioning: `magic` rejects non-SELECT traffic outright; `version` is
//! bumped whenever any message's field layout changes, and decoders reject
//! versions they do not know. Version 2 appended the optional `trace` field
//! to the publish/ack/probe bodies; decoders still accept version-1 frames
//! — the v1 byte layout is an exact prefix of v2's, so they decode
//! losslessly with `trace: None`. Tags are append-only (see
//! [`select_core::wire::WireMsg::tag`]).

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![deny(clippy::wildcard_enum_match_arm)]

use bytes::Bytes;
use select_core::wire::{ChildMap, TraceContext, WireMsg};
use std::io::{Read, Write};
use std::sync::Arc;

/// Frame magic: rejects non-SELECT traffic on a shared port.
pub const MAGIC: u16 = 0x5EC7;

/// Current wire-format version. Bump on any field-layout change.
///
/// v1 → v2: publish/ack/probe bodies gained a trailing optional
/// [`TraceContext`]. Decoders accept both; see [`MIN_WIRE_VERSION`].
pub const WIRE_VERSION: u8 = 2;

/// Oldest wire-format version this codec still decodes. v1 frames carry no
/// trace field and decode with `trace: None`; encoding always emits
/// [`WIRE_VERSION`].
pub const MIN_WIRE_VERSION: u8 = 1;

/// Upper bound on one frame's body, in bytes. Comfortably above the paper's
/// 1.2 MB payload plus any realistic forwarding plan, and small enough that
/// a corrupt length prefix cannot make a receiver allocate unbounded
/// memory.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Why a frame failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than a field (or the frame header) requires.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized {
        /// The claimed body length.
        len: u32,
    },
    /// The first two body bytes are not [`MAGIC`].
    BadMagic {
        /// What was read instead.
        got: u16,
    },
    /// Unknown format version.
    BadVersion {
        /// What was read instead.
        got: u8,
    },
    /// Unknown message tag.
    BadTag {
        /// What was read instead.
        got: u8,
    },
    /// A field's value is invalid (non-boolean byte, count that cannot fit
    /// the remaining bytes, unsorted child map, …).
    Malformed(&'static str),
    /// Well-formed message followed by extra bytes in the same frame.
    Trailing {
        /// How many bytes were left over.
        extra: usize,
    },
    /// The underlying reader failed (socket closed mid-frame, …).
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::Oversized { len } => {
                write!(
                    f,
                    "frame body of {len} bytes exceeds MAX_FRAME ({MAX_FRAME})"
                )
            }
            WireError::BadMagic { got } => write!(f, "bad magic {got:#06x} (want {MAGIC:#06x})"),
            WireError::BadVersion { got } => {
                write!(
                    f,
                    "unknown wire version {got} (speak {MIN_WIRE_VERSION}..={WIRE_VERSION})"
                )
            }
            WireError::BadTag { got } => write!(f, "unknown message tag {got}"),
            WireError::Malformed(what) => write!(f, "malformed field: {what}"),
            WireError::Trailing { extra } => write!(f, "{extra} trailing bytes after message"),
            WireError::Io(kind) => write!(f, "i/o failure: {kind:?}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e.kind())
    }
}

// ---------------------------------------------------------------- encoding

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_vec_u32(out: &mut Vec<u8>, v: &[u32]) {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a wrapped length implies a >16GiB body, which encode_into rejects via MAX_FRAME before the frame leaves"
    )]
    put_u32(out, v.len() as u32);
    for &x in v {
        put_u32(out, x);
    }
}

/// Appends the optional trace field (v2's trailing `trace` production):
/// a presence byte, then the three context fields when present.
fn put_trace(out: &mut Vec<u8>, trace: &Option<TraceContext>) {
    match trace {
        None => out.push(0),
        Some(t) => {
            out.push(1);
            put_u64(out, t.trace_id);
            put_u64(out, t.parent_span);
            out.push(t.hop);
        }
    }
}

/// Appends the body (magic + version + tag + fields) of `msg` to `out`.
fn encode_body(msg: &WireMsg, out: &mut Vec<u8>) {
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(WIRE_VERSION);
    out.push(msg.tag());
    match msg {
        WireMsg::Join { peer } => put_u32(out, *peer),
        WireMsg::ExchangeRt {
            from,
            position,
            neighbourhood,
            links,
        } => {
            put_u32(out, *from);
            put_u64(out, position.0);
            put_vec_u32(out, neighbourhood);
            put_vec_u32(out, links);
        }
        WireMsg::ExchangeReply {
            from,
            position,
            n_mutual,
            links,
        } => {
            put_u32(out, *from);
            put_u64(out, position.0);
            put_u32(out, *n_mutual);
            put_vec_u32(out, links);
        }
        WireMsg::Probe { from, nonce, trace } => {
            put_u32(out, *from);
            put_u64(out, *nonce);
            put_trace(out, trace);
        }
        WireMsg::ProbeReply {
            from,
            nonce,
            online,
        } => {
            put_u32(out, *from);
            put_u64(out, *nonce);
            out.push(u8::from(*online));
        }
        WireMsg::Publish {
            pub_id,
            attempt,
            publisher,
            children,
            payload,
            trace,
        } => {
            put_u64(out, *pub_id);
            put_u32(out, *attempt);
            put_u32(out, *publisher);
            #[expect(
                clippy::cast_possible_truncation,
                reason = "child-map size is bounded by the MAX_FRAME check in encode_into"
            )]
            put_u32(out, children.len() as u32);
            for (peer, kids) in children.iter() {
                put_u32(out, *peer);
                put_vec_u32(out, kids);
            }
            #[expect(
                clippy::cast_possible_truncation,
                reason = "payload length is bounded by the MAX_FRAME check in encode_into"
            )]
            put_u32(out, payload.len() as u32);
            out.extend_from_slice(payload);
            put_trace(out, trace);
        }
        WireMsg::Ack {
            pub_id,
            peer,
            bytes,
            trace,
        } => {
            put_u64(out, *pub_id);
            put_u32(out, *peer);
            put_u64(out, *bytes);
            put_trace(out, trace);
        }
        WireMsg::Shutdown => {}
    }
}

/// Appends one complete frame (length prefix included) to `out`.
///
/// The format has no message that can legitimately exceed [`MAX_FRAME`];
/// an over-long payload is the caller's bug, reported as an error rather
/// than a corrupt frame on the wire.
pub fn encode_into(msg: &WireMsg, out: &mut Vec<u8>) -> Result<(), WireError> {
    let at = out.len();
    put_u32(out, 0); // patched below
    encode_body(msg, out);
    let body_len = out.len() - at - 4;
    // Saturating for the diagnostic; exact whenever the guard below passes.
    let len32 = u32::try_from(body_len).unwrap_or(u32::MAX);
    if body_len > MAX_FRAME as usize {
        out.truncate(at);
        return Err(WireError::Oversized { len: len32 });
    }
    let len_bytes = len32.to_le_bytes();
    // Patch the placeholder; the slice is guaranteed present (just pushed).
    for (i, b) in len_bytes.iter().enumerate() {
        if let Some(slot) = out.get_mut(at + i) {
            *slot = *b;
        }
    }
    Ok(())
}

/// Encodes `msg` as a standalone frame.
pub fn encode(msg: &WireMsg) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::new();
    encode_into(msg, &mut out)?;
    Ok(out)
}

/// Exact on-the-wire size of `msg`'s frame (length prefix included) at the
/// current [`WIRE_VERSION`], computed arithmetically. Lets the in-process
/// transports account bytes per tag without serializing anything; pinned
/// against [`encode`] by test.
pub fn encoded_frame_len(msg: &WireMsg) -> u64 {
    fn trace_len(trace: &Option<TraceContext>) -> u64 {
        match trace {
            None => 1,
            Some(_) => 1 + 8 + 8 + 1,
        }
    }
    fn vec_len(v: &[u32]) -> u64 {
        4 + 4 * v.len() as u64
    }
    let header = 4 + 2 + 1 + 1; // len prefix, magic, version, tag
    header
        + match msg {
            WireMsg::Join { .. } => 4,
            WireMsg::ExchangeRt {
                neighbourhood,
                links,
                ..
            } => 4 + 8 + vec_len(neighbourhood) + vec_len(links),
            WireMsg::ExchangeReply { links, .. } => 4 + 8 + 4 + vec_len(links),
            WireMsg::Probe { trace, .. } => 4 + 8 + trace_len(trace),
            WireMsg::ProbeReply { .. } => 4 + 8 + 1,
            WireMsg::Publish {
                children,
                payload,
                trace,
                ..
            } => {
                let plan: u64 = children.iter().map(|(_, kids)| 4 + vec_len(kids)).sum();
                8 + 4 + 4 + (4 + plan) + (4 + payload.len() as u64) + trace_len(trace)
            }
            WireMsg::Ack { trace, .. } => 8 + 4 + 8 + trace_len(trace),
            WireMsg::Shutdown => 0,
        }
}

// ---------------------------------------------------------------- decoding

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if buf.len() < n {
        return Err(WireError::Truncated);
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

fn get_u16(buf: &mut &[u8]) -> Result<u16, WireError> {
    let b = take(buf, 2)?;
    Ok(u16::from_le_bytes(
        b.try_into().map_err(|_| WireError::Truncated)?,
    ))
}

fn get_u8(buf: &mut &[u8]) -> Result<u8, WireError> {
    let b = take(buf, 1)?;
    b.first().copied().ok_or(WireError::Truncated)
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, WireError> {
    let b = take(buf, 4)?;
    Ok(u32::from_le_bytes(
        b.try_into().map_err(|_| WireError::Truncated)?,
    ))
}

fn get_u64(buf: &mut &[u8]) -> Result<u64, WireError> {
    let b = take(buf, 8)?;
    Ok(u64::from_le_bytes(
        b.try_into().map_err(|_| WireError::Truncated)?,
    ))
}

fn get_bool(buf: &mut &[u8]) -> Result<bool, WireError> {
    match get_u8(buf)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(WireError::Malformed("boolean byte must be 0 or 1")),
    }
}

/// Reads a `vec<u32>`: the claimed count is validated against the bytes
/// that actually remain **before** any allocation, so a hostile count
/// cannot reserve gigabytes.
fn get_vec_u32(buf: &mut &[u8]) -> Result<Vec<u32>, WireError> {
    let count = get_u32(buf)? as usize;
    if buf.len() / 4 < count {
        return Err(WireError::Malformed("u32 list count exceeds frame"));
    }
    let mut v = Vec::with_capacity(count);
    for _ in 0..count {
        v.push(get_u32(buf)?);
    }
    Ok(v)
}

fn get_bytes(buf: &mut &[u8]) -> Result<Bytes, WireError> {
    let count = get_u32(buf)? as usize;
    if buf.len() < count {
        return Err(WireError::Malformed("byte-string count exceeds frame"));
    }
    Ok(Bytes::from(take(buf, count)?.to_vec()))
}

/// Reads the optional trace field. Version-1 frames predate the field
/// entirely: nothing is consumed and the message decodes with
/// `trace: None`, which is exactly what a v1 sender meant.
fn get_trace(buf: &mut &[u8], version: u8) -> Result<Option<TraceContext>, WireError> {
    if version < 2 {
        return Ok(None);
    }
    match get_u8(buf)? {
        0 => Ok(None),
        1 => Ok(Some(TraceContext {
            trace_id: get_u64(buf)?,
            parent_span: get_u64(buf)?,
            hop: get_u8(buf)?,
        })),
        _ => Err(WireError::Malformed("trace presence byte must be 0 or 1")),
    }
}

fn get_child_map(buf: &mut &[u8]) -> Result<ChildMap, WireError> {
    let count = get_u32(buf)? as usize;
    // Each entry is at least 8 bytes (peer + empty child list).
    if buf.len() / 8 < count {
        return Err(WireError::Malformed("child-map count exceeds frame"));
    }
    let mut map: ChildMap = Vec::with_capacity(count);
    for _ in 0..count {
        let peer = get_u32(buf)?;
        if map.last().is_some_and(|(p, _)| *p >= peer) {
            return Err(WireError::Malformed("child map must be sorted by peer"));
        }
        map.push((peer, get_vec_u32(buf)?));
    }
    Ok(map)
}

/// Decodes one frame body (everything after the length prefix).
fn decode_body(mut buf: &[u8]) -> Result<WireMsg, WireError> {
    let magic = get_u16(&mut buf)?;
    if magic != MAGIC {
        return Err(WireError::BadMagic { got: magic });
    }
    let version = get_u8(&mut buf)?;
    if !(MIN_WIRE_VERSION..=WIRE_VERSION).contains(&version) {
        return Err(WireError::BadVersion { got: version });
    }
    let tag = get_u8(&mut buf)?;
    let msg = match tag {
        1 => WireMsg::Join {
            peer: get_u32(&mut buf)?,
        },
        2 => WireMsg::ExchangeRt {
            from: get_u32(&mut buf)?,
            position: osn_overlay::RingId(get_u64(&mut buf)?),
            neighbourhood: get_vec_u32(&mut buf)?,
            links: get_vec_u32(&mut buf)?,
        },
        3 => WireMsg::ExchangeReply {
            from: get_u32(&mut buf)?,
            position: osn_overlay::RingId(get_u64(&mut buf)?),
            n_mutual: get_u32(&mut buf)?,
            links: get_vec_u32(&mut buf)?,
        },
        4 => WireMsg::Probe {
            from: get_u32(&mut buf)?,
            nonce: get_u64(&mut buf)?,
            trace: get_trace(&mut buf, version)?,
        },
        5 => WireMsg::ProbeReply {
            from: get_u32(&mut buf)?,
            nonce: get_u64(&mut buf)?,
            online: get_bool(&mut buf)?,
        },
        6 => WireMsg::Publish {
            pub_id: get_u64(&mut buf)?,
            attempt: get_u32(&mut buf)?,
            publisher: get_u32(&mut buf)?,
            children: Arc::new(get_child_map(&mut buf)?),
            payload: get_bytes(&mut buf)?,
            trace: get_trace(&mut buf, version)?,
        },
        7 => WireMsg::Ack {
            pub_id: get_u64(&mut buf)?,
            peer: get_u32(&mut buf)?,
            bytes: get_u64(&mut buf)?,
            trace: get_trace(&mut buf, version)?,
        },
        8 => WireMsg::Shutdown,
        other => return Err(WireError::BadTag { got: other }),
    };
    if !buf.is_empty() {
        return Err(WireError::Trailing { extra: buf.len() });
    }
    Ok(msg)
}

/// Decodes one frame from the front of `buf`, returning the message and the
/// total bytes consumed (length prefix included). Never panics: any input —
/// truncated, oversized, garbage — yields a [`WireError`].
pub fn decode(buf: &[u8]) -> Result<(WireMsg, usize), WireError> {
    let mut cursor = buf;
    let len = get_u32(&mut cursor)?;
    if len > MAX_FRAME {
        return Err(WireError::Oversized { len });
    }
    let body = take(&mut cursor, len as usize)?;
    Ok((decode_body(body)?, 4 + len as usize))
}

// ----------------------------------------------------------------- streams

/// Writes one frame to `w` (buffered by the caller if throughput matters).
pub fn write_frame(w: &mut impl Write, msg: &WireMsg) -> Result<(), WireError> {
    let frame = encode(msg)?;
    w.write_all(&frame)?;
    Ok(())
}

/// Reads one frame from `r`. Returns `Ok(None)` on clean end-of-stream (EOF
/// exactly at a frame boundary); EOF mid-frame, an oversized length prefix
/// or a malformed body are errors.
pub fn read_frame(r: &mut impl Read) -> Result<Option<WireMsg>, WireError> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < len_bytes.len() {
        #[expect(
            clippy::indexing_slicing,
            reason = "filled < len_bytes.len() by the loop condition"
        )]
        let n = match r.read(&mut len_bytes[filled..]) {
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        if n == 0 {
            return if filled == 0 {
                Ok(None) // clean EOF between frames
            } else {
                Err(WireError::Truncated)
            };
        }
        filled += n;
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(WireError::Oversized { len });
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Ok(Some(decode_body(&body)?))
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation)] // tests are exempt
mod tests {
    use super::*;
    use crate::stats::TAG_SLOTS;
    use osn_overlay::RingId;

    fn sample_msgs() -> Vec<WireMsg> {
        vec![
            WireMsg::Join { peer: 42 },
            WireMsg::ExchangeRt {
                from: 7,
                position: RingId(0xDEAD_BEEF_0123_4567),
                neighbourhood: vec![1, 2, 3],
                links: vec![9, 10],
            },
            WireMsg::ExchangeReply {
                from: 8,
                position: RingId(u64::MAX),
                n_mutual: 5,
                links: vec![],
            },
            WireMsg::Probe {
                from: 3,
                nonce: 99,
                trace: None,
            },
            WireMsg::Probe {
                from: 3,
                nonce: 100,
                trace: Some(TraceContext::root(100)),
            },
            WireMsg::ProbeReply {
                from: 3,
                nonce: 99,
                online: true,
            },
            WireMsg::Publish {
                pub_id: 17,
                attempt: 2,
                publisher: 0,
                children: Arc::new(vec![(0, vec![1, 3]), (1, vec![2, 4])]),
                payload: Bytes::from(vec![0xAB; 1024]),
                trace: None,
            },
            WireMsg::Publish {
                pub_id: 18,
                attempt: 0,
                publisher: 0,
                children: Arc::new(vec![(0, vec![1])]),
                payload: Bytes::from(vec![0xCD; 16]),
                trace: Some(TraceContext {
                    trace_id: 18,
                    parent_span: 0x1234_5678_9ABC_DEF0,
                    hop: 3,
                }),
            },
            WireMsg::Ack {
                pub_id: 17,
                peer: 4,
                bytes: 1024,
                trace: None,
            },
            WireMsg::Ack {
                pub_id: 18,
                peer: 5,
                bytes: 16,
                trace: Some(TraceContext {
                    trace_id: 18,
                    parent_span: u64::MAX,
                    hop: u8::MAX,
                }),
            },
            WireMsg::Shutdown,
        ]
    }

    /// The `match` has no `_` arm: a new variant does not compile until it
    /// is named here, and the tag set must then reach the last stats slot,
    /// so `sample_msgs` must carry it and its decode arm gets exercised.
    #[test]
    fn every_variant_round_trips() {
        let mut tags = std::collections::BTreeSet::new();
        for msg in sample_msgs() {
            let tag = match msg {
                WireMsg::Join { .. } => 1,
                WireMsg::ExchangeRt { .. } => 2,
                WireMsg::ExchangeReply { .. } => 3,
                WireMsg::Probe { .. } => 4,
                WireMsg::ProbeReply { .. } => 5,
                WireMsg::Publish { .. } => 6,
                WireMsg::Ack { .. } => 7,
                WireMsg::Shutdown => 8,
            };
            assert_eq!(tag, msg.tag(), "{msg:?}");
            tags.insert(tag);
            let frame = encode(&msg).unwrap();
            let (back, used) = decode(&frame).unwrap();
            assert_eq!(used, frame.len(), "{msg:?}");
            assert_eq!(back, msg);
        }
        let every_tag: std::collections::BTreeSet<u8> = (1..TAG_SLOTS as u8).collect();
        assert_eq!(tags, every_tag, "sample_msgs misses a variant");
    }

    #[test]
    fn frames_concatenate_cleanly() {
        let msgs = sample_msgs();
        let mut stream = Vec::new();
        for m in &msgs {
            encode_into(m, &mut stream).unwrap();
        }
        let mut at = 0;
        for expected in &msgs {
            let (got, used) = decode(&stream[at..]).unwrap();
            assert_eq!(&got, expected);
            at += used;
        }
        assert_eq!(at, stream.len());
    }

    #[test]
    fn header_layout_is_pinned() {
        // The byte layout is the contract: length prefix counts the body,
        // then magic (LE), version, tag.
        let frame = encode(&WireMsg::Join { peer: 0x0102_0304 }).unwrap();
        assert_eq!(frame[0..4], (frame.len() as u32 - 4).to_le_bytes());
        assert_eq!(frame[4..6], MAGIC.to_le_bytes());
        assert_eq!(frame[6], WIRE_VERSION);
        assert_eq!(frame[7], 1); // Join's tag
        assert_eq!(frame[8..12], 0x0102_0304u32.to_le_bytes());
        assert_eq!(frame.len(), 12);
    }

    #[test]
    fn truncation_at_every_length_is_an_error_not_a_panic() {
        for msg in sample_msgs() {
            let frame = encode(&msg).unwrap();
            for cut in 0..frame.len() {
                assert!(
                    decode(&frame[..cut]).is_err(),
                    "{msg:?} truncated to {cut} bytes decoded"
                );
            }
        }
    }

    #[test]
    fn bad_magic_version_tag_are_distinct_errors() {
        let good = encode(&WireMsg::Shutdown).unwrap();
        let mut bad = good.clone();
        bad[4] ^= 0xFF;
        assert!(matches!(decode(&bad), Err(WireError::BadMagic { .. })));
        let mut bad = good.clone();
        bad[6] = 9;
        assert!(matches!(
            decode(&bad),
            Err(WireError::BadVersion { got: 9 })
        ));
        let mut bad = good.clone();
        bad[7] = 200;
        assert!(matches!(decode(&bad), Err(WireError::BadTag { got: 200 })));
    }

    /// Rewrites a v2 frame that carries `trace: None` into the exact bytes
    /// a v1 sender would have produced: version byte 1, no trace field
    /// (v1 publish/ack/probe bodies end one presence byte earlier).
    fn downgrade_to_v1(frame: &[u8], had_trace_byte: bool) -> Vec<u8> {
        let mut v1 = frame.to_vec();
        v1[6] = 1;
        if had_trace_byte {
            assert_eq!(*v1.last().unwrap(), 0, "downgrade needs trace: None");
            v1.pop();
            let len = u32::from_le_bytes(v1[0..4].try_into().unwrap()) - 1;
            v1[0..4].copy_from_slice(&len.to_le_bytes());
        }
        v1
    }

    #[test]
    fn v1_frames_decode_losslessly_under_the_v2_codec() {
        for msg in sample_msgs() {
            let has_trace_field = matches!(
                &msg,
                WireMsg::Probe { .. } | WireMsg::Publish { .. } | WireMsg::Ack { .. }
            );
            let carries_trace = matches!(
                &msg,
                WireMsg::Probe { trace: Some(_), .. }
                    | WireMsg::Publish { trace: Some(_), .. }
                    | WireMsg::Ack { trace: Some(_), .. }
            );
            if carries_trace {
                continue; // no v1 representation exists for traced frames
            }
            let v2 = encode(&msg).unwrap();
            let v1 = downgrade_to_v1(&v2, has_trace_field);
            let (back, used) = decode(&v1).unwrap();
            assert_eq!(used, v1.len(), "{msg:?}");
            assert_eq!(back, msg, "v1 frame must decode to the same message");
        }
    }

    #[test]
    fn version_zero_is_rejected() {
        let mut frame = encode(&WireMsg::Shutdown).unwrap();
        frame[6] = 0;
        assert!(matches!(
            decode(&frame),
            Err(WireError::BadVersion { got: 0 })
        ));
    }

    #[test]
    fn bad_trace_presence_byte_is_malformed() {
        let mut frame = encode(&WireMsg::Ack {
            pub_id: 1,
            peer: 2,
            bytes: 3,
            trace: None,
        })
        .unwrap();
        let last = frame.len() - 1;
        frame[last] = 2; // presence byte must be 0 or 1
        assert!(matches!(decode(&frame), Err(WireError::Malformed(_))));
    }

    #[test]
    fn encoded_frame_len_matches_the_encoder() {
        for msg in sample_msgs() {
            let frame = encode(&msg).unwrap();
            assert_eq!(encoded_frame_len(&msg), frame.len() as u64, "{msg:?}");
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocating() {
        let mut frame = Vec::new();
        put_u32(&mut frame, u32::MAX);
        assert_eq!(decode(&frame), Err(WireError::Oversized { len: u32::MAX }));
    }

    #[test]
    fn hostile_list_count_cannot_reserve_memory() {
        // ExchangeRt whose neighbourhood claims u32::MAX entries but whose
        // frame only carries 4 more bytes: rejected by the remaining-bytes
        // check, never allocated.
        let mut body = Vec::new();
        body.extend_from_slice(&MAGIC.to_le_bytes());
        body.push(WIRE_VERSION);
        body.push(2); // ExchangeRt
        put_u32(&mut body, 1); // from
        put_u64(&mut body, 2); // position
        put_u32(&mut body, u32::MAX); // neighbourhood count
        put_u32(&mut body, 7); // one lonely element
        let mut frame = Vec::new();
        put_u32(&mut frame, body.len() as u32);
        frame.extend_from_slice(&body);
        assert!(matches!(decode(&frame), Err(WireError::Malformed(_))));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut frame = encode(&WireMsg::Probe {
            from: 1,
            nonce: 2,
            trace: None,
        })
        .unwrap();
        // Stretch the declared body length by one and append a stray byte.
        let len = u32::from_le_bytes(frame[0..4].try_into().unwrap()) + 1;
        frame[0..4].copy_from_slice(&len.to_le_bytes());
        frame.push(0x5A);
        assert_eq!(decode(&frame), Err(WireError::Trailing { extra: 1 }));
    }

    #[test]
    fn non_boolean_online_byte_is_malformed() {
        let mut frame = encode(&WireMsg::ProbeReply {
            from: 1,
            nonce: 2,
            online: false,
        })
        .unwrap();
        let last = frame.len() - 1;
        frame[last] = 7;
        assert!(matches!(decode(&frame), Err(WireError::Malformed(_))));
    }

    #[test]
    fn unsorted_child_map_is_rejected() {
        let mut body = Vec::new();
        body.extend_from_slice(&MAGIC.to_le_bytes());
        body.push(WIRE_VERSION);
        body.push(6); // Publish
        put_u64(&mut body, 1); // pub_id
        put_u32(&mut body, 0); // attempt
        put_u32(&mut body, 0); // publisher
        put_u32(&mut body, 2); // two child-map entries, out of order
        put_u32(&mut body, 5);
        put_vec_u32(&mut body, &[6]);
        put_u32(&mut body, 4);
        put_vec_u32(&mut body, &[7]);
        put_u32(&mut body, 0); // payload
        let mut frame = Vec::new();
        put_u32(&mut frame, body.len() as u32);
        frame.extend_from_slice(&body);
        assert!(matches!(decode(&frame), Err(WireError::Malformed(_))));
    }

    #[test]
    fn stream_read_write_round_trip() {
        let msgs = sample_msgs();
        let mut stream = Vec::new();
        for m in &msgs {
            write_frame(&mut stream, m).unwrap();
        }
        let mut r = &stream[..];
        for expected in &msgs {
            let got = read_frame(&mut r).unwrap().unwrap();
            assert_eq!(&got, expected);
        }
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn mid_frame_eof_is_an_error() {
        let frame = encode(&WireMsg::Join { peer: 1 }).unwrap();
        let mut r = &frame[..frame.len() - 2];
        assert!(read_frame(&mut r).is_err());
    }
}
