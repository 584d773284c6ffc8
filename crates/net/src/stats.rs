//! Per-transport wire telemetry: frame/byte counters per tag, plus the
//! pathologies the delivery loop and the socket runtime can observe
//! (retransmissions, ack-window expiries, reconnects, garbage frames).
//!
//! One [`TransportStats`] is shared (via `Arc`) between a network's driver
//! handle and its peer threads. Counters are relaxed atomics: on the
//! in-process transports every count is a pure function of the seeded
//! plan, so totals are deterministic and thread-invariant (sums of
//! commutative increments); on the socket transport the kernel schedules
//! real connections, so the counts are best-effort ground truth rather
//! than a replayable quantity.
//!
//! A frozen [`StatsSnapshot`] merges into the obs layer's
//! [`MetricsSnapshot`] as one gauge family per counter — the exporter has
//! no label support, so tag names are baked into metric names
//! (`select_wire_frames_tx_publish`, …).

use osn_obs::MetricsSnapshot;
use select_core::wire::tag_name;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counter slots: tags 1–8 count in their own slot, anything else (only
/// possible on a hostile rx path) in slot 0.
pub(crate) const TAG_SLOTS: usize = 9;

fn slot(tag: u8) -> usize {
    if (1..=8).contains(&tag) {
        tag as usize
    } else {
        0
    }
}

/// Live wire-telemetry counters for one transport instance.
#[derive(Debug, Default)]
pub struct TransportStats {
    frames_tx: [AtomicU64; TAG_SLOTS],
    bytes_tx: [AtomicU64; TAG_SLOTS],
    frames_rx: [AtomicU64; TAG_SLOTS],
    bytes_rx: [AtomicU64; TAG_SLOTS],
    retransmissions: AtomicU64,
    ack_window_expiries: AtomicU64,
    reconnects: AtomicU64,
    garbage_frames: AtomicU64,
    codec_error_conns: AtomicU64,
}

impl TransportStats {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        TransportStats::default()
    }

    /// One frame of `bytes` wire bytes sent with `tag`.
    pub fn record_tx(&self, tag: u8, bytes: u64) {
        let s = slot(tag);
        if let Some(c) = self.frames_tx.get(s) {
            c.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(c) = self.bytes_tx.get(s) {
            c.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// One frame of `bytes` wire bytes received with `tag`.
    pub fn record_rx(&self, tag: u8, bytes: u64) {
        let s = slot(tag);
        if let Some(c) = self.frames_rx.get(s) {
            c.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(c) = self.bytes_rx.get(s) {
            c.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// One publish frame re-sent by the ack/retry loop.
    pub fn note_retransmission(&self) {
        self.retransmissions.fetch_add(1, Ordering::Relaxed);
    }

    /// One ack window that closed with subscribers still unreached.
    pub fn note_ack_window_expiry(&self) {
        self.ack_window_expiries.fetch_add(1, Ordering::Relaxed);
    }

    /// One data-plane connection opened by the socket runtime: the first
    /// frame to a destination, or a session re-established after a failed
    /// write. Always 0 in-process.
    pub fn note_reconnect(&self) {
        self.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// One frame that failed to decode (bad magic/version/tag, malformed
    /// body, truncation mid-stream).
    pub fn note_garbage_frame(&self) {
        self.garbage_frames.fetch_add(1, Ordering::Relaxed);
    }

    /// One connection dropped because of a codec error on its stream.
    pub fn note_codec_error_conn(&self) {
        self.codec_error_conns.fetch_add(1, Ordering::Relaxed);
    }

    /// Freezes the counters into a plain snapshot.
    pub fn snapshot(&self) -> StatsSnapshot {
        let load = |a: &[AtomicU64; TAG_SLOTS]| {
            let mut out = [0u64; TAG_SLOTS];
            for (o, c) in out.iter_mut().zip(a.iter()) {
                *o = c.load(Ordering::Relaxed);
            }
            out
        };
        StatsSnapshot {
            frames_tx: load(&self.frames_tx),
            bytes_tx: load(&self.bytes_tx),
            frames_rx: load(&self.frames_rx),
            bytes_rx: load(&self.bytes_rx),
            retransmissions: self.retransmissions.load(Ordering::Relaxed),
            ack_window_expiries: self.ack_window_expiries.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            garbage_frames: self.garbage_frames.load(Ordering::Relaxed),
            codec_error_conns: self.codec_error_conns.load(Ordering::Relaxed),
        }
    }
}

/// A frozen copy of one transport's counters. Index arrays by wire tag
/// (slot 0 holds unknown-tag traffic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Frames sent, per tag.
    pub frames_tx: [u64; TAG_SLOTS],
    /// Wire bytes sent, per tag.
    pub bytes_tx: [u64; TAG_SLOTS],
    /// Frames received, per tag.
    pub frames_rx: [u64; TAG_SLOTS],
    /// Wire bytes received, per tag.
    pub bytes_rx: [u64; TAG_SLOTS],
    /// Publish frames re-sent by the ack/retry loop.
    pub retransmissions: u64,
    /// Ack windows that closed with unreached subscribers.
    pub ack_window_expiries: u64,
    /// Data-plane connections opened (first use of a destination plus
    /// re-established sessions).
    pub reconnects: u64,
    /// Frames that failed to decode.
    pub garbage_frames: u64,
    /// Connections dropped on a codec error.
    pub codec_error_conns: u64,
}

impl StatsSnapshot {
    /// Total frames sent across all tags.
    pub fn total_frames_tx(&self) -> u64 {
        self.frames_tx.iter().sum()
    }

    /// Total frames received across all tags.
    pub fn total_frames_rx(&self) -> u64 {
        self.frames_rx.iter().sum()
    }

    /// Total wire bytes sent across all tags.
    pub fn total_bytes_tx(&self) -> u64 {
        self.bytes_tx.iter().sum()
    }

    /// Total wire bytes received across all tags.
    pub fn total_bytes_rx(&self) -> u64 {
        self.bytes_rx.iter().sum()
    }

    /// Per-tag rows `(tag, name, frames_tx, bytes_tx, frames_rx,
    /// bytes_rx)` for tags with any traffic, ascending by tag (slot 0
    /// last, named "unknown").
    pub fn per_tag(&self) -> Vec<(u8, &'static str, u64, u64, u64, u64)> {
        let mut rows = Vec::new();
        for tag in (1u8..=8).chain([0]) {
            let s = slot(tag);
            let row = (
                tag,
                tag_name(tag),
                self.frames_tx[s],
                self.bytes_tx[s],
                self.frames_rx[s],
                self.bytes_rx[s],
            );
            if row.2 != 0 || row.3 != 0 || row.4 != 0 || row.5 != 0 {
                rows.push(row);
            }
        }
        rows
    }

    /// Merges these counters into `snap` as gauge families prefixed
    /// `select_wire_` and suffixed `_<transport>` (e.g.
    /// `select_wire_frames_tx_publish_tcp`): four per-tag families for
    /// tags with traffic, then the scalar pathology counters.
    pub fn merge_into(&self, mut snap: MetricsSnapshot, transport: &str) -> MetricsSnapshot {
        for (_, name, ftx, btx, frx, brx) in self.per_tag() {
            snap = snap
                .with_gauge(
                    &format!("select_wire_frames_tx_{name}_{transport}"),
                    ftx as f64,
                )
                .with_gauge(
                    &format!("select_wire_bytes_tx_{name}_{transport}"),
                    btx as f64,
                )
                .with_gauge(
                    &format!("select_wire_frames_rx_{name}_{transport}"),
                    frx as f64,
                )
                .with_gauge(
                    &format!("select_wire_bytes_rx_{name}_{transport}"),
                    brx as f64,
                );
        }
        snap.with_gauge(
            &format!("select_wire_retransmissions_{transport}"),
            self.retransmissions as f64,
        )
        .with_gauge(
            &format!("select_wire_ack_window_expiries_{transport}"),
            self.ack_window_expiries as f64,
        )
        .with_gauge(
            &format!("select_wire_reconnects_{transport}"),
            self.reconnects as f64,
        )
        .with_gauge(
            &format!("select_wire_garbage_frames_{transport}"),
            self.garbage_frames as f64,
        )
        .with_gauge(
            &format!("select_wire_codec_error_conns_{transport}"),
            self.codec_error_conns as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_tag() {
        let stats = TransportStats::new();
        stats.record_tx(6, 100);
        stats.record_tx(6, 50);
        stats.record_rx(7, 25);
        stats.record_tx(99, 10); // unknown tag → slot 0
        stats.note_retransmission();
        stats.note_garbage_frame();
        let snap = stats.snapshot();
        assert_eq!(snap.frames_tx[6], 2);
        assert_eq!(snap.bytes_tx[6], 150);
        assert_eq!(snap.frames_rx[7], 1);
        assert_eq!(snap.bytes_rx[7], 25);
        assert_eq!(snap.frames_tx[0], 1, "unknown tag lands in slot 0");
        assert_eq!(snap.retransmissions, 1);
        assert_eq!(snap.garbage_frames, 1);
        assert_eq!(snap.total_frames_tx(), 3);
        assert_eq!(snap.total_bytes_tx(), 160);
        assert_eq!(snap.total_bytes_rx(), 25);
    }

    #[test]
    fn per_tag_rows_skip_silent_tags_and_name_the_rest() {
        let stats = TransportStats::new();
        stats.record_tx(6, 10);
        stats.record_rx(1, 12);
        let rows = stats.snapshot().per_tag();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].1, "join");
        assert_eq!(rows[1].1, "publish");
        assert_eq!(rows[1].2, 1);
        assert_eq!(rows[1].3, 10);
    }

    #[test]
    fn merge_into_emits_prometheus_gauge_families() {
        let stats = TransportStats::new();
        stats.record_tx(6, 4096);
        stats.record_rx(7, 21);
        stats.note_reconnect();
        let snap = stats.snapshot().merge_into(MetricsSnapshot::new(), "tcp");
        let text = snap.to_prometheus();
        assert!(
            text.contains("select_wire_frames_tx_publish_tcp 1"),
            "got: {text}"
        );
        assert!(
            text.contains("select_wire_bytes_tx_publish_tcp 4096"),
            "got: {text}"
        );
        assert!(
            text.contains("select_wire_frames_rx_ack_tcp 1"),
            "got: {text}"
        );
        assert!(text.contains("select_wire_reconnects_tcp 1"), "got: {text}");
        assert!(
            text.contains("select_wire_garbage_frames_tcp 0"),
            "got: {text}"
        );
    }
}
