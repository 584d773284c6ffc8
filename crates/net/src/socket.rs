//! TCP loopback link family: the wire format on real sockets.
//!
//! [`SocketNetwork`] runs the shared pump on as many shards as the channel
//! family, but every frame, same-shard forwards included, crosses loopback
//! TCP as a [`crate::codec`] frame behind a link-level destination tag:
//! `[u32 dest][frame]`. The codec and its per-tag counts never see the tag.
//!
//! * **Inbound** — one listener per shard, whose acceptor gives every
//!   connection its own blocking reader. A reader hands its shard a batch
//!   of `(dest, frame)` whenever its read buffer runs dry, over an
//!   unbounded channel: it never waits on its pump, so a pump writing into
//!   its own full socket cannot deadlock.
//! * **Outbound** — [`TcpPeers`] pools one session per destination shard,
//!   written under the slot lock through a write buffer, so senders never
//!   interleave. Buffers leave when a pump is about to block, after every
//!   driver injection ([`Peers::flush`]) and past [`BUFFER`] bytes; a
//!   failed write reconnects and retries once. Events (joins, acks, probe
//!   replies) go to the driver on one buffered control stream per shard.
//!
//! Nothing polls. A pump's link, dropped as the pump exits, wakes its
//! acceptor, which shuts every accepted connection down and joins the
//! readers. Bytes that are not a frame for the shard cost their connection,
//! never a peer, and are counted once by their reader. Fault decisions are
//! the shared step's, so delivery sets match the in-process reference
//! (`wire_conformance`); socket counts are best-effort, not replayable.

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::codec::{decode, encode, encode_into, encoded_frame_len, read_frame, WireError};
use crate::runtime::{recv_until, worker_count, Inbound, Link, Pace, PeerNetwork, Peers, Roster};
use crate::stats::TransportStats;
use crate::transport::PeerAddr;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use osn_sim::FaultPlan;
use select_core::wire::WireMsg;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::mem::take;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Bytes a session buffers before a carry writes out; a reader's buffer.
const BUFFER: usize = 256 * 1024;

/// What a reader hands its shard: whole frames, each with its peer.
type Batch = Vec<(u32, WireMsg)>;

/// One destination shard: its listener and the session every sender shares.
struct Slot {
    addr: SocketAddr,
    session: Mutex<Session>,
}

/// A pooled stream and the tagged frames waiting to go out on it.
#[derive(Default)]
struct Session {
    /// `None` until first use and after a failed write.
    stream: Option<TcpStream>,
    out: Vec<u8>,
}

impl Session {
    /// Writes the buffered frames to the shard at `addr`, reconnecting and
    /// retrying once if the stream died. `false`: the frames are lost.
    fn push(&mut self, addr: SocketAddr, stats: &TransportStats) -> bool {
        for _ in 0..2 {
            if self.stream.is_none() {
                let Ok(stream) = TcpStream::connect(addr) else {
                    break; // no listener: the shard has exited
                };
                let _ = stream.set_nodelay(true);
                stats.note_reconnect();
                self.stream = Some(stream);
            }
            let out = &self.out;
            if self
                .stream
                .as_mut()
                .is_some_and(|s| s.write_all(out).is_ok())
            {
                self.out.clear();
                return true;
            }
            self.stream = None;
        }
        self.out.clear();
        false
    }
}

/// The TCP family's address table: one slot per shard.
#[derive(Clone)]
pub struct TcpPeers(Arc<Roster<Slot>>);

impl Peers for TcpPeers {
    /// Encoded once; every surviving child gets the same bytes.
    type Frame = Vec<u8>;

    fn count(&self) -> usize {
        self.0.count()
    }

    fn addr(&self, peer: u32) -> Option<PeerAddr> {
        self.0.shard(peer).map(|s| PeerAddr::Tcp(s.addr))
    }

    fn frame(msg: WireMsg) -> Option<Vec<u8>> {
        encode(&msg).ok()
    }

    fn carry(&self, to: u32, frame: &Vec<u8>, stats: &TransportStats) -> bool {
        let Some(slot) = self.0.live(to) else {
            return false;
        };
        // Poisoned: a sender panicked mid-frame; the shard is unreachable.
        let Ok(mut session) = slot.session.lock() else {
            return false;
        };
        session.out.extend_from_slice(&to.to_le_bytes());
        session.out.extend_from_slice(frame);
        // selint: allow(lock-order, written under the slot lock so senders sharing the stream cannot interleave; readers never wait on a pump, so the write always drains)
        session.out.len() < BUFFER || session.push(slot.addr, stats)
    }

    fn stop(&self, peer: u32) {
        self.0.stop(peer);
    }

    fn flush(&self, stats: &TransportStats) {
        for slot in &self.0.shards {
            if let Ok(mut session) = slot.session.lock() {
                if !session.out.is_empty() {
                    session.push(slot.addr, stats);
                }
            }
        }
    }

    fn close(&self) {
        for slot in &self.0.shards {
            if let Ok(mut session) = slot.session.lock() {
                *session = Session::default();
            }
        }
    }
}

/// One shard's endpoint: its readers' batches, its control stream.
pub struct TcpLink {
    inbox: Receiver<Batch>,
    batch: std::vec::IntoIter<(u32, WireMsg)>,
    /// `None` once a write to the driver failed.
    control: Option<TcpStream>,
    /// Event frames not yet written to `control`.
    events: Vec<u8>,
    peers: TcpPeers,
    stats: Arc<TransportStats>,
    /// This shard's listener, and the flag its acceptor reads when woken.
    addr: SocketAddr,
    closing: Arc<AtomicBool>,
}

impl TcpLink {
    /// Pushes out every frame buffered so far, events and forwards alike.
    fn flush(&mut self) {
        self.peers.flush(&self.stats);
        if self.events.is_empty() {
            return;
        }
        let control = self.control.as_mut();
        if control.is_none_or(|c| c.write_all(&self.events).is_err()) {
            self.control = None;
        }
        self.events.clear();
    }
}

impl Link for TcpLink {
    type Peers = TcpPeers;
    const IN_PROCESS: bool = false;

    fn event(&mut self, msg: WireMsg) -> bool {
        self.control.is_some() && encode_into(&msg, &mut self.events).is_ok()
    }

    fn recv(&mut self, deadline: Option<Instant>) -> Result<Inbound, RecvTimeoutError> {
        loop {
            if let Some(inbound) = self.batch.next() {
                return Ok(inbound);
            }
            let batch = match self.inbox.try_recv() {
                Ok(batch) => batch,
                Err(TryRecvError::Disconnected) => return Err(RecvTimeoutError::Disconnected),
                Err(TryRecvError::Empty) => {
                    self.flush(); // about to block: what the pump buffered leaves now
                    recv_until(&self.inbox, deadline)?
                }
            };
            self.batch = batch.into_iter();
        }
    }
}

impl Drop for TcpLink {
    /// The pump has exited: send what it left, wake the acceptor to close.
    fn drop(&mut self) {
        self.flush();
        self.closing.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
    }
}

/// Serves a shard's listener until its link is dropped: every connection
/// gets its own reader. Then shuts each accepted connection down and joins
/// its reader.
fn accept_loop(
    listener: &TcpListener,
    range: &Range<u32>,
    inbox: &Sender<Batch>,
    closing: &AtomicBool,
    stats: &Arc<TransportStats>,
) {
    let mut readers: Vec<(TcpStream, std::thread::JoinHandle<()>)> = Vec::new();
    for conn in listener.incoming().map_while(Result::ok) {
        if closing.load(Ordering::Acquire) {
            break;
        }
        let Ok(handle) = conn.try_clone() else {
            continue;
        };
        readers.retain(|(_, reader)| !reader.is_finished());
        let (range, inbox, stats) = (range.clone(), inbox.clone(), stats.clone());
        let reader = std::thread::spawn(move || {
            read_loop(&conn, &range, &inbox, &stats);
            // Closes it now: the clone kept for shutdown holds it open.
            let _ = conn.shutdown(Shutdown::Both);
        });
        readers.push((handle, reader));
    }
    for (conn, reader) in readers {
        let _ = conn.shutdown(Shutdown::Both);
        let _ = reader.join();
    }
}

/// Reads one connection to its end, handing the shard a batch each time its
/// read buffer runs dry. Bytes that are not a frame for a peer of `range`
/// end the connection, counted here.
fn read_loop(conn: &TcpStream, range: &Range<u32>, inbox: &Sender<Batch>, stats: &TransportStats) {
    let mut conn = BufReader::with_capacity(BUFFER, conn);
    let mut batch = Vec::new();
    loop {
        let buffered = conn.buffer();
        let tag = buffered.get(..4).and_then(|t| t.try_into().ok());
        let frame = match (tag.map(u32::from_le_bytes), buffered.get(4..).map(decode)) {
            // A tagged frame whole in the buffer decodes in place.
            (Some(dest), Some(Ok((msg, used)))) => {
                conn.consume(4 + used);
                Ok(Some((dest, msg)))
            }
            // Any other is read whole off the stream (and fails there if it
            // is garbage), after what has arrived is handed over.
            _ => {
                if !batch.is_empty() && inbox.send(take(&mut batch)).is_err() {
                    return; // the pump has exited
                }
                if conn.fill_buf().map_or(true, |b| b.is_empty()) {
                    return; // end of stream between frames
                }
                let mut dest = [0; 4];
                let tagged = conn.read_exact(&mut dest).map_err(WireError::from);
                let frame = tagged.and_then(|()| read_frame(&mut conn));
                frame.map(|f| f.map(|msg| (u32::from_le_bytes(dest), msg)))
            }
        };
        match frame {
            Ok(Some((dest, msg))) if range.contains(&dest) => batch.push((dest, msg)),
            _ => {
                let _ = inbox.send(batch);
                stats.note_garbage_frame();
                return stats.note_codec_error_conn();
            }
        }
    }
}

/// A network of peer actors linked by loopback TCP sockets.
pub type SocketNetwork = PeerNetwork<TcpLink>;

impl SocketNetwork {
    /// Spawns `n` socket peers on a fault-free network. Fails only if the
    /// OS refuses loopback listeners.
    pub fn spawn(n: usize) -> io::Result<Self> {
        Self::spawn_with_faults(n, FaultPlan::disabled(), 0)
    }

    /// Spawns `n` socket peers whose forwards run through `plan`;
    /// `retry_max` bounds the retransmission waves of
    /// [`PeerNetwork::publish`]. Returns once every peer has joined over its
    /// shard's control stream, so the network is fully up.
    pub fn spawn_with_faults(n: usize, plan: FaultPlan, retry_max: u32) -> io::Result<Self> {
        Self::spawn_on(worker_count(n), n, plan, retry_max)
    }

    /// [`SocketNetwork::spawn_with_faults`] on at most `shards` shards: the
    /// seam that lets tests cross shards on any core count.
    pub(crate) fn spawn_on(
        shards: usize,
        n: usize,
        plan: FaultPlan,
        retry_max: u32,
    ) -> io::Result<Self> {
        // Every listener is bound before any pump starts forwarding.
        let (roster, shards) = Roster::build(n, shards, |range| {
            let listener = TcpListener::bind(("127.0.0.1", 0))?;
            let slot = Slot {
                addr: listener.local_addr()?,
                session: Mutex::default(),
            };
            Ok::<_, io::Error>((slot, (range.clone(), listener)))
        })?;
        let peers = TcpPeers(Arc::new(roster));
        let control = TcpListener::bind(("127.0.0.1", 0))?;
        let (event_tx, events) = unbounded();
        let open = |(range, listener): (Range<u32>, TcpListener), net: &mut Self| {
            // Connect and accept the shard's control stream back to back:
            // the control listener's accept queue never holds more than one.
            let to_driver = TcpStream::connect(control.local_addr()?)?;
            let (from_shard, _) = control.accept()?;
            let _ = to_driver.set_nodelay(true);
            let addr = listener.local_addr()?;
            // The driver's real read point for events: their rx counts here.
            let (event_tx, stats) = (event_tx.clone(), net.stats.clone());
            net.handles.push(std::thread::spawn(move || {
                let mut from_shard = BufReader::new(from_shard);
                while let Ok(Some(msg)) = read_frame(&mut from_shard) {
                    stats.record_rx(msg.tag(), encoded_frame_len(&msg));
                    if event_tx.send(msg).is_err() {
                        break;
                    }
                }
                Vec::new()
            }));
            let (inbox_tx, inbox) = unbounded();
            let closing = Arc::new(AtomicBool::new(false));
            let (flag, stats) = (closing.clone(), net.stats.clone());
            net.handles.push(std::thread::spawn(move || {
                accept_loop(&listener, &range, &inbox_tx, &flag, &stats);
                Vec::new()
            }));
            Ok(TcpLink {
                inbox,
                batch: Vec::new().into_iter(),
                control: Some(to_driver),
                events: Vec::new(),
                peers: net.peers.clone(),
                stats: net.stats.clone(),
                addr,
                closing,
            })
        };
        PeerNetwork::spawn_over(peers, events, plan, retry_max, Pace::UNPACED, shards, open)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests are exempt
mod tests {
    //! What only the TCP family can promise, each at one shard and at
    //! three. The transport contract every family shares runs as
    //! [`crate::contract`]'s `socket::`, `socket_one_shard::` and
    //! `socket_three_shards::` modules.

    use super::*;
    use crate::contract::tree;
    use crate::transport::Transport;
    use bytes::Bytes;
    use std::collections::HashSet;
    use std::time::{Duration, Instant};

    /// `n` fault-free socket peers on at most `shards` shards.
    fn spawn(shards: usize, n: usize) -> SocketNetwork {
        SocketNetwork::spawn_on(shards, n, FaultPlan::disabled(), 0).unwrap()
    }

    fn addr_of(net: &SocketNetwork, peer: u32) -> SocketAddr {
        let Some(PeerAddr::Tcp(addr)) = net.peer_addr(peer) else {
            panic!("peer {peer} must have a TCP address");
        };
        addr
    }

    #[test]
    fn two_hundred_peer_loopback_smoke() {
        // The ci.sh wire-suite smoke: 200 sockets, a two-level fan-out tree
        // (relays 1..=19 each forwarding to 9 leaves), every peer reached.
        let n = 200u32;
        let mut paths = Vec::new();
        for relay in 1..20u32 {
            paths.push(vec![0, relay]);
            for leaf in 0..9u32 {
                paths.push(vec![0, relay, 20 + (relay - 1) * 9 + leaf]);
            }
        }
        let t = tree(0, paths);
        // Spawn regression: one control stream per peer, all connected
        // before any was accepted, once overflowed the listener's 128-slot
        // accept queue, and the tail waited out the kernel's 1 s SYN retry.
        // Each shard now connects and accepts its one control stream back to
        // back. Best of two, so a scheduler stall cannot fail a healthy
        // spawn; each network holds a handful of descriptors per shard.
        let spawn = || {
            let start = Instant::now();
            let net = SocketNetwork::spawn(n as usize).unwrap();
            (start.elapsed(), net)
        };
        let first = spawn().0;
        let (second, mut net) = spawn();
        let best = first.min(second);
        assert!(
            best < Duration::from_millis(700),
            "200-peer spawn took {best:?}: accept-queue overflow costs >= 1 s"
        );
        let r = net.publish(&t, Bytes::from(vec![3u8; 4096]), Duration::from_secs(30));
        assert_eq!(r.delivered_to, (1..191).collect(), "19 relays + 171 leaves");
        net.shutdown();
    }

    #[test]
    fn garbage_costs_only_its_connection_and_counts_once() {
        for shards in [1, 3] {
            // Shards {0..6} or {0, 1}, {2, 3}, {4, 5}: peer 0 is the first
            // peer of peer 1's shard either way, and it stops first, so no
            // live peer stands behind the shard's first id.
            let mut net = spawn(shards, 6);
            assert!(net.send_to(0, WireMsg::Shutdown));
            // Peer 1 shares peer 0's pump: its reply orders after the stop.
            assert_eq!(net.probe(1, 1, Duration::from_secs(5)), Some(true));
            let addr = addr_of(&net, 1);
            // A hostile or buggy client: a destination tag, then a length
            // prefix past MAX_FRAME; then a tag and a frame cut short.
            for garbage in [
                &[1, 0, 0, 0, 0xDE, 0xAD, 0xBE, 0xEF][..],
                &[1, 0, 0, 0, 9, 0, 0, 0, 1],
            ] {
                let mut s = TcpStream::connect(addr).unwrap();
                s.write_all(garbage).unwrap();
            }
            // The shard still serves: a publication through peer 1 delivers.
            let t = tree(2, vec![vec![2, 1, 3]]);
            let r = net.publish(&t, Bytes::from_static(b"ok"), Duration::from_secs(10));
            assert_eq!(r.delivered_to, HashSet::from([1, 3]), "{shards} shards");
            net.shutdown();
            // Each hostile connection was counted once, not dropped with the
            // stopped peer, and cost only itself.
            let snap = net.stats().snapshot();
            assert_eq!(
                (snap.garbage_frames, snap.codec_error_conns),
                (2, 2),
                "{snap:?}"
            );
        }
    }

    #[test]
    fn reset_session_is_reconnected_and_the_publication_delivers() {
        for shards in [1, 3] {
            let mut net = spawn(shards, 3);
            let t = tree(0, vec![vec![0, 1, 2]]);
            let r = net.publish(&t, Bytes::from_static(b"a"), Duration::from_secs(10));
            assert_eq!(r.delivered_to, HashSet::from([1, 2]));
            let sessions = net.workers() as u64;
            assert_eq!(net.stats().snapshot().reconnects, sessions, "one per shard");
            // Kill the session to peer 1's shard under the senders' feet.
            let slot = net.peers.0.shard(1).unwrap();
            let session = slot.session.lock().unwrap();
            let stream = session
                .stream
                .as_ref()
                .expect("peer 1's shard has a session");
            stream.shutdown(Shutdown::Both).unwrap();
            drop(session);
            // The next write there fails, reconnects and retries; nothing is
            // lost and only that one session is re-established.
            let r = net.publish(&t, Bytes::from_static(b"b"), Duration::from_secs(10));
            assert_eq!(r.delivered_to, HashSet::from([1, 2]));
            assert_eq!(r.retries, 0, "the retry is the link's, not the driver's");
            assert_eq!(net.stats().snapshot().reconnects, sessions + 1);
            net.shutdown();
        }
    }

    #[test]
    fn stranger_after_the_session_exists_costs_only_its_own_connection() {
        for shards in [1, 3] {
            let mut net = spawn(shards, 3);
            let t = tree(0, vec![vec![0, 1, 2]]);
            let r = net.publish(&t, Bytes::from_static(b"a"), Duration::from_secs(10));
            assert_eq!(r.delivered_to, HashSet::from([1, 2]));
            // Peer 1's shard is already reading its pooled session; a
            // stranger connecting now gets a reader of its own, which drops
            // it at its garbage (a tag outside every shard).
            let mut hostile = TcpStream::connect(addr_of(&net, 1)).unwrap();
            hostile
                .write_all(&[8, 0, 0, 0, 0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4])
                .unwrap();
            hostile
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            assert_eq!(
                hostile.read(&mut [0u8; 1]).unwrap(),
                0,
                "its connection is closed"
            );
            let r = net.publish(&t, Bytes::from_static(b"b"), Duration::from_secs(10));
            assert_eq!(r.delivered_to, HashSet::from([1, 2]));
            net.shutdown();
            let snap = net.stats().snapshot();
            assert_eq!((snap.garbage_frames, snap.codec_error_conns), (1, 1));
            assert_eq!(
                snap.reconnects,
                net.workers() as u64,
                "no session was disturbed"
            );
        }
    }

    #[test]
    fn peers_of_one_shard_share_one_loopback_address() {
        for shards in [1, 3] {
            // Shards {0..6} or {0, 1}, {2, 3}, {4, 5}.
            let net = spawn(shards, 6);
            let addrs: Vec<SocketAddr> = (0..6).map(|p| addr_of(&net, p)).collect();
            assert!(addrs.iter().all(|a| a.ip().is_loopback()));
            let span = 6 / net.workers();
            for (p, a) in addrs.iter().enumerate() {
                assert_eq!(*a, addrs[p - p % span], "peer {p} at {shards} shards");
            }
            let distinct: HashSet<_> = addrs.iter().collect();
            assert_eq!(distinct.len(), net.workers());
            assert_eq!(net.peer_addr(6), None);
        }
    }
}
