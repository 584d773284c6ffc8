//! Execution engines: synchronous supersteps and a discrete-event queue.
//!
//! [`SuperstepEngine`] reproduces the paper's Gelly/Flink vertex-centric
//! model: every round, each active vertex consumes the messages addressed to
//! it in the previous round and emits messages for the next. Delivery order
//! within a round is by sender index, so runs are bit-for-bit reproducible.
//!
//! [`EventQueue`] is a classic discrete-event scheduler (time-ordered heap
//! with a tie-breaking sequence number) used by the latency-aware realistic
//! experiments where message arrival times are continuous.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs one vertex, tagging any panic with its (shard, vertex) coordinates
/// so a poisoned vertex in a million-peer run is diagnosable from the abort
/// message alone — the re-raised payload is the formatted culprit string.
fn run_vertex_caught<R>(shard: usize, vertex: u32, f: impl FnOnce() -> R) -> R {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => panic!(
            "superstep shard {shard} panicked at vertex {vertex}: {}",
            panic_message(payload.as_ref())
        ),
    }
}

/// Per-shard scratch state owned by [`ShardArenas`]: reusable arenas handed
/// to superstep workers so the compute half allocates nothing per round.
pub trait ShardScratch: Default + Send {
    /// Called on each shard when an arena epoch begins (once per superstep),
    /// before the shard is handed to a worker. Implementations reset
    /// per-round accumulators here; epoch-stamped buffers can instead lazily
    /// invalidate entries against `epoch`.
    fn begin_epoch(&mut self, epoch: u64);
}

/// A pool of per-shard scratch arenas, epoch-stamped so reuse across
/// supersteps needs no O(n) clearing. Call [`ShardArenas::begin`] at the top
/// of each superstep to obtain `count` freshly-stamped shards; after the
/// step, merge shard accumulators **in shard order** at the apply barrier
/// via [`ShardArenas::active`] — that order is what keeps commutative
/// accumulators bit-identical across thread counts.
#[derive(Clone, Debug, Default)]
pub struct ShardArenas<S> {
    epoch: u64,
    active: usize,
    shards: Vec<S>,
}

impl<S: ShardScratch> ShardArenas<S> {
    /// An empty arena pool at epoch 0.
    pub fn new() -> Self {
        ShardArenas {
            epoch: 0,
            active: 0,
            shards: Vec::new(),
        }
    }

    /// Current epoch (0 before the first `begin`).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Starts a new epoch and hands out `count` stamped shards. Shards are
    /// grown on demand and retained across epochs, so steady-state rounds
    /// reuse the same allocations.
    pub fn begin(&mut self, count: usize) -> &mut [S] {
        let count = count.max(1);
        self.epoch += 1;
        if self.shards.len() < count {
            self.shards.resize_with(count, S::default);
        }
        self.active = count;
        let epoch = self.epoch;
        let shards = &mut self.shards[..count];
        for s in shards.iter_mut() {
            s.begin_epoch(epoch);
        }
        shards
    }

    /// The shards handed out by the most recent `begin`, for merging at the
    /// apply barrier.
    pub fn active(&self) -> &[S] {
        &self.shards[..self.active]
    }
}

/// Synchronous vertex-centric message-passing engine.
///
/// `M` is the message type. Vertices are dense `u32` ids. The engine owns
/// only the mailboxes; vertex state lives with the caller, keeping the engine
/// reusable across SELECT and the baselines.
#[derive(Clone, Debug)]
pub struct SuperstepEngine<M> {
    inboxes: Vec<Vec<M>>,
    outboxes: Vec<(u32, M)>,
    round: usize,
    messages_sent_total: u64,
}

impl<M> SuperstepEngine<M> {
    /// Engine for `n` vertices.
    pub fn new(n: usize) -> Self {
        SuperstepEngine {
            inboxes: (0..n).map(|_| Vec::new()).collect(),
            outboxes: Vec::new(),
            round: 0,
            messages_sent_total: 0,
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.inboxes.len()
    }

    /// True if the engine has no vertices.
    pub fn is_empty(&self) -> bool {
        self.inboxes.is_empty()
    }

    /// Current round number (0 before the first `step`).
    pub fn round(&self) -> usize {
        self.round
    }

    /// Total messages sent since construction.
    pub fn messages_sent_total(&self) -> u64 {
        self.messages_sent_total
    }

    /// Queues a message from the current round to vertex `to` for delivery
    /// next round.
    pub fn send(&mut self, to: u32, msg: M) {
        debug_assert!((to as usize) < self.inboxes.len());
        self.outboxes.push((to, msg));
        self.messages_sent_total += 1;
    }

    /// Runs one superstep: delivers last round's messages by calling
    /// `vertex_fn(vertex, messages, engine)` for every vertex that has mail
    /// or when `run_all` demands every vertex be ticked.
    ///
    /// Returns the number of messages delivered this round.
    pub fn step(
        &mut self,
        run_all: bool,
        mut vertex_fn: impl FnMut(u32, Vec<M>, &mut Self),
    ) -> usize {
        // Swap the pending sends into the inboxes.
        let pending = std::mem::take(&mut self.outboxes);
        let delivered = pending.len();
        for (to, msg) in pending {
            self.inboxes[to as usize].push(msg);
        }
        self.round += 1;
        for v in 0..self.inboxes.len() as u32 {
            let mail = std::mem::take(&mut self.inboxes[v as usize]);
            if run_all || !mail.is_empty() {
                vertex_fn(v, mail, self);
            }
        }
        delivered
    }

    /// [`SuperstepEngine::step`]`(false, ..)` for an apply half whose pending
    /// mail is ordered by destination — self-addressed proposals merged in
    /// vertex order: hands each message to `vertex_fn(vertex, message)`
    /// straight from the outbox, so no per-vertex inbox is allocated. Same
    /// delivery order, round count and return value as `step`.
    ///
    /// # Panics
    /// Panics if the pending mail is not ordered by destination.
    pub fn drain(&mut self, mut vertex_fn: impl FnMut(u32, M)) -> usize {
        let pending = std::mem::take(&mut self.outboxes);
        assert!(
            pending.windows(2).all(|w| w[0].0 <= w[1].0),
            "drain needs mail ordered by destination"
        );
        self.round += 1;
        let delivered = pending.len();
        for (to, msg) in pending {
            vertex_fn(to, msg);
        }
        delivered
    }

    /// Whether any message is queued for the next round.
    pub fn has_pending(&self) -> bool {
        !self.outboxes.is_empty()
    }
}

impl<M: Send> SuperstepEngine<M> {
    /// Parallel superstep: vertices are sharded across `threads` crossbeam
    /// scoped threads; each vertex may read shared state and emit messages
    /// through its shard-local outbox. Outboxes are merged **in vertex
    /// order**, so the observable behaviour is bit-identical to
    /// [`SuperstepEngine::step`] when the vertex function is deterministic
    /// and only writes through the outbox.
    ///
    /// Unlike `step`, the vertex function receives no `&mut Self` — state it
    /// mutates must be vertex-partitioned by the caller (e.g. a slice of
    /// per-vertex cells) to stay data-race free.
    ///
    /// With `threads <= 1` the superstep runs inline on the calling thread —
    /// no scope or spawn overhead — through the exact same code path a
    /// single shard would take, so `threads = 1` remains the reference
    /// behaviour larger counts must reproduce.
    pub fn step_parallel(
        &mut self,
        run_all: bool,
        threads: usize,
        vertex_fn: impl Fn(u32, Vec<M>, &mut Vec<(u32, M)>) + Sync,
    ) -> usize {
        let pending = std::mem::take(&mut self.outboxes);
        let delivered = pending.len();
        for (to, msg) in pending {
            self.inboxes[to as usize].push(msg);
        }
        self.round += 1;

        let n = self.inboxes.len();
        let threads = threads.clamp(1, n.max(1));
        if threads == 1 {
            let mut out: Vec<(u32, M)> = Vec::new();
            for v in 0..n as u32 {
                let mail = std::mem::take(&mut self.inboxes[v as usize]);
                if run_all || !mail.is_empty() {
                    run_vertex_caught(0, v, || vertex_fn(v, mail, &mut out));
                }
            }
            for (to, msg) in out {
                self.send(to, msg);
            }
            return delivered;
        }
        let chunk = n.div_ceil(threads);
        // Take the inboxes out so shards own their slices.
        let mut inboxes = std::mem::take(&mut self.inboxes);
        let mut shard_outboxes: Vec<Vec<(u32, M)>> = Vec::with_capacity(threads);
        let mut worker_panic: Option<Box<dyn std::any::Any + Send>> = None;

        crossbeam::scope(|scope| {
            let handles: Vec<_> = inboxes
                .chunks_mut(chunk.max(1))
                .enumerate()
                .map(|(shard, slice)| {
                    let vertex_fn = &vertex_fn;
                    scope.spawn(move |_| {
                        let mut out: Vec<(u32, M)> = Vec::new();
                        for (i, mail) in slice.iter_mut().enumerate() {
                            let v = (shard * chunk + i) as u32;
                            let mail = std::mem::take(mail);
                            if run_all || !mail.is_empty() {
                                run_vertex_caught(shard, v, || vertex_fn(v, mail, &mut out));
                            }
                        }
                        out
                    })
                })
                .collect();
            // Join every handle before leaving the scope; the first worker
            // panic is re-raised outside it with its culprit tag intact.
            for h in handles {
                match h.join() {
                    Ok(out) => shard_outboxes.push(out),
                    Err(payload) => {
                        worker_panic.get_or_insert(payload);
                    }
                }
            }
        })
        .expect("superstep scope failed");
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }

        self.inboxes = inboxes;
        // Deterministic merge: shards are already in vertex order.
        for out in shard_outboxes {
            for (to, msg) in out {
                self.send(to, msg);
            }
        }
        delivered
    }

    /// [`SuperstepEngine::step_parallel`] with per-worker shard state: worker
    /// `i` receives exclusive `&mut shards[i]` alongside its vertices, so the
    /// compute half can accumulate side metrics (histograms, counters)
    /// without any shared mutable state. The worker count is
    /// `shards.len()` (clamped to the vertex count); the caller merges the
    /// shards **in shard order** after this returns — the superstep apply
    /// barrier — which keeps any commutative accumulator bit-identical
    /// across thread counts.
    ///
    /// # Panics
    /// Panics if `shards` is empty.
    pub fn step_parallel_sharded<S: Send>(
        &mut self,
        run_all: bool,
        shards: &mut [S],
        vertex_fn: impl Fn(u32, Vec<M>, &mut Vec<(u32, M)>, &mut S) + Sync,
    ) -> usize {
        assert!(!shards.is_empty(), "need at least one shard");
        let pending = std::mem::take(&mut self.outboxes);
        let delivered = pending.len();
        for (to, msg) in pending {
            self.inboxes[to as usize].push(msg);
        }
        self.round += 1;

        let n = self.inboxes.len();
        let threads = shards.len().clamp(1, n.max(1));
        if threads == 1 {
            let mut out: Vec<(u32, M)> = Vec::new();
            for v in 0..n as u32 {
                let mail = std::mem::take(&mut self.inboxes[v as usize]);
                if run_all || !mail.is_empty() {
                    run_vertex_caught(0, v, || vertex_fn(v, mail, &mut out, &mut shards[0]));
                }
            }
            for (to, msg) in out {
                self.send(to, msg);
            }
            return delivered;
        }
        let chunk = n.div_ceil(threads);
        let mut inboxes = std::mem::take(&mut self.inboxes);
        let mut shard_outboxes: Vec<Vec<(u32, M)>> = Vec::with_capacity(threads);
        let mut worker_panic: Option<Box<dyn std::any::Any + Send>> = None;

        crossbeam::scope(|scope| {
            let handles: Vec<_> = inboxes
                .chunks_mut(chunk.max(1))
                .zip(shards.iter_mut())
                .enumerate()
                .map(|(shard, (slice, state))| {
                    let vertex_fn = &vertex_fn;
                    scope.spawn(move |_| {
                        let mut out: Vec<(u32, M)> = Vec::new();
                        for (i, mail) in slice.iter_mut().enumerate() {
                            let v = (shard * chunk + i) as u32;
                            let mail = std::mem::take(mail);
                            if run_all || !mail.is_empty() {
                                run_vertex_caught(shard, v, || vertex_fn(v, mail, &mut out, state));
                            }
                        }
                        out
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(out) => shard_outboxes.push(out),
                    Err(payload) => {
                        worker_panic.get_or_insert(payload);
                    }
                }
            }
        })
        .expect("superstep scope failed");
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }

        self.inboxes = inboxes;
        for out in shard_outboxes {
            for (to, msg) in out {
                self.send(to, msg);
            }
        }
        delivered
    }

    /// [`SuperstepEngine::step_parallel_sharded`] with arena-managed shard
    /// state: begins a fresh epoch on `arenas`, hands each of the `threads`
    /// workers its stamped scratch shard, and runs the superstep. After this
    /// returns, merge accumulators from [`ShardArenas::active`] in shard
    /// order — the apply barrier — then apply with [`SuperstepEngine::step`].
    /// The arenas persist across rounds, so steady state allocates nothing.
    pub fn step_parallel_arena<S: ShardScratch>(
        &mut self,
        run_all: bool,
        threads: usize,
        arenas: &mut ShardArenas<S>,
        vertex_fn: impl Fn(u32, Vec<M>, &mut Vec<(u32, M)>, &mut S) + Sync,
    ) -> usize {
        let shards = arenas.begin(threads);
        self.step_parallel_sharded(run_all, shards, vertex_fn)
    }
}

/// A time-stamped event scheduler with stable FIFO tie-breaking.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    payloads: std::collections::BTreeMap<u64, (u64, E)>,
    seq: u64,
    now: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time 0.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            payloads: std::collections::BTreeMap::new(),
            seq: 0,
            now: 0,
        }
    }

    /// Current virtual time (time of the last popped event).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at absolute time `at` (must not precede `now`).
    ///
    /// # Panics
    /// Panics if `at < now` — causality violation.
    pub fn schedule(&mut self, at: u64, event: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        let id = self.seq;
        self.seq += 1;
        self.heap.push(Reverse((at, id)));
        self.payloads.insert(id, (at, event));
    }

    /// Pops the earliest event, advancing `now`.
    pub fn pop(&mut self) -> Option<(u64, E)> {
        let Reverse((at, id)) = self.heap.pop()?;
        self.now = at;
        let (_, e) = self.payloads.remove(&id).expect("payload exists");
        Some((at, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn superstep_delivers_next_round() {
        let mut eng: SuperstepEngine<u32> = SuperstepEngine::new(3);
        eng.send(1, 99);
        // Round 1: vertex 1 gets the message; it forwards to 2.
        let delivered = eng.step(false, |v, mail, eng| {
            assert_eq!(v, 1);
            assert_eq!(mail, vec![99]);
            eng.send(2, 100);
        });
        assert_eq!(delivered, 1);
        // Round 2: vertex 2 gets it.
        let mut seen = Vec::new();
        eng.step(false, |v, mail, _| seen.push((v, mail)));
        assert_eq!(seen, vec![(2, vec![100])]);
        assert_eq!(eng.round(), 2);
        assert_eq!(eng.messages_sent_total(), 2);
    }

    #[test]
    fn run_all_ticks_every_vertex() {
        let mut eng: SuperstepEngine<()> = SuperstepEngine::new(4);
        let mut ticked = Vec::new();
        eng.step(true, |v, _, _| ticked.push(v));
        assert_eq!(ticked, vec![0, 1, 2, 3]);
    }

    #[test]
    fn quiescence_detection() {
        let mut eng: SuperstepEngine<u8> = SuperstepEngine::new(2);
        eng.send(0, 1);
        assert!(eng.has_pending());
        eng.step(false, |_, _, _| {});
        assert!(!eng.has_pending());
    }

    #[test]
    fn drain_delivers_what_step_delivers() {
        // Self-addressed proposals from a ragged parallel compute half (some
        // vertices silent, some sending twice), applied both ways.
        let run = |drain: bool| {
            let mut eng: SuperstepEngine<u32> = SuperstepEngine::new(23);
            let mut seen = Vec::new();
            let mut delivered = Vec::new();
            for round in 0..3u32 {
                eng.step_parallel(true, 4, |v, _mail, out| {
                    for copy in 0..(v + round) % 3 {
                        out.push((v, 100 * round + 10 * v + copy));
                    }
                });
                delivered.push(if drain {
                    eng.drain(|v, m| seen.push((v, m)))
                } else {
                    eng.step(false, |v, mail, _| {
                        seen.extend(mail.into_iter().map(|m| (v, m)))
                    })
                });
            }
            (
                seen,
                delivered,
                eng.round(),
                eng.messages_sent_total(),
                eng.has_pending(),
            )
        };
        assert_eq!(run(true), run(false));
        assert!(!run(true).0.is_empty());
    }

    #[test]
    #[should_panic(expected = "ordered by destination")]
    fn drain_rejects_unordered_mail() {
        let mut eng: SuperstepEngine<()> = SuperstepEngine::new(4);
        eng.send(2, ());
        eng.send(1, ());
        eng.drain(|_, _| {});
    }

    #[test]
    fn parallel_step_matches_sequential() {
        // Ring-forwarding program: every vertex forwards (value + 1) to the
        // next vertex; deterministic, so both execution modes must agree.
        let n = 64usize;
        let run = |parallel: bool| -> Vec<(usize, u64)> {
            let mut eng: SuperstepEngine<u64> = SuperstepEngine::new(n);
            eng.send(0, 1);
            let mut trace = Vec::new();
            for round in 0..20 {
                if parallel {
                    eng.step_parallel(false, 4, |v, mail, out| {
                        for m in mail {
                            out.push(((v + 1) % n as u32, m + 1));
                        }
                    });
                } else {
                    eng.step(false, |v, mail, eng| {
                        for m in mail {
                            eng.send((v + 1) % n as u32, m + 1);
                        }
                    });
                }
                trace.push((round, eng.messages_sent_total()));
            }
            trace
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn parallel_step_fanout_deterministic_merge() {
        // Every vertex broadcasts to all; merge order must be vertex order,
        // making repeated runs identical.
        let n = 16usize;
        let run = || -> Vec<u32> {
            let mut eng: SuperstepEngine<u32> = SuperstepEngine::new(n);
            for v in 0..n as u32 {
                eng.send(v, v);
            }
            eng.step_parallel(false, 3, |v, _mail, out| {
                for t in 0..n as u32 {
                    out.push((t, v));
                }
            });
            // Inspect delivery order next round.
            let mut seen = Vec::new();
            eng.step(false, |_, mail, _| seen.extend(mail));
            seen
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn parallel_step_run_all_covers_every_vertex() {
        let mut eng: SuperstepEngine<()> = SuperstepEngine::new(10);
        let hits = std::sync::atomic::AtomicUsize::new(0);
        eng.step_parallel(true, 4, |_, _, _| {
            hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(hits.into_inner(), 10);
    }

    #[test]
    fn compute_apply_handoff_thread_sweep() {
        // Model of the gossip round's compute→apply handoff (the pattern the
        // SELECT round loop relies on for bit-identical runs): the compute
        // half reads a shared snapshot immutably across shards and proposes
        // updates through the outbox; the apply half mutates state in vertex
        // order on the calling thread and feeds mail into the next round.
        // The full observable trace — final state, every applied mutation in
        // order, and the message count — must be identical at every thread
        // count, including ragged shard boundaries (37 % {2, 3, 8} != 0).
        let n = 37usize;
        let run = |threads: usize| -> (Vec<u64>, Vec<(u32, u64)>, u64) {
            let mut state: Vec<u64> = (0..n as u64).map(|v| v.wrapping_mul(0x9e37_79b9)).collect();
            let mut eng: SuperstepEngine<u64> = SuperstepEngine::new(n);
            let mut trace: Vec<(u32, u64)> = Vec::new();
            for round in 0..12u64 {
                let snapshot = &state;
                // Compute: a pure function of the snapshot and this round's
                // mail, fanned out over `threads` shards.
                eng.step_parallel(true, threads, |v, mail, out| {
                    let left = snapshot[(v as usize + n - 1) % n];
                    let right = snapshot[(v as usize + 1) % n];
                    let inbox: u64 = mail.iter().fold(0u64, |a, &m| a.wrapping_add(m));
                    let proposal = snapshot[v as usize]
                        ^ left.wrapping_mul(3)
                        ^ right.rotate_left(7)
                        ^ inbox
                        ^ round;
                    out.push((v, proposal));
                    if proposal.is_multiple_of(3) {
                        out.push(((v + 5) % n as u32, proposal));
                    }
                });
                // Apply: sequential, in vertex order; occasionally emits
                // mail for the next round's compute half.
                eng.step(false, |v, mail, eng| {
                    for m in mail {
                        state[v as usize] = state[v as usize].wrapping_add(m).rotate_left(13);
                        trace.push((v, state[v as usize]));
                        if m.is_multiple_of(7) {
                            eng.send((v + 1) % n as u32, m >> 1);
                        }
                    }
                });
            }
            (state, trace, eng.messages_sent_total())
        };
        let reference = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), reference, "threads={threads} diverged");
        }
    }

    #[test]
    fn sharded_step_accumulators_merge_identically_across_thread_counts() {
        // Each worker folds per-vertex values into its own shard; merging the
        // shards in shard order must give the same totals (and the same
        // message trace) for every worker count, ragged boundaries included.
        let n = 29usize;
        let run = |threads: usize| -> (Vec<u64>, u64) {
            let mut eng: SuperstepEngine<u64> = SuperstepEngine::new(n);
            let mut merged: Vec<u64> = Vec::new();
            for round in 0..5u64 {
                let mut shards: Vec<Vec<u64>> = vec![Vec::new(); threads];
                eng.step_parallel_sharded(true, &mut shards, |v, _mail, out, acc| {
                    acc.push((v as u64).wrapping_mul(round + 1));
                    if v.is_multiple_of(3) {
                        out.push(((v + 1) % n as u32, round));
                    }
                });
                // Apply barrier: merge in shard order.
                for s in shards {
                    merged.extend(s);
                }
            }
            (merged, eng.messages_sent_total())
        };
        let reference = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), reference, "threads={threads} diverged");
        }
    }

    /// Shard state used by the arena tests: counts vertices seen this epoch
    /// and remembers how often it was re-stamped.
    #[derive(Clone, Debug, Default)]
    struct CountShard {
        epoch: u64,
        epochs_seen: u64,
        seen: Vec<u32>,
    }

    impl ShardScratch for CountShard {
        fn begin_epoch(&mut self, epoch: u64) {
            self.epoch = epoch;
            self.epochs_seen += 1;
            self.seen.clear();
        }
    }

    #[test]
    fn poisoned_vertex_panic_names_shard_and_vertex() {
        // A panic inside the compute half must surface the shard index and
        // the vertex id, not just "superstep shard panicked".
        let caught = std::panic::catch_unwind(|| {
            let mut eng: SuperstepEngine<()> = SuperstepEngine::new(32);
            eng.step_parallel(true, 4, |v, _mail, _out| {
                if v == 19 {
                    panic!("poisoned state");
                }
            });
        })
        .expect_err("the poisoned vertex must abort the superstep");
        let msg = panic_message(caught.as_ref());
        // 32 vertices over 4 shards → chunk 8, vertex 19 lives in shard 2.
        assert!(
            msg.contains("shard 2") && msg.contains("vertex 19") && msg.contains("poisoned state"),
            "panic message must name the culprit, got: {msg}"
        );
    }

    #[test]
    fn poisoned_vertex_panic_names_culprit_inline_and_sharded() {
        // Same contract on the threads=1 inline path and the sharded variant.
        let inline = std::panic::catch_unwind(|| {
            let mut eng: SuperstepEngine<()> = SuperstepEngine::new(4);
            eng.step_parallel(true, 1, |v, _mail, _out| {
                if v == 3 {
                    panic!("inline poison");
                }
            });
        })
        .expect_err("inline superstep must abort");
        let msg = panic_message(inline.as_ref());
        assert!(
            msg.contains("vertex 3") && msg.contains("inline poison"),
            "inline panic must name the vertex, got: {msg}"
        );

        let sharded = std::panic::catch_unwind(|| {
            let mut eng: SuperstepEngine<()> = SuperstepEngine::new(12);
            let mut shards: Vec<Vec<u32>> = vec![Vec::new(); 3];
            eng.step_parallel_sharded(true, &mut shards, |v, _mail, _out, _s| {
                if v == 9 {
                    panic!("sharded poison");
                }
            });
        })
        .expect_err("sharded superstep must abort");
        let msg = panic_message(sharded.as_ref());
        // 12 vertices over 3 shards → chunk 4, vertex 9 lives in shard 2.
        assert!(
            msg.contains("shard 2") && msg.contains("vertex 9") && msg.contains("sharded poison"),
            "sharded panic must name the culprit, got: {msg}"
        );
    }

    #[test]
    fn arena_superstep_thread_sweep_is_deterministic() {
        // The per-shard-arena superstep must produce the same merged
        // accumulator trace and message totals at every worker count,
        // with arenas persisting (and re-stamping) across rounds.
        let n = 41usize;
        let run = |threads: usize| -> (Vec<u32>, u64, u64) {
            let mut eng: SuperstepEngine<u64> = SuperstepEngine::new(n);
            let mut arenas: ShardArenas<CountShard> = ShardArenas::new();
            let mut merged: Vec<u32> = Vec::new();
            for round in 0..6u64 {
                eng.step_parallel_arena(true, threads, &mut arenas, |v, _mail, out, s| {
                    assert_eq!(s.epoch, round + 1, "stale shard epoch");
                    s.seen.push(v);
                    if v.is_multiple_of(5) {
                        out.push(((v + 7) % n as u32, round));
                    }
                });
                // Apply barrier: merge shard accumulators in shard order.
                for s in arenas.active() {
                    merged.extend_from_slice(&s.seen);
                }
                eng.step(false, |_v, _mail, _eng| {});
            }
            (merged, eng.messages_sent_total(), arenas.epoch())
        };
        let reference = run(1);
        // Every vertex appears exactly once per round in the merged trace.
        assert_eq!(reference.0.len(), n * 6);
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), reference, "threads={threads} diverged");
        }
    }

    #[test]
    fn arena_shards_are_reused_and_restamped() {
        let mut arenas: ShardArenas<CountShard> = ShardArenas::new();
        assert_eq!(arenas.epoch(), 0);
        let shards = arenas.begin(3);
        assert_eq!(shards.len(), 3);
        assert!(shards.iter().all(|s| s.epoch == 1 && s.epochs_seen == 1));
        // Shrinking the active count keeps the extra shard allocated but
        // outside the active window; growing re-stamps everything.
        let shards = arenas.begin(2);
        assert_eq!(shards.len(), 2);
        assert_eq!(arenas.active().len(), 2);
        let shards = arenas.begin(4);
        assert_eq!(shards.len(), 4);
        // The first two shards were stamped in all three epochs, the third
        // in two, the fourth only in the last.
        assert_eq!(shards[0].epochs_seen, 3);
        assert_eq!(shards[2].epochs_seen, 2);
        assert_eq!(shards[3].epochs_seen, 1);
        assert_eq!(arenas.epoch(), 3);
        // begin(0) still hands out one shard: a superstep needs a worker.
        assert_eq!(arenas.begin(0).len(), 1);
    }

    #[test]
    fn event_queue_orders_by_time_then_fifo() {
        let mut q: EventQueue<&str> = EventQueue::new();
        q.schedule(10, "b");
        q.schedule(5, "a");
        q.schedule(10, "c");
        assert_eq!(q.pop(), Some((5, "a")));
        assert_eq!(q.now(), 5);
        assert_eq!(q.pop(), Some((10, "b")), "FIFO within equal times");
        assert_eq!(q.pop(), Some((10, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule(10, ());
        q.pop();
        q.schedule(5, ());
    }

    #[test]
    fn interleaved_scheduling() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule(1, 1);
        let (t, e) = q.pop().unwrap();
        assert_eq!((t, e), (1, 1));
        q.schedule(3, 3);
        q.schedule(2, 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.is_empty());
    }
}
