//! Offline shim for the `crossbeam` crate.
//!
//! Provides the two pieces this workspace uses — `crossbeam::channel`
//! (unbounded MPMC channels) and `crossbeam::scope` (scoped threads) — on
//! top of `std::sync` and `std::thread::scope`, with the crossbeam 0.8 call
//! signatures so callers compile unchanged.

pub mod channel {
    //! Unbounded MPMC channel built on `Mutex<VecDeque>` + `Condvar`.

    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Inner<T> {
        queue: Mutex<Queue<T>>,
        ready: Condvar,
    }

    struct Queue<T> {
        items: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    /// Error on `send` to a channel with no remaining receivers.
    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// Error on `recv` from an empty, sender-less channel.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error on `try_recv`.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Channel is currently empty.
        Empty,
        /// All senders are gone and the buffer is drained.
        Disconnected,
    }

    /// Error on `recv_timeout`.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the deadline.
        Timeout,
        /// All senders are gone and the buffer is drained.
        Disconnected,
    }

    /// Sending half; cloneable.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// Receiving half; cloneable (messages go to exactly one receiver).
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            queue: Mutex::new(Queue {
                items: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            ready: Condvar::new(),
        });
        (
            Sender {
                inner: Arc::clone(&inner),
            },
            Receiver { inner },
        )
    }

    impl<T> Sender<T> {
        /// Enqueues `msg`; fails only when every receiver is dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut q = self.inner.queue.lock().unwrap();
            if q.receivers == 0 {
                return Err(SendError(msg));
            }
            q.items.push_back(msg);
            drop(q);
            self.inner.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.queue.lock().unwrap().senders += 1;
            Sender {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut q = self.inner.queue.lock().unwrap();
            q.senders -= 1;
            if q.senders == 0 {
                drop(q);
                self.inner.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or all senders disconnect.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = self.inner.queue.lock().unwrap();
            loop {
                if let Some(item) = q.items.pop_front() {
                    return Ok(item);
                }
                if q.senders == 0 {
                    return Err(RecvError);
                }
                q = self.inner.ready.wait(q).unwrap();
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut q = self.inner.queue.lock().unwrap();
            if let Some(item) = q.items.pop_front() {
                Ok(item)
            } else if q.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Blocks up to `timeout` for a message.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.recv_deadline(Instant::now() + timeout)
        }

        /// Blocks until `deadline` at most for a message.
        pub fn recv_deadline(&self, deadline: Instant) -> Result<T, RecvTimeoutError> {
            let mut q = self.inner.queue.lock().unwrap();
            loop {
                if let Some(item) = q.items.pop_front() {
                    return Ok(item);
                }
                if q.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _res) = self.inner.ready.wait_timeout(q, deadline - now).unwrap();
                q = guard;
            }
        }

        /// Blocking iterator that ends when all senders disconnect.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.inner.queue.lock().unwrap().receivers += 1;
            Receiver {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.inner.queue.lock().unwrap().receivers -= 1;
        }
    }

    /// Iterator over received messages (see [`Receiver::iter`]).
    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }
}

/// Scoped-thread handle mirroring `crossbeam::thread::Scope`: `spawn`
/// passes the scope back into the closure so nested spawns work.
#[derive(Clone, Copy)]
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

/// Join handle for a thread spawned inside [`scope`].
pub struct ScopedJoinHandle<'scope, T> {
    inner: std::thread::ScopedJoinHandle<'scope, T>,
}

impl<T> ScopedJoinHandle<'_, T> {
    /// Waits for the thread and returns its result (`Err` on panic).
    pub fn join(self) -> std::thread::Result<T> {
        self.inner.join()
    }
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a thread bound to the scope; the closure receives the scope
    /// (crossbeam convention — callers typically ignore it with `|_|`).
    pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
    where
        F: FnOnce(Scope<'scope, 'env>) -> T + Send + 'scope,
        T: Send + 'scope,
    {
        let scope = *self;
        ScopedJoinHandle {
            inner: self.inner.spawn(move || f(scope)),
        }
    }
}

/// Runs `f` with a thread scope; all spawned threads are joined before this
/// returns. The `Result` mirrors crossbeam: `Err` carries the panic payload
/// of the closure itself (unjoined-thread panics propagate as in std).
pub fn scope<'env, F, R>(f: F) -> std::thread::Result<R>
where
    F: for<'scope> FnOnce(Scope<'scope, 'env>) -> R,
{
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        std::thread::scope(|s| f(Scope { inner: s }))
    }))
}

pub mod thread {
    //! Alias module so `crossbeam::thread::scope` also resolves.
    pub use super::{scope, Scope, ScopedJoinHandle};
}

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, RecvTimeoutError, TryRecvError};
    use std::time::Duration;

    #[test]
    fn channel_roundtrip_fifo() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn disconnect_surfaces() {
        let (tx, rx) = unbounded::<u32>();
        tx.send(9).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(9));
        assert!(rx.recv().is_err());
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn timeout_elapses() {
        let (_tx, rx) = unbounded::<u32>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
    }

    #[test]
    fn cross_thread_delivery() {
        let (tx, rx) = unbounded();
        let h = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let got: Vec<u32> = rx.iter().collect();
        h.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn scope_joins_and_returns() {
        let data = [1u64, 2, 3, 4];
        let total = super::scope(|s| {
            let handles: Vec<_> = data
                .chunks(2)
                .map(|c| s.spawn(move |_| c.iter().sum::<u64>()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
        })
        .unwrap();
        assert_eq!(total, 10);
    }

    #[test]
    fn scope_propagates_panic_as_err() {
        let r = super::scope(|s| {
            let h = s.spawn(|_| panic!("boom"));
            h.join()
        })
        .unwrap();
        assert!(r.is_err());
    }
}
