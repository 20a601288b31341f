//! Multi-producer queues for rank-directed traffic.
//!
//! Two users: the per-rank active-message mailboxes ([`MpQueue<AmMsg>`])
//! and the per-rank **ready-notification queues** ([`ReadyQueue`]) that the
//! signal-driven completion engine routes completion tokens through. Any
//! thread may push; only the owning rank's thread drains (during its
//! progress quantum), so push order — which for ready tokens is signal
//! order — is exactly the order the owner observes.
//!
//! A `Mutex<VecDeque>` is deliberately chosen over a lock-free list: the
//! critical sections are a handful of instructions, the queue must be
//! drainable in FIFO order with an exact length (quiescence accounting),
//! and the workspace builds offline with `std` only.
//!
//! # Emptiness mirror
//!
//! Every progress quantum polls its rank's AM mailbox and ready queue, and
//! almost every poll finds them empty. So each queue keeps an atomic copy
//! of its length, stored while the lock is held; `pop`, `drain_into`,
//! `len` and `is_empty` read the mirror and take the lock only when it is
//! nonzero. The mirror is exact in lock order: a push that completed
//! before the poll (in happens-before order) is always seen.
//!
//! The type is cache-line aligned. The owner's lock-free reads would
//! otherwise share a line with whatever the allocator put next to the
//! queue — another rank's queue, or a peer's hot counters — and every push
//! there would invalidate the idle poller's copy (false sharing).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// An unbounded multi-producer FIFO queue drained by a single owner.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct MpQueue<T> {
    q: Mutex<VecDeque<T>>,
    /// `q.len()` as of the last store under the lock (see the module docs).
    len: AtomicUsize,
}

const _: () = assert!(
    std::mem::align_of::<MpQueue<u64>>() >= 64,
    "see the module docs"
);

impl<T> MpQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        MpQueue {
            q: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
        }
    }

    /// Append `v` (any thread).
    pub fn push(&self, v: T) {
        let mut q = self.q.lock().unwrap();
        q.push_back(v);
        self.len.store(q.len(), Ordering::Release);
    }

    /// Remove and return the oldest entry.
    pub fn pop(&self) -> Option<T> {
        if self.is_empty() {
            return None;
        }
        let mut q = self.q.lock().unwrap();
        let v = q.pop_front();
        self.len.store(q.len(), Ordering::Release);
        v
    }

    /// Move every entry present *now* into `out`, preserving FIFO order.
    /// Entries pushed while the drained batch is being processed are left
    /// for the next drain — the property that bounds one progress quantum.
    pub fn drain_into(&self, out: &mut Vec<T>) -> usize {
        if self.is_empty() {
            return 0;
        }
        let mut q = self.q.lock().unwrap();
        let n = q.len();
        out.extend(q.drain(..));
        self.len.store(0, Ordering::Release);
        n
    }

    /// Number of queued entries (exact at quiescence, approximate under
    /// concurrent pushes). Lock-free.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether the queue is empty (same caveat as [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A per-rank ready-notification queue: completion tokens deposited by
/// whichever thread signals an event, drained FIFO by the owning rank.
///
/// The token is an opaque `u64` minted by the initiating rank when it
/// registers an event waiter; the rank maps it back to the registered
/// notification callback when the token surfaces here.
pub type ReadyQueue = MpQueue<u64>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_preserved() {
        let q = MpQueue::new();
        for i in 0..10u64 {
            q.push(i);
        }
        let mut out = Vec::new();
        assert_eq!(q.drain_into(&mut out), 10);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert!(q.is_empty());
    }

    #[test]
    fn drain_is_bounded_to_present_entries() {
        let q = MpQueue::new();
        q.push(1u64);
        q.push(2);
        let mut out = Vec::new();
        q.drain_into(&mut out);
        q.push(3); // arrives "during processing"
        assert_eq!(out, vec![1, 2]);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn concurrent_pushes_all_arrive() {
        let q = Arc::new(MpQueue::new());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    q.push(t * 1000 + i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut out = Vec::new();
        q.drain_into(&mut out);
        out.sort_unstable();
        assert_eq!(out, (0..4000).collect::<Vec<_>>());
    }

    #[test]
    fn length_mirror_is_exact_after_concurrent_producers() {
        // K producers race pushes against an owner that pops and drains
        // through the lock-free emptiness check. After the joins the mirror
        // must equal what one more drain actually returns, and read empty
        // after it: a stale zero would strand entries, a stale nonzero
        // would make quiescence sampling spin forever.
        const K: u64 = 4;
        const PER: u64 = 2000;
        let q = Arc::new(MpQueue::new());
        let producers: Vec<_> = (0..K)
            .map(|t| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..PER {
                        q.push(t * PER + i);
                        if i % 64 == 0 {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let mut seen = Vec::new();
        while seen.len() < (K * PER / 2) as usize {
            if let Some(v) = q.pop() {
                seen.push(v);
            }
            q.drain_into(&mut seen);
        }
        for p in producers {
            p.join().unwrap();
        }
        let queued = q.len();
        let drained = q.drain_into(&mut seen);
        assert_eq!(queued, drained, "the mirror matches the locked length");
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        seen.sort_unstable();
        assert_eq!(seen, (0..K * PER).collect::<Vec<_>>());
    }

    #[test]
    fn empty_queue_never_takes_the_lock() {
        // The idle-poll fast path: with the lock held elsewhere (a producer
        // mid-push), polling an empty queue still returns at once.
        let q = Arc::new(MpQueue::<u64>::new());
        let held = q.q.lock().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let q2 = Arc::clone(&q);
        std::thread::spawn(move || {
            let polled = (q2.pop(), q2.drain_into(&mut Vec::new()), q2.len());
            tx.send(polled).unwrap();
        });
        let polled = rx.recv_timeout(std::time::Duration::from_secs(10));
        drop(held);
        assert_eq!(polled, Ok((None, 0, 0)), "an idle poll blocked on the lock");
    }
}
