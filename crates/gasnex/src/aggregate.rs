//! Sender-side message aggregation for fine-grained operations.
//!
//! The paper's GUPS chapter shows per-message overhead dominating
//! fine-grained remote atomics; the standard PGAS remedy is sender-side
//! coalescing. This module packs fine-grained puts and non-fetching
//! atomics headed for the same target into one batch message on the
//! [`NetCore`], while preserving completion semantics exactly: each
//! constituent op keeps its own completion object (and trace span — the
//! `tag` threaded through [`Coalescer::push`]), and the batch's single
//! delivery action fans out to the constituents in push order.
//!
//! A batch is one logical wire message, so the chaos fault plan operates
//! on whole batches: a drop re-arms the retransmission timer carrying the
//! batch payload, a duplicate duplicates the batch, and reorder shifts the
//! batch's due time. Nothing in the reliability layer distinguishes a
//! batch from a single-op message.
//!
//! # Flush policy
//!
//! Three triggers, each counted separately in [`crate::NetStats`]:
//!
//! * **Size** — a bucket reaching `flush_ops` buffered operations flushes
//!   inside the initiating call ([`Push::Flushed`]).
//! * **Age** — [`Coalescer::flush_due`] flushes buckets whose oldest op
//!   has waited at least `max_age_ns` on the network clock; the runtime
//!   calls it from every progress quantum, so `max_age_ns == 0` means
//!   "flush at the next progress call".
//! * **Explicit** — [`Coalescer::flush_all`] drains everything; barriers
//!   and quiescence use it so no op can linger across a synchronization
//!   point.
//!
//! # Backpressure
//!
//! Each target tracks its in-flight (injected, not yet delivered) batch
//! count. When a bucket is empty and the target already has
//! `max_inflight` batches on the wire, the buffer is *closed*: the op
//! bypasses aggregation and is injected immediately ([`Push::Bypassed`]),
//! bounding the burst a single target can have queued behind one poll.

use std::mem;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::conduit::NetCore;
use crate::net::NetAction;
use crate::rank::Rank;

/// Why a batch left its buffer. Also recorded on the runtime's
/// `BatchFlush` trace events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushReason {
    /// The bucket reached the configured size threshold.
    Size,
    /// The bucket's oldest op exceeded the age timeout.
    Age,
    /// An explicit flush (barrier, quiescence, or user request).
    Explicit,
}

impl FlushReason {
    pub fn name(self) -> &'static str {
        match self {
            FlushReason::Size => "size",
            FlushReason::Age => "age",
            FlushReason::Explicit => "explicit",
        }
    }
}

/// Aggregation knob carried by [`crate::GasnexConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AggConfig {
    /// Master switch; disabled costs one branch per initiation.
    pub enabled: bool,
    /// Size threshold: a bucket flushes when it holds this many ops.
    pub flush_ops: usize,
    /// Age timeout on the network clock; 0 flushes at the next progress
    /// quantum.
    pub max_age_ns: u64,
    /// Per-target bound on injected-but-undelivered batches; at the bound
    /// new ops bypass the (closed) buffer.
    pub max_inflight: usize,
}

impl Default for AggConfig {
    fn default() -> Self {
        AggConfig {
            enabled: false,
            flush_ops: 16,
            max_age_ns: 0,
            max_inflight: 4,
        }
    }
}

impl AggConfig {
    /// Aggregation on, flushing every `flush_ops` operations.
    pub fn enabled(flush_ops: usize) -> Self {
        AggConfig {
            enabled: true,
            flush_ops,
            ..AggConfig::default()
        }
    }

    /// Override the age timeout.
    pub fn with_max_age_ns(mut self, ns: u64) -> Self {
        self.max_age_ns = ns;
        self
    }

    /// Override the per-target in-flight batch bound.
    pub fn with_max_inflight(mut self, n: usize) -> Self {
        self.max_inflight = n;
        self
    }

    /// Validate the knob, panicking with a descriptive message on
    /// nonsensical parameters.
    pub fn validate(&self) {
        if self.enabled {
            assert!(
                self.flush_ops >= 1,
                "gasnex: AggConfig.flush_ops must be at least 1"
            );
            assert!(
                self.max_inflight >= 1,
                "gasnex: AggConfig.max_inflight must be at least 1"
            );
        }
    }
}

/// Point-in-time view of one non-empty coalescer bucket, produced by
/// [`Coalescer::snapshot_buckets`] for the live-snapshot API.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BucketSnapshot {
    /// Target rank the bucket buffers operations for.
    pub target: u32,
    /// Operations currently buffered.
    pub occupancy: usize,
    /// Age of the oldest buffered op on the network clock (`now -
    /// opened_ns`, saturating).
    pub age_ns: u64,
    /// Batches injected for this target and not yet delivered.
    pub inflight: usize,
}

/// What [`Coalescer::push`] did with an operation.
pub enum Push<T> {
    /// Buffered; a later size/age/explicit flush will carry it.
    Buffered,
    /// The push crossed the size threshold and the bucket flushed.
    Flushed(Batch<T>),
    /// Backpressure: the target's buffer was closed, so the op was
    /// injected directly as its own message with this id.
    Bypassed { msg: u64 },
}

/// One flushed batch: the wire message id, how many ops it carries, why
/// it flushed, and the caller's per-op tags in push (= fan-out) order.
pub struct Batch<T> {
    pub msg: u64,
    pub ops: u32,
    pub reason: FlushReason,
    pub tags: Vec<T>,
}

struct Bucket<T> {
    ops: Vec<(NetAction, T)>,
    /// Network-clock time the oldest buffered op entered (valid while
    /// `ops` is non-empty).
    opened_ns: u64,
    /// Batches injected for this target and not yet delivered; shared
    /// with the in-flight batch actions, which decrement on delivery.
    inflight: Arc<AtomicUsize>,
}

/// Per-rank, per-target coalescing buffers. Single-threaded: lives in the
/// initiating rank's context, so pushes and flushes need no locking; only
/// the in-flight counters are shared with delivery actions.
pub struct Coalescer<T> {
    cfg: AggConfig,
    /// The initiating rank: the source half of every routed batch
    /// injection (socket transports pick the source node socket from it).
    me: Rank,
    buckets: Vec<Bucket<T>>,
}

impl<T: Copy> Coalescer<T> {
    /// Buffers for `ranks` possible targets under `cfg`, initiating from
    /// rank `me`.
    pub fn new(cfg: AggConfig, ranks: usize, me: Rank) -> Self {
        cfg.validate();
        Coalescer {
            cfg,
            me,
            buckets: (0..ranks)
                .map(|_| Bucket {
                    ops: Vec::new(),
                    opened_ns: 0,
                    inflight: Arc::new(AtomicUsize::new(0)),
                })
                .collect(),
        }
    }

    /// Buffer `action` for `target`, flushing on the size threshold or
    /// bypassing a closed buffer. `tag` rides along so the caller can
    /// correlate each op with the batch message that carried it.
    pub fn push(&mut self, target: usize, action: NetAction, tag: T, net: &NetCore) -> Push<T> {
        let route = Some((self.me, Rank(target as u32)));
        let b = &mut self.buckets[target];
        if b.ops.is_empty() && b.inflight.load(Ordering::SeqCst) >= self.cfg.max_inflight {
            return Push::Bypassed {
                msg: net.inject_to(route, action, false),
            };
        }
        if b.ops.is_empty() {
            b.opened_ns = net.now_ns();
        }
        b.ops.push((action, tag));
        net.note_agg_occupancy(b.ops.len());
        if b.ops.len() >= self.cfg.flush_ops {
            Push::Flushed(Self::flush_bucket(b, route, net, FlushReason::Size))
        } else {
            Push::Buffered
        }
    }

    /// Inject one batch message carrying every op buffered in `b`. The
    /// delivery action fans out to the constituents in push order, then
    /// releases the target's in-flight slot.
    fn flush_bucket(
        b: &mut Bucket<T>,
        route: Option<(Rank, Rank)>,
        net: &NetCore,
        reason: FlushReason,
    ) -> Batch<T> {
        let buffered = mem::take(&mut b.ops);
        let tags: Vec<T> = buffered.iter().map(|(_, t)| *t).collect();
        let actions: Vec<NetAction> = buffered.into_iter().map(|(a, _)| a).collect();
        let k = actions.len();
        let inflight = Arc::clone(&b.inflight);
        inflight.fetch_add(1, Ordering::SeqCst);
        let msg = net.inject_to(
            route,
            Box::new(move |w| {
                for a in actions {
                    a(w);
                }
                inflight.fetch_sub(1, Ordering::SeqCst);
            }),
            false,
        );
        net.note_batch(k as u64, reason);
        Batch {
            msg,
            ops: k as u32,
            reason,
            tags,
        }
    }

    /// Flush every bucket whose oldest op has aged past `max_age_ns` on
    /// the network clock (all non-empty buckets when the timeout is 0).
    pub fn flush_due(&mut self, net: &NetCore) -> Vec<Batch<T>> {
        let now = net.now_ns();
        let me = self.me;
        let mut out = Vec::new();
        for (target, b) in self.buckets.iter_mut().enumerate() {
            if !b.ops.is_empty() && now.saturating_sub(b.opened_ns) >= self.cfg.max_age_ns {
                let route = Some((me, Rank(target as u32)));
                out.push(Self::flush_bucket(b, route, net, FlushReason::Age));
            }
        }
        out
    }

    /// Flush every non-empty bucket regardless of age.
    pub fn flush_all(&mut self, net: &NetCore, reason: FlushReason) -> Vec<Batch<T>> {
        let me = self.me;
        let mut out = Vec::new();
        for (target, b) in self.buckets.iter_mut().enumerate() {
            if !b.ops.is_empty() {
                let route = Some((me, Rank(target as u32)));
                out.push(Self::flush_bucket(b, route, net, reason));
            }
        }
        out
    }

    /// Total operations currently buffered across all targets. Quiescence
    /// treats a non-empty coalescer as outstanding local work.
    pub fn buffered(&self) -> usize {
        self.buckets.iter().map(|b| b.ops.len()).sum()
    }

    /// Snapshot every bucket that holds buffered ops or in-flight batches,
    /// in ascending target order, against `now` on the network clock.
    pub fn snapshot_buckets(&self, now_ns: u64) -> Vec<BucketSnapshot> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(target, b)| {
                let inflight = b.inflight.load(Ordering::SeqCst);
                if b.ops.is_empty() && inflight == 0 {
                    return None;
                }
                Some(BucketSnapshot {
                    target: target as u32,
                    occupancy: b.ops.len(),
                    age_ns: if b.ops.is_empty() {
                        0
                    } else {
                        now_ns.saturating_sub(b.opened_ns)
                    },
                    inflight,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GasnexConfig, NetConfig};
    use crate::world::World;
    use std::sync::atomic::AtomicU64;

    fn quick_world() -> std::sync::Arc<World> {
        World::new(
            GasnexConfig::udp(2, 1)
                .with_segment_size(1 << 12)
                .with_net(NetConfig {
                    latency_ns: 0,
                    jitter_ns: 0,
                    ..NetConfig::default()
                }),
        )
    }

    fn marker(log: &Arc<std::sync::Mutex<Vec<u32>>>, i: u32) -> NetAction {
        let log = Arc::clone(log);
        Box::new(move |_| log.lock().unwrap().push(i))
    }

    #[test]
    fn size_threshold_flushes_one_batch_in_push_order() {
        let w = quick_world();
        let mut c: Coalescer<u32> = Coalescer::new(AggConfig::enabled(3), 2, Rank(0));
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        assert!(matches!(
            c.push(1, marker(&log, 0), 0, w.net()),
            Push::Buffered
        ));
        assert!(matches!(
            c.push(1, marker(&log, 1), 1, w.net()),
            Push::Buffered
        ));
        assert_eq!(c.buffered(), 2);
        let batch = match c.push(1, marker(&log, 2), 2, w.net()) {
            Push::Flushed(b) => b,
            _ => panic!("third push must cross the size threshold"),
        };
        assert_eq!(batch.ops, 3);
        assert_eq!(batch.reason, FlushReason::Size);
        assert_eq!(batch.tags, vec![0, 1, 2]);
        assert_eq!(c.buffered(), 0);
        // One wire message; fan-out happens at delivery, in push order.
        assert_eq!(w.net().injected(), 1);
        assert!(log.lock().unwrap().is_empty(), "no synchronous delivery");
        while w.net().pending() > 0 {
            w.net().poll(&w);
        }
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 2]);
        let s = w.net().stats();
        assert_eq!(s.batches_injected, 1);
        assert_eq!(s.ops_coalesced, 3);
        assert_eq!(s.flushes_size, 1);
        assert_eq!(s.agg_occupancy_highwater, 3);
    }

    #[test]
    fn age_and_explicit_flushes_count_separately() {
        let w = quick_world();
        let cfg = AggConfig::enabled(100).with_max_age_ns(0);
        let mut c: Coalescer<()> = Coalescer::new(cfg, 2, Rank(0));
        c.push(0, Box::new(|_| {}), (), w.net());
        let due = c.flush_due(w.net());
        assert_eq!(due.len(), 1, "max_age_ns = 0 flushes at the next call");
        assert_eq!(due[0].reason, FlushReason::Age);
        c.push(1, Box::new(|_| {}), (), w.net());
        let all = c.flush_all(w.net(), FlushReason::Explicit);
        assert_eq!(all.len(), 1);
        assert_eq!(c.buffered(), 0);
        assert!(c.flush_all(w.net(), FlushReason::Explicit).is_empty());
        while w.net().pending() > 0 {
            w.net().poll(&w);
        }
        let s = w.net().stats();
        assert_eq!(
            (s.flushes_age, s.flushes_explicit, s.flushes_size),
            (1, 1, 0)
        );
        assert_eq!(s.batches_injected, 2);
        assert_eq!(s.ops_coalesced, 2);
    }

    #[test]
    fn closed_buffer_bypasses_to_direct_injection() {
        let w = quick_world();
        let cfg = AggConfig::enabled(1).with_max_inflight(1);
        let mut c: Coalescer<()> = Coalescer::new(cfg, 2, Rank(0));
        let hit = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hit);
        // flush_ops = 1: the first push flushes immediately, occupying the
        // target's only in-flight slot until the batch delivers.
        assert!(matches!(
            c.push(1, Box::new(|_| {}), (), w.net()),
            Push::Flushed(_)
        ));
        let bypass = c.push(
            1,
            Box::new(move |_| {
                h.fetch_add(1, Ordering::Relaxed);
            }),
            (),
            w.net(),
        );
        assert!(
            matches!(bypass, Push::Bypassed { .. }),
            "a closed buffer must fall back to immediate injection"
        );
        while w.net().pending() > 0 {
            w.net().poll(&w);
        }
        assert_eq!(hit.load(Ordering::Relaxed), 1);
        // The slot reopened once the batch delivered.
        assert!(matches!(
            c.push(1, Box::new(|_| {}), (), w.net()),
            Push::Flushed(_)
        ));
        while w.net().pending() > 0 {
            w.net().poll(&w);
        }
        let s = w.net().stats();
        assert_eq!(s.batches_injected, 2, "the bypassed op is not a batch");
        assert_eq!(s.injected, 3);
    }

    #[test]
    #[should_panic(expected = "flush_ops")]
    fn zero_flush_ops_rejected_when_enabled() {
        AggConfig {
            enabled: true,
            flush_ops: 0,
            ..AggConfig::default()
        }
        .validate();
    }
}
