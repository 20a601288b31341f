//! The network layer: one transport-agnostic reliability core
//! ([`NetCore`]) over a pluggable transport ([`Conduit`]).
//!
//! Everything above this layer (the `World`, the aggregation coalescer,
//! the `upcr` runtime, the harnesses) speaks to the wire through
//! [`NetCore`], reached as `World::net()`. The core owns everything the
//! transports share:
//!
//! * the counters, their `reset_stats` baseline, the wire-event trace sink,
//!   the progress-thread waker, and the one shared [`LamportClocks`] bank;
//! * the **fate step** — the seeded `mix(msg, attempt, salt)` hash, the
//!   drop decision with its last-attempt exemption, the dup decision, and
//!   the bounded exponential backoff;
//! * the **inject prologue** (message id, `pending`, `signals`, Lamport
//!   tick, `Inject` record) and the **delivery epilogue** (Lamport merge,
//!   `Deliver`/`DupDiscard` record, run the action, `delivered`/`pending`);
//! * the **poll gate** (try_lock → yield → try_lock → busy hint);
//! * one **parked-payload table** whose `remove` *is* the receiver-side
//!   dedup: the first copy to arrive takes the payload, any later copy
//!   finds the slot empty and is suppressed.
//!
//! A [`Conduit`] keeps only what differs: how an attempt travels and when
//! it arrives. Two implementations exist:
//!
//! * [`SimNetwork`] — the simulated delay queue
//!   with the seeded chaos adversary and the deterministic virtual clock.
//!   It parks only duplicated messages; the fault-free path carries the
//!   action on its heap entry and takes no extra lock.
//! * [`UdpConduit`] — real loopback
//!   `std::net::UdpSocket`s, one per simulated node, carrying a small
//!   data/ack frame protocol. Every message is parked; the frame's arrival
//!   triggers it.
//!
//! The contract the quiescence protocol and the observability stack rely
//! on:
//!
//! * [`NetCore::inject_to`] never executes the action synchronously —
//!   delivery always happens at a later [`NetCore::poll`], so off-node
//!   operations always take the deferred-notification path.
//! * `injected() == delivered() && pending() == 0` means no delivery
//!   action is buffered or mid-flight anywhere in the transport.
//! * Counters are monotonic and lock-free to read; [`NetCore::stats`] and
//!   [`NetCore::now_ns`] never contend with a delivery in progress.

pub mod udp;

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::aggregate::FlushReason;
use crate::clock::LamportClocks;
use crate::config::{FaultPlan, GasnexConfig, Transport};
use crate::net::{NetAction, NetEventKind, NetTraceEvent, SimNetwork};
use crate::rank::Rank;
use crate::world::World;
use udp::UdpConduit;

/// Whether a statistic is a monotonic counter or a level gauge. Declared
/// here (the lowest crate that exports stats) so both [`NetStats`] and the
/// runtime's per-rank stats share one vocabulary; `upcr` re-exports it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldClass {
    /// Monotonically increasing; `since` subtracts, resets re-baseline it.
    Counter,
    /// A level (queue depth, high-water mark); `since` passes the later
    /// sample through, and resets re-prime rather than zero it.
    Gauge,
}

/// Declare a statistics field list once and generate everything derived
/// from it: a public snapshot struct with the given doc comments, its
/// `FIELDS` registration table, `values()` and `since()`, and a bank of
/// atomics (one `AtomicU64` per field) with `snapshot()` and `store()`.
///
/// Each field names its snapshot type and its class: `counter`
/// (monotonic; `since` subtracts, saturating at zero) or `gauge` (a level;
/// `since` passes the later sample through). Bank loads and stores are
/// `Relaxed`: the fields are statistics, not synchronization.
#[macro_export]
macro_rules! stats_fields {
    (@class counter) => {
        $crate::FieldClass::Counter
    };
    (@class gauge) => {
        $crate::FieldClass::Gauge
    };
    (@since counter, $later:expr, $earlier:expr) => {
        $later.saturating_sub($earlier)
    };
    (@since gauge, $later:expr, $earlier:expr) => {
        $later
    };
    (
        $(#[$smeta:meta])* pub struct $snap:ident;
        $(#[$bmeta:meta])* $bvis:vis struct $bank:ident;
        $( $(#[$doc:meta])* $name:ident : $ty:ty = $class:ident, )+
    ) => {
        $(#[$smeta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $snap {
            $( $(#[$doc])* pub $name: $ty, )+
        }

        impl $snap {
            /// Field names and classes, in declaration order. This is the
            /// registration hook the metrics registry consumes: the names
            /// become metric names, and the order is the order of the
            /// values returned by `values()`.
            pub const FIELDS: &'static [(&'static str, $crate::FieldClass)] = &[
                $( (stringify!($name), $crate::stats_fields!(@class $class)), )+
            ];

            /// Field values in the same order as `FIELDS`.
            pub fn values(&self) -> Vec<u64> {
                vec![ $( self.$name as u64, )+ ]
            }

            /// Field-wise difference (`self - earlier`): counters subtract
            /// (saturating at zero); gauges report the later sample
            /// unchanged — a level is not a count.
            pub fn since(&self, earlier: &$snap) -> $snap {
                $snap {
                    $( $name: $crate::stats_fields!(@since $class, self.$name, earlier.$name), )+
                }
            }
        }

        $(#[$bmeta])*
        #[derive(Default)]
        $bvis struct $bank {
            $( pub $name: ::std::sync::atomic::AtomicU64, )+
        }

        impl $bank {
            /// Load every field.
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $( $name: self.$name.load(::std::sync::atomic::Ordering::Relaxed) as $ty, )+
                }
            }

            /// Overwrite every field from `s`.
            pub fn store(&self, s: &$snap) {
                $( self.$name.store(s.$name as u64, ::std::sync::atomic::Ordering::Relaxed); )+
            }
        }
    };
}

stats_fields! {
    /// Snapshot of the network's counters, including the chaos-mode
    /// reliability layer. `injected`/`delivered`/`pending` count logical
    /// messages exactly as the quiescence protocol sees them.
    pub struct NetStats;
    /// One atomic per [`NetStats`] field: the core's live bank and its
    /// `reset_stats` baseline. Snapshots load `Relaxed`, since a statistic
    /// publishes no other data; quiescence reads `injected`, `delivered`
    /// and `pending` through the core's `SeqCst` accessors instead.
    struct Counters;
    /// Logical messages injected since creation.
    injected: u64 = counter,
    /// Logical messages delivered (each action executes exactly once).
    delivered: u64 = counter,
    /// Messages awaiting delivery, in the transport's own unit: heap
    /// entries for the simulator (undelivered messages, pending
    /// retransmission timers, and duplicate copies not yet suppressed),
    /// undelivered messages for the UDP conduit.
    pending: usize = gauge,
    /// Polls that lost the queue-lock race twice and returned a busy hint.
    contended_polls: u64 = counter,
    /// Retransmissions performed after an injected drop.
    retries: u64 = counter,
    /// Transmission attempts the fault plan dropped.
    drops_injected: u64 = counter,
    /// Duplicate copies discarded by receiver-side sequence-number dedup.
    dup_suppressed: u64 = counter,
    /// Largest retransmission backoff applied (gauge; bounded by the plan's
    /// `max_backoff_ns`).
    max_backoff_ns: u64 = gauge,
    /// Duplicate copies that arrived before their original and were
    /// promoted to perform the delivery.
    dup_promoted: u64 = counter,
    /// Batch messages injected by the aggregation layer.
    batches_injected: u64 = counter,
    /// Fine-grained operations carried inside those batches.
    ops_coalesced: u64 = counter,
    /// Batch flushes triggered by the size threshold.
    flushes_size: u64 = counter,
    /// Batch flushes triggered by the age timeout.
    flushes_age: u64 = counter,
    /// Batch flushes triggered explicitly (barrier / quiesce / user flush).
    flushes_explicit: u64 = counter,
    /// Deepest per-target aggregation buffer observed (gauge).
    agg_occupancy_highwater: u64 = gauge,
    /// Signal-carrying messages (put/amo-with-signal) injected.
    signals: u64 = counter,
    /// Lamport clock advances (ticks + merges) performed by the causal
    /// tracing layer. Zero unless tracing is enabled.
    lclock_ticks: u64 = counter,
}

/// A point-in-time view of one message the transport still owes a
/// delivery for: queued, mid-retransmission, or a duplicate copy.
///
/// Produced by [`NetCore::inflight`] for the live-snapshot API. The
/// fields describe the *reliability* state — how many transmission
/// attempts have happened and when the transport will next act on the
/// message — not the payload, which is an opaque delivery action.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InFlight {
    /// Logical message id (allocation order).
    pub msg: u64,
    /// Transmission attempts so far (0 = first attempt still pending).
    pub attempt: u32,
    /// Whether this entry is a retransmission timer for a dropped
    /// attempt (true) or a copy awaiting delivery (false).
    pub retransmit: bool,
    /// When the transport next acts on this entry, on the conduit clock:
    /// the delivery due time, or the retransmission backoff deadline.
    pub due_ns: u64,
    /// Routing hint recorded at injection, when the initiator supplied
    /// one: `(source rank, target rank)`.
    pub route: Option<(u32, u32)>,
}

/// A logical message's identity, fixed at injection and carried unchanged
/// by every transmission attempt and duplicate copy.
#[derive(Clone, Copy, Debug)]
pub struct Header {
    /// Logical message id (allocation order).
    pub msg: u64,
    /// `(source rank, target rank)`, when the initiator supplied a route.
    pub route: Option<(u32, u32)>,
    /// The sender's post-tick Lamport stamp (0 when tracing was off).
    pub lclock: u64,
    /// Whether the message carries a notification badge.
    pub signal: bool,
}

/// What the fault plan decided for one transmission attempt.
pub(crate) enum Fate {
    /// The attempt is lost; the transport retransmits after `backoff_ns`.
    Dropped { backoff_ns: u64 },
    /// The attempt goes out — twice when `dup`.
    Sent { dup: bool },
}

/// A delivery action parked in the core until its message arrives,
/// together with the destination rank the Lamport merge targets.
pub(crate) struct Parked {
    pub dst: Option<u32>,
    pub action: NetAction,
}

/// Retransmission timer when no fault plan supplies one: loopback RTT is
/// tens of microseconds, so 2 ms only fires on genuine kernel-level loss.
const DEFAULT_RTO_NS: u64 = 2_000_000;
const DEFAULT_MAX_BACKOFF_NS: u64 = 64_000_000;

/// A transport for cross-node delivery actions: the part of the network
/// that differs between the simulator and real sockets. Everything shared
/// lives in the [`NetCore`] passed to each call.
pub trait Conduit: Send + Sync {
    /// Put attempt 0 of a freshly injected message on the wire. The core
    /// has already allocated `h.msg`, counted it pending, stamped and
    /// traced it. Must never run `action` synchronously.
    fn inject(&self, core: &NetCore, h: Header, action: NetAction);

    /// Execute due deliveries. Returns the number of work items observed
    /// (deliveries, suppressed duplicates, retransmissions), or the
    /// core's poll-gate busy hint.
    fn poll(&self, core: &NetCore, world: &World) -> usize;

    /// The transport's notion of "now", in nanoseconds. Lock-free: never
    /// contends with a delivery in progress.
    fn now_ns(&self) -> u64;

    /// Snapshot every message the transport still owes a delivery for, in
    /// deterministic `(msg, due_ns)` order.
    fn inflight(&self) -> Vec<InFlight>;

    /// Downcast hook for tests and impl-specific tooling.
    fn as_any(&self) -> &dyn Any;
}

/// The reliability core: the network as the runtime sees it.
///
/// Statistics live entirely in atomics (the baseline is a second bank, not
/// a mutex-held [`NetStats`]), so `stats()` and `reset_stats()` never
/// contend with delivery; each transport's delivery queue has its own
/// lock, and the parked table is locked only on the paths that park.
pub struct NetCore {
    transport: Box<dyn Conduit>,
    faults: Option<FaultPlan>,
    /// Live counters and gauges. Never zeroed, because quiescence relies on
    /// raw `injected == delivered`; `injected` doubles as the message-id
    /// allocator. The live `lclock_ticks` slot is unused: that value is
    /// read from the clock bank.
    live: Counters,
    /// Baseline captured by `reset_stats`; `stats()` reports live minus
    /// baseline.
    baseline: Counters,
    /// Wire-level trace gate: one relaxed load per recording site.
    trace_on: AtomicBool,
    /// Wire-level trace records, in recording order.
    trace: Mutex<Vec<NetTraceEvent>>,
    /// Per-rank Lamport clocks: ticked at injection, merged at delivery —
    /// only while tracing is on.
    clocks: Arc<LamportClocks>,
    /// Whether a progress-thread waker is armed — one relaxed load gates
    /// the injection hot path when no progress thread exists.
    waker_armed: AtomicBool,
    /// The armed waker (the background progress thread's condvar prod).
    waker: Mutex<Option<Arc<dyn Fn() + Send + Sync>>>,
    /// Payloads awaiting their first arrival, keyed by message id.
    parked: Mutex<HashMap<u64, Parked>>,
}

impl NetCore {
    /// Build the core and the transport `cfg` selects.
    ///
    /// # Panics
    ///
    /// Panics if the fault plan is invalid, or the UDP transport rejects
    /// the configuration (see [`UdpConduit::new`]).
    pub fn new(cfg: &GasnexConfig) -> Self {
        let transport: Box<dyn Conduit> = match cfg.transport {
            Transport::Sim => Box::new(SimNetwork::new(cfg.net)),
            Transport::UdpSocket => Box::new(UdpConduit::new(
                cfg.net,
                cfg.ranks as u32,
                cfg.ranks_per_node as u32,
            )),
        };
        NetCore {
            transport,
            faults: cfg.net.faults,
            live: Counters::default(),
            baseline: Counters::default(),
            trace_on: AtomicBool::new(false),
            trace: Mutex::new(Vec::new()),
            clocks: LamportClocks::new(cfg.ranks),
            waker_armed: AtomicBool::new(false),
            waker: Mutex::new(None),
            parked: Mutex::new(HashMap::new()),
        }
    }

    /// The transport under this core (downcast it via `as_any`).
    pub fn transport(&self) -> &dyn Conduit {
        &*self.transport
    }

    /// [`NetCore::inject_to`] without a routing hint or signal.
    pub fn inject(&self, action: NetAction) -> u64 {
        self.inject_to(None, action, false)
    }

    /// Inject `action` for asynchronous delivery, optionally routed from an
    /// initiating rank to a target rank. Returns the logical message id.
    ///
    /// Routing is a hint: the simulator keeps one global delay queue and
    /// only reports it in `inflight()`, while the UDP conduit uses it to
    /// pick the node sockets. A `signal` message (put/amo-with-signal) is
    /// counted in `NetStats::signals`, and the UDP conduit stamps a SIGNAL
    /// frame kind; the reliability machinery is the same either way.
    pub fn inject_to(&self, route: Option<(Rank, Rank)>, action: NetAction, signal: bool) -> u64 {
        if signal {
            self.live.signals.fetch_add(1, Ordering::SeqCst);
        }
        let msg = self.live.injected.fetch_add(1, Ordering::SeqCst);
        self.live.pending.fetch_add(1, Ordering::SeqCst);
        let route = route.map(|(s, t)| (s.0, t.0));
        // Lamport send event: tick the injecting rank's clock and stamp the
        // message with the post-tick value (tracing-gated, so untraced runs
        // never touch the clock bank).
        let lclock = if self.tracing() {
            self.clocks
                .tick(self.clocks.slot_for(route.map(|(s, _)| s)))
        } else {
            0
        };
        self.trace_event(msg, 0, NetEventKind::Inject, lclock);
        let h = Header {
            msg,
            route,
            lclock,
            signal,
        };
        self.transport.inject(self, h, action);
        // New traffic: prod a parked progress thread (no-op when unarmed).
        self.wake_progress();
        msg
    }

    /// Execute due deliveries (see [`Conduit::poll`]).
    pub fn poll(&self, world: &World) -> usize {
        self.transport.poll(self, world)
    }

    /// The transport clock: wall nanoseconds since creation, or the
    /// simulator's virtual time-warp counter. Every trace timestamp uses it.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.transport.now_ns()
    }

    /// Every message the transport still owes a delivery for.
    pub fn inflight(&self) -> Vec<InFlight> {
        self.transport.inflight()
    }

    /// Logical messages injected since creation (raw, ignoring any
    /// `reset_stats` baseline — quiescence detection depends on this).
    pub fn injected(&self) -> u64 {
        self.live.injected.load(Ordering::SeqCst)
    }

    /// Logical messages delivered since creation (raw).
    pub fn delivered(&self) -> u64 {
        self.live.delivered.load(Ordering::SeqCst)
    }

    /// Messages injected but not yet delivered, in the transport's unit
    /// (see `NetStats::pending`). Lock-free.
    pub fn pending(&self) -> usize {
        self.live.pending.load(Ordering::SeqCst) as usize
    }

    /// All counters since creation, with live gauge levels.
    fn raw_stats(&self) -> NetStats {
        NetStats {
            lclock_ticks: self.clocks.ticks(),
            ..self.live.snapshot()
        }
    }

    /// Every counter relative to the last [`NetCore::reset_stats`] (or
    /// creation); gauges report the live level.
    pub fn stats(&self) -> NetStats {
        self.raw_stats().since(&self.baseline.snapshot())
    }

    /// Re-baseline the observable counters and re-prime the peak gauges.
    /// Raw `injected`/`delivered` are untouched.
    pub fn reset_stats(&self) {
        self.baseline.store(&self.raw_stats());
        self.live.max_backoff_ns.store(0, Ordering::SeqCst);
        self.live.agg_occupancy_highwater.store(0, Ordering::SeqCst);
    }

    /// Enable or disable the wire-event sink.
    pub fn set_tracing(&self, on: bool) {
        self.trace_on.store(on, Ordering::Relaxed);
    }

    /// Whether the wire-event sink is recording.
    pub fn tracing(&self) -> bool {
        self.trace_on.load(Ordering::Relaxed)
    }

    /// Drain the recorded wire-level trace.
    pub fn take_trace(&self) -> Vec<NetTraceEvent> {
        std::mem::take(&mut self.trace.lock().unwrap())
    }

    /// Copy the recorded wire-level trace *without* draining it — the
    /// flight recorder reads the ring in place so a snapshot or watchdog
    /// diagnosis never perturbs a later `take_trace`.
    pub fn peek_trace(&self) -> Vec<NetTraceEvent> {
        self.trace.lock().unwrap().clone()
    }

    /// Record one wire event at the transport clock (no-op unless tracing
    /// is on).
    #[inline]
    pub(crate) fn trace_event(&self, msg: u64, attempt: u32, kind: NetEventKind, lclock: u64) {
        if self.tracing() {
            let ts_ns = self.now_ns();
            self.trace.lock().unwrap().push(NetTraceEvent {
                ts_ns,
                msg,
                attempt,
                kind,
                lclock,
            });
        }
    }

    /// Record a completion signal routed to `rank`'s ready queue as
    /// `token`: a local event on that rank's Lamport clock, ordered before
    /// the wakeup its drain will record.
    pub(crate) fn trace_signal(&self, rank: u32, token: u64) {
        let lclock = if self.tracing() {
            self.clocks.tick(self.clocks.slot_for(Some(rank)))
        } else {
            0
        };
        self.trace_event(u64::MAX, 0, NetEventKind::Signal { rank, token }, lclock);
    }

    /// The per-rank Lamport clock bank stamping this network's traffic.
    pub fn clocks(&self) -> &Arc<LamportClocks> {
        &self.clocks
    }

    /// Record one aggregation batch flush of `ops` constituent operations.
    pub(crate) fn note_batch(&self, ops: u64, reason: FlushReason) {
        self.live.batches_injected.fetch_add(1, Ordering::SeqCst);
        self.live.ops_coalesced.fetch_add(ops, Ordering::SeqCst);
        let ctr = match reason {
            FlushReason::Size => &self.live.flushes_size,
            FlushReason::Age => &self.live.flushes_age,
            FlushReason::Explicit => &self.live.flushes_explicit,
        };
        ctr.fetch_add(1, Ordering::SeqCst);
    }

    /// Record a coalescer buffer depth for the occupancy high-water gauge.
    pub(crate) fn note_agg_occupancy(&self, depth: usize) {
        self.live
            .agg_occupancy_highwater
            .fetch_max(depth as u64, Ordering::SeqCst);
    }

    /// Arm (or, with `None`, disarm) the progress-thread waker: injections
    /// call it so a parked background progress thread notices new traffic
    /// promptly. At most one waker is armed at a time.
    pub fn set_progress_waker(&self, waker: Option<Arc<dyn Fn() + Send + Sync>>) {
        let armed = waker.is_some();
        *self.waker.lock().unwrap() = waker;
        self.waker_armed.store(armed, Ordering::Release);
    }

    /// Invoke the armed progress waker, if any. One relaxed load when
    /// unarmed; exposed so layers above (callback enqueues, abort) can prod
    /// the progress thread through the same hook.
    #[inline]
    pub fn wake_progress(&self) {
        if self.waker_armed.load(Ordering::Relaxed) {
            let w = self.waker.lock().unwrap().clone();
            if let Some(w) = w {
                w();
            }
        }
    }

    /// Deterministic per-decision hash: a pure function of the plan seed
    /// (0 without a plan), the message id, the attempt, and a salt that
    /// decorrelates the different decisions taken for one attempt.
    pub(crate) fn mix(&self, msg: u64, attempt: u32, salt: u64) -> u64 {
        let seed = self.faults.map_or(0, |f| f.seed);
        splitmix64(splitmix64(splitmix64(seed ^ msg) ^ u64::from(attempt)) ^ salt)
    }

    /// Bounded exponential backoff for retransmission `attempt`: the plan's
    /// `rto_ns << attempt` capped at its `max_backoff_ns`, or 2 ms / 64 ms
    /// without a plan.
    pub(crate) fn backoff_ns(&self, attempt: u32) -> u64 {
        let (rto, cap) = self
            .faults
            .map_or((DEFAULT_RTO_NS, DEFAULT_MAX_BACKOFF_NS), |p| {
                (p.rto_ns, p.max_backoff_ns)
            });
        rto.saturating_mul(1u64 << attempt.min(32)).min(cap).max(1)
    }

    /// Run fate selection for transmission `attempt` of `h`. A drop is
    /// counted and traced here; the attempt before `max_attempts` is exempt
    /// from drops, so every message is eventually delivered.
    pub(crate) fn fate(&self, h: &Header, attempt: u32) -> Fate {
        let Some(plan) = &self.faults else {
            return Fate::Sent { dup: false };
        };
        if attempt + 1 < plan.max_attempts && ppm(self.mix(h.msg, attempt, 1)) < plan.drop_ppm {
            let backoff_ns = self.backoff_ns(attempt);
            self.live.drops_injected.fetch_add(1, Ordering::SeqCst);
            self.live
                .max_backoff_ns
                .fetch_max(backoff_ns, Ordering::SeqCst);
            self.trace_event(h.msg, attempt, NetEventKind::Drop { backoff_ns }, h.lclock);
            return Fate::Dropped { backoff_ns };
        }
        Fate::Sent {
            dup: ppm(self.mix(h.msg, attempt, 4)) < plan.dup_ppm,
        }
    }

    /// Count and trace a retransmission timer firing for `attempt` (the
    /// resend's number). The resend carries the original send stamp — it
    /// is the same logical send.
    pub(crate) fn note_retry(&self, h: &Header, attempt: u32) {
        self.live.retries.fetch_add(1, Ordering::SeqCst);
        self.trace_event(h.msg, attempt, NetEventKind::Retry, h.lclock);
    }

    /// The poll prologue: take `lock` without blocking, retrying once after
    /// a yield (the holder is usually mid-drain for a few microseconds). On
    /// a second miss, count a contended poll and return the busy hint — 1
    /// while work is outstanding, so a rank that loses the race never
    /// concludes "locally idle" (it would make quiescence sampling
    /// transiently wrong).
    pub(crate) fn gate<'a, T>(&self, lock: &'a Mutex<T>) -> Result<MutexGuard<'a, T>, usize> {
        if let Ok(g) = lock.try_lock() {
            return Ok(g);
        }
        std::thread::yield_now();
        lock.try_lock().map_err(|_| {
            self.live.contended_polls.fetch_add(1, Ordering::SeqCst);
            usize::from(self.pending() > 0)
        })
    }

    /// The pending gauge, for transports whose unit of `pending` is not one
    /// per message (the simulator counts each duplicate copy).
    pub(crate) fn pending_gauge(&self) -> &AtomicU64 {
        &self.live.pending
    }

    /// Park `action` until `msg` first arrives (see [`NetCore::arrive`]).
    pub(crate) fn park(&self, msg: u64, dst: Option<u32>, action: NetAction) {
        self.parked
            .lock()
            .unwrap()
            .insert(msg, Parked { dst, action });
    }

    /// Payloads currently parked.
    #[cfg(test)]
    pub(crate) fn parked_len(&self) -> usize {
        self.parked.lock().unwrap().len()
    }

    /// One copy of parked message `msg` arrived. Removing the payload *is*
    /// the receiver-side dedup: the first arrival takes and delivers it
    /// (counted as a promotion when `promoted`, i.e. a trailing duplicate
    /// overtook its original); a later arrival finds the slot empty and is
    /// suppressed. Returns whether this arrival delivered.
    pub(crate) fn arrive(
        &self,
        world: &World,
        msg: u64,
        attempt: u32,
        lclock: u64,
        promoted: bool,
    ) -> bool {
        let parked = self.parked.lock().unwrap().remove(&msg);
        match parked {
            Some(p) => {
                if promoted {
                    self.live.dup_promoted.fetch_add(1, Ordering::SeqCst);
                }
                self.deliver(world, msg, attempt, lclock, p);
                true
            }
            None => {
                self.trace_event(msg, attempt, NetEventKind::DupDiscard, lclock);
                self.live.dup_suppressed.fetch_add(1, Ordering::SeqCst);
                false
            }
        }
    }

    /// The delivery epilogue: merge the carried stamp into the destination
    /// rank's clock before the action runs (so every rank-side event the
    /// delivery causes is stamped after the wire hop), record `Deliver`,
    /// run the action, then count it delivered and retire one pending unit
    /// — after the action, so `injected == delivered` implies no action is
    /// mid-flight.
    pub(crate) fn deliver(&self, world: &World, msg: u64, attempt: u32, lclock: u64, p: Parked) {
        let merged = if self.tracing() {
            self.clocks.merge(self.clocks.slot_for(p.dst), lclock)
        } else {
            0
        };
        self.trace_event(msg, attempt, NetEventKind::Deliver, merged);
        (p.action)(world);
        self.live.delivered.fetch_add(1, Ordering::SeqCst);
        self.live.pending.fetch_sub(1, Ordering::SeqCst);
    }
}

#[inline]
pub(crate) fn ppm(x: u64) -> u32 {
    (x % 1_000_000) as u32
}

/// SplitMix64 mixer, used for deterministic jitter and fault fates.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
