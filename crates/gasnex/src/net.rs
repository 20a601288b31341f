//! Simulated inter-node network: the [`Conduit`] impl used by default.
//!
//! Operations between ranks on different simulated nodes are injected here
//! as boxed delivery actions with a due time (`now + latency ± jitter`).
//! Any rank's progress call drains the due actions — modelling a NIC that
//! makes progress independently of which CPU polls, as GASNet-EX offloaded
//! operations do. Two properties matter for fidelity to the paper:
//!
//! 1. An injected operation **never completes synchronously**: even with
//!    zero latency, delivery happens at a later poll, so the initiator's
//!    event is pending at initiation — off-node operations always take the
//!    deferred-notification path, exactly as in the paper.
//! 2. Delivery order is by due time (ties broken by injection sequence), so
//!    with uniform latency the network is point-to-point ordered.
//!
//! # Chaos mode
//!
//! With a [`FaultPlan`](crate::config::FaultPlan) the network becomes a
//! deterministic adversary. Every fault decision is the reliability core's
//! pure hash of `(plan seed, msg, attempt)`, so a fixed seed replays the
//! identical schedule — especially under [`ClockMode::Virtual`], where
//! "now" is a logical counter that time-warps to the earliest due delivery
//! instead of reading `Instant`. On top of the core's fate step:
//!
//! * **Drops** never lose the payload; they convert the delivery into a
//!   retransmission timer that fires after the core's bounded backoff and
//!   re-enters fate selection with `attempt + 1`.
//! * **Duplicates** park the payload in the core and enqueue two wire
//!   copies; whichever pops first takes the payload and delivers, the other
//!   finds the slot empty and is suppressed (`dup_suppressed`). The
//!   trailing copy is scheduled off the *un-reordered* arrival, so it can
//!   overtake a reordered original and is then *promoted* (`dup_promoted`).
//!   The parked table holds an id only between the two copies' arrivals.
//! * **Reorder / burst / partition** only shift due times; they can starve
//!   but never cancel a delivery.
//!
//! `pending` counts heap entries: one per message, plus the extra copy of a
//! duplicated one. A retransmission pops one timer and pushes one attempt.
//!
//! # Lock granularity
//!
//! The clock is an atomic (`vclock`) or a lock-free `Instant` read; the
//! delivery heap has the only lock the fault-free delivery path takes, and
//! it doubles as the poll gate; statistics live in the core's atomics, so
//! `now_ns()` and `stats()` are wait-free with respect to a poll.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::conduit::{ppm, Conduit, Fate, Header, InFlight, NetCore, Parked};
use crate::config::{ClockMode, NetConfig};
use crate::world::World;

/// A delivery action: performs the remote side of an operation (data
/// movement, atomic execution, AM enqueue) and signals its event.
pub type NetAction = Box<dyn FnOnce(&World) + Send>;

/// What happened to a message on the wire (trace-mode only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetEventKind {
    /// Message entered the network (`NetCore::inject_to`).
    Inject,
    /// The fault plan dropped this transmission attempt; a retransmission
    /// timer was armed `backoff_ns` in the future.
    Drop { backoff_ns: u64 },
    /// A retransmission timer fired and the next attempt was scheduled.
    Retry,
    /// The delivery action executed (exactly once per message).
    Deliver,
    /// A duplicated wire copy was discarded by receiver-side dedup.
    DupDiscard,
    /// An initiator-side completion signal was routed to a rank's ready
    /// queue (recorded by `World::route_signal`, not by a transport).
    Signal { rank: u32, token: u64 },
}

/// One wire-level trace record. `msg` is the logical message id returned by
/// [`NetCore::inject_to`], which lets core-level operation traces correlate
/// their `NetInject` events with the retries and delivery seen down here.
/// `Signal` events use `msg = u64::MAX` (they belong to an event core, not
/// a wire message).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetTraceEvent {
    /// Timestamp from the transport clock (wall or virtual, per `ClockMode`).
    pub ts_ns: u64,
    /// Logical message id (`u64::MAX` for `Signal` events).
    pub msg: u64,
    /// Transmission attempt the event belongs to (0-based).
    pub attempt: u32,
    pub kind: NetEventKind,
    /// Lamport stamp: the sender's post-tick clock on `Inject` (carried
    /// unchanged by `Drop`/`Retry`/`DupDiscard`), the receiver's merged
    /// clock on `Deliver`, the signalled rank's tick on `Signal`. Zero
    /// when tracing was off at the recording site.
    pub lclock: u64,
}

/// What a heap entry does when popped. The attempt number lives in the
/// variants, in the padding beside their flags, so a [`Delivery`] stays at
/// 72 bytes: `poll` collects due entries into a fresh `Vec`, one
/// allocation per delivering poll whose size the off-node benchmark counts.
enum Payload {
    /// Transmission attempt `attempt`, carrying the delivery action. If
    /// `dropped`, the entry is the retransmission timer for a lost packet:
    /// popping it reschedules attempt `attempt + 1` instead of delivering.
    Attempt {
        attempt: u32,
        dropped: bool,
        action: NetAction,
    },
    /// One of the two wire copies of a duplicated attempt; the action is
    /// parked in the core. `primary` marks the copy scheduled on the
    /// original (possibly reordered) due time — when the trailing copy wins
    /// the race, the delivery is counted as a promotion.
    Copy { attempt: u32, primary: bool },
}

struct Delivery {
    due_ns: u64,
    seq: u64,
    h: Header,
    payload: Payload,
}

const _: () = assert!(std::mem::size_of::<Delivery>() <= 72, "see `Payload`");

impl PartialEq for Delivery {
    fn eq(&self, other: &Self) -> bool {
        self.due_ns == other.due_ns && self.seq == other.seq
    }
}
impl Eq for Delivery {}
impl PartialOrd for Delivery {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delivery {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due_ns, self.seq).cmp(&(other.due_ns, other.seq))
    }
}

/// The global delay queue: the simulated [`Conduit`].
pub struct SimNetwork {
    cfg: NetConfig,
    epoch: Instant,
    /// Logical nanoseconds under `ClockMode::Virtual`; advances only inside
    /// `poll` (under the queue lock), time-warping to the earliest due
    /// delivery when nothing is currently due.
    vclock: AtomicU64,
    /// Heap tie-break sequence. Distinct from the message id because
    /// retries and duplicates push extra heap entries for the same logical
    /// message.
    heap_seq: AtomicU64,
    queue: Mutex<BinaryHeap<Reverse<Delivery>>>,
}

impl SimNetwork {
    /// Create a network with the given latency and fault parameters.
    pub fn new(cfg: NetConfig) -> Self {
        if let Some(plan) = cfg.faults {
            plan.validate();
        }
        SimNetwork {
            cfg,
            epoch: Instant::now(),
            vclock: AtomicU64::new(0),
            heap_seq: AtomicU64::new(0),
            queue: Mutex::new(BinaryHeap::new()),
        }
    }

    /// Apply the plan's burst and partition windows to a due time. Both
    /// only push deliveries later; neither can cancel one.
    fn shape(&self, mut due: u64) -> u64 {
        if let Some(plan) = &self.cfg.faults {
            if plan.burst_period_ns > 0 && due % plan.burst_period_ns < plan.burst_len_ns {
                due += plan.burst_extra_ns;
            }
            if due >= plan.partition_at_ns && due < plan.partition_until_ns {
                due = plan.partition_until_ns;
            }
        }
        due
    }

    fn push(
        &self,
        q: &mut BinaryHeap<Reverse<Delivery>>,
        due_ns: u64,
        h: Header,
        payload: Payload,
    ) {
        q.push(Reverse(Delivery {
            due_ns,
            seq: self.heap_seq.fetch_add(1, Ordering::Relaxed),
            h,
            payload,
        }));
    }

    /// Schedule transmission attempt `attempt` of `h` after the core's fate
    /// selection, adding jitter and the reorder/burst/partition shaping.
    /// Caller holds the queue lock and has already accounted the message in
    /// `pending`; a duplicate's extra copy adds its own pending entry here.
    fn schedule_attempt(
        &self,
        core: &NetCore,
        q: &mut BinaryHeap<Reverse<Delivery>>,
        h: Header,
        attempt: u32,
        action: NetAction,
    ) {
        let now = self.now_ns();
        let dup = match core.fate(&h, attempt) {
            Fate::Dropped { backoff_ns } => {
                // Lost packet: keep the payload on the retransmission timer
                // so nothing can leak.
                let timer = Payload::Attempt {
                    attempt,
                    dropped: true,
                    action,
                };
                return self.push(q, now + backoff_ns, h, timer);
            }
            Fate::Sent { dup } => dup,
        };
        // Deterministic per-attempt jitter from the seeded mix — never from
        // wall-clock state, so identical seeds replay identical schedules.
        let jitter = match self.cfg.jitter_ns {
            0 => 0,
            j => core.mix(h.msg, attempt, 0) % (j + 1),
        };
        let reorder = match &self.cfg.faults {
            Some(p)
                if p.reorder_span_ns > 0 && ppm(core.mix(h.msg, attempt, 2)) < p.reorder_ppm =>
            {
                core.mix(h.msg, attempt, 3) % (p.reorder_span_ns + 1)
            }
            _ => 0,
        };
        let arrival = now + self.cfg.latency_ns + jitter;
        let due = self.shape(arrival + reorder);
        if dup {
            // The primary keeps the reordered due time; the extra copy
            // trails the *un-reordered* arrival by a sub-latency offset, so
            // a heavily reordered primary can lose the race and the
            // trailing copy gets promoted to deliver.
            let lag = 1 + core.mix(h.msg, attempt, 5) % self.cfg.latency_ns.max(1);
            core.park(h.msg, h.route.map(|(_, t)| t), action);
            let primary = Payload::Copy {
                attempt,
                primary: true,
            };
            self.push(q, due, h, primary);
            core.pending_gauge().fetch_add(1, Ordering::SeqCst);
            let trailing = Payload::Copy {
                attempt,
                primary: false,
            };
            self.push(q, self.shape(arrival + lag), h, trailing);
        } else {
            let send = Payload::Attempt {
                attempt,
                dropped: false,
                action,
            };
            self.push(q, due, h, send);
        }
    }

    /// Heap entries currently queued (test hook; takes the queue lock).
    pub fn heap_len(&self) -> usize {
        self.queue.lock().unwrap().len()
    }

    /// Hold the queue lock and run `f` (test hook for simulating a rank
    /// mid-drain).
    pub fn while_queue_locked<R>(&self, f: impl FnOnce() -> R) -> R {
        let _guard = self.queue.lock().unwrap();
        f()
    }
}

impl Conduit for SimNetwork {
    /// Queue attempt 0. The simulator keeps one global delay queue, so the
    /// routing hint does not affect delivery — preserving every seeded
    /// schedule byte-for-byte — but it rides on the heap entry so
    /// `inflight()` can name the rank pair a stuck message belongs to.
    fn inject(&self, core: &NetCore, h: Header, action: NetAction) {
        let mut q = self.queue.lock().unwrap();
        self.schedule_attempt(core, &mut q, h, 0, action);
    }

    /// Execute all deliveries whose due time has passed. Returns the number
    /// of heap entries popped (deliveries, suppressed duplicates, and
    /// retransmission timers fired), or the core's busy hint when another
    /// rank holds the queue.
    ///
    /// With nothing pending the poll returns 0 before touching the lock:
    /// `pending` is raised before a heap push and lowered only after the
    /// popped entry is retired, so it is never below the heap length, and
    /// zero means the heap is empty. (The UDP conduit cannot take this
    /// shortcut: its poll must keep reading ACKs for delivered messages.)
    fn poll(&self, core: &NetCore, world: &World) -> usize {
        if core.pending() == 0 {
            return 0;
        }
        let mut q = match core.gate(&self.queue) {
            Ok(q) => q,
            Err(busy) => return busy,
        };
        if q.is_empty() {
            return 0;
        }
        let now = match self.cfg.clock {
            ClockMode::Wall => self.epoch.elapsed().as_nanos() as u64,
            ClockMode::Virtual => {
                // Time-warp: nothing observable happens between now and the
                // earliest due time, so jump straight there. The store is
                // safe because the clock only mutates under the queue lock.
                let t = self.vclock.load(Ordering::SeqCst);
                let earliest = q.peek().map_or(t, |Reverse(d)| d.due_ns);
                if earliest > t {
                    self.vclock.store(earliest, Ordering::SeqCst);
                    earliest
                } else {
                    t
                }
            }
        };
        let mut due = Vec::new();
        while let Some(Reverse(d)) = q.peek() {
            if d.due_ns > now {
                break;
            }
            due.push(q.pop().unwrap().0);
        }
        drop(q); // run actions without holding the lock: they may re-inject
        let n = due.len();
        for Delivery { h, payload, .. } in due {
            match payload {
                Payload::Attempt {
                    attempt,
                    dropped: true,
                    action,
                } => {
                    // Retransmission timer fired: one timer out, one attempt
                    // (or a self-accounted dup pair) in, so `pending` keeps
                    // mirroring the heap length.
                    core.note_retry(&h, attempt + 1);
                    let mut q = self.queue.lock().unwrap();
                    self.schedule_attempt(core, &mut q, h, attempt + 1, action);
                }
                Payload::Attempt {
                    attempt,
                    dropped: false,
                    action,
                } => {
                    let dst = h.route.map(|(_, t)| t);
                    core.deliver(world, h.msg, attempt, h.lclock, Parked { dst, action });
                }
                Payload::Copy { attempt, primary } => {
                    // A delivered copy retires its heap entry inside the
                    // core's epilogue; a suppressed one retires it here.
                    if !core.arrive(world, h.msg, attempt, h.lclock, !primary) {
                        core.pending_gauge().fetch_sub(1, Ordering::SeqCst);
                    }
                }
            }
        }
        n
    }

    /// Nanoseconds since creation under `ClockMode::Wall`, or the logical
    /// time-warp counter under `ClockMode::Virtual` — so virtual-clock
    /// traces are bit-replayable.
    #[inline]
    fn now_ns(&self) -> u64 {
        match self.cfg.clock {
            ClockMode::Wall => self.epoch.elapsed().as_nanos() as u64,
            ClockMode::Virtual => self.vclock.load(Ordering::SeqCst),
        }
    }

    /// Every heap entry, in deterministic `(msg, due_ns, seq)` order. Takes
    /// the queue lock briefly; never executes actions.
    fn inflight(&self) -> Vec<InFlight> {
        let q = self.queue.lock().unwrap();
        let mut out: Vec<(u64, InFlight)> = q
            .iter()
            .map(|Reverse(d)| {
                let (attempt, retransmit) = match d.payload {
                    Payload::Attempt {
                        attempt, dropped, ..
                    } => (attempt, dropped),
                    Payload::Copy { attempt, .. } => (attempt, false),
                };
                let f = InFlight {
                    msg: d.h.msg,
                    attempt,
                    retransmit,
                    due_ns: d.due_ns,
                    route: d.h.route,
                };
                (d.seq, f)
            })
            .collect();
        out.sort_by_key(|(seq, f)| (f.msg, f.due_ns, *seq));
        out.into_iter().map(|(_, f)| f).collect()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conduit::{splitmix64, NetStats};
    use crate::config::{FaultPlan, GasnexConfig};

    fn test_world() -> std::sync::Arc<World> {
        World::new(GasnexConfig::udp(2, 1).with_segment_size(1 << 12))
    }

    fn world_with_net(net: NetConfig) -> std::sync::Arc<World> {
        World::new(
            GasnexConfig::udp(2, 1)
                .with_segment_size(1 << 12)
                .with_net(net),
        )
    }

    /// The concrete simulator behind the world's conduit (these tests
    /// exercise SimNetwork internals the trait doesn't expose).
    fn sim(w: &World) -> &SimNetwork {
        w.net()
            .transport()
            .as_any()
            .downcast_ref()
            .expect("default transport is the simulator")
    }

    #[test]
    fn zero_latency_still_asynchronous() {
        let w = world_with_net(NetConfig {
            latency_ns: 0,
            jitter_ns: 0,
            ..NetConfig::default()
        });
        let hit = std::sync::Arc::new(AtomicU64::new(0));
        let h = std::sync::Arc::clone(&hit);
        w.net().inject(Box::new(move |_| {
            h.store(1, Ordering::Relaxed);
        }));
        // Injection alone must not execute the action.
        assert_eq!(hit.load(Ordering::Relaxed), 0);
        assert_eq!(w.net().pending(), 1);
        w.net().poll(&w);
        assert_eq!(hit.load(Ordering::Relaxed), 1);
        assert_eq!(w.net().pending(), 0);
        assert_eq!(w.net().delivered(), 1);
    }

    #[test]
    fn latency_delays_delivery() {
        let w = world_with_net(NetConfig {
            latency_ns: 3_000_000,
            jitter_ns: 0,
            ..NetConfig::default()
        });
        let hit = std::sync::Arc::new(AtomicU64::new(0));
        let h = std::sync::Arc::clone(&hit);
        w.net().inject(Box::new(move |_| {
            h.store(1, Ordering::Relaxed);
        }));
        w.net().poll(&w);
        assert_eq!(
            hit.load(Ordering::Relaxed),
            0,
            "delivered before latency elapsed"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
        w.net().poll(&w);
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn uniform_latency_preserves_order() {
        let w = test_world();
        let log = std::sync::Arc::new(Mutex::new(Vec::new()));
        for i in 0..20 {
            let log = std::sync::Arc::clone(&log);
            w.net()
                .inject(Box::new(move |_| log.lock().unwrap().push(i)));
        }
        std::thread::sleep(std::time::Duration::from_micros(10));
        while w.net().pending() > 0 {
            w.net().poll(&w);
        }
        assert_eq!(*log.lock().unwrap(), (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn contended_poll_reports_busy_not_idle() {
        let w = world_with_net(NetConfig {
            latency_ns: 0,
            jitter_ns: 0,
            ..NetConfig::default()
        });
        w.net().inject(Box::new(|_| {}));
        // Simulate another rank mid-drain by holding the queue lock.
        sim(&w).while_queue_locked(|| {
            assert_eq!(
                w.net().poll(&w),
                1,
                "lost lock race with pending work must report busy"
            );
            assert_eq!(w.net().stats().contended_polls, 1);
            assert_eq!(
                w.net().delivered(),
                0,
                "busy hint must not deliver anything"
            );
        });
        assert_eq!(
            w.net().poll(&w),
            1,
            "after the holder releases, delivery proceeds"
        );
        assert_eq!(w.net().pending(), 0);
        // With an empty queue, a lost race reports idle (nothing due).
        sim(&w).while_queue_locked(|| {
            assert_eq!(w.net().poll(&w), 0);
        });
    }

    /// Run `f` while another thread holds the sim queue lock (a rank
    /// mid-drain). The holder lets go when `f` returns or panics: either
    /// way the release sender is dropped.
    fn with_queue_held_elsewhere(w: &World, f: impl FnOnce()) {
        let (held_tx, held_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(move |s| {
            s.spawn(move || {
                sim(w).while_queue_locked(|| {
                    held_tx.send(()).unwrap();
                    let _ = release_rx.recv();
                })
            });
            held_rx.recv().unwrap();
            f();
            drop(release_tx);
        });
    }

    #[test]
    fn idle_poll_skips_the_queue_lock() {
        let w = world_with_net(NetConfig {
            latency_ns: 0,
            jitter_ns: 0,
            ..NetConfig::default()
        });
        // With nothing pending, the poll answers idle without contending.
        with_queue_held_elsewhere(&w, || {
            assert_eq!(w.net().poll(&w), 0);
            assert_eq!(
                w.net().stats().contended_polls,
                0,
                "an idle poll never reaches the lock gate"
            );
        });
        // With one message pending, the held lock still yields the busy
        // hint: the shortcut never hides outstanding work.
        w.net().inject(Box::new(|_| {}));
        with_queue_held_elsewhere(&w, || {
            assert_eq!(w.net().poll(&w), 1, "busy hint with work pending");
            assert_eq!(w.net().stats().contended_polls, 1);
            assert_eq!(w.net().delivered(), 0);
        });
        assert_eq!(w.net().poll(&w), 1);
        assert_eq!(w.net().pending(), 0);
    }

    #[test]
    fn actions_may_reinject() {
        let w = world_with_net(NetConfig {
            latency_ns: 0,
            jitter_ns: 0,
            ..NetConfig::default()
        });
        let hit = std::sync::Arc::new(AtomicU64::new(0));
        let h = std::sync::Arc::clone(&hit);
        w.net().inject(Box::new(move |world| {
            let h2 = std::sync::Arc::clone(&h);
            world.net().inject(Box::new(move |_| {
                h2.store(2, Ordering::Relaxed);
            }));
        }));
        w.net().poll(&w);
        w.net().poll(&w);
        assert_eq!(hit.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        for _ in 0..2 {
            let mut vals = Vec::new();
            for seq in 0..100u64 {
                vals.push(splitmix64(seq) % 101);
            }
            assert!(vals.iter().all(|&v| v <= 100));
            // Same seeds give same jitter.
            assert_eq!(vals[0], splitmix64(0) % 101);
        }
    }

    /// Drive a world to completion single-threadedly, recording the
    /// delivery order of `n` injected markers.
    fn delivery_schedule(net: NetConfig, n: u64) -> (Vec<u64>, NetStats) {
        let w = world_with_net(net);
        let log = std::sync::Arc::new(Mutex::new(Vec::new()));
        for i in 0..n {
            let log = std::sync::Arc::clone(&log);
            w.net()
                .inject(Box::new(move |_| log.lock().unwrap().push(i)));
        }
        let mut spins = 0u64;
        while w.net().delivered() < n || w.net().pending() > 0 {
            w.net().poll(&w);
            spins += 1;
            assert!(spins < 1_000_000, "chaos schedule failed to terminate");
        }
        let order = log.lock().unwrap().clone();
        (order, w.net().stats())
    }

    #[test]
    fn virtual_clock_replays_identical_schedules() {
        // Satellite regression: with the virtual clock, the delivery
        // schedule is a pure function of the seed — two runs replay
        // identically, and a different seed produces a different order.
        let plan = FaultPlan::seeded(7)
            .with_drops(120_000)
            .with_dups(90_000)
            .with_reorder(250_000, 9_000);
        let net = NetConfig {
            latency_ns: 1_000,
            jitter_ns: 800,
            ..NetConfig::default()
        }
        .with_virtual_clock()
        .with_faults(plan);
        let (a, sa) = delivery_schedule(net, 64);
        let (b, sb) = delivery_schedule(net, 64);
        assert_eq!(a, b, "same seed must replay the same schedule");
        assert_eq!(sa, sb, "same seed must replay the same fault counters");
        assert_ne!(
            a,
            (0..64).collect::<Vec<_>>(),
            "chaos plan should actually reorder deliveries"
        );
        let other = NetConfig {
            faults: Some(FaultPlan { seed: 8, ..plan }),
            ..net
        };
        let (c, _) = delivery_schedule(other, 64);
        assert_ne!(a, c, "a different seed should produce a different schedule");
    }

    #[test]
    fn drops_retry_with_bounded_backoff_and_terminate() {
        let plan = FaultPlan::seeded(3)
            .with_drops(400_000)
            .with_retry(2_000, 16_000, 5);
        let (order, stats) = delivery_schedule(NetConfig::chaos(plan), 128);
        assert_eq!(order.len(), 128, "every message must eventually deliver");
        assert_eq!(stats.delivered, 128);
        assert_eq!(stats.pending, 0);
        assert!(stats.drops_injected > 0, "plan should have dropped packets");
        assert_eq!(
            stats.retries, stats.drops_injected,
            "every drop fires exactly one retransmission"
        );
        assert!(stats.max_backoff_ns >= 2_000);
        assert!(
            stats.max_backoff_ns <= 16_000,
            "backoff must respect the plan cap, got {}",
            stats.max_backoff_ns
        );
    }

    #[test]
    fn duplicates_are_suppressed_exactly_once() {
        let plan = FaultPlan::seeded(11).with_dups(500_000);
        let (order, stats) = delivery_schedule(NetConfig::chaos(plan), 96);
        assert_eq!(order.len(), 96, "dedup must not lose or double-deliver");
        assert_eq!(stats.delivered, 96);
        assert!(stats.dup_suppressed > 0, "plan should have duplicated");
        assert_eq!(stats.pending, 0);
    }

    #[test]
    fn reset_stats_rebaselines_counters_and_reprimes_gauges() {
        let plan = FaultPlan::seeded(3)
            .with_drops(400_000)
            .with_retry(2_000, 16_000, 5);
        let w = world_with_net(NetConfig::chaos(plan));
        for _ in 0..64 {
            w.net().inject(Box::new(|_| {}));
        }
        while w.net().delivered() < 64 || w.net().pending() > 0 {
            w.net().poll(&w);
        }
        let before = w.net().stats();
        assert_eq!(before.delivered, 64);
        assert!(before.max_backoff_ns > 0);

        w.net().reset_stats();
        let after = w.net().stats();
        assert_eq!(after.injected, 0, "counters re-baseline to zero");
        assert_eq!(after.delivered, 0);
        assert_eq!(after.retries, 0);
        assert_eq!(after.drops_injected, 0);
        assert_eq!(after.max_backoff_ns, 0, "peak gauge re-primes");
        // Quiescence detection keeps seeing the raw totals.
        assert_eq!(w.net().injected(), 64);
        assert_eq!(w.net().delivered(), 64);

        // A gauge keeps reporting the live level after reset: inject
        // without polling and `pending` must show the queue depth.
        w.net().inject(Box::new(|_| {}));
        let live = w.net().stats();
        assert_eq!(live.pending, 1, "gauges report the live level");
        assert_eq!(live.injected, 1, "counters count from the baseline");
        while w.net().pending() > 0 {
            w.net().poll(&w);
        }
    }

    #[test]
    fn dup_racing_ahead_of_reordered_original_is_promoted() {
        // Satellite regression: the duplicate copy trails the *un-reordered*
        // arrival, so a primary pushed far out by reorder loses the race and
        // the trailing copy must be promoted to deliver — the old code
        // consulted the acked set and threw the answer away, silently
        // swallowing exactly this schedule. With latency 1_000 the dup lag
        // is at most 1_000 ns while reorder can add up to 50_000 ns, so
        // promotions are guaranteed at these rates.
        let plan = FaultPlan::seeded(17)
            .with_dups(500_000)
            .with_reorder(500_000, 50_000);
        let net = NetConfig {
            latency_ns: 1_000,
            jitter_ns: 300,
            ..NetConfig::default()
        }
        .with_virtual_clock()
        .with_faults(plan);
        let (order, stats) = delivery_schedule(net, 128);
        assert_eq!(order.len(), 128, "every message delivers exactly once");
        assert_eq!(stats.delivered, 128);
        assert_eq!(stats.pending, 0);
        assert!(
            stats.dup_promoted > 0,
            "schedule must exercise the dup-races-ahead path"
        );
        assert!(stats.dup_suppressed > 0, "losing copies are discarded");
        let (order2, stats2) = delivery_schedule(net, 128);
        assert_eq!(order, order2, "promotion is deterministic under a seed");
        assert_eq!(stats, stats2);
    }

    #[test]
    fn acked_set_stays_bounded_by_inflight_dup_pairs() {
        // Satellite regression: the dedup state used to accumulate every
        // delivered msg id forever. Now a duplicated payload stays parked
        // only between its two copies' arrivals, so at every step
        // parked ≤ pending and the table is empty once the wire drains.
        let plan = FaultPlan::seeded(23)
            .with_drops(150_000)
            .with_dups(400_000)
            .with_reorder(300_000, 20_000)
            .with_retry(2_000, 32_000, 6);
        let net = NetConfig {
            latency_ns: 1_000,
            jitter_ns: 500,
            ..NetConfig::default()
        }
        .with_virtual_clock()
        .with_faults(plan);
        let w = world_with_net(net);
        let n = 512u64;
        for _ in 0..n {
            w.net().inject(Box::new(|_| {}));
        }
        let mut spins = 0u64;
        while w.net().delivered() < n || w.net().pending() > 0 {
            w.net().poll(&w);
            assert!(
                w.net().parked_len() <= w.net().pending(),
                "dedup set must stay bounded by in-flight messages"
            );
            spins += 1;
            assert!(spins < 1_000_000, "chaos schedule failed to terminate");
        }
        assert_eq!(
            w.net().parked_len(),
            0,
            "drained wire leaves no dedup state"
        );
        let s = w.net().stats();
        assert!(s.dup_suppressed > 0, "plan must actually duplicate");
        assert_eq!(s.delivered, n);
    }

    #[test]
    fn pending_mirrors_heap_length_under_every_plan() {
        // Satellite audit: `pending()` must equal the heap length at every
        // quiescent point under each fault-plan shape — the retry path pops
        // one timer and pushes one attempt (plus a self-accounted dup
        // copy), so no path may leak the counter in either direction.
        let shapes: &[FaultPlan] = &[
            FaultPlan::seeded(31)
                .with_drops(250_000)
                .with_retry(4_000, 64_000, 6),
            FaultPlan::seeded(37)
                .with_dups(200_000)
                .with_reorder(300_000, 6_000),
            FaultPlan::seeded(41)
                .with_drops(150_000)
                .with_dups(120_000)
                .with_reorder(200_000, 5_000)
                .with_retry(4_000, 64_000, 6),
        ];
        for plan in shapes {
            let net = NetConfig {
                latency_ns: 800,
                jitter_ns: 300,
                ..NetConfig::default()
            }
            .with_virtual_clock()
            .with_faults(*plan);
            let w = world_with_net(net);
            let n = 256u64;
            for _ in 0..n {
                w.net().inject(Box::new(|_| {}));
            }
            let mut spins = 0u64;
            loop {
                let heap = sim(&w).heap_len();
                assert_eq!(
                    w.net().pending(),
                    heap,
                    "pending() must mirror the heap under seed {}",
                    plan.seed
                );
                if w.net().delivered() >= n && heap == 0 {
                    break;
                }
                w.net().poll(&w);
                spins += 1;
                assert!(spins < 1_000_000, "chaos schedule failed to terminate");
            }
            assert_eq!(w.net().pending(), 0);
            assert_eq!(w.net().delivered(), n);
        }
    }

    #[test]
    fn partition_stalls_then_heals() {
        // All deliveries due inside the window stall until it heals; with
        // the virtual clock the heal is observed by time-warp, not sleep.
        let plan = FaultPlan::seeded(5).with_partition(0, 1_000_000);
        let net = NetConfig {
            latency_ns: 100,
            jitter_ns: 0,
            ..NetConfig::default()
        }
        .with_virtual_clock()
        .with_faults(plan);
        let w = world_with_net(net);
        let hit = std::sync::Arc::new(AtomicU64::new(0));
        for _ in 0..8 {
            let h = std::sync::Arc::clone(&hit);
            w.net().inject(Box::new(move |_| {
                h.fetch_add(1, Ordering::Relaxed);
            }));
        }
        // First poll warps to the heal time and delivers everything.
        while w.net().pending() > 0 {
            w.net().poll(&w);
        }
        assert_eq!(hit.load(Ordering::Relaxed), 8);
        assert!(
            w.net().now_ns() >= 1_000_000,
            "deliveries must wait for the partition to heal"
        );
    }
}
