//! Completion events, modelled on `gex_Event_t`.
//!
//! An operation that completes synchronously during initiation returns
//! [`Event::Complete`] (the analogue of `GEX_EVENT_INVALID` /
//! `GASNET_INVALID_HANDLE` — "already done"). An asynchronous operation
//! returns [`Event::Pending`] holding a shared [`EventCore`] that the
//! network (or the target rank) signals when the operation finishes.
//!
//! Detecting the `Complete` case cheaply at initiation is the substrate
//! hook the paper's eager-notification work builds on. For the pending
//! case, the core supports **signal-driven completion**: the initiator may
//! register a one-shot waiter with [`EventCore::on_signal`], and whichever
//! thread signals the event runs the waiter — typically routing a
//! completion token into the initiating rank's ready queue — so nobody has
//! to rediscover the flag by polling.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::rank::Rank;
use crate::world::World;

/// A one-shot action run by the signalling thread.
pub(crate) enum Waiter {
    /// An arbitrary callback ([`EventCore::on_signal`]).
    Run(Box<dyn FnOnce() + Send>),
    /// Deposit `token` into `rank`'s ready queue
    /// ([`World::route_signal`]): plain data, so routing an op's
    /// completion boxes nothing.
    Route {
        world: Arc<World>,
        rank: Rank,
        token: u64,
    },
}

impl Waiter {
    fn run(self) {
        match self {
            Waiter::Run(f) => f(),
            Waiter::Route { world, rank, token } => world.deposit_token(rank, token),
        }
    }
}

/// The registered waiters, in registration order. The first sits inline,
/// so an event with one waiter (the common case: one routed token)
/// never allocates the `Vec`.
#[derive(Default)]
struct Waiters {
    first: Option<Waiter>,
    rest: Vec<Waiter>,
}

/// Shared completion flag for an in-flight operation.
///
/// Signalled (with release ordering) by whichever thread finishes the
/// operation; observed (with acquire ordering) by the initiator, so any data
/// written before the signal — e.g. an `rget` result landing in its slot —
/// is visible after a successful test. Registered waiters run exactly once
/// each, after the flag is set: either by the signalling thread (in
/// registration order), or immediately at registration when the signal
/// already happened. Multiple waiters may be registered on one event — an
/// operation can route a completion token *and* carry a continuation
/// callback (`operation_cx::as_future | as_callback`).
#[derive(Default)]
pub struct EventCore {
    done: AtomicBool,
    waiters: Mutex<Waiters>,
}

impl std::fmt::Debug for EventCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventCore")
            .field("done", &self.is_done())
            .field("has_waiter", &self.has_waiter())
            .finish()
    }
}

impl EventCore {
    /// A fresh, unsignalled event.
    pub fn new() -> Arc<Self> {
        Arc::new(EventCore::default())
    }

    /// Mark the operation complete and run the registered waiters, if any,
    /// in registration order. May be called from any thread; calling it
    /// more than once is idempotent (waiters run only on the first call
    /// that takes them).
    pub fn signal(&self) {
        // The flag is published while the lock is held; on_signal checks
        // it under the same lock, so a waiter is never lost: every waiter
        // is either taken here or run by the registering thread.
        let Waiters { first, rest } = {
            let mut slot = self.waiters.lock().unwrap();
            self.done.store(true, Ordering::Release);
            std::mem::take(&mut *slot)
        };
        for w in first.into_iter().chain(rest) {
            w.run();
        }
    }

    /// Whether the operation has completed.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Register a one-shot completion waiter.
    ///
    /// If the event has already been signalled, `w` runs immediately on the
    /// calling thread; otherwise it runs on whichever thread signals, in
    /// registration order after any earlier waiters. Any number of waiters
    /// may be registered — the engine registers a token route, and a
    /// continuation callback may ride the same event.
    pub fn on_signal(&self, w: impl FnOnce() + Send + 'static) {
        self.register(Waiter::Run(Box::new(w)));
    }

    /// Register `w` with [`on_signal`](Self::on_signal)'s guarantees.
    pub(crate) fn register(&self, w: Waiter) {
        {
            let mut slot = self.waiters.lock().unwrap();
            // Checked under the same lock signal() publishes under, so a
            // waiter registered after the signal fired always runs (below,
            // immediately) and one registered before is always taken by
            // signal() — no interleaving loses it. Before the signal
            // nothing is removed, so `first` fills before `rest`.
            if !self.done.load(Ordering::Acquire) {
                match slot.first {
                    None => slot.first = Some(w),
                    Some(_) => slot.rest.push(w),
                }
                return;
            }
        }
        w.run();
    }

    /// Whether any waiter is currently registered and unsignalled (test
    /// and quiescence diagnostics).
    pub fn has_waiter(&self) -> bool {
        self.waiters.lock().unwrap().first.is_some()
    }

    /// Block the calling thread — zero CPU — until the event is signalled,
    /// or until `timeout` elapses. Returns `true` when the event fired.
    ///
    /// This extends the signal-driven wakeup engine from intra-rank token
    /// routing to cross-rank blocking: the condvar bridge is registered
    /// through [`EventCore::on_signal`], so whichever thread signals the
    /// event (typically a peer rank delivering a notification badge) wakes
    /// the parked thread directly. The caller is responsible for ensuring
    /// some other thread still drives conduit progress while this one is
    /// parked — see `NotifyTable::try_reserve_park`.
    pub fn park(&self, timeout: std::time::Duration) -> bool {
        let gate = Arc::new((Mutex::new(false), std::sync::Condvar::new()));
        let g2 = Arc::clone(&gate);
        self.on_signal(move || {
            let (lock, cv) = &*g2;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        });
        let (lock, cv) = &*gate;
        let deadline = std::time::Instant::now() + timeout;
        let mut fired = lock.lock().unwrap();
        while !*fired {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return false;
            }
            let (g, _) = cv.wait_timeout(fired, left).unwrap();
            fired = g;
        }
        true
    }
}

/// A completion handle for one communication operation.
#[derive(Clone, Debug)]
pub enum Event {
    /// The operation completed synchronously during initiation.
    Complete,
    /// The operation is in flight; the core will be signalled on completion.
    Pending(Arc<EventCore>),
}

impl Event {
    /// Create a pending event, returning the handle and the core to signal.
    pub fn pending() -> (Event, Arc<EventCore>) {
        let core = EventCore::new();
        (Event::Pending(Arc::clone(&core)), core)
    }

    /// Non-blocking completion test (like `gex_Event_Test`).
    #[inline]
    pub fn test(&self) -> bool {
        match self {
            Event::Complete => true,
            Event::Pending(core) => core.is_done(),
        }
    }

    /// Whether this event was complete at initiation — the property that
    /// makes eager notification possible.
    #[inline]
    pub fn completed_synchronously(&self) -> bool {
        matches!(self, Event::Complete)
    }

    /// Spin until complete, invoking `poll` between tests (like
    /// `gex_Event_Wait` with progress).
    pub fn wait(&self, mut poll: impl FnMut()) {
        let mut spins = 0u32;
        while !self.test() {
            poll();
            spins += 1;
            if spins > 4 {
                // Oversubscribed ranks must let the signaller run.
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GasnexConfig;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn complete_event_tests_true() {
        let e = Event::Complete;
        assert!(e.test());
        assert!(e.completed_synchronously());
        let mut polls = 0;
        e.wait(|| polls += 1);
        assert_eq!(polls, 0);
    }

    #[test]
    fn pending_event_lifecycle() {
        let (e, core) = Event::pending();
        assert!(!e.test());
        assert!(!e.completed_synchronously());
        core.signal();
        assert!(e.test());
        // Idempotent.
        core.signal();
        assert!(e.test());
    }

    #[test]
    fn wait_polls_until_signalled() {
        let (e, core) = Event::pending();
        let mut polls = 0;
        e.wait(|| {
            polls += 1;
            if polls == 3 {
                core.signal();
            }
        });
        assert_eq!(polls, 3);
    }

    #[test]
    fn signal_is_visible_across_threads() {
        let (e, core) = Event::pending();
        let t = std::thread::spawn(move || core.signal());
        e.wait(std::thread::yield_now);
        t.join().unwrap();
        assert!(e.test());
    }

    #[test]
    fn waiter_runs_on_signal() {
        let core = EventCore::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        core.on_signal(move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert!(core.has_waiter());
        assert_eq!(
            hits.load(Ordering::SeqCst),
            0,
            "waiter must not run before the signal"
        );
        core.signal();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert!(!core.has_waiter());
        // A second signal must not re-run the one-shot waiter.
        core.signal();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn waiter_registered_after_signal_runs_immediately() {
        let core = EventCore::new();
        core.signal();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        core.on_signal(move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert!(!core.has_waiter());
    }

    #[test]
    fn park_blocks_until_cross_thread_signal() {
        let core = EventCore::new();
        let c2 = Arc::clone(&core);
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            c2.signal();
        });
        assert!(core.park(std::time::Duration::from_secs(5)));
        t.join().unwrap();
    }

    #[test]
    fn park_after_signal_returns_immediately() {
        let core = EventCore::new();
        core.signal();
        assert!(core.park(std::time::Duration::from_secs(5)));
    }

    #[test]
    fn park_times_out_without_signal() {
        let core = EventCore::new();
        assert!(!core.park(std::time::Duration::from_millis(5)));
    }

    #[test]
    fn waiter_never_lost_under_races() {
        // Registration and signalling race from two threads; the waiter
        // must run exactly once whichever side wins.
        for _ in 0..200 {
            let core = EventCore::new();
            let hits = Arc::new(AtomicUsize::new(0));
            let h = Arc::clone(&hits);
            let c2 = Arc::clone(&core);
            let t = std::thread::spawn(move || c2.signal());
            core.on_signal(move || {
                h.fetch_add(1, Ordering::SeqCst);
            });
            t.join().unwrap();
            // The signalling thread may still be inside signal(); joining
            // above guarantees it finished, so the waiter has run.
            assert_eq!(hits.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn multiple_waiters_run_in_registration_order() {
        let core = EventCore::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3 {
            let l = Arc::clone(&log);
            core.on_signal(move || l.lock().unwrap().push(i));
        }
        assert!(core.has_waiter());
        core.signal();
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 2]);
        assert!(!core.has_waiter());
        // A waiter registered after the signal still runs immediately —
        // alongside, not instead of, the earlier ones.
        let l = Arc::clone(&log);
        core.on_signal(move || l.lock().unwrap().push(99));
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 2, 99]);
    }

    #[test]
    fn no_lost_wakeup_across_register_post_interleavings() {
        // Property test for the registration/signal race: k waiters are
        // registered from one thread while another signals at every
        // possible point of the sequence (before, interleaved, after). Bit
        // i of `kinds` makes waiter i a token route (`World::route_signal`)
        // instead of a closure (`on_signal`), so every mix of inline-first
        // and overflow slots is raced. In every interleaving each closure
        // must run exactly once and each route must deposit its token
        // exactly once — none lost (registered-after-signal must run
        // immediately), none doubled.
        const K: usize = 4;
        let world = World::new(GasnexConfig::smp(1).with_segment_size(1 << 12));
        let mut next_token = 0u64;
        let mut drained = Vec::new();
        for kinds in 0..1u32 << K {
            for signal_at in 0..=K {
                for _ in 0..100 {
                    let core = EventCore::new();
                    let hits: Arc<Vec<AtomicUsize>> =
                        Arc::new((0..K).map(|_| AtomicUsize::new(0)).collect());
                    let c2 = Arc::clone(&core);
                    let gate = Arc::new(AtomicBool::new(false));
                    let g2 = Arc::clone(&gate);
                    let t = std::thread::spawn(move || {
                        // Wait for the registering thread to reach signal_at.
                        while !g2.load(Ordering::Acquire) {
                            std::hint::spin_loop();
                        }
                        c2.signal();
                    });
                    let mut routed = Vec::new();
                    for i in 0..K {
                        if i == signal_at {
                            gate.store(true, Ordering::Release);
                        }
                        if kinds & (1 << i) != 0 {
                            world.route_signal(&core, Rank(0), next_token);
                            routed.push(next_token);
                            next_token += 1;
                        } else {
                            let h = Arc::clone(&hits);
                            core.on_signal(move || {
                                h[i].fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    }
                    if signal_at == K {
                        gate.store(true, Ordering::Release);
                    }
                    t.join().unwrap();
                    for (i, h) in hits.iter().enumerate() {
                        let want = usize::from(kinds & (1 << i) == 0);
                        assert_eq!(
                            h.load(Ordering::SeqCst),
                            want,
                            "closure {i} (signal raced at registration {signal_at}) \
                             must run exactly once"
                        );
                    }
                    drained.clear();
                    world.drain_ready(Rank(0), &mut drained);
                    drained.sort_unstable();
                    assert_eq!(
                        drained, routed,
                        "each routed token (kinds {kinds:#b}, signal at {signal_at}) \
                         must be deposited exactly once"
                    );
                }
            }
        }
    }

    #[test]
    fn route_and_closure_waiters_run_in_registration_order() {
        // One event carrying a token route and a closure, registered in
        // both orders: the closure sees the token already queued exactly
        // when the route was registered first.
        let world = World::new(GasnexConfig::smp(1).with_segment_size(1 << 12));
        for route_first in [true, false] {
            let core = EventCore::new();
            let seen = Arc::new(Mutex::new(None));
            let register_closure = || {
                let (w, s) = (Arc::clone(&world), Arc::clone(&seen));
                core.on_signal(move || *s.lock().unwrap() = Some(w.ready_queued(Rank(0))));
            };
            if route_first {
                world.route_signal(&core, Rank(0), 7);
                register_closure();
            } else {
                register_closure();
                world.route_signal(&core, Rank(0), 7);
            }
            core.signal();
            let queued_before_closure = usize::from(route_first);
            assert_eq!(*seen.lock().unwrap(), Some(queued_before_closure));
            let mut out = Vec::new();
            assert_eq!(world.drain_ready(Rank(0), &mut out), 1);
            assert_eq!(out, vec![7]);
        }
    }
}
