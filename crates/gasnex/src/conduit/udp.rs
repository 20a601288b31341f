//! Real-socket conduit: loopback UDP datagrams between per-node sockets.
//!
//! One nonblocking `std::net::UdpSocket` is bound per simulated node
//! (127.0.0.1, ephemeral port); ranks stay threads, but every cross-node
//! delivery is carried by an actual datagram through the kernel's loopback
//! path. The reliability machinery is the core's, shared with the
//! simulator — fates, bounded backoff, park/take dedup, Lamport stamps —
//! run over a wire that can genuinely drop (socket buffer overflow) and
//! reorder, so delivering the same digests as the simulator is evidence the
//! runtime above is transport-independent.
//!
//! # Wire protocol
//!
//! A 26-byte frame, little-endian fields:
//!
//! ```text
//! [0]      magic      0xC7
//! [1]      kind       1 = DATA, 2 = ACK, 3 = SIGNAL
//! [2..10]  msg  u64   logical message id (NetCore::inject_to return)
//! [10..14] attempt u32 transmission attempt, 0-based
//! [14..18] src_node u32 sender's node index (ACK destination)
//! [18..26] lclock u64 sender's Lamport stamp (causal tracing; 0 untraced)
//! ```
//!
//! The `lclock` field is the sender's logical clock at injection, constant
//! across retransmissions — the resend is the same logical send. The
//! receiver merges it into the destination rank's clock before executing
//! the parked action, so causal stamps cross the real wire the same way
//! they cross the simulator.
//!
//! A SIGNAL frame is a DATA frame whose parked action carries a
//! notification badge (put/amo-with-signal): it rides the identical
//! ack/retransmit/dedup flights, so badge coalescing at the target happens
//! exactly once per signal op no matter what the wire did to the frame.
//!
//! A DATA frame carries no payload bytes: delivery actions are closures and
//! cannot cross the wire, so the action is parked in the core keyed by
//! `msg` before the datagram is sent, and the frame's arrival is what
//! triggers its execution. What the wire proves is therefore the *control*
//! path — which messages complete, when, in what order, after how many
//! retries — which is exactly the part the eager-vs-deferred comparison is
//! about. (The multi-process runner in `simtest` complements this with a
//! protocol whose payloads really do cross process boundaries.)
//!
//! # Reliability
//!
//! * The sender arms every transmission in `unacked` with a retransmission
//!   deadline *before* the frame reaches the kernel, so an ACK processed by
//!   a concurrent poller always finds the flight to retire. Deadline passes
//!   without an ACK → resend with `attempt + 1` and the core's doubled
//!   backoff (counted in `retries`).
//! * The receiver takes the payload out of the core's parked table on
//!   arrival; that removal *is* the dedup — a retransmitted or duplicated
//!   frame finds the table empty, is counted as `dup_suppressed`, and is
//!   re-ACKed (the original ACK may have been the lost packet).
//! * An ACK removes the `unacked` entry. ACKs are not themselves acked;
//!   a lost ACK surfaces as a retransmission plus a suppressed dup.
//! * `pending` counts undelivered messages: a suppressed frame changes
//!   nothing.
//!
//! # Fault injection on a real wire
//!
//! Only the fates that real packet handling can express are supported:
//! deliberate **drops** (skip the `send_to`; the retransmission path
//! recovers, same as the simulator's timer) and **duplicates** (send the
//! frame twice; receiver dedup suppresses one), both decided by the core's
//! seeded fate step. Reorder/burst/partition schedules and the virtual
//! clock require owning time, which a kernel socket does not allow —
//! [`crate::config::GasnexConfig::validate`] rejects those knobs for this
//! transport, and the constructor enforces the same contract for direct
//! users.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::sync::Mutex;
use std::time::Instant;

use crate::conduit::{Conduit, Fate, Header, InFlight, NetCore};
use crate::config::{ClockMode, NetConfig};
use crate::net::NetAction;
use crate::world::World;

const MAGIC: u8 = 0xC7;
const KIND_DATA: u8 = 1;
const KIND_ACK: u8 = 2;
const KIND_SIGNAL: u8 = 3;
const FRAME_LEN: usize = 26;

/// Frames taken from one socket per poll. A continuous stream into one
/// socket must not starve the others: their ACKs would overflow the kernel
/// receive buffer and come back as spurious retransmissions.
const DRAIN_BATCH: usize = 64;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Frame {
    kind: u8,
    msg: u64,
    attempt: u32,
    src_node: u32,
    /// Sender's Lamport stamp, piggybacked on every frame (0 untraced).
    lclock: u64,
}

impl Frame {
    fn encode(&self) -> [u8; FRAME_LEN] {
        let mut b = [0u8; FRAME_LEN];
        b[0] = MAGIC;
        b[1] = self.kind;
        b[2..10].copy_from_slice(&self.msg.to_le_bytes());
        b[10..14].copy_from_slice(&self.attempt.to_le_bytes());
        b[14..18].copy_from_slice(&self.src_node.to_le_bytes());
        b[18..26].copy_from_slice(&self.lclock.to_le_bytes());
        b
    }

    fn decode(b: &[u8]) -> Option<Frame> {
        if b.len() != FRAME_LEN || b[0] != MAGIC {
            return None;
        }
        let kind = b[1];
        if kind != KIND_DATA && kind != KIND_ACK && kind != KIND_SIGNAL {
            return None;
        }
        Some(Frame {
            kind,
            msg: u64::from_le_bytes(b[2..10].try_into().ok()?),
            attempt: u32::from_le_bytes(b[10..14].try_into().ok()?),
            src_node: u32::from_le_bytes(b[14..18].try_into().ok()?),
            lclock: u64::from_le_bytes(b[18..26].try_into().ok()?),
        })
    }
}

/// A sent-but-unacked transmission awaiting its retransmission deadline.
/// The header rides along so a resend keeps its stamp, its route (for
/// `inflight()`), and its SIGNAL kind.
#[derive(Clone, Copy)]
struct Flight {
    h: Header,
    from_node: usize,
    to_node: usize,
    attempt: u32,
    due_ns: u64,
}

/// The loopback-UDP [`Conduit`].
pub struct UdpConduit {
    epoch: Instant,
    ranks_per_node: u32,
    /// One socket per simulated node, all nonblocking, plus each socket's
    /// bound address (ACK and DATA destinations).
    sockets: Vec<UdpSocket>,
    addrs: Vec<SocketAddr>,
    /// Transmissions awaiting an ACK, keyed by message id.
    unacked: Mutex<HashMap<u64, Flight>>,
    /// One rank drains sockets at a time; losers take the busy-hint path.
    poll_gate: Mutex<()>,
}

impl UdpConduit {
    /// Bind one loopback socket per simulated node.
    ///
    /// # Panics
    ///
    /// Panics if the config asks for [`ClockMode::Virtual`] or for fault
    /// fates a real socket cannot express (reorder, burst, partition) —
    /// the same contract `GasnexConfig::validate` enforces — or if binding
    /// a loopback socket fails.
    pub fn new(cfg: NetConfig, ranks: u32, ranks_per_node: u32) -> Self {
        assert!(
            cfg.clock == ClockMode::Wall,
            "UDP conduit: real sockets cannot be time-warped; use ClockMode::Wall \
             (virtual-clock chaos replay is simulator-only)"
        );
        if let Some(plan) = &cfg.faults {
            plan.validate();
            assert!(
                plan.reorder_ppm == 0 && plan.burst_period_ns == 0 && plan.partition_until_ns == 0,
                "UDP conduit: only drop/dup fault fates are expressible on a real wire; \
                 reorder/burst/partition schedules require the simulated transport"
            );
        }
        let nodes = ranks.div_ceil(ranks_per_node).max(1) as usize;
        let mut sockets = Vec::with_capacity(nodes);
        let mut addrs = Vec::with_capacity(nodes);
        for node in 0..nodes {
            let s = UdpSocket::bind("127.0.0.1:0")
                .unwrap_or_else(|e| panic!("UDP conduit: bind node {node} socket: {e}"));
            s.set_nonblocking(true)
                .expect("UDP conduit: set_nonblocking");
            addrs.push(s.local_addr().expect("UDP conduit: local_addr"));
            sockets.push(s);
        }
        UdpConduit {
            epoch: Instant::now(),
            ranks_per_node,
            sockets,
            addrs,
            unacked: Mutex::new(HashMap::new()),
            poll_gate: Mutex::new(()),
        }
    }

    /// The bound address of each node's socket (multi-process tooling hook).
    pub fn node_addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    fn node_of(&self, r: u32) -> usize {
        (r / self.ranks_per_node) as usize % self.sockets.len()
    }

    /// Transmit attempt `f.attempt` after the core's fate selection: arm
    /// (or re-arm) its retransmission deadline first, then hand the frame
    /// to the kernel unless the attempt was dropped — twice if duplicated.
    fn send_attempt(&self, core: &NetCore, mut f: Flight) {
        let fate = core.fate(&f.h, f.attempt);
        f.due_ns = self.now_ns() + core.backoff_ns(f.attempt);
        self.unacked.lock().unwrap().insert(f.h.msg, f);
        if let Fate::Sent { dup } = fate {
            let frame = Frame {
                kind: if f.h.signal { KIND_SIGNAL } else { KIND_DATA },
                msg: f.h.msg,
                attempt: f.attempt,
                src_node: f.from_node as u32,
                lclock: f.h.lclock,
            }
            .encode();
            for _ in 0..1 + usize::from(dup) {
                // WouldBlock = the destination's socket buffer is full;
                // treat it as wire loss and let retransmission recover.
                let _ = self.sockets[f.from_node].send_to(&frame, self.addrs[f.to_node]);
            }
        }
    }

    /// Drain up to [`DRAIN_BATCH`] frames from one node socket, executing
    /// DATA deliveries and retiring ACKs.
    fn drain_socket(&self, core: &NetCore, node: usize, world: &World) -> usize {
        let mut work = 0;
        let mut buf = [0u8; 64];
        for _ in 0..DRAIN_BATCH {
            let len = match self.sockets[node].recv_from(&mut buf) {
                Ok((len, _peer)) => len,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            };
            let Some(frame) = Frame::decode(&buf[..len]) else {
                continue;
            };
            if frame.kind == KIND_ACK {
                self.unacked.lock().unwrap().remove(&frame.msg);
                continue;
            }
            // DATA and SIGNAL alike: the badge post lives inside the parked
            // action, and the core's take-from-table dedup is what makes it
            // coalesce once.
            work += 1;
            // ACK first (either way): if our earlier ACK was lost the sender
            // is still retransmitting and needs another.
            let ack = Frame {
                kind: KIND_ACK,
                src_node: node as u32,
                lclock: 0,
                ..frame
            }
            .encode();
            let _ = self.sockets[node]
                .send_to(&ack, self.addrs[frame.src_node as usize % self.addrs.len()]);
            core.arrive(world, frame.msg, frame.attempt, frame.lclock, false);
        }
        work
    }

    /// Resend every flight whose retransmission deadline has passed.
    fn retransmit_due(&self, core: &NetCore) -> usize {
        let now = self.now_ns();
        let due: Vec<Flight> = {
            let unacked = self.unacked.lock().unwrap();
            unacked
                .values()
                .filter(|f| f.due_ns <= now)
                .copied()
                .collect()
        };
        let n = due.len();
        for f in due {
            let attempt = f.attempt + 1;
            core.note_retry(&f.h, attempt);
            self.send_attempt(core, Flight { attempt, ..f });
        }
        n
    }
}

impl Conduit for UdpConduit {
    /// Park the payload (with its merge target) before the frame can
    /// possibly arrive, then put attempt 0 on the wire.
    fn inject(&self, core: &NetCore, h: Header, action: NetAction) {
        let nodes = self.sockets.len() as u64;
        let (from_node, to_node) = match h.route {
            Some((from, to)) => (self.node_of(from), self.node_of(to)),
            // No hint: spread deterministically so unrouted traffic still
            // exercises the wire between distinct sockets.
            None => ((h.msg % nodes) as usize, ((h.msg + 1) % nodes) as usize),
        };
        core.park(h.msg, h.route.map(|(_, t)| t), action);
        let f = Flight {
            h,
            from_node,
            to_node,
            attempt: 0,
            due_ns: 0,
        };
        self.send_attempt(core, f);
    }

    fn poll(&self, core: &NetCore, world: &World) -> usize {
        let _gate = match core.gate(&self.poll_gate) {
            Ok(g) => g,
            Err(busy) => return busy,
        };
        let mut work = 0;
        for node in 0..self.sockets.len() {
            work += self.drain_socket(core, node, world);
        }
        work + self.retransmit_due(core)
    }

    /// Wall clock only: a kernel socket cannot be time-warped.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every sent-but-unacked flight, in ascending `msg` order. An entry's
    /// `retransmit` flag is true once at least one resend happened.
    fn inflight(&self) -> Vec<InFlight> {
        let unacked = self.unacked.lock().unwrap();
        let mut out: Vec<InFlight> = unacked
            .values()
            .map(|f| InFlight {
                msg: f.h.msg,
                attempt: f.attempt,
                retransmit: f.attempt > 0,
                due_ns: f.due_ns,
                route: f.h.route,
            })
            .collect();
        out.sort_by_key(|f| (f.msg, f.due_ns));
        out
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conduit::splitmix64;
    use crate::config::{FaultPlan, GasnexConfig, Transport};
    use crate::rank::Rank;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    fn udp_world(faults: Option<FaultPlan>) -> Arc<World> {
        let net = NetConfig {
            faults,
            ..NetConfig::default()
        };
        World::new(
            GasnexConfig::udp(4, 2)
                .with_segment_size(1 << 12)
                .with_net(net)
                .with_transport(Transport::UdpSocket),
        )
    }

    fn drain(w: &World, n: u64) {
        let start = Instant::now();
        while w.net().delivered() < n || w.net().pending() > 0 {
            w.net().poll(w);
            assert!(
                start.elapsed().as_secs() < 10,
                "UDP conduit failed to drain: delivered {}/{n}, pending {}",
                w.net().delivered(),
                w.net().pending()
            );
        }
    }

    #[test]
    fn datagrams_deliver_actions_exactly_once() {
        let w = udp_world(None);
        let hits = Arc::new(AtomicU64::new(0));
        for i in 0..64u64 {
            let h = Arc::clone(&hits);
            w.net().inject_to(
                Some((Rank(i as u32 % 4), Rank((i as u32 + 1) % 4))),
                Box::new(move |_| {
                    h.fetch_add(1, Ordering::Relaxed);
                }),
                false,
            );
        }
        assert_eq!(
            hits.load(Ordering::Relaxed),
            0,
            "injection must never deliver synchronously"
        );
        drain(&w, 64);
        assert_eq!(hits.load(Ordering::Relaxed), 64);
        assert_eq!(w.net().delivered(), 64);
        assert_eq!(w.net().pending(), 0);
    }

    #[test]
    fn deliberate_drops_recover_via_retransmission() {
        let plan = FaultPlan::seeded(9)
            .with_drops(300_000)
            .with_retry(50_000, 400_000, 6);
        let w = udp_world(Some(plan));
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..128u64 {
            let h = Arc::clone(&hits);
            w.net().inject(Box::new(move |_| {
                h.fetch_add(1, Ordering::Relaxed);
            }));
        }
        drain(&w, 128);
        assert_eq!(hits.load(Ordering::Relaxed), 128);
        let s = w.net().stats();
        assert!(s.drops_injected > 0, "plan should have dropped frames");
        assert!(
            s.retries >= s.drops_injected,
            "every deliberate drop needs at least one retransmission"
        );
        assert!(s.max_backoff_ns >= 50_000 && s.max_backoff_ns <= 400_000);
    }

    #[test]
    fn duplicated_frames_are_suppressed() {
        let plan = FaultPlan::seeded(13).with_dups(400_000);
        let w = udp_world(Some(plan));
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..128u64 {
            let h = Arc::clone(&hits);
            w.net().inject(Box::new(move |_| {
                h.fetch_add(1, Ordering::Relaxed);
            }));
        }
        drain(&w, 128);
        assert_eq!(
            hits.load(Ordering::Relaxed),
            128,
            "dedup must keep exactly-once execution"
        );
        assert!(
            w.net().stats().dup_suppressed > 0,
            "plan should have duplicated frames"
        );
    }

    #[test]
    fn virtual_clock_is_rejected() {
        let r = std::panic::catch_unwind(|| {
            UdpConduit::new(NetConfig::default().with_virtual_clock(), 2, 1)
        });
        assert!(r.is_err(), "virtual clock must be rejected");
    }

    #[test]
    fn unexpressible_fault_fates_are_rejected() {
        let plan = FaultPlan::seeded(1).with_reorder(100_000, 5_000);
        let r = std::panic::catch_unwind(|| {
            UdpConduit::new(NetConfig::default().with_faults(plan), 2, 1)
        });
        assert!(r.is_err(), "reorder fate must be rejected on a real wire");
    }

    #[test]
    fn signal_frames_survive_wire_faults_exactly_once() {
        // SIGNAL frames ride the same ack/retransmit/dedup flights as
        // DATA: under drops + dups every signal action still runs exactly
        // once, and the signal counter sees every injection.
        let plan = FaultPlan::seeded(29)
            .with_drops(250_000)
            .with_dups(300_000)
            .with_retry(50_000, 400_000, 6);
        let w = udp_world(Some(plan));
        let hits = Arc::new(AtomicU64::new(0));
        for i in 0..96u64 {
            let h = Arc::clone(&hits);
            w.net().inject_to(
                Some((Rank(i as u32 % 4), Rank((i as u32 + 1) % 4))),
                Box::new(move |_| {
                    h.fetch_add(1, Ordering::Relaxed);
                }),
                true,
            );
        }
        drain(&w, 96);
        assert_eq!(
            hits.load(Ordering::Relaxed),
            96,
            "signal delivery must stay exactly-once under wire faults"
        );
        let s = w.net().stats();
        assert_eq!(s.signals, 96);
        assert!(s.drops_injected > 0, "plan should have dropped frames");
    }

    #[test]
    fn frame_roundtrip() {
        let f = Frame {
            kind: KIND_DATA,
            msg: 0xDEAD_BEEF_0123,
            attempt: 7,
            src_node: 3,
            lclock: 0x0123_4567_89AB_CDEF,
        };
        let d = Frame::decode(&f.encode()).expect("roundtrip");
        assert_eq!(d.kind, KIND_DATA);
        assert_eq!(d.msg, 0xDEAD_BEEF_0123);
        assert_eq!(d.attempt, 7);
        assert_eq!(d.src_node, 3);
        assert_eq!(d.lclock, 0x0123_4567_89AB_CDEF);
        let sig = Frame {
            kind: KIND_SIGNAL,
            ..f
        };
        let d = Frame::decode(&sig.encode()).expect("signal roundtrip");
        assert_eq!(d.kind, KIND_SIGNAL);
        assert!(Frame::decode(&[0u8; FRAME_LEN]).is_none(), "bad magic");
        assert!(Frame::decode(&[MAGIC; 4]).is_none(), "short frame");
    }

    #[test]
    fn acks_racing_ahead_of_injection_leave_no_stale_flights() {
        // A flight must be armed before its frame reaches the kernel.
        // Otherwise a concurrent poller can receive the DATA frame and
        // process its ACK first: the ACK finds no flight to retire, and the
        // late-armed flight lingers until its deadline fires a spurious
        // resend. A clean wire with a one-second RTO must drain to zero
        // flights.
        let plan = FaultPlan::seeded(0).with_retry(1_000_000_000, 1_000_000_000, 8);
        let w = udp_world(Some(plan));
        const N: u64 = 200_000;
        const WINDOW: u64 = 16;
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    w.net().poll(&w);
                }
            });
            let start = Instant::now();
            let wait_until = |ok: &dyn Fn() -> bool| {
                while !ok() {
                    assert!(start.elapsed().as_secs() < 120, "poller stopped delivering");
                    std::thread::yield_now();
                }
            };
            for _ in 0..N {
                wait_until(&|| w.net().injected() - w.net().delivered() < WINDOW);
                w.net()
                    .inject_to(Some((Rank(0), Rank(2))), Box::new(|_| {}), false);
            }
            wait_until(&|| w.net().delivered() == N);
            // The last ACKs may still sit in the socket: give the poller a
            // bounded grace period, far shorter than the RTO, to retire them.
            let grace = Instant::now();
            while !w.net().inflight().is_empty() && grace.elapsed().as_millis() < 250 {
                std::thread::yield_now();
            }
            done.store(true, Ordering::Relaxed);
        });
        let stale = w.net().inflight();
        assert!(
            stale.is_empty(),
            "{} stale flights outlived their ACKs, first {:?}",
            stale.len(),
            stale.first()
        );
    }

    #[test]
    fn frame_decode_rejects_or_roundtrips_arbitrary_bytes() {
        // Decoder robustness: seeded random datagrams, every truncation and
        // every single-byte mutation of valid DATA/ACK/SIGNAL frames must
        // either be rejected or decode to a frame that re-encodes to exactly
        // the input bytes — and never panic.
        let check = |b: &[u8]| {
            if let Some(f) = Frame::decode(b) {
                assert_eq!(
                    &f.encode()[..],
                    b,
                    "decoded frame must re-encode to its input"
                );
            }
        };
        let mut x = 0x5EED_u64;
        for _ in 0..20_000 {
            x = splitmix64(x);
            let len = (x % 65) as usize;
            let mut b: Vec<u8> = (0..len as u64).map(|i| splitmix64(x ^ i) as u8).collect();
            // Bias half the inputs past the magic and kind checks so the
            // field decoding is exercised too.
            if len >= 2 && x & (1 << 20) != 0 {
                b[0] = MAGIC;
                b[1] = (x >> 24) as u8 % 4;
            }
            check(&b);
        }
        for kind in [KIND_DATA, KIND_ACK, KIND_SIGNAL] {
            let valid = Frame {
                kind,
                msg: 0x0123_4567_89AB_CDEF,
                attempt: 3,
                src_node: 1,
                lclock: 42,
            }
            .encode();
            check(&valid);
            for cut in 0..FRAME_LEN {
                assert!(Frame::decode(&valid[..cut]).is_none(), "truncated at {cut}");
            }
            for pos in 0..FRAME_LEN {
                for v in 0..=u8::MAX {
                    let mut m = valid;
                    m[pos] = v;
                    check(&m);
                }
            }
        }
    }
}
