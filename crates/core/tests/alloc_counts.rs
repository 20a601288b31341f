//! Exact heap allocations per op on the initiating thread, for the four
//! micro ops (rput, rget, fetch_add, fetch_add_into) on the three paths:
//! off-node, on-node eager and on-node deferred.
//!
//! This file is its own test binary so it can install a counting global
//! allocator. Counters are thread-local: rank 0's count covers exactly the
//! work its thread did. Rank 1 waits on a condvar outside the runtime while
//! rank 0 measures, so it never polls and cannot move a delivery (and the
//! allocations it makes) onto another thread's counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Condvar, Mutex};

use upcr::{launch, LibVersion, NetConfig, RuntimeConfig, Upcr};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` with the caller's pointer,
// layout and size unchanged; the counting side effect touches only a
// const-initialised thread-local and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs_now() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Ops per measured run; every op type first runs as many to warm up.
const OPS: u64 = 256;

/// Heap allocations per op of `[rput, rget, fetch_add, fetch_add_into]`,
/// each op waited on before the next, initiated by rank 0 against rank 1.
/// Panics unless every count is a whole number per op.
fn allocs_per_op(cfg: RuntimeConfig) -> [u64; 4] {
    let gate = (Mutex::new(false), Condvar::new());
    launch(cfg.with_segment_size(1 << 16), |u: &Upcr| {
        let word = u.broadcast(u.new_::<u64>(0), 1);
        let counter = u.broadcast(u.new_::<u64>(0), 1);
        u.barrier();
        let mut out = [0u64; 4];
        if u.rank_me() == 0 {
            let ad = u.atomic_domain::<u64>();
            let result = u.new_::<u64>(0);
            let ops: [&dyn Fn(u64); 4] = [
                &|i| u.rput(i, word).wait(),
                &|_| {
                    u.rget(word).wait();
                },
                &|i| {
                    ad.fetch_add(counter, i).wait();
                },
                &|i| ad.fetch_add_into(counter, i, result).wait(),
            ];
            for (slot, op) in out.iter_mut().zip(ops) {
                (0..OPS).for_each(op);
                let before = allocs_now();
                (0..OPS).for_each(op);
                let n = allocs_now() - before;
                assert_eq!(n % OPS, 0, "{n} allocations over {OPS} ops");
                *slot = n / OPS;
            }
            *gate.0.lock().unwrap() = true;
            gate.1.notify_all();
        } else {
            let mut open = gate.0.lock().unwrap();
            while !*open {
                open = gate.1.wait(open).unwrap();
            }
        }
        u.barrier();
        out
    })
    .swap_remove(0)
}

#[test]
fn offnode_op_makes_four_allocations() {
    // The completion record, the boxed delivery action, the future's cell
    // and the boxed notification closure.
    let net = NetConfig {
        latency_ns: 0,
        jitter_ns: 0,
        ..NetConfig::default()
    };
    let cfg = RuntimeConfig::udp(2, 1)
        .with_net(net)
        .with_version(LibVersion::V2021_3_6Eager);
    assert_eq!(allocs_per_op(cfg), [4, 4, 4, 4]);
}

#[test]
fn onnode_eager_op_allocates_only_for_a_value() {
    // A unit future shares the ready cell; a value-carrying one needs its
    // own; fetch_add_into writes its result to memory.
    let cfg = RuntimeConfig::smp(2).with_version(LibVersion::V2021_3_6Eager);
    assert_eq!(allocs_per_op(cfg), [0, 1, 1, 0]);
}

#[test]
fn onnode_deferred_op_makes_two_allocations() {
    // The future's cell and the boxed deferred closure.
    let cfg = RuntimeConfig::smp(2).with_version(LibVersion::V2021_3_6Defer);
    assert_eq!(allocs_per_op(cfg), [2, 2, 2, 2]);
}
