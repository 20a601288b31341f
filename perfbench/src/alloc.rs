//! Counting global allocator: exact heap allocations and bytes per thread.
//!
//! Counters are thread-local, so the two rank threads never share a cache
//! line and a count read on the initiating rank covers exactly the work that
//! rank's thread did. The const-initialised `Cell`s need no lazy set-up,
//! so touching them from inside the allocator cannot recurse.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with` fails only while the thread's locals are being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's pointer,
// layout and size unchanged, so `System` upholds the `GlobalAlloc`
// contract; the counting side effect touches only const-initialised
// thread-locals and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Heap allocations (a `realloc` counts as one) and bytes requested so far
/// on the calling thread.
#[derive(Clone, Copy, Default)]
pub struct AllocCount {
    pub allocs: u64,
    pub bytes: u64,
}

impl AllocCount {
    pub fn now() -> Self {
        AllocCount {
            allocs: ALLOCS.with(Cell::get),
            bytes: BYTES.with(Cell::get),
        }
    }

    pub fn since(self, earlier: AllocCount) -> AllocCount {
        AllocCount {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}
