//! The benchmark's counting global allocator.
//!
//! Every allocation (and every reallocation, counted as one allocation of
//! its new size, as the default `GlobalAlloc::realloc` would count it) bumps
//! a counter pair in a per-thread shard. Shards keep the two campaign
//! workers of the multi-thread workload off each other's cache lines, so
//! counting costs an uncontended add rather than a bounced line. The
//! process total is the sum of all shards; a thread's own shard gives the
//! per-span counts the traced loop reads (it runs on one thread, and no
//! other thread allocates while it runs).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const SHARDS: usize = 64;

#[repr(align(128))]
struct Shard {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

static TABLE: [Shard; SHARDS] = [const {
    Shard {
        allocs: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; SHARDS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it from inside
    // the allocator never allocates and never fails during thread exit.
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn shard() -> &'static Shard {
    let slot = SLOT
        .try_with(|slot| {
            if slot.get() == usize::MAX {
                slot.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SHARDS);
            }
            slot.get()
        })
        .unwrap_or(0);
    &TABLE[slot]
}

fn note(bytes: usize) {
    let shard = shard();
    shard.allocs.fetch_add(1, Ordering::Relaxed);
    shard.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// `System`, with every allocation counted.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counting only touches atomics and a const thread-local,
// neither of which allocates.
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

/// Allocations and allocated bytes so far, summed over every thread.
pub fn totals() -> (u64, u64) {
    TABLE.iter().fold((0, 0), |(n, b), s| {
        (
            n + s.allocs.load(Ordering::Relaxed),
            b + s.bytes.load(Ordering::Relaxed),
        )
    })
}

/// Allocations made so far on the calling thread's shard.
pub fn thread_allocs() -> u64 {
    shard().allocs.load(Ordering::Relaxed)
}
