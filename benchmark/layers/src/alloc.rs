//! A counting global allocator: how many heap allocations, how many
//! bytes and what peak a run phase needs. These counts are exact for a
//! single-threaded run of a fixed seed, so they can gate a change on a
//! machine whose wall clock cannot.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Forwards to the system allocator and counts.
pub struct Counting;

// Statistics only: no other memory is published through them.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(by: u64) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(by, Relaxed);
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract is `System.alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: the caller's contract is `System.dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's contract is `System.realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            grew(new_size as u64);
        }
        p
    }
}

/// Allocation counters at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    pub allocs: u64,
    pub bytes: u64,
}

/// Starts a measured phase: the peak restarts from what is live now.
pub fn begin_phase() -> Snapshot {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
    Snapshot {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Ends a phase: `(allocations, bytes requested, peak live bytes)`
/// since `start`.
pub fn end_phase(start: Snapshot) -> (u64, u64, u64) {
    (
        ALLOCS.load(Relaxed) - start.allocs,
        BYTES.load(Relaxed) - start.bytes,
        PEAK.load(Relaxed),
    )
}
