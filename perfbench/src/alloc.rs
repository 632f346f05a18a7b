//! A counting global allocator for the traced run.
//!
//! Only the `perfbench-traced` binary installs it, so untraced end-to-end
//! runs never pay for counting. Counting is further gated by
//! [`CountingAlloc::measure`], so set-up and replay allocations stay out of
//! the per-join figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Wraps the system allocator, counting allocations while switched on.
pub struct CountingAlloc {
    on: AtomicBool,
    count: AtomicU64,
    bytes: AtomicU64,
}

impl CountingAlloc {
    pub const fn new() -> Self {
        Self {
            on: AtomicBool::new(false),
            count: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Runs `f` with counting on; returns its result plus the allocations
    /// (count, bytes) every thread made meanwhile. Reallocations count as
    /// one allocation of the new size.
    pub fn measure<R>(&self, f: impl FnOnce() -> R) -> (R, u64, u64) {
        // The counters are plain statistics that publish no other data,
        // hence `Relaxed` throughout.
        self.count.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
        self.on.store(true, Ordering::Relaxed);
        let r = f();
        self.on.store(false, Ordering::Relaxed);
        let (count, bytes) = (
            self.count.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        );
        (r, count, bytes)
    }

    fn record(&self, size: usize) {
        if self.on.load(Ordering::Relaxed) {
            self.count.fetch_add(1, Ordering::Relaxed);
            self.bytes.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting touches
// only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.record(layout.size());
        // SAFETY: forwarded contract of `GlobalAlloc::alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.record(layout.size());
        // SAFETY: forwarded contract of `GlobalAlloc::alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract of `GlobalAlloc::dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.record(new_size);
        // SAFETY: forwarded contract of `GlobalAlloc::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
