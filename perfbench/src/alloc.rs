//! A counting global allocator for the traced run.
//!
//! Counting is off until [`CountingAlloc::enable`]: the untraced run,
//! which gives the end-to-end numbers, pays one relaxed load per
//! allocation and no shared-counter traffic from the rank threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// `System`, plus a count of allocation calls (`alloc`, `alloc_zeroed`
/// and `realloc`; frees are not counted) while enabled.
pub struct CountingAlloc {
    enabled: AtomicBool,
    allocs: AtomicU64,
}

impl CountingAlloc {
    pub const fn new() -> Self {
        CountingAlloc {
            enabled: AtomicBool::new(false),
            allocs: AtomicU64::new(0),
        }
    }

    /// Start counting. The flag and the counter publish no other data,
    /// so relaxed ordering suffices.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Allocation calls counted so far, over all threads.
    pub fn count(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }

    fn bump(&self) {
        if self.enabled.load(Ordering::Relaxed) {
            self.allocs.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter update touches
// only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.bump();
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.bump();
        // SAFETY: as for `dealloc`, and the caller guarantees
        // `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
