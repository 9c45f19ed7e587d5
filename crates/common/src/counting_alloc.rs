//! A counting global allocator: what code costs the heap, as numbers a test
//! can bound.
//!
//! A test binary or experiment that reports an allocation budget installs
//! it with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: tcq_common::CountingAlloc = tcq_common::CountingAlloc::new();
//! ```
//!
//! and diffs [`CountingAlloc::allocs`] (allocation *events*: `alloc`,
//! `alloc_zeroed`, `realloc`) or [`CountingAlloc::live_bytes`] (bytes held
//! now) around the measured section. The counts are process-wide — every
//! thread's allocations land in the same relaxed atomics — so a measured
//! section quiesces background threads first or accepts their noise, and a
//! binary whose tests measure in parallel runs them one at a time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicU64, Ordering};

/// A [`GlobalAlloc`] that delegates to [`System`] and counts allocation
/// events and live bytes.
pub struct CountingAlloc {
    allocs: AtomicU64,
    live: AtomicIsize,
}

impl CountingAlloc {
    /// A fresh counter around the system allocator.
    pub const fn new() -> Self {
        CountingAlloc {
            allocs: AtomicU64::new(0),
            live: AtomicIsize::new(0),
        }
    }

    /// Allocation events (`alloc`, `alloc_zeroed`, `realloc`) since process
    /// start.
    pub fn allocs(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }

    /// Bytes currently allocated, process-wide.
    pub fn live_bytes(&self) -> isize {
        self.live.load(Ordering::SeqCst)
    }

    /// The allocation events `f` makes, and what it returns.
    pub fn count<R>(&self, f: impl FnOnce() -> R) -> (u64, R) {
        let before = self.allocs();
        let out = f();
        (self.allocs() - before, out)
    }

    fn track(&self, ptr: *mut u8, delta: isize) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        if !ptr.is_null() {
            self.live.fetch_add(delta, Ordering::Relaxed);
        }
        ptr
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: every operation is delegated to `System` unchanged; the counters
// are relaxed atomic adds, which neither allocate nor lock.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.track(unsafe { System.alloc(layout) }, layout.size() as isize)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.track(
            unsafe { System.alloc_zeroed(layout) },
            layout.size() as isize,
        )
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.live
            .fetch_sub(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let delta = new_size as isize - layout.size() as isize;
        self.track(unsafe { System.realloc(ptr, layout, new_size) }, delta)
    }
}
