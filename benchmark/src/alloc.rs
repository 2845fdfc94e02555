//! A counting wrapper around the system allocator, for the `alloc` layer.
//!
//! Counting is off except around the one single-threaded in-process run it
//! measures: with it off an allocation costs one relaxed load of a flag no
//! thread writes, so the timed runs are not slowed by contended counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
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

/// Allocation calls and bytes requested while `body` ran (all threads).
pub fn counted<T>(body: impl FnOnce() -> T) -> (T, u64, u64) {
    let (c0, b0) = (COUNT.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    ENABLED.store(true, Ordering::SeqCst);
    let out = body();
    ENABLED.store(false, Ordering::SeqCst);
    (
        out,
        COUNT.load(Ordering::SeqCst) - c0,
        BYTES.load(Ordering::SeqCst) - b0,
    )
}
