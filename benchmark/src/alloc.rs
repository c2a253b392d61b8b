//! Counting global allocator: live bytes, peak live bytes, allocation count.
//!
//! Always installed in the benchmark binary, so its (relaxed-atomic) cost is
//! the same on both sides of any comparison. The arithmetic lives in
//! [`Counters`] so tests can drive a private instance without racing the
//! process-wide one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Live/peak/count bookkeeping. Statistics only: nothing is published
/// through these atomics, so `Relaxed` is enough.
pub struct Counters {
    live: AtomicUsize,
    peak: AtomicUsize,
    allocs: AtomicU64,
}

impl Counters {
    pub const fn new() -> Self {
        Counters {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            allocs: AtomicU64::new(0),
        }
    }

    fn grow(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Relaxed) + bytes;
        self.peak.fetch_max(live, Relaxed);
    }

    fn shrink(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Relaxed);
    }

    pub fn on_alloc(&self, size: usize) {
        self.allocs.fetch_add(1, Relaxed);
        self.grow(size);
    }

    pub fn on_dealloc(&self, size: usize) {
        self.shrink(size);
    }

    /// A realloc counts as one allocation and moves `live` by the size
    /// difference only: the old block is never live beside the new one from
    /// the program's point of view.
    pub fn on_realloc(&self, old: usize, new: usize) {
        self.allocs.fetch_add(1, Relaxed);
        if new >= old {
            self.grow(new - old);
        } else {
            self.shrink(old - new);
        }
    }

    pub fn live(&self) -> usize {
        self.live.load(Relaxed)
    }

    pub fn peak(&self) -> usize {
        self.peak.load(Relaxed)
    }

    pub fn allocs(&self) -> u64 {
        self.allocs.load(Relaxed)
    }

    /// Restarts peak tracking from the current live size.
    pub fn reset_peak(&self) {
        self.peak.store(self.live(), Relaxed);
    }
}

/// The process-wide counters behind [`CountingAllocator`].
pub static HEAP: Counters = Counters::new();

pub struct CountingAllocator;

// SAFETY: every method forwards the caller's pointer and layout unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the bookkeeping touches
// only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            HEAP.on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            HEAP.on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        HEAP.on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from this allocator (hence `System`) with
        // `layout`; `new_size` is the caller's to vouch for.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            HEAP.on_realloc(layout.size(), new_size);
        }
        new
    }
}

#[cfg(test)]
mod tests {
    use super::Counters;

    #[test]
    fn live_and_peak_follow_alloc_realloc_dealloc() {
        let c = Counters::new();
        c.on_alloc(100);
        c.on_alloc(50);
        assert_eq!((c.live(), c.peak(), c.allocs()), (150, 150, 2));
        c.on_realloc(100, 400); // grow in place: +300
        assert_eq!((c.live(), c.peak(), c.allocs()), (450, 450, 3));
        c.on_realloc(400, 10); // shrink: -390, peak stays
        assert_eq!((c.live(), c.peak(), c.allocs()), (60, 450, 4));
        c.on_dealloc(50);
        c.on_dealloc(10);
        assert_eq!((c.live(), c.peak()), (0, 450));
    }

    #[test]
    fn reset_peak_restarts_from_live() {
        let c = Counters::new();
        c.on_alloc(1000);
        c.on_dealloc(900);
        c.reset_peak();
        assert_eq!(c.peak(), 100);
        c.on_alloc(5);
        assert_eq!(c.peak(), 105);
    }
}
