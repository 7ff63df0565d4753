//! Process-wide work counters of the bench binaries: allocator traffic
//! and [`copyvol`] copy volume.
//!
//! The library installs a counting global allocator, so every binary that
//! links `dss_bench` (fig4, fig5, further, perfsnap) reports allocations
//! without any wiring of its own. The counters are process-wide: a
//! measured region must be fenced so no other work overlaps it (see
//! [`crate::harness::fenced`]).

use dss_strkit::copyvol;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper counting calls and requested bytes.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System` unchanged; the counters
// are side effects only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A reading of the process-wide counters, or the delta between two.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Allocator calls (`alloc` + `realloc`).
    pub allocs: u64,
    /// Bytes requested from the allocator.
    pub alloc_bytes: u64,
    /// Payload/handle bytes copied by the instrumented hot paths
    /// ([`copyvol::bytes_copied`]); deterministic per input.
    pub bytes_copied: u64,
}

impl Counters {
    /// Current totals.
    pub fn now() -> Self {
        Self {
            allocs: ALLOC_CALLS.load(Ordering::Relaxed),
            alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
            bytes_copied: copyvol::bytes_copied(),
        }
    }

    /// What was counted since the reading `start`.
    pub fn since(start: Self) -> Self {
        let now = Self::now();
        Self {
            allocs: now.allocs - start.allocs,
            alloc_bytes: now.alloc_bytes - start.alloc_bytes,
            bytes_copied: now.bytes_copied - start.bytes_copied,
        }
    }

    /// Field-wise minimum (the repetition rule: each counter keeps its
    /// least noisy observation).
    pub fn min(self, o: Self) -> Self {
        Self {
            allocs: self.allocs.min(o.allocs),
            alloc_bytes: self.alloc_bytes.min(o.alloc_bytes),
            bytes_copied: self.bytes_copied.min(o.bytes_copied),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocator_is_counted() {
        let c0 = Counters::now();
        let v: Vec<u64> = Vec::with_capacity(1000);
        let d = Counters::since(c0);
        drop(v);
        // Other test threads may allocate concurrently, so only lower
        // bounds hold.
        assert!(d.allocs >= 1);
        assert!(d.alloc_bytes >= 8000);
    }
}
