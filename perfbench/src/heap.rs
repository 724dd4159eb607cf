//! A counting wrapper around the system allocator: the benchmark's measure
//! of the program's peak memory.
//!
//! Peak resident memory (`VmHWM`) of a run with worker threads moves by a
//! quarter from run to run of the same code and seed, because which malloc
//! arena serves which short-lived thread, and so how much each arena
//! retains, depends on timing. The peak of live heap bytes does not.
//!
//! Counting is armed only around a set-up, so timed rounds pay one relaxed
//! load per allocation and nothing more. While armed, the counter holds the
//! net bytes allocated since it was armed, so memory allocated earlier and
//! freed meanwhile is subtracted as it should be.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

/// Net live bytes since the counter was armed, and their peak.
#[derive(Debug)]
struct Counter {
    armed: AtomicBool,
    net: AtomicIsize,
    peak: AtomicIsize,
}

impl Counter {
    const fn new() -> Self {
        Counter {
            armed: AtomicBool::new(false),
            net: AtomicIsize::new(0),
            peak: AtomicIsize::new(0),
        }
    }

    fn grew(&self, by: usize) {
        if self.armed.load(Relaxed) {
            let by = by as isize;
            let net = self.net.fetch_add(by, Relaxed) + by;
            if net > self.peak.load(Relaxed) {
                self.peak.fetch_max(net, Relaxed);
            }
        }
    }

    fn shrank(&self, by: usize) {
        if self.armed.load(Relaxed) {
            self.net.fetch_sub(by as isize, Relaxed);
        }
    }

    fn arm(&self) {
        self.net.store(0, Relaxed);
        self.peak.store(0, Relaxed);
        self.armed.store(true, Relaxed);
    }

    fn disarm(&self) -> f64 {
        self.armed.store(false, Relaxed);
        self.peak.load(Relaxed) as f64 / f64::from(1 << 20)
    }
}

static COUNTER: Counter = Counter::new();

/// The system allocator, counting net live bytes while armed.
#[derive(Debug)]
pub struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            COUNTER.grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            COUNTER.grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        COUNTER.shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            let old = layout.size();
            if new_size >= old {
                COUNTER.grew(new_size - old);
            } else {
                COUNTER.shrank(old - new_size);
            }
        }
        p
    }
}

/// Starts counting from zero. Call it with no other thread allocating.
pub fn arm() {
    COUNTER.arm();
}

/// Stops counting and returns the peak of net live heap bytes since
/// [`arm`], in MiB. Call it with no other thread allocating.
pub fn disarm() -> f64 {
    COUNTER.disarm()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_counts_net_bytes_while_armed() {
        const MIB: usize = 1 << 20;
        let c = Counter::new();
        c.grew(MIB);
        c.arm();
        c.grew(3 * MIB);
        c.shrank(MIB); // freed memory allocated before arming
        c.grew(MIB);
        c.shrank(3 * MIB);
        assert_eq!(c.disarm(), 3.0);
        c.grew(8 * MIB);
        assert_eq!(c.disarm(), 3.0, "nothing counts while disarmed");
        c.arm();
        assert_eq!(c.disarm(), 0.0);
    }
}
