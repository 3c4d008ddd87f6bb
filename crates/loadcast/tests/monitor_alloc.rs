//! A load monitor is one fixed-size value: building it and ingesting
//! reports allocates nothing — no sample buffer, no boxed forecasters,
//! no formatted names — and neither does the allocation-free contender
//! count a query reads. Pinned with a global allocator that counts this
//! thread's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use contention_model::units::{prob, secs};
use loadcast::{LoadMonitor, MonitorConfig};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every call to the system allocator unchanged; the
// counter is a const-initialized thread-local with no destructor, so
// touching it cannot allocate or re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_monitor_and_a_thousand_reports_allocate_nothing() {
    let before = ALLOCATIONS.with(Cell::get);
    let mut monitor = LoadMonitor::new(MonitorConfig::default());
    let mut accepted = 0u32;
    let mut fresh = 0u32;
    for t in 0..1000u32 {
        // A sawtooth with a fractional step, so every forecaster's
        // window and every EWMA keeps moving, and a tracked fraction.
        let load = f64::from(t % 7) * 1.25;
        if monitor.report(secs(f64::from(t)), load, Some(prob(0.25))) {
            accepted += 1;
        }
        if monitor.contenders_at(secs(f64::from(t) + 0.5)).is_some() {
            fresh += 1;
        }
    }
    let counted = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!((accepted, fresh), (1000, 1000));
    assert_eq!(counted, 0, "{counted} allocations for a monitor and 1000 reports");
}
