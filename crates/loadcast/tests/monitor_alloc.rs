//! A load monitor is one fixed-size value: building it and ingesting
//! reports allocates nothing — no sample buffer, no boxed forecasters,
//! no formatted names — and neither does a query, whether it reads the
//! contender count or the whole forecast with its forecaster's static
//! name. Pinned with a global allocator that counts this thread's
//! allocations.

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
fn a_monitor_a_thousand_reports_and_their_forecasts_allocate_nothing() {
    let before = ALLOCATIONS.with(Cell::get);
    let mut monitor = LoadMonitor::new(MonitorConfig::default());
    let (mut accepted, mut fresh, mut stale) = (0u32, 0u32, 0u32);
    let mut names = 0usize;
    for t in 0..1000u32 {
        // A sawtooth with a fractional step, so every forecaster's
        // window and every EWMA keeps moving, and a tracked fraction.
        let load = f64::from(t % 7) * 1.25;
        if monitor.report(secs(f64::from(t)), load, Some(prob(0.25))) {
            accepted += 1;
        }
        // One query inside the 10 s horizon, one past it.
        for age in [0.5, 100.0] {
            let f = monitor.forecast(secs(f64::from(t) + age));
            names += f.forecaster.len();
            if f.stale {
                stale += 1;
            } else {
                fresh += 1;
            }
        }
    }
    let counted = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!((accepted, fresh, stale), (1000, 1000, 1000));
    assert!(names > 0);
    assert_eq!(counted, 0, "{counted} allocations for a monitor, 1000 reports, 2000 forecasts");
}
