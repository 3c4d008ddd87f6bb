//! A known machine's `load_report` costs the service one heap
//! allocation: the machine name its `Ack` carries. The machine's key is
//! not copied again, the forecast's contender count is read without a
//! forecaster name, and no workload mix is built — not even when the
//! report changes the forecast shape. Pinned with a global allocator
//! that counts this thread's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use predictd::proto::{LoadReport, Request, Response};
use predictd::{Affinity, Service, ServiceConfig};

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

fn report(machine: &str, at: f64, load: f64) -> Request {
    Request::LoadReport(LoadReport { machine: machine.to_string(), at, load, comm_frac: 0.25 })
}

#[test]
fn a_known_machines_report_allocates_only_the_acks_name() {
    let service = Service::with_default_predictor(ServiceConfig::default());
    let mut aff = Affinity::new();
    let machines: Vec<String> = (0..8).map(|i| format!("alloc-m{i}")).collect();
    // Loads that move the forecast's contender count on most reports.
    let load = |t: u32| f64::from(t % 5) * 2.0;
    // Warm every machine's window and forecaster buffers to capacity.
    for t in 0..200 {
        for m in &machines {
            service.handle_local(&report(m, f64::from(t), load(t)), &mut aff);
        }
    }
    let requests: Vec<Vec<Request>> = (200..300)
        .map(|t| machines.iter().map(|m| report(m, f64::from(t), load(t))).collect())
        .collect();
    let before = ALLOCATIONS.with(Cell::get);
    let mut acked = 0u64;
    for round in &requests {
        for req in round {
            let (resp, _) = service.handle_local(req, &mut aff);
            if matches!(resp, Response::Ack(ref a) if a.accepted) {
                acked += 1;
            }
        }
    }
    let counted = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(acked, 800, "every report is accepted");
    assert_eq!(counted, acked, "{counted} allocations for {acked} reports");
    assert_eq!(aff.replicas(), machines.len(), "every report went through the replica too");
}
