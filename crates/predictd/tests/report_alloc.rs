//! A known machine's `load_report` costs the service one heap
//! allocation: the machine name its `Ack` carries. The machine's key is
//! not copied again, the forecast's contender count is read without a
//! forecaster name, and no workload mix is built — not even when the
//! report changes the forecast shape. A new machine's first report
//! costs two: its key and the `Ack`'s name; it holds no mix until a
//! query needs one, and its monitor and forecaster bank are one inline
//! value. Pinned with a global allocator
//! that counts this thread's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use predictd::proto::{LoadReport, Request, Response};
use predictd::{Service, ServiceConfig};

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
    let machines: Vec<String> = (0..8).map(|i| format!("alloc-m{i}")).collect();
    // Loads that move the forecast's contender count on most reports.
    let load = |t: u32| f64::from(t % 5) * 2.0;
    // Warm every machine's forecaster ring past capacity.
    for t in 0..200 {
        for m in &machines {
            service.handle(&report(m, f64::from(t), load(t)));
        }
    }
    let requests: Vec<Vec<Request>> = (200..300)
        .map(|t| machines.iter().map(|m| report(m, f64::from(t), load(t))).collect())
        .collect();
    let before = ALLOCATIONS.with(Cell::get);
    let mut acked = 0u64;
    for round in &requests {
        for req in round {
            let (resp, _) = service.handle(req);
            if matches!(resp, Response::Ack(ref a) if a.accepted) {
                acked += 1;
            }
        }
    }
    let counted = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(acked, 800, "every report is accepted");
    assert_eq!(counted, acked, "{counted} allocations for {acked} reports");
}

#[test]
fn a_new_machines_first_report_allocates_its_key_and_its_ack() {
    // One shard, already holding a machine: the first sightings below
    // land in the same map leaf, so no node allocation blurs the count.
    let service =
        Service::with_default_predictor(ServiceConfig { shards: 1, ..Default::default() });
    service.handle(&report("alloc-warm", 0.0, 1.0));
    let requests: Vec<Request> =
        (0..8).map(|i| report(&format!("alloc-new{i}"), 1.0, f64::from(i))).collect();
    let before = ALLOCATIONS.with(Cell::get);
    for req in &requests {
        let (resp, _) = service.handle(req);
        assert!(matches!(resp, Response::Ack(ref a) if a.accepted), "{resp:?}");
    }
    let counted = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(service.machine_count(), 9);
    assert_eq!(counted, 2 * 8, "{counted} allocations for 8 first sightings");
}
