//! A known machine's `load_report` costs the service one heap
//! allocation: the machine name its `Ack` carries. The machine's key is
//! not copied again, the forecast's contender count is read without a
//! forecaster name, and no workload mix is built — not even when the
//! report changes the forecast shape. A new machine's first report
//! costs two: its key and the `Ack`'s name; it holds no profile until a
//! query needs one, and its monitor and forecaster bank are one inline
//! value. After its first fresh `predict` a machine holds three heap
//! blocks: its key and its profile's two vectors; the mix the profile
//! was folded from is gone. Pinned with a global allocator that counts
//! this thread's allocations and the heap blocks it holds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use contention_model::dataset::DataSet;
use contention_model::predict::ParagonTask;
use contention_model::units::secs;
use predictd::proto::{LoadReport, Predict, Request, Response};
use predictd::{Service, ServiceConfig};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Blocks allocated minus blocks freed; a `realloc` moves a block.
    static BLOCKS: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every call to the system allocator unchanged; the
// counter is a const-initialized thread-local with no destructor, so
// touching it cannot allocate or re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        BLOCKS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        BLOCKS.with(|n| n.set(n.get() - 1));
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

/// Machines already in the one shard before the counted first
/// sightings: with 17, the slab holds 32 states and the index 28
/// names, so the next 8 sightings cross no growth step of either.
const WARM: usize = 17;

/// A one-shard service holding [`WARM`] machines.
fn warm_one_shard_service() -> Service {
    let service =
        Service::with_default_predictor(ServiceConfig { shards: 1, ..Default::default() });
    for i in 0..WARM {
        service.handle(&report(&format!("alloc-warm{i}"), 0.0, 1.0));
    }
    service
}

#[test]
fn a_new_machines_first_report_allocates_its_key_and_its_ack() {
    let service = warm_one_shard_service();
    let requests: Vec<Request> =
        (0..8).map(|i| report(&format!("alloc-new{i}"), 1.0, f64::from(i))).collect();
    let before = ALLOCATIONS.with(Cell::get);
    for req in &requests {
        let (resp, _) = service.handle(req);
        assert!(matches!(resp, Response::Ack(ref a) if a.accepted), "{resp:?}");
    }
    let counted = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(service.machine_count(), WARM + 8);
    assert_eq!(counted, 2 * 8, "{counted} allocations for 8 first sightings");
}

#[test]
fn a_machine_holds_its_key_and_its_profile_and_no_mix() {
    let service = warm_one_shard_service();
    let task = ParagonTask {
        dcomp_sun: secs(30.0),
        t_paragon: secs(6.0),
        to_backend: vec![DataSet::burst(10, 2000)],
        from_backend: vec![DataSet::single(1000)],
    };
    let requests: Vec<[Request; 2]> = (0..8)
        .map(|i| {
            let machine = format!("alloc-new{i}");
            let predict =
                Predict { machine: machine.clone(), now: 1.0, task: task.clone(), j_words: 500 };
            [report(&machine, 1.0, 3.0), Request::Predict(predict)]
        })
        .collect();
    let before = BLOCKS.with(Cell::get);
    for [first_report, first_predict] in &requests {
        let (resp, _) = service.handle(first_report);
        assert!(matches!(resp, Response::Ack(ref a) if a.accepted), "{resp:?}");
        drop(resp);
        let (resp, _) = service.handle(first_predict);
        let Response::Prediction(p) = resp else { panic!("want prediction, got {resp:?}") };
        assert!(!p.stale && !p.cache_hit && p.p == 3, "{p:?}");
    }
    let held = BLOCKS.with(Cell::get) - before;
    assert_eq!(service.machine_count(), WARM + 8);
    assert_eq!(held, 3 * 8, "{held} heap blocks held by 8 machines");
}
