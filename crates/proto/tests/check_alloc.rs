//! The binary checkers vouch for a frame without allocating: a relay
//! runs them on every frame it forwards instead of decoding it, and the
//! allocations a decode makes are what relaying saves. The walk that
//! splits a `decide_batch` into chunks allocates nothing either. Pinned
//! with a global allocator that counts this thread's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use contention_model::dataset::DataSet;
use contention_model::predict::{ParagonTask, Placement, PlacementDecision};
use contention_model::units::secs;
use proto::binproto::{
    batch_tasks, check_request, check_response, decode_request, encode_request, encode_response,
};
use proto::proto::{DecideBatch, Predict, Prediction, Rank, Request, Response};

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

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// How many allocations `f` makes on this thread.
fn allocations(f: impl FnOnce() -> bool) -> (bool, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let ok = f();
    (ok, ALLOCATIONS.with(Cell::get) - before)
}

fn body(frame: &[u8]) -> &[u8] {
    &frame[4..]
}

#[test]
fn checking_a_predict_or_rank_round_trip_allocates_nothing() {
    let task = ParagonTask {
        dcomp_sun: secs(30.0),
        t_paragon: secs(6.0),
        to_backend: vec![DataSet::burst(10, 2000)],
        from_backend: vec![DataSet::single(1000)],
    };
    let requests = [
        Request::Predict(Predict { machine: "m0".to_string(), now: 3.5, task, j_words: 500 }),
        Request::Rank(Rank {
            machine: "m1".to_string(),
            now: 3.5,
            workflow: hetsched::example::workflow(),
            front_end: 0,
            j_words: 500,
            limit: 2,
        }),
    ];
    for req in &requests {
        let mut frame = Vec::new();
        assert!(encode_request(req, &mut frame));
        assert_eq!(allocations(|| check_request(body(&frame))), (true, 0), "{}", req.kind());
        let (_, decoding) = allocations(|| decode_request(body(&frame)).is_ok());
        assert!(decoding > 0, "the decoder allocates what the checker does not");
    }
    let reply = Response::Prediction(Prediction {
        machine: "m0".to_string(),
        p: 2,
        stale: false,
        forecaster: "ewma0.30".to_string(),
        cache_hit: true,
        decision: PlacementDecision {
            t_front: secs(10.0),
            t_back: secs(1.0),
            c_to: secs(0.25),
            c_from: secs(0.125),
            placement: Placement::BackEnd,
        },
    });
    let mut frame = Vec::new();
    assert!(encode_response(&reply, &mut frame));
    assert_eq!(allocations(|| check_response(body(&frame))), (true, 0));
    // A failed check allocates nothing either.
    let cut = &body(&frame)[..frame.len() / 2];
    assert_eq!(allocations(|| check_response(cut)), (false, 0));
}

#[test]
fn walking_a_batch_for_its_task_spans_allocates_nothing() {
    let tasks: Vec<ParagonTask> = (0..8u64)
        .map(|i| ParagonTask {
            dcomp_sun: secs(30.0),
            t_paragon: secs(6.0),
            to_backend: vec![DataSet::burst(10, 2000 + i); usize::try_from(i % 3).unwrap_or(0)],
            from_backend: vec![DataSet::single(1000)],
        })
        .collect();
    let req = Request::DecideBatch(DecideBatch {
        machine: "m2".to_string(),
        now: 3.5,
        tasks,
        j_words: 500,
    });
    let mut frame = Vec::new();
    assert!(encode_request(&req, &mut frame));
    let mut ends = [0usize; 8];
    let walk = || {
        let Some(spans) = batch_tasks(body(&frame)) else { return false };
        let mut n = 0;
        for (end, span) in ends.iter_mut().zip(spans) {
            *end = span.end;
            n += 1;
        }
        n == 8
    };
    assert_eq!(allocations(walk), (true, 0));
    assert_eq!(ends[7], frame.len() - 4 - 8, "the last task ends where j_words begins");
}
