//! The bounded ranking allocates for the schedules it keeps, not for the
//! schedules it visits. Materializing and sorting every schedule of the
//! 3-machine, 5-task chain below, then truncating to 5, made 248
//! allocations: one assignment vector for each of the 3⁵ = 243
//! schedules, the result vector, the stable sort's buffer and the walk's
//! scratch. The bounded walk makes 9: the `limit` = 5 kept assignment
//! vectors and [`FIXED`] others. Pinned with a global allocator that
//! counts this thread's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hetsched::eval::rank_top;
use hetsched::task::{Environment, Matrix, Task, Workflow};

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

/// Allocations beyond the kept assignment vectors: the heap, the walk's
/// two digit vectors, and the result vector.
const FIXED: u64 = 4;

/// A 3-machine, 5-task chain with distinct costs and a contended first
/// machine, like the chains perfbench ranks.
fn chain() -> (Workflow, Environment) {
    let comm = Matrix::from_rows(&[vec![0.0, 2.0, 3.0], vec![2.5, 0.0, 1.5], vec![3.5, 1.0, 0.0]]);
    let tasks = (0..5)
        .map(|i| {
            let exec = vec![10.0 + f64::from(i), 14.0 - f64::from(i), 12.0 + 0.5 * f64::from(i)];
            if i < 4 {
                Task::with_edge(format!("t{i}"), exec, comm.clone())
            } else {
                Task::terminal(format!("t{i}"), exec)
            }
        })
        .collect();
    let mut env = Environment::dedicated(3);
    env.comp_slowdown[0] = 2.2;
    for other in 1..3 {
        env.link_slowdown.set(0, other, 1.7);
        env.link_slowdown.set(other, 0, 1.7);
    }
    (Workflow::new(tasks), env)
}

#[test]
fn a_top_five_rank_of_243_schedules_allocates_five_vectors_and_a_constant() {
    let (wf, env) = chain();
    let limit = 5;
    let before = ALLOCATIONS.with(Cell::get);
    let top = rank_top(&wf, &env, limit);
    let counted = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(top.len(), limit);
    assert!(top.windows(2).all(|w| w[0].makespan <= w[1].makespan));
    assert!(
        counted <= limit as u64 + FIXED,
        "{counted} allocations for a top-{limit} rank, want at most {limit} + {FIXED}"
    );
}
