//! Schedule evaluation and search.
//!
//! A schedule assigns each task of the chain to a machine. Its cost is the
//! chain's end-to-end time with every term adjusted by the environment's
//! slowdown factors — the contention model's output. Small instances are
//! solved exactly by enumeration (`mᵏ` schedules for `k` tasks); larger
//! ones use a dynamic program over the chain that is exact for chain
//! workflows and runs in `O(k·m²)`.
//!
//! ## Delta-evaluated enumeration
//!
//! Naive enumeration re-evaluates all `k` exec terms and `k−1` edge terms
//! of every schedule, `O(k)` per candidate. [`best_exhaustive`] and
//! [`rank_top`] instead walk the `mᵏ` assignments in **mixed-radix
//! reflected Gray-code order**, where consecutive schedules differ in a
//! single task's machine by ±1. Moving one task only changes its own exec
//! term and the two edges adjacent to it, so the running makespan is
//! updated in `O(1)` per schedule. To bound floating-point drift from the
//! long chain of adds and subtracts, the walk resynchronizes against the
//! full [`evaluate`] every [`RESYNC_INTERVAL`] steps, and the winning
//! schedule is always re-evaluated exactly before being returned.
//!
//! ## Bounded ranking
//!
//! [`rank_top`] keeps only the `limit` best schedules while it walks:
//! each visited schedule is offered to a max-heap of at most `limit`
//! entries keyed by `(makespan.total_cmp, visit index)`, where the visit
//! index is the schedule's position in the Gray walk. Once the heap is
//! full, a schedule with a strictly smaller makespan than the heap's
//! worst overwrites that entry's assignment in place; a tie never
//! displaces anything, because the later visit loses it. The survivors
//! are sorted by the same key at the end. So equal makespans come out in
//! visit order, exactly as a stable sort of all `mᵏ` schedules would
//! leave them, and the answer equals [`rank_all`] truncated to `limit`,
//! bit for bit. It costs `O(mᵏ log limit)` time and `limit` assignment
//! vectors plus a constant number of allocations (the heap, the walk's
//! two digit vectors, the result), against one vector per schedule for
//! materializing and sorting them all. [`rank_all`] is the unbounded
//! case, `limit == 0`, of the same walk.
//!
//! The seed's full-re-evaluation enumeration survives as
//! [`best_exhaustive_oracle`] / [`rank_all_oracle`]: slower, but
//! trivially correct, and pinned against the Gray-code walk by unit and
//! property tests.

use crate::task::{Environment, Workflow};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Steps between exact resynchronizations of the incrementally maintained
/// makespan. Each delta touches ≤ 3 terms, so drift over a window is a few
/// thousand rounding errors — far below the 1e-9 tolerances used by
/// callers — and the final winner is re-evaluated exactly regardless.
pub(crate) const RESYNC_INTERVAL: u64 = 4096;

/// The most schedules (`mᵏ`) [`rank_all`], [`rank_top`] and
/// [`rank_all_oracle`] will rank; a larger instance panics, so a caller
/// holding an untrusted workflow checks it against this first.
pub const MAX_RANK_SCHEDULES: u64 = 100_000;

/// A schedule with its predicted end-to-end time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// Machine index per task.
    pub assignment: Vec<usize>,
    /// Predicted end-to-end time under the given environment.
    pub makespan: f64,
}

/// Predicted end-to-end time of `assignment` under `env`: slowed
/// execution of every task plus slowed transfers between consecutive
/// tasks on different machines.
pub fn evaluate(wf: &Workflow, assignment: &[usize], env: &Environment) -> f64 {
    assert_eq!(assignment.len(), wf.len(), "assignment length mismatch");
    let mut total = 0.0;
    for (i, task) in wf.tasks.iter().enumerate() {
        let m = assignment[i];
        assert!(m < wf.machines(), "machine index out of range");
        total += task.exec[m] * env.comp_slowdown[m];
        if let Some(comm) = &task.comm_to_next {
            let next = assignment[i + 1];
            if next != m {
                total += comm.get(m, next) * env.link_slowdown.get(m, next);
            }
        }
    }
    total
}

/// Reusable buffers for the Gray-code searches, so repeated calls (one per
/// candidate environment in a sweep) allocate nothing in steady state.
#[derive(Debug, Clone, Default)]
pub struct SearchScratch {
    digits: Vec<usize>,
    dirs: Vec<i8>,
    best: Vec<usize>,
}

impl SearchScratch {
    /// Fresh, empty scratch space.
    pub fn new() -> Self {
        SearchScratch::default()
    }
}

/// One-coordinate-at-a-time walk over all `mᵏ` assignments in reflected
/// Gray-code order, maintaining the makespan incrementally.
struct DeltaWalker<'a> {
    wf: &'a Workflow,
    env: &'a Environment,
    machines: usize,
    assignment: &'a mut Vec<usize>,
    dirs: &'a mut Vec<i8>,
    cost: f64,
    since_resync: u64,
}

impl<'a> DeltaWalker<'a> {
    /// Starts the walk at rank 0 (the all-zeros assignment).
    fn start(
        wf: &'a Workflow,
        env: &'a Environment,
        assignment: &'a mut Vec<usize>,
        dirs: &'a mut Vec<i8>,
    ) -> Self {
        assignment.clear();
        assignment.resize(wf.len(), 0);
        dirs.clear();
        dirs.resize(wf.len(), 1);
        let cost = evaluate(wf, assignment, env);
        DeltaWalker { wf, env, machines: wf.machines(), assignment, dirs, cost, since_resync: 0 }
    }

    /// Current assignment.
    fn assignment(&self) -> &[usize] {
        self.assignment
    }

    /// Incrementally maintained makespan of the current assignment.
    fn cost(&self) -> f64 {
        self.cost
    }

    /// Slowed cost of the edge out of task `i` between machines `from` and
    /// `to` (0 when they coincide).
    fn edge(&self, i: usize, from: usize, to: usize) -> f64 {
        if from == to {
            return 0.0;
        }
        // Every non-final chain task has an outgoing edge; a missing
        // one means "no data moves", which costs nothing.
        let Some(comm) = self.wf.tasks[i].comm_to_next.as_ref() else {
            return 0.0;
        };
        comm.get(from, to) * self.env.link_slowdown.get(from, to)
    }

    /// Advances to the next assignment in Gray order; `false` once every
    /// assignment has been visited. Amortized `O(1)` (odometer carries).
    #[expect(clippy::cast_sign_loss, reason = "`next >= 0` is checked before the cast")]
    fn step(&mut self) -> bool {
        let k = self.assignment.len();
        for j in 0..k {
            let next = self.assignment[j] as isize + self.dirs[j] as isize;
            if next >= 0 && (next as usize) < self.machines {
                self.apply_move(j, next as usize);
                return true;
            }
            // Coordinate j is at its boundary: reverse it and carry on.
            self.dirs[j] = -self.dirs[j];
        }
        false
    }

    /// Moves task `j` to machine `new`, updating the makespan with the
    /// three affected terms only.
    fn apply_move(&mut self, j: usize, new: usize) {
        let old = self.assignment[j];
        let task = &self.wf.tasks[j];
        let mut delta = task.exec[new] * self.env.comp_slowdown[new]
            - task.exec[old] * self.env.comp_slowdown[old];
        if j > 0 {
            let from = self.assignment[j - 1];
            delta += self.edge(j - 1, from, new) - self.edge(j - 1, from, old);
        }
        if task.comm_to_next.is_some() {
            let to = self.assignment[j + 1];
            delta += self.edge(j, new, to) - self.edge(j, old, to);
        }
        self.assignment[j] = new;
        self.cost += delta;
        self.since_resync += 1;
        if self.since_resync >= RESYNC_INTERVAL {
            self.cost = evaluate(self.wf, self.assignment, self.env);
            self.since_resync = 0;
        }
    }
}

/// Exhaustive search over all `mᵏ` schedules via the Gray-code
/// delta-evaluated walk. Exact; use only for small instances
/// (`mᵏ ≤ ~10⁶`). Allocates scratch internally — use
/// [`best_exhaustive_with`] to reuse buffers across calls.
pub fn best_exhaustive(wf: &Workflow, env: &Environment) -> Schedule {
    best_exhaustive_with(wf, env, &mut SearchScratch::default())
}

/// [`best_exhaustive`] with caller-owned scratch buffers, allocation-free
/// in steady state when the instance shape repeats.
#[expect(
    clippy::cast_possible_truncation,
    reason = "the task count fits u32; the size guard rejects a large mᵏ"
)]
pub fn best_exhaustive_with(
    wf: &Workflow,
    env: &Environment,
    scratch: &mut SearchScratch,
) -> Schedule {
    let m = wf.machines();
    let k = wf.len();
    // Overflow saturates and is then rejected by the size guard.
    let combos = (m as u64).checked_pow(k as u32).unwrap_or(u64::MAX);
    assert!(combos <= 10_000_000, "exhaustive search too large; use best_chain_dp");
    let SearchScratch { digits, dirs, best } = scratch;
    let mut walker = DeltaWalker::start(wf, env, digits, dirs);
    best.clear();
    best.extend_from_slice(walker.assignment());
    let mut best_cost = walker.cost();
    while walker.step() {
        if walker.cost() < best_cost {
            best_cost = walker.cost();
            best.clear();
            best.extend_from_slice(walker.assignment());
        }
    }
    // Return the exactly re-evaluated makespan, not the drifting running sum.
    let assignment = best.clone();
    let makespan = evaluate(wf, &assignment, env);
    Schedule { assignment, makespan }
}

/// The seed's full-re-evaluation exhaustive search, retained as the test
/// oracle for [`best_exhaustive`]: `O(k)` per schedule, no shared state.
#[expect(
    clippy::cast_possible_truncation,
    reason = "the task count fits u32 and each base-m digit is below m, a usize"
)]
pub fn best_exhaustive_oracle(wf: &Workflow, env: &Environment) -> Schedule {
    let m = wf.machines();
    let k = wf.len();
    // Overflow saturates and is then rejected by the size guard.
    let combos = (m as u64).checked_pow(k as u32).unwrap_or(u64::MAX);
    assert!(combos <= 10_000_000, "exhaustive search too large; use best_chain_dp");
    // combos ≥ 1, so the first iteration always replaces the infinite
    // seed; seeding (rather than an `Option` + `expect`) keeps the
    // function total.
    let mut assignment = vec![0usize; k];
    let mut best = Schedule { assignment: assignment.clone(), makespan: f64::INFINITY };
    for mut code in 0..combos {
        for slot in assignment.iter_mut() {
            *slot = (code % m as u64) as usize;
            code /= m as u64;
        }
        let cost = evaluate(wf, &assignment, env);
        if cost < best.makespan {
            best = Schedule { assignment: assignment.clone(), makespan: cost };
        }
    }
    best
}

/// Exact dynamic program over the chain: `dp[m]` = best cost of the
/// prefix with the latest task on machine `m`. `O(k·m²)` and exact for
/// chain workflows (which is the workflow shape this crate models).
pub fn best_chain_dp(wf: &Workflow, env: &Environment) -> Schedule {
    let m = wf.machines();
    // dp cost and backpointers.
    let mut dp: Vec<f64> =
        (0..m).map(|mach| wf.tasks[0].exec[mach] * env.comp_slowdown[mach]).collect();
    let mut back: Vec<Vec<usize>> = Vec::with_capacity(wf.len());
    for i in 1..wf.len() {
        // Every non-final chain task has an outgoing edge; a missing
        // one moves no data and contributes zero link cost.
        let comm = wf.tasks[i - 1].comm_to_next.as_ref();
        let mut next_dp = vec![f64::INFINITY; m];
        let mut next_back = vec![0usize; m];
        for to in 0..m {
            let exec = wf.tasks[i].exec[to] * env.comp_slowdown[to];
            for (from, &dp_from) in dp.iter().enumerate() {
                let link = if from == to {
                    0.0
                } else {
                    comm.map_or(0.0, |c| c.get(from, to) * env.link_slowdown.get(from, to))
                };
                let cost = dp_from + link + exec;
                if cost < next_dp[to] {
                    next_dp[to] = cost;
                    next_back[to] = from;
                }
            }
        }
        dp = next_dp;
        back.push(next_back);
    }
    // Trace back the best final machine. dp has one entry per machine
    // and m ≥ 1; the infinite fallback keeps the function total anyway.
    let (mut mach, makespan) = dp
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map_or((0, f64::INFINITY), |(i, &v)| (i, v));
    let mut assignment = vec![0usize; wf.len()];
    assignment[wf.len() - 1] = mach;
    for i in (0..back.len()).rev() {
        mach = back[i][mach];
        assignment[i] = mach;
    }
    Schedule { assignment, makespan }
}

/// Ranks every schedule of a small instance, best first — useful for
/// inspecting how contention reorders the candidates. The unbounded case
/// of [`rank_top`].
pub fn rank_all(wf: &Workflow, env: &Environment) -> Vec<Schedule> {
    rank_top(wf, env, 0)
}

/// The `limit` best schedules of a small instance, best first; `limit ==
/// 0` ranks them all. Equal to [`rank_all`] truncated to `limit`, bit for
/// bit, ties included (see the module docs). Walks the Gray code once and
/// keeps at most `limit` schedules on the way: `O(mᵏ log limit)` time and
/// `limit` assignment vectors plus a constant number of allocations.
#[expect(clippy::cast_possible_truncation, reason = "the size guard caps mᵏ at 100k")]
pub fn rank_top(wf: &Workflow, env: &Environment, limit: usize) -> Vec<Schedule> {
    let combos = rank_space(wf);
    let keep = if limit == 0 { combos as usize } else { limit.min(combos as usize) };
    let mut kept = select(wf, env, combos, keep);
    kept.sort_unstable();
    kept.into_iter().map(|k| k.schedule).collect()
}

/// `mᵏ` for a rankable instance; panics past [`MAX_RANK_SCHEDULES`].
#[expect(clippy::cast_possible_truncation, reason = "the task count fits u32")]
fn rank_space(wf: &Workflow) -> u64 {
    let combos = (wf.machines() as u64).checked_pow(wf.len() as u32).unwrap_or(u64::MAX);
    assert!(combos <= MAX_RANK_SCHEDULES, "too many schedules to rank");
    combos
}

/// A schedule kept by the bounded selection, ordered by makespan
/// (`total_cmp`) and then by its rank in the Gray walk, so equal
/// makespans keep the order the walk met them in.
#[derive(Debug)]
struct Kept {
    schedule: Schedule,
    visit: u64,
}

impl Ord for Kept {
    fn cmp(&self, other: &Self) -> Ordering {
        self.schedule
            .makespan
            .total_cmp(&other.schedule.makespan)
            .then(self.visit.cmp(&other.visit))
    }
}

impl PartialOrd for Kept {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Kept {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Kept {}

/// Walks all `combos` Gray ranks and keeps the `keep` least of them,
/// unsorted. The first `keep` schedules are kept as they come and then
/// heaped; from there a schedule that beats the heap's worst overwrites
/// that entry's assignment in place, so the walk allocates nothing more.
fn select(wf: &Workflow, env: &Environment, combos: u64, keep: usize) -> Vec<Kept> {
    let (mut digits, mut dirs) = (Vec::with_capacity(wf.len()), Vec::with_capacity(wf.len()));
    let mut walker = DeltaWalker::start(wf, env, &mut digits, &mut dirs);
    let mut visits = 0..combos;
    let mut kept = Vec::with_capacity(keep);
    for visit in visits.by_ref().take(keep) {
        let schedule =
            Schedule { assignment: walker.assignment().to_vec(), makespan: walker.cost() };
        kept.push(Kept { schedule, visit });
        walker.step();
    }
    if visits.is_empty() {
        // Everything walked is kept (the unbounded case): no heap needed.
        return kept;
    }
    let mut heap = BinaryHeap::from(kept);
    for visit in visits {
        let makespan = walker.cost();
        if let Some(mut worst) = heap.peek_mut() {
            // A later visit loses every tie, so only a strictly smaller
            // makespan displaces the worst kept schedule.
            if makespan.total_cmp(&worst.schedule.makespan) == Ordering::Less {
                worst.schedule.assignment.copy_from_slice(walker.assignment());
                worst.schedule.makespan = makespan;
                worst.visit = visit;
            }
        }
        walker.step();
    }
    heap.into_vec()
}

/// The seed's full-re-evaluation ranking, retained as the test oracle for
/// [`rank_all`].
#[expect(
    clippy::cast_possible_truncation,
    reason = "the task count fits u32; the size guard caps mᵏ at 100k, and each base-m digit is below m"
)]
pub fn rank_all_oracle(wf: &Workflow, env: &Environment) -> Vec<Schedule> {
    let m = wf.machines();
    let k = wf.len();
    let combos = (m as u64).pow(k as u32);
    assert!(combos <= MAX_RANK_SCHEDULES, "too many schedules to rank");
    let mut all = Vec::with_capacity(combos as usize);
    let mut assignment = vec![0usize; k];
    for mut code in 0..combos {
        for slot in assignment.iter_mut() {
            *slot = (code % m as u64) as usize;
            code /= m as u64;
        }
        all.push(Schedule {
            assignment: assignment.clone(),
            makespan: evaluate(wf, &assignment, env),
        });
    }
    all.sort_by(|a, b| a.makespan.total_cmp(&b.makespan));
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Matrix, Task};
    use std::collections::HashSet;

    fn two_task_wf() -> Workflow {
        let comm = Matrix::from_rows(&[vec![0.0, 7.0], vec![8.0, 0.0]]);
        Workflow::new(vec![
            Task::with_edge("A", vec![12.0, 18.0], comm),
            Task::terminal("B", vec![4.0, 30.0]),
        ])
    }

    /// Deterministic pseudo-random chain instances with contended
    /// environments (both compute and link slowdowns perturbed).
    fn random_instances() -> Vec<(Workflow, Environment)> {
        let mut s = 12345u64;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) * 10.0
        };
        let mut out = Vec::new();
        for machines in 2..=4 {
            for tasks in 1..=6 {
                let mut v = Vec::new();
                for i in 0..tasks {
                    let exec: Vec<f64> = (0..machines).map(|_| next() + 0.1).collect();
                    if i + 1 < tasks {
                        let mut comm = Matrix::filled(machines, 0.0);
                        for a in 0..machines {
                            for b in 0..machines {
                                if a != b {
                                    comm.set(a, b, next());
                                }
                            }
                        }
                        v.push(Task::with_edge(format!("t{i}"), exec, comm));
                    } else {
                        v.push(Task::terminal(format!("t{i}"), exec));
                    }
                }
                let wf = Workflow::new(v);
                let mut env = Environment::dedicated(machines);
                for f in env.comp_slowdown.iter_mut() {
                    *f = 1.0 + next() / 5.0;
                }
                for a in 0..machines {
                    for b in 0..machines {
                        if a != b {
                            env.link_slowdown.set(a, b, 1.0 + next() / 5.0);
                        }
                    }
                }
                out.push((wf, env));
            }
        }
        out
    }

    #[test]
    fn evaluate_dedicated() {
        let wf = two_task_wf();
        let env = Environment::dedicated(2);
        assert_eq!(evaluate(&wf, &[0, 0], &env), 16.0);
        assert_eq!(evaluate(&wf, &[1, 0], &env), 18.0 + 8.0 + 4.0);
        assert_eq!(evaluate(&wf, &[0, 1], &env), 12.0 + 7.0 + 30.0);
        assert_eq!(evaluate(&wf, &[1, 1], &env), 48.0);
    }

    #[test]
    fn exhaustive_finds_dedicated_optimum() {
        let wf = two_task_wf();
        let best = best_exhaustive(&wf, &Environment::dedicated(2));
        assert_eq!(best.assignment, vec![0, 0]);
        assert_eq!(best.makespan, 16.0);
    }

    #[test]
    fn gray_walk_visits_every_assignment_once_changing_one_coordinate() {
        let comm = Matrix::filled(3, 1.0);
        let wf = Workflow::new(vec![
            Task::with_edge("a", vec![1.0, 2.0, 3.0], comm.clone()),
            Task::with_edge("b", vec![2.0, 1.0, 4.0], comm),
            Task::terminal("c", vec![3.0, 2.0, 1.0]),
        ]);
        let env = Environment::dedicated(3);
        let mut scratch = SearchScratch::new();
        let SearchScratch { digits, dirs, .. } = &mut scratch;
        let mut walker = DeltaWalker::start(&wf, &env, digits, dirs);
        let mut seen = HashSet::new();
        let mut prev = walker.assignment().to_vec();
        seen.insert(prev.clone());
        // The running cost must agree with a fresh evaluation at every step.
        assert!((walker.cost() - evaluate(&wf, &prev, &env)).abs() < 1e-9);
        while walker.step() {
            let cur = walker.assignment().to_vec();
            let diffs: Vec<usize> = (0..cur.len()).filter(|&i| cur[i] != prev[i]).collect();
            assert_eq!(diffs.len(), 1, "exactly one coordinate per step");
            let d = diffs[0];
            assert_eq!(cur[d].abs_diff(prev[d]), 1, "moves are ±1");
            assert!((walker.cost() - evaluate(&wf, &cur, &env)).abs() < 1e-9);
            assert!(seen.insert(cur.clone()), "assignment revisited: {cur:?}");
            prev = cur;
        }
        assert_eq!(seen.len(), 27, "all 3³ assignments visited");
    }

    #[test]
    fn gray_search_matches_oracle_on_random_instances() {
        let mut scratch = SearchScratch::new();
        for (wf, env) in random_instances() {
            let fast = best_exhaustive_with(&wf, &env, &mut scratch);
            let oracle = best_exhaustive_oracle(&wf, &env);
            assert!(
                (fast.makespan - oracle.makespan).abs() < 1e-9,
                "makespan {} vs oracle {}",
                fast.makespan,
                oracle.makespan
            );
        }
    }

    #[test]
    fn resync_bounds_drift_on_long_walks() {
        // 4⁸ = 65536 schedules — several resync windows deep.
        let machines = 4;
        let tasks = 8;
        let mut s = 99u64;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) * 10.0
        };
        let mut v = Vec::new();
        for i in 0..tasks {
            let exec: Vec<f64> = (0..machines).map(|_| next() + 0.1).collect();
            if i + 1 < tasks {
                let mut comm = Matrix::filled(machines, 0.0);
                for a in 0..machines {
                    for b in 0..machines {
                        if a != b {
                            comm.set(a, b, next());
                        }
                    }
                }
                v.push(Task::with_edge(format!("t{i}"), exec, comm));
            } else {
                v.push(Task::terminal(format!("t{i}"), exec));
            }
        }
        let wf = Workflow::new(v);
        let mut env = Environment::dedicated(machines);
        for f in env.comp_slowdown.iter_mut() {
            *f = 1.0 + next() / 3.0;
        }
        let fast = best_exhaustive(&wf, &env);
        let dp = best_chain_dp(&wf, &env);
        assert!((fast.makespan - dp.makespan).abs() < 1e-9);
        // The returned makespan is exact, not the running sum.
        assert_eq!(fast.makespan, evaluate(&wf, &fast.assignment, &env));
    }

    #[test]
    fn dp_matches_exhaustive_on_random_instances() {
        for (wf, env) in random_instances() {
            let ex = best_exhaustive(&wf, &env);
            let dp = best_chain_dp(&wf, &env);
            assert!((ex.makespan - dp.makespan).abs() < 1e-9, "{} vs {}", ex.makespan, dp.makespan);
        }
    }

    #[test]
    fn rank_all_sorted_and_complete() {
        let wf = two_task_wf();
        let ranked = rank_all(&wf, &Environment::dedicated(2));
        assert_eq!(ranked.len(), 4);
        assert!(ranked.windows(2).all(|w| w[0].makespan <= w[1].makespan));
        assert_eq!(ranked[0].assignment, vec![0, 0]);
    }

    #[test]
    fn rank_all_matches_oracle() {
        for (wf, env) in random_instances() {
            let fast = rank_all(&wf, &env);
            let oracle = rank_all_oracle(&wf, &env);
            assert_eq!(fast.len(), oracle.len());
            for (f, o) in fast.iter().zip(&oracle) {
                assert!((f.makespan - o.makespan).abs() < 1e-9, "{} vs {}", f.makespan, o.makespan);
            }
        }
    }

    /// Every schedule of the Gray walk, stably sorted by makespan: the
    /// materialize-and-sort ranking the bounded selection replaced.
    fn materialized(wf: &Workflow, env: &Environment) -> Vec<Schedule> {
        let mut scratch = SearchScratch::new();
        let SearchScratch { digits, dirs, .. } = &mut scratch;
        let mut walker = DeltaWalker::start(wf, env, digits, dirs);
        let mut all = Vec::new();
        loop {
            all.push(Schedule {
                assignment: walker.assignment().to_vec(),
                makespan: walker.cost(),
            });
            if !walker.step() {
                break;
            }
        }
        all.sort_by(|a, b| a.makespan.total_cmp(&b.makespan));
        all
    }

    #[test]
    fn rank_top_equals_materialized_stable_sort() {
        let mut cases = random_instances();
        // Identical exec columns and links in a dedicated environment:
        // most makespans tie, so the visit order decides.
        let comm = Matrix::filled(3, 1.0);
        let flat = Workflow::new(vec![
            Task::with_edge("a", vec![1.0, 1.0, 2.0], comm.clone()),
            Task::with_edge("b", vec![1.0, 1.0, 2.0], comm),
            Task::terminal("c", vec![1.0, 1.0, 2.0]),
        ]);
        cases.push((flat, Environment::dedicated(3)));
        for (wf, env) in cases {
            let all = materialized(&wf, &env);
            assert_eq!(rank_all(&wf, &env), all);
            for limit in [1, 2, 5, all.len() - 1, all.len() + 1] {
                assert_eq!(rank_top(&wf, &env, limit), all[..limit.min(all.len())], "{limit}");
            }
        }
    }

    #[test]
    fn slowdown_reorders_schedules() {
        let wf = two_task_wf();
        let mut env = Environment::dedicated(2);
        env.comp_slowdown[0] = 3.0;
        let best = best_exhaustive(&wf, &env);
        // A moves to M2, B stays on the slowed M1 (the paper's Table 3).
        assert_eq!(best.assignment, vec![1, 0]);
        assert_eq!(best.makespan, 18.0 + 8.0 + 12.0);
    }

    #[test]
    #[should_panic(expected = "assignment length")]
    fn evaluate_checks_length() {
        let wf = two_task_wf();
        evaluate(&wf, &[0], &Environment::dedicated(2));
    }
}
