//! DAG workflows and list scheduling.
//!
//! The paper's applications are "a few coarse-grained tasks"; its chain
//! model covers the common case, and the authors note the generalization
//! to more machines is straightforward. Real heterogeneous applications
//! (the climate and molecular-structure codes the introduction cites)
//! have fork/join structure, so this module generalizes the workflow to a
//! DAG and provides:
//!
//! * exact makespan evaluation of an assignment (critical-path over the
//!   slowdown-adjusted costs, with per-machine serialization);
//! * exhaustive search for small instances;
//! * an HEFT-style list scheduler (upward-rank priority, earliest-finish
//!   machine choice) for larger ones.

use crate::task::{Environment, Matrix};
use contention_model::units::f64_from_usize;
use serde::{Deserialize, Serialize};

/// A node of the DAG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DagTask {
    /// Task name.
    pub name: String,
    /// Dedicated execution time per machine, seconds.
    pub exec: Vec<f64>,
    /// Predecessors: `(task index, dedicated comm cost matrix)` — the
    /// cost of moving the predecessor's output here, by machine pair
    /// (diagonal = 0).
    pub deps: Vec<(usize, Matrix)>,
}

/// A directed acyclic task graph over `m` machines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dag {
    tasks: Vec<DagTask>,
    machines: usize,
}

impl Dag {
    /// Builds a DAG; tasks must be listed in a topological order (every
    /// dependency index is smaller than the dependent's index).
    pub fn new(tasks: Vec<DagTask>) -> Self {
        assert!(!tasks.is_empty(), "empty DAG");
        let machines = tasks[0].exec.len();
        assert!(machines > 0, "no machines");
        for (i, t) in tasks.iter().enumerate() {
            assert_eq!(t.exec.len(), machines, "task {i} machine count mismatch");
            for &(dep, ref comm) in &t.deps {
                assert!(dep < i, "task {i} depends on later task {dep} (not topological)");
                assert_eq!(comm.size(), machines, "task {i} edge matrix size");
            }
        }
        Dag { tasks, machines }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True if there are no tasks (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Number of machines.
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// The tasks in topological order.
    pub fn tasks(&self) -> &[DagTask] {
        &self.tasks
    }

    /// Makespan of `assignment` under `env`: earliest-finish-time
    /// propagation honoring both dependencies and per-machine
    /// serialization (tasks mapped to one machine run in topological
    /// order).
    pub fn evaluate(&self, assignment: &[usize], env: &Environment) -> f64 {
        assert_eq!(assignment.len(), self.tasks.len(), "assignment length");
        let mut finish = vec![0.0f64; self.tasks.len()];
        let mut machine_free = vec![0.0f64; self.machines];
        for (i, t) in self.tasks.iter().enumerate() {
            let m = assignment[i];
            assert!(m < self.machines, "machine index out of range");
            // Data-ready time: all inputs have arrived.
            let mut ready = 0.0f64;
            for &(dep, ref comm) in &t.deps {
                let dm = assignment[dep];
                let link =
                    if dm == m { 0.0 } else { comm.get(dm, m) * env.link_slowdown.get(dm, m) };
                ready = ready.max(finish[dep] + link);
            }
            let start = ready.max(machine_free[m]);
            let end = start + t.exec[m] * env.comp_slowdown[m];
            finish[i] = end;
            machine_free[m] = end;
        }
        finish.iter().copied().fold(0.0, f64::max)
    }

    /// Exhaustive search over all `m^k` assignments (small instances).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the task count fits u32 and each base-m digit is below m, a usize"
    )]
    pub fn best_exhaustive(&self, env: &Environment) -> (Vec<usize>, f64) {
        let m = self.machines as u64;
        let k = self.tasks.len() as u32;
        // Overflow saturates and is then rejected by the size guard.
        let combos = m.checked_pow(k).unwrap_or(u64::MAX);
        assert!(combos <= 5_000_000, "exhaustive DAG search too large");
        // combos ≥ 1, so the first iteration always replaces the
        // infinite seed; seeding (rather than an `Option` + `expect`)
        // keeps the function total.
        let mut assignment = vec![0usize; self.tasks.len()];
        let mut best = (assignment.clone(), f64::INFINITY);
        for mut code in 0..combos {
            for slot in assignment.iter_mut() {
                *slot = (code % m) as usize;
                code /= m;
            }
            let cost = self.evaluate(&assignment, env);
            if cost < best.1 {
                best = (assignment.clone(), cost);
            }
        }
        best
    }

    /// Mean slowdown-adjusted execution time of a task (HEFT's `w̄ᵢ`).
    fn mean_exec(&self, i: usize, env: &Environment) -> f64 {
        let t = &self.tasks[i];
        t.exec.iter().zip(&env.comp_slowdown).map(|(e, s)| e * s).sum::<f64>()
            / f64_from_usize(self.machines)
    }

    /// Mean slowdown-adjusted cost of an edge (off-diagonal average).
    fn mean_comm(&self, comm: &Matrix, env: &Environment) -> f64 {
        let m = self.machines;
        if m < 2 {
            return 0.0;
        }
        let mut sum = 0.0;
        for a in 0..m {
            for b in 0..m {
                if a != b {
                    sum += comm.get(a, b) * env.link_slowdown.get(a, b);
                }
            }
        }
        sum / f64_from_usize(m * (m - 1))
    }

    /// HEFT upward ranks: `rank(i) = w̄ᵢ + max over successors of
    /// (c̄ᵢⱼ + rank(j))`.
    pub(crate) fn upward_ranks(&self, env: &Environment) -> Vec<f64> {
        let n = self.tasks.len();
        let mut rank = vec![0.0f64; n];
        for i in (0..n).rev() {
            let mut best_succ = 0.0f64;
            for (j, t) in self.tasks.iter().enumerate().skip(i + 1) {
                for &(dep, ref comm) in &t.deps {
                    if dep == i {
                        best_succ = best_succ.max(self.mean_comm(comm, env) + rank[j]);
                    }
                }
            }
            rank[i] = self.mean_exec(i, env) + best_succ;
        }
        rank
    }

    /// HEFT-style list schedule: tasks in decreasing upward rank, each
    /// placed on the machine minimizing its earliest finish time given
    /// the partial schedule. Returns `(assignment, makespan)`.
    pub fn schedule_heft(&self, env: &Environment) -> (Vec<usize>, f64) {
        let n = self.tasks.len();
        let ranks = self.upward_ranks(env);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| ranks[b].total_cmp(&ranks[a]));

        let mut assignment = vec![usize::MAX; n];
        let mut finish = vec![0.0f64; n];
        let mut machine_free = vec![0.0f64; self.machines];
        for &i in &order {
            // Dependencies are always scheduled first: upward ranks
            // strictly decrease along edges (rank(dep) ≥ w̄ + rank(i)).
            let t = &self.tasks[i];
            // (machine, start, end); machine_free is nonempty for any
            // schedulable DAG, so the loop always improves on the seed.
            let mut best = (0usize, 0.0f64, f64::INFINITY);
            for (m, &free) in machine_free.iter().enumerate() {
                let mut ready = 0.0f64;
                for &(dep, ref comm) in &t.deps {
                    debug_assert!(assignment[dep] != usize::MAX, "dep not yet scheduled");
                    let dm = assignment[dep];
                    let link =
                        if dm == m { 0.0 } else { comm.get(dm, m) * env.link_slowdown.get(dm, m) };
                    ready = ready.max(finish[dep] + link);
                }
                let start = ready.max(free);
                let end = start + t.exec[m] * env.comp_slowdown[m];
                if end < best.2 {
                    best = (m, start, end);
                }
            }
            let (m, _start, end) = best;
            assignment[i] = m;
            finish[i] = end;
            machine_free[m] = end;
        }
        let makespan = finish.iter().copied().fold(0.0, f64::max);
        (assignment, makespan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zero_comm(m: usize) -> Matrix {
        Matrix::filled(m, 0.0)
    }

    /// Fork-join: a → {b, c} → d, two machines.
    fn fork_join(comm_cost: f64) -> Dag {
        let mut comm = zero_comm(2);
        comm.set(0, 1, comm_cost);
        comm.set(1, 0, comm_cost);
        Dag::new(vec![
            DagTask { name: "a".into(), exec: vec![2.0, 2.0], deps: vec![] },
            DagTask { name: "b".into(), exec: vec![4.0, 4.0], deps: vec![(0, comm.clone())] },
            DagTask { name: "c".into(), exec: vec![4.0, 4.0], deps: vec![(0, comm.clone())] },
            DagTask {
                name: "d".into(),
                exec: vec![1.0, 1.0],
                deps: vec![(1, comm.clone()), (2, comm)],
            },
        ])
    }

    #[test]
    fn evaluate_serializes_same_machine() {
        let dag = fork_join(0.0);
        let env = Environment::dedicated(2);
        // Everything on machine 0: b and c serialize.
        assert_eq!(dag.evaluate(&[0, 0, 0, 0], &env), 2.0 + 4.0 + 4.0 + 1.0);
        // b and c in parallel on different machines (free comm).
        assert_eq!(dag.evaluate(&[0, 0, 1, 0], &env), 2.0 + 4.0 + 1.0);
    }

    #[test]
    fn communication_can_kill_parallelism() {
        let env = Environment::dedicated(2);
        // Cheap comm: splitting b/c wins.
        let cheap = fork_join(0.5);
        let (a, make) = cheap.best_exhaustive(&env);
        assert!(make < 11.0, "makespan {make}");
        assert_ne!(a[1], a[2], "b and c should split");
        // Expensive comm: serialize on one machine.
        let dear = fork_join(10.0);
        let (a, make) = dear.best_exhaustive(&env);
        assert_eq!(make, 11.0);
        assert!(a.iter().all(|&m| m == a[0]), "all on one machine: {a:?}");
    }

    #[test]
    fn heft_matches_exhaustive_on_fork_join() {
        for cost in [0.0, 0.5, 2.0, 10.0] {
            let dag = fork_join(cost);
            let env = Environment::dedicated(2);
            let (_, best) = dag.best_exhaustive(&env);
            let (_, heft) = dag.schedule_heft(&env);
            // HEFT is a heuristic: allow slack but demand near-optimality
            // on this tiny instance.
            assert!(heft <= best * 1.3 + 1e-9, "comm {cost}: heft {heft} vs optimal {best}");
            assert!(heft >= best - 1e-9);
        }
    }

    #[test]
    fn heft_respects_contention() {
        let dag = fork_join(0.5);
        let mut env = Environment::dedicated(2);
        env.comp_slowdown[0] = 10.0; // machine 0 is badly loaded
        let (assignment, _) = dag.schedule_heft(&env);
        // Everything lands on the unloaded machine 1.
        assert!(assignment.iter().all(|&m| m == 1), "{assignment:?}");
    }

    #[test]
    fn bounds_hold() {
        for cost in [0.0, 1.0, 5.0] {
            let dag = fork_join(cost);
            let env = Environment::dedicated(2);
            let (_, best) = dag.best_exhaustive(&env);
            let (_, heft) = dag.schedule_heft(&env);
            assert!(heft >= best - 1e-9);
        }
    }

    #[test]
    fn upward_ranks_decrease_along_edges() {
        let dag = fork_join(1.0);
        let env = Environment::dedicated(2);
        let ranks = dag.upward_ranks(&env);
        // a feeds b/c feeds d.
        assert!(ranks[0] > ranks[1]);
        assert!(ranks[1] > ranks[3]);
        assert_eq!(ranks[1], ranks[2]);
    }

    #[test]
    fn chain_dag_matches_chain_evaluator() {
        // A 3-task chain expressed both ways must agree.
        use crate::eval::evaluate as chain_eval;
        use crate::task::{Task, Workflow};
        let mut comm = Matrix::filled(2, 0.0);
        comm.set(0, 1, 3.0);
        comm.set(1, 0, 4.0);
        let wf = Workflow::new(vec![
            Task::with_edge("a", vec![5.0, 7.0], comm.clone()),
            Task::with_edge("b", vec![2.0, 1.0], comm.clone()),
            Task::terminal("c", vec![6.0, 3.0]),
        ]);
        let dag = Dag::new(vec![
            DagTask { name: "a".into(), exec: vec![5.0, 7.0], deps: vec![] },
            DagTask { name: "b".into(), exec: vec![2.0, 1.0], deps: vec![(0, comm.clone())] },
            DagTask { name: "c".into(), exec: vec![6.0, 3.0], deps: vec![(1, comm)] },
        ]);
        let mut env = Environment::dedicated(2);
        env.comp_slowdown[0] = 2.0;
        env.link_slowdown.set(0, 1, 3.0);
        for assignment in [[0, 0, 0], [0, 1, 0], [1, 0, 1], [1, 1, 1], [0, 1, 1]] {
            assert_eq!(
                dag.evaluate(&assignment, &env),
                chain_eval(&wf, &assignment, &env),
                "{assignment:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "not topological")]
    fn rejects_forward_dependencies() {
        let comm = zero_comm(1);
        Dag::new(vec![DagTask { name: "a".into(), exec: vec![1.0], deps: vec![(0, comm)] }]);
    }
}
