//! Task and environment descriptions for allocation.
//!
//! The paper's target applications are "a few coarse-grained tasks" on a
//! small heterogeneous platform: a chain (pipeline) of tasks, each with a
//! dedicated execution time per machine, and a dedicated communication
//! cost between consecutive tasks when they land on different machines.
//! Contention enters as per-machine compute slowdown factors and
//! per-machine-pair link slowdown factors — exactly the outputs of the
//! contention model.

use serde::{Deserialize, Serialize};

/// A dense `machines × machines` matrix of link costs/factors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    n: usize,
    v: Vec<f64>,
}

impl Matrix {
    /// An `n × n` matrix filled with `fill`.
    pub fn filled(n: usize, fill: f64) -> Self {
        Matrix { n, v: vec![fill; n * n] }
    }

    /// Builds from rows; panics unless square.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let n = rows.len();
        let mut v = Vec::with_capacity(n * n);
        for r in rows {
            assert_eq!(r.len(), n, "matrix must be square");
            v.extend_from_slice(r);
        }
        Matrix { n, v }
    }

    /// Side length.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Entry `(from, to)`.
    pub fn get(&self, from: usize, to: usize) -> f64 {
        self.v[from * self.n + to]
    }

    /// Sets entry `(from, to)`.
    pub fn set(&mut self, from: usize, to: usize, value: f64) {
        self.v[from * self.n + to] = value;
    }

    /// True when the backing storage matches the declared size — always
    /// holds for constructed matrices, but deserialized ones (e.g. from
    /// a network peer) must be checked before indexing.
    pub(crate) fn is_consistent(&self) -> bool {
        self.v.len() == self.n * self.n
    }

    /// True when every entry is finite and at least `min`.
    pub(crate) fn entries_at_least(&self, min: f64) -> bool {
        self.v.iter().all(|x| x.is_finite() && *x >= min)
    }
}

/// One task of the application chain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Task {
    /// Human-readable task name.
    pub name: String,
    /// Dedicated execution time on each machine, seconds.
    pub exec: Vec<f64>,
    /// Dedicated cost of shipping this task's output to the next task,
    /// as a machine×machine matrix (diagonal = 0: same machine is free).
    /// `None` for the last task.
    pub comm_to_next: Option<Matrix>,
}

impl Task {
    /// A task with per-machine dedicated times and no outgoing edge.
    pub fn terminal(name: impl Into<String>, exec: Vec<f64>) -> Self {
        Task { name: name.into(), exec, comm_to_next: None }
    }

    /// A task with per-machine dedicated times and an outgoing transfer.
    pub fn with_edge(name: impl Into<String>, exec: Vec<f64>, comm: Matrix) -> Self {
        assert_eq!(exec.len(), comm.size(), "edge matrix size must match machine count");
        Task { name: name.into(), exec, comm_to_next: Some(comm) }
    }
}

/// A chain of tasks (the application).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workflow {
    /// Tasks in execution order.
    pub tasks: Vec<Task>,
}

impl Workflow {
    /// Builds a workflow, checking machine-count consistency and that only
    /// the last task lacks an outgoing edge.
    pub fn new(tasks: Vec<Task>) -> Self {
        assert!(!tasks.is_empty(), "empty workflow");
        let m = tasks[0].exec.len();
        assert!(m > 0, "no machines");
        for (i, t) in tasks.iter().enumerate() {
            assert_eq!(t.exec.len(), m, "task {i} machine count mismatch");
            if i + 1 < tasks.len() {
                assert!(t.comm_to_next.is_some(), "interior task {i} missing edge");
            }
        }
        Workflow { tasks }
    }

    /// Number of machines the workflow is described over.
    pub fn machines(&self) -> usize {
        self.tasks[0].exec.len()
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when there are no tasks (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Non-panicking validation for workflows built outside
    /// [`Workflow::new`] — deserialized from a wire peer, say. Checks
    /// everything `new` asserts plus value sanity: non-empty, consistent
    /// machine counts, interior edges present and well-formed, and every
    /// cost finite and non-negative.
    pub fn try_validate(&self) -> Result<(), String> {
        if self.tasks.is_empty() {
            return Err("empty workflow".to_string());
        }
        let m = self.tasks[0].exec.len();
        if m == 0 {
            return Err("no machines".to_string());
        }
        for (i, t) in self.tasks.iter().enumerate() {
            if t.exec.len() != m {
                return Err(format!("task {i} machine count mismatch"));
            }
            if !t.exec.iter().all(|x| x.is_finite() && *x >= 0.0) {
                return Err(format!("task {i} has a non-finite or negative execution time"));
            }
            match (&t.comm_to_next, i + 1 < self.tasks.len()) {
                (None, true) => return Err(format!("interior task {i} missing edge")),
                (Some(c), _) => {
                    if c.size() != m || !c.is_consistent() {
                        return Err(format!("task {i} edge matrix size mismatch"));
                    }
                    if !c.entries_at_least(0.0) {
                        return Err(format!("task {i} edge has a non-finite or negative cost"));
                    }
                }
                (None, false) => {}
            }
        }
        Ok(())
    }
}

/// Current contention state of the platform, as produced by the
/// contention model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Environment {
    /// Compute slowdown factor per machine (≥ 1).
    pub comp_slowdown: Vec<f64>,
    /// Link slowdown factor per machine pair (≥ 1; diagonal unused).
    pub link_slowdown: Matrix,
}

impl Environment {
    /// A dedicated environment (all factors 1).
    pub fn dedicated(machines: usize) -> Self {
        Environment {
            comp_slowdown: vec![1.0; machines],
            link_slowdown: Matrix::filled(machines, 1.0),
        }
    }

    /// Number of machines.
    pub fn machines(&self) -> usize {
        self.comp_slowdown.len()
    }

    /// Validates factor sanity (all ≥ 1).
    pub fn validate(&self) {
        assert!(self.comp_slowdown.iter().all(|s| *s >= 1.0), "compute slowdown below 1");
        for i in 0..self.link_slowdown.size() {
            for j in 0..self.link_slowdown.size() {
                assert!(self.link_slowdown.get(i, j) >= 1.0, "link slowdown below 1");
            }
        }
    }

    /// Non-panicking variant of [`validate`](Self::validate) for
    /// environments received from outside (adds the size-consistency
    /// checks deserialization cannot guarantee).
    pub fn try_validate(&self) -> Result<(), String> {
        if self.comp_slowdown.is_empty() {
            return Err("no machines".to_string());
        }
        if !self.comp_slowdown.iter().all(|s| s.is_finite() && *s >= 1.0) {
            return Err("compute slowdown below 1 or non-finite".to_string());
        }
        if self.link_slowdown.size() != self.comp_slowdown.len()
            || !self.link_slowdown.is_consistent()
        {
            return Err("link matrix size mismatch".to_string());
        }
        if !self.link_slowdown.entries_at_least(1.0) {
            return Err("link slowdown below 1 or non-finite".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_roundtrip() {
        let mut m = Matrix::filled(2, 0.0);
        m.set(0, 1, 7.0);
        m.set(1, 0, 8.0);
        assert_eq!(m.get(0, 1), 7.0);
        assert_eq!(m.get(1, 0), 8.0);
        assert_eq!(m.get(0, 0), 0.0);
        let m2 = Matrix::from_rows(&[vec![0.0, 7.0], vec![8.0, 0.0]]);
        assert_eq!(m, m2);
    }

    #[test]
    fn workflow_validation() {
        let comm = Matrix::from_rows(&[vec![0.0, 7.0], vec![8.0, 0.0]]);
        let wf = Workflow::new(vec![
            Task::with_edge("A", vec![12.0, 18.0], comm),
            Task::terminal("B", vec![4.0, 30.0]),
        ]);
        assert_eq!(wf.machines(), 2);
        assert_eq!(wf.len(), 2);
    }

    #[test]
    #[should_panic(expected = "missing edge")]
    fn interior_task_needs_edge() {
        Workflow::new(vec![
            Task::terminal("A", vec![1.0, 2.0]),
            Task::terminal("B", vec![1.0, 2.0]),
        ]);
    }

    #[test]
    #[should_panic(expected = "machine count mismatch")]
    fn machine_counts_must_agree() {
        let comm = Matrix::filled(2, 0.0);
        Workflow::new(vec![
            Task::with_edge("A", vec![1.0, 2.0], comm),
            Task::terminal("B", vec![1.0, 2.0, 3.0]),
        ]);
    }

    #[test]
    fn environment_dedicated_is_valid() {
        let env = Environment::dedicated(3);
        env.validate();
        assert_eq!(env.machines(), 3);
    }

    #[test]
    #[should_panic(expected = "below 1")]
    fn environment_rejects_speedups() {
        let mut env = Environment::dedicated(2);
        env.comp_slowdown[0] = 0.5;
        env.validate();
    }
}
