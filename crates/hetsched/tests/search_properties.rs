//! Property tests for the Gray-code delta-evaluated schedule search: on
//! arbitrary chain instances it must agree with the seed's brute-force
//! full-re-evaluation oracle. The bounded ranking must equal the full
//! ranking truncated to its limit, bit for bit.

use hetsched::eval::{
    best_chain_dp, best_exhaustive, best_exhaustive_oracle, evaluate, rank_all, rank_all_oracle,
    rank_top, Schedule,
};
use hetsched::task::{Environment, Matrix, Task, Workflow};
use proptest::prelude::*;

/// A deterministic chain instance derived from `seed`, with contended
/// compute and link slowdown factors.
fn instance(machines: usize, tasks: usize, seed: u64) -> (Workflow, Environment) {
    let mut s = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
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
    (Workflow::new(v), env)
}

/// A chain whose tasks all share one `exec` column set and whose links
/// all cost the same, in a dedicated environment: many schedules tie on
/// makespan, so only the visit order separates them.
fn tie_heavy(machines: usize, tasks: usize, seed: u64) -> (Workflow, Environment) {
    let exec: Vec<f64> = (0..machines).map(|m| 1.0 + ((seed >> m) & 1) as f64).collect();
    let mut comm = Matrix::filled(machines, 0.0);
    for a in 0..machines {
        for b in 0..machines {
            if a != b {
                comm.set(a, b, 0.5);
            }
        }
    }
    let v = (0..tasks)
        .map(|i| {
            if i + 1 < tasks {
                Task::with_edge(format!("t{i}"), exec.clone(), comm.clone())
            } else {
                Task::terminal(format!("t{i}"), exec.clone())
            }
        })
        .collect();
    (Workflow::new(v), Environment::dedicated(machines))
}

/// `rank_top` at limits {0, 1, 2, total−1, total, total+1} equals
/// `rank_all` truncated to the limit (all of it at 0), whole schedules
/// compared exactly.
fn assert_top_is_truncated_all(wf: &Workflow, env: &Environment) -> Result<(), TestCaseError> {
    let all = rank_all(wf, env);
    let total = all.len();
    for limit in [0, 1, 2, total - 1, total, total + 1] {
        let want: &[Schedule] = if limit == 0 { &all } else { &all[..limit.min(total)] };
        let top = rank_top(wf, env, limit);
        prop_assert_eq!(top.as_slice(), want, "limit {}", limit);
    }
    Ok(())
}

#[test]
fn tie_heavy_instance_really_ties() {
    let (wf, env) = tie_heavy(3, 4, 5);
    let all = rank_all(&wf, &env);
    let ties = all.windows(2).filter(|w| w[0].makespan == w[1].makespan).count();
    assert!(ties > all.len() / 2, "{ties} ties in {} schedules", all.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    fn gray_best_matches_bruteforce_oracle(
        machines in 2usize..5,
        tasks in 1usize..7,
        seed in 0u64..1_000_000,
    ) {
        let (wf, env) = instance(machines, tasks, seed);
        let fast = best_exhaustive(&wf, &env);
        let oracle = best_exhaustive_oracle(&wf, &env);
        prop_assert!(
            (fast.makespan - oracle.makespan).abs() < 1e-9,
            "gray {} vs oracle {}",
            fast.makespan,
            oracle.makespan
        );
        // The returned makespan is an exact evaluation of its own
        // assignment (no residual incremental drift).
        prop_assert_eq!(fast.makespan, evaluate(&wf, &fast.assignment, &env));
        // And the chain DP, exact by construction, agrees too.
        let dp = best_chain_dp(&wf, &env);
        prop_assert!((fast.makespan - dp.makespan).abs() < 1e-9);
    }

    fn gray_rank_all_matches_bruteforce_oracle(
        machines in 2usize..4,
        tasks in 1usize..6,
        seed in 0u64..1_000_000,
    ) {
        let (wf, env) = instance(machines, tasks, seed);
        let fast = rank_all(&wf, &env);
        let oracle = rank_all_oracle(&wf, &env);
        prop_assert_eq!(fast.len(), oracle.len());
        prop_assert!(fast.windows(2).all(|w| w[0].makespan <= w[1].makespan));
        for (f, o) in fast.iter().zip(&oracle) {
            prop_assert!(
                (f.makespan - o.makespan).abs() < 1e-9,
                "rank makespan {} vs oracle {}",
                f.makespan,
                o.makespan
            );
        }
    }

    fn rank_top_is_rank_all_truncated(
        machines in 2usize..4,
        tasks in 1usize..6,
        seed in 0u64..1_000_000,
    ) {
        let (wf, env) = instance(machines, tasks, seed);
        assert_top_is_truncated_all(&wf, &env)?;
    }

    fn rank_top_keeps_visit_order_on_ties(
        machines in 2usize..4,
        tasks in 1usize..6,
        seed in 0u64..16,
    ) {
        let (wf, env) = tie_heavy(machines, tasks, seed);
        assert_top_is_truncated_all(&wf, &env)?;
    }
}
