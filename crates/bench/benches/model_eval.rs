//! Model-evaluation cost per table/figure: the arithmetic a scheduler
//! pays at run time to regenerate each prediction of the paper.

use bench::{cm2_predictor, paragon_predictor};
use contention_model::cm2::Cm2TaskCosts;
use contention_model::dataset::DataSet;
use contention_model::mix::WorkloadMix;
use contention_model::paragon::{comp_slowdown, comp_slowdown_at_bucket};
use contention_model::predict::{Cm2Task, ParagonTask};
use contention_model::units::secs;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hetsched::eval::{
    best_chain_dp, best_exhaustive, best_exhaustive_oracle, best_exhaustive_with, rank_all,
    rank_all_oracle, rank_top, SearchScratch,
};
use hetsched::example;
use hetsched::task::{Environment, Matrix, Task, Workflow};

/// Tables 1–4: evaluating and ranking every schedule of the intro example.
fn tab_intro(c: &mut Criterion) {
    let wf = example::workflow();
    let env = example::env_cpu_and_link_contention();
    c.bench_function("tab1-4/rank_all", |b| b.iter(|| rank_all(black_box(&wf), black_box(&env))));
    // predictd's rank shape: the 5 best of a 3-machine, 5-task chain's
    // 243 schedules, against ranking them all.
    let (chain, chain_env) = chain_instance(3, 5);
    c.bench_function("3m5t/rank_top5", |b| {
        b.iter(|| rank_top(black_box(&chain), black_box(&chain_env), 5))
    });
    c.bench_function("3m5t/rank_all", |b| {
        b.iter(|| rank_all(black_box(&chain), black_box(&chain_env)))
    });
    c.bench_function("tab1-4/best_exhaustive", |b| {
        b.iter(|| best_exhaustive(black_box(&wf), black_box(&env)))
    });
    c.bench_function("tab1-4/best_chain_dp", |b| {
        b.iter(|| best_chain_dp(black_box(&wf), black_box(&env)))
    });
}

/// A deterministic chain instance of `tasks` tasks over `machines`
/// machines, with contended compute and link factors.
fn chain_instance(machines: usize, tasks: usize) -> (Workflow, Environment) {
    let mut s = 7u64;
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
    (Workflow::new(v), env)
}

/// Gray-code delta-evaluated search against the seed's full-re-evaluation
/// oracle, across instance sizes.
fn search(c: &mut Criterion) {
    let mut g = c.benchmark_group("search");
    for &(machines, tasks) in &[(3usize, 6usize), (4, 8), (3, 10)] {
        let (wf, env) = chain_instance(machines, tasks);
        let label = format!("{machines}m{tasks}t");
        g.bench_with_input(BenchmarkId::new("oracle", &label), &wf, |b, wf| {
            b.iter(|| best_exhaustive_oracle(black_box(wf), black_box(&env)))
        });
        let mut scratch = SearchScratch::new();
        g.bench_with_input(BenchmarkId::new("gray", &label), &wf, |b, wf| {
            b.iter(|| best_exhaustive_with(black_box(wf), black_box(&env), &mut scratch))
        });
    }
    let (wf, env) = chain_instance(4, 8); // 65536 schedules, rankable
    g.bench_with_input(BenchmarkId::new("rank_all_oracle", "4m8t"), &wf, |b, wf| {
        b.iter(|| rank_all_oracle(black_box(wf), black_box(&env)))
    });
    g.bench_with_input(BenchmarkId::new("rank_all_gray", "4m8t"), &wf, |b, wf| {
        b.iter(|| rank_all(black_box(wf), black_box(&env)))
    });
    g.finish();
}

/// Figure 1: CM2 transfer prediction across the matrix sweep.
fn fig1(c: &mut Criterion) {
    let pred = cm2_predictor();
    let sizes: Vec<u64> = (1..=8).map(|i| i * 100).collect();
    c.bench_function("fig1/model_sweep", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &m in &sizes {
                let sets = [DataSet::matrix_rows(m, m)];
                for p in [0u32, 3] {
                    acc += pred.comm_cost_to(black_box(&sets), p).get();
                    acc += pred.comm_cost_from(black_box(&sets), p).get();
                }
            }
            acc
        })
    });
}

/// Figure 3: the `max(dcomp + didle, dserial × (p+1))` law.
fn fig3(c: &mut Criterion) {
    let costs = Cm2TaskCosts::new(secs(5.0), secs(1.2), secs(0.3), secs(0.4));
    c.bench_function("fig3/t_cm2", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for p in 0..8 {
                acc += black_box(&costs).t_cm2(p).get();
            }
            acc
        })
    });
}

/// Figure 4: piecewise dedicated cost across the size sweep.
fn fig4(c: &mut Criterion) {
    let pred = paragon_predictor();
    let sizes = [1u64, 16, 64, 128, 256, 512, 768, 1024, 1536, 2048, 3072, 4096];
    c.bench_function("fig4/piecewise_dcomm_sweep", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &w in &sizes {
                acc += pred.comm_to.dcomm(black_box(&[DataSet::burst(1000, w)])).get();
                acc += pred.comm_from.dcomm(black_box(&[DataSet::burst(1000, w)])).get();
            }
            acc
        })
    });
}

/// Figures 5–6: non-dedicated communication cost under a mix.
fn fig56(c: &mut Criterion) {
    let pred = paragon_predictor();
    let mix = WorkloadMix::from_fracs(&[0.25, 0.76]);
    let sets = [DataSet::burst(1000, 200)];
    c.bench_function("fig5/comm_cost_to", |b| {
        b.iter(|| pred.comm_cost_to(black_box(&sets), black_box(&mix)))
    });
    c.bench_function("fig6/comm_cost_from", |b| {
        b.iter(|| pred.comm_cost_from(black_box(&sets), black_box(&mix)))
    });
}

/// Figures 7–8: computation slowdown across the j buckets.
fn fig78(c: &mut Criterion) {
    let pred = paragon_predictor();
    let mix = WorkloadMix::from_fracs(&[0.66, 0.33]);
    c.bench_function("fig7/comp_slowdown_nearest_j", |b| {
        b.iter(|| comp_slowdown(black_box(&mix), &pred.comp_delays, black_box(1200)))
    });
    c.bench_function("fig8/comp_slowdown_all_buckets", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for bucket in 0..3 {
                acc += comp_slowdown_at_bucket(black_box(&mix), &pred.comp_delays, bucket).get();
            }
            acc
        })
    });
}

/// Full placement decisions (inequality (1)) on both platforms.
fn placement(c: &mut Criterion) {
    let cm2 = cm2_predictor();
    let cm2_task = Cm2Task {
        costs: Cm2TaskCosts::new(secs(30.0), secs(3.8), secs(0.2), secs(0.5)),
        to_backend: vec![DataSet::matrix_rows(600, 600)],
        from_backend: vec![DataSet::matrix_rows(600, 600)],
    };
    c.bench_function("placement/cm2_decide", |b| {
        b.iter(|| cm2.decide(black_box(&cm2_task), black_box(3)))
    });

    let paragon = paragon_predictor();
    let mix = WorkloadMix::from_fracs(&[0.25, 0.76]);
    let p_task = ParagonTask {
        dcomp_sun: secs(12.0),
        t_paragon: secs(1.5),
        to_backend: vec![DataSet::burst(1000, 512)],
        from_backend: vec![DataSet::burst(1000, 512)],
    };
    c.bench_function("placement/paragon_decide", |b| {
        b.iter(|| paragon.decide(black_box(&p_task), black_box(&mix), black_box(512)))
    });
}

criterion_group! {
    name = benches;
    config = bench::quick_config();
    targets = tab_intro, search, fig1, fig3, fig4, fig56, fig78, placement
}
criterion_main!(benches);
