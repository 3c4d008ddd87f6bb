//! Headline performance numbers as machine-readable JSON.
//!
//! A tiny, self-timed (no criterion) summary of the prediction engine's
//! before/after comparisons, written to `BENCH_model_eval.json` at the
//! repository root so CI can archive the numbers per commit:
//!
//! * per-call `decide` vs `decide_batch` over a cached profile,
//! * brute-force exhaustive search vs the Gray-code delta-evaluated walk,
//! * refolding the mix vs an epoch-keyed `ProfileCache` hit.
//!
//! A second file, `BENCH_service.json`, covers the online service path
//! in process: loadcast ingest+forecast and `predictd` request
//! throughput (`load_report` and warm-cache `predict`) through
//! `handle_line`. The daemons over real TCP, gateway included, are
//! measured by the repository benchmark (`perfbench/`), which controls
//! for run-to-run spread.

#![cfg_attr(
    not(test),
    warn(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)
)]

use bench::paragon_predictor;
use contention_model::dataset::DataSet;
use contention_model::mix::WorkloadMix;
use contention_model::paragon::comm_slowdown;
use contention_model::predict::ParagonTask;
use contention_model::profile::ProfileCache;
use contention_model::units::{f64_from_u64, f64_from_usize, secs};
use hetsched::eval::{best_exhaustive_oracle, best_exhaustive_with, SearchScratch};
use hetsched::task::{Environment, Matrix, Task, Workflow};
use serde::Value;
use std::hint::black_box;
use std::time::Instant;

/// Median-of-5 wall time of `iters` runs of `f`, in nanoseconds per run.
fn time_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters.div_ceil(5) {
        f(); // warm-up
    }
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() * 1e9 / f64::from(iters)
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[2]
}

fn tasks(n: usize) -> Vec<ParagonTask> {
    (0..n)
        .map(|i| ParagonTask {
            dcomp_sun: secs(5.0 + f64_from_usize(i % 17)),
            t_paragon: secs(0.8 + f64_from_usize(i % 5) * 0.3),
            to_backend: vec![DataSet::burst(1000, 128 + (i as u64 % 8) * 128)],
            from_backend: vec![DataSet::burst(1000, 128 + (i as u64 % 8) * 128)],
        })
        .collect()
}

fn chain_instance(machines: usize, n_tasks: usize) -> (Workflow, Environment) {
    let mut s = 7u64;
    let mut next = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (f64_from_u64(s >> 33) / f64_from_u64(1u64 << 31)) * 10.0
    };
    let mut v = Vec::new();
    for i in 0..n_tasks {
        let exec: Vec<f64> = (0..machines).map(|_| next() + 0.1).collect();
        if i + 1 < n_tasks {
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

fn comparison(baseline_ns: f64, engine_ns: f64) -> Value {
    Value::Map(vec![
        ("baseline_ns".to_string(), Value::Float(baseline_ns)),
        ("engine_ns".to_string(), Value::Float(engine_ns)),
        ("speedup".to_string(), Value::Float(baseline_ns / engine_ns)),
    ])
}

fn main() {
    let pred = paragon_predictor();

    // Batched predictions: 256 tasks, one profile fold per batch.
    let mix = WorkloadMix::from_fracs(
        &(0..24).map(|i| (f64_from_u64(i) * 0.37 + 0.11).fract()).collect::<Vec<_>>(),
    );
    let batch = tasks(256);
    let per_call = time_ns(200, || {
        black_box(
            batch
                .iter()
                .map(|t| pred.decide(black_box(t), black_box(&mix), 512))
                .collect::<Vec<_>>(),
        );
    });
    let batched = time_ns(200, || {
        let profile = pred.profile(black_box(&mix));
        black_box(pred.decide_batch(black_box(&batch), &profile, 512));
    });

    // Exhaustive search: 4 machines x 8 tasks = 65536 schedules.
    let (wf, env) = chain_instance(4, 8);
    let oracle = time_ns(20, || {
        black_box(best_exhaustive_oracle(black_box(&wf), black_box(&env)));
    });
    let mut scratch = SearchScratch::new();
    let gray = time_ns(20, || {
        black_box(best_exhaustive_with(black_box(&wf), black_box(&env), &mut scratch));
    });

    // Slowdown factors at p = 64: direct fold vs cached hit.
    let big = WorkloadMix::from_fracs(
        &(0..64).map(|i| (f64_from_u64(i) * 0.37 + 0.11).fract()).collect::<Vec<_>>(),
    );
    let direct = time_ns(20_000, || {
        black_box(comm_slowdown(black_box(&big), black_box(&pred.comm_delays)));
    });
    let mut cache = ProfileCache::new();
    let cached = time_ns(20_000, || {
        black_box(
            cache
                .profile_for(black_box(&big), &pred.comm_delays, &pred.comp_delays)
                .comm_slowdown(),
        );
    });

    let report = Value::Map(vec![
        ("batch_predict_256".to_string(), comparison(per_call, batched)),
        ("best_exhaustive_4m8t".to_string(), comparison(oracle, gray)),
        ("slowdown_factors_p64".to_string(), comparison(direct, cached)),
        ("modelcheck_workspace".to_string(), modelcheck_report()),
    ]);
    let json = serde_json::to_string_pretty(&report).expect("serializable");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_model_eval.json");
    std::fs::write(path, format!("{json}\n")).expect("write BENCH_model_eval.json");
    println!("{json}");

    let service = service_report();
    let json = serde_json::to_string_pretty(&service).expect("serializable");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
    std::fs::write(path, format!("{json}\n")).expect("write BENCH_service.json");
    println!("{json}");
}

/// Wall time, finding counts, and call-graph size of a full
/// `modelcheck` workspace scan (lex + AST + per-file and graph passes),
/// so the analyzer's own cost — and how much structure the
/// interprocedural passes see — is tracked per commit alongside the
/// model numbers.
fn modelcheck_report() -> Value {
    let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let start = Instant::now();
    let (diags, stats) = modelcheck::scan_workspace_with_stats(root);
    let scan_secs = start.elapsed().as_secs_f64();
    Value::Map(vec![
        ("scan_ms".to_string(), Value::Float(scan_secs * 1e3)),
        ("files".to_string(), Value::UInt(stats.files as u64)),
        ("graph_nodes".to_string(), Value::UInt(stats.graph_nodes as u64)),
        ("graph_edges".to_string(), Value::UInt(stats.graph_edges as u64)),
        ("diagnostics".to_string(), Value::UInt(diags.len() as u64)),
    ])
}

/// `ns_per_op` / `ops_per_sec` for one measured operation.
fn throughput(ns_per_op: f64) -> Value {
    Value::Map(vec![
        ("ns_per_op".to_string(), Value::Float(ns_per_op)),
        ("ops_per_sec".to_string(), Value::Float(1e9 / ns_per_op)),
    ])
}

/// The online service path: loadcast ingest of a 64-sample sawtooth and
/// one forecast query after it, and predictd `load_report` / warm-cache
/// `predict` requests through the same `handle_line` entry the
/// transports use.
fn service_report() -> Value {
    use contention_model::units::{f64_from_usize, secs};
    use loadcast::{LoadMonitor, MonitorConfig};
    use predictd::{Service, ServiceConfig};

    let sawtooth = |m: &mut LoadMonitor| {
        for k in 0..64usize {
            m.report(secs(f64_from_usize(k)), black_box(f64_from_usize(k % 7) * 0.75), None);
        }
    };
    let ingest = time_ns(2_000, || {
        let mut m = LoadMonitor::new(MonitorConfig::default());
        sawtooth(&mut m);
        black_box(&m);
    });
    // Each query asks at a new `now` inside the staleness horizon, so
    // nothing about the answer can be reused from the last call.
    let mut m = LoadMonitor::new(MonitorConfig::default());
    sawtooth(&mut m);
    let mut tick = 0u32;
    let query = time_ns(200_000, || {
        tick = (tick + 1) % 1000;
        black_box(m.forecast(secs(63.0 + f64::from(black_box(tick)) * 1e-3)));
    });

    let svc = Service::with_default_predictor(ServiceConfig::default());
    let report_line = "{\"kind\":\"load_report\",\"machine\":\"m0\",\"at\":1.0,\
                       \"load\":2.0,\"comm_frac\":0.4}";
    let predict_line = "{\"kind\":\"predict\",\"machine\":\"m0\",\"now\":1.5,\
                        \"task\":{\"dcomp_sun\":30.0,\"t_paragon\":6.0,\
                        \"to_backend\":[{\"messages\":10,\"words\":2000}],\
                        \"from_backend\":[{\"messages\":1,\"words\":1000}]},\"j_words\":500}";
    let load_report = time_ns(20_000, || {
        black_box(svc.handle_line(black_box(report_line)));
    });
    let predict = time_ns(20_000, || {
        black_box(svc.handle_line(black_box(predict_line)));
    });

    Value::Map(vec![
        ("loadcast_ingest_64".to_string(), throughput(ingest)),
        ("loadcast_forecast_query".to_string(), throughput(query)),
        ("predictd_load_report".to_string(), throughput(load_report)),
        ("predictd_predict".to_string(), throughput(predict)),
    ])
}
