//! Every workload end to end through the library entry point, with every
//! phase cut to 0.3 s, against the real daemon executables.
//!
//! The daemons must be built first (`cargo build -p predictd -p predictgw`
//! at the repository root, or `--release`); set `PERFBENCH_BIN_DIR` to
//! point elsewhere.

use std::path::PathBuf;
use std::time::Duration;

use perfbench::gen::{Codec, Kind};
use perfbench::run::{run, Outcome, Phases, RunConfig, END_TO_END, PER_LAYER};
use perfbench::topology::Bins;
use perfbench::workload::{Topology, Workload, WORKLOADS};

fn bins() -> Bins {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut dirs: Vec<PathBuf> =
        std::env::var_os("PERFBENCH_BIN_DIR").map(PathBuf::from).into_iter().collect();
    if let Ok(exe) = std::env::current_exe() {
        dirs.extend(exe.ancestors().skip(1).take(2).map(PathBuf::from));
    }
    dirs.push(root.join("target/release"));
    dirs.push(root.join("target/debug"));
    Bins::locate(&dirs).unwrap_or_else(|e| panic!("{e}"))
}

fn config(name: &str, trace: bool) -> RunConfig {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{name}-{trace}"));
    RunConfig {
        phases: Phases {
            warmup: Duration::from_millis(300),
            window: Duration::from_millis(100),
            paced_windows: 3,
            saturate_windows: 3,
        },
        setups: 2,
        replay_service: 2_000,
        replay_gateway: 1_000,
        ..RunConfig::new(7, 3.0, trace, bins(), work)
    }
}

/// The workload with fewer machines, so set-up stays short on debug builds.
fn small(w: &Workload) -> Workload {
    Workload { machines: w.machines.min(512), ..*w }
}

fn check(w: &Workload, out: &Outcome, defs: &[perfbench::run::MetricDef]) {
    assert_eq!(out.failed, 0, "{}: {:#?}", w.name, out.notes);
    assert_eq!(out.verify.sent, 2000, "{}", w.name);
    assert!(out.attempted > out.verify.sent);
    let names: Vec<&str> = out.metrics.iter().map(|(n, _)| *n).collect();
    let want: Vec<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(names, want, "{}", w.name);
    for (name, value) in &out.metrics {
        assert!(value.is_finite(), "{}: {name} = {value}", w.name);
    }
}

#[test]
fn every_workload_runs_traced_and_reports_every_layer() {
    for w in WORKLOADS.iter().map(small) {
        let out = run(&w, &config(w.name, true)).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        check(&w, &out, &PER_LAYER);
        // Every workload's own traffic reaches every layer measured; only
        // differences of two measurements may come out at or below zero.
        let differences = ["predictd.engine_us_per_req", "predictd.service_self_ns"];
        for (def, (name, value)) in PER_LAYER.iter().zip(&out.metrics) {
            if matches!(def.unit, "ns" | "us") && !differences.contains(name) {
                assert!(*value > 0.0, "{}: {name} = {value}", w.name);
            }
        }
        let ledger = |prefix: &str| out.notes.iter().any(|n| n.starts_with(prefix));
        assert!(ledger("ledger predictd"), "{}", w.name);
        let gateway = matches!(w.topology, Topology::Gateway { .. });
        for prefix in ["ledger live daemons", "ledger predictgw"] {
            assert_eq!(ledger(prefix), gateway, "{}: {prefix}", w.name);
        }
        assert_eq!(ledger("ledger predictgw journal"), w.journals(), "{}", w.name);
        assert_eq!(ledger("ledger proto JSON"), w.codec == Codec::Json, "{}", w.name);
        // Only the kinds the workload sends are timed.
        for kind in Kind::ALL {
            let line = format!("ledger predictd.handle.{}:", kind.name());
            assert_eq!(ledger(&line), w.traffic.kinds().contains(&kind), "{}: {line}", w.name);
        }
        if gateway {
            let routed = "route hit ratio 1.0000, 0 failovers";
            assert!(out.notes.iter().any(|n| n.contains(routed)), "{}: {:#?}", w.name, out.notes);
        }
    }
}

#[test]
fn an_untraced_run_reports_the_end_to_end_metrics() {
    let w = small(&WORKLOADS[0]);
    let out = run(&w, &config("untraced", false)).expect("run");
    check(&w, &out, &END_TO_END);
    for (name, value) in &out.metrics {
        assert!(*value > 0.0, "{name} must never read 0");
    }
}
