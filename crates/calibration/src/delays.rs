//! Delay-table measurement (paper §3.2.1–3.2.2).
//!
//! The Sun/Paragon model weights mix probabilities with measured delays:
//!
//! * `delay_compⁱ` / `delay_commⁱ` — the relative extra time that `i`
//!   computing / communicating contention generators impose **on the
//!   ping-pong benchmark**;
//! * `delay_commⁱʲ` — the relative extra time that `i` generators
//!   transferring `j`-word messages impose **on a CPU-bound probe**.
//!
//! All values are `T_contended / T_dedicated − 1`, averaged over both link
//! directions where the paper prescribes it. They are measured once per
//! platform and reused by every prediction.

use contention_model::delay::{CommDelayTable, CompDelayTable};
use contention_model::units::f64_from_usize;
use hetload::apps::{pingpong_app, sun_task_app};
use hetload::generators::{CommGenerator, CpuHog, GenDirection};
use hetplat::config::PlatformConfig;
use hetplat::phase::{AppProcess, PhaseKind};
use hetplat::platform::Platform;
use simcore::time::{SimDuration, SimTime};

/// Tunables for delay-table measurement.
#[derive(Debug, Clone)]
pub struct DelaySpec {
    /// Largest contender count to measure (`i = 1..=p_max`).
    pub p_max: usize,
    /// Messages per probe burst (paper: 1000).
    pub probe_burst: u64,
    /// Probe message sizes; the delay is the *average* relative delay the
    /// contenders impose on the ping-pong benchmark across these sizes
    /// and both directions.
    pub probe_sizes: Vec<u64>,
    /// CPU demand of the computation probe.
    pub comp_probe: SimDuration,
    /// Message-size buckets for `delay_commⁱʲ` (paper: `[1, 500, 1000]`).
    pub buckets: Vec<u64>,
    /// Head start given to generators before the probe begins.
    pub warmup: SimDuration,
}

impl Default for DelaySpec {
    fn default() -> Self {
        DelaySpec {
            p_max: 4,
            probe_burst: 500,
            probe_sizes: vec![64, 256, 1024],
            comp_probe: SimDuration::from_secs(10),
            buckets: vec![1, 500, 1000],
            warmup: SimDuration::from_secs(3),
        }
    }
}

/// Runs one ping-pong probe burst against a set of contenders; returns
/// the burst's elapsed seconds.
fn run_comm_probe_one(
    cfg: PlatformConfig,
    contenders: Vec<Box<dyn AppProcess>>,
    spec: &DelaySpec,
    words: u64,
    outbound: bool,
    seed: u64,
) -> f64 {
    let mut p = Platform::new(cfg, seed);
    p.spawn(Box::new(hetload::generators::DaemonNoise::default_noise()));
    for c in contenders {
        p.spawn(c);
    }
    let probe = p.spawn_at(
        Box::new(pingpong_app("probe", spec.probe_burst, words, outbound)),
        SimTime::ZERO + spec.warmup,
    );
    #[expect(
        clippy::expect_used,
        reason = "a stalled probe is a simulator defect, not a model state"
    )]
    p.run_until_done(probe).expect("probe stalled");
    let kind = if outbound { PhaseKind::Send } else { PhaseKind::Recv };
    p.phase_time(probe, kind).as_secs_f64()
}

/// Runs the ping-pong probe across the spec's sizes and both directions;
/// returns per-(size, direction) burst times in a fixed order.
fn run_comm_probe(
    cfg: PlatformConfig,
    contenders: &dyn Fn() -> Vec<Box<dyn AppProcess>>,
    spec: &DelaySpec,
    seed: u64,
) -> Vec<f64> {
    let mut out = Vec::with_capacity(spec.probe_sizes.len() * 2);
    for &words in &spec.probe_sizes {
        for outbound in [true, false] {
            out.push(run_comm_probe_one(cfg, contenders(), spec, words, outbound, seed));
        }
    }
    out
}

/// Mean relative delay of `contended` over `dedicated`, element-wise.
fn mean_rel_delay(contended: &[f64], dedicated: &[f64]) -> f64 {
    assert_eq!(contended.len(), dedicated.len());
    contended.iter().zip(dedicated).map(|(&c, &d)| rel_delay(c, d)).sum::<f64>()
        / f64_from_usize(dedicated.len())
}

/// Runs the CPU-bound probe against a set of contenders and returns its
/// elapsed seconds.
#[expect(
    clippy::expect_used,
    reason = "a stalled probe is a simulator defect, not a model state; elapsed is Some for \
              any id run_until_done returned"
)]
fn run_comp_probe(
    cfg: PlatformConfig,
    contenders: Vec<Box<dyn AppProcess>>,
    spec: &DelaySpec,
    seed: u64,
) -> f64 {
    let mut p = Platform::new(cfg, seed);
    p.spawn(Box::new(hetload::generators::DaemonNoise::default_noise()));
    for c in contenders {
        p.spawn(c);
    }
    let probe =
        p.spawn_at(Box::new(sun_task_app("probe", spec.comp_probe)), SimTime::ZERO + spec.warmup);
    p.run_until_done(probe).expect("probe stalled");
    p.elapsed(probe).expect("probe finished").as_secs_f64()
}

fn hogs(i: usize) -> Vec<Box<dyn AppProcess>> {
    (0..i).map(|k| Box::new(CpuHog::new(format!("hog{k}"))) as Box<dyn AppProcess>).collect()
}

fn comm_gens(
    i: usize,
    words: u64,
    dir: GenDirection,
    cfg: &PlatformConfig,
) -> Vec<Box<dyn AppProcess>> {
    (0..i)
        .map(|k| {
            Box::new(CommGenerator::new(format!("cg{k}"), 1.0, words, dir, cfg))
                as Box<dyn AppProcess>
        })
        .collect()
}

/// Relative delay, clamped at zero.
fn rel_delay(contended: f64, dedicated: f64) -> f64 {
    (contended / dedicated - 1.0).max(0.0)
}

/// Measures `delay_compⁱ` and `delay_commⁱ` for `i = 1..=p_max`.
pub(crate) fn measure_comm_delays(
    cfg: PlatformConfig,
    spec: &DelaySpec,
    seed: u64,
) -> CommDelayTable {
    let none: &dyn Fn() -> Vec<Box<dyn AppProcess>> = &Vec::new;
    let t0 = run_comm_probe(cfg, none, spec, seed);
    let mut by_computing = Vec::with_capacity(spec.p_max);
    let mut by_communicating = Vec::with_capacity(spec.p_max);
    for i in 1..=spec.p_max {
        let t_comp = run_comm_probe(cfg, &|| hogs(i), spec, seed);
        by_computing.push(mean_rel_delay(&t_comp, &t0));
        // The paper averages the delay from generators pushing one-word
        // messages in each direction.
        let t_out =
            run_comm_probe(cfg, &|| comm_gens(i, 1, GenDirection::Outbound, &cfg), spec, seed);
        let t_in =
            run_comm_probe(cfg, &|| comm_gens(i, 1, GenDirection::Inbound, &cfg), spec, seed);
        by_communicating.push((mean_rel_delay(&t_out, &t0) + mean_rel_delay(&t_in, &t0)) / 2.0);
    }
    CommDelayTable::new(by_computing, by_communicating)
}

/// Measures `delay_commⁱʲ` for every bucket and `i = 1..=p_max`.
pub(crate) fn measure_comp_delays(
    cfg: PlatformConfig,
    spec: &DelaySpec,
    seed: u64,
) -> CompDelayTable {
    let t0 = run_comp_probe(cfg, Vec::new(), spec, seed);
    let mut delays = Vec::with_capacity(spec.buckets.len());
    for &j in &spec.buckets {
        let mut row = Vec::with_capacity(spec.p_max);
        for i in 1..=spec.p_max {
            let t_out =
                run_comp_probe(cfg, comm_gens(i, j, GenDirection::Outbound, &cfg), spec, seed);
            let t_in =
                run_comp_probe(cfg, comm_gens(i, j, GenDirection::Inbound, &cfg), spec, seed);
            row.push((rel_delay(t_out, t0) + rel_delay(t_in, t0)) / 2.0);
        }
        delays.push(row);
    }
    CompDelayTable::new(spec.buckets.clone(), delays)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetplat::config::FrontendParams;

    fn cfg() -> PlatformConfig {
        PlatformConfig { frontend: FrontendParams::processor_sharing(), ..Default::default() }
    }

    fn quick_spec() -> DelaySpec {
        DelaySpec {
            p_max: 2,
            probe_burst: 100,
            probe_sizes: vec![64, 1024],
            comp_probe: SimDuration::from_secs(2),
            buckets: vec![1, 500],
            warmup: SimDuration::from_secs(1),
        }
    }

    #[test]
    fn comm_delays_grow_with_contenders() {
        let t = measure_comm_delays(cfg(), &quick_spec(), 11);
        assert!(t.computing(1) > 0.1, "delay_comp1 {}", t.computing(1));
        assert!(t.computing(2) > t.computing(1));
        assert!(t.communicating(1) > 0.0);
        assert!(t.communicating(2) > t.communicating(1));
    }

    #[test]
    fn comp_delays_grow_with_message_size() {
        let t = measure_comp_delays(cfg(), &quick_spec(), 12);
        // Bigger contender messages hit the CPU harder (more conversion
        // work per unit time is not true — but more words per message is).
        assert!(
            t.delay(1, 500) > t.delay(1, 1),
            "500w {} vs 1w {}",
            t.delay(1, 500),
            t.delay(1, 1)
        );
        assert!(t.delay(2, 500) > t.delay(1, 500));
    }

    #[test]
    fn cpu_splitting_delays_probe_by_i() {
        // With i pure CPU hogs the computation probe slows by about i+1 —
        // the model's exact pcomp·i term.
        let spec = quick_spec();
        let t0 = run_comp_probe(cfg(), Vec::new(), &spec, 13);
        let t2 = run_comp_probe(cfg(), hogs(2), &spec, 13);
        assert!((t2 / t0 - 3.0).abs() < 0.05, "ratio {}", t2 / t0);
    }
}
