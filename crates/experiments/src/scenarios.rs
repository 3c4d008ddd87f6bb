//! Scenario-running helpers shared by the figure experiments.

use hetload::generators::{CommGenerator, CpuHog, DaemonNoise};
use hetplat::config::PlatformConfig;
use hetplat::phase::{AppProcess, PhaseKind, ScriptedApp};
use hetplat::platform::Platform;
use simcore::ids::ProcId;
use simcore::time::{SimDuration, SimTime};

/// Head start given to contenders before the probe begins.
pub(crate) const WARMUP: SimDuration = SimDuration::from_secs(2);

/// Runs `probe` against `p` CPU hogs; returns the platform (probe done).
pub(crate) fn run_with_hogs(
    cfg: PlatformConfig,
    probe: ScriptedApp,
    p: usize,
    seed: u64,
) -> (Platform, ProcId) {
    let mut plat = Platform::new(cfg, seed);
    plat.spawn(Box::new(DaemonNoise::default_noise()));
    for i in 0..p {
        plat.spawn(Box::new(CpuHog::new(format!("hog{i}"))));
    }
    let start = if p == 0 { SimTime::ZERO } else { SimTime::ZERO + WARMUP };
    let id = plat.spawn_at(Box::new(probe), start);
    plat.run_until_done(id).expect("probe stalled");
    (plat, id)
}

/// Runs `probe` against a set of communication generators.
pub(crate) fn run_with_generators(
    cfg: PlatformConfig,
    probe: ScriptedApp,
    generators: Vec<CommGenerator>,
    seed: u64,
) -> (Platform, ProcId) {
    let mut plat = Platform::new(cfg, seed);
    plat.spawn(Box::new(DaemonNoise::default_noise()));
    let dedicated = generators.is_empty();
    for g in generators {
        plat.spawn(Box::new(g) as Box<dyn AppProcess>);
    }
    let start = if dedicated { SimTime::ZERO } else { SimTime::ZERO + WARMUP };
    let id = plat.spawn_at(Box::new(probe), start);
    plat.run_until_done(id).expect("probe stalled");
    (plat, id)
}

/// Sum of a probe's transfer-phase times (Send + Recv), seconds.
pub(crate) fn transfer_seconds(plat: &Platform, id: ProcId) -> f64 {
    (plat.phase_time(id, PhaseKind::Send) + plat.phase_time(id, PhaseKind::Recv)).as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetplat::phase::{Direction, Phase};

    #[test]
    fn hog_run_slows_probe() {
        let cfg = PlatformConfig::default();
        let probe = || ScriptedApp::new("probe", vec![Phase::Compute(SimDuration::from_secs(1))]);
        let (p0, id0) = run_with_hogs(cfg, probe(), 0, 1);
        let (p3, id3) = run_with_hogs(cfg, probe(), 3, 1);
        let t0 = p0.elapsed(id0).unwrap().as_secs_f64();
        let t3 = p3.elapsed(id3).unwrap().as_secs_f64();
        assert!((t3 / t0 - 4.0).abs() < 0.1, "ratio {}", t3 / t0);
    }

    #[test]
    fn transfer_seconds_sums_both_directions() {
        let cfg = PlatformConfig::default();
        let probe = ScriptedApp::new(
            "probe",
            vec![
                Phase::Send { count: 10, words: 10, dir: Direction::ToCm2 },
                Phase::Recv { count: 10, words: 10, dir: Direction::FromCm2 },
            ],
        );
        let (p, id) = run_with_hogs(cfg, probe, 0, 1);
        assert!(transfer_seconds(&p, id) > 0.0);
        assert_eq!(p.records(id).len(), 2);
    }
}
