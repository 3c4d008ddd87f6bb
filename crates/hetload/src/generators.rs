//! Contention generators.
//!
//! The paper emulates production load with generator processes. Two kinds
//! appear in the experiments:
//!
//! * **CPU hogs** — compute-bound processes that never block, used on the
//!   Sun/CM2 platform (`p` of them produce the `p + 1` slowdown);
//! * **compute/communicate loops** — processes that alternate computation
//!   with message bursts to/from the Paragon, parameterized by the
//!   fraction of time spent communicating and the message size.
//!
//! Generators jitter their cycle lengths and start at random offsets, so
//! their phases decorrelate — the source of the run-to-run variance the
//! paper observes on production systems.

use hetplat::config::PlatformConfig;
use hetplat::phase::{AppProcess, Direction, Phase};
use simcore::num::{f64_from_u64, sat_u64_from_f64};
use simcore::rng::{jitter_factor, SimRng};
use simcore::time::{SimDuration, SimTime};

/// A compute-bound contender: an endless stream of CPU work.
#[derive(Debug, Clone)]
pub struct CpuHog {
    name: String,
    chunk: SimDuration,
}

impl CpuHog {
    /// A hog that computes forever in `chunk`-sized pieces.
    pub fn new(name: impl Into<String>) -> Self {
        CpuHog { name: name.into(), chunk: SimDuration::from_millis(100) }
    }
}

impl AppProcess for CpuHog {
    fn next_phase(&mut self, _now: SimTime, _rng: &mut SimRng) -> Phase {
        Phase::Compute(self.chunk)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Background system activity: short CPU bursts a few percent of the
/// time, as the daemons of a production workstation would produce. The
/// paper's measurements ran on production systems; this is the noise
/// floor that keeps "actual" measurements honestly apart from the model.
#[derive(Debug, Clone)]
pub struct DaemonNoise {
    name: String,
    duty: f64,
    period: SimDuration,
    busy_next: bool,
}

impl DaemonNoise {
    /// A daemon consuming `duty` (e.g. 0.03) of the CPU in bursts spaced
    /// roughly `period` apart.
    pub fn new(name: impl Into<String>, duty: f64, period: SimDuration) -> Self {
        assert!((0.0..1.0).contains(&duty), "duty outside [0,1)");
        DaemonNoise { name: name.into(), duty, period, busy_next: true }
    }

    /// The default production noise floor: ~1.5% CPU in 250 ms cycles.
    pub fn default_noise() -> Self {
        DaemonNoise::new("daemon", 0.015, SimDuration::from_millis(250))
    }
}

impl AppProcess for DaemonNoise {
    fn next_phase(&mut self, _now: SimTime, rng: &mut SimRng) -> Phase {
        let jit = jitter_factor(rng, 0.5);
        if self.busy_next {
            self.busy_next = false;
            Phase::Compute(self.period.mul_f64(self.duty * jit))
        } else {
            self.busy_next = true;
            Phase::Sleep(self.period.mul_f64((1.0 - self.duty) * jit))
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A CPU hog that leaves the machine at a fixed time — for time-varying
/// load scenarios (the paper's §4: "contending applications execute for
/// only part of the execution of a given application").
#[derive(Debug, Clone)]
pub struct TimedCpuHog {
    name: String,
    chunk: SimDuration,
    departs_at: SimTime,
}

impl TimedCpuHog {
    /// A hog that computes until `departs_at`, then exits.
    pub fn new(name: impl Into<String>, departs_at: SimTime) -> Self {
        TimedCpuHog { name: name.into(), chunk: SimDuration::from_millis(100), departs_at }
    }
}

impl AppProcess for TimedCpuHog {
    fn next_phase(&mut self, now: SimTime, _rng: &mut SimRng) -> Phase {
        if now >= self.departs_at {
            Phase::Done
        } else {
            // Never overshoot the departure time by more than a sliver.
            let left = self.departs_at - now;
            Phase::Compute(self.chunk.min(left))
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// An I/O-bound contender: alternates a sliver of CPU work with local
/// disk operations. The intro's point about *load characteristics*: a
/// machine "loaded" with p of these barely slows a compute task, unlike
/// p CPU hogs — which is why load averages alone mislead schedulers.
#[derive(Debug, Clone)]
pub struct IoHog {
    name: String,
    cpu_slice: SimDuration,
    io_words: u64,
    do_io_next: bool,
}

impl IoHog {
    /// An I/O-bound process: `cpu_slice` of computation between disk
    /// operations of `io_words` words.
    pub fn new(name: impl Into<String>, cpu_slice: SimDuration, io_words: u64) -> Self {
        IoHog { name: name.into(), cpu_slice, io_words, do_io_next: false }
    }

    /// A typical I/O-bound daemon: 1 ms of CPU per 64 k-word disk read.
    pub fn typical(name: impl Into<String>) -> Self {
        IoHog::new(name, SimDuration::from_millis(1), 65_536)
    }
}

impl AppProcess for IoHog {
    fn next_phase(&mut self, _now: SimTime, rng: &mut SimRng) -> Phase {
        self.do_io_next = !self.do_io_next;
        if self.do_io_next {
            Phase::DiskIo {
                words: sat_u64_from_f64(f64_from_u64(self.io_words) * jitter_factor(rng, 0.3)),
            }
        } else {
            Phase::Compute(self.cpu_slice.mul_f64(jitter_factor(rng, 0.3)))
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Which way a communication generator pushes data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenDirection {
    /// Always front-end → back-end.
    Outbound,
    /// Always back-end → front-end.
    Inbound,
    /// Alternate directions between bursts (the paper's `delay_commⁱ` is
    /// the average over both).
    Alternate,
}

/// Estimated dedicated marginal time per message in a pipelined burst —
/// the bottleneck stage of the transfer pipeline. Used to size generator
/// bursts so they occupy a target fraction of time.
pub(crate) fn message_estimate(cfg: &PlatformConfig, words: u64, dir: Direction) -> SimDuration {
    match dir {
        Direction::ToCm2 => cfg.cm2.xfer_alpha_to + cfg.cm2.xfer_per_word_to * words,
        Direction::FromCm2 => cfg.cm2.xfer_alpha_from + cfg.cm2.xfer_per_word_from * words,
        Direction::ToParagon => {
            let pg = &cfg.paragon;
            // Blocking (windowed) send: conversion and wire serialize per
            // message; a large window pipelines them instead.
            let conv = pg.conv_demand_out(words);
            let mut wire = pg.wire_service(words) + pg.node_overhead;
            if pg.path == hetplat::config::CommPath::TwoHops {
                wire += pg.nx_service(words);
            }
            if pg.send_window <= 1 {
                conv + wire
            } else {
                conv.max(wire)
            }
        }
        Direction::FromParagon => {
            let pg = &cfg.paragon;
            let mut stage =
                pg.conv_demand_in(words).max(pg.wire_service(words)).max(pg.node_emit_gap);
            if pg.path == hetplat::config::CommPath::TwoHops {
                stage = stage.max(pg.nx_service(words));
            }
            stage
        }
    }
}

/// A contender alternating computation with Paragon communication.
#[derive(Debug, Clone)]
pub struct CommGenerator {
    name: String,
    comm_frac: f64,
    msg_words: u64,
    cycle: SimDuration,
    jitter: f64,
    per_message: SimDuration,
    dir: GenDirection,
    started: bool,
    comm_next: bool,
    outbound_next: bool,
}

impl CommGenerator {
    /// Builds a generator that communicates `comm_frac` of the time using
    /// `msg_words`-word messages, with the default 1 s duty cycle and 20%
    /// jitter. `cfg` supplies the dedicated per-message estimate used to
    /// size bursts.
    pub fn new(
        name: impl Into<String>,
        comm_frac: f64,
        msg_words: u64,
        dir: GenDirection,
        cfg: &PlatformConfig,
    ) -> Self {
        assert!((0.0..=1.0).contains(&comm_frac), "fraction outside [0,1]");
        assert!(msg_words > 0, "empty messages");
        let est_dir = match dir {
            GenDirection::Inbound => Direction::FromParagon,
            _ => Direction::ToParagon,
        };
        CommGenerator {
            name: name.into(),
            comm_frac,
            msg_words,
            cycle: SimDuration::from_secs(1),
            jitter: 0.2,
            per_message: message_estimate(cfg, msg_words, est_dir),
            dir,
            started: false,
            comm_next: true,
            outbound_next: true,
        }
    }

    /// Messages per burst for the current parameters.
    pub(crate) fn burst_count(&self) -> u64 {
        let comm_time = self.cycle.as_secs_f64() * self.comm_frac;
        let per = self.per_message.as_secs_f64().max(1e-9);
        sat_u64_from_f64((comm_time / per).round().max(1.0))
    }
}

impl AppProcess for CommGenerator {
    fn next_phase(&mut self, _now: SimTime, rng: &mut SimRng) -> Phase {
        if !self.started {
            self.started = true;
            // Random start offset decorrelates generator phases.
            let offset = self.cycle.mul_f64(jitter_factor(rng, 0.99) * 0.5);
            return Phase::Sleep(offset);
        }
        let jit = jitter_factor(rng, self.jitter);
        if self.comm_next && self.comm_frac > 0.0 {
            self.comm_next = false;
            let count = sat_u64_from_f64((f64_from_u64(self.burst_count()) * jit).round().max(1.0));
            let outbound = match self.dir {
                GenDirection::Outbound => true,
                GenDirection::Inbound => false,
                GenDirection::Alternate => {
                    self.outbound_next = !self.outbound_next;
                    !self.outbound_next
                }
            };
            if outbound {
                Phase::Send { count, words: self.msg_words, dir: Direction::ToParagon }
            } else {
                Phase::Recv { count, words: self.msg_words, dir: Direction::FromParagon }
            }
        } else {
            self.comm_next = true;
            let comp = self.cycle.mul_f64((1.0 - self.comm_frac) * jit);
            if comp.is_zero() {
                // Fully communication-bound: yield a minimal compute tick
                // so the loop still alternates.
                Phase::Compute(SimDuration::from_micros(10))
            } else {
                Phase::Compute(comp)
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetplat::phase::PhaseKind;
    use hetplat::platform::Platform;
    use simcore::rng::root_rng;

    fn ps_cfg() -> PlatformConfig {
        PlatformConfig {
            frontend: hetplat::config::FrontendParams::processor_sharing(),
            ..Default::default()
        }
    }

    #[test]
    fn hog_computes_forever() {
        let mut hog = CpuHog::new("h");
        let mut rng = root_rng(0);
        for _ in 0..10 {
            assert!(matches!(hog.next_phase(SimTime::ZERO, &mut rng), Phase::Compute(_)));
        }
    }

    #[test]
    fn generator_alternates_compute_and_comm() {
        let cfg = ps_cfg();
        let mut g = CommGenerator::new("g", 0.5, 200, GenDirection::Outbound, &cfg);
        let mut rng = root_rng(1);
        assert!(matches!(g.next_phase(SimTime::ZERO, &mut rng), Phase::Sleep(_)));
        let mut kinds = Vec::new();
        for _ in 0..6 {
            kinds.push(g.next_phase(SimTime::ZERO, &mut rng).kind());
        }
        assert_eq!(
            kinds,
            vec![
                PhaseKind::Send,
                PhaseKind::Compute,
                PhaseKind::Send,
                PhaseKind::Compute,
                PhaseKind::Send,
                PhaseKind::Compute
            ]
        );
    }

    #[test]
    fn alternate_direction_flips() {
        let cfg = ps_cfg();
        let mut g = CommGenerator::new("g", 0.5, 200, GenDirection::Alternate, &cfg);
        g.jitter = 0.0;
        let mut rng = root_rng(2);
        let _ = g.next_phase(SimTime::ZERO, &mut rng); // sleep
        let mut dirs = Vec::new();
        for _ in 0..4 {
            match g.next_phase(SimTime::ZERO, &mut rng) {
                Phase::Send { .. } => dirs.push("out"),
                Phase::Recv { .. } => dirs.push("in"),
                _ => {}
            }
            let _ = g.next_phase(SimTime::ZERO, &mut rng); // compute
        }
        assert_eq!(dirs, vec!["out", "in", "out", "in"]);
    }

    #[test]
    fn measured_comm_fraction_tracks_target() {
        // Run a generator alone and check its dedicated-time duty cycle.
        let cfg = ps_cfg();
        for target in [0.25, 0.5, 0.76] {
            let mut p = Platform::new(cfg, 7);
            let mut g = CommGenerator::new("g", target, 200, GenDirection::Outbound, &cfg);
            g.jitter = 0.0;
            let id = p.spawn(Box::new(g));
            p.run_until(SimTime::ZERO + SimDuration::from_secs(60));
            let comm = p.phase_time(id, PhaseKind::Send).as_secs_f64();
            let comp = p.phase_time(id, PhaseKind::Compute).as_secs_f64();
            let frac = comm / (comm + comp);
            assert!((frac - target).abs() < 0.08, "target {target}: measured {frac}");
        }
    }

    #[test]
    fn burst_count_scales_with_fraction() {
        let cfg = ps_cfg();
        let lo = CommGenerator::new("g", 0.2, 200, GenDirection::Outbound, &cfg);
        let hi = CommGenerator::new("g", 0.8, 200, GenDirection::Outbound, &cfg);
        assert!(hi.burst_count() > 2 * lo.burst_count());
    }

    #[test]
    fn message_estimate_monotone_in_words() {
        let cfg = ps_cfg();
        for dir in
            [Direction::ToCm2, Direction::FromCm2, Direction::ToParagon, Direction::FromParagon]
        {
            let small = message_estimate(&cfg, 10, dir);
            let large = message_estimate(&cfg, 10_000, dir);
            assert!(large > small, "{dir:?}");
        }
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn invalid_fraction_rejected() {
        let cfg = ps_cfg();
        CommGenerator::new("g", 1.5, 100, GenDirection::Outbound, &cfg);
    }
}
