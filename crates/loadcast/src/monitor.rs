//! Per-machine load monitoring: samples in, workload mixes out.
//!
//! [`LoadMonitor`] glues the pipeline together for one machine: each
//! accepted report feeds a [`SelectivePredictor`], which picks the
//! winning forecast right then, once per report. The monitor itself
//! keeps only the newest sample's time — the one thing a query reads
//! besides the stored forecast. A query checks staleness against its
//! `now` and copies that stored forecast out as the contender count
//! (and, on request, the [`WorkloadMix`]) the contention model
//! consumes. A monitor is a fixed-size value: it allocates nothing,
//! however many reports it ingests.
//!
//! **Staleness policy.** A forecast is only as good as its samples. If
//! the newest sample is older than the configured horizon (or no samples
//! ever arrived), the monitor refuses to extrapolate: it degrades to the
//! dedicated-machine answer (`p = 0`, empty mix) and flags the result
//! `stale`, so callers can tell "the machine is idle" from "nobody has
//! told me anything lately".

use crate::selector::SelectivePredictor;
use contention_model::mix::WorkloadMix;
use contention_model::units::{secs, Prob, Seconds};

/// Hard cap on the contender count derived from a forecast, bounding the
/// cost of mix construction no matter what a reporter claims.
pub const MAX_CONTENDERS: usize = 1024;

/// Tuning knobs of a [`LoadMonitor`].
#[derive(Debug, Clone, Copy)]
pub struct MonitorConfig {
    /// Staleness horizon: a forecast asked for more than this long after
    /// the newest sample degrades to the dedicated answer.
    pub horizon: Seconds,
    /// Communication fraction assumed for contenders before any report
    /// carries one (pure CPU-bound contenders by default, matching the
    /// paper's load generators).
    pub default_frac: Prob,
    /// EWMA gain for tracking the reported communication fraction.
    pub frac_gain: f64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig { horizon: secs(10.0), default_frac: Prob::ZERO, frac_gain: 0.3 }
    }
}

/// One answer from the monitor: the forecast load and its pedigree.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadForecast {
    /// Forecast contender load (≥ 0; exactly 0 when stale).
    pub load: f64,
    /// The load rounded to a whole contender count, capped at
    /// [`MAX_CONTENDERS`].
    pub p: usize,
    /// True when the staleness policy fired: the answer is the
    /// dedicated-machine fallback, not a forecast.
    pub stale: bool,
    /// Time since the newest sample, `None` when no sample ever arrived.
    pub age: Option<Seconds>,
    /// Name of the forecaster that produced the value (`"dedicated"`
    /// when stale).
    pub forecaster: String,
}

/// A [`LoadForecast`] materialized as the model's workload-mix input.
#[derive(Debug, Clone)]
pub struct MixForecast {
    /// The forecast mix: `p` contenders at the tracked communication
    /// fraction (empty when stale).
    pub mix: WorkloadMix,
    /// The per-contender communication fraction used to build the mix.
    pub frac: Prob,
    /// The underlying load forecast.
    pub forecast: LoadForecast,
}

/// Online load monitor for one machine. `Clone` duplicates the whole
/// monitor — newest sample time, forecaster bank with running scores,
/// tracked fraction — so a copy fed the same subsequent reports stays
/// bit-identical to the original (every forecaster is deterministic).
#[derive(Clone)]
pub struct LoadMonitor {
    cfg: MonitorConfig,
    /// When the newest accepted sample was taken; `None` before the
    /// first.
    newest: Option<Seconds>,
    selector: SelectivePredictor,
    frac: Prob,
}

impl LoadMonitor {
    /// A monitor with the given configuration and the default NWS-style
    /// forecaster bank.
    pub fn new(cfg: MonitorConfig) -> Self {
        LoadMonitor {
            newest: None,
            selector: SelectivePredictor::nws_default(),
            frac: cfg.default_frac,
            cfg,
        }
    }

    /// Ingests one load report. `comm_frac`, when present, updates the
    /// tracked per-contender communication fraction by EWMA. Returns
    /// `false` (state unchanged) for an invalid load — not finite, or
    /// negative — or a sample older than the newest one: reports must
    /// arrive in time order per machine, and equal times are fine.
    pub fn report(&mut self, at: Seconds, load: f64, comm_frac: Option<Prob>) -> bool {
        if !(load.is_finite() && load >= 0.0) || self.newest.is_some_and(|newest| at < newest) {
            return false;
        }
        self.newest = Some(at);
        self.selector.observe(load);
        if let Some(cf) = comm_frac {
            let g = self.cfg.frac_gain;
            let blended = self.frac.get() + g * (cf.get() - self.frac.get());
            self.frac = Prob::new(blended.clamp(0.0, 1.0));
        }
        true
    }

    /// The forecast load as of `now`, subject to the staleness policy.
    /// The forecast itself was chosen by the last accepted report; `now`
    /// only decides whether it is still fresh.
    pub fn forecast(&self, now: Seconds) -> LoadForecast {
        let age = self.age(now);
        match self.fresh_prediction(age) {
            Some((raw, name)) => {
                let load = raw.max(0.0);
                LoadForecast {
                    load,
                    p: contenders(load),
                    stale: false,
                    age,
                    forecaster: name.to_string(),
                }
            }
            None => LoadForecast {
                load: 0.0,
                p: 0,
                stale: true,
                age,
                forecaster: "dedicated".to_string(),
            },
        }
    }

    /// The forecast contender count as of `now`, or `None` when the
    /// staleness policy fires: `forecast(now).p` and `.stale`, without
    /// building the forecaster's name — so it allocates nothing.
    pub fn contenders_at(&self, now: Seconds) -> Option<usize> {
        self.fresh_prediction(self.age(now)).map(|(raw, _)| contenders(raw.max(0.0)))
    }

    /// Time since the newest sample, `None` before the first.
    fn age(&self, now: Seconds) -> Option<Seconds> {
        self.newest.map(|at| secs((now.get() - at.get()).max(0.0)))
    }

    /// The stored winner's raw prediction and name, if a sample this
    /// `age` old is still within the horizon.
    fn fresh_prediction(&self, age: Option<Seconds>) -> Option<(f64, &str)> {
        if age.is_some_and(|a| a <= self.cfg.horizon) {
            self.selector.predict()
        } else {
            None
        }
    }

    /// The forecast materialized as a [`WorkloadMix`]: `p` contenders,
    /// each communicating the tracked fraction of the time. Stale
    /// forecasts yield the empty (dedicated) mix.
    pub fn mix_forecast(&self, now: Seconds) -> MixForecast {
        let forecast = self.forecast(now);
        let fracs = vec![self.frac; forecast.p];
        MixForecast { mix: WorkloadMix::from_probs(&fracs), frac: self.frac, forecast }
    }

    /// The tracked per-contender communication fraction.
    pub fn frac(&self) -> Prob {
        self.frac
    }

    /// Per-forecaster running scores (for diagnostics and stats).
    pub fn scores(&self) -> Vec<crate::selector::ForecasterScore> {
        self.selector.scores()
    }

    /// The staleness horizon in force.
    pub fn horizon(&self) -> Seconds {
        self.cfg.horizon
    }
}

impl std::fmt::Debug for LoadMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoadMonitor")
            .field("cfg", &self.cfg)
            .field("newest", &self.newest)
            .field("frac", &self.frac)
            .finish()
    }
}

/// Rounds a forecast load to a whole contender count, capped at
/// [`MAX_CONTENDERS`]. Exact for integer-valued loads.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "bounded is a whole number clamped to 0..=1024 above"
)]
pub fn contenders(load: f64) -> usize {
    let bounded = load.max(0.0).round().min(1024.0);
    debug_assert!((0.0..=1024.0).contains(&bounded));
    bounded as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use contention_model::units::prob;

    #[test]
    fn fresh_constant_trace_forecasts_the_constant() {
        let mut m = LoadMonitor::new(MonitorConfig::default());
        for t in 0..5 {
            assert!(m.report(secs(t as f64), 3.0, None));
        }
        let f = m.forecast(secs(4.5));
        assert!(!f.stale);
        assert_eq!(f.load, 3.0);
        assert_eq!(f.p, 3);
        assert_eq!(f.age, Some(secs(0.5)));
    }

    #[test]
    fn no_samples_means_stale_dedicated() {
        let m = LoadMonitor::new(MonitorConfig::default());
        let f = m.forecast(secs(100.0));
        assert!(f.stale);
        assert_eq!(f.p, 0);
        assert_eq!(f.age, None);
        assert_eq!(f.forecaster, "dedicated");
        let mf = m.mix_forecast(secs(100.0));
        assert_eq!(mf.mix.p(), 0);
    }

    #[test]
    fn old_samples_trip_the_horizon() {
        let mut m = LoadMonitor::new(MonitorConfig { horizon: secs(5.0), ..Default::default() });
        m.report(secs(0.0), 4.0, None);
        m.report(secs(1.0), 4.0, None);
        let fresh = m.forecast(secs(6.0));
        assert!(!fresh.stale, "age 5 == horizon is still fresh");
        assert_eq!(fresh.p, 4);
        let stale = m.forecast(secs(6.1));
        assert!(stale.stale);
        assert_eq!(stale.p, 0);
        assert_eq!(stale.age, Some(secs(5.1)));
    }

    #[test]
    fn mix_uses_tracked_comm_fraction() {
        let mut m = LoadMonitor::new(MonitorConfig {
            default_frac: prob(0.5),
            frac_gain: 1.0,
            ..Default::default()
        });
        m.report(secs(0.0), 2.0, Some(prob(0.25)));
        m.report(secs(1.0), 2.0, Some(prob(0.25)));
        let mf = m.mix_forecast(secs(1.0));
        assert_eq!(mf.frac, prob(0.25), "gain 1.0 jumps straight to the report");
        assert_eq!(mf.mix.p(), 2);
        assert_eq!(mf.mix.fracs(), &[prob(0.25), prob(0.25)]);
    }

    #[test]
    fn invalid_reports_are_rejected_without_side_effects() {
        let mut m = LoadMonitor::new(MonitorConfig::default());
        assert!(m.report(secs(5.0), 1.0, None));
        assert!(!m.report(secs(4.0), 9.0, Some(prob(0.9))), "time regression");
        assert!(!m.report(secs(6.0), f64::NAN, Some(prob(0.9))));
        assert!(!m.report(secs(6.0), -1.0, Some(prob(0.9))));
        assert!(!m.report(secs(6.0), f64::INFINITY, Some(prob(0.9))));
        assert_eq!(m.frac(), Prob::ZERO, "rejected reports must not move the frac");
        assert!(m.scores().iter().all(|s| s.scored == 0), "nothing past the first was scored");
        assert_eq!(m.forecast(secs(5.0)).load, 1.0);
        assert_eq!(m.forecast(secs(7.0)).age, Some(secs(2.0)), "the newest sample is still t=5");
        assert!(m.report(secs(5.0), 2.0, None), "equal timestamps are fine");
        assert_eq!(m.forecast(secs(5.0)).load, 2.0);
    }

    #[test]
    fn contender_rounding_clamps() {
        assert_eq!(contenders(0.0), 0);
        assert_eq!(contenders(2.4), 2);
        assert_eq!(contenders(2.5), 3);
        assert_eq!(contenders(1e18), MAX_CONTENDERS);
    }
}
