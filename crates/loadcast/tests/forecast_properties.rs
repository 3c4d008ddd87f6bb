//! The constant-trace equivalence property: a constant load trace of
//! `p` contenders makes **every** forecaster in the bank — and the NWS
//! selector over them — converge to exactly `p`, and the mix built from
//! that forecast yields placement decisions **bit-identical** to a
//! direct `decide()` call with the true mix.
//!
//! The cheap-count property: `LoadMonitor::contenders_at` agrees with
//! the full forecast's contender count and staleness.
//!
//! The inline-bank property: the selector holds the default bank in
//! plain fields, and after every sample it must agree to the bit with a
//! from-scratch reference built on the boxed [`default_family`]: the
//! stored winner is the one a full argmin over the reference's MAEs
//! picks (earliest on exact ties), and every forecaster's score — name,
//! MAE bits, scored count — is the reference's. Checked on random
//! traces, constant traces, exact MAE ties, a single sample, and traces
//! with rejected reports; and a monitor cloned mid-trace stays identical
//! to the original when both are fed the same later reports.

use contention_model::comm::{LinearCommModel, PiecewiseCommModel};
use contention_model::dataset::DataSet;
use contention_model::delay::{CommDelayTable, CompDelayTable};
use contention_model::mix::WorkloadMix;
use contention_model::predict::{ParagonPredictor, ParagonTask};
use contention_model::units::{prob, secs, BytesPerSec};
use loadcast::{
    default_family, Forecaster, ForecasterScore, LoadMonitor, MonitorConfig, SelectivePredictor,
};
use proptest::prelude::*;

fn linear(alpha: f64, beta_wps: f64) -> LinearCommModel {
    LinearCommModel::new(secs(alpha), BytesPerSec::from_words_per_sec(beta_wps))
}

/// A fixed calibrated predictor (values from a real calibration run).
fn predictor() -> ParagonPredictor {
    ParagonPredictor {
        comm_to: PiecewiseCommModel::new(1024, linear(1.6e-3, 79_000.0), linear(5.6e-3, 104_000.0)),
        comm_from: PiecewiseCommModel::new(
            1024,
            linear(1.5e-3, 149_000.0),
            linear(2.0e-3, 83_000.0),
        ),
        comm_delays: CommDelayTable::new(
            vec![0.27, 0.61, 1.02, 1.40],
            vec![0.19, 0.49, 0.81, 1.10],
        ),
        comp_delays: CompDelayTable::new(
            vec![1, 500, 1000],
            vec![
                vec![0.22, 0.37, 0.37, 0.37],
                vec![0.66, 1.15, 1.59, 1.90],
                vec![1.68, 3.59, 5.52, 7.00],
            ],
        ),
    }
}

/// A from-scratch model of the selector: the boxed default bank, each
/// forecaster scored on its own, with the winner found by a full argmin
/// over the bank each time it is asked.
struct Reference {
    bank: Vec<Box<dyn Forecaster + Send + Sync>>,
    abs_err: Vec<f64>,
    scored: Vec<u64>,
}

impl Reference {
    fn new() -> Self {
        let bank = default_family();
        let n = bank.len();
        Reference { bank, abs_err: vec![0.0; n], scored: vec![0; n] }
    }

    /// Every forecaster's (name, MAE bits, scored count), in bank order.
    fn scores(&self) -> Vec<(String, Option<u64>, u64)> {
        self.bank
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let n = self.scored[i];
                let mae = (n > 0).then(|| (self.abs_err[i] / n as f64).to_bits());
                (f.name().to_string(), mae, n)
            })
            .collect()
    }

    fn observe(&mut self, load: f64) {
        for (i, f) in self.bank.iter_mut().enumerate() {
            if let Some(p) = f.predict() {
                self.abs_err[i] += (p - load).abs();
                self.scored[i] += 1;
            }
            f.observe(load);
        }
    }

    /// Lowest MAE among scored forecasters, earliest on ties; before any
    /// scoring, the first forecaster with a prediction.
    fn winner(&self) -> Option<(f64, String)> {
        let mut best: Option<(f64, usize)> = None;
        for (i, f) in self.bank.iter().enumerate() {
            if self.scored[i] == 0 || f.predict().is_none() {
                continue;
            }
            let mae = self.abs_err[i] / self.scored[i] as f64;
            if best.is_none_or(|(m, _)| mae < m) {
                best = Some((mae, i));
            }
        }
        let i = match best {
            Some((_, i)) => i,
            None => self.bank.iter().position(|f| f.predict().is_some())?,
        };
        Some((self.bank[i].predict()?, self.bank[i].name().to_string()))
    }
}

/// The selector's stored winner in the reference's terms.
fn stored(sel: &SelectivePredictor) -> Option<(u64, String)> {
    sel.predict().map(|(p, name)| (p.to_bits(), name.to_string()))
}

/// The reference's argmin winner, bitwise.
fn argmin(r: &Reference) -> Option<(u64, String)> {
    r.winner().map(|(p, name)| (p.to_bits(), name))
}

/// Scores in the reference's terms: (name, MAE bits, scored count).
fn score_bits(scores: &[ForecasterScore]) -> Vec<(String, Option<u64>, u64)> {
    scores.iter().map(|s| (s.name.clone(), s.mae.map(f64::to_bits), s.scored)).collect()
}

/// Checks the selector against the reference: the stored winner and
/// every score, bitwise.
fn assert_matches(sel: &SelectivePredictor, r: &Reference, step: usize) {
    assert_eq!(stored(sel), argmin(r), "winner at step {step}");
    assert_eq!(score_bits(&sel.scores()), r.scores(), "scores at step {step}");
}

/// A trace step drawn by the generators below.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// A valid report of this load, one second after the newest.
    Load(f64),
    /// A report of NaN load: rejected.
    NaN,
    /// A report older than the newest sample: rejected.
    Regress,
}

/// Turns raw draws into steps: tag 0 regresses time, tag 1 reports NaN,
/// tags 2-5 report small integers (so forecasters tie), tag 6 reports a
/// negative zero (a valid load whose bits differ from 0's), the rest
/// report the random float.
fn steps(raw: &[(u8, f64)]) -> Vec<Step> {
    raw.iter()
        .map(|&(tag, v)| match tag {
            0 => Step::Regress,
            1 => Step::NaN,
            2..=5 => Step::Load(f64::from(tag - 2)),
            6 => Step::Load(-0.0),
            _ => Step::Load(v),
        })
        .collect()
}

/// The monitor's forecast right after its newest report, as
/// `(load bits, forecaster)`.
fn fresh_forecast(m: &LoadMonitor, newest: f64) -> (u64, String) {
    let f = m.forecast(secs(newest));
    (f.load.to_bits(), f.forecaster)
}

#[test]
fn single_sample_stores_the_first_forecaster() {
    let mut sel = SelectivePredictor::nws_default();
    let mut r = Reference::new();
    assert_matches(&sel, &r, 0);
    sel.observe(2.5);
    r.observe(2.5);
    assert_matches(&sel, &r, 1);
    assert_eq!(stored(&sel), Some((2.5f64.to_bits(), "last".to_string())));
}

#[test]
fn exact_mae_ties_go_to_the_earliest_entry() {
    // On 0, 2, 1 the two means and the median all predict 0 and then 1,
    // so their MAEs tie to the bit at 1.0 and beat every other entry.
    // The earliest of the three, `mean4`, must win; `last` (earlier
    // still) is not in the tie.
    let mut sel = SelectivePredictor::nws_default();
    let mut r = Reference::new();
    for (step, v) in [0.0, 2.0, 1.0].into_iter().enumerate() {
        sel.observe(v);
        r.observe(v);
        assert_matches(&sel, &r, step);
    }
    let scores = sel.scores();
    let tied: Vec<&str> =
        scores.iter().filter(|s| s.mae == Some(1.0)).map(|s| s.name.as_str()).collect();
    assert_eq!(tied, ["mean4", "mean16", "median5"], "{scores:?}");
    assert!(scores.iter().all(|s| s.mae >= Some(1.0)), "{scores:?}");
    assert_eq!(sel.predict(), Some((1.0, "mean4")));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// On random traces with rejected reports mixed in, the monitor's
    /// fresh forecast and a bare selector both forward the reference's
    /// argmin winner after every report; a clone taken mid-trace and fed
    /// the same later reports stays identical to the original.
    fn stored_winner_is_the_argmin_and_clones_stay_identical(
        raw in prop::collection::vec((0u8..12, 0.0f64..8.0), 1..80),
        split in 0usize..80,
    ) {
        let mut monitor = LoadMonitor::new(MonitorConfig::default());
        let mut sel = SelectivePredictor::nws_default();
        let mut r = Reference::new();
        let mut copy: Option<LoadMonitor> = None;
        let mut newest: Option<f64> = None;
        for (i, step) in steps(&raw).into_iter().enumerate() {
            if i == split {
                copy = Some(monitor.clone());
            }
            let next = newest.map_or(0.0, |t| t + 1.0);
            let (at, load, valid) = match step {
                Step::Load(v) => (next, v, true),
                Step::NaN => (next, f64::NAN, false),
                Step::Regress => (newest.map_or(-1.0, |t| t - 1.0), 1.0, false),
            };
            if at < 0.0 {
                continue;
            }
            prop_assert_eq!(monitor.report(secs(at), load, None), valid, "step {} {:?}", i, step);
            if let Some(c) = copy.as_mut() {
                prop_assert_eq!(c.report(secs(at), load, None), valid);
            }
            if valid {
                newest = Some(at);
                sel.observe(load);
                r.observe(load);
            }
            prop_assert_eq!(stored(&sel), argmin(&r), "step {}", i);
            prop_assert_eq!(score_bits(&sel.scores()), r.scores(), "step {}", i);
            prop_assert_eq!(score_bits(&monitor.scores()), r.scores(), "step {}", i);
            if let (Some(t), Some((p, name))) = (newest, r.winner()) {
                let want = (p.max(0.0).to_bits(), name);
                prop_assert_eq!(fresh_forecast(&monitor, t), want, "step {}", i);
                if let Some(c) = copy.as_ref() {
                    prop_assert_eq!(fresh_forecast(c, t), fresh_forecast(&monitor, t));
                    prop_assert_eq!(c.scores(), monitor.scores());
                    prop_assert_eq!(c.frac(), monitor.frac());
                }
            }
        }
    }

    /// `contenders_at` is `forecast(now)` without the forecaster's
    /// name: the same contender count when fresh, `None` exactly when
    /// the forecast is stale — before any sample, inside the horizon,
    /// on it, and past it.
    fn contenders_at_is_the_forecasts_count_and_staleness(
        loads in prop::collection::vec(-2.0f64..3000.0, 0..30),
        ages in prop::collection::vec(0.0f64..25.0, 1..8),
    ) {
        let mut monitor = LoadMonitor::new(MonitorConfig::default());
        let mut queries: Vec<f64> = ages.clone();
        queries.push(monitor.horizon().get());
        for (i, &load) in loads.iter().enumerate() {
            monitor.report(secs(i as f64), load, None);
        }
        let newest = loads.len().saturating_sub(1) as f64;
        for age in queries {
            let now = secs(newest + age);
            let f = monitor.forecast(now);
            let want = if f.stale { None } else { Some(f.p) };
            prop_assert_eq!(monitor.contenders_at(now), want, "age {}", age);
        }
    }

    /// Constant traces: every forecaster ties at MAE 0, so the stored
    /// winner is the first entry and forwards the constant exactly.
    fn constant_traces_store_the_first_forecaster(
        p in 0usize..=8,
        len in 1usize..40,
    ) {
        let load = p as f64;
        let mut sel = SelectivePredictor::nws_default();
        let mut r = Reference::new();
        for _ in 0..len {
            sel.observe(load);
            r.observe(load);
            prop_assert_eq!(stored(&sel), argmin(&r));
            prop_assert_eq!(score_bits(&sel.scores()), r.scores());
        }
        prop_assert_eq!(stored(&sel), Some((load.to_bits(), "last".to_string())));
    }

    /// Every forecaster in the default bank is exact on constant input.
    fn every_forecaster_converges_to_the_constant(
        p in 0usize..=8,
        len in 2usize..40,
    ) {
        let load = p as f64;
        for mut f in default_family() {
            for _ in 0..len {
                f.observe(load);
            }
            prop_assert_eq!(f.predict(), Some(load), "{}", f.name());
        }
        let mut sel = SelectivePredictor::nws_default();
        for _ in 0..len {
            sel.observe(load);
        }
        let (got, _) = sel.predict().expect("selector has a prediction");
        prop_assert_eq!(got, load);
    }

    /// Forecast-fed decisions are bit-identical to direct `decide()`
    /// under the true constant mix.
    fn constant_trace_decisions_match_direct_decide(
        p in 0usize..=8,
        len in 2usize..24,
        frac in 0.0f64..=1.0,
        dcomp in 0.1f64..50.0,
        t_par in 0.1f64..20.0,
        msgs in 1u64..200,
        words in 1u64..4000,
        j in 1u64..5000,
    ) {
        let mut monitor = LoadMonitor::new(MonitorConfig {
            default_frac: prob(frac),
            ..Default::default()
        });
        for t in 0..len {
            prop_assert!(monitor.report(secs(t as f64), p as f64, None));
        }
        let mf = monitor.mix_forecast(secs(len as f64 - 1.0));
        prop_assert!(!mf.forecast.stale);
        prop_assert_eq!(mf.forecast.p, p);

        // The true mix: p contenders at the same fraction.
        let truth = WorkloadMix::from_probs(&vec![prob(frac); p]);

        let task = ParagonTask {
            dcomp_sun: secs(dcomp),
            t_paragon: secs(t_par),
            to_backend: vec![DataSet::burst(msgs, words)],
            from_backend: vec![DataSet::single(words)],
        };
        let pred = predictor();
        let direct = pred.decide(&task, &truth, j);
        let forecast_fed = pred.decide(&task, &mf.mix, j);
        // PartialEq on PlacementDecision is f64 equality — bit-identical.
        prop_assert_eq!(direct, forecast_fed);

        // The cached-profile path agrees too.
        let profile = pred.profile(&mf.mix);
        prop_assert_eq!(direct, pred.decide_with(&task, &profile, j));
    }
}
