//! Trace replay: the loadcast forecasting pipeline against a recorded
//! generator load trace.
//!
//! Timed CPU hogs arrive and depart on a fixed schedule; the simulated
//! platform records when each actually ran. The recorded trace is
//! sampled once per second and fed, one step ahead, through a
//! [`LoadMonitor`] — exactly the path `predictd` drives online — and the
//! experiment reports the forecast error against the simulated ground
//! truth, both as raw load and as the quantized contender count the
//! contention model consumes.
//!
//! Loads are reported shifted by +1 (`p+1` is the machine's slowdown in
//! the paper's model) so the dedicated stretches of the trace don't
//! divide MAPE by zero.

use crate::report::{Experiment, Row, Series};
use crate::setup::{platform_config, SEED};
use contention_model::units::{f64_from_usize, secs};
use hetload::generators::TimedCpuHog;
use hetplat::platform::Platform;
use loadcast::{LoadMonitor, MonitorConfig};
use simcore::time::{SimDuration, SimTime};

/// Hog arrival/departure schedule, seconds: two early long-lived hogs,
/// two more piling on mid-run, and a single straggler after the pack
/// departs. Planned contender count: 0, then 2, then 4, then 1, then 0.
const HOGS: [(f64, f64); 5] = [(2.0, 18.0), (2.0, 18.0), (10.0, 18.0), (10.0, 18.0), (18.0, 30.0)];

/// Trace length and 1 Hz sampling: midpoint samples at 0.5 s, 1.5 s, …
const SAMPLES: usize = 31;

fn at(t: f64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs_f64(t)
}

/// Replays the hog schedule on the simulated platform and samples the
/// recorded trace: `trace[k]` is the number of hogs actually running at
/// `k + 0.5` seconds, taken from each hog's phase records.
fn recorded_trace() -> Vec<usize> {
    let mut plat = Platform::new(platform_config(), SEED ^ 0x10ad);
    let ids: Vec<_> = HOGS
        .iter()
        .enumerate()
        .map(|(i, &(arrive, depart))| {
            plat.spawn_at(Box::new(TimedCpuHog::new(format!("hog{i}"), at(depart))), at(arrive))
        })
        .collect();
    plat.run_until(at(40.0));
    // A hog's active span is the extent of its recorded phases. Departure
    // can overshoot the schedule by a fraction of a second (the final
    // CPU chunk stretches under time-sharing), which is part of the
    // ground truth the forecaster is judged against.
    let spans: Vec<(f64, f64)> = ids
        .iter()
        .map(|&id| {
            let recs = plat.records(id);
            let first = recs.first().expect("hog ran");
            let last = recs.last().expect("hog ran");
            (first.start.as_secs_f64(), last.end.as_secs_f64())
        })
        .collect();
    (0..SAMPLES)
        .map(|k| {
            let t = f64_from_usize(k) + 0.5;
            spans.iter().filter(|&&(s, e)| s <= t && t < e).count()
        })
        .collect()
}

/// Runs the replay: recorded trace in, one-step-ahead forecasts out.
pub fn run() -> Experiment {
    let mut e = Experiment::new(
        "forecast-replay",
        "Recorded hog trace through the loadcast monitor, one step ahead",
        "time (s)",
    );
    let trace = recorded_trace();
    let mut monitor = LoadMonitor::new(MonitorConfig::default());
    let mut selector_rows = Vec::new();
    let mut contender_rows = Vec::new();
    for (k, &truth) in trace.iter().enumerate() {
        let t = f64_from_usize(k) + 0.5;
        let actual = f64_from_usize(truth);
        // Forecast *before* observing the sample: everything the monitor
        // knows predates t, as it would for a scheduler asking now.
        let fc = monitor.forecast(secs(t));
        if !fc.stale {
            selector_rows.push(Row { x: t, modeled: fc.load + 1.0, actual: actual + 1.0 });
            contender_rows.push(Row {
                x: t,
                modeled: f64_from_usize(fc.p) + 1.0,
                actual: actual + 1.0,
            });
        }
        monitor.report(secs(t), actual, None);
    }
    let selector = Series::new("NWS-selected load forecast (+1)", selector_rows);
    let quantized = Series::new("forecast contender count (+1)", contender_rows);
    let final_fc = monitor.forecast(secs(f64_from_usize(SAMPLES) + 0.5));
    e.note(format!(
        "piecewise-constant trace (0 → 2 → 4 → 1 → 0 contenders): the selector is \
         exact on every steady-state step and pays only at the {} transitions; \
         final winner `{}`",
        4, final_fc.forecaster
    ));
    e.note(
        monitor
            .scores()
            .iter()
            .map(|s| match s.mae {
                Some(mae) => format!("{} MAE {:.3}", s.name, mae),
                None => format!("{} unscored", s.name),
            })
            .collect::<Vec<_>>()
            .join(", "),
    );
    e.push_series(selector);
    e.push_series(quantized);
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use loadcast::monitor::contenders;

    #[test]
    fn recorded_trace_follows_the_schedule() {
        let trace = recorded_trace();
        assert_eq!(trace.len(), SAMPLES);
        // Interior midpoints, clear of arrival/departure boundary fuzz.
        assert_eq!(trace[0], 0, "{trace:?}");
        assert_eq!(trace[5], 2, "{trace:?}");
        assert_eq!(trace[14], 4, "{trace:?}");
        assert_eq!(trace[25], 1, "{trace:?}");
        assert_eq!(trace[30], 0, "{trace:?}");
    }

    #[test]
    fn forecasts_track_the_trace() {
        let e = run();
        let selector = &e.series[0];
        assert!(selector.rows.len() >= SAMPLES - 1, "one-step rows: {}", selector.rows.len());
        // Mostly-constant trace: errors only near the 4 transitions.
        assert!(selector.mape() < 25.0, "selector MAPE {:.1}%", selector.mape());
        assert!(e.series[1].mape() < 25.0, "contender MAPE {:.1}%", e.series[1].mape());
        // Steady-state steps are predicted exactly (the bit-exact
        // constant-input property, visible end to end).
        let exact = selector.rows.iter().filter(|r| r.modeled == r.actual).count();
        assert!(exact * 2 > selector.rows.len(), "{exact}/{} exact", selector.rows.len());
    }

    #[test]
    fn every_forecaster_gets_scored() {
        let _ = run();
        let mut monitor = LoadMonitor::new(MonitorConfig::default());
        for (k, &truth) in recorded_trace().iter().enumerate() {
            monitor.report(secs(f64_from_usize(k) + 0.5), f64_from_usize(truth), None);
        }
        for s in monitor.scores() {
            assert!(s.scored >= 29, "{} scored {}", s.name, s.scored);
        }
        // The quantizer agrees with the monitor's own p.
        let fc = monitor.forecast(secs(31.0));
        assert_eq!(fc.p, contenders(fc.load));
    }

    /// The replay's printed output, pinned: both notes byte for byte and
    /// both series' MAPE to the printed precision. A change to the
    /// monitor, the forecaster bank or the selector that moves any
    /// forecast moves one of these.
    #[test]
    fn the_notes_and_mapes_are_pinned() {
        let e = run();
        assert_eq!(
            e.notes,
            [
                "piecewise-constant trace (0 → 2 → 4 → 1 → 0 contenders): the selector is \
                 exact on every steady-state step and pays only at the 4 transitions; \
                 final winner `last`",
                "last MAE 0.267, mean4 MAE 0.611, mean16 MAE 1.423, median5 MAE 0.700, \
                 ewma0.10 MAE 1.396, ewma0.30 MAE 0.781, ewma0.90 MAE 0.293",
            ]
        );
        let mapes: Vec<String> = e.series.iter().map(|s| format!("{:.2}", s.mape())).collect();
        assert_eq!(mapes, ["11.89", "11.89"]);
    }
}
