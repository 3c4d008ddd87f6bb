//! Sun/Paragon dedicated-communication calibration (paper §3.2.1).
//!
//! A ping-pong benchmark transfers bursts of equal-sized messages and
//! measures the per-burst time across message sizes. `(α, β)` come from a
//! linear regression on the per-message times; the piecewise `threshold`
//! comes from an exhaustive search over the measured sizes, keeping the
//! two-piece fit with the lowest error. All of this runs once per
//! platform — none of it is needed at run time.

use contention_model::comm::{LinearCommModel, PiecewiseCommModel};
use contention_model::units::{f64_from_u64, words};
use hetload::apps::pingpong_app;
use hetplat::config::PlatformConfig;
use hetplat::phase::PhaseKind;
use hetplat::platform::Platform;
use simcore::stats::LinearFit;

/// Tunables for the ping-pong calibration sweep.
#[derive(Debug, Clone)]
pub struct PingPongSpec {
    /// Message sizes (words) to sweep; must be ascending.
    pub sizes: Vec<u64>,
    /// Messages per burst (paper: 1000).
    pub burst: u64,
}

impl Default for PingPongSpec {
    fn default() -> Self {
        PingPongSpec {
            sizes: vec![1, 16, 64, 128, 256, 512, 768, 1024, 1536, 2048, 3072, 4096],
            burst: 1000,
        }
    }
}

/// One measured point of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PingPongPoint {
    /// Message size in words.
    pub words: u64,
    /// Time for the whole burst, seconds.
    pub burst_time: f64,
}

impl PingPongPoint {
    /// Per-message time.
    pub fn per_message(&self, burst: u64) -> f64 {
        self.burst_time / f64_from_u64(burst)
    }
}

/// Runs the ping-pong sweep on a dedicated platform in the given
/// direction (`outbound`: front-end → Paragon).
pub fn measure_pingpong(
    cfg: PlatformConfig,
    spec: &PingPongSpec,
    outbound: bool,
    seed: u64,
) -> Vec<PingPongPoint> {
    spec.sizes
        .iter()
        .map(|&words| {
            let mut p = Platform::new(cfg, seed);
            p.spawn(Box::new(hetload::generators::DaemonNoise::default_noise()));
            let id = p.spawn(Box::new(pingpong_app("pp", spec.burst, words, outbound)));
            #[expect(clippy::expect_used, reason = "a stalled probe is a simulator defect")]
            p.run_until_done(id).expect("ping-pong stalled");
            let kind = if outbound { PhaseKind::Send } else { PhaseKind::Recv };
            PingPongPoint { words, burst_time: p.phase_time(id, kind).as_secs_f64() }
        })
        .collect()
}

/// Fits one `(α, β)` pair to (size, per-message time) points.
/// Returns `None` for degenerate inputs (fewer than two sizes).
pub fn fit_linear(points: &[PingPongPoint], burst: u64) -> Option<LinearCommModel> {
    let xy: Vec<(f64, f64)> =
        points.iter().map(|p| (f64_from_u64(p.words), p.per_message(burst))).collect();
    let fit = LinearFit::fit(&xy)?;
    if fit.slope <= 0.0 {
        return None;
    }
    Some(LinearCommModel::from_fit(fit.intercept, 1.0 / fit.slope))
}

/// Sum of squared per-message residuals of `model` over `points`.
///
/// Residuals come from the raw fitted line, not the typed
/// [`PiecewiseCommModel::message_time`]: a candidate piece can carry a
/// negative intercept (see [`LinearCommModel::from_fit`]) and predict
/// below zero at the smallest sizes, which a `Seconds` would reject —
/// here it is just a bad residual for the search to score.
fn sse(points: &[PingPongPoint], burst: u64, model: &PiecewiseCommModel) -> f64 {
    points
        .iter()
        .map(|p| {
            let piece = model.piece(words(p.words));
            let predicted = piece.alpha + f64_from_u64(p.words) / piece.beta.words_per_sec();
            (predicted - p.per_message(burst)).powi(2)
        })
        .sum()
}

/// Exhaustive threshold search over the measured sizes (paper: "the
/// number of possible thresholds is small"): for every candidate boundary
/// fit both pieces and keep the model with the lowest error. Falls back
/// to a single-piece fit when no split is viable.
pub fn fit_piecewise(points: &[PingPongPoint], burst: u64) -> PiecewiseCommModel {
    #[expect(clippy::expect_used, reason = "documented precondition: callers sweep ≥ 2 sizes")]
    let uniform = fit_linear(points, burst)
        .map(PiecewiseCommModel::uniform)
        .expect("at least two distinct sizes required");
    let mut best = uniform;
    let mut best_err = sse(points, burst, &best);
    // Candidate thresholds: each measured size (the boundary is
    // inclusive on the small side), needing ≥ 2 points per piece.
    for split in 2..=points.len().saturating_sub(2) {
        let threshold = points[split - 1].words;
        let (small_pts, large_pts) = points.split_at(split);
        let (Some(small), Some(large)) =
            (fit_linear(small_pts, burst), fit_linear(large_pts, burst))
        else {
            continue;
        };
        // Built directly rather than through `PiecewiseCommModel::new`:
        // candidates are transient fits arbitrated by `sse`, and a losing
        // split may transiently violate the boundary sanity check that
        // `new` enforces on hand-built models.
        let candidate = PiecewiseCommModel { threshold, small, large };
        let err = sse(points, burst, &candidate);
        if err < best_err {
            best = candidate;
            best_err = err;
        }
    }
    best
}

/// Full dedicated-communication calibration: sweeps both directions and
/// returns the fitted piecewise models `(to_paragon, from_paragon)`.
pub fn calibrate_paragon_comm(
    cfg: PlatformConfig,
    spec: &PingPongSpec,
    seed: u64,
) -> (PiecewiseCommModel, PiecewiseCommModel) {
    let out = measure_pingpong(cfg, spec, true, seed);
    let inb = measure_pingpong(cfg, spec, false, seed);
    (fit_piecewise(&out, spec.burst), fit_piecewise(&inb, spec.burst))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetplat::config::FrontendParams;

    fn cfg() -> PlatformConfig {
        PlatformConfig { frontend: FrontendParams::processor_sharing(), ..Default::default() }
    }

    fn quick_spec() -> PingPongSpec {
        PingPongSpec { sizes: vec![1, 64, 256, 512, 768, 1024, 1536, 2048, 4096], burst: 100 }
    }

    #[test]
    fn pingpong_times_increase_with_size() {
        let pts = measure_pingpong(cfg(), &quick_spec(), true, 1);
        for w in pts.windows(2) {
            assert!(w[1].burst_time > w[0].burst_time, "{w:?}");
        }
    }

    #[test]
    fn threshold_search_finds_protocol_boundary() {
        let c = cfg();
        let pts = measure_pingpong(c, &quick_spec(), true, 1);
        let model = fit_piecewise(&pts, 100);
        // The fitted boundary should sit at the eager limit (1024 words).
        assert_eq!(model.threshold, c.paragon.eager_limit_words);
        // And large messages should see higher effective bandwidth.
        assert!(model.large.beta.words_per_sec() > model.small.beta.words_per_sec());
    }

    #[test]
    fn piecewise_beats_single_piece() {
        let pts = measure_pingpong(cfg(), &quick_spec(), true, 1);
        let piecewise = fit_piecewise(&pts, 100);
        let single = PiecewiseCommModel::uniform(fit_linear(&pts, 100).unwrap());
        assert!(sse(&pts, 100, &piecewise) < sse(&pts, 100, &single));
    }

    #[test]
    fn fitted_model_predicts_within_a_few_percent() {
        let pts = measure_pingpong(cfg(), &quick_spec(), true, 1);
        let model = fit_piecewise(&pts, 100);
        for p in &pts {
            let predicted = model.message_time(words(p.words)).get();
            let actual = p.per_message(100);
            let err = ((predicted - actual) / actual).abs();
            assert!(err < 0.10, "{} words: predicted {predicted} actual {actual}", p.words);
        }
    }

    #[test]
    fn both_directions_calibrate() {
        let (to, from) = calibrate_paragon_comm(cfg(), &quick_spec(), 1);
        assert!(to.small.beta.words_per_sec() > 0.0 && from.small.beta.words_per_sec() > 0.0);
        assert!(to.small.alpha >= 0.0 && from.small.alpha >= 0.0);
        // Outbound: the rendezvous regime streams faster, so the large
        // piece has the higher effective bandwidth. Inbound: the large
        // regime is receive-processing-bound (buffer-cluster overflow), so
        // its effective bandwidth *drops* — the fit must reflect that.
        assert!(to.large.beta.words_per_sec() > to.small.beta.words_per_sec());
        assert!(from.large.beta.words_per_sec() < from.small.beta.words_per_sec());
        // Per-message times stay positive and increase with size.
        for m in [&to, &from] {
            assert!(m.message_time(words(1)).get() > 0.0);
            assert!(m.message_time(words(4096)) > m.message_time(words(64)));
        }
    }

    #[test]
    fn fit_linear_rejects_degenerate() {
        assert!(fit_linear(&[], 10).is_none());
        let one = [PingPongPoint { words: 10, burst_time: 1.0 }];
        assert!(fit_linear(&one, 10).is_none());
    }
}
