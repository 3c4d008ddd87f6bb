//! A machine's profile slot answers exactly like building everything
//! afresh. Random report/predict/batch/rank sequences — shapes that
//! move and come back, forecasts that go stale, unknown machines,
//! out-of-order reports — are replayed against the service and against
//! an oracle that keeps only a [`LoadMonitor`] per machine and builds a
//! [`WorkloadMix`] and its [`SlowdownProfile`] from scratch for every
//! query. Every answer must be the oracle's, bit for bit, and every
//! `cache_hit` must say whether the query's shape equals the last one
//! resolved for that machine.

use std::collections::HashMap;

use contention_model::dataset::DataSet;
use contention_model::mix::WorkloadMix;
use contention_model::predict::{ParagonPredictor, ParagonTask};
use contention_model::profile::SlowdownProfile;
use contention_model::units::{secs, Prob, Seconds};
use hetsched::eval::rank_top;
use hetsched::forecast::environment_from_profile;
use loadcast::LoadMonitor;
use predictd::proto::{DecideBatch, LoadReport, Predict, Rank, Request, Response};
use predictd::{Service, ServiceConfig};
use proptest::prelude::*;

fn task(scale: f64) -> ParagonTask {
    ParagonTask {
        dcomp_sun: secs(10.0 + scale),
        t_paragon: secs(1.0 + scale * 0.1),
        to_backend: vec![DataSet::burst(10, 1500)],
        from_backend: vec![DataSet::single(800)],
    }
}

/// Loads and fractions drawn from short lists, so a machine's shape
/// keeps returning to values it had before.
const LOADS: [f64; 5] = [0.0, 1.0, 2.0, 3.0, 6.0];
const FRACS: [f64; 4] = [-1.0, 0.0, 0.25, 0.5];

/// One generated step: `(kind, machine, dt, value, frac, ahead)`. The
/// vendored proptest has no `prop_oneof`, so the kind is an integer:
/// 0-3 report, 4-5 predict, 6 batch, 7 rank. Machine 5 never reports.
/// A report lands `dt - 1` after the clock (a negative offset comes out
/// of order); a query asks `ahead` seconds past the clock, which can
/// carry it past the 10 s staleness horizon.
type RawOp = (usize, usize, f64, usize, usize, f64);

/// What the oracle knows: one monitor per reported machine and the
/// shape each machine's last fresh query resolved.
struct Oracle {
    pred: ParagonPredictor,
    cfg: ServiceConfig,
    monitors: HashMap<String, LoadMonitor>,
    last_shape: HashMap<String, (usize, u64)>,
}

/// A resolved query: the profile built afresh, and the pedigree the
/// reply must carry.
struct Expected {
    profile: SlowdownProfile,
    p: u64,
    stale: bool,
    forecaster: String,
    cache_hit: bool,
}

impl Oracle {
    fn new(cfg: ServiceConfig) -> Self {
        let pred = predictd::default_predictor();
        Oracle { pred, cfg, monitors: HashMap::new(), last_shape: HashMap::new() }
    }

    fn report(&mut self, r: &LoadReport) -> (bool, u64) {
        let cfg = self.cfg.monitor;
        let monitor =
            self.monitors.entry(r.machine.clone()).or_insert_with(|| LoadMonitor::new(cfg));
        let frac = (r.comm_frac >= 0.0).then(|| Prob::new(r.comm_frac));
        let at = Seconds::new(r.at);
        let accepted = monitor.report(at, r.load, frac);
        (accepted, monitor.forecast(at).p as u64)
    }

    fn fresh(&self, mix: &WorkloadMix) -> SlowdownProfile {
        SlowdownProfile::compute(mix, &self.pred.comm_delays, &self.pred.comp_delays)
    }

    fn resolve(&mut self, machine: &str, now: f64) -> Expected {
        let stale = |oracle: &Self, forecaster: &str| Expected {
            profile: oracle.fresh(&WorkloadMix::new()),
            p: 0,
            stale: true,
            forecaster: forecaster.to_string(),
            cache_hit: true,
        };
        let Some(monitor) = self.monitors.get(machine) else {
            return stale(self, "dedicated");
        };
        let fc = monitor.forecast(Seconds::new(now));
        if fc.stale {
            return stale(self, fc.forecaster);
        }
        let frac = monitor.frac();
        let shape = (fc.p, frac.get().to_bits());
        let cache_hit = self.last_shape.insert(machine.to_string(), shape) == Some(shape);
        Expected {
            profile: self.fresh(&WorkloadMix::from_probs(&vec![frac; fc.p])),
            p: fc.p as u64,
            stale: false,
            forecaster: fc.forecaster.to_string(),
            cache_hit,
        }
    }
}

fn request_for(raw: &RawOp, clock: f64) -> Request {
    let (kind, machine, dt, value, frac, ahead) = *raw;
    let machine = format!("machine-{machine}");
    let now = clock + ahead;
    match kind {
        0..=3 => Request::LoadReport(LoadReport {
            machine,
            at: (clock + dt - 1.0).max(0.0),
            load: LOADS[value % LOADS.len()],
            comm_frac: FRACS[frac],
        }),
        4..=5 => Request::Predict(Predict { machine, now, task: task(dt), j_words: 500 }),
        6 => Request::DecideBatch(DecideBatch {
            machine,
            now,
            tasks: (0..=value).map(|i| task(i as f64)).collect(),
            j_words: 500,
        }),
        _ => Request::Rank(Rank {
            machine,
            now,
            workflow: hetsched::example::workflow(),
            front_end: 0,
            j_words: 500,
            limit: value,
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    fn the_profile_slot_answers_like_a_fresh_build(
        shards in 1..4usize,
        ops in proptest::collection::vec(
            (0..8usize, 0..6usize, 0.0..2.0f64, 0..5usize, 0..4usize, 0.0..12.0f64),
            1..120,
        )
    ) {
        let cfg = ServiceConfig { shards, ..ServiceConfig::default() };
        let service = Service::with_default_predictor(cfg);
        let mut oracle = Oracle::new(cfg);
        let mut clock = 0.0f64;
        for (step, op) in ops.iter().enumerate() {
            clock += op.2;
            let req = request_for(op, clock);
            let (got, _) = service.handle(&req);
            match (&req, got) {
                (Request::LoadReport(r), Response::Ack(a)) => {
                    prop_assert_eq!((a.accepted, a.p), oracle.report(r), "step {}", step);
                }
                (Request::Predict(q), Response::Prediction(p)) => {
                    let want = oracle.resolve(&q.machine, q.now);
                    let decision = oracle.pred.decide_with(&q.task, &want.profile, q.j_words);
                    prop_assert_eq!(p.decision, decision, "step {}", step);
                    prop_assert_eq!((p.p, p.stale, p.forecaster), (want.p, want.stale, want.forecaster));
                    prop_assert_eq!(p.cache_hit, want.cache_hit, "step {}", step);
                }
                (Request::DecideBatch(q), Response::Decisions(d)) => {
                    let want = oracle.resolve(&q.machine, q.now);
                    let mut decisions = Vec::new();
                    oracle.pred.decide_batch_into(&q.tasks, &want.profile, q.j_words, &mut decisions);
                    prop_assert_eq!(d.decisions, decisions, "step {}", step);
                    prop_assert_eq!((d.p, d.stale, d.forecaster), (want.p, want.stale, want.forecaster));
                    prop_assert_eq!(d.cache_hit, want.cache_hit, "step {}", step);
                }
                (Request::Rank(q), Response::Ranked(r)) => {
                    let want = oracle.resolve(&q.machine, q.now);
                    let machines = q.workflow.machines();
                    let env = environment_from_profile(machines, q.front_end, &want.profile, q.j_words);
                    prop_assert_eq!(r.schedules, rank_top(&q.workflow, &env, q.limit), "step {}", step);
                    prop_assert_eq!((r.p, r.stale), (want.p, want.stale), "step {}", step);
                }
                (req, got) => prop_assert!(false, "step {}: {:?} answered {:?}", step, req, got),
            }
        }
        prop_assert_eq!(service.machine_count(), oracle.monitors.len());
    }
}
