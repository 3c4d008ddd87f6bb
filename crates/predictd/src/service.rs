//! The request handler: per-machine load monitors + epoch-keyed profile
//! caches, sharded for concurrency, wrapped around one calibrated
//! [`ParagonPredictor`].
//!
//! Each machine gets a [`LoadMonitor`] (forecasting) and a
//! [`ProfileCache`] keyed by the forecast *shape* `(p, frac)`: as long
//! as consecutive forecasts agree on the contender count and
//! communication fraction, the stored [`WorkloadMix`] — and therefore
//! its epoch — is left untouched, so the cached [`SlowdownProfile`]
//! stays current and predictions skip the profile recompute entirely.
//!
//! **One resolve rule, applied lazily.** The monitor picks its forecast
//! when a report arrives, so a query's forecast is a staleness check
//! plus a copy. A `load_report` only updates the monitor; it never
//! builds a mix. The mix is an input to a *prediction*, so it is
//! rebuilt (three allocations, the `O(p²)` distribution, an epoch bump)
//! by the first query whose forecast shape differs from the stored one,
//! on the shard's write-lock slow path. The read-lock fast path declines
//! a mismatched shape, so it never needs to mutate. The mix is a pure
//! function of the shape, so answers are the same bits as building it
//! afresh per query; a shape that moves and comes back between two
//! queries keeps its mix, its epoch and its cached profile.
//!
//! **Sharding & lock discipline.** Machine state is split across N
//! shards, each behind its own [`RwLock`]; a machine routes to a shard
//! by a stable FNV-1a hash of its name, so a machine's monitor, mix,
//! and cache live (and stay coherent) inside exactly one shard for the
//! life of the daemon. Read-mostly traffic — `predict`, `decide_batch`,
//! `rank` against an unchanged forecast shape with a current cached
//! profile — is served entirely under the shard's *read* lock, so
//! queries against different machines (or the same warm machine) never
//! serialize. The *write* lock is taken only when state actually moves:
//! every `load_report`, and the slow resolve path when the shape
//! changed or the cache went stale. A `rank` holds either lock only to
//! copy its profile's two slowdowns into an environment; the walk over
//! its schedules runs after the guard drops. Metrics are relaxed atomics (see
//! [`Metrics`]), so `stats` never takes a shard lock beyond a brief
//! read per shard for the machine counts.
//!
//! Stale forecasts (see the staleness policy in `loadcast`) never touch
//! the per-machine cache: they are answered from one precomputed
//! dedicated-machine profile, so a machine flapping between fresh and
//! stale does not thrash its cache.
//!
//! **One copy per machine.** A machine's state exists once, in its
//! shard: there are no per-core replicas to keep in step, so a report is
//! applied once and every event loop reads the same state through the
//! shard lock. The monitor is a fixed-size value (see `loadcast`), so a
//! machine's first report allocates only its key and the `Ack`'s name;
//! it holds no mix until a query builds one.
//!
//! **Reused requests and replies.** [`Service::handle_into`] writes its
//! answer into a caller's [`Response`], reusing the capacity of the
//! reply already there. Each event loop keeps one [`Slots`] value: a
//! decoder with one request slot per hot kind and one reply slot per
//! hot reply kind, so a warm binary `load_report`, `predict` or
//! `decide_batch` is decoded, answered and encoded with no heap
//! allocation. [`Service::handle`] is the same handler on a fresh
//! reply.

use std::collections::BTreeMap;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use contention_model::mix::WorkloadMix;
use contention_model::predict::ParagonPredictor;
use contention_model::profile::{ProfileCache, SlowdownProfile};
use contention_model::units::{Prob, Seconds};
use hetsched::eval::{rank_top, MAX_RANK_SCHEDULES};
use hetsched::forecast::environment_from_profile;
use loadcast::{LoadMonitor, MonitorConfig};

use crate::binproto;
use crate::metrics::{Metrics, ReqKind};
use crate::proto::{
    Ack, DecideBatch, Decisions, LoadReport, Predict, Prediction, Rank, Ranked, Request, Response,
    ShardStats,
};

/// Service-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Monitor configuration applied to every newly seen machine.
    pub monitor: MonitorConfig,
    /// Upper bound on `machines^tasks` a `rank` request may ask for;
    /// larger workflows are rejected instead of evaluated. Values above
    /// [`MAX_RANK_SCHEDULES`], the ranking's own cap, act as that cap.
    pub max_rank_schedules: u64,
    /// Number of machine-state shards (clamped to at least 1). More
    /// shards means less lock contention between machines; results are
    /// bit-identical for any shard count because a machine's state
    /// never leaves its shard.
    pub shards: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            monitor: MonitorConfig::default(),
            max_rank_schedules: MAX_RANK_SCHEDULES,
            shards: 8,
        }
    }
}

/// Forecasting and caching state for one reported machine.
#[derive(Debug)]
struct MachineState {
    monitor: LoadMonitor,
    /// The mix the cache is keyed on, with its shape
    /// `(p, frac.to_bits())`; `None` until the first fresh query.
    /// Replaced only when a query finds the forecast shape changed, so
    /// its epoch is stable across same-shape queries and across
    /// reports.
    mix: Option<((usize, u64), WorkloadMix)>,
    cache: ProfileCache,
}

impl MachineState {
    fn new(cfg: MonitorConfig) -> Self {
        MachineState { monitor: LoadMonitor::new(cfg), mix: None, cache: ProfileCache::new() }
    }

    /// The shape of a fresh forecast of `p` contenders: `p` and the
    /// tracked fraction's bits. The mix is a pure function of it.
    fn shape_of(&self, p: usize) -> (usize, u64) {
        // modelcheck-allow: float-env — the shape key must distinguish
        // every distinct frac, and bit equality is exactly that.
        (p, self.monitor.frac().get().to_bits())
    }

    /// Rebuilds the stored mix only when the forecast shape changed
    /// since it was built. Keeping the mix (and its epoch) stable on
    /// same-shape forecasts is what lets the epoch-keyed cache hit, and
    /// skips the mix's allocations and `O(p²)` distribution on every
    /// unchanged query. Returns the mix with the cache keyed on it.
    fn sync_shape(&mut self, p: usize) -> (&WorkloadMix, &mut ProfileCache) {
        let key = self.shape_of(p);
        if self.mix.as_ref().is_some_and(|(shape, _)| *shape != key) {
            self.mix = None;
        }
        let frac = self.monitor.frac();
        let (_, mix) =
            self.mix.get_or_insert_with(|| (key, WorkloadMix::from_probs(&vec![frac; p])));
        (mix, &mut self.cache)
    }

    /// The cached profile, if it answers a fresh forecast of `p`
    /// contenders as it stands: same shape, and current for the mix.
    fn current_profile(&self, p: usize) -> Option<&SlowdownProfile> {
        let (shape, mix) = self.mix.as_ref()?;
        if *shape != self.shape_of(p) {
            return None;
        }
        self.cache.peek().filter(|profile| profile.is_current(mix))
    }
}

/// One shard of machine state: the machines that hash here, plus the
/// write tally the `stats` breakdown reports.
#[derive(Debug, Default)]
struct Shard {
    machines: BTreeMap<String, MachineState>,
    load_reports: u64,
}

/// A resolved forecast's pedigree (the profile itself is borrowed).
struct Resolved {
    p: u64,
    stale: bool,
    forecaster: &'static str,
    cache_hit: bool,
}

/// One event loop's reusable request and reply values: a
/// [`binproto::Decoder`] with one request slot per hot kind, and one
/// reply slot per hot reply kind (`ack`, `prediction`, `decisions`)
/// plus one for every other reply. A frame is decoded into the slot of
/// its kind and answered into the matching reply slot, both reusing the
/// `String`/`Vec` capacity of that kind's last message, so a warm
/// binary `load_report`, `predict` or `decide_batch` is answered
/// without a heap allocation. What a request slot keeps is a fixed
/// multiple of the last frame of its kind (see [`binproto::Decoder`]);
/// a reply slot keeps the capacity of the largest reply of its kind,
/// which one frame bounds. JSON lines are parsed afresh but are
/// answered through the same reply slots.
#[derive(Debug, Default)]
pub struct Slots {
    decoder: binproto::Decoder,
    replies: Replies,
}

/// The reply half of [`Slots`].
#[derive(Debug)]
struct Replies {
    ack: Response,
    prediction: Response,
    decisions: Response,
    /// Every other kind of reply, and every error.
    other: Response,
}

impl Default for Replies {
    fn default() -> Self {
        Replies {
            ack: Response::Ok,
            prediction: Response::Ok,
            decisions: Response::Ok,
            other: Response::Ok,
        }
    }
}

impl Replies {
    /// The slot `req`'s reply goes into.
    fn slot(&mut self, req: &Request) -> &mut Response {
        match req {
            Request::LoadReport(_) => &mut self.ack,
            Request::Predict(_) => &mut self.prediction,
            Request::DecideBatch(_) => &mut self.decisions,
            Request::Rank(_) | Request::Stats | Request::Shutdown => &mut self.other,
        }
    }
}

impl Slots {
    /// Empty slots.
    pub fn new() -> Self {
        Slots::default()
    }

    /// Decodes one binary frame body (tag + payload, length prefix
    /// already stripped) into the slots, handles the request, and
    /// appends the complete response frame to `out`. Malformed frames
    /// yield an `error` response frame, never a dropped connection.
    /// Returns the shutdown flag.
    pub fn handle_frame_into(&mut self, service: &Service, body: &[u8], out: &mut Vec<u8>) -> bool {
        let (resp, shutdown) = match self.decoder.decode_request_into(body) {
            Ok(req) => {
                let resp = self.replies.slot(req);
                let shutdown = service.handle_into(req, resp);
                (&*resp, shutdown)
            }
            Err(e) => {
                self.replies.other = Response::error(format!("bad frame: {e}"));
                (&self.replies.other, false)
            }
        };
        if !binproto::encode_response(resp, out) {
            // Unreachable for responses this service builds (a length
            // field would have to exceed u32); keep the stream framed
            // with a tiny error rather than dropping the reply.
            let fallback = Response::error("response exceeds binary frame limits");
            let _ = binproto::encode_response(&fallback, out);
        }
        shutdown
    }

    /// Parses one request line, handles it, and appends the encoded
    /// response line (with trailing newline) to `out`. Malformed input
    /// yields an `error` response, never a dropped connection. Returns
    /// the shutdown flag.
    pub fn handle_line_into(&mut self, service: &Service, line: &str, out: &mut String) -> bool {
        let (resp, shutdown) = match crate::codec::parse_line(line) {
            Ok(req) => {
                let resp = self.replies.slot(&req);
                let shutdown = service.handle_into(&req, resp);
                (&*resp, shutdown)
            }
            Err(message) => {
                self.replies.other = Response::error(message);
                (&self.replies.other, false)
            }
        };
        crate::codec::write_line(resp, out);
        shutdown
    }
}

/// An empty stand-in for the per-core replica map that event loops
/// once carried. It holds nothing: every request goes through the
/// shard path, and [`Service::handle_local`] is [`Service::handle`].
/// Kept so callers written against that API still build.
#[derive(Debug, Default)]
pub struct Affinity;

impl Affinity {
    /// The (empty) affinity.
    pub fn new() -> Self {
        Affinity
    }

    /// Machines replicated on this core: always 0.
    pub fn replicas(&self) -> usize {
        0
    }
}

/// The contention-prediction service: all daemon state minus transport.
/// Every handler takes `&self`; interior shard locks and atomic metrics
/// make one instance shareable across the server's event-loop threads.
#[derive(Debug)]
pub struct Service {
    pred: ParagonPredictor,
    cfg: ServiceConfig,
    shards: Vec<RwLock<Shard>>,
    metrics: Metrics,
    /// Precomputed dedicated-machine profile, the stale fallback.
    dedicated: SlowdownProfile,
    started: Instant,
}

impl Service {
    /// A service around a calibrated predictor.
    pub fn new(pred: ParagonPredictor, cfg: ServiceConfig) -> Self {
        let dedicated = pred.profile(&WorkloadMix::new());
        let shards = (0..cfg.shards.max(1)).map(|_| RwLock::new(Shard::default())).collect();
        Service { pred, cfg, shards, metrics: Metrics::new(), dedicated, started: Instant::now() }
    }

    /// A service around [`crate::default_predictor`].
    pub fn with_default_predictor(cfg: ServiceConfig) -> Self {
        Service::new(crate::default_predictor(), cfg)
    }

    /// Machines that have reported at least once.
    // modelcheck: read-path
    pub fn machine_count(&self) -> usize {
        self.shards.iter().map(|s| read_lock(s).machines.len()).sum()
    }

    /// The shard a machine's state lives in: stable FNV-1a 64 over the
    /// name, reduced mod the shard count.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the shard count is a small usize; the modulus fits it"
    )]
    fn shard_of(&self, machine: &str) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in machine.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % self.shards.len() as u64) as usize
    }

    /// Handles one request; the flag is true when the daemon should stop
    /// (after sending the response). [`Service::handle_into`] on a fresh
    /// reply.
    pub fn handle(&self, req: &Request) -> (Response, bool) {
        let mut resp = Response::Ok;
        let shutdown = self.handle_into(req, &mut resp);
        (resp, shutdown)
    }

    /// Handles one request and writes its response into `resp`, reusing
    /// the `String`/`Vec` capacity of the response already there when it
    /// is of the kind this request is answered with. Returns true when
    /// the daemon should stop (after sending the response).
    pub fn handle_into(&self, req: &Request, resp: &mut Response) -> bool {
        let started = Instant::now();
        self.metrics.count_request(match req {
            Request::LoadReport(_) => ReqKind::LoadReport,
            Request::Predict(_) => ReqKind::Predict,
            Request::DecideBatch(_) => ReqKind::DecideBatch,
            Request::Rank(_) => ReqKind::Rank,
            Request::Stats => ReqKind::Stats,
            Request::Shutdown => ReqKind::Shutdown,
        });
        match req {
            Request::LoadReport(r) => self.on_load_report(r, resp),
            Request::Predict(q) => self.on_predict(q, resp),
            Request::DecideBatch(q) => self.on_decide_batch(q, resp),
            Request::Rank(q) => *resp = self.on_rank(q),
            // The snapshot includes the stats request itself; its own
            // latency lands in the histogram afterwards.
            Request::Stats => *resp = Response::Stats(self.stats_snapshot()),
            Request::Shutdown => *resp = Response::Ok,
        }
        let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.metrics.record_latency_us(us);
        matches!(req, Request::Shutdown)
    }

    /// [`Service::handle`]; the [`Affinity`] is an empty stand-in.
    pub fn handle_local(&self, req: &Request, _aff: &mut Affinity) -> (Response, bool) {
        self.handle(req)
    }

    /// [`Slots::handle_frame_into`] on fresh slots, for callers that
    /// answer one frame at a time.
    pub fn handle_frame_into(&self, body: &[u8], out: &mut Vec<u8>) -> bool {
        Slots::new().handle_frame_into(self, body, out)
    }

    /// Parses one request line and encodes the response line (no
    /// trailing newline): [`Slots::handle_line_into`] on fresh slots,
    /// for tests and benchmarks.
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        let mut out = String::new();
        let shutdown = Slots::new().handle_line_into(self, line, &mut out);
        out.truncate(out.trim_end().len());
        (out, shutdown)
    }

    /// The `stats` snapshot: atomic counters plus a brief read lock per
    /// shard for the machine counts and write tallies.
    // modelcheck: read-path
    fn stats_snapshot(&self) -> crate::proto::StatsReply {
        let mut machines = 0usize;
        let mut shards = Vec::with_capacity(self.shards.len());
        for (i, shard) in self.shards.iter().enumerate() {
            let guard = read_lock(shard);
            machines += guard.machines.len();
            shards.push(ShardStats {
                shard: u64::try_from(i).unwrap_or(u64::MAX),
                machines: u64::try_from(guard.machines.len()).unwrap_or(u64::MAX),
                load_reports: guard.load_reports,
            });
        }
        self.metrics.snapshot(machines, self.started.elapsed().as_secs_f64(), shards)
    }

    fn on_load_report(&self, r: &LoadReport, resp: &mut Response) {
        let Some(at) = Seconds::try_new(r.at) else {
            *resp = Response::error("\"at\" must be finite and non-negative");
            return;
        };
        let frac = if r.comm_frac < 0.0 {
            None
        } else {
            let Some(p) = Prob::try_new(r.comm_frac) else {
                *resp = Response::error(
                    "\"comm_frac\" must be in [0, 1], or negative to leave it unchanged",
                );
                return;
            };
            Some(p)
        };
        let cfg = self.cfg.monitor;
        let (accepted, p) = {
            // modelcheck-allow: event-loop — load reports are the rare
            // control-plane write; the shard write lock is core-partitioned
            // and the critical section is a few map updates.
            let mut shard = write_lock(&self.shards[self.shard_of(&r.machine)]);
            shard.load_reports += 1;
            // A known machine's report allocates no key: look it up
            // first, and copy the name only on its first sighting.
            let state = match shard.machines.get_mut(&r.machine) {
                Some(state) => state,
                None => shard
                    .machines
                    .entry(r.machine.clone())
                    .or_insert_with(|| MachineState::new(cfg)),
            };
            // The mix is left for the next query to bring up to date, so
            // this allocates nothing.
            let accepted = state.monitor.report(at, r.load, frac);
            (accepted, state.monitor.forecast(at).p)
        };
        let empty = Ack { machine: String::new(), accepted: false, p: 0 };
        let ack = ::proto::reuse_slot!(resp, Response::Ack, empty);
        ack.machine.clone_from(&r.machine);
        ack.accepted = accepted;
        ack.p = u64::try_from(p).unwrap_or(u64::MAX);
    }

    /// Resolves machine + time to the profile a prediction should use
    /// and applies `f` to it while the shard lock is held, recording
    /// cache metrics. Unknown machines and stale forecasts get the
    /// precomputed dedicated profile, flagged stale.
    ///
    /// The fast path runs entirely under the shard's *read* lock: a
    /// fresh forecast whose shape matches the stored mix and whose
    /// cached profile is current needs no mutation at all. Only a shape
    /// change or cache miss upgrades to the write lock (dropping the
    /// read lock first; the slow path re-resolves from scratch, so an
    /// interleaved writer is harmless).
    fn with_profile<R>(
        &self,
        machine: &str,
        now: Seconds,
        f: impl FnOnce(&SlowdownProfile, Resolved) -> R,
    ) -> R {
        let shard = &self.shards[self.shard_of(machine)];
        {
            let guard = read_lock(shard);
            let Some(state) = guard.machines.get(machine) else {
                drop(guard);
                self.metrics.cache_hit();
                let meta = Resolved { p: 0, stale: true, forecaster: "dedicated", cache_hit: true };
                return f(&self.dedicated, meta);
            };
            let fc = state.monitor.forecast(now);
            if fc.stale {
                self.metrics.cache_hit();
                let meta =
                    Resolved { p: 0, stale: true, forecaster: fc.forecaster, cache_hit: true };
                return f(&self.dedicated, meta);
            }
            if let Some(profile) = state.current_profile(fc.p) {
                self.metrics.cache_hit();
                let meta = Resolved {
                    p: u64::try_from(fc.p).unwrap_or(u64::MAX),
                    stale: false,
                    forecaster: fc.forecaster,
                    cache_hit: true,
                };
                return f(profile, meta);
            }
        }
        // Slow path: the shape moved or the cache is cold. Re-resolve
        // under the write lock and fill the cache.
        // modelcheck-allow: event-loop — cold-cache slow path only; the
        // write lock covers one re-resolve + cache fill and the hot path
        // above never takes it.
        let mut guard = write_lock(shard);
        let shard_ref = &mut *guard;
        let Some(state) = shard_ref.machines.get_mut(machine) else {
            self.metrics.cache_hit();
            let meta = Resolved { p: 0, stale: true, forecaster: "dedicated", cache_hit: true };
            return f(&self.dedicated, meta);
        };
        self.resolve_state(state, now, f)
    }

    /// Resolves one mutable machine state (the shard write path) to the
    /// profile a prediction should use, recording cache metrics, and
    /// applies `f`.
    /// This is where the mix catches up with the reports since the last
    /// query: rebuilt once if their forecast shape differs from the
    /// stored one, untouched otherwise.
    fn resolve_state<R>(
        &self,
        state: &mut MachineState,
        now: Seconds,
        f: impl FnOnce(&SlowdownProfile, Resolved) -> R,
    ) -> R {
        let fc = state.monitor.forecast(now);
        if fc.stale {
            self.metrics.cache_hit();
            let meta = Resolved { p: 0, stale: true, forecaster: fc.forecaster, cache_hit: true };
            return f(&self.dedicated, meta);
        }
        let (mix, cache) = state.sync_shape(fc.p);
        let hit = cache.peek().is_some_and(|profile| profile.is_current(mix));
        if hit {
            self.metrics.cache_hit();
        } else {
            self.metrics.cache_miss();
        }
        let meta = Resolved {
            p: u64::try_from(fc.p).unwrap_or(u64::MAX),
            stale: false,
            forecaster: fc.forecaster,
            cache_hit: hit,
        };
        let profile = cache.profile_for(mix, &self.pred.comm_delays, &self.pred.comp_delays);
        f(profile, meta)
    }

    fn on_predict(&self, q: &Predict, resp: &mut Response) {
        let Some(now) = Seconds::try_new(q.now) else {
            *resp = Response::error("\"now\" must be finite and non-negative");
            return;
        };
        self.with_profile(&q.machine, now, |profile, r| {
            let decision = self.pred.decide_with(&q.task, profile, q.j_words);
            let empty = Prediction {
                machine: String::new(),
                p: 0,
                stale: false,
                forecaster: String::new(),
                cache_hit: false,
                decision,
            };
            let p = ::proto::reuse_slot!(resp, Response::Prediction, empty);
            p.machine.clone_from(&q.machine);
            p.p = r.p;
            p.stale = r.stale;
            p.forecaster.clear();
            p.forecaster.push_str(r.forecaster);
            p.cache_hit = r.cache_hit;
            p.decision = decision;
        });
    }

    fn on_decide_batch(&self, q: &DecideBatch, resp: &mut Response) {
        let Some(now) = Seconds::try_new(q.now) else {
            *resp = Response::error("\"now\" must be finite and non-negative");
            return;
        };
        self.with_profile(&q.machine, now, |profile, r| {
            let empty = Decisions {
                machine: String::new(),
                p: 0,
                stale: false,
                forecaster: String::new(),
                cache_hit: false,
                decisions: Vec::new(),
            };
            let d = ::proto::reuse_slot!(resp, Response::Decisions, empty);
            d.machine.clone_from(&q.machine);
            d.p = r.p;
            d.stale = r.stale;
            d.forecaster.clear();
            d.forecaster.push_str(r.forecaster);
            d.cache_hit = r.cache_hit;
            // One profile resolve, one batched fold: the whole batch
            // goes through the batched engine, never per-item dispatch.
            self.pred.decide_batch_into(&q.tasks, profile, q.j_words, &mut d.decisions);
        });
    }

    fn on_rank(&self, q: &Rank) -> Response {
        let now = match Seconds::try_new(q.now) {
            Some(s) => s,
            None => return Response::error("\"now\" must be finite and non-negative"),
        };
        if let Err(e) = q.workflow.try_validate() {
            return Response::error(format!("invalid workflow: {e}"));
        }
        if q.front_end >= q.workflow.machines() {
            return Response::error(format!(
                "front_end {} out of range for {} machines",
                q.front_end,
                q.workflow.machines()
            ));
        }
        let m = u64::try_from(q.workflow.machines()).unwrap_or(u64::MAX);
        let k = u32::try_from(q.workflow.len()).unwrap_or(u32::MAX);
        let cap = self.cfg.max_rank_schedules.min(MAX_RANK_SCHEDULES);
        let total = match m.checked_pow(k) {
            Some(t) if t <= cap => t,
            _ => {
                return Response::error(format!(
                    "rank space {m}^{k} exceeds the limit of {cap} schedules"
                ))
            }
        };
        // Only the environment is built under the shard lock; the walk
        // over all mᵏ schedules runs after the guard drops, so a rank
        // never holds up the shard's reports.
        let (env, r) = self.with_profile(&q.machine, now, |profile, r| {
            let machines = q.workflow.machines();
            (environment_from_profile(machines, q.front_end, profile, q.j_words), r)
        });
        let schedules = rank_top(&q.workflow, &env, q.limit);
        Response::Ranked(Ranked {
            machine: q.machine.clone(),
            p: r.p,
            stale: r.stale,
            total,
            schedules,
        })
    }
}

/// Read-locks a shard, recovering from poisoning: a worker that
/// panicked mid-request must not wedge every later request to the
/// shard, and the state it guards is always internally consistent
/// (single-field updates plus the cache's own epoch check).
fn read_lock(shard: &RwLock<Shard>) -> RwLockReadGuard<'_, Shard> {
    shard.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks a shard, recovering from poisoning (see [`read_lock`]).
fn write_lock(shard: &RwLock<Shard>) -> RwLockWriteGuard<'_, Shard> {
    shard.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use contention_model::dataset::DataSet;
    use contention_model::predict::ParagonTask;
    use contention_model::units::secs;

    fn task() -> ParagonTask {
        ParagonTask {
            dcomp_sun: secs(30.0),
            t_paragon: secs(6.0),
            to_backend: vec![DataSet::burst(10, 2000)],
            from_backend: vec![DataSet::single(1000)],
        }
    }

    fn svc() -> Service {
        Service::with_default_predictor(ServiceConfig::default())
    }

    fn report(machine: &str, at: f64, load: f64) -> Request {
        Request::LoadReport(LoadReport { machine: machine.to_string(), at, load, comm_frac: -1.0 })
    }

    fn predict_at(machine: &str, now: f64) -> Request {
        Request::Predict(Predict { machine: machine.to_string(), now, task: task(), j_words: 500 })
    }

    #[test]
    fn unknown_machine_degrades_to_stale_dedicated() {
        let s = svc();
        let (resp, stop) = s.handle(&predict_at("ghost", 0.0));
        assert!(!stop);
        let Response::Prediction(p) = resp else { panic!("want prediction, got {resp:?}") };
        assert!(p.stale);
        assert_eq!(p.p, 0);
        assert_eq!(p.forecaster, "dedicated");
        let direct = s.pred.decide(&task(), &WorkloadMix::new(), 500);
        assert_eq!(p.decision, direct, "stale answer must be the dedicated decision");
    }

    #[test]
    fn fresh_forecast_matches_direct_decide_and_hits_cache() {
        let s = svc();
        for t in 0..4 {
            let (resp, _) = s.handle(&report("m0", f64::from(t), 3.0));
            let Response::Ack(a) = resp else { panic!("want ack") };
            assert!(a.accepted);
        }
        let (first, _) = s.handle(&predict_at("m0", 3.0));
        let Response::Prediction(p1) = first else { panic!("want prediction") };
        assert!(!p1.stale);
        assert_eq!(p1.p, 3);
        assert!(!p1.cache_hit, "first predict computes the profile");
        let truth = WorkloadMix::from_probs(&[Prob::ZERO; 3]);
        let direct = s.pred.decide(&task(), &truth, 500);
        assert_eq!(p1.decision, direct, "forecast-fed decision must be bit-identical");

        let (second, _) = s.handle(&predict_at("m0", 3.5));
        let Response::Prediction(p2) = second else { panic!("want prediction") };
        assert!(p2.cache_hit, "same shape, same epoch: cache must hit");
        assert_eq!(p2.decision, direct);
    }

    #[test]
    fn staleness_policy_fires_and_recovers() {
        let s = svc();
        s.handle(&report("m0", 0.0, 2.0));
        s.handle(&report("m0", 1.0, 2.0));
        let (resp, _) = s.handle(&predict_at("m0", 500.0));
        let Response::Prediction(p) = resp else { panic!("want prediction") };
        assert!(p.stale, "far-future query must trip the horizon");
        assert_eq!(p.p, 0);
        // A new report brings the machine back.
        s.handle(&report("m0", 500.0, 2.0));
        let (resp, _) = s.handle(&predict_at("m0", 500.5));
        let Response::Prediction(p) = resp else { panic!("want prediction") };
        assert!(!p.stale);
        assert_eq!(p.p, 2);
    }

    #[test]
    fn batch_agrees_with_single_predictions() {
        let s = svc();
        for t in 0..3 {
            s.handle(&report("m0", f64::from(t), 1.0));
        }
        let (single, _) = s.handle(&predict_at("m0", 2.0));
        let Response::Prediction(p) = single else { panic!("want prediction") };
        let (batch, _) = s.handle(&Request::DecideBatch(DecideBatch {
            machine: "m0".to_string(),
            now: 2.0,
            tasks: vec![task(), task()],
            j_words: 500,
        }));
        let Response::Decisions(d) = batch else { panic!("want decisions") };
        assert_eq!(d.decisions.len(), 2);
        assert_eq!(d.decisions[0], p.decision);
        assert_eq!(d.decisions[1], p.decision);
        assert!(d.cache_hit);
    }

    #[test]
    fn rank_guards_and_ranks() {
        let s = svc();
        let wf = hetsched::example::workflow();
        let (resp, _) = s.handle(&Request::Rank(Rank {
            machine: "m0".to_string(),
            now: 0.0,
            workflow: wf.clone(),
            front_end: 0,
            j_words: 500,
            limit: 0,
        }));
        let Response::Ranked(r) = resp else { panic!("want ranked, got {resp:?}") };
        assert!(r.stale, "no reports yet");
        assert_eq!(r.total, 4);
        assert_eq!(r.schedules.len(), 4);
        let direct = hetsched::eval::rank_all(&wf, &hetsched::task::Environment::dedicated(2));
        assert_eq!(r.schedules, direct);

        // A limit keeps the first schedules of the full answer, exactly.
        let (resp, _) = s.handle(&Request::Rank(Rank {
            machine: "m0".to_string(),
            now: 0.0,
            workflow: wf.clone(),
            front_end: 0,
            j_words: 500,
            limit: 3,
        }));
        let Response::Ranked(top) = resp else { panic!("want ranked, got {resp:?}") };
        assert_eq!(top.total, r.total);
        assert_eq!(top.schedules, r.schedules[..3]);

        // front_end out of range is rejected, not a panic.
        let (resp, _) = s.handle(&Request::Rank(Rank {
            machine: "m0".to_string(),
            now: 0.0,
            workflow: wf.clone(),
            front_end: 7,
            j_words: 500,
            limit: 0,
        }));
        assert_eq!(resp.kind(), "error");

        // Oversized rank spaces are rejected.
        let mut tight = s;
        tight.cfg.max_rank_schedules = 3;
        let (resp, _) = tight.handle(&Request::Rank(Rank {
            machine: "m0".to_string(),
            now: 0.0,
            workflow: wf,
            front_end: 0,
            j_words: 500,
            limit: 0,
        }));
        assert_eq!(resp.kind(), "error");
    }

    /// A configured limit above the ranking's own cap acts as that cap:
    /// 2¹⁷ = 131,072 schedules are refused with an `error` reply, not
    /// handed to a ranking that panics on them.
    #[test]
    fn rank_above_the_ranking_cap_is_an_error_at_any_configured_limit() {
        use hetsched::task::{Matrix, Task, Workflow};
        let mut s = svc();
        s.cfg.max_rank_schedules = 200_000;
        let edge = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let mut tasks: Vec<Task> = (0..16)
            .map(|i| Task::with_edge(format!("t{i}"), vec![1.0, 2.0], edge.clone()))
            .collect();
        tasks.push(Task::terminal("t16", vec![1.0, 2.0]));
        let chain = Workflow::new(tasks);
        let (resp, _) = s.handle(&Request::Rank(Rank {
            machine: "m0".to_string(),
            now: 0.0,
            workflow: chain,
            front_end: 0,
            j_words: 500,
            limit: 5,
        }));
        let Response::Error(e) = resp else { panic!("want error, got {resp:?}") };
        assert!(e.message.contains("2^17 exceeds the limit of 100000"), "{}", e.message);
    }

    #[test]
    fn stats_count_requests_and_cache() {
        let s = svc();
        s.handle(&report("m0", 0.0, 1.0));
        s.handle(&report("m0", 1.0, 1.0));
        s.handle(&predict_at("m0", 1.0));
        s.handle(&predict_at("m0", 1.2));
        let (resp, stop) = s.handle(&Request::Stats);
        assert!(!stop);
        let Response::Stats(st) = resp else { panic!("want stats") };
        assert_eq!(st.requests.load_report, 2);
        assert_eq!(st.requests.predict, 2);
        assert_eq!(st.requests.stats, 1);
        assert_eq!(st.machines, 1);
        assert_eq!(st.cache.hits + st.cache.misses, 2);
        assert!(st.cache.hits >= 1, "second predict must hit");
        assert_eq!(st.latency_us.count, 4, "stats' own latency lands after the snapshot");
        assert!(st.uptime_secs >= 0.0);
        assert_eq!(st.shards.len(), ServiceConfig::default().shards);
        let by_shard: u64 = st.shards.iter().map(|sh| sh.machines).sum();
        assert_eq!(by_shard, st.machines, "shard breakdown must sum to the machine count");
        let reports: u64 = st.shards.iter().map(|sh| sh.load_reports).sum();
        assert_eq!(reports, 2);
    }

    #[test]
    fn single_shard_service_works() {
        let s = Service::with_default_predictor(ServiceConfig {
            shards: 1,
            ..ServiceConfig::default()
        });
        for m in ["a", "b", "c"] {
            s.handle(&report(m, 0.0, 2.0));
        }
        assert_eq!(s.machine_count(), 3);
        let (resp, _) = s.handle(&Request::Stats);
        let Response::Stats(st) = resp else { panic!("want stats") };
        assert_eq!(st.shards.len(), 1);
        assert_eq!(st.shards[0].machines, 3);
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        let s = svc();
        for name in ["m0", "m1", "a-very-long-machine-name", ""] {
            let first = s.shard_of(name);
            assert!(first < ServiceConfig::default().shards);
            assert_eq!(first, s.shard_of(name), "routing must be deterministic");
        }
    }

    /// The mix epoch of `machine` on the shard, if a query has built one.
    fn shard_epoch(s: &Service, machine: &str) -> Option<u64> {
        let shard = read_lock(&s.shards[s.shard_of(machine)]);
        shard.machines.get(machine)?.mix.as_ref().map(|(_, mix)| mix.epoch())
    }

    #[test]
    fn unchanged_shape_keeps_the_mix_and_every_query_hits() {
        let s = svc();
        for t in 0..4 {
            s.handle(&report("m0", f64::from(t), 3.0));
        }
        // The first query builds the mix and fills the cache; from then
        // on the shape never changes.
        s.handle(&predict_at("m0", 3.0));
        let before = shard_epoch(&s, "m0");
        assert!(before.is_some(), "the shard holds a mix");
        for i in 0..1000 {
            let now = 3.0 + f64::from(i) * 1e-3;
            let (resp, _) = s.handle(&predict_at("m0", now));
            let Response::Prediction(p) = resp else { panic!("want prediction") };
            assert!(p.cache_hit, "query {i} missed the cache");
            assert_eq!(p.p, 3);
        }
        assert_eq!(shard_epoch(&s, "m0"), before, "mix rebuilt on an unchanged shape");
    }

    #[test]
    fn reports_leave_the_mix_to_the_next_query() {
        let s = svc();
        for t in 0..3 {
            s.handle(&report("m0", f64::from(t), 2.0));
        }
        s.handle(&predict_at("m0", 2.0));
        let before = shard_epoch(&s, "m0");
        // Shape-changing reports: no mix is built.
        let loads = [5.0, 5.0, 5.0, 7.0, 7.0, 7.0];
        for (t, &load) in (3..).zip(&loads) {
            let (resp, _) = s.handle(&report("m0", f64::from(t), load));
            let Response::Ack(a) = resp else { panic!("want ack") };
            assert!(a.accepted);
        }
        assert_eq!(shard_epoch(&s, "m0"), before, "a report rebuilt the mix");

        // The next query rebuilds the mix exactly once, and answers like
        // a fresh service fed the same reports.
        let fresh = svc();
        for (t, load) in (0..3).map(|t| (t, 2.0)).chain((3..).zip(loads)) {
            fresh.handle(&report("m0", f64::from(t), load));
        }
        let (want, _) = fresh.handle(&predict_at("m0", 8.5));
        let Response::Prediction(want) = want else { panic!("want prediction") };
        assert_eq!(want.p, 7);
        let (got, _) = s.handle(&predict_at("m0", 8.5));
        let after = shard_epoch(&s, "m0");
        assert_ne!(after, before, "the query must rebuild the mix");
        let Response::Prediction(got) = got else { panic!("want prediction") };
        assert_eq!(got.decision, want.decision, "answer differs from a fresh service");
        assert_eq!((got.p, got.stale, &got.forecaster), (want.p, want.stale, &want.forecaster));
        assert!(!got.cache_hit, "a rebuilt mix starts with a cold cache");
        for i in 0..10 {
            s.handle(&predict_at("m0", 8.5 + f64::from(i) * 1e-2));
        }
        assert_eq!(shard_epoch(&s, "m0"), after, "rebuilt more than once");
    }

    #[test]
    fn a_shape_that_returns_between_queries_still_hits() {
        let s = svc();
        for t in 0..3 {
            s.handle(&report("m0", f64::from(t), 3.0));
        }
        s.handle(&predict_at("m0", 2.0));
        let before = shard_epoch(&s, "m0");
        // p goes 3 -> 9 -> 3 with no query in between.
        s.handle(&report("m0", 3.0, 9.0));
        s.handle(&report("m0", 4.0, 3.0));
        let (resp, _) = s.handle(&predict_at("m0", 4.0));
        let Response::Prediction(p) = resp else { panic!("want prediction") };
        assert_eq!(p.p, 3);
        assert!(p.cache_hit, "the stored mix still answers the returned shape");
        assert_eq!(shard_epoch(&s, "m0"), before);
    }

    #[test]
    fn a_rejected_report_leaves_the_forecast_alone() {
        let s = svc();
        s.handle(&report("m0", 5.0, 2.0));
        // Time regression: rejected, nothing moves.
        let (resp, _) = s.handle(&report("m0", 4.0, 7.0));
        let Response::Ack(a) = resp else { panic!("want ack") };
        assert!(!a.accepted);
        assert_eq!(a.p, 2, "the ack carries the unchanged forecast");
        s.handle(&report("m0", 6.0, 2.0));
        let (resp, _) = s.handle(&predict_at("m0", 6.1));
        let Response::Prediction(p) = resp else { panic!("want prediction") };
        assert_eq!(p.p, 2);
        assert!(!p.stale);
    }

    #[test]
    fn the_affinity_stand_in_holds_nothing_and_handles_like_handle() {
        let (plain, shimmed) = (svc(), svc());
        let mut aff = Affinity::new();
        let batch = Request::DecideBatch(DecideBatch {
            machine: "m0".to_string(),
            now: 3.5,
            tasks: vec![task(), task()],
            j_words: 500,
        });
        let requests = (0..4).map(|t| report("m0", f64::from(t), 3.0)).chain([
            predict_at("m0", 3.0),
            predict_at("m0", 3.2),
            batch,
        ]);
        for req in requests {
            assert_eq!(shimmed.handle_local(&req, &mut aff), plain.handle(&req), "{req:?}");
        }
        assert_eq!(aff.replicas(), 0);
    }

    #[test]
    fn handle_frame_round_trips_the_binary_codec() {
        let s = svc();
        let mut frame = Vec::new();
        assert!(crate::binproto::encode_request(&report("m0", 0.0, 2.0), &mut frame));
        let mut out = Vec::new();
        assert!(!s.handle_frame_into(&frame[4..], &mut out));
        let resp = crate::binproto::decode_response(&out[4..]).expect("ack frame");
        let Response::Ack(a) = resp else { panic!("want ack, got {resp:?}") };
        assert!(a.accepted);
        assert_eq!(a.machine, "m0");

        // Garbage bodies come back as framed errors, not hangups.
        out.clear();
        assert!(!s.handle_frame_into(&[0x7f, 1, 2, 3], &mut out));
        let resp = crate::binproto::decode_response(&out[4..]).expect("error frame");
        assert_eq!(resp.kind(), "error");

        // Shutdown still flags the caller.
        frame.clear();
        assert!(crate::binproto::encode_request(&Request::Shutdown, &mut frame));
        out.clear();
        assert!(s.handle_frame_into(&frame[4..], &mut out));
    }

    #[test]
    fn shutdown_flags_the_caller() {
        let s = svc();
        let (resp, stop) = s.handle(&Request::Shutdown);
        assert_eq!(resp, Response::Ok);
        assert!(stop);
    }

    #[test]
    fn handle_line_rejects_garbage_gracefully() {
        let s = svc();
        for bad in [
            "not json",
            "{}",
            "{\"kind\":\"predict\"}",
            "{\"kind\":\"nope\"}",
            "{\"kind\":\"load_report\",\"machine\":\"m\",\"at\":\"later\",\"load\":1,\"comm_frac\":-1}",
        ] {
            let (reply, stop) = s.handle_line(bad);
            assert!(!stop);
            assert!(reply.contains("\"kind\":\"error\""), "{bad} -> {reply}");
        }
        // Invalid numeric domains are rejected by the handler, not a panic.
        let (reply, _) = s.handle_line(
            "{\"kind\":\"load_report\",\"machine\":\"m\",\"at\":-3.0,\"load\":1.0,\"comm_frac\":-1.0}",
        );
        assert!(reply.contains("\"kind\":\"error\""));
        let (reply, _) = s.handle_line(
            "{\"kind\":\"load_report\",\"machine\":\"m\",\"at\":0.0,\"load\":1.0,\"comm_frac\":2.0}",
        );
        assert!(reply.contains("\"kind\":\"error\""));
    }

    #[test]
    fn handle_line_into_reuses_the_buffer() {
        let s = svc();
        let mut slots = Slots::new();
        let mut out = String::new();
        assert!(!slots.handle_line_into(&s, "{\"kind\":\"stats\"}", &mut out));
        assert!(out.ends_with('\n'));
        let first_len = out.len();
        assert!(!slots.handle_line_into(&s, "{\"kind\":\"stats\"}", &mut out));
        assert!(out.len() > first_len, "responses append, caller decides when to drain");
        assert_eq!(out.matches('\n').count(), 2);
    }
}
