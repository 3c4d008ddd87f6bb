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
//! by the first query whose forecast shape differs from the stored one
//! — on the shard's write-lock slow path or on a core-local replica.
//! The read-lock fast path declines a mismatched shape, so it never
//! needs to mutate. The mix is a pure function of the shape, so answers
//! are the same bits as building it afresh per query; a shape that
//! moves and comes back between two queries keeps its mix, its epoch
//! and its cached profile.
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
//! changed or the cache went stale. Metrics are relaxed atomics (see
//! [`Metrics`]), so `stats` never takes a shard lock beyond a brief
//! read per shard for the machine counts.
//!
//! Stale forecasts (see the staleness policy in `loadcast`) never touch
//! the per-machine cache: they are answered from one precomputed
//! dedicated-machine profile, so a machine flapping between fresh and
//! stale does not thrash its cache.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use contention_model::mix::WorkloadMix;
use contention_model::predict::ParagonPredictor;
use contention_model::profile::{ProfileCache, SlowdownProfile};
use contention_model::units::{Prob, Seconds};
use hetsched::forecast::rank_all_forecast;
use loadcast::{LoadMonitor, MonitorConfig};

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
    /// larger workflows are rejected instead of evaluated.
    pub max_rank_schedules: u64,
    /// Number of machine-state shards (clamped to at least 1). More
    /// shards means less lock contention between machines; results are
    /// bit-identical for any shard count because a machine's state
    /// never leaves its shard.
    pub shards: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { monitor: MonitorConfig::default(), max_rank_schedules: 100_000, shards: 8 }
    }
}

/// Forecasting and caching state for one reported machine.
///
/// `Clone` duplicates everything *except* the report counter, which is
/// shared: a clone is a replica of the same machine, and the shared
/// [`MachineState::version`] is how a core-local replica later proves
/// it has seen every accepted report (see [`Affinity`]).
#[derive(Debug, Clone)]
struct MachineState {
    monitor: LoadMonitor,
    /// The mix the cache is keyed on; replaced only when a query finds
    /// the forecast shape changed, so its epoch is stable across
    /// same-shape queries and across reports.
    mix: WorkloadMix,
    /// Shape of `mix`: `(p, frac.to_bits())`.
    shape: Option<(usize, u64)>,
    cache: ProfileCache,
    /// Count of *accepted* load reports, bumped under the shard write
    /// lock. Shared (not duplicated) across clones.
    version: Arc<AtomicU64>,
}

impl MachineState {
    fn new(cfg: MonitorConfig) -> Self {
        MachineState {
            monitor: LoadMonitor::new(cfg),
            mix: WorkloadMix::new(),
            shape: None,
            cache: ProfileCache::new(),
            version: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Applies one *validated* report the same way on every copy of the
    /// state. Deterministic: two states with equal history fed the same
    /// report stay bit-identical. The mix is left for the next query to
    /// bring up to date. Returns (accepted, forecast contender count as
    /// of `at`, 0 when stale); allocates nothing.
    fn apply_report(&mut self, at: Seconds, load: f64, frac: Option<Prob>) -> (bool, usize) {
        let accepted = self.monitor.report(at, load, frac);
        (accepted, self.monitor.contenders_at(at).unwrap_or(0))
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
    /// unchanged query.
    fn sync_shape(&mut self, p: usize) {
        let key = self.shape_of(p);
        if self.shape != Some(key) {
            self.mix = WorkloadMix::from_probs(&vec![self.monitor.frac(); p]);
            self.shape = Some(key);
        }
    }

    /// The cached profile, if it answers a fresh forecast of `p`
    /// contenders as it stands: same shape, and current for the mix.
    fn current_profile(&self, p: usize) -> Option<&SlowdownProfile> {
        if self.shape != Some(self.shape_of(p)) {
            return None;
        }
        self.cache.peek().filter(|profile| profile.is_current(&self.mix))
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
    forecaster: String,
    cache_hit: bool,
}

/// Upper bound on replicas one core keeps, so a fleet of hostile
/// machine names cannot multiply shard state by the core count.
const MAX_REPLICAS: usize = 4096;

/// One core's replica of a machine: a full [`MachineState`] clone plus
/// the shared report counter value it has caught up to.
#[derive(Debug)]
struct Replica {
    state: MachineState,
    /// Value of `state.version` this replica reflects. Equal to the
    /// shared counter ⇔ no other core has accepted a report since.
    seen: u64,
}

/// Core-local shard affinity: replicas of the machines whose reporters
/// this core serves, so warm `predict`/`decide_batch` run with **no
/// lock at all** — not even a read lock.
///
/// The sharded service stays the ground truth: every `load_report` is
/// applied to its shard first (under the write lock, bumping the
/// machine's shared report counter), and only then mirrored into the
/// reporting core's replica. A query is answered locally only when the
/// replica's `seen` equals the shared counter; if another core accepted
/// a report in between, the replica is dropped and the query falls back
/// to the sharded-`RwLock` path (it is rebuilt by the machine's next
/// local report). Forecasts are deterministic, so a caught-up replica
/// answers bit-identically to the shard — only the `cache_hit` metadata
/// may differ, because each core warms its own profile cache.
///
/// One `Affinity` belongs to one event-loop thread and is deliberately
/// not `Sync`-shared; cross-shard requests (`rank`, `stats`) always use
/// the shared path.
#[derive(Debug, Default)]
pub struct Affinity {
    machines: HashMap<String, Replica>,
}

impl Affinity {
    /// An empty affinity map (no replicas yet).
    pub fn new() -> Self {
        Affinity::default()
    }

    /// How many machines this core currently holds replicas of.
    pub fn replicas(&self) -> usize {
        self.machines.len()
    }

    /// Mirrors one just-applied report into this core's replica. Must
    /// be called while the shard write lock on `state` is still held,
    /// so `prev`/the new counter value cannot race another reporter.
    #[allow(clippy::too_many_arguments)]
    fn absorb(
        &mut self,
        machine: &str,
        state: &MachineState,
        prev: u64,
        accepted: bool,
        at: Seconds,
        load: f64,
        frac: Option<Prob>,
    ) {
        let current = state.version.load(Ordering::Acquire);
        match self.machines.get_mut(machine) {
            // Caught up before this report: replay it locally (the
            // deterministic update keeps the replica bit-identical).
            Some(rep) if rep.seen == prev => {
                if accepted {
                    rep.state.apply_report(at, load, frac);
                }
                rep.seen = current;
            }
            // Diverged (another core reported meanwhile) or first
            // sighting: re-clone the ground truth.
            _ => {
                if self.machines.len() < MAX_REPLICAS || self.machines.contains_key(machine) {
                    self.machines.insert(
                        machine.to_string(),
                        Replica { state: state.clone(), seen: current },
                    );
                }
            }
        }
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
    /// (after sending the response).
    pub fn handle(&self, req: &Request) -> (Response, bool) {
        self.handle_with(req, None)
    }

    /// Handles one request with a core-local [`Affinity`]: warm
    /// `predict`/`decide_batch` against a caught-up replica touch no
    /// shard lock; everything else behaves exactly like
    /// [`Service::handle`]. Answers are bit-identical either way (see
    /// [`Affinity`]).
    pub fn handle_local(&self, req: &Request, aff: &mut Affinity) -> (Response, bool) {
        self.handle_with(req, Some(aff))
    }

    fn handle_with(&self, req: &Request, aff: Option<&mut Affinity>) -> (Response, bool) {
        let started = Instant::now();
        self.metrics.count_request(match req {
            Request::LoadReport(_) => ReqKind::LoadReport,
            Request::Predict(_) => ReqKind::Predict,
            Request::DecideBatch(_) => ReqKind::DecideBatch,
            Request::Rank(_) => ReqKind::Rank,
            Request::Stats => ReqKind::Stats,
            Request::Shutdown => ReqKind::Shutdown,
        });
        let (resp, shutdown) = match req {
            Request::LoadReport(r) => (self.on_load_report(r, aff), false),
            Request::Predict(q) => (self.on_predict(q, aff), false),
            Request::DecideBatch(q) => (self.on_decide_batch(q, aff), false),
            Request::Rank(q) => (self.on_rank(q), false),
            // The snapshot includes the stats request itself; its own
            // latency lands in the histogram afterwards.
            Request::Stats => (Response::Stats(self.stats_snapshot()), false),
            Request::Shutdown => (Response::Ok, true),
        };
        let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.metrics.record_latency_us(us);
        (resp, shutdown)
    }

    /// Parses one request line and appends the encoded response line
    /// (with trailing newline) to `out`, reusing the caller's buffer —
    /// the stdio transport's path. Malformed input yields an `error`
    /// response, never a dropped connection. Returns the shutdown flag.
    pub fn handle_line_into(&self, line: &str, out: &mut String) -> bool {
        self.handle_line_opt(line, out, None)
    }

    /// [`Service::handle_line_into`] with a core-local [`Affinity`] —
    /// the TCP server's JSON hot path.
    pub fn handle_line_local(&self, line: &str, out: &mut String, aff: &mut Affinity) -> bool {
        self.handle_line_opt(line, out, Some(aff))
    }

    fn handle_line_opt(&self, line: &str, out: &mut String, aff: Option<&mut Affinity>) -> bool {
        // The specialized codec takes the hot request kinds without a
        // Value tree; anything it declines goes through the generic
        // parser, which owns acceptance and error wording.
        let (resp, shutdown) = match crate::codec::parse_request(line) {
            Some(req) => self.handle_with(&req, aff),
            None => match serde_json::from_str::<Request>(line) {
                Ok(req) => self.handle_with(&req, aff),
                Err(e) => (Response::error(format!("bad request: {e}")), false),
            },
        };
        if !crate::codec::write_response(&resp, out) {
            serde_json::to_string_into(&resp, out);
        }
        out.push('\n');
        shutdown
    }

    /// Decodes one binary frame body (tag + payload, length prefix
    /// already stripped), handles the request, and appends the complete
    /// response frame to `out`, reusing the caller's buffer.
    /// Malformed frames yield an `error` response frame, never a
    /// dropped connection. Returns the shutdown flag.
    pub fn handle_frame_into(&self, body: &[u8], out: &mut Vec<u8>) -> bool {
        self.handle_frame_opt(body, out, None)
    }

    /// [`Service::handle_frame_into`] with a core-local [`Affinity`] —
    /// the TCP server's binary hot path.
    pub fn handle_frame_local(&self, body: &[u8], out: &mut Vec<u8>, aff: &mut Affinity) -> bool {
        self.handle_frame_opt(body, out, Some(aff))
    }

    fn handle_frame_opt(&self, body: &[u8], out: &mut Vec<u8>, aff: Option<&mut Affinity>) -> bool {
        let (resp, shutdown) = match crate::binproto::decode_request(body) {
            Ok(req) => self.handle_with(&req, aff),
            Err(e) => (Response::error(format!("bad frame: {e}")), false),
        };
        if !crate::binproto::encode_response(&resp, out) {
            // Unreachable for responses this service builds (a length
            // field would have to exceed u32); keep the stream framed
            // with a tiny error rather than dropping the reply.
            let fallback = Response::error("response exceeds binary frame limits");
            let _ = crate::binproto::encode_response(&fallback, out);
        }
        shutdown
    }

    /// Parses one request line and encodes the response line (no
    /// trailing newline). Allocating convenience wrapper around
    /// [`Service::handle_line_into`] for stdio and tests.
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        let mut out = String::new();
        let shutdown = self.handle_line_into(line, &mut out);
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

    fn on_load_report(&self, r: &LoadReport, aff: Option<&mut Affinity>) -> Response {
        let at = match Seconds::try_new(r.at) {
            Some(s) => s,
            None => return Response::error("\"at\" must be finite and non-negative"),
        };
        let frac = if r.comm_frac < 0.0 {
            None
        } else {
            match Prob::try_new(r.comm_frac) {
                Some(p) => Some(p),
                None => {
                    return Response::error(
                        "\"comm_frac\" must be in [0, 1], or negative to leave it unchanged",
                    )
                }
            }
        };
        let cfg = self.cfg.monitor;
        // modelcheck-allow: event-loop — load reports are the rare
        // control-plane write; the shard write lock is core-partitioned
        // and the critical section is a few map updates.
        let mut shard = write_lock(&self.shards[self.shard_of(&r.machine)]);
        shard.load_reports += 1;
        // A known machine's report allocates no key: look it up first,
        // and copy the name only on its first sighting.
        if let Some(state) = shard.machines.get_mut(&r.machine) {
            return self.apply_to_shard(state, r, at, frac, aff);
        }
        let state =
            shard.machines.entry(r.machine.clone()).or_insert_with(|| MachineState::new(cfg));
        self.apply_to_shard(state, r, at, frac, aff)
    }

    /// Applies a validated report to its machine's shard state (the
    /// shard write lock held by the caller) and answers its `Ack`.
    fn apply_to_shard(
        &self,
        state: &mut MachineState,
        r: &LoadReport,
        at: Seconds,
        frac: Option<Prob>,
        aff: Option<&mut Affinity>,
    ) -> Response {
        // The shard is the ground truth: apply there first, bump the
        // shared report counter, and only then mirror into this core's
        // replica — all under the write lock, so replicas can trust
        // `seen == counter` to mean "caught up".
        let prev = state.version.load(Ordering::Acquire);
        let (accepted, p) = state.apply_report(at, r.load, frac);
        if accepted {
            state.version.fetch_add(1, Ordering::Release);
        }
        if let Some(aff) = aff {
            aff.absorb(&r.machine, state, prev, accepted, at, r.load, frac);
        }
        Response::Ack(Ack {
            machine: r.machine.clone(),
            accepted,
            p: u64::try_from(p).unwrap_or(u64::MAX),
        })
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
                let meta = Resolved {
                    p: 0,
                    stale: true,
                    forecaster: "dedicated".to_string(),
                    cache_hit: true,
                };
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
            let meta = Resolved {
                p: 0,
                stale: true,
                forecaster: "dedicated".to_string(),
                cache_hit: true,
            };
            return f(&self.dedicated, meta);
        };
        self.resolve_state(state, now, f)
    }

    /// Resolves one mutable machine state (the shard write path, or a
    /// core-local replica that needs no lock at all) to the profile a
    /// prediction should use, recording cache metrics, and applies `f`.
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
        state.sync_shape(fc.p);
        let hit = state.current_profile(fc.p).is_some();
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
        let profile =
            state.cache.profile_for(&state.mix, &self.pred.comm_delays, &self.pred.comp_delays);
        f(profile, meta)
    }

    /// Attempts the lock-free core-local path: serve from this core's
    /// replica if it exists and has seen every accepted report. A
    /// diverged replica is dropped (rebuilt by the machine's next local
    /// report) and the caller falls back to the sharded path.
    fn local_profile<R>(
        &self,
        aff: &mut Affinity,
        machine: &str,
        now: Seconds,
        f: impl FnOnce(&SlowdownProfile, Resolved) -> R,
    ) -> Option<R> {
        let rep = aff.machines.get_mut(machine)?;
        if rep.seen != rep.state.version.load(Ordering::Acquire) {
            aff.machines.remove(machine);
            return None;
        }
        Some(self.resolve_state(&mut rep.state, now, f))
    }

    fn on_predict(&self, q: &Predict, aff: Option<&mut Affinity>) -> Response {
        let now = match Seconds::try_new(q.now) {
            Some(s) => s,
            None => return Response::error("\"now\" must be finite and non-negative"),
        };
        let build = |profile: &SlowdownProfile, r: Resolved| {
            let decision = self.pred.decide_with(&q.task, profile, q.j_words);
            Response::Prediction(Prediction {
                machine: q.machine.clone(),
                p: r.p,
                stale: r.stale,
                forecaster: r.forecaster,
                cache_hit: r.cache_hit,
                decision,
            })
        };
        if let Some(aff) = aff {
            if let Some(resp) = self.local_profile(aff, &q.machine, now, build) {
                return resp;
            }
        }
        self.with_profile(&q.machine, now, build)
    }

    fn on_decide_batch(&self, q: &DecideBatch, aff: Option<&mut Affinity>) -> Response {
        let now = match Seconds::try_new(q.now) {
            Some(s) => s,
            None => return Response::error("\"now\" must be finite and non-negative"),
        };
        let build = |profile: &SlowdownProfile, r: Resolved| {
            // One profile resolve, one batched fold: the whole batch
            // goes through the batched engine, never per-item dispatch.
            let decisions = self.pred.decide_batch(&q.tasks, profile, q.j_words);
            Response::Decisions(Decisions {
                machine: q.machine.clone(),
                p: r.p,
                stale: r.stale,
                forecaster: r.forecaster,
                cache_hit: r.cache_hit,
                decisions,
            })
        };
        if let Some(aff) = aff {
            if let Some(resp) = self.local_profile(aff, &q.machine, now, build) {
                return resp;
            }
        }
        self.with_profile(&q.machine, now, build)
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
        let total = match m.checked_pow(k) {
            Some(t) if t <= self.cfg.max_rank_schedules => t,
            _ => {
                return Response::error(format!(
                    "rank space {m}^{k} exceeds the limit of {} schedules",
                    self.cfg.max_rank_schedules
                ))
            }
        };
        self.with_profile(&q.machine, now, |profile, r| {
            let mut schedules = rank_all_forecast(&q.workflow, q.front_end, profile, q.j_words);
            if q.limit > 0 {
                schedules.truncate(q.limit);
            }
            Response::Ranked(Ranked {
                machine: q.machine.clone(),
                p: r.p,
                stale: r.stale,
                total,
                schedules,
            })
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

    #[test]
    fn affinity_replica_answers_bit_identically_without_locks() {
        let shared = svc();
        let local = svc();
        let mut aff = Affinity::new();
        for t in 0..4 {
            shared.handle(&report("m0", f64::from(t), 3.0));
            local.handle_local(&report("m0", f64::from(t), 3.0), &mut aff);
        }
        assert_eq!(aff.replicas(), 1, "reporting core must hold the replica");
        let (want, _) = shared.handle(&predict_at("m0", 3.0));
        let (got, _) = local.handle_local(&predict_at("m0", 3.0), &mut aff);
        let Response::Prediction(want) = want else { panic!("want prediction") };
        let Response::Prediction(got) = got else { panic!("want prediction") };
        assert_eq!(got.decision, want.decision, "replica answer must be bit-identical");
        assert_eq!((got.p, got.stale, &got.forecaster), (want.p, want.stale, &want.forecaster));
        assert_eq!(aff.replicas(), 1, "a caught-up replica survives the query");

        // Batch through the replica matches too.
        let batch = Request::DecideBatch(DecideBatch {
            machine: "m0".to_string(),
            now: 3.5,
            tasks: vec![task(), task()],
            j_words: 500,
        });
        let (want, _) = shared.handle(&batch);
        let (got, _) = local.handle_local(&batch, &mut aff);
        let Response::Decisions(want) = want else { panic!("want decisions") };
        let Response::Decisions(got) = got else { panic!("want decisions") };
        assert_eq!(got.decisions, want.decisions);
    }

    /// The mix epoch of `machine` on the shard, if it has reported.
    fn shard_epoch(s: &Service, machine: &str) -> Option<u64> {
        read_lock(&s.shards[s.shard_of(machine)]).machines.get(machine).map(|m| m.mix.epoch())
    }

    /// The mix epoch of this core's replica of `machine`, if it has one.
    fn replica_epoch(aff: &Affinity, machine: &str) -> Option<u64> {
        aff.machines.get(machine).map(|r| r.state.mix.epoch())
    }

    #[test]
    fn unchanged_shape_keeps_the_mix_and_every_query_hits() {
        let s = svc();
        let mut aff = Affinity::new();
        for t in 0..4 {
            s.handle_local(&report("m0", f64::from(t), 3.0), &mut aff);
        }
        // The first query on each path builds that path's mix and fills
        // its cache; from then on the shape never changes.
        s.handle(&predict_at("m0", 3.0));
        s.handle_local(&predict_at("m0", 3.0), &mut aff);
        let (shard_before, replica_before) = (shard_epoch(&s, "m0"), replica_epoch(&aff, "m0"));
        assert!(shard_before.is_some() && replica_before.is_some(), "both paths hold a mix");
        for i in 0..1000 {
            let now = 3.0 + f64::from(i) * 1e-3;
            let (shard, _) = s.handle(&predict_at("m0", now));
            let (local, _) = s.handle_local(&predict_at("m0", now), &mut aff);
            for (path, resp) in [("shard", shard), ("replica", local)] {
                let Response::Prediction(p) = resp else { panic!("want prediction") };
                assert!(p.cache_hit, "{path} query {i} missed the cache");
                assert_eq!(p.p, 3);
            }
        }
        assert_eq!(shard_epoch(&s, "m0"), shard_before, "shard mix rebuilt on an unchanged shape");
        assert_eq!(
            replica_epoch(&aff, "m0"),
            replica_before,
            "replica mix rebuilt on an unchanged shape"
        );
        assert_eq!(aff.replicas(), 1);
    }

    #[test]
    fn reports_leave_the_mix_to_the_next_query() {
        let s = svc();
        let mut aff = Affinity::new();
        for t in 0..3 {
            s.handle_local(&report("m0", f64::from(t), 2.0), &mut aff);
        }
        s.handle(&predict_at("m0", 2.0));
        s.handle_local(&predict_at("m0", 2.0), &mut aff);
        let (shard_before, replica_before) = (shard_epoch(&s, "m0"), replica_epoch(&aff, "m0"));
        // Shape-changing reports, on both paths: no mix is built.
        let loads = [5.0, 5.0, 5.0, 7.0, 7.0, 7.0];
        for (t, &load) in (3..).zip(&loads) {
            let (resp, _) = s.handle_local(&report("m0", f64::from(t), load), &mut aff);
            let Response::Ack(a) = resp else { panic!("want ack") };
            assert!(a.accepted);
        }
        assert_eq!(shard_epoch(&s, "m0"), shard_before, "a report rebuilt the shard mix");
        assert_eq!(replica_epoch(&aff, "m0"), replica_before, "a report rebuilt the replica mix");

        // The next query on each path rebuilds its mix exactly once, and
        // answers like a fresh service fed the same reports.
        let fresh = svc();
        for (t, load) in (0..3).map(|t| (t, 2.0)).chain((3..).zip(loads)) {
            fresh.handle(&report("m0", f64::from(t), load));
        }
        let (want, _) = fresh.handle(&predict_at("m0", 8.5));
        let Response::Prediction(want) = want else { panic!("want prediction") };
        assert_eq!(want.p, 7);
        let (shard, _) = s.handle(&predict_at("m0", 8.5));
        let (local, _) = s.handle_local(&predict_at("m0", 8.5), &mut aff);
        let (shard_after, replica_after) = (shard_epoch(&s, "m0"), replica_epoch(&aff, "m0"));
        assert_ne!(shard_after, shard_before, "the query must rebuild the shard mix");
        assert_ne!(replica_after, replica_before, "the query must rebuild the replica mix");
        for (path, resp) in [("shard", shard), ("replica", local)] {
            let Response::Prediction(got) = resp else { panic!("want prediction") };
            assert_eq!(got.decision, want.decision, "{path} answer differs from a fresh service");
            assert_eq!((got.p, got.stale, &got.forecaster), (want.p, want.stale, &want.forecaster));
            assert!(!got.cache_hit, "{path}: a rebuilt mix starts with a cold cache");
        }
        for i in 0..10 {
            let now = 8.5 + f64::from(i) * 1e-2;
            s.handle(&predict_at("m0", now));
            s.handle_local(&predict_at("m0", now), &mut aff);
        }
        assert_eq!(shard_epoch(&s, "m0"), shard_after, "rebuilt more than once");
        assert_eq!(replica_epoch(&aff, "m0"), replica_after, "rebuilt more than once");
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
    fn diverged_replica_falls_back_to_the_shard_and_stays_correct() {
        let s = svc();
        let mut aff = Affinity::new();
        for t in 0..3 {
            s.handle_local(&report("m0", f64::from(t), 3.0), &mut aff);
        }
        assert_eq!(aff.replicas(), 1);
        // Another core (no affinity) accepts a report: the shared
        // counter moves past what the replica has seen.
        s.handle(&report("m0", 3.0, 9.0));
        let (resp, _) = s.handle_local(&predict_at("m0", 3.2), &mut aff);
        let Response::Prediction(p) = resp else { panic!("want prediction") };
        assert_eq!(p.p, 9, "fallback must see the report the replica missed");
        assert_eq!(aff.replicas(), 0, "diverged replica must be dropped");
        // The machine's next local report rebuilds the replica from the
        // ground truth, including the missed history.
        s.handle_local(&report("m0", 4.0, 9.0), &mut aff);
        assert_eq!(aff.replicas(), 1);
        let (resp, _) = s.handle_local(&predict_at("m0", 4.1), &mut aff);
        let Response::Prediction(p) = resp else { panic!("want prediction") };
        assert_eq!(p.p, 9);
    }

    #[test]
    fn rejected_reports_do_not_desync_replicas() {
        let s = svc();
        let mut aff = Affinity::new();
        s.handle_local(&report("m0", 5.0, 2.0), &mut aff);
        // Time regression: rejected everywhere, version unmoved.
        let (resp, _) = s.handle_local(&report("m0", 4.0, 7.0), &mut aff);
        let Response::Ack(a) = resp else { panic!("want ack") };
        assert!(!a.accepted);
        s.handle_local(&report("m0", 6.0, 2.0), &mut aff);
        let (resp, _) = s.handle_local(&predict_at("m0", 6.1), &mut aff);
        let Response::Prediction(p) = resp else { panic!("want prediction") };
        assert_eq!(p.p, 2);
        assert!(!p.stale);
        assert_eq!(aff.replicas(), 1, "rejected report must not drop the replica");
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
        let mut out = String::new();
        assert!(!s.handle_line_into("{\"kind\":\"stats\"}", &mut out));
        assert!(out.ends_with('\n'));
        let first_len = out.len();
        assert!(!s.handle_line_into("{\"kind\":\"stats\"}", &mut out));
        assert!(out.len() > first_len, "responses append, caller decides when to drain");
        assert_eq!(out.matches('\n').count(), 2);
    }
}
