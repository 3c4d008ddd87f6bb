//! The wire protocol: newline-delimited JSON, one request or response
//! per line.
//!
//! Every message is a flat JSON object tagged by a `"kind"` field
//! (snake_case). Requests: `load_report`, `predict`, `decide_batch`,
//! `rank`, `stats`, `shutdown`. Responses: `ack`, `prediction`,
//! `decisions`, `ranked`, `stats`, `gw_stats`, `ok`, `error`. Payload
//! fields sit next to the tag, so a predict request reads
//! `{"kind":"predict","machine":"m0","now":12.0,...}`.
//!
//! All payload fields are required (the vendored serde rejects missing
//! fields); where a field is semantically optional a sentinel is
//! documented on the struct. Unknown request kinds, missing fields, and
//! type mismatches all surface as [`serde::Error`]s, which the service
//! turns into `error` responses without dropping the connection.

use contention_model::predict::{ParagonTask, PlacementDecision};
use hetsched::eval::Schedule;
use hetsched::task::Workflow;
use serde::{Deserialize, Serialize, Value};

/// A load observation for one machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadReport {
    /// Machine the sample belongs to.
    pub machine: String,
    /// Sample timestamp, seconds (monotone per machine; must be ≥ 0).
    pub at: f64,
    /// Observed load average (number of competing processes, ≥ 0).
    pub load: f64,
    /// Observed communication fraction of the contenders in `[0, 1]`;
    /// pass any negative value to leave the current estimate unchanged.
    pub comm_frac: f64,
}

/// A single placement query against the forecast contention state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Predict {
    /// Machine whose forecast to use.
    pub machine: String,
    /// Query time, seconds — staleness is judged against this.
    pub now: f64,
    /// The task to place.
    pub task: ParagonTask,
    /// Contender message size in words (the model's `j` parameter).
    pub j_words: u64,
}

/// A batch of placement queries sharing one forecast/profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecideBatch {
    /// Machine whose forecast to use.
    pub machine: String,
    /// Query time, seconds.
    pub now: f64,
    /// The tasks to place.
    pub tasks: Vec<ParagonTask>,
    /// Contender message size in words.
    pub j_words: u64,
}

/// Rank every schedule of a workflow under the forecast contention.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rank {
    /// Machine whose forecast slows the front-end.
    pub machine: String,
    /// Query time, seconds.
    pub now: f64,
    /// The workflow to schedule (validated server-side).
    pub workflow: Workflow,
    /// Index of the contended front-end machine in the workflow.
    pub front_end: usize,
    /// Contender message size in words.
    pub j_words: u64,
    /// Maximum schedules to return (best first); `0` means all.
    pub limit: usize,
}

/// A request, tagged by `"kind"`.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `load_report` — feed a load sample into the forecaster.
    LoadReport(LoadReport),
    /// `predict` — one placement decision.
    Predict(Predict),
    /// `decide_batch` — many placement decisions, one profile.
    DecideBatch(DecideBatch),
    /// `rank` — rank workflow schedules under the forecast.
    Rank(Rank),
    /// `stats` — service metrics snapshot.
    Stats,
    /// `shutdown` — stop the daemon after replying `ok`.
    Shutdown,
}

impl Request {
    /// The wire tag of this request.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::LoadReport(_) => "load_report",
            Request::Predict(_) => "predict",
            Request::DecideBatch(_) => "decide_batch",
            Request::Rank(_) => "rank",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
        }
    }
}

/// Reply to `load_report`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ack {
    /// Machine the sample was filed under.
    pub machine: String,
    /// Whether the sample was accepted (false: invalid or time-regressing).
    pub accepted: bool,
    /// Contenders the machine's forecast currently predicts.
    pub p: u64,
}

/// Reply to `predict`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// Machine the forecast came from.
    pub machine: String,
    /// Forecast contender count behind the decision.
    pub p: u64,
    /// True when the forecast was stale (no fresh samples) and the
    /// dedicated-machine profile was used instead.
    pub stale: bool,
    /// Name of the forecaster that produced the winning forecast.
    pub forecaster: String,
    /// True when the slowdown profile came from cache (no recompute).
    pub cache_hit: bool,
    /// The placement decision.
    pub decision: PlacementDecision,
}

/// Reply to `decide_batch`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Decisions {
    /// Machine the forecast came from.
    pub machine: String,
    /// Forecast contender count behind the decisions.
    pub p: u64,
    /// True when the dedicated fallback profile was used.
    pub stale: bool,
    /// Name of the winning forecaster.
    pub forecaster: String,
    /// True when the slowdown profile came from cache.
    pub cache_hit: bool,
    /// One decision per task, in request order.
    pub decisions: Vec<PlacementDecision>,
}

/// Reply to `rank`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ranked {
    /// Machine the forecast came from.
    pub machine: String,
    /// Forecast contender count behind the ranking.
    pub p: u64,
    /// True when the dedicated fallback profile was used.
    pub stale: bool,
    /// Total schedules evaluated (before `limit` truncation).
    pub total: u64,
    /// Best-first schedules, truncated to the request's `limit`.
    pub schedules: Vec<Schedule>,
}

/// Per-kind request counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestCounts {
    /// `load_report` requests served.
    pub load_report: u64,
    /// `predict` requests served.
    pub predict: u64,
    /// `decide_batch` requests served.
    pub decide_batch: u64,
    /// `rank` requests served.
    pub rank: u64,
    /// `stats` requests served (including the one being answered).
    pub stats: u64,
    /// `shutdown` requests served.
    pub shutdown: u64,
}

impl RequestCounts {
    /// Sum over all kinds.
    pub fn total(&self) -> u64 {
        self.load_report + self.predict + self.decide_batch + self.rank + self.stats + self.shutdown
    }
}

/// Profile-cache effectiveness.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Requests answered from a current cached profile.
    pub hits: u64,
    /// Requests that recomputed the profile.
    pub misses: u64,
    /// `hits / (hits + misses)`, `0` when nothing was counted.
    pub hit_rate: f64,
}

/// Request-latency summary from a fixed-bucket histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Requests measured.
    pub count: u64,
    /// Median latency upper bound, microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency upper bound, microseconds.
    pub p99_us: u64,
    /// Largest observed latency, microseconds.
    pub max_us: u64,
}

/// Per-shard state breakdown inside a `stats` reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardStats {
    /// Shard index (machine names route here by stable hash).
    pub shard: u64,
    /// Machines whose state lives in this shard.
    pub machines: u64,
    /// `load_report` writes this shard has absorbed.
    pub load_reports: u64,
}

/// Reply to `stats`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsReply {
    /// Per-kind request counts.
    pub requests: RequestCounts,
    /// Profile-cache hit rate.
    pub cache: CacheStats,
    /// Request-latency summary.
    pub latency_us: LatencySummary,
    /// Machines currently tracked.
    pub machines: u64,
    /// Seconds since the service came up.
    pub uptime_secs: f64,
    /// Per-shard breakdown, one entry per shard in index order.
    pub shards: Vec<ShardStats>,
}

/// Per-backend slice of a gateway `gw_stats` reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackendStats {
    /// Backend address as configured at the gateway (`host:port`).
    pub addr: String,
    /// True when the backend is currently passing health probes.
    pub healthy: bool,
    /// Requests the gateway has routed to this backend.
    pub requests: u64,
    /// Requests that failed over *away* from this backend mid-flight.
    pub failovers: u64,
    /// Journal frames replayed into this backend at warm-starts.
    pub replayed: u64,
}

/// Reply to `stats` when the answering daemon is a federation gateway
/// (`predictgw`) rather than a predictd backend.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GwStatsReply {
    /// Per-backend request counts, in configured ring order.
    pub backends: Vec<BackendStats>,
    /// Requests dispatched to their ring owner on the first try.
    pub hits: u64,
    /// Requests dispatched to a ring successor because the owner was
    /// already marked unhealthy.
    pub misses: u64,
    /// Requests re-sent to a ring successor after an in-flight failure.
    pub failovers: u64,
    /// Load-report frames currently in the journal.
    pub journal_frames: u64,
    /// Bytes currently in the journal (length prefixes included).
    pub journal_bytes: u64,
    /// Seconds since the gateway came up.
    pub uptime_secs: f64,
}

/// Error reply (bad request; the connection stays open).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorReply {
    /// Human-readable description of what was rejected.
    pub message: String,
}

/// A response, tagged by `"kind"`.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `ack` — load sample filed.
    Ack(Ack),
    /// `prediction` — one placement decision.
    Prediction(Prediction),
    /// `decisions` — batch placement decisions.
    Decisions(Decisions),
    /// `ranked` — schedules under forecast contention.
    Ranked(Ranked),
    /// `stats` — metrics snapshot.
    Stats(StatsReply),
    /// `gw_stats` — gateway metrics snapshot (per-backend counts).
    GwStats(GwStatsReply),
    /// `ok` — acknowledged with no payload (shutdown).
    Ok,
    /// `error` — request rejected.
    Error(ErrorReply),
}

impl Response {
    /// The wire tag of this response.
    pub fn kind(&self) -> &'static str {
        match self {
            Response::Ack(_) => "ack",
            Response::Prediction(_) => "prediction",
            Response::Decisions(_) => "decisions",
            Response::Ranked(_) => "ranked",
            Response::Stats(_) => "stats",
            Response::GwStats(_) => "gw_stats",
            Response::Ok => "ok",
            Response::Error(_) => "error",
        }
    }

    /// Builds an `error` response from any displayable message.
    pub fn error(message: impl std::fmt::Display) -> Self {
        Response::Error(ErrorReply { message: message.to_string() })
    }
}

/// The payload of variant `$variant` held in the enum slot `$slot` (a
/// `&mut Request` or `&mut Response`), for a caller that reuses one
/// value's `String`/`Vec` capacity from message to message. A slot that
/// holds another variant is first replaced by `$variant($empty)`.
#[macro_export]
macro_rules! reuse_slot {
    ($slot:expr, $variant:path, $empty:expr) => {{
        let slot = $slot;
        if !matches!(slot, $variant(_)) {
            *slot = $variant($empty);
        }
        match slot {
            $variant(payload) => payload,
            _ => unreachable!("the slot was just set to this variant"),
        }
    }};
}

/// Splices `payload` (a map) into a map that leads with the kind tag.
fn tagged(kind: &str, payload: Value) -> Value {
    let mut entries = vec![("kind".to_string(), Value::Str(kind.to_string()))];
    if let Value::Map(fields) = payload {
        entries.extend(fields);
    }
    Value::Map(entries)
}

/// Reads the `"kind"` tag of an incoming message.
fn kind_of(v: &Value) -> Result<&str, serde::Error> {
    match v.get("kind") {
        Some(Value::Str(s)) => Ok(s.as_str()),
        Some(other) => {
            Err(serde::Error::msg(format!("\"kind\" must be a string, got {}", other.kind())))
        }
        None => Err(serde::Error::msg("missing \"kind\" field")),
    }
}

impl Serialize for Request {
    fn to_value(&self) -> Value {
        match self {
            Request::LoadReport(p) => tagged("load_report", p.to_value()),
            Request::Predict(p) => tagged("predict", p.to_value()),
            Request::DecideBatch(p) => tagged("decide_batch", p.to_value()),
            Request::Rank(p) => tagged("rank", p.to_value()),
            Request::Stats => tagged("stats", Value::Map(Vec::new())),
            Request::Shutdown => tagged("shutdown", Value::Map(Vec::new())),
        }
    }
}

impl Deserialize for Request {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        match kind_of(v)? {
            "load_report" => Ok(Request::LoadReport(LoadReport::from_value(v)?)),
            "predict" => Ok(Request::Predict(Predict::from_value(v)?)),
            "decide_batch" => Ok(Request::DecideBatch(DecideBatch::from_value(v)?)),
            "rank" => Ok(Request::Rank(Rank::from_value(v)?)),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(serde::Error::msg(format!("unknown request kind {other:?}"))),
        }
    }
}

impl Serialize for Response {
    fn to_value(&self) -> Value {
        match self {
            Response::Ack(p) => tagged("ack", p.to_value()),
            Response::Prediction(p) => tagged("prediction", p.to_value()),
            Response::Decisions(p) => tagged("decisions", p.to_value()),
            Response::Ranked(p) => tagged("ranked", p.to_value()),
            Response::Stats(p) => tagged("stats", p.to_value()),
            Response::GwStats(p) => tagged("gw_stats", p.to_value()),
            Response::Ok => tagged("ok", Value::Map(Vec::new())),
            Response::Error(p) => tagged("error", p.to_value()),
        }
    }
}

impl Deserialize for Response {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        match kind_of(v)? {
            "ack" => Ok(Response::Ack(Ack::from_value(v)?)),
            "prediction" => Ok(Response::Prediction(Prediction::from_value(v)?)),
            "decisions" => Ok(Response::Decisions(Decisions::from_value(v)?)),
            "ranked" => Ok(Response::Ranked(Ranked::from_value(v)?)),
            "stats" => Ok(Response::Stats(StatsReply::from_value(v)?)),
            "gw_stats" => Ok(Response::GwStats(GwStatsReply::from_value(v)?)),
            "ok" => Ok(Response::Ok),
            "error" => Ok(Response::Error(ErrorReply::from_value(v)?)),
            other => Err(serde::Error::msg(format!("unknown response kind {other:?}"))),
        }
    }
}
