//! The traced run's per-layer numbers, timed from outside the layers.
//!
//! The daemons carry no stage timers, so the traced run replays the
//! workload's own seeded stream in-process through each layer's public
//! functions and records a span around every call:
//!
//! * `proto.decode` / `proto.encode` — `binproto`, or the JSON fast path
//!   (`codec::parse_request` / `write_response`); where the fast path
//!   declines a request, the child `proto.serde_fallback` times the
//!   serde_json parse that takes over;
//! * `predictd.handle.<kind>` — [`Service::handle_local`] with an
//!   [`Affinity`], as the evented engine calls it;
//! * its children, from a shadow of the service's per-machine state fed the
//!   same requests: `loadcast.report` / `loadcast.forecast`
//!   ([`LoadMonitor::report`] / [`LoadMonitor::mix_forecast`]),
//!   `core.profile_hit` / `core.profile_miss` ([`ProfileCache::profile_for`]),
//!   `core.decide` / `core.decide_batch`, and `hetsched.rank`
//!   ([`rank_all_forecast`]);
//! * on the gateway workloads, `predictgw.handle.<kind>`
//!   ([`Gateway::handle`] against freshly started backends) with children
//!   from a shadow composition of the gateway's own parts against a second
//!   pair of backends: `predictgw.ring` ([`Ring::preference`]),
//!   `predictgw.backend_rtt` ([`BackendConn::request`]), and
//!   `predictgw.journal_append` / `predictgw.journal_fsync`
//!   ([`Journal::append_report`] / `sync`).
//!
//! Child spans are measured on the shadows, beside their parent rather
//! than inside it, so a layer's self time — its span minus its children —
//! is a difference of two measurements of the same request. The replays
//! send nothing the workload does not: a layer the workload never reaches
//! gets no spans.
//!
//! The gateway shadow repeats the gateway's routing (owner first, and the
//! `decide_batch` split across backends). [`replay_gateway`] holds its
//! per-backend call counts to the gateway's own counters, so a change to
//! the routing fails the traced run instead of skewing the children.
//!
//! [`Ring::preference`]: predictgw::Ring::preference

use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use contention_model::mix::WorkloadMix;
use contention_model::predict::ParagonPredictor;
use contention_model::profile::{ProfileCache, SlowdownProfile};
use contention_model::units::{Prob, Seconds};
use hetsched::forecast::rank_all_forecast;
use loadcast::{LoadMonitor, MixForecast, MonitorConfig};
use predictd::{Affinity, Service, ServiceConfig};
use predictgw::backend::BackendConn;
use predictgw::{Gateway, GatewayConfig, Journal};
use proto::proto::{DecideBatch, GwStatsReply};
use proto::{binproto, codec, Request, Response};

use crate::gen::{ClientSpan, Codec, Generator, Kind, Mode, Record, Source};
use crate::topology::{Bins, Daemon, Placement};
use crate::workload::{Preload, Stream, Workload, CONNS};

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Request the call served.
    pub id: u64,
    /// Layer and call, e.g. `loadcast.forecast`.
    pub name: &'static str,
    /// The span this one is a child of, if any.
    pub parent: Option<&'static str>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration, nanoseconds, clock overhead removed.
    pub dur_ns: u64,
}

/// Collects spans in memory.
pub struct Tracer {
    epoch: Instant,
    /// Cost of reading the clock twice, subtracted from every span.
    overhead_ns: u64,
    /// Every span recorded, in order.
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer with its clock overhead calibrated.
    pub fn new() -> Tracer {
        let mut samples: Vec<u64> = (0..1001)
            .map(|_| {
                let t = Instant::now();
                u64::try_from(t.elapsed().as_nanos()).unwrap_or(0)
            })
            .collect();
        samples.sort_unstable();
        Tracer { epoch: Instant::now(), overhead_ns: samples[samples.len() / 2], spans: Vec::new() }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let r = f();
        self.record(id, name, parent, start);
        r
    }

    /// Records a span from `start` to now.
    pub fn record(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start: Instant,
    ) {
        let dur = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let start_ns = u64::try_from(start.duration_since(self.epoch).as_nanos()).unwrap_or(0);
        self.spans.push(Span {
            id,
            name,
            parent,
            start_ns,
            dur_ns: dur.saturating_sub(self.overhead_ns),
        });
    }

    /// Total nanoseconds and count per span name.
    pub fn sums(&self) -> Sums {
        self.sums_below(u64::MAX)
    }

    /// [`Tracer::sums`] over the spans of requests with ids below `id`.
    pub fn sums_below(&self, id: u64) -> Sums {
        let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        let mut by_parent: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.id < id) {
            let e = by_name.entry(s.name).or_default();
            e.0 += s.dur_ns;
            e.1 += 1;
            if let Some(p) = s.parent {
                *by_parent.entry(p).or_default() += s.dur_ns;
            }
        }
        Sums { by_name, by_parent }
    }
}

/// Span totals.
#[derive(Debug, Default)]
pub struct Sums {
    by_name: BTreeMap<&'static str, (u64, u64)>,
    by_parent: BTreeMap<&'static str, u64>,
}

impl Sums {
    /// Total nanoseconds in spans called `name`.
    pub fn total(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |e| e.0)
    }

    /// Spans called `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |e| e.1)
    }

    /// Mean nanoseconds of spans called `name`; 0 when there are none.
    pub fn mean(&self, name: &str) -> f64 {
        crate::stats::mean(self.total(name) as f64, self.count(name))
    }

    /// Total nanoseconds of the children of spans called `parent`.
    pub fn children(&self, parent: &str) -> u64 {
        self.by_parent.get(parent).copied().unwrap_or(0)
    }
}

/// The span name of a service handle call for `kind`.
pub fn handle_span(kind: Kind) -> &'static str {
    match kind {
        Kind::LoadReport => "predictd.handle.load_report",
        Kind::Predict => "predictd.handle.predict",
        Kind::DecideBatch => "predictd.handle.decide_batch",
        Kind::Rank => "predictd.handle.rank",
    }
}

/// The span name of a gateway handle call for `kind`.
pub fn gateway_span(kind: Kind) -> &'static str {
    match kind {
        Kind::LoadReport => "predictgw.handle.load_report",
        Kind::Predict => "predictgw.handle.predict",
        Kind::DecideBatch => "predictgw.handle.decide_batch",
        Kind::Rank => "predictgw.handle.rank",
    }
}

/// Hands every set-up report of the stream to `f`, one at a time, leaving
/// the stream positioned at its main traffic.
fn for_each_preload(stream: &mut Stream, mut f: impl FnMut(&[u8])) {
    let mut out = Vec::new();
    for c in 0..CONNS {
        while stream.preload_next(c, &mut out).is_some() {
            f(&out);
            out.clear();
        }
    }
}

/// One machine's forecasting and caching state, kept the way the service
/// keeps it.
struct ShadowMachine {
    monitor: LoadMonitor,
    mix: WorkloadMix,
    shape: Option<(usize, u64)>,
    cache: ProfileCache,
}

impl ShadowMachine {
    fn sync_mix(&mut self, mf: &MixForecast) {
        let key = (mf.forecast.p, mf.frac.get().to_bits());
        if self.shape != Some(key) {
            self.mix = mf.mix.clone();
            self.shape = Some(key);
        }
    }
}

/// The model layers under the service, fed the requests the service sees.
struct Shadow {
    pred: ParagonPredictor,
    dedicated: SlowdownProfile,
    machines: HashMap<String, ShadowMachine>,
}

impl Shadow {
    fn new() -> Shadow {
        let pred = predictd::default_predictor();
        let dedicated = pred.profile(&WorkloadMix::new());
        Shadow { pred, dedicated, machines: HashMap::new() }
    }

    /// Applies `req`, recording its model-layer spans under `parent`
    /// (`None` applies it untimed).
    fn apply(&mut self, req: &Request, t: &mut Tracer, id: u64, parent: Option<&'static str>) {
        let span = |t: &mut Tracer, name: &'static str, f: &mut dyn FnMut()| match parent {
            Some(_) => t.span(id, name, parent, f),
            None => f(),
        };
        let Shadow { pred, dedicated, machines } = self;
        let (machine, now) = match req {
            Request::LoadReport(r) => {
                let (Some(at), frac) = (Seconds::try_new(r.at), Prob::try_new(r.comm_frac)) else {
                    return;
                };
                let frac = if r.comm_frac < 0.0 { None } else { frac };
                let m = machines.entry(r.machine.clone()).or_insert_with(|| ShadowMachine {
                    monitor: LoadMonitor::new(MonitorConfig::default()),
                    mix: WorkloadMix::new(),
                    shape: None,
                    cache: ProfileCache::new(),
                });
                span(t, "loadcast.report", &mut || {
                    m.monitor.report(at, r.load, frac);
                });
                let mut mf = None;
                span(t, "loadcast.forecast", &mut || mf = Some(m.monitor.mix_forecast(at)));
                if let Some(mf) = mf.filter(|mf| !mf.forecast.stale) {
                    m.sync_mix(&mf);
                }
                return;
            }
            Request::Predict(q) => (&q.machine, q.now),
            Request::DecideBatch(q) => (&q.machine, q.now),
            Request::Rank(q) => (&q.machine, q.now),
            Request::Stats | Request::Shutdown => return,
        };
        let Some(now) = Seconds::try_new(now) else { return };
        let mut profile: &SlowdownProfile = dedicated;
        if let Some(m) = machines.get_mut(machine) {
            let mut mf = None;
            span(t, "loadcast.forecast", &mut || mf = Some(m.monitor.mix_forecast(now)));
            if let Some(mf) = mf.filter(|mf| !mf.forecast.stale) {
                m.sync_mix(&mf);
                let hit = m.cache.peek().is_some_and(|p| p.is_current(&m.mix));
                let name = if hit { "core.profile_hit" } else { "core.profile_miss" };
                span(t, name, &mut || {
                    m.cache.profile_for(&m.mix, &pred.comm_delays, &pred.comp_delays);
                });
                if let Some(p) = m.cache.peek() {
                    profile = p;
                }
            }
        }
        match req {
            Request::Predict(q) => span(t, "core.decide", &mut || {
                std::hint::black_box(pred.decide_with(&q.task, profile, q.j_words));
            }),
            Request::DecideBatch(q) => span(t, "core.decide_batch", &mut || {
                std::hint::black_box(pred.decide_batch(&q.tasks, profile, q.j_words));
            }),
            Request::Rank(q) => span(t, "hetsched.rank", &mut || {
                let mut ranked = rank_all_forecast(&q.workflow, q.front_end, profile, q.j_words);
                if q.limit > 0 {
                    ranked.truncate(q.limit);
                }
                std::hint::black_box(ranked);
            }),
            _ => {}
        }
    }
}

/// Decodes one rendered request as the server would, timing the decode;
/// for JSON, the serde fallback where the fast path declines is a child
/// span.
fn decode(codec: Codec, bytes: &[u8], t: &mut Tracer, id: u64, fast: &mut u64) -> Option<Request> {
    let start = Instant::now();
    let req = match codec {
        Codec::Binary => binproto::decode_request(&bytes[4..]).ok(),
        Codec::Json => {
            let line = std::str::from_utf8(bytes).ok()?.trim_end();
            match codec::parse_request(line) {
                Some(req) => {
                    *fast += 1;
                    Some(req)
                }
                None => t.span(id, "proto.serde_fallback", Some("proto.decode"), || {
                    serde_json::from_str(line).ok()
                }),
            }
        }
    };
    t.record(id, "proto.decode", None, start);
    req
}

/// The next `requests` requests of `stream` (positioned after its set-up
/// reports), rendered, round-robin over the connections.
fn next_requests(stream: &mut Stream, requests: u64) -> Vec<(Kind, Vec<u8>)> {
    let mut out = Vec::with_capacity(requests as usize);
    for i in 0..requests {
        let mut bytes = Vec::new();
        let Some(kind) = stream.next((i % CONNS as u64) as usize, &mut bytes) else { break };
        out.push((kind, bytes));
    }
    out
}

/// Encodes one response as the server would, timing it.
fn encode(
    codec: Codec,
    resp: &Response,
    t: &mut Tracer,
    id: u64,
    bin: &mut Vec<u8>,
    text: &mut String,
) {
    t.span(id, "proto.encode", None, || match codec {
        Codec::Binary => {
            bin.clear();
            binproto::encode_response(resp, bin);
        }
        Codec::Json => {
            text.clear();
            if !codec::write_response(resp, text) {
                serde_json::to_string_into(resp, text);
            }
            text.push('\n');
        }
    });
}

/// What the service replay saw besides its spans.
#[derive(Debug, Default)]
pub struct ServiceReplay {
    /// Requests of the workload's stream replayed after set-up.
    pub requests: u64,
    /// Requests the JSON fast path parsed.
    pub json_fast: u64,
    /// Tasks in every replayed `decide_batch` request.
    pub batch_tasks: u64,
    /// Machines the core-local affinity holds replicas of, at the end.
    pub replicas: usize,
    /// Machines the service tracks, at the end.
    pub machines: usize,
}

/// Replays `requests` requests of `w`'s stream (after its set-up reports)
/// through an in-process service and the model layers.
pub fn replay_service(w: &Workload, seed: u64, requests: u64, t: &mut Tracer) -> ServiceReplay {
    let svc = Service::with_default_predictor(ServiceConfig::default());
    let mut aff = Affinity::new();
    let mut shadow = Shadow::new();
    let mut stream = Stream::new(w, seed);
    let mut untimed = Tracer { epoch: t.epoch, overhead_ns: 0, spans: Vec::new() };
    let mut fast = 0;
    for_each_preload(&mut stream, |bytes| {
        if let Some(req) = decode(w.codec, bytes, &mut untimed, 0, &mut fast) {
            svc.handle_local(&req, &mut aff);
            shadow.apply(&req, &mut untimed, 0, None);
        }
        untimed.spans.clear();
    });
    let mut out = ServiceReplay { requests, ..ServiceReplay::default() };
    // The service as the evented engine runs it.
    let (mut bin, mut text) = (Vec::new(), String::new());
    let mut replayed = Vec::new();
    for (id, (kind, bytes)) in (0..).zip(next_requests(&mut stream, requests)) {
        let Some(req) = decode(w.codec, &bytes, t, id, &mut out.json_fast) else { continue };
        let (resp, _) = t.span(id, handle_span(kind), None, || svc.handle_local(&req, &mut aff));
        encode(w.codec, &resp, t, id, &mut bin, &mut text);
        if let Request::DecideBatch(q) = &req {
            out.batch_tasks += q.tasks.len() as u64;
        }
        replayed.push((id, kind, req));
    }
    // The model layers under it, on the shadow, in the same order. A pass
    // of its own keeps the shadow's work out of the service's caches.
    for (id, kind, req) in &replayed {
        shadow.apply(req, t, *id, Some(handle_span(*kind)));
    }
    out.replicas = aff.replicas();
    out.machines = svc.machine_count();
    out
}

/// What the gateway replay saw besides its spans.
#[derive(Debug)]
pub struct GatewayReplay {
    /// Requests that failed: error replies from the gateway or a shadow
    /// backend call that failed.
    pub errors: u64,
    /// The in-process gateway's counters at the end.
    pub stats: GwStatsReply,
    /// Bytes the shadow journal grew by per report appended.
    pub journal_bytes_per_report: f64,
}

/// Replays `requests` requests of gateway workload `w`'s stream through an
/// in-process [`Gateway`] in front of two fresh backends, and through a
/// shadow of the gateway's parts in front of two more. Backends get the
/// set-up reports directly; `work` holds the journals.
pub fn replay_gateway(
    w: &Workload,
    seed: u64,
    requests: u64,
    bins: &Bins,
    place: Placement,
    work: &Path,
    t: &mut Tracer,
) -> Result<GatewayReplay, String> {
    let mut backends = place
        .start_daemons(|| (0..4).map(|_| Daemon::predictd(bins)).collect::<Result<Vec<_>, _>>())?;
    let result = replay_gateway_on(w, seed, requests, &backends, work, t);
    for b in &mut backends {
        b.stop()?;
    }
    result
}

fn replay_gateway_on(
    w: &Workload,
    seed: u64,
    requests: u64,
    backends: &[Daemon],
    work: &Path,
    t: &mut Tracer,
) -> Result<GatewayReplay, String> {
    // The gateway and its backends speak binary whatever the workload's
    // codec; the codec's cost is the service replay's to time.
    let w = &Workload { codec: Codec::Binary, ..*w };
    for b in backends {
        let mut stream = Stream::new(w, seed);
        let mut g = Generator::connect(b.addr, CONNS, Codec::Binary)
            .map_err(|e| format!("preload: {e}"))?;
        let mut tally = g.run_for(
            &mut Preload(&mut stream),
            Mode::Closed { window: 32 },
            Duration::MAX,
            Record::default(),
        );
        g.drain(&mut tally, Duration::from_secs(1), Record::default());
        if tally.failed() > 0 {
            return Err(format!("preloading a trace backend failed {} requests", tally.failed()));
        }
    }
    let journaled = w.journals();
    let gw_journal = work.join("trace-gateway.journal");
    let shadow_journal = work.join("trace-shadow.journal");
    for path in [&gw_journal, &shadow_journal] {
        let _ = std::fs::remove_file(path);
    }
    let gw = Gateway::new(GatewayConfig {
        backends: vec![backends[0].addr.to_string(), backends[1].addr.to_string()],
        journal_path: journaled.then(|| gw_journal.clone()),
        ..GatewayConfig::default()
    })
    .map_err(|e| format!("in-process gateway: {e}"))?;
    let cfg = gw.config().clone();
    let mut lanes = gw.lanes();
    let mut conns: Vec<BackendConn> = backends[2..]
        .iter()
        .map(|b| BackendConn::new(b.addr.to_string(), cfg.connect_timeout, cfg.io_timeout))
        .collect();
    // The shadow syncs by hand every `fsync_every` appends, so the append
    // and the fsync land in separate spans.
    let mut journal =
        Journal::open(&shadow_journal, usize::MAX).map_err(|e| format!("shadow journal: {e}"))?;
    let header_bytes = journal.bytes();
    let mut stream = Stream::new(w, seed);
    for_each_preload(&mut stream, |_| {});
    let mut errors = 0u64;
    let lanes_n = conns.len();
    let mut shadow_calls = vec![0u64; lanes_n];
    for (id, (kind, bytes)) in (0..).zip(next_requests(&mut stream, requests)) {
        let req =
            binproto::decode_request(&bytes[4..]).map_err(|e| format!("replay decode: {e}"))?;
        let parent = gateway_span(kind);
        let (resp, _) = t.span(id, parent, None, || gw.handle(&req, &mut lanes));
        if resp.kind() == "error" {
            errors += 1;
        }
        let mut call = |t: &mut Tracer, backend: usize, r: &Request| {
            let resp =
                t.span(id, "predictgw.backend_rtt", Some(parent), || conns[backend].request(r));
            shadow_calls[backend] += 1;
            if !matches!(resp, Ok(ref r) if r.kind() != "error") {
                errors += 1;
            }
        };
        match &req {
            Request::LoadReport(r) => {
                // Without a journal the gateway does not wait for one: the
                // shadow's journal spans then have no parent.
                let journal_parent = journaled.then_some(parent);
                let ok = t.span(id, "predictgw.journal_append", journal_parent, || {
                    journal.append_report(r)
                });
                ok.map_err(|e| format!("shadow journal append: {e}"))?;
                if journal.reports() % cfg.fsync_every as u64 == 0 {
                    let ok =
                        t.span(id, "predictgw.journal_fsync", journal_parent, || journal.sync());
                    ok.map_err(|e| format!("shadow journal sync: {e}"))?;
                }
                for b in 0..lanes_n {
                    call(t, b, &req);
                }
            }
            Request::Predict(q) => {
                let pref =
                    t.span(id, "predictgw.ring", Some(parent), || gw.ring().preference(&q.machine));
                call(t, pref[0], &req);
            }
            Request::DecideBatch(q) => {
                let pref =
                    t.span(id, "predictgw.ring", Some(parent), || gw.ring().preference(&q.machine));
                let chunk = q.tasks.len().div_ceil(pref.len().min(q.tasks.len()).max(1));
                for (i, tasks) in q.tasks.chunks(chunk).enumerate() {
                    let sub = Request::DecideBatch(DecideBatch {
                        machine: q.machine.clone(),
                        now: q.now,
                        tasks: tasks.to_vec(),
                        j_words: q.j_words,
                    });
                    call(t, pref[i % pref.len()], &sub);
                }
            }
            Request::Rank(q) => {
                let pref =
                    t.span(id, "predictgw.ring", Some(parent), || gw.ring().preference(&q.machine));
                call(t, pref[0], &req);
            }
            Request::Stats | Request::Shutdown => {}
        }
    }
    let journal_bytes_per_report =
        crate::stats::mean((journal.bytes() - header_bytes) as f64, journal.reports());
    let stats = gw.gw_stats();
    drop((journal, gw));
    for path in [&gw_journal, &shadow_journal] {
        let _ = std::fs::remove_file(path);
    }
    let gateway_calls: Vec<u64> = stats.backends.iter().map(|b| b.requests).collect();
    if gateway_calls != shadow_calls {
        return Err(format!(
            "the gateway shadow made {shadow_calls:?} backend calls where Gateway::handle made \
             {gateway_calls:?}: bring the shadow in trace.rs in line with the gateway's routing"
        ));
    }
    Ok(GatewayReplay { errors, stats, journal_bytes_per_report })
}

/// Writes every span, and the client spans, as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span], client: &[ClientSpan]) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for s in client {
        writeln!(
            w,
            "{{\"id\":{},\"span\":\"client.request\",\"kind\":\"{}\",\"due_ns\":{},\"sent_ns\":{},\"done_ns\":{}}}",
            s.id,
            s.kind.name(),
            s.due_ns,
            s.sent_ns,
            s.done_ns
        )?;
    }
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
        writeln!(
            w,
            "{{\"id\":{},\"span\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"dur_ns\":{}}}",
            s.id, s.name, s.start_ns, s.dur_ns
        )?;
    }
    w.flush()
}
