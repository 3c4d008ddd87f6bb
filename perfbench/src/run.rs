//! One workload run, phase by phase, and the metrics it yields.
//!
//! 1. **setup** — start the topology (spawn → every daemon answers
//!    `stats`) and preload [`PRELOAD_ROUNDS`] reports per machine to fill the
//!    forecaster windows. This runs several times, each on a fresh
//!    topology; `setup_s` is the median and the last one is kept.
//! 2. **warm-up** — paced at the workload's rate, discarded.
//! 3. **paced** — open loop at the workload's rate; latency quantiles come
//!    from here, measured from each request's intended send time.
//! 4. **saturate** — closed loop with [`WINDOW`] requests in flight per
//!    connection; `throughput_rps` is the median window. A traced run
//!    alternates untraced and traced windows to state the tracing overhead.
//! 5. **verify** — seeded requests checked against the in-process oracle.
//!
//! Every window of the measured phases sits between two host probes
//! ([`crate::host`]), and every set-up between the medians of
//! [`SETUP_PROBES`] probes; all are taken with the daemons stopped, and
//! the time or rate is scaled to nominal host speed by their mean.
//!
//! A traced run then fetches the predictd processes' `stats`, replays the
//! stream through the layers in-process ([`crate::trace`]), and prints the
//! ledger: each daemon's CPU per request beside the sum of its layers.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use proto::{Request, Response};

use crate::gen::{ClientSpan, Codec, Generator, Kind, Mode, Record, Tally};
use crate::host::{self, HostProbe};
use crate::stats::{mean, median, quantile};
use crate::topology::{cpu_ticks, peak_rss_kib, Bins, Cluster, Daemon, Placement, TICKS_PER_SEC};
use crate::trace::{self, gateway_span, handle_span, GatewayReplay, Sums, Tracer};
use crate::verify::{verify, Verdict};
use crate::workload::{
    verify_requests, Preload, Stream, Topology, Workload, CONNS, PRELOAD_ROUNDS,
};

/// Requests in flight per connection in the closed-loop phases.
pub const WINDOW: usize = 32;

/// How long to wait for stragglers after the last send.
const DRAIN: Duration = Duration::from_secs(1);

/// Host probes taken before and after each set-up.
const SETUP_PROBES: usize = 5;

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// The metrics of an untraced run. The paced phase's p90 is not one of
/// them: host stalls move it by up to 89× between runs of one commit, so
/// it is reported with the tails, as `client.latency_p90_us`.
pub const END_TO_END: [MetricDef; 4] = [
    def("setup_s", "s", "lower"),
    def("throughput_rps", "req/s", "higher"),
    def("latency_p50_us", "us", "lower"),
    def("server_rss_mib", "MiB", "lower"),
];

/// The metrics of a traced run: the layers every workload's own traffic
/// crosses. Layers only some workloads reach — the JSON fallback,
/// `decide_batch` and `rank`, the gateway and its journal — are timed on
/// those workloads and printed in the ledger lines, not as metrics, so no
/// metric is made up where a workload does not reach its layer.
pub const PER_LAYER: [MetricDef; 22] = [
    def("client.lag_p99_us", "us", "lower"),
    def("client.latency_p90_us", "us", "lower"),
    def("client.latency_p99_us", "us", "lower"),
    def("client.latency_p999_us", "us", "lower"),
    def("client.req_bytes", "B", "lower"),
    def("client.resp_bytes", "B", "lower"),
    def("client.trace_overhead_pct", "%", "lower"),
    def("proto.decode_ns", "ns", "lower"),
    def("proto.encode_ns", "ns", "lower"),
    def("predictd.handle_ns.load_report", "ns", "lower"),
    def("predictd.handle_ns.predict", "ns", "lower"),
    def("predictd.service_self_ns", "ns", "lower"),
    def("predictd.cache_hit_ratio", "ratio", "higher"),
    def("predictd.replica_coverage", "ratio", "higher"),
    def("predictd.cpu_us_per_req", "us", "lower"),
    def("predictd.engine_us_per_req", "us", "lower"),
    def("loadcast.report_ns", "ns", "lower"),
    def("loadcast.forecast_ns", "ns", "lower"),
    def("core.profile_hit_ns", "ns", "lower"),
    def("core.profile_miss_ns", "ns", "lower"),
    def("core.decide_ns", "ns", "lower"),
    def("server.cpu_us_per_req", "us", "lower"),
];

/// Phase lengths. Both measured phases are cut into short windows, each
/// scaled by the host probes around it.
///
/// Why short windows: the host's speed drifts within a second (on a
/// 2-vCPU VM its autocorrelation fell to 0.6 after 0.1 s and to 0.3 after
/// 0.6 s), so a probe speaks only for the time right next to it.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// Paced warm-up, discarded.
    pub warmup: Duration,
    /// Length of one measurement window.
    pub window: Duration,
    /// Windows in the paced phase.
    pub paced_windows: usize,
    /// Windows in the saturate phase.
    pub saturate_windows: usize,
}

impl Phases {
    /// The split of a `seconds`-long measurement: 10% warm-up, 40% paced,
    /// 50% saturate, in windows of 0.1 s.
    pub fn for_seconds(seconds: f64) -> Phases {
        let window = 0.1;
        let count = |share: f64| ((seconds * share / window).round() as usize).max(1);
        Phases {
            warmup: Duration::from_secs_f64(seconds * 0.1),
            window: Duration::from_secs_f64(window),
            paced_windows: count(0.4),
            saturate_windows: count(0.5),
        }
    }
}

/// Everything a run needs besides the workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Phase lengths.
    pub phases: Phases,
    /// Run traced: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Daemon executables.
    pub bins: Bins,
    /// Scratch directory for journals and the span file.
    pub work: PathBuf,
    /// Topology start-ups timed for `setup_s`.
    pub setups: usize,
    /// Requests in the verify phase.
    pub verify_requests: usize,
    /// Requests replayed through the service layers (traced runs).
    pub replay_service: u64,
    /// Requests replayed through the gateway layers (traced runs).
    pub replay_gateway: u64,
}

impl RunConfig {
    /// The benchmark's settings for a `seconds`-long measurement.
    pub fn new(seed: u64, seconds: f64, trace: bool, bins: Bins, work: PathBuf) -> RunConfig {
        RunConfig {
            seed,
            phases: Phases::for_seconds(seconds),
            trace,
            bins,
            work,
            setups: 3,
            verify_requests: 2000,
            replay_service: 40_000,
            replay_gateway: 4_000,
        }
    }
}

/// A run's result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// `(name, value)` of every metric the run reports, in definition order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Requests attempted, verify included.
    pub attempted: u64,
    /// Requests that failed, verify mismatches included.
    pub failed: u64,
    /// The verify phase's findings.
    pub verify: Verdict,
    /// Human-readable report lines: sample counts, ledger, span file.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// The unit of metric `name`.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|d| d.name == name).map_or("", |d| d.unit)
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// CPU seconds of a set of processes.
fn cpu_secs(daemons: &[&Daemon]) -> Result<f64, String> {
    let mut ticks = 0;
    for d in daemons {
        ticks += cpu_ticks(d.pid())?;
    }
    Ok(ticks as f64 / TICKS_PER_SEC)
}

/// Sum of per-backend request counts the gateway has routed.
fn backend_requests(cluster: &Cluster) -> Result<u64, String> {
    match &cluster.gateway {
        None => Ok(0),
        Some(g) => match g.request(&Request::Stats)? {
            Response::GwStats(s) => Ok(s.backends.iter().map(|b| b.requests).sum()),
            other => Err(format!("gateway answered stats with {}", other.kind())),
        },
    }
}

/// A started topology with its set-up traffic sent.
struct Ready {
    cluster: Cluster,
    gen: Generator,
    stream: Stream,
}

/// One set-up: start the topology, connect, preload every machine.
fn set_up(
    w: &Workload,
    cfg: &RunConfig,
    place: Placement,
    journal: &std::path::Path,
    totals: &mut Tally,
) -> Result<Ready, String> {
    let cluster = place.start_daemons(|| Cluster::start(&cfg.bins, w.topology, Some(journal)))?;
    let mut stream = Stream::new(w, cfg.seed);
    let mut gen =
        Generator::connect(cluster.entry, CONNS, w.codec).map_err(|e| format!("connect: {e}"))?;
    let none = Record::default();
    let mut pre = gen.run_for(
        &mut Preload(&mut stream),
        Mode::Closed { window: WINDOW },
        Duration::MAX,
        none,
    );
    gen.drain(&mut pre, DRAIN, none);
    totals.absorb(pre);
    Ok(Ready { cluster, gen, stream })
}

/// Runs workload `w` once.
pub fn run(w: &Workload, cfg: &RunConfig) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.work).map_err(|e| format!("{}: {e}", cfg.work.display()))?;
    let mut out = Outcome::default();
    let mut totals = Tally::default();
    let setups = cfg.setups.max(1);
    let journals: Vec<PathBuf> =
        (0..setups).map(|i| cfg.work.join(format!("journal-{i}"))).collect();
    let (mut setup_raw, mut setup_times) = (Vec::with_capacity(setups), Vec::with_capacity(setups));
    let place = Placement::detect();
    place.pin_generator();
    let mut probe = HostProbe::start(place.daemon_cpu())?;
    let mut ready = None;
    for journal in &journals {
        if let Some(Ready { cluster, gen, .. }) = ready.take() {
            drop(gen);
            cluster.stop()?;
        }
        let _ = std::fs::remove_file(journal);
        let before = median_probe(&mut probe, &[])?;
        let started = Instant::now();
        let up = set_up(w, cfg, place, journal, &mut totals)?;
        let secs = started.elapsed().as_secs_f64();
        setup_raw.push(secs);
        setup_times
            .push(secs / host::factor(before, median_probe(&mut probe, &up.cluster.pids())?));
        ready = Some(up);
    }
    let Ready { cluster, mut gen, mut stream } = ready.ok_or("no topology started")?;
    let result = drive(w, cfg, &cluster, &mut gen, &mut stream, &mut probe, &mut out, &mut totals);
    drop(gen);
    let stopped = cluster.stop();
    for journal in &journals {
        let _ = std::fs::remove_file(journal);
    }
    let measured = result?;
    stopped?;
    let setup_s = median(&mut setup_times);

    out.attempted = totals.sent + out.verify.sent;
    out.failed = totals.failed() + out.verify.mismatches;
    out.notes.push(format!(
        "requests: {} attempted, {} failed ({} error replies, {} wrong kind, {} lost, {} verify mismatches)",
        out.attempted,
        out.failed,
        totals.error_replies,
        totals.wrong_kind,
        totals.lost,
        out.verify.mismatches
    ));
    if let Some(first) = &out.verify.first {
        out.notes.push(format!("first verify mismatch: {first}"));
    }
    if cfg.trace {
        per_layer(w, cfg, place, &measured, &mut out)?;
    } else {
        out.metrics = vec![
            ("setup_s", setup_s),
            ("throughput_rps", measured.throughput_rps),
            ("latency_p50_us", measured.p50_us),
            ("server_rss_mib", measured.rss_mib),
        ];
    }
    out.notes.push(format!(
        "setup: median {setup_s:.4} s of {} set-ups (start, preload {PRELOAD_ROUNDS} reports per machine), \
         each at nominal host speed; raw {}",
        setup_times.len(),
        secs_list(&setup_raw)
    ));
    Ok(out)
}

/// The median of [`SETUP_PROBES`] host probes. A set-up is scaled by the
/// probes around it alone, so one probe caught in a host stall must not
/// set its factor.
fn median_probe(probe: &mut HostProbe, daemons: &[u32]) -> Result<u64, String> {
    let mut times =
        (0..SETUP_PROBES).map(|_| probe.measure(daemons)).collect::<Result<Vec<_>, _>>()?;
    times.sort_unstable();
    Ok(times[times.len() / 2])
}

fn secs_list(v: &[f64]) -> String {
    v.iter().map(|s| format!("{s:.4} s")).collect::<Vec<_>>().join(", ")
}

/// What the load phases measured.
#[derive(Debug, Default)]
struct Measured {
    throughput_rps: f64,
    traced_rps: f64,
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    p999_us: f64,
    lag_p99_us: f64,
    req_bytes: f64,
    resp_bytes: f64,
    rss_mib: f64,
    /// Replies over the saturate phase, drained ones included.
    saturate_completed: u64,
    /// CPU seconds over the saturate phase: predictd processes, gateway.
    cpu_backends: f64,
    cpu_gateway: f64,
    /// Backend calls the gateway made during the saturate phase.
    backend_calls: u64,
    client_spans: Vec<ClientSpan>,
    /// `stats` replies of the predictd processes.
    stats: Vec<Response>,
}

/// Runs `count` windows of `mode`, with a host probe before the first and
/// after each (the processes of `daemons` stopped meanwhile), and returns
/// each window's tally and host factor. A paced window waits for its own
/// replies, whose latency samples belong to it; a closed-loop window
/// counts what completed within it, and the replies still in flight are
/// drained into `totals`.
#[allow(clippy::too_many_arguments)]
fn windows(
    g: &mut Generator,
    stream: &mut Stream,
    mode: Mode,
    count: usize,
    len: Duration,
    rec: impl Fn(usize) -> Record,
    probe: &mut HostProbe,
    daemons: &[u32],
    totals: &mut Tally,
) -> Result<(Vec<Tally>, Vec<f64>), String> {
    let mut probes = vec![probe.measure(daemons)?];
    let mut tallies = Vec::with_capacity(count);
    for i in 0..count {
        let mut t = g.run_for(stream, mode, len, rec(i));
        match mode {
            Mode::Paced { .. } => g.drain(&mut t, DRAIN, rec(i)),
            Mode::Closed { .. } => {
                let mut rest = Tally::default();
                g.drain(&mut rest, DRAIN, Record::default());
                totals.absorb(rest);
            }
        }
        probes.push(probe.measure(daemons)?);
        tallies.push(t);
    }
    Ok((tallies, probes.windows(2).map(|p| host::factor(p[0], p[1])).collect()))
}

#[allow(clippy::too_many_arguments)]
fn drive(
    w: &Workload,
    cfg: &RunConfig,
    cluster: &Cluster,
    g: &mut Generator,
    stream: &mut Stream,
    probe: &mut HostProbe,
    out: &mut Outcome,
    totals: &mut Tally,
) -> Result<Measured, String> {
    let mut m = Measured::default();
    let p = cfg.phases;
    let none = Record::default();

    // Peak memory once set-up is done: every machine's state, reached by a
    // closed loop with bounded buffers. Later phases add buffer growth that
    // follows the host's scheduling stalls (an open loop keeps sending
    // through them), which would only add spread.
    let mut rss_kib = 0;
    for d in cluster.daemons() {
        rss_kib += peak_rss_kib(d.pid())?;
    }
    m.rss_mib = rss_kib as f64 / 1024.0;

    let paced = Mode::Paced { rate: w.rate };
    let mut warm = g.run_for(stream, paced, p.warmup, none);
    g.drain(&mut warm, DRAIN, none);
    totals.absorb(warm);

    let pids = cluster.pids();
    let rec = Record { latency: true, spans: cfg.trace };
    let (tallies, factors) =
        windows(g, stream, paced, p.paced_windows, p.window, |_| rec, probe, &pids, totals)?;
    let mut host_factors = factors.clone();
    let (mut lat, mut raw) = (Vec::new(), Vec::new());
    let mut paced_tally = Tally::default();
    for (mut t, f) in tallies.into_iter().zip(factors) {
        lat.extend(t.latency_ns.iter().map(|&ns| (ns as f64 / f) as u64));
        raw.append(&mut t.latency_ns);
        paced_tally.absorb(t);
    }
    let mut lag = std::mem::take(&mut paced_tally.lag_ns);
    for v in [&mut lat, &mut raw, &mut lag] {
        v.sort_unstable();
    }
    let q = |v: &[u64], q: f64| quantile(v, q).map_or(0.0, us);
    (m.p50_us, m.p90_us, m.p99_us, m.p999_us) =
        (q(&lat, 0.5), q(&lat, 0.9), q(&lat, 0.99), q(&lat, 0.999));
    m.lag_p99_us = q(&lag, 0.99);
    m.req_bytes = mean(paced_tally.req_bytes as f64, paced_tally.sent);
    m.resp_bytes = mean(paced_tally.resp_bytes as f64, paced_tally.completed);
    out.notes.push(format!(
        "paced phase: {} requests at {} req/s in {} windows of {:.3} s; over all {} samples at nominal host speed \
         p50 {:.3} us, p90 {:.3} us, p99 {:.3} us, p99.9 {:.3} us (raw p50 {:.3} us, p90 {:.3} us); generator lag p99 {:.3} us",
        paced_tally.sent,
        w.rate,
        p.paced_windows,
        p.window.as_secs_f64(),
        lat.len(),
        m.p50_us,
        m.p90_us,
        m.p99_us,
        m.p999_us,
        q(&raw, 0.5),
        q(&raw, 0.9),
        m.lag_p99_us
    ));
    m.client_spans = std::mem::take(&mut paced_tally.spans);
    totals.absorb(paced_tally);

    let backends: Vec<&Daemon> = cluster.backends.iter().collect();
    let gateway: Vec<&Daemon> = cluster.gateway.iter().collect();
    let (cpu_b0, cpu_g0, calls0) =
        (cpu_secs(&backends)?, cpu_secs(&gateway)?, backend_requests(cluster)?);
    let completed0 = totals.completed;
    // A traced run alternates untraced and traced windows, starting and
    // ending untraced, so the overhead is a paired difference.
    let count = if cfg.trace { p.saturate_windows | 1 } else { p.saturate_windows };
    let traced_window = |i: usize| cfg.trace && i % 2 == 1;
    let rec = |i: usize| Record { latency: false, spans: traced_window(i) };
    let closed = Mode::Closed { window: WINDOW };
    let (tallies, factors) =
        windows(g, stream, closed, count, p.window, rec, probe, &pids, totals)?;
    m.cpu_backends = cpu_secs(&backends)? - cpu_b0;
    m.cpu_gateway = cpu_secs(&gateway)? - cpu_g0;
    m.backend_calls = backend_requests(cluster)? - calls0;
    let (mut plain, mut traced, mut raw) = (Vec::new(), Vec::new(), Vec::new());
    for (i, (t, f)) in tallies.into_iter().zip(&factors).enumerate() {
        let rate = t.completed as f64 / t.elapsed.as_secs_f64();
        if traced_window(i) {
            traced.push(rate * f);
        } else {
            plain.push(rate * f);
            raw.push(rate);
        }
        totals.absorb(Tally { spans: Vec::new(), ..t });
    }
    // Replies drained between windows cost the daemons CPU too.
    m.saturate_completed = totals.completed - completed0;
    host_factors.extend(factors);
    m.throughput_rps = median(&mut plain);
    m.traced_rps = if traced.is_empty() { m.throughput_rps } else { median(&mut traced) };
    out.notes.push(format!(
        "saturate phase: {count} windows of {:.3} s, {WINDOW} in flight per connection; median {:.1} req/s over {} \
         untraced windows at nominal host speed (raw median {:.1} req/s)",
        p.window.as_secs_f64(),
        m.throughput_rps,
        plain.len(),
        median(&mut raw),
    ));
    let (lo, hi) =
        host_factors.iter().fold((f64::INFINITY, 0f64), |(lo, hi), &f| (lo.min(f), hi.max(f)));
    out.notes.push(format!(
        "host factor (probe time over nominal, 1 = unloaded host): median {:.3}, range {lo:.3} to {hi:.3} over {} windows",
        median(&mut host_factors),
        host_factors.len()
    ));

    out.verify = verify(cluster.entry, w.codec, &verify_requests(cfg.seed, cfg.verify_requests))?;
    out.notes.push(format!(
        "verify: {} requests, {} mismatches",
        out.verify.sent, out.verify.mismatches
    ));

    if cfg.trace {
        for b in &cluster.backends {
            m.stats.push(b.request(&Request::Stats)?);
        }
    }
    Ok(m)
}

/// Builds the per-layer metrics and the ledger of a traced run.
fn per_layer(
    w: &Workload,
    cfg: &RunConfig,
    place: Placement,
    m: &Measured,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut t = Tracer::new();
    let replay = trace::replay_service(w, cfg.seed, cfg.replay_service, &mut t);
    let gw = matches!(w.topology, Topology::Gateway { .. });
    let gw_replay = if gw {
        let r = trace::replay_gateway(
            w,
            cfg.seed,
            cfg.replay_gateway,
            &cfg.bins,
            place,
            &cfg.work,
            &mut t,
        )?;
        if r.errors > 0 {
            return Err(format!("the gateway replay saw {} failed requests", r.errors));
        }
        Some(r)
    } else {
        None
    };
    let s = t.sums();
    let reqs = replay.requests;

    let mut handle_total = 0;
    let mut handle_children = 0;
    for k in Kind::ALL {
        handle_total += s.total(handle_span(k));
        handle_children += s.children(handle_span(k));
    }
    let decode = s.mean("proto.decode");
    let encode = s.mean("proto.encode");
    let handle = mean(handle_total as f64, reqs);
    let service_self = mean(handle_total.saturating_sub(handle_children) as f64, reqs);
    let in_process_us = (decode + handle + encode) / 1000.0;

    let (mut hits, mut misses) = (0u64, 0u64);
    for st in &m.stats {
        if let Response::Stats(st) = st {
            hits += st.cache.hits;
            misses += st.cache.misses;
        }
    }
    let per = |secs: f64, n: u64| if n == 0 { 0.0 } else { secs * 1e6 / n as f64 };
    // Behind the gateway each predictd answers backend calls, not client
    // requests: count its CPU per call it served.
    let predictd_calls = if gw { m.backend_calls } else { m.saturate_completed };
    let predictd_cpu = per(m.cpu_backends, predictd_calls);

    let values: Vec<(&'static str, f64)> = vec![
        ("client.lag_p99_us", m.lag_p99_us),
        ("client.latency_p90_us", m.p90_us),
        ("client.latency_p99_us", m.p99_us),
        ("client.latency_p999_us", m.p999_us),
        ("client.req_bytes", m.req_bytes),
        ("client.resp_bytes", m.resp_bytes),
        ("client.trace_overhead_pct", (m.throughput_rps - m.traced_rps) / m.throughput_rps * 100.0),
        ("proto.decode_ns", decode),
        ("proto.encode_ns", encode),
        ("predictd.handle_ns.load_report", s.mean(handle_span(Kind::LoadReport))),
        ("predictd.handle_ns.predict", s.mean(handle_span(Kind::Predict))),
        ("predictd.service_self_ns", service_self),
        ("predictd.cache_hit_ratio", mean(hits as f64, hits + misses)),
        ("predictd.replica_coverage", mean(replay.replicas as f64, replay.machines as u64)),
        ("predictd.cpu_us_per_req", predictd_cpu),
        ("predictd.engine_us_per_req", predictd_cpu - in_process_us),
        ("loadcast.report_ns", s.mean("loadcast.report")),
        ("loadcast.forecast_ns", s.mean("loadcast.forecast")),
        ("core.profile_hit_ns", s.mean("core.profile_hit")),
        ("core.profile_miss_ns", s.mean("core.profile_miss")),
        ("core.decide_ns", s.mean("core.decide")),
        ("server.cpu_us_per_req", per(m.cpu_backends + m.cpu_gateway, m.saturate_completed)),
    ];
    debug_assert!(values.iter().map(|(n, _)| *n).eq(PER_LAYER.iter().map(|d| d.name)));
    out.metrics = values;

    out.notes.push(format!(
        "tracing overhead: {:.2}% ({:.1} req/s untraced vs {:.1} req/s traced saturate windows)",
        (m.throughput_rps - m.traced_rps) / m.throughput_rps * 100.0,
        m.throughput_rps,
        m.traced_rps
    ));
    let loadcast = s.total("loadcast.report") + s.total("loadcast.forecast");
    let core = ["core.profile_hit", "core.profile_miss", "core.decide", "core.decide_batch"]
        .iter()
        .map(|n| s.total(n))
        .sum::<u64>();
    let share = |ns: u64| mean(ns as f64, reqs) / 1000.0;
    out.notes.push(format!(
        "ledger predictd, us per request: cpu {predictd_cpu:.3} = decode {:.3} + handle {:.3} + encode {:.3} + engine and syscalls {:.3}; \
         handle = service self {:.3} + loadcast {:.3} + core {:.3} + hetsched {:.3} ({} requests replayed)",
        decode / 1000.0,
        handle / 1000.0,
        encode / 1000.0,
        predictd_cpu - in_process_us,
        service_self / 1000.0,
        share(loadcast),
        share(core),
        share(s.total("hetsched.rank")),
        reqs
    ));
    for &k in w.traffic.kinds() {
        let span = handle_span(k);
        let child = match k {
            Kind::DecideBatch => format!(
                "; core.decide_batch {:.1} ns per task",
                mean(s.total("core.decide_batch") as f64, replay.batch_tasks)
            ),
            Kind::Rank => format!("; hetsched.rank {:.3} us", s.mean("hetsched.rank") / 1000.0),
            Kind::LoadReport | Kind::Predict => String::new(),
        };
        out.notes.push(format!(
            "ledger {span}: {:.1} ns over {} requests{child}",
            s.mean(span),
            s.count(span)
        ));
    }
    if w.codec == Codec::Json {
        let declined = s.count("proto.serde_fallback");
        out.notes.push(format!(
            "ledger proto JSON: the fast path parsed {:.2}% of {reqs} requests; the serde fallback took {:.1} ns on each of the {declined} it declined",
            mean(replay.json_fast as f64, reqs) * 100.0,
            s.mean("proto.serde_fallback"),
        ));
    }
    if let Some(r) = &gw_replay {
        gateway_ledger(w, m, &s, r, out);
    }
    let path = cfg.work.join(format!("trace-{}-{}.jsonl", w.name, cfg.seed));
    trace::write_spans(&path, &t.spans, &m.client_spans)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    out.notes.push(format!(
        "spans: {} client + {} layer spans written to {}",
        m.client_spans.len(),
        t.spans.len(),
        path.display()
    ));
    Ok(())
}

/// The ledger lines of the gateway workloads: the live daemons' CPU split,
/// and the in-process gateway's handle time split into its named children.
fn gateway_ledger(w: &Workload, m: &Measured, s: &Sums, r: &GatewayReplay, out: &mut Outcome) {
    let per = |secs: f64| mean(secs * 1e6, m.saturate_completed);
    out.notes.push(format!(
        "ledger live daemons, cpu us per client request: gateway {:.3}, backends {:.3}",
        per(m.cpu_gateway),
        per(m.cpu_backends),
    ));
    let (mut total, mut children, mut reqs) = (0, 0, 0);
    for k in Kind::ALL {
        total += s.total(gateway_span(k));
        children += s.children(gateway_span(k));
        reqs += s.count(gateway_span(k));
    }
    // The journal is one of the gateway's children only when it journals.
    let journal_ns = if w.journals() {
        s.total("predictgw.journal_append") + s.total("predictgw.journal_fsync")
    } else {
        0
    };
    let us = |ns: u64| mean(ns as f64, reqs) / 1000.0;
    out.notes.push(format!(
        "ledger predictgw (in-process replay), us per request: handle {:.3} = {:.3} backend round trips x {:.3} + ring {:.3} \
         + journal {:.3} + gateway self {:.3}; route hit ratio {:.4}, {} failovers",
        us(total),
        mean(s.count("predictgw.backend_rtt") as f64, reqs),
        s.mean("predictgw.backend_rtt") / 1000.0,
        us(s.total("predictgw.ring")),
        us(journal_ns),
        us(total.saturating_sub(children)),
        mean(r.stats.hits as f64, r.stats.hits + r.stats.misses),
        r.stats.failovers,
    ));
    if w.journals() {
        out.notes.push(format!(
            "ledger predictgw journal: append {:.3} us, fsync {:.3} us (one per {} appends), {:.1} bytes per report",
            s.mean("predictgw.journal_append") / 1000.0,
            s.mean("predictgw.journal_fsync") / 1000.0,
            predictgw::journal::DEFAULT_FSYNC_EVERY,
            r.journal_bytes_per_report,
        ));
    }
    for &k in w.traffic.kinds() {
        let span = gateway_span(k);
        let n = s.count(span);
        let parent = s.total(span);
        let named = s.children(span);
        out.notes.push(format!(
            "ledger {span}: {:.3} us, named children {:.3} us ({:.1}% of handle, {n} requests)",
            mean(parent as f64, n) / 1000.0,
            mean(named as f64, n) / 1000.0,
            named as f64 / parent.max(1) as f64 * 100.0
        ));
    }
}
