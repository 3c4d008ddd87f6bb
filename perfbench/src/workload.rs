//! The four workloads and the seeded request streams they send.
//!
//! Every input is a pure function of the seed: machine loads and
//! communication fractions, which machine each request names, task sizes,
//! and rank workflows. The daemons only ever see the rendered bytes.
//!
//! Requests are rendered from templates: each request shape is encoded
//! once, through the real codec, with sentinel values in the fields that
//! change per send (machine name, timestamps, loads). Sending a request
//! copies the template and fills those holes, so the generator's cost per
//! request stays far below the server's.
//!
//! Time is virtual: connection `c`'s `n`-th request carries the timestamp
//! `n / 10⁶` seconds. Each machine belongs to one connection, so its
//! reports arrive in timestamp order, and every machine is reported far
//! more often than the forecaster's 10 s staleness horizon.

use contention_model::dataset::DataSet;
use contention_model::predict::ParagonTask;
use contention_model::units::secs;
use hetsched::task::{Matrix, Task, Workflow};
use proto::proto::{DecideBatch, LoadReport, Predict, Rank};
use proto::{binproto, Request};

use crate::gen::{Codec, Kind, Source};
use crate::stats::Rng;

/// Connections every workload opens, all driven by the one generator
/// thread: enough to exercise the server's multiplexing on a 2-vCPU host.
pub const CONNS: usize = 2;

/// Reports per machine sent during set-up: fills the forecaster window
/// (`MonitorConfig::default().window`).
pub const PRELOAD_ROUNDS: usize = 64;

/// Seeded variants of each query shape (tasks and workflows).
const VARIANTS: usize = 256;

/// Tasks per `decide_batch`.
pub const BATCH_TASKS: usize = 8;

/// Width of every machine name (`m00042`), so binary frames keep their
/// length when the name hole is filled.
const NAME_LEN: usize = 6;

/// Stands in for the machine name while a template is encoded.
const NAME_SENTINEL: &str = "~~~~~~";

/// Stand in for the numeric holes while a template is encoded.
const NUM_SENTINELS: [f64; 3] = [1_234_567.062_5, 2_345_678.062_5, 3_456_789.062_5];

/// Which daemons a workload runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One predictd.
    Mono,
    /// predictgw in front of two predictd backends.
    Gateway {
        /// Run the gateway with a load-report journal.
        journal: bool,
    },
}

/// The shape of a workload's traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Each connection cycles over its machines in blocks of
    /// `load_report, predict ×6, decide_batch`; every machine keeps one
    /// constant load, so forecasts keep their shape and caches stay warm.
    Warm,
    /// Seeded machine draws with mix `load_report 8 : predict 6 :
    /// decide_batch 1 : rank 1`; every report carries a fresh seeded load
    /// and communication fraction, so forecast shapes keep moving.
    Churn,
    /// Seeded machine draws with mix `load_report 3 : predict 1` and
    /// seeded varying loads.
    Reports,
}

impl Traffic {
    /// The request kinds the traffic sends.
    pub fn kinds(self) -> &'static [Kind] {
        match self {
            Traffic::Warm => &[Kind::LoadReport, Kind::Predict, Kind::DecideBatch],
            Traffic::Churn => &Kind::ALL,
            Traffic::Reports => &[Kind::LoadReport, Kind::Predict],
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line.
    pub name: &'static str,
    /// Why the workload exists.
    pub why: &'static str,
    /// Daemons it runs against.
    pub topology: Topology,
    /// Wire codec.
    pub codec: Codec,
    /// Traffic shape.
    pub traffic: Traffic,
    /// Machines the stream names.
    pub machines: usize,
    /// Open-loop rate of the paced phase, requests per second.
    pub rate: f64,
}

impl Workload {
    /// Whether the topology has a journaling gateway.
    pub fn journals(&self) -> bool {
        matches!(self.topology, Topology::Gateway { journal: true })
    }
}

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "mono-warm-bin",
        why: "warm binary read path on one predictd, paced at 50k req/s: profile-cache hits, per-core replicas, engine loop and binproto; no JSON, no profile folds, no gateway",
        topology: Topology::Mono,
        codec: Codec::Binary,
        traffic: Traffic::Warm,
        machines: 256,
        rate: 50_000.0,
    },
    Workload {
        name: "mono-churn-json",
        why: "write-heavy cold JSON on one predictd over 16384 machines, paced at 15k req/s: fast path and serde fallback, shard write lock, forecasts, profile folds, rank",
        topology: Topology::Mono,
        codec: Codec::Json,
        traffic: Traffic::Churn,
        machines: 16_384,
        rate: 15_000.0,
    },
    Workload {
        name: "gw-read-bin",
        why: "the mono-warm-bin stream through predictgw and two predictd, paced at 10k req/s: the gateway hop with blocking backend round trips and decide_batch fan-out",
        topology: Topology::Gateway { journal: false },
        codec: Codec::Binary,
        traffic: Traffic::Warm,
        machines: 256,
        rate: 10_000.0,
    },
    Workload {
        name: "gw-report-journal",
        why: "report-heavy stream through a journaling predictgw and two predictd, paced at 4k req/s: journal append, batched fsync, serial broadcast to both backends",
        topology: Topology::Gateway { journal: true },
        codec: Codec::Binary,
        traffic: Traffic::Reports,
        machines: 1_024,
        rate: 4_000.0,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The name of machine `i`.
fn machine_name(i: usize) -> String {
    format!("m{i:05}")
}

/// Encodes one request for the wire: a binary frame with its length
/// prefix, or a JSON line with its newline.
pub fn encode(codec: Codec, req: &Request) -> Vec<u8> {
    match codec {
        Codec::Binary => {
            let mut out = Vec::new();
            let fits = binproto::encode_request(req, &mut out);
            assert!(fits, "benchmark requests fit a binary frame");
            out
        }
        Codec::Json => {
            let mut line = serde_json::to_string(req).expect("requests serialize");
            line.push('\n');
            line.into_bytes()
        }
    }
}

/// Appends `v` as the codec writes an `f64` field: 8 little-endian bytes,
/// or serde_json's shortest round-trip text with a forced fraction.
fn push_num(codec: Codec, v: f64, out: &mut Vec<u8>) {
    match codec {
        Codec::Binary => out.extend_from_slice(&v.to_le_bytes()),
        Codec::Json => {
            use std::io::Write as _;
            let start = out.len();
            let _ = write!(out, "{v}");
            if !out[start..].iter().any(|b| matches!(b, b'.' | b'e' | b'E')) {
                out.extend_from_slice(b".0");
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Hole {
    Name,
    Num(usize),
}

/// A request encoded once with sentinels where per-send values go.
#[derive(Debug, Clone)]
struct Template {
    bytes: Vec<u8>,
    /// `(start, end, hole)` byte ranges of `bytes`, ascending.
    holes: Vec<(usize, usize, Hole)>,
}

impl Template {
    fn new(codec: Codec, req: &Request) -> Template {
        let bytes = encode(codec, req);
        let mut holes = Vec::new();
        let mut mark = |pattern: &[u8], hole: Hole| {
            let found: Vec<usize> = bytes
                .windows(pattern.len())
                .enumerate()
                .filter(|(_, w)| *w == pattern)
                .map(|(i, _)| i)
                .collect();
            assert!(found.len() <= 1, "sentinel {hole:?} is ambiguous in a template");
            if let Some(&at) = found.first() {
                holes.push((at, at + pattern.len(), hole));
            }
        };
        mark(NAME_SENTINEL.as_bytes(), Hole::Name);
        for (i, s) in NUM_SENTINELS.iter().enumerate() {
            let mut pattern = Vec::new();
            push_num(codec, *s, &mut pattern);
            mark(&pattern, Hole::Num(i));
        }
        holes.sort_by_key(|h| h.0);
        Template { bytes, holes }
    }

    fn render(&self, codec: Codec, name: &[u8], nums: &[f64], out: &mut Vec<u8>) {
        let mut at = 0;
        for &(start, end, hole) in &self.holes {
            out.extend_from_slice(&self.bytes[at..start]);
            match hole {
                Hole::Name => out.extend_from_slice(name),
                Hole::Num(i) => push_num(codec, nums[i], out),
            }
            at = end;
        }
        out.extend_from_slice(&self.bytes[at..]);
    }
}

fn seeded_task(rng: &mut Rng) -> ParagonTask {
    ParagonTask {
        dcomp_sun: secs(rng.uniform(5.0, 60.0)),
        t_paragon: secs(rng.uniform(1.0, 30.0)),
        to_backend: vec![DataSet::burst(1 + rng.below(20) as u64, 100 + rng.below(4000) as u64)],
        from_backend: vec![DataSet::single(100 + rng.below(4000) as u64)],
    }
}

fn seeded_j_words(rng: &mut Rng) -> u64 {
    [100, 500, 1000, 2000][rng.below(4)]
}

/// A chain of 5 tasks over 3 machines: 3⁵ = 243 schedules to rank.
fn seeded_workflow(rng: &mut Rng) -> Workflow {
    const MACHINES: usize = 3;
    const TASKS: usize = 5;
    let tasks = (0..TASKS)
        .map(|i| {
            let exec = (0..MACHINES).map(|_| rng.uniform(1.0, 30.0)).collect();
            if i + 1 == TASKS {
                return Task::terminal(format!("t{i}"), exec);
            }
            let rows: Vec<Vec<f64>> = (0..MACHINES)
                .map(|from| {
                    (0..MACHINES)
                        .map(|to| if from == to { 0.0 } else { rng.uniform(0.0, 10.0) })
                        .collect()
                })
                .collect();
            Task::with_edge(format!("t{i}"), exec, Matrix::from_rows(&rows))
        })
        .collect();
    Workflow::new(tasks)
}

/// The seeded requests of the verify phase: fresh `verify-*` machines,
/// every request kind, stale and unknown-machine queries, and an
/// occasional time-regressing report.
pub fn verify_requests(seed: u64, count: usize) -> Vec<Request> {
    const MACHINES: usize = 12;
    let mut rng = Rng::new(seed, 0x7E41);
    let mut last = [0.0f64; MACHINES];
    let mut t = 0.0;
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        t += 0.01;
        let m = rng.below(MACHINES);
        let machine = format!("verify-{m:03}");
        let draw = if i < MACHINES * 4 { 0 } else { rng.below(10) };
        let now = match rng.below(50) {
            0 => t + 30.0, // past the staleness horizon
            _ => t,
        };
        let req = match draw {
            0..=3 => {
                // One report in a hundred regresses in time and is refused.
                let at = if rng.below(100) == 0 { (last[m] - 1.0).max(0.0) } else { t };
                last[m] = last[m].max(at);
                let frac = if rng.below(3) == 0 { -1.0 } else { rng.uniform(0.0, 1.0) };
                Request::LoadReport(LoadReport {
                    machine,
                    at,
                    load: rng.uniform(0.0, 9.0),
                    comm_frac: frac,
                })
            }
            4..=6 => {
                let machine =
                    if rng.below(20) == 0 { "verify-unknown".to_string() } else { machine };
                Request::Predict(Predict {
                    machine,
                    now,
                    task: seeded_task(&mut rng),
                    j_words: seeded_j_words(&mut rng),
                })
            }
            7 | 8 => Request::DecideBatch(DecideBatch {
                machine,
                now,
                tasks: (0..1 + rng.below(BATCH_TASKS)).map(|_| seeded_task(&mut rng)).collect(),
                j_words: seeded_j_words(&mut rng),
            }),
            _ => Request::Rank(Rank {
                machine,
                now,
                workflow: seeded_workflow(&mut rng),
                front_end: rng.below(3),
                j_words: seeded_j_words(&mut rng),
                limit: rng.below(6),
            }),
        };
        out.push(req);
    }
    out
}

struct ConnState {
    rng: Rng,
    /// Requests rendered on this connection: its virtual clock.
    seq: u64,
    /// Machines this connection owns (every request for them uses it).
    owned: Vec<usize>,
    /// Position in the warm block cycle.
    cursor: usize,
    /// Preload reports rendered so far.
    preloaded: usize,
}

/// A workload's seeded request stream, one sub-stream per connection.
pub struct Stream {
    codec: Codec,
    traffic: Traffic,
    names: Vec<Vec<u8>>,
    /// Warm traffic: each machine's constant load and the communication
    /// fraction its first report sets.
    profile: Vec<(f64, f64)>,
    report: Template,
    predict: Vec<Template>,
    batch: Vec<Template>,
    rank: Vec<Template>,
    conns: Vec<ConnState>,
}

impl Stream {
    /// The stream of `w` for `seed`.
    pub fn new(w: &Workload, seed: u64) -> Stream {
        assert!(w.machines >= CONNS && w.machines < 100_000, "machine names are m00000..m99999");
        let codec = w.codec;
        let name = NAME_SENTINEL.to_string();
        let [at, load, frac] = NUM_SENTINELS;
        let report = Template::new(
            codec,
            &Request::LoadReport(LoadReport { machine: name.clone(), at, load, comm_frac: frac }),
        );
        let mut rng = Rng::new(seed, 0x5EED);
        let predict = (0..VARIANTS)
            .map(|_| {
                let req = Predict {
                    machine: name.clone(),
                    now: at,
                    task: seeded_task(&mut rng),
                    j_words: seeded_j_words(&mut rng),
                };
                Template::new(codec, &Request::Predict(req))
            })
            .collect();
        let batch = (0..VARIANTS)
            .map(|_| {
                let req = DecideBatch {
                    machine: name.clone(),
                    now: at,
                    tasks: (0..BATCH_TASKS).map(|_| seeded_task(&mut rng)).collect(),
                    j_words: seeded_j_words(&mut rng),
                };
                Template::new(codec, &Request::DecideBatch(req))
            })
            .collect();
        let rank = (0..VARIANTS)
            .map(|_| {
                let req = Rank {
                    machine: name.clone(),
                    now: at,
                    workflow: seeded_workflow(&mut rng),
                    front_end: 0,
                    j_words: seeded_j_words(&mut rng),
                    limit: 5,
                };
                Template::new(codec, &Request::Rank(req))
            })
            .collect();
        let names: Vec<Vec<u8>> = (0..w.machines).map(|i| machine_name(i).into_bytes()).collect();
        debug_assert!(names.iter().all(|n| n.len() == NAME_LEN));
        let profile = (0..w.machines)
            .map(|m| {
                let mut r = Rng::new(seed, 0x1_0000_0000 + m as u64);
                ((1 + r.below(8)) as f64, r.uniform(0.0, 1.0))
            })
            .collect();
        let conns = (0..CONNS)
            .map(|c| ConnState {
                rng: Rng::new(seed, 1 + c as u64),
                seq: 0,
                owned: (c..w.machines).step_by(CONNS).collect(),
                cursor: 0,
                preloaded: 0,
            })
            .collect();
        Stream { codec, traffic: w.traffic, names, profile, report, predict, batch, rank, conns }
    }

    /// Set-up traffic: [`PRELOAD_ROUNDS`] reports for every machine,
    /// round by round. `None` once the connection's share is sent.
    pub fn preload_next(&mut self, conn: usize, out: &mut Vec<u8>) -> Option<Kind> {
        let st = &mut self.conns[conn];
        let owned = st.owned.len();
        if st.preloaded >= owned * PRELOAD_ROUNDS {
            return None;
        }
        let round = st.preloaded / owned;
        let m = st.owned[st.preloaded % owned];
        st.preloaded += 1;
        let t = st.seq as f64 / 1e6;
        st.seq += 1;
        let (load, frac) = match self.traffic {
            Traffic::Warm => {
                let (load, frac) = self.profile[m];
                (load, if round == 0 { frac } else { -1.0 })
            }
            Traffic::Churn | Traffic::Reports => {
                (st.rng.uniform(0.0, 12.0), st.rng.uniform(0.0, 1.0))
            }
        };
        self.report.render(self.codec, &self.names[m], &[t, load, frac], out);
        Some(Kind::LoadReport)
    }
}

impl Stream {
    /// Renders a request of `kind` for machine `m` on connection `conn`.
    fn render(&mut self, conn: usize, kind: Kind, m: usize, out: &mut Vec<u8>) {
        let codec = self.codec;
        let st = &mut self.conns[conn];
        let t = st.seq as f64 / 1e6;
        st.seq += 1;
        let name = &self.names[m];
        match kind {
            Kind::LoadReport => {
                let (load, frac) = match self.traffic {
                    Traffic::Warm => (self.profile[m].0, -1.0),
                    Traffic::Churn | Traffic::Reports => {
                        (st.rng.uniform(0.0, 12.0), st.rng.uniform(0.0, 1.0))
                    }
                };
                self.report.render(codec, name, &[t, load, frac], out);
            }
            Kind::Predict => self.predict[st.rng.below(VARIANTS)].render(codec, name, &[t], out),
            Kind::DecideBatch => self.batch[st.rng.below(VARIANTS)].render(codec, name, &[t], out),
            Kind::Rank => self.rank[st.rng.below(VARIANTS)].render(codec, name, &[t], out),
        }
    }
}

impl Source for Stream {
    fn next(&mut self, conn: usize, out: &mut Vec<u8>) -> Option<Kind> {
        let st = &mut self.conns[conn];
        let (kind, m) = match self.traffic {
            Traffic::Warm => {
                let slot = st.cursor % 8;
                let m = st.owned[(st.cursor / 8) % st.owned.len()];
                st.cursor += 1;
                let kind = match slot {
                    0 => Kind::LoadReport,
                    7 => Kind::DecideBatch,
                    _ => Kind::Predict,
                };
                (kind, m)
            }
            Traffic::Churn => {
                let m = st.owned[st.rng.below(st.owned.len())];
                let kind = match st.rng.below(16) {
                    0..=7 => Kind::LoadReport,
                    8..=13 => Kind::Predict,
                    14 => Kind::DecideBatch,
                    _ => Kind::Rank,
                };
                (kind, m)
            }
            Traffic::Reports => {
                let m = st.owned[st.rng.below(st.owned.len())];
                let kind = if st.rng.below(4) < 3 { Kind::LoadReport } else { Kind::Predict };
                (kind, m)
            }
        };
        self.render(conn, kind, m, out);
        Some(kind)
    }
}

/// A [`Source`] over a stream's set-up reports.
pub struct Preload<'a>(pub &'a mut Stream);

impl Source for Preload<'_> {
    fn next(&mut self, conn: usize, out: &mut Vec<u8>) -> Option<Kind> {
        self.0.preload_next(conn, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(codec: Codec, bytes: &[u8]) -> Request {
        match codec {
            Codec::Binary => {
                let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
                assert_eq!(len + 4, bytes.len(), "one whole frame");
                binproto::decode_request(&bytes[4..]).expect("frame decodes")
            }
            Codec::Json => {
                let text = std::str::from_utf8(bytes).expect("utf-8");
                assert!(text.ends_with('\n'));
                serde_json::from_str(text.trim_end()).expect("line parses")
            }
        }
    }

    #[test]
    fn rendered_requests_decode_to_what_the_holes_say() {
        for w in WORKLOADS {
            for codec in [Codec::Binary, Codec::Json] {
                let w = Workload { codec, ..w };
                let mut s = Stream::new(&w, 11);
                let mut out = Vec::new();
                assert_eq!(s.preload_next(1, &mut out), Some(Kind::LoadReport));
                let Request::LoadReport(r) = decode(codec, &out) else { panic!("want a report") };
                assert_eq!(r.machine, "m00001");
                assert_eq!(r.at, 0.0);
                for _ in 0..200 {
                    out.clear();
                    let kind = s.next(0, &mut out).expect("endless stream");
                    let req = decode(codec, &out);
                    assert_eq!(req.kind(), kind.name());
                    let (machine, t) = match &req {
                        Request::LoadReport(r) => (&r.machine, r.at),
                        Request::Predict(q) => (&q.machine, q.now),
                        Request::DecideBatch(q) => (&q.machine, q.now),
                        Request::Rank(q) => (&q.machine, q.now),
                        other => panic!("unexpected {other:?}"),
                    };
                    let index: usize = machine[1..].parse().expect("numbered machine");
                    assert_eq!(index % CONNS, 0, "connection 0 only names its own machines");
                    assert!((0.0..1.0).contains(&t));
                }
            }
        }
    }

    #[test]
    fn streams_are_a_function_of_the_seed() {
        let w = find("mono-churn-json").expect("workload");
        let render = |seed| {
            let mut s = Stream::new(&w, seed);
            let mut out = Vec::new();
            for i in 0..500 {
                s.next(i % CONNS, &mut out);
            }
            out
        };
        assert_eq!(render(3), render(3));
        assert_ne!(render(3), render(4));
        assert_eq!(verify_requests(5, 300), verify_requests(5, 300));
    }

    #[test]
    fn preload_fills_every_window_then_stops() {
        let w = Workload { machines: 6, ..find("mono-warm-bin").expect("workload") };
        let mut s = Stream::new(&w, 1);
        let mut out = Vec::new();
        let mut n = 0;
        while s.preload_next(0, &mut out).is_some() {
            n += 1;
        }
        assert_eq!(n, 3 * PRELOAD_ROUNDS);
    }

    #[test]
    fn verify_requests_cover_every_kind() {
        let reqs = verify_requests(9, 2000);
        for kind in Kind::ALL {
            assert!(reqs.iter().any(|r| r.kind() == kind.name()), "{} missing", kind.name());
        }
    }
}
