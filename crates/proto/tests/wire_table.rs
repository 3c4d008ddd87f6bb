//! The DESIGN.md §8 wire table against the code: one sample of every
//! `Request` and `Response` variant goes through the JSON and binary
//! codecs, and each table row must say what the codecs did with it —
//! the direction, the binary tag byte, and whether the JSON fast path
//! parsed/wrote the sample or declined it. Every sample also survives
//! both round-trips bit-exactly, and no row names a kind without a
//! sample.

use contention_model::dataset::DataSet;
use contention_model::predict::{ParagonTask, Placement, PlacementDecision};
use contention_model::units::secs;
use hetsched::eval::Schedule;
use proto::proto::{
    Ack, BackendStats, CacheStats, DecideBatch, Decisions, ErrorReply, GwStatsReply,
    LatencySummary, LoadReport, Predict, Prediction, Rank, Ranked, Request, RequestCounts,
    Response, ShardStats, StatsReply,
};
use proto::{binproto, codec};

const DESIGN: &str = include_str!("../../../DESIGN.md");

/// The §8 table's header line; its rows follow the separator line.
const HEADER: &str = "| kind | direction | payload | fast path | binary tag |";

/// `vec![…]` of one sample per listed variant of `$enum`. The `match`
/// has no wildcard, so a variant added to the enum does not compile
/// until it is listed here, and each sample must be the variant it is
/// listed as.
macro_rules! one_of_each {
    ($enum:ident { $($variant:ident => $sample:expr,)+ }) => {{
        let samples = vec![$($sample),+];
        for (sample, listed) in samples.iter().zip([$(stringify!($variant)),+]) {
            let variant = match sample {
                $($enum::$variant { .. } => stringify!($variant),)+
            };
            assert_eq!(variant, listed, "the sample listed as {listed} is {sample:?}");
        }
        samples
    }};
}

fn task() -> ParagonTask {
    ParagonTask {
        dcomp_sun: secs(30.0),
        t_paragon: secs(6.0),
        to_backend: vec![DataSet::burst(10, 2000), DataSet::single(4)],
        from_backend: vec![DataSet::single(1000)],
    }
}

fn decision() -> PlacementDecision {
    PlacementDecision {
        t_front: secs(41.5),
        t_back: secs(6.0),
        c_to: secs(1.25),
        c_from: secs(0.75),
        placement: Placement::BackEnd,
    }
}

fn requests() -> Vec<Request> {
    one_of_each!(Request {
        LoadReport => Request::LoadReport(LoadReport {
            machine: "m0".to_string(),
            at: 12.5,
            load: 3.0,
            comm_frac: -1.0,
        }),
        Predict => Request::Predict(Predict {
            machine: "m0".to_string(),
            now: 13.0,
            task: task(),
            j_words: 500,
        }),
        DecideBatch => Request::DecideBatch(DecideBatch {
            machine: "m0".to_string(),
            now: 13.0,
            tasks: vec![task(), task()],
            j_words: 0,
        }),
        Rank => Request::Rank(Rank {
            machine: "m0".to_string(),
            now: 1.0,
            workflow: hetsched::example::workflow(),
            front_end: 0,
            j_words: 500,
            limit: 10,
        }),
        Stats => Request::Stats,
        Shutdown => Request::Shutdown,
    })
}

fn responses() -> Vec<Response> {
    one_of_each!(Response {
        Ack => Response::Ack(Ack { machine: "m0".to_string(), accepted: true, p: 3 }),
        Prediction => Response::Prediction(Prediction {
            machine: "m0".to_string(),
            p: 3,
            stale: false,
            forecaster: "ewma0.30".to_string(),
            cache_hit: true,
            decision: decision(),
        }),
        Decisions => Response::Decisions(Decisions {
            machine: "m0".to_string(),
            p: 3,
            stale: true,
            forecaster: "dedicated".to_string(),
            cache_hit: false,
            decisions: vec![decision(), decision()],
        }),
        Ranked => Response::Ranked(Ranked {
            machine: "m0".to_string(),
            p: 1,
            stale: false,
            total: 4,
            schedules: vec![Schedule { assignment: vec![0, 1], makespan: 23.5 }],
        }),
        Stats => Response::Stats(StatsReply {
            requests: RequestCounts {
                load_report: 5,
                predict: 4,
                decide_batch: 3,
                rank: 2,
                stats: 1,
                shutdown: 0,
            },
            cache: CacheStats { hits: 6, misses: 2, hit_rate: 0.75 },
            latency_us: LatencySummary { count: 15, p50_us: 8, p99_us: 128, max_us: 97 },
            machines: 2,
            uptime_secs: 12.5,
            shards: vec![
                ShardStats { shard: 0, machines: 1, load_reports: 3 },
                ShardStats { shard: 1, machines: 1, load_reports: 2 },
            ],
        }),
        GwStats => Response::GwStats(GwStatsReply {
            backends: vec![
                BackendStats {
                    addr: "127.0.0.1:7171".to_string(),
                    healthy: true,
                    requests: 41,
                    failovers: 0,
                    replayed: 0,
                },
                BackendStats {
                    addr: "127.0.0.1:7172".to_string(),
                    healthy: false,
                    requests: 17,
                    failovers: 3,
                    replayed: 24,
                },
            ],
            hits: 50,
            misses: 5,
            failovers: 3,
            journal_frames: 25,
            journal_bytes: 1912,
            uptime_secs: 99.5,
        }),
        Ok => Response::Ok,
        Error => Response::Error(ErrorReply { message: "nope \"quoted\"".to_string() }),
    })
}

/// What the codecs did with one sample, in the §8 table's terms.
#[derive(Debug)]
struct Observed {
    kind: &'static str,
    direction: &'static str,
    tag: u8,
    /// The JSON fast path parsed (request) or wrote (response) it.
    fast: bool,
}

/// One §8 row, cells with their backticks stripped.
#[derive(Debug)]
struct Row {
    kind: String,
    direction: String,
    fast_path: String,
    tag: String,
}

fn table() -> Vec<Row> {
    let rows: Vec<Row> = DESIGN
        .lines()
        .skip_while(|l| l.trim() != HEADER)
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .map(|line| {
            let cells: Vec<&str> =
                line.trim_matches('|').split('|').map(|c| c.trim().trim_matches('`')).collect();
            let [kind, direction, _payload, fast_path, tag] = cells[..] else {
                panic!("a §8 row without five cells: {line}");
            };
            Row {
                kind: kind.to_string(),
                direction: direction.to_string(),
                fast_path: fast_path.to_string(),
                tag: tag.to_string(),
            }
        })
        .collect();
    assert!(!rows.is_empty(), "no rows under {HEADER:?} in DESIGN.md");
    rows
}

/// The `"kind"` tag of a serialized message.
fn json_kind(line: &str) -> String {
    match serde_json::from_str::<serde::Value>(line).expect(line).get("kind") {
        Some(serde::Value::Str(kind)) => kind.clone(),
        other => panic!("{line}: kind tag {other:?}"),
    }
}

/// The tag byte of a whole frame, after checking its length prefix.
fn frame_tag(frame: &[u8]) -> u8 {
    let (len, body) = frame.split_at(4);
    let len = u32::from_le_bytes(len.try_into().expect("4 bytes"));
    assert_eq!(usize::try_from(len).ok(), Some(body.len()), "length prefix of {frame:?}");
    body[0]
}

fn observe_request(req: &Request) -> Observed {
    let line = serde_json::to_string(req).expect("encode");
    assert_eq!(&serde_json::from_str::<Request>(&line).expect(&line), req, "{line}");
    assert_eq!(json_kind(&line), req.kind(), "{line}");
    let mut frame = Vec::new();
    assert!(binproto::encode_request(req, &mut frame), "{req:?}");
    assert_eq!(&binproto::decode_request(&frame[4..]).expect("decode"), req);
    let parsed = codec::parse_request(&line);
    if let Some(parsed) = &parsed {
        assert_eq!(parsed, req, "the fast path parsed {line} differently");
    }
    Observed {
        kind: req.kind(),
        direction: "request",
        tag: frame_tag(&frame),
        fast: parsed.is_some(),
    }
}

fn observe_response(resp: &Response) -> Observed {
    let line = serde_json::to_string(resp).expect("encode");
    assert_eq!(&serde_json::from_str::<Response>(&line).expect(&line), resp, "{line}");
    assert_eq!(json_kind(&line), resp.kind(), "{line}");
    let mut frame = Vec::new();
    assert!(binproto::encode_response(resp, &mut frame), "{resp:?}");
    assert_eq!(&binproto::decode_response(&frame[4..]).expect("decode"), resp);
    let mut written = String::new();
    let fast = codec::write_response(resp, &mut written);
    if fast {
        assert_eq!(written, line, "the fast path wrote {} differently", resp.kind());
    }
    Observed { kind: resp.kind(), direction: "response", tag: frame_tag(&frame), fast }
}

fn observed() -> Vec<Observed> {
    requests().iter().map(observe_request).chain(responses().iter().map(observe_response)).collect()
}

#[test]
fn every_kind_has_one_row_saying_what_the_codecs_do() {
    let rows = table();
    for seen in observed() {
        let matching: Vec<&Row> =
            rows.iter().filter(|r| r.kind == seen.kind && r.direction == seen.direction).collect();
        let [row] = matching[..] else {
            panic!("{} §8 rows for {seen:?}: {matching:?}", matching.len());
        };
        assert_eq!(row.tag, format!("0x{:02x}", seen.tag), "binary tag of {seen:?}");
        let handled = if seen.direction == "request" { "parsed" } else { "written" };
        match row.fast_path.as_str() {
            cell if cell == handled => assert!(seen.fast, "{seen:?} declined, row says {cell}"),
            cell if cell.starts_with("declined") => {
                assert!(!seen.fast, "{seen:?} took the fast path, row says {cell}")
            }
            cell => panic!("fast path cell {cell:?} for {seen:?}: want {handled} or declined …"),
        }
    }
}

#[test]
fn every_row_names_a_kind_with_a_sample() {
    let seen = observed();
    for row in table() {
        assert!(
            seen.iter().any(|s| s.kind == row.kind && s.direction == row.direction),
            "the §8 table documents a {} {:?} the protocol does not have",
            row.direction,
            row.kind
        );
    }
}
