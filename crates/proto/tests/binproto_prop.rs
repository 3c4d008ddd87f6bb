//! Binary-codec equivalence properties: for arbitrary protocol values
//! of every request and response kind, `proto::binproto` must
//! round-trip losslessly and carry exactly the same value as the JSON
//! codec — the decoded value serializes to a byte-identical JSON line,
//! so a mixed fleet (JSON schedulers next to binary ones) can never
//! observe codec-dependent answers. f64 fields travel as raw IEEE-754
//! little-endian bytes, so bit-exactness holds for every representable
//! finite value, not just round numbers.

use contention_model::dataset::DataSet;
use contention_model::predict::{ParagonTask, Placement, PlacementDecision};
use contention_model::units::secs;
use hetsched::eval::Schedule;
use proptest::prelude::*;
use proto::binproto::{
    self, check_request, check_response, decode_request, decode_response, encode_request,
    encode_response, Decoder, FrameError,
};
use proto::proto::{
    Ack, BackendStats, CacheStats, DecideBatch, Decisions, ErrorReply, GwStatsReply,
    LatencySummary, LoadReport, Predict, Prediction, Rank, Ranked, Request, RequestCounts,
    Response, ShardStats, StatsReply,
};

/// Names exercising ASCII, quotes, backslashes, and non-ASCII UTF-8 —
/// the binary codec carries raw UTF-8, so none of these need escaping.
fn name_pool() -> Vec<&'static str> {
    vec!["m0", "machine-17", "node.rack-3", "we\"ird", "back\\slash", "tab\there", "naïve", ""]
}

fn task_for(scale: f64, words: usize) -> ParagonTask {
    let words = words as u64;
    ParagonTask {
        dcomp_sun: secs(10.0 + scale),
        t_paragon: secs(0.5 + scale * 0.25),
        to_backend: vec![DataSet::burst(4, words), DataSet::single(words / 2 + 1)],
        from_backend: vec![DataSet::single(words)],
    }
}

fn decision_for(a: f64, b: f64, back: bool) -> PlacementDecision {
    PlacementDecision {
        t_front: secs(a),
        t_back: secs(b),
        c_to: secs(a * 0.125),
        c_from: secs(b * 0.5),
        placement: if back { Placement::BackEnd } else { Placement::FrontEnd },
    }
}

/// `(kind, name, a, b, c, n, words)` decoded into a request; the
/// vendored proptest has no `prop_oneof`, so kind is an integer.
type RawReq = (usize, &'static str, f64, f64, f64, usize, usize);

fn request_for(raw: &RawReq) -> Request {
    let (kind, name, a, b, c, n, words) = *raw;
    let machine = name.to_string();
    match kind {
        0 => Request::LoadReport(LoadReport { machine, at: a, load: b, comm_frac: c }),
        1 => Request::Predict(Predict {
            machine,
            now: a,
            task: task_for(b, words),
            j_words: words as u64,
        }),
        2 => Request::DecideBatch(DecideBatch {
            machine,
            now: a,
            tasks: (0..n).map(|i| task_for(b + i as f64, words + i)).collect(),
            j_words: words as u64,
        }),
        3 => Request::Stats,
        4 => Request::Shutdown,
        _ => Request::Rank(Rank {
            machine,
            now: a,
            workflow: hetsched::example::workflow(),
            front_end: 0,
            j_words: words as u64,
            limit: n,
        }),
    }
}

type RawResp = (usize, &'static str, f64, f64, u64, usize, usize);

fn response_for(raw: &RawResp) -> Response {
    let (kind, name, a, b, p, flip, n) = *raw;
    let back = flip == 1;
    match kind {
        0 => Response::Ack(Ack { machine: name.to_string(), accepted: back, p }),
        1 => Response::Prediction(Prediction {
            machine: name.to_string(),
            p,
            stale: back,
            forecaster: name.to_string(),
            cache_hit: !back,
            decision: decision_for(a, b, back),
        }),
        2 => Response::Decisions(Decisions {
            machine: name.to_string(),
            p,
            stale: !back,
            forecaster: name.to_string(),
            cache_hit: back,
            decisions: (0..n).map(|i| decision_for(a + i as f64, b, back)).collect(),
        }),
        3 => Response::Ranked(Ranked {
            machine: name.to_string(),
            p,
            stale: back,
            total: p * 2 + n as u64,
            schedules: (0..n)
                .map(|i| Schedule { assignment: vec![i, 0, 1], makespan: a + b * i as f64 })
                .collect(),
        }),
        4 => Response::Stats(StatsReply {
            requests: RequestCounts {
                load_report: p,
                predict: p + 1,
                decide_batch: 0,
                rank: n as u64,
                stats: 1,
                shutdown: 0,
            },
            cache: CacheStats { hits: p, misses: n as u64, hit_rate: a / (a + b + 1.0) },
            latency_us: LatencySummary { count: p, p50_us: 1, p99_us: p + 7, max_us: p + 9 },
            machines: n as u64,
            uptime_secs: b,
            shards: (0..n)
                .map(|i| ShardStats {
                    shard: i as u64,
                    machines: i as u64 + 1,
                    load_reports: p + i as u64,
                })
                .collect(),
        }),
        5 => Response::Ok,
        6 => Response::GwStats(GwStatsReply {
            backends: (0..n)
                .map(|i| BackendStats {
                    addr: format!("{name}:{}", 7000 + i),
                    healthy: (i + flip) % 2 == 0,
                    requests: p + i as u64,
                    failovers: i as u64,
                    replayed: p * i as u64,
                })
                .collect(),
            hits: p,
            misses: n as u64,
            failovers: p / 2,
            journal_frames: p + 1,
            journal_bytes: p * 64,
            uptime_secs: b,
        }),
        _ => Response::Error(ErrorReply { message: format!("bad {name}") }),
    }
}

/// The checker and the decoder agree on `body`.
fn agree(body: &[u8], check: fn(&[u8]) -> bool, decodes: fn(&[u8]) -> bool) -> bool {
    check(body) == decodes(body)
}

fn request_decodes(body: &[u8]) -> bool {
    decode_request(body).is_ok()
}

fn response_decodes(body: &[u8]) -> bool {
    decode_response(body).is_ok()
}

/// The first damaged copy of the valid `body` on which the checker and
/// the decoder disagree: every truncation, then every single-byte
/// mutation to a value that stresses a field — a boolean or placement
/// byte of 2, a count's high byte, an `f64` sign or exponent byte, a
/// broken UTF-8 byte, a neighbouring value.
fn first_disagreement(
    body: &[u8],
    check: fn(&[u8]) -> bool,
    decodes: fn(&[u8]) -> bool,
) -> Option<Vec<u8>> {
    if !check(body) || !decodes(body) {
        return Some(body.to_vec());
    }
    for cut in 0..body.len() {
        if !agree(&body[..cut], check, decodes) {
            return Some(body[..cut].to_vec());
        }
    }
    let mut damaged = body.to_vec();
    for i in 0..body.len() {
        let was = body[i];
        for v in
            [0, 1, 2, 0x7f, 0x80, 0xc3, 0xff, was ^ 1, was.wrapping_add(1), was.wrapping_sub(1)]
        {
            damaged[i] = v;
            if !agree(&damaged, check, decodes) {
                return Some(damaged);
            }
        }
        damaged[i] = was;
    }
    None
}

/// Every tag either codec knows, plus one neither does.
fn tag_pool() -> Vec<u8> {
    use binproto::*;
    vec![
        REQ_LOAD_REPORT,
        REQ_PREDICT,
        REQ_DECIDE_BATCH,
        REQ_RANK,
        REQ_STATS,
        REQ_SHUTDOWN,
        RESP_ACK,
        RESP_PREDICTION,
        RESP_DECISIONS,
        RESP_RANKED,
        RESP_STATS,
        RESP_OK,
        RESP_ERROR,
        RESP_GW_STATS,
        0x7f,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `check_request` is true exactly when `decode_request` succeeds:
    /// on every valid request, every truncation of it, and every
    /// single-byte mutation of it.
    #[test]
    fn check_request_agrees_with_decode(
        raw in (
            0..6usize,
            proptest::sample::select(name_pool()),
            0.0..1.0e6f64,
            0.0..64.0f64,
            0.0..1.0f64,
            0..4usize,
            1..5000usize,
        )
    ) {
        let req = request_for(&raw);
        let mut frame = Vec::new();
        prop_assert!(encode_request(&req, &mut frame));
        let bad = first_disagreement(&frame[4..], check_request, request_decodes);
        prop_assert!(bad.is_none(), "{} disagrees on {:02x?}", req.kind(), bad);
    }

    /// `check_response` is true exactly when `decode_response` succeeds,
    /// on the same valid, truncated, and mutated bodies.
    #[test]
    fn check_response_agrees_with_decode(
        raw in (
            0..8usize,
            proptest::sample::select(name_pool()),
            0.0..1.0e4f64,
            0.0..512.0f64,
            0..64u64,
            0..2usize,
            0..4usize,
        )
    ) {
        let resp = response_for(&raw);
        let mut frame = Vec::new();
        prop_assert!(encode_response(&resp, &mut frame));
        let bad = first_disagreement(&frame[4..], check_response, response_decodes);
        prop_assert!(bad.is_none(), "{} disagrees on {:02x?}", resp.kind(), bad);
    }

    /// Both checkers agree with their decoders on arbitrary bytes behind
    /// every known tag (and an unknown one).
    #[test]
    fn checkers_agree_with_decode_on_arbitrary_bytes(
        tag in proptest::sample::select(tag_pool()),
        tail in proptest::collection::vec(0..=255u8, 0..96),
    ) {
        let mut body = vec![tag];
        body.extend_from_slice(&tail);
        prop_assert!(agree(&body, check_request, request_decodes), "request {body:02x?}");
        prop_assert!(agree(&body, check_response, response_decodes), "response {body:02x?}");
        prop_assert!(agree(&tail, check_request, request_decodes), "request {tail:02x?}");
        prop_assert!(agree(&tail, check_response, response_decodes), "response {tail:02x?}");
    }

    /// Every request kind survives a binary round trip bit-identically:
    /// the decoded value equals the original and serializes to the same
    /// JSON bytes the JSON codec would have sent.
    #[test]
    fn binary_request_round_trip_matches_json(
        raw in (
            0..6usize,
            proptest::sample::select(name_pool()),
            0.0..1.0e6f64,
            0.0..64.0f64,
            0.0..1.0f64,
            1..4usize,
            1..5000usize,
        )
    ) {
        let req = request_for(&raw);
        let mut frame = Vec::new();
        prop_assert!(encode_request(&req, &mut frame), "encodable: {req:?}");
        let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
        prop_assert_eq!(frame.len(), 4 + len, "length prefix covers the body");
        let decoded = decode_request(&frame[4..]).expect("decode own encoding");
        prop_assert_eq!(&decoded, &req);
        let json_side = serde_json::to_string(&req).expect("json");
        let binary_side = serde_json::to_string(&decoded).expect("json");
        prop_assert_eq!(json_side, binary_side, "codecs must agree byte-for-byte");
    }

    /// Every response kind survives a binary round trip bit-identically
    /// and agrees with the JSON codec on the carried value.
    #[test]
    fn binary_response_round_trip_matches_json(
        raw in (
            0..8usize,
            proptest::sample::select(name_pool()),
            0.0..1.0e4f64,
            0.0..512.0f64,
            0..64u64,
            0..2usize,
            0..4usize,
        )
    ) {
        let resp = response_for(&raw);
        let mut frame = Vec::new();
        prop_assert!(encode_response(&resp, &mut frame), "encodable: {resp:?}");
        let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
        prop_assert_eq!(frame.len(), 4 + len, "length prefix covers the body");
        let decoded = decode_response(&frame[4..]).expect("decode own encoding");
        prop_assert_eq!(&decoded, &resp);
        let json_side = serde_json::to_string(&resp).expect("json");
        let binary_side = serde_json::to_string(&decoded).expect("json");
        prop_assert_eq!(json_side, binary_side, "codecs must agree byte-for-byte");
    }

    /// Truncating an encoded frame at any byte boundary never decodes —
    /// the bounds checks hold at every cut, not just the obvious ones.
    #[test]
    fn truncated_requests_never_decode(
        raw in (
            0..6usize,
            proptest::sample::select(name_pool()),
            0.0..1.0e6f64,
            0.0..64.0f64,
            0.0..1.0f64,
            1..3usize,
            1..500usize,
        ),
        cut in 0.0..1.0f64,
    ) {
        let req = request_for(&raw);
        let mut frame = Vec::new();
        prop_assert!(encode_request(&req, &mut frame));
        let body = &frame[4..];
        if body.len() > 1 {
            let at = 1 + ((body.len() - 1) as f64 * cut) as usize % (body.len() - 1);
            prop_assert!(decode_request(&body[..at]).is_err(), "cut at {at} of {}", body.len());
        }
    }
}

/// Task `i` of a ragged batch: data-set lists of varying lengths, so
/// task byte ranges differ in width.
fn ragged_task(i: usize, scale: f64, words: usize) -> ParagonTask {
    let words = (words + i) as u64;
    ParagonTask {
        dcomp_sun: secs(10.0 + scale + i as f64),
        t_paragon: secs(0.5 + scale * 0.25),
        to_backend: (0..i % 3).map(|k| DataSet::burst(k as u64 + 1, words)).collect(),
        from_backend: (0..(i + 1) % 2).map(|_| DataSet::single(words / 2 + 1)).collect(),
    }
}

/// A `decide_batch` frame body cut into chunks of `chunk_len` tasks the
/// way a fan-out cuts it: spans from `batch_tasks`, frames from
/// `encode_batch_chunk`.
fn split_batch(body: &[u8], chunk_len: usize) -> Vec<Vec<u8>> {
    let mut tasks = binproto::batch_tasks(body).expect("a decide_batch body");
    let mut chunks = Vec::new();
    while let Some(first) = tasks.next() {
        let count = chunk_len.min(tasks.remaining() + 1);
        let end = tasks.by_ref().take(count - 1).last().map_or(first.end, |t| t.end);
        let mut chunk = Vec::new();
        assert!(binproto::encode_batch_chunk(body, first.start..end, count, &mut chunk));
        chunks.push(chunk);
    }
    chunks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Splitting a batch's bytes is splitting its tasks: chunk `k`
    /// decodes to the `k`-th of `tasks.chunks(chunk_len)` of the decoded
    /// request, and is byte for byte that chunk's own encoding.
    #[test]
    fn split_chunks_are_the_encodings_of_the_task_chunks(
        raw in (
            proptest::sample::select(name_pool()),
            0.0..1.0e6f64,
            0.0..64.0f64,
            0..12usize,
            1..5000usize,
        ),
        chunk_len in 1..6usize,
    ) {
        let (name, now, scale, n, words) = raw;
        let req = Request::DecideBatch(DecideBatch {
            machine: name.to_string(),
            now,
            tasks: (0..n).map(|i| ragged_task(i, scale, words)).collect(),
            j_words: words as u64,
        });
        let mut frame = Vec::new();
        prop_assert!(encode_request(&req, &mut frame));
        let decoded = match decode_request(&frame[4..]) {
            Ok(Request::DecideBatch(q)) => q,
            other => return Err(TestCaseError::fail(format!("not a batch: {other:?}"))),
        };
        let chunks = split_batch(&frame[4..], chunk_len);
        prop_assert_eq!(chunks.len(), decoded.tasks.chunks(chunk_len).len());
        for (chunk, tasks) in chunks.iter().zip(decoded.tasks.chunks(chunk_len)) {
            let want = Request::DecideBatch(DecideBatch { tasks: tasks.to_vec(), ..decoded.clone() });
            prop_assert_eq!(&decode_request(&chunk[4..]).expect("a chunk decodes"), &want);
            let mut encoded = Vec::new();
            prop_assert!(encode_request(&want, &mut encoded));
            prop_assert_eq!(chunk, &encoded);
        }
    }

    /// Merging `decisions` frames as bytes is merging the values: the
    /// first frame's header (machine, `p`, `stale`, forecaster), the
    /// AND of every `cache_hit`, every decision in order. A frame that
    /// is not a `decisions` reply is refused and changes nothing.
    #[test]
    fn merged_frames_are_the_encoding_of_the_merged_value(
        parts in proptest::collection::vec(
            (proptest::sample::select(name_pool()), 0..64u64, 0..4usize, 0..5usize, 0.0..1.0e4f64),
            1..5,
        ),
    ) {
        let values: Vec<Decisions> = parts
            .iter()
            .map(|&(name, p, flags, n, a)| Decisions {
                machine: name.to_string(),
                p,
                stale: flags & 1 == 1,
                forecaster: format!("f-{name}"),
                cache_hit: flags & 2 == 2,
                decisions: (0..n).map(|i| decision_for(a + i as f64, 1.0, i % 2 == 0)).collect(),
            })
            .collect();
        let mut want = values[0].clone();
        for v in &values[1..] {
            want.cache_hit &= v.cache_hit;
            want.decisions.extend(v.decisions.iter().cloned());
        }
        let frames: Vec<Vec<u8>> = values
            .iter()
            .map(|v| {
                let mut f = Vec::new();
                assert!(encode_response(&Response::Decisions(v.clone()), &mut f));
                f
            })
            .collect();
        let mut merged = frames[0].clone();
        for f in &frames[1..] {
            prop_assert!(binproto::merge_decisions(&mut merged, f));
        }
        let mut expected = Vec::new();
        prop_assert!(encode_response(&Response::Decisions(want), &mut expected));
        prop_assert_eq!(&merged, &expected);

        let mut ack = Vec::new();
        prop_assert!(encode_response(&response_for(&(0, "m", 1.0, 1.0, 3, 0, 0)), &mut ack));
        prop_assert!(!binproto::merge_decisions(&mut merged, &ack));
        prop_assert!(!binproto::merge_decisions(&mut ack.clone(), &frames[0]));
        prop_assert_eq!(&merged, &expected);
    }
}

/// One frame of a decoder stream: what to encode —
/// `(kind, name, now, scale)` — and how to damage it —
/// `(tasks, words, damage, at, byte)`, where damage 0 leaves the frame
/// whole, 1 cuts it at `at` of its length, 2 overwrites the byte there
/// with `byte`, and 3 appends `byte` as a trailing byte.
type Step = ((usize, &'static str, f64, f64), (usize, usize, usize, f64, u8));

/// The frame body a step describes. Predicts and batches carry ragged
/// tasks, so data-set lists vary in length from frame to frame and a
/// batch's task count moves up and down along the stream.
fn step_body(step: &Step) -> Vec<u8> {
    let ((kind, name, now, scale), (tasks, words, damage, at, byte)) = *step;
    let machine = name.to_string();
    let req = match kind {
        1 => Request::Predict(Predict {
            machine,
            now,
            task: ragged_task(tasks, scale, words),
            j_words: words as u64,
        }),
        2 => Request::DecideBatch(DecideBatch {
            machine,
            now,
            tasks: (0..tasks).map(|i| ragged_task(i, scale, words)).collect(),
            j_words: words as u64,
        }),
        _ => request_for(&(kind, name, now, scale, scale / 64.0, tasks, words)),
    };
    let mut frame = Vec::new();
    assert!(encode_request(&req, &mut frame));
    let mut body = frame.split_off(4);
    let i = (body.len() as f64 * at) as usize % body.len();
    match damage {
        1 => body.truncate(i),
        2 => body[i] = byte,
        3 => body.push(byte),
        _ => {}
    }
    body
}

/// A decode's outcome in comparable form: the request re-encoded (so
/// f64 fields compare by their bits, NaNs included), or the error
/// message.
fn outcome(decoded: Result<&Request, FrameError>) -> Result<Vec<u8>, String> {
    match decoded {
        Ok(req) => {
            let mut frame = Vec::new();
            assert!(encode_request(req, &mut frame));
            Ok(frame)
        }
        Err(e) => Err(e.message),
    }
}

/// Bytes of room a decoded request's task vectors hold: the task list
/// and every task's data-set lists.
fn task_vec_bytes(req: &Request) -> usize {
    let lists = |t: &ParagonTask| {
        (t.to_backend.capacity() + t.from_backend.capacity()) * std::mem::size_of::<DataSet>()
    };
    match req {
        Request::DecideBatch(q) => {
            q.tasks.capacity() * std::mem::size_of::<ParagonTask>()
                + q.tasks.iter().map(lists).sum::<usize>()
        }
        Request::Predict(q) => lists(&q.task),
        _ => 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One reused `Decoder` answers every frame of a stream exactly as
    /// a fresh `decode_request` does — the same request or the same
    /// error message — including the frame right after a failed decode
    /// left its kind's slot half-written. After each frame, the task
    /// vectors of its slot hold at most 16 × its body + 512 bytes.
    #[test]
    fn a_reused_decoder_decodes_like_decode_request(
        steps in proptest::collection::vec(
            (
                (
                    0..6usize,
                    proptest::sample::select(name_pool()),
                    0.0..1.0e6f64,
                    0.0..64.0f64,
                ),
                (0..9usize, 1..500usize, 0..4usize, 0.0..1.0f64, 0..=255u8),
            ),
            1..32,
        ),
    ) {
        let mut decoder = Decoder::new();
        for (i, step) in steps.iter().enumerate() {
            let body = step_body(step);
            let fresh = outcome(decode_request(&body).as_ref().map_err(Clone::clone));
            let reused = decoder.decode_request_into(&body);
            if let Ok(req) = &reused {
                prop_assert!(task_vec_bytes(req) <= 16 * body.len() + 512, "frame {} of {:?}", i, step);
            }
            prop_assert_eq!(outcome(reused), fresh, "frame {} of {:?}", i, step);
        }
    }
}

/// A batch slot that grows, shrinks, fails half-way and grows again
/// still decodes every frame to exactly what `decode_request` does.
#[test]
fn a_batch_slot_survives_growing_shrinking_and_failing() {
    let batch = |n: usize, words: usize| {
        let req = Request::DecideBatch(DecideBatch {
            machine: format!("m{n}"),
            now: n as f64,
            tasks: (0..n).map(|i| ragged_task(i, 1.5, words)).collect(),
            j_words: 500,
        });
        let mut frame = Vec::new();
        assert!(encode_request(&req, &mut frame));
        frame.split_off(4)
    };
    let eight = batch(8, 300);
    let mut failing = batch(5, 7);
    failing.truncate(failing.len() / 2 + 3);
    let mut decoder = Decoder::new();
    for body in [eight.clone(), batch(3, 40), batch(1, 9), failing, batch(2, 1), eight, batch(0, 1)]
    {
        let fresh = outcome(decode_request(&body).as_ref().map_err(Clone::clone));
        assert_eq!(outcome(decoder.decode_request_into(&body)), fresh);
    }
}

/// Frame `k` carries `k` tasks with no data sets except the last, which
/// carries 4096. Each task position once held a large list, but the
/// slot keeps a fixed multiple of the last frame, not one large list
/// per position, and decodes every frame as `decode_request` does.
#[test]
fn a_batch_slot_keeps_a_fixed_multiple_of_its_last_frame() {
    let bare = ParagonTask {
        dcomp_sun: secs(1.0),
        t_paragon: secs(1.0),
        to_backend: Vec::new(),
        from_backend: Vec::new(),
    };
    let mut decoder = Decoder::new();
    for k in 1..=64 {
        let mut tasks = vec![bare.clone(); k];
        tasks[k - 1].to_backend = vec![DataSet::single(7); 4096];
        let req = Request::DecideBatch(DecideBatch {
            machine: "m".into(),
            now: 1.0,
            tasks,
            j_words: 500,
        });
        let mut frame = Vec::new();
        assert!(encode_request(&req, &mut frame));
        let body = frame.split_off(4);
        let fresh = outcome(decode_request(&body).as_ref().map_err(Clone::clone));
        let reused = decoder.decode_request_into(&body).expect("a valid batch");
        let kept = task_vec_bytes(reused);
        assert!(
            kept <= 16 * body.len() + 512,
            "frame {k}: {kept} bytes kept for a {}-byte body",
            body.len()
        );
        assert_eq!(outcome(Ok(reused)), fresh, "frame {k}");
    }
}
