//! A warm binary request costs the service no heap allocation: one
//! event loop's [`Slots`] decode each frame into the slot of its kind
//! and answer into the matching reply slot, reusing the capacity that
//! kind's last frame left there. After the first frame of each kind, a
//! warm machine's `load_report`, `predict` and 8-task `decide_batch`
//! allocate nothing. The slots change no byte of any reply: over a mixed
//! stream, every reply frame equals the one the owning path builds from
//! `decode_request` and `Service::handle`. Allocations are counted with
//! a global allocator that counts this thread's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use contention_model::dataset::DataSet;
use contention_model::predict::ParagonTask;
use contention_model::units::secs;
use predictd::binproto::{decode_request, decode_response, encode_request, encode_response};
use predictd::proto::{DecideBatch, LatencySummary, LoadReport, Predict, Rank, Request, Response};
use predictd::{Service, ServiceConfig, Slots};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every call to the system allocator unchanged; the
// counter is a const-initialized thread-local with no destructor, so
// touching it cannot allocate or re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn task(i: usize) -> ParagonTask {
    let k = i as u64;
    ParagonTask {
        dcomp_sun: secs(30.0 + i as f64),
        t_paragon: secs(6.0),
        to_backend: vec![DataSet::burst(10, 2000 + k); 1 + i % 2],
        from_backend: vec![DataSet::single(1000 + k)],
    }
}

fn report(machine: &str, at: f64, load: f64, comm_frac: f64) -> Request {
    Request::LoadReport(LoadReport { machine: machine.to_string(), at, load, comm_frac })
}

fn predict(machine: &str, now: f64, i: usize) -> Request {
    Request::Predict(Predict { machine: machine.to_string(), now, task: task(i), j_words: 500 })
}

fn batch(machine: &str, now: f64, n: usize) -> Request {
    Request::DecideBatch(DecideBatch {
        machine: machine.to_string(),
        now,
        tasks: (0..n).map(task).collect(),
        j_words: 500,
    })
}

/// The frame body (length prefix stripped) of `req`.
fn body(req: &Request) -> Vec<u8> {
    let mut frame = Vec::new();
    assert!(encode_request(req, &mut frame));
    frame.split_off(4)
}

#[test]
fn warm_binary_requests_allocate_nothing() {
    let service = Service::with_default_predictor(ServiceConfig::default());
    let mut slots = Slots::new();
    let mut out = Vec::with_capacity(1 << 16);
    // A constant load, with the communication fraction left as it is,
    // keeps the forecast's shape, so every query after the first is a
    // warm cache hit on the shard read-lock path.
    let rounds: Vec<[Vec<u8>; 3]> = (0..200)
        .map(|t| {
            let at = f64::from(t);
            [
                body(&report("warm", at, 3.0, -1.0)),
                body(&predict("warm", at + 0.5, t as usize % 4)),
                body(&batch("warm", at + 0.75, 8)),
            ]
        })
        .collect();
    // The first frame of each kind fills its slots.
    for frame in &rounds[0] {
        out.clear();
        slots.handle_frame_into(&service, frame, &mut out);
    }
    let mut replies = [0u64; 3];
    for round in &rounds[1..] {
        for (kind, frame) in round.iter().enumerate() {
            out.clear();
            let before = ALLOCATIONS.with(Cell::get);
            assert!(!slots.handle_frame_into(&service, frame, &mut out));
            replies[kind] += ALLOCATIONS.with(Cell::get) - before;
        }
    }
    assert_eq!(replies, [0, 0, 0], "allocations per (load_report, predict, decide_batch)");
}

/// A tiny deterministic generator (xorshift64*), so the stream is the
/// same on every run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> usize {
        usize::try_from(self.next() % n).unwrap_or(0)
    }
}

/// A seeded mixed stream of frame bodies: every request kind (a
/// `shutdown` only raises the handler's flag in process), warm,
/// stale and unknown machines, invalid `now`/`at`, bad frames, and
/// batches of 8, 3 and 1 tasks.
fn mixed_stream(seed: u64, len: usize) -> Vec<Vec<u8>> {
    let mut rng = Rng(seed);
    let machines = ["m0", "m1", "m2", "ghost"];
    let mut frames = Vec::with_capacity(len);
    for i in 0..len {
        let t = i as f64 * 0.25;
        let m = machines[rng.below(4)];
        // Machine "ghost" never reports, so it stays unknown.
        let frame = match rng.below(12) {
            0..=2 if m != "ghost" => {
                let frac = if rng.below(2) == 0 { -1.0 } else { 0.25 };
                body(&report(m, t, (rng.below(4) * 2) as f64, frac))
            }
            0..=2 => body(&predict(m, t, i)),
            3..=5 => body(&predict(m, t, i % 5)),
            6 => body(&batch(m, t, [8, 3, 1][rng.below(3)])),
            // Far past the 10 s horizon: the stale dedicated answer.
            7 => body(&predict(m, t + 1000.0, i % 3)),
            8 => match rng.below(3) {
                0 => body(&predict(m, f64::NAN, 1)),
                1 => body(&batch(m, -1.0, 3)),
                _ => body(&report(m, f64::INFINITY, 1.0, -1.0)),
            },
            9 => {
                let mut bad = body(&batch(m, t, 3));
                bad.truncate(bad.len() - 1 - rng.below(20));
                bad
            }
            10 => match rng.below(4) {
                0 => body(&Request::Stats),
                1 => body(&Request::Shutdown),
                2 => vec![0x7f, 1, 2],
                _ => Vec::new(),
            },
            _ => body(&Request::Rank(Rank {
                machine: m.to_string(),
                now: t,
                workflow: hetsched::example::workflow(),
                front_end: 0,
                j_words: 500,
                limit: rng.below(3),
            })),
        };
        frames.push(frame);
    }
    frames
}

/// A reply frame with the figures that depend on wall-clock time —
/// a `stats` reply's uptime and latency summary — zeroed.
fn timeless(frame: &[u8]) -> Vec<u8> {
    let mut reply = decode_response(&frame[4..]).expect("a reply frame");
    if let Response::Stats(s) = &mut reply {
        s.uptime_secs = 0.0;
        s.latency_us = LatencySummary { count: 0, p50_us: 0, p99_us: 0, max_us: 0 };
    }
    let mut out = Vec::new();
    assert!(encode_response(&reply, &mut out));
    out
}

#[test]
fn slot_replies_are_byte_identical_to_the_owning_path() {
    for seed in [1, 7, 23] {
        let frames = mixed_stream(seed, 3000);
        let (slotted, owned) = (
            Service::with_default_predictor(ServiceConfig::default()),
            Service::with_default_predictor(ServiceConfig::default()),
        );
        let mut slots = Slots::new();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut kinds = std::collections::BTreeSet::new();
        for (i, frame) in frames.iter().enumerate() {
            got.clear();
            want.clear();
            let stop = slots.handle_frame_into(&slotted, frame, &mut got);
            let (resp, want_stop) = match decode_request(frame) {
                Ok(req) => owned.handle(&req),
                Err(e) => (Response::error(format!("bad frame: {e}")), false),
            };
            assert!(encode_response(&resp, &mut want));
            assert_eq!(stop, want_stop, "seed {seed}, frame {i}: shutdown flag");
            kinds.insert(resp.kind());
            if matches!(resp, Response::Stats(_)) {
                assert_eq!(timeless(&got), timeless(&want), "seed {seed}, frame {i}");
            } else {
                assert_eq!(got, want, "seed {seed}, frame {i}: {resp:?}");
            }
        }
        let all = ["ack", "prediction", "decisions", "ranked", "stats", "ok", "error"];
        assert!(all.iter().all(|k| kinds.contains(k)), "seed {seed} covered only {kinds:?}");
    }
}
