//! Length-prefixed binary wire codec for the predictd protocol.
//!
//! The binary encoding is the newline-JSON protocol's fast sibling: the
//! same [`Request`]/[`Response`] values, fixed little-endian layouts
//! instead of text. A connection opts in by sending the 4-byte
//! [`PREAMBLE`] immediately after connect; because the magic byte
//! `0xBD` can never start a JSON line (`{`), the server sniffs the
//! first byte and keeps newline-JSON as the untouched compatibility
//! surface.
//!
//! **Framing.** After the preamble, both directions carry frames:
//!
//! ```text
//! [u32 LE body_len][u8 tag][payload…]      body_len = 1 + payload len
//! ```
//!
//! **Primitives.** All integers little-endian. `f64` is the IEEE-754
//! bit pattern (8 bytes LE), so values survive the wire bit-exactly —
//! the property the round-trip proptests pin against the JSON codec.
//! Strings are `u32` byte length + UTF-8 bytes. Booleans are one byte,
//! strictly `0` or `1`. Vectors are `u32` element count + elements;
//! decoders bound the count by the bytes actually remaining in the
//! frame before allocating, so a hostile length field cannot balloon
//! memory past the frame cap.
//!
//! **Tag table.** One frame kind per protocol kind; the wire tag of a
//! response has the high bit set.
//!
//! | kind | direction | tag |
//! |---|---|---|
//! | `load_report` | request | [`REQ_LOAD_REPORT`] |
//! | `predict` | request | [`REQ_PREDICT`] |
//! | `decide_batch` | request | [`REQ_DECIDE_BATCH`] |
//! | `rank` | request | [`REQ_RANK`] |
//! | `stats` | request | [`REQ_STATS`] |
//! | `shutdown` | request | [`REQ_SHUTDOWN`] |
//! | `ack` | response | [`RESP_ACK`] |
//! | `prediction` | response | [`RESP_PREDICTION`] |
//! | `decisions` | response | [`RESP_DECISIONS`] |
//! | `ranked` | response | [`RESP_RANKED`] |
//! | `stats` | response | [`RESP_STATS`] |
//! | `gw_stats` | response | [`RESP_GW_STATS`] |
//! | `ok` | response | [`RESP_OK`] |
//! | `error` | response | [`RESP_ERROR`] |
//!
//! **Checking without decoding.** [`check_request`] and
//! [`check_response`] walk the same layouts as [`decode_request`] and
//! [`decode_response`], under the same limits, but build no value and
//! allocate nothing; each is true exactly when its decoder would
//! succeed. A relay uses them to vouch for a frame it forwards as
//! bytes, and [`request_machine`] to read the one field it routes by.
//! A relay that fans a `decide_batch` out splits it the same way:
//! [`batch_tasks`] yields each task's byte range, [`encode_batch_chunk`]
//! copies a run of them behind the batch's header into a frame of its
//! own, and [`merge_decisions`] joins the chunks' `decisions` replies
//! into one frame — bit-identical to encoding the merged value.
//!
//! **Decoding into reused slots.** A [`Decoder`] decodes each request
//! frame into a slot of its kind, reusing the `String`/`Vec` capacity
//! that kind's last frame left there; [`decode_request`] is the same
//! walk into an empty slot, so both return the same value or the same
//! error for every body.
//!
//! Byte-offset layouts per kind are documented in DESIGN.md §8; this
//! module is the source of truth, and `tests/wire_table.rs` holds the
//! DESIGN table's tag bytes to the frames it encodes.

use crate::proto::{
    Ack, BackendStats, CacheStats, DecideBatch, Decisions, ErrorReply, GwStatsReply,
    LatencySummary, LoadReport, Predict, Prediction, Rank, Ranked, Request, RequestCounts,
    Response, ShardStats, StatsReply,
};
use contention_model::dataset::DataSet;
use contention_model::predict::{ParagonTask, Placement, PlacementDecision};
use contention_model::units::Seconds;
use hetsched::eval::Schedule;
use hetsched::task::{Matrix, Task, Workflow};

/// First preamble byte. Deliberately outside ASCII and unequal to `{`
/// (0x7B), so one-byte sniffing separates binary clients from JSON.
pub const MAGIC: u8 = 0xBD;

/// Wire version negotiated by the preamble. Bumped on any layout
/// change; a server that does not speak the offered version must reject
/// the connection rather than guess.
pub(crate) const VERSION: u8 = 0x01;

/// The 4-byte connection preamble a binary client sends after connect:
/// magic, `b"PD"`, version.
pub const PREAMBLE: [u8; 4] = [MAGIC, b'P', b'D', VERSION];

/// Frame tag: `load_report` request.
pub const REQ_LOAD_REPORT: u8 = 0x01;
/// Frame tag: `predict` request.
pub const REQ_PREDICT: u8 = 0x02;
/// Frame tag: `decide_batch` request.
pub const REQ_DECIDE_BATCH: u8 = 0x03;
/// Frame tag: `rank` request.
pub const REQ_RANK: u8 = 0x04;
/// Frame tag: `stats` request.
pub const REQ_STATS: u8 = 0x05;
/// Frame tag: `shutdown` request.
pub const REQ_SHUTDOWN: u8 = 0x06;

/// Frame tag: `ack` response.
pub const RESP_ACK: u8 = 0x81;
/// Frame tag: `prediction` response.
pub const RESP_PREDICTION: u8 = 0x82;
/// Frame tag: `decisions` response.
pub const RESP_DECISIONS: u8 = 0x83;
/// Frame tag: `ranked` response.
pub const RESP_RANKED: u8 = 0x84;
/// Frame tag: `stats` response.
pub const RESP_STATS: u8 = 0x85;
/// Frame tag: `ok` response.
pub const RESP_OK: u8 = 0x86;
/// Frame tag: `error` response.
pub const RESP_ERROR: u8 = 0x87;
/// Frame tag: `gw_stats` response (gateway metrics snapshot). Tags are
/// append-only, so the gateway's addition sits after `error`.
pub const RESP_GW_STATS: u8 = 0x88;

/// Why a frame failed to decode. The message is safe to echo to the
/// peer inside an `error` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError {
    /// What was malformed.
    pub message: String,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for FrameError {}

fn err(message: impl Into<String>) -> FrameError {
    FrameError { message: message.into() }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Builds one frame in `out`: reserves the length prefix, writes tag
/// and payload, patches the prefix on `finish`. Length-field overflow
/// (a string or vector too large for `u32`) flips `ok`; `finish` then
/// rolls `out` back to where the frame began and reports failure.
struct FrameWriter<'a> {
    out: &'a mut Vec<u8>,
    start: usize,
    ok: bool,
}

impl<'a> FrameWriter<'a> {
    fn begin(out: &'a mut Vec<u8>, tag: u8) -> Self {
        let start = out.len();
        out.extend_from_slice(&[0, 0, 0, 0, tag]);
        FrameWriter { out, start, ok: true }
    }

    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn boolean(&mut self, v: bool) {
        self.out.push(u8::from(v));
    }

    fn secs(&mut self, v: Seconds) {
        self.f64(v.get());
    }

    /// Writes a `u32` length/count field; overflow marks the frame bad.
    fn len32(&mut self, n: usize) {
        match u32::try_from(n) {
            Ok(v) => self.u32(v),
            Err(_) => {
                self.ok = false;
                self.u32(0);
            }
        }
    }

    fn str(&mut self, s: &str) {
        self.len32(s.len());
        self.out.extend_from_slice(s.as_bytes());
    }

    fn datasets(&mut self, sets: &[DataSet]) {
        self.len32(sets.len());
        for d in sets {
            self.u64(d.messages);
            self.u64(d.words);
        }
    }

    fn task(&mut self, t: &ParagonTask) {
        self.secs(t.dcomp_sun);
        self.secs(t.t_paragon);
        self.datasets(&t.to_backend);
        self.datasets(&t.from_backend);
    }

    fn matrix(&mut self, m: &Matrix) {
        let n = m.size();
        self.len32(n);
        for from in 0..n {
            for to in 0..n {
                self.f64(m.get(from, to));
            }
        }
    }

    fn workflow(&mut self, w: &Workflow) {
        self.len32(w.tasks.len());
        for t in &w.tasks {
            self.str(&t.name);
            self.len32(t.exec.len());
            for &x in &t.exec {
                self.f64(x);
            }
            match &t.comm_to_next {
                None => self.u8(0),
                Some(m) => {
                    self.u8(1);
                    self.matrix(m);
                }
            }
        }
    }

    fn decision(&mut self, d: &PlacementDecision) {
        self.secs(d.t_front);
        self.secs(d.t_back);
        self.secs(d.c_to);
        self.secs(d.c_from);
        self.u8(match d.placement {
            Placement::FrontEnd => 0,
            Placement::BackEnd => 1,
        });
    }

    fn finish(self) -> bool {
        let body = self.out.len() - self.start - 4;
        match (self.ok, u32::try_from(body)) {
            (true, Ok(len)) => {
                let prefix = len.to_le_bytes();
                self.out[self.start..self.start + 4].copy_from_slice(&prefix);
                true
            }
            _ => {
                self.out.truncate(self.start);
                false
            }
        }
    }
}

/// Usize fields travel as `u64` so the layout is the same on every
/// platform.
fn wire_u64(v: usize) -> u64 {
    v as u64
}

/// Appends `req` to `out` as one complete frame (length prefix
/// included). Returns `false` — leaving `out` as it was — only if a
/// length field overflows `u32`, which no request that fits in memory
/// can trigger in practice.
pub fn encode_request(req: &Request, out: &mut Vec<u8>) -> bool {
    match req {
        Request::LoadReport(r) => {
            let mut w = FrameWriter::begin(out, REQ_LOAD_REPORT);
            w.str(&r.machine);
            w.f64(r.at);
            w.f64(r.load);
            w.f64(r.comm_frac);
            w.finish()
        }
        Request::Predict(r) => {
            let mut w = FrameWriter::begin(out, REQ_PREDICT);
            w.str(&r.machine);
            w.f64(r.now);
            w.task(&r.task);
            w.u64(r.j_words);
            w.finish()
        }
        Request::DecideBatch(r) => {
            let mut w = FrameWriter::begin(out, REQ_DECIDE_BATCH);
            w.str(&r.machine);
            w.f64(r.now);
            w.len32(r.tasks.len());
            for t in &r.tasks {
                w.task(t);
            }
            w.u64(r.j_words);
            w.finish()
        }
        Request::Rank(r) => {
            let mut w = FrameWriter::begin(out, REQ_RANK);
            w.str(&r.machine);
            w.f64(r.now);
            w.workflow(&r.workflow);
            w.u64(wire_u64(r.front_end));
            w.u64(r.j_words);
            w.u64(wire_u64(r.limit));
            w.finish()
        }
        Request::Stats => FrameWriter::begin(out, REQ_STATS).finish(),
        Request::Shutdown => FrameWriter::begin(out, REQ_SHUTDOWN).finish(),
    }
}

/// Appends `resp` to `out` as one complete frame. Same contract as
/// [`encode_request`].
pub fn encode_response(resp: &Response, out: &mut Vec<u8>) -> bool {
    match resp {
        Response::Ack(r) => {
            let mut w = FrameWriter::begin(out, RESP_ACK);
            w.str(&r.machine);
            w.boolean(r.accepted);
            w.u64(r.p);
            w.finish()
        }
        Response::Prediction(r) => {
            let mut w = FrameWriter::begin(out, RESP_PREDICTION);
            w.str(&r.machine);
            w.u64(r.p);
            w.boolean(r.stale);
            w.str(&r.forecaster);
            w.boolean(r.cache_hit);
            w.decision(&r.decision);
            w.finish()
        }
        Response::Decisions(r) => {
            let mut w = FrameWriter::begin(out, RESP_DECISIONS);
            w.str(&r.machine);
            w.u64(r.p);
            w.boolean(r.stale);
            w.str(&r.forecaster);
            w.boolean(r.cache_hit);
            w.len32(r.decisions.len());
            for d in &r.decisions {
                w.decision(d);
            }
            w.finish()
        }
        Response::Ranked(r) => {
            let mut w = FrameWriter::begin(out, RESP_RANKED);
            w.str(&r.machine);
            w.u64(r.p);
            w.boolean(r.stale);
            w.u64(r.total);
            w.len32(r.schedules.len());
            for s in &r.schedules {
                w.len32(s.assignment.len());
                for &a in &s.assignment {
                    w.u64(wire_u64(a));
                }
                w.f64(s.makespan);
            }
            w.finish()
        }
        Response::Stats(r) => {
            let mut w = FrameWriter::begin(out, RESP_STATS);
            w.u64(r.requests.load_report);
            w.u64(r.requests.predict);
            w.u64(r.requests.decide_batch);
            w.u64(r.requests.rank);
            w.u64(r.requests.stats);
            w.u64(r.requests.shutdown);
            w.u64(r.cache.hits);
            w.u64(r.cache.misses);
            w.f64(r.cache.hit_rate);
            w.u64(r.latency_us.count);
            w.u64(r.latency_us.p50_us);
            w.u64(r.latency_us.p99_us);
            w.u64(r.latency_us.max_us);
            w.u64(r.machines);
            w.f64(r.uptime_secs);
            w.len32(r.shards.len());
            for s in &r.shards {
                w.u64(s.shard);
                w.u64(s.machines);
                w.u64(s.load_reports);
            }
            w.finish()
        }
        Response::GwStats(r) => {
            let mut w = FrameWriter::begin(out, RESP_GW_STATS);
            w.len32(r.backends.len());
            for b in &r.backends {
                w.str(&b.addr);
                w.boolean(b.healthy);
                w.u64(b.requests);
                w.u64(b.failovers);
                w.u64(b.replayed);
            }
            w.u64(r.hits);
            w.u64(r.misses);
            w.u64(r.failovers);
            w.u64(r.journal_frames);
            w.u64(r.journal_bytes);
            w.f64(r.uptime_secs);
            w.finish()
        }
        Response::Ok => FrameWriter::begin(out, RESP_OK).finish(),
        Response::Error(r) => {
            let mut w = FrameWriter::begin(out, RESP_ERROR);
            w.str(&r.message);
            w.finish()
        }
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Bounds-checked cursor over one frame body. Every read validates the
/// remaining byte budget first; count fields are additionally checked
/// against `count × minimum-element-size ≤ remaining` before any
/// allocation.
struct Cur<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Cur<'a> {
    fn new(b: &'a [u8]) -> Self {
        Cur { b, i: 0 }
    }

    fn remaining(&self) -> usize {
        self.b.len() - self.i
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self.i.checked_add(n).ok_or_else(|| err("truncated frame"))?;
        let slice = self.b.get(self.i..end).ok_or_else(|| err("truncated frame"))?;
        self.i = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        let raw = self.take(4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(raw);
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        let raw = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(raw);
        Ok(u64::from_le_bytes(b))
    }

    fn f64(&mut self) -> Result<f64, FrameError> {
        let raw = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(raw);
        Ok(f64::from_le_bytes(b))
    }

    fn boolean(&mut self) -> Result<bool, FrameError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(err(format!("invalid boolean byte {v}"))),
        }
    }

    fn secs(&mut self, what: &str) -> Result<Seconds, FrameError> {
        let raw = self.f64()?;
        Seconds::try_new(raw).ok_or_else(|| err(format!("invalid {what}: {raw}")))
    }

    fn usize64(&mut self, what: &str) -> Result<usize, FrameError> {
        let raw = self.u64()?;
        usize::try_from(raw).map_err(|_| err(format!("{what} out of range: {raw}")))
    }

    /// Reads a count field and proves `count × min_elem` elements could
    /// still fit in the frame, so `Vec::with_capacity(count)` below it
    /// is bounded by the frame size the transport already capped.
    fn count(&mut self, min_elem: usize, what: &str) -> Result<usize, FrameError> {
        let n = self.u32()?;
        let n = usize::try_from(n).map_err(|_| err(format!("{what} count out of range: {n}")))?;
        let need = n.checked_mul(min_elem).ok_or_else(|| err("truncated frame"))?;
        if need > self.remaining() {
            return Err(err(format!("{what} count {n} exceeds frame")));
        }
        Ok(n)
    }

    fn str(&mut self, what: &str) -> Result<String, FrameError> {
        let mut s = String::new();
        self.str_into(what, &mut s)?;
        Ok(s)
    }

    /// Reads a string into `s`, reusing its capacity.
    fn str_into(&mut self, what: &str, s: &mut String) -> Result<(), FrameError> {
        let n = self.count(1, what)?;
        let raw = self.take(n)?;
        s.clear();
        s.push_str(std::str::from_utf8(raw).map_err(|_| err(format!("{what} is not UTF-8")))?);
        Ok(())
    }

    /// Reads a data-set list into `sets`, reusing its capacity.
    fn datasets_into(&mut self, sets: &mut Vec<DataSet>) -> Result<(), FrameError> {
        let n = self.count(16, "data set")?;
        fit(sets, n);
        sets.clear();
        for _ in 0..n {
            let messages = self.u64()?;
            let words = self.u64()?;
            sets.push(DataSet { messages, words });
        }
        Ok(())
    }

    /// Reads a task into `t`, reusing its data-set lists.
    fn task_into(&mut self, t: &mut ParagonTask) -> Result<(), FrameError> {
        t.dcomp_sun = self.secs("dcomp_sun")?;
        t.t_paragon = self.secs("t_paragon")?;
        self.datasets_into(&mut t.to_backend)?;
        self.datasets_into(&mut t.from_backend)
    }

    /// Reads a task list into `tasks`, reusing the tasks already there
    /// and their data-set lists.
    fn tasks_into(&mut self, tasks: &mut Vec<ParagonTask>) -> Result<(), FrameError> {
        let n = self.count(24, "task")?;
        fit(tasks, n);
        for i in 0..n {
            match tasks.get_mut(i) {
                Some(t) => self.task_into(t)?,
                None => {
                    let mut t = empty_task();
                    self.task_into(&mut t)?;
                    tasks.push(t);
                }
            }
        }
        Ok(())
    }

    fn matrix(&mut self) -> Result<Matrix, FrameError> {
        let n = self.u32()?;
        let n = usize::try_from(n).map_err(|_| err(format!("matrix size out of range: {n}")))?;
        let cells = n.checked_mul(n).ok_or_else(|| err("truncated frame"))?;
        let need = cells.checked_mul(8).ok_or_else(|| err("truncated frame"))?;
        if need > self.remaining() {
            return Err(err(format!("matrix size {n} exceeds frame")));
        }
        let mut m = Matrix::filled(n, 0.0);
        for from in 0..n {
            for to in 0..n {
                m.set(from, to, self.f64()?);
            }
        }
        Ok(m)
    }

    fn workflow(&mut self) -> Result<Workflow, FrameError> {
        // Minimum task: empty name (4) + empty exec (4) + no-matrix flag.
        let n = self.count(9, "workflow task")?;
        let mut tasks = Vec::with_capacity(n);
        for _ in 0..n {
            let name = self.str("task name")?;
            let k = self.count(8, "exec row")?;
            let mut exec = Vec::with_capacity(k);
            for _ in 0..k {
                exec.push(self.f64()?);
            }
            let comm_to_next = match self.u8()? {
                0 => None,
                1 => Some(self.matrix()?),
                v => return Err(err(format!("invalid matrix-presence byte {v}"))),
            };
            tasks.push(Task { name, exec, comm_to_next });
        }
        // Structural validity (matching sizes etc.) is the server
        // handler's job, exactly as with serde-decoded workflows.
        Ok(Workflow { tasks })
    }

    fn decision(&mut self) -> Result<PlacementDecision, FrameError> {
        let t_front = self.secs("t_front")?;
        let t_back = self.secs("t_back")?;
        let c_to = self.secs("c_to")?;
        let c_from = self.secs("c_from")?;
        let placement = match self.u8()? {
            0 => Placement::FrontEnd,
            1 => Placement::BackEnd,
            v => Err(err(format!("invalid placement byte {v}")))?,
        };
        Ok(PlacementDecision { t_front, t_back, c_to, c_from, placement })
    }

    fn done(&self) -> Result<(), FrameError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(err(format!("{} trailing bytes after payload", self.remaining())))
        }
    }
}

/// Readies a reused vector for a frame's `n` elements: keeps at most
/// its first `n` and makes room for `n`. A buffer with room for more
/// than twice `n` (or 8, if that is more) is swapped for one of exactly
/// `n`. So each vector in a slot holds at most twice what its last
/// frame needed, and a batch slot is a fixed multiple of its last frame
/// rather than the sum of the largest list each task position has held.
fn fit<T>(v: &mut Vec<T>, n: usize) {
    if v.capacity() > 2 * n.max(4) {
        *v = Vec::with_capacity(n);
    } else {
        v.truncate(n);
        v.reserve(n - v.len());
    }
}

/// The checkers' cursor: walks the layouts [`Cur`] decodes, in the same
/// order and under the same limits, but builds no value and allocates
/// nothing. Every method is `None` exactly where its [`Cur`] twin errs.
#[derive(Debug, Clone)]
struct Skim<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Skim<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.i.checked_add(n)?;
        let slice = self.b.get(self.i..end)?;
        self.i = end;
        Some(slice)
    }

    fn word<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    /// A `u32` count or size field.
    fn len32(&mut self) -> Option<usize> {
        usize::try_from(u32::from_le_bytes(self.word()?)).ok()
    }

    /// `n` fixed-width fields (`u64`/`f64`) read without a constraint.
    fn words(&mut self, n: usize) -> Option<()> {
        self.take(n.checked_mul(8)?).map(drop)
    }

    fn boolean(&mut self) -> Option<()> {
        (self.u8()? <= 1).then_some(())
    }

    fn secs(&mut self) -> Option<()> {
        Seconds::try_new(f64::from_le_bytes(self.word()?)).map(drop)
    }

    fn usize64(&mut self) -> Option<()> {
        usize::try_from(u64::from_le_bytes(self.word()?)).ok().map(drop)
    }

    fn count(&mut self, min_elem: usize) -> Option<usize> {
        let n = self.len32()?;
        (n.checked_mul(min_elem)? <= self.b.len() - self.i).then_some(n)
    }

    fn str(&mut self) -> Option<&'a str> {
        let n = self.count(1)?;
        std::str::from_utf8(self.take(n)?).ok()
    }

    fn datasets(&mut self) -> Option<()> {
        let n = self.count(16)?;
        self.words(n.checked_mul(2)?)
    }

    fn task(&mut self) -> Option<()> {
        self.secs()?;
        self.secs()?;
        self.datasets()?;
        self.datasets()
    }

    fn matrix(&mut self) -> Option<()> {
        let n = self.len32()?;
        let cells = n.checked_mul(n)?;
        (cells.checked_mul(8)? <= self.b.len() - self.i).then_some(())?;
        self.words(cells)
    }

    fn workflow(&mut self) -> Option<()> {
        for _ in 0..self.count(9)? {
            self.str()?;
            let k = self.count(8)?;
            self.words(k)?;
            match self.u8()? {
                0 => {}
                1 => self.matrix()?,
                _ => return None,
            }
        }
        Some(())
    }

    fn decision(&mut self) -> Option<()> {
        for _ in 0..4 {
            self.secs()?;
        }
        (self.u8()? <= 1).then_some(())
    }

    fn done(&self) -> Option<()> {
        (self.i == self.b.len()).then_some(())
    }
}

/// Whether [`decode_request`] would accept `body` — answered without
/// building the request or allocating, so a relay can vouch for a frame
/// it forwards as bytes. True exactly when `decode_request(body)` is
/// `Ok`.
pub fn check_request(body: &[u8]) -> bool {
    skim_request(&mut Skim { b: body, i: 0 }).is_some()
}

fn skim_request(c: &mut Skim<'_>) -> Option<()> {
    match c.u8()? {
        REQ_LOAD_REPORT => {
            c.str()?;
            c.words(3)?;
        }
        REQ_PREDICT => {
            c.str()?;
            c.words(1)?;
            c.task()?;
            c.words(1)?;
        }
        REQ_DECIDE_BATCH => {
            c.str()?;
            c.words(1)?;
            for _ in 0..c.count(24)? {
                c.task()?;
            }
            c.words(1)?;
        }
        REQ_RANK => {
            c.str()?;
            c.words(1)?;
            c.workflow()?;
            c.usize64()?;
            c.words(1)?;
            c.usize64()?;
        }
        REQ_STATS | REQ_SHUTDOWN => {}
        _ => return None,
    }
    c.done()
}

/// Whether [`decode_response`] would accept `body`, with the same
/// contract as [`check_request`].
pub fn check_response(body: &[u8]) -> bool {
    skim_response(&mut Skim { b: body, i: 0 }).is_some()
}

fn skim_response(c: &mut Skim<'_>) -> Option<()> {
    match c.u8()? {
        RESP_ACK => {
            c.str()?;
            c.boolean()?;
            c.words(1)?;
        }
        RESP_PREDICTION => {
            c.str()?;
            c.words(1)?;
            c.boolean()?;
            c.str()?;
            c.boolean()?;
            c.decision()?;
        }
        RESP_DECISIONS => {
            c.str()?;
            c.words(1)?;
            c.boolean()?;
            c.str()?;
            c.boolean()?;
            for _ in 0..c.count(33)? {
                c.decision()?;
            }
        }
        RESP_RANKED => {
            c.str()?;
            c.words(1)?;
            c.boolean()?;
            c.words(1)?;
            for _ in 0..c.count(12)? {
                for _ in 0..c.count(8)? {
                    c.usize64()?;
                }
                c.words(1)?;
            }
        }
        RESP_STATS => {
            // Request counts (6), cache (3), latency (4), machines and
            // uptime (2), then the shard table.
            c.words(15)?;
            let n = c.count(24)?;
            c.words(n.checked_mul(3)?)?;
        }
        RESP_GW_STATS => {
            for _ in 0..c.count(29)? {
                c.str()?;
                c.boolean()?;
                c.words(3)?;
            }
            c.words(6)?;
        }
        RESP_OK => {}
        RESP_ERROR => {
            c.str()?;
        }
        _ => return None,
    }
    c.done()
}

/// The machine a `load_report`, `predict`, `decide_batch` or `rank`
/// frame body names — each layout opens with it, right after the tag —
/// read without decoding the rest. `None` for any other tag, or when
/// the string itself is malformed.
pub fn request_machine(body: &[u8]) -> Option<&str> {
    let mut c = Skim { b: body, i: 0 };
    match c.u8()? {
        REQ_LOAD_REPORT | REQ_PREDICT | REQ_DECIDE_BATCH | REQ_RANK => c.str(),
        _ => None,
    }
}

/// The tasks of a `decide_batch` frame body, walked in place: each item
/// is one task's byte range in the body. Built by [`batch_tasks`]; on a
/// body that passed [`check_request`] the ranges tile the task bytes
/// exactly, in order. The walk allocates nothing.
#[derive(Debug, Clone)]
pub struct BatchTasks<'a> {
    c: Skim<'a>,
    left: usize,
}

impl BatchTasks<'_> {
    /// Tasks not walked yet.
    pub fn remaining(&self) -> usize {
        self.left
    }
}

impl Iterator for BatchTasks<'_> {
    type Item = std::ops::Range<usize>;

    fn next(&mut self) -> Option<Self::Item> {
        let start = self.c.i;
        let task = self.left.checked_sub(1).and_then(|left| {
            self.c.task()?;
            Some(left)
        });
        // A malformed task ends the walk.
        self.left = task.unwrap_or(0);
        task.map(|_| start..self.c.i)
    }
}

/// Walks the tasks of a `decide_batch` frame body without decoding them:
/// `None` unless the body opens with the `decide_batch` tag, a machine,
/// `now`, and a task count the body could hold.
pub fn batch_tasks(body: &[u8]) -> Option<BatchTasks<'_>> {
    let mut c = Skim { b: body, i: 0 };
    (c.u8()? == REQ_DECIDE_BATCH).then_some(())?;
    c.str()?;
    c.words(1)?;
    let left = c.count(24)?;
    Some(BatchTasks { c, left })
}

/// Appends a `decide_batch` frame (length prefix included) for `count`
/// of the tasks of the `decide_batch` body `body` — those whose bytes
/// are `body[tasks]`, as [`batch_tasks`] spans them — with `body`'s
/// machine, `now` and `j_words`. Everything is copied, nothing decoded.
/// Returns `false`, leaving `out` as it was, when `tasks` does not lie
/// within the body's task bytes or `count` overflows its field.
pub fn encode_batch_chunk(
    body: &[u8],
    tasks: std::ops::Range<usize>,
    count: usize,
    out: &mut Vec<u8>,
) -> bool {
    let Some(first_task) = batch_tasks(body).map(|t| t.c.i) else { return false };
    let Some(j_words) = body.len().checked_sub(8) else { return false };
    if tasks.start < first_task || tasks.start > tasks.end || tasks.end > j_words {
        return false;
    }
    out.reserve(4 + first_task + tasks.len() + 8);
    let mut w = FrameWriter::begin(out, REQ_DECIDE_BATCH);
    // Machine and `now`: everything between the tag and the task count.
    w.out.extend_from_slice(&body[1..first_task - 4]);
    w.len32(count);
    w.out.extend_from_slice(&body[tasks]);
    w.out.extend_from_slice(&body[j_words..]);
    w.finish()
}

/// The offset of the `cache_hit` byte in a `decisions` reply frame
/// (length prefix included), and the decision count that follows it;
/// the decisions follow the count.
fn decisions_at(frame: &[u8]) -> Option<(usize, u32)> {
    let mut c = Skim { b: frame, i: 4 };
    (c.u8()? == RESP_DECISIONS).then_some(())?;
    c.str()?;
    c.words(1)?;
    c.boolean()?;
    c.str()?;
    let at = c.i;
    c.boolean()?;
    Some((at, u32::from_le_bytes(c.word()?)))
}

/// Appends the decisions of the `decisions` reply frame `more` to the
/// `decisions` reply frame `into` — both length prefix included and
/// passing [`check_response`] — without decoding either: `into` keeps
/// its header (machine, `p`, `stale`, forecaster), its `cache_hit`
/// becomes the AND of both, its count the sum, and its length prefix
/// covers the appended decisions. Returns `false`, leaving `into` as it
/// was, when either frame is not a `decisions` reply or a length field
/// would overflow.
pub fn merge_decisions(into: &mut Vec<u8>, more: &[u8]) -> bool {
    let (Some((at, n)), Some((from, m))) = (decisions_at(into), decisions_at(more)) else {
        return false;
    };
    let added = &more[from + 5..];
    let (Some(sum), Ok(len)) = (n.checked_add(m), u32::try_from(into.len() - 4 + added.len()))
    else {
        return false;
    };
    into[at] &= more[from];
    into[at + 1..at + 5].copy_from_slice(&sum.to_le_bytes());
    into[..4].copy_from_slice(&len.to_le_bytes());
    into.extend_from_slice(added);
    true
}

/// A task with no data sets, the starting value of a task slot.
fn empty_task() -> ParagonTask {
    ParagonTask {
        dcomp_sun: Seconds::ZERO,
        t_paragon: Seconds::ZERO,
        to_backend: Vec::new(),
        from_backend: Vec::new(),
    }
}

/// Decodes one request frame body (`tag` + payload, the length prefix
/// already stripped by the transport).
pub fn decode_request(body: &[u8]) -> Result<Request, FrameError> {
    let mut slot = Request::Stats;
    decode_into(&mut slot, body)?;
    Ok(slot)
}

/// A request decoder that keeps what it decodes: one [`Request`] slot
/// per hot kind (`load_report`, `predict`, `decide_batch`) and one for
/// the rest. Each frame is decoded into the slot of its kind, reusing
/// the `String`/`Vec` capacity that slot kept from that kind's last
/// frame, so a warm stream decodes without allocating. Each vector in a
/// slot keeps room for at most twice the elements its last frame needed
/// (or 8), so a slot holds a fixed multiple of the last frame of its
/// kind: a `decide_batch` slot's task vectors at most 16 × its body +
/// 512 bytes. Its `machine` string keeps the capacity of the longest name it has held,
/// which one frame bounds. [`decode_request`] is the same walk into an
/// empty slot.
#[derive(Debug, Clone)]
pub struct Decoder {
    report: Request,
    predict: Request,
    batch: Request,
    /// `rank`, `stats` and `shutdown`, decoded afresh each time.
    other: Request,
}

impl Default for Decoder {
    fn default() -> Self {
        Decoder::new()
    }
}

impl Decoder {
    /// A decoder with empty slots.
    pub fn new() -> Self {
        Decoder {
            report: Request::Stats,
            predict: Request::Stats,
            batch: Request::Stats,
            other: Request::Stats,
        }
    }

    /// Decodes one request frame body (`tag` + payload, the length
    /// prefix already stripped) into the slot of its kind and returns
    /// it: the same value, or the same error, as [`decode_request`]. A
    /// failed decode may leave its slot half-written; the next frame of
    /// that kind overwrites every field.
    pub fn decode_request_into(&mut self, body: &[u8]) -> Result<&Request, FrameError> {
        let slot = match body.first() {
            Some(&REQ_LOAD_REPORT) => &mut self.report,
            Some(&REQ_PREDICT) => &mut self.predict,
            Some(&REQ_DECIDE_BATCH) => &mut self.batch,
            _ => &mut self.other,
        };
        decode_into(slot, body)?;
        Ok(slot)
    }
}

/// The one request walker: decodes `body` into `slot`, reusing the
/// slot's `String`/`Vec` capacity when it already holds a request of
/// the frame's kind.
fn decode_into(slot: &mut Request, body: &[u8]) -> Result<(), FrameError> {
    let mut c = Cur::new(body);
    let tag = c.u8().map_err(|_| err("empty frame"))?;
    match tag {
        REQ_LOAD_REPORT => {
            let empty = LoadReport { machine: String::new(), at: 0.0, load: 0.0, comm_frac: 0.0 };
            let r = crate::reuse_slot!(slot, Request::LoadReport, empty);
            c.str_into("machine", &mut r.machine)?;
            r.at = c.f64()?;
            r.load = c.f64()?;
            r.comm_frac = c.f64()?;
        }
        REQ_PREDICT => {
            let empty =
                Predict { machine: String::new(), now: 0.0, task: empty_task(), j_words: 0 };
            let q = crate::reuse_slot!(slot, Request::Predict, empty);
            c.str_into("machine", &mut q.machine)?;
            q.now = c.f64()?;
            c.task_into(&mut q.task)?;
            q.j_words = c.u64()?;
        }
        REQ_DECIDE_BATCH => {
            let empty =
                DecideBatch { machine: String::new(), now: 0.0, tasks: Vec::new(), j_words: 0 };
            let q = crate::reuse_slot!(slot, Request::DecideBatch, empty);
            c.str_into("machine", &mut q.machine)?;
            q.now = c.f64()?;
            c.tasks_into(&mut q.tasks)?;
            q.j_words = c.u64()?;
        }
        REQ_RANK => {
            *slot = Request::Rank(Rank {
                machine: c.str("machine")?,
                now: c.f64()?,
                workflow: c.workflow()?,
                front_end: c.usize64("front_end")?,
                j_words: c.u64()?,
                limit: c.usize64("limit")?,
            });
        }
        REQ_STATS => *slot = Request::Stats,
        REQ_SHUTDOWN => *slot = Request::Shutdown,
        t => return Err(err(format!("unknown request tag 0x{t:02x}"))),
    }
    c.done()
}

/// Decodes one response frame body (`tag` + payload, the length prefix
/// already stripped by the transport).
pub fn decode_response(body: &[u8]) -> Result<Response, FrameError> {
    let mut c = Cur::new(body);
    let tag = c.u8().map_err(|_| err("empty frame"))?;
    let resp = match tag {
        RESP_ACK => {
            Response::Ack(Ack { machine: c.str("machine")?, accepted: c.boolean()?, p: c.u64()? })
        }
        RESP_PREDICTION => Response::Prediction(Prediction {
            machine: c.str("machine")?,
            p: c.u64()?,
            stale: c.boolean()?,
            forecaster: c.str("forecaster")?,
            cache_hit: c.boolean()?,
            decision: c.decision()?,
        }),
        RESP_DECISIONS => {
            let machine = c.str("machine")?;
            let p = c.u64()?;
            let stale = c.boolean()?;
            let forecaster = c.str("forecaster")?;
            let cache_hit = c.boolean()?;
            let n = c.count(33, "decision")?;
            let mut decisions = Vec::with_capacity(n);
            for _ in 0..n {
                decisions.push(c.decision()?);
            }
            Response::Decisions(Decisions { machine, p, stale, forecaster, cache_hit, decisions })
        }
        RESP_RANKED => {
            let machine = c.str("machine")?;
            let p = c.u64()?;
            let stale = c.boolean()?;
            let total = c.u64()?;
            // Minimum schedule: empty assignment (4) + makespan (8).
            let n = c.count(12, "schedule")?;
            let mut schedules = Vec::with_capacity(n);
            for _ in 0..n {
                let k = c.count(8, "assignment slot")?;
                let mut assignment = Vec::with_capacity(k);
                for _ in 0..k {
                    assignment.push(c.usize64("assignment")?);
                }
                let makespan = c.f64()?;
                schedules.push(Schedule { assignment, makespan });
            }
            Response::Ranked(Ranked { machine, p, stale, total, schedules })
        }
        RESP_STATS => {
            let requests = RequestCounts {
                load_report: c.u64()?,
                predict: c.u64()?,
                decide_batch: c.u64()?,
                rank: c.u64()?,
                stats: c.u64()?,
                shutdown: c.u64()?,
            };
            let cache = CacheStats { hits: c.u64()?, misses: c.u64()?, hit_rate: c.f64()? };
            let latency_us = LatencySummary {
                count: c.u64()?,
                p50_us: c.u64()?,
                p99_us: c.u64()?,
                max_us: c.u64()?,
            };
            let machines = c.u64()?;
            let uptime_secs = c.f64()?;
            let n = c.count(24, "shard")?;
            let mut shards = Vec::with_capacity(n);
            for _ in 0..n {
                shards.push(ShardStats {
                    shard: c.u64()?,
                    machines: c.u64()?,
                    load_reports: c.u64()?,
                });
            }
            Response::Stats(StatsReply {
                requests,
                cache,
                latency_us,
                machines,
                uptime_secs,
                shards,
            })
        }
        RESP_GW_STATS => {
            // Minimum backend entry: empty addr (4) + bool (1) + 3×u64.
            let n = c.count(29, "backend")?;
            let mut backends = Vec::with_capacity(n);
            for _ in 0..n {
                backends.push(BackendStats {
                    addr: c.str("addr")?,
                    healthy: c.boolean()?,
                    requests: c.u64()?,
                    failovers: c.u64()?,
                    replayed: c.u64()?,
                });
            }
            Response::GwStats(GwStatsReply {
                backends,
                hits: c.u64()?,
                misses: c.u64()?,
                failovers: c.u64()?,
                journal_frames: c.u64()?,
                journal_bytes: c.u64()?,
                uptime_secs: c.f64()?,
            })
        }
        RESP_OK => Response::Ok,
        RESP_ERROR => Response::Error(ErrorReply { message: c.str("message")? }),
        t => return Err(err(format!("unknown response tag 0x{t:02x}"))),
    };
    c.done()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use contention_model::units::secs;

    fn sample_task() -> ParagonTask {
        ParagonTask {
            dcomp_sun: secs(10.0),
            t_paragon: secs(0.5),
            to_backend: vec![DataSet::new(3, 128), DataSet::new(1, 4096)],
            from_backend: vec![DataSet::new(2, 64)],
        }
    }

    fn sample_workflow() -> Workflow {
        let m = Matrix::from_rows(&[vec![0.0, 2.5], vec![1.5, 0.0]]);
        Workflow {
            tasks: vec![
                Task { name: "t0".to_string(), exec: vec![1.0, 2.0], comm_to_next: Some(m) },
                Task { name: "t1".to_string(), exec: vec![3.0, 0.5], comm_to_next: None },
            ],
        }
    }

    fn sample_decision() -> PlacementDecision {
        PlacementDecision {
            t_front: secs(10.0),
            t_back: secs(1.0),
            c_to: secs(0.25),
            c_from: secs(0.125),
            placement: Placement::BackEnd,
        }
    }

    fn all_requests() -> Vec<Request> {
        vec![
            Request::LoadReport(LoadReport {
                machine: "sun7".to_string(),
                at: 12.5,
                load: 3.25,
                comm_frac: 0.5,
            }),
            Request::Predict(Predict {
                machine: "sun7".to_string(),
                now: 13.0,
                task: sample_task(),
                j_words: 2048,
            }),
            Request::DecideBatch(DecideBatch {
                machine: "sun7".to_string(),
                now: 13.5,
                tasks: vec![sample_task(), sample_task()],
                j_words: 1024,
            }),
            Request::Rank(Rank {
                machine: "sun7".to_string(),
                now: 14.0,
                workflow: sample_workflow(),
                front_end: 0,
                j_words: 512,
                limit: 10,
            }),
            Request::Stats,
            Request::Shutdown,
        ]
    }

    fn all_responses() -> Vec<Response> {
        vec![
            Response::Ack(Ack { machine: "sun7".to_string(), accepted: true, p: 3 }),
            Response::Prediction(Prediction {
                machine: "sun7".to_string(),
                p: 3,
                stale: false,
                forecaster: "ewma0.30".to_string(),
                cache_hit: true,
                decision: sample_decision(),
            }),
            Response::Decisions(Decisions {
                machine: "sun7".to_string(),
                p: 2,
                stale: true,
                forecaster: "dedicated".to_string(),
                cache_hit: false,
                decisions: vec![sample_decision(), sample_decision()],
            }),
            Response::Ranked(Ranked {
                machine: "sun7".to_string(),
                p: 1,
                stale: false,
                total: 8,
                schedules: vec![
                    Schedule { assignment: vec![0, 1, 0], makespan: 4.5 },
                    Schedule { assignment: vec![1, 1, 1], makespan: 6.25 },
                ],
            }),
            Response::Stats(StatsReply {
                requests: RequestCounts {
                    load_report: 1,
                    predict: 2,
                    decide_batch: 3,
                    rank: 4,
                    stats: 5,
                    shutdown: 6,
                },
                cache: CacheStats { hits: 7, misses: 8, hit_rate: 0.875 },
                latency_us: LatencySummary { count: 9, p50_us: 10, p99_us: 20, max_us: 30 },
                machines: 2,
                uptime_secs: 123.5,
                shards: vec![
                    ShardStats { shard: 0, machines: 1, load_reports: 5 },
                    ShardStats { shard: 1, machines: 1, load_reports: 6 },
                ],
            }),
            Response::Ok,
            Response::Error(ErrorReply { message: "bad request: nope".to_string() }),
        ]
    }

    fn body(frame: &[u8]) -> &[u8] {
        let mut len = [0u8; 4];
        len.copy_from_slice(&frame[..4]);
        let len = u32::from_le_bytes(len) as usize;
        assert_eq!(len, frame.len() - 4, "length prefix covers the whole body");
        &frame[4..]
    }

    #[test]
    fn every_request_kind_round_trips() {
        for req in all_requests() {
            let kind = req.kind();
            let mut buf = Vec::new();
            assert!(encode_request(&req, &mut buf), "{kind}");
            let back = decode_request(body(&buf)).expect(kind);
            assert_eq!(back, req);
        }
    }

    #[test]
    fn every_response_kind_round_trips() {
        for resp in all_responses() {
            let kind = resp.kind();
            let mut buf = Vec::new();
            assert!(encode_response(&resp, &mut buf), "{kind}");
            let back = decode_response(body(&buf)).expect(kind);
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn frames_concatenate_cleanly() {
        let mut buf = Vec::new();
        for req in all_requests() {
            assert!(encode_request(&req, &mut buf));
        }
        let mut i = 0;
        let mut seen = 0;
        while i < buf.len() {
            let mut len = [0u8; 4];
            len.copy_from_slice(&buf[i..i + 4]);
            let len = u32::from_le_bytes(len) as usize;
            decode_request(&buf[i + 4..i + 4 + len]).expect("frame in stream");
            i += 4 + len;
            seen += 1;
        }
        assert_eq!(seen, all_requests().len());
    }

    #[test]
    fn truncated_frames_are_rejected_not_panicked() {
        for req in all_requests() {
            let mut buf = Vec::new();
            assert!(encode_request(&req, &mut buf));
            let full = body(&buf);
            for cut in 0..full.len() {
                assert!(
                    decode_request(&full[..cut]).is_err() || cut == full.len(),
                    "{} truncated at {cut} must not decode",
                    req.kind()
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        assert!(encode_request(&Request::Stats, &mut buf));
        let mut b = body(&buf).to_vec();
        b.push(0);
        let e = decode_request(&b).expect_err("trailing byte");
        assert!(e.message.contains("trailing"), "{e}");
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(decode_request(&[0x7f]).is_err());
        assert!(decode_response(&[0x01]).is_err(), "request tag is not a response tag");
        assert!(decode_request(&[]).is_err(), "empty body");
    }

    #[test]
    fn hostile_count_fields_are_bounded_by_the_frame() {
        // decide_batch claiming u32::MAX tasks in a tiny frame must be
        // rejected before any allocation happens.
        let mut b = vec![REQ_DECIDE_BATCH];
        b.extend_from_slice(&2u32.to_le_bytes());
        b.extend_from_slice(b"m7");
        b.extend_from_slice(&13.5f64.to_le_bytes());
        b.extend_from_slice(&u32::MAX.to_le_bytes());
        let e = decode_request(&b).expect_err("hostile count");
        assert!(e.message.contains("exceeds frame"), "{e}");
    }

    #[test]
    fn strict_bytes_are_strict() {
        // ack with boolean byte 2.
        let mut b = vec![RESP_ACK];
        b.extend_from_slice(&2u32.to_le_bytes());
        b.extend_from_slice(b"m7");
        b.push(2);
        b.extend_from_slice(&0u64.to_le_bytes());
        assert!(decode_response(&b).is_err(), "boolean byte must be 0 or 1");

        // negative seconds inside a prediction decision.
        let mut p = Vec::new();
        let resp = all_responses().remove(1);
        assert!(encode_response(&resp, &mut p));
        let mut pb = body(&p).to_vec();
        let flip = pb.len() - 9; // final f64 of the decision lives before the placement byte
        pb[flip..flip + 8].copy_from_slice(&(-1.0f64).to_le_bytes());
        assert!(decode_response(&pb).is_err(), "negative duration must be rejected");
    }

    #[test]
    fn preamble_is_distinguishable_from_json() {
        assert_ne!(PREAMBLE[0], b'{');
        assert_eq!(PREAMBLE, [0xBD, b'P', b'D', 0x01]);
    }

    #[test]
    fn f64_payloads_survive_bit_exactly() {
        let values = [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300];
        for v in values {
            let req = Request::LoadReport(LoadReport {
                machine: "m".to_string(),
                at: v,
                load: v,
                comm_frac: 0.5,
            });
            let mut buf = Vec::new();
            assert!(encode_request(&req, &mut buf));
            let back = decode_request(body(&buf)).expect("round-trip");
            match back {
                Request::LoadReport(r) => {
                    assert_eq!(r.at.to_le_bytes(), v.to_le_bytes());
                    assert_eq!(r.load.to_le_bytes(), v.to_le_bytes());
                }
                other => panic!("wrong kind {}", other.kind()),
            }
        }
    }
}
