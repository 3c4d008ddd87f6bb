//! Specialized wire codec for the hot request kinds.
//!
//! The generic path parses every line into a [`serde::Value`] tree and
//! serializes responses back through one — correct, but allocation-heavy
//! for a hot loop that answers hundreds of thousands of small requests a
//! second. This module parses `load_report` / `predict` / `decide_batch`
//! / `stats` / `shutdown` lines straight into [`Request`] with a single
//! byte scan, and writes `ack` / `prediction` / `decisions` / `ok` /
//! `error` responses straight into the caller's output `String`.
//!
//! It is a *fast path*, not a second protocol: anything it does not
//! recognize — unknown keys, escaped strings, duplicate fields, number
//! edge cases, `rank` workflows — returns `None` and falls back to the
//! generic serde path, so acceptance and error behavior stay defined by
//! one implementation. What it does accept, it must decode exactly as
//! the generic path would; what it writes must be byte-identical to
//! [`serde_json::to_string`] of the same response. Both invariants are
//! pinned by tests below.

use std::fmt::Write as _;

use contention_model::dataset::DataSet;
use contention_model::predict::{ParagonTask, Placement, PlacementDecision};
use contention_model::units::Seconds;

use crate::proto::{
    Ack, DecideBatch, Decisions, ErrorReply, LoadReport, Predict, Prediction, Request, Response,
};

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// A cursor over the raw request line.
struct Scan<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Scan<'a> {
    fn ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    /// Consumes `c` (after whitespace) or fails.
    fn eat(&mut self, c: u8) -> Option<()> {
        self.ws();
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Some(())
        } else {
            None
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.b.get(self.i).copied()
    }

    /// A string with no escapes, returned as a borrowed slice. Any
    /// backslash bails to the generic parser.
    fn string(&mut self) -> Option<&'a str> {
        self.eat(b'"')?;
        let start = self.i;
        loop {
            match self.b.get(self.i)? {
                b'"' => {
                    let s = std::str::from_utf8(&self.b[start..self.i]).ok()?;
                    self.i += 1;
                    return Some(s);
                }
                b'\\' => return None,
                _ => self.i += 1,
            }
        }
    }

    /// The next number token as a raw slice.
    fn number_token(&mut self) -> Option<&'a str> {
        self.ws();
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while matches!(self.b.get(self.i), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.i += 1;
        }
        if self.i == start {
            return None;
        }
        std::str::from_utf8(&self.b[start..self.i]).ok()
    }

    /// A number as `f64` — same rounding as the generic path for every
    /// token shape (integers convert exactly the way `i64 as f64` does).
    fn f64(&mut self) -> Option<f64> {
        self.number_token()?.parse().ok()
    }

    /// A plain digit-run as `u64`. Fractions, exponents, and overflow
    /// bail out: the generic path has its own coercion rules for those.
    fn u64(&mut self) -> Option<u64> {
        let tok = self.number_token()?;
        if tok.bytes().any(|b| !b.is_ascii_digit()) {
            return None;
        }
        tok.parse().ok()
    }

    /// True when the line has nothing but whitespace left.
    fn at_end(&mut self) -> bool {
        self.ws();
        self.i == self.b.len()
    }
}

/// Walks `{"k":v,...}`, calling `field` for each key. `field` returns
/// `None` to bail (unknown key, duplicate, type mismatch).
fn object<'a>(
    s: &mut Scan<'a>,
    mut field: impl FnMut(&mut Scan<'a>, &str) -> Option<()>,
) -> Option<()> {
    s.eat(b'{')?;
    if s.peek() == Some(b'}') {
        s.i += 1;
        return Some(());
    }
    loop {
        let key = s.string()?;
        s.eat(b':')?;
        field(s, key)?;
        match s.peek()? {
            b',' => s.i += 1,
            b'}' => {
                s.i += 1;
                return Some(());
            }
            _ => return None,
        }
    }
}

/// Fills `slot` once; a second occurrence of the key bails (the generic
/// path reads the first occurrence, overwriting would read the last).
fn fill<T>(slot: &mut Option<T>, value: Option<T>) -> Option<()> {
    if slot.is_some() {
        return None;
    }
    *slot = Some(value?);
    Some(())
}

fn dataset(s: &mut Scan<'_>) -> Option<DataSet> {
    let (mut messages, mut words) = (None, None);
    object(s, |s, key| match key {
        "messages" => fill(&mut messages, s.u64()),
        "words" => fill(&mut words, s.u64()),
        _ => None,
    })?;
    Some(DataSet { messages: messages?, words: words? })
}

fn datasets(s: &mut Scan<'_>) -> Option<Vec<DataSet>> {
    s.eat(b'[')?;
    let mut v = Vec::new();
    if s.peek() == Some(b']') {
        s.i += 1;
        return Some(v);
    }
    loop {
        v.push(dataset(s)?);
        match s.peek()? {
            b',' => s.i += 1,
            b']' => {
                s.i += 1;
                return Some(v);
            }
            _ => return None,
        }
    }
}

fn seconds(s: &mut Scan<'_>) -> Option<Seconds> {
    Seconds::try_new(s.f64()?)
}

fn paragon_task(s: &mut Scan<'_>) -> Option<ParagonTask> {
    let (mut dcomp_sun, mut t_paragon, mut to_backend, mut from_backend) = (None, None, None, None);
    object(s, |s, key| match key {
        "dcomp_sun" => fill(&mut dcomp_sun, seconds(s)),
        "t_paragon" => fill(&mut t_paragon, seconds(s)),
        "to_backend" => fill(&mut to_backend, datasets(s)),
        "from_backend" => fill(&mut from_backend, datasets(s)),
        _ => None,
    })?;
    Some(ParagonTask {
        dcomp_sun: dcomp_sun?,
        t_paragon: t_paragon?,
        to_backend: to_backend?,
        from_backend: from_backend?,
    })
}

fn paragon_tasks(s: &mut Scan<'_>) -> Option<Vec<ParagonTask>> {
    s.eat(b'[')?;
    let mut v = Vec::new();
    if s.peek() == Some(b']') {
        s.i += 1;
        return Some(v);
    }
    loop {
        v.push(paragon_task(s)?);
        match s.peek()? {
            b',' => s.i += 1,
            b']' => {
                s.i += 1;
                return Some(v);
            }
            _ => return None,
        }
    }
}

/// Parses one request line: the fast path, then the generic serde
/// parser, whose error is the client's `bad request: …` message. The
/// one JSON request edge every daemon shares; inlined, since each
/// daemon's loop calls it once per line.
#[inline]
pub fn parse_line(line: &str) -> Result<Request, String> {
    match parse_request(line) {
        Some(req) => Ok(req),
        None => serde_json::from_str(line).map_err(|e| format!("bad request: {e}")),
    }
}

/// Appends `resp` to `out` as one reply line, newline included: the
/// fast path, then the generic serializer. The JSON reply edge every
/// daemon shares.
#[inline]
pub fn write_line(resp: &Response, out: &mut String) {
    if !write_response(resp, out) {
        serde_json::to_string_into(resp, out);
    }
    out.push('\n');
}

/// Parses one request line on the fast path, in any field order.
/// `None` means "not recognized here" — never "invalid": the caller
/// falls back to the generic parser, which owns acceptance and errors.
pub fn parse_request(line: &str) -> Option<Request> {
    let mut s = Scan { b: line.as_bytes(), i: 0 };
    let mut kind = None;
    let mut machine: Option<&str> = None;
    let (mut at, mut now, mut load, mut comm_frac) = (None, None, None, None);
    let mut j_words = None;
    let mut task = None;
    let mut tasks = None;
    object(&mut s, |s, key| match key {
        "kind" => fill(&mut kind, s.string()),
        "machine" => fill(&mut machine, s.string()),
        "at" => fill(&mut at, s.f64()),
        "now" => fill(&mut now, s.f64()),
        "load" => fill(&mut load, s.f64()),
        "comm_frac" => fill(&mut comm_frac, s.f64()),
        "j_words" => fill(&mut j_words, s.u64()),
        "task" => fill(&mut task, paragon_task(s)),
        "tasks" => fill(&mut tasks, paragon_tasks(s)),
        _ => None,
    })?;
    if !s.at_end() {
        return None;
    }
    match kind? {
        "load_report" => Some(Request::LoadReport(LoadReport {
            machine: machine?.to_string(),
            at: at?,
            load: load?,
            comm_frac: comm_frac?,
        })),
        "predict" => Some(Request::Predict(Predict {
            machine: machine?.to_string(),
            now: now?,
            task: task.take()?,
            j_words: j_words?,
        })),
        "decide_batch" => Some(Request::DecideBatch(DecideBatch {
            machine: machine?.to_string(),
            now: now?,
            tasks: tasks.take()?,
            j_words: j_words?,
        })),
        "stats" => Some(Request::Stats),
        "shutdown" => Some(Request::Shutdown),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

/// Writes `s` as a JSON string with exactly the generic writer's
/// escaping rules.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut rest = s;
    while let Some(idx) = rest.find(|c: char| matches!(c, '"' | '\\') || (c as u32) < 0x20) {
        out.push_str(&rest[..idx]);
        let c = match rest[idx..].chars().next() {
            Some(c) => c,
            None => break,
        };
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
        }
        rest = &rest[idx + c.len_utf8()..];
    }
    out.push_str(rest);
    out.push('"');
}

/// Writes `f` exactly as the generic writer does: shortest-roundtrip
/// `Display`, a forced fraction, `null` for non-finite values.
fn write_f64(out: &mut String, f: f64) {
    if f.is_finite() {
        let start = out.len();
        let _ = write!(out, "{f}");
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

fn write_bool(out: &mut String, b: bool) {
    out.push_str(if b { "true" } else { "false" });
}

fn write_decision(out: &mut String, d: &PlacementDecision) {
    out.push_str("{\"t_front\":");
    write_f64(out, d.t_front.get());
    out.push_str(",\"t_back\":");
    write_f64(out, d.t_back.get());
    out.push_str(",\"c_to\":");
    write_f64(out, d.c_to.get());
    out.push_str(",\"c_from\":");
    write_f64(out, d.c_from.get());
    out.push_str(",\"placement\":");
    out.push_str(match d.placement {
        Placement::FrontEnd => "\"FrontEnd\"",
        Placement::BackEnd => "\"BackEnd\"",
    });
    out.push('}');
}

fn write_ack(out: &mut String, a: &Ack) {
    out.push_str("{\"kind\":\"ack\",\"machine\":");
    write_str(out, &a.machine);
    let _ = write!(out, ",\"accepted\":{},\"p\":{}}}", a.accepted, a.p);
}

fn write_prediction(out: &mut String, p: &Prediction) {
    out.push_str("{\"kind\":\"prediction\",\"machine\":");
    write_str(out, &p.machine);
    let _ = write!(out, ",\"p\":{},\"stale\":", p.p);
    write_bool(out, p.stale);
    out.push_str(",\"forecaster\":");
    write_str(out, &p.forecaster);
    out.push_str(",\"cache_hit\":");
    write_bool(out, p.cache_hit);
    out.push_str(",\"decision\":");
    write_decision(out, &p.decision);
    out.push('}');
}

fn write_decisions(out: &mut String, d: &Decisions) {
    out.push_str("{\"kind\":\"decisions\",\"machine\":");
    write_str(out, &d.machine);
    let _ = write!(out, ",\"p\":{},\"stale\":", d.p);
    write_bool(out, d.stale);
    out.push_str(",\"forecaster\":");
    write_str(out, &d.forecaster);
    out.push_str(",\"cache_hit\":");
    write_bool(out, d.cache_hit);
    out.push_str(",\"decisions\":[");
    for (i, dec) in d.decisions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_decision(out, dec);
    }
    out.push_str("]}");
}

fn write_error(out: &mut String, e: &ErrorReply) {
    out.push_str("{\"kind\":\"error\",\"message\":");
    write_str(out, &e.message);
    out.push('}');
}

/// Appends `resp` to `out` on the fast path; false means the caller
/// must use the generic serializer (`ranked`/`stats` payloads). The
/// bytes produced are identical to [`serde_json::to_string`]'s.
pub fn write_response(resp: &Response, out: &mut String) -> bool {
    match resp {
        Response::Ack(a) => write_ack(out, a),
        Response::Prediction(p) => write_prediction(out, p),
        Response::Decisions(d) => write_decisions(out, d),
        Response::Ok => out.push_str("{\"kind\":\"ok\"}"),
        Response::Error(e) => write_error(out, e),
        // Explicit declines: nested/large cold payloads stay on the
        // generic serializer (`ranked`, `stats`, and the gateway's
        // `gw_stats`).
        Response::Ranked(_) | Response::Stats(_) | Response::GwStats(_) => return false,
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use contention_model::units::secs;

    fn canonical(req: &Request) -> String {
        serde_json::to_string(req).expect("serializable")
    }

    #[test]
    fn fast_parse_agrees_with_generic_on_canonical_lines() {
        let task = ParagonTask {
            dcomp_sun: secs(30.0),
            t_paragon: secs(6.0),
            to_backend: vec![DataSet::burst(10, 2000)],
            from_backend: vec![DataSet::single(1000)],
        };
        let reqs = [
            Request::LoadReport(LoadReport {
                machine: "m0".into(),
                at: 1.0,
                load: 2.0,
                comm_frac: 0.4,
            }),
            Request::LoadReport(LoadReport {
                machine: "m1".into(),
                at: 0.0,
                load: 0.0,
                comm_frac: -1.0,
            }),
            Request::Predict(Predict {
                machine: "host-α".into(),
                now: 1.5,
                task: task.clone(),
                j_words: 500,
            }),
            Request::DecideBatch(DecideBatch {
                machine: "m0".into(),
                now: 2.0,
                tasks: vec![task.clone(), task],
                j_words: 0,
            }),
            Request::Stats,
            Request::Shutdown,
        ];
        for req in &reqs {
            let line = canonical(req);
            let fast = parse_request(&line).unwrap_or_else(|| panic!("fast path must take {line}"));
            let generic: Request = serde_json::from_str(&line).expect("generic parse");
            assert_eq!(fast, generic);
            assert_eq!(&fast, req);
        }
    }

    #[test]
    fn fast_parse_handles_whitespace_and_field_order() {
        let line = " { \"at\" : 2.5 , \"machine\" : \"m9\" , \"comm_frac\" : -1.0 ,\
                    \"load\" : 3.0 , \"kind\" : \"load_report\" } ";
        let fast = parse_request(line).expect("reordered fields still fast-parse");
        let generic: Request = serde_json::from_str(line).expect("generic parse");
        assert_eq!(fast, generic);
    }

    #[test]
    fn fast_parse_declines_what_it_cannot_mirror() {
        // Unknown kinds, unknown keys, escapes, duplicates, non-integer
        // u64s, trailing garbage: all must fall back, not guess.
        for line in [
            "{\"kind\":\"rank\",\"machine\":\"m0\"}",
            "{\"kind\":\"stats\",\"extra\":1}",
            "{\"kind\":\"load_report\",\"machine\":\"a\\\"b\",\"at\":1.0,\"load\":1.0,\"comm_frac\":0.0}",
            "{\"kind\":\"load_report\",\"machine\":\"m\",\"at\":1.0,\"at\":2.0,\"load\":1.0,\"comm_frac\":0.0}",
            "{\"kind\":\"predict\",\"machine\":\"m\",\"now\":1.0,\"task\":{\"dcomp_sun\":1.0,\
             \"t_paragon\":1.0,\"to_backend\":[],\"from_backend\":[]},\"j_words\":5.0}",
            "{\"kind\":\"stats\"} x",
            "not json at all",
        ] {
            assert!(parse_request(line).is_none(), "must decline: {line}");
        }
    }

    #[test]
    fn fast_write_is_byte_identical_to_generic() {
        let decision = PlacementDecision {
            t_front: secs(87.47856),
            t_back: secs(6.0),
            c_to: secs(0.39147992123076925),
            c_from: secs(0.012946042362416105),
            placement: Placement::BackEnd,
        };
        let front = PlacementDecision { placement: Placement::FrontEnd, ..decision };
        let resps = [
            Response::Ack(Ack { machine: "m0".into(), accepted: true, p: 2 }),
            Response::Ack(Ack { machine: "we\"ird\\name".into(), accepted: false, p: 0 }),
            Response::Prediction(Prediction {
                machine: "m0".into(),
                p: 2,
                stale: false,
                forecaster: "last".into(),
                cache_hit: true,
                decision,
            }),
            Response::Decisions(Decisions {
                machine: "m0".into(),
                p: 1,
                stale: true,
                forecaster: "dedicated".into(),
                cache_hit: false,
                decisions: vec![decision, front],
            }),
            Response::Ok,
            Response::Error(ErrorReply { message: "bad request: tab\there".into() }),
        ];
        for resp in &resps {
            let mut fast = String::new();
            assert!(write_response(resp, &mut fast), "fast writer must take {resp:?}");
            let generic = serde_json::to_string(resp).expect("generic serialize");
            assert_eq!(fast, generic, "wire bytes must not depend on the code path");
        }
    }

    #[test]
    fn slow_kinds_defer_to_the_generic_writer() {
        let mut out = String::new();
        let ranked = Response::Ranked(crate::proto::Ranked {
            machine: "m".into(),
            p: 0,
            stale: false,
            total: 0,
            schedules: Vec::new(),
        });
        assert!(!write_response(&ranked, &mut out));
        assert!(out.is_empty(), "a declined write must leave the buffer untouched");
    }
}
