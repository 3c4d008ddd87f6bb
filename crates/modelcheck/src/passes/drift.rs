//! The `protocol-drift` pass: the wire protocol is defined in four
//! places and they must agree.
//!
//! 1. `crates/proto/src/proto.rs` — the `Request`/`Response` enums
//!    and their `kind()` tag strings are the source of truth.
//! 2. `crates/proto/src/codec.rs` — the fast path must handle (or
//!    *explicitly decline*, like `"rank" => None` or
//!    `Response::Ranked(_) => return false`) every kind; a variant
//!    added to proto.rs without touching codec.rs silently routes all
//!    traffic for it through the slow generic path — or worse, drifts
//!    the fast writer away from byte-identity.
//! 3. `crates/proto/src/binproto.rs` — the binary codec must give
//!    every kind a frame layout (or decline it explicitly, the same
//!    variant-mention rule); a kind missing here would serialize over
//!    JSON but fail the moment a client negotiates binary.
//! 4. The wire-protocol table in DESIGN.md §8 — operators read the
//!    docs, not the source.
//! 5. `crates/predictgw/src/gateway.rs` — the federation gateway's
//!    dispatch must mention every *request* kind (route it, fan it
//!    out, or decline it explicitly); a request kind added to proto.rs
//!    without a gateway arm would error at the gateway for traffic
//!    every backend understands. Response kinds are exempt: the
//!    gateway forwards backend responses opaquely.
//! 6. The journal-record table in DESIGN.md §9 against the `REC_*`
//!    constants in `crates/predictgw/src/journal.rs` — the journal is
//!    an on-disk format operators may have to inspect long after the
//!    gateway that wrote it is gone, so its documented record tags are
//!    held to the same no-drift rule as the wire table. Rows look like
//!    `| `0x02` | `REC_REPORT` | … |`; both name and tag byte must
//!    match the constants exactly.
//!
//! The pass lexes proto.rs and harvests `(direction, Variant, "kind")`
//! triples from the enum declarations and the single-line match arms
//! that pair a `Request::V`/`Response::V` path with a string literal
//! (`kind()`, serialization, deserialization — all three agree or
//! that's a finding too). Codec coverage — for the fast JSON path and
//! the binary codec alike — counts a non-test mention of either the
//! kind string (standalone, or embedded as a `"kind":"…"` tag in a
//! write pattern) or the variant path. The DESIGN table is any set of
//! markdown rows `| `kind` | direction | … |` (extra columns, like the
//! binary tag, are welcome). `#[cfg(test)]` lines never count as
//! coverage.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use super::FileInput;
use crate::lexer::{TokKind, Token};
use crate::{Diagnostic, FileScope, Rule};

/// Workspace-relative location of the protocol source of truth.
pub const PROTO_REL: &str = "crates/proto/src/proto.rs";
/// Workspace-relative location of the fast-path codec.
pub const CODEC_REL: &str = "crates/proto/src/codec.rs";
/// Workspace-relative location of the binary codec.
pub const BINPROTO_REL: &str = "crates/proto/src/binproto.rs";
/// Workspace-relative location of the protocol documentation.
pub const DESIGN_REL: &str = "DESIGN.md";
/// Workspace-relative location of the federation gateway's dispatch.
pub const GATEWAY_REL: &str = "crates/predictgw/src/gateway.rs";
/// Workspace-relative location of the journal record format.
pub const JOURNAL_REL: &str = "crates/predictgw/src/journal.rs";

/// One protocol side: enum variants and the kind tags paired with them.
#[derive(Debug, Default)]
struct Side {
    /// Variant name → declaration line (1-based).
    variants: BTreeMap<String, usize>,
    /// Variant name → kind tag (first seen) and the line it came from.
    kinds: BTreeMap<String, (String, usize)>,
}

/// Strips quotes and prefixes off a `Str` token's text; `None` for raw
/// or escaped strings (the protocol tags are plain).
fn str_content(text: &str) -> Option<&str> {
    let inner = text.strip_prefix('"')?.strip_suffix('"')?;
    if inner.contains('\\') {
        None
    } else {
        Some(inner)
    }
}

/// Groups a token stream by 1-based line, excluding comments.
fn lines_of<'t, 'a>(input: &'t FileInput<'a>) -> BTreeMap<usize, Vec<&'t Token<'a>>> {
    let mut map: BTreeMap<usize, Vec<&Token<'_>>> = BTreeMap::new();
    for t in input.code_tokens() {
        map.entry(t.line).or_default().push(t);
    }
    map
}

/// Harvests both enum declarations from proto.rs tokens.
fn harvest_enums(input: &FileInput<'_>, sides: &mut BTreeMap<&'static str, Side>) {
    let toks = input.code_tokens();
    let mut i = 0;
    while i + 2 < toks.len() {
        let is_target = toks[i].text == "enum"
            && toks[i].kind == TokKind::Ident
            && matches!(toks[i + 1].text, "Request" | "Response")
            && toks[i + 2].text == "{";
        if !is_target {
            i += 1;
            continue;
        }
        let dir = if toks[i + 1].text == "Request" { "request" } else { "response" };
        let side = sides.get_mut(dir).expect("both sides pre-seeded");
        let mut depth = 1i64;
        let mut k = i + 3;
        while k < toks.len() && depth > 0 {
            match toks[k].text {
                "{" => depth += 1,
                "}" => depth -= 1,
                "#" if depth == 1 && toks.get(k + 1).is_some_and(|t| t.text == "[") => {
                    // Skip an attribute's bracket group.
                    let mut b = 0i64;
                    k += 1;
                    while k < toks.len() {
                        match toks[k].text {
                            "[" => b += 1,
                            "]" => {
                                b -= 1;
                                if b == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                }
                _ if depth == 1 && toks[k].kind == TokKind::Ident => {
                    side.variants.insert(toks[k].text.to_string(), toks[k].line);
                    // Skip a tuple payload so its type names are not
                    // mistaken for variants.
                    if toks.get(k + 1).is_some_and(|t| t.text == "(") {
                        let mut p = 0i64;
                        k += 1;
                        while k < toks.len() {
                            match toks[k].text {
                                "(" => p += 1,
                                ")" => {
                                    p -= 1;
                                    if p == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            k += 1;
                        }
                    }
                }
                _ => {}
            }
            k += 1;
        }
        i = k;
    }
}

/// Harvests `Variant → "kind"` pairs from single-line match arms that
/// mention `Request::V`/`Response::V`, a plain string literal, and
/// `=>`. Emits a drift diagnostic when two arms disagree.
fn harvest_kinds(
    input: &FileInput<'_>,
    sides: &mut BTreeMap<&'static str, Side>,
    diags: &mut Vec<Diagnostic>,
) {
    for (line, toks) in lines_of(input) {
        if input.in_test(line) {
            continue;
        }
        let has_arrow =
            toks.windows(2).any(|w| w[0].text == "=" && w[1].text == ">" && w[0].end == w[1].start);
        if !has_arrow {
            continue;
        }
        let Some(s) =
            toks.iter().find_map(
                |t| {
                    if t.kind == TokKind::Str {
                        str_content(t.text)
                    } else {
                        None
                    }
                },
            )
        else {
            continue;
        };
        for w in toks.windows(4) {
            let path = w[0].kind == TokKind::Ident
                && matches!(w[0].text, "Request" | "Response")
                && w[1].text == ":"
                && w[2].text == ":"
                && w[3].kind == TokKind::Ident;
            if !path {
                continue;
            }
            let dir = if w[0].text == "Request" { "request" } else { "response" };
            let side = sides.get_mut(dir).expect("pre-seeded");
            let variant = w[3].text.to_string();
            match side.kinds.get(&variant) {
                Some((prev, prev_line)) if prev != s => diags.push(Diagnostic::at_line(
                    input.rel,
                    line,
                    Rule::ProtocolDrift,
                    format!(
                        "{}::{variant} is tagged {s:?} here but {prev:?} on line \
                         {prev_line} — the kind() / serialize / deserialize arms drifted",
                        w[0].text
                    ),
                )),
                Some(_) => {}
                None => {
                    side.kinds.insert(variant, (s.to_string(), line));
                }
            }
        }
    }
}

/// What the codec mentions outside `#[cfg(test)]`: plain string
/// literals (plus embedded `"kind":"…"` tags) and variant paths.
#[derive(Debug, Default)]
struct CodecCoverage {
    strings: Vec<String>,
    variants: BTreeMap<&'static str, Vec<String>>,
}

fn harvest_codec(input: &FileInput<'_>) -> CodecCoverage {
    let mut cov = CodecCoverage::default();
    let toks = input.code_tokens();
    for (k, t) in toks.iter().enumerate() {
        if input.in_test(t.line) {
            continue;
        }
        if t.kind == TokKind::Str {
            if let Some(inner) = t.text.strip_prefix('"').and_then(|s| s.strip_suffix('"')) {
                cov.strings.push(inner.to_string());
            }
        }
        let path = t.kind == TokKind::Ident
            && matches!(t.text, "Request" | "Response")
            && toks.get(k + 1).is_some_and(|n| n.text == ":")
            && toks.get(k + 2).is_some_and(|n| n.text == ":")
            && toks.get(k + 3).is_some_and(|n| n.kind == TokKind::Ident);
        if path {
            let dir = if t.text == "Request" { "request" } else { "response" };
            cov.variants.entry(dir).or_default().push(toks[k + 3].text.to_string());
        }
    }
    cov
}

impl CodecCoverage {
    /// True when the codec visibly handles (or declines) this kind.
    fn covers(&self, dir: &str, variant: &str, kind: &str) -> bool {
        let tag = format!("\\\"kind\\\":\\\"{kind}\\\"");
        let tag_unescaped = format!("\"kind\":\"{kind}\"");
        if self
            .strings
            .iter()
            .any(|s| s == kind || s.contains(tag.as_str()) || s.contains(tag_unescaped.as_str()))
        {
            return true;
        }
        self.variants.get(dir).is_some_and(|v| v.iter().any(|x| x == variant))
    }
}

/// Parses a numeric token (or table cell) like `0x02` into its value.
/// `None` for anything that is not a plain hex literal.
fn hex_value(text: &str) -> Option<u64> {
    let digits = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X"))?;
    let digits: String = digits.chars().filter(|c| *c != '_').collect();
    u64::from_str_radix(&digits, 16).ok()
}

/// Harvests `const REC_* : u8 = 0x…` declarations from journal.rs
/// tokens: `(name, tag value, 1-based line)`.
fn journal_consts(input: &FileInput<'_>) -> Vec<(String, u64, usize)> {
    let mut out = Vec::new();
    let toks = input.code_tokens();
    for (k, t) in toks.iter().enumerate() {
        let decl = t.kind == TokKind::Ident
            && t.text == "const"
            && toks.get(k + 1).is_some_and(|n| n.kind == TokKind::Ident)
            && toks[k + 1].text.starts_with("REC_")
            && toks.get(k + 2).is_some_and(|n| n.text == ":")
            && toks.get(k + 3).is_some_and(|n| n.text == "u8")
            && toks.get(k + 4).is_some_and(|n| n.text == "=")
            && toks.get(k + 5).is_some_and(|n| n.kind == TokKind::Number);
        if !decl || input.in_test(t.line) {
            continue;
        }
        if let Some(v) = hex_value(toks[k + 5].text) {
            out.push((toks[k + 1].text.to_string(), v, t.line));
        }
    }
    out
}

/// A DESIGN.md journal-table row `| `0xNN` | `REC_X` | … |`:
/// `(tag value, record name, 1-based line)`. The hex-tag first cell
/// keeps these rows disjoint from the wire table's `| `kind` |
/// request/response |` shape, so neither check misreads the other's
/// table.
fn design_journal_rows(design: &str) -> Vec<(u64, String, usize)> {
    let mut rows = Vec::new();
    for (i, line) in design.lines().enumerate() {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        if cells.len() < 4 {
            continue;
        }
        let Some(tag) = cells[1].strip_prefix('`').and_then(|c| c.strip_suffix('`')) else {
            continue;
        };
        let Some(name) = cells[2].strip_prefix('`').and_then(|c| c.strip_suffix('`')) else {
            continue;
        };
        if !name.starts_with("REC_") {
            continue;
        }
        if let Some(v) = hex_value(tag) {
            rows.push((v, name.to_string(), i + 1));
        }
    }
    rows
}

/// A DESIGN.md wire-table row: (direction, kind, 1-based line).
fn design_rows(design: &str) -> Vec<(String, String, usize)> {
    let mut rows = Vec::new();
    for (i, line) in design.lines().enumerate() {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        // `| `kind` | direction | … |` splits into ["", "`kind`", "direction", …].
        if cells.len() < 4 {
            continue;
        }
        let Some(kind) = cells[1].strip_prefix('`').and_then(|c| c.strip_suffix('`')) else {
            continue;
        };
        let dir = cells[2];
        if matches!(dir, "request" | "response") {
            rows.push((dir.to_string(), kind.to_string(), i + 1));
        }
    }
    rows
}

/// The testable core: checks the six protocol views against each
/// other. `binproto` is `None` when the binary codec file is absent
/// (one finding — a protocol without a binary layout is drift in
/// itself); `design` is `None` when DESIGN.md is absent; `gateway` and
/// `journal` are `None` when the workspace has no gateway tier
/// (silently skipped — the gateway is a subscriber to the protocol,
/// not part of it). The flat `(rel, text)` pairs keep fixtures trivial
/// to feed in tests.
#[allow(clippy::too_many_arguments)]
pub fn check(
    proto_rel: &str,
    proto: &str,
    codec_rel: &str,
    codec: &str,
    binproto_rel: &str,
    binproto: Option<&str>,
    design_rel: &str,
    design: Option<&str>,
    gateway_rel: &str,
    gateway: Option<&str>,
    journal_rel: &str,
    journal: Option<&str>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let (Ok(proto_in), Ok(codec_in)) = (
        FileInput::build(proto_rel, proto, FileScope::NONE),
        FileInput::build(codec_rel, codec, FileScope::NONE),
    ) else {
        // Lex failures are already reported by the per-file passes;
        // drift checking on a half-lexed protocol would only add noise.
        return diags;
    };

    let mut sides: BTreeMap<&'static str, Side> = BTreeMap::new();
    sides.insert("request", Side::default());
    sides.insert("response", Side::default());
    harvest_enums(&proto_in, &mut sides);
    harvest_kinds(&proto_in, &mut sides, &mut diags);
    let cov = harvest_codec(&codec_in);

    // The binary codec is held to the same coverage rule as the fast
    // JSON path; a half-lexed binproto is skipped (its own per-file
    // passes report the lex failure), a missing one is a finding.
    let bin_cov = match binproto {
        Some(text) => {
            FileInput::build(binproto_rel, text, FileScope::NONE).ok().map(|i| harvest_codec(&i))
        }
        None => {
            diags.push(Diagnostic::at_line(
                binproto_rel,
                1,
                Rule::ProtocolDrift,
                "proto.rs exists but the binary codec is missing — every wire kind \
                 needs a binary frame layout (or an explicit decline)"
                    .to_string(),
            ));
            None
        }
    };

    // The gateway dispatch is held to the coverage rule for request
    // kinds only; a half-lexed gateway is skipped (its own per-file
    // passes report the lex failure).
    let gw_cov = gateway.and_then(|text| {
        FileInput::build(gateway_rel, text, FileScope::NONE).ok().map(|i| harvest_codec(&i))
    });

    let rows = design.map(design_rows);
    if let Some(rows) = &rows {
        if rows.is_empty() {
            diags.push(Diagnostic::at_line(
                design_rel,
                1,
                Rule::ProtocolDrift,
                "no wire-protocol table found (rows of the form \
                 `| \u{60}kind\u{60} | request | … |`) — document the protocol"
                    .to_string(),
            ));
        }
    }

    for (dir, side) in &sides {
        for (variant, line) in &side.variants {
            let Some((kind, _)) = side.kinds.get(variant) else {
                diags.push(Diagnostic::at_line(
                    proto_rel,
                    *line,
                    Rule::ProtocolDrift,
                    format!(
                        "{dir} variant `{variant}` has no kind tag in any \
                         `kind()`/serialize/deserialize match arm"
                    ),
                ));
                continue;
            };
            if !cov.covers(dir, variant, kind) {
                diags.push(Diagnostic::at_line(
                    codec_rel,
                    1,
                    Rule::ProtocolDrift,
                    format!(
                        "{dir} kind {kind:?} (`{variant}`) has no fast-path arm or \
                         explicit decline in the codec — add one (or decline it \
                         explicitly) so the fast and generic paths cannot drift"
                    ),
                ));
            }
            if let Some(bin) = &bin_cov {
                if !bin.covers(dir, variant, kind) {
                    diags.push(Diagnostic::at_line(
                        binproto_rel,
                        1,
                        Rule::ProtocolDrift,
                        format!(
                            "{dir} kind {kind:?} (`{variant}`) has no binary \
                             encode/decode arm or explicit decline in the binary \
                             codec — give it a frame layout (or decline it \
                             explicitly) so the binary and JSON codecs cannot drift"
                        ),
                    ));
                }
            }
            if *dir == "request" {
                if let Some(gw) = &gw_cov {
                    if !gw.covers(dir, variant, kind) {
                        diags.push(Diagnostic::at_line(
                            gateway_rel,
                            1,
                            Rule::ProtocolDrift,
                            format!(
                                "request kind {kind:?} (`{variant}`) has no dispatch \
                                 arm or explicit decline in the gateway — route it, \
                                 fan it out, or decline it explicitly so federated \
                                 clients cannot drift from the backends"
                            ),
                        ));
                    }
                }
            }
            if let Some(rows) = &rows {
                if !rows.is_empty() && !rows.iter().any(|(d, k, _)| d == dir && k == kind) {
                    diags.push(Diagnostic::at_line(
                        design_rel,
                        rows.first().map_or(1, |r| r.2),
                        Rule::ProtocolDrift,
                        format!(
                            "wire-protocol table lacks a row for {dir} kind {kind:?} \
                             (`{variant}`)"
                        ),
                    ));
                }
            }
        }
    }
    if let Some(rows) = &rows {
        for (dir, kind, line) in rows {
            let side = &sides[dir.as_str()];
            if !side.kinds.values().any(|(k, _)| k == kind) {
                diags.push(Diagnostic::at_line(
                    design_rel,
                    *line,
                    Rule::ProtocolDrift,
                    format!(
                        "wire-protocol table documents {dir} kind {kind:?}, which \
                         does not exist in proto.rs"
                    ),
                ));
            }
        }
    }

    // The journal on-disk format: every REC_* constant needs a
    // documented row with the matching tag byte, and every documented
    // row must name a live constant. A half-lexed journal is skipped
    // (its own per-file passes report the lex failure).
    if let (Some(journal), Some(design)) = (journal, design) {
        if let Ok(j_in) = FileInput::build(journal_rel, journal, FileScope::NONE) {
            let consts = journal_consts(&j_in);
            let rows = design_journal_rows(design);
            if !consts.is_empty() && rows.is_empty() {
                diags.push(Diagnostic::at_line(
                    design_rel,
                    1,
                    Rule::ProtocolDrift,
                    "no journal-record table found (rows of the form \
                     `| \u{60}0xNN\u{60} | \u{60}REC_X\u{60} | … |`) — document the \
                     journal's on-disk format"
                        .to_string(),
                ));
            }
            for (name, value, line) in &consts {
                match rows.iter().find(|(_, n, _)| n == name) {
                    None if !rows.is_empty() => diags.push(Diagnostic::at_line(
                        journal_rel,
                        *line,
                        Rule::ProtocolDrift,
                        format!(
                            "journal record `{name}` (tag {value:#04x}) has no row in \
                             the DESIGN.md journal-record table"
                        ),
                    )),
                    Some((tag, _, row_line)) if tag != value => diags.push(Diagnostic::at_line(
                        design_rel,
                        *row_line,
                        Rule::ProtocolDrift,
                        format!(
                            "journal-record table tags `{name}` as {tag:#04x}, but \
                             journal.rs defines it as {value:#04x}"
                        ),
                    )),
                    _ => {}
                }
            }
            for (tag, name, line) in &rows {
                if !consts.iter().any(|(n, _, _)| n == name) {
                    diags.push(Diagnostic::at_line(
                        design_rel,
                        *line,
                        Rule::ProtocolDrift,
                        format!(
                            "journal-record table documents `{name}` (tag {tag:#04x}), \
                             which does not exist in journal.rs"
                        ),
                    ));
                }
            }
        }
    }
    diags
}

/// Runs the drift pass over a workspace root; a no-op when the
/// workspace has no predictd protocol (fixture trees, other repos).
pub fn check_workspace(root: &Path) -> Vec<Diagnostic> {
    let Ok(proto) = fs::read_to_string(root.join(PROTO_REL)) else {
        return Vec::new();
    };
    let Ok(codec) = fs::read_to_string(root.join(CODEC_REL)) else {
        return vec![Diagnostic::at_line(
            CODEC_REL,
            1,
            Rule::ProtocolDrift,
            "proto.rs exists but codec.rs is missing — the fast path lost its codec".to_string(),
        )];
    };
    let binproto = fs::read_to_string(root.join(BINPROTO_REL)).ok();
    let design = fs::read_to_string(root.join(DESIGN_REL)).ok();
    let gateway = fs::read_to_string(root.join(GATEWAY_REL)).ok();
    let journal = fs::read_to_string(root.join(JOURNAL_REL)).ok();
    check(
        PROTO_REL,
        &proto,
        CODEC_REL,
        &codec,
        BINPROTO_REL,
        binproto.as_deref(),
        DESIGN_REL,
        design.as_deref(),
        GATEWAY_REL,
        gateway.as_deref(),
        JOURNAL_REL,
        journal.as_deref(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROTO: &str = "\
pub enum Request {\n\
    Alpha(Alpha),\n\
    Beta,\n\
}\n\
impl Request {\n\
    pub fn kind(&self) -> &'static str {\n\
        match self {\n\
            Request::Alpha(_) => \"alpha\",\n\
            Request::Beta => \"beta\",\n\
        }\n\
    }\n\
}\n\
pub enum Response {\n\
    Ok,\n\
}\n\
impl Response {\n\
    pub fn kind(&self) -> &'static str {\n\
        match self {\n\
            Response::Ok => \"ok\",\n\
        }\n\
    }\n\
}\n";

    const DESIGN_OK: &str = "\
| kind | direction | payload |\n\
|------|-----------|---------|\n\
| `alpha` | request | a |\n\
| `beta` | request | none |\n\
| `ok` | response | none |\n";

    const BINPROTO: &str = "\
fn encode(r: &Request) { match r { Request::Alpha(_) => (), Request::Beta => (), } }\n\
fn encode_resp(r: &Response) { match r { Response::Ok => (), } }\n";

    fn codec(arms: &str) -> String {
        format!("fn parse(kind: &str) -> Option<Request> {{\n    match kind {{\n{arms}        _ => None,\n    }}\n}}\nfn write(r: &Response) {{ match r {{ Response::Ok => (), }} }}\n")
    }

    fn check_all(
        proto: &str,
        codec: &str,
        bin: Option<&str>,
        design: Option<&str>,
    ) -> Vec<Diagnostic> {
        check("p.rs", proto, "c.rs", codec, "b.rs", bin, "D.md", design, "g.rs", None, "j.rs", None)
    }

    #[test]
    fn gateway_must_dispatch_every_request_kind() {
        let c = codec("        \"alpha\" => Some(Request::Alpha(x)),\n        \"beta\" => Some(Request::Beta),\n");
        // Full dispatch (variant mentions) is clean.
        let gw =
            "fn route(r: &Request) { match r { Request::Alpha(_) => (), Request::Beta => (), } }\n";
        let d = check(
            "p.rs",
            PROTO,
            "c.rs",
            &c,
            "b.rs",
            Some(BINPROTO),
            "D.md",
            Some(DESIGN_OK),
            "g.rs",
            Some(gw),
            "j.rs",
            None,
        );
        assert!(d.is_empty(), "{d:?}");

        // A request kind with no gateway arm is drift, filed at g.rs.
        let gw = "fn route(r: &Request) { match r { Request::Alpha(_) => (), } }\n";
        let d = check(
            "p.rs",
            PROTO,
            "c.rs",
            &c,
            "b.rs",
            Some(BINPROTO),
            "D.md",
            Some(DESIGN_OK),
            "g.rs",
            Some(gw),
            "j.rs",
            None,
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].file, "g.rs");
        assert!(d[0].message.contains("\"beta\""), "{}", d[0].message);
        assert!(d[0].message.contains("gateway"), "{}", d[0].message);

        // Response kinds are exempt: a gateway that never names
        // Response::Ok stays clean (responses forward opaquely).
        let gw = "fn route(r: &Request) { match r { Request::Alpha(_) => (), Request::Beta => (), } }\nfn fwd(bytes: &[u8]) -> &[u8] { bytes }\n";
        let d = check(
            "p.rs",
            PROTO,
            "c.rs",
            &c,
            "b.rs",
            Some(BINPROTO),
            "D.md",
            Some(DESIGN_OK),
            "g.rs",
            Some(gw),
            "j.rs",
            None,
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn journal_record_table_must_match_the_constants() {
        let c = codec("        \"alpha\" => Some(Request::Alpha(x)),\n        \"beta\" => Some(Request::Beta),\n");
        let journal = "pub const REC_META: u8 = 0x01;\npub const REC_REPORT: u8 = 0x02;\n";
        let table =
            |rows: &str| format!("{DESIGN_OK}\n| tag | record | payload |\n|---|---|---|\n{rows}");
        let full = table("| `0x01` | `REC_META` | magic |\n| `0x02` | `REC_REPORT` | report |\n");
        let ok = |design: &str| {
            check(
                "p.rs",
                PROTO,
                "c.rs",
                &c,
                "b.rs",
                Some(BINPROTO),
                "D.md",
                Some(design),
                "g.rs",
                None,
                "j.rs",
                Some(journal),
            )
        };
        assert!(ok(&full).is_empty(), "{:?}", ok(&full));

        // A constant without a row is drift, filed at the constant.
        let d = ok(&table("| `0x01` | `REC_META` | magic |\n"));
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].file, "j.rs");
        assert!(d[0].message.contains("REC_REPORT"), "{}", d[0].message);

        // A row whose tag byte disagrees with the constant is drift.
        let d = ok(&table("| `0x01` | `REC_META` | magic |\n| `0x07` | `REC_REPORT` | report |\n"));
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].file, "D.md");
        assert!(d[0].message.contains("0x07") && d[0].message.contains("0x02"), "{}", d[0].message);

        // A row documenting a record the code no longer writes is drift.
        let d = ok(&format!("{full}| `0x03` | `REC_GHOST` | ? |\n"));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("does not exist"), "{}", d[0].message);

        // Constants with no table at all is one finding.
        let d = ok(DESIGN_OK);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("no journal-record table"), "{}", d[0].message);
    }

    #[test]
    fn agreeing_views_are_clean() {
        let c = codec("        \"alpha\" => Some(Request::Alpha(x)),\n        \"beta\" => Some(Request::Beta),\n");
        let d = check_all(PROTO, &c, Some(BINPROTO), Some(DESIGN_OK));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn missing_codec_arm_is_drift() {
        let c = codec("        \"alpha\" => Some(Request::Alpha(x)),\n");
        let d = check_all(PROTO, &c, Some(BINPROTO), Some(DESIGN_OK));
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::ProtocolDrift);
        assert!(d[0].message.contains("\"beta\""), "{}", d[0].message);
        assert_eq!(d[0].file, "c.rs");
    }

    #[test]
    fn variant_mention_counts_as_explicit_decline() {
        let c = codec(
            "        \"alpha\" => Some(Request::Alpha(x)),\n        Request::Beta => None,\n",
        );
        let d = check_all(PROTO, &c, Some(BINPROTO), Some(DESIGN_OK));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn test_code_does_not_count_as_coverage() {
        let c = format!(
            "{}\n#[cfg(test)]\nmod t {{\n    fn f() {{ let x = \"beta\"; }}\n}}\n",
            codec("        \"alpha\" => Some(Request::Alpha(x)),\n")
        );
        let d = check_all(PROTO, &c, Some(BINPROTO), Some(DESIGN_OK));
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn design_table_must_cover_and_not_invent_kinds() {
        let c = codec("        \"alpha\" => Some(Request::Alpha(x)),\n        \"beta\" => Some(Request::Beta),\n");
        let missing = "| `alpha` | request | a |\n| `ok` | response | none |\n";
        let d = check_all(PROTO, &c, Some(BINPROTO), Some(missing));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("lacks a row"), "{}", d[0].message);

        let ghost = format!("{DESIGN_OK}| `ghost` | request | ? |\n");
        let d = check_all(PROTO, &c, Some(BINPROTO), Some(&ghost));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("does not exist"), "{}", d[0].message);
    }

    #[test]
    fn no_table_at_all_is_one_finding() {
        let c = codec("        \"alpha\" => Some(Request::Alpha(x)),\n        \"beta\" => Some(Request::Beta),\n");
        let d = check_all(PROTO, &c, Some(BINPROTO), Some("prose only\n"));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("no wire-protocol table"));
    }

    #[test]
    fn missing_binary_arm_is_drift() {
        let c = codec("        \"alpha\" => Some(Request::Alpha(x)),\n        \"beta\" => Some(Request::Beta),\n");
        let bin = "fn encode(r: &Request) { match r { Request::Alpha(_) => (), } }\n\
                   fn encode_resp(r: &Response) { match r { Response::Ok => (), } }\n";
        let d = check_all(PROTO, &c, Some(bin), Some(DESIGN_OK));
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].file, "b.rs");
        assert!(d[0].message.contains("binary"), "{}", d[0].message);
        assert!(d[0].message.contains("\"beta\""), "{}", d[0].message);
    }

    #[test]
    fn binary_kind_string_counts_as_coverage() {
        // BINPROTO in the agreeing tests covers by variant mention; a
        // bare kind string (an explicit textual decline) works too.
        let bin = "fn enc() { let _ = (\"alpha\", \"beta\", \"ok\"); }\n";
        let c = codec("        \"alpha\" => Some(Request::Alpha(x)),\n        \"beta\" => Some(Request::Beta),\n");
        let d = check_all(PROTO, &c, Some(bin), Some(DESIGN_OK));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn missing_binary_codec_file_is_drift() {
        let c = codec("        \"alpha\" => Some(Request::Alpha(x)),\n        \"beta\" => Some(Request::Beta),\n");
        let d = check_all(PROTO, &c, None, Some(DESIGN_OK));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("binary codec is missing"), "{}", d[0].message);
        assert_eq!(d[0].file, "b.rs");
    }

    #[test]
    fn variant_without_kind_tag_is_drift() {
        let proto = "pub enum Request {\n    Alpha(Alpha),\n    Ghost,\n}\nimpl Request {\n    pub fn kind(&self) -> &'static str {\n        match self {\n            Request::Alpha(_) => \"alpha\",\n        }\n    }\n}\n";
        let c = codec("        \"alpha\" => Some(Request::Alpha(x)),\n");
        let d = check_all(proto, &c, Some("fn e(r: &Request) { match r { Request::Alpha(_) => (), Request::Ghost => (), } }\n"), None);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("Ghost"), "{}", d[0].message);
        assert_eq!(d[0].file, "p.rs");
    }

    #[test]
    fn disagreeing_tags_inside_proto_are_drift() {
        let proto = "pub enum Request {\n    Alpha(Alpha),\n}\nimpl Request {\n    pub fn kind(&self) -> &'static str {\n        match self {\n            Request::Alpha(_) => \"alpha\",\n        }\n    }\n    pub fn to_value(&self) {\n        match self {\n            Request::Alpha(p) => tagged(\"alfa\", p),\n        }\n    }\n}\n";
        let c = codec("        \"alpha\" => Some(Request::Alpha(x)),\n");
        let d = check_all(proto, &c, Some("fn e(r: &Request) { match r { Request::Alpha(_) => (), Request::Ghost => (), } }\n"), None);
        assert!(d.iter().any(|d| d.message.contains("drifted")), "{d:?}");
    }
}
