//! Name-resolution and guard-shape helpers shared by the AST passes.
//!
//! Nothing here is a full resolver — the analyzer works one crate at a
//! time with no type information. What the passes need is much
//! smaller: "is this `fn` annotated with a marker comment", "does this
//! span mention that identifier", "is this condition an ordering
//! comparison", "does this block bail out early". Those queries live
//! here so `taint.rs` and `event_loop.rs` stay about *policy*, not
//! token mechanics.

use crate::ast::{Ast, Block, FnDef, Span};
use crate::lexer::{TokKind, Token};
use crate::passes::FileInput;
use std::collections::HashMap;

/// True when the function starting on 1-based `fn_line` carries the
/// given marker comment (`modelcheck: read-path`,
/// `modelcheck: event-loop`, …) — trailing on the `fn` line or in the
/// contiguous comment/attribute block above it.
pub fn fn_annotated(input: &FileInput<'_>, fn_line: usize, marker: &str) -> bool {
    let idx = fn_line - 1;
    if input.raw_lines.get(idx).is_some_and(|l| l.contains(marker)) {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let t = input.raw_lines[j].trim_start();
        if t.starts_with("//") || t.starts_with("#[") {
            if t.contains(marker) {
                return true;
            }
        } else {
            break;
        }
    }
    false
}

/// True when any identifier token in `span` is exactly `name`.
pub fn span_mentions(toks: &[&Token<'_>], span: Span, name: &str) -> bool {
    toks[span.0..span.1.min(toks.len())].iter().any(|t| t.kind == TokKind::Ident && t.text == name)
}

/// True when `span` contains an ordering comparison (`<`, `<=`, `>`,
/// `>=`) at any depth. Equality is deliberately excluded — `len == 0`
/// proves nothing about an upper bound — and shifts (`<<`, `>>`),
/// arrows (`->`, `=>`), and generic-argument brackets written as
/// `::<…>` are filtered out.
pub fn has_ordering_cmp(toks: &[&Token<'_>], span: Span) -> bool {
    let end = span.1.min(toks.len());
    let mut angle = 0i64;
    for k in span.0..end {
        let t = toks[k];
        // Inside a `::<…>` turbofish, track bracket depth so its
        // closing `>` (possibly nested, `Vec<Vec<u8>>`) is not a cmp.
        if angle > 0 {
            match t.text {
                "<" => angle += 1,
                ">" => angle -= 1,
                _ => {}
            }
            continue;
        }
        if t.text == "<" && k > 0 && toks[k - 1].text == ":" {
            angle = 1;
            continue;
        }
        if t.text != "<" && t.text != ">" {
            continue;
        }
        let fused_prev = k > 0 && toks[k - 1].end == t.start;
        let fused_next = k + 1 < toks.len() && t.end == toks[k + 1].start;
        let prev = if k > 0 { toks[k - 1].text } else { "" };
        let next = if k + 1 < toks.len() { toks[k + 1].text } else { "" };
        // `<<` / `>>` shifts, `->` / `=>` arrows, turbofish `::<`.
        if fused_next && next == t.text {
            continue;
        }
        if fused_prev && (prev == t.text || (t.text == ">" && matches!(prev, "-" | "="))) {
            continue;
        }
        if t.text == "<" && prev == ":" {
            continue;
        }
        return true;
    }
    false
}

/// True when the block contains an early exit (`return`, `break`,
/// `continue`) or a diverging `Err(...)?`-style bail anywhere inside —
/// the shape of a bounds-check guard body.
pub fn block_has_early_exit(toks: &[&Token<'_>], block: &Block) -> bool {
    toks[block.open + 1..block.close]
        .iter()
        .any(|t| t.kind == TokKind::Ident && matches!(t.text, "return" | "break" | "continue"))
}

/// The callee name of a call, as source text.
pub fn call_name<'a>(toks: &[&Token<'a>], name_tok: usize) -> &'a str {
    toks[name_tok].text
}

/// Function definitions indexed by name. Resolution is *unique-name
/// only*: a name mapping to two or more definitions in the crate
/// (different impls, shadowed helpers) resolves to nothing, which
/// keeps the one-level call propagation in the event-loop pass from
/// chasing lookalikes.
pub struct FnIndex<'f> {
    by_name: HashMap<&'f str, Vec<&'f FnDef>>,
}

impl<'f> FnIndex<'f> {
    /// Indexes every function in `asts` (one entry per file).
    pub fn new(asts: impl IntoIterator<Item = &'f Ast>) -> Self {
        let mut by_name: HashMap<&str, Vec<&FnDef>> = HashMap::new();
        for ast in asts {
            for f in &ast.fns {
                by_name.entry(f.name.as_str()).or_default().push(f);
            }
        }
        FnIndex { by_name }
    }

    /// The unique definition for `name`, when exactly one exists.
    pub fn unique(&self, name: &str) -> Option<&'f FnDef> {
        match self.by_name.get(name).map(Vec::as_slice) {
            Some([one]) => Some(one),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;
    use crate::lexer::lex;
    use crate::FileScope;

    #[test]
    fn ordering_cmp_skips_shifts_arrows_and_turbofish() {
        let toks = lex("a << 2; b -> c; d => e; f::<u32>(); g.sum::<u64>()\n").unwrap();
        let refs: Vec<&Token<'_>> = toks.iter().collect();
        assert!(!has_ordering_cmp(&refs, (0, refs.len())));
        let toks = lex("if n > max_frame_bytes\n").unwrap();
        let refs: Vec<&Token<'_>> = toks.iter().collect();
        assert!(has_ordering_cmp(&refs, (0, refs.len())));
        let toks = lex("if n <= cap\n").unwrap();
        let refs: Vec<&Token<'_>> = toks.iter().collect();
        assert!(has_ordering_cmp(&refs, (0, refs.len())));
        let toks = lex("if n == 0\n").unwrap();
        let refs: Vec<&Token<'_>> = toks.iter().collect();
        assert!(!has_ordering_cmp(&refs, (0, refs.len())));
    }

    #[test]
    fn fn_annotated_sees_trailing_and_block_markers() {
        let src = "// modelcheck: event-loop\n#[inline]\nfn a() {}\n\nfn b() {}\n";
        let input = FileInput::build("x.rs", src, FileScope::ALL).expect("lexes");
        assert!(fn_annotated(&input, 3, "modelcheck: event-loop"));
        assert!(!fn_annotated(&input, 5, "modelcheck: event-loop"));
    }

    #[test]
    fn unique_name_resolution_rejects_duplicates() {
        let src = "fn only() {}\nimpl A { fn dup(&self) {} }\nimpl B { fn dup(&self) {} }\n";
        let toks = lex(src).unwrap();
        let refs: Vec<&Token<'_>> = toks.iter().collect();
        let ast = parse(&refs).unwrap();
        let idx = FnIndex::new([&ast]);
        assert!(idx.unique("only").is_some());
        assert!(idx.unique("dup").is_none());
        assert!(idx.unique("absent").is_none());
    }
}
