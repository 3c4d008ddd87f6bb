//! The `naked-f64` pass: bare `f64`/`f32` in a `pub fn` signature,
//! checked on the lexed code view with a column span on every finding.

use super::FileInput;
use crate::{Diagnostic, Rule};

/// A `pub fn` signature accumulated from its first line to the opening
/// `{` or terminating `;` (whichever comes first).
fn signature_text(code_lines: &[String], start: usize) -> String {
    let mut sig = String::new();
    for code in code_lines.iter().skip(start) {
        if let Some(stop) = code.find(['{', ';']) {
            sig.push_str(&code[..stop]);
            break;
        }
        sig.push_str(code);
        sig.push(' ');
    }
    sig
}

/// True when the trimmed code line starts a public fn (`pub fn`, with
/// any stack of `async`/`unsafe`/`const`/`extern "C"` qualifiers — but
/// not `pub(crate)`).
fn is_pub_fn(trimmed: &str) -> bool {
    let Some(rest) = trimmed.strip_prefix("pub ") else { return false };
    let rest = ["async ", "unsafe ", "const ", "extern \"C\" "]
        .iter()
        .fold(rest.trim_start(), |r, q| r.strip_prefix(q).unwrap_or(r).trim_start());
    rest.strip_prefix("fn").is_some_and(|after| after.starts_with([' ', '<', '(']))
}

/// The first occurrence of `needle` in `hay` with non-identifier
/// characters (or the string boundary) on both sides — so `f64` does
/// not match inside `f64_from_u64`.
fn find_token(hay: &str, needle: &str) -> Option<usize> {
    let bytes = hay.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let ok_before = start == 0 || !is_ident(bytes[start - 1]);
        let ok_after = end >= bytes.len() || !is_ident(bytes[end]);
        if ok_before && ok_after {
            return Some(start);
        }
        from = start + 1;
    }
    None
}

/// Runs the `naked-f64` rule over the file's code view.
pub fn run(input: &FileInput<'_>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if !input.scope.naked_f64 {
        return diags;
    }
    for (i, code) in input.code_lines.iter().enumerate() {
        if input.test_mask[i] || !is_pub_fn(code.trim_start()) || input.allowed(i, Rule::NakedF64) {
            continue;
        }
        let sig = signature_text(&input.code_lines, i);
        for ty in ["f64", "f32"] {
            if find_token(&sig, ty).is_some() {
                let at = find_token(code, ty).unwrap_or(0);
                diags.push(Diagnostic::spanned(
                    input.rel,
                    i + 1,
                    at + 1,
                    at + 1 + ty.len(),
                    Rule::NakedF64,
                    format!(
                        "bare `{ty}` in a public signature — use the `units` newtypes \
                         (Seconds, Prob, Slowdown, …)"
                    ),
                ));
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FileScope;

    fn scan(body: &str) -> Vec<Diagnostic> {
        run(&FileInput::build("x.rs", body, FileScope::ALL).expect("lexes"))
    }

    #[test]
    fn string_literal_does_not_hide_code_after_fake_comment() {
        // A `//` inside a string must not cut the line: the `f64` after it
        // is still signature code.
        let d = scan("pub fn f(#[cfg_attr(feature = \"a//b\", allow(unused))] x: f64) {}\n");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::NakedF64);
    }

    #[test]
    fn block_comment_prose_is_ignored() {
        assert!(scan("/*\npub fn g() -> f64 is prose\n*/\nfn f() {}\n").is_empty());
    }

    #[test]
    fn spans_point_at_the_pattern() {
        let d = scan("pub fn f(x: f64) {}\n");
        assert_eq!((d[0].line, d[0].col, d[0].end_col), (1, 13, 16));
    }

    #[test]
    fn qualified_and_restricted_fns() {
        assert_eq!(scan("pub const fn f(x: f32) {}\n").len(), 1);
        assert!(scan("pub(crate) fn f(x: f64) {}\n").is_empty());
        assert!(scan("fn f(x: f64) {}\n").is_empty());
    }
}
