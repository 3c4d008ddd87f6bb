//! The analysis passes and the shared per-file input they run over.
//!
//! [`FileInput::build`] lexes a file once and derives everything every
//! pass needs: the raw lines (for allow comments and annotations), a
//! *code view* of each line with comment bytes blanked out (so textual
//! rules never fire on prose, even in block comments or after `//`
//! hidden inside a string), the per-line `modelcheck-allow` grants, the
//! `#[cfg(test)]` mask, and the token stream itself. A file the lexer
//! rejects is skipped: its only finding is one [`crate::Rule::Lex`]
//! diagnostic, just as a file that does not parse is skipped by the
//! structural passes.

pub mod atomics;
pub mod drift;
pub mod event_loop;
pub mod float_env;
pub mod lock;
pub mod lock_order;
pub mod taint;
pub mod textual;

use crate::lexer::{lex, TokKind, Token};
use crate::{Diagnostic, FileScope, Rule};

/// Everything the per-file passes share, computed once per file.
pub struct FileInput<'a> {
    /// Workspace-relative path used in diagnostics.
    pub rel: &'a str,
    /// The file's lines, verbatim.
    pub raw_lines: Vec<&'a str>,
    /// The file's lines with every comment byte blanked to a space
    /// (string contents are preserved — signatures like `extern "C"`
    /// must stay visible).
    pub code_lines: Vec<String>,
    /// `allows[i]` is the rule name granted on 0-based line `i`, if any.
    pub allows: Vec<Option<String>>,
    /// `test_mask[i]` is true when 0-based line `i` sits inside a
    /// `#[cfg(test)]`-gated item.
    pub test_mask: Vec<bool>,
    /// The token stream.
    pub tokens: Vec<Token<'a>>,
    /// The rules in force for this file.
    pub scope: FileScope,
}

impl<'a> FileInput<'a> {
    /// Lexes `text` and assembles the shared pass input, or returns the
    /// [`Rule::Lex`] diagnostic when the file does not lex.
    pub fn build(
        rel: &'a str,
        text: &'a str,
        scope: FileScope,
    ) -> Result<FileInput<'a>, Diagnostic> {
        let tokens = lex(text).map_err(|e| {
            Diagnostic::spanned(
                rel,
                e.line,
                e.col,
                e.col + 1,
                Rule::Lex,
                format!("file does not lex ({}); file skipped", e.message),
            )
        })?;
        let raw_lines: Vec<&str> = text.lines().collect();
        let code_lines = blank_comments(text, &tokens);
        let allows = collect_allows(&raw_lines);
        let test_mask = cfg_test_mask(&code_lines);
        Ok(FileInput { rel, raw_lines, code_lines, allows, test_mask, tokens, scope })
    }

    /// True when 0-based line `i` carries an allow for `rule`: on the
    /// line itself, or anywhere in the contiguous comment block
    /// directly above it (so a justification can take several lines).
    pub fn allowed(&self, i: usize, rule: Rule) -> bool {
        let hit = |j: usize| self.allows.get(j).and_then(Option::as_deref) == Some(rule.name());
        if hit(i) {
            return true;
        }
        let mut j = i;
        while j > 0 {
            j -= 1;
            let t = self.raw_lines.get(j).map_or("", |l| l.trim_start());
            if !(t.starts_with("//") || t.starts_with("#[")) {
                return false;
            }
            if hit(j) {
                return true;
            }
        }
        false
    }

    /// True when 1-based line `line` is inside a `#[cfg(test)]` block.
    pub fn in_test(&self, line: usize) -> bool {
        line >= 1 && self.test_mask.get(line - 1).copied().unwrap_or(false)
    }

    /// The non-comment tokens, in source order.
    pub fn code_tokens(&self) -> Vec<&Token<'a>> {
        self.tokens
            .iter()
            .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .collect()
    }
}

/// Rebuilds the file's lines with every comment token's bytes replaced
/// by spaces (newlines kept, so line numbering is unchanged).
fn blank_comments(text: &str, tokens: &[Token<'_>]) -> Vec<String> {
    let mut bytes = text.as_bytes().to_vec();
    for t in tokens {
        if matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
            for b in &mut bytes[t.start..t.end] {
                if *b != b'\n' {
                    *b = b' ';
                }
            }
        }
    }
    // Only ASCII bytes were rewritten (whole comment spans cover whole
    // chars), so the buffer is still valid UTF-8.
    String::from_utf8(bytes)
        .unwrap_or_else(|_| text.to_string())
        .lines()
        .map(str::to_string)
        .collect()
}

/// Per-line allow annotations: `allows[i]` is the rule name granted on
/// line `i` (0-based), if any.
fn collect_allows(lines: &[&str]) -> Vec<Option<String>> {
    lines
        .iter()
        .map(|line| {
            let marker = "modelcheck-allow:";
            let at = line.find(marker)?;
            let rest = line[at + marker.len()..].trim_start();
            let name: String =
                rest.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '-').collect();
            if name.is_empty() {
                None
            } else {
                Some(name)
            }
        })
        .collect()
}

/// Marks every line inside a `#[cfg(test)]`-gated item by brace counting
/// from the attribute to the close of the block it opens. Operates on
/// the comment-blanked code view, so a comment mentioning the attribute
/// does not start a mask.
fn cfg_test_mask(code_lines: &[String]) -> Vec<bool> {
    let mut mask = vec![false; code_lines.len()];
    let mut i = 0;
    while i < code_lines.len() {
        if !code_lines[i].contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        let mut depth = 0i64;
        let mut opened = false;
        let mut j = i;
        while j < code_lines.len() {
            mask[j] = true;
            for c in code_lines[j].chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if opened && depth <= 0 {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_view_blanks_block_and_line_comments_but_keeps_strings() {
        let text = "let a = 1; /* panic! */ // more\nlet s = \"x // y\";\n";
        let input = FileInput::build("a.rs", text, FileScope::ALL).expect("lexes");
        assert!(!input.code_lines[0].contains("panic"));
        assert!(!input.code_lines[0].contains("more"));
        assert!(input.code_lines[0].contains("let a = 1;"));
        assert!(input.code_lines[1].contains("\"x // y\""));
    }

    #[test]
    fn multiline_block_comment_blanks_every_line() {
        let text = "a\n/*\nx.unwrap()\n*/\nb\n";
        let input = FileInput::build("a.rs", text, FileScope::ALL).expect("lexes");
        assert_eq!(input.code_lines.len(), 5);
        assert!(input.code_lines[2].trim().is_empty());
        assert_eq!(input.code_lines[4], "b");
    }

    #[test]
    fn a_file_that_does_not_lex_yields_exactly_one_lex_finding() {
        // Every opt-in rule would fire on this text if it were scanned:
        // a naked `f64` in a public signature and a `to_bits` call.
        let text = "pub fn f(x: f64) -> u64 { x.to_bits() }\nlet s = \"never closed;\n";
        let diags = crate::scan_file("a.rs", text, FileScope::ALL);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::Lex);
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn cfg_test_mask_ignores_comment_mentions() {
        let text = "// #[cfg(test)] would mask\nfn f() {}\n#[cfg(test)]\nmod t {\n}\n";
        let input = FileInput::build("a.rs", text, FileScope::ALL).expect("lexes");
        assert!(!input.test_mask[0] && !input.test_mask[1]);
        assert!(input.test_mask[2] && input.test_mask[3] && input.test_mask[4]);
    }
}
