//! The `atomics` pass: memory-ordering hygiene for the relaxed-atomic
//! metrics and shutdown plumbing.
//!
//! Two rules:
//!
//! 1. **Strong orderings need a reason.** `Ordering::SeqCst` and
//!    `Ordering::AcqRel` are global-synchronization sledgehammers; in a
//!    codebase whose hot path is deliberately `Relaxed`, each use must
//!    carry a `modelcheck-allow: atomics` comment saying what it
//!    synchronizes (e.g. a shutdown flag that must be seen before the
//!    wake connection).
//! 2. **No torn read-modify-write.** `x.store(x.load(..) + 1, ..)` on
//!    an atomic loses updates under concurrency; the pass flags any
//!    `.store(` call whose argument span contains a `.load(` call (both
//!    read straight off the AST's call table) — use
//!    `fetch_add`/`fetch_max` instead.

use super::FileInput;
use crate::ast::Ast;
use crate::lexer::{TokKind, Token};
use crate::{Diagnostic, Rule};

/// Runs the atomics rules over the parsed file.
pub fn run(input: &FileInput<'_>, toks: &[&Token<'_>], ast: &Ast) -> Vec<Diagnostic> {
    if !input.scope.atomics {
        return Vec::new();
    }
    let mut diags = Vec::new();
    // Rule 1: strong-ordering mentions, straight off the tokens (an
    // ordering is a path expression, not a call).
    for t in toks {
        if t.kind != TokKind::Ident || input.in_test(t.line) {
            continue;
        }
        if matches!(t.text, "SeqCst" | "AcqRel") && !input.allowed(t.line - 1, Rule::Atomics) {
            diags.push(Diagnostic::spanned(
                input.rel,
                t.line,
                t.col,
                t.col + t.text.len(),
                Rule::Atomics,
                format!(
                    "`Ordering::{}` — strong orderings need a \
                     `modelcheck-allow: atomics` comment stating what they \
                     synchronize (the hot path is Relaxed by design)",
                    t.text
                ),
            ));
        }
    }
    // Rule 2: a `.store(…)` whose arguments contain a `.load(…)`.
    for c in &ast.calls {
        if !c.is_method || toks[c.name_tok].text != "store" {
            continue;
        }
        let t = toks[c.name_tok];
        if input.in_test(t.line) || input.allowed(t.line - 1, Rule::Atomics) {
            continue;
        }
        let torn = ast
            .calls_in(c.args)
            .iter()
            .any(|inner| inner.is_method && toks[inner.name_tok].text == "load");
        if torn {
            diags.push(Diagnostic::spanned(
                input.rel,
                t.line,
                t.col,
                t.col + t.text.len(),
                Rule::Atomics,
                "`.store(… .load(…) …)` is a non-atomic \
                 read-modify-write and loses updates — use \
                 `fetch_add`/`fetch_max`/`compare_exchange`"
                    .to_string(),
            ));
        }
    }
    diags.sort_by_key(|d| (d.line, d.col));
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;
    use crate::FileScope;

    fn scan(body: &str) -> Vec<Diagnostic> {
        let input = FileInput::build("x.rs", body, FileScope::ALL).expect("lexes");
        let toks = input.code_tokens();
        let ast = parse(&toks).expect("parses");
        run(&input, &toks, &ast)
    }

    #[test]
    fn seqcst_needs_a_justification() {
        let d = scan("fn f(b: &AtomicBool) { b.store(true, Ordering::SeqCst); }\n");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("SeqCst"));
        let ok = "fn f(b: &AtomicBool) {\n\
                  \x20   // modelcheck-allow: atomics — shutdown flag must be visible before wake\n\
                  \x20   b.store(true, Ordering::SeqCst);\n\
                  }\n";
        assert!(scan(ok).is_empty());
    }

    #[test]
    fn acqrel_is_also_strong() {
        assert_eq!(scan("fn f(n: &AtomicU64) { n.fetch_add(1, Ordering::AcqRel); }\n").len(), 1);
    }

    #[test]
    fn relaxed_is_free() {
        assert!(scan("fn f(n: &AtomicU64) { n.fetch_add(1, Ordering::Relaxed); }\n").is_empty());
    }

    #[test]
    fn store_of_load_plus_one_is_a_torn_rmw() {
        let d = scan(
            "fn f(n: &AtomicU64) { n.store(n.load(Ordering::Relaxed) + 1, Ordering::Relaxed); }\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("read-modify-write"));
    }

    #[test]
    fn independent_store_and_load_are_fine() {
        let src = "fn f(n: &AtomicU64) {\n\
                   \x20   let v = n.load(Ordering::Relaxed);\n\
                   \x20   n.store(0, Ordering::Relaxed);\n\
                   \x20   use_it(v);\n\
                   }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn tests_are_exempt() {
        let src = "#[cfg(test)]\nmod t {\n\
                   fn f(b: &AtomicBool) { b.store(true, Ordering::SeqCst); }\n\
                   }\n";
        assert!(scan(src).is_empty());
    }
}
