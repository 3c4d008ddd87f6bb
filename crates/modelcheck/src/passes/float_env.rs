//! The `float-env` pass: bit-level float access stays in `units.rs`.
//!
//! The model's proptests pin *bit-identical* equivalence between the
//! cached and direct evaluation paths, and the shard-keying code hashes
//! `f64::to_bits`. Both only stay sound while bit-level float access is
//! centralized: scattered `to_bits`/`from_bits` or ad-hoc
//! `f64::EPSILON` comparisons quietly re-introduce representation
//! assumptions the units layer exists to own. Outside `units.rs`, each
//! use needs a `modelcheck-allow: float-env` justification.

use super::FileInput;
use crate::lexer::TokKind;
use crate::{Diagnostic, Rule};

/// Runs the float-env rule over the token stream.
pub fn run(input: &FileInput<'_>) -> Vec<Diagnostic> {
    if !input.scope.float_env {
        return Vec::new();
    }
    let toks = input.code_tokens();
    let mut diags = Vec::new();
    for t in &toks {
        if t.kind != TokKind::Ident || input.in_test(t.line) {
            continue;
        }
        let why = match t.text {
            "to_bits" | "from_bits" => "bit-level float access",
            "EPSILON" => "machine-epsilon comparison",
            _ => continue,
        };
        if input.allowed(t.line - 1, Rule::FloatEnv) {
            continue;
        }
        diags.push(Diagnostic::spanned(
            input.rel,
            t.line,
            t.col,
            t.col + t.text.len(),
            Rule::FloatEnv,
            format!(
                "{why} (`{}`) outside `units.rs` — centralize representation \
                 assumptions in the units layer or justify with a \
                 `modelcheck-allow: float-env` comment",
                t.text
            ),
        ));
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FileScope;

    fn scan(rel: &str, body: &str) -> Vec<Diagnostic> {
        let scope = FileScope::ALL.for_file(rel);
        let input = FileInput::build(rel, body, scope).expect("lexes");
        run(&input)
    }

    #[test]
    fn to_bits_outside_units_is_flagged() {
        let d = scan("crates/x/src/lib.rs", "fn key(x: f64) -> u64 { x.to_bits() }\n");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::FloatEnv);
    }

    #[test]
    fn units_module_is_exempt() {
        assert!(scan("crates/x/src/units.rs", "fn key(x: f64) -> u64 { x.to_bits() }\n").is_empty());
    }

    #[test]
    fn epsilon_comparison_is_flagged_but_allow_works() {
        assert_eq!(
            scan(
                "crates/x/src/lib.rs",
                "fn close(a: f64, b: f64) -> bool { (a - b).abs() < f64::EPSILON }\n"
            )
            .len(),
            1
        );
        let ok = "// modelcheck-allow: float-env — convergence check, bound documented\n\
                  fn close(a: f64, b: f64) -> bool { (a - b).abs() < f64::EPSILON }\n";
        assert!(scan("crates/x/src/lib.rs", ok).is_empty());
    }

    #[test]
    fn prose_and_tests_are_exempt() {
        let prose = "// to_bits would be wrong here\nfn f() {}\n";
        assert!(scan("crates/x/src/lib.rs", prose).is_empty());
        let tested = "#[cfg(test)]\nmod t {\nfn f(x: f64) { x.to_bits(); }\n}\n";
        assert!(scan("crates/x/src/lib.rs", tested).is_empty());
    }
}
