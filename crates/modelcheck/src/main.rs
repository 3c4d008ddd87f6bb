//! CLI for the workspace static-analysis pass.
//!
//! ```text
//! cargo run -p modelcheck                      # human-readable diagnostics
//! cargo run -p modelcheck -- --emit json       # machine-readable JSON array
//! cargo run -p modelcheck -- --emit github     # GitHub Actions annotations
//! cargo run -p modelcheck -- --list-rules      # every rule, one per line
//! cargo run -p modelcheck -- <root>            # scan a different tree
//! ```
//!
//! Every finding is an error. Exits 0 on a clean scan, 1 when any rule
//! fires, 2 on usage errors — so CI can gate on it directly.
//!
//! ## `--emit json` output schema
//!
//! One JSON array of finding objects, sorted by (file, line, col).
//! Every object carries exactly these keys, in this order:
//!
//! ```text
//! file       string  path relative to the scan root, `/`-separated
//! line       number  1-based line of the finding
//! col        number  1-based starting column on that line
//! end_col    number  1-based column one past the flagged token
//! rule       string  rule name as printed by --list-rules
//! family     string  rule family (style, concurrency, dataflow,
//!                    numeric, config, lexer, parser)
//! message    string  human-readable explanation with the fix hint
//! ```
//!
//! The schema is append-only: consumers may rely on these keys keeping
//! their meaning, and must ignore keys they do not recognize.
//!
//! ## `--emit github` output format
//!
//! One [workflow command] per finding —
//! `::error file=F,line=L,col=C,endColumn=E,title=modelcheck R::MSG` —
//! so a CI job's findings show up as inline annotations on the pull
//! request diff with no extra tooling. Message text is escaped per the
//! workflow-command rules (`%` → `%25`, newlines → `%0A`/`%0D`).
//!
//! [workflow command]:
//!     https://docs.github.com/actions/reference/workflow-commands-for-github-actions
//!
//! ## `--list-rules` output format
//!
//! One line per rule, `tab`-separated:
//! `name<TAB>family<TAB>pragma<TAB>description`, where `pragma` is the
//! spelling to put in a `//! modelcheck:` header line to opt a file in
//! (or `-` for always-on rules that no pragma controls).

use std::path::PathBuf;
use std::process::ExitCode;

/// How findings are printed.
#[derive(Clone, Copy, PartialEq)]
enum Emit {
    Human,
    Json,
    Github,
}

/// Escapes a workflow-command *value* (the message after `::`).
fn gh_escape_value(s: &str) -> String {
    s.replace('%', "%25").replace('\r', "%0D").replace('\n', "%0A")
}

/// Escapes a workflow-command *property* (file, title — `,` and `:`
/// would terminate the property otherwise).
fn gh_escape_prop(s: &str) -> String {
    gh_escape_value(s).replace(':', "%3A").replace(',', "%2C")
}

fn main() -> ExitCode {
    let mut emit = Emit::Human;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--emit" => match args.next().as_deref() {
                Some("human") => emit = Emit::Human,
                Some("json") => emit = Emit::Json,
                Some("github") => emit = Emit::Github,
                Some(other) => {
                    eprintln!("modelcheck: unknown emit mode `{other}` (human|json|github)");
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("modelcheck: --emit needs a mode (human|json|github)");
                    return ExitCode::from(2);
                }
            },
            "--list-rules" => {
                for rule in modelcheck::Rule::ALL {
                    println!(
                        "{}\t{}\t{}\t{}",
                        rule.name(),
                        rule.family(),
                        rule.pragma_spelling().unwrap_or("-"),
                        rule.describe()
                    );
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: modelcheck [--emit human|json|github] [--list-rules] [workspace-root]"
                );
                return ExitCode::SUCCESS;
            }
            other if root.is_none() && !other.starts_with('-') => {
                root = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("modelcheck: unrecognized argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    // `cargo run -p modelcheck` sets the manifest dir to crates/modelcheck;
    // the workspace root is two levels up.
    let root =
        root.unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join(".."));

    let diags = modelcheck::scan_workspace(&root);
    match emit {
        Emit::Json => println!("{}", modelcheck::to_json(&diags)),
        Emit::Github => {
            for d in &diags {
                println!(
                    "::error file={},line={},col={},endColumn={},title={}::{}",
                    gh_escape_prop(&d.file),
                    d.line,
                    d.col,
                    d.end_col,
                    gh_escape_prop(&format!("modelcheck {}", d.rule.name())),
                    gh_escape_value(&d.message)
                );
            }
        }
        Emit::Human => {
            for d in &diags {
                println!("{d}");
            }
        }
    }
    if emit != Emit::Json {
        eprintln!(
            "modelcheck: {} diagnostic{} in {}",
            diags.len(),
            if diags.len() == 1 { "" } else { "s" },
            root.display()
        );
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
