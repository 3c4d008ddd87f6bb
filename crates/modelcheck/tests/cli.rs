//! End-to-end tests: the library scan over a seeded fixture tree, the
//! `modelcheck` binary's exit codes and output modes, a lexer
//! self-test over every shipped `.rs` file, and a drift-injection test
//! proving a protocol change without a codec arm fails the scan. The
//! shipped tree must come up clean — that is the acceptance bar.

use modelcheck::passes::drift;
use modelcheck::{scan_workspace, walk_by, Rule};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/ws"))
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

#[test]
fn seeded_violations_are_all_found() {
    let diags = scan_workspace(fixture_root());
    let count = |rule: Rule| diags.iter().filter(|d| d.rule == rule).count();
    assert_eq!(count(Rule::NakedF64), 1, "{diags:?}");
    // One unannotated bit access, one whose allow names another rule.
    assert_eq!(count(Rule::FloatEnv), 2, "{diags:?}");
    // The typo fixture's misspelled pragma is itself a diagnostic.
    assert_eq!(count(Rule::Pragma), 1, "{diags:?}");
    // The conc crate seeds one of each lock shape (write-in-read-path,
    // nested acquisition, guard across I/O) and both atomics shapes.
    assert_eq!(count(Rule::LockDiscipline), 3, "{diags:?}");
    assert_eq!(count(Rule::Atomics), 2, "{diags:?}");
    // The wire crate seeds every taint sink shape: with_capacity,
    // reserve, resize, repeat-count vec!, slice index, loop bound, and
    // a raw recv_frame* length; its guarded twins stay silent.
    assert_eq!(count(Rule::WireTaint), 7, "{diags:?}");
    // The evloop crate seeds every blocking shape: lock, sleep, and a
    // stdio macro in the annotated loop, plus write_lock and write_all
    // one call level down.
    assert_eq!(count(Rule::EventLoop), 5, "{diags:?}");
    // Nothing beyond the seeded set: the allow comments held, and the
    // unscoped crate (no pragma) contributes nothing despite its naked
    // signature and bit access.
    assert_eq!(diags.len(), 21, "{diags:?}");
    assert!(
        !diags.iter().any(|d| d.file.contains("unscoped")),
        "crates without a pragma must stay exempt: {diags:?}"
    );
    // The undocumented naked signature is reported where it starts.
    let naked = diags.iter().find(|d| d.rule == Rule::NakedF64).unwrap();
    assert_eq!(naked.file, "crates/core/src/bad.rs");
    assert_eq!(naked.line, 3);
    let pragma = diags.iter().find(|d| d.rule == Rule::Pragma).unwrap();
    assert_eq!(pragma.file, "crates/typo/src/lib.rs");
    assert!(pragma.message.contains("no-panick"), "{}", pragma.message);
    // The allow on `raw` names naked-f64, so only its float-env finding
    // is left on that line.
    assert!(
        diags
            .iter()
            .any(|d| d.rule == Rule::FloatEnv && d.file.ends_with("bad.rs") && d.line == 14),
        "{diags:?}"
    );
    // Opt-in rules must not leak into tests/ trees: the fixture's naked
    // signature and bit access there stay silent.
    assert!(!diags.iter().any(|d| d.file.contains("tests/")), "{diags:?}");
    // The lock findings cover all three shapes, with spans.
    let locks: Vec<_> = diags.iter().filter(|d| d.rule == Rule::LockDiscipline).collect();
    assert!(locks.iter().any(|d| d.message.contains("read-path")), "{locks:?}");
    assert!(locks.iter().any(|d| d.message.contains("second shard lock")), "{locks:?}");
    assert!(locks.iter().any(|d| d.message.contains("write_all")), "{locks:?}");
    assert!(locks.iter().all(|d| d.col >= 1 && d.end_col > d.col), "{locks:?}");
    // Taint findings name the value, the sink, and the fix.
    let taints: Vec<_> = diags.iter().filter(|d| d.rule == Rule::WireTaint).collect();
    for sink in ["with_capacity", "reserve", "resize", "vec", "slice index", "loop bound"] {
        assert!(taints.iter().any(|d| d.message.contains(sink)), "missing {sink}: {taints:?}");
    }
    // Propagated event-loop findings say which root reaches them.
    let evs: Vec<_> = diags.iter().filter(|d| d.rule == Rule::EventLoop).collect();
    assert_eq!(evs.iter().filter(|d| d.message.contains("called from `event_loop`")).count(), 2);
}

#[test]
fn binary_exits_nonzero_on_seeded_tree() {
    let status = Command::new(env!("CARGO_BIN_EXE_modelcheck"))
        .arg(fixture_root())
        .status()
        .expect("spawn modelcheck");
    assert_eq!(status.code(), Some(1));
}

#[test]
fn binary_is_clean_on_the_shipped_tree() {
    let out = Command::new(env!("CARGO_BIN_EXE_modelcheck"))
        .arg(repo_root())
        .output()
        .expect("spawn modelcheck");
    assert!(
        out.status.success(),
        "shipped tree has diagnostics:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn json_output_is_machine_readable() {
    let out = Command::new(env!("CARGO_BIN_EXE_modelcheck"))
        .arg("--json")
        .arg(fixture_root())
        .output()
        .expect("spawn modelcheck");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let body = stdout.trim();
    assert!(body.starts_with('[') && body.ends_with(']'), "{body}");
    for rule in [
        "naked-f64",
        "float-env",
        "pragma",
        "lock-discipline",
        "atomics",
        "wire-taint",
        "event-loop",
    ] {
        assert!(body.contains(&format!("\"rule\":\"{rule}\"")), "missing {rule} in {body}");
    }
    // Family and span on every finding; no baseline status any more.
    for family in ["style", "numeric", "config", "concurrency", "dataflow"] {
        assert!(body.contains(&format!("\"family\":\"{family}\"")), "missing {family}");
    }
    assert!(body.contains("\"col\":") && body.contains("\"end_col\":"), "{body}");
    assert!(!body.contains("baselined"), "{body}");
}

/// Every shipped `.rs` file must tokenize: a file that does not lex is
/// skipped by every pass, and that should never happen on our own tree.
#[test]
fn lexer_handles_every_workspace_file() {
    let root = repo_root();
    let mut checked = 0usize;
    walk_by(&root, &mut |path: &Path| {
        if path.extension().is_some_and(|e| e == "rs") {
            let Ok(text) = fs::read_to_string(path) else { return };
            if let Err(e) = modelcheck::lexer::lex(&text) {
                panic!("{} does not lex: {}:{}: {}", path.display(), e.line, e.col, e.message);
            }
            checked += 1;
        }
    });
    assert!(checked > 50, "walked only {checked} files under {}", root.display());
}

/// The acceptance scenario for protocol drift: adding a variant to the
/// real proto.rs without touching the real codec.rs must fail the scan.
#[test]
fn drift_fires_when_a_proto_variant_lacks_a_codec_arm() {
    let root = repo_root();
    let proto = fs::read_to_string(root.join(drift::PROTO_REL)).expect("proto.rs");
    let codec = fs::read_to_string(root.join(drift::CODEC_REL)).expect("codec.rs");
    let binproto = fs::read_to_string(root.join(drift::BINPROTO_REL)).expect("binproto.rs");
    let design = fs::read_to_string(root.join(drift::DESIGN_REL)).expect("DESIGN.md");
    let gateway = fs::read_to_string(root.join(drift::GATEWAY_REL)).expect("gateway.rs");
    let journal = fs::read_to_string(root.join(drift::JOURNAL_REL)).expect("journal.rs");

    // The shipped protocol agrees with itself.
    let clean = drift::check(
        drift::PROTO_REL,
        &proto,
        drift::CODEC_REL,
        &codec,
        drift::BINPROTO_REL,
        Some(&binproto),
        "DESIGN.md",
        Some(&design),
        drift::GATEWAY_REL,
        Some(&gateway),
        drift::JOURNAL_REL,
        Some(&journal),
    );
    assert!(clean.is_empty(), "{clean:?}");

    // Inject a new request variant + kind arm into the proto text only.
    let injected = proto
        .replacen("pub enum Request {", "pub enum Request {\n    Probe,", 1)
        .replacen("match self {", "match self {\n            Request::Probe => \"probe\",", 1);
    assert_ne!(injected, proto, "injection points vanished from proto.rs");
    let diags = drift::check(
        drift::PROTO_REL,
        &injected,
        drift::CODEC_REL,
        &codec,
        drift::BINPROTO_REL,
        Some(&binproto),
        "DESIGN.md",
        Some(&design),
        drift::GATEWAY_REL,
        Some(&gateway),
        drift::JOURNAL_REL,
        Some(&journal),
    );
    assert!(
        diags.iter().any(|d| d.rule == Rule::ProtocolDrift
            && d.file == drift::CODEC_REL
            && d.message.contains("\"probe\"")),
        "expected a codec drift finding for the injected variant: {diags:?}"
    );
    // The binary codec has no frame layout for the new kind either.
    assert!(
        diags.iter().any(|d| d.rule == Rule::ProtocolDrift
            && d.file == drift::BINPROTO_REL
            && d.message.contains("\"probe\"")
            && d.message.contains("binary")),
        "expected a binary-codec drift finding for the injected variant: {diags:?}"
    );
    // The documentation table is missing the new kind too.
    assert!(
        diags.iter().any(|d| d.rule == Rule::ProtocolDrift && d.file == "DESIGN.md"),
        "{diags:?}"
    );
    // And the gateway has no dispatch arm for it: a federated client
    // would be rejected at the gateway for a kind the backends accept.
    assert!(
        diags.iter().any(|d| d.rule == Rule::ProtocolDrift
            && d.file == drift::GATEWAY_REL
            && d.message.contains("\"probe\"")
            && d.message.contains("gateway")),
        "expected a gateway drift finding for the injected variant: {diags:?}"
    );

    // Same rule for the journal's on-disk format: a new record tag in
    // journal.rs without a DESIGN.md table row must fail the scan.
    let j_injected = journal.replacen(
        "pub const REC_META",
        "pub const REC_PROBE: u8 = 0x7f;\npub const REC_META",
        1,
    );
    assert_ne!(j_injected, journal, "injection point vanished from journal.rs");
    let diags = drift::check(
        drift::PROTO_REL,
        &proto,
        drift::CODEC_REL,
        &codec,
        drift::BINPROTO_REL,
        Some(&binproto),
        "DESIGN.md",
        Some(&design),
        drift::GATEWAY_REL,
        Some(&gateway),
        drift::JOURNAL_REL,
        Some(&j_injected),
    );
    assert!(
        diags.iter().any(|d| d.rule == Rule::ProtocolDrift
            && d.file == drift::JOURNAL_REL
            && d.message.contains("REC_PROBE")),
        "expected a journal drift finding for the injected record: {diags:?}"
    );
}

/// Every shipped `.rs` file must also *parse*: the structural passes
/// skip a file on delimiter mismatch, and that degradation should
/// never trigger on our own tree.
#[test]
fn parser_handles_every_workspace_file() {
    use modelcheck::lexer::{lex, TokKind, Token};
    let root = repo_root();
    let mut checked = 0usize;
    walk_by(&root, &mut |path: &Path| {
        if path.extension().is_some_and(|e| e == "rs") {
            let Ok(text) = fs::read_to_string(path) else { return };
            let toks = lex(&text)
                .unwrap_or_else(|e| panic!("{} does not lex: {}", path.display(), e.message));
            let refs: Vec<&Token<'_>> = toks
                .iter()
                .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
                .collect();
            if let Err(e) = modelcheck::ast::parse(&refs) {
                panic!("{} does not parse: {}:{}: {}", path.display(), e.line, e.col, e.message);
            }
            checked += 1;
        }
    });
    assert!(checked > 50, "walked only {checked} files under {}", root.display());
}

/// `--list-rules` pins the catalog: one tab-separated line per rule in
/// `Rule::ALL` order, with family, pragma spelling (or `-` for
/// always-on rules), and a description.
#[test]
fn list_rules_pins_the_catalog() {
    let out = Command::new(env!("CARGO_BIN_EXE_modelcheck"))
        .arg("--list-rules")
        .output()
        .expect("spawn modelcheck");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), Rule::ALL.len(), "{stdout}");
    for (line, rule) in lines.iter().zip(Rule::ALL) {
        let fields: Vec<&str> = line.split('\t').collect();
        assert_eq!(fields.len(), 4, "{line}");
        assert_eq!(fields[0], rule.name(), "{line}");
        assert_eq!(fields[1], rule.family(), "{line}");
        assert_eq!(fields[2], rule.pragma_spelling().unwrap_or("-"), "{line}");
        assert!(!fields[3].is_empty(), "{line}");
    }
    // Spot-pin the v4 rules, the v5 rule, and one always-on rule.
    assert!(lines.iter().any(|l| l.starts_with("wire-taint\tdataflow\twire-taint\t")), "{stdout}");
    assert!(
        lines.iter().any(|l| l.starts_with("event-loop\tconcurrency\tevent-loop\t")),
        "{stdout}"
    );
    assert!(
        lines.iter().any(|l| l.starts_with("lock-order\tconcurrency\tlock-order\t")),
        "{stdout}"
    );
    assert!(lines.iter().any(|l| l.starts_with("protocol-drift\tprotocol\t-\t")), "{stdout}");
}

/// `--emit github` renders one `::error` workflow command per finding,
/// with the span properties CI needs to attach inline PR annotations.
#[test]
fn github_emit_renders_workflow_commands() {
    let out = Command::new(env!("CARGO_BIN_EXE_modelcheck"))
        .args(["--emit", "github"])
        .arg(fixture_root())
        .output()
        .expect("spawn modelcheck");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    for line in stdout.lines() {
        assert!(line.starts_with("::error "), "{line}");
        assert!(line.contains("file=") && line.contains(",line="), "{line}");
        assert!(line.contains(",col=") && line.contains(",endColumn="), "{line}");
        assert!(line.contains("title=modelcheck "), "{line}");
        assert!(line.contains("::"), "{line}");
    }
    // The seeded naked-f64 finding is annotated at its real location…
    assert!(
        stdout.contains("::error file=crates/core/src/bad.rs,line=3,"),
        "missing the naked-f64 annotation: {stdout}"
    );
    // …and message text never leaks a raw newline (workflow commands
    // are line-oriented; the emitter escapes to %0A).
    assert_eq!(stdout.lines().count(), 21, "{stdout}");

    // An unknown emit mode is a usage error, and so are the deleted
    // baseline flags.
    for args in [&["--emit", "sarif"][..], &["--fix-baseline"], &["--baseline", "b"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_modelcheck"))
            .args(args)
            .arg(fixture_root())
            .output()
            .expect("spawn modelcheck");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}

/// Builds a one-crate temp tree whose root pragma opts into `rules`,
/// with `files` under `crates/p/src/`, and returns the scan's exit
/// code plus stdout.
fn scan_temp_tree(tag: &str, rules: &str, files: &[(&str, &str)]) -> (i32, String) {
    let dir = std::env::temp_dir().join(format!("modelcheck-inj-{tag}-{}", std::process::id()));
    let src = dir.join("crates").join("p").join("src");
    fs::create_dir_all(&src).expect("mkdir");
    // A Cargo.toml marks the directory as a crate root, which is what
    // makes the scanner read the lib.rs pragma for the whole crate.
    fs::write(
        dir.join("crates").join("p").join("Cargo.toml"),
        "[package]\nname = \"p\"\nversion = \"0.1.0\"\nedition = \"2021\"\n",
    )
    .expect("write Cargo.toml");
    let mut lib = format!("//! Injection fixture crate root.\n//!\n//! modelcheck: {rules}\n\n");
    for (name, _) in files {
        lib.push_str(&format!("pub mod {};\n", name.trim_end_matches(".rs")));
    }
    fs::write(src.join("lib.rs"), lib).expect("write lib.rs");
    for (name, text) in files {
        fs::write(src.join(name), text).expect("write module");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_modelcheck"))
        .arg(&dir)
        .output()
        .expect("spawn modelcheck");
    let _ = fs::remove_dir_all(&dir);
    (out.status.code().unwrap_or(-1), String::from_utf8_lossy(&out.stdout).into_owned())
}

/// The acceptance scenario for wire-taint: deleting the real bounds
/// check in `binproto.rs`'s matrix decoder must fail the scan — the
/// decoded dimension flows to a loop bound with nothing dominating it.
#[test]
fn wire_taint_fires_when_a_real_bounds_check_is_deleted() {
    let binproto =
        fs::read_to_string(repo_root().join("crates/proto/src/binproto.rs")).expect("binproto");

    // The shipped decoder is clean under the wire-taint rule.
    let (code, stdout) = scan_temp_tree("wt-clean", "wire-taint", &[("binproto.rs", &binproto)]);
    assert_eq!(code, 0, "shipped binproto.rs must scan clean:\n{stdout}");

    // Delete the matrix-size guard and nothing else.
    let guard = "if need > self.remaining() {\n            \
                 return Err(err(format!(\"matrix size {n} exceeds frame\")));\n        }";
    let mutated = binproto.replacen(guard, "let _ = need;", 1);
    assert_ne!(mutated, binproto, "the matrix bounds check moved; update this test");

    let (code, stdout) = scan_temp_tree("wt-inj", "wire-taint", &[("binproto.rs", &mutated)]);
    assert_eq!(code, 1, "deleting the bounds check must fail the scan:\n{stdout}");
    assert!(stdout.contains("wire-taint"), "{stdout}");
    assert!(stdout.contains("`n`"), "the finding names the tainted value: {stdout}");
}

/// The acceptance scenario for lock-order: two functions that each
/// hold one shard lock while calling a helper that takes the *other*
/// shard — an ordering cycle no single function exhibits — planted in
/// the real service.rs must fail the scan.
#[test]
fn lock_order_fires_on_an_opposite_order_cycle_split_across_functions() {
    let service =
        fs::read_to_string(repo_root().join("crates/predictd/src/service.rs")).expect("service");

    // The shipped service is clean under the lock-order rule.
    let (code, stdout) = scan_temp_tree("lo-clean", "lock-order", &[("service.rs", &service)]);
    assert_eq!(code, 0, "shipped service.rs must scan clean:\n{stdout}");

    // Each injected pair is individually innocent: one guard, one call.
    // Only the cross-function order — 0 then 1 in the even path, 1 then
    // 0 in the odd path — closes the cycle.
    let injected = format!(
        "{service}\n\
         impl Service {{\n\
         \x20   fn merge_even(&self) {{\n\
         \x20       let a = write_lock(&self.shards[0]);\n\
         \x20       self.finish_even();\n\
         \x20       drop(a);\n\
         \x20   }}\n\
         \x20   fn finish_even(&self) {{\n\
         \x20       let b = write_lock(&self.shards[1]);\n\
         \x20       drop(b);\n\
         \x20   }}\n\
         \x20   fn merge_odd(&self) {{\n\
         \x20       let a = write_lock(&self.shards[1]);\n\
         \x20       self.finish_odd();\n\
         \x20       drop(a);\n\
         \x20   }}\n\
         \x20   fn finish_odd(&self) {{\n\
         \x20       let b = write_lock(&self.shards[0]);\n\
         \x20       drop(b);\n\
         \x20   }}\n\
         }}\n"
    );
    let (code, stdout) = scan_temp_tree("lo-inj", "lock-order", &[("service.rs", &injected)]);
    assert_eq!(code, 1, "the opposite-order pair must fail the scan:\n{stdout}");
    assert!(stdout.contains("lock-order"), "{stdout}");
    assert!(
        stdout.contains("shards[0]") && stdout.contains("shards[1]"),
        "the finding names both lock classes: {stdout}"
    );
}

/// The acceptance scenario for interprocedural wire-taint: deleting
/// the caller-side `.min(clean_len)` cap in the real journal replay —
/// the bound that re-establishes what `scan()` proved — must fail the
/// scan, because the on-disk length flows to a slice index unchecked.
#[test]
fn wire_taint_fires_when_the_journal_replay_cap_is_deleted() {
    let journal =
        fs::read_to_string(repo_root().join("crates/predictgw/src/journal.rs")).expect("journal");

    // The shipped journal is clean under the wire-taint rule.
    let (code, stdout) = scan_temp_tree("jr-clean", "wire-taint", &[("journal.rs", &journal)]);
    assert_eq!(code, 0, "shipped journal.rs must scan clean:\n{stdout}");

    // Delete the replay cap and nothing else.
    let mutated = journal.replacen("(pos + 4 + len).min(clean_len)", "pos + 4 + len", 1);
    assert_ne!(mutated, journal, "the replay cap moved; update this test");

    let (code, stdout) = scan_temp_tree("jr-inj", "wire-taint", &[("journal.rs", &mutated)]);
    assert_eq!(code, 1, "deleting the replay cap must fail the scan:\n{stdout}");
    assert!(stdout.contains("wire-taint"), "{stdout}");
    assert!(stdout.contains("`end`"), "the finding names the tainted value: {stdout}");
}

/// The acceptance scenario for event-loop purity: a `thread::sleep`
/// planted in the evented engine's annotated entry point must fail the
/// scan.
#[test]
fn event_loop_fires_when_sleep_is_planted_in_the_real_loop() {
    let engine = fs::read_to_string(repo_root().join("crates/predictd/src/server.rs"))
        .expect("predictd server");

    // The shipped engine is clean under the event-loop rule.
    let (code, stdout) = scan_temp_tree("ev-clean", "event-loop", &[("engine.rs", &engine)]);
    assert_eq!(code, 0, "shipped server.rs must scan clean:\n{stdout}");

    // Plant a sleep right after the loop sets up its epoll.
    let anchor = "let epoll = Epoll::new()?;";
    let planted = format!("{anchor}\n    std::thread::sleep(std::time::Duration::from_millis(1));");
    let mutated = engine.replacen(anchor, &planted, 1);
    assert_ne!(mutated, engine, "the epoll setup anchor moved; update this test");

    let (code, stdout) = scan_temp_tree("ev-inj", "event-loop", &[("engine.rs", &mutated)]);
    assert_eq!(code, 1, "a planted sleep must fail the scan:\n{stdout}");
    assert!(stdout.contains("event-loop"), "{stdout}");
    assert!(stdout.contains("sleep"), "{stdout}");
    assert!(stdout.contains("event_loop"), "the finding names the entry point: {stdout}");
}
