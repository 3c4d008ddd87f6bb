//! The `lock-order` pass: shard- and sequencing-lock hygiene for the
//! concurrent daemons, from one guard walk over every function body and
//! a static deadlock detector over the workspace call graph.
//!
//! **Harvest** walks every function body once and records a
//! [`FnLocks`] summary: the lock classes it acquires directly, the
//! acquisitions and resolved calls it makes while a guard is live, the
//! blocking shapes it meets with a guard live, and its first directly
//! blocking site (any [`Weight::Blocks`] or [`Weight::Io`] shape of the
//! [`super::blocking`] catalog). A *lock class* names the lock object,
//! not the guard: `read_lock(&self.shards[0])` is `shards[0]`, a
//! variable index is `shards[_]`, and a method-form acquisition
//! (`self.seq.lock()`) takes the receiver's last field name (`seq`).
//! Call sites of a guard-returning helper (the gateway's `seq_lock()`
//! pattern) count as acquisitions of the returned class.
//!
//! Guard liveness follows the block tree: a `let`-bound guard lives
//! until its enclosing block closes (or an explicit `drop(name)`), an
//! unbound temporary dies at the end of its statement. Acquisition is
//! the repo's `read_lock(` / `write_lock(` helpers or an argument-less
//! `.read()` / `.write()` / `.lock()` call — `.write(buf)` on an
//! `io::Write` sink has arguments and is not a lock, and `.lock()` on a
//! stdio handle orders console output, not shared state.
//!
//! **Emit** closes the summaries over the call graph and reports, each
//! at its own site:
//!
//! 1. **Write lock in a read path.** A function annotated with a
//!    `// modelcheck: read-path` comment (on the `fn` line or in the
//!    comment/attribute block above it) promises to only ever take read
//!    locks; an exclusive acquisition inside it is flagged.
//! 2. **Nested acquisition.** Acquiring a second lock while a guard is
//!    live is an ordering hazard (`RwLock` read-then-write on the same
//!    shard self-deadlocks under a waiting writer). When the pair also
//!    closes a cycle, the one finding says so.
//! 3. **Ordering cycles through calls.** A guard held across a call
//!    whose closure acquires class B is an edge A → B, as is every
//!    nested pair. An edge on a cycle (including A → A: re-acquiring a
//!    held class through a callee self-deadlocks) is reported at its
//!    call site.
//! 4. **Guard held across blocking work.** A blocking shape met with a
//!    guard live, or a resolved call made with a guard live whose
//!    callee's closure blocks, turns a nanosecond critical section into
//!    an I/O-length one. One finding per line.
//!
//! Findings are emitted only in files whose crate opted into
//! `lock-order`; `modelcheck-allow: lock-order — <why>` suppresses a
//! site; `#[cfg(test)]` code is exempt.

use super::blocking::{shape_at, Weight};
use crate::ast::{Ast, BlockId, Span, StmtKind};
use crate::graph::{CallGraph, FileCtx, NodeId};
use crate::lexer::{TokKind, Token};
use crate::resolve::fn_annotated;
use crate::{Diagnostic, Rule};
use std::collections::{BTreeSet, HashSet};

/// The per-function lock summary.
#[derive(Debug, Clone, Default)]
pub struct FnLocks {
    /// Lock classes acquired directly in this body.
    pub acquires: Vec<Acq>,
    /// Resolved calls made while a guard is live.
    pub held_calls: Vec<HeldCall>,
    /// Nested direct acquisitions: (held class, acquired class).
    pub nested: Vec<Nested>,
    /// Blocking shapes met in this body while a guard is live.
    pub held_blocking: Vec<HeldBlock>,
    /// First directly blocking site: (shape, 1-based line).
    pub blocking: Option<(String, usize)>,
}

/// One direct lock acquisition.
#[derive(Debug, Clone)]
pub struct Acq {
    /// The lock class.
    pub class: String,
    /// True for `write_lock(`/`.write()`/`.lock()` (exclusive).
    pub write: bool,
    /// 1-based acquisition line.
    pub line: usize,
    /// Token index of the acquisition, for reporting.
    pub tok: usize,
}

/// One resolved call made while a guard is live.
#[derive(Debug, Clone)]
pub struct HeldCall {
    /// Class of the live guard (the outermost one of that class).
    pub class: String,
    /// The callee.
    pub callee: NodeId,
    /// 1-based line of the call.
    pub line: usize,
    /// Token index of the callee name, for reporting.
    pub tok: usize,
}

/// One nested direct acquisition (`second` acquired while `first`'s
/// guard is live).
#[derive(Debug, Clone)]
pub struct Nested {
    /// The class already held.
    pub first: String,
    /// The class being acquired.
    pub second: String,
    /// 1-based line of the held guard's acquisition.
    pub held_line: usize,
    /// 1-based line of the second acquisition.
    pub line: usize,
    /// Token index of the second acquisition.
    pub tok: usize,
}

/// One blocking shape met while a guard is live.
#[derive(Debug, Clone)]
pub struct HeldBlock {
    /// The shape, as the catalog describes it.
    pub what: String,
    /// Class of the outermost live guard.
    pub class: String,
    /// 1-based line of that guard's acquisition.
    pub held_line: usize,
    /// 1-based line of the shape.
    pub line: usize,
    /// Token index of the shape.
    pub tok: usize,
}

/// If `toks[k]` acquires a lock, returns `(exclusive, line)`: the
/// `read_lock(`/`write_lock(` helpers, or an argument-less
/// `.read()`/`.write()`/`.lock()` call that is not on a stdio handle.
fn acq_at(toks: &[&Token<'_>], k: usize) -> Option<(bool, usize)> {
    let t = toks[k];
    if t.kind != TokKind::Ident {
        return None;
    }
    match t.text {
        "read_lock" | "write_lock" if toks.get(k + 1).is_some_and(|n| n.text == "(") => {
            Some((t.text == "write_lock", t.line))
        }
        "read" | "write" | "lock"
            if k > 0
                && toks[k - 1].text == "."
                && toks.get(k + 1).is_some_and(|n| n.text == "(")
                && toks.get(k + 2).is_some_and(|n| n.text == ")")
                && !(t.text == "lock" && on_stdio(toks, k)) =>
        {
            Some((t.text != "read", t.line))
        }
        _ => None,
    }
}

/// True when the `.lock()` at `toks[k]` is on a stdio handle
/// (`stdin.lock()`, `io::stdout().lock()`): that guard orders console
/// output and is no state the daemon's threads share.
fn on_stdio(toks: &[&Token<'_>], k: usize) -> bool {
    let r =
        if k >= 4 && toks[k - 2].text == ")" && toks[k - 3].text == "(" { k - 4 } else { k - 2 };
    matches!(toks.get(r).map(|t| t.text), Some("stdin" | "stdout" | "stderr"))
}

/// Index one past the `)` matching the `(` at `toks[open]`.
fn after_call(toks: &[&Token<'_>], open: usize) -> usize {
    let mut depth = 0i64;
    let mut j = open;
    while j < toks.len() {
        match toks[j].text {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

/// If the acquisition whose argument list opens at `toks[open]` is the
/// whole initializer of a `let` (the guard itself is what gets bound,
/// not a value read through it — `let g = read_lock(s);` yes,
/// `let n = read_lock(s).len();` no), returns the binding name.
/// `?` and trailing `.unwrap()`/`.expect(…)` are transparent.
fn binding_name(toks: &[&Token<'_>], k: usize, open: usize) -> Option<String> {
    let mut e = after_call(toks, open);
    loop {
        match toks.get(e).map(|t| t.text) {
            Some("?") => e += 1,
            Some(".")
                if toks.get(e + 1).is_some_and(|t| matches!(t.text, "unwrap" | "expect"))
                    && toks.get(e + 2).is_some_and(|t| t.text == "(") =>
            {
                e = after_call(toks, e + 2);
            }
            _ => break,
        }
    }
    if toks.get(e).map(|t| t.text) != Some(";") {
        return None; // part of a larger expression: the guard is a temporary
    }
    let mut j = k;
    while j > 0 {
        j -= 1;
        match toks[j].text {
            ";" | "{" | "}" => return None,
            "let" if toks[j].kind == TokKind::Ident => {
                let mut n = j + 1;
                while toks.get(n).is_some_and(|t| t.text == "mut") {
                    n += 1;
                }
                return toks
                    .get(n)
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.to_string());
            }
            _ => {}
        }
        if k - j > 48 {
            return None; // statement-start not found nearby; treat as temporary
        }
    }
    None
}

/// The class of the lock acquired at `toks[k]` (an [`acq_at`] hit).
fn class_of(toks: &[&Token<'_>], ast: &Ast, k: usize) -> String {
    if matches!(toks[k].text, "read_lock" | "write_lock") {
        // Helper form: the class lives in the argument.
        let open = k + 1;
        let close = ast.pairs.get(open).copied().unwrap_or(usize::MAX);
        if close == usize::MAX {
            return "<lock>".to_string();
        }
        return class_of_span(toks, open + 1, close);
    }
    // Method form: the class is the receiver's last field.
    class_of_receiver(toks, k)
}

/// Last field-ish name in `toks[start..end]`, with an `[N]`/`[_]`
/// suffix when that field is indexed.
fn class_of_span(toks: &[&Token<'_>], start: usize, end: usize) -> String {
    let mut base = None;
    for k in start..end.min(toks.len()) {
        let t = toks[k];
        if t.kind != TokKind::Ident || matches!(t.text, "self" | "mut" | "ref") {
            continue;
        }
        if toks.get(k + 1).is_some_and(|n| n.text == "[") {
            let lit = toks
                .get(k + 2)
                .filter(|i| i.kind == TokKind::Number)
                .filter(|_| toks.get(k + 3).is_some_and(|n| n.text == "]"));
            return match lit {
                Some(i) => format!("{}[{}]", t.text, i.text),
                None => format!("{}[_]", t.text),
            };
        }
        base = Some(t.text.to_string());
    }
    base.unwrap_or_else(|| "<lock>".to_string())
}

/// Class from the receiver chain of a method-form acquisition at
/// `toks[k]` (`self.shards[i].read()` → `shards[_]`,
/// `self.seq.lock()` → `seq`).
fn class_of_receiver(toks: &[&Token<'_>], k: usize) -> String {
    if k < 2 {
        return "<lock>".to_string();
    }
    let j = k - 2; // the token before the `.`
    match toks[j].text {
        "]" => {
            // Indexed field: find the matching `[` backward.
            let mut depth = 0i64;
            let mut m = j;
            loop {
                match toks[m].text {
                    "]" => depth += 1,
                    "[" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if m == 0 {
                    return "<lock>".to_string();
                }
                m -= 1;
            }
            let base = if m > 0 && toks[m - 1].kind == TokKind::Ident {
                toks[m - 1].text
            } else {
                return "<lock>".to_string();
            };
            let lit = (m + 2 == j && toks[m + 1].kind == TokKind::Number).then(|| toks[m + 1].text);
            match lit {
                Some(i) => format!("{base}[{i}]"),
                None => format!("{base}[_]"),
            }
        }
        _ if toks[j].kind == TokKind::Ident => toks[j].text.to_string(),
        _ => "<lock>".to_string(),
    }
}

/// True when the receiver chain ending right before the `.` at
/// `toks[k - 1]` starts at `self` (so the lock is a field of the
/// object, not a parameter — the guard-returning-helper criterion).
fn receiver_is_self_field(toks: &[&Token<'_>], k: usize) -> bool {
    if k < 2 {
        return false;
    }
    let mut m = k - 2;
    while m >= 2 && toks[m].kind == TokKind::Ident && toks[m - 1].text == "." {
        m -= 2;
    }
    toks[m].kind == TokKind::Ident && toks[m].text == "self"
}

/// Detects the guard-returning-helper shape: a one-statement body
/// whose expression is an acquisition on a `self` field (trailing
/// `unwrap_or_else`/`?` plumbing is fine).
fn returns_lock_of(toks: &[&Token<'_>], ast: &Ast, body: BlockId) -> Option<String> {
    let block = &ast.blocks[body];
    if block.stmts.len() != 1 {
        return None;
    }
    let StmtKind::Expr(_) = block.stmts[0].kind else { return None };
    for k in block.open + 1..block.close {
        if acq_at(toks, k).is_some() && toks[k - 1].text == "." && receiver_is_self_field(toks, k) {
            return Some(class_of(toks, ast, k));
        }
    }
    None
}

/// A live guard during the harvest walk.
struct Guard {
    /// Binding name when `let`-bound; `None` for a temporary.
    name: Option<String>,
    /// The guarded lock's class.
    class: String,
    /// Block depth at acquisition (body entry is depth 1).
    depth: i64,
    /// 1-based line of the acquisition, for messages.
    line: usize,
}

struct Harvester<'w, 't, 'a> {
    files: &'w [FileCtx<'t, 'a>],
    g: &'w CallGraph,
    /// Pre-computed guard-returning classes, indexed by node.
    returns: &'w [Option<String>],
    node: NodeId,
    guards: Vec<Guard>,
    depth: i64,
    out: FnLocks,
}

impl<'w, 't, 'a> Harvester<'w, 't, 'a> {
    fn toks(&self) -> &'t [&'t Token<'a>] {
        self.files[self.g.nodes[self.node].file].toks
    }

    fn ast(&self) -> &'t Ast {
        self.files[self.g.nodes[self.node].file].ast
    }

    fn walk_block(&mut self, b: BlockId) {
        self.depth += 1;
        let stmts = self.ast().blocks[b].stmts.clone();
        for stmt in &stmts {
            let mut nested: Vec<BlockId> = Vec::new();
            match &stmt.kind {
                StmtKind::Item => continue, // nested fns harvest on their own
                StmtKind::Let { init: Some(e), .. } | StmtKind::Expr(e) => {
                    self.ast().blocks_of_expr(*e, &mut nested);
                }
                StmtKind::Let { .. } => {}
            }
            nested.sort_by_key(|&nb| self.ast().blocks[nb].open);
            self.scan_span(stmt.span, &nested);
            // Unbound temporaries die at statement end.
            let d = self.depth;
            self.guards.retain(|g| !(g.name.is_none() && g.depth == d));
        }
        self.depth -= 1;
        let d = self.depth;
        self.guards.retain(|g| g.depth <= d);
    }

    /// Scans a statement's tokens in source order, recursing into each
    /// nested block at its position so guard lifetimes stay accurate.
    fn scan_span(&mut self, span: Span, nested: &[BlockId]) {
        let mut ni = 0;
        let mut k = span.0;
        while k < span.1.min(self.toks().len()) {
            if ni < nested.len() && self.ast().blocks[nested[ni]].open == k {
                let close = self.ast().blocks[nested[ni]].close;
                self.walk_block(nested[ni]);
                ni += 1;
                k = close + 1;
                continue;
            }
            let toks = self.toks();
            let t = toks[k];
            if t.text == "drop"
                && t.kind == TokKind::Ident
                && toks.get(k + 1).is_some_and(|n| n.text == "(")
                && toks.get(k + 2).is_some_and(|n| n.kind == TokKind::Ident)
                && toks.get(k + 3).is_some_and(|n| n.text == ")")
            {
                let name = toks[k + 2].text;
                self.guards.retain(|g| g.name.as_deref() != Some(name));
                k += 4;
                continue;
            }
            // Direct acquisition, or a call (to a guard-returning helper
            // it is an acquisition too).
            if let Some((write, line)) = acq_at(toks, k) {
                self.acquire(class_of(toks, self.ast(), k), write, line, k);
            } else if let Some(callee) = self.g.callee_of(self.node, k) {
                self.held_call(callee, k);
                if let Some(class) = self.returns[callee].clone() {
                    self.acquire(class, true, t.line, k);
                }
            }
            if let Some((Weight::Blocks | Weight::Io, what)) = shape_at(toks, self.ast(), k) {
                self.blocks(what, t.line, k);
            }
            k += 1;
        }
    }

    fn acquire(&mut self, class: String, write: bool, line: usize, k: usize) {
        for g in &self.guards {
            if !self
                .out
                .nested
                .iter()
                .any(|n| n.first == g.class && n.second == class && n.line == line)
            {
                self.out.nested.push(Nested {
                    first: g.class.clone(),
                    second: class.clone(),
                    held_line: g.line,
                    line,
                    tok: k,
                });
            }
        }
        if !self.out.acquires.iter().any(|a| a.class == class && a.line == line) {
            self.out.acquires.push(Acq { class: class.clone(), write, line, tok: k });
        }
        let name = binding_name(self.toks(), k, k + 1);
        self.guards.push(Guard { name, class, depth: self.depth, line });
    }

    /// Records a blocking shape: the body's first blocking site, and a
    /// held-guard site when a guard is live.
    fn blocks(&mut self, what: String, line: usize, k: usize) {
        if let Some(g) = self.guards.first() {
            self.out.held_blocking.push(HeldBlock {
                what: what.clone(),
                class: g.class.clone(),
                held_line: g.line,
                line,
                tok: k,
            });
        }
        if self.out.blocking.is_none() {
            self.out.blocking = Some((what, line));
        }
    }

    fn held_call(&mut self, callee: NodeId, k: usize) {
        let line = self.toks()[k].line;
        let classes: Vec<String> = self.guards.iter().map(|g| g.class.clone()).collect();
        for class in classes {
            if !self.out.held_calls.iter().any(|h| h.class == class && h.callee == callee) {
                self.out.held_calls.push(HeldCall { class, callee, line, tok: k });
            }
        }
    }
}

/// Harvests the per-function lock summaries.
pub fn harvest(files: &[FileCtx<'_, '_>], g: &CallGraph) -> Vec<FnLocks> {
    let returns: Vec<Option<String>> = g
        .nodes
        .iter()
        .map(|n| {
            let f = &files[n.file];
            returns_lock_of(f.toks, f.ast, n.body)
        })
        .collect();
    let mut out = Vec::with_capacity(g.nodes.len());
    for id in 0..g.nodes.len() {
        let mut h = Harvester {
            files,
            g,
            returns: &returns,
            node: id,
            guards: Vec::new(),
            depth: 0,
            out: FnLocks::default(),
        };
        h.walk_block(g.nodes[id].body);
        out.push(h.out);
    }
    out
}

/// The annotation that marks a read-only function.
const READ_PATH: &str = "modelcheck: read-path";

/// Closes the summaries over the call graph and reports every lock
/// hazard at its own site, at most one of each kind per line.
pub fn emit(files: &[FileCtx<'_, '_>], g: &CallGraph, locks: &[FnLocks]) -> Vec<Diagnostic> {
    let n = g.nodes.len();
    // Transitive acquired-class sets.
    let mut acq: Vec<BTreeSet<String>> =
        locks.iter().map(|l| l.acquires.iter().map(|a| a.class.clone()).collect()).collect();
    loop {
        let mut changed = false;
        for id in 0..n {
            let mut add = Vec::new();
            for site in &g.edges[id] {
                for c in &acq[site.callee] {
                    if !acq[id].contains(c) {
                        add.push(c.clone());
                    }
                }
            }
            for c in add {
                changed |= acq[id].insert(c);
            }
        }
        if !changed {
            break;
        }
    }
    // Transitive blocking sites: own first, else the first callee's.
    let mut blocking: Vec<Option<(String, String)>> = locks
        .iter()
        .enumerate()
        .map(|(id, l)| {
            l.blocking.as_ref().map(|(what, line)| {
                (what.clone(), format!("{}:{line}", files[g.nodes[id].file].input.rel))
            })
        })
        .collect();
    loop {
        let mut changed = false;
        for id in 0..n {
            if blocking[id].is_some() {
                continue;
            }
            let hit = g.edges[id].iter().find_map(|s| blocking[s.callee].clone());
            if hit.is_some() {
                blocking[id] = hit;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Class-level ordering edges: nested pairs, plus guards held across
    // calls whose closure acquires further classes.
    let mut adj: BTreeSet<(&str, &str)> = BTreeSet::new();
    for l in locks {
        for nst in &l.nested {
            adj.insert((&nst.first, &nst.second));
        }
        for hc in &l.held_calls {
            for to in &acq[hc.callee] {
                adj.insert((&hc.class, to));
            }
        }
    }
    let reaches = |start: &str, target: &str| -> bool {
        let mut stack = vec![start];
        let mut seen: HashSet<&str> = HashSet::new();
        while let Some(x) = stack.pop() {
            for &(a, b) in &adj {
                if a == x {
                    if b == target {
                        return true;
                    }
                    if seen.insert(b) {
                        stack.push(b);
                    }
                }
            }
        }
        false
    };
    let cycle = |from: &str, to: &str, how: String| {
        let back = if from == to {
            "re-acquiring a held lock self-deadlocks".to_string()
        } else {
            format!(
                "elsewhere `{to}` is held while `{from}` is acquired, so two threads can deadlock"
            )
        };
        format!(
            "lock-order cycle: guard on `{from}` is live while {how}, and {back} — acquire the \
             classes in one global order or narrow the first guard's scope (justify with \
             `modelcheck-allow: lock-order`)"
        )
    };

    let mut diags = Vec::new();
    let mut reported: HashSet<(usize, usize, &str)> = HashSet::new();
    for (id, l) in locks.iter().enumerate() {
        let node = &g.nodes[id];
        let f = &files[node.file];
        if !f.input.scope.lock_order {
            continue;
        }
        let mut report = |line: usize, tok: usize, kind: &'static str, message: String| {
            if f.input.in_test(line)
                || f.input.allowed(line - 1, Rule::LockOrder)
                || !reported.insert((node.file, line, kind))
            {
                return;
            }
            let t = f.toks[tok];
            diags.push(Diagnostic::spanned(
                f.input.rel,
                t.line,
                t.col,
                t.col + t.text.len(),
                Rule::LockOrder,
                message,
            ));
        };
        if fn_annotated(f.input, node.line, READ_PATH) {
            for a in l.acquires.iter().filter(|a| a.write) {
                report(
                    a.line,
                    a.tok,
                    "read-path",
                    format!(
                        "exclusive lock on `{}` acquired in a `{READ_PATH}` function — read \
                         paths must stay read-only",
                        a.class
                    ),
                );
            }
        }
        for nst in &l.nested {
            let on_cycle =
                l.nested.iter().find(|o| o.line == nst.line && reaches(&o.second, &o.first));
            let message = match on_cycle {
                Some(o) => cycle(&o.first, &o.second, format!("acquiring `{}`", o.second)),
                None => format!(
                    "second lock (`{}`) acquired while the guard on `{}` from line {} is still \
                     live — lock ordering / self-deadlock hazard; close the first guard's \
                     scope or `drop` it first",
                    nst.second, nst.first, nst.held_line
                ),
            };
            report(nst.line, nst.tok, "order", message);
        }
        for hc in &l.held_calls {
            for to in &acq[hc.callee] {
                if reaches(to, &hc.class) {
                    let how = format!(
                        "calling `{}`, whose call closure acquires `{to}`",
                        g.nodes[hc.callee].name
                    );
                    report(hc.line, hc.tok, "order", cycle(&hc.class, to, how));
                }
            }
        }
        for b in &l.held_blocking {
            report(
                b.line,
                b.tok,
                "blocking",
                format!(
                    "{} while the guard on `{}` from line {} is live — do the blocking work \
                     outside the critical section or justify with `modelcheck-allow: lock-order`",
                    b.what, b.class, b.held_line
                ),
            );
        }
        for hc in &l.held_calls {
            let Some((what, site)) = &blocking[hc.callee] else { continue };
            report(
                hc.line,
                hc.tok,
                "blocking",
                format!(
                    "guard on `{}` held across a call to `{}`, which blocks ({what} at {site}) — \
                     do the blocking work outside the critical section or justify with \
                     `modelcheck-allow: lock-order`",
                    hc.class, g.nodes[hc.callee].name
                ),
            );
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;
    use crate::passes::FileInput;
    use crate::FileScope;

    fn scan(src: &str) -> Vec<Diagnostic> {
        let input = FileInput::build("x.rs", src, FileScope::ALL).expect("lexes");
        let toks = input.code_tokens();
        let ast = parse(&toks).expect("parses");
        let files = [FileCtx { input: &input, toks: &toks, ast: &ast, crate_dir: None }];
        let g = CallGraph::build(&files);
        let locks = harvest(&files, &g);
        emit(&files, &g, &locks)
    }

    #[test]
    fn opposite_order_across_two_functions_is_a_cycle() {
        let src = "fn merge_even(&self) {\n\
                   \x20   let a = read_lock(&self.shards[0]);\n\
                   \x20   self.finish_even(&a);\n\
                   }\n\
                   fn finish_even(&self, a: &Shard) {\n\
                   \x20   let b = read_lock(&self.shards[1]);\n\
                   }\n\
                   fn merge_odd(&self) {\n\
                   \x20   let a = read_lock(&self.shards[1]);\n\
                   \x20   self.finish_odd(&a);\n\
                   }\n\
                   fn finish_odd(&self, a: &Shard) {\n\
                   \x20   let b = read_lock(&self.shards[0]);\n\
                   }\n";
        let d = scan(src);
        assert_eq!(d.len(), 2, "one finding per direction: {d:?}");
        assert!(d[0].message.contains("lock-order cycle"), "{d:?}");
        assert!(d.iter().any(|x| x.message.contains("finish_even")), "{d:?}");
    }

    #[test]
    fn consistent_order_across_functions_is_fine() {
        let src = "fn merge_even(&self) {\n\
                   \x20   let a = read_lock(&self.shards[0]);\n\
                   \x20   self.finish_even(&a);\n\
                   }\n\
                   fn finish_even(&self, a: &Shard) {\n\
                   \x20   let b = read_lock(&self.shards[1]);\n\
                   }\n\
                   fn also_ordered(&self) {\n\
                   \x20   let a = read_lock(&self.shards[0]);\n\
                   \x20   let b = read_lock(&self.shards[1]);\n\
                   }\n";
        // The intra-body pair in `also_ordered` is a nested acquisition,
        // not a cycle: same direction everywhere.
        let d = scan(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 10);
        assert!(d[0].message.contains("second lock"), "{d:?}");
        assert!(!d[0].message.contains("cycle"), "{d:?}");
    }

    #[test]
    fn a_nested_pair_on_a_cycle_is_reported_once() {
        let src = "fn ab(&self) {\n\
                   \x20   let a = read_lock(&self.shards[0]);\n\
                   \x20   let b = read_lock(&self.shards[1]);\n\
                   }\n\
                   fn ba(&self) {\n\
                   \x20   let b = read_lock(&self.shards[1]);\n\
                   \x20   let a = read_lock(&self.shards[0]);\n\
                   }\n";
        let d = scan(src);
        assert_eq!(d.len(), 2, "one finding per site: {d:?}");
        assert_eq!((d[0].line, d[1].line), (3, 7), "{d:?}");
        assert!(d.iter().all(|x| x.message.contains("lock-order cycle")), "{d:?}");
    }

    #[test]
    fn reacquiring_a_held_class_through_a_callee_self_deadlocks() {
        let src = "fn outer(&self) {\n\
                   \x20   let a = write_lock(&self.shards[0]);\n\
                   \x20   self.inner();\n\
                   }\n\
                   fn inner(&self) {\n\
                   \x20   let b = read_lock(&self.shards[0]);\n\
                   }\n";
        let d = scan(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("self-deadlocks"), "{d:?}");
    }

    #[test]
    fn guard_returning_helper_counts_as_an_acquisition() {
        let src = "impl Gw {\n\
                   \x20 fn seq_lock(&self) -> MutexGuard<'_, J> {\n\
                   \x20     self.seq.lock().unwrap_or_else(PoisonError::into_inner)\n\
                   \x20 }\n\
                   \x20 fn a(&self) {\n\
                   \x20     let g = self.seq_lock();\n\
                   \x20     let h = read_lock(&self.shards[0]);\n\
                   \x20 }\n\
                   \x20 fn b(&self) {\n\
                   \x20     let h = read_lock(&self.shards[0]);\n\
                   \x20     let g = self.seq_lock();\n\
                   \x20 }\n\
                   }\n";
        let d = scan(src);
        // One finding per site, although line 11 is both a nested
        // acquisition and a held call into the helper.
        let lines: Vec<usize> = d.iter().map(|x| x.line).collect();
        assert_eq!(lines, [7, 11], "opposite seq/shard orders must cycle: {d:?}");
        assert!(d.iter().all(|x| x.message.contains("lock-order cycle")), "{d:?}");
        assert!(d.iter().any(|x| x.message.contains("`seq`")), "{d:?}");
    }

    #[test]
    fn guard_across_blocking_callee_is_flagged() {
        let src = "fn publish(&self) {\n\
                   \x20   let g = read_lock(&self.shards[0]);\n\
                   \x20   self.append_all(&g);\n\
                   }\n\
                   fn append_all(&self, s: &Shard) {\n\
                   \x20   self.file.write_all(s.bytes()).ok();\n\
                   }\n";
        let d = scan(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("which blocks"), "{d:?}");
        assert!(d[0].message.contains("write_all"), "{d:?}");
        assert_eq!(d[0].line, 3, "reported at the held call site");
    }

    #[test]
    fn blocking_callee_without_a_guard_is_fine() {
        let src = "fn publish(&self) {\n\
                   \x20   let bytes = self.snapshot();\n\
                   \x20   self.append_all(&bytes);\n\
                   }\n\
                   fn snapshot(&self) -> Vec<u8> { Vec::new() }\n\
                   fn append_all(&self, s: &[u8]) {\n\
                   \x20   self.file.write_all(s).ok();\n\
                   }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn write_in_read_path_is_flagged() {
        let src = "// modelcheck: read-path\n\
                   fn machine_count(&self) -> usize {\n\
                   \x20   let g = write_lock(&self.shards[0]);\n\
                   \x20   g.len()\n\
                   }\n";
        let d = scan(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("read-path"));
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn read_in_read_path_is_fine() {
        let src = "// modelcheck: read-path\n\
                   fn count(&self) -> usize { let g = read_lock(&self.shards[0]); g.len() }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn nested_acquisition_is_flagged_even_via_method_form() {
        let src = "fn cross(&self) {\n\
                   \x20   let a = self.shards[0].read();\n\
                   \x20   let b = self.shards[1].read();\n\
                   \x20   use_both(a, b);\n\
                   }\n";
        let d = scan(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("line 2"));
    }

    #[test]
    fn sequential_scoped_guards_are_fine() {
        // The real `with_profile` shape: read guard in an inner block,
        // write lock only after the block closes.
        let src = "fn with_profile(&self) {\n\
                   {\n\
                   \x20   let guard = read_lock(shard);\n\
                   \x20   if let Some(p) = guard.get() { return p; }\n\
                   }\n\
                   let mut guard = write_lock(shard);\n\
                   guard.insert();\n\
                   }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn explicit_drop_releases_the_guard() {
        let src = "fn f(&self) {\n\
                   \x20   let a = read_lock(s0);\n\
                   \x20   drop(a);\n\
                   \x20   let b = write_lock(s1);\n\
                   }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let src = "fn f(&self) {\n\
                   \x20   let n = read_lock(s0).len();\n\
                   \x20   let b = read_lock(s1);\n\
                   }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn guard_across_io_is_flagged() {
        let src = "fn handle(&self, out: &mut TcpStream) {\n\
                   \x20   let g = read_lock(shard);\n\
                   \x20   out.write_all(g.bytes()).ok();\n\
                   }\n";
        let d = scan(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("write_all"), "{d:?}");
    }

    #[test]
    fn sleep_stdio_and_file_reads_under_a_guard_are_each_flagged() {
        let src = "fn report(&self) {\n\
                   \x20   let g = write_lock(&self.shards[0]);\n\
                   \x20   std::thread::sleep(d);\n\
                   \x20   eprintln!(\"slow\");\n\
                   \x20   let b = std::fs::read(path);\n\
                   }\n";
        let d = scan(src);
        let lines: Vec<usize> = d.iter().map(|x| x.line).collect();
        assert_eq!(lines, [3, 4, 5], "{d:?}");
        for what in ["`sleep(`", "`eprintln!`", "`fs::read`"] {
            assert!(d.iter().any(|x| x.message.contains(what)), "missing {what}: {d:?}");
        }
    }

    #[test]
    fn io_after_guard_scope_closes_is_fine() {
        let src = "fn handle(&self, out: &mut W) {\n\
                   \x20   let bytes = { let g = read_lock(shard); g.bytes() };\n\
                   \x20   out.write_all(&bytes).ok();\n\
                   }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn write_with_arguments_is_not_a_lock() {
        let src = "fn sink(&self, out: &mut W) { out.write(buf).ok(); out.write(b).ok(); }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn io_error_plumbing_is_not_io() {
        let src = "fn f(&self) -> io::Result<()> {\n\
                   \x20   let g = read_lock(shard);\n\
                   \x20   Err(io::Error::new(io::ErrorKind::Other, \"x\"))\n\
                   }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn a_stdio_handle_lock_is_not_a_guard() {
        // The daemon's stdio loop: console locks held across console
        // writes and the service call are not shared state.
        let src = "fn serve(service: &Service) {\n\
                   \x20   let stdin = io::stdin();\n\
                   \x20   let mut stdout = io::stdout().lock();\n\
                   \x20   for line in stdin.lock().lines() {\n\
                   \x20       stdout.write_all(line.as_bytes()).ok();\n\
                   \x20   }\n\
                   }\n";
        assert!(scan(src).is_empty(), "{:?}", scan(src));
    }

    #[test]
    fn allow_suppresses_and_tests_are_exempt() {
        let nested = "fn f(&self) {\n\
                      \x20   let a = read_lock(s0);\n\
                      \x20   // modelcheck-allow: lock-order — ordered by shard index\n\
                      \x20   let b = read_lock(s1);\n\
                      }\n";
        assert!(scan(nested).is_empty());
        let tested = "#[cfg(test)]\nmod t {\n\
                      fn f() { let a = read_lock(s0); let b = read_lock(s1); }\n\
                      }\n";
        assert!(scan(tested).is_empty());
        let src = "fn on_report(&self) {\n\
                   \x20   let g = self.seq_lock();\n\
                   \x20   // modelcheck-allow: lock-order — journal append is the designed \
                   serialization point\n\
                   \x20   self.append_all(&g);\n\
                   }\n\
                   fn seq_lock(&self) -> MutexGuard<'_, J> {\n\
                   \x20   self.seq.lock().unwrap_or_else(PoisonError::into_inner)\n\
                   }\n\
                   fn append_all(&self, s: &J) {\n\
                   \x20   self.file.write_all(s.bytes()).ok();\n\
                   }\n";
        assert!(scan(src).is_empty(), "{:?}", scan(src));
    }
}
