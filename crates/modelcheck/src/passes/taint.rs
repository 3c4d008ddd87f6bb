//! The `wire-taint` pass: an interprocedural dataflow over `let`
//! bindings and function parameters that tracks values decoded from
//! the wire and flags their use as an allocation size, slice index, or
//! loop bound without a dominating bounds check.
//!
//! v5 runs in two phases over the workspace call graph. **Summarize**
//! computes a [`FnTaint`] summary per function to a fixpoint: which
//! parameters flow into a sink (directly or through further calls),
//! and whether the return value is wire-derived. **Emit** re-walks
//! each function with the final summaries and reports: a tainted value
//! reaching a local sink, a tainted value passed to a callee whose
//! summary sinks that parameter (the finding carries the full
//! `file:line` call-path trace), and a tainted return value flowing
//! out of a resolved call into a caller-side sink.
//!
//! **Labels** — a value's taint is a bitmask: bit 63 ([`WIRE`]) marks
//! wire-derived data, bit `i` marks "derived from parameter `i`".
//! Parameter labels build summaries; only [`WIRE`] produces findings.
//!
//! **Sources** — a binding is tainted when its initializer contains:
//! `.u8(`/`.u16(`/`.u32(`/`.u64(` cursor reads, `from_le_bytes` /
//! `from_be_bytes`, any `recv_frame*` call, a call to a function whose
//! summary marks its return wire-derived; or when it mentions an
//! already-tainted binding (derivation). Plain `.read(` is *not* a
//! source (the kernel bounds the returned count by the buffer length).
//! Composite returns (a struct literal in the return expression) do
//! not taint the return value: taint tracks sizes and counts, not
//! decoded records.
//!
//! **Sinks** — a tainted value reaching `Vec::with_capacity`,
//! `.reserve(`/`.reserve_exact(`/`.resize(`, `vec![x; n]`, a postfix
//! slice index `buf[n]`, a `for _ in 0..n` loop bound, or an argument
//! position a callee's summary sinks.
//!
//! **Sanitizers** — `.min(`/`.clamp(`/`.saturating_*(` in the
//! initializer or at the sink use; `usize::try_from(..)` whose error
//! is consumed locally with a bounded fallback (`.unwrap_or(0)`
//! sanitizes; `.unwrap_or(usize::MAX)` re-introduces an unbounded
//! value and `?` merely propagates the error while the success value
//! flows through unbounded, so both keep the taint); an `if` whose
//! ordering comparison
//! (`<` `<=` `>` `>=`) mentions the value and whose body exits early
//! (`return`/`break`/`continue`) sanitizes it for the rest of the
//! scope; entering a later branch of an `if`/`else if` chain sanitizes
//! values the earlier ordering conditions compared (else-branch
//! domination); `assert!`-family macros with an ordering comparison.
//! Equality comparisons prove nothing about an upper bound and never
//! sanitize. Sanitization closes over derivation links in both
//! directions, and a caller-side check sanitizes the callee: an
//! argument cleared by a dominating guard propagates no taint.
//!
//! Known limits (by design, to stay zero-dependency and fast): only
//! simple `let name = …` bindings and named parameters are tracked —
//! values bound through match/`if let` patterns or struct fields are
//! not followed, comparison *direction* is not checked, and calls only
//! resolve through the unique-name rule of [`crate::graph`].

use super::FileInput;
use crate::ast::{Ast, BlockId, ExprId, ExprKind, Span, StmtKind};
use crate::graph::{split_args, CallGraph, FileCtx, NodeId};
use crate::lexer::{TokKind, Token};
use crate::resolve::{block_has_early_exit, has_ordering_cmp, span_mentions};
use crate::{Diagnostic, Rule};
use std::collections::{HashMap, HashSet};

/// Method-call names whose result is wire-derived.
const SOURCE_METHODS: [&str; 4] = ["u8", "u16", "u32", "u64"];
/// Free/associated call names whose result is wire-derived.
const SOURCE_CALLS: [&str; 2] = ["from_le_bytes", "from_be_bytes"];
/// Method sinks that allocate by the argument amount.
const ALLOC_METHODS: [&str; 3] = ["reserve", "reserve_exact", "resize"];

/// The label bit marking wire-derived data.
pub const WIRE: u64 = 1 << 63;
/// Parameter labels use bits `0..PARAM_BITS`; later parameters are
/// untracked (none of the workspace's functions come close).
const PARAM_BITS: usize = 62;
/// Fixpoint round cap; summaries are monotone so this is a backstop,
/// not a tuning knob (the workspace converges in a handful of rounds).
const MAX_ROUNDS: usize = 10;

/// The per-function taint summary.
#[derive(Debug, Clone, Default)]
pub struct FnTaint {
    /// Labels carried by the function's return value.
    pub ret: u64,
    /// Parameters that reach a sink, with the path to it.
    pub sinks: Vec<ParamSink>,
}

/// One parameter-to-sink flow in a function's summary.
#[derive(Debug, Clone)]
pub struct ParamSink {
    /// Parameter index (receiver excluded, matching argument order).
    pub param: usize,
    /// Sink kind: `alloc(<name>)`, `index`, or `loop-bound`.
    pub what: String,
    /// `file:line` steps from this function's sink (or forwarding call
    /// site) down to the final sink.
    pub trace: Vec<String>,
}

/// Renders a label mask for `--dump-summaries` (`-` when empty).
pub fn render_labels(mask: u64, params: &[String]) -> String {
    if mask == 0 {
        return "-".to_string();
    }
    let mut parts = Vec::new();
    if mask & WIRE != 0 {
        parts.push("wire".to_string());
    }
    for (i, p) in params.iter().enumerate().take(PARAM_BITS) {
        if mask & (1 << i) != 0 {
            parts.push(format!("p{i}({p})"));
        }
    }
    parts.join("|")
}

/// Computes the per-function summaries to a fixpoint (Jacobi rounds
/// over a snapshot; summaries only grow, so the iteration converges).
pub fn summarize(files: &[FileCtx<'_, '_>], g: &CallGraph) -> Vec<FnTaint> {
    let mut sums: Vec<FnTaint> = vec![FnTaint::default(); g.nodes.len()];
    for _ in 0..MAX_ROUNDS {
        let prev = sums.clone();
        let mut changed = false;
        for (id, entry) in sums.iter_mut().enumerate() {
            let mut w = Walk::new(files, g, &prev, id, false);
            w.run();
            if entry.ret | w.out.ret != entry.ret {
                entry.ret |= w.out.ret;
                changed = true;
            }
            for s in w.out.sinks {
                if !entry.sinks.iter().any(|e| e.param == s.param && e.what == s.what) {
                    entry.sinks.push(s);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    for s in &mut sums {
        s.sinks.sort_by(|a, b| (a.param, a.what.as_str()).cmp(&(b.param, b.what.as_str())));
    }
    sums
}

/// Re-walks every function in a `wire-taint`-scoped file with the
/// final summaries and emits the findings.
pub fn emit(files: &[FileCtx<'_, '_>], g: &CallGraph, sums: &[FnTaint]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (id, n) in g.nodes.iter().enumerate() {
        let f = &files[n.file];
        if !f.input.scope.wire_taint || f.input.in_test(n.line) {
            continue;
        }
        let mut w = Walk::new(files, g, sums, id, true);
        w.run();
        diags.append(&mut w.diags);
    }
    diags
}

/// Human phrasing for a [`ParamSink::what`] sink kind.
fn describe(what: &str) -> String {
    if let Some(inner) = what.strip_prefix("alloc(").and_then(|s| s.strip_suffix(')')) {
        format!("the allocation size of `{inner}`")
    } else if what == "index" {
        "a slice index".to_string()
    } else {
        "a loop bound".to_string()
    }
}

/// One walk over one function body: tracks label masks per binding and
/// routes sink hits to diagnostics (emit phase) or the summary
/// (summarize phase).
struct Walk<'w, 't, 'a> {
    files: &'w [FileCtx<'t, 'a>],
    g: &'w CallGraph,
    sums: &'w [FnTaint],
    node: NodeId,
    /// Current label mask per live binding name.
    labels: HashMap<String, u64>,
    /// Derivation links: binding → labeled names its initializer read.
    deps: HashMap<String, Vec<String>>,
    /// Whether findings are emitted (the emit phase, outside tests).
    emit: bool,
    /// (line, col) pairs already reported, to dedup branch re-walks.
    seen: HashSet<(usize, usize)>,
    diags: Vec<Diagnostic>,
    /// The summary collected by this walk (summarize phase).
    out: FnTaint,
}

impl<'w, 't, 'a> Walk<'w, 't, 'a> {
    fn new(
        files: &'w [FileCtx<'t, 'a>],
        g: &'w CallGraph,
        sums: &'w [FnTaint],
        node: NodeId,
        emit: bool,
    ) -> Self {
        let mut labels = HashMap::new();
        for (i, p) in g.nodes[node].params.iter().enumerate().take(PARAM_BITS) {
            if !p.is_empty() {
                labels.insert(p.clone(), 1u64 << i);
            }
        }
        Walk {
            files,
            g,
            sums,
            node,
            labels,
            deps: HashMap::new(),
            emit,
            seen: HashSet::new(),
            diags: Vec::new(),
            out: FnTaint::default(),
        }
    }

    fn file(&self) -> &'w FileCtx<'t, 'a> {
        &self.files[self.g.nodes[self.node].file]
    }

    fn toks(&self) -> &'t [&'t Token<'a>] {
        self.file().toks
    }

    fn ast(&self) -> &'t Ast {
        self.file().ast
    }

    fn input(&self) -> &'t FileInput<'a> {
        self.file().input
    }

    fn site(&self, tok: usize) -> String {
        format!("{}:{}", self.input().rel, self.toks()[tok].line)
    }

    fn run(&mut self) {
        let body = self.g.nodes[self.node].body;
        self.walk_block(body, true);
    }

    fn walk_block(&mut self, block: BlockId, fn_body: bool) {
        let entry_labels = self.labels.clone();
        let entry_deps = self.deps.clone();
        let stmts = self.ast().blocks[block].stmts.clone();
        let last = stmts.len().saturating_sub(1);
        for (si, stmt) in stmts.iter().enumerate() {
            match &stmt.kind {
                StmtKind::Let { name, init } => {
                    if let Some(init) = *init {
                        let span = self.ast().exprs[init].span;
                        self.check_sinks(span);
                        self.walk_expr_blocks(init);
                        self.apply_assert_sanitizers(span);
                        if let Some(name) = name {
                            self.bind(name, span);
                        }
                    } else if let Some(name) = name {
                        self.labels.remove(name);
                    }
                }
                StmtKind::Expr(e) => {
                    let span = self.ast().exprs[*e].span;
                    if self.toks()[span.0].text == "return" {
                        self.out.ret |= self.ret_labels_of((span.0 + 1, span.1));
                    } else if fn_body
                        && si == last
                        && self.toks().get(span.1).is_none_or(|t| t.text != ";")
                    {
                        self.out.ret |= self.ret_labels_of(span);
                    }
                    self.walk_expr(*e);
                }
                StmtKind::Item => {}
            }
        }
        // Bindings introduced here go out of scope, and `let` can only
        // shadow (never rebind) an outer name, so exiting the block
        // simply restores the entry state.
        self.labels = entry_labels;
        self.deps = entry_deps;
    }

    /// Records the binding produced by `let name = <init span>;`.
    fn bind(&mut self, name: &str, init: Span) {
        if self.sanitized_at_use(init) {
            self.labels.remove(name);
            self.deps.remove(name);
            return;
        }
        let mask = self.labels_of(init);
        if mask == 0 {
            self.labels.remove(name);
            self.deps.remove(name);
            return;
        }
        let mut sources: Vec<String> = Vec::new();
        for t in &self.toks()[init.0..init.1.min(self.toks().len())] {
            if t.kind == TokKind::Ident && self.labels.contains_key(t.text) {
                sources.push(t.text.to_string());
            }
        }
        sources.sort();
        sources.dedup();
        sources.retain(|s| s != name); // self-rebind keeps taint, not a link
        self.labels.insert(name.to_string(), mask);
        self.deps.insert(name.to_string(), sources);
    }

    /// The label mask carried by `span`: labeled bindings it mentions,
    /// [`WIRE`] when it contains a wire-read source, plus whatever the
    /// summaries say resolved calls in it return.
    fn labels_of(&self, span: Span) -> u64 {
        let mut mask = 0u64;
        for t in &self.toks()[span.0..span.1.min(self.toks().len())] {
            if t.kind == TokKind::Ident {
                if let Some(m) = self.labels.get(t.text) {
                    mask |= m;
                }
            }
        }
        if self.span_has_source(span) {
            mask |= WIRE;
        }
        for c in self.ast().calls_in(span) {
            if c.is_macro {
                continue;
            }
            let Some(callee) = self.g.callee_of(self.node, c.name_tok) else { continue };
            let ret = self.sums[callee].ret;
            if ret == 0 {
                continue;
            }
            if ret & WIRE != 0 {
                mask |= WIRE;
            }
            // A callee return labeled with its parameter `j` carries
            // whatever the argument in position `j` carries here.
            if ret & !WIRE != 0 {
                let args = split_args(self.ast(), self.toks(), c.args);
                for (j, a) in args.iter().enumerate().take(PARAM_BITS) {
                    if ret & (1 << j) != 0 && !self.sanitized_at_use(*a) {
                        mask |= self.labels_of(*a);
                    }
                }
            }
        }
        mask
    }

    /// [`labels_of`] for return positions: a composite return (struct
    /// literal, block-valued expression) does not taint the return —
    /// taint tracks sizes and counts, not decoded records.
    fn ret_labels_of(&self, span: Span) -> u64 {
        let end = span.1.min(self.toks().len());
        if (span.0..end).any(|k| self.toks()[k].text == "{") {
            return 0;
        }
        if self.sanitized_at_use(span) {
            return 0;
        }
        self.labels_of(span)
    }

    /// True when the span contains a wire-read source call.
    fn span_has_source(&self, span: Span) -> bool {
        self.ast().calls_in(span).iter().any(|c| {
            let name = self.toks()[c.name_tok].text;
            (c.is_method && SOURCE_METHODS.contains(&name))
                || SOURCE_CALLS.contains(&name)
                || name.starts_with("recv_frame")
        })
    }

    /// True when the span caps the value right where it is used:
    /// `.min(`/`.clamp(`/`.saturating_*(`, or a `usize::try_from(..)`
    /// whose error fallback is bounded.
    fn sanitized_at_use(&self, span: Span) -> bool {
        self.ast().calls_in(span).iter().any(|c| {
            let name = self.toks()[c.name_tok].text;
            if c.is_method && (matches!(name, "min" | "clamp") || name.starts_with("saturating_")) {
                return true;
            }
            !c.is_method && !c.is_macro && name == "try_from" && self.try_from_bounded(c.close)
        })
    }

    /// `usize::try_from(x)` sanitizes only when the error is *consumed
    /// locally* with a bounded fallback — `.unwrap_or(0)`,
    /// `.unwrap_or_default()` — because the operator chose a cap for
    /// the bad case and (by writing the fallback) audited the good one.
    /// `?`/`.map_err(…)?` merely *propagate* the error: on success the
    /// wire value passes through unchanged and unbounded, so the taint
    /// stays. `.unwrap_or(…MAX…)` re-introduces an unbounded value and
    /// keeps the taint too.
    fn try_from_bounded(&self, close: usize) -> bool {
        let toks = self.toks();
        let k = close + 1;
        if !(toks.get(k).is_some_and(|t| t.text == ".")
            && toks.get(k + 1).is_some_and(|t| t.text.starts_with("unwrap_or"))
            && toks.get(k + 2).is_some_and(|t| t.text == "("))
        {
            return false;
        }
        let close = self.ast().pairs.get(k + 2).copied().unwrap_or(usize::MAX);
        if close != usize::MAX {
            for t in &toks[k + 3..close.min(toks.len())] {
                if t.kind == TokKind::Ident && t.text == "MAX" {
                    return false;
                }
            }
        }
        true
    }

    /// Clears `name` and everything linked to it through derivation,
    /// in both directions (checking `need = n * 8` also clears `n`).
    fn sanitize_closure(&mut self, name: &str) {
        let mut work = vec![name.to_string()];
        while let Some(n) = work.pop() {
            if self.labels.remove(&n).is_none() {
                continue;
            }
            if let Some(srcs) = self.deps.get(&n) {
                work.extend(srcs.iter().cloned());
            }
            for (k, srcs) in &self.deps {
                if srcs.iter().any(|s| s == &n) {
                    work.push(k.clone());
                }
            }
        }
    }

    /// The labeled names an ordering comparison in `span` mentions.
    fn checked_names(&self, span: Span) -> Vec<String> {
        if !has_ordering_cmp(self.toks(), span) {
            return Vec::new();
        }
        self.labels.keys().filter(|n| span_mentions(self.toks(), span, n)).cloned().collect()
    }

    /// `assert!`/`debug_assert!` with an ordering comparison sanitizes
    /// the names it mentions for the rest of the scope.
    fn apply_assert_sanitizers(&mut self, span: Span) {
        let mut cleared = Vec::new();
        for c in self.ast().calls_in(span) {
            if c.is_macro && matches!(self.toks()[c.name_tok].text, "assert" | "debug_assert") {
                cleared.extend(self.checked_names(c.args));
            }
        }
        for n in cleared {
            self.sanitize_closure(&n);
        }
    }

    fn walk_expr(&mut self, e: ExprId) {
        let expr = self.ast().exprs[e].clone();
        match &expr.kind {
            ExprKind::If { conds } => {
                for c in conds {
                    self.check_sinks(*c);
                }
                for (i, b) in expr.blocks.iter().enumerate() {
                    // Entering branch i: every ordering comparison in
                    // the chain up to and including cond i dominates it
                    // — an earlier one was false, the current one true;
                    // either way the value was checked against a bound.
                    let saved_labels = self.labels.clone();
                    let saved_deps = self.deps.clone();
                    let upto = (i + 1).min(conds.len());
                    let mut cleared = Vec::new();
                    for c in &conds[..upto] {
                        cleared.extend(self.checked_names(*c));
                    }
                    for n in cleared {
                        self.sanitize_closure(&n);
                    }
                    self.walk_block(*b, false);
                    self.labels = saved_labels;
                    self.deps = saved_deps;
                }
                // After the statement: a guard branch that exits early
                // leaves its checked names sanitized on the
                // fall-through.
                for (i, c) in conds.iter().enumerate() {
                    let Some(&b) = expr.blocks.get(i) else { continue };
                    if block_has_early_exit(self.toks(), &self.ast().blocks[b]) {
                        for n in self.checked_names(*c) {
                            self.sanitize_closure(&n);
                        }
                    }
                }
            }
            ExprKind::Match { head, arms } => {
                self.check_sinks(*head);
                for arm in arms {
                    let saved_labels = self.labels.clone();
                    let saved_deps = self.deps.clone();
                    self.walk_expr(arm.body);
                    self.labels = saved_labels;
                    self.deps = saved_deps;
                }
            }
            ExprKind::For { iter } => {
                self.check_loop_bound(*iter);
                self.check_sinks(*iter);
                for b in &expr.blocks {
                    self.walk_block(*b, false);
                }
            }
            ExprKind::While { cond } => {
                // A `while` condition is neither a sink nor a
                // sanitizer: it is re-evaluated, so it neither
                // allocates once nor proves a bound for code after the
                // loop.
                self.check_sinks(*cond);
                for b in &expr.blocks {
                    self.walk_block(*b, false);
                }
            }
            ExprKind::Plain => {
                self.check_sinks(expr.span);
                self.apply_assert_sanitizers(expr.span);
                for b in &expr.blocks {
                    self.walk_block(*b, false);
                }
            }
        }
    }

    /// Walks only the nested blocks of an expression (used for `let`
    /// initializers, whose span is sink-checked separately).
    fn walk_expr_blocks(&mut self, e: ExprId) {
        let blocks = self.ast().exprs[e].blocks.clone();
        for b in blocks {
            self.walk_block(b, false);
        }
    }

    /// The first [`WIRE`]-labeled name `span` mentions, if any.
    fn wire_name_in(&self, span: Span) -> Option<(usize, String)> {
        for k in span.0..span.1.min(self.toks().len()) {
            let t = self.toks()[k];
            if t.kind == TokKind::Ident && self.labels.get(t.text).is_some_and(|m| m & WIRE != 0) {
                return Some((k, t.text.to_string()));
            }
        }
        None
    }

    /// Routes a labeled value reaching a sink: [`WIRE`] emits a
    /// diagnostic (emit phase), parameter labels are recorded in the
    /// summary. `tail` is the callee-side remainder of the call path.
    fn sink_hit(&mut self, at: usize, value: Option<Span>, mask: u64, what: &str, tail: &[String]) {
        if mask == 0 {
            return;
        }
        let t = self.toks()[at];
        // An allow on the sink line suppresses the finding *and* the
        // summary entry: the justification covers the flow, so callers
        // must not re-report it.
        if self.input().allowed(t.line - 1, Rule::WireTaint) {
            return;
        }
        let mut trace = vec![self.site(at)];
        trace.extend(tail.iter().cloned());
        if mask & WIRE != 0 {
            let name = value
                .and_then(|s| self.wire_name_in(s))
                .map_or_else(|| "<wire read>".to_string(), |(_, n)| n);
            self.report(at, &name, what, &trace);
        }
        let params = self.g.nodes[self.node].params.len().min(PARAM_BITS);
        for i in 0..params {
            if mask & (1 << i) != 0
                && !self.out.sinks.iter().any(|s| s.param == i && s.what == what)
            {
                self.out.sinks.push(ParamSink {
                    param: i,
                    what: what.to_string(),
                    trace: trace.clone(),
                });
            }
        }
    }

    fn report(&mut self, at: usize, name: &str, what: &str, trace: &[String]) {
        if !self.emit {
            return;
        }
        let t = self.toks()[at];
        if !self.seen.insert((t.line, t.col)) {
            return;
        }
        let sink = describe(what);
        let message = if trace.len() > 1 {
            format!(
                "wire-tainted value `{name}` flows into {sink} through the call path \
                 {} without a dominating bounds check — cap it before the call (`.min(…)`, \
                 compare against a limit with an early return, or justify with \
                 `modelcheck-allow: wire-taint`)",
                trace.join(" -> ")
            )
        } else {
            format!(
                "wire-tainted value `{name}` used as {sink} without a dominating bounds check — \
                 cap it first (`.min(…)`, compare against a `MAX_*`/`max_frame_bytes` limit with \
                 an early return, or justify with `modelcheck-allow: wire-taint`)"
            )
        };
        self.diags.push(Diagnostic::spanned(
            self.input().rel,
            t.line,
            t.col,
            t.col + t.text.len(),
            Rule::WireTaint,
            message,
        ));
    }

    /// Allocation, index, `vec![…; n]`, and callee-summary sinks
    /// inside `span`.
    fn check_sinks(&mut self, span: Span) {
        let calls: Vec<_> = self.ast().calls_in(span).to_vec();
        for c in &calls {
            let name = self.toks()[c.name_tok].text;
            let is_alloc = (name == "with_capacity" && !c.is_method)
                || (c.is_method && ALLOC_METHODS.contains(&name))
                || (c.is_macro && name == "vec" && self.args_have_repeat_semi(c.args));
            if is_alloc && !self.sanitized_at_use(c.args) {
                let mask = self.labels_of(c.args);
                self.sink_hit(c.name_tok, Some(c.args), mask, &format!("alloc({name})"), &[]);
            }
            // Interprocedural step: a labeled value passed in a
            // position the callee's summary sinks.
            if c.is_macro {
                continue;
            }
            let Some(callee) = self.g.callee_of(self.node, c.name_tok) else { continue };
            if self.sums[callee].sinks.is_empty() {
                continue;
            }
            let args = split_args(self.ast(), self.toks(), c.args);
            let callee_sinks = self.sums[callee].sinks.clone();
            for s in &callee_sinks {
                let Some(&a) = args.get(s.param) else { continue };
                if self.sanitized_at_use(a) {
                    continue;
                }
                let mask = self.labels_of(a);
                self.sink_hit(c.name_tok, Some(a), mask, &s.what, &s.trace);
            }
        }
        // Postfix slice indexes: `expr[…]` where the bracket follows a
        // value position (identifier, `)`, `]`, or `?`).
        let end = span.1.min(self.toks().len());
        for k in span.0..end {
            if self.toks()[k].text != "[" || k == 0 {
                continue;
            }
            let prev = self.toks()[k - 1];
            let value_pos = prev.kind == TokKind::Ident && prev.text != "return"
                || matches!(prev.text, ")" | "]" | "?");
            if !value_pos {
                continue;
            }
            let close = self.ast().pairs.get(k).copied().unwrap_or(usize::MAX);
            if close == usize::MAX || close > end {
                continue;
            }
            let interior = (k + 1, close);
            if self.sanitized_at_use(interior) {
                continue;
            }
            let mask = self.labels_of(interior);
            let at = self.wire_name_in(interior).map_or(k, |(at, _)| at);
            self.sink_hit(at, Some(interior), mask, "index", &[]);
        }
    }

    /// `for _ in 0..n` with labeled `n`: a wire-controlled loop bound.
    fn check_loop_bound(&mut self, iter: Span) {
        let end = iter.1.min(self.toks().len());
        let has_range = (iter.0..end.saturating_sub(1)).any(|k| {
            self.toks()[k].text == "."
                && self.toks()[k + 1].text == "."
                && self.toks()[k].end == self.toks()[k + 1].start
        });
        if !has_range || self.sanitized_at_use(iter) {
            return;
        }
        let mask = self.labels_of(iter);
        let at = self.wire_name_in(iter).map_or(iter.0, |(at, _)| at);
        self.sink_hit(at, Some(iter), mask, "loop-bound", &[]);
    }

    /// True for `vec![elem; count]` (the repeat form, which allocates
    /// `count` elements) as opposed to `vec![a, b, c]`.
    fn args_have_repeat_semi(&self, args: Span) -> bool {
        let mut k = args.0;
        let end = args.1.min(self.toks().len());
        while k < end {
            match self.toks()[k].text {
                "(" | "[" | "{" => {
                    let close = self.ast().pairs.get(k).copied().unwrap_or(usize::MAX);
                    if close == usize::MAX || close >= end {
                        return false;
                    }
                    k = close + 1;
                }
                ";" => return true,
                _ => k += 1,
            }
        }
        false
    }
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
        let files = [FileCtx { input: &input, toks: &toks, ast: &ast, crate_dir: None }];
        let g = CallGraph::build(&files);
        let sums = summarize(&files, &g);
        emit(&files, &g, &sums)
    }

    #[test]
    fn unguarded_with_capacity_from_cursor_read_fires() {
        let src = "fn f(c: &mut Cur) -> R {\n\
                   \x20   let n = c.u32()? as usize;\n\
                   \x20   let v = Vec::with_capacity(n);\n\
                   \x20   Ok(v)\n\
                   }\n";
        let d = scan(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("with_capacity"), "{d:?}");
    }

    #[test]
    fn resize_of_recv_frame_len_fires() {
        let src = "fn f(s: &mut S, body: &mut Vec<u8>) {\n\
                   \x20   let len = recv_frame_len(s);\n\
                   \x20   body.resize(len, 0);\n\
                   }\n";
        let d = scan(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("resize"));
    }

    #[test]
    fn min_at_use_and_in_init_sanitize() {
        let src = "fn f(c: &mut Cur) {\n\
                   \x20   let n = c.u32()? as usize;\n\
                   \x20   let v = Vec::with_capacity(n.min(64));\n\
                   \x20   let m = n.min(MAX_MACHINES);\n\
                   \x20   let w = Vec::with_capacity(m);\n\
                   }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn early_return_guard_sanitizes_via_derivation_links() {
        // The `Cur::matrix` shape: the *product* is checked, which must
        // clear the underlying count for the later loop bound.
        let src = "fn f(c: &mut Cur) -> R {\n\
                   \x20   let n = c.u32()? as usize;\n\
                   \x20   let need = n * 8;\n\
                   \x20   if need > c.remaining() { return Err(e()); }\n\
                   \x20   for i in 0..n { touch(i); }\n\
                   \x20   Ok(())\n\
                   }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn unguarded_loop_bound_and_index_fire() {
        let src = "fn f(c: &mut Cur, buf: &[u8]) {\n\
                   \x20   let n = u32::from_le_bytes(four(buf)) as usize;\n\
                   \x20   for i in 0..n { touch(i); }\n\
                   \x20   let b = buf[n];\n\
                   }\n";
        let d = scan(src);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d[0].message.contains("loop bound"));
        assert!(d[1].message.contains("slice index"));
    }

    #[test]
    fn else_branch_domination_sanitizes() {
        // The `server.rs` frame loop shape.
        let src = "fn f(c: &mut Cur, body: &mut Vec<u8>, max: usize) {\n\
                   \x20   let len = c.u32()? as usize;\n\
                   \x20   if len == 0 { tiny(); } else if len > max { huge(); } else {\n\
                   \x20       body.resize(len, 0);\n\
                   \x20   }\n\
                   }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn equality_check_does_not_sanitize() {
        let src = "fn f(c: &mut Cur, body: &mut Vec<u8>) {\n\
                   \x20   let len = c.u32()? as usize;\n\
                   \x20   if len == 0 { return; }\n\
                   \x20   body.resize(len, 0);\n\
                   }\n";
        let d = scan(src);
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn vec_repeat_macro_is_a_sink_but_list_form_is_not() {
        let src = "fn f(c: &mut Cur) {\n\
                   \x20   let n = c.u16()? as usize;\n\
                   \x20   let a = vec![0u8; n];\n\
                   \x20   let b = vec![n, n, n];\n\
                   }\n";
        let d = scan(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("vec"));
    }

    #[test]
    fn assert_sanitizes_and_allow_suppresses() {
        let ok = "fn f(c: &mut Cur) {\n\
                  \x20   let n = c.u32()? as usize;\n\
                  \x20   assert!(n <= CAP);\n\
                  \x20   let v = Vec::with_capacity(n);\n\
                  }\n";
        assert!(scan(ok).is_empty());
        let allowed = "fn f(c: &mut Cur) {\n\
                       \x20   let n = c.u32()? as usize;\n\
                       \x20   // modelcheck-allow: wire-taint — n is operator-controlled config\n\
                       \x20   let v = Vec::with_capacity(n);\n\
                       }\n";
        assert!(scan(allowed).is_empty());
    }

    #[test]
    fn plain_read_is_not_a_source_and_tests_are_exempt() {
        let reads = "fn f(s: &mut S, scratch: &mut [u8]) {\n\
                     \x20   let n = s.read(scratch).unwrap();\n\
                     \x20   let v = Vec::with_capacity(n);\n\
                     }\n";
        assert!(scan(reads).is_empty());
        let tested = "#[cfg(test)]\nmod t {\n\
                      fn f(c: &mut Cur) { let n = c.u32().unwrap(); let v = vec![0; n]; }\n\
                      }\n";
        assert!(scan(tested).is_empty());
    }

    #[test]
    fn tainted_length_through_helper_flags_the_call_chain() {
        let src = "fn read_frame(c: &mut Cur) -> R {\n\
                   \x20   let len = c.u32()? as usize;\n\
                   \x20   let buf = alloc_buf(len);\n\
                   \x20   Ok(buf)\n\
                   }\n\
                   fn alloc_buf(n: usize) -> Vec<u8> {\n\
                   \x20   Vec::with_capacity(n)\n\
                   }\n";
        let d = scan(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 3, "reported at the call site, not the helper");
        assert!(d[0].message.contains("call path"), "{d:?}");
        assert!(d[0].message.contains("x.rs:3 -> x.rs:7"), "{d:?}");
    }

    #[test]
    fn caller_side_guard_sanitizes_the_callee() {
        let src = "fn read_frame(c: &mut Cur) -> R {\n\
                   \x20   let len = c.u32()? as usize;\n\
                   \x20   if len > MAX_FRAME { return Err(e()); }\n\
                   \x20   let buf = alloc_buf(len);\n\
                   \x20   Ok(buf)\n\
                   }\n\
                   fn alloc_buf(n: usize) -> Vec<u8> {\n\
                   \x20   Vec::with_capacity(n)\n\
                   }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn taint_propagates_through_helper_returns() {
        let src = "fn frame_len(c: &mut Cur) -> usize {\n\
                   \x20   c.u32().unwrap_or(0) as usize\n\
                   }\n\
                   fn f(c: &mut Cur) {\n\
                   \x20   let n = frame_len(c);\n\
                   \x20   let v = Vec::with_capacity(n);\n\
                   }\n";
        let d = scan(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 6, "{d:?}");
    }

    #[test]
    fn composite_returns_do_not_taint() {
        let src = "fn decode(c: &mut Cur) -> Req {\n\
                   \x20   let n = c.u32().unwrap_or(0) as usize;\n\
                   \x20   Req { machines: n.min(MAX), raw: n.min(MAX) }\n\
                   }\n\
                   fn f(c: &mut Cur) {\n\
                   \x20   let req = decode(c);\n\
                   \x20   let v = Vec::with_capacity(req.machines);\n\
                   }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn two_level_chains_trace_to_the_final_sink() {
        let src = "fn top(c: &mut Cur) {\n\
                   \x20   let len = c.u32().unwrap_or(0) as usize;\n\
                   \x20   mid(len);\n\
                   }\n\
                   fn mid(n: usize) { bottom(n); }\n\
                   fn bottom(m: usize) { let v = vec![0u8; m]; }\n";
        let d = scan(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("x.rs:3 -> x.rs:5 -> x.rs:6"), "{d:?}");
    }

    #[test]
    fn try_from_with_bounded_fallback_sanitizes() {
        let src = "fn f(c: &mut Cur) {\n\
                   \x20   let n = usize::try_from(c.u64().unwrap()).unwrap_or(0);\n\
                   \x20   let v = Vec::with_capacity(n);\n\
                   }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn try_from_with_max_fallback_stays_tainted() {
        let src = "fn f(c: &mut Cur) {\n\
                   \x20   let n = usize::try_from(c.u64().unwrap()).unwrap_or(usize::MAX);\n\
                   \x20   let v = Vec::with_capacity(n);\n\
                   }\n";
        let d = scan(src);
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn saturating_bounds_sanitize() {
        let src = "fn f(c: &mut Cur, budget: usize) {\n\
                   \x20   let n = c.u32().unwrap_or(0) as usize;\n\
                   \x20   let m = budget.saturating_sub(n);\n\
                   \x20   let v = Vec::with_capacity(m);\n\
                   }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn allow_on_the_helper_sink_covers_its_callers() {
        let src = "fn top(c: &mut Cur) {\n\
                   \x20   let len = c.u32().unwrap_or(0) as usize;\n\
                   \x20   grow(len);\n\
                   }\n\
                   fn grow(n: usize) {\n\
                   \x20   // modelcheck-allow: wire-taint — n is capped by the transport layer\n\
                   \x20   let v = Vec::with_capacity(n);\n\
                   }\n";
        assert!(scan(src).is_empty());
    }
}
