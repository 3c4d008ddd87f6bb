//! The workspace symbol index and call graph the v5 passes run over.
//!
//! [`CallGraph::build`] indexes every function definition in every
//! parsed file (methods and nested fns included), extracts the named
//! parameters from each signature, and resolves every call site by
//! name: a call resolves to the unique definition of that name in the
//! *calling crate*, or — when the crate defines none — to the unique
//! definition in the whole workspace. A name with two or more
//! definitions anywhere in the relevant scope (every `new`, trait
//! declaration plus impl) resolves to nothing, so propagation never
//! chases lookalikes across impls. This extends the v4 event-loop
//! pass's crate-local unique-name rule workspace-wide.
//!
//! The graph is *pragma-aware* the same way the passes are: summaries
//! are computed for every parsed file (a helper in an un-pragma'd
//! crate still contributes its behavior to callers), but findings are
//! only emitted in files whose owning crate opted into the rule.
//!
//! Three rule families consume the graph: interprocedural wire-taint
//! ([`crate::passes::taint`]), the lock-order deadlock detector
//! ([`crate::passes::lock_order`]), and the transitive event-loop
//! purity rule ([`crate::passes::event_loop`]). Their per-function
//! summaries serialize to a deterministic text form via
//! [`crate::dump_summaries`] (`--dump-summaries` on the CLI).

use crate::ast::{Ast, BlockId, FnDef, Span};
use crate::lexer::{TokKind, Token};
use crate::passes::FileInput;
use std::collections::HashMap;

/// One parsed file plus the context the graph passes need.
pub struct FileCtx<'t, 'a> {
    /// The shared per-file input.
    pub input: &'t FileInput<'a>,
    /// The file's code tokens (comments stripped).
    pub toks: &'t [&'t Token<'a>],
    /// The file's AST.
    pub ast: &'t Ast,
    /// Owning crate directory, when the file sits in a crate's `src/`.
    pub crate_dir: Option<&'t str>,
}

/// Index into [`CallGraph::nodes`].
pub type NodeId = usize;

/// One function definition with a body.
#[derive(Debug)]
pub struct FnNode {
    /// Index of the defining file in the `FileCtx` slice.
    pub file: usize,
    /// Index into that file's `ast.fns`.
    pub def: usize,
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// The body block.
    pub body: BlockId,
    /// Named parameters in declaration order, the receiver excluded;
    /// a pattern the tracker cannot name (destructuring) is `""` so
    /// argument positions stay aligned.
    pub params: Vec<String>,
}

/// A resolved call site inside a function body.
#[derive(Debug, Clone, Copy)]
pub struct CallSite {
    /// The called function.
    pub callee: NodeId,
    /// Token index of the callee name at the call site.
    pub name_tok: usize,
}

/// The workspace call graph.
pub struct CallGraph {
    /// Every function definition with a body, in file order.
    pub nodes: Vec<FnNode>,
    /// `edges[n]` are `n`'s resolved call sites, sorted by `name_tok`.
    pub edges: Vec<Vec<CallSite>>,
    node_by_def: HashMap<(usize, usize), NodeId>,
}

impl CallGraph {
    /// Builds the graph over every parsed file.
    pub fn build(files: &[FileCtx<'_, '_>]) -> CallGraph {
        let mut nodes = Vec::new();
        let mut node_by_def = HashMap::new();
        // Definition counts include bodyless declarations (trait
        // methods, extern fns): a name with a declaration *and* a
        // definition is ambiguous, exactly as two impls are.
        let mut crate_defs: HashMap<(Option<&str>, &str), u32> = HashMap::new();
        let mut global_defs: HashMap<&str, u32> = HashMap::new();
        let mut crate_nodes: HashMap<(Option<&str>, String), Vec<NodeId>> = HashMap::new();
        let mut global_nodes: HashMap<String, Vec<NodeId>> = HashMap::new();
        for (fi, f) in files.iter().enumerate() {
            for (di, def) in f.ast.fns.iter().enumerate() {
                *crate_defs.entry((f.crate_dir, def.name.as_str())).or_default() += 1;
                *global_defs.entry(def.name.as_str()).or_default() += 1;
                let Some(body) = def.body else { continue };
                let id = nodes.len();
                nodes.push(FnNode {
                    file: fi,
                    def: di,
                    name: def.name.clone(),
                    line: def.line,
                    body,
                    params: params_of(f.toks, f.ast, def),
                });
                node_by_def.insert((fi, di), id);
                crate_nodes.entry((f.crate_dir, def.name.clone())).or_default().push(id);
                global_nodes.entry(def.name.clone()).or_default().push(id);
            }
        }
        let resolve = |crate_dir: Option<&str>, name: &str| -> Option<NodeId> {
            let in_crate = crate_defs.get(&(crate_dir, name)).copied().unwrap_or(0);
            if in_crate == 1 {
                return match crate_nodes.get(&(crate_dir, name.to_string())).map(Vec::as_slice) {
                    Some(&[one]) => Some(one),
                    _ => None,
                };
            }
            if in_crate > 1 {
                return None;
            }
            if global_defs.get(name).copied().unwrap_or(0) == 1 {
                return match global_nodes.get(name).map(Vec::as_slice) {
                    Some(&[one]) => Some(one),
                    _ => None,
                };
            }
            None
        };
        let mut edges = Vec::with_capacity(nodes.len());
        for n in &nodes {
            let f = &files[n.file];
            let block = &f.ast.blocks[n.body];
            let mut out = Vec::new();
            for call in f.ast.calls_in((block.open, block.close + 1)) {
                let name = f.toks[call.name_tok].text;
                if call.is_macro {
                    continue;
                }
                if let Some(callee) = resolve(f.crate_dir, name) {
                    out.push(CallSite { callee, name_tok: call.name_tok });
                }
            }
            edges.push(out);
        }
        CallGraph { nodes, edges, node_by_def }
    }

    /// The node for `(file, def)`, when that definition has a body.
    pub fn node_of(&self, file: usize, def: usize) -> Option<NodeId> {
        self.node_by_def.get(&(file, def)).copied()
    }

    /// The resolved callee of the call at `name_tok` inside `node`'s
    /// body, if any.
    pub fn callee_of(&self, node: NodeId, name_tok: usize) -> Option<NodeId> {
        let e = &self.edges[node];
        let i = e.partition_point(|c| c.name_tok < name_tok);
        e.get(i).filter(|c| c.name_tok == name_tok).map(|c| c.callee)
    }

    /// Total resolved call edges.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }
}

/// Extracts the named parameters from a signature span. The receiver
/// (`self` in any form) is skipped so parameter indices line up with
/// call-site argument positions for both free and method calls.
fn params_of(toks: &[&Token<'_>], ast: &Ast, def: &FnDef) -> Vec<String> {
    let sig_end = def.sig.1.min(toks.len());
    let Some(open) = (def.sig.0..sig_end).find(|&k| toks[k].text == "(") else {
        return Vec::new();
    };
    let close = ast.pairs.get(open).copied().unwrap_or(usize::MAX);
    if close == usize::MAX || close > def.sig.1 {
        return Vec::new();
    }
    let mut params = Vec::new();
    let mut piece_start = open + 1;
    let mut angle = 0i64;
    let mut k = open + 1;
    while k <= close {
        if k == close {
            param_piece(toks, piece_start, k, &mut params);
            break;
        }
        match toks[k].text {
            "(" | "[" | "{" => {
                k = ast.pairs.get(k).copied().unwrap_or(k) + 1;
                continue;
            }
            "<" => angle += 1,
            ">" => {
                // `->` in an `Fn(..) -> T` bound is not a closing angle.
                let arrow = k > 0 && toks[k - 1].text == "-" && toks[k - 1].end == toks[k].start;
                if !arrow && angle > 0 {
                    angle -= 1;
                }
            }
            "," if angle == 0 => {
                param_piece(toks, piece_start, k, &mut params);
                piece_start = k + 1;
            }
            _ => {}
        }
        k += 1;
    }
    params
}

/// Records one comma-separated parameter piece: the simple binding
/// name, `""` for patterns the dataflow cannot name, nothing for the
/// receiver.
fn param_piece(toks: &[&Token<'_>], start: usize, end: usize, params: &mut Vec<String>) {
    if start >= end {
        return;
    }
    // The pattern is everything before the first stand-alone `:`.
    let mut pat_end = end;
    for k in start..end {
        if toks[k].text != ":" {
            continue;
        }
        let fused_next = toks.get(k + 1).is_some_and(|n| n.text == ":" && toks[k].end == n.start);
        let fused_prev = k > start && toks[k - 1].text == ":" && toks[k - 1].end == toks[k].start;
        if !fused_next && !fused_prev {
            pat_end = k;
            break;
        }
    }
    let idents: Vec<&str> = (start..pat_end)
        .filter(|&k| toks[k].kind == TokKind::Ident && !matches!(toks[k].text, "mut" | "ref"))
        .map(|k| toks[k].text)
        .collect();
    match idents.as_slice() {
        ["self"] => {}
        [one] => params.push((*one).to_string()),
        _ => params.push(String::new()),
    }
}

/// Splits a call's argument span at top-level commas, one span per
/// argument (empty when the call has no arguments).
pub fn split_args(ast: &Ast, toks: &[&Token<'_>], args: Span) -> Vec<Span> {
    let end = args.1.min(toks.len());
    if args.0 >= end {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut piece = args.0;
    let mut k = args.0;
    while k < end {
        match toks[k].text {
            "(" | "[" | "{" => {
                k = ast.pairs.get(k).copied().unwrap_or(k).max(k) + 1;
                continue;
            }
            "," => {
                out.push((piece, k));
                piece = k + 1;
            }
            _ => {}
        }
        k += 1;
    }
    out.push((piece, end));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;
    use crate::FileScope;

    fn ctx_of<'t, 'a>(
        input: &'t FileInput<'a>,
        toks: &'t [&'t Token<'a>],
        ast: &'t Ast,
        crate_dir: Option<&'t str>,
    ) -> FileCtx<'t, 'a> {
        FileCtx { input, toks, ast, crate_dir }
    }

    #[test]
    fn unique_names_resolve_and_duplicates_do_not() {
        let src = "fn top() { helper(); dup(); }\n\
                   fn helper() {}\n\
                   impl A { fn dup(&self) {} }\n\
                   impl B { fn dup(&self) {} }\n";
        let input = FileInput::build("x.rs", src, FileScope::ALL).expect("lexes");
        let toks = input.code_tokens();
        let ast = parse(&toks).expect("parses");
        let g = CallGraph::build(&[ctx_of(&input, &toks, &ast, Some("c"))]);
        assert_eq!(g.nodes.len(), 4);
        let top = g.nodes.iter().position(|n| n.name == "top").unwrap();
        assert_eq!(g.edges[top].len(), 1, "only `helper` resolves");
        assert_eq!(g.nodes[g.edges[top][0].callee].name, "helper");
    }

    #[test]
    fn crate_local_definitions_shadow_workspace_ones() {
        let a = "fn caller() { shared(); }\nfn shared() {}\n";
        let b = "fn shared() {}\n";
        let ia = FileInput::build("a.rs", a, FileScope::ALL).expect("lexes");
        let ib = FileInput::build("b.rs", b, FileScope::ALL).expect("lexes");
        let (ta, tb) = (ia.code_tokens(), ib.code_tokens());
        let (pa, pb) = (parse(&ta).unwrap(), parse(&tb).unwrap());
        let g =
            CallGraph::build(&[ctx_of(&ia, &ta, &pa, Some("a")), ctx_of(&ib, &tb, &pb, Some("b"))]);
        let caller = g.nodes.iter().position(|n| n.name == "caller").unwrap();
        assert_eq!(g.edges[caller].len(), 1);
        assert_eq!(g.nodes[g.edges[caller][0].callee].file, 0, "crate-local wins");
    }

    #[test]
    fn cross_crate_unique_names_resolve() {
        let a = "fn caller() { only_in_b(); }\n";
        let b = "fn only_in_b() {}\n";
        let ia = FileInput::build("a.rs", a, FileScope::ALL).expect("lexes");
        let ib = FileInput::build("b.rs", b, FileScope::ALL).expect("lexes");
        let (ta, tb) = (ia.code_tokens(), ib.code_tokens());
        let (pa, pb) = (parse(&ta).unwrap(), parse(&tb).unwrap());
        let g =
            CallGraph::build(&[ctx_of(&ia, &ta, &pa, Some("a")), ctx_of(&ib, &tb, &pb, Some("b"))]);
        let caller = g.nodes.iter().position(|n| n.name == "caller").unwrap();
        assert_eq!(g.edges[caller].len(), 1);
        assert_eq!(g.nodes[g.edges[caller][0].callee].name, "only_in_b");
    }

    #[test]
    fn params_skip_receiver_and_keep_positions() {
        let src = "impl S {\n\
                   \x20 fn m(&mut self, len: usize, (a, b): (u8, u8), map: HashMap<K, V>) {}\n\
                   }\n\
                   fn free(x: &[u8], mut n: u64) {}\n";
        let input = FileInput::build("x.rs", src, FileScope::ALL).expect("lexes");
        let toks = input.code_tokens();
        let ast = parse(&toks).expect("parses");
        let g = CallGraph::build(&[ctx_of(&input, &toks, &ast, None)]);
        let m = g.nodes.iter().find(|n| n.name == "m").unwrap();
        assert_eq!(m.params, vec!["len".to_string(), String::new(), "map".to_string()]);
        let free = g.nodes.iter().find(|n| n.name == "free").unwrap();
        assert_eq!(free.params, vec!["x".to_string(), "n".to_string()]);
    }

    #[test]
    fn split_args_handles_nested_groups() {
        let src = "fn f() { g(a, h(b, c), [d, e], k); }\n";
        let input = FileInput::build("x.rs", src, FileScope::ALL).expect("lexes");
        let toks = input.code_tokens();
        let ast = parse(&toks).expect("parses");
        let call = ast.calls.iter().find(|c| toks[c.name_tok].text == "g").unwrap();
        let parts = split_args(&ast, &toks, call.args);
        assert_eq!(parts.len(), 4);
        let texts: Vec<String> = parts
            .iter()
            .map(|s| toks[s.0..s.1].iter().map(|t| t.text).collect::<Vec<_>>().join(" "))
            .collect();
        assert_eq!(texts[0], "a");
        assert_eq!(texts[1], "h ( b , c )");
        assert_eq!(texts[3], "k");
    }
}
