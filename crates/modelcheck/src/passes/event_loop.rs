//! The `event-loop` pass: no blocking calls in code reachable from the
//! evented engine.
//!
//! Entry points are marked with a `// modelcheck: event-loop` comment
//! on the `fn` (trailing or in the block above, like
//! `modelcheck: read-path`). v5 closes the marked set over the whole
//! workspace call graph ([`crate::graph`]): every function reachable
//! from a root through resolved calls — any depth, across files and
//! crates — is checked. Resolution is deliberately unique-name-only
//! (a name with several definitions resolves to nothing, so the
//! propagation never chases lookalikes across impls), and findings are
//! only emitted in files whose crate opted into the rule; helpers in
//! other crates are traversed but report nothing themselves.
//!
//! Inside the reachable set, every [`Weight::Blocks`] and
//! [`Weight::Lock`] shape of the [`super::blocking`] catalog is a
//! finding: `sleep(`, blocking connects, `.write_all(`/`.read_exact(`/
//! `.read_to_end(`/`.read_to_string(`, stdio macros, `.lock(` and
//! `write_lock(` (`read_lock` is exempt: a warm query's shard read lock
//! is the designed hot path, shared by every loop and only waiting out
//! a report's short write).
//!
//! `modelcheck-allow: event-loop — <why>` suppresses a finding;
//! `#[cfg(test)]` code is exempt.

use super::blocking::{shape_at, Weight};
use crate::graph::{CallGraph, FileCtx, NodeId};
use crate::resolve::fn_annotated;
use crate::{Diagnostic, Rule};
use std::collections::VecDeque;

/// The annotation that marks an event-loop entry point.
pub const MARKER: &str = "modelcheck: event-loop";

/// Runs the event-loop purity rule over the workspace: BFS from the
/// annotated roots across the call graph, then check every reachable
/// body for blocking shapes.
pub fn run_workspace(files: &[FileCtx<'_, '_>], g: &CallGraph) -> Vec<Diagnostic> {
    let n = g.nodes.len();
    // BFS parents, for the call-path in the message; `root_of` doubles
    // as the visited set.
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut root_of: Vec<Option<NodeId>> = vec![None; n];
    let mut queue = VecDeque::new();
    for (id, node) in g.nodes.iter().enumerate() {
        let f = &files[node.file];
        if f.input.scope.event_loop && fn_annotated(f.input, node.line, MARKER) {
            root_of[id] = Some(id);
            queue.push_back(id);
        }
    }
    while let Some(id) = queue.pop_front() {
        for site in &g.edges[id] {
            if root_of[site.callee].is_none() {
                root_of[site.callee] = root_of[id];
                parent[site.callee] = Some(id);
                queue.push_back(site.callee);
            }
        }
    }

    let mut diags = Vec::new();
    for (id, node) in g.nodes.iter().enumerate() {
        if root_of[id].is_none() {
            continue;
        }
        let f = &files[node.file];
        if !f.input.scope.event_loop || f.input.in_test(node.line) {
            continue;
        }
        let block = &f.ast.blocks[node.body];
        for call in f.ast.calls_in((block.open, block.close + 1)) {
            let Some((Weight::Blocks | Weight::Lock, shape)) =
                shape_at(f.toks, f.ast, call.name_tok)
            else {
                continue;
            };
            let t = f.toks[call.name_tok];
            if f.input.allowed(t.line - 1, Rule::EventLoop) || f.input.in_test(t.line) {
                continue;
            }
            // Reconstruct the BFS path root → … → this fn's caller.
            let mut chain = Vec::new();
            let mut cur = id;
            while let Some(p) = parent[cur] {
                chain.push(p);
                cur = p;
            }
            chain.reverse();
            let names: Vec<&str> = chain.iter().map(|&i| g.nodes[i].name.as_str()).collect();
            let via = match names.as_slice() {
                [] => String::new(),
                [root] => format!(" (called from `{root}`)"),
                [root, rest @ ..] => {
                    format!(" (called from `{root}` through `{}`)", rest.join("` -> `"))
                }
            };
            diags.push(Diagnostic::spanned(
                f.input.rel,
                t.line,
                t.col,
                t.col + t.text.len(),
                Rule::EventLoop,
                format!(
                    "blocking call {shape} in event-loop-reachable `fn {}`{via} — the evented \
                     engine must never block; move this off-loop or justify with \
                     `modelcheck-allow: event-loop`",
                    node.name
                ),
            ));
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
        run_workspace(&files, &g)
    }

    #[test]
    fn sleep_in_annotated_fn_fires() {
        let src = "// modelcheck: event-loop\n\
                   fn event_loop(&mut self) {\n\
                   \x20   std::thread::sleep(d);\n\
                   }\n";
        let d = scan(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("sleep"));
    }

    #[test]
    fn propagates_one_level_to_unique_callees() {
        let src = "// modelcheck: event-loop\n\
                   fn event_loop(&mut self) { self.accept_ready(); }\n\
                   fn accept_ready(&mut self) { let g = self.shards.lock().unwrap(); }\n";
        let d = scan(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("accept_ready"));
        assert!(d[0].message.contains("called from `event_loop`"), "{d:?}");
    }

    #[test]
    fn propagates_transitively_with_the_full_path() {
        let src = "// modelcheck: event-loop\n\
                   fn event_loop(&mut self) { self.on_readable(); }\n\
                   fn on_readable(&mut self) { self.process_rbuf(); }\n\
                   fn process_rbuf(&mut self) { flush_metrics(); }\n\
                   fn flush_metrics() { out.write_all(b); }\n";
        let d = scan(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`fn flush_metrics`"), "{d:?}");
        assert!(
            d[0].message
                .contains("called from `event_loop` through `on_readable` -> `process_rbuf`"),
            "{d:?}"
        );
    }

    #[test]
    fn ambiguous_names_do_not_propagate() {
        let src = "// modelcheck: event-loop\n\
                   fn event_loop(&mut self) { self.conn.drain(); }\n\
                   impl A { fn drain(&self) { std::thread::sleep(d); } }\n\
                   impl B { fn drain(&self) { std::thread::sleep(d); } }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn unannotated_fns_and_read_lock_are_fine() {
        let src = "fn offline() { std::thread::sleep(d); }\n\
                   // modelcheck: event-loop\n\
                   fn on_readable(&mut self) { let g = read_lock(&self.shard); }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn stdio_macros_write_all_and_write_lock_fire() {
        let src = "// modelcheck: event-loop\n\
                   fn process(&mut self) {\n\
                   \x20   eprintln!(\"slow\");\n\
                   \x20   out.write_all(b);\n\
                   \x20   let g = write_lock(&self.shard);\n\
                   }\n";
        let d = scan(src);
        assert_eq!(d.len(), 3, "{d:?}");
    }

    #[test]
    fn read_exact_and_blocking_connects_fire() {
        let src = "// modelcheck: event-loop\n\
                   fn on_backend(&mut self) {\n\
                   \x20   let s = TcpStream::connect(addr);\n\
                   \x20   let t = TcpStream::connect_timeout(&addr, d);\n\
                   \x20   let c = Client::connect(addr);\n\
                   \x20   s.read_exact(&mut len4);\n\
                   }\n";
        let d = scan(src);
        assert_eq!(d.len(), 4, "{d:?}");
        assert!(d.iter().any(|x| x.message.contains("`.read_exact(`")), "{d:?}");
        assert!(d.iter().any(|x| x.message.contains("`connect_timeout(`")), "{d:?}");
    }

    #[test]
    fn a_justified_nonblocking_connect_is_allowed() {
        let src = "// modelcheck: event-loop\n\
                   fn open(&mut self) {\n\
                   \x20   // modelcheck-allow: event-loop — nonblocking socket: EINPROGRESS\n\
                   \x20   let r = connect(fd, &sa, len);\n\
                   \x20   let s = connect_nonblocking(addr);\n\
                   }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn allow_suppresses_with_justification() {
        let src = "// modelcheck: event-loop\n\
                   fn process(&mut self) {\n\
                   \x20   // modelcheck-allow: event-loop — startup banner, before the loop spins\n\
                   \x20   eprintln!(\"listening\");\n\
                   }\n";
        assert!(scan(src).is_empty());
    }
}
