//! The one catalog of blocking shapes, shared by `lock-order` (what a
//! live guard must not wait on) and `event-loop` (what the evented
//! engine must never call).
//!
//! Each shape has a [`Weight`] that says which rule it matters to:
//!
//! * [`Weight::Blocks`] — blocks even on a nonblocking socket, so both
//!   rules flag it: `sleep(` (stalls every connection on the thread); a
//!   blocking `connect(`/`connect_timeout(` (waits out the handshake —
//!   connect nonblocking and finish on `EPOLLOUT` instead);
//!   `.write_all(`/`.read_exact(`/`.read_to_end(`/`.read_to_string(`
//!   (retry until done, defeating nonblocking registration); and the
//!   stdio macros (stdio locks and waits on a slow consumer — use the
//!   metrics path instead).
//! * [`Weight::Io`] — mentions I/O: `io::`/`fs::` paths (the error and
//!   result plumbing excepted), socket types, and stream methods such as
//!   `.flush(` or `.accept(`. On a nonblocking socket these return
//!   `WouldBlock`, so only `lock-order` flags them, under a live guard.
//! * [`Weight::Lock`] — `.lock(`/`write_lock(` park the caller behind
//!   whoever holds the lock. Only `event-loop` flags them (`read_lock`
//!   is exempt there: a warm query's shard read lock is the designed hot
//!   path); `lock-order` sees them as acquisitions instead.
//!
//! Channel `send`/`recv` are deliberately absent (std mpsc sends do not
//! block).

use crate::ast::Ast;
use crate::lexer::{TokKind, Token};

/// Which rules a blocking shape matters to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Weight {
    /// Blocks even on a nonblocking socket: both rules.
    Blocks,
    /// Mentions I/O: `lock-order`, under a live guard.
    Io,
    /// A lock acquisition: `event-loop` only.
    Lock,
}

/// How a catalogued name is called.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Form {
    /// `.name(…)`.
    Method,
    /// `name(…)` or `path::name(…)`.
    Free,
    /// `name!(…)`.
    Macro,
}

/// Every catalogued call shape.
const CALLS: [(Form, &str, Weight); 19] = [
    (Form::Free, "sleep", Weight::Blocks),
    (Form::Free, "connect", Weight::Blocks),
    (Form::Free, "connect_timeout", Weight::Blocks),
    (Form::Method, "write_all", Weight::Blocks),
    (Form::Method, "read_exact", Weight::Blocks),
    (Form::Method, "read_to_end", Weight::Blocks),
    (Form::Method, "read_to_string", Weight::Blocks),
    (Form::Macro, "println", Weight::Blocks),
    (Form::Macro, "eprintln", Weight::Blocks),
    (Form::Macro, "print", Weight::Blocks),
    (Form::Macro, "eprint", Weight::Blocks),
    (Form::Method, "write_fmt", Weight::Io),
    (Form::Method, "flush", Weight::Io),
    (Form::Method, "read_line", Weight::Io),
    (Form::Method, "accept", Weight::Io),
    (Form::Method, "send_to", Weight::Io),
    (Form::Method, "recv_from", Weight::Io),
    (Form::Method, "lock", Weight::Lock),
    (Form::Free, "write_lock", Weight::Lock),
];

/// Socket types whose very mention in a body is I/O.
const SOCKET_TYPES: [&str; 3] = ["TcpStream", "TcpListener", "UdpSocket"];

/// The blocking shape that starts at `toks[k]`, with a short
/// description for messages.
pub fn shape_at(toks: &[&Token<'_>], ast: &Ast, k: usize) -> Option<(Weight, String)> {
    let t = toks[k];
    if t.kind != TokKind::Ident {
        return None;
    }
    if let Some(call) = ast.calls_in((k, k + 1)).first() {
        let form = if call.is_macro {
            Form::Macro
        } else if call.is_method {
            Form::Method
        } else {
            Form::Free
        };
        if let Some(&(_, name, weight)) = CALLS.iter().find(|c| c.0 == form && c.1 == t.text) {
            let shape = match form {
                Form::Method => format!("`.{name}(`"),
                Form::Free => format!("`{name}(`"),
                Form::Macro => format!("`{name}!`"),
            };
            return Some((weight, shape));
        }
    }
    if SOCKET_TYPES.contains(&t.text) {
        return Some((Weight::Io, format!("`{}`", t.text)));
    }
    if matches!(t.text, "io" | "fs")
        && toks.get(k + 1).is_some_and(|n| n.text == ":")
        && toks.get(k + 2).is_some_and(|n| n.text == ":")
    {
        // `io::Error` / `io::ErrorKind` / `io::Result` are value and
        // type plumbing, not I/O being performed.
        let after = toks.get(k + 3).map_or("", |n| n.text);
        if !matches!(after, "Error" | "ErrorKind" | "Result") {
            return Some((Weight::Io, format!("`{}::{after}`", t.text)));
        }
    }
    None
}
