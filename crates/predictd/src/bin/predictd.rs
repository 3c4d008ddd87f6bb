//! The daemon binary: bind, announce, serve until `shutdown`.
//!
//! ```text
//! predictd [--listen ADDR] [--port-file PATH] [--stdio]
//!          [--workers N] [--shards N] [--max-line-bytes N] [--max-frame-bytes N]
//!          [--window N] [--horizon-secs S] [--frac F] [--max-rank N]
//! ```
//!
//! With `--listen` (default `127.0.0.1:0`, IPv4) the bound address is
//! printed to stdout (and to `--port-file` when given) so callers can
//! find an OS-assigned port. With `--stdio` the daemon speaks the
//! protocol on stdin/stdout instead — handy for debugging and piping.
//!
//! Over TCP the daemon runs one nonblocking epoll event loop per worker
//! over `SO_REUSEPORT` listeners, each with a per-core replica of the
//! machine state (see `predictd::server`). Every connection speaks
//! newline-JSON or the length-prefixed binary codec, sniffed from its
//! first byte.
//!
//! `--workers` sets the event-loop count (default: available
//! parallelism, clamped to 8); `--shards` sizes the machine-state shard
//! count (default 8). `--workers 1` serves every connection from one
//! thread. `--max-frame-bytes` caps a single binary frame (default
//! 1 MiB), as `--max-line-bytes` caps a JSON line. `--engine evented`
//! is accepted for callers that still pass it and changes nothing; any
//! other `--engine` value exits 2.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(
    not(test),
    warn(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)
)]

use std::net::ToSocketAddrs;
use std::process::ExitCode;

use contention_model::units::{Prob, Seconds};
use predictd::{serve_stdio, EventedServer, ServerConfig, Service, ServiceConfig};

struct Args {
    listen: String,
    port_file: Option<String>,
    stdio: bool,
    /// Event-loop count for [`EventedServer::bind`].
    workers: usize,
    cfg: ServiceConfig,
    server: ServerConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: "127.0.0.1:0".to_string(),
        port_file: None,
        stdio: false,
        workers: default_workers(),
        cfg: ServiceConfig::default(),
        server: ServerConfig::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--listen" => args.listen = value("--listen")?,
            "--port-file" => args.port_file = Some(value("--port-file")?),
            "--stdio" => args.stdio = true,
            // The evented engine is the only one; the flag stays for
            // callers that still name it.
            "--engine" => match value("--engine")?.as_str() {
                "evented" => {}
                other => {
                    return Err(format!(
                        "--engine {other:?}: only \"evented\" is accepted; \
                         the pooled engine was removed"
                    ))
                }
            },
            "--workers" => {
                args.workers = parse_num(&value("--workers")?, "--workers")?;
                if args.workers == 0 {
                    return Err("--workers must be at least 1".to_string());
                }
            }
            "--shards" => {
                args.cfg.shards = parse_num(&value("--shards")?, "--shards")?;
                if args.cfg.shards == 0 {
                    return Err("--shards must be at least 1".to_string());
                }
            }
            "--max-line-bytes" => {
                args.server.max_line_bytes =
                    parse_num(&value("--max-line-bytes")?, "--max-line-bytes")?;
                if args.server.max_line_bytes < 64 {
                    return Err("--max-line-bytes must be at least 64".to_string());
                }
            }
            "--max-frame-bytes" => {
                args.server.max_frame_bytes =
                    parse_num(&value("--max-frame-bytes")?, "--max-frame-bytes")?;
                if args.server.max_frame_bytes < 64 {
                    return Err("--max-frame-bytes must be at least 64".to_string());
                }
            }
            "--window" => {
                args.cfg.monitor.window = parse_num(&value("--window")?, "--window")?;
                if args.cfg.monitor.window == 0 {
                    return Err("--window must be at least 1".to_string());
                }
            }
            "--horizon-secs" => {
                let raw: f64 = parse_num(&value("--horizon-secs")?, "--horizon-secs")?;
                args.cfg.monitor.horizon = Seconds::try_new(raw)
                    .ok_or("--horizon-secs must be finite and non-negative".to_string())?;
            }
            "--frac" => {
                let raw: f64 = parse_num(&value("--frac")?, "--frac")?;
                args.cfg.monitor.default_frac =
                    Prob::try_new(raw).ok_or("--frac must be in [0, 1]".to_string())?;
            }
            "--max-rank" => {
                args.cfg.max_rank_schedules = parse_num(&value("--max-rank")?, "--max-rank")?;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// The machine's available parallelism, clamped to [1, 8] — request
/// handlers are microseconds, so a few loops cover a lot of connections.
fn default_workers() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1).clamp(1, 8)
}

fn parse_num<T: std::str::FromStr>(raw: &str, name: &str) -> Result<T, String> {
    raw.parse().map_err(|_| format!("{name}: cannot parse {raw:?}"))
}

const USAGE: &str = "usage: predictd [--listen ADDR] [--port-file PATH] [--stdio] \
[--workers N] [--shards N] [--max-line-bytes N] [--max-frame-bytes N] \
[--window N] [--horizon-secs S] [--frac F] [--max-rank N]";

fn announce(args: &Args, bound: std::net::SocketAddr) -> Result<(), String> {
    println!(
        "listening on {bound} (evented engine, {} workers, {} shards)",
        args.workers, args.cfg.shards
    );
    if let Some(path) = &args.port_file {
        std::fs::write(path, format!("{bound}\n"))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let service = Service::with_default_predictor(args.cfg);
    if args.stdio {
        return serve_stdio(&service).map_err(|e| format!("stdio transport failed: {e}"));
    }
    let addr = args
        .listen
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve {}: {e}", args.listen))?
        .find(std::net::SocketAddr::is_ipv4)
        .ok_or_else(|| format!("{}: no IPv4 address (the engine listens on IPv4)", args.listen))?;
    let server = EventedServer::bind(addr, args.workers)
        .map_err(|e| format!("cannot bind {}: {e}", args.listen))?;
    announce(&args, server.local_addr())?;
    server.run(&service, &args.server).map_err(|e| format!("serve failed: {e}"))
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("predictd: {msg}");
            ExitCode::from(2)
        }
    }
}
