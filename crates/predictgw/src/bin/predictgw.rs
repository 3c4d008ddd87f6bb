//! The gateway daemon binary: bind, announce, federate until
//! `shutdown` — plus offline `journal` subcommands.
//!
//! ```text
//! predictgw [--listen ADDR] [--port-file PATH] --backend ADDR [--backend ADDR]...
//!           [--workers N] [--vnodes N]
//!           [--health-interval-ms MS] [--health-threshold N]
//!           [--journal PATH] [--journal-horizon-secs S] [--fsync-every N]
//!           [--connect-timeout-ms MS] [--io-timeout-ms MS]
//!           [--max-line-bytes N] [--max-frame-bytes N]
//! predictgw journal snapshot --journal SRC --out DST
//! predictgw journal restore --journal SRC --backend ADDR [--backend ADDR]...
//! ```
//!
//! With `--listen` (default `127.0.0.1:0`) the bound address is printed
//! to stdout (and to `--port-file` when given) so callers can find an
//! OS-assigned port — the same contract as predictd.
//!
//! `journal snapshot` copies a journal (synced and validated) to a new
//! path; `journal restore` replays every report in a journal into the
//! given backends directly — the manual warm-start path when a journal
//! outlives its gateway.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(
    not(test),
    warn(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)
)]

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use predictd::{Client, ServerConfig};
use predictgw::journal::{read_reports, Journal};
use predictgw::{Gateway, GatewayConfig, GatewayServer};
use proto::{Request, Response};

struct Args {
    listen: String,
    port_file: Option<String>,
    workers: usize,
    cfg: GatewayConfig,
    server: ServerConfig,
}

const USAGE: &str = "usage: predictgw [--listen ADDR] [--port-file PATH] \
--backend ADDR [--backend ADDR]... [--workers N] [--vnodes N] \
[--health-interval-ms MS] [--health-threshold N] \
[--journal PATH] [--journal-horizon-secs S] [--fsync-every N] \
[--connect-timeout-ms MS] [--io-timeout-ms MS] \
[--max-line-bytes N] [--max-frame-bytes N]\n\
       predictgw journal snapshot --journal SRC --out DST\n\
       predictgw journal restore --journal SRC --backend ADDR [--backend ADDR]...";

fn parse_num<T: std::str::FromStr>(raw: &str, name: &str) -> Result<T, String> {
    raw.parse().map_err(|_| format!("{name}: cannot parse {raw:?}"))
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        listen: "127.0.0.1:0".to_string(),
        port_file: None,
        workers: std::thread::available_parallelism().map_or(4, |n| n.get()).min(8),
        cfg: GatewayConfig::default(),
        server: ServerConfig::default(),
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--listen" => args.listen = value("--listen")?,
            "--port-file" => args.port_file = Some(value("--port-file")?),
            "--backend" => args.cfg.backends.push(value("--backend")?),
            "--workers" => {
                args.workers = parse_num(&value("--workers")?, "--workers")?;
                if args.workers == 0 {
                    return Err("--workers must be at least 1".to_string());
                }
            }
            "--vnodes" => {
                args.cfg.vnodes = parse_num(&value("--vnodes")?, "--vnodes")?;
                if args.cfg.vnodes == 0 {
                    return Err("--vnodes must be at least 1".to_string());
                }
            }
            "--health-interval-ms" => {
                let ms: u64 = parse_num(&value("--health-interval-ms")?, "--health-interval-ms")?;
                args.cfg.health_interval = Duration::from_millis(ms.max(1));
            }
            "--health-threshold" => {
                args.cfg.health_threshold =
                    parse_num(&value("--health-threshold")?, "--health-threshold")?;
                if args.cfg.health_threshold == 0 {
                    return Err("--health-threshold must be at least 1".to_string());
                }
            }
            "--journal" => args.cfg.journal_path = Some(value("--journal")?.into()),
            "--journal-horizon-secs" => {
                let raw: f64 =
                    parse_num(&value("--journal-horizon-secs")?, "--journal-horizon-secs")?;
                if !raw.is_finite() || raw < 0.0 {
                    return Err(
                        "--journal-horizon-secs must be finite and non-negative".to_string()
                    );
                }
                args.cfg.journal_horizon_secs = Some(raw);
            }
            "--fsync-every" => {
                args.cfg.fsync_every = parse_num(&value("--fsync-every")?, "--fsync-every")?;
                if args.cfg.fsync_every == 0 {
                    return Err("--fsync-every must be at least 1".to_string());
                }
            }
            "--connect-timeout-ms" => {
                let ms: u64 = parse_num(&value("--connect-timeout-ms")?, "--connect-timeout-ms")?;
                args.cfg.connect_timeout = Duration::from_millis(ms.max(1));
            }
            "--io-timeout-ms" => {
                let ms: u64 = parse_num(&value("--io-timeout-ms")?, "--io-timeout-ms")?;
                args.cfg.io_timeout = if ms == 0 { None } else { Some(Duration::from_millis(ms)) };
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
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if args.cfg.backends.is_empty() {
        return Err(format!("at least one --backend is required\n{USAGE}"));
    }
    Ok(args)
}

/// `journal snapshot --journal SRC --out DST`
fn journal_snapshot(mut it: impl Iterator<Item = String>) -> Result<(), String> {
    let mut src = None;
    let mut out = None;
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--journal" => src = Some(value("--journal")?),
            "--out" => out = Some(value("--out")?),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    let src = src.ok_or(format!("--journal is required\n{USAGE}"))?;
    let out = out.ok_or(format!("--out is required\n{USAGE}"))?;
    let mut j = Journal::open(&src, 1).map_err(|e| format!("cannot open {src}: {e}"))?;
    let bytes = j
        .snapshot_to(std::path::Path::new(&out))
        .map_err(|e| format!("cannot snapshot to {out}: {e}"))?;
    println!("snapshot {out}: {} reports, {bytes} bytes", j.reports());
    Ok(())
}

/// `journal restore --journal SRC --backend ADDR...`
fn journal_restore(mut it: impl Iterator<Item = String>) -> Result<(), String> {
    let mut src = None;
    let mut backends = Vec::new();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--journal" => src = Some(value("--journal")?),
            "--backend" => backends.push(value("--backend")?),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    let src = src.ok_or(format!("--journal is required\n{USAGE}"))?;
    if backends.is_empty() {
        return Err(format!("at least one --backend is required\n{USAGE}"));
    }
    let reports = read_reports(std::path::Path::new(&src))
        .map_err(|e| format!("cannot read journal {src}: {e}"))?;
    for addr in &backends {
        let mut client = Client::connect_binary_timeout(
            addr.as_str(),
            Duration::from_secs(2),
            Some(Duration::from_secs(10)),
        )
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        let mut sent = 0u64;
        for r in &reports {
            match client.request(&Request::LoadReport(r.clone())) {
                Ok(Response::Ack(_)) => sent += 1,
                Ok(other) => {
                    return Err(format!(
                        "backend {addr} answered {} to a replayed report",
                        other.kind()
                    ))
                }
                Err(e) => return Err(format!("replay into {addr} failed after {sent}: {e}")),
            }
        }
        println!("restored {sent} reports into {addr}");
    }
    Ok(())
}

fn serve(args: Args) -> Result<(), String> {
    use std::net::ToSocketAddrs;
    let gateway = Gateway::new(args.cfg).map_err(|e| format!("cannot start gateway: {e}"))?;
    let addr = args
        .listen
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve {}: {e}", args.listen))?
        .find(std::net::SocketAddr::is_ipv4)
        .ok_or_else(|| format!("{}: no IPv4 address (the gateway needs one)", args.listen))?;
    let server = GatewayServer::bind(addr, args.workers)
        .map_err(|e| format!("cannot bind {}: {e}", args.listen))?;
    let bound = server.local_addr();
    println!(
        "listening on {bound} (gateway, {} workers, {} backends)",
        args.workers,
        gateway.config().backends.len()
    );
    if let Some(path) = &args.port_file {
        std::fs::write(path, format!("{bound}\n"))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    let stop = AtomicBool::new(false);
    let served = std::thread::scope(|scope| {
        let checker = scope.spawn(|| gateway.run_health_checker(&stop));
        let served = server.run(&gateway, &args.server, &stop);
        stop.store(true, Ordering::Release);
        let _ = checker.join();
        served
    });
    if let Err(e) = gateway.sync_journal() {
        eprintln!("predictgw: final journal sync failed: {e}");
    }
    served.map_err(|e| format!("serve failed: {e}"))
}

fn run() -> Result<(), String> {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("journal") {
        let _ = argv.next();
        return match argv.next().as_deref() {
            Some("snapshot") => journal_snapshot(argv),
            Some("restore") => journal_restore(argv),
            _ => Err(format!("journal needs a subcommand (snapshot|restore)\n{USAGE}")),
        };
    }
    serve(parse_args(argv)?)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("predictgw: {msg}");
            ExitCode::from(2)
        }
    }
}
