//! Command-line traffic generator for a running `predictd` — or a
//! `predictgw` federation gateway, which speaks the same protocol and
//! answers the post-run `stats` probe with its per-backend counters.
//!
//! ```text
//! loadgen --connect 127.0.0.1:7171 [--conns 4] [--requests 1000]
//!         [--pipeline 8] [--mix predict=3,load_report=1,decide_batch=0]
//!         [--codec json|binary]
//! ```
//!
//! Prints client-side throughput and client-observed latency quantiles
//! (flush-to-reply, so pipelined queueing counts), plus the server's
//! own latency histogram (p50/p99/max from a `stats` request issued
//! after the run). `--pipeline 1` is a closed loop; `--codec binary`
//! negotiates the length-prefixed binary codec on every connection.
//! A reader that closes stdout early (`loadgen … | head -2`) ends the
//! run quietly with exit status 0.

#![cfg_attr(
    not(test),
    warn(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)
)]

use std::io::{self, Write};
use std::net::{SocketAddr, ToSocketAddrs};
use std::process::ExitCode;

use bench::loadgen::{drive, Codec, GenConfig, Mix};
use predictd::proto::{Request, Response};
use predictd::Client;

struct Args {
    addr: SocketAddr,
    cfg: GenConfig,
}

fn usage() -> String {
    "usage: loadgen --connect ADDR [--conns N] [--requests N] [--pipeline K] \
     [--mix predict=3,load_report=1,decide_batch=0] [--codec json|binary]"
        .to_string()
}

fn parse_mix(spec: &str) -> Result<Mix, String> {
    let mut mix = Mix { load_report: 0, predict: 0, decide_batch: 0 };
    for part in spec.split(',') {
        let (kind, weight) = part
            .split_once('=')
            .ok_or_else(|| format!("bad mix entry {part:?}, want kind=weight"))?;
        let weight: u32 =
            weight.parse().map_err(|_| format!("bad mix weight {weight:?} in {part:?}"))?;
        match kind {
            "load_report" => mix.load_report = weight,
            "predict" => mix.predict = weight,
            "decide_batch" => mix.decide_batch = weight,
            other => return Err(format!("unknown mix kind {other:?}")),
        }
    }
    if mix.load_report + mix.predict + mix.decide_batch == 0 {
        return Err("mix must have at least one non-zero weight".to_string());
    }
    Ok(mix)
}

fn parse_args() -> Result<Args, String> {
    let mut addr = None;
    let mut cfg = GenConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--connect" => {
                let spec = value("--connect")?;
                addr = spec
                    .to_socket_addrs()
                    .map_err(|e| format!("cannot resolve {spec:?}: {e}"))?
                    .next();
            }
            "--conns" => {
                cfg.conns = value("--conns")?.parse().map_err(|e| format!("--conns: {e}"))?;
            }
            "--requests" => {
                cfg.requests_per_conn =
                    value("--requests")?.parse().map_err(|e| format!("--requests: {e}"))?;
            }
            "--pipeline" => {
                cfg.pipeline =
                    value("--pipeline")?.parse().map_err(|e| format!("--pipeline: {e}"))?;
            }
            "--mix" => cfg.mix = parse_mix(&value("--mix")?)?,
            "--codec" => {
                cfg.codec = match value("--codec")?.as_str() {
                    "json" => Codec::Json,
                    "binary" => Codec::Binary,
                    other => return Err(format!("--codec must be json or binary, got {other:?}")),
                }
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    if cfg.conns == 0 || cfg.requests_per_conn == 0 || cfg.pipeline == 0 {
        return Err("--conns, --requests, and --pipeline must be at least 1".to_string());
    }
    let addr = addr.ok_or_else(usage)?;
    Ok(Args { addr, cfg })
}

/// Why a run ended early.
enum Stop {
    /// Whoever reads stdout went away: nothing left to report to.
    Closed,
    /// A real failure, with its message.
    Failed(String),
}

impl From<String> for Stop {
    fn from(msg: String) -> Self {
        Stop::Failed(msg)
    }
}

impl From<io::Error> for Stop {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::BrokenPipe {
            Stop::Closed
        } else {
            Stop::Failed(format!("writing the report failed: {e}"))
        }
    }
}

fn run(args: &Args, out: &mut impl Write) -> Result<(), Stop> {
    let summary = drive(args.addr, &args.cfg).map_err(|e| format!("loadgen run failed: {e}"))?;
    let codec = match args.cfg.codec {
        Codec::Json => "json",
        Codec::Binary => "binary",
    };
    writeln!(
        out,
        "loadgen: {} requests over {} conns (pipeline {}, {codec}) in {:.3}s -> {:.0} req/s, \
         {} errors",
        summary.requests,
        args.cfg.conns,
        args.cfg.pipeline,
        summary.elapsed_secs,
        summary.requests_per_sec,
        summary.errors,
    )?;
    writeln!(
        out,
        "client latency: p50 {}us p95 {}us p99 {}us max {}us",
        summary.p50_us, summary.p95_us, summary.p99_us, summary.max_us,
    )?;

    let mut client =
        Client::connect(args.addr).map_err(|e| format!("stats connection failed: {e}"))?;
    let resp = client.request(&Request::Stats).map_err(|e| format!("stats request failed: {e}"))?;
    match resp {
        Response::Stats(st) => writeln!(
            out,
            "server histogram: count {} p50 {}us p99 {}us max {}us (uptime {:.1}s, {} machines)",
            st.latency_us.count,
            st.latency_us.p50_us,
            st.latency_us.p99_us,
            st.latency_us.max_us,
            st.uptime_secs,
            st.machines,
        )?,
        // A gateway target answers with its federation counters; print
        // the routing split and the per-backend request distribution.
        Response::GwStats(gs) => {
            writeln!(
                out,
                "gateway: {} hits, {} misses, {} failovers, journal {} frames / {} bytes \
                 (uptime {:.1}s)",
                gs.hits,
                gs.misses,
                gs.failovers,
                gs.journal_frames,
                gs.journal_bytes,
                gs.uptime_secs,
            )?;
            for b in &gs.backends {
                writeln!(
                    out,
                    "backend {}: {} requests, {} failovers, {} replayed{}",
                    b.addr,
                    b.requests,
                    b.failovers,
                    b.replayed,
                    if b.healthy { "" } else { " (down)" },
                )?;
            }
        }
        other => return Err(Stop::Failed(format!("want stats reply, got {other:?}"))),
    }
    out.flush()?;
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args, &mut io::stdout().lock()) {
        Ok(()) | Err(Stop::Closed) => ExitCode::SUCCESS,
        Err(Stop::Failed(msg)) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
