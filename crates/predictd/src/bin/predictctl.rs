//! Thin command-line client for predictd, used interactively and by the
//! CI smoke job.
//!
//! ```text
//! predictctl --connect ADDR [--binary] load-report MACHINE AT LOAD [FRAC]
//! predictctl --connect ADDR [--binary] predict MACHINE NOW [DCOMP TPAR MSGS WORDS J]
//! predictctl --connect ADDR [--binary] rank MACHINE NOW [FRONT_END J LIMIT]
//! predictctl --connect ADDR [--binary] stats
//! predictctl --connect ADDR [--binary] shutdown
//! predictctl --connect ADDR [--binary] raw JSON_LINE
//! ```
//!
//! The response is printed to stdout as a JSON line. Exit code 0 for
//! any non-error response, 1 when the daemon answers `error`, 2 for
//! usage or transport problems. `--binary` negotiates the binary codec
//! for the connection and carries the same request as binary frames —
//! the printed reply is the decoded response re-serialized, so a JSON
//! and a binary invocation of the same command print identical lines.
//! `rank` with no workflow argument ranks the paper's worked example
//! (`hetsched::example::workflow`).

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(
    not(test),
    warn(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)
)]

use std::process::ExitCode;

use contention_model::dataset::DataSet;
use contention_model::predict::ParagonTask;
use contention_model::units::secs;
use predictd::proto::{DecideBatch, LoadReport, Predict, Rank, Request};
use predictd::Client;

const USAGE: &str = "usage: predictctl --connect ADDR [--binary] \
(load-report M AT LOAD [FRAC] | predict M NOW [DCOMP TPAR MSGS WORDS J] | \
decide-batch M NOW COUNT [DCOMP TPAR MSGS WORDS J] | \
rank M NOW [FRONT_END J LIMIT] | stats | shutdown | raw JSON)";

fn parse_num<T: std::str::FromStr>(raw: &str, name: &str) -> Result<T, String> {
    raw.parse().map_err(|_| format!("{name}: cannot parse {raw:?}"))
}

fn arg<'a>(args: &'a [String], i: usize, name: &str) -> Result<&'a str, String> {
    args.get(i).map(String::as_str).ok_or(format!("missing {name}\n{USAGE}"))
}

fn opt_num<T: std::str::FromStr>(
    args: &[String],
    i: usize,
    name: &str,
    default: T,
) -> Result<T, String> {
    match args.get(i) {
        Some(raw) => parse_num(raw, name),
        None => Ok(default),
    }
}

/// The demo task predict/decide-batch send when no numbers are given:
/// a placement question with a genuinely contention-dependent answer.
fn demo_task(args: &[String], from: usize) -> Result<ParagonTask, String> {
    let dcomp: f64 = opt_num(args, from, "DCOMP", 30.0)?;
    let tpar: f64 = opt_num(args, from + 1, "TPAR", 6.0)?;
    let msgs: u64 = opt_num(args, from + 2, "MSGS", 10)?;
    let words: u64 = opt_num(args, from + 3, "WORDS", 2000)?;
    Ok(ParagonTask {
        dcomp_sun: secs(dcomp.max(0.0)),
        t_paragon: secs(tpar.max(0.0)),
        to_backend: vec![DataSet::burst(msgs, words)],
        from_backend: vec![DataSet::single(words)],
    })
}

fn build_request(cmd: &str, args: &[String]) -> Result<Request, String> {
    match cmd {
        "load-report" => Ok(Request::LoadReport(LoadReport {
            machine: arg(args, 0, "MACHINE")?.to_string(),
            at: parse_num(arg(args, 1, "AT")?, "AT")?,
            load: parse_num(arg(args, 2, "LOAD")?, "LOAD")?,
            comm_frac: opt_num(args, 3, "FRAC", -1.0)?,
        })),
        "predict" => Ok(Request::Predict(Predict {
            machine: arg(args, 0, "MACHINE")?.to_string(),
            now: parse_num(arg(args, 1, "NOW")?, "NOW")?,
            task: demo_task(args, 2)?,
            j_words: opt_num(args, 6, "J", 500)?,
        })),
        "decide-batch" => {
            let count: usize = parse_num(arg(args, 2, "COUNT")?, "COUNT")?;
            let task = demo_task(args, 3)?;
            Ok(Request::DecideBatch(DecideBatch {
                machine: arg(args, 0, "MACHINE")?.to_string(),
                now: parse_num(arg(args, 1, "NOW")?, "NOW")?,
                tasks: vec![task; count.min(10_000)],
                j_words: opt_num(args, 7, "J", 500)?,
            }))
        }
        "rank" => Ok(Request::Rank(Rank {
            machine: arg(args, 0, "MACHINE")?.to_string(),
            now: parse_num(arg(args, 1, "NOW")?, "NOW")?,
            workflow: hetsched::example::workflow(),
            front_end: opt_num(args, 2, "FRONT_END", 0)?,
            j_words: opt_num(args, 3, "J", 500)?,
            limit: opt_num(args, 4, "LIMIT", 10)?,
        })),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

fn run() -> Result<bool, String> {
    let all: Vec<String> = std::env::args().skip(1).collect();
    let (addr, rest) = match all.split_first() {
        Some((flag, rest)) if flag == "--connect" => match rest.split_first() {
            Some((addr, rest)) => (addr.clone(), rest),
            None => return Err(format!("--connect needs an address\n{USAGE}")),
        },
        _ => return Err(USAGE.to_string()),
    };
    let (binary, rest) = match rest.split_first() {
        Some((flag, rest)) if flag == "--binary" => (true, rest),
        _ => (false, rest),
    };
    let (cmd, args) = rest.split_first().ok_or(format!("missing command\n{USAGE}"))?;
    let reply = if binary {
        let mut client =
            Client::connect_binary(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let req = if cmd == "raw" {
            serde_json::from_str(arg(args, 0, "JSON")?).map_err(|e| e.to_string())?
        } else {
            build_request(cmd, args)?
        };
        let resp = client.request(&req).map_err(|e| e.to_string())?;
        serde_json::to_string(&resp).map_err(|e| e.to_string())?
    } else {
        let mut client = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
        if cmd == "raw" {
            let line = arg(args, 0, "JSON")?;
            client.request_raw(line).map_err(|e| e.to_string())?
        } else {
            let req = build_request(cmd, args)?;
            let line = serde_json::to_string(&req).map_err(|e| e.to_string())?;
            client.request_raw(&line).map_err(|e| e.to_string())?
        }
    };
    println!("{reply}");
    Ok(reply.starts_with("{\"kind\":\"error\""))
}

fn main() -> ExitCode {
    match run() {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("predictctl: {msg}");
            ExitCode::from(2)
        }
    }
}
