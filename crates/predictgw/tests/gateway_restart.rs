//! A journaling gateway killed with `SIGKILL` in the middle of a
//! pipelined report stream comes back from its journal. The journal
//! reopens with whole records and holds every report the client saw
//! acked, in order: a report's record reaches the OS before any backend
//! sees it, so no ack can outrun its record. A gateway restarted on that
//! journal in front of two empty backends replays it into both, and
//! each then answers exactly like a monolithic predictd fed the journal.

mod common;

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use common::{predict, spawn_backend, stats_of};
use predictd::proto::{LoadReport, Request, Response};
use predictd::{binproto, Client, Service, ServiceConfig};
use predictgw::journal::{self, Journal};

const MACHINES: usize = 32;
/// Reports the writer offers; the gateway dies long before the last.
const OFFERED: usize = 40_000;
/// Acks to see before the kill.
const KILL_AFTER: usize = 3_000;

/// Report `k` of the stream: machines in turn, time moving one second
/// per sweep, loads that keep the forecasts moving.
fn nth_report(k: usize) -> LoadReport {
    let sweep = u32::try_from(k / MACHINES).expect("small stream");
    let spread = u32::try_from(k % 7).expect("small");
    LoadReport {
        machine: format!("restart-m{:02}", k % MACHINES),
        at: 1.0 + f64::from(sweep),
        load: f64::from(spread) * 0.75,
        comm_frac: 0.3,
    }
}

/// Starts `predictgw` on `journal` in front of `backends`, probing every
/// `health_ms`; returns the child and its address.
fn start_gateway(backends: &[String], journal: &Path, health_ms: &str) -> (Child, SocketAddr) {
    let port_file = journal.with_extension(format!("port-{health_ms}"));
    let _ = std::fs::remove_file(&port_file);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_predictgw"));
    cmd.args(["--listen", "127.0.0.1:0", "--workers", "1", "--health-interval-ms", health_ms]);
    for b in backends {
        cmd.args(["--backend", b]);
    }
    let child = cmd
        .arg("--journal")
        .arg(journal)
        .arg("--port-file")
        .arg(&port_file)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("start predictgw");
    let started = Instant::now();
    let addr = loop {
        if let Some(addr) =
            std::fs::read_to_string(&port_file).ok().and_then(|t| t.trim().parse().ok())
        {
            break addr;
        }
        assert!(started.elapsed() < Duration::from_secs(10), "predictgw never announced a port");
        thread::sleep(Duration::from_millis(20));
    };
    let _ = std::fs::remove_file(&port_file);
    (child, addr)
}

/// Reads one binary reply frame; `None` once the connection is gone.
fn read_reply(r: &mut impl Read) -> Option<Response> {
    let mut len4 = [0u8; 4];
    r.read_exact(&mut len4).ok()?;
    let mut body = vec![0u8; usize::try_from(u32::from_le_bytes(len4)).ok()?];
    r.read_exact(&mut body).ok()?;
    Some(binproto::decode_response(&body).expect("a whole reply frame decodes"))
}

#[test]
fn a_gateway_killed_mid_broadcast_recovers_from_its_journal() {
    let journal_path =
        std::env::temp_dir().join(format!("predictgw-kill-{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&journal_path);
    let first = [spawn_backend().to_string(), spawn_backend().to_string()];
    let (mut gw, addr) = start_gateway(&first, &journal_path, "600000");

    // A writer thread pipelines the stream in 64-report writes until the
    // gateway is gone; this thread reads the acks.
    let stream = TcpStream::connect(addr).expect("gateway connect");
    let mut writer = stream.try_clone().expect("clone");
    let feeder = thread::spawn(move || {
        let mut burst = binproto::PREAMBLE.to_vec();
        for chunk in (0..OFFERED).collect::<Vec<_>>().chunks(64) {
            for &k in chunk {
                let req = Request::LoadReport(nth_report(k));
                assert!(binproto::encode_request(&req, &mut burst), "a report fits a frame");
            }
            if writer.write_all(&burst).is_err() {
                return;
            }
            burst.clear();
        }
    });
    let mut reader = BufReader::new(stream);
    let mut acked = 0usize;
    while let Some(reply) = read_reply(&mut reader) {
        assert!(matches!(reply, Response::Ack(ref a) if a.accepted), "report {acked}: {reply:?}");
        acked += 1;
        if acked == KILL_AFTER {
            gw.kill().expect("SIGKILL the gateway");
        }
    }
    // Killed already unless the stream ended early; either way it must
    // be gone before the checks below.
    let _ = gw.kill();
    let _ = gw.wait();
    feeder.join().expect("feeder");
    assert!(acked >= KILL_AFTER, "the gateway died after {acked} acks");
    assert!(acked < OFFERED, "the kill landed after the whole stream");

    // Whole records, every acked report, in stream order.
    let reopened = Journal::open(&journal_path, 1).expect("the journal reopens");
    let on_disk = std::fs::metadata(&journal_path).expect("journal").len();
    assert_eq!(reopened.bytes(), on_disk, "the reopened journal ends on a whole record");
    drop(reopened);
    let kept = journal::read_reports(&journal_path).expect("read journal");
    assert!(kept.len() >= acked, "{} records for {acked} acked reports", kept.len());
    for (k, r) in kept.iter().enumerate() {
        assert_eq!(*r, nth_report(k), "journal record {k} is out of stream order");
    }

    // Restart on the same journal in front of two empty backends.
    let second = [spawn_backend().to_string(), spawn_backend().to_string()];
    let (mut gw, addr) = start_gateway(&second, &journal_path, "20");
    let want = u64::try_from(kept.len()).expect("fits");
    let started = Instant::now();
    for b in &second {
        while stats_of(b).requests.load_report < want {
            assert!(started.elapsed() < Duration::from_secs(30), "backend {b} never caught up");
            thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(stats_of(b).requests.load_report, want, "backend {b} got duplicates");
    }

    // Each backend answers like one predictd fed the journal.
    let mono = Service::with_default_predictor(ServiceConfig::default());
    for r in &kept {
        mono.handle(&Request::LoadReport(r.clone()));
    }
    let now = kept.last().map_or(1.0, |r| r.at) + 0.5;
    let mut through = Client::connect_binary(addr).expect("restarted gateway");
    for m in 0..MACHINES {
        let q = predict(&format!("restart-m{m:02}"), now);
        let (want, _) = mono.handle(&q);
        let Response::Prediction(mut want) = want else { panic!("want a prediction") };
        want.cache_hit = false;
        let mut answers = vec![through.request(&q).expect("predict through the gateway")];
        for b in &second {
            let mut direct = Client::connect_binary(b.as_str()).expect("backend connect");
            answers.push(direct.request(&q).expect("predict a backend directly"));
        }
        for answer in answers {
            let Response::Prediction(mut got) = answer else { panic!("want a prediction") };
            got.cache_hit = false;
            assert_eq!(got, want, "machine {m} diverged from the monolithic answer");
        }
    }
    assert_eq!(through.request(&Request::Shutdown).expect("shutdown"), Response::Ok);
    assert!(gw.wait().expect("predictgw exits").success());
    let _ = std::fs::remove_file(&journal_path);
}
