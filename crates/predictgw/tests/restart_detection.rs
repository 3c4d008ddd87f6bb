//! The health checker must not mistake broadcasts in flight for a
//! backend restart. A journaling gateway probing every 20 ms is fed
//! tens of thousands of pipelined reports; no probe may report a
//! restart, nothing may be replayed, and each backend must end holding
//! exactly the journal's reports — no duplicates.

mod common;

use std::net::SocketAddr;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use common::{exchange, report, spawn_backend, stats_of};
use predictd::proto::{Request, Response};
use predictd::Client;
use predictgw::journal;

const MACHINES: usize = 256;
const ROUNDS: usize = 80;

#[test]
fn probes_under_load_never_replay_reports_a_backend_holds() {
    let backends = [spawn_backend().to_string(), spawn_backend().to_string()];
    let dir = std::env::temp_dir();
    let tag = std::process::id();
    let journal_path = dir.join(format!("predictgw-restart-{tag}.journal"));
    let port_file = dir.join(format!("predictgw-restart-{tag}.port"));
    let log_path = dir.join(format!("predictgw-restart-{tag}.log"));
    for p in [&journal_path, &port_file, &log_path] {
        let _ = std::fs::remove_file(p);
    }
    let log = std::fs::File::create(&log_path).expect("log file");
    let mut gw = Command::new(env!("CARGO_BIN_EXE_predictgw"))
        .args(["--listen", "127.0.0.1:0", "--workers", "1", "--health-interval-ms", "20"])
        .args(["--backend", &backends[0], "--backend", &backends[1]])
        .arg("--journal")
        .arg(&journal_path)
        .arg("--port-file")
        .arg(&port_file)
        .stdout(Stdio::null())
        .stderr(log)
        .spawn()
        .expect("start predictgw");
    let started = Instant::now();
    let addr: SocketAddr = loop {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            if let Ok(addr) = text.trim().parse() {
                break addr;
            }
        }
        assert!(started.elapsed() < Duration::from_secs(10), "predictgw never announced a port");
        std::thread::sleep(Duration::from_millis(20));
    };

    let mut client = Client::connect_binary(addr).expect("gateway connect");
    for round in 0..ROUNDS {
        let at = (round + 1) as f64;
        let window: Vec<Request> =
            (0..MACHINES).map(|m| report(&format!("rs-m{m:03}"), at)).collect();
        for resp in exchange(&mut client, &window) {
            assert!(matches!(resp, Response::Ack(ref a) if a.accepted), "report: {resp:?}");
        }
    }
    let total = u64::try_from(MACHINES * ROUNDS).expect("fits");
    let Response::GwStats(gs) = client.request(&Request::Stats).expect("gw_stats") else {
        panic!("the gateway answers stats with gw_stats")
    };
    let resp = client.request(&Request::Shutdown).expect("shutdown");
    assert!(matches!(resp, Response::Ok), "{resp:?}");
    assert!(gw.wait().expect("predictgw exits").success());

    let log = std::fs::read_to_string(&log_path).expect("read log");
    assert!(
        !log.contains("restarted"),
        "a probe mistook in-flight broadcasts for a restart:\n{log}"
    );
    for b in &gs.backends {
        assert_eq!(b.replayed, 0, "nothing may be replayed into {}: {gs:?}", b.addr);
    }
    let journaled = journal::read_reports(&journal_path).expect("read journal").len();
    assert_eq!(u64::try_from(journaled).expect("fits"), total);
    for b in &backends {
        assert_eq!(stats_of(b).requests.load_report, total, "backend {b} holds duplicates or gaps");
    }
    for p in [&journal_path, &port_file, &log_path] {
        let _ = std::fs::remove_file(p);
    }
}
