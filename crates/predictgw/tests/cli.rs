//! The gateway binary at its resource limits. At the descriptor limit
//! it cannot accept, but it must not spin on its still-readable
//! listener, and once clients leave it accepts and routes again. At the
//! file-size limit it refuses the reports it cannot journal, keeps
//! answering queries, and leaves a journal of whole records.

mod common;

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use common::{predict, report, spawn_backend};
use predictd::proto::{Request, Response};
use predictd::Client;
use predictgw::journal::{self, Journal};

/// A gateway started with `--listen 127.0.0.1:0 --workers 1` in front of
/// one in-process backend, killed on drop so a failed assertion leaves
/// no process behind.
struct Gateway {
    child: Child,
    addr: SocketAddr,
}

impl Gateway {
    fn start(mut cmd: Command, backend: &str) -> Gateway {
        let mut child = cmd
            .args(["--listen", "127.0.0.1:0", "--workers", "1", "--backend", backend])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn predictgw");
        let mut announce = String::new();
        BufReader::new(child.stdout.take().expect("stdout"))
            .read_line(&mut announce)
            .expect("announce line");
        let addr: SocketAddr = announce
            .split_whitespace()
            .nth(2)
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| panic!("no address in {announce:?}"));
        Gateway { child, addr }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// CPU ticks (user + system) the process has used so far.
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read /proc stat");
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall.
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime")
}

#[test]
fn descriptor_limit_does_not_spin_the_loop() {
    let backend = spawn_backend().to_string();
    let mut cmd = Command::new("sh");
    cmd.args(["-c", "ulimit -n 16 && exec \"$0\" \"$@\""]).arg(env!("CARGO_BIN_EXE_predictgw"));
    // Probes use a descriptor too; keep them out of the measured second.
    cmd.args(["--health-interval-ms", "600000"]);
    let mut gw = Gateway::start(cmd, &backend);

    // More connections than the gateway has descriptors left: the
    // kernel completes them all, the gateway can accept only some.
    let held: Vec<TcpStream> =
        (0..24).map(|_| TcpStream::connect(gw.addr).expect("connect")).collect();
    std::thread::sleep(Duration::from_millis(200));
    let before = cpu_ticks(gw.child.id());
    std::thread::sleep(Duration::from_secs(1));
    let used = cpu_ticks(gw.child.id()) - before;
    assert!(used < 30, "the loop spun at the descriptor limit: {used} ticks in 1 s");

    drop(held);
    let mut client = Client::connect_binary_timeout(
        gw.addr,
        Duration::from_secs(1),
        Some(Duration::from_secs(5)),
    )
    .expect("connect after the limit");
    let reply = client.request(&Request::Stats).expect("stats through the gateway");
    assert!(matches!(reply, Response::GwStats(_)), "{reply:?}");
    let reply = client.request(&Request::Shutdown).expect("shutdown");
    assert_eq!(reply, Response::Ok);
    assert!(gw.child.wait().expect("wait").success(), "gateway must exit 0 after shutdown");
}

#[test]
fn a_full_journal_refuses_reports_and_keeps_whole_records() {
    let backend = spawn_backend().to_string();
    let path = std::env::temp_dir().join(format!("predictgw-cli-efbig-{}.j", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // A 1-block file-size limit, with SIGXFSZ ignored so the write that
    // crosses it fails with EFBIG instead of killing the gateway.
    let mut cmd = Command::new("sh");
    cmd.args(["-c", "trap '' XFSZ; ulimit -f 1; exec \"$0\" \"$@\""])
        .arg(env!("CARGO_BIN_EXE_predictgw"))
        .arg("--journal")
        .arg(&path)
        .args(["--health-interval-ms", "600000"])
        .stderr(Stdio::null());
    let mut gw = Gateway::start(cmd, &backend);
    let mut client = Client::connect_binary_timeout(
        gw.addr,
        Duration::from_secs(1),
        Some(Duration::from_secs(5)),
    )
    .expect("connect");

    let mut acked = Vec::new();
    let mut refused = 0;
    for t in 1..200 {
        let req = report(&format!("efbig-m{}", t % 3), f64::from(t));
        match client.request(&req).expect("report reply") {
            Response::Ack(_) => acked.push(req),
            Response::Error(e) => {
                assert_eq!(e.message, "journal append failed: File too large (os error 27)");
                refused += 1;
                if refused == 3 {
                    break;
                }
            }
            other => panic!("report answered {other:?}"),
        }
    }
    assert_eq!(refused, 3, "the limit was never reached");
    assert!(!acked.is_empty(), "the limit left no room for a single report");
    let reply = client.request(&predict("efbig-m1", 200.0)).expect("predict");
    assert!(matches!(reply, Response::Prediction(_)), "{reply:?}");
    assert_eq!(client.request(&Request::Shutdown).expect("shutdown"), Response::Ok);
    assert!(gw.child.wait().expect("wait").success(), "gateway must exit 0 after shutdown");

    let on_disk = std::fs::metadata(&path).expect("journal").len();
    let whole = Journal::open(&path, 1).expect("reopen").bytes();
    assert_eq!(on_disk, whole, "the journal ends in a torn record");
    let kept: Vec<Request> = journal::read_reports(&path)
        .expect("read journal")
        .into_iter()
        .map(Request::LoadReport)
        .collect();
    assert_eq!(kept, acked, "the journal holds exactly the acked reports");
    let _ = std::fs::remove_file(&path);
}
