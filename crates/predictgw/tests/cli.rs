//! The gateway binary at its resource limits. At the descriptor limit
//! it cannot accept, but it must not spin on its still-readable
//! listener, and once clients leave it accepts and routes again. At the
//! file-size limit it refuses the reports it cannot journal — a whole
//! event batch of them at once when they arrive pipelined — keeps
//! answering queries, and leaves a journal of whole records. Its
//! journal takes one `write` per event batch, not one per report.

mod common;

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use common::{predict, recv_all, report, send_all, spawn_backend};
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

/// Starts a journaling gateway on `path` in front of one in-process
/// backend under a one-block file-size limit, with `SIGXFSZ` ignored so
/// the write that crosses it fails with `EFBIG` instead of killing it.
fn start_size_limited(path: &std::path::Path) -> Gateway {
    let backend = spawn_backend().to_string();
    let mut cmd = Command::new("sh");
    cmd.args(["-c", "trap '' XFSZ; ulimit -f 1; exec \"$0\" \"$@\""])
        .arg(env!("CARGO_BIN_EXE_predictgw"))
        .arg("--journal")
        .arg(path)
        .args(["--health-interval-ms", "600000"])
        .stderr(Stdio::null());
    Gateway::start(cmd, &backend)
}

#[test]
fn a_full_journal_refuses_pipelined_reports_by_the_batch() {
    let path =
        std::env::temp_dir().join(format!("predictgw-cli-efbig-burst-{}.j", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut gw = start_size_limited(&path);
    let mut client = Client::connect_binary_timeout(
        gw.addr,
        Duration::from_secs(1),
        Some(Duration::from_secs(5)),
    )
    .expect("connect");

    // Bursts of four reports, each sent with one write and answered
    // before the next: the limit is crossed inside some burst.
    let mut acked = Vec::new();
    let mut refused = 0;
    for burst in 0..40 {
        let reqs: Vec<Request> =
            (0..4).map(|i| report(&format!("burst-m{i}"), f64::from(burst * 4 + i + 1))).collect();
        send_all(&mut client, &reqs);
        for (req, reply) in reqs.into_iter().zip(recv_all(&mut client, 4)) {
            match reply {
                Response::Ack(_) => acked.push(req),
                Response::Error(e) => {
                    assert_eq!(e.message, "journal append failed: File too large (os error 27)");
                    refused += 1;
                }
                other => panic!("report answered {other:?}"),
            }
        }
    }
    assert!(refused > 0, "the limit was never reached");
    assert!(!acked.is_empty(), "the limit left no room for a single burst");
    let reply = client.request(&predict("burst-m1", 200.0)).expect("predict");
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
    // The reports are distinct, so this also proves no refused report
    // reached the file.
    assert_eq!(kept, acked, "the journal holds exactly the acked reports, in order");
    let _ = std::fs::remove_file(&path);
}

/// `write`-family syscalls the process has made so far (`syscw` in its
/// `/proc/<pid>/io`).
fn write_calls(pid: u32) -> u64 {
    let io = std::fs::read_to_string(format!("/proc/{pid}/io")).expect("read /proc io");
    io.lines()
        .find_map(|l| l.strip_prefix("syscw: "))
        .and_then(|n| n.trim().parse().ok())
        .expect("syscw field")
}

#[test]
fn a_pipelined_burst_of_reports_costs_the_journal_a_few_writes() {
    let backend = spawn_backend().to_string();
    let path = std::env::temp_dir().join(format!("predictgw-cli-writes-{}.j", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_predictgw"));
    cmd.arg("--journal").arg(&path).args(["--health-interval-ms", "600000"]);
    let mut gw = Gateway::start(cmd, &backend);
    let mut client = Client::connect_binary(gw.addr).expect("connect");
    // Warm the connections so no connect or preamble lands in the count.
    assert!(matches!(client.request(&report("writes-warm", 0.5)), Ok(Response::Ack(_))));

    const BURST: usize = 512;
    let reqs: Vec<Request> =
        (0..BURST).map(|i| report(&format!("writes-m{}", i % 64), 1.0 + i as f64)).collect();
    let mut burst = Vec::new();
    for r in &reqs {
        assert!(predictd::binproto::encode_request(r, &mut burst), "a report fits a frame");
    }
    let before = write_calls(gw.child.id());
    // One write: larger than the client's buffer, so it goes out whole.
    client.send_frame(&burst).expect("send the burst");
    client.flush().expect("flush");
    let replies = recv_all(&mut client, BURST);
    let writes = write_calls(gw.child.id()) - before;
    assert!(replies.iter().all(|r| matches!(r, Response::Ack(_))), "every report is acked");
    // `syscw` counts the write(2) family — the journal's file writes;
    // the sockets go through send(2). Writing each report on its own
    // cost one per report.
    assert!(writes <= 32, "{writes} writes for a burst of {BURST} reports");
    assert_eq!(client.request(&Request::Shutdown).expect("shutdown"), Response::Ok);
    assert!(gw.child.wait().expect("wait").success());
    assert_eq!(journal::read_reports(&path).expect("read journal").len(), BURST + 1);
    let _ = std::fs::remove_file(&path);
}
