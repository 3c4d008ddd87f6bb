//! The gateway binary at the descriptor limit: it cannot accept, but it
//! must not spin on its still-readable listener, and once clients leave
//! it accepts and routes again.

mod common;

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use common::spawn_backend;
use predictd::proto::{Request, Response};
use predictd::Client;

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
