//! The daemon binary: the one TCP engine announces itself,
//! `--engine evented` is still accepted, any other engine is refused
//! with exit code 2, and the descriptor limit does not spin its loop.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use predictd::proto::{Request, Response};
use predictd::Client;

fn predictd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_predictd"))
}

/// A daemon started with `--listen 127.0.0.1:0 --workers 1`, killed on
/// drop so a failed assertion leaves no process behind.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    announce: String,
}

impl Daemon {
    fn start(mut cmd: Command) -> Daemon {
        let mut child = cmd
            .args(["--listen", "127.0.0.1:0", "--workers", "1"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn predictd");
        let mut announce = String::new();
        BufReader::new(child.stdout.take().expect("stdout"))
            .read_line(&mut announce)
            .expect("announce line");
        let addr: SocketAddr = announce
            .split_whitespace()
            .nth(2)
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| panic!("no address in {announce:?}"));
        Daemon { child, addr, announce }
    }

    /// Sends `shutdown` over `client` and expects a clean exit.
    fn shut_down(mut self, client: &mut Client) {
        client.request(&Request::Shutdown).expect("shutdown");
        assert!(self.child.wait().expect("wait").success(), "daemon must exit 0 after shutdown");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Starts the daemon with `extra` flags, shuts it down over TCP, and
/// returns its announce line.
fn announce_line(extra: &[&str]) -> String {
    let mut cmd = predictd();
    cmd.args(extra);
    let daemon = Daemon::start(cmd);
    let line = daemon.announce.clone();
    let mut client = Client::connect(daemon.addr).expect("connect");
    daemon.shut_down(&mut client);
    line
}

#[test]
fn default_and_named_engine_start_the_evented_engine() {
    for extra in [&[][..], &["--engine", "evented"][..]] {
        let line = announce_line(extra);
        assert!(line.contains("(evented engine, 1 workers,"), "{extra:?}: {line:?}");
    }
}

#[test]
fn any_other_engine_is_refused() {
    for engine in ["pool", "threads"] {
        let out = predictd().args(["--engine", engine]).output().expect("run predictd");
        assert_eq!(out.status.code(), Some(2), "--engine {engine}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("pooled engine was removed"), "{stderr}");
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

/// At the descriptor limit the daemon cannot accept, but it must not
/// spin on its still-readable listener; once clients leave it accepts
/// again.
#[test]
fn descriptor_limit_does_not_spin_the_loop() {
    let mut cmd = Command::new("sh");
    cmd.args(["-c", "ulimit -n 16 && exec \"$0\" \"$@\""]).arg(env!("CARGO_BIN_EXE_predictd"));
    let daemon = Daemon::start(cmd);

    // More connections than the daemon has descriptors left: the
    // kernel completes them all, the daemon can accept only some.
    let held: Vec<TcpStream> =
        (0..24).map(|_| TcpStream::connect(daemon.addr).expect("connect")).collect();
    std::thread::sleep(Duration::from_millis(200));
    let before = cpu_ticks(daemon.child.id());
    std::thread::sleep(Duration::from_secs(1));
    let used = cpu_ticks(daemon.child.id()) - before;
    assert!(used < 30, "the loop spun at the descriptor limit: {used} ticks in 1 s");

    drop(held);
    let mut client = Client::connect_binary_timeout(
        daemon.addr,
        Duration::from_secs(1),
        Some(Duration::from_secs(5)),
    )
    .expect("connect after the limit");
    assert!(matches!(client.request(&Request::Stats), Ok(Response::Stats(_))));
    daemon.shut_down(&mut client);
}
