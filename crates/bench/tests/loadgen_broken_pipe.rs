//! `loadgen … | head -2` must end quietly: a reader that closes stdout
//! early is not a failure, and must not make the generator panic.

use std::io::Read;
use std::process::{Command, Stdio};
use std::thread;

use predictd::{EventedServer, ServerConfig, Service, ServiceConfig};

#[test]
fn loadgen_exits_cleanly_when_stdout_closes_early() {
    let service: &'static Service =
        Box::leak(Box::new(Service::with_default_predictor(ServiceConfig::default())));
    let cfg: &'static ServerConfig = Box::leak(Box::new(ServerConfig::default()));
    let server = EventedServer::bind("127.0.0.1:0".parse().expect("loopback"), 1).expect("bind");
    let addr = server.local_addr().to_string();
    thread::spawn(move || server.run(service, cfg).expect("daemon run"));

    let mut child = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args(["--connect", &addr, "--conns", "1", "--requests", "200", "--pipeline", "4"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start loadgen");
    // Close the read end before loadgen has finished its requests, so
    // every line it prints meets a broken pipe.
    drop(child.stdout.take());
    let mut stderr = String::new();
    child.stderr.take().expect("stderr").read_to_string(&mut stderr).expect("read stderr");
    let status = child.wait().expect("loadgen exits");
    assert!(status.success(), "loadgen failed on a closed stdout ({status}): {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
