//! The open-loop generator charges a stall to every request that was due
//! during it, and reports its own lateness apart, as lag.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use perfbench::gen::{Codec, Generator, Kind, Mode, Record, Source, Tally};
use perfbench::stats::quantile;
use proto::binproto;

const RATE: f64 = 10_000.0;
const STALL: Duration = Duration::from_millis(50);

/// Requests that are 5 bytes of opaque body; the fake server never parses
/// them. With `pause_after`, the source itself stalls once, like a
/// generator descheduled mid-run.
struct Opaque {
    issued: usize,
    pause_after: Option<usize>,
}

impl Source for Opaque {
    fn next(&mut self, _conn: usize, out: &mut Vec<u8>) -> Option<Kind> {
        if self.pause_after == Some(self.issued) {
            thread::sleep(STALL);
        }
        self.issued += 1;
        out.extend_from_slice(&5u32.to_le_bytes());
        out.extend_from_slice(&[binproto::REQ_LOAD_REPORT, 0, 0, 0, 0]);
        Some(Kind::LoadReport)
    }
}

/// A server answering every 9-byte request with a bare `ack` frame; with
/// `stall_after`, it stops reading for [`STALL`] once it has answered
/// that many.
fn fake_server(
    stall_after: Option<usize>,
    done: Arc<AtomicBool>,
) -> (std::net::SocketAddr, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let mut stall_after = stall_after;
    let handle = thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept");
        s.set_read_timeout(Some(Duration::from_millis(50))).expect("timeout");
        let mut preamble = [0u8; 4];
        s.read_exact(&mut preamble).expect("preamble");
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        let mut answered = 0usize;
        while !done.load(Ordering::Acquire) {
            match s.read(&mut chunk) {
                Ok(0) => return,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(_) => continue,
            }
            let whole = buf.len() / 9;
            let mut reply = Vec::with_capacity(whole * 5);
            for _ in 0..whole {
                reply.extend_from_slice(&1u32.to_le_bytes());
                reply.push(binproto::RESP_ACK);
            }
            buf.drain(..whole * 9);
            answered += whole;
            if s.write_all(&reply).is_err() {
                return;
            }
            if stall_after.is_some_and(|k| answered >= k) && stall_after.take().is_some() {
                thread::sleep(STALL);
            }
        }
    });
    (addr, handle)
}

fn paced_run(stall_after: Option<usize>, pause_after: Option<usize>) -> Tally {
    let done = Arc::new(AtomicBool::new(false));
    let (addr, server) = fake_server(stall_after, done.clone());
    let mut g = Generator::connect(addr, 1, Codec::Binary).expect("connect");
    let rec = Record { latency: true, spans: true };
    let mut src = Opaque { issued: 0, pause_after };
    let mut t = g.run_for(&mut src, Mode::Paced { rate: RATE }, Duration::from_millis(400), rec);
    g.drain(&mut t, Duration::from_secs(2), rec);
    drop(g);
    done.store(true, Ordering::Release);
    server.join().expect("server thread");
    assert_eq!(t.failed(), 0, "every request answered");
    assert_eq!(t.completed, t.sent);
    t
}

fn p99_us(samples: &[u64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_unstable();
    quantile(&v, 0.99).expect("samples") as f64 / 1000.0
}

#[test]
fn a_server_stall_is_charged_to_every_request_due_during_it() {
    let t = paced_run(Some(1000), None);
    // Requests due in the first 40 ms of the 50 ms stall waited at least
    // 10 ms each, measured from when they were due.
    let charged = t.latency_ns.iter().filter(|&&l| l >= 10_000_000).count();
    let due_in_window = (RATE * 0.040) as usize;
    assert!(
        charged * 10 >= due_in_window * 8,
        "{charged} requests carry the stall, expected about {due_in_window}"
    );
    let worst = t.spans.iter().map(|s| s.done_ns - s.due_ns).max().expect("spans");
    assert!(worst >= 40_000_000, "the first stalled request waited the whole stall ({worst} ns)");
    // The generator kept to its schedule throughout: the stall shows in
    // latency, not in lag.
    assert!(p99_us(&t.lag_ns) < 5_000.0, "lag p99 {} us", p99_us(&t.lag_ns));
    assert!(p99_us(&t.latency_ns) > 10_000.0);
}

#[test]
fn generator_lateness_shows_as_lag_and_still_counts_as_latency() {
    let t = paced_run(None, Some(1000));
    // Requests due while the source was stalled were sent late; each is
    // timed from when it was due, and the lateness is reported as lag.
    let late: Vec<_> = t.spans.iter().filter(|s| s.sent_ns - s.due_ns >= 10_000_000).collect();
    let due_in_window = (RATE * 0.040) as usize;
    assert!(
        late.len() * 10 >= due_in_window * 8,
        "{} late requests, expected about {due_in_window}",
        late.len()
    );
    for s in &late {
        assert!(s.done_ns - s.due_ns >= s.sent_ns - s.due_ns, "latency includes the lag");
    }
    assert!(p99_us(&t.lag_ns) >= 10_000.0, "lag p99 {} us", p99_us(&t.lag_ns));
}
