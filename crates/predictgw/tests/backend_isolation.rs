//! A slow or silent backend must cost only the requests routed to it.
//! The gateway drives its backends from the event loop without
//! blocking, so a backend that stalls every reply leaves the machines
//! its peers own answering at full speed, and a backend that never
//! answers costs its machines one I/O timeout before they fail over —
//! all of them at once, not one timeout per request.

mod common;

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use common::{exchange, predict, recv_all, report, send_all, spawn_backend, spawn_gateway, task};
use predictd::proto::{DecideBatch, Rank, Request, Response};
use predictd::{binproto, Client, Service, ServiceConfig};
use predictgw::{Gateway, GatewayConfig};

/// A backend that answers `stats` at once but every other request only
/// `delay` after it arrived. Answers come from a real [`Service`], so
/// they are valid; replies keep request order, like predictd's.
fn spawn_slow_backend(delay: Duration) -> SocketAddr {
    let service: &'static Service =
        Box::leak(Box::new(Service::with_default_predictor(ServiceConfig::default())));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind slow backend");
    let addr = listener.local_addr().expect("addr");
    thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            thread::spawn(move || serve_slowly(stream, service, delay));
        }
    });
    addr
}

fn serve_slowly(stream: TcpStream, service: &Service, delay: Duration) {
    let _ = stream.set_nodelay(true);
    let Ok(mut writer) = stream.try_clone() else { return };
    let (tx, rx) = mpsc::channel::<(Instant, Vec<u8>)>();
    thread::spawn(move || {
        for (due, frame) in rx {
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                thread::sleep(wait);
            }
            if writer.write_all(&frame).is_err() {
                return;
            }
        }
    });
    let mut reader = BufReader::new(stream);
    let mut preamble = [0u8; 4];
    if reader.read_exact(&mut preamble).is_err() {
        return;
    }
    loop {
        let mut len4 = [0u8; 4];
        if reader.read_exact(&mut len4).is_err() {
            return;
        }
        let len = usize::try_from(u32::from_le_bytes(len4)).expect("frame length fits usize");
        let mut body = vec![0u8; len];
        if reader.read_exact(&mut body).is_err() {
            return;
        }
        let req = binproto::decode_request(&body).expect("the gateway sends valid frames");
        let due =
            if matches!(req, Request::Stats) { Instant::now() } else { Instant::now() + delay };
        let (resp, _) = service.handle(&req);
        let mut frame = Vec::new();
        assert!(binproto::encode_response(&resp, &mut frame));
        if tx.send((due, frame)).is_err() {
            return;
        }
    }
}

/// A backend that accepts connections and reads requests but never
/// answers anything.
fn spawn_silent_backend() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind silent backend");
    let addr = listener.local_addr().expect("addr");
    thread::spawn(move || {
        for mut stream in listener.incoming().flatten() {
            thread::spawn(move || {
                let mut sink = [0u8; 4096];
                while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
            });
        }
    });
    addr
}

/// Splits candidate machine names by ring owner: (owned by `backend`,
/// owned by anyone else), `n` of each.
fn split_by_owner(gateway: &Gateway, backend: usize, n: usize) -> (Vec<String>, Vec<String>) {
    let (mut mine, mut others) = (Vec::new(), Vec::new());
    for i in 0.. {
        if mine.len() >= n && others.len() >= n {
            break;
        }
        let m = format!("iso-m{i}");
        if gateway.ring().owner(&m) == backend {
            if mine.len() < n {
                mine.push(m);
            }
        } else if others.len() < n {
            others.push(m);
        }
    }
    (mine, others)
}

/// Files three rounds of reports for every machine through the gateway.
fn warm(client: &mut Client, machines: &[String]) {
    let reports: Vec<Request> =
        (1..=3).flat_map(|t| machines.iter().map(move |m| report(m, f64::from(t)))).collect();
    for resp in exchange(client, &reports) {
        assert!(matches!(resp, Response::Ack(ref a) if a.accepted), "warm-up report: {resp:?}");
    }
}

#[test]
fn a_slow_backend_does_not_delay_machines_its_peer_owns() {
    let real = spawn_backend();
    let slow = spawn_slow_backend(Duration::from_millis(500));
    let (gateway, gw) = spawn_gateway(
        GatewayConfig {
            backends: vec![real.to_string(), slow.to_string()],
            ..GatewayConfig::default()
        },
        1,
    );
    let (fast_machines, slow_machines) = split_by_owner(gateway, 0, 16);
    let mut client = Client::connect_binary(gw).expect("gateway connect");
    warm(&mut client, &[fast_machines.clone(), slow_machines.clone()].concat());

    // Keep the slow lane busy: predicts for its machines, pipelined on a
    // second connection, replies left unread for now.
    let mut stalled = Client::connect_binary(gw).expect("gateway connect");
    let stalled_reqs: Vec<Request> =
        slow_machines.iter().cycle().take(64).map(|m| predict(m, 3.5)).collect();
    send_all(&mut stalled, &stalled_reqs);
    let stalled_at = Instant::now();

    // Meanwhile, pipelined windows of predicts for the real backend's
    // machines; each reply's latency is bounded by its window's.
    let mut latencies = Vec::new();
    while stalled_at.elapsed() < Duration::from_millis(300) {
        let window: Vec<Request> = fast_machines.iter().take(8).map(|m| predict(m, 3.5)).collect();
        let sent = Instant::now();
        let replies = exchange(&mut client, &window);
        let took = sent.elapsed();
        for r in replies {
            assert!(matches!(r, Response::Prediction(_)), "fast machine answered {r:?}");
            latencies.push(took);
        }
    }
    latencies.sort();
    let p99 = latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)];
    assert!(
        p99 < Duration::from_millis(50),
        "p99 {p99:?} over {} fast-machine predicts while the slow lane stalled",
        latencies.len()
    );

    for r in recv_all(&mut stalled, stalled_reqs.len()) {
        assert!(matches!(r, Response::Prediction(_)), "slow machine answered {r:?}");
    }
    assert!(
        stalled_at.elapsed() >= Duration::from_millis(400),
        "the slow lane must still have been stalled while the fast machines were measured"
    );
}

#[test]
fn a_silent_backend_fails_over_after_one_io_timeout() {
    let io_timeout = Duration::from_millis(300);
    let silent = spawn_silent_backend();
    let real = spawn_backend();
    let (gateway, gw) = spawn_gateway(
        GatewayConfig {
            backends: vec![silent.to_string(), real.to_string()],
            connect_timeout: Duration::from_millis(500),
            io_timeout: Some(io_timeout),
            ..GatewayConfig::default()
        },
        1,
    );
    let (silent_machines, real_machines) = split_by_owner(gateway, 0, 16);
    let mut client = Client::connect_binary(gw).expect("gateway connect");
    // Every broadcast to the silent backend times out; the real one acks.
    warm(&mut client, &[silent_machines.clone(), real_machines].concat());
    let failovers_before = gateway.gw_stats().failovers;

    let mut reqs = Vec::new();
    for m in &silent_machines {
        reqs.push(predict(m, 3.5));
        reqs.push(Request::Rank(Rank {
            machine: m.clone(),
            now: 3.5,
            workflow: hetsched::example::workflow(),
            front_end: 0,
            j_words: 500,
            limit: 2,
        }));
        reqs.push(Request::DecideBatch(DecideBatch {
            machine: m.clone(),
            now: 3.5,
            tasks: vec![task(), task()],
            j_words: 500,
        }));
    }
    let started = Instant::now();
    let replies = exchange(&mut client, &reqs);
    let took = started.elapsed();
    for (req, resp) in reqs.iter().zip(&replies) {
        let want = match req {
            Request::Predict(_) => "prediction",
            Request::Rank(_) => "ranked",
            _ => "decisions",
        };
        assert_eq!(resp.kind(), want, "{} answered {resp:?}", req.kind());
    }
    assert!(took >= io_timeout, "answers can only come after the timeout: {took:?}");
    // A whole-batch fallback can meet the silent owner twice; a worker
    // that waited out one timeout per request would take 48 of them.
    assert!(took < io_timeout * 4, "one timeout must fail the whole lane at once: {took:?}");
    let stats = gateway.gw_stats();
    let failed_over = stats.failovers - failovers_before;
    assert!(failed_over >= 2 * 16, "each silent-owned predict and rank fails over: {stats:?}");
    assert!(
        stats.backends[0].failovers >= failed_over,
        "the silent backend failed them: {stats:?}"
    );
}
