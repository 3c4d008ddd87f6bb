//! End-to-end coverage for the evented engine and the binary codec
//! negotiation: a mixed JSON + binary client fleet on one server,
//! malformed-preamble rejection, oversized- and truncated-frame
//! handling, oversized and non-UTF-8 JSON lines, a silent half-sent
//! line that must not stall other clients, and a slow reader that
//! forces the partial-write path.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use contention_model::dataset::DataSet;
use contention_model::predict::ParagonTask;
use contention_model::units::secs;
use predictd::binproto;
use predictd::proto::{DecideBatch, LoadReport, Predict, Request, Response};
use predictd::{Client, EventedServer, ServerConfig, Service, ServiceConfig};

fn task() -> ParagonTask {
    ParagonTask {
        dcomp_sun: secs(30.0),
        t_paragon: secs(6.0),
        to_backend: vec![DataSet::burst(10, 2000)],
        from_backend: vec![DataSet::single(1000)],
    }
}

/// Boots an evented server on a loopback port. The service and config
/// are leaked — each test owns one short-lived process anyway.
fn spawn_evented(cfg: ServerConfig, workers: usize) -> (SocketAddr, thread::JoinHandle<()>) {
    let service: &'static Service =
        Box::leak(Box::new(Service::with_default_predictor(ServiceConfig::default())));
    let cfg: &'static ServerConfig = Box::leak(Box::new(cfg));
    let server =
        EventedServer::bind("127.0.0.1:0".parse().expect("loopback"), workers).expect("bind");
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run(service, cfg).expect("evented run"));
    (addr, handle)
}

fn report(machine: &str, at: f64) -> Request {
    Request::LoadReport(LoadReport { machine: machine.to_string(), at, load: 2.0, comm_frac: 0.5 })
}

fn predict(machine: &str, now: f64) -> Request {
    Request::Predict(Predict { machine: machine.to_string(), now, task: task(), j_words: 500 })
}

/// JSON and binary clients share one evented server concurrently; both
/// codecs observe the same forecasts and the same decisions.
#[test]
fn mixed_fleet_agrees_across_codecs() {
    let (addr, handle) = spawn_evented(ServerConfig::default(), 2);

    // Concurrent warm-up traffic from both codecs on separate machines.
    thread::scope(|scope| {
        for (i, binary) in [(0usize, false), (1, true), (2, false), (3, true)] {
            scope.spawn(move || {
                let mut client = if binary {
                    Client::connect_binary(addr).expect("binary connect")
                } else {
                    Client::connect(addr).expect("json connect")
                };
                let machine = format!("fleet{i}");
                for t in 0..4 {
                    let resp = client.request(&report(&machine, f64::from(t))).expect("ack");
                    let Response::Ack(a) = resp else { panic!("want ack, got {resp:?}") };
                    assert!(a.accepted, "fresh report must be accepted");
                }
                let resp = client.request(&predict(&machine, 3.5)).expect("prediction");
                let Response::Prediction(p) = resp else { panic!("want prediction: {resp:?}") };
                assert!(!p.stale);
                assert_eq!(p.p, 2, "constant load of 2 forecasts p = 2");
            });
        }
    });

    // Same machine, both codecs: identical answers (cache_hit may differ:
    // it depends on request order in the machine's one shard cache, as
    // the first query fills it; the decision may not).
    let mut json = Client::connect(addr).expect("json connect");
    let mut bin = Client::connect_binary(addr).expect("binary connect");
    for t in 0..4 {
        json.request(&report("shared", f64::from(t))).expect("ack");
    }
    let a = json.request(&predict("shared", 3.5)).expect("json prediction");
    let b = bin.request(&predict("shared", 3.5)).expect("binary prediction");
    let (Response::Prediction(a), Response::Prediction(b)) = (a, b) else {
        panic!("both codecs must answer predictions")
    };
    assert_eq!(a.p, b.p);
    assert_eq!(a.stale, b.stale);
    assert_eq!(a.decision, b.decision, "codec choice must not change the placement");

    let resp = json.request(&Request::Stats).expect("stats");
    let Response::Stats(st) = resp else { panic!("want stats: {resp:?}") };
    assert!(st.requests.predict >= 6, "{:?}", st.requests);

    let resp = bin.request(&Request::Shutdown).expect("shutdown");
    assert!(matches!(resp, Response::Ok), "{resp:?}");
    handle.join().expect("server exits after a binary shutdown");
}

/// A magic first byte with a wrong preamble tail gets one binary error
/// frame and a closed connection — not a JSON parse attempt.
#[test]
fn malformed_preamble_is_rejected_with_an_error_frame() {
    let (addr, handle) = spawn_evented(ServerConfig::default(), 1);
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(&[binproto::MAGIC, b'X', b'Y', 9]).expect("bad preamble");
    conn.flush().expect("flush");

    let mut len4 = [0u8; 4];
    conn.read_exact(&mut len4).expect("error frame length");
    let mut body = vec![0u8; u32::from_le_bytes(len4) as usize];
    conn.read_exact(&mut body).expect("error frame body");
    let resp = binproto::decode_response(&body).expect("decodable error frame");
    let Response::Error(e) = resp else { panic!("want error, got {resp:?}") };
    assert!(e.message.contains("preamble"), "{}", e.message);
    // The server closes after a bad handshake.
    let n = conn.read(&mut [0u8; 16]).expect("read eof");
    assert_eq!(n, 0, "connection must be closed");

    let mut client = Client::connect_binary(addr).expect("fresh connect");
    client.request(&Request::Shutdown).expect("shutdown");
    handle.join().expect("server exits");
}

/// A frame above `--max-frame-bytes` gets a clean error, is skipped in
/// full, and the connection keeps working afterwards.
#[test]
fn oversized_frame_is_skipped_and_the_connection_survives() {
    let (addr, handle) =
        spawn_evented(ServerConfig { max_frame_bytes: 256, ..ServerConfig::default() }, 1);
    let mut client = Client::connect_binary(addr).expect("connect");

    // ~40 tasks encode far past 256 bytes.
    let big = Request::DecideBatch(DecideBatch {
        machine: "big".to_string(),
        now: 1.0,
        tasks: (0..40).map(|_| task()).collect(),
        j_words: 500,
    });
    let mut frame = Vec::new();
    assert!(binproto::encode_request(&big, &mut frame));
    assert!(frame.len() > 4 + 256, "fixture must exceed the cap");
    client.send_frame(&frame).expect("send oversized");
    client.flush().expect("flush");
    let mut body = Vec::new();
    client.recv_frame_into(&mut body).expect("error frame");
    let resp = binproto::decode_response(&body).expect("decodable");
    let Response::Error(e) = resp else { panic!("want error, got {resp:?}") };
    assert!(e.message.contains("256"), "error must name the cap: {}", e.message);

    // The same connection answers a small request right after.
    let resp = client.request(&report("ok", 1.0)).expect("follow-up");
    assert!(matches!(resp, Response::Ack(_)), "{resp:?}");

    client.request(&Request::Shutdown).expect("shutdown");
    handle.join().expect("server exits");
}

/// A client that dies mid-frame neither wedges nor poisons the server.
#[test]
fn truncated_frame_then_disconnect_leaves_the_server_healthy() {
    let (addr, handle) = spawn_evented(ServerConfig::default(), 1);
    {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.write_all(&binproto::PREAMBLE).expect("preamble");
        // Length prefix promises 100 bytes, only 10 arrive.
        conn.write_all(&100u32.to_le_bytes()).expect("length");
        conn.write_all(&[binproto::REQ_STATS; 10]).expect("partial body");
        conn.flush().expect("flush");
    } // dropped: connection closes mid-frame

    let mut client = Client::connect_binary(addr).expect("fresh connect");
    let resp = client.request(&Request::Stats).expect("stats after truncation");
    assert!(matches!(resp, Response::Stats(_)), "{resp:?}");
    client.request(&Request::Shutdown).expect("shutdown");
    handle.join().expect("server exits");
}

/// The JSON path answers an oversized line and a non-UTF-8 line with an
/// error each and keeps the connection.
#[test]
fn evented_json_line_cap_answers_and_survives() {
    let (addr, handle) =
        spawn_evented(ServerConfig { max_line_bytes: 1024, ..ServerConfig::default() }, 1);
    let mut conn = TcpStream::connect(addr).expect("connect");
    let big = vec![b'x'; 8 * 1024];
    conn.write_all(&big).expect("oversized line");
    conn.write_all(b"\n").expect("newline");
    conn.flush().expect("flush");

    let mut reader = std::io::BufReader::new(conn.try_clone().expect("clone"));
    let mut reply = String::new();
    std::io::BufRead::read_line(&mut reader, &mut reply).expect("error reply");
    assert!(reply.contains("\"kind\":\"error\""), "{reply:?}");
    assert!(reply.contains("1024"), "error should name the cap: {reply:?}");

    conn.write_all(b"{\"kind\":\"stats\"}\n").expect("follow-up");
    conn.flush().expect("flush");
    reply.clear();
    std::io::BufRead::read_line(&mut reader, &mut reply).expect("stats reply");
    assert!(reply.contains("\"kind\":\"stats\""), "{reply:?}");

    // Non-UTF-8 bytes also get an error, not a disconnect.
    conn.write_all(&[0xff, 0xfe, b'\n']).expect("non-UTF-8 line");
    conn.flush().expect("flush");
    reply.clear();
    std::io::BufRead::read_line(&mut reader, &mut reply).expect("utf-8 error reply");
    assert!(reply.contains("\"kind\":\"error\""), "{reply:?}");
    assert!(reply.contains("UTF-8"), "{reply:?}");

    conn.write_all(b"{\"kind\":\"stats\"}\n").expect("second follow-up");
    conn.flush().expect("flush");
    reply.clear();
    std::io::BufRead::read_line(&mut reader, &mut reply).expect("second stats reply");
    assert!(reply.contains("\"kind\":\"stats\""), "{reply:?}");

    conn.write_all(b"{\"kind\":\"shutdown\"}\n").expect("shutdown");
    conn.flush().expect("flush");
    handle.join().expect("server exits");
}

/// Pipelines many large responses at a reader with a shrunken receive
/// buffer: the server's writes go partial, and every byte must still
/// arrive in order. Exercises the evented engine's EPOLLOUT path.
#[test]
fn slow_reader_gets_every_byte_from_the_evented_engine() {
    let (addr, handle) = spawn_evented(ServerConfig::default(), 1);
    slow_reader_drives(addr, 60);
    let mut client = Client::connect_binary(addr).expect("shutdown connect");
    client.request(&Request::Shutdown).expect("shutdown");
    handle.join().expect("server exits");
}

/// On a single event loop, a client that sends half a line and goes
/// silent holds no thread: another client's `stats` is answered at once.
#[test]
fn silent_half_line_does_not_delay_other_clients() {
    let (addr, handle) = spawn_evented(ServerConfig::default(), 1);
    let mut stuck = TcpStream::connect(addr).expect("stuck client connects");
    // Read timeouts turn a stalled server into a failure, not a hang.
    stuck.set_read_timeout(Some(Duration::from_secs(2))).expect("read timeout");
    // One write carries a whole request and half of the next, so the
    // reply to the first proves the loop has read the half line too.
    stuck.write_all(b"{\"kind\":\"stats\"}\n{\"kind\":\"sta").expect("line and a half");
    let mut first = String::new();
    std::io::BufRead::read_line(&mut std::io::BufReader::new(&stuck), &mut first)
        .expect("reply to the whole line");
    assert!(first.contains("\"kind\":\"stats\""), "{first:?}");

    let started = Instant::now();
    let mut conn = TcpStream::connect(addr).expect("well-behaved client");
    conn.set_read_timeout(Some(Duration::from_secs(2))).expect("read timeout");
    conn.write_all(b"{\"kind\":\"stats\"}\n").expect("stats request");
    let mut reader = std::io::BufReader::new(conn.try_clone().expect("clone"));
    let mut reply = String::new();
    std::io::BufRead::read_line(&mut reader, &mut reply).expect("stats despite the stuck peer");
    assert!(reply.contains("\"kind\":\"stats\""), "{reply:?}");
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "a silent peer must not delay other clients: {:?}",
        started.elapsed()
    );

    conn.write_all(b"{\"kind\":\"shutdown\"}\n").expect("shutdown");
    handle.join().expect("server exits with the stuck peer still connected");
    drop(stuck);
}

/// Sends `n` pipelined `decide_batch` requests (64 tasks each, so every
/// response is kilobytes) without reading, naps while the server's
/// write path hits the shrunken receive window, then drains and checks
/// every response.
fn slow_reader_drives(addr: SocketAddr, n: usize) {
    let stream = TcpStream::connect(addr).expect("connect");
    predictd::poll::set_recv_buf(&stream, 4096).expect("shrink recv buffer");
    let mut writer = stream.try_clone().expect("clone");
    writer.write_all(&binproto::PREAMBLE).expect("preamble");

    let req = Request::DecideBatch(DecideBatch {
        machine: "slow".to_string(),
        now: 1.0,
        tasks: (0..64).map(|_| task()).collect(),
        j_words: 500,
    });
    let mut frame = Vec::new();
    assert!(binproto::encode_request(&req, &mut frame));
    for _ in 0..n {
        writer.write_all(&frame).expect("pipelined frame");
    }
    writer.flush().expect("flush");

    // Let the server run into the full socket buffer before we drain.
    thread::sleep(Duration::from_millis(300));

    let mut reader = std::io::BufReader::new(stream);
    let mut body = Vec::new();
    for i in 0..n {
        let mut len4 = [0u8; 4];
        reader.read_exact(&mut len4).unwrap_or_else(|e| panic!("length of reply {i}: {e}"));
        body.resize(u32::from_le_bytes(len4) as usize, 0);
        reader.read_exact(&mut body).unwrap_or_else(|e| panic!("body of reply {i}: {e}"));
        let resp = binproto::decode_response(&body).expect("decodable reply");
        let Response::Decisions(d) = resp else {
            panic!("reply {i}: want decisions, got {resp:?}")
        };
        assert_eq!(d.decisions.len(), 64, "reply {i} must carry every decision");
    }
}
