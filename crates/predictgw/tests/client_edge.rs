//! The client edge, where the gateway's codecs live. A JSON client's
//! malformed, non-UTF-8 and over-long lines, and a binary client's
//! empty and oversized frames, are answered with the same error lines
//! and frames predictd sends, byte for byte, and the connection goes on
//! to answer `stats` and `shutdown`. A client that opens with the binary
//! magic byte but a wrong preamble gets one `error` frame and is closed.

mod common;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use common::{spawn_backend, spawn_gateway};
use predictd::proto::{Request, Response};
use predictd::{binproto, ServerConfig};
use predictgw::GatewayConfig;

/// Writes `bytes` and reads `n` reply lines, newlines included.
fn lines_for(conn: &mut BufReader<TcpStream>, bytes: &[u8], n: usize) -> Vec<String> {
    conn.get_mut().write_all(bytes).expect("send");
    (0..n)
        .map(|_| {
            let mut line = String::new();
            conn.read_line(&mut line).expect("reply line");
            line
        })
        .collect()
}

/// Drives one JSON connection through every local error, then `stats`
/// and `shutdown`; returns the `stats` reply line.
fn json_edge(addr: SocketAddr) -> String {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let mut conn = BufReader::new(stream);
    let max = ServerConfig::default().max_line_bytes;

    let replies = lines_for(&mut conn, b"{\"kind\":\"predict\"\n\xff\xfe\n", 2);
    assert_eq!(
        replies,
        [
            "{\"kind\":\"error\",\"message\":\"bad request: serde error: bad object at byte 17\"}\n",
            "{\"kind\":\"error\",\"message\":\"request line is not valid UTF-8\"}\n",
        ]
    );

    let mut long = vec![b' '; max + 1];
    long.extend_from_slice(b"\n{\"kind\":\"stats\"}\n");
    let replies = lines_for(&mut conn, &long, 2);
    let exceeds =
        format!("{{\"kind\":\"error\",\"message\":\"request line exceeds {max} bytes\"}}\n");
    assert_eq!(replies[0], exceeds);
    let stats = replies[1].clone();

    let replies = lines_for(&mut conn, b"{\"kind\":\"shutdown\"}\n", 1);
    assert_eq!(replies, ["{\"kind\":\"ok\"}\n"]);
    let mut rest = Vec::new();
    conn.read_to_end(&mut rest).expect("the connection closes after shutdown");
    assert!(rest.is_empty(), "{rest:?}");
    stats
}

#[test]
fn a_json_client_gets_each_edge_reply_byte_for_byte_as_from_predictd() {
    let backend = spawn_backend();
    let (gateway, gw) = spawn_gateway(
        GatewayConfig { backends: vec![backend.to_string()], ..GatewayConfig::default() },
        1,
    );

    let line = json_edge(gw);
    let Ok(Response::GwStats(mut got)) = serde_json::from_str::<Response>(line.trim_end()) else {
        panic!("want gw_stats, got {line:?}");
    };
    let mut want = gateway.gw_stats();
    (got.uptime_secs, want.uptime_secs) = (0.0, 0.0);
    assert_eq!(got, want, "nothing of this was routed");

    let line = json_edge(backend);
    assert!(
        matches!(serde_json::from_str::<Response>(line.trim_end()), Ok(Response::Stats(_))),
        "{line:?}"
    );
}

/// Reads one reply frame, length prefix included.
fn read_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut frame = vec![0u8; 4];
    stream.read_exact(&mut frame).expect("reply length");
    let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]);
    frame.resize(4 + usize::try_from(len).expect("length fits"), 0);
    stream.read_exact(&mut frame[4..]).expect("reply body");
    frame
}

/// An `error` reply frame.
fn error_frame(message: &str) -> Vec<u8> {
    let mut frame = Vec::new();
    assert!(binproto::encode_response(&Response::error(message), &mut frame));
    frame
}

/// Drives one binary connection through an empty frame and an oversized
/// frame sent in several writes, then `stats` and `shutdown`; returns
/// the `stats` reply.
fn binary_edge(addr: SocketAddr) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let max = ServerConfig::default().max_frame_bytes;
    stream.write_all(&binproto::PREAMBLE).expect("preamble");

    stream.write_all(&[0, 0, 0, 0]).expect("empty frame");
    assert_eq!(read_frame(&mut stream), error_frame("bad frame: empty frame"));

    let len = max + 1;
    stream.write_all(&u32::try_from(len).expect("fits").to_le_bytes()).expect("length");
    for chunk in vec![0x5a; len].chunks(len / 3) {
        stream.write_all(chunk).expect("oversized body");
    }
    assert_eq!(read_frame(&mut stream), error_frame(&format!("frame exceeds {max} bytes")));

    let mut frame = Vec::new();
    assert!(binproto::encode_request(&Request::Stats, &mut frame));
    stream.write_all(&frame).expect("stats");
    let stats = read_frame(&mut stream);
    let stats = binproto::decode_response(&stats[4..]).expect("stats reply");

    frame.clear();
    assert!(binproto::encode_request(&Request::Shutdown, &mut frame));
    stream.write_all(&frame).expect("shutdown");
    let mut ok = Vec::new();
    assert!(binproto::encode_response(&Response::Ok, &mut ok));
    assert_eq!(read_frame(&mut stream), ok);
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("the connection closes after shutdown");
    assert!(rest.is_empty(), "{rest:?}");
    stats
}

#[test]
fn a_binary_client_gets_each_edge_reply_byte_for_byte_as_from_predictd() {
    let backend = spawn_backend();
    let (gateway, gw) = spawn_gateway(
        GatewayConfig { backends: vec![backend.to_string()], ..GatewayConfig::default() },
        1,
    );

    let Response::GwStats(mut got) = binary_edge(gw) else { panic!("want gw_stats") };
    let mut want = gateway.gw_stats();
    (got.uptime_secs, want.uptime_secs) = (0.0, 0.0);
    assert_eq!(got, want, "nothing of this was routed");

    assert!(matches!(binary_edge(backend), Response::Stats(_)));
}

#[test]
fn a_binary_client_with_a_bad_preamble_gets_an_error_frame_and_is_closed() {
    let (_, gw) = spawn_gateway(
        GatewayConfig { backends: vec![spawn_backend().to_string()], ..GatewayConfig::default() },
        1,
    );
    let mut stream = TcpStream::connect(gw).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    stream.write_all(&[binproto::MAGIC, b'P', b'D', 0x02]).expect("preamble");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("one reply, then the gateway closes");
    let mut want = Vec::new();
    assert!(binproto::encode_response(
        &Response::error("bad preamble: expected BD 50 44 01"),
        &mut want
    ));
    assert_eq!(reply, want);
}
