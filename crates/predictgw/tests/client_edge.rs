//! The client edge, where the gateway's codecs live. A JSON client's
//! malformed, non-UTF-8 and over-long lines are answered with the same
//! error lines predictd sends, byte for byte, and the connection goes
//! on to answer `stats` and `shutdown`. A client that opens with the
//! binary magic byte but a wrong preamble gets one `error` frame and is
//! closed.

mod common;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use common::{spawn_backend, spawn_gateway};
use predictd::proto::Response;
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
