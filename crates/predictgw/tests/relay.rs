//! The binary relay's edges. A `predict`/`rank`/`decide_batch` frame the
//! gateway cannot vouch for is answered `bad frame` locally, exactly as
//! a decoded one would be, and never reaches a backend; a `load_report`
//! frame it cannot vouch for reaches neither a backend nor the journal,
//! and one it can is journaled byte for byte. A relayed reply the
//! gateway cannot vouch for breaks its lane, and the query fails over,
//! whichever codec the client speaks;
//! a fan-out chunk's reply that fails the check does the same, and the
//! batch falls back to whole routing. A reply it can vouch for reaches
//! the client byte for byte; chunk replies are merged as frames for a
//! JSON client too, and decoded only on the way out.

mod common;

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use common::{exchange, predict, report, spawn_backend, spawn_gateway, task};
use predictd::proto::{DecideBatch, Request, Response};
use predictd::{binproto, Client, Service, ServiceConfig};
use predictgw::{Gateway, GatewayConfig};

/// Reply frames a fake backend sent, whole, in order.
type Sent = Arc<Mutex<Vec<Vec<u8>>>>;

/// A backend that answers like predictd — from a real [`Service`] — but
/// answers a `predict` or `decide_batch` for a machine named `poison…`
/// with a frame whose `stale` byte is 2, which no decoder accepts. It
/// records every reply frame it sends, and says on `closed` when a
/// connection ends.
fn spawn_poisoning_backend(sent: Sent, closed: Sender<()>) -> SocketAddr {
    let service: &'static Service =
        Box::leak(Box::new(Service::with_default_predictor(ServiceConfig::default())));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake backend");
    let addr = listener.local_addr().expect("addr");
    thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            let (sent, closed) = (Arc::clone(&sent), closed.clone());
            thread::spawn(move || {
                serve(stream, service, &sent);
                let _ = closed.send(());
            });
        }
    });
    addr
}

fn serve(stream: TcpStream, service: &Service, sent: &Sent) {
    let Ok(mut writer) = stream.try_clone() else { return };
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
        let mut body = vec![0u8; u32::from_le_bytes(len4) as usize];
        if reader.read_exact(&mut body).is_err() {
            return;
        }
        let req = binproto::decode_request(&body).expect("the gateway sends valid frames");
        let (resp, _) = service.handle(&req);
        let mut frame = Vec::new();
        assert!(binproto::encode_response(&resp, &mut frame));
        let machine = match (&req, &resp) {
            (Request::Predict(q), Response::Prediction(_)) => Some(&q.machine),
            (Request::DecideBatch(q), Response::Decisions(_)) => Some(&q.machine),
            _ => None,
        };
        if let Some(machine) = machine.filter(|m| m.starts_with("poison")) {
            // Length prefix, tag, machine string, p: then `stale`.
            frame[4 + 1 + 4 + machine.len() + 8] = 2;
            assert!(!binproto::check_response(&frame[4..]), "the poison must fail the check");
        }
        sent.lock().expect("sent frames").push(frame.clone());
        if writer.write_all(&frame).is_err() {
            return;
        }
    }
}

/// The first machine name with `prefix` that backend `owner` owns.
fn owned_by(gateway: &Gateway, owner: usize, prefix: &str) -> String {
    (0..)
        .map(|i| format!("{prefix}{i}"))
        .find(|m| gateway.ring().owner(m) == owner)
        .expect("some machine lands on every backend")
}

/// Sends one raw frame body on a binary connection and reads the reply
/// frame's body.
fn raw_exchange(client: &mut Client, body: &[u8]) -> Vec<u8> {
    let mut frame = u32::try_from(body.len()).expect("small frame").to_le_bytes().to_vec();
    frame.extend_from_slice(body);
    client.send_frame(&frame).expect("send");
    client.flush().expect("flush");
    let mut reply = Vec::new();
    client.recv_frame_into(&mut reply).expect("reply");
    reply
}

fn total_backend_requests(gateway: &Gateway) -> u64 {
    gateway.gw_stats().backends.iter().map(|b| b.requests).sum()
}

#[test]
fn a_predict_with_a_corrupt_body_is_answered_locally() {
    let (gateway, gw) = spawn_gateway(
        GatewayConfig { backends: vec![spawn_backend().to_string()], ..GatewayConfig::default() },
        1,
    );
    let mut client = Client::connect_binary(gw).expect("gateway connect");
    let mut good = Vec::new();
    assert!(binproto::encode_request(&predict("corrupt-m0", 1.0), &mut good));
    let good = good.split_off(4);
    let machine_end = 1 + 4 + "corrupt-m0".len();

    // Each keeps the tag and a valid machine; the body is broken behind it.
    let mut negative = good.clone();
    negative[machine_end + 8..machine_end + 16].copy_from_slice(&(-1.0f64).to_le_bytes());
    let mut trailing = good.clone();
    trailing.push(0);
    let truncated = good[..good.len() - 1].to_vec();
    let mut rank = vec![binproto::REQ_RANK];
    rank.extend_from_slice(&good[1..machine_end + 8]);
    rank.extend_from_slice(&u32::MAX.to_le_bytes());

    let before = (total_backend_requests(gateway), gateway.gw_stats().hits);
    for body in [negative, trailing, truncated, rank] {
        assert_eq!(binproto::request_machine(&body), Some("corrupt-m0"));
        let e = binproto::decode_request(&body).expect_err("the body is corrupt");
        let reply = raw_exchange(&mut client, &body);
        assert_eq!(
            binproto::decode_response(&reply).expect("decodable reply"),
            Response::error(format!("bad frame: {e}"))
        );
    }
    let after = (total_backend_requests(gateway), gateway.gw_stats().hits);
    assert_eq!(after, before, "a corrupt frame must not be routed");
}

#[test]
fn a_relayed_reply_reaches_the_client_byte_for_byte() {
    let sent = Sent::default();
    let (closed, _) = mpsc::channel();
    let fake = spawn_poisoning_backend(Arc::clone(&sent), closed);
    let (gateway, gw) = spawn_gateway(
        GatewayConfig { backends: vec![fake.to_string()], ..GatewayConfig::default() },
        1,
    );
    let machine = owned_by(gateway, 0, "relay-m");
    let mut client = Client::connect_binary(gw).expect("gateway connect");
    let acks = exchange(&mut client, &[report(&machine, 1.0), report(&machine, 2.0)]);
    assert!(acks.iter().all(|a| matches!(a, Response::Ack(_))), "{acks:?}");

    for req in [
        predict(&machine, 2.5),
        Request::Rank(predictd::proto::Rank {
            machine: machine.clone(),
            now: 2.5,
            workflow: hetsched::example::workflow(),
            front_end: 0,
            j_words: 500,
            limit: 2,
        }),
    ] {
        let mut frame = Vec::new();
        assert!(binproto::encode_request(&req, &mut frame));
        let reply = raw_exchange(&mut client, &frame[4..]);
        let backend_sent = sent.lock().expect("sent frames").last().cloned().expect("a reply");
        assert_eq!(reply, backend_sent[4..], "{} reply changed on the way", req.kind());
    }
}

#[test]
fn a_reply_that_fails_the_check_breaks_the_lane_and_fails_over() {
    let sent = Sent::default();
    let (closed_tx, closed) = mpsc::channel();
    let fake = spawn_poisoning_backend(sent, closed_tx);
    let real = spawn_backend();
    let (gateway, gw) = spawn_gateway(
        GatewayConfig {
            backends: vec![fake.to_string(), real.to_string()],
            ..GatewayConfig::default()
        },
        1,
    );
    let machine = owned_by(gateway, 0, "poison-m");
    let mut client = Client::connect_binary(gw).expect("gateway connect");
    let acks = exchange(&mut client, &[report(&machine, 1.0), report(&machine, 2.0)]);
    assert!(acks.iter().all(|a| matches!(a, Response::Ack(_))), "{acks:?}");

    // A JSON client's query breaks the lane the same way: the reply is
    // vouched for as a frame whichever codec the client speaks.
    for mut client in [client, Client::connect(gw).expect("gateway connect")] {
        let before = gateway.gw_stats();
        let reply = client.request(&predict(&machine, 2.5)).expect("predict");
        let direct =
            Client::connect_binary(real).expect("backend").request(&predict(&machine, 2.5));
        match (reply, direct.expect("direct predict")) {
            (Response::Prediction(mut got), Response::Prediction(mut want)) => {
                (got.cache_hit, want.cache_hit) = (false, false);
                assert_eq!(got, want, "the survivor's answer");
            }
            other => panic!("want two predictions, got {other:?}"),
        }
        closed
            .recv_timeout(Duration::from_secs(5))
            .expect("the gateway must close the broken lane");
        let after = gateway.gw_stats();
        assert_eq!(after.failovers - before.failovers, 1, "{after:?}");
        assert_eq!(after.backends[0].failovers - before.backends[0].failovers, 1, "{after:?}");
        assert_eq!(after.backends[1].requests - before.backends[1].requests, 1, "{after:?}");
    }
}

fn batch(machine: &str, now: f64, n: usize) -> Request {
    Request::DecideBatch(DecideBatch {
        machine: machine.to_string(),
        now,
        tasks: vec![task(); n],
        j_words: 500,
    })
}

#[test]
fn a_decide_batch_with_a_corrupt_body_is_answered_locally() {
    let (gateway, gw) = spawn_gateway(
        GatewayConfig {
            backends: vec![spawn_backend().to_string(), spawn_backend().to_string()],
            ..GatewayConfig::default()
        },
        1,
    );
    let mut client = Client::connect_binary(gw).expect("gateway connect");
    let mut good = Vec::new();
    assert!(binproto::encode_request(&batch("corrupt-b0", 1.0, 8), &mut good));
    let good = good.split_off(4);
    let count_at = 1 + 4 + "corrupt-b0".len() + 8;

    // Each keeps the tag and a valid machine; the body is broken behind it.
    let mut negative = good.clone();
    negative[count_at + 4..count_at + 12].copy_from_slice(&(-1.0f64).to_le_bytes());
    let mut trailing = good.clone();
    trailing.push(0);
    let truncated = good[..good.len() - 1].to_vec();
    let mut hostile_count = good.clone();
    hostile_count[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let mut short_count = good.clone();
    short_count[count_at..count_at + 4].copy_from_slice(&7u32.to_le_bytes());

    let before = (total_backend_requests(gateway), gateway.gw_stats().hits);
    for body in [negative, trailing, truncated, hostile_count, short_count] {
        assert_eq!(binproto::request_machine(&body), Some("corrupt-b0"));
        let e = binproto::decode_request(&body).expect_err("the body is corrupt");
        let reply = raw_exchange(&mut client, &body);
        assert_eq!(
            binproto::decode_response(&reply).expect("decodable reply"),
            Response::error(format!("bad frame: {e}"))
        );
    }
    let after = (total_backend_requests(gateway), gateway.gw_stats().hits);
    assert_eq!(after, before, "a corrupt batch must not be routed");
}

#[test]
fn a_json_clients_batch_fans_out_and_its_merged_reply_is_decoded_once() {
    let (b0, b1) = (spawn_backend(), spawn_backend());
    let (gateway, gw) = spawn_gateway(
        GatewayConfig {
            backends: vec![b0.to_string(), b1.to_string()],
            ..GatewayConfig::default()
        },
        1,
    );
    let mut client = Client::connect(gw).expect("gateway connect");
    let acks = [report("json-b0", 1.0), report("json-b0", 2.0)].map(|r| client.request(&r));
    assert!(acks.iter().all(|a| matches!(a, Ok(Response::Ack(_)))), "{acks:?}");
    let before = gateway.gw_stats();

    let reply = client.request(&batch("json-b0", 2.5, 8)).expect("decide_batch");
    let direct = Client::connect_binary(b0).expect("backend").request(&batch("json-b0", 2.5, 8));
    match (reply, direct.expect("direct decide_batch")) {
        (Response::Decisions(mut got), Response::Decisions(mut want)) => {
            (got.cache_hit, want.cache_hit) = (false, false);
            assert_eq!(got, want, "the merged answer is the whole answer");
        }
        other => panic!("want two decisions, got {other:?}"),
    }
    // One chunk per backend, merged: no fallback to whole routing.
    let after = gateway.gw_stats();
    assert_eq!(after.failovers, before.failovers, "{after:?}");
    for (b, a) in before.backends.iter().zip(&after.backends) {
        assert_eq!(a.requests - b.requests, 1, "{after:?}");
    }
}

#[test]
fn a_chunk_reply_that_fails_the_check_breaks_the_lane_and_the_batch_goes_whole() {
    let sent = Sent::default();
    let (closed_tx, closed) = mpsc::channel();
    let fake = spawn_poisoning_backend(sent, closed_tx);
    let real = spawn_backend();
    let (gateway, gw) = spawn_gateway(
        GatewayConfig {
            backends: vec![fake.to_string(), real.to_string()],
            ..GatewayConfig::default()
        },
        1,
    );
    // Owned by the real backend: its chunk goes there, the second chunk
    // to the poisoning one, and the whole batch back to the owner.
    let machine = owned_by(gateway, 1, "poison-b");
    let mut client = Client::connect_binary(gw).expect("gateway connect");
    let acks = exchange(&mut client, &[report(&machine, 1.0), report(&machine, 2.0)]);
    assert!(acks.iter().all(|a| matches!(a, Response::Ack(_))), "{acks:?}");
    let before = gateway.gw_stats();

    let reply = client.request(&batch(&machine, 2.5, 8)).expect("decide_batch");
    let direct = Client::connect_binary(real).expect("backend").request(&batch(&machine, 2.5, 8));
    match (reply, direct.expect("direct decide_batch")) {
        (Response::Decisions(mut got), Response::Decisions(mut want)) => {
            (got.cache_hit, want.cache_hit) = (false, false);
            assert_eq!(got, want, "the owner's whole answer");
        }
        other => panic!("want two decisions, got {other:?}"),
    }
    closed.recv_timeout(Duration::from_secs(5)).expect("the gateway must close the broken lane");
    let after = gateway.gw_stats();
    assert_eq!(after.failovers - before.failovers, 1, "{after:?}");
    assert_eq!(after.backends[0].failovers - before.backends[0].failovers, 1, "{after:?}");
    assert_eq!(after.backends[0].requests, before.backends[0].requests, "{after:?}");
    assert_eq!(
        after.backends[1].requests - before.backends[1].requests,
        2,
        "the owner's chunk, then the whole batch: {after:?}"
    );
}

#[test]
fn a_report_with_a_corrupt_body_is_answered_locally_and_journals_nothing() {
    let journal =
        std::env::temp_dir().join(format!("predictgw-relay-corrupt-{}.j", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let (gateway, gw) = spawn_gateway(
        GatewayConfig {
            backends: vec![spawn_backend().to_string(), spawn_backend().to_string()],
            journal_path: Some(journal.clone()),
            ..GatewayConfig::default()
        },
        1,
    );
    let mut client = Client::connect_binary(gw).expect("gateway connect");
    let mut good = Vec::new();
    assert!(binproto::encode_request(&report("corrupt-r0", 1.0), &mut good));
    let good = good.split_off(4);
    let mut trailing = good.clone();
    trailing.push(0);
    let truncated = good[..good.len() - 1].to_vec();
    let mut long_name = good.clone();
    long_name[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
    let mut not_utf8 = good.clone();
    not_utf8[5] = 0xff;

    let stats = || {
        let s = gateway.gw_stats();
        (total_backend_requests(gateway), s.journal_frames, s.journal_bytes)
    };
    let before = stats();
    for body in [trailing, truncated, long_name, not_utf8] {
        let e = binproto::decode_request(&body).expect_err("the body is corrupt");
        let reply = raw_exchange(&mut client, &body);
        assert_eq!(
            binproto::decode_response(&reply).expect("decodable reply"),
            Response::error(format!("bad frame: {e}"))
        );
    }
    assert_eq!(stats(), before, "a corrupt report must reach no backend and no journal");

    // The good body is journaled as it came, and acked by a backend.
    let reply = raw_exchange(&mut client, &good);
    assert!(matches!(binproto::decode_response(&reply), Ok(Response::Ack(_))), "{reply:?}");
    let raw = std::fs::read(&journal).expect("journal");
    let record = &raw[usize::try_from(before.2).expect("small journal")..];
    assert_eq!(record[4], predictgw::journal::REC_REPORT);
    assert_eq!(&record[5..], &good[..], "the record is the client's frame body");
    let _ = std::fs::remove_file(&journal);
}
