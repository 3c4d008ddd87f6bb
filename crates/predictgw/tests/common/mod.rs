//! Fixtures shared by the gateway's integration tests: in-process
//! predictd backends and gateways on loopback ports, request builders,
//! and a pipelined binary exchange. Everything is leaked — fixtures
//! live for the whole test process.

#![allow(dead_code)]

use std::net::SocketAddr;
use std::sync::atomic::AtomicBool;
use std::thread;

use contention_model::dataset::DataSet;
use contention_model::predict::ParagonTask;
use contention_model::units::secs;
use predictd::proto::{LoadReport, Predict, Request, Response, StatsReply};
use predictd::{binproto, Client, EventedServer, ServerConfig, Service, ServiceConfig};
use predictgw::{Gateway, GatewayConfig, GatewayServer};

pub fn task() -> ParagonTask {
    ParagonTask {
        dcomp_sun: secs(30.0),
        t_paragon: secs(6.0),
        to_backend: vec![DataSet::burst(10, 2000)],
        from_backend: vec![DataSet::single(1000)],
    }
}

pub fn report(machine: &str, at: f64) -> Request {
    Request::LoadReport(LoadReport { machine: machine.to_string(), at, load: 2.0, comm_frac: 0.4 })
}

pub fn predict(machine: &str, now: f64) -> Request {
    Request::Predict(Predict { machine: machine.to_string(), now, task: task(), j_words: 500 })
}

/// Boots one evented predictd backend on a fresh loopback port.
pub fn spawn_backend() -> SocketAddr {
    let service: &'static Service =
        Box::leak(Box::new(Service::with_default_predictor(ServiceConfig::default())));
    let cfg: &'static ServerConfig = Box::leak(Box::new(ServerConfig::default()));
    let server = EventedServer::bind("127.0.0.1:0".parse().expect("loopback"), 1).expect("bind");
    let addr = server.local_addr();
    thread::spawn(move || server.run(service, cfg).expect("backend run"));
    addr
}

/// Boots an in-process gateway with `workers` event loops and no
/// health checker (backends stay presumed healthy).
pub fn spawn_gateway(cfg: GatewayConfig, workers: usize) -> (&'static Gateway, SocketAddr) {
    let gateway: &'static Gateway = Box::leak(Box::new(Gateway::new(cfg).expect("gateway")));
    let cfg: &'static ServerConfig = Box::leak(Box::new(ServerConfig::default()));
    let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let server =
        GatewayServer::bind("127.0.0.1:0".parse().expect("loopback"), workers).expect("bind");
    let addr = server.local_addr();
    thread::spawn(move || server.run(gateway, cfg, stop).expect("gateway run"));
    (gateway, addr)
}

/// Queues every request on a binary connection and flushes once.
pub fn send_all(client: &mut Client, reqs: &[Request]) {
    let mut frame = Vec::new();
    for r in reqs {
        frame.clear();
        assert!(binproto::encode_request(r, &mut frame), "request fits a frame");
        client.send_frame(&frame).expect("send");
    }
    client.flush().expect("flush");
}

/// Reads `n` replies off a binary connection, in order.
pub fn recv_all(client: &mut Client, n: usize) -> Vec<Response> {
    let mut body = Vec::new();
    (0..n)
        .map(|_| {
            client.recv_frame_into(&mut body).expect("reply");
            binproto::decode_response(&body).expect("decodable reply")
        })
        .collect()
}

/// Sends every request before reading any reply: one pipelined burst.
pub fn exchange(client: &mut Client, reqs: &[Request]) -> Vec<Response> {
    send_all(client, reqs);
    recv_all(client, reqs.len())
}

/// A backend's `stats`, asked directly.
pub fn stats_of(addr: &str) -> StatsReply {
    let mut c = Client::connect_binary(addr).expect("stats connect");
    match c.request(&Request::Stats).expect("stats") {
        Response::Stats(s) => s,
        other => panic!("want stats, got {other:?}"),
    }
}
