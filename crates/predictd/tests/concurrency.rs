//! Concurrency coverage for the event loops and the sharded service:
//! many clients hammering one daemon from parallel threads, with the
//! per-kind request counts reconciled afterwards.

use std::net::SocketAddr;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use contention_model::dataset::DataSet;
use contention_model::predict::ParagonTask;
use contention_model::units::secs;
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

fn spawn_daemon(workers: usize, shards: usize) -> (SocketAddr, thread::JoinHandle<()>) {
    let server =
        EventedServer::bind("127.0.0.1:0".parse().expect("loopback"), workers).expect("bind");
    let addr = server.local_addr();
    let handle = thread::spawn(move || {
        let service =
            Service::with_default_predictor(ServiceConfig { shards, ..ServiceConfig::default() });
        server.run(&service, &ServerConfig::default()).expect("evented run");
    });
    (addr, handle)
}

/// N client threads × M requests each against 4 event loops: every
/// request must succeed, and the server's own counters must add up to
/// exactly what was sent.
#[test]
fn many_clients_many_requests_all_succeed_and_counts_reconcile() {
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 25;
    let (addr, handle) = spawn_daemon(4, 8);

    thread::scope(|scope| {
        for c in 0..CLIENTS {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let machine = format!("m{c}");
                for r in 0..ROUNDS {
                    // One load report, then a predict and a small batch
                    // against the just-reported forecast.
                    let at = 0.1 * (r as f64);
                    let resp = client
                        .request(&Request::LoadReport(LoadReport {
                            machine: machine.clone(),
                            at,
                            load: 2.0,
                            comm_frac: 0.4,
                        }))
                        .expect("ack");
                    let Response::Ack(a) = resp else { panic!("want ack, got {resp:?}") };
                    assert!(a.accepted, "monotone per-machine reports must be accepted");

                    let resp = client
                        .request(&Request::Predict(Predict {
                            machine: machine.clone(),
                            now: at,
                            task: task(),
                            j_words: 500,
                        }))
                        .expect("prediction");
                    let Response::Prediction(p) = resp else {
                        panic!("want prediction, got {resp:?}")
                    };
                    assert!(!p.stale);

                    let resp = client
                        .request(&Request::DecideBatch(DecideBatch {
                            machine: machine.clone(),
                            now: at,
                            tasks: vec![task(), task(), task()],
                            j_words: 500,
                        }))
                        .expect("decisions");
                    let Response::Decisions(d) = resp else {
                        panic!("want decisions, got {resp:?}")
                    };
                    assert_eq!(d.decisions.len(), 3);
                    assert_eq!(d.decisions[0], p.decision, "batch must agree with single predict");
                }
            });
        }
    });

    let mut client = Client::connect(addr).expect("connect for stats");
    let resp = client.request(&Request::Stats).expect("stats");
    let Response::Stats(st) = resp else { panic!("want stats, got {resp:?}") };
    let n = (CLIENTS * ROUNDS) as u64;
    assert_eq!(st.requests.load_report, n, "every load_report must be counted exactly once");
    assert_eq!(st.requests.predict, n);
    assert_eq!(st.requests.decide_batch, n);
    assert_eq!(st.machines, CLIENTS as u64);
    assert_eq!(st.latency_us.count, 3 * n, "stats' own latency lands after the snapshot");
    let by_shard: u64 = st.shards.iter().map(|s| s.machines).sum();
    assert_eq!(by_shard, st.machines);
    let reports: u64 = st.shards.iter().map(|s| s.load_reports).sum();
    assert_eq!(reports, n, "per-shard write tallies must reconcile");
    assert!(st.uptime_secs >= 0.0);

    client.request(&Request::Shutdown).expect("ok");
    handle.join().expect("daemon exits cleanly");
}

/// Pipelined requests on one connection come back in order, one reply
/// per request, each burst answered through one buffered write.
#[test]
fn pipelined_requests_answer_in_order() {
    let (addr, handle) = spawn_daemon(2, 4);
    let mut client = Client::connect(addr).expect("connect");
    const DEPTH: usize = 64;
    for i in 0..DEPTH {
        let line = format!(
            "{{\"kind\":\"load_report\",\"machine\":\"pipe\",\"at\":{}.0,\"load\":1.0,\
             \"comm_frac\":-1.0}}",
            i
        );
        client.send_raw(&line).expect("queue");
    }
    client.flush().expect("flush burst");
    let mut reply = String::new();
    for i in 0..DEPTH {
        client.recv_raw_into(&mut reply).expect("reply");
        assert!(reply.contains("\"kind\":\"ack\""), "reply {i}: {reply}");
    }
    client.request(&Request::Shutdown).expect("ok");
    handle.join().expect("daemon exits cleanly");
}

/// Shutdown through one client stops the daemon while another client
/// still holds an idle connection open: the loops drop idle
/// connections at stop instead of waiting for their peers.
#[test]
fn shutdown_stops_the_server_with_idle_connections_open() {
    let (addr, handle) = spawn_daemon(3, 4);
    // Served once, so the loop has accepted it, then left idle.
    let mut idle = Client::connect(addr).expect("idle connection");
    let resp = idle.request(&Request::Stats).expect("stats");
    assert!(matches!(resp, Response::Stats(_)), "{resp:?}");
    let mut active = Client::connect(addr).expect("active connection");
    let resp = active.request(&Request::Shutdown).expect("ok");
    assert_eq!(resp, Response::Ok);

    let (tx, rx) = mpsc::channel();
    thread::spawn(move || tx.send(handle.join().is_ok()));
    let joined = rx
        .recv_timeout(Duration::from_secs(2))
        .expect("the server must stop within 2 s while the idle client is still open");
    assert!(joined, "the event loops must exit cleanly");
    drop(idle);
}
