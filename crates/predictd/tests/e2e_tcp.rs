//! End-to-end over real TCP: a daemon thread on a loopback port, a
//! client exercising the full request surface, and the staleness
//! policy observable on the wire.

use std::net::SocketAddr;
use std::thread;

use contention_model::dataset::DataSet;
use contention_model::mix::WorkloadMix;
use contention_model::predict::ParagonTask;
use contention_model::units::{prob, secs};
use predictd::proto::{LoadReport, Predict, Rank, Request, Response};
use predictd::{default_predictor, Client, EventedServer, ServerConfig, Service, ServiceConfig};

fn task() -> ParagonTask {
    ParagonTask {
        dcomp_sun: secs(30.0),
        t_paragon: secs(6.0),
        to_backend: vec![DataSet::burst(10, 2000)],
        from_backend: vec![DataSet::single(1000)],
    }
}

/// Two event loops, so consecutive connections may land on different
/// loops and the shared state must still carry over.
fn spawn_daemon() -> (SocketAddr, thread::JoinHandle<()>) {
    let server = EventedServer::bind("127.0.0.1:0".parse().expect("loopback"), 2).expect("bind");
    let addr = server.local_addr();
    let handle = thread::spawn(move || {
        let service = Service::with_default_predictor(ServiceConfig::default());
        server.run(&service, &ServerConfig::default()).expect("evented run");
    });
    (addr, handle)
}

fn load_report(machine: &str, at: f64, load: f64, frac: f64) -> Request {
    Request::LoadReport(LoadReport { machine: machine.to_string(), at, load, comm_frac: frac })
}

fn predict(machine: &str, now: f64) -> Request {
    Request::Predict(Predict { machine: machine.to_string(), now, task: task(), j_words: 500 })
}

#[test]
fn full_session_over_tcp() {
    let (addr, handle) = spawn_daemon();
    let mut client = Client::connect(addr).expect("connect");

    // Feed a constant load of 2 with a communication fraction.
    for t in 0..4 {
        let resp = client.request(&load_report("m0", f64::from(t), 2.0, 0.5)).expect("ack");
        let Response::Ack(a) = resp else { panic!("want ack, got {resp:?}") };
        assert!(a.accepted);
    }

    // Fresh predict: p = 2, decision bit-identical to a local decide()
    // with the true mix at the EWMA-tracked fraction.
    let resp = client.request(&predict("m0", 3.5)).expect("prediction");
    let Response::Prediction(p) = resp else { panic!("want prediction, got {resp:?}") };
    assert!(!p.stale);
    assert_eq!(p.p, 2);
    // frac_gain 0.3 from Prob::ZERO toward 0.5, four reports.
    let mut frac = 0.0f64;
    for _ in 0..4 {
        frac += 0.3 * (0.5 - frac);
    }
    let truth = WorkloadMix::from_probs(&[prob(frac); 2]);
    let direct = default_predictor().decide(&task(), &truth, 500);
    assert_eq!(p.decision, direct, "wire answer must match the local model bit-for-bit");

    // Far-future predict: the staleness policy degrades to dedicated.
    let resp = client.request(&predict("m0", 1e6)).expect("stale prediction");
    let Response::Prediction(p) = resp else { panic!("want prediction, got {resp:?}") };
    assert!(p.stale, "stale feed must be flagged");
    assert_eq!(p.p, 0);
    assert_eq!(p.forecaster, "dedicated");
    let dedicated = default_predictor().decide(&task(), &WorkloadMix::new(), 500);
    assert_eq!(p.decision, dedicated, "stale answer must be the dedicated decision");

    // Rank the worked example under the forecast.
    let resp = client
        .request(&Request::Rank(Rank {
            machine: "m0".to_string(),
            now: 3.5,
            workflow: hetsched::example::workflow(),
            front_end: 0,
            j_words: 500,
            limit: 2,
        }))
        .expect("ranked");
    let Response::Ranked(r) = resp else { panic!("want ranked, got {resp:?}") };
    assert_eq!(r.total, 4);
    assert_eq!(r.schedules.len(), 2, "limit must truncate");
    assert!(r.schedules[0].makespan <= r.schedules[1].makespan);

    // Malformed line: error response, connection survives.
    let raw = client.request_raw("{\"kind\":\"teleport\"}").expect("error line");
    assert!(raw.contains("\"kind\":\"error\""), "{raw}");

    // Stats reflect everything above.
    let resp = client.request(&Request::Stats).expect("stats");
    let Response::Stats(st) = resp else { panic!("want stats, got {resp:?}") };
    assert_eq!(st.requests.load_report, 4);
    assert_eq!(st.requests.predict, 2);
    assert_eq!(st.requests.rank, 1);
    assert_eq!(st.requests.stats, 1);
    assert_eq!(st.machines, 1);
    assert!(st.cache.hits + st.cache.misses >= 3);
    // 4 load_reports + 2 predicts + 1 rank; the malformed line never
    // reached the handler and stats' own latency lands post-snapshot.
    assert_eq!(st.latency_us.count, 7);
    assert!(st.latency_us.max_us >= st.latency_us.p50_us);

    // Shutdown stops the daemon thread.
    let resp = client.request(&Request::Shutdown).expect("ok");
    assert_eq!(resp, Response::Ok);
    handle.join().expect("daemon thread exits cleanly");
}

#[test]
fn sequential_connections_share_state() {
    let (addr, handle) = spawn_daemon();
    {
        let mut c1 = Client::connect(addr).expect("connect 1");
        for t in 0..3 {
            c1.request(&load_report("shared", f64::from(t), 1.0, -1.0)).expect("ack");
        }
    } // dropping the stream ends connection 1; the daemon keeps running
    let mut c2 = Client::connect(addr).expect("connect 2");
    let resp = c2.request(&predict("shared", 2.5)).expect("prediction");
    let Response::Prediction(p) = resp else { panic!("want prediction, got {resp:?}") };
    assert!(!p.stale, "state from the first connection must persist");
    assert_eq!(p.p, 1);
    c2.request(&Request::Shutdown).expect("ok");
    handle.join().expect("daemon thread exits cleanly");
}
