//! Federation must be invisible in the answers: the gateway broadcasts
//! every load report to all backends, so each backend holds the full
//! fleet state and any of them answers any query identically. Pinned
//! here by replaying random report/predict/batch/rank interleavings
//! through 1 gateway + 2 evented predictd backends over TCP and through
//! one in-process monolithic `Service`, and demanding bit-identical
//! responses — over the binary codec, where the gateway relays
//! `predict`/`rank` frames as bytes, and over newline JSON, where it
//! decodes and re-encodes every answer.
//!
//! The one deliberate exception is `cache_hit`: queries route to one
//! owner (and batches fan out across backends), so per-backend profile
//! caches warm differently than the monolith's — the flag is replica
//! metadata, not an answer, and is normalized before comparing. Every
//! other field (`p`, `stale`, `forecaster`, decisions, rankings,
//! ack pedigree) must match exactly.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

use contention_model::dataset::DataSet;
use contention_model::predict::ParagonTask;
use contention_model::units::secs;
use predictd::proto::{DecideBatch, LoadReport, Predict, Rank, Request, Response};
use predictd::{Client, EventedServer, ServerConfig, Service, ServiceConfig};
use predictgw::{Gateway, GatewayConfig, GatewayServer};
use proptest::prelude::*;

fn task(scale: f64) -> ParagonTask {
    ParagonTask {
        dcomp_sun: secs(10.0 + scale),
        t_paragon: secs(1.0 + scale * 0.1),
        to_backend: vec![DataSet::burst(10, 1500)],
        from_backend: vec![DataSet::single(800)],
    }
}

/// Boots one evented predictd backend on a loopback port. Everything is
/// leaked — the federation lives for the whole test process.
fn spawn_backend() -> SocketAddr {
    let service: &'static Service =
        Box::leak(Box::new(Service::with_default_predictor(ServiceConfig::default())));
    let cfg: &'static ServerConfig = Box::leak(Box::new(ServerConfig::default()));
    let server = EventedServer::bind("127.0.0.1:0".parse().expect("loopback"), 1).expect("bind");
    let addr = server.local_addr();
    thread::spawn(move || server.run(service, cfg).expect("backend run"));
    addr
}

/// Boots the gateway over `backends`. No health checker: the backends
/// are presumed healthy at boot and never die in this test.
fn spawn_gateway(backends: Vec<String>) -> SocketAddr {
    let gateway: &'static Gateway = Box::leak(Box::new(
        Gateway::new(GatewayConfig { backends, ..GatewayConfig::default() }).expect("gateway"),
    ));
    let cfg: &'static ServerConfig = Box::leak(Box::new(ServerConfig::default()));
    let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let server = GatewayServer::bind("127.0.0.1:0".parse().expect("loopback"), 1).expect("bind");
    let addr = server.local_addr();
    thread::spawn(move || server.run(gateway, cfg, stop).expect("gateway run"));
    addr
}

/// One federation (2 backends + 1 gateway), booted once and shared by
/// every proptest case; cases isolate themselves with fresh machine
/// names (per-machine state never crosses machines).
fn gateway_addr() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let backends = (0..2).map(|_| spawn_backend().to_string()).collect();
        spawn_gateway(backends)
    })
}

/// A process-unique case number, so machine names never collide between
/// cases even though the backends persist.
fn fresh_case() -> usize {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    CASE.fetch_add(1, Ordering::Relaxed)
}

/// One step of a replayed session, decoded from a generated tuple of
/// `(pick, machine, dt, load, frac, scale, n)`: `pick` falls in
/// `0..DRAWS` and picks a kind by its [`draw_weight`].
type RawOp = (usize, usize, f64, f64, f64, f64, usize);

/// The sum of every kind's [`draw_weight`].
const DRAWS: usize = 8;

/// How many of the `DRAWS` picks land on `req`'s kind: the same 3:3:1:1
/// report/predict/batch/rank mix as the shard-equivalence test. The
/// `match` has no wildcard, so a new request kind does not compile
/// until this replay draws it or says why it cannot.
fn draw_weight(req: &Request) -> usize {
    match req {
        Request::LoadReport(_) | Request::Predict(_) => 3,
        Request::DecideBatch(_) | Request::Rank(_) => 1,
        // A gateway answers `stats` with its own `gw_stats`, and
        // `shutdown` would end the shared federation.
        Request::Stats | Request::Shutdown => 0,
    }
}

fn request_for(raw: &RawOp, case: usize, now: f64) -> Request {
    let (mut pick, machine, _dt, load, frac, scale, n) = *raw;
    let machine = format!("eq{case}-m{machine}");
    let candidates = [
        Request::LoadReport(LoadReport {
            machine: machine.clone(),
            at: now,
            load,
            comm_frac: frac,
        }),
        Request::Predict(Predict {
            machine: machine.clone(),
            now,
            task: task(scale),
            j_words: 500,
        }),
        Request::DecideBatch(DecideBatch {
            machine: machine.clone(),
            now,
            // ≥ 2 tasks with 2 healthy backends takes the fan-out/merge
            // path; n == 1 exercises the single-route fallback.
            tasks: (0..n).map(|i| task(i as f64)).collect(),
            j_words: 500,
        }),
        Request::Rank(Rank {
            machine,
            now,
            workflow: hetsched::example::workflow(),
            front_end: 0,
            j_words: 500,
            limit: n,
        }),
    ];
    assert_eq!(candidates.iter().map(draw_weight).sum::<usize>(), DRAWS);
    for req in candidates {
        if pick < draw_weight(&req) {
            return req;
        }
        pick -= draw_weight(&req);
    }
    panic!("pick {} is outside 0..{DRAWS}", raw.0)
}

/// Strips replica metadata that legitimately differs between a fanned-
/// out federation and a monolith (see the module docs).
fn normalized(resp: Response) -> Response {
    match resp {
        Response::Prediction(mut p) => {
            p.cache_hit = false;
            Response::Prediction(p)
        }
        Response::Decisions(mut d) => {
            d.cache_hit = false;
            Response::Decisions(d)
        }
        other => other,
    }
}

/// Replays `ops` through a fresh monolith and, over `fed`, through the
/// shared federation, demanding the same answer at every step.
fn replay(ops: &[RawOp], mut fed: Client) -> Result<(), TestCaseError> {
    let case = fresh_case();
    let mono = Service::with_default_predictor(ServiceConfig::default());
    let mut now = 0.0f64;
    for (i, op) in ops.iter().enumerate() {
        now += op.2;
        let req = request_for(op, case, now);
        let (want, _) = mono.handle(&req);
        let got = fed
            .request(&req)
            .map_err(|e| TestCaseError::fail(format!("step {i} ({}): {e}", req.kind())))?;
        prop_assert!(
            !matches!(want, Response::Error(_)),
            "monolith errored at step {}: {:?}",
            i,
            want
        );
        prop_assert_eq!(
            normalized(want),
            normalized(got),
            "step {} ({}) diverged between federation and monolith",
            i,
            req.kind()
        );
    }
    Ok(())
}

fn connect(binary: bool) -> Result<Client, TestCaseError> {
    let client = if binary {
        Client::connect_binary(gateway_addr())
    } else {
        Client::connect(gateway_addr())
    };
    client.map_err(|e| TestCaseError::fail(format!("gateway connect: {e}")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// 1 gateway + 2 backends == 1 monolithic predictd, for every
    /// request sequence: same acks, same decisions, same rankings.
    #[test]
    fn federation_is_bit_identical_to_a_monolith(
        ops in proptest::collection::vec(
            (0..DRAWS, 0..5usize, 0.0..1.5f64, 0.0..6.0f64, -0.5..1.0f64, 0.0..20.0f64, 1..5usize),
            1..30,
        )
    ) {
        replay(&ops, connect(true)?)?;
    }

    /// The same equivalence for a JSON client, whose answers the
    /// gateway decodes and re-encodes rather than relays.
    #[test]
    fn federation_is_bit_identical_to_a_monolith_over_json(
        ops in proptest::collection::vec(
            (0..DRAWS, 0..5usize, 0.0..1.5f64, 0.0..6.0f64, -0.5..1.0f64, 0.0..20.0f64, 1..5usize),
            1..30,
        )
    ) {
        replay(&ops, connect(false)?)?;
    }
}
