//! With several workers, each broadcasting through its own backend
//! lanes, every backend must still receive `load_report`s in journal
//! order. Eight connections spread over four workers interleave
//! time-increasing reports for the same 32 machines; a report that
//! arrives behind a newer one for its machine is refused, so a backend
//! fed any other order ends in a different state. Afterwards both
//! backends must answer every machine bit-identically to a monolithic
//! service fed the journal in order.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

use common::{exchange, predict, report, spawn_backend, spawn_gateway, stats_of};
use predictd::proto::{Request, Response};
use predictd::{Client, Service, ServiceConfig};
use predictgw::{journal, GatewayConfig};

const CONNS: usize = 8;
const WINDOWS: usize = 25;
const WINDOW: usize = 16;
const MACHINES: u64 = 32;

fn normalized(resp: Response) -> Response {
    match resp {
        Response::Prediction(mut p) => {
            p.cache_hit = false;
            Response::Prediction(p)
        }
        other => other,
    }
}

#[test]
fn backends_receive_reports_in_journal_order_with_four_workers() {
    let backends = [spawn_backend().to_string(), spawn_backend().to_string()];
    let mut path = std::env::temp_dir();
    path.push(format!("predictgw-order-{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let (gateway, gw) = spawn_gateway(
        GatewayConfig {
            backends: backends.to_vec(),
            journal_path: Some(path.clone()),
            ..GatewayConfig::default()
        },
        4,
    );

    let clock = AtomicU64::new(1);
    thread::scope(|s| {
        for _ in 0..CONNS {
            s.spawn(|| {
                let mut client = Client::connect_binary(gw).expect("gateway connect");
                for _ in 0..WINDOWS {
                    let window: Vec<Request> = (0..WINDOW)
                        .map(|_| {
                            let n = clock.fetch_add(1, Ordering::Relaxed);
                            report(&format!("ord-m{}", n % MACHINES), n as f64 * 0.01)
                        })
                        .collect();
                    for resp in exchange(&mut client, &window) {
                        assert!(matches!(resp, Response::Ack(_)), "report answered {resp:?}");
                    }
                }
            });
        }
    });

    gateway.sync_journal().expect("journal sync");
    let reports = journal::read_reports(&path).expect("read journal");
    let total = CONNS * WINDOWS * WINDOW;
    assert_eq!(reports.len(), total, "every report journaled exactly once");

    let mono = Service::with_default_predictor(ServiceConfig::default());
    let mut refused = 0;
    for r in &reports {
        match mono.handle(&Request::LoadReport(r.clone())).0 {
            Response::Ack(a) => refused += usize::from(!a.accepted),
            other => panic!("monolith answered a report with {other:?}"),
        }
    }
    // The interleaving must actually race, or order would not matter.
    assert!(refused > 0, "no report arrived behind a newer one: the test proves nothing");

    for b in &backends {
        let stats = stats_of(b);
        assert_eq!(stats.requests.load_report, u64::try_from(total).expect("fits"), "{b}");
    }
    let now = clock.load(Ordering::Relaxed) as f64 * 0.01 + 0.5;
    let mut direct: Vec<Client> =
        backends.iter().map(|b| Client::connect_binary(b.as_str()).expect("connect")).collect();
    for i in 0..MACHINES {
        let q = predict(&format!("ord-m{i}"), now);
        let want = normalized(mono.handle(&q).0);
        assert!(matches!(want, Response::Prediction(_)), "{want:?}");
        for (b, c) in backends.iter().zip(&mut direct) {
            let got = normalized(c.request(&q).expect("predict"));
            assert_eq!(got, want, "backend {b} diverged from the journal order on ord-m{i}");
        }
    }
    let _ = std::fs::remove_file(&path);
}
