//! What relaying saves, counted: a binary `predict` costs the gateway's
//! event loop two heap allocations — the request frame it keeps until
//! the reply settles, and the reply frame it hands back — where
//! decoding and re-encoding both ways cost seven. A binary `load_report`
//! on a journaling gateway with two backends costs three — its frame,
//! which the journal and both lanes copy, and the two ack frames — where
//! decoding it, copying and encoding it for the journal, and decoding
//! both acks cost seven. A binary 8-task `decide_batch` fanned out over
//! two backends costs seven — its frame, the chunk list, two chunk
//! frames, two chunk reply frames, and one growth of the first reply as
//! the second is merged into it — where decoding the batch, re-encoding
//! its chunks, and decoding, merging and re-encoding the replies cost
//! 48. Pinned with a global allocator that counts only the gateway
//! worker thread's allocations.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;

use common::{exchange, predict, report, spawn_backend, task};
use predictd::proto::{DecideBatch, Request, Response};
use predictd::{Client, ServerConfig};
use predictgw::{Gateway, GatewayConfig, GatewayServer};

thread_local! {
    /// Where this thread's allocations are counted, if anywhere: each
    /// test's gateway thread has its own counter, so tests running side
    /// by side do not count each other.
    static COUNTER: Cell<Option<&'static AtomicU64>> = const { Cell::new(None) };
}

struct Counting;

// SAFETY: defers every call to the system allocator unchanged; the
// counter slot is a const-initialized thread-local with no destructor
// and the count an atomic, so neither can allocate or re-enter the
// allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if let Some(n) = COUNTER.with(Cell::get) {
            n.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if let Some(n) = COUNTER.with(Cell::get) {
            n.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A one-worker gateway whose event loop runs on a counted thread, and
/// its counter.
fn spawn_counted_gateway(cfg: GatewayConfig) -> (SocketAddr, &'static AtomicU64) {
    let allocations: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
    let gateway: &'static Gateway = Box::leak(Box::new(Gateway::new(cfg).expect("gateway")));
    let cfg: &'static ServerConfig = Box::leak(Box::new(ServerConfig::default()));
    let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let server = GatewayServer::bind("127.0.0.1:0".parse().expect("loopback"), 1).expect("bind");
    let addr = server.local_addr();
    thread::spawn(move || {
        COUNTER.with(|c| c.set(Some(allocations)));
        server.run(gateway, cfg, stop).expect("gateway run")
    });
    (addr, allocations)
}

#[test]
fn a_relayed_binary_predict_costs_the_gateway_two_allocations() {
    let backends = vec![spawn_backend().to_string(), spawn_backend().to_string()];
    let (gw, allocations) =
        spawn_counted_gateway(GatewayConfig { backends, ..GatewayConfig::default() });
    let mut client = Client::connect_binary(gw).expect("gateway connect");
    let machines: Vec<String> = (0..16).map(|i| format!("alloc-m{i}")).collect();
    let reports: Vec<_> = machines.iter().map(|m| report(m, 1.0)).collect();
    assert!(exchange(&mut client, &reports).iter().all(|r| matches!(r, Response::Ack(_))));
    let window: Vec<_> = machines.iter().map(|m| predict(m, 1.5)).collect();

    // Warm every buffer and queue to its working size first.
    for _ in 0..50 {
        exchange(&mut client, &window);
    }
    let rounds = 200u64;
    let before = allocations.load(Ordering::Relaxed);
    for _ in 0..rounds {
        for reply in exchange(&mut client, &window) {
            assert!(matches!(reply, Response::Prediction(_)), "{reply:?}");
        }
    }
    let counted = allocations.load(Ordering::Relaxed) - before;
    let requests = rounds * window.len() as u64;
    // Two per request, with slack for a buffer that still grows.
    assert!(
        (2 * requests..=2 * requests + rounds).contains(&counted),
        "{counted} allocations for {requests} relayed predicts"
    );
}

#[test]
fn a_relayed_binary_report_costs_the_journaling_gateway_three_allocations() {
    let backends = vec![spawn_backend().to_string(), spawn_backend().to_string()];
    let journal = std::env::temp_dir().join(format!("predictgw-alloc-{}.j", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let (gw, allocations) = spawn_counted_gateway(GatewayConfig {
        backends,
        journal_path: Some(journal.clone()),
        ..GatewayConfig::default()
    });
    let mut client = Client::connect_binary(gw).expect("gateway connect");
    let machines: Vec<String> = (0..16).map(|i| format!("alloc-r{i}")).collect();
    let window = |t: u64| -> Vec<_> { machines.iter().map(|m| report(m, t as f64)).collect() };

    // Warm every buffer and queue to its working size first; the first
    // full fsync batch also starts the journal's sync thread here.
    for t in 0..50 {
        exchange(&mut client, &window(t));
    }
    let rounds = 200u64;
    let windows: Vec<_> = (50..50 + rounds).map(window).collect();
    let before = allocations.load(Ordering::Relaxed);
    for w in &windows {
        for reply in exchange(&mut client, w) {
            assert!(matches!(reply, Response::Ack(ref a) if a.accepted), "{reply:?}");
        }
    }
    let counted = allocations.load(Ordering::Relaxed) - before;
    let requests = rounds * machines.len() as u64;
    // Three per report, with slack for a buffer that still grows.
    assert!(
        (3 * requests..=3 * requests + rounds).contains(&counted),
        "{counted} allocations for {requests} journaled reports"
    );
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn a_fanned_out_binary_decide_batch_costs_the_gateway_seven_allocations() {
    let backends = vec![spawn_backend().to_string(), spawn_backend().to_string()];
    let (gw, allocations) =
        spawn_counted_gateway(GatewayConfig { backends, ..GatewayConfig::default() });
    let mut client = Client::connect_binary(gw).expect("gateway connect");
    let machines: Vec<String> = (0..16).map(|i| format!("alloc-b{i}")).collect();
    let reports: Vec<_> = machines.iter().map(|m| report(m, 1.0)).collect();
    assert!(exchange(&mut client, &reports).iter().all(|r| matches!(r, Response::Ack(_))));
    let window: Vec<_> = machines
        .iter()
        .map(|m| {
            Request::DecideBatch(DecideBatch {
                machine: m.clone(),
                now: 1.5,
                tasks: vec![task(); 8],
                j_words: 500,
            })
        })
        .collect();

    // Warm every buffer and queue to its working size first.
    for _ in 0..50 {
        exchange(&mut client, &window);
    }
    let rounds = 200u64;
    let before = allocations.load(Ordering::Relaxed);
    for _ in 0..rounds {
        for reply in exchange(&mut client, &window) {
            assert!(
                matches!(reply, Response::Decisions(ref d) if d.decisions.len() == 8),
                "{reply:?}"
            );
        }
    }
    let counted = allocations.load(Ordering::Relaxed) - before;
    let requests = rounds * window.len() as u64;
    // Seven per batch, with slack for a buffer that still grows.
    assert!(
        (7 * requests..=7 * requests + rounds).contains(&counted),
        "{counted} allocations for {requests} fanned-out batches"
    );
}
