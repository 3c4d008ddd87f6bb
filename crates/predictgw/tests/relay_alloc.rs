//! What relaying saves, counted: a binary `predict` costs the gateway's
//! event loop two heap allocations — the request frame it keeps until
//! the reply settles, and the reply frame it hands back — where
//! decoding and re-encoding both ways cost seven. Pinned with a global
//! allocator that counts only the gateway worker thread's allocations.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;

use common::{exchange, predict, report, spawn_backend};
use predictd::proto::Response;
use predictd::{Client, ServerConfig};
use predictgw::{Gateway, GatewayConfig, GatewayServer};

thread_local! {
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: defers every call to the system allocator unchanged; the flag
// is a const-initialized thread-local with no destructor and the count
// an atomic, so neither can allocate or re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTED.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTED.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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

/// A one-worker gateway whose event loop runs on a counted thread.
fn spawn_counted_gateway(backends: Vec<String>) -> SocketAddr {
    let gateway: &'static Gateway = Box::leak(Box::new(
        Gateway::new(GatewayConfig { backends, ..GatewayConfig::default() }).expect("gateway"),
    ));
    let cfg: &'static ServerConfig = Box::leak(Box::new(ServerConfig::default()));
    let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let server = GatewayServer::bind("127.0.0.1:0".parse().expect("loopback"), 1).expect("bind");
    let addr = server.local_addr();
    thread::spawn(move || {
        COUNTED.with(|c| c.set(true));
        server.run(gateway, cfg, stop).expect("gateway run")
    });
    addr
}

#[test]
fn a_relayed_binary_predict_costs_the_gateway_two_allocations() {
    let backends = vec![spawn_backend().to_string(), spawn_backend().to_string()];
    let gw = spawn_counted_gateway(backends);
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
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..rounds {
        for reply in exchange(&mut client, &window) {
            assert!(matches!(reply, Response::Prediction(_)), "{reply:?}");
        }
    }
    let counted = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let requests = rounds * window.len() as u64;
    // Two per request, with slack for a buffer that still grows.
    assert!(
        (2 * requests..=2 * requests + rounds).contains(&counted),
        "{counted} allocations for {requests} relayed predicts"
    );
}
