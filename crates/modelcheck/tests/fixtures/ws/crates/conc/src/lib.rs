//! Fixture crate opting into the concurrency rules. Seeded violations:
//! one of each per-body lock-order shape plus both atomics shapes.
//!
//! modelcheck: lock-order, atomics

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::RwLock;

/// A stand-in shard.
pub struct Shard {
    /// Payload.
    pub data: Vec<u64>,
}

/// Seeded: a write lock inside a declared read path.
// modelcheck: read-path
pub fn read_path_takes_write(s: &RwLock<Shard>) -> usize {
    let g = s.write().unwrap();
    g.data.len()
}

/// Seeded: a second shard lock while the first guard is live.
pub fn nested_locks(a: &RwLock<Shard>, b: &RwLock<Shard>) -> usize {
    let ga = a.read().unwrap();
    let gb = b.read().unwrap();
    ga.data.len() + gb.data.len()
}

/// Seeded: socket I/O under a live guard.
pub fn io_under_guard(s: &RwLock<Shard>, out: &mut std::net::TcpStream) {
    let g = s.read().unwrap();
    let _ = out.write_all(&g.data[0].to_le_bytes());
}

/// Seeded: a strong ordering with no justifying allow.
pub fn unjustified_seqcst(b: &AtomicBool) {
    b.store(true, Ordering::SeqCst);
}

/// Seeded: a torn read-modify-write of an atomic counter.
pub fn torn_counter_bump(c: &AtomicU64) {
    c.store(c.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

/// Not seeded: the allow escape hatch holds for justified orderings.
pub fn justified_acqrel(c: &AtomicU64) -> u64 {
    // modelcheck-allow: atomics — fixture: a justified strong ordering
    // stays silent even with the reason spread over two lines.
    c.fetch_add(1, Ordering::AcqRel)
}
