//! Gateway routing metrics: hit/miss/failover counters plus per-backend
//! tallies, all relaxed atomics in the same lock-free pattern as
//! predictd's [`predictd::Metrics`].
//!
//! The names follow the routing outcome, not a cache: a **hit** is a
//! request dispatched straight to its ring owner, a **miss** is a
//! request whose owner was already marked unhealthy at dispatch (it
//! went to a ring successor without ever trying the owner), and a
//! **failover** is a request that failed mid-flight on one backend and
//! was re-sent to the next in the preference list. `misses` therefore
//! measure how long the fleet runs degraded; `failovers` measure how
//! often a failure was discovered the hard way.
//!
//! Every counter is a relaxed [`AtomicU64`]: they are independent
//! monotone tallies recorded from every worker thread and the health
//! checker, so a `gw_stats` snapshot may be a few events torn between
//! fields while traffic is in flight — never more, never backwards.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use proto::proto::{BackendStats, GwStatsReply};

/// Per-backend tallies (indexes parallel the configured backend list).
#[derive(Debug, Default)]
struct PerBackend {
    /// Requests this backend answered (including journal broadcasts).
    requests: AtomicU64,
    /// Mid-flight failures re-sent elsewhere after failing here.
    failovers: AtomicU64,
    /// Journal records replayed into this backend on recovery.
    replayed: AtomicU64,
}

/// All gateway metrics, recorded lock-free from any thread.
#[derive(Debug, Default)]
pub struct GwMetrics {
    hits: AtomicU64,
    misses: AtomicU64,
    failovers: AtomicU64,
    backends: Vec<PerBackend>,
}

impl GwMetrics {
    /// Fresh, zeroed metrics for `backends` backends.
    pub fn new(backends: usize) -> Self {
        GwMetrics {
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            backends: (0..backends).map(|_| PerBackend::default()).collect(),
        }
    }

    /// Counts a request dispatched straight to its ring owner.
    pub fn hit(&self) {
        self.hits.fetch_add(1, Relaxed);
    }

    /// Counts a request whose owner was unhealthy at dispatch.
    pub fn miss(&self) {
        self.misses.fetch_add(1, Relaxed);
    }

    /// Counts a mid-flight failure re-sent to a ring successor, and the
    /// per-backend failover on the backend that failed.
    pub fn failover(&self, failed_backend: usize) {
        self.failovers.fetch_add(1, Relaxed);
        if let Some(b) = self.backends.get(failed_backend) {
            b.failovers.fetch_add(1, Relaxed);
        }
    }

    /// Counts one request answered by `backend`.
    pub(crate) fn backend_request(&self, backend: usize) {
        if let Some(b) = self.backends.get(backend) {
            b.requests.fetch_add(1, Relaxed);
        }
    }

    /// Counts `n` journal records replayed into `backend` on recovery.
    pub fn replayed(&self, backend: usize, n: u64) {
        if let Some(b) = self.backends.get(backend) {
            b.replayed.fetch_add(n, Relaxed);
        }
    }

    /// Requests answered so far by `backend` (for tests and logs).
    pub fn backend_requests(&self, backend: usize) -> u64 {
        self.backends.get(backend).map_or(0, |b| b.requests.load(Relaxed))
    }

    /// Snapshot for the `gw_stats` response. `addrs` and `healthy` run
    /// parallel to the backend list; the journal totals and uptime are
    /// owned elsewhere and passed in. Relaxed loads while traffic is in
    /// flight, same torn-by-a-few-events caveat as the module docs.
    pub fn snapshot(
        &self,
        addrs: &[String],
        healthy: &[bool],
        journal_frames: u64,
        journal_bytes: u64,
        uptime_secs: f64,
    ) -> GwStatsReply {
        let backends = self
            .backends
            .iter()
            .enumerate()
            .map(|(i, b)| BackendStats {
                addr: addrs.get(i).cloned().unwrap_or_default(),
                healthy: healthy.get(i).copied().unwrap_or(false),
                requests: b.requests.load(Relaxed),
                failovers: b.failovers.load(Relaxed),
                replayed: b.replayed.load(Relaxed),
            })
            .collect();
        GwStatsReply {
            backends,
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            failovers: self.failovers.load(Relaxed),
            journal_frames,
            journal_bytes,
            uptime_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counts() {
        let m = GwMetrics::new(2);
        m.hit();
        m.hit();
        m.miss();
        m.failover(0);
        m.backend_request(0);
        m.backend_request(1);
        m.backend_request(1);
        m.replayed(1, 7);
        let addrs = vec!["a:1".to_string(), "b:2".to_string()];
        let s = m.snapshot(&addrs, &[true, false], 9, 1234, 2.5);
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.failovers, 1);
        assert_eq!(s.backends.len(), 2);
        assert_eq!(s.backends[0].addr, "a:1");
        assert!(s.backends[0].healthy);
        assert_eq!(s.backends[0].requests, 1);
        assert_eq!(s.backends[0].failovers, 1);
        assert_eq!(s.backends[1].requests, 2);
        assert_eq!(s.backends[1].replayed, 7);
        assert!(!s.backends[1].healthy);
        assert_eq!(s.journal_frames, 9);
        assert_eq!(s.journal_bytes, 1234);
        assert_eq!(s.uptime_secs, 2.5);
    }

    #[test]
    fn out_of_range_backend_indices_are_ignored() {
        let m = GwMetrics::new(1);
        m.failover(5);
        m.backend_request(5);
        m.replayed(5, 3);
        let s = m.snapshot(&["x:0".to_string()], &[true], 0, 0, 0.0);
        // The fleet-wide failover still counted; the per-backend ones
        // had nowhere to land and were dropped rather than panicking.
        assert_eq!(s.failovers, 1);
        assert_eq!(s.backends[0].requests, 0);
        assert_eq!(s.backends[0].replayed, 0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let m = GwMetrics::new(2);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..1000u64 {
                        m.hit();
                        m.backend_request(usize::try_from(i % 2).unwrap_or(0));
                    }
                });
            }
        });
        let s = m.snapshot(&["a:1".to_string(), "b:2".to_string()], &[true, true], 0, 0, 0.0);
        assert_eq!(s.hits, 4000);
        assert_eq!(s.backends[0].requests + s.backends[1].requests, 4000);
    }
}
