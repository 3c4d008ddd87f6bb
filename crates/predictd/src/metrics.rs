//! Per-request service metrics: kind counts, profile-cache hit rate,
//! and a fixed-bucket latency histogram — all lock-free.
//!
//! Every counter is a relaxed [`AtomicU64`], so recording from many
//! worker threads never contends on a lock and a `stats` snapshot never
//! blocks the request path. Relaxed ordering is enough: the counters
//! are independent monotone tallies, and a snapshot taken while
//! requests are in flight is allowed to be a few events torn between
//! fields (documented on [`Metrics::snapshot`]).
//!
//! The histogram uses 24 power-of-two microsecond buckets (bucket `i`
//! holds latencies in `(2^(i-1), 2^i]` µs, bucket 0 holds `≤ 1` µs), so
//! recording is O(1), allocation-free, and quantiles are upper bounds —
//! exactly what a long-running daemon wants from its own bookkeeping.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use crate::proto::{CacheStats, LatencySummary, RequestCounts, ShardStats, StatsReply};
use contention_model::units::f64_from_u64;

/// Number of histogram buckets (covers up to ~2.3 hours in µs).
const BUCKETS: usize = 24;

/// The request kinds the daemon serves, for per-kind counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// `load_report`.
    LoadReport,
    /// `predict`.
    Predict,
    /// `decide_batch`.
    DecideBatch,
    /// `rank`.
    Rank,
    /// `stats`.
    Stats,
    /// `shutdown`.
    Shutdown,
}

impl ReqKind {
    fn index(self) -> usize {
        match self {
            ReqKind::LoadReport => 0,
            ReqKind::Predict => 1,
            ReqKind::DecideBatch => 2,
            ReqKind::Rank => 3,
            ReqKind::Stats => 4,
            ReqKind::Shutdown => 5,
        }
    }
}

/// Fixed-bucket power-of-two latency histogram, microseconds. This is
/// the plain (single-owner) form; the service records into the atomic
/// twin inside [`Metrics`] and materializes one of these per snapshot.
#[derive(Debug, Clone, Default)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    max_us: u64,
}

impl LatencyHistogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one latency observation.
    pub fn record(&mut self, us: u64) {
        self.buckets[Self::bucket_of(us)] += 1;
        self.count += 1;
        self.max_us = self.max_us.max(us);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Folds another histogram into this one, bucket by bucket — how a
    /// load generator aggregates per-connection latencies into one
    /// fleet-wide distribution without sharing state between threads.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Largest observation, µs (0 when empty).
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// Bucket index for a latency: bucket 0 is `≤ 1` µs, bucket `i`
    /// covers `(2^(i-1), 2^i]` µs; the last bucket absorbs the tail.
    fn bucket_of(us: u64) -> usize {
        if us <= 1 {
            return 0;
        }
        // ceil(log2(us)) via leading_zeros on us-1; u32 → usize is lossless.
        let ceil_log2 = u64::BITS - (us - 1).leading_zeros();
        (ceil_log2 as usize).min(BUCKETS - 1)
    }

    /// Upper bound of a bucket, µs.
    fn bucket_upper(idx: usize) -> u64 {
        1u64 << idx.min(63)
    }

    /// Upper bound on the `q`-quantile latency (`q` in `[0, 1]`), µs.
    /// Returns 0 when no observations were recorded.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = q.clamp(0.0, 1.0) * f64_from_u64(self.count);
        let mut cumulative = 0u64;
        for (idx, n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if f64_from_u64(cumulative) >= target {
                // Never report past the true maximum.
                return Self::bucket_upper(idx).min(self.max_us);
            }
        }
        self.max_us
    }
}

/// The atomic twin of [`LatencyHistogram`]: shared by every worker,
/// recorded with relaxed stores, drained into the plain form on demand.
#[derive(Debug, Default)]
struct AtomicHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    max_us: AtomicU64,
}

impl AtomicHistogram {
    fn record(&self, us: u64) {
        self.buckets[LatencyHistogram::bucket_of(us)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.max_us.fetch_max(us, Relaxed);
    }

    /// A point-in-time copy; concurrent records may straddle the loads.
    fn load(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for (dst, src) in h.buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Relaxed);
        }
        h.count = self.count.load(Relaxed);
        h.max_us = self.max_us.load(Relaxed);
        h
    }
}

/// All service metrics, recorded lock-free from any worker thread.
#[derive(Debug, Default)]
pub struct Metrics {
    counts: [AtomicU64; 6],
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    hist: AtomicHistogram,
}

impl Metrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Counts one request of `kind`.
    pub(crate) fn count_request(&self, kind: ReqKind) {
        self.counts[kind.index()].fetch_add(1, Relaxed);
    }

    /// Records one request latency.
    pub(crate) fn record_latency_us(&self, us: u64) {
        self.hist.record(us);
    }

    /// Counts a profile served from cache.
    pub fn cache_hit(&self) {
        self.cache_hits.fetch_add(1, Relaxed);
    }

    /// Counts a profile recompute.
    pub(crate) fn cache_miss(&self) {
        self.cache_misses.fetch_add(1, Relaxed);
    }

    /// Snapshot for the `stats` response. Taken with relaxed loads while
    /// requests may be in flight, so totals can disagree by the handful
    /// of events mid-record — never by more, and never backwards.
    pub fn snapshot(
        &self,
        machines: usize,
        uptime_secs: f64,
        shards: Vec<ShardStats>,
    ) -> StatsReply {
        let hits = self.cache_hits.load(Relaxed);
        let misses = self.cache_misses.load(Relaxed);
        let looked_up = hits + misses;
        let hit_rate =
            if looked_up == 0 { 0.0 } else { f64_from_u64(hits) / f64_from_u64(looked_up) };
        let hist = self.hist.load();
        StatsReply {
            requests: RequestCounts {
                load_report: self.counts[0].load(Relaxed),
                predict: self.counts[1].load(Relaxed),
                decide_batch: self.counts[2].load(Relaxed),
                rank: self.counts[3].load(Relaxed),
                stats: self.counts[4].load(Relaxed),
                shutdown: self.counts[5].load(Relaxed),
            },
            cache: CacheStats { hits, misses, hit_rate },
            latency_us: LatencySummary {
                count: hist.count(),
                p50_us: hist.quantile_us(0.50),
                p99_us: hist.quantile_us(0.99),
                max_us: hist.max_us(),
            },
            machines: u64::try_from(machines).unwrap_or(u64::MAX),
            uptime_secs,
            shards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 0);
        assert_eq!(LatencyHistogram::bucket_of(2), 1);
        assert_eq!(LatencyHistogram::bucket_of(3), 2);
        assert_eq!(LatencyHistogram::bucket_of(4), 2);
        assert_eq!(LatencyHistogram::bucket_of(5), 3);
        assert_eq!(LatencyHistogram::bucket_of(1024), 10);
        assert_eq!(LatencyHistogram::bucket_of(1025), 11);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_upper_bounds() {
        let mut h = LatencyHistogram::new();
        for us in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 900] {
            h.record(us);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.quantile_us(0.5), 1);
        // p99 lands in the 900 observation's bucket (512, 1024] but is
        // clamped to the observed maximum.
        assert_eq!(h.quantile_us(0.99), 900);
        assert_eq!(h.max_us(), 900);
        assert_eq!(LatencyHistogram::new().quantile_us(0.5), 0);
    }

    #[test]
    fn merge_is_equivalent_to_recording_into_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for us in [1u64, 7, 900, 4096] {
            a.record(us);
            whole.record(us);
        }
        for us in [2u64, 65_000, 3] {
            b.record(us);
            whole.record(us);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.max_us(), whole.max_us());
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(a.quantile_us(q), whole.quantile_us(q));
        }
        a.merge(&LatencyHistogram::new());
        assert_eq!(a.count(), whole.count());
    }

    #[test]
    fn snapshot_reports_rates() {
        let m = Metrics::new();
        m.count_request(ReqKind::Predict);
        m.count_request(ReqKind::Predict);
        m.count_request(ReqKind::Stats);
        m.cache_hit();
        m.cache_hit();
        m.cache_miss();
        m.record_latency_us(10);
        let s = m.snapshot(3, 1.5, Vec::new());
        assert_eq!(s.requests.predict, 2);
        assert_eq!(s.requests.stats, 1);
        assert_eq!(s.requests.total(), 3);
        assert_eq!(s.cache.hits, 2);
        assert!((s.cache.hit_rate - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.latency_us.count, 1);
        assert_eq!(s.machines, 3);
        assert_eq!(s.uptime_secs, 1.5);
    }

    #[test]
    fn empty_metrics_have_zero_rate() {
        let s = Metrics::new().snapshot(0, 0.0, Vec::new());
        assert_eq!(s.cache.hit_rate, 0.0);
        assert_eq!(s.latency_us.p99_us, 0);
        assert_eq!(s.requests.total(), 0);
    }

    #[test]
    fn atomic_histogram_matches_plain_recording() {
        let m = Metrics::new();
        let mut plain = LatencyHistogram::new();
        for us in [0u64, 1, 7, 900, 4096, 4097] {
            m.record_latency_us(us);
            plain.record(us);
        }
        let s = m.snapshot(0, 0.0, Vec::new());
        assert_eq!(s.latency_us.count, plain.count());
        assert_eq!(s.latency_us.p50_us, plain.quantile_us(0.50));
        assert_eq!(s.latency_us.p99_us, plain.quantile_us(0.99));
        assert_eq!(s.latency_us.max_us, plain.max_us());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let m = Metrics::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..1000u64 {
                        m.count_request(ReqKind::Predict);
                        m.record_latency_us(i % 64);
                        if i % 2 == 0 {
                            m.cache_hit();
                        } else {
                            m.cache_miss();
                        }
                    }
                });
            }
        });
        let snap = m.snapshot(0, 0.0, Vec::new());
        assert_eq!(snap.requests.predict, 4000);
        assert_eq!(snap.latency_us.count, 4000);
        assert_eq!(snap.cache.hits, 2000);
        assert_eq!(snap.cache.misses, 2000);
    }
}
