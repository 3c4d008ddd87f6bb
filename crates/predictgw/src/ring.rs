//! Consistent-hash ring with virtual nodes: the gateway's routing map
//! from machine IDs to backend indices.
//!
//! Each backend owns `vnodes` points on a 64-bit hash circle; a machine
//! is routed to the backend owning the first point at or clockwise of
//! the machine's own hash. Virtual nodes smooth the per-backend share
//! (with one point per backend the largest arc is unboundedly lucky;
//! with ~64 the shares concentrate near `1/N`), and consistent hashing
//! keeps the map stable: adding or removing one backend only remaps the
//! keys on the arcs it owned, never shuffles the whole fleet.
//!
//! The hash is FNV-1a (64-bit) — tiny, allocation-free, and good enough
//! for routing: routing needs stability and spread, not collision
//! resistance, and every gateway must compute the identical ring from
//! the identical backend list, so a keyed or seeded hash would be
//! actively wrong here.

/// 64-bit FNV-1a over a byte string.
///
/// Stable across platforms and releases by construction (the constants
/// are the published FNV parameters); routing depends on every gateway
/// computing the identical value for the identical machine ID.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A consistent-hash ring over `backends` backends, `vnodes` virtual
/// points each.
///
/// The failover preference list of every ring point is computed once,
/// at construction, so routing a query costs one binary search and no
/// allocation: `points × backends` entries in all (`vnodes ×
/// backends²`; 128 × 2 for two backends at the default 64 vnodes).
#[derive(Debug, Clone)]
pub struct Ring {
    /// Point hashes, sorted.
    points: Vec<u64>,
    /// Row `i` (`backends` entries from `i × backends`) is the
    /// preference list of a machine that hashes onto point `i`.
    prefs: Vec<usize>,
    backends: usize,
}

impl Ring {
    /// Builds the ring. Both counts are clamped to at least 1: a ring
    /// with no points cannot route, and the gateway refuses to start
    /// with zero backends anyway.
    pub fn new(backends: usize, vnodes: usize) -> Self {
        let backends = backends.max(1);
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(backends * vnodes);
        for b in 0..backends {
            for v in 0..vnodes {
                // The point label bakes in both indices so every vnode
                // lands somewhere unrelated to its neighbors.
                let label = format!("backend-{b}#vnode-{v}");
                points.push((fnv1a(label.as_bytes()), b));
            }
        }
        // Ties (a full 64-bit hash collision) resolve to the lower
        // backend index, deterministically on every gateway.
        points.sort_unstable();
        let mut prefs = Vec::with_capacity(points.len() * backends);
        let mut seen = vec![false; backends];
        for start in 0..points.len() {
            // All distinct backends clockwise from this point.
            seen.fill(false);
            let row = prefs.len();
            for &(_, b) in points.iter().cycle().skip(start).take(points.len()) {
                if !std::mem::replace(&mut seen[b], true) {
                    prefs.push(b);
                    if prefs.len() - row == backends {
                        break;
                    }
                }
            }
        }
        Ring { points: points.into_iter().map(|(h, _)| h).collect(), prefs, backends }
    }

    /// How many backends the ring routes across.
    pub fn backends(&self) -> usize {
        self.backends
    }

    /// The backend that owns `machine`: the first ring point at or
    /// clockwise of the machine's hash (wrapping past the top).
    pub fn owner(&self, machine: &str) -> usize {
        self.preference(machine).first().copied().unwrap_or(0)
    }

    /// All distinct backends in ring order starting at the owner —
    /// the failover preference list for `machine`. The first entry is
    /// [`Ring::owner`]; each later entry is the next distinct backend
    /// clockwise, so two gateways agree on where traffic fails over.
    pub fn preference(&self, machine: &str) -> &[usize] {
        self.row(self.row_of(machine))
    }

    /// The preference row `machine` routes by — a stand-in for
    /// [`Ring::preference`] that a routing step can keep without
    /// borrowing the ring.
    pub(crate) fn row_of(&self, machine: &str) -> usize {
        let h = fnv1a(machine.as_bytes());
        // The first point at or clockwise of the hash; past the top
        // point, the circle wraps to point 0.
        self.points.partition_point(|&p| p < h) % self.points.len().max(1)
    }

    /// Preference row `row` (see [`Ring::row_of`]); empty when out of
    /// range.
    pub(crate) fn row(&self, row: usize) -> &[usize] {
        let start = row.saturating_mul(self.backends);
        self.prefs.get(start..start.saturating_add(self.backends)).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_published_vectors() {
        // Reference values for the 64-bit FNV-1a parameters.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn owner_is_deterministic_and_in_range() {
        let ring = Ring::new(4, 64);
        for i in 0..200 {
            let m = format!("machine-{i}");
            let a = ring.owner(&m);
            assert_eq!(a, ring.owner(&m));
            assert!(a < 4);
        }
    }

    #[test]
    fn preference_lists_every_backend_once_starting_at_owner() {
        let ring = Ring::new(5, 32);
        for i in 0..50 {
            let m = format!("m{i}");
            let pref = ring.preference(&m);
            assert_eq!(pref.len(), 5);
            assert_eq!(pref[0], ring.owner(&m));
            let mut sorted = pref.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn owner_is_the_first_point_clockwise_of_the_hash() {
        // The owner found through the precomputed rows, against a scan
        // of every vnode label.
        let (backends, vnodes) = (3, 16);
        let ring = Ring::new(backends, vnodes);
        let points: Vec<(u64, usize)> = (0..backends)
            .flat_map(|b| (0..vnodes).map(move |v| (b, v)))
            .map(|(b, v)| (fnv1a(format!("backend-{b}#vnode-{v}").as_bytes()), b))
            .collect();
        for i in 0..300 {
            let m = format!("scan-{i}");
            let h = fnv1a(m.as_bytes());
            let clockwise = points.iter().filter(|&&(p, _)| p >= h).min();
            let want = clockwise.or_else(|| points.iter().min()).map(|&(_, b)| b);
            assert_eq!(Some(ring.owner(&m)), want, "{m}");
        }
    }

    #[test]
    fn vnodes_balance_the_shares() {
        let ring = Ring::new(4, 64);
        let mut counts = [0usize; 4];
        for i in 0..4000 {
            counts[ring.owner(&format!("host-{i}.example"))] += 1;
        }
        for &c in &counts {
            // Fair share is 1000; vnodes keep every backend within a
            // loose band of it (the bound is deliberately generous —
            // this guards against gross imbalance, not variance).
            assert!((300..=2200).contains(&c), "share badly skewed: {counts:?}");
        }
    }

    #[test]
    fn growing_the_ring_only_remaps_keys_to_the_new_backend() {
        // Consistent hashing's contract: adding backend N+1 steals some
        // keys for the newcomer but never moves a key between two old
        // backends.
        let before = Ring::new(4, 64);
        let after = Ring::new(5, 64);
        let mut moved = 0;
        let total = 2000;
        for i in 0..total {
            let m = format!("stable-{i}");
            let old = before.owner(&m);
            let new = after.owner(&m);
            if old != new {
                assert_eq!(new, 4, "key moved between pre-existing backends");
                moved += 1;
            }
        }
        // The newcomer takes roughly 1/5th of the keys.
        assert!(moved > 0 && moved < total / 2, "moved {moved} of {total}");
    }

    #[test]
    fn degenerate_sizes_are_clamped() {
        let ring = Ring::new(0, 0);
        assert_eq!(ring.backends(), 1);
        assert_eq!(ring.owner("anything"), 0);
        assert_eq!(ring.preference("anything"), [0]);
    }
}
