//! Ordered fan-out for the figure sweeps.
//!
//! Every sweep point is an independent simulation run with its own
//! platform instance and a seed derived from the point itself, so the
//! points can execute in any order — or concurrently — without changing a
//! single output bit. [`ordered_map`] exploits that: with the `par`
//! feature it fans the points out across threads (via `rayon`),
//! without it it is a plain sequential map. Either way the result vector
//! is in input order, so reports, notes, and MAPE figures are identical
//! between the two builds.

/// Maps `f` over `items`, preserving input order in the output.
///
/// Runs on parallel threads when the crate's `par` feature is enabled,
/// sequentially otherwise. The `Send`/`Sync` bounds are required in both
/// builds so that whatever compiles single-threaded also compiles — and
/// behaves identically — under `--features par`.
pub(crate) fn ordered_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Send + Sync,
{
    #[cfg(feature = "par")]
    {
        use rayon::prelude::*;
        items.into_par_iter().map(f).collect()
    }
    #[cfg(not(feature = "par"))]
    {
        items.into_iter().map(f).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = ordered_map((0u64..100).collect(), |i| i * 3);
        let expected: Vec<u64> = (0..100).map(|i| i * 3).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u64> = ordered_map(Vec::<u64>::new(), |i| i);
        assert!(out.is_empty());
    }
}
