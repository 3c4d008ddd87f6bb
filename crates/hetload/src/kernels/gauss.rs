//! Gaussian elimination.
//!
//! The paper's second validation benchmark: an `m × (m+1)` augmented-matrix
//! solver. The real kernel below (forward elimination with partial
//! pivoting plus back substitution) supplies correctness tests and the
//! operation counts that size the simulated workloads.

/// Dense augmented system `A·x = b` stored as an `m × (m+1)` row-major
/// matrix (column `m` is `b`).
#[derive(Debug, Clone)]
pub struct Augmented {
    m: usize,
    a: Vec<f64>,
}

impl Augmented {
    /// Builds from rows; each row must have `m + 1` entries.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let m = rows.len();
        assert!(m > 0, "empty system");
        let mut a = Vec::with_capacity(m * (m + 1));
        for r in rows {
            assert_eq!(r.len(), m + 1, "row width must be m+1");
            a.extend_from_slice(r);
        }
        Augmented { m, a }
    }

    /// System size `m`.
    pub fn size(&self) -> usize {
        self.m
    }

    fn at(&self, i: usize, j: usize) -> f64 {
        self.a[i * (self.m + 1) + j]
    }

    /// Computes `A·x − b` (the residual) for a candidate solution.
    pub fn residual(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.m);
        (0..self.m)
            .map(|i| {
                let ax: f64 = (0..self.m).map(|j| self.at(i, j) * x[j]).sum();
                ax - self.at(i, self.m)
            })
            .collect()
    }

    /// Solves by Gaussian elimination with partial pivoting. Returns
    /// `None` when a pivot collapses (singular system).
    pub fn solve(&self) -> Option<Vec<f64>> {
        let m = self.m;
        let w = m + 1;
        let mut a = self.a.clone();
        for k in 0..m {
            // Partial pivoting: the serial/scalar step of the algorithm.
            let pivot_row = (k..m)
                .max_by(|&i, &j| {
                    a[i * w + k].abs().partial_cmp(&a[j * w + k].abs()).expect("finite")
                })
                .expect("nonempty range");
            if a[pivot_row * w + k].abs() < 1e-300 {
                return None;
            }
            if pivot_row != k {
                for j in 0..w {
                    a.swap(k * w + j, pivot_row * w + j);
                }
            }
            // Elimination: the data-parallel bulk of the work.
            let pivot = a[k * w + k];
            for i in k + 1..m {
                let factor = a[i * w + k] / pivot;
                if factor == 0.0 {
                    continue;
                }
                a[i * w + k] = 0.0;
                for j in k + 1..w {
                    a[i * w + j] -= factor * a[k * w + j];
                }
            }
        }
        // Back substitution.
        let mut x = vec![0.0; m];
        for k in (0..m).rev() {
            let mut s = a[k * w + m];
            for j in k + 1..m {
                s -= a[k * w + j] * x[j];
            }
            x[k] = s / a[k * w + k];
        }
        Some(x)
    }
}

/// Total floating-point operations for elimination plus back substitution
/// on an `m × (m+1)` system: `≈ 2m³/3 + 3m²/2`.
pub(crate) fn flops(m: u64) -> u64 {
    (2 * m * m * m) / 3 + (3 * m * m) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::num::{f64_from_u64, f64_from_usize};

    /// A well-conditioned random-ish test system of size `m`, filled from
    /// a deterministic recurrence with a dominant diagonal.
    fn test_system(m: usize) -> Augmented {
        let mut a = vec![0.0; m * (m + 1)];
        let mut s = 0x9e37_79b9_u64;
        for i in 0..m {
            for j in 0..=m {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let v = (f64_from_u64(s >> 33) / f64_from_u64(1 << 31)) - 1.0; // [-1, 1)
                a[i * (m + 1) + j] = v;
            }
            // Diagonal dominance keeps the system well conditioned.
            a[i * (m + 1) + i] += f64_from_usize(m);
        }
        Augmented { m, a }
    }

    #[test]
    fn solves_known_system() {
        // x + y = 3, 2x - y = 0  =>  x = 1, y = 2.
        let sys = Augmented::from_rows(&[vec![1.0, 1.0, 3.0], vec![2.0, -1.0, 0.0]]);
        let x = sys.solve().unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // Leading zero forces a row swap.
        let sys = Augmented::from_rows(&[vec![0.0, 1.0, 2.0], vec![1.0, 0.0, 3.0]]);
        let x = sys.solve().unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_system_detected() {
        let sys = Augmented::from_rows(&[vec![1.0, 2.0, 3.0], vec![2.0, 4.0, 6.0]]);
        assert!(sys.solve().is_none());
    }

    #[test]
    fn random_systems_have_tiny_residuals() {
        for m in [5usize, 20, 100] {
            let sys = test_system(m);
            let x = sys.solve().expect("well-conditioned system");
            let r = sys.residual(&x);
            let max = r.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
            assert!(max < 1e-9, "m={m}: residual {max}");
        }
    }

    #[test]
    fn flops_cubic_growth() {
        assert_eq!(flops(1), 1); // 2/3 truncates; dominated term tiny at m=1
        let f100 = flops(100);
        let f200 = flops(200);
        // Doubling m scales work by ≈ 8.
        let ratio = f200 as f64 / f100 as f64;
        assert!((ratio - 8.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "m+1")]
    fn malformed_rows_rejected() {
        Augmented::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
    }
}
