//! Successive over-relaxation for Laplace's equation.
//!
//! One of the paper's two validation benchmarks. The kernel is a real
//! red-black SOR solver on an `m × m` grid; its operation counts feed the
//! cost models that parameterize the simulated workloads (the paper's SOR
//! was CM-Fortran; the asymptotics — Θ(m²) work per sweep — are what the
//! contention model consumes).

use simcore::num::f64_from_usize;

/// Red-black SOR solver for ∇²u = 0 on the unit square with Dirichlet
/// boundary conditions.
#[derive(Debug, Clone)]
pub struct SorGrid {
    m: usize,
    /// Row-major `m × m` values, boundaries included.
    u: Vec<f64>,
    omega: f64,
}

impl SorGrid {
    /// An `m × m` grid (`m ≥ 3`) with `u = 1` on the top edge and `0`
    /// elsewhere, using the near-optimal relaxation factor for Laplace.
    pub fn new(m: usize) -> Self {
        assert!(m >= 3, "grid must be at least 3×3");
        let mut u = vec![0.0; m * m];
        // Top edge (row 0) held at u = 1.
        u[..m].fill(1.0);
        // Optimal ω for the 5-point Laplacian on an m×m grid.
        let rho = (std::f64::consts::PI / f64_from_usize(m - 1)).cos();
        let omega = 2.0 / (1.0 + (1.0 - rho * rho).sqrt());
        SorGrid { m, u, omega }
    }

    /// Grid side length.
    pub fn size(&self) -> usize {
        self.m
    }

    /// Value at `(row, col)`.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.u[row * self.m + col]
    }

    /// One red-black sweep (both colors). Returns the largest absolute
    /// update applied.
    pub fn sweep(&mut self) -> f64 {
        let mut max_delta: f64 = 0.0;
        for color in 0..2 {
            for row in 1..self.m - 1 {
                let start_col = 1 + (row + color) % 2;
                let mut col = start_col;
                while col < self.m - 1 {
                    let idx = row * self.m + col;
                    let neighbors = self.u[idx - 1]
                        + self.u[idx + 1]
                        + self.u[idx - self.m]
                        + self.u[idx + self.m];
                    let gs = 0.25 * neighbors;
                    let delta = self.omega * (gs - self.u[idx]);
                    self.u[idx] += delta;
                    max_delta = max_delta.max(delta.abs());
                    col += 2;
                }
            }
        }
        max_delta
    }

    /// Sweeps until the largest update falls below `tol` or `max_sweeps`
    /// is reached; returns the sweeps executed.
    pub fn solve(&mut self, tol: f64, max_sweeps: usize) -> usize {
        for i in 1..=max_sweeps {
            if self.sweep() < tol {
                return i;
            }
        }
        max_sweeps
    }

    /// Residual ‖∇²u‖∞ over interior points.
    pub fn residual(&self) -> f64 {
        let mut r: f64 = 0.0;
        for row in 1..self.m - 1 {
            for col in 1..self.m - 1 {
                let idx = row * self.m + col;
                let lap =
                    self.u[idx - 1] + self.u[idx + 1] + self.u[idx - self.m] + self.u[idx + self.m]
                        - 4.0 * self.u[idx];
                r = r.max(lap.abs());
            }
        }
        r
    }
}

/// Floating-point operations per red-black sweep of an `m × m` grid
/// (≈ 6 per interior point: 3 adds, a scale, a subtract, an AXPY).
pub(crate) fn flops_per_sweep(m: u64) -> u64 {
    let interior = m.saturating_sub(2);
    6 * interior * interior
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_on_small_grid() {
        let mut g = SorGrid::new(17);
        let sweeps = g.solve(1e-10, 10_000);
        assert!(sweeps < 10_000, "did not converge ({sweeps} sweeps)");
        assert!(g.residual() < 1e-8, "residual {}", g.residual());
    }

    #[test]
    fn solution_is_bounded_by_boundary_values() {
        let mut g = SorGrid::new(17);
        g.solve(1e-10, 10_000);
        for row in 0..17 {
            for col in 0..17 {
                let v = g.get(row, col);
                assert!((-1e-9..=1.0 + 1e-9).contains(&v), "u[{row}][{col}] = {v}");
            }
        }
    }

    #[test]
    fn solution_symmetric_in_columns() {
        // The boundary condition is symmetric about the vertical midline.
        let mut g = SorGrid::new(33);
        g.solve(1e-12, 20_000);
        for row in 1..32 {
            for col in 1..16 {
                let a = g.get(row, col);
                let b = g.get(row, 32 - col);
                assert!((a - b).abs() < 1e-7, "asymmetry at ({row},{col}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn sor_beats_gauss_seidel_iteration_count() {
        // ω > 1 must converge in fewer sweeps than plain Gauss–Seidel.
        let mut sor = SorGrid::new(33);
        let sor_sweeps = sor.solve(1e-8, 50_000);
        let mut gs = SorGrid::new(33);
        gs.omega = 1.0;
        let gs_sweeps = gs.solve(1e-8, 50_000);
        assert!(sor_sweeps * 2 < gs_sweeps, "SOR {sor_sweeps} sweeps vs GS {gs_sweeps}");
    }

    #[test]
    fn omega_in_valid_range() {
        for m in [3usize, 10, 100, 1000] {
            let g = SorGrid::new(m);
            assert!((1.0..2.0).contains(&g.omega), "omega {}", g.omega);
        }
    }

    #[test]
    fn flop_count_scales_quadratically() {
        assert_eq!(flops_per_sweep(3), 6);
        assert_eq!(flops_per_sweep(102), 6 * 100 * 100);
    }

    #[test]
    #[should_panic(expected = "3×3")]
    fn tiny_grid_rejected() {
        SorGrid::new(2);
    }
}
