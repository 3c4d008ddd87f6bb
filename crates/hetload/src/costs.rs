//! Workload cost models: turning operation counts into CPU demands.
//!
//! The contention model consumes *dedicated times*; these helpers convert
//! kernel operation counts (from [`crate::kernels`]) into front-end and
//! CM2 demands using per-machine effective rates. The rates are "effective"
//! in the 1996 sense: they fold in loop overheads and, for the CM2, the
//! poor virtual-processor ratio of small arrays.

use crate::kernels::{gauss, sor};
use serde::{Deserialize, Serialize};
use simcore::num::f64_from_u64;
use simcore::time::SimDuration;

/// Effective execution rates of the platform's machines.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MachineRates {
    /// Front-end effective floating-point rate (flops/s).
    pub sun_flops: f64,
}

impl Default for MachineRates {
    fn default() -> Self {
        // A Sun 4-class workstation: ~2 Mflop/s effective.
        MachineRates { sun_flops: 2.0e6 }
    }
}

impl MachineRates {
    /// Front-end CPU demand for `flops` floating-point operations.
    pub(crate) fn sun_demand(&self, flops: u64) -> SimDuration {
        SimDuration::from_secs_f64(f64_from_u64(flops) / self.sun_flops)
    }

    /// Dedicated front-end time for `sweeps` SOR sweeps on an `m × m` grid.
    pub fn sor_sun_demand(&self, m: u64, sweeps: u64) -> SimDuration {
        self.sun_demand(sweeps * sor::flops_per_sweep(m))
    }

    /// Dedicated front-end time for Gaussian elimination on `m × (m+1)`.
    pub fn gauss_sun_demand(&self, m: u64) -> SimDuration {
        self.sun_demand(gauss::flops(m))
    }
}

/// Cost parameters of CM2 instruction streams. Each parallel instruction
/// costs `alpha + elements/rate` on the CM2 (broadcast overhead plus
/// element-wise execution).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Cm2ProgramParams {
    /// Front-end serial/scalar bookkeeping per algorithm step.
    pub serial_per_step: SimDuration,
    /// CM2 per-instruction overhead (broadcast/decode).
    pub instr_alpha: SimDuration,
    /// CM2 element rate for elimination/update instructions (elements/s).
    pub elim_rate: f64,
    /// CM2 element rate for reduction instructions (elements/s).
    pub reduce_rate: f64,
}

impl Default for Cm2ProgramParams {
    fn default() -> Self {
        Cm2ProgramParams {
            serial_per_step: SimDuration::from_millis(1),
            instr_alpha: SimDuration::from_micros(500),
            // Effective rates for the small per-step arrays of these
            // benchmarks (far below the machine's peak).
            elim_rate: 3.6e6,
            reduce_rate: 1.0e7,
        }
    }
}

impl Cm2ProgramParams {
    /// CM2 execution time for one parallel instruction over `elements`
    /// elements at `rate` elements/s.
    pub(crate) fn instr_time(&self, elements: u64, rate: f64) -> SimDuration {
        self.instr_alpha + SimDuration::from_secs_f64(f64_from_u64(elements) / rate)
    }

    /// Elimination-instruction time over `elements` elements.
    pub(crate) fn elim_time(&self, elements: u64) -> SimDuration {
        self.instr_time(elements, self.elim_rate)
    }

    /// Reduction-instruction time over `elements` elements.
    pub(crate) fn reduce_time(&self, elements: u64) -> SimDuration {
        self.instr_time(elements, self.reduce_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sun_demand_linear_in_flops() {
        let r = MachineRates::default();
        let d = r.sun_demand(2_000_000);
        assert!((d.as_secs_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sor_demand_grows_quadratically() {
        let r = MachineRates::default();
        let d100 = r.sor_sun_demand(102, 10).as_secs_f64();
        let d200 = r.sor_sun_demand(202, 10).as_secs_f64();
        assert!((d200 / d100 - 4.0).abs() < 0.01);
    }

    #[test]
    fn gauss_demand_grows_cubically() {
        let r = MachineRates::default();
        let d = r.gauss_sun_demand(100).as_secs_f64();
        let d2 = r.gauss_sun_demand(200).as_secs_f64();
        assert!((d2 / d - 8.0).abs() < 0.3);
    }

    #[test]
    fn instr_time_has_alpha_floor() {
        let p = Cm2ProgramParams::default();
        assert!(p.elim_time(0) >= p.instr_alpha);
        assert!(p.elim_time(1_000_000) > p.elim_time(1_000));
        assert!(p.reduce_time(1000) < p.elim_time(1000));
    }
}
