//! CM2 instruction-stream builders for the benchmark algorithms.
//!
//! These mirror how the CM-Fortran codes of the paper drive the machine:
//! the front-end runs scalar loop control (`Serial`), issues data-parallel
//! array operations (`Parallel`), and blocks only where a scalar result is
//! needed (`Sync`). The front-end can therefore pre-execute serial code
//! while the CM2 works — exactly the overlap behind the paper's
//! `T_cm2 = max(dcomp + didle, dserial × slowdown)` law.

use crate::costs::Cm2ProgramParams;
use hetplat::phase::{Cm2Instr, Cm2Program};

/// Gaussian elimination on an `m × (m+1)` augmented system.
///
/// Per elimination step `k` the front-end runs scalar bookkeeping and then
/// issues one data-parallel elimination over the trailing
/// `(m−k−1) × (m−k+1)` block; no scalar result is needed until the final
/// residual reduction, so the serial stream runs ahead of the CM2.
pub fn gauss_program(m: u64, p: &Cm2ProgramParams) -> Cm2Program {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "m is a matrix dimension; the capacity is only a hint"
    )]
    let mut instrs = Vec::with_capacity(2 * m as usize + 2);
    for k in 0..m {
        instrs.push(Cm2Instr::Serial(p.serial_per_step));
        let rows = m - k - 1;
        let cols = m - k + 1;
        instrs.push(Cm2Instr::Parallel(p.elim_time(rows * cols)));
    }
    // Final residual-norm reduction: the one scalar the host must wait for.
    instrs.push(Cm2Instr::Parallel(p.reduce_time(m)));
    instrs.push(Cm2Instr::Sync);
    Cm2Program::new(instrs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::SimDuration;

    #[test]
    fn gauss_program_shape() {
        let p = Cm2ProgramParams::default();
        let prog = gauss_program(10, &p);
        // 10 × (serial + parallel) + reduce + sync.
        assert_eq!(prog.instrs.len(), 22);
        assert_eq!(prog.parallel_count(), 11);
        assert_eq!(prog.serial_instr_total(), p.serial_per_step * 10);
    }

    #[test]
    fn gauss_parallel_work_scales_cubically() {
        let p = Cm2ProgramParams { instr_alpha: SimDuration::ZERO, ..Default::default() };
        let w100 = gauss_program(100, &p).parallel_total().as_secs_f64();
        let w200 = gauss_program(200, &p).parallel_total().as_secs_f64();
        assert!((w200 / w100 - 8.0).abs() < 0.4, "ratio {}", w200 / w100);
    }

    #[test]
    fn gauss_serial_scales_linearly() {
        let p = Cm2ProgramParams::default();
        let dispatch = SimDuration::from_micros(50);
        let s100 = gauss_program(100, &p).serial_total(dispatch).as_secs_f64();
        let s200 = gauss_program(200, &p).serial_total(dispatch).as_secs_f64();
        assert!((s200 / s100 - 2.0).abs() < 0.02);
    }
}
