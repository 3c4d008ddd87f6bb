// No pragma: this crate never opted in, so only the always-on rules apply.

pub fn naked_bits(x: f64) -> f64 {
    f64::from_bits(x.to_bits())
}
