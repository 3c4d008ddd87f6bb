// Integration-test fixture: the crate's opt-in rules cover its src/
// tree only, so the naked signature and bit access below stay silent.

pub fn helper(x: f64) -> u64 {
    x.to_bits()
}
