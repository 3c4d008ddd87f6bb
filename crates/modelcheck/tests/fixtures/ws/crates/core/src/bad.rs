// Seeded violations; this tree is only ever scanned by the modelcheck tests.

pub fn naked(x: f64) -> f64 {
    x
}

/// Documented, but reads the bit pattern outside units.rs.
pub fn bits(x: Seconds) -> u64 {
    x.get().to_bits()
}

/// The allow above the signature covers only the rule it names.
// modelcheck-allow: naked-f64 — fixture: the bit access is the target here
pub fn raw(x: f64) -> u64 { x.to_bits() }

/// The escape hatch suppresses the named rule on the annotated line.
pub fn allowed(x: Seconds) -> u64 {
    x.get().to_bits() // modelcheck-allow: float-env — fixture
}
