//! Planted violation: wall clock flowing into a computed value.
//! Audited as-if at `crates/linalg/src/planted.rs`.
use std::time::Instant;

pub fn jittered_tolerance(base: f64) -> f64 {
    let t0 = Instant::now(); // line 6: wall clock in a computed value
    base + t0.elapsed().as_secs_f64() * 1e-9
}
