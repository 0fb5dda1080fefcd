//! The benchmark's only wall-clock reads.
//!
//! Every timing the benchmark reports is a difference of two [`now`]
//! readings. Clock values never flow into a computed result: solver
//! inputs depend on the seed alone.

use std::sync::OnceLock;

// audit:allow(wall-clock, process-wide epoch of the benchmark clock; timings are reported, never computed on)
static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();

/// Monotonic seconds since the first call in this process. The epoch is
/// shared by all threads, so spans from service workers line up with the
/// drain boundaries the main thread reads.
#[must_use]
pub fn now() -> f64 {
    // audit:allow(wall-clock, the one monotonic clock read behind every reported timing)
    let epoch = EPOCH.get_or_init(std::time::Instant::now);
    epoch.elapsed().as_secs_f64()
}
