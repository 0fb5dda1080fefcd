//! Host facts read from `/proc`: peak memory and hypervisor steal.

use std::fs;

/// `VmHWM` of this process in MiB (peak resident set size), or `None`
/// where `/proc/self/status` is unavailable.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Aggregate CPU time counters from the first line of `/proc/stat`:
/// `(steal, total)` in clock ticks.
#[must_use]
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().sum()))
}

/// Share of CPU time stolen by the hypervisor between two
/// [`cpu_ticks`] readings (0 when unavailable or no ticks elapsed).
#[must_use]
pub fn steal_frac(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
        }
        _ => 0.0,
    }
}

/// Logical CPUs of the host, for the run header only — no worker count
/// is derived from it.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
