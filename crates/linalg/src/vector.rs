//! Vector kernels, both context-routed (approximate-capable) and exact.
//!
//! The context-routed functions are thin wrappers over the
//! [`ArithContext`] slice kernels, so a context that overrides them
//! (the fixed-point QCS context does) gets its batched fast path while
//! per-op contexts fall back to the scalar-loop defaults — with
//! bit-identical results and operation accounting either way.

use approx_arith::ArithContext;

/// Element-wise sum `x + y` on the context's datapath.
///
/// # Panics
/// Panics if the vectors have different lengths.
#[must_use]
pub fn add(ctx: &mut dyn ArithContext, x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "vector lengths must match");
    let mut out = vec![0.0; x.len()];
    ctx.add_slice(x, y, &mut out);
    out
}

/// Element-wise difference `x − y` on the context's datapath.
///
/// # Panics
/// Panics if the vectors have different lengths.
#[must_use]
pub fn sub(ctx: &mut dyn ArithContext, x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "vector lengths must match");
    let mut out = vec![0.0; x.len()];
    ctx.sub_slice(x, y, &mut out);
    out
}

/// Scale `alpha · x` on the context's datapath.
#[must_use]
pub fn scale(ctx: &mut dyn ArithContext, alpha: f64, x: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; x.len()];
    ctx.scale_slice(alpha, x, &mut out);
    out
}

/// `alpha · x + y` on the context's datapath.
///
/// # Panics
/// Panics if the vectors have different lengths.
#[must_use]
pub fn axpy(ctx: &mut dyn ArithContext, alpha: f64, x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "vector lengths must match");
    let mut out = vec![0.0; x.len()];
    ctx.axpy_slice(alpha, x, y, &mut out);
    out
}

/// Dot product on the context's datapath (delegates to
/// [`ArithContext::dot_slice`] — the same single reduction path the
/// trait's `dot` uses, so counts cannot drift between the two).
///
/// # Panics
/// Panics if the vectors have different lengths.
#[must_use]
pub fn dot(ctx: &mut dyn ArithContext, x: &[f64], y: &[f64]) -> f64 {
    ctx.dot_slice(x, y)
}

/// Accumulate `y += alpha · x` in place on the context's datapath.
///
/// # Panics
/// Panics if the vectors have different lengths.
pub fn axpy_assign(ctx: &mut dyn ArithContext, y: &mut [f64], alpha: f64, x: &[f64]) {
    assert_eq!(x.len(), y.len(), "vector lengths must match");
    ctx.axpy_assign_slice(y, alpha, x);
}

/// Exact Euclidean norm ‖x‖₂ (error-sensitive: used by convergence
/// checks and the reconfiguration criteria).
#[must_use]
pub fn norm2_exact(x: &[f64]) -> f64 {
    x.iter().map(|&a| a * a).sum::<f64>().sqrt()
}

/// Exact Euclidean distance ‖x − y‖₂.
///
/// # Panics
/// Panics if the vectors have different lengths.
#[must_use]
pub fn dist2_exact(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "vector lengths must match");
    x.iter()
        .zip(y)
        .map(|(&a, &b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt()
}

/// Exact dot product (error-sensitive path).
///
/// # Panics
/// Panics if the vectors have different lengths.
#[must_use]
pub fn dot_exact(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "vector lengths must match");
    x.iter().zip(y).map(|(&a, &b)| a * b).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use approx_arith::{EnergyProfile, ExactContext};

    fn ctx() -> ExactContext {
        ExactContext::with_profile(EnergyProfile::from_constants(
            [1.0, 2.0, 3.0, 4.0, 5.0],
            50.0,
            100.0,
        ))
    }

    #[test]
    fn add_sub_scale_roundtrip() {
        let mut c = ctx();
        let x = [1.0, -2.0, 3.5];
        let y = [0.5, 0.5, 0.5];
        let s = add(&mut c, &x, &y);
        let d = sub(&mut c, &s, &y);
        assert_eq!(d, x.to_vec());
        let twice = scale(&mut c, 2.0, &x);
        assert_eq!(twice, vec![2.0, -4.0, 7.0]);
    }

    #[test]
    fn axpy_matches_definition() {
        let mut c = ctx();
        let y = axpy(&mut c, 3.0, &[1.0, 2.0], &[10.0, 20.0]);
        assert_eq!(y, vec![13.0, 26.0]);
        let mut acc = vec![10.0, 20.0];
        axpy_assign(&mut c, &mut acc, 3.0, &[1.0, 2.0]);
        assert_eq!(acc, y);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut c = ctx();
        let mut acc = vec![0.0; 3];
        c.add_assign_slice(&mut acc, &[1.0, 2.0, 3.0]);
        c.add_assign_slice(&mut acc, &[1.0, 2.0, 3.0]);
        assert_eq!(acc, vec![2.0, 4.0, 6.0]);
        assert_eq!(c.counts().adds, 6);
    }

    #[test]
    fn exact_norms() {
        assert_eq!(norm2_exact(&[3.0, 4.0]), 5.0);
        assert_eq!(dist2_exact(&[1.0, 1.0], &[4.0, 5.0]), 5.0);
        assert_eq!(dot_exact(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(norm2_exact(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "lengths must match")]
    fn mismatched_lengths_panic() {
        let mut c = ctx();
        let _ = add(&mut c, &[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn context_ops_are_metered() {
        let mut c = ctx();
        let _ = dot(&mut c, &[1.0; 10], &[2.0; 10]);
        assert_eq!(c.counts().adds, 10);
        assert_eq!(c.counts().muls, 10);
    }
}
