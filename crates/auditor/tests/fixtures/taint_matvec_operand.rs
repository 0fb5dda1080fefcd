//! Planted: `matvec_operand` writes fabric values into its out-slice,
//! and a branch reads one of them — a convergence predicate decided on
//! the approximate datapath. The taint pass must treat the kernel as a
//! source and its last argument as the out-parameter.

pub fn leak(a: &Operand, x: &[f64]) -> f64 {
    let mut ctx = QcsContext::new(AccuracyLevel::Level2);
    let mut y = vec![0.0; x.len()];
    ctx.matvec_operand(a, x.len(), x, &mut y);
    if y[0] > 1e-10 {
        return 1.0;
    }
    0.0
}
