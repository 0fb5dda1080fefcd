//! Property tests for the batched slice kernels.
//!
//! The contract of [`ArithContext`]'s slice kernels is that an override
//! is an *optimization*, never a semantic change: for every fixed-point
//! format, low-part policy, accuracy level and input slice, the batched
//! kernel must produce bit-identical values, identical [`OpCounts`] and
//! bit-identical metered energy to the scalar-loop trait defaults.
//!
//! [`ScalarPath`] wraps a context and deliberately does **not** forward
//! the slice kernels, so it always exercises the trait defaults — making
//! it the executable specification these tests compare against.

use approx_arith::rng::Pcg32;
use approx_arith::{
    AccuracyLevel, ArithContext, EnergyProfile, LowPartPolicy, OpCounts, Operand, QFormat,
    QcsAdder, QcsContext, ScalarPath,
};

fn profile() -> EnergyProfile {
    EnergyProfile::from_constants([1.0, 2.0, 3.0, 4.0, 5.0], 50.0, 100.0)
}

/// One hardware configuration under test.
#[derive(Clone, Copy)]
struct Config {
    format: QFormat,
    approx_bits: [u32; 4],
    policy: LowPartPolicy,
}

impl Config {
    fn label(&self) -> String {
        format!("{} {:?} {:?}", self.format, self.approx_bits, self.policy)
    }
}

/// The format sweep: sub-32-bit (16- and 8-bit), narrow (32-bit),
/// default (48-bit) and wide (64-bit, where raw values exceed f64's 2⁵³
/// integer range and the kernels must requantize between fused
/// operations), each under both low-part policies.
fn configs() -> Vec<Config> {
    let mut out = Vec::new();
    for policy in [LowPartPolicy::Zero, LowPartPolicy::Or] {
        out.push(Config {
            format: QFormat::new(16, 8),
            approx_bits: [10, 7, 4, 2],
            policy,
        });
        out.push(Config {
            format: QFormat::new(8, 3),
            approx_bits: [5, 3, 2, 1],
            policy,
        });
        out.push(Config {
            format: QFormat::Q15_16,
            approx_bits: [20, 15, 10, 5],
            policy,
        });
        out.push(Config {
            format: QFormat::Q31_16,
            approx_bits: [20, 15, 10, 5],
            policy,
        });
        out.push(Config {
            format: QFormat::Q31_32,
            approx_bits: [36, 24, 12, 6],
            policy,
        });
    }
    out
}

/// Two contexts with identical hardware: the real one (batched kernels)
/// and the scalar-loop reference.
fn context_pair(cfg: Config, level: AccuracyLevel) -> (QcsContext, ScalarPath<QcsContext>) {
    let make = || {
        let adder = QcsAdder::with_policy(cfg.format.width(), cfg.approx_bits, cfg.policy);
        let mut ctx = QcsContext::new(adder, cfg.format, profile());
        ctx.set_level(level);
        ctx
    };
    (make(), ScalarPath::new(make()))
}

fn random_slice(rng: &mut Pcg32, n: usize, span: f64) -> Vec<f64> {
    (0..n)
        .map(|_| {
            // Mix in exact zeros and sub-resolution values so the
            // kernels see degenerate inputs, not just generic ones.
            match rng.next_u32() % 16 {
                0 => 0.0,
                1 => rng.uniform(-1e-7, 1e-7),
                _ => rng.uniform(-span, span),
            }
        })
        .collect()
}

/// Value span that keeps most (not all) inputs inside the format's
/// range — saturation still occurs occasionally, which both paths must
/// handle identically.
fn span_for(format: QFormat) -> f64 {
    format.max_value() / 64.0
}

fn assert_values_match(fast: &[f64], slow: &[f64], what: &str) {
    assert_eq!(fast.len(), slow.len(), "{what}: length");
    for (i, (a, b)) in fast.iter().zip(slow).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: element {i} differs: batched {a} vs scalar {b}"
        );
    }
}

fn assert_meters_match(fast: &QcsContext, slow: &ScalarPath<QcsContext>, what: &str) {
    let (fc, sc): (OpCounts, OpCounts) = (fast.counts(), slow.counts());
    assert_eq!(fc, sc, "{what}: op counts diverge");
    assert_eq!(
        fast.approx_energy().to_bits(),
        slow.approx_energy().to_bits(),
        "{what}: approximate energy diverges"
    );
    assert_eq!(
        fast.total_energy().to_bits(),
        slow.total_energy().to_bits(),
        "{what}: total energy diverges"
    );
}

const SIZES: [usize; 6] = [0, 1, 2, 3, 17, 64];

/// Reduction lengths that cross the kernels' 256-element block and
/// leave a remainder after the reductions' 4-lane unroll.
const LONG: [usize; 3] = [255, 257, 1031];

/// Run `op` against both contexts for every config × level × size and
/// compare values and meters.
fn check_kernel(
    name: &str,
    op: impl FnMut(&mut dyn ArithContext, &mut Pcg32, usize, f64) -> Vec<f64>,
) {
    check_kernel_sizes(name, &SIZES, op);
}

/// [`check_kernel`] over an explicit list of sizes.
fn check_kernel_sizes(
    name: &str,
    sizes: &[usize],
    mut op: impl FnMut(&mut dyn ArithContext, &mut Pcg32, usize, f64) -> Vec<f64>,
) {
    for cfg in configs() {
        for level in AccuracyLevel::ALL {
            let (mut fast, mut slow) = context_pair(cfg, level);
            for &n in sizes {
                let what = format!("{name} [{} {level:?} n={n}]", cfg.label());
                // Identical streams drive both paths.
                let seed = 0xA11C_E000 + n as u64;
                let mut rng_fast = Pcg32::seeded(seed, 1);
                let mut rng_slow = Pcg32::seeded(seed, 1);
                let span = span_for(cfg.format);
                let out_fast = op(&mut fast, &mut rng_fast, n, span);
                let out_slow = op(&mut slow, &mut rng_slow, n, span);
                assert_values_match(&out_fast, &out_slow, &what);
                assert_meters_match(&fast, &slow, &what);
            }
        }
    }
}

#[test]
fn add_slice_matches_scalar_default() {
    check_kernel("add_slice", |ctx, rng, n, span| {
        let xs = random_slice(rng, n, span);
        let ys = random_slice(rng, n, span);
        let mut out = vec![0.0; n];
        ctx.add_slice(&xs, &ys, &mut out);
        out
    });
}

#[test]
fn sub_slice_matches_scalar_default() {
    check_kernel("sub_slice", |ctx, rng, n, span| {
        let xs = random_slice(rng, n, span);
        let ys = random_slice(rng, n, span);
        let mut out = vec![0.0; n];
        ctx.sub_slice(&xs, &ys, &mut out);
        out
    });
}

#[test]
fn scale_slice_matches_scalar_default() {
    check_kernel("scale_slice", |ctx, rng, n, span| {
        let alpha = rng.uniform(-4.0, 4.0);
        let xs = random_slice(rng, n, span);
        let mut out = vec![0.0; n];
        ctx.scale_slice(alpha, &xs, &mut out);
        out
    });
}

#[test]
fn axpy_slice_matches_scalar_default() {
    check_kernel("axpy_slice", |ctx, rng, n, span| {
        let alpha = rng.uniform(-4.0, 4.0);
        let xs = random_slice(rng, n, span);
        let ys = random_slice(rng, n, span);
        let mut out = vec![0.0; n];
        ctx.axpy_slice(alpha, &xs, &ys, &mut out);
        out
    });
}

#[test]
fn add_assign_slice_matches_scalar_default() {
    check_kernel("add_assign_slice", |ctx, rng, n, span| {
        let xs = random_slice(rng, n, span);
        let mut ys = random_slice(rng, n, span);
        ctx.add_assign_slice(&mut ys, &xs);
        ys
    });
}

#[test]
fn axpy_assign_slice_matches_scalar_default() {
    check_kernel("axpy_assign_slice", |ctx, rng, n, span| {
        let alpha = rng.uniform(-4.0, 4.0);
        let xs = random_slice(rng, n, span);
        let mut ys = random_slice(rng, n, span);
        ctx.axpy_assign_slice(&mut ys, alpha, &xs);
        ys
    });
}

#[test]
fn dot_slice_matches_scalar_default() {
    check_kernel("dot_slice", |ctx, rng, n, span| {
        // Keep the running reduction inside range: a dot product sums
        // n quantized products, so shrink the operand span with n.
        let span = span / (n.max(1) as f64).sqrt();
        let xs = random_slice(rng, n, span);
        let ys = random_slice(rng, n, span);
        vec![ctx.dot_slice(&xs, &ys)]
    });
}

/// `matvec_slice` over `rows`, then `matvec_operand` over the same rows
/// twice: on the same `x`, then on a fresh vector, so the second call
/// reads the cached words under a new bound. All three outputs, in
/// order.
fn matvec_kernels(
    ctx: &mut dyn ArithContext,
    rng: &mut Pcg32,
    rows: Vec<f64>,
    cols: usize,
    span: f64,
) -> Vec<f64> {
    let n = rows.len() / cols;
    let x = random_slice(rng, cols, span);
    let mut out = vec![0.0; 3 * n];
    let (sliced, cached) = out.split_at_mut(n);
    let (first, second) = cached.split_at_mut(n);
    ctx.matvec_slice(&rows, cols, &x, sliced);
    let rows = Operand::new(rows);
    ctx.matvec_operand(&rows, cols, &x, first);
    let x = random_slice(rng, cols, span);
    ctx.matvec_operand(&rows, cols, &x, second);
    out
}

#[test]
fn matvec_slice_matches_scalar_default() {
    check_kernel("matvec_slice+operand", |ctx, rng, n, span| {
        // n rows × 7 columns; span shrinks with the reduction length.
        let cols = 7;
        let span = span / (cols as f64).sqrt();
        let rows = random_slice(rng, n * cols, span);
        matvec_kernels(ctx, rng, rows, cols, span)
    });
}

/// Dense widths around the short-row batching (`256 / cols` rows share
/// one conversion block) and every remainder of the fold's four lanes.
const MATVEC_COLS: [usize; 6] = [1, 3, 4, 10, 128, 256];

/// Row counts that leave a partially filled conversion block at those
/// widths (10 columns: 25 rows fill a block exactly, 26 and 53 do not).
const MATVEC_ROWS: [usize; 4] = [1, 25, 26, 53];

#[test]
fn matvec_slice_matches_scalar_default_across_widths() {
    for cols in MATVEC_COLS {
        let name = format!("matvec_slice+operand cols={cols}");
        check_kernel_sizes(&name, &MATVEC_ROWS, |ctx, rng, n, span| {
            let span = span / (cols as f64).sqrt();
            let rows = random_slice(rng, n * cols, span);
            matvec_kernels(ctx, rng, rows, cols, span)
        });
    }
}

#[test]
fn spmv_slice_matches_scalar_default() {
    check_kernel("spmv_slice", |ctx, rng, n, span| {
        // n rows × 9 columns with roughly half the entries stored
        // (including occasional explicit zeros); span shrinks with the
        // worst-case reduction length.
        let cols = 9;
        let span = span / (cols as f64).sqrt();
        let mut values = Vec::new();
        let mut col_idx = Vec::new();
        let mut row_ptr = vec![0usize];
        for _ in 0..n {
            for j in 0..cols {
                if rng.next_u32() % 2 == 0 {
                    values.push(if rng.next_u32() % 16 == 0 {
                        0.0
                    } else {
                        rng.uniform(-span, span)
                    });
                    col_idx.push(j);
                }
            }
            row_ptr.push(values.len());
        }
        let x = random_slice(rng, cols, span);
        let mut out = vec![0.0; n];
        ctx.spmv_slice(&values, &col_idx, &row_ptr, &x, &mut out);
        out
    });
}

// Long reductions run on full-span operands: products saturate and the
// running sums wrap now and then, which the folded reductions must
// reproduce exactly.

#[test]
fn dot_slice_long_reductions_match_scalar_default() {
    check_kernel_sizes("dot_slice", &LONG, |ctx, rng, n, span| {
        let xs = random_slice(rng, n, span);
        let ys = random_slice(rng, n, span);
        vec![ctx.dot_slice(&xs, &ys)]
    });
}

#[test]
fn sum_slice_long_reductions_match_scalar_default() {
    check_kernel_sizes("sum_slice", &LONG, |ctx, rng, n, span| {
        let xs = random_slice(rng, n, span);
        vec![ctx.sum_slice(&xs)]
    });
}

#[test]
fn matvec_slice_long_rows_match_scalar_default() {
    check_kernel_sizes("matvec_slice+operand", &LONG, |ctx, rng, n, span| {
        // 3 rows × n columns.
        let rows = random_slice(rng, 3 * n, span);
        matvec_kernels(ctx, rng, rows, n, span)
    });
}

#[test]
fn spmv_slice_long_rows_match_scalar_default() {
    check_kernel_sizes("spmv_slice", &LONG, |ctx, rng, n, span| {
        // 2 rows with n stored entries each, visiting the columns in a
        // scrambled order (7 is coprime to every length in LONG) so the
        // gather of x is not sequential.
        let values = random_slice(rng, 2 * n, span);
        let col_idx: Vec<usize> = (0..2 * n).map(|k| (k % n) * 7 % n).collect();
        let row_ptr = [0, n, 2 * n];
        let x = random_slice(rng, n, span);
        let mut out = vec![0.0; 2];
        ctx.spmv_slice(&values, &col_idx, &row_ptr, &x, &mut out);
        out
    });
}

#[test]
fn reductions_that_wrap_the_word_match_scalar_default() {
    // Every term is positive and three of them already sum past the
    // format's maximum: the w-bit running sum must wrap, on the folded
    // path exactly as on the serial add chain.
    for cfg in configs() {
        let big = 0.4 * cfg.format.max_value();
        for level in AccuracyLevel::ALL {
            let (mut fast, mut slow) = context_pair(cfg, level);
            for n in [3, 257] {
                let what = format!("wrap [{} {level:?} n={n}]", cfg.label());
                let xs = vec![big; n];
                let roots = vec![big.sqrt(); n];
                let rows = roots.repeat(2);
                let q = |v: f64| cfg.format.quantize(v);
                assert!(xs.iter().map(|&x| q(x)).sum::<f64>() > cfg.format.max_value());
                assert!(n as f64 * q(q(big.sqrt()) * q(big.sqrt())) > cfg.format.max_value());
                let run = |ctx: &mut dyn ArithContext| {
                    let mut out = vec![ctx.sum_slice(&xs), ctx.dot_slice(&roots, &roots)];
                    let mut mv = [0.0; 2];
                    ctx.matvec_slice(&rows, n, &roots, &mut mv);
                    out.extend(mv);
                    out
                };
                assert_values_match(&run(&mut fast), &run(&mut slow), &what);
                assert_meters_match(&fast, &slow, &what);
            }
        }
    }
}

#[test]
fn sum_slice_matches_scalar_default() {
    check_kernel("sum_slice", |ctx, rng, n, span| {
        let span = span / (n.max(1) as f64);
        let xs = random_slice(rng, n, span);
        vec![ctx.sum_slice(&xs)]
    });
}

#[test]
fn scalar_reductions_delegate_to_slice_kernels() {
    // `sum` and `dot` are defined as their `_slice` counterparts — the
    // satellite fix for the old double-bookkeeping: one reduction path,
    // one meter charge.
    for cfg in configs() {
        for level in AccuracyLevel::ALL {
            let (mut a, _) = context_pair(cfg, level);
            let (mut b, _) = context_pair(cfg, level);
            let mut rng = Pcg32::seeded(99, 7);
            let xs = random_slice(&mut rng, 23, span_for(cfg.format) / 23.0);
            let ys = random_slice(&mut rng, 23, span_for(cfg.format) / 23.0);
            assert_eq!(a.dot(&xs, &ys).to_bits(), b.dot_slice(&xs, &ys).to_bits());
            assert_eq!(a.sum(&xs).to_bits(), b.sum_slice(&xs).to_bits());
            assert_eq!(a.counts(), b.counts());
            assert_eq!(
                a.total_energy().to_bits(),
                b.total_energy().to_bits(),
                "{} {level:?}",
                cfg.label()
            );
        }
    }
}

#[test]
fn interleaved_kernel_sequences_match() {
    // A realistic solver inner loop mixes kernels and scalar ops; the
    // meters and values must stay in lockstep across a whole sequence,
    // not just per call.
    for cfg in configs() {
        let (mut fast, mut slow) = context_pair(cfg, AccuracyLevel::Level2);
        let mut rng_fast = Pcg32::seeded(4242, 0);
        let mut rng_slow = Pcg32::seeded(4242, 0);
        let span = span_for(cfg.format) / 16.0;
        let drive = |ctx: &mut dyn ArithContext, rng: &mut Pcg32| -> Vec<f64> {
            let mut state = random_slice(rng, 33, span);
            for round in 0..6 {
                let other = random_slice(rng, 33, span);
                let alpha = rng.uniform(-1.5, 1.5);
                ctx.axpy_assign_slice(&mut state, alpha, &other);
                let d = ctx.dot_slice(&state, &other);
                let scalar = ctx.add(d, f64::from(round));
                let mut scaled = vec![0.0; 33];
                ctx.scale_slice(
                    ctx.datapath_format().map_or(0.5, |f| f.resolution()),
                    &state,
                    &mut scaled,
                );
                ctx.add_assign_slice(&mut state, &scaled);
                state[0] = ctx.mul(scalar, 0.25);
            }
            state
        };
        let out_fast = drive(&mut fast, &mut rng_fast);
        let out_slow = drive(&mut slow, &mut rng_slow);
        assert_values_match(&out_fast, &out_slow, &cfg.label());
        assert_meters_match(&fast, &slow, &cfg.label());
    }
}
