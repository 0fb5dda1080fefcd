//! Energy-accounting arithmetic contexts.
//!
//! An [`ArithContext`] is the boundary between an application's
//! error-*resilient* datapath and the hardware model: every add/sub/mul
//! the application routes through the context is (a) computed under the
//! currently selected accuracy level and (b) charged to the context's
//! energy meters. Error-*sensitive* computation (control flow,
//! convergence checks, transcendentals) stays in plain `f64` outside the
//! context, mirroring the offline resilience partitioning of Chippa et
//! al. that the paper adopts.
//!
//! # Slice kernels
//!
//! Besides the scalar operations, the trait exposes *slice kernels*
//! ([`ArithContext::add_slice`], [`ArithContext::axpy_slice`],
//! [`ArithContext::dot_slice`], …) — the granularity the solver hot
//! loops actually work at. Every kernel has a default implementation
//! that loops over the scalar ops, so third-party contexts keep working
//! unchanged; the fixed-point [`QcsContext`] overrides them with tight
//! branch-free loops over raw fixed-point words that implement each
//! accuracy level's truncation semantics directly. The contract — pinned
//! by tests in this module and by the `kernel_properties` suite — is
//! that an override is **bit-identical** to the scalar-loop default in
//! values, [`OpCounts`], and energy at every accuracy level.
//!
//! The reductions (`dot_slice`, `sum_slice` and the rows of
//! `matvec_slice`/`spmv_slice`) do not replay the QCS add chain term by
//! term on widths up to 54 bits. Its carries into the high part can be
//! deferred: the chain ends at the sum of the terms' high parts modulo
//! 2^(w−k), joined with the OR of their low bits under the OR policy.
//! One private fold computes that closed form in four independent lanes
//! for all four reductions. It reads the converted raw words as slices,
//! keeps its lanes in locals for the whole pass and picks the narrow or
//! wide multiply once per call. Wider formats requantize through `f64`
//! after every add, so their reductions stay a serial chain.
//!
//! Formats of at most 32 bits convert `f64` to raw words with the
//! magic-number rounder of [`RawConverter::to_raw_slice`], which has no
//! float→int cast and so vectorizes on baseline x86-64.
//!
//! Energy metering is *count-based*: contexts tally integer per-level
//! operation counters and compute energy lazily as
//! `Σ counts × per-op cost`. Integer counters are associative, so a
//! kernel charging `n` ops at once and a scalar loop charging `1` op
//! `n` times produce the same meter reading to the last bit — which is
//! what makes the batched and scalar paths indistinguishable to the
//! controller's energy accounting.

use crate::adder::{width_mask, AccuracyLevel};
use crate::energy::EnergyProfile;
use crate::fixed::{QFormat, RawConverter};
use crate::range::RangeConfig;
use crate::recon::{LowPartPolicy, QcsAdder};

/// Operation counters of a context.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Additions (including subtractions, which negate exactly and add).
    pub adds: u64,
    /// Multiplications.
    pub muls: u64,
    /// Divisions.
    pub divs: u64,
}

impl OpCounts {
    /// Total operations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.adds + self.muls + self.divs
    }
}

/// The arithmetic fabric an application's error-resilient part runs on.
///
/// Implementations must make `add` commutative and `sub(a, b)`
/// equivalent to `add(a, -b)` (hardware negation is exact — an inverter
/// row plus carry-in). Implementations that override the slice kernels
/// must keep them bit-identical — in values, [`OpCounts`], and energy —
/// to the scalar-loop defaults.
///
/// The trait is object-safe; applications typically take
/// `&mut dyn ArithContext`.
pub trait ArithContext {
    /// Add two values on the approximate adder fabric.
    fn add(&mut self, a: f64, b: f64) -> f64;

    /// Multiply two values (exact multiplier, fixed-point datapath).
    fn mul(&mut self, a: f64, b: f64) -> f64;

    /// Divide two values (exact sequential divider).
    fn div(&mut self, a: f64, b: f64) -> f64;

    /// Subtract via exact negation and an approximate add.
    fn sub(&mut self, a: f64, b: f64) -> f64 {
        self.add(a, -b)
    }

    /// Currently selected accuracy level.
    fn level(&self) -> AccuracyLevel;

    /// Select the accuracy level used by subsequent operations.
    fn set_level(&mut self, level: AccuracyLevel);

    /// Operation counters since the last reset.
    fn counts(&self) -> OpCounts;

    /// Energy consumed by the *approximate part* (the adder fabric) since
    /// the last reset. This is the quantity the paper's tables normalize.
    fn approx_energy(&self) -> f64;

    /// Total energy including the exact multiplier/divider.
    fn total_energy(&self) -> f64;

    /// Reset counters and energy meters (the level is preserved).
    fn reset_counters(&mut self);

    /// The fixed-point format of the hardware datapath, if this context
    /// models one. Software baselines (plain `f64`) return `None`.
    ///
    /// Decorators that corrupt or transform bit patterns use this to
    /// address the *actual* word width instead of assuming a format.
    fn datapath_format(&self) -> Option<QFormat> {
        None
    }

    /// Per-operation error model for static range analysis, if this
    /// context models a bounded-error hardware datapath. Software
    /// baselines return `None`; the QCS context returns a
    /// [`RangeConfig`] whose add slack covers the worst-case error of
    /// the *current* accuracy level.
    fn range_config(&self) -> Option<RangeConfig> {
        None
    }

    /// Element-wise `out[i] = x[i] + y[i]` on the datapath.
    ///
    /// # Panics
    /// Panics if the slice lengths differ.
    fn add_slice(&mut self, xs: &[f64], ys: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), ys.len(), "slice lengths must match");
        assert_eq!(xs.len(), out.len(), "slice lengths must match");
        for ((o, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
            *o = self.add(x, y);
        }
    }

    /// Element-wise `out[i] = x[i] − y[i]` on the datapath.
    ///
    /// # Panics
    /// Panics if the slice lengths differ.
    fn sub_slice(&mut self, xs: &[f64], ys: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), ys.len(), "slice lengths must match");
        assert_eq!(xs.len(), out.len(), "slice lengths must match");
        for ((o, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
            *o = self.sub(x, y);
        }
    }

    /// Element-wise `out[i] = alpha · x[i]` on the datapath.
    ///
    /// # Panics
    /// Panics if the slice lengths differ.
    fn scale_slice(&mut self, alpha: f64, xs: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "slice lengths must match");
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = self.mul(alpha, x);
        }
    }

    /// Element-wise `out[i] = alpha · x[i] + y[i]` on the datapath.
    ///
    /// # Panics
    /// Panics if the slice lengths differ.
    fn axpy_slice(&mut self, alpha: f64, xs: &[f64], ys: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), ys.len(), "slice lengths must match");
        assert_eq!(xs.len(), out.len(), "slice lengths must match");
        for ((o, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
            let p = self.mul(alpha, x);
            *o = self.add(p, y);
        }
    }

    /// In-place accumulation `y[i] = y[i] + x[i]` on the datapath.
    ///
    /// # Panics
    /// Panics if the slice lengths differ.
    fn add_assign_slice(&mut self, ys: &mut [f64], xs: &[f64]) {
        assert_eq!(xs.len(), ys.len(), "slice lengths must match");
        for (y, &x) in ys.iter_mut().zip(xs) {
            *y = self.add(*y, x);
        }
    }

    /// In-place accumulation `y[i] = y[i] + alpha · x[i]` on the
    /// datapath.
    ///
    /// # Panics
    /// Panics if the slice lengths differ.
    fn axpy_assign_slice(&mut self, ys: &mut [f64], alpha: f64, xs: &[f64]) {
        assert_eq!(xs.len(), ys.len(), "slice lengths must match");
        for (y, &x) in ys.iter_mut().zip(xs) {
            let p = self.mul(alpha, x);
            *y = self.add(*y, p);
        }
    }

    /// Dot product reduction `Σ x[i] · y[i]` on the datapath, folding
    /// left to right from `0.0`.
    ///
    /// This is the *single* reduction path: [`ArithContext::dot`] (and
    /// hence `linalg`'s free `dot`) delegates here, so op counts cannot
    /// drift between the trait method and the free function.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    fn dot_slice(&mut self, xs: &[f64], ys: &[f64]) -> f64 {
        assert_eq!(xs.len(), ys.len(), "dot operands must have equal length");
        let mut acc = 0.0;
        for (&x, &y) in xs.iter().zip(ys) {
            let p = self.mul(x, y);
            acc = self.add(acc, p);
        }
        acc
    }

    /// Left-to-right sum reduction of a slice from `0.0` on the
    /// datapath. [`ArithContext::sum`] delegates here.
    fn sum_slice(&mut self, xs: &[f64]) -> f64 {
        let mut acc = 0.0;
        for &x in xs {
            acc = self.add(acc, x);
        }
        acc
    }

    /// Dense row-major matrix–vector product:
    /// `out[r] = Σⱼ rows[r·cols + j] · x[j]`, each row reduced exactly
    /// like [`ArithContext::dot_slice`] (left-to-right from `0.0`).
    ///
    /// This is the one fusion opportunity per-row `dot_slice` calls
    /// cannot express: the operand `x` is shared by every row, so an
    /// override can convert it to the datapath representation once and
    /// amortize that cost over all `rows.len() / cols` reductions.
    ///
    /// # Panics
    /// Panics if `x.len() != cols` or `rows.len() != cols · out.len()`.
    fn matvec_slice(&mut self, rows: &[f64], cols: usize, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), cols, "vector length must equal column count");
        assert_eq!(rows.len(), cols * out.len(), "matrix shape mismatch");
        if cols == 0 {
            out.fill(0.0);
            return;
        }
        for (o, row) in out.iter_mut().zip(rows.chunks_exact(cols)) {
            *o = self.dot_slice(row, x);
        }
    }

    /// Sparse (CSR) matrix–vector product:
    /// `out[r] = Σ_k values[k] · x[col_idx[k]]` over the stored entries
    /// `k ∈ row_ptr[r] .. row_ptr[r+1]`, each row reduced exactly like
    /// [`ArithContext::dot_slice`] (left-to-right from `0.0`, in stored
    /// order).
    ///
    /// Only the value products and the row reductions run on the
    /// datapath. The index and row-pointer arithmetic is *exact* host
    /// arithmetic by contract — approximating an address would corrupt
    /// structure, not degrade quality, which is exactly the class of
    /// error the paper's resilience partitioning excludes (and the
    /// workspace auditor's `taint-index` rule polices).
    ///
    /// Like [`ArithContext::matvec_slice`], the operand `x` is shared by
    /// every row, so an override can convert it to the datapath
    /// representation once and amortize that cost over all stored
    /// entries.
    ///
    /// # Panics
    /// Panics if the CSR shape is inconsistent: `values` and `col_idx`
    /// must have equal length, `row_ptr` must start at 0, end at
    /// `values.len()` and have `out.len() + 1` entries. Non-monotone row
    /// pointers or column indices `≥ x.len()` panic on the out-of-bounds
    /// access itself.
    fn spmv_slice(
        &mut self,
        values: &[f64],
        col_idx: &[usize],
        row_ptr: &[usize],
        x: &[f64],
        out: &mut [f64],
    ) {
        check_csr_shape(values, col_idx, row_ptr, out.len());
        for (r, o) in out.iter_mut().enumerate() {
            let (lo, hi) = (row_ptr[r], row_ptr[r + 1]);
            let mut acc = 0.0;
            for (&a, &j) in values[lo..hi].iter().zip(&col_idx[lo..hi]) {
                let p = self.mul(a, x[j]);
                acc = self.add(acc, p);
            }
            *o = acc;
        }
    }

    /// Left-to-right sum of a slice (delegates to
    /// [`ArithContext::sum_slice`] — override that, not this).
    fn sum(&mut self, xs: &[f64]) -> f64 {
        self.sum_slice(xs)
    }

    /// Dot product (delegates to [`ArithContext::dot_slice`] — override
    /// that, not this).
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    fn dot(&mut self, xs: &[f64], ys: &[f64]) -> f64 {
        self.dot_slice(xs, ys)
    }
}

/// Shared shape validation for [`ArithContext::spmv_slice`]: `row_ptr`
/// must bracket the stored entries and `out` must have one slot per
/// row. Column bounds and row-pointer monotonicity are enforced by the
/// slice indexing inside the kernels themselves.
fn check_csr_shape(values: &[f64], col_idx: &[usize], row_ptr: &[usize], out_len: usize) {
    assert_eq!(
        values.len(),
        col_idx.len(),
        "values and col_idx lengths must match"
    );
    assert_eq!(
        row_ptr.len(),
        out_len + 1,
        "row_ptr must have one entry per row plus a terminator"
    );
    assert_eq!(row_ptr[0], 0, "row_ptr must start at 0");
    assert_eq!(
        *row_ptr.last().expect("row_ptr is non-empty"),
        values.len(),
        "row_ptr must end at the stored-entry count"
    );
}

/// The hoisted per-level add configuration of a [`QcsContext`]: the
/// level dispatch (`QcsAdder::at`) resolved once at `set_level` time so
/// the per-op and kernel paths run branch-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AddMode {
    /// Approximated low bits of the current level (0 in accurate mode).
    k: u32,
    /// `true` for [`LowPartPolicy::Or`], `false` for truncation.
    or_low: bool,
    /// Mask selecting the datapath's `width` low bits.
    mask: u64,
    /// Datapath width in bits, for sign extension and SWAR lane layout.
    w: u32,
    /// `width ≤ 54` ⇒ every raw value round-trips through `f64`
    /// exactly, so fused kernels may keep intermediates in raw form.
    exact_roundtrip: bool,
}

impl AddMode {
    fn for_level(qcs: &QcsAdder, format: QFormat, level: AccuracyLevel) -> Self {
        Self {
            k: qcs.approx_bits(level),
            or_low: qcs.policy() == LowPartPolicy::Or,
            mask: width_mask(format.width()),
            w: format.width(),
            // |raw| < 2^(width−1) is exactly representable in f64 up to
            // width 54, and the power-of-two scaling in from_raw/to_raw
            // is itself exact.
            exact_roundtrip: format.width() <= 54,
        }
    }

    /// The QCS add on pre-masked `width`-bit patterns — functionally
    /// identical to `QcsAdder::add` at the hoisted level (pinned by
    /// tests), without re-dispatching the mode per operation.
    #[inline]
    fn add_bits(self, a: u64, b: u64) -> u64 {
        let k = self.k;
        if k == 0 {
            return a.wrapping_add(b) & self.mask;
        }
        let high = (a >> k).wrapping_add(b >> k);
        if self.or_low {
            let low = (a | b) & width_mask(k);
            ((high << k) | low) & self.mask
        } else {
            (high << k) & self.mask
        }
    }

    /// Branch-free sign extension of a masked `width`-bit pattern —
    /// equal to [`QFormat::from_bits`] on pre-masked input, without the
    /// sign test.
    #[inline]
    fn sext(self, bits: u64) -> i64 {
        ((bits << (64 - self.w)) as i64) >> (64 - self.w)
    }

    /// One QCS add on raw (sign-extended) words: mask, add, re-extend.
    #[inline]
    fn add_raws(self, a: i64, b: i64) -> i64 {
        self.sext(self.add_bits(a as u64 & self.mask, b as u64 & self.mask))
    }

    /// In-place element-wise QCS add over raw words:
    /// `acc[i] = add(acc[i], ys[i])`.
    ///
    /// When two datapath words fit in a `u64` (`2·width ≤ 64`, e.g. the
    /// paper-default Q15.16), pairs of elements are packed into one word
    /// and added with carry-isolating SWAR masks, `packed.rs`-style —
    /// bit-identical to the scalar loop (pinned by tests).
    fn add_raw_slices(self, acc: &mut [i64], ys: &[i64]) {
        debug_assert_eq!(acc.len(), ys.len());
        let w = self.w;
        if 2 * w > 64 {
            for (a, &b) in acc.iter_mut().zip(ys) {
                *a = self.add_raws(*a, b);
            }
            return;
        }
        let m = self.mask;
        let k = self.k;
        let pairs = acc.len() / 2;
        if k == 0 {
            // Clearing the lane MSBs before the add confines every carry
            // chain to its own lane (each lane sum is then < 2^width);
            // the XOR restores the carry-less MSB sum afterwards.
            let h = (1u64 << (w - 1)) | (1u64 << (2 * w - 1));
            for i in 0..pairs {
                let a = (acc[2 * i] as u64 & m) | ((acc[2 * i + 1] as u64 & m) << w);
                let b = (ys[2 * i] as u64 & m) | ((ys[2 * i + 1] as u64 & m) << w);
                let s = ((a & !h).wrapping_add(b & !h)) ^ ((a ^ b) & h);
                acc[2 * i] = self.sext(s & m);
                acc[2 * i + 1] = self.sext((s >> w) & m);
            }
        } else {
            // Approximate levels: `a >> k` smears the upper lane's low
            // bits into the lower lane, so the per-lane high parts are
            // re-masked to (width − k) bits before adding. A sum of two
            // (width − k)-bit lanes needs width − k + 1 ≤ width bits, so
            // the plain add cannot carry across the lane boundary.
            let hm = (1u64 << (w - k)) - 1;
            let sm = hm | (hm << w);
            let lm = (1u64 << k) - 1;
            let km = lm | (lm << w);
            for i in 0..pairs {
                let a = (acc[2 * i] as u64 & m) | ((acc[2 * i + 1] as u64 & m) << w);
                let b = (ys[2 * i] as u64 & m) | ((ys[2 * i + 1] as u64 & m) << w);
                let hs = ((a >> k) & sm).wrapping_add((b >> k) & sm);
                let mut s = (hs & sm) << k;
                if self.or_low {
                    s |= (a | b) & km;
                }
                acc[2 * i] = self.sext(s & m);
                acc[2 * i + 1] = self.sext((s >> w) & m);
            }
        }
        if acc.len() % 2 == 1 {
            let i = acc.len() - 1;
            acc[i] = self.add_raws(acc[i], ys[i]);
        }
    }
}

/// The hoisted multiply configuration of a [`QcsContext`] kernel: the
/// datapath multiply with the format constants resolved once, plus a
/// narrow fast path that `QFormat::mul_raw` itself cannot take (the
/// scalar per-op baseline must keep its own timing characteristics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MulMode {
    format: QFormat,
    frac_bits: u32,
    half: i64,
    max_raw: i64,
    min_raw: i64,
    /// `width ≤ 32` ⇒ |raw| ≤ 2³¹, so products and the rounding bias fit
    /// in an `i64` and the kernels can skip the i128 datapath.
    narrow: bool,
}

impl MulMode {
    fn for_format(format: QFormat) -> Self {
        let w = format.width();
        let frac_bits = format.frac_bits();
        Self {
            format,
            frac_bits,
            half: if frac_bits == 0 {
                0
            } else {
                1i64 << (frac_bits - 1)
            },
            max_raw: ((1u64 << (w - 1)) - 1) as i64,
            min_raw: -1i64 << (w - 1),
            narrow: w <= 32,
        }
    }

    /// `QFormat::mul_raw`, bit-identical (pinned by tests), with the
    /// multiplication kept in `i64` when the width permits.
    #[inline]
    fn mul_raw(self, a: i64, b: i64) -> i64 {
        if self.narrow {
            self.mul_narrow(a, b)
        } else {
            self.format.mul_raw(a, b)
        }
    }

    /// The `narrow` case of [`MulMode::mul_raw`].
    #[inline(always)]
    fn mul_narrow(self, a: i64, b: i64) -> i64 {
        // Sign-magnitude rounding without a branch: `sign` is 0 or −1,
        // so `(v ^ sign) − sign` is |v| and the same map applied to the
        // rounded magnitude restores the sign. |a·b| ≤ 2⁶².
        let wide = a * b;
        let sign = wide >> 63;
        let mag = (wide ^ sign) - sign;
        let shifted = (((mag + self.half) >> self.frac_bits) ^ sign) - sign;
        shifted.clamp(self.min_raw, self.max_raw)
    }
}

/// Stack-block length for the fused kernels' batched conversions: long
/// enough to amortize loop overhead and let `to_raw_slice` vectorize,
/// small enough that the `i64`/`f64` staging arrays stay in L1 and on
/// the stack (no allocation inside parallel workers).
const BLOCK: usize = 256;

/// Fabric-op threshold below which kernels stay serial even when an
/// executor is attached: spawning scoped workers costs tens of
/// microseconds, which only pays for itself on big-`n` work.
const PAR_MIN_OPS: usize = 4096;

/// Elements per parallel chunk. Fixed — never derived from the thread
/// count — so the work attached to a chunk index is the same for every
/// executor width (parx determinism rule 1).
const PAR_CHUNK: usize = 4096;

/// `out[i] = x[i] + y[i]` over one span, block-batched.
fn add_span(cv: RawConverter, mode: AddMode, xs: &[f64], ys: &[f64], out: &mut [f64]) {
    let mut ra = [0i64; BLOCK];
    let mut rb = [0i64; BLOCK];
    for ((xc, yc), oc) in xs
        .chunks(BLOCK)
        .zip(ys.chunks(BLOCK))
        .zip(out.chunks_mut(BLOCK))
    {
        let n = xc.len();
        cv.to_raw_slice(xc, &mut ra[..n]);
        cv.to_raw_slice(yc, &mut rb[..n]);
        mode.add_raw_slices(&mut ra[..n], &rb[..n]);
        cv.from_raw_slice(&ra[..n], oc);
    }
}

/// `out[i] = x[i] − y[i]` over one span: exact negation, then the add.
fn sub_span(cv: RawConverter, mode: AddMode, xs: &[f64], ys: &[f64], out: &mut [f64]) {
    let mut ra = [0i64; BLOCK];
    let mut rb = [0i64; BLOCK];
    let mut ny = [0f64; BLOCK];
    for ((xc, yc), oc) in xs
        .chunks(BLOCK)
        .zip(ys.chunks(BLOCK))
        .zip(out.chunks_mut(BLOCK))
    {
        let n = xc.len();
        for (nv, &y) in ny[..n].iter_mut().zip(yc) {
            *nv = -y;
        }
        cv.to_raw_slice(xc, &mut ra[..n]);
        cv.to_raw_slice(&ny[..n], &mut rb[..n]);
        mode.add_raw_slices(&mut ra[..n], &rb[..n]);
        cv.from_raw_slice(&ra[..n], oc);
    }
}

/// `y[i] = y[i] + x[i]` over one span, block-batched.
fn add_assign_span(cv: RawConverter, mode: AddMode, ys: &mut [f64], xs: &[f64]) {
    let mut ra = [0i64; BLOCK];
    let mut rb = [0i64; BLOCK];
    for (yc, xc) in ys.chunks_mut(BLOCK).zip(xs.chunks(BLOCK)) {
        let n = yc.len();
        cv.to_raw_slice(yc, &mut ra[..n]);
        cv.to_raw_slice(xc, &mut rb[..n]);
        mode.add_raw_slices(&mut ra[..n], &rb[..n]);
        cv.from_raw_slice(&ra[..n], yc);
    }
}

/// `out[i] = alpha · x[i]` over one span (alpha pre-converted).
fn scale_span(cv: RawConverter, mul: MulMode, ra_alpha: i64, xs: &[f64], out: &mut [f64]) {
    let mut rx = [0i64; BLOCK];
    for (xc, oc) in xs.chunks(BLOCK).zip(out.chunks_mut(BLOCK)) {
        let n = xc.len();
        cv.to_raw_slice(xc, &mut rx[..n]);
        for r in &mut rx[..n] {
            *r = mul.mul_raw(ra_alpha, *r);
        }
        cv.from_raw_slice(&rx[..n], oc);
    }
}

/// `out[i] = alpha · x[i] + y[i]` over one span, block-batched.
fn axpy_span(
    cv: RawConverter,
    mode: AddMode,
    mul: MulMode,
    ra_alpha: i64,
    xs: &[f64],
    ys: &[f64],
    out: &mut [f64],
) {
    let mut rp = [0i64; BLOCK];
    let mut ry = [0i64; BLOCK];
    let exact = mode.exact_roundtrip;
    for ((xc, yc), oc) in xs
        .chunks(BLOCK)
        .zip(ys.chunks(BLOCK))
        .zip(out.chunks_mut(BLOCK))
    {
        let n = xc.len();
        cv.to_raw_slice(xc, &mut rp[..n]);
        cv.to_raw_slice(yc, &mut ry[..n]);
        for p in &mut rp[..n] {
            let mut v = mul.mul_raw(ra_alpha, *p);
            if !exact {
                v = cv.to_raw(cv.from_raw(v));
            }
            *p = v;
        }
        mode.add_raw_slices(&mut rp[..n], &ry[..n]);
        cv.from_raw_slice(&rp[..n], oc);
    }
}

/// `y[i] = y[i] + alpha · x[i]` over one span, block-batched. The add's
/// operand order (`y` first) matches the scalar path exactly.
fn axpy_assign_span(
    cv: RawConverter,
    mode: AddMode,
    mul: MulMode,
    ra_alpha: i64,
    ys: &mut [f64],
    xs: &[f64],
) {
    let mut ra = [0i64; BLOCK];
    let mut rb = [0i64; BLOCK];
    let exact = mode.exact_roundtrip;
    for (yc, xc) in ys.chunks_mut(BLOCK).zip(xs.chunks(BLOCK)) {
        let n = yc.len();
        cv.to_raw_slice(yc, &mut ra[..n]);
        cv.to_raw_slice(xc, &mut rb[..n]);
        for p in &mut rb[..n] {
            let mut v = mul.mul_raw(ra_alpha, *p);
            if !exact {
                v = cv.to_raw(cv.from_raw(v));
            }
            *p = v;
        }
        mode.add_raw_slices(&mut ra[..n], &rb[..n]);
        cv.from_raw_slice(&ra[..n], yc);
    }
}

/// Independent accumulator lanes of a [`Fold`]: enough to hide the
/// latency of the shifted-sum chain.
const LANES: usize = 4;

/// The QCS add chain of a reduction in closed form, on an
/// exactly-round-tripping width (≤ 54 bits).
///
/// The left fold `acc ← add_bits(acc, pᵢ & mask)` from 0 keeps its high
/// part `acc >> k` as a running sum modulo 2^(w−k) and its low `k` bits
/// as the OR of the terms' low bits (zero under truncation), so it ends
/// at `((Σᵢ (pᵢ >> k)) << k | ORᵢ(pᵢ & (2ᵏ−1))) & mask`. The
/// arithmetic shift of a sign-extended term agrees with the shift of its
/// masked pattern modulo 2^(w−k), and the sum may wrap modulo 2⁶⁴,
/// which 2^(w−k) divides — so the terms need no per-element mask, and
/// the sum and the OR split into independent lanes in any order.
///
/// Chunked reductions merge finished partials with `add_bits`, which is
/// associative and commutative with identity 0 for both low-part
/// policies by the same argument, so any chunking reproduces the serial
/// fold bit for bit. The wide (width > 54) path round-trips the
/// accumulator through `f64` after every step, which is *not*
/// associative — wide reductions therefore never fold and stay serial.
struct Fold {
    high: [i64; LANES],
    low: [u64; LANES],
}

impl Fold {
    const EMPTY: Self = Self {
        high: [0; LANES],
        low: [0; LANES],
    };

    /// Absorb the datapath products `a[i] · b[i]`.
    #[inline(always)]
    fn absorb_products(&mut self, mode: AddMode, mul: MulMode, a: &[i64], b: &[i64]) {
        // The multiply's width test runs once per call, not per term.
        if mul.narrow {
            self.absorb(mode, a, b, |x, y| mul.mul_narrow(x, y));
        } else {
            self.absorb(mode, a, b, |x, y| mul.format.mul_raw(x, y));
        }
    }

    /// Absorb the raw terms `a[i]`.
    #[inline(always)]
    fn absorb_raws(&mut self, mode: AddMode, a: &[i64]) {
        self.absorb(mode, a, a, |x, _| x);
    }

    /// Absorb the terms `term(a[i], b[i])`.
    #[inline(always)]
    fn absorb(&mut self, mode: AddMode, a: &[i64], b: &[i64], term: impl Fn(i64, i64) -> i64) {
        debug_assert_eq!(a.len(), b.len());
        // Accurate mode shifts by 0, and only the OR policy reads the
        // low bits: each case gets a loop without the dead work.
        match (mode.k, mode.or_low) {
            (0, _) => self.absorb_as::<false, false>(0, a, b, term),
            (k, false) => self.absorb_as::<true, false>(k, a, b, term),
            (k, true) => self.absorb_as::<true, true>(k, a, b, term),
        }
    }

    #[inline(always)]
    fn absorb_as<const SHIFT: bool, const OR: bool>(
        &mut self,
        k: u32,
        a: &[i64],
        b: &[i64],
        term: impl Fn(i64, i64) -> i64,
    ) {
        // The lanes live in locals for the whole pass, so they stay in
        // registers instead of round-tripping through `self`.
        let [mut h0, mut h1, mut h2, mut h3] = self.high;
        let [mut l0, mut l1, mut l2, mut l3] = self.low;
        let high = |p: i64| if SHIFT { p >> k } else { p };
        let mut ac = a.chunks_exact(LANES);
        let mut bc = b.chunks_exact(LANES);
        for (x, y) in (&mut ac).zip(&mut bc) {
            let (p0, p1) = (term(x[0], y[0]), term(x[1], y[1]));
            let (p2, p3) = (term(x[2], y[2]), term(x[3], y[3]));
            h0 = h0.wrapping_add(high(p0));
            h1 = h1.wrapping_add(high(p1));
            h2 = h2.wrapping_add(high(p2));
            h3 = h3.wrapping_add(high(p3));
            if OR {
                l0 |= p0 as u64;
                l1 |= p1 as u64;
                l2 |= p2 as u64;
                l3 |= p3 as u64;
            }
        }
        for (&x, &y) in ac.remainder().iter().zip(bc.remainder()) {
            let p = term(x, y);
            h0 = h0.wrapping_add(high(p));
            if OR {
                l0 |= p as u64;
            }
        }
        self.high = [h0, h1, h2, h3];
        self.low = [l0, l1, l2, l3];
    }

    /// The masked-bits result of the serial add chain over every term
    /// absorbed so far.
    fn bits(self, mode: AddMode) -> u64 {
        let high = self.high.iter().fold(0i64, |s, &h| s.wrapping_add(h));
        let low = if mode.or_low {
            self.low.iter().fold(0u64, |s, &l| s | l) & ((1u64 << mode.k) - 1)
        } else {
            0
        };
        (((high as u64) << mode.k) | low) & mode.mask
    }
}

/// Partial dot reduction over one span on an exactly-round-tripping
/// width, in the masked-bits domain (see [`Fold`] for why chunked
/// partials may be merged).
fn dot_span_bits(cv: RawConverter, mode: AddMode, mul: MulMode, xs: &[f64], ys: &[f64]) -> u64 {
    let mut ra = [0i64; BLOCK];
    let mut rb = [0i64; BLOCK];
    let mut fold = Fold::EMPTY;
    for (xc, yc) in xs.chunks(BLOCK).zip(ys.chunks(BLOCK)) {
        let n = xc.len();
        let (a, b) = (&mut ra[..n], &mut rb[..n]);
        cv.to_raw_slice(xc, a);
        cv.to_raw_slice(yc, b);
        fold.absorb_products(mode, mul, a, b);
    }
    fold.bits(mode)
}

/// Partial sum reduction over one span in the masked-bits domain; same
/// contract as [`dot_span_bits`].
fn sum_span_bits(cv: RawConverter, mode: AddMode, xs: &[f64]) -> u64 {
    let mut rx = [0i64; BLOCK];
    let mut fold = Fold::EMPTY;
    for xc in xs.chunks(BLOCK) {
        let r = &mut rx[..xc.len()];
        cv.to_raw_slice(xc, r);
        fold.absorb_raws(mode, r);
    }
    fold.bits(mode)
}

/// Dense rows `out[r] = Σⱼ rows[r·cols + j] · rx[j]` over one row span
/// (`rows` holds exactly `out.len()` rows). Row-partitioned parallelism
/// is safe at *any* width: each row's left-to-right reduction runs
/// intact inside one task.
fn matvec_rows(
    cv: RawConverter,
    mode: AddMode,
    mul: MulMode,
    rows: &[f64],
    cols: usize,
    rx: &[i64],
    out: &mut [f64],
) {
    let mut rr = [0i64; BLOCK];
    if mode.exact_roundtrip && cols <= BLOCK {
        // Short rows (AR's 10-column design matrix) convert several to
        // a block instead of paying one short conversion per row.
        let per = BLOCK / cols;
        let rx = &rx[..cols];
        for (oc, rc) in out.chunks_mut(per).zip(rows.chunks(per * cols)) {
            let rr = &mut rr[..rc.len()];
            cv.to_raw_slice(rc, rr);
            for (o, row) in oc.iter_mut().zip(rr.chunks_exact(cols)) {
                let mut fold = Fold::EMPTY;
                fold.absorb_products(mode, mul, row, rx);
                *o = cv.from_raw(mode.sext(fold.bits(mode)));
            }
        }
    } else if mode.exact_roundtrip {
        for (o, row) in out.iter_mut().zip(rows.chunks_exact(cols)) {
            let mut fold = Fold::EMPTY;
            for (rc, xc) in row.chunks(BLOCK).zip(rx.chunks(BLOCK)) {
                let a = &mut rr[..rc.len()];
                cv.to_raw_slice(rc, a);
                fold.absorb_products(mode, mul, a, xc);
            }
            *o = cv.from_raw(mode.sext(fold.bits(mode)));
        }
    } else {
        for (o, row) in out.iter_mut().zip(rows.chunks_exact(cols)) {
            let mut acc: i64 = 0;
            for (rc, xc) in row.chunks(BLOCK).zip(rx.chunks(BLOCK)) {
                let n = rc.len();
                cv.to_raw_slice(rc, &mut rr[..n]);
                for (&a, &bx) in rr[..n].iter().zip(xc) {
                    let p = cv.to_raw(cv.from_raw(mul.mul_raw(a, bx)));
                    let bits = mode.add_bits(acc as u64 & mode.mask, p as u64 & mode.mask);
                    acc = cv.to_raw(cv.from_raw(mode.sext(bits)));
                }
            }
            *o = cv.from_raw(acc);
        }
    }
}

/// CSR rows `row_offset .. row_offset + out.len()` of the sparse
/// product (same row-partitioned contract as [`matvec_rows`]).
#[allow(clippy::too_many_arguments)]
fn spmv_rows(
    cv: RawConverter,
    mode: AddMode,
    mul: MulMode,
    values: &[f64],
    col_idx: &[usize],
    row_ptr: &[usize],
    rx: &[i64],
    row_offset: usize,
    out: &mut [f64],
) {
    let mut rv = [0i64; BLOCK];
    let mut gx = [0i64; BLOCK];
    for (i, o) in out.iter_mut().enumerate() {
        let r = row_offset + i;
        let (lo, hi) = (row_ptr[r], row_ptr[r + 1]);
        if mode.exact_roundtrip {
            let mut fold = Fold::EMPTY;
            for (vc, jc) in values[lo..hi]
                .chunks(BLOCK)
                .zip(col_idx[lo..hi].chunks(BLOCK))
            {
                let n = vc.len();
                let (a, g) = (&mut rv[..n], &mut gx[..n]);
                cv.to_raw_slice(vc, a);
                for (g, &j) in g.iter_mut().zip(jc) {
                    *g = rx[j];
                }
                fold.absorb_products(mode, mul, a, g);
            }
            *o = cv.from_raw(mode.sext(fold.bits(mode)));
        } else {
            let mut acc: i64 = 0;
            for (vc, jc) in values[lo..hi]
                .chunks(BLOCK)
                .zip(col_idx[lo..hi].chunks(BLOCK))
            {
                let n = vc.len();
                cv.to_raw_slice(vc, &mut rv[..n]);
                for (&a, &j) in rv[..n].iter().zip(jc) {
                    let p = cv.to_raw(cv.from_raw(mul.mul_raw(a, rx[j])));
                    let bits = mode.add_bits(acc as u64 & mode.mask, p as u64 & mode.mask);
                    acc = cv.to_raw(cv.from_raw(mode.sext(bits)));
                }
            }
            *o = cv.from_raw(acc);
        }
    }
}

/// Context for the quality-configurable datapath: fixed-point arithmetic
/// with the [`QcsAdder`] at a selectable accuracy level, plus energy and
/// operation accounting.
///
/// *Every* mode — including `Accurate` — runs on the same fixed-point
/// datapath: operands are quantized to the context's [`QFormat`] and the
/// add is performed by the QCS adder at the selected level. The accurate
/// mode differs only in that the full carry chain is enabled, exactly
/// like the hardware. A consequence worth internalizing: iterative
/// methods on this datapath converge by *freezing* — once an update
/// falls below the fixed-point resolution the state reproduces itself
/// bit-exactly — which is why the paper can use convergence tolerances
/// (e.g. 10⁻¹³) far below the datapath resolution.
///
/// The slice kernels are overridden with raw-word loops that convert
/// once per slice, hoist the level dispatch, and charge the meters in
/// one integer bump — bit-identical to the scalar path but several times
/// faster (perfbench's `approx_arith` layer times them). When an operand
/// trace is being recorded the kernels fall back to the per-op path so
/// the trace stays exactly what the scalar semantics would record.
///
/// # Example
///
/// ```
/// use approx_arith::{AccuracyLevel, ArithContext, QcsContext};
///
/// let mut ctx = QcsContext::with_paper_defaults();
/// let exact = ctx.add(0.125, 0.25);
/// assert_eq!(exact, 0.375); // representable in Q15.16: exact
///
/// ctx.set_level(AccuracyLevel::Level1);
/// let approx = ctx.add(0.125, 0.25);
/// // Level 1 mangles the low 20 bits — the result is off but bounded.
/// assert!((approx - 0.375).abs() < 32.0);
/// assert!(ctx.approx_energy() > 0.0);
///
/// // Slice kernels: one call, n ops' worth of results and accounting.
/// let mut out = [0.0; 3];
/// ctx.add_slice(&[1.0, 2.0, 3.0], &[0.5, 0.5, 0.5], &mut out);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QcsContext {
    qcs: QcsAdder,
    format: QFormat,
    profile: EnergyProfile,
    level: AccuracyLevel,
    mode: AddMode,
    mul_mode: MulMode,
    /// Deterministic executor for big-`n` kernels; `None` keeps every
    /// kernel serial (the default).
    par: Option<parx::Executor>,
    /// Adds tallied per accuracy level (indexed by
    /// [`AccuracyLevel::index`]); energy is derived lazily from these.
    add_counts: [u64; 5],
    muls: u64,
    divs: u64,
    trace: Option<Trace>,
}

#[derive(Debug, Clone, PartialEq)]
struct Trace {
    capacity: usize,
    pairs: Vec<(u64, u64)>,
}

impl QcsContext {
    /// Create a context over an explicit adder, format, and energy
    /// profile. The initial level is `Accurate`.
    ///
    /// # Panics
    /// Panics if the adder and format widths differ.
    #[must_use]
    pub fn new(qcs: QcsAdder, format: QFormat, profile: EnergyProfile) -> Self {
        assert_eq!(
            qcs.width(),
            format.width(),
            "adder width and fixed-point width must match"
        );
        let level = AccuracyLevel::Accurate;
        Self {
            qcs,
            format,
            profile,
            level,
            mode: AddMode::for_level(&qcs, format, level),
            mul_mode: MulMode::for_format(format),
            par: None,
            add_counts: [0; 5],
            muls: 0,
            divs: 0,
            trace: None,
        }
    }

    /// The configuration used throughout the reproduction:
    /// [`QcsAdder::paper_default`], [`QFormat::Q15_16`], and a freshly
    /// characterized [`EnergyProfile`].
    #[must_use]
    pub fn with_paper_defaults() -> Self {
        Self::new(
            QcsAdder::paper_default(),
            QFormat::Q15_16,
            EnergyProfile::paper_default(),
        )
    }

    /// Like [`QcsContext::with_paper_defaults`] but reusing an
    /// already-characterized profile (characterization simulates gate
    /// netlists; share it across contexts).
    #[must_use]
    pub fn with_profile(profile: EnergyProfile) -> Self {
        Self::new(QcsAdder::paper_default(), QFormat::Q15_16, profile)
    }

    /// The fixed-point format of the datapath.
    #[must_use]
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// The underlying QCS adder.
    #[must_use]
    pub fn adder(&self) -> &QcsAdder {
        &self.qcs
    }

    /// The energy profile in use.
    #[must_use]
    pub fn profile(&self) -> &EnergyProfile {
        &self.profile
    }

    /// Attach a deterministic executor: big-`n` kernels split their
    /// work across its workers. Element-wise ops and the row-partitioned
    /// matvec/spmv parallelize at any width; the dot/sum reductions
    /// chunk only on exactly-round-tripping widths (≤ 54 bits), where
    /// the QCS add's associativity makes chunked partials reproduce the
    /// serial fold bit for bit. Values, [`OpCounts`], and energy are
    /// bit-identical for every thread count — `with_threads(1)` is the
    /// reference the parallel-identity tests compare against.
    #[must_use]
    pub fn with_executor(mut self, exec: parx::Executor) -> Self {
        self.par = Some(exec);
        self
    }

    /// Replace (or remove, with `None`) the attached executor.
    pub fn set_executor(&mut self, exec: Option<parx::Executor>) {
        self.par = exec;
    }

    /// The attached executor, if any.
    #[must_use]
    pub fn executor(&self) -> Option<parx::Executor> {
        self.par
    }

    /// The executor to use for a kernel performing `fabric_ops`
    /// operations, when parallel execution would actually pay.
    #[inline]
    fn par_exec(&self, fabric_ops: usize) -> Option<parx::Executor> {
        self.par
            .filter(|e| e.threads() > 1 && fabric_ops >= PAR_MIN_OPS)
    }

    /// Start recording the operand bit patterns of approximate adds into
    /// a bounded trace (for trace-driven characterization). Recording
    /// stops silently once `capacity` pairs are stored.
    pub fn record_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace {
            capacity,
            pairs: Vec::with_capacity(capacity.min(4096)),
        });
    }

    /// The recorded operand trace, if recording was enabled.
    #[must_use]
    pub fn trace(&self) -> Option<&[(u64, u64)]> {
        self.trace.as_ref().map(|t| t.pairs.as_slice())
    }
}

impl ArithContext for QcsContext {
    #[inline]
    fn add(&mut self, a: f64, b: f64) -> f64 {
        self.add_counts[self.level.index()] += 1;
        let ba = self.format.to_bits(self.format.to_raw(a));
        let bb = self.format.to_bits(self.format.to_raw(b));
        if let Some(trace) = &mut self.trace {
            if trace.pairs.len() < trace.capacity {
                trace.pairs.push((ba, bb));
            }
        }
        let bits = self.mode.add_bits(ba, bb);
        self.format.from_raw(self.format.from_bits(bits))
    }

    #[inline]
    fn mul(&mut self, a: f64, b: f64) -> f64 {
        self.muls += 1;
        let ra = self.format.to_raw(a);
        let rb = self.format.to_raw(b);
        self.format.from_raw(self.format.mul_raw(ra, rb))
    }

    fn div(&mut self, a: f64, b: f64) -> f64 {
        self.divs += 1;
        // The sequential shift-subtract divider is built from the same
        // QCS adder, so its quotient inherits the level's approximation:
        // with the truncation policy the low `approx_bits` quotient bits
        // are never produced and the result lands on the level's coarse
        // grid.
        let qa = self.format.quantize(a);
        let qb = self.format.quantize(b);
        let raw = self.format.to_raw(qa / qb);
        let snapped = if self.mode.k > 0 && !self.mode.or_low {
            let bits = self.format.to_bits(raw);
            self.format.from_bits(bits & !width_mask(self.mode.k))
        } else {
            raw
        };
        self.format.from_raw(snapped)
    }

    fn level(&self) -> AccuracyLevel {
        self.level
    }

    fn set_level(&mut self, level: AccuracyLevel) {
        self.level = level;
        self.mode = AddMode::for_level(&self.qcs, self.format, level);
    }

    fn counts(&self) -> OpCounts {
        OpCounts {
            adds: self.add_counts.iter().sum(),
            muls: self.muls,
            divs: self.divs,
        }
    }

    fn approx_energy(&self) -> f64 {
        let mut energy = 0.0;
        for level in AccuracyLevel::ALL {
            energy += self.add_counts[level.index()] as f64 * self.profile.add_energy(level);
        }
        energy
    }

    fn total_energy(&self) -> f64 {
        self.approx_energy()
            + self.muls as f64 * self.profile.mul_energy()
            + self.divs as f64 * self.profile.div_energy()
    }

    fn reset_counters(&mut self) {
        self.add_counts = [0; 5];
        self.muls = 0;
        self.divs = 0;
        if let Some(trace) = &mut self.trace {
            trace.pairs.clear();
        }
    }

    fn datapath_format(&self) -> Option<QFormat> {
        Some(self.format)
    }

    fn range_config(&self) -> Option<RangeConfig> {
        Some(RangeConfig::for_qcs(&self.qcs, self.level, self.format))
    }

    fn add_slice(&mut self, xs: &[f64], ys: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), ys.len(), "slice lengths must match");
        assert_eq!(xs.len(), out.len(), "slice lengths must match");
        if self.trace.is_some() {
            for ((o, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
                *o = self.add(x, y);
            }
            return;
        }
        self.add_counts[self.level.index()] += xs.len() as u64;
        let cv = self.format.converter();
        let mode = self.mode;
        if let Some(exec) = self.par_exec(xs.len()) {
            exec.for_each_chunk(out, PAR_CHUNK, |ci, oc| {
                let s = ci * PAR_CHUNK;
                add_span(cv, mode, &xs[s..s + oc.len()], &ys[s..s + oc.len()], oc);
            });
        } else {
            add_span(cv, mode, xs, ys, out);
        }
    }

    fn sub_slice(&mut self, xs: &[f64], ys: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), ys.len(), "slice lengths must match");
        assert_eq!(xs.len(), out.len(), "slice lengths must match");
        if self.trace.is_some() {
            for ((o, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
                *o = self.sub(x, y);
            }
            return;
        }
        self.add_counts[self.level.index()] += xs.len() as u64;
        let cv = self.format.converter();
        let mode = self.mode;
        if let Some(exec) = self.par_exec(xs.len()) {
            exec.for_each_chunk(out, PAR_CHUNK, |ci, oc| {
                let s = ci * PAR_CHUNK;
                sub_span(cv, mode, &xs[s..s + oc.len()], &ys[s..s + oc.len()], oc);
            });
        } else {
            sub_span(cv, mode, xs, ys, out);
        }
    }

    fn scale_slice(&mut self, alpha: f64, xs: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "slice lengths must match");
        self.muls += xs.len() as u64;
        let cv = self.format.converter();
        let mul = self.mul_mode;
        let ra = cv.to_raw(alpha);
        if let Some(exec) = self.par_exec(xs.len()) {
            exec.for_each_chunk(out, PAR_CHUNK, |ci, oc| {
                let s = ci * PAR_CHUNK;
                scale_span(cv, mul, ra, &xs[s..s + oc.len()], oc);
            });
        } else {
            scale_span(cv, mul, ra, xs, out);
        }
    }

    fn axpy_slice(&mut self, alpha: f64, xs: &[f64], ys: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), ys.len(), "slice lengths must match");
        assert_eq!(xs.len(), out.len(), "slice lengths must match");
        if self.trace.is_some() {
            for ((o, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
                let p = self.mul(alpha, x);
                *o = self.add(p, y);
            }
            return;
        }
        self.muls += xs.len() as u64;
        self.add_counts[self.level.index()] += xs.len() as u64;
        let cv = self.format.converter();
        let mode = self.mode;
        let mul = self.mul_mode;
        let ra = cv.to_raw(alpha);
        if let Some(exec) = self.par_exec(xs.len()) {
            exec.for_each_chunk(out, PAR_CHUNK, |ci, oc| {
                let s = ci * PAR_CHUNK;
                axpy_span(
                    cv,
                    mode,
                    mul,
                    ra,
                    &xs[s..s + oc.len()],
                    &ys[s..s + oc.len()],
                    oc,
                );
            });
        } else {
            axpy_span(cv, mode, mul, ra, xs, ys, out);
        }
    }

    fn add_assign_slice(&mut self, ys: &mut [f64], xs: &[f64]) {
        assert_eq!(xs.len(), ys.len(), "slice lengths must match");
        if self.trace.is_some() {
            for (y, &x) in ys.iter_mut().zip(xs) {
                *y = self.add(*y, x);
            }
            return;
        }
        self.add_counts[self.level.index()] += xs.len() as u64;
        let cv = self.format.converter();
        let mode = self.mode;
        if let Some(exec) = self.par_exec(xs.len()) {
            exec.for_each_chunk(ys, PAR_CHUNK, |ci, yc| {
                let s = ci * PAR_CHUNK;
                add_assign_span(cv, mode, yc, &xs[s..s + yc.len()]);
            });
        } else {
            add_assign_span(cv, mode, ys, xs);
        }
    }

    fn axpy_assign_slice(&mut self, ys: &mut [f64], alpha: f64, xs: &[f64]) {
        assert_eq!(xs.len(), ys.len(), "slice lengths must match");
        if self.trace.is_some() {
            for (y, &x) in ys.iter_mut().zip(xs) {
                let p = self.mul(alpha, x);
                *y = self.add(*y, p);
            }
            return;
        }
        self.muls += xs.len() as u64;
        self.add_counts[self.level.index()] += xs.len() as u64;
        let cv = self.format.converter();
        let mode = self.mode;
        let mul = self.mul_mode;
        let ra = cv.to_raw(alpha);
        if let Some(exec) = self.par_exec(xs.len()) {
            exec.for_each_chunk(ys, PAR_CHUNK, |ci, yc| {
                let s = ci * PAR_CHUNK;
                axpy_assign_span(cv, mode, mul, ra, yc, &xs[s..s + yc.len()]);
            });
        } else {
            axpy_assign_span(cv, mode, mul, ra, ys, xs);
        }
    }

    fn dot_slice(&mut self, xs: &[f64], ys: &[f64]) -> f64 {
        assert_eq!(xs.len(), ys.len(), "dot operands must have equal length");
        if self.trace.is_some() {
            let mut acc = 0.0;
            for (&x, &y) in xs.iter().zip(ys) {
                let p = self.mul(x, y);
                acc = self.add(acc, p);
            }
            return acc;
        }
        self.muls += xs.len() as u64;
        self.add_counts[self.level.index()] += xs.len() as u64;
        let cv = self.format.converter();
        let mode = self.mode;
        let mul = self.mul_mode;
        if mode.exact_roundtrip {
            // The bits→raw→f64→raw→bits round-trip between fused ops is
            // the identity here, so the accumulator never has to leave
            // the masked-bits domain — and the bits-domain add is
            // associative (see `Fold`), so the reduction may be
            // chunked across workers and merged in chunk order.
            let acc_bits = if let Some(exec) = self.par_exec(xs.len()) {
                let partials = exec.map_chunks(xs.len() as u64, PAR_CHUNK as u64, |s, e| {
                    let (s, e) = (s as usize, e as usize);
                    dot_span_bits(cv, mode, mul, &xs[s..e], &ys[s..e])
                });
                partials
                    .into_iter()
                    .fold(0u64, |acc, p| mode.add_bits(acc, p))
            } else {
                dot_span_bits(cv, mode, mul, xs, ys)
            };
            cv.from_raw(mode.sext(acc_bits))
        } else {
            // Wide path: the per-step f64 round-trip is not associative,
            // so the fold stays serial (block-batched conversions only).
            let mut ra = [0i64; BLOCK];
            let mut rb = [0i64; BLOCK];
            let mut acc: i64 = 0;
            for (xc, yc) in xs.chunks(BLOCK).zip(ys.chunks(BLOCK)) {
                let n = xc.len();
                cv.to_raw_slice(xc, &mut ra[..n]);
                cv.to_raw_slice(yc, &mut rb[..n]);
                for (&a, &b) in ra[..n].iter().zip(&rb[..n]) {
                    let p = cv.to_raw(cv.from_raw(mul.mul_raw(a, b)));
                    let bits = mode.add_bits(acc as u64 & mode.mask, p as u64 & mode.mask);
                    acc = cv.to_raw(cv.from_raw(mode.sext(bits)));
                }
            }
            cv.from_raw(acc)
        }
    }

    fn matvec_slice(&mut self, rows: &[f64], cols: usize, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), cols, "vector length must equal column count");
        assert_eq!(rows.len(), cols * out.len(), "matrix shape mismatch");
        if cols == 0 {
            out.fill(0.0);
            return;
        }
        if self.trace.is_some() {
            for (o, row) in out.iter_mut().zip(rows.chunks_exact(cols)) {
                *o = self.dot_slice(row, x);
            }
            return;
        }
        let n = rows.len() as u64;
        self.muls += n;
        self.add_counts[self.level.index()] += n;
        let cv = self.format.converter();
        let mode = self.mode;
        let mul = self.mul_mode;
        // The shared vector is converted exactly once; every row's
        // reduction then reuses the raw words.
        let mut rx = vec![0i64; x.len()];
        cv.to_raw_slice(x, &mut rx);
        if let Some(exec) = self.par_exec(rows.len()) {
            // Row-partitioned: each chunk of output rows is one task, so
            // every row's reduction runs intact inside a single worker —
            // safe at any width. Rows per chunk depend only on the shape.
            let rpc = (PAR_CHUNK / cols).max(1);
            exec.for_each_chunk(out, rpc, |ci, oc| {
                let r0 = ci * rpc;
                let span = &rows[r0 * cols..(r0 + oc.len()) * cols];
                matvec_rows(cv, mode, mul, span, cols, &rx, oc);
            });
        } else {
            matvec_rows(cv, mode, mul, rows, cols, &rx, out);
        }
    }

    fn spmv_slice(
        &mut self,
        values: &[f64],
        col_idx: &[usize],
        row_ptr: &[usize],
        x: &[f64],
        out: &mut [f64],
    ) {
        check_csr_shape(values, col_idx, row_ptr, out.len());
        if self.trace.is_some() {
            for (r, o) in out.iter_mut().enumerate() {
                let (lo, hi) = (row_ptr[r], row_ptr[r + 1]);
                let mut acc = 0.0;
                for (&a, &j) in values[lo..hi].iter().zip(&col_idx[lo..hi]) {
                    let p = self.mul(a, x[j]);
                    acc = self.add(acc, p);
                }
                *o = acc;
            }
            return;
        }
        let nnz = values.len() as u64;
        self.muls += nnz;
        self.add_counts[self.level.index()] += nnz;
        let cv = self.format.converter();
        let mode = self.mode;
        let mul = self.mul_mode;
        // The shared vector is converted exactly once; every stored
        // entry's product then reuses the raw words. (Gathering x[j] is
        // exact index arithmetic — only the product and the reduction
        // touch the fabric.)
        let mut rx = vec![0i64; x.len()];
        cv.to_raw_slice(x, &mut rx);
        if let Some(exec) = self.par_exec(values.len()) {
            // Row-partitioned like matvec: rows per chunk derive from
            // the mean stored entries per row — a function of the matrix
            // only, so the chunking (and hence every row's task) is the
            // same for every thread count.
            let mean_nnz = (values.len() / out.len().max(1)).max(1);
            let rpc = (PAR_CHUNK / mean_nnz).max(1);
            exec.for_each_chunk(out, rpc, |ci, oc| {
                spmv_rows(cv, mode, mul, values, col_idx, row_ptr, &rx, ci * rpc, oc);
            });
        } else {
            spmv_rows(cv, mode, mul, values, col_idx, row_ptr, &rx, 0, out);
        }
    }

    fn sum_slice(&mut self, xs: &[f64]) -> f64 {
        if self.trace.is_some() {
            let mut acc = 0.0;
            for &x in xs {
                acc = self.add(acc, x);
            }
            return acc;
        }
        self.add_counts[self.level.index()] += xs.len() as u64;
        let cv = self.format.converter();
        let mode = self.mode;
        if mode.exact_roundtrip {
            // Same chunked-reduction contract as `dot_slice`.
            let acc_bits = if let Some(exec) = self.par_exec(xs.len()) {
                let partials = exec.map_chunks(xs.len() as u64, PAR_CHUNK as u64, |s, e| {
                    sum_span_bits(cv, mode, &xs[s as usize..e as usize])
                });
                partials
                    .into_iter()
                    .fold(0u64, |acc, p| mode.add_bits(acc, p))
            } else {
                sum_span_bits(cv, mode, xs)
            };
            cv.from_raw(mode.sext(acc_bits))
        } else {
            let mut rx = [0i64; BLOCK];
            let mut acc: i64 = 0;
            for xc in xs.chunks(BLOCK) {
                let n = xc.len();
                cv.to_raw_slice(xc, &mut rx[..n]);
                for &r in &rx[..n] {
                    let bits = mode.add_bits(acc as u64 & mode.mask, r as u64 & mode.mask);
                    acc = cv.to_raw(cv.from_raw(mode.sext(bits)));
                }
            }
            cv.from_raw(acc)
        }
    }
}

/// A wrapper that forces every slice kernel of `C` through the per-op
/// scalar defaults, while delegating the scalar ops and meters.
///
/// This is the reference the batched kernels are pinned against: for any
/// inner context, `ScalarPath<C>` computes the exact values, counts, and
/// energy the pre-kernel per-op code path produced. The kernel property
/// tests compare the overrides to it bit for bit, and the
/// parallel-identity tests do the same on whole solves.
///
/// # Example
///
/// ```
/// use approx_arith::{ArithContext, QcsContext, ScalarPath};
///
/// let mut fast = QcsContext::with_paper_defaults();
/// let mut slow = ScalarPath::new(fast.clone());
/// let x = [1.5, 2.5, 3.5];
/// let y = [0.25, 0.5, 0.75];
/// assert_eq!(fast.dot_slice(&x, &y), slow.dot_slice(&x, &y));
/// assert_eq!(fast.counts(), slow.counts());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarPath<C> {
    inner: C,
}

impl<C: ArithContext> ScalarPath<C> {
    /// Wrap a context so slice kernels take the scalar-loop defaults.
    #[must_use]
    pub fn new(inner: C) -> Self {
        Self { inner }
    }

    /// The wrapped context.
    #[must_use]
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Unwrap the context.
    #[must_use]
    pub fn into_inner(self) -> C {
        self.inner
    }
}

impl<C: ArithContext> ArithContext for ScalarPath<C> {
    #[inline]
    fn add(&mut self, a: f64, b: f64) -> f64 {
        self.inner.add(a, b)
    }

    #[inline]
    fn mul(&mut self, a: f64, b: f64) -> f64 {
        self.inner.mul(a, b)
    }

    #[inline]
    fn div(&mut self, a: f64, b: f64) -> f64 {
        self.inner.div(a, b)
    }

    #[inline]
    fn sub(&mut self, a: f64, b: f64) -> f64 {
        self.inner.sub(a, b)
    }

    fn level(&self) -> AccuracyLevel {
        self.inner.level()
    }

    fn set_level(&mut self, level: AccuracyLevel) {
        self.inner.set_level(level);
    }

    fn counts(&self) -> OpCounts {
        self.inner.counts()
    }

    fn approx_energy(&self) -> f64 {
        self.inner.approx_energy()
    }

    fn total_energy(&self) -> f64 {
        self.inner.total_energy()
    }

    fn reset_counters(&mut self) {
        self.inner.reset_counters();
    }

    fn datapath_format(&self) -> Option<QFormat> {
        self.inner.datapath_format()
    }

    fn range_config(&self) -> Option<RangeConfig> {
        self.inner.range_config()
    }

    // Slice kernels intentionally NOT overridden: they run the trait
    // defaults, which loop over the delegated scalar ops.
}

/// An idealized infinite-precision (`f64`) context with accurate-mode
/// energy accounting.
///
/// This is a *software* baseline for tests and reference solutions
/// (e.g. normal equations) — it is **not** the paper's `Truth` hardware,
/// which is the fixed-point [`QcsContext`] in `Accurate` mode. It
/// refuses level changes, so baseline runs cannot accidentally be
/// degraded.
///
/// It keeps the default (scalar-loop) slice kernels: `f64` adds are a
/// single instruction, so there is nothing for a batched override to
/// save, and one code path means one set of semantics to trust.
///
/// # Example
///
/// ```
/// use approx_arith::{ArithContext, ExactContext};
///
/// let mut ctx = ExactContext::new();
/// assert_eq!(ctx.dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// assert_eq!(ctx.counts().muls, 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExactContext {
    profile: EnergyProfile,
    counts: OpCounts,
    approx_energy: f64,
    other_energy: f64,
}

impl ExactContext {
    /// Create an exact context with a freshly characterized paper-default
    /// energy profile.
    #[must_use]
    pub fn new() -> Self {
        Self::with_profile(EnergyProfile::paper_default())
    }

    /// Create an exact context reusing an existing profile.
    #[must_use]
    pub fn with_profile(profile: EnergyProfile) -> Self {
        Self {
            profile,
            counts: OpCounts::default(),
            approx_energy: 0.0,
            other_energy: 0.0,
        }
    }
}

impl Default for ExactContext {
    fn default() -> Self {
        Self::new()
    }
}

impl ArithContext for ExactContext {
    #[inline]
    fn add(&mut self, a: f64, b: f64) -> f64 {
        self.counts.adds += 1;
        self.approx_energy += self.profile.add_energy(AccuracyLevel::Accurate);
        a + b
    }

    #[inline]
    fn mul(&mut self, a: f64, b: f64) -> f64 {
        self.counts.muls += 1;
        self.other_energy += self.profile.mul_energy();
        a * b
    }

    #[inline]
    fn div(&mut self, a: f64, b: f64) -> f64 {
        self.counts.divs += 1;
        self.other_energy += self.profile.div_energy();
        a / b
    }

    fn level(&self) -> AccuracyLevel {
        AccuracyLevel::Accurate
    }

    /// # Panics
    /// Panics if `level` is not `Accurate` — exact baselines must not be
    /// silently degraded.
    fn set_level(&mut self, level: AccuracyLevel) {
        assert!(
            level.is_accurate(),
            "ExactContext cannot run at approximate level {level}"
        );
    }

    fn counts(&self) -> OpCounts {
        self.counts
    }

    fn approx_energy(&self) -> f64 {
        self.approx_energy
    }

    fn total_energy(&self) -> f64 {
        self.approx_energy + self.other_energy
    }

    fn reset_counters(&mut self) {
        self.counts = OpCounts::default();
        self.approx_energy = 0.0;
        self.other_energy = 0.0;
    }
}

/// Explicitly endorse a fabric-derived value for exact-only consumption
/// (the EnerJ-style `endorse` cast).
///
/// ApproxIt's control plane — quality metrics, convergence predicates,
/// controller decisions — must depend only on exact values; the static
/// taint audit (`auditor::taint`) enforces that boundary. Where the
/// *design* deliberately reads approximate state (the runner measuring
/// an iterate to decide its fate, a solver detecting a degenerate
/// search direction), the read is wrapped in `endorse` to make the
/// crossing explicit, reviewable, and greppable. The function itself is
/// the identity: endorsement is a statement of intent, not a
/// computation.
#[inline]
#[must_use]
pub fn endorse<T>(value: T) -> T {
    value
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_profile() -> EnergyProfile {
        EnergyProfile::from_constants([1.0, 2.0, 3.0, 4.0, 5.0], 50.0, 100.0)
    }

    fn test_ctx() -> QcsContext {
        QcsContext::new(QcsAdder::paper_default(), QFormat::Q15_16, test_profile())
    }

    #[test]
    fn accurate_mode_is_exact_on_representable_values() {
        let mut ctx = test_ctx();
        assert_eq!(ctx.add(0.125, 0.25), 0.375);
        assert_eq!(ctx.mul(1.5, -2.5), -3.75);
        assert_eq!(ctx.div(3.0, 2.0), 1.5);
    }

    #[test]
    fn accurate_mode_quantizes_to_the_datapath() {
        // The accurate mode is still fixed-point hardware: results are
        // quantized to Q31.16, so 0.1 + 0.2 is *close to* but not equal
        // to the f64 sum.
        let mut ctx = test_ctx();
        let got = ctx.add(0.1, 0.2);
        assert!((got - 0.3).abs() <= QFormat::Q15_16.resolution());
        assert_eq!(got, QFormat::Q15_16.quantize(got)); // representable
    }

    #[test]
    fn sub_is_add_of_negation() {
        let mut ctx = test_ctx();
        ctx.set_level(AccuracyLevel::Level3);
        let s = ctx.sub(1.5, 0.75);
        ctx.set_level(AccuracyLevel::Level3);
        let a = ctx.add(1.5, -0.75);
        assert_eq!(s, a);
    }

    #[test]
    fn energy_accrues_per_level() {
        let mut ctx = test_ctx();
        ctx.add(1.0, 1.0); // accurate: 5.0
        ctx.set_level(AccuracyLevel::Level1);
        ctx.add(1.0, 1.0); // level1: 1.0
        assert_eq!(ctx.approx_energy(), 6.0);
        assert_eq!(ctx.counts().adds, 2);
        ctx.mul(2.0, 2.0);
        assert_eq!(ctx.total_energy(), 56.0);
        assert_eq!(ctx.approx_energy(), 6.0); // muls don't touch the approx meter
    }

    #[test]
    fn reset_preserves_level() {
        let mut ctx = test_ctx();
        ctx.set_level(AccuracyLevel::Level2);
        ctx.add(1.0, 2.0);
        ctx.reset_counters();
        assert_eq!(ctx.counts(), OpCounts::default());
        assert_eq!(ctx.approx_energy(), 0.0);
        assert_eq!(ctx.level(), AccuracyLevel::Level2);
    }

    #[test]
    fn hoisted_add_mode_matches_adder_dispatch() {
        // The per-op fast path (AddMode) must agree with QcsAdder::add's
        // per-call dispatch for every level and policy.
        for policy in [LowPartPolicy::Zero, LowPartPolicy::Or] {
            let qcs = QcsAdder::with_policy(32, [20, 15, 10, 5], policy);
            let mut rng = crate::rng::Pcg32::seeded(41, 7);
            for level in AccuracyLevel::ALL {
                let mode = AddMode::for_level(&qcs, QFormat::Q15_16, level);
                for _ in 0..200 {
                    let a = rng.next_u64() & mode.mask;
                    let b = rng.next_u64() & mode.mask;
                    assert_eq!(
                        mode.add_bits(a, b),
                        qcs.add(a, b, level),
                        "policy {policy:?} level {level}"
                    );
                }
            }
        }
    }

    #[test]
    fn mul_mode_matches_format_mul_raw() {
        // The narrow (i64-only) kernel multiply must agree with the
        // i128 datapath multiply everywhere, including the saturation
        // boundaries and integer formats (frac_bits = 0), which shift
        // nothing out and so must not round.
        for fmt in [
            QFormat::Q15_16,
            QFormat::new(32, 0),
            QFormat::new(20, 7),
            QFormat::new(8, 3),
            QFormat::Q31_16,
            QFormat::Q31_32,
        ] {
            let mul = MulMode::for_format(fmt);
            let cv = fmt.converter();
            let max = cv.to_raw(f64::INFINITY);
            let min = cv.to_raw(f64::NEG_INFINITY);
            for (a, b) in [(max, max), (max, min), (min, min), (0, max), (1, -1)] {
                assert_eq!(mul.mul_raw(a, b), fmt.mul_raw(a, b), "{fmt} ({a}, {b})");
            }
            let mut rng = crate::rng::Pcg32::seeded(97, fmt.width() as u64);
            for _ in 0..5_000 {
                let a = cv.to_raw(rng.uniform(fmt.min_value(), fmt.max_value()));
                let b = cv.to_raw(rng.uniform(fmt.min_value(), fmt.max_value()));
                assert_eq!(mul.mul_raw(a, b), fmt.mul_raw(a, b), "{fmt} ({a}, {b})");
            }
        }
    }

    #[test]
    fn integer_formats_multiply_exactly_on_every_path() {
        let fmt = QFormat::new(16, 0);
        let mut ctx = QcsContext::new(QcsAdder::new(16, [10, 7, 4, 2]), fmt, test_profile());
        assert_eq!(ctx.mul(6.0, 7.0), 42.0);
        assert_eq!(ctx.mul(0.0, 7.0), 0.0);
        assert_eq!(ctx.mul(-6.0, 7.0), -42.0);
        assert_eq!(ctx.mul(300.0, 300.0), 32_767.0);
        assert_eq!(ctx.mul(-300.0, 300.0), -32_768.0);
        let mut out = [0.0; 3];
        ctx.scale_slice(7.0, &[6.0, -6.0, 5000.0], &mut out);
        assert_eq!(out, [42.0, -42.0, 32_767.0]);
        assert_eq!(ctx.dot_slice(&[6.0, 2.0], &[7.0, 3.0]), 48.0);
        let mul = MulMode::for_format(fmt);
        assert_eq!(mul.mul_raw(6, 7), 42);
        assert_eq!(mul.mul_raw(0, 7), 0);
        assert_eq!(mul.mul_raw(-182, 181), -32_768);
    }

    #[test]
    fn fold_closed_form_matches_serial_add_chain() {
        // The lane-split closed form must equal the serial
        // `add_bits(acc, p & mask)` chain for arbitrary raw words —
        // sign-extended in-range terms and full 64-bit garbage alike —
        // at every level, for both policies, on every fold width.
        for w in [8u32, 16, 32, 48, 54] {
            let fmt = QFormat::new(w, w / 2);
            for policy in [LowPartPolicy::Zero, LowPartPolicy::Or] {
                let qcs = QcsAdder::with_policy(w, [w * 5 / 8, w / 2, w / 4, w / 8], policy);
                let mut rng = crate::rng::Pcg32::seeded(61, u64::from(w));
                for level in AccuracyLevel::ALL {
                    let mode = AddMode::for_level(&qcs, fmt, level);
                    for n in [0usize, 1, 3, 4, 5, 8, 255, 257, 1031] {
                        let terms: Vec<i64> = (0..n)
                            .map(|i| {
                                let r = rng.next_u64();
                                if i % 2 == 0 {
                                    mode.sext(r & mode.mask)
                                } else {
                                    r as i64
                                }
                            })
                            .collect();
                        let serial = terms
                            .iter()
                            .fold(0u64, |acc, &p| mode.add_bits(acc, p as u64 & mode.mask));
                        let mut fold = Fold::EMPTY;
                        fold.absorb_raws(mode, &terms);
                        assert_eq!(fold.bits(mode), serial, "w={w} {policy:?} {level} n={n}");
                        // Absorbing in pieces is the same fold.
                        let mut pieces = Fold::EMPTY;
                        for part in terms.chunks(7) {
                            pieces.absorb_raws(mode, part);
                        }
                        assert_eq!(pieces.bits(mode), serial, "w={w} {policy:?} {level} n={n}");
                    }
                }
            }
        }
    }

    #[test]
    fn swar_packed_add_matches_scalar_adds() {
        // The two-lane SWAR path must agree with the element-wise QCS
        // add for every level and policy, including the odd-length tail.
        for policy in [LowPartPolicy::Zero, LowPartPolicy::Or] {
            for fmt in [QFormat::Q15_16, QFormat::new(24, 8), QFormat::new(8, 3)] {
                let w = fmt.width();
                let qcs = QcsAdder::with_policy(
                    w,
                    [(w * 5 / 8).min(w), w / 2, w / 4, (w / 8).max(1)],
                    policy,
                );
                let mut rng = crate::rng::Pcg32::seeded(23, u64::from(w));
                for level in AccuracyLevel::ALL {
                    let mode = AddMode::for_level(&qcs, fmt, level);
                    for len in [1usize, 2, 7, 64] {
                        let xs: Vec<i64> = (0..len)
                            .map(|_| mode.sext(rng.next_u64() & mode.mask))
                            .collect();
                        let ys: Vec<i64> = (0..len)
                            .map(|_| mode.sext(rng.next_u64() & mode.mask))
                            .collect();
                        let mut got = xs.clone();
                        mode.add_raw_slices(&mut got, &ys);
                        for i in 0..len {
                            let want = mode.add_raws(xs[i], ys[i]);
                            assert_eq!(got[i], want, "{fmt} {policy:?} {level} len={len} i={i}");
                            // And both agree with the adder's own dispatch.
                            let ref_bits =
                                qcs.add(xs[i] as u64 & mode.mask, ys[i] as u64 & mode.mask, level);
                            assert_eq!(got[i], mode.sext(ref_bits));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn executor_attached_kernels_stay_bit_identical() {
        // In-module smoke pin; the cross-format sweep lives in
        // tests/parallel_identity.rs. n is above PAR_MIN_OPS so the
        // parallel path actually engages.
        let n = PAR_MIN_OPS + 513;
        let mut rng = crate::rng::Pcg32::seeded(5, 1);
        let xs: Vec<f64> = (0..n).map(|_| rng.uniform(-100.0, 100.0)).collect();
        let ys: Vec<f64> = (0..n).map(|_| rng.uniform(-100.0, 100.0)).collect();
        let mut serial = test_ctx();
        let mut par = test_ctx().with_executor(parx::Executor::with_threads(3));
        serial.set_level(AccuracyLevel::Level2);
        par.set_level(AccuracyLevel::Level2);
        let mut o1 = vec![0.0; n];
        let mut o2 = vec![0.0; n];
        serial.add_slice(&xs, &ys, &mut o1);
        par.add_slice(&xs, &ys, &mut o2);
        assert_eq!(o1, o2);
        serial.axpy_slice(1.5, &xs, &ys, &mut o1);
        par.axpy_slice(1.5, &xs, &ys, &mut o2);
        assert_eq!(o1, o2);
        assert_eq!(
            serial.dot_slice(&xs, &ys).to_bits(),
            par.dot_slice(&xs, &ys).to_bits()
        );
        assert_eq!(
            serial.sum_slice(&xs).to_bits(),
            par.sum_slice(&xs).to_bits()
        );
        assert_eq!(serial.counts(), par.counts());
        assert_eq!(
            serial.total_energy().to_bits(),
            par.total_energy().to_bits()
        );
    }

    #[test]
    fn approximate_error_is_bounded_by_level() {
        let mut ctx = test_ctx();
        let mut worst = [0f64; 4];
        let mut rng = crate::rng::Pcg32::seeded(17, 0);
        for _ in 0..500 {
            let a = rng.uniform(-100.0, 100.0);
            let b = rng.uniform(-100.0, 100.0);
            for level in AccuracyLevel::APPROXIMATE {
                ctx.set_level(level);
                let got = ctx.add(a, b);
                worst[level.index()] = worst[level.index()].max((got - (a + b)).abs());
            }
        }
        // Error bound per level: ~2^(k - frac) value units.
        for (i, k) in [20u32, 15, 10, 5].iter().enumerate() {
            let bound = (f64::from(*k) - 16.0 + 1.0).exp2() + 1e-9;
            assert!(
                worst[i] <= bound,
                "level{} worst error {} exceeds {}",
                i + 1,
                worst[i],
                bound
            );
        }
        // And level errors shrink as accuracy rises.
        assert!(worst[0] > worst[3]);
    }

    #[test]
    fn trace_records_bit_patterns() {
        let mut ctx = test_ctx();
        ctx.record_trace(2);
        ctx.set_level(AccuracyLevel::Level2);
        ctx.add(1.0, 2.0);
        ctx.add(3.0, 4.0);
        ctx.add(5.0, 6.0); // beyond capacity: dropped
        let trace = ctx.trace().unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(
            trace[0].0,
            QFormat::Q15_16.to_bits(QFormat::Q15_16.to_raw(1.0))
        );
    }

    #[test]
    fn kernels_fall_back_to_per_op_path_while_tracing() {
        let mut ctx = test_ctx();
        ctx.record_trace(16);
        ctx.set_level(AccuracyLevel::Level3);
        let mut out = [0.0; 3];
        ctx.add_slice(&[1.0, 2.0, 3.0], &[0.5, 0.5, 0.5], &mut out);
        let _ = ctx.dot_slice(&[1.0, 2.0], &[3.0, 4.0]);
        // 3 adds from add_slice + 2 from the dot reduction.
        assert_eq!(ctx.trace().unwrap().len(), 5);
        assert_eq!(ctx.counts().adds, 5);
        assert_eq!(ctx.counts().muls, 2);
    }

    #[test]
    fn batched_kernels_match_scalar_path_counts_and_energy() {
        // A compact in-module pin of the bit-identity contract; the
        // exhaustive sweep lives in tests/kernel_properties.rs.
        let mut fast = test_ctx();
        let mut slow = ScalarPath::new(test_ctx());
        let x = [1.5, -2.25, 100.125, 0.0078125, -64.5];
        let y = [0.5, 7.75, -3.125, 2.0, 0.25];
        for level in AccuracyLevel::ALL {
            fast.set_level(level);
            slow.set_level(level);
            let mut of = [0.0; 5];
            let mut os = [0.0; 5];
            fast.add_slice(&x, &y, &mut of);
            slow.add_slice(&x, &y, &mut os);
            assert_eq!(of, os, "add_slice at {level}");
            fast.axpy_slice(1.5, &x, &y, &mut of);
            slow.axpy_slice(1.5, &x, &y, &mut os);
            assert_eq!(of, os, "axpy_slice at {level}");
            let rows: Vec<f64> = x.iter().chain(&y).chain(&x).copied().collect();
            let mut mf = [0.0; 3];
            let mut ms = [0.0; 3];
            fast.matvec_slice(&rows, 5, &y, &mut mf);
            slow.matvec_slice(&rows, 5, &y, &mut ms);
            assert_eq!(mf, ms, "matvec_slice at {level}");
            assert_eq!(
                fast.dot_slice(&x, &y).to_bits(),
                slow.dot_slice(&x, &y).to_bits(),
                "dot_slice at {level}"
            );
        }
        assert_eq!(fast.counts(), slow.counts());
        assert_eq!(
            fast.approx_energy().to_bits(),
            slow.approx_energy().to_bits()
        );
        assert_eq!(fast.total_energy().to_bits(), slow.total_energy().to_bits());
    }

    #[test]
    fn empty_slices_are_no_ops() {
        let mut ctx = test_ctx();
        let mut out: [f64; 0] = [];
        ctx.add_slice(&[], &[], &mut out);
        ctx.axpy_slice(2.0, &[], &[], &mut out);
        assert_eq!(ctx.dot_slice(&[], &[]), 0.0);
        assert_eq!(ctx.sum_slice(&[]), 0.0);
        assert_eq!(ctx.counts(), OpCounts::default());
        assert_eq!(ctx.approx_energy(), 0.0);
    }

    #[test]
    fn exact_context_matches_f64_and_counts() {
        let mut ctx = ExactContext::with_profile(test_profile());
        let d = ctx.dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]);
        assert_eq!(d, 32.0);
        assert_eq!(ctx.counts().adds, 3);
        assert_eq!(ctx.counts().muls, 3);
        assert_eq!(ctx.approx_energy(), 15.0);
    }

    #[test]
    #[should_panic(expected = "cannot run at approximate level")]
    fn exact_context_rejects_degradation() {
        ExactContext::with_profile(test_profile()).set_level(AccuracyLevel::Level1);
    }

    #[test]
    fn sum_folds_left_to_right() {
        let mut ctx = ExactContext::with_profile(test_profile());
        assert_eq!(ctx.sum(&[1.0, 2.0, 3.0, 4.0]), 10.0);
        assert_eq!(ctx.counts().adds, 4);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn dot_length_mismatch_panics() {
        let mut ctx = ExactContext::with_profile(test_profile());
        let _ = ctx.dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "lengths must match")]
    fn kernel_length_mismatch_panics() {
        let mut ctx = test_ctx();
        let mut out = [0.0; 2];
        ctx.add_slice(&[1.0], &[1.0, 2.0], &mut out);
    }

    #[test]
    fn scalar_path_delegates_meters() {
        let mut wrapped = ScalarPath::new(test_ctx());
        wrapped.set_level(AccuracyLevel::Level2);
        assert_eq!(wrapped.level(), AccuracyLevel::Level2);
        let _ = wrapped.add(1.0, 2.0);
        assert_eq!(wrapped.counts().adds, 1);
        assert_eq!(wrapped.approx_energy(), 2.0);
        assert!(wrapped.datapath_format().is_some());
        assert!(wrapped.range_config().is_some());
        wrapped.reset_counters();
        assert_eq!(wrapped.inner().counts(), OpCounts::default());
        let inner = wrapped.into_inner();
        assert_eq!(inner.level(), AccuracyLevel::Level2);
    }

    #[test]
    fn contexts_are_object_safe() {
        let mut ctx = test_ctx();
        let dynamic: &mut dyn ArithContext = &mut ctx;
        assert_eq!(dynamic.add(1.0, 2.0), 3.0);
        let mut out = [0.0; 2];
        dynamic.add_slice(&[1.0, 2.0], &[3.0, 4.0], &mut out);
        assert_eq!(out, [4.0, 6.0]);
    }
}
