//! Two's-complement fixed-point formats (Q notation).

use crate::adder::width_mask;

/// A signed fixed-point format: `width` total bits (including sign) of
/// which `frac_bits` are fractional — i.e. Q(width−frac−1).(frac).
///
/// Raw values are kept sign-extended in an `i64`; [`QFormat::to_bits`] /
/// [`QFormat::from_bits`] convert to and from the `width`-bit two's
/// complement patterns the adder hardware consumes.
///
/// # Example
///
/// ```
/// use approx_arith::QFormat;
///
/// let q = QFormat::Q31_16;
/// let raw = q.to_raw(2.5);
/// assert_eq!(raw, 2 * 65536 + 32768);
/// assert_eq!(q.from_raw(raw), 2.5);
/// // Round-trip quantization error is bounded by half a ULP.
/// let x = 0.123_456_789;
/// assert!((q.quantize(x) - x).abs() <= q.resolution() / 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QFormat {
    width: u32,
    frac_bits: u32,
}

impl QFormat {
    /// A 48-bit datapath with a 16-bit fraction (range ±2³¹,
    /// resolution 2⁻¹⁶ ≈ 1.5·10⁻⁵).
    pub const Q31_16: QFormat = QFormat {
        width: 48,
        frac_bits: 16,
    };

    /// The framework default: a 32-bit datapath with a 16-bit fraction
    /// (range ±2¹⁵, resolution 2⁻¹⁶), the format of
    /// [`QcsContext::with_paper_defaults`](crate::QcsContext::with_paper_defaults).
    pub const Q15_16: QFormat = QFormat {
        width: 32,
        frac_bits: 16,
    };

    /// A wide 64-bit format (Q31.32).
    pub const Q31_32: QFormat = QFormat {
        width: 64,
        frac_bits: 32,
    };

    /// Create a custom format.
    ///
    /// # Panics
    /// Panics if `width` is not in `2..=64` or `frac_bits >= width`.
    #[must_use]
    pub fn new(width: u32, frac_bits: u32) -> Self {
        assert!((2..=64).contains(&width), "width must be in 2..=64");
        assert!(
            frac_bits < width,
            "frac_bits ({frac_bits}) must be less than width ({width})"
        );
        Self { width, frac_bits }
    }

    /// Total bit width, including the sign bit.
    #[must_use]
    pub const fn width(&self) -> u32 {
        self.width
    }

    /// Number of fractional bits.
    #[must_use]
    pub const fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// The value of one least-significant bit.
    #[must_use]
    #[inline]
    pub fn resolution(&self) -> f64 {
        f64::from(-(self.frac_bits as i32)).exp2()
    }

    /// Largest representable value.
    #[must_use]
    pub fn max_value(&self) -> f64 {
        self.from_raw(self.max_raw())
    }

    /// Smallest (most negative) representable value.
    #[must_use]
    pub fn min_value(&self) -> f64 {
        self.from_raw(self.min_raw())
    }

    #[inline]
    fn max_raw(&self) -> i64 {
        ((1u64 << (self.width - 1)) - 1) as i64
    }

    #[inline]
    fn min_raw(&self) -> i64 {
        // −2^(width−1). Computed by shifting so the width-64 case lands
        // exactly on i64::MIN instead of negating it (which overflows).
        -1i64 << (self.width - 1)
    }

    /// Precompute the conversion constants (scale factors, saturation
    /// bounds) for this format. [`QFormat::to_raw`] and
    /// [`QFormat::from_raw`] delegate here per call; kernel inner loops
    /// hoist one [`RawConverter`] and amortize the `exp2` evaluations
    /// over the whole slice — the results are bit-identical either way.
    #[must_use]
    #[inline]
    pub fn converter(&self) -> RawConverter {
        RawConverter {
            scale: (self.frac_bits as f64).exp2(),
            inv_scale: self.resolution(),
            max_raw: self.max_raw(),
            min_raw: self.min_raw(),
        }
    }

    /// Convert to raw fixed point with rounding-to-nearest and saturation.
    ///
    /// Non-finite inputs saturate: `+∞` to the maximum, `−∞` to the
    /// minimum, and `NaN` to zero (the datapath has no trap mechanism —
    /// this mirrors how a saturating hardware converter behaves).
    #[must_use]
    #[inline]
    pub fn to_raw(&self, x: f64) -> i64 {
        self.converter().to_raw(x)
    }

    /// Convert a raw fixed-point value back to `f64`.
    #[must_use]
    #[inline]
    pub fn from_raw(&self, raw: i64) -> f64 {
        self.converter().from_raw(raw)
    }

    /// Round-trip a value through the format (quantize).
    #[must_use]
    #[inline]
    pub fn quantize(&self, x: f64) -> f64 {
        self.from_raw(self.to_raw(x))
    }

    /// The `width`-bit two's-complement pattern of a raw value, as the
    /// adder hardware sees it.
    #[must_use]
    #[inline]
    pub fn to_bits(&self, raw: i64) -> u64 {
        (raw as u64) & width_mask(self.width)
    }

    /// Sign-extend a `width`-bit pattern back to a raw `i64`.
    #[must_use]
    #[inline]
    pub fn from_bits(&self, bits: u64) -> i64 {
        let bits = bits & width_mask(self.width);
        let sign = 1u64 << (self.width - 1);
        if bits & sign != 0 {
            (bits | !width_mask(self.width)) as i64
        } else {
            bits as i64
        }
    }

    /// Exact fixed-point multiply with rounding and saturation:
    /// `(a·b) >> frac_bits`.
    ///
    /// Multipliers are *not* approximated in this reproduction (the paper
    /// approximates adders only — "Adder Impact" in its Table 2), so this
    /// is the reference datapath multiply.
    #[must_use]
    #[inline]
    pub fn mul_raw(&self, a: i64, b: i64) -> i64 {
        let wide = i128::from(a) * i128::from(b);
        // Round half away from zero at the bits we shift out. The shift
        // floors, so the negative branch negates first to keep the
        // rounding symmetric. Integer formats shift nothing out, so
        // there is nothing to round.
        let half = if self.frac_bits == 0 {
            0
        } else {
            1i128 << (self.frac_bits - 1)
        };
        let shifted = if wide >= 0 {
            (wide + half) >> self.frac_bits
        } else {
            -((-wide + half) >> self.frac_bits)
        };
        shifted.clamp(i128::from(self.min_raw()), i128::from(self.max_raw())) as i64
    }
}

/// 1.5·2⁵², the round-to-integer constant. For `|v| < 2⁵¹`, `v` plus
/// the constant lies in [2⁵², 2⁵³), where consecutive `f64`s are 1
/// apart, so the sum is the constant plus `v` rounded to nearest, ties
/// to even, and that integer is the sum's bit pattern minus the
/// constant's. [`RawConverter::to_raw_slice`] and the QCS context's
/// lane fold round with it, so neither needs a float→int cast.
pub(crate) const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;

/// Precomputed f64 ↔ raw conversion constants for one [`QFormat`].
///
/// Exists so slice kernels can hoist the scale factors (`2^frac` and
/// `2^-frac`) out of their inner loops instead of re-deriving them per
/// element; conversions through a converter are bit-identical to the
/// [`QFormat`] methods, which delegate here.
#[derive(Debug, Clone, Copy)]
pub struct RawConverter {
    scale: f64,
    inv_scale: f64,
    max_raw: i64,
    min_raw: i64,
}

impl RawConverter {
    /// [`QFormat::to_raw`] with the scale and bounds precomputed.
    #[must_use]
    #[inline]
    pub fn to_raw(&self, x: f64) -> i64 {
        if x.is_nan() {
            return 0;
        }
        let scaled = x * self.scale;
        if scaled >= self.max_raw as f64 {
            self.max_raw
        } else if scaled <= self.min_raw as f64 {
            self.min_raw
        } else {
            // Round half away from zero, like a hardware rounder.
            // Branch-free equivalent of `scaled.round() as i64` (which
            // would be a libm call on baseline x86-64): truncate, then
            // bump by one when the discarded fraction reaches ±0.5. The
            // fraction is exact — below 2⁵² the subtraction is lossless,
            // and at or above 2⁵² every f64 is already an integer.
            let t = scaled as i64;
            let frac = scaled - t as f64;
            t + i64::from(frac >= 0.5) - i64::from(frac <= -0.5)
        }
    }

    /// [`QFormat::from_raw`] with the resolution precomputed.
    #[must_use]
    #[inline]
    pub fn from_raw(&self, raw: i64) -> f64 {
        raw as f64 * self.inv_scale
    }

    /// Convert a whole slice to raw fixed point, bit-identical to
    /// calling [`RawConverter::to_raw`] per element.
    ///
    /// The loop body is select-based rather than early-returning so the
    /// compiler can vectorize it: truncate-and-round runs
    /// unconditionally (Rust float→int casts saturate, so out-of-range
    /// intermediates are defined) and the saturation cases overwrite the
    /// result. The NaN case needs no select of its own — `NaN as i64`
    /// is 0 and every comparison on NaN is false, so a NaN input falls
    /// through to 0 exactly like the scalar early return.
    ///
    /// Formats of at most 32 bits take a shorter path with no
    /// float→int cast at all, so it vectorizes on baseline x86-64.
    /// Clamp in `f64` first; the clamped `c` has |c| ≤ 2³¹, so
    /// `t = c + 1.5·2⁵²` (the crate's `ROUND_MAGIC`) is the constant
    /// plus `c` rounded to nearest, ties to even, and that integer is
    /// `t`'s bit pattern minus the constant's. `t − 1.5·2⁵²` is that
    /// even-rounded value exactly, and so is the remainder
    /// `d = c − even` (|d| ≤ ½). A tie shows as
    /// d = ±½; rounding half away from zero moves it one step further
    /// out only when d has c's sign, i.e. when the even choice went
    /// toward zero. NaN survives `f64::clamp`, and an explicit select
    /// maps it to 0.
    ///
    /// # Panics
    /// Panics if `xs` and `out` have different lengths.
    pub fn to_raw_slice(&self, xs: &[f64], out: &mut [i64]) {
        assert_eq!(xs.len(), out.len(), "to_raw_slice length mismatch");
        let max_f = self.max_raw as f64;
        let min_f = self.min_raw as f64;
        if self.max_raw <= i64::from(i32::MAX) {
            let magic_bits = ROUND_MAGIC.to_bits() as i64;
            for (o, &x) in out.iter_mut().zip(xs) {
                let c = (x * self.scale).clamp(min_f, max_f);
                let t = c + ROUND_MAGIC;
                let d = c - (t - ROUND_MAGIC);
                let away = i64::from((d == 0.5) & (c > 0.0)) - i64::from((d == -0.5) & (c < 0.0));
                let r = (t.to_bits() as i64 - magic_bits) + away;
                *o = if c.is_nan() { 0 } else { r };
            }
            return;
        }
        for (o, &x) in out.iter_mut().zip(xs) {
            let scaled = x * self.scale;
            let t = scaled as i64;
            let frac = scaled - t as f64;
            // Wrapping: the bump can only wrap when the cast saturated,
            // and those lanes are overwritten by the selects below.
            let rounded = t
                .wrapping_add(i64::from(frac >= 0.5))
                .wrapping_sub(i64::from(frac <= -0.5));
            let r = if scaled >= max_f {
                self.max_raw
            } else {
                rounded
            };
            *o = if scaled <= min_f { self.min_raw } else { r };
        }
    }

    /// Convert a whole raw slice back to `f64`, bit-identical to calling
    /// [`RawConverter::from_raw`] per element.
    ///
    /// # Panics
    /// Panics if `raws` and `out` have different lengths.
    pub fn from_raw_slice(&self, raws: &[i64], out: &mut [f64]) {
        assert_eq!(raws.len(), out.len(), "from_raw_slice length mismatch");
        for (o, &raw) in out.iter_mut().zip(raws) {
            *o = raw as f64 * self.inv_scale;
        }
    }
}

impl std::fmt::Display for QFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Q{}.{}", self.width - self.frac_bits - 1, self.frac_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_formats_have_expected_geometry() {
        assert_eq!(QFormat::Q31_16.width(), 48);
        assert_eq!(QFormat::Q31_16.frac_bits(), 16);
        assert_eq!(QFormat::Q31_16.to_string(), "Q31.16");
        assert!((QFormat::Q31_16.resolution() - 1.0 / 65536.0).abs() < 1e-18);
    }

    #[test]
    fn round_trip_is_exact_for_representable_values() {
        let q = QFormat::Q31_16;
        for x in [-1000.5, -0.25, 0.0, 0.5, 3.140625, 32767.75] {
            assert_eq!(q.quantize(x), x);
        }
    }

    #[test]
    fn conversion_saturates() {
        let q = QFormat::Q15_16;
        assert_eq!(q.to_raw(1e30), q.to_raw(q.max_value()));
        assert_eq!(q.to_raw(f64::INFINITY), q.to_raw(q.max_value()));
        assert_eq!(q.from_raw(q.to_raw(f64::NEG_INFINITY)), q.min_value());
        assert_eq!(q.to_raw(f64::NAN), 0);
    }

    #[test]
    fn bits_round_trip_for_negative_values() {
        let q = QFormat::Q31_16;
        for x in [-1.0, -12345.678, -0.0001, 5.0, 30000.25] {
            let raw = q.to_raw(x);
            assert_eq!(q.from_bits(q.to_bits(raw)), raw);
        }
    }

    #[test]
    fn twos_complement_addition_matches_value_addition() {
        let q = QFormat::Q31_16;
        let adder = crate::RippleCarryAdder::new(q.width());
        use crate::Adder;
        for (x, y) in [(1.5, 2.25), (-3.5, 1.25), (-100.0, -200.0), (0.0, -0.5)] {
            let bits = adder.add(q.to_bits(q.to_raw(x)), q.to_bits(q.to_raw(y)));
            assert_eq!(q.from_raw(q.from_bits(bits)), x + y);
        }
    }

    #[test]
    fn mul_raw_rounds_and_saturates() {
        let q = QFormat::Q15_16;
        let a = q.to_raw(1.5);
        let b = q.to_raw(2.0);
        assert_eq!(q.from_raw(q.mul_raw(a, b)), 3.0);
        // Saturation on overflow.
        let big = q.to_raw(30000.0);
        assert_eq!(q.mul_raw(big, big), q.to_raw(q.max_value()));
        let neg = q.to_raw(-30000.0);
        assert_eq!(q.mul_raw(big, neg), q.to_raw(q.min_value()));
    }

    #[test]
    fn integer_formats_multiply_exactly() {
        // No fraction bits are shifted out, so there is nothing to round:
        // the product is exact until it saturates.
        let q = QFormat::new(16, 0);
        assert_eq!(q.mul_raw(6, 7), 42);
        assert_eq!(q.mul_raw(0, 7), 0);
        assert_eq!(q.mul_raw(-6, 7), -42);
        assert_eq!(q.mul_raw(-6, -7), 42);
        assert_eq!(q.mul_raw(181, 181), 32_761);
        assert_eq!(q.mul_raw(182, 181), i64::from(i16::MAX));
        assert_eq!(q.mul_raw(-182, 181), i64::from(i16::MIN));
        assert_eq!(q.mul_raw(-32_768, -32_768), i64::from(i16::MAX));
        let wide = QFormat::new(64, 0);
        assert_eq!(wide.mul_raw(3, -5), -15);
        assert_eq!(wide.mul_raw(i64::MAX, 2), i64::MAX);
        assert_eq!(wide.mul_raw(i64::MIN, 2), i64::MIN);
    }

    #[test]
    fn converter_rounding_matches_f64_round() {
        // The branch-free rounder must agree with `f64::round` (round
        // half away from zero) everywhere, including exact halves and
        // the nearest-below-half boundary value.
        let q = QFormat::Q31_16;
        let cv = q.converter();
        let res = q.resolution();
        for x in [
            0.5 * res,
            -0.5 * res,
            1.5 * res,
            -1.5 * res,
            0.499_999_999_999_999_94 * res,
            2.5,
            -2.5,
        ] {
            assert_eq!(cv.to_raw(x), (x / res).round() as i64, "x = {x:e}");
        }
        let mut rng = crate::rng::Pcg32::seeded(11, 5);
        for _ in 0..20_000 {
            let x = rng.uniform(-3e4, 3e4);
            assert_eq!(cv.to_raw(x), (x * 65536.0).round() as i64, "x = {x}");
        }
    }

    #[test]
    fn slice_conversions_are_bit_identical_to_scalar() {
        for q in [QFormat::Q15_16, QFormat::Q31_16, QFormat::Q31_32] {
            let cv = q.converter();
            let mut xs = vec![
                0.0,
                -0.0,
                0.5 * q.resolution(),
                -0.5 * q.resolution(),
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                1e300,
                -1e300,
                q.max_value(),
                q.min_value(),
                q.max_value() + 1.0,
                q.min_value() - 1.0,
            ];
            let mut rng = crate::rng::Pcg32::seeded(3, 9);
            for _ in 0..10_000 {
                xs.push(rng.uniform(-4e4, 4e4));
            }
            let mut raws = vec![0i64; xs.len()];
            cv.to_raw_slice(&xs, &mut raws);
            for (&x, &r) in xs.iter().zip(&raws) {
                assert_eq!(r, cv.to_raw(x), "to_raw_slice vs to_raw at x={x:e} ({q})");
            }
            let mut back = vec![0.0; raws.len()];
            cv.from_raw_slice(&raws, &mut back);
            for (&r, &b) in raws.iter().zip(&back) {
                assert_eq!(b.to_bits(), cv.from_raw(r).to_bits(), "raw={r} ({q})");
            }
        }
    }

    /// Rounding and saturation boundaries of a format: exact ties
    /// `(n + ½)·ulp` at every binade up to 2^(w−1) and beside it, the
    /// saturation edges `±(max_raw ± ½)·ulp` and `min_raw ± ½`, all with
    /// their `f64` neighbours, plus NaN, ±∞, ±0 and subnormals.
    fn conversion_boundaries(q: QFormat) -> Vec<f64> {
        let ulp = q.resolution();
        let max = q.max_raw() as f64;
        let min = q.min_raw() as f64;
        let mut centers = vec![0.5, max + 0.5, max - 0.5, min + 0.5, min - 0.5];
        for e in 0..q.width() {
            let n = f64::from(e).exp2();
            centers.extend([n - 0.5, n + 0.5, n + 1.5]);
        }
        let mut xs = vec![
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            -f64::MIN_POSITIVE / 2.0,
        ];
        for c in centers {
            for v in [c * ulp, -c * ulp] {
                xs.extend([v.next_down(), v, v.next_up()]);
            }
        }
        xs
    }

    #[test]
    fn slice_conversion_matches_scalar_at_every_width_boundary() {
        for w in 2..=64 {
            let q = QFormat::new(w, w / 2);
            let cv = q.converter();
            let xs = conversion_boundaries(q);
            // Several offsets move every value through both the unrolled
            // body and the remainder of the vectorized loop.
            for off in 0..4 {
                let mut raws = vec![0i64; xs.len() - off];
                cv.to_raw_slice(&xs[off..], &mut raws);
                for (&x, &r) in xs[off..].iter().zip(&raws) {
                    assert_eq!(r, cv.to_raw(x), "{q}: to_raw_slice vs to_raw at x={x:e}");
                }
            }
            // Where ties are exact in f64, both round half away from zero.
            let ulp = q.resolution();
            for e in 0..(w - 1).min(52) {
                let n = (1i64 << e) - 1;
                let tie = (n as f64 + 0.5) * ulp;
                assert_eq!(cv.to_raw(tie), n + 1, "{q}: tie {tie:e}");
                assert_eq!(cv.to_raw(-tie), -(n + 1), "{q}: tie {:e}", -tie);
            }
        }
    }

    #[test]
    fn quantization_error_bounded_by_half_ulp() {
        let q = QFormat::Q31_16;
        let mut rng = crate::rng::Pcg32::seeded(7, 3);
        for _ in 0..10_000 {
            let x = rng.uniform(-1e4, 1e4);
            assert!((q.quantize(x) - x).abs() <= q.resolution() / 2.0 + 1e-15);
        }
    }

    #[test]
    #[should_panic(expected = "frac_bits")]
    fn frac_equal_width_panics() {
        let _ = QFormat::new(16, 16);
    }
}
