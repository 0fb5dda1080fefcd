//! Constant fabric operands, quantized once.
//!
//! A solver's system matrix or design matrix is the same on every
//! iteration. In hardware it is loaded into the fixed-point datapath
//! once; [`ArithContext::matvec_slice`](crate::ArithContext::matvec_slice)
//! instead re-quantizes the `f64` entries on every call. An [`Operand`]
//! keeps the entries together with their datapath words, converted on
//! first fabric use, and
//! [`ArithContext::matvec_operand`](crate::ArithContext::matvec_operand)
//! reads those words directly.

use std::sync::OnceLock;

use crate::fixed::QFormat;

/// Entries converted per staging block while the words are filled.
const FILL_BLOCK: usize = 256;

/// A constant row-major operand: its `f64` entries plus their raw
/// datapath words, converted on first fabric use.
///
/// The words are cached for the first [`QFormat`] of at most 32 bits
/// that asks, and stay valid until [`values_mut`](Self::values_mut)
/// hands out the entries for writing. A context of another format, or
/// of a wider one, reads the entries instead, so every caller sees the
/// same values.
///
/// [`Clone`] copies the entries and starts with an empty cache, so
/// copies never multiply word memory. [`PartialEq`] and [`Debug`] see
/// only the entries.
///
/// # Example
///
/// ```
/// use approx_arith::{ArithContext, Operand, QcsContext};
///
/// let a = Operand::new(vec![1.0, 2.0, 3.0, 4.0]);
/// let mut ctx = QcsContext::with_paper_defaults();
/// let mut out = [0.0; 2];
/// ctx.matvec_operand(&a, 2, &[1.0, 0.5], &mut out);
/// assert_eq!(out, [2.0, 5.0]);
/// assert_eq!(a.values(), &[1.0, 2.0, 3.0, 4.0]);
/// ```
pub struct Operand {
    values: Vec<f64>,
    words: OnceLock<Words>,
}

/// The datapath words of an [`Operand`] for one format of at most 32
/// bits, so every raw value lies in `[−2³¹, 2³¹)`.
pub(crate) struct Words {
    pub(crate) format: QFormat,
    /// `max |word|` over every entry (0 for an empty operand).
    pub(crate) max_abs: u64,
    pub(crate) raw: Vec<i32>,
}

impl Operand {
    /// Wrap the entries of a constant operand.
    #[must_use]
    pub fn new(values: Vec<f64>) -> Self {
        Self {
            values,
            words: OnceLock::new(),
        }
    }

    /// The entries.
    #[must_use]
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The entries, for writing. Drops the cached words: through
    /// `&mut` that is a plain reset, with no lock and no
    /// read-modify-write. Inlined, because `Matrix`'s `IndexMut` calls
    /// it once per entry written: as an out-of-line call it made
    /// `covariance_exact` up to 1.8× slower.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        self.words.take();
        &mut self.values
    }

    /// The words for `format`, converting them on first use. `None` for
    /// formats wider than 32 bits and for a format other than the one
    /// the cache was filled for.
    pub(crate) fn words(&self, format: QFormat) -> Option<&Words> {
        if format.width() > 32 {
            return None;
        }
        let words = self
            .words
            .get_or_init(|| Words::convert(&self.values, format));
        (words.format == format).then_some(words)
    }
}

impl Words {
    /// Convert one staging block at a time straight into the word
    /// vector, so no full-size temporary is ever live next to it.
    fn convert(values: &[f64], format: QFormat) -> Self {
        let cv = format.converter();
        let mut max_abs = 0;
        let mut raw = Vec::with_capacity(values.len());
        let mut block = [0i64; FILL_BLOCK];
        for chunk in values.chunks(FILL_BLOCK) {
            let block = &mut block[..chunk.len()];
            cv.to_raw_slice(chunk, block);
            max_abs = block.iter().fold(max_abs, |m, &r| m.max(r.unsigned_abs()));
            // Every raw value of a ≤ 32-bit format fits: lossless.
            raw.extend(block.iter().map(|&r| r as i32));
        }
        Self {
            format,
            max_abs,
            raw,
        }
    }
}

impl Clone for Operand {
    fn clone(&self) -> Self {
        Self::new(self.values.clone())
    }
}

impl PartialEq for Operand {
    fn eq(&self, other: &Self) -> bool {
        self.values == other.values
    }
}

impl std::fmt::Debug for Operand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.values.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_are_cached_for_the_first_format_only() {
        let a = Operand::new(vec![1.5, -2.25, 0.0, 1e-9]);
        let q = QFormat::new(16, 8);
        let words = a.words(q).expect("narrow formats cache");
        assert_eq!(words.raw, [384, -576, 0, 0]);
        assert_eq!(words.max_abs, 576);
        assert!(a.words(QFormat::Q15_16).is_none(), "a second format");
        assert!(a.words(q).is_some(), "the first format stays cached");
    }

    #[test]
    fn saturated_words_keep_their_maximum() {
        let a = Operand::new(vec![f64::NEG_INFINITY, -3.0, f64::NAN]);
        let words = a.words(QFormat::Q15_16).expect("cached");
        assert_eq!(words.raw, [i32::MIN, -3 << 16, 0]);
        assert_eq!(words.max_abs, 1 << 31);
    }

    #[test]
    fn formats_past_32_bits_are_never_cached() {
        let a = Operand::new(vec![1.0]);
        assert!(a.words(QFormat::new(33, 16)).is_none());
        assert!(a.words(QFormat::Q31_16).is_none());
        assert!(a.words(QFormat::Q31_32).is_none());
        // The cache is still free for the first narrow format.
        assert!(a.words(QFormat::Q15_16).is_some());
    }

    #[test]
    fn writes_and_clones_start_from_an_empty_cache() {
        let mut a = Operand::new(vec![1.0; 600]);
        assert!(a.words(QFormat::Q15_16).is_some());
        let b = a.clone();
        assert!(b.words.get().is_none(), "a clone converts lazily");
        assert_eq!(a, b);
        a.values_mut()[599] = 2.0;
        assert!(a.words.get().is_none());
        let words = a
            .words(QFormat::new(16, 8))
            .expect("refilled for the new format");
        assert_eq!(words.max_abs, 2 << 8);
        assert_ne!(a, b);
        assert_eq!(format!("{:?}", Operand::new(vec![0.5])), "[0.5]");
    }
}
