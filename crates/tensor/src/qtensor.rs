//! Integer tensor storage and Q-format kernels for fixed-point inference.
//!
//! The reproduction's fixed-point execution backend stores every activation as its raw
//! fixed-point word (`value = word * resolution`) and computes on the words directly —
//! saturating integer multiply-accumulate with a single rescale per dot product, exactly
//! the arithmetic a Q16/Q32 datapath would perform. [`QTensor`] is that storage: a dense,
//! row-major tensor of signed words tagged with the [`FixedSpec`] they are expressed in.
//!
//! The numeric contract (rounding to nearest with ties away from zero, saturation instead
//! of wrap-around, wide accumulation with one rescale per dot product) lives in the raw
//! helpers on [`FixedSpec`] — see `fixed.rs` — and is pinned there by unit tests; the
//! kernels here only compose those primitives.

use crate::fixed::FixedSpec;
use crate::shape::Shape;
use crate::tensor::{Tensor, TensorError};
use std::ops::Range;

/// A dense, row-major tensor of raw fixed-point words.
///
/// Words are stored as `i64` so every [`FixedSpec`] up to 64 bits uses the same storage;
/// each word always lies within the spec's `[min_raw, max_raw]` range (kernels saturate,
/// and bit flips stay within the format by construction).
///
/// # Example
///
/// Quantize → dequantize round-trips values already on the grid exactly and snaps
/// everything else to the nearest grid point (ties away from zero):
///
/// ```
/// use ranger_tensor::{FixedSpec, QTensor, Tensor};
///
/// let t = Tensor::from_vec(vec![2], vec![1.5, -0.25])?;
/// let q = QTensor::from_tensor(FixedSpec::q16(), &t);
/// assert_eq!(q.words(), &[6, -1]); // resolution 0.25
/// assert_eq!(q.dequantize(), t);   // both values sit on the Q14.2 grid
///
/// let off_grid = Tensor::from_vec(vec![3], vec![0.3, 0.125, -1.9])?;
/// let q = QTensor::from_tensor(FixedSpec::q16(), &off_grid);
/// assert_eq!(q.dequantize().data(), &[0.25, 0.25, -2.0]); // snapped to the grid
/// # Ok::<(), ranger_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QTensor {
    shape: Shape,
    spec: FixedSpec,
    data: Vec<i64>,
}

impl QTensor {
    /// Creates an empty word tensor (shape `[0]`) in the given format — the canonical
    /// starting state of a recycled buffer.
    pub fn new(spec: FixedSpec) -> Self {
        QTensor {
            shape: Shape::new(vec![0]),
            spec,
            data: Vec::new(),
        }
    }

    /// Quantizes an `f32` tensor into a fresh word tensor.
    pub fn from_tensor(spec: FixedSpec, tensor: &Tensor) -> Self {
        let mut q = QTensor::new(spec);
        q.quantize_from(tensor);
        q
    }

    /// Creates an empty word tensor whose backing buffer can later hold a value of shape
    /// `dims` without reallocating — used to seed a plan's buffer arena from warmed
    /// shapes, mirroring [`Tensor::with_capacity_for`].
    pub fn with_capacity_for(spec: FixedSpec, dims: &[usize]) -> Self {
        QTensor {
            shape: Shape::new(vec![0]),
            spec,
            data: Vec::with_capacity(dims.iter().product()),
        }
    }

    /// The fixed-point format the words are expressed in.
    pub fn spec(&self) -> FixedSpec {
        self.spec
    }

    /// The dimension extents.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// The number of words.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor holds no words.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The raw words in row-major order.
    pub fn words(&self) -> &[i64] {
        &self.data
    }

    /// Mutable view of the raw words.
    pub fn words_mut(&mut self) -> &mut [i64] {
        &mut self.data
    }

    /// Re-quantizes this tensor from an `f32` tensor, reusing the backing allocation and
    /// switching the format to `self.spec` (encode: round to nearest, saturate).
    pub fn quantize_from(&mut self, tensor: &Tensor) {
        self.data.clear();
        self.data
            .extend(tensor.data().iter().map(|&v| self.spec.raw_encode(v)));
        self.shape.set_dims(tensor.dims());
    }

    /// Decodes every word into `out` (shape and contents of `out` are replaced; its
    /// allocation is reused).
    pub fn dequantize_into(&self, out: &mut Tensor) {
        out.reset_fill(self.dims(), 0.0);
        for (o, &w) in out.data_mut().iter_mut().zip(&self.data) {
            *o = self.spec.raw_decode(w);
        }
    }

    /// Decodes every word into a fresh `f32` tensor.
    pub fn dequantize(&self) -> Tensor {
        let mut out = Tensor::empty();
        self.dequantize_into(&mut out);
        out
    }

    /// Decodes the word at flat index `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn get_f32(&self, index: usize) -> f32 {
        self.spec.raw_decode(self.data[index])
    }

    /// Quantizes `value` into the word at flat index `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn set_from_f32(&mut self, index: usize, value: f32) {
        self.data[index] = self.spec.raw_encode(value);
    }

    /// Flips bit `bit` of the word at flat index `index` — the fault injector's direct
    /// corruption of the stored integer representation (no encode→flip→decode round
    /// trip, so even values whose magnitude exceeds `f32` precision corrupt faithfully).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds or `bit >= spec.total_bits()`.
    pub fn flip_word(&mut self, index: usize, bit: u32) {
        self.data[index] = self.spec.flip_raw(self.data[index], bit);
    }

    // ---- Buffer reuse ----------------------------------------------------------------

    /// Resets this tensor to shape `dims` in format `spec` with every word set to `raw`,
    /// reusing the backing allocation.
    pub fn reset_fill(&mut self, spec: FixedSpec, dims: &[usize], raw: i64) {
        let n: usize = dims.iter().product();
        self.spec = spec;
        self.data.clear();
        self.data.resize(n, raw);
        self.shape.set_dims(dims);
    }

    /// Resets this tensor to shape `dims` in format `spec` with words copied from
    /// `words`, reusing the backing allocation.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if the element counts disagree; the
    /// tensor is left unchanged.
    pub fn reset_from_words(
        &mut self,
        spec: FixedSpec,
        dims: &[usize],
        words: &[i64],
    ) -> Result<(), TensorError> {
        let expected: usize = dims.iter().product();
        if expected != words.len() {
            return Err(TensorError::ShapeDataMismatch {
                expected,
                actual: words.len(),
            });
        }
        self.spec = spec;
        self.data.clear();
        self.data.extend_from_slice(words);
        self.shape.set_dims(dims);
        Ok(())
    }

    /// Resets this tensor to shape `[lead, rest...]` with words copied from `words` — the
    /// batch-preserving reshape used by `Flatten` and `Reshape`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if the element counts disagree; the
    /// tensor is left unchanged.
    pub fn reset_rows_from_words(
        &mut self,
        spec: FixedSpec,
        lead: usize,
        rest: &[usize],
        words: &[i64],
    ) -> Result<(), TensorError> {
        let expected = lead * rest.iter().product::<usize>();
        if expected != words.len() {
            return Err(TensorError::ShapeDataMismatch {
                expected,
                actual: words.len(),
            });
        }
        self.spec = spec;
        self.data.clear();
        self.data.extend_from_slice(words);
        self.shape.set_dims_with_lead(lead, rest);
        Ok(())
    }

    // ---- Q-format kernels --------------------------------------------------------------

    /// Fixed-point matrix multiplication: `self (m, k) · other (k, n)`, accumulating each
    /// dot product in a wide integer (the products carry `2 * frac_bits` fractional bits)
    /// and applying a **single** rescale + saturation per output word — the behaviour of
    /// a saturating hardware MAC with a wide accumulator.
    ///
    /// The loops are row-blocked (`i, p, j` order, walking contiguous rows of both
    /// operands and the accumulator), and when the inner dimension `k` is within
    /// [`FixedSpec::max_i64_mac_terms`] the accumulation runs in plain `i64` instead of
    /// `i128`. Integer addition is exact and associative, so neither choice can change a
    /// single output word (pinned by proptest against the forced-wide path).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MatMulMismatch`] if either operand is not rank 2 or the
    /// inner dimensions differ; `out` is left unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ.
    pub fn matmul_into(&self, other: &QTensor, out: &mut QTensor) -> Result<(), TensorError> {
        let (m, k, n) = self.matmul_dims(other)?;
        if k as u64 <= self.spec.max_i64_mac_terms() {
            self.matmul_acc::<i64>(other, out, m, k, n);
        } else {
            self.matmul_acc::<i128>(other, out, m, k, n);
        }
        Ok(())
    }

    /// [`QTensor::matmul_into`] forced onto the wide `i128` accumulator, bypassing the
    /// i64 fast-path guard. Test-only seam: the proptests pin that the guard's fast path
    /// is bit-for-bit equal to this reference.
    #[doc(hidden)]
    pub fn matmul_into_forced_wide(
        &self,
        other: &QTensor,
        out: &mut QTensor,
    ) -> Result<(), TensorError> {
        let (m, k, n) = self.matmul_dims(other)?;
        self.matmul_acc::<i128>(other, out, m, k, n);
        Ok(())
    }

    /// Validates matmul operands and returns `(m, k, n)`.
    fn matmul_dims(&self, other: &QTensor) -> Result<(usize, usize, usize), TensorError> {
        assert_eq!(self.spec, other.spec, "matmul operands must share a format");
        let (ls, rs) = (self.dims(), other.dims());
        if ls.len() != 2 || rs.len() != 2 || ls[1] != rs[0] {
            return Err(TensorError::MatMulMismatch {
                left: self.shape.clone(),
                right: other.shape.clone(),
            });
        }
        Ok((ls[0], ls[1], rs[1]))
    }

    /// The blocked matmul loop nest over an explicit accumulator type: one accumulator
    /// row per output row (see [`MacAcc::acc_row`] — the output words themselves on the
    /// i64 fast path, so the hot path allocates nothing), filled in `(p, j)` order so
    /// the inner loop streams one contiguous row of `other`, then one rescale per output
    /// word. Skipping zero left-hand words costs one branch per `(i, p)` and wins big on
    /// post-ReLU activations (the sum is exact integers, so skipping zero terms changes
    /// nothing).
    fn matmul_acc<A: MacAcc>(
        &self,
        other: &QTensor,
        out: &mut QTensor,
        m: usize,
        k: usize,
        n: usize,
    ) {
        out.reset_fill(self.spec, &[m, n], 0);
        let odat = out.words_mut();
        let mut scratch: Vec<A> = Vec::new();
        for i in 0..m {
            let acc = A::acc_row(&mut odat[i * n..(i + 1) * n], &mut scratch);
            for p in 0..k {
                let a = self.data[i * k + p];
                if a == 0 {
                    continue;
                }
                let b_row = &other.data[p * n..(p + 1) * n];
                for (s, &b) in acc.iter_mut().zip(b_row) {
                    *s = s.mac(a, b);
                }
            }
            A::write_back(self.spec, &scratch, &mut odat[i * n..(i + 1) * n]);
        }
    }
}

/// The accumulator of the integer MAC kernels: `i64` on the guarded fast path,
/// `i128` as the always-correct wide fallback. Both compute the **exact** integer sum of
/// word products — `i64` is only selected when [`FixedSpec::max_i64_mac_terms`] proves
/// the worst-case sum fits, so `mac` can never overflow on either implementation.
///
/// The `acc_row`/`write_back` pair lets the kernels stay allocation-free on the fast
/// path: i64 sums accumulate **in place in the output words** (an `i64` accumulator row
/// *is* an output row before its rescale), while i128 sums — which cannot fit an output
/// slot — go through a scratch row that is reused across the whole kernel call.
trait MacAcc: Copy {
    /// Adds the product `a * b` of two in-format words to the accumulator.
    fn mac(self, a: i64, b: i64) -> Self;
    /// Returns the zeroed accumulator row for one output row: the output words
    /// themselves for `i64`, the (resized, reused) `scratch` row for `i128`.
    fn acc_row<'a>(out_row: &'a mut [i64], scratch: &'a mut Vec<Self>) -> &'a mut [Self];
    /// Applies the single [`FixedSpec::rescale`] per dot product, writing the
    /// accumulated row into the output words (in place for `i64`, from `scratch` for
    /// `i128`).
    fn write_back(spec: FixedSpec, scratch: &[Self], out_row: &mut [i64]);
}

impl MacAcc for i64 {
    #[inline(always)]
    fn mac(self, a: i64, b: i64) -> Self {
        self + a * b
    }
    fn acc_row<'a>(out_row: &'a mut [i64], _scratch: &'a mut Vec<i64>) -> &'a mut [i64] {
        out_row.fill(0);
        out_row
    }
    fn write_back(spec: FixedSpec, _scratch: &[i64], out_row: &mut [i64]) {
        for o in out_row {
            *o = spec.rescale(*o as i128);
        }
    }
}

impl MacAcc for i128 {
    #[inline(always)]
    fn mac(self, a: i64, b: i64) -> Self {
        self + a as i128 * b as i128
    }
    fn acc_row<'a>(out_row: &'a mut [i64], scratch: &'a mut Vec<i128>) -> &'a mut [i128] {
        scratch.clear();
        scratch.resize(out_row.len(), 0);
        scratch
    }
    fn write_back(spec: FixedSpec, scratch: &[i128], out_row: &mut [i64]) {
        for (o, &s) in out_row.iter_mut().zip(scratch) {
            *o = spec.rescale(s);
        }
    }
}

/// The geometry of one 2-D convolution, precomputed by the caller (the graph layer owns
/// padding semantics; the kernel here only runs the saturating arithmetic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Batch size `N`.
    pub batch: usize,
    /// Input channels `Cin`.
    pub cin: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Output channels `Cout`.
    pub cout: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Spatial stride.
    pub stride: usize,
    /// Leading padding in the height dimension.
    pub pad_h: usize,
    /// Leading padding in the width dimension.
    pub pad_w: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

/// Fixed-point 2-D convolution in NCHW layout: wide accumulation over the whole receptive
/// field, one rescale + saturation per output word (same MAC contract as
/// [`QTensor::matmul_into`]).
///
/// The loop nest is row-group blocked exactly like the f32 kernel (the innermost loop
/// walks one output row while reading one contiguous input row and one contiguous filter
/// row), with a per-row wide accumulator and the rescale deferred to the end of the
/// receptive field. When the receptive-field size `cin * kh * kw` is within
/// [`FixedSpec::max_i64_mac_terms`] the accumulators are plain `i64`; otherwise `i128`.
/// Integer sums are exact whatever the order or width, so both the interchange and the
/// accumulator choice are invisible in the output words (pinned by the naive-nest unit
/// test and the forced-wide proptest).
///
/// # Errors
///
/// Returns [`TensorError::ShapeDataMismatch`] if either operand's length disagrees with
/// the geometry; `out` is left unchanged.
///
/// # Panics
///
/// Panics if the operand formats differ.
pub fn q_conv2d_into(
    x: &QTensor,
    w: &QTensor,
    g: &ConvGeometry,
    out: &mut QTensor,
) -> Result<(), TensorError> {
    conv2d_check(x, w, g)?;
    out.reset_fill(x.spec, &[g.batch, g.cout, g.out_h, g.out_w], 0);
    conv2d_window_acc(x, w, g, &[0..g.cout, 0..g.out_h, 0..g.out_w], out);
    Ok(())
}

/// [`q_conv2d_into`] over an output window only: output channels, rows and columns
/// `window` of every batch row are computed into `out`, which must already hold words
/// of the output's shape; every other word is left as it is. Integer sums are exact, so
/// each computed word is the whole convolution's.
///
/// # Errors
///
/// Returns [`TensorError::ShapeDataMismatch`] if an operand's length disagrees with the
/// geometry, or `out`'s does, or the window exceeds the output; `out` is then left
/// unchanged.
///
/// # Panics
///
/// Panics if the operand formats differ.
pub fn q_conv2d_window_into(
    x: &QTensor,
    w: &QTensor,
    g: &ConvGeometry,
    window: &[Range<usize>; 3],
    out: &mut QTensor,
) -> Result<(), TensorError> {
    conv2d_check(x, w, g)?;
    let expected = g.batch * g.cout * g.out_h * g.out_w;
    let fits = window[0].end <= g.cout && window[1].end <= g.out_h && window[2].end <= g.out_w;
    if out.len() != expected || out.spec != x.spec || !fits {
        return Err(TensorError::ShapeDataMismatch {
            expected,
            actual: out.len(),
        });
    }
    conv2d_window_acc(x, w, g, window, out);
    Ok(())
}

/// Runs the conv nest over `window` on the accumulator the i64 guard selects.
fn conv2d_window_acc(
    x: &QTensor,
    w: &QTensor,
    g: &ConvGeometry,
    window: &[Range<usize>; 3],
    out: &mut QTensor,
) {
    if (g.cin * g.kh * g.kw) as u64 <= x.spec.max_i64_mac_terms() {
        conv2d_acc::<i64>(x, w, g, window, out);
    } else {
        conv2d_acc::<i128>(x, w, g, window, out);
    }
}

/// [`q_conv2d_into`] forced onto the wide `i128` accumulator, bypassing the i64
/// fast-path guard. Test-only seam: the proptests pin that the guard's fast path is
/// bit-for-bit equal to this reference.
#[doc(hidden)]
pub fn q_conv2d_into_forced_wide(
    x: &QTensor,
    w: &QTensor,
    g: &ConvGeometry,
    out: &mut QTensor,
) -> Result<(), TensorError> {
    conv2d_check(x, w, g)?;
    out.reset_fill(x.spec, &[g.batch, g.cout, g.out_h, g.out_w], 0);
    conv2d_acc::<i128>(x, w, g, &[0..g.cout, 0..g.out_h, 0..g.out_w], out);
    Ok(())
}

/// Validates conv operand lengths against the geometry.
fn conv2d_check(x: &QTensor, w: &QTensor, g: &ConvGeometry) -> Result<(), TensorError> {
    assert_eq!(x.spec, w.spec, "conv2d operands must share a format");
    let expected_x = g.batch * g.cin * g.height * g.width;
    if x.len() != expected_x {
        return Err(TensorError::ShapeDataMismatch {
            expected: expected_x,
            actual: x.len(),
        });
    }
    let expected_w = g.cout * g.cin * g.kh * g.kw;
    if w.len() != expected_w {
        return Err(TensorError::ShapeDataMismatch {
            expected: expected_w,
            actual: w.len(),
        });
    }
    Ok(())
}

/// The blocked conv loop nest over an explicit accumulator type, for output channels,
/// rows and columns `window` of every batch row of `out` (already shaped for `g`). One
/// accumulator row per window row — see [`MacAcc::acc_row`]; the i64 fast path
/// accumulates in place in the output words and allocates nothing. The
/// `(ox_min, ox_end)` bounds select the window columns whose receptive field contains
/// input column `ox * stride + kx - pad_w` — columns entirely in the padding clamp to an
/// empty range, mirroring the f32 kernel's handling of kernels wider than the input.
fn conv2d_acc<A: MacAcc>(
    x: &QTensor,
    w: &QTensor,
    g: &ConvGeometry,
    window: &[Range<usize>; 3],
    out: &mut QTensor,
) {
    let spec = x.spec;
    let xdat = x.words();
    let wdat = w.words();
    let [channels, rows, cols] = window;
    let odat = out.words_mut();
    let mut scratch: Vec<A> = Vec::new();
    for b in 0..g.batch {
        for oc in channels.clone() {
            for oy in rows.clone() {
                let row_start = ((b * g.cout + oc) * g.out_h + oy) * g.out_w;
                let row = row_start + cols.start..row_start + cols.end;
                let acc = A::acc_row(&mut odat[row.clone()], &mut scratch);
                for ic in 0..g.cin {
                    for ky in 0..g.kh {
                        let iy = (oy * g.stride + ky) as isize - g.pad_h as isize;
                        if iy < 0 || iy >= g.height as isize {
                            continue;
                        }
                        let x_row = &xdat[((b * g.cin + ic) * g.height + iy as usize) * g.width..]
                            [..g.width];
                        let w_row = &wdat[((oc * g.cin + ic) * g.kh + ky) * g.kw..][..g.kw];
                        for (kx, &wv) in w_row.iter().enumerate() {
                            let kx_off = kx as isize - g.pad_w as isize;
                            let ox_min = if kx_off >= 0 {
                                0
                            } else {
                                g.out_w.min(((-kx_off) as usize).div_ceil(g.stride))
                            };
                            let ox_end = if g.width as isize <= kx_off {
                                0
                            } else {
                                g.out_w
                                    .min((g.width as isize - 1 - kx_off) as usize / g.stride + 1)
                            };
                            let ox_min = ox_min.clamp(cols.start, cols.end);
                            let ox_end = ox_end.clamp(ox_min, cols.end);
                            let span = ox_min - cols.start..ox_end - cols.start;
                            for (s, ox) in acc[span].iter_mut().zip(ox_min..) {
                                let ix = (ox * g.stride) as isize + kx_off;
                                *s = s.mac(x_row[ix as usize], wv);
                            }
                        }
                    }
                }
                A::write_back(spec, &scratch, &mut odat[row]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_dequantize_round_trips_grid_values() {
        let t = Tensor::from_vec(vec![2, 2], vec![1.5, -0.25, 0.0, 100.75]).unwrap();
        let q = QTensor::from_tensor(FixedSpec::q16(), &t);
        assert_eq!(q.dims(), &[2, 2]);
        assert_eq!(q.dequantize(), t);
        let mut out = Tensor::empty();
        q.dequantize_into(&mut out);
        assert_eq!(out, t);
    }

    #[test]
    fn quantization_saturates_out_of_range_values() {
        let t = Tensor::from_vec(vec![2], vec![1.0e9, -1.0e9]).unwrap();
        let q = QTensor::from_tensor(FixedSpec::q16(), &t);
        assert_eq!(q.words(), &[32767, -32768]);
    }

    #[test]
    fn matmul_on_exact_words_matches_float() {
        // Integer-valued operands are exact in both domains.
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Tensor::from_vec(vec![3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let qa = QTensor::from_tensor(FixedSpec::q16(), &a);
        let qb = QTensor::from_tensor(FixedSpec::q16(), &b);
        let mut qc = QTensor::new(FixedSpec::q16());
        qa.matmul_into(&qb, &mut qc).unwrap();
        assert_eq!(qc.dequantize(), a.matmul(&b).unwrap());
        // Shape errors leave out unchanged.
        let keep = qc.clone();
        assert!(qa.matmul_into(&qa, &mut qc).is_err());
        assert_eq!(qc, keep);
    }

    #[test]
    fn matmul_saturates_instead_of_wrapping() {
        let big = Tensor::filled(vec![1, 4], 8000.0);
        let q = FixedSpec::q16();
        let qa = QTensor::from_tensor(q, &big);
        let qb = QTensor::from_tensor(q, &Tensor::filled(vec![4, 1], 8000.0));
        let mut qc = QTensor::new(q);
        qa.matmul_into(&qb, &mut qc).unwrap();
        assert_eq!(qc.words(), &[q.max_raw()]);
    }

    #[test]
    fn flip_word_corrupts_exactly_one_word() {
        let t = Tensor::from_vec(vec![2], vec![2.0, 3.0]).unwrap();
        let mut q = QTensor::from_tensor(FixedSpec::q16(), &t);
        q.flip_word(1, 14);
        assert_eq!(q.get_f32(0), 2.0);
        assert_eq!(q.get_f32(1), 3.0 + 4096.0); // bit 14 = 2^12 integer weight
        q.flip_word(1, 14);
        assert_eq!(q.dequantize(), t);
    }

    #[test]
    fn conv_geometry_kernel_matches_float_on_exact_words() {
        // 3x3 input, 2x2 kernel of ones, valid padding: each output sums a 2x2 patch.
        let x = Tensor::from_vec(
            vec![1, 1, 3, 3],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
        )
        .unwrap();
        let w = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0; 4]).unwrap();
        let spec = FixedSpec::q16();
        let (qx, qw) = (
            QTensor::from_tensor(spec, &x),
            QTensor::from_tensor(spec, &w),
        );
        let g = ConvGeometry {
            batch: 1,
            cin: 1,
            height: 3,
            width: 3,
            cout: 1,
            kh: 2,
            kw: 2,
            stride: 1,
            pad_h: 0,
            pad_w: 0,
            out_h: 2,
            out_w: 2,
        };
        let mut out = QTensor::new(spec);
        q_conv2d_into(&qx, &qw, &g, &mut out).unwrap();
        assert_eq!(out.dims(), &[1, 1, 2, 2]);
        assert_eq!(out.dequantize().data(), &[12.0, 16.0, 24.0, 28.0]);
        // Mismatched operand lengths are rejected.
        let bad = QTensor::from_tensor(spec, &Tensor::zeros(vec![1, 1, 2, 2]));
        assert!(q_conv2d_into(&bad, &qw, &g, &mut out).is_err());
    }

    /// The straightforward per-output-element nests the blocked kernels replaced, kept as
    /// the semantic reference: integer sums are exact, so the blocked loops (and the i64
    /// fast path) must reproduce them **word-for-word** on both formats.
    fn matmul_naive(a: &QTensor, b: &QTensor) -> Vec<i64> {
        let (m, k, n) = (a.dims()[0], a.dims()[1], b.dims()[1]);
        let mut out = vec![0i64; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i128;
                for p in 0..k {
                    acc += a.words()[i * k + p] as i128 * b.words()[p * n + j] as i128;
                }
                out[i * n + j] = a.spec().rescale(acc);
            }
        }
        out
    }

    fn conv_naive(x: &QTensor, w: &QTensor, g: &ConvGeometry) -> Vec<i64> {
        let (xdat, wdat) = (x.words(), w.words());
        let mut out = vec![0i64; g.batch * g.cout * g.out_h * g.out_w];
        for b in 0..g.batch {
            for oc in 0..g.cout {
                for oy in 0..g.out_h {
                    for ox in 0..g.out_w {
                        let mut acc = 0i128;
                        for ic in 0..g.cin {
                            for ky in 0..g.kh {
                                let iy = (oy * g.stride + ky) as isize - g.pad_h as isize;
                                if iy < 0 || iy >= g.height as isize {
                                    continue;
                                }
                                for kx in 0..g.kw {
                                    let ix = (ox * g.stride + kx) as isize - g.pad_w as isize;
                                    if ix < 0 || ix >= g.width as isize {
                                        continue;
                                    }
                                    acc += xdat[((b * g.cin + ic) * g.height + iy as usize)
                                        * g.width
                                        + ix as usize]
                                        as i128
                                        * wdat[((oc * g.cin + ic) * g.kh + ky) * g.kw + kx] as i128;
                                }
                            }
                        }
                        out[((b * g.cout + oc) * g.out_h + oy) * g.out_w + ox] =
                            x.spec().rescale(acc);
                    }
                }
            }
        }
        out
    }

    /// Deterministic pseudo-random words spanning the format's full range (including the
    /// saturation region once rescaled).
    fn scrambled_words(spec: FixedSpec, n: usize, salt: u64) -> QTensor {
        let mut q = QTensor::new(spec);
        q.reset_fill(spec, &[n], 0);
        let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        for w in q.words_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *w = (state >> 16) as i64 & spec.max_raw();
            if state & 1 == 0 {
                *w = -*w - 1; // reach min_raw, not just -max_raw
            }
        }
        q
    }

    #[test]
    fn blocked_matmul_matches_naive_nest_on_both_accumulator_paths() {
        for (spec, salt) in [(FixedSpec::q16(), 3u64), (FixedSpec::q32(), 7)] {
            for (m, k, n) in [(1, 1, 1), (2, 3, 4), (5, 8, 3), (4, 17, 4)] {
                let mut a = scrambled_words(spec, m * k, salt);
                a.shape.set_dims(&[m, k]);
                let mut b = scrambled_words(spec, k * n, salt + 1);
                b.shape.set_dims(&[k, n]);
                let mut out = QTensor::new(spec);
                a.matmul_into(&b, &mut out).unwrap();
                assert_eq!(
                    out.words(),
                    matmul_naive(&a, &b).as_slice(),
                    "{spec} matmul ({m},{k})x({k},{n})"
                );
                a.matmul_into_forced_wide(&b, &mut out).unwrap();
                assert_eq!(out.words(), matmul_naive(&a, &b).as_slice(), "{spec} wide");
            }
        }
    }

    #[test]
    fn blocked_conv_matches_naive_nest_on_both_accumulator_paths() {
        // Geometries mirroring the f32 kernel's regression set, including kernels far
        // wider than the input (outer columns entirely in the padding).
        let cases = [
            (1, 2, 5, 5, 3, 3, 3, 1, 1, 1, 5, 5),
            (2, 1, 4, 6, 2, 2, 2, 2, 0, 0, 2, 3),
            (1, 3, 7, 7, 4, 3, 3, 1, 0, 0, 5, 5),
            (1, 1, 1, 1, 1, 5, 5, 1, 2, 2, 1, 1),
            (1, 1, 2, 2, 1, 7, 7, 2, 3, 3, 1, 1),
            (1, 2, 5, 5, 2, 4, 4, 3, 1, 1, 2, 2),
        ];
        for (spec, salt) in [(FixedSpec::q16(), 11u64), (FixedSpec::q32(), 13)] {
            for &(batch, cin, height, width, cout, kh, kw, stride, pad_h, pad_w, out_h, out_w) in
                &cases
            {
                let g = ConvGeometry {
                    batch,
                    cin,
                    height,
                    width,
                    cout,
                    kh,
                    kw,
                    stride,
                    pad_h,
                    pad_w,
                    out_h,
                    out_w,
                };
                let x = scrambled_words(spec, batch * cin * height * width, salt);
                let w = scrambled_words(spec, cout * cin * kh * kw, salt + 1);
                let mut out = QTensor::new(spec);
                q_conv2d_into(&x, &w, &g, &mut out).unwrap();
                assert_eq!(
                    out.words(),
                    conv_naive(&x, &w, &g).as_slice(),
                    "{spec} {g:?}"
                );
                q_conv2d_into_forced_wide(&x, &w, &g, &mut out).unwrap();
                assert_eq!(
                    out.words(),
                    conv_naive(&x, &w, &g).as_slice(),
                    "{spec} wide {g:?}"
                );
            }
        }
    }

    /// A window computes the whole convolution's words inside it, on both accumulator
    /// paths, and leaves every other word alone; a window past the output is refused.
    #[test]
    fn windowed_conv_matches_the_whole_conv_inside_and_touches_nothing_outside() {
        let g = ConvGeometry {
            batch: 1,
            cin: 2,
            height: 7,
            width: 6,
            cout: 3,
            kh: 3,
            kw: 3,
            stride: 2,
            pad_h: 1,
            pad_w: 1,
            out_h: 4,
            out_w: 3,
        };
        for (spec, salt) in [(FixedSpec::q16(), 5u64), (FixedSpec::q32(), 9)] {
            let x = scrambled_words(spec, 2 * 7 * 6, salt);
            let w = scrambled_words(spec, 3 * 2 * 3 * 3, salt + 1);
            let whole = conv_naive(&x, &w, &g);
            for window in [
                [0..3, 0..4, 0..3],
                [1..2, 0..1, 2..3],
                [0..3, 3..4, 0..1],
                [2..3, 1..3, 1..3],
                [1..1, 0..4, 0..3],
            ] {
                let mut out = QTensor::new(spec);
                out.reset_fill(spec, &[1, 3, 4, 3], 77);
                q_conv2d_window_into(&x, &w, &g, &window, &mut out).unwrap();
                for (i, (&got, &want)) in out.words().iter().zip(&whole).enumerate() {
                    let (ox, oy, oc) = (i % 3, (i / 3) % 4, i / 12);
                    let inside = window[0].contains(&oc)
                        && window[1].contains(&oy)
                        && window[2].contains(&ox);
                    assert_eq!(got, if inside { want } else { 77 }, "{spec} {window:?} {i}");
                }
            }
            let mut out = QTensor::new(spec);
            out.reset_fill(spec, &[1, 3, 4, 3], 0);
            assert!(q_conv2d_window_into(&x, &w, &g, &[0..4, 0..4, 0..3], &mut out).is_err());
        }
    }

    #[test]
    fn reset_helpers_reuse_allocation_and_validate_counts() {
        let spec = FixedSpec::q32();
        let mut q = QTensor::new(spec);
        q.reset_fill(spec, &[2, 2], 7);
        assert_eq!(q.words(), &[7, 7, 7, 7]);
        q.reset_from_words(spec, &[3], &[1, 2, 3]).unwrap();
        assert_eq!(q.dims(), &[3]);
        q.reset_rows_from_words(spec, 1, &[3], &[4, 5, 6]).unwrap();
        assert_eq!(q.dims(), &[1, 3]);
        assert!(q.reset_from_words(spec, &[2], &[1, 2, 3]).is_err());
        assert!(q.reset_rows_from_words(spec, 2, &[3], &[1]).is_err());
        assert_eq!(
            q.dims(),
            &[1, 3],
            "failed resets leave the tensor unchanged"
        );
    }
}
