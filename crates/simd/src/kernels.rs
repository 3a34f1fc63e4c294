//! The three ported kernel bodies: register-blocked conv2d, matmul, three-pass softmax.
//!
//! Each body gives every output element exactly its scalar reference's partial
//! products, in the reference's order (see the [crate docs](crate) for why that makes
//! the vectorization bit-preserving); the freedom taken is *which independent output
//! elements* one instruction covers, and, for conv2d, padding taps that add an exact
//! zero. Shape validation stays in `ranger-graph` — these entry points assert the slice
//! contracts they need for memory safety and otherwise trust the caller's geometry.

use crate::dispatch::{SimdOp, SimdTier};
use crate::vec::{maxps, SimdF32};
use std::cell::Cell;
use std::ops::Range;
use std::sync::OnceLock;

/// Validated conv2d geometry, mirroring `ranger-graph`'s `Conv2dGeometry` (NCHW
/// activations `(batch, cin, height, width)`, OIHW filters `(cout, cin, kh, kw)`).
#[derive(Debug, Clone, Copy)]
pub struct Conv2dShape {
    /// Batch size.
    pub batch: usize,
    /// Input channels.
    pub cin: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Output channels (filter count).
    pub cout: usize,
    /// Filter height.
    pub kh: usize,
    /// Filter width.
    pub kw: usize,
    /// Stride (both spatial dimensions).
    pub stride: usize,
    /// Leading padding rows.
    pub pad_h: usize,
    /// Leading padding columns.
    pub pad_w: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

/// `out[j] += x[j] * w` for equal-length slices — the shared inner loop of conv2d and
/// matmul. Separate multiply and add (never FMA), so every `out[j]` rounds exactly like
/// the scalar `*o += x * w` it replaces.
#[inline(always)]
unsafe fn axpy<V: SimdF32>(out: &mut [f32], x: &[f32], w: f32) {
    debug_assert_eq!(out.len(), x.len());
    let n = out.len();
    let wv = V::splat(w);
    let mut i = 0;
    while i + V::LANES <= n {
        let xv = V::load(x.as_ptr().add(i));
        let ov = V::load(out.as_ptr().add(i));
        ov.add(xv.mul(wv)).store(out.as_mut_ptr().add(i));
        i += V::LANES;
    }
    while i < n {
        *out.get_unchecked_mut(i) += *x.get_unchecked(i) * w;
        i += 1;
    }
}

/// Per-thread conv2d scratch: one batch row's zero-padded phase planes and its wide
/// output plane. Both grow to the largest geometry the thread has seen and are then
/// reused, so warmed passes allocate nothing.
#[derive(Default)]
struct ConvScratch {
    planes: Vec<f32>,
    wide: Vec<f32>,
}

thread_local! {
    static CONV_SCRATCH: Cell<ConvScratch> = const {
        Cell::new(ConvScratch {
            planes: Vec::new(),
            wide: Vec::new(),
        })
    };
}

/// Grows `buf` to at least `len` floats; never shrinks it.
fn grow(buf: &mut Vec<f32>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// Where one batch row's phase planes and wide output plane live, for one lane width
/// and one output window of `rows × cols` positions starting at `(oy0, ox0)`.
///
/// For stride `s`, each input channel splits into `py × px = min(s, kh) × min(s, kw)`
/// planes. Plane `(ry, rx)` holds padded input `((oy0 + r)·s + ry, (ox0 + c)·s + rx)`
/// at `r·wq + c`, and zero where that position lies in the padding: only the window's
/// receptive field. Window position `(oy, ox)` sits at wide position `q = oy·wq + ox`,
/// and tap `(ky, kx)` reads plane `(ky mod s, kx mod s)` at `q + (ky / s)·wq + kx / s`:
/// a contiguous run for every stride. Columns `ox ≥ cols` are computed and dropped, so
/// no vector ever needs a scalar tail.
#[derive(Debug, Clone, Copy)]
struct PhaseLayout {
    py: usize,
    px: usize,
    hq: usize,
    wq: usize,
    /// Wide positions per output channel: `rows · wq`, rounded up to whole vectors.
    wide_len: usize,
    /// Floats per plane: `wide_len` plus the largest tap offset, so the last vector of
    /// every tap reads inside its plane.
    plane_len: usize,
}

impl PhaseLayout {
    /// The layout of a `rows × cols` window of `g` (non-empty window, non-empty filter)
    /// for `lanes`-wide vectors.
    fn new(g: &Conv2dShape, lanes: usize, rows: usize, cols: usize) -> Self {
        let s = g.stride;
        let (dy, dx) = ((g.kh - 1) / s, (g.kw - 1) / s);
        let wq = cols + dx;
        let wide_len = (rows * wq).next_multiple_of(lanes);
        PhaseLayout {
            py: s.min(g.kh),
            px: s.min(g.kw),
            hq: rows + dy,
            wq,
            wide_len,
            plane_len: wide_len + dy * wq + dx,
        }
    }

    /// Floats in one batch row's planes.
    fn planes_len(&self, cin: usize) -> usize {
        cin * self.py * self.px * self.plane_len
    }
}

/// Copies the receptive field of the window at output `(oy0, ox0)` of one batch row `x`
/// (`cin × height × width`) into its phase planes: zero in the padding and in the slack
/// after each plane, so every float the micro-kernel reads is initialized and every
/// padding tap multiplies a zero.
fn fill_planes(
    x: &[f32],
    g: &Conv2dShape,
    lay: &PhaseLayout,
    (oy0, ox0): (usize, usize),
    planes: &mut [f32],
) {
    let (h, win, s) = (g.height, g.width, g.stride);
    let mut planes = planes.chunks_exact_mut(lay.plane_len);
    for x_ch in x.chunks_exact(h * win) {
        for ry in 0..lay.py {
            for rx in 0..lay.px {
                let plane = planes.next().expect("planes sized for cin channels");
                // Plane columns whose input column `(ox0 + c)·s + rx − pad_w` lies in the
                // row.
                let c_lo = g
                    .pad_w
                    .saturating_sub(rx)
                    .div_ceil(s)
                    .saturating_sub(ox0)
                    .min(lay.wq);
                let c_hi = (win + g.pad_w)
                    .saturating_sub(rx)
                    .div_ceil(s)
                    .saturating_sub(ox0)
                    .clamp(c_lo, lay.wq);
                let (rows, slack) = plane.split_at_mut(lay.hq * lay.wq);
                slack.fill(0.0);
                for (r, dst) in rows.chunks_exact_mut(lay.wq).enumerate() {
                    // Wraps past `h` when the row lies in the top padding.
                    let iy = ((oy0 + r) * s + ry).wrapping_sub(g.pad_h);
                    if iy >= h {
                        dst.fill(0.0);
                        continue;
                    }
                    let (head, rest) = dst.split_at_mut(c_lo);
                    let (mid, tail) = rest.split_at_mut(c_hi - c_lo);
                    head.fill(0.0);
                    tail.fill(0.0);
                    if !mid.is_empty() {
                        let row = &x_ch[iy * win..][..win];
                        let src = row[(ox0 + c_lo) * s + rx - g.pad_w..].iter().step_by(s);
                        for (d, &v) in mid.iter_mut().zip(src) {
                            *d = v;
                        }
                    }
                }
            }
        }
    }
}

/// One register tile: `OB` output channels × `NV` vectors of wide positions, starting
/// at `x` (planes at the tile's first position), `w` (the first channel's filter) and
/// `wide`. The accumulators start at `+0.0`, take one separate multiply and add per
/// `(ic, ky, kx)` in that order, and are stored once.
///
/// # Safety
///
/// `V`'s tier must be available, and `lay` must be `g`'s layout for `V::LANES`.
/// Relative to `x`, `w` and `wide`, every offset the walk reaches must be in bounds:
/// `NV` vectors past each tap offset of `cin` plane groups, `OB` filters of
/// `cin · kh · kw` floats, and `OB` wide planes of `NV` vectors.
#[inline(always)]
unsafe fn conv_tile<V: SimdF32, const OB: usize, const NV: usize>(
    x: *const f32,
    w: *const f32,
    wide: *mut f32,
    g: &Conv2dShape,
    lay: &PhaseLayout,
) {
    let (ic_stride, w_oc) = (lay.py * lay.px * lay.plane_len, g.cin * g.kh * g.kw);
    let mut acc = [[V::splat(0.0); NV]; OB];
    for ic in 0..g.cin {
        let x_ic = x.add(ic * ic_stride);
        let w_ic = w.add(ic * g.kh * g.kw);
        // Tap row `ky` reads phase row `ry = ky mod s`, shifted `dy = ky / s` rows.
        let (mut ry, mut dy) = (0, 0);
        for ky in 0..g.kh {
            let x_ky = x_ic.add(ry * lay.px * lay.plane_len + dy * lay.wq);
            let w_ky = w_ic.add(ky * g.kw);
            let (mut rx, mut dx) = (0, 0);
            for kx in 0..g.kw {
                let xp = x_ky.add(rx * lay.plane_len + dx);
                let mut wv = [V::splat(0.0); OB];
                for (o, wo) in wv.iter_mut().enumerate() {
                    *wo = V::splat(*w_ky.add(o * w_oc + kx));
                }
                for v in 0..NV {
                    let xv = V::load(xp.add(v * V::LANES));
                    for (row, &wo) in acc.iter_mut().zip(&wv) {
                        row[v] = row[v].add(xv.mul(wo));
                    }
                }
                rx += 1;
                if rx == g.stride {
                    rx = 0;
                    dx += 1;
                }
            }
            ry += 1;
            if ry == g.stride {
                ry = 0;
                dy += 1;
            }
        }
    }
    for (o, row) in acc.iter().enumerate() {
        for (v, a) in row.iter().enumerate() {
            a.store(wide.add(o * lay.wide_len + v * V::LANES));
        }
    }
}

/// All `nvec` vectors of wide positions for `OB` output channels: whole `NV`-vector
/// tiles, then one narrower tile for the remainder.
///
/// # Safety
///
/// As for [`conv_tile`], with `nvec` vectors in place of `NV`.
#[inline(always)]
unsafe fn conv_channels<V: SimdF32, const OB: usize, const NV: usize>(
    x: *const f32,
    w: *const f32,
    wide: *mut f32,
    g: &Conv2dShape,
    lay: &PhaseLayout,
    nvec: usize,
) {
    const { assert!(NV <= 6, "remainder tiles cover at most 5 vectors") };
    let mut v = 0;
    while v + NV <= nvec {
        conv_tile::<V, OB, NV>(x.add(v * V::LANES), w, wide.add(v * V::LANES), g, lay);
        v += NV;
    }
    let (x, wide) = (x.add(v * V::LANES), wide.add(v * V::LANES));
    match nvec - v {
        0 => {}
        1 => conv_tile::<V, OB, 1>(x, w, wide, g, lay),
        2 => conv_tile::<V, OB, 2>(x, w, wide, g, lay),
        3 => conv_tile::<V, OB, 3>(x, w, wide, g, lay),
        4 => conv_tile::<V, OB, 4>(x, w, wide, g, lay),
        5 => conv_tile::<V, OB, 5>(x, w, wide, g, lay),
        _ => unreachable!("the remainder is shorter than NV"),
    }
}

struct Conv2dOp<'a> {
    x: &'a [f32],
    w: &'a [f32],
    out: &'a mut [f32],
    shape: Conv2dShape,
    /// Output channels, rows and columns to compute.
    window: [Range<usize>; 3],
}

impl Conv2dOp<'_> {
    /// The register-blocked body with `OB`-channel × `NV`-vector tiles. Writes every
    /// element of the window of `out` and no other.
    ///
    /// # Safety
    ///
    /// `V`'s tier must be available, and the slice lengths and the window must match
    /// `shape` (as [`Kernels::conv2d_window`] asserts): the tile walk then stays inside
    /// the planes and wide plane sized here, `w` and `out`.
    #[inline(always)]
    unsafe fn run<V: SimdF32, const OB: usize, const NV: usize>(&mut self) {
        let g = self.shape;
        let [channels, rows, cols] = self.window.clone();
        if channels.is_empty() || rows.is_empty() || cols.is_empty() {
            return;
        }
        let plane = g.out_h * g.out_w;
        if g.cin == 0 || g.kh == 0 || g.kw == 0 {
            // No partial products: every output is the reference's `+0.0` start.
            for out in self.out.chunks_exact_mut(g.cout * plane) {
                for ch in out[channels.start * plane..channels.end * plane].chunks_exact_mut(plane)
                {
                    for row in
                        ch[rows.start * g.out_w..rows.end * g.out_w].chunks_exact_mut(g.out_w)
                    {
                        row[cols.clone()].fill(0.0);
                    }
                }
            }
            return;
        }
        let lay = PhaseLayout::new(&g, V::LANES, rows.len(), cols.len());
        let cout = channels.len();
        // Out of the cell for the whole call: the kernel must run in this
        // tier-compiled body, not inside a `LocalKey::with` closure, which would not
        // inherit the tier's target features.
        let mut scratch = CONV_SCRATCH.take();
        grow(&mut scratch.planes, lay.planes_len(g.cin));
        grow(&mut scratch.wide, cout * lay.wide_len);
        let planes = &mut scratch.planes[..lay.planes_len(g.cin)];
        let wide = &mut scratch.wide[..cout * lay.wide_len];
        let (nvec, w_oc) = (lay.wide_len / V::LANES, g.cin * g.kh * g.kw);
        let x_rows = self.x.chunks_exact(g.cin * g.height * g.width);
        let out_rows = self.out.chunks_exact_mut(g.cout * plane);
        for (x, out) in x_rows.zip(out_rows) {
            fill_planes(x, &g, &lay, (rows.start, cols.start), planes);
            let mut oc = 0;
            // SAFETY: the planes and the wide plane were sized from `lay` for `cin`
            // and `cout` window channels, `w` holds `g.cout` filters of `w_oc` floats
            // and the window's channels lie inside them, and every block below stays
            // inside the window's channels.
            while oc < cout {
                let wp = self.w.as_ptr().add((channels.start + oc) * w_oc);
                let (xp, wide_p) = (planes.as_ptr(), wide.as_mut_ptr().add(oc * lay.wide_len));
                if oc + OB <= cout {
                    conv_channels::<V, OB, NV>(xp, wp, wide_p, &g, &lay, nvec);
                    oc += OB;
                } else {
                    conv_channels::<V, 1, NV>(xp, wp, wide_p, &g, &lay, nvec);
                    oc += 1;
                }
            }
            // Keep the window's columns of every wide row.
            let out = &mut out[channels.start * plane..channels.end * plane];
            for (out_ch, wide_ch) in out
                .chunks_exact_mut(plane)
                .zip(wide.chunks_exact(lay.wide_len))
            {
                let out_rows =
                    out_ch[rows.start * g.out_w..rows.end * g.out_w].chunks_exact_mut(g.out_w);
                for (o, row) in out_rows.zip(wide_ch.chunks_exact(lay.wq)) {
                    o[cols.clone()].copy_from_slice(&row[..cols.len()]);
                }
            }
        }
        CONV_SCRATCH.set(scratch);
    }
}

impl SimdOp for Conv2dOp<'_> {
    /// `false` when the filter holds a non-finite value; `out` is then untouched.
    type Output = bool;

    #[inline(always)]
    unsafe fn eval<V: SimdF32>(&mut self) -> bool {
        // A padding tap adds `0 · w`, the identity on the accumulator only for finite
        // `w` (`0 · inf` is NaN). Branch-free fold: it vectorizes, a short-circuiting
        // `all` does not.
        if !self.w.iter().fold(true, |ok, v| ok & v.is_finite()) {
            return false;
        }
        // Tile sizes (output channels × vectors) per tier, measured on the ResNet-18
        // conv geometries (docs/NUMERICS.md §6). AVX-512 and NEON have 32 vector
        // registers: 16 accumulators leave room for the splats. AVX2 has 16: 12
        // accumulators, 2 splats, 1 input vector and 1 product fill it without a
        // spill. The scalar tier measured fastest with 24 independent accumulator
        // chains.
        match V::LANES {
            16 | 4 => self.run::<V, 4, 4>(),
            8 => self.run::<V, 2, 6>(),
            _ => self.run::<V, 4, 6>(),
        }
        true
    }
}

/// Runtime-dispatched 2-D convolution, bit-for-bit equal to
/// `ranger_graph::ops::conv2d_forward_into` whenever the filter is finite.
///
/// Overwrites every element of `out` and returns `true`; returns `false`, leaving `out`
/// untouched, when `w` holds an infinity or NaN — the caller then runs the reference
/// kernel (see the [crate docs](crate) for why a non-finite filter needs it).
///
/// # Panics
///
/// Panics if the slice lengths disagree with `shape` — geometry validation belongs to
/// the caller; these checks only guard memory safety.
#[must_use]
pub fn conv2d(x: &[f32], w: &[f32], shape: &Conv2dShape, out: &mut [f32]) -> bool {
    let window = [0..shape.cout, 0..shape.out_h, 0..shape.out_w];
    kernels().conv2d_window(x, w, shape, &window, out)
}

/// [`conv2d`] over an output window only: output channels, rows and columns `window`
/// of every batch row, each element bit for bit the whole convolution's. The phase
/// planes hold only the window's receptive field. Every element of `out` outside the
/// window is left as it is.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `shape` or the window exceeds the output.
#[must_use]
pub fn conv2d_window(
    x: &[f32],
    w: &[f32],
    shape: &Conv2dShape,
    window: &[Range<usize>; 3],
    out: &mut [f32],
) -> bool {
    kernels().conv2d_window(x, w, shape, window, out)
}

struct MatMulOp<'a> {
    a: &'a [f32],
    b: &'a [f32],
    out: &'a mut [f32],
    m: usize,
    k: usize,
    n: usize,
}

impl SimdOp for MatMulOp<'_> {
    type Output = ();

    #[inline(always)]
    unsafe fn eval<V: SimdF32>(&mut self) {
        let (m, k, n) = (self.m, self.k, self.n);
        // The (i, p, j) nest of `Tensor::matmul_into`, verbatim — including the
        // `a == 0.0` skip, which is semantic: skipped partial products never round, and
        // sparse rows (post-ReLU activations) keep their exact shortcut.
        for i in 0..m {
            for p in 0..k {
                let a = self.a[i * k + p];
                if a == 0.0 {
                    continue;
                }
                let row = &self.b[p * n..(p + 1) * n];
                let out_row = &mut self.out[i * n..(i + 1) * n];
                axpy::<V>(out_row, row, a);
            }
        }
    }
}

/// Runtime-dispatched matrix multiplication (`a` is `m×k`, `b` is `k×n`), bit-for-bit
/// equal to `Tensor::matmul_into`.
///
/// `out` must be zero-initialized by the caller.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `m`/`k`/`n`.
pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    kernels().matmul(a, b, m, k, n, out);
}

struct SoftmaxOp<'a> {
    x: &'a [f32],
    out: &'a mut [f32],
    rows: usize,
    row_len: usize,
}

impl SimdOp for SoftmaxOp<'_> {
    type Output = ();

    #[inline(always)]
    unsafe fn eval<V: SimdF32>(&mut self) {
        let last = self.row_len;
        for r in 0..self.rows {
            let row = &self.x[r * last..(r + 1) * last];
            let orow = &mut self.out[r * last..(r + 1) * last];

            // Pass 1 — vectorized max. Folding new elements in as the NaN-dropping
            // operand mirrors the reference's NaN-ignoring `f32::max` fold; the only
            // freedom is the sign of a ±0.0 maximum, which cannot change any softmax
            // output (crate docs).
            let mut max = f32::NEG_INFINITY;
            let mut i = 0;
            if last >= V::LANES {
                let mut acc = V::splat(f32::NEG_INFINITY);
                while i + V::LANES <= last {
                    acc = V::load(row.as_ptr().add(i)).max(acc);
                    i += V::LANES;
                }
                max = acc.reduce_max();
            }
            while i < last {
                max = maxps(*row.get_unchecked(i), max);
                i += 1;
            }

            // Pass 2 — scalar exp-and-sum, verbatim from the reference: `exp` keeps
            // transcendental bit parity and `denom` accumulates in element order.
            let mut denom = 0.0f32;
            for (o, &v) in orow.iter_mut().zip(row) {
                let e = (v - max).exp();
                *o = e;
                denom += e;
            }

            // Pass 3 — vectorized normalize: IEEE division is correctly rounded, so
            // each lane divides exactly like the scalar `*o /= denom`.
            let dv = V::splat(denom);
            let mut i = 0;
            while i + V::LANES <= last {
                let ov = V::load(orow.as_ptr().add(i));
                ov.div(dv).store(orow.as_mut_ptr().add(i));
                i += V::LANES;
            }
            while i < last {
                *orow.get_unchecked_mut(i) /= denom;
                i += 1;
            }
        }
    }
}

/// Runtime-dispatched three-pass stable softmax over rows of length `row_len`,
/// bit-for-bit equal to `ranger_graph::ops::softmax_forward_into`.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `rows * row_len`.
pub fn softmax(x: &[f32], rows: usize, row_len: usize, out: &mut [f32]) {
    kernels().softmax(x, rows, row_len, out);
}

// ---- Resolved kernel table -----------------------------------------------------------

type Conv2dFn = fn(&[f32], &[f32], &Conv2dShape, &[Range<usize>; 3], &mut [f32]) -> bool;
type MatMulFn = fn(&[f32], &[f32], usize, usize, usize, &mut [f32]);
type SoftmaxFn = fn(&[f32], usize, usize, &mut [f32]);

/// The three kernel entry points resolved to one tier.
///
/// [`kernels`] builds this table once per process from the active tier: each entry is a
/// monomorphic function compiled inside that tier's `#[target_feature]` wrapper, so a
/// kernel call costs one indirect call instead of walking the tier `match` on every
/// invocation — the per-call dispatch overhead that showed up on deep, narrow graphs
/// where each kernel does little work. The free functions [`conv2d`], [`matmul`] and
/// [`softmax`] call through the table; [`dispatch`](crate::dispatch::dispatch) remains
/// the seam for custom [`SimdOp`] implementations.
pub struct Kernels {
    conv2d: Conv2dFn,
    matmul: MatMulFn,
    softmax: SoftmaxFn,
}

impl Kernels {
    /// Tier-resolved [`conv2d_window`] (same contract and panics).
    #[inline]
    #[must_use]
    pub fn conv2d_window(
        &self,
        x: &[f32],
        w: &[f32],
        shape: &Conv2dShape,
        window: &[Range<usize>; 3],
        out: &mut [f32],
    ) -> bool {
        let g = *shape;
        assert_eq!(x.len(), g.batch * g.cin * g.height * g.width);
        assert_eq!(w.len(), g.cout * g.cin * g.kh * g.kw);
        assert_eq!(out.len(), g.batch * g.cout * g.out_h * g.out_w);
        assert!(g.stride > 0, "conv2d stride must be positive");
        let [c, y, x_cols] = window;
        assert!(
            c.start <= c.end && c.end <= g.cout,
            "conv2d window channels {c:?} exceed {}",
            g.cout
        );
        assert!(
            y.start <= y.end && y.end <= g.out_h,
            "conv2d window rows {y:?} exceed {}",
            g.out_h
        );
        assert!(
            x_cols.start <= x_cols.end && x_cols.end <= g.out_w,
            "conv2d window columns {x_cols:?} exceed {}",
            g.out_w
        );
        (self.conv2d)(x, w, shape, window, out)
    }

    /// Tier-resolved [`matmul`] (same contract and panics).
    #[inline]
    pub fn matmul(&self, a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        assert_eq!(a.len(), m * k);
        assert_eq!(b.len(), k * n);
        assert_eq!(out.len(), m * n);
        (self.matmul)(a, b, m, k, n, out);
    }

    /// Tier-resolved [`softmax`] (same contract and panics).
    #[inline]
    pub fn softmax(&self, x: &[f32], rows: usize, row_len: usize, out: &mut [f32]) {
        assert_eq!(x.len(), rows * row_len);
        assert_eq!(out.len(), rows * row_len);
        (self.softmax)(x, rows, row_len, out);
    }
}

/// Generates one tier's monomorphic entry points. The modules are private and a tier is
/// installed into the table only after `active_tier` has verified it is executable on
/// this CPU, so the `unsafe` blocks cannot be reached for a foreign tier.
macro_rules! tier_entries {
    ($name:ident, $eval:path) => {
        mod $name {
            use super::{Conv2dOp, Conv2dShape, MatMulOp, SoftmaxOp};
            use std::ops::Range;

            pub fn conv2d(
                x: &[f32],
                w: &[f32],
                shape: &Conv2dShape,
                window: &[Range<usize>; 3],
                out: &mut [f32],
            ) -> bool {
                // SAFETY: this tier was verified available before being installed.
                unsafe {
                    $eval(&mut Conv2dOp {
                        x,
                        w,
                        out,
                        shape: *shape,
                        window: window.clone(),
                    })
                }
            }

            pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
                // SAFETY: this tier was verified available before being installed.
                unsafe { $eval(&mut MatMulOp { a, b, out, m, k, n }) }
            }

            pub fn softmax(x: &[f32], rows: usize, row_len: usize, out: &mut [f32]) {
                // SAFETY: this tier was verified available before being installed.
                unsafe {
                    $eval(&mut SoftmaxOp {
                        x,
                        out,
                        rows,
                        row_len,
                    })
                }
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
tier_entries!(avx512_entries, crate::dispatch::eval_avx512);
#[cfg(target_arch = "x86_64")]
tier_entries!(avx2_entries, crate::dispatch::eval_avx2);
#[cfg(target_arch = "aarch64")]
tier_entries!(neon_entries, crate::dispatch::eval_neon);
tier_entries!(scalar_entries, crate::dispatch::eval_scalar);

/// The process-wide kernel table, resolved from the tier ladder exactly once — the
/// dispatch tier cache: plans compiled against the SIMD backend reach these cached
/// kernel fns instead of re-matching the ladder per kernel call.
pub fn kernels() -> &'static Kernels {
    static TABLE: OnceLock<Kernels> = OnceLock::new();
    TABLE.get_or_init(|| match crate::dispatch::active_tier() {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 => Kernels {
            conv2d: avx512_entries::conv2d,
            matmul: avx512_entries::matmul,
            softmax: avx512_entries::softmax,
        },
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2Fma => Kernels {
            conv2d: avx2_entries::conv2d,
            matmul: avx2_entries::matmul,
            softmax: avx2_entries::softmax,
        },
        #[cfg(target_arch = "aarch64")]
        SimdTier::Neon => Kernels {
            conv2d: neon_entries::conv2d,
            matmul: neon_entries::matmul,
            softmax: neon_entries::softmax,
        },
        _ => Kernels {
            conv2d: scalar_entries::conv2d,
            matmul: scalar_entries::matmul,
            softmax: scalar_entries::softmax,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::active_tier;
    use crate::vec::ScalarVec;

    /// SplitMix64 over raw bit patterns: full-range f32 operands (subnormals, ±0,
    /// infinities, NaN) without depending on `rand`.
    struct Bits(u64);
    impl Bits {
        fn next_f32(&mut self) -> f32 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            f32::from_bits((z ^ (z >> 31)) as u32)
        }
        fn fill(&mut self, n: usize) -> Vec<f32> {
            (0..n).map(|_| self.next_f32()).collect()
        }
    }

    /// Bit patterns with NaN canonicalized: NaN *payloads* are the one bit IEEE leaves
    /// unspecified — LLVM does not pin scalar `fadd` operand order, so two NaN partial
    /// products can merge with either payload even between two scalar builds. Every
    /// judged quantity is payload-insensitive (NaN comparisons are false regardless),
    /// so the contract is exact bits for every non-NaN value and NaN-as-a-class.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { 0x7FC0_0000 } else { x.to_bits() })
            .collect()
    }

    /// A filter value in the moderate range, or (one in four) a raw finite bit pattern:
    /// subnormals, ±0 and huge magnitudes, never infinity or NaN.
    fn finite_weight(rng: &mut Bits) -> f32 {
        let (v, r) = (rng.next_f32(), rng.next_f32().to_bits());
        if v.is_finite() && r % 4 == 0 {
            v
        } else {
            ((r >> 8) as f32 / (1u32 << 24) as f32 - 0.5) * 4.0
        }
    }

    /// An activation: a raw bit pattern (NaN and infinities included) one time in four,
    /// a moderate value otherwise, so most sums stay finite long enough to round.
    fn activation(rng: &mut Bits) -> f32 {
        let (v, r) = (rng.next_f32(), rng.next_f32().to_bits());
        if r % 4 == 0 {
            v
        } else {
            ((r >> 8) as f32 / (1u32 << 24) as f32 - 0.5) * 16.0
        }
    }

    /// The geometry `ranger-graph` validates, for a square `k × k` filter: `same` pads
    /// to `ceil(size / stride)` outputs, otherwise no padding.
    #[allow(clippy::too_many_arguments)]
    fn geometry(
        batch: usize,
        cin: usize,
        (height, width): (usize, usize),
        cout: usize,
        k: usize,
        stride: usize,
        same: bool,
    ) -> Conv2dShape {
        let dim = |size: usize| {
            if same {
                let out = size.div_ceil(stride);
                let needed = (out.max(1) - 1) * stride + k;
                (out, needed.saturating_sub(size) / 2)
            } else if size >= k {
                ((size - k) / stride + 1, 0)
            } else {
                (0, 0)
            }
        };
        let ((out_h, pad_h), (out_w, pad_w)) = (dim(height), dim(width));
        Conv2dShape {
            batch,
            cin,
            height,
            width,
            cout,
            kh: k,
            kw: k,
            stride,
            pad_h,
            pad_w,
            out_h,
            out_w,
        }
    }

    /// A 2×4 filter at stride 3: different phase counts per dimension (2 × 3 planes).
    const NON_SQUARE: Conv2dShape = Conv2dShape {
        batch: 2,
        cin: 1,
        height: 4,
        width: 58,
        cout: 9,
        kh: 2,
        kw: 4,
        stride: 3,
        pad_h: 0,
        pad_w: 0,
        out_h: 1,
        out_w: 19,
    };

    /// The naive seven-loop convolution: one accumulator per output element, starting
    /// at `+0.0`, adding `x · w` for every in-bounds tap in `(ic, ky, kx)` order — the
    /// definition the register-blocked kernel must reproduce bit for bit.
    fn naive_conv(x: &[f32], w: &[f32], g: &Conv2dShape) -> Vec<f32> {
        let mut out = vec![0.0f32; g.batch * g.cout * g.out_h * g.out_w];
        for b in 0..g.batch {
            for oc in 0..g.cout {
                for oy in 0..g.out_h {
                    for ox in 0..g.out_w {
                        let mut acc = 0.0f32;
                        for ic in 0..g.cin {
                            for ky in 0..g.kh {
                                for kx in 0..g.kw {
                                    let iy = (oy * g.stride + ky).wrapping_sub(g.pad_h);
                                    let ix = (ox * g.stride + kx).wrapping_sub(g.pad_w);
                                    if iy < g.height && ix < g.width {
                                        let xv =
                                            x[((b * g.cin + ic) * g.height + iy) * g.width + ix];
                                        let wv = w[((oc * g.cin + ic) * g.kh + ky) * g.kw + kx];
                                        acc += xv * wv;
                                    }
                                }
                            }
                        }
                        out[((b * g.cout + oc) * g.out_h + oy) * g.out_w + ox] = acc;
                    }
                }
            }
        }
        out
    }

    /// Runs the kernel body on the scalar tier.
    fn scalar_conv(x: &[f32], w: &[f32], g: &Conv2dShape, out: &mut [f32]) -> bool {
        // SAFETY: the scalar body uses no vector instructions.
        unsafe {
            Conv2dOp {
                x,
                w,
                out,
                shape: *g,
                window: [0..g.cout, 0..g.out_h, 0..g.out_w],
            }
            .eval::<ScalarVec>()
        }
    }

    #[test]
    fn conv2d_identity_kernel_preserves_input() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let w = [1.0];
        let shape = geometry(1, 1, (2, 2), 1, 1, 1, false);
        let mut out = [0.0; 4];
        assert!(conv2d(&x, &w, &shape, &mut out));
        assert_eq!(out, x);
    }

    /// The active tier and the scalar tier against the naive oracle, over geometries
    /// that cross every block edge: channel counts around the output-channel block,
    /// wide planes from one partial vector to many whole tiles plus a remainder,
    /// strides past the kernel size, kernels wider than the input, and empty outputs.
    #[test]
    fn conv2d_matches_the_naive_seven_loop_oracle() {
        let mut rng = Bits(7);
        let mut cases = vec![
            // A ResNet-18 stage-1 conv, a stride-2 downsample and its 1x1 shortcut.
            geometry(1, 8, (32, 32), 8, 3, 1, true),
            geometry(2, 8, (32, 32), 16, 3, 2, true),
            geometry(1, 8, (32, 32), 16, 1, 2, true),
            // Kernel wider than the input, and a valid conv with no output at all.
            geometry(1, 1, (2, 2), 1, 7, 2, true),
            geometry(1, 2, (3, 3), 3, 5, 1, false),
            // No partial products at all: an empty filter, and no input channels.
            geometry(2, 2, (3, 3), 2, 0, 1, false),
            geometry(1, 0, (3, 3), 2, 3, 1, true),
            NON_SQUARE,
        ];
        for _ in 0..60 {
            let mut pick = |n: u64| (rng.next_f32().to_bits() as u64 % n) as usize;
            let (batch, cin, cout) = (1 + pick(3), 1 + pick(5), 1 + pick(11));
            let (h, w) = (1 + pick(40), 1 + pick(40));
            let (k, stride, same) = (1 + pick(5), 1 + pick(4), pick(2) == 0);
            cases.push(geometry(batch, cin, (h, w), cout, k, stride, same));
        }
        for g in cases {
            let x: Vec<f32> = (0..g.batch * g.cin * g.height * g.width)
                .map(|_| activation(&mut rng))
                .collect();
            let w: Vec<f32> = (0..g.cout * g.cin * g.kh * g.kw)
                .map(|_| finite_weight(&mut rng))
                .collect();
            let expected = bits(&naive_conv(&x, &w, &g));
            let mut active = vec![f32::NAN; expected.len()];
            assert!(conv2d(&x, &w, &g, &mut active));
            assert_eq!(
                bits(&active),
                expected,
                "conv2d diverged from the oracle on tier {} for {g:?}",
                active_tier()
            );
            let mut scalar = vec![f32::NAN; expected.len()];
            assert!(scalar_conv(&x, &w, &g, &mut scalar));
            assert_eq!(
                bits(&scalar),
                expected,
                "conv2d diverged from the oracle on the scalar tier for {g:?}"
            );
        }
    }

    /// A window computes exactly the whole convolution's elements inside it and leaves
    /// every other element alone, on the active tier and the scalar tier: windows at
    /// both edges, inside, one element wide and whole, over strides and paddings.
    #[test]
    fn conv2d_window_matches_the_whole_convolution_inside_and_touches_nothing_outside() {
        let mut rng = Bits(29);
        for g in [
            geometry(1, 3, (9, 11), 5, 3, 1, true),
            geometry(1, 2, (9, 9), 6, 3, 2, true),
            geometry(1, 2, (8, 20), 3, 5, 1, false),
            geometry(1, 1, (2, 2), 2, 7, 2, true),
            geometry(2, 2, (6, 7), 3, 3, 2, true),
            NON_SQUARE,
        ] {
            let x: Vec<f32> = (0..g.batch * g.cin * g.height * g.width)
                .map(|_| activation(&mut rng))
                .collect();
            let w: Vec<f32> = (0..g.cout * g.cin * g.kh * g.kw)
                .map(|_| finite_weight(&mut rng))
                .collect();
            let whole = bits(&naive_conv(&x, &w, &g));
            let mut windows = vec![[0..g.cout, 0..g.out_h, 0..g.out_w]];
            for _ in 0..12 {
                let mut pick = |n: usize| (rng.next_f32().to_bits() as usize) % (n + 1);
                let span = |a: usize, b: usize| a.min(b)..a.max(b);
                windows.push([
                    span(pick(g.cout), pick(g.cout)),
                    span(pick(g.out_h), pick(g.out_h)),
                    span(pick(g.out_w), pick(g.out_w)),
                ]);
            }
            for window in windows {
                let inside = |i: usize| {
                    let (ox, rest) = (i % g.out_w, i / g.out_w);
                    let (oy, oc) = (rest % g.out_h, (rest / g.out_h) % g.cout);
                    window[0].contains(&oc) && window[1].contains(&oy) && window[2].contains(&ox)
                };
                let sentinel = -7777.0f32;
                let mut active = vec![sentinel; whole.len()];
                assert!(conv2d_window(&x, &w, &g, &window, &mut active));
                let mut scalar = active.clone();
                scalar.fill(sentinel);
                // SAFETY: the scalar body uses no vector instructions.
                let scalar_ok = unsafe {
                    Conv2dOp {
                        x: &x,
                        w: &w,
                        out: &mut scalar,
                        shape: g,
                        window: window.clone(),
                    }
                    .eval::<ScalarVec>()
                };
                assert!(scalar_ok);
                for (name, got) in [("active", &active), ("scalar", &scalar)] {
                    for (i, (&v, &expected)) in bits(got).iter().zip(&whole).enumerate() {
                        let want = if inside(i) {
                            expected
                        } else {
                            sentinel.to_bits()
                        };
                        assert_eq!(v, want, "{name} tier, {g:?} window {window:?} element {i}");
                    }
                }
            }
        }
    }

    /// A padding tap adds `0 · w`, which is NaN for an infinite or NaN weight, so the
    /// kernel refuses such a filter on every tier and leaves `out` as it was.
    #[test]
    fn conv2d_reports_a_non_finite_filter_and_leaves_out_untouched() {
        let g = geometry(1, 2, (5, 5), 3, 3, 1, true);
        let x = vec![1.0f32; 2 * 5 * 5];
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut w = vec![0.5f32; 3 * 2 * 3 * 3];
            w[17] = bad;
            let mut out = vec![7.0f32; 3 * 5 * 5];
            assert!(
                !conv2d(&x, &w, &g, &mut out),
                "weight {bad} must be refused"
            );
            assert!(!scalar_conv(&x, &w, &g, &mut out));
            assert!(out.iter().all(|&v| v == 7.0), "out must be untouched");
        }
    }

    #[test]
    fn conv2d_active_tier_matches_scalar_tier_bit_for_bit() {
        let mut rng = Bits(7);
        // Shapes chosen to cover padding, strides, vector-width remainders and the
        // kernel-wider-than-input clamp.
        for g in [
            geometry(2, 3, (7, 19), 4, 3, 1, true),
            geometry(1, 2, (9, 9), 3, 3, 2, true),
            geometry(1, 1, (2, 2), 1, 7, 2, true),
            // Strided rows wider than 16 lanes, with padding exercising clamped ends.
            geometry(1, 2, (5, 67), 2, 3, 2, true),
            NON_SQUARE,
        ] {
            let x: Vec<f32> = (0..g.batch * g.cin * g.height * g.width)
                .map(|_| activation(&mut rng))
                .collect();
            let w: Vec<f32> = (0..g.cout * g.cin * g.kh * g.kw)
                .map(|_| finite_weight(&mut rng))
                .collect();
            let out_len = g.batch * g.cout * g.out_h * g.out_w;
            let mut simd_out = vec![0.0f32; out_len];
            assert!(conv2d(&x, &w, &g, &mut simd_out));
            let mut scalar_out = vec![0.0f32; out_len];
            assert!(scalar_conv(&x, &w, &g, &mut scalar_out));
            assert_eq!(
                bits(&simd_out),
                bits(&scalar_out),
                "conv2d diverged from scalar on tier {} for {g:?}",
                active_tier()
            );
        }
    }

    #[test]
    fn matmul_known_result_and_scalar_parity() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut out = [0.0; 4];
        matmul(&a, &b, 2, 2, 2, &mut out);
        assert_eq!(out, [19.0, 22.0, 43.0, 50.0]);

        let mut rng = Bits(21);
        for (m, k, n) in [(1, 1, 1), (3, 5, 17), (4, 4, 8), (2, 7, 33)] {
            let a = rng.fill(m * k);
            let b = rng.fill(k * n);
            let mut simd_out = vec![0.0f32; m * n];
            matmul(&a, &b, m, k, n, &mut simd_out);
            let mut scalar_out = vec![0.0f32; m * n];
            // SAFETY: the scalar body uses no vector instructions.
            unsafe {
                MatMulOp {
                    a: &a,
                    b: &b,
                    out: &mut scalar_out,
                    m,
                    k,
                    n,
                }
                .eval::<ScalarVec>()
            };
            assert_eq!(
                bits(&simd_out),
                bits(&scalar_out),
                "matmul diverged from scalar on tier {} for ({m},{k},{n})",
                active_tier()
            );
        }
    }

    #[test]
    fn kernel_table_matches_generic_dispatch_bit_for_bit() {
        use crate::dispatch::dispatch;
        let mut rng = Bits(55);
        let (m, k, n) = (3, 5, 17);
        let a = rng.fill(m * k);
        let b = rng.fill(k * n);
        let mut table_out = vec![0.0f32; m * n];
        matmul(&a, &b, m, k, n, &mut table_out);
        let mut dispatch_out = vec![0.0f32; m * n];
        dispatch(&mut MatMulOp {
            a: &a,
            b: &b,
            out: &mut dispatch_out,
            m,
            k,
            n,
        });
        assert_eq!(
            bits(&table_out),
            bits(&dispatch_out),
            "the resolved table must evaluate on the same tier as generic dispatch"
        );
    }

    #[test]
    fn softmax_rows_normalize_and_match_scalar_bit_for_bit() {
        let x = [1.0f32, 2.0, 3.0, 4.0];
        let mut out = [0.0f32; 4];
        softmax(&x, 1, 4, &mut out);
        let sum: f32 = out.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(out.windows(2).all(|w| w[0] < w[1]));

        let mut rng = Bits(33);
        for (rows, len) in [(1, 1), (3, 10), (2, 16), (5, 23)] {
            let x = rng.fill(rows * len);
            let mut simd_out = vec![0.0f32; rows * len];
            softmax(&x, rows, len, &mut simd_out);
            let mut scalar_out = vec![0.0f32; rows * len];
            // SAFETY: the scalar body uses no vector instructions.
            unsafe {
                SoftmaxOp {
                    x: &x,
                    out: &mut scalar_out,
                    rows,
                    row_len: len,
                }
                .eval::<ScalarVec>()
            };
            assert_eq!(
                bits(&simd_out),
                bits(&scalar_out),
                "softmax diverged from scalar on tier {} for ({rows},{len})",
                active_tier()
            );
        }
    }
}
