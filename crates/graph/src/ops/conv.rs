//! 2-D convolution kernels (forward and backward) in NCHW layout.

use crate::error::GraphError;
use crate::graph::NodeId;
use crate::op::Padding;
use ranger_tensor::Tensor;
use std::ops::Range;

/// Computes the output spatial size and the leading padding for one spatial dimension
/// (shared with the fixed-point backend, which must agree on padding semantics exactly).
pub(crate) fn padded_geometry(
    input: usize,
    kernel: usize,
    stride: usize,
    padding: Padding,
) -> (usize, usize) {
    match padding {
        Padding::Valid => {
            let out = if input >= kernel {
                (input - kernel) / stride + 1
            } else {
                0
            };
            (out, 0)
        }
        // An empty input has no output positions, and so no padding either.
        Padding::Same if input == 0 => (0, 0),
        Padding::Same => {
            let out = input.div_ceil(stride);
            let needed = (out - 1) * stride + kernel;
            let pad_total = needed.saturating_sub(input);
            (out, pad_total / 2)
        }
    }
}

fn shape_err(node: NodeId, message: impl Into<String>) -> GraphError {
    GraphError::ShapeError {
        node,
        message: message.into(),
    }
}

/// Validated 2-D convolution geometry, shared by the f32 and fixed-point kernels so
/// every backend accepts exactly the same operands with exactly the same errors.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Conv2dGeometry {
    pub batch: usize,
    pub cin: usize,
    pub height: usize,
    pub width: usize,
    pub cout: usize,
    pub kh: usize,
    pub kw: usize,
    pub out_h: usize,
    pub out_w: usize,
    pub pad_h: usize,
    pub pad_w: usize,
}

/// Checks conv operand ranks, channel agreement and stride, and computes the padded
/// output geometry.
pub(crate) fn conv2d_geometry(
    node: NodeId,
    xd: &[usize],
    wd: &[usize],
    stride: usize,
    padding: Padding,
) -> Result<Conv2dGeometry, GraphError> {
    if xd.len() != 4 || wd.len() != 4 {
        return Err(shape_err(
            node,
            format!("conv2d expects rank-4 operands, got {xd:?} and {wd:?}"),
        ));
    }
    if xd[1] != wd[1] {
        return Err(shape_err(
            node,
            format!(
                "conv2d channel mismatch: input has {} channels, filter expects {}",
                xd[1], wd[1]
            ),
        ));
    }
    if stride == 0 {
        return Err(shape_err(node, "conv2d stride must be positive"));
    }
    let (out_h, pad_h) = padded_geometry(xd[2], wd[2], stride, padding);
    let (out_w, pad_w) = padded_geometry(xd[3], wd[3], stride, padding);
    Ok(Conv2dGeometry {
        batch: xd[0],
        cin: xd[1],
        height: xd[2],
        width: xd[3],
        cout: wd[0],
        kh: wd[2],
        kw: wd[3],
        out_h,
        out_w,
        pad_h,
        pad_w,
    })
}

/// 2-D convolution forward pass.
///
/// * `x` — activations with shape `(N, Cin, H, W)`.
/// * `w` — filters with shape `(Cout, Cin, Kh, Kw)`.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] if the operands are not rank 4 or the channel
/// counts disagree.
pub fn conv2d_forward(
    node: NodeId,
    x: &Tensor,
    w: &Tensor,
    stride: usize,
    padding: Padding,
) -> Result<Tensor, GraphError> {
    let mut out = Tensor::empty();
    conv2d_forward_into(node, x, w, stride, padding, &mut out)?;
    Ok(out)
}

/// [`conv2d_forward`], writing into a recycled output buffer.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] if the operands are not rank 4 or the channel
/// counts disagree; `out` is left unchanged.
pub fn conv2d_forward_into(
    node: NodeId,
    x: &Tensor,
    w: &Tensor,
    stride: usize,
    padding: Padding,
    out: &mut Tensor,
) -> Result<(), GraphError> {
    let g = conv2d_geometry(node, x.dims(), w.dims(), stride, padding)?;
    out.reset_fill(&[g.batch, g.cout, g.out_h, g.out_w], 0.0);
    conv_nest(
        &g,
        stride,
        x.data(),
        w.data(),
        &[0..g.cout, 0..g.out_h, 0..g.out_w],
        out.data_mut(),
    );
    Ok(())
}

/// [`conv2d_forward_into`] over an output window only: output channels, rows and
/// columns `window` of every batch row are computed into `out`, which must already hold
/// a value of the output's shape; every other element of `out` is left as it is.
///
/// Each computed element is bit for bit the full kernel's: the nest is the same, only
/// its output ranges shrink.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] if the operands are invalid (as for
/// [`conv2d_forward_into`]), or if `out` does not have the output's shape or the window
/// exceeds it; `out` is then left unchanged.
pub fn conv2d_window_into(
    node: NodeId,
    x: &Tensor,
    w: &Tensor,
    stride: usize,
    padding: Padding,
    window: &[Range<usize>; 3],
    out: &mut Tensor,
) -> Result<(), GraphError> {
    let g = conv2d_geometry(node, x.dims(), w.dims(), stride, padding)?;
    let dims = [g.batch, g.cout, g.out_h, g.out_w];
    if out.dims() != dims
        || window[0].end > g.cout
        || window[1].end > g.out_h
        || window[2].end > g.out_w
    {
        return Err(shape_err(
            node,
            format!("conv2d window {window:?} does not fit an output of shape {dims:?}"),
        ));
    }
    conv_nest(&g, stride, x.data(), w.data(), window, out.data_mut());
    Ok(())
}

/// The reference conv nest over output `window` of every batch row of `out` (already
/// shaped for `g`): each output element starts at `+0.0` and adds its in-bounds
/// products `x · w` in `(ic, ky, kx)` order, a separate multiply and add each. Kernel
/// taps in the padding are skipped, never added as zeros.
fn conv_nest(
    g: &Conv2dGeometry,
    stride: usize,
    x: &[f32],
    w: &[f32],
    window: &[Range<usize>; 3],
    out: &mut [f32],
) {
    // The kernel taps of an output at offset `start` that fall inside an input of
    // length `len` padded by `pad` in front.
    let taps = |start: usize, pad: usize, len: usize, k: usize| {
        let lo = pad.saturating_sub(start).min(k);
        lo..(len + pad).saturating_sub(start).clamp(lo, k)
    };
    let [channels, rows, cols] = window;
    for b in 0..g.batch {
        for oc in channels.clone() {
            for oy in rows.clone() {
                let top = oy * stride;
                for ox in cols.clone() {
                    let left = ox * stride;
                    let mut acc = 0.0f32;
                    for ic in 0..g.cin {
                        for ky in taps(top, g.pad_h, g.height, g.kh) {
                            let iy = top + ky - g.pad_h;
                            for kx in taps(left, g.pad_w, g.width, g.kw) {
                                let ix = left + kx - g.pad_w;
                                acc += x[((b * g.cin + ic) * g.height + iy) * g.width + ix]
                                    * w[((oc * g.cin + ic) * g.kh + ky) * g.kw + kx];
                            }
                        }
                    }
                    out[((b * g.cout + oc) * g.out_h + oy) * g.out_w + ox] = acc;
                }
            }
        }
    }
}

/// 2-D convolution backward pass.
///
/// Returns `(grad_x, grad_w)` given the forward operands and the gradient of the loss with
/// respect to the convolution output.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] on operand rank/shape mismatches.
pub fn conv2d_backward(
    node: NodeId,
    x: &Tensor,
    w: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    padding: Padding,
) -> Result<(Tensor, Tensor), GraphError> {
    let xd = x.dims();
    let wd = w.dims();
    let gd = grad_out.dims();
    if xd.len() != 4 || wd.len() != 4 || gd.len() != 4 {
        return Err(shape_err(node, "conv2d backward expects rank-4 operands"));
    }
    let (n, cin, h, win) = (xd[0], xd[1], xd[2], xd[3]);
    let (cout, _, kh, kw) = (wd[0], wd[1], wd[2], wd[3]);
    let (ho, pad_h) = padded_geometry(h, kh, stride, padding);
    let (wo, pad_w) = padded_geometry(win, kw, stride, padding);
    if gd != [n, cout, ho, wo] {
        return Err(shape_err(
            node,
            format!(
                "conv2d backward gradient shape {gd:?} does not match expected {:?}",
                [n, cout, ho, wo]
            ),
        ));
    }

    let xdat = x.data();
    let wdat = w.data();
    let gdat = grad_out.data();
    let mut gx = vec![0.0f32; xdat.len()];
    let mut gw = vec![0.0f32; wdat.len()];

    for b in 0..n {
        for oc in 0..cout {
            for oy in 0..ho {
                for ox in 0..wo {
                    let g = gdat[((b * cout + oc) * ho + oy) * wo + ox];
                    if g == 0.0 {
                        continue;
                    }
                    for ic in 0..cin {
                        for ky in 0..kh {
                            let iy = (oy * stride + ky) as isize - pad_h as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..kw {
                                let ix = (ox * stride + kx) as isize - pad_w as isize;
                                if ix < 0 || ix >= win as isize {
                                    continue;
                                }
                                let x_idx = ((b * cin + ic) * h + iy as usize) * win + ix as usize;
                                let w_idx = ((oc * cin + ic) * kh + ky) * kw + kx;
                                gx[x_idx] += g * wdat[w_idx];
                                gw[w_idx] += g * xdat[x_idx];
                            }
                        }
                    }
                }
            }
        }
    }
    Ok((
        Tensor::from_vec(xd.to_vec(), gx)?,
        Tensor::from_vec(wd.to_vec(), gw)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn nid() -> NodeId {
        NodeId::new(0)
    }

    #[test]
    fn identity_kernel_preserves_input() {
        // A single 1x1 identity filter applied to a 1-channel image is the identity map.
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let w = Tensor::from_vec(vec![1, 1, 1, 1], vec![1.0]).unwrap();
        let y = conv2d_forward(nid(), &x, &w, 1, Padding::Valid).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn valid_padding_known_result() {
        // 3x3 input, 2x2 kernel of ones: each output is the sum of a 2x2 patch.
        let x = Tensor::from_vec(
            vec![1, 1, 3, 3],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
        )
        .unwrap();
        let w = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0; 4]).unwrap();
        let y = conv2d_forward(nid(), &x, &w, 1, Padding::Valid).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn same_padding_preserves_spatial_size() {
        let x = Tensor::ones(vec![2, 3, 5, 5]);
        let w = Tensor::ones(vec![4, 3, 3, 3]);
        let y = conv2d_forward(nid(), &x, &w, 1, Padding::Same).unwrap();
        assert_eq!(y.dims(), &[2, 4, 5, 5]);
        // Centre outputs see the full 3x3x3 window of ones.
        assert_eq!(y.get(&[0, 0, 2, 2]), 27.0);
        // Corner outputs see only a 2x2x3 window.
        assert_eq!(y.get(&[0, 0, 0, 0]), 12.0);
    }

    #[test]
    fn stride_two_halves_output() {
        let x = Tensor::ones(vec![1, 1, 6, 6]);
        let w = Tensor::ones(vec![1, 1, 3, 3]);
        let y = conv2d_forward(nid(), &x, &w, 2, Padding::Same).unwrap();
        assert_eq!(y.dims(), &[1, 1, 3, 3]);
    }

    #[test]
    fn multi_channel_accumulates_across_channels() {
        let x = Tensor::from_vec(vec![1, 2, 1, 1], vec![2.0, 3.0]).unwrap();
        let w = Tensor::from_vec(vec![1, 2, 1, 1], vec![10.0, 100.0]).unwrap();
        let y = conv2d_forward(nid(), &x, &w, 1, Padding::Valid).unwrap();
        assert_eq!(y.data(), &[320.0]);
    }

    #[test]
    fn rejects_rank_and_channel_mismatch() {
        let x = Tensor::ones(vec![1, 2, 3, 3]);
        let bad_w = Tensor::ones(vec![1, 3, 3, 3]);
        assert!(conv2d_forward(nid(), &x, &bad_w, 1, Padding::Valid).is_err());
        let not4d = Tensor::ones(vec![2, 3, 3]);
        assert!(conv2d_forward(nid(), &not4d, &bad_w, 1, Padding::Valid).is_err());
    }

    #[test]
    fn backward_matches_numerical_gradient() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let x = Tensor::from_vec(
            vec![1, 2, 4, 4],
            (0..32).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
        .unwrap();
        let w = Tensor::from_vec(
            vec![3, 2, 3, 3],
            (0..54).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
        .unwrap();
        let stride = 1;
        let padding = Padding::Same;

        // Loss = sum(conv(x, w)); its gradient w.r.t. the output is all ones.
        let y = conv2d_forward(nid(), &x, &w, stride, padding).unwrap();
        let grad_out = Tensor::ones(y.dims().to_vec());
        let (gx, gw) = conv2d_backward(nid(), &x, &w, &grad_out, stride, padding).unwrap();

        let eps = 1e-2f32;
        // Check a few weight coordinates against central differences.
        for &idx in &[0usize, 7, 20, 53] {
            let mut wp = w.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = w.clone();
            wm.data_mut()[idx] -= eps;
            let fp = conv2d_forward(nid(), &x, &wp, stride, padding)
                .unwrap()
                .sum();
            let fm = conv2d_forward(nid(), &x, &wm, stride, padding)
                .unwrap()
                .sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - gw.data()[idx]).abs() < 1e-2,
                "dW[{idx}]: numerical {num} vs analytic {}",
                gw.data()[idx]
            );
        }
        // And a few input coordinates.
        for &idx in &[0usize, 5, 17, 31] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fp = conv2d_forward(nid(), &xp, &w, stride, padding)
                .unwrap()
                .sum();
            let fm = conv2d_forward(nid(), &xm, &w, stride, padding)
                .unwrap()
                .sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - gx.data()[idx]).abs() < 1e-2,
                "dX[{idx}]: numerical {num} vs analytic {}",
                gx.data()[idx]
            );
        }
    }

    /// Kernel taps in the padding are skipped, not added as zeros: an infinite filter
    /// tap that only ever reads the padding leaves every output finite.
    #[test]
    fn padding_taps_are_skipped_not_added_as_zeros() {
        let x = Tensor::ones(vec![1, 1, 3, 3]);
        let mut w = Tensor::ones(vec![1, 1, 3, 3]);
        w.data_mut()[0] = f32::INFINITY;
        let y = conv2d_forward(nid(), &x, &w, 2, Padding::Same).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        // Only output (1, 1) reads the input through the infinite top-left tap; the
        // other three read the padding through it.
        assert_eq!(y.data(), &[4.0, 4.0, 4.0, f32::INFINITY]);
    }

    /// An operand value: mostly moderate magnitudes, with signed zeros, subnormals, the
    /// infinities, NaN and `f32::MAX` (products that overflow) mixed in.
    fn value(rng: &mut rand::rngs::StdRng) -> f32 {
        use rand::Rng;
        let sign = |rng: &mut rand::rngs::StdRng| rng.gen_range(0u32..2) << 31;
        match rng.gen_range(0u32..64) {
            0 => [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, f32::MAX][rng.gen_range(0..4)],
            1..=4 => f32::from_bits(sign(rng)),
            5..=8 => f32::from_bits(rng.gen_range(1u32..0x0080_0000) | sign(rng)),
            _ => rng.gen_range(-4.0f32..4.0),
        }
    }

    fn random_tensor(rng: &mut rand::rngs::StdRng, dims: Vec<usize>) -> Tensor {
        let len = dims.iter().product();
        Tensor::from_vec(dims, (0..len).map(|_| value(rng)).collect()).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random geometry (empty batches, channels and images, kernels wider than the
        /// input, strides up to 4, both paddings) and a random output window: the
        /// windowed nest writes the full pass's elements inside the window, bit for bit
        /// with NaN compared as a class (docs/NUMERICS.md §6), and touches nothing
        /// outside it.
        #[test]
        fn windowed_nest_matches_the_full_nest_on_random_geometry(
            n in 0usize..4,
            cin in 0usize..6,
            cout in 1usize..10,
            h in 0usize..21,
            win in 0usize..21,
            kh in 1usize..8,
            kw in 1usize..8,
            stride in 1usize..5,
            same in 0u8..2,
            seed in 0u64..u64::MAX,
        ) {
            use rand::{Rng, SeedableRng};
            let bits = |v: f32| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() };
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let x = random_tensor(&mut rng, vec![n, cin, h, win]);
            let w = random_tensor(&mut rng, vec![cout, cin, kh, kw]);
            let padding = if same == 1 { Padding::Same } else { Padding::Valid };
            let full = conv2d_forward(nid(), &x, &w, stride, padding).unwrap();
            let dims = full.dims().to_vec();
            let window: [Range<usize>; 3] = std::array::from_fn(|i| {
                let lo = rng.gen_range(0..=dims[i + 1]);
                lo..rng.gen_range(lo..=dims[i + 1])
            });
            let mut out = Tensor::filled(dims.clone(), 77.0);
            conv2d_window_into(nid(), &x, &w, stride, padding, &window, &mut out).unwrap();
            for (i, (&got, &want)) in out.data().iter().zip(full.data()).enumerate() {
                let (oc, oy, ox) = (
                    i / (dims[2] * dims[3]) % dims[1],
                    i / dims[3] % dims[2],
                    i % dims[3],
                );
                let inside = window[0].contains(&oc)
                    && window[1].contains(&oy)
                    && window[2].contains(&ox);
                let expected = if inside { want } else { 77.0 };
                assert_eq!(bits(got), bits(expected), "{window:?}: element {i}");
            }
        }
    }

    #[test]
    fn backward_rejects_mismatched_gradient_shape() {
        let x = Tensor::ones(vec![1, 1, 4, 4]);
        let w = Tensor::ones(vec![1, 1, 3, 3]);
        let bad_grad = Tensor::ones(vec![1, 1, 9, 9]);
        assert!(conv2d_backward(nid(), &x, &w, &bad_grad, 1, Padding::Same).is_err());
    }
}
