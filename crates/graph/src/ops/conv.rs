//! 2-D convolution kernels (forward and backward) in NCHW layout.

use crate::error::GraphError;
use crate::graph::NodeId;
use crate::op::Padding;
use ranger_tensor::Tensor;

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
    let (n, cin, h, win) = (g.batch, g.cin, g.height, g.width);
    let (cout, kh, kw) = (g.cout, g.kh, g.kw);
    let (ho, pad_h) = (g.out_h, g.pad_h);
    let (wo, pad_w) = (g.out_w, g.pad_w);

    let xdat = x.data();
    let wdat = w.data();
    out.reset_fill(&[n, cout, ho, wo], 0.0);
    let odat = out.data_mut();

    // Row-group blocked loop nest: the innermost loop walks one *output row* while
    // reading one contiguous input row and one contiguous filter row, so consecutive
    // iterations hit consecutive cache lines instead of striding across the channel and
    // kernel dimensions per output element (the conv-locality item batched campaigns
    // exposed: per-output-element gathers made batching cache-neutral on LeNet).
    //
    // The interchange is bit-for-bit safe: for any fixed output element the partial
    // products still arrive in (ic, ky, kx) order — only the position of the `ox` loop
    // moved — so the f32 accumulation order, and therefore every campaign count pinned
    // on this kernel, is unchanged (asserted against the naive nest in the tests below).
    for b in 0..n {
        for oc in 0..cout {
            for oy in 0..ho {
                let out_row = &mut odat[((b * cout + oc) * ho + oy) * wo..][..wo];
                for ic in 0..cin {
                    for ky in 0..kh {
                        let iy = (oy * stride + ky) as isize - pad_h as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let x_row = &xdat[((b * cin + ic) * h + iy as usize) * win..][..win];
                        let w_row = &wdat[((oc * cin + ic) * kh + ky) * kw..][..kw];
                        for (kx, &wv) in w_row.iter().enumerate() {
                            // Valid output columns: 0 <= ox * stride + kx - pad_w < win.
                            let kx_off = kx as isize - pad_w as isize;
                            // A kernel column entirely in the padding (possible when the
                            // kernel is much wider than the input) contributes to no
                            // output column: both bounds clamp to wo, an empty range.
                            let ox_min = if kx_off >= 0 {
                                0
                            } else {
                                wo.min(((-kx_off) as usize).div_ceil(stride))
                            };
                            let ox_end = if win as isize <= kx_off {
                                0
                            } else {
                                wo.min((win as isize - 1 - kx_off) as usize / stride + 1)
                            };
                            for (o, ox) in
                                out_row[ox_min..ox_end.max(ox_min)].iter_mut().zip(ox_min..)
                            {
                                let ix = (ox * stride) as isize + kx_off;
                                *o += x_row[ix as usize] * wv;
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(())
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

    /// The straightforward per-output-element nest the blocked kernel replaced; kept here
    /// as the semantic reference the blocked loops must match **bit-for-bit** (same
    /// partial-product order per output element, so identical f32 rounding).
    fn conv2d_naive(x: &Tensor, w: &Tensor, stride: usize, padding: Padding) -> Tensor {
        let (xd, wd) = (x.dims(), w.dims());
        let (n, cin, h, win) = (xd[0], xd[1], xd[2], xd[3]);
        let (cout, _, kh, kw) = (wd[0], wd[1], wd[2], wd[3]);
        let (ho, pad_h) = padded_geometry(h, kh, stride, padding);
        let (wo, pad_w) = padded_geometry(win, kw, stride, padding);
        let (xdat, wdat) = (x.data(), w.data());
        let mut odat = vec![0.0f32; n * cout * ho * wo];
        for b in 0..n {
            for oc in 0..cout {
                for oy in 0..ho {
                    for ox in 0..wo {
                        let mut acc = 0.0f32;
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
                                    acc += xdat
                                        [((b * cin + ic) * h + iy as usize) * win + ix as usize]
                                        * wdat[((oc * cin + ic) * kh + ky) * kw + kx];
                                }
                            }
                        }
                        odat[((b * cout + oc) * ho + oy) * wo + ox] = acc;
                    }
                }
            }
        }
        Tensor::from_vec(vec![n, cout, ho, wo], odat).unwrap()
    }

    #[test]
    fn blocked_kernel_matches_naive_nest_bit_for_bit() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for (shape_x, shape_w, stride, padding) in [
            (vec![2, 3, 7, 7], vec![4, 3, 3, 3], 1, Padding::Same),
            (vec![1, 2, 9, 6], vec![3, 2, 3, 3], 2, Padding::Same),
            (vec![1, 1, 8, 8], vec![2, 1, 5, 5], 1, Padding::Valid),
            (vec![2, 4, 6, 6], vec![2, 4, 2, 2], 2, Padding::Valid),
            (vec![1, 1, 4, 4], vec![1, 1, 1, 1], 1, Padding::Same),
            (vec![1, 2, 5, 5], vec![2, 2, 4, 4], 3, Padding::Same),
            // Kernel far wider than the input: outer kernel columns lie entirely in the
            // padding and must contribute nothing (regression: the blocked nest once
            // sliced out of range here).
            (vec![1, 1, 1, 1], vec![1, 1, 5, 5], 1, Padding::Same),
            (vec![1, 1, 2, 2], vec![1, 1, 7, 7], 2, Padding::Same),
        ] {
            let nx: usize = shape_x.iter().product();
            let nw: usize = shape_w.iter().product();
            let x = Tensor::from_vec(
                shape_x.clone(),
                (0..nx).map(|_| rng.gen_range(-2.0..2.0)).collect(),
            )
            .unwrap();
            let w = Tensor::from_vec(
                shape_w.clone(),
                (0..nw).map(|_| rng.gen_range(-2.0..2.0)).collect(),
            )
            .unwrap();
            let blocked = conv2d_forward(nid(), &x, &w, stride, padding).unwrap();
            let naive = conv2d_naive(&x, &w, stride, padding);
            assert_eq!(
                blocked, naive,
                "blocked conv diverged from the naive nest for x {shape_x:?} w {shape_w:?} \
                 stride {stride} {padding:?}"
            );
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
