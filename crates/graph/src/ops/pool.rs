//! Pooling kernels (max, average and global average) in NCHW layout.

use crate::error::GraphError;
use crate::graph::NodeId;
use ranger_tensor::Tensor;
use std::ops::Range;

fn shape_err(node: NodeId, message: impl Into<String>) -> GraphError {
    GraphError::ShapeError {
        node,
        message: message.into(),
    }
}

/// Output spatial extent of one pooled dimension (shared with the fixed-point backend).
pub(crate) fn pool_geometry(input: usize, kernel: usize, stride: usize) -> usize {
    if input >= kernel {
        (input - kernel) / stride + 1
    } else {
        0
    }
}

/// Validated pooling layout, shared by the f32 and fixed-point kernels so every backend
/// accepts exactly the same operands with exactly the same errors.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PoolLayout {
    pub batch: usize,
    pub channels: usize,
    pub height: usize,
    pub width: usize,
    pub out_h: usize,
    pub out_w: usize,
}

/// Checks the pooled operand's rank and the window parameters, and computes the output
/// spatial extents.
pub(crate) fn pool_layout(
    node: NodeId,
    xd: &[usize],
    kernel: usize,
    stride: usize,
) -> Result<PoolLayout, GraphError> {
    if xd.len() != 4 {
        return Err(shape_err(
            node,
            format!("pooling expects a rank-4 input, got {xd:?}"),
        ));
    }
    if kernel == 0 || stride == 0 {
        return Err(shape_err(
            node,
            "pooling kernel and stride must be positive",
        ));
    }
    let (batch, channels, height, width) = (xd[0], xd[1], xd[2], xd[3]);
    let out_h = pool_geometry(height, kernel, stride);
    let out_w = pool_geometry(width, kernel, stride);
    if out_h == 0 || out_w == 0 {
        return Err(shape_err(
            node,
            format!("pooling window {kernel} larger than input {height}x{width}"),
        ));
    }
    Ok(PoolLayout {
        batch,
        channels,
        height,
        width,
        out_h,
        out_w,
    })
}

/// Validated global-pooling layout — `(batch, channels, height, width)` — shared by the
/// f32 and fixed-point kernels.
pub(crate) fn global_pool_layout(
    node: NodeId,
    xd: &[usize],
) -> Result<(usize, usize, usize, usize), GraphError> {
    if xd.len() != 4 {
        return Err(shape_err(
            node,
            format!("global average pooling expects rank-4 input, got {xd:?}"),
        ));
    }
    Ok((xd[0], xd[1], xd[2], xd[3]))
}

/// Max-pooling forward pass with a square window.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] if `x` is not rank 4 or the window parameters are
/// degenerate.
pub fn max_pool_forward(
    node: NodeId,
    x: &Tensor,
    kernel: usize,
    stride: usize,
) -> Result<Tensor, GraphError> {
    let mut out = Tensor::empty();
    pool_forward_into(node, x, kernel, stride, PoolKind::Max, &mut out)?;
    Ok(out)
}

/// [`max_pool_forward`], writing into a recycled output buffer.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] if `x` is not rank 4 or the window parameters are
/// degenerate; `out` is left unchanged.
pub fn max_pool_forward_into(
    node: NodeId,
    x: &Tensor,
    kernel: usize,
    stride: usize,
    out: &mut Tensor,
) -> Result<(), GraphError> {
    pool_forward_into(node, x, kernel, stride, PoolKind::Max, out)
}

/// Average-pooling forward pass with a square window.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] if `x` is not rank 4 or the window parameters are
/// degenerate.
pub fn avg_pool_forward(
    node: NodeId,
    x: &Tensor,
    kernel: usize,
    stride: usize,
) -> Result<Tensor, GraphError> {
    let mut out = Tensor::empty();
    pool_forward_into(node, x, kernel, stride, PoolKind::Avg, &mut out)?;
    Ok(out)
}

/// [`avg_pool_forward`], writing into a recycled output buffer.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] if `x` is not rank 4 or the window parameters are
/// degenerate; `out` is left unchanged.
pub fn avg_pool_forward_into(
    node: NodeId,
    x: &Tensor,
    kernel: usize,
    stride: usize,
    out: &mut Tensor,
) -> Result<(), GraphError> {
    pool_forward_into(node, x, kernel, stride, PoolKind::Avg, out)
}

/// Which reduction a pooling window applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolKind {
    /// The window's maximum.
    Max,
    /// The window's mean.
    Avg,
}

fn pool_forward_into(
    node: NodeId,
    x: &Tensor,
    kernel: usize,
    stride: usize,
    kind: PoolKind,
    out: &mut Tensor,
) -> Result<(), GraphError> {
    let layout = pool_layout(node, x.dims(), kernel, stride)?;
    let (n, c, ho, wo) = (layout.batch, layout.channels, layout.out_h, layout.out_w);
    out.reset_fill(&[n, c, ho, wo], 0.0);
    pool_nest(
        &layout,
        x.data(),
        kernel,
        stride,
        kind,
        &[0..c, 0..ho, 0..wo],
        out,
    );
    Ok(())
}

/// Max or average pooling over an output window only: channels, rows and columns
/// `window` of every batch row are computed into `out`, which must already hold a value
/// of the output's shape; every other element is left as it is. Each computed element
/// is bit for bit the full kernel's.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] if `x` is not rank 4, the window parameters are
/// degenerate, or `out` does not have the output's shape or the window exceeds it.
pub fn pool_window_into(
    node: NodeId,
    x: &Tensor,
    kernel: usize,
    stride: usize,
    kind: PoolKind,
    window: &[Range<usize>; 3],
    out: &mut Tensor,
) -> Result<(), GraphError> {
    let layout = pool_layout(node, x.dims(), kernel, stride)?;
    let dims = [layout.batch, layout.channels, layout.out_h, layout.out_w];
    if out.dims() != dims
        || window[0].end > dims[1]
        || window[1].end > dims[2]
        || window[2].end > dims[3]
    {
        return Err(shape_err(
            node,
            format!("pooling window {window:?} does not fit an output of shape {dims:?}"),
        ));
    }
    pool_nest(&layout, x.data(), kernel, stride, kind, window, out);
    Ok(())
}

/// The pooling loop nest over output `window` of every batch row.
fn pool_nest(
    layout: &PoolLayout,
    xdat: &[f32],
    kernel: usize,
    stride: usize,
    kind: PoolKind,
    window: &[Range<usize>; 3],
    out: &mut Tensor,
) {
    let (n, c, h, w) = (layout.batch, layout.channels, layout.height, layout.width);
    let (ho, wo) = (layout.out_h, layout.out_w);
    let odat = out.data_mut();
    for b in 0..n {
        for ch in window[0].clone() {
            for oy in window[1].clone() {
                for ox in window[2].clone() {
                    let mut acc = if kind == PoolKind::Max {
                        f32::NEG_INFINITY
                    } else {
                        0.0
                    };
                    for ky in 0..kernel {
                        for kx in 0..kernel {
                            let v =
                                xdat[((b * c + ch) * h + oy * stride + ky) * w + ox * stride + kx];
                            match kind {
                                PoolKind::Max => acc = acc.max(v),
                                PoolKind::Avg => acc += v,
                            }
                        }
                    }
                    if kind == PoolKind::Avg {
                        acc /= (kernel * kernel) as f32;
                    }
                    odat[((b * c + ch) * ho + oy) * wo + ox] = acc;
                }
            }
        }
    }
}

/// Max-pooling backward pass: routes each output gradient to the input position that
/// achieved the maximum (ties broken toward the first position scanned, matching the
/// forward pass).
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] on rank or shape mismatches.
pub fn max_pool_backward(
    node: NodeId,
    x: &Tensor,
    grad_out: &Tensor,
    kernel: usize,
    stride: usize,
) -> Result<Tensor, GraphError> {
    let xd = x.dims();
    if xd.len() != 4 || grad_out.dims().len() != 4 {
        return Err(shape_err(node, "max_pool backward expects rank-4 operands"));
    }
    let (n, c, h, w) = (xd[0], xd[1], xd[2], xd[3]);
    let ho = pool_geometry(h, kernel, stride);
    let wo = pool_geometry(w, kernel, stride);
    if grad_out.dims() != [n, c, ho, wo] {
        return Err(shape_err(node, "max_pool backward gradient shape mismatch"));
    }
    let xdat = x.data();
    let gdat = grad_out.data();
    let mut gx = vec![0.0f32; xdat.len()];
    for b in 0..n {
        for ch in 0..c {
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for ky in 0..kernel {
                        for kx in 0..kernel {
                            let idx = ((b * c + ch) * h + oy * stride + ky) * w + ox * stride + kx;
                            if xdat[idx] > best {
                                best = xdat[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    gx[best_idx] += gdat[((b * c + ch) * ho + oy) * wo + ox];
                }
            }
        }
    }
    Ok(Tensor::from_vec(xd.to_vec(), gx)?)
}

/// Average-pooling backward pass: distributes each output gradient evenly over its window.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] on rank or shape mismatches.
pub fn avg_pool_backward(
    node: NodeId,
    x: &Tensor,
    grad_out: &Tensor,
    kernel: usize,
    stride: usize,
) -> Result<Tensor, GraphError> {
    let xd = x.dims();
    if xd.len() != 4 || grad_out.dims().len() != 4 {
        return Err(shape_err(node, "avg_pool backward expects rank-4 operands"));
    }
    let (n, c, h, w) = (xd[0], xd[1], xd[2], xd[3]);
    let ho = pool_geometry(h, kernel, stride);
    let wo = pool_geometry(w, kernel, stride);
    if grad_out.dims() != [n, c, ho, wo] {
        return Err(shape_err(node, "avg_pool backward gradient shape mismatch"));
    }
    let gdat = grad_out.data();
    let mut gx = vec![0.0f32; x.len()];
    let scale = 1.0 / (kernel * kernel) as f32;
    for b in 0..n {
        for ch in 0..c {
            for oy in 0..ho {
                for ox in 0..wo {
                    let g = gdat[((b * c + ch) * ho + oy) * wo + ox] * scale;
                    for ky in 0..kernel {
                        for kx in 0..kernel {
                            gx[((b * c + ch) * h + oy * stride + ky) * w + ox * stride + kx] += g;
                        }
                    }
                }
            }
        }
    }
    Ok(Tensor::from_vec(xd.to_vec(), gx)?)
}

/// Global average pooling: reduces `(N, C, H, W)` to `(N, C)`.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] if `x` is not rank 4.
pub fn global_avg_pool_forward(node: NodeId, x: &Tensor) -> Result<Tensor, GraphError> {
    let mut out = Tensor::empty();
    global_avg_pool_forward_into(node, x, &mut out)?;
    Ok(out)
}

/// [`global_avg_pool_forward`], writing into a recycled output buffer.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] if `x` is not rank 4; `out` is left unchanged.
pub fn global_avg_pool_forward_into(
    node: NodeId,
    x: &Tensor,
    out: &mut Tensor,
) -> Result<(), GraphError> {
    let (n, c, h, w) = global_pool_layout(node, x.dims())?;
    let xdat = x.data();
    out.reset_fill(&[n, c], 0.0);
    let odat = out.data_mut();
    let scale = 1.0 / (h * w) as f32;
    for b in 0..n {
        for ch in 0..c {
            let base = (b * c + ch) * h * w;
            odat[b * c + ch] = xdat[base..base + h * w].iter().sum::<f32>() * scale;
        }
    }
    Ok(())
}

/// Global average pooling backward pass.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] on shape mismatches.
pub fn global_avg_pool_backward(
    node: NodeId,
    x: &Tensor,
    grad_out: &Tensor,
) -> Result<Tensor, GraphError> {
    let xd = x.dims();
    if xd.len() != 4 {
        return Err(shape_err(
            node,
            "global average pooling backward expects rank-4 input",
        ));
    }
    let (n, c, h, w) = (xd[0], xd[1], xd[2], xd[3]);
    if grad_out.dims() != [n, c] {
        return Err(shape_err(
            node,
            "global average pooling gradient shape mismatch",
        ));
    }
    let scale = 1.0 / (h * w) as f32;
    let gdat = grad_out.data();
    let mut gx = vec![0.0f32; x.len()];
    for b in 0..n {
        for ch in 0..c {
            let g = gdat[b * c + ch] * scale;
            let base = (b * c + ch) * h * w;
            for v in &mut gx[base..base + h * w] {
                *v = g;
            }
        }
    }
    Ok(Tensor::from_vec(xd.to_vec(), gx)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid() -> NodeId {
        NodeId::new(0)
    }

    #[test]
    fn max_pool_known_result() {
        let x = Tensor::from_vec(
            vec![1, 1, 4, 4],
            vec![
                1.0, 2.0, 3.0, 4.0, //
                5.0, 6.0, 7.0, 8.0, //
                9.0, 10.0, 11.0, 12.0, //
                13.0, 14.0, 15.0, 16.0,
            ],
        )
        .unwrap();
        let y = max_pool_forward(nid(), &x, 2, 2).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn avg_pool_known_result() {
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 3.0, 5.0, 7.0]).unwrap();
        let y = avg_pool_forward(nid(), &x, 2, 2).unwrap();
        assert_eq!(y.data(), &[4.0]);
    }

    #[test]
    fn global_avg_pool_reduces_spatial_dims() {
        let x = Tensor::from_vec(
            vec![1, 2, 2, 2],
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0],
        )
        .unwrap();
        let y = global_avg_pool_forward(nid(), &x).unwrap();
        assert_eq!(y.dims(), &[1, 2]);
        assert_eq!(y.data(), &[2.5, 25.0]);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 9.0, 3.0, 4.0]).unwrap();
        let grad = Tensor::from_vec(vec![1, 1, 1, 1], vec![5.0]).unwrap();
        let gx = max_pool_backward(nid(), &x, &grad, 2, 2).unwrap();
        assert_eq!(gx.data(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn avg_pool_backward_distributes_evenly() {
        let x = Tensor::ones(vec![1, 1, 2, 2]);
        let grad = Tensor::from_vec(vec![1, 1, 1, 1], vec![8.0]).unwrap();
        let gx = avg_pool_backward(nid(), &x, &grad, 2, 2).unwrap();
        assert_eq!(gx.data(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn global_avg_pool_backward_spreads_gradient() {
        let x = Tensor::ones(vec![1, 1, 2, 2]);
        let grad = Tensor::from_vec(vec![1, 1], vec![4.0]).unwrap();
        let gx = global_avg_pool_backward(nid(), &x, &grad).unwrap();
        assert_eq!(gx.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn pooling_rejects_bad_shapes() {
        let x = Tensor::ones(vec![2, 2]);
        assert!(max_pool_forward(nid(), &x, 2, 2).is_err());
        let x = Tensor::ones(vec![1, 1, 2, 2]);
        assert!(max_pool_forward(nid(), &x, 3, 1).is_err());
        assert!(max_pool_forward(nid(), &x, 0, 1).is_err());
        assert!(global_avg_pool_forward(nid(), &Tensor::ones(vec![3])).is_err());
    }

    #[test]
    fn overlapping_windows_with_stride_one() {
        let x = Tensor::from_vec(
            vec![1, 1, 3, 3],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
        )
        .unwrap();
        let y = max_pool_forward(nid(), &x, 2, 1).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[5.0, 6.0, 8.0, 9.0]);
    }
}
