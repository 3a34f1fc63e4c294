//! Dense (fully-connected) kernels: matrix multiplication and bias addition.

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

/// Validated bias broadcast layout, shared by the f32 and fixed-point kernels: the
/// number of contiguous output elements each bias entry covers as the bias cycles over
/// the row-major data (`H * W` per channel for rank-4 inputs, 1 per feature for rank-2).
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] if the input rank is unsupported or the bias
/// length does not match.
pub(crate) fn bias_layout(
    node: NodeId,
    xd: &[usize],
    bias_len: usize,
) -> Result<usize, GraphError> {
    let (broadcast, count, label) = match xd.len() {
        4 => (xd[2] * xd[3], xd[1], "channels"),
        2 => (1, xd[1], "features"),
        _ => {
            return Err(shape_err(
                node,
                format!("bias_add expects rank-2 or rank-4 input, got {xd:?}"),
            ))
        }
    };
    if bias_len != count {
        return Err(shape_err(
            node,
            format!("bias length {bias_len} does not match {count} {label}"),
        ));
    }
    Ok(broadcast)
}

/// Transposes a rank-2 tensor.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] if the tensor is not rank 2.
pub fn transpose(node: NodeId, x: &Tensor) -> Result<Tensor, GraphError> {
    let d = x.dims();
    if d.len() != 2 {
        return Err(shape_err(
            node,
            format!("transpose expects a rank-2 tensor, got {d:?}"),
        ));
    }
    let (r, c) = (d[0], d[1]);
    let data = x.data();
    let mut out = vec![0.0f32; r * c];
    for i in 0..r {
        for j in 0..c {
            out[j * r + i] = data[i * c + j];
        }
    }
    Ok(Tensor::from_vec(vec![c, r], out)?)
}

/// Matrix multiplication forward pass: `x (N,K) · w (K,M) -> (N,M)`.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] on incompatible operands.
pub fn matmul_forward(node: NodeId, x: &Tensor, w: &Tensor) -> Result<Tensor, GraphError> {
    x.matmul(w).map_err(|e| shape_err(node, e.to_string()))
}

/// [`matmul_forward`], writing into a recycled output buffer.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] on incompatible operands; `out` is left unchanged.
pub fn matmul_forward_into(
    node: NodeId,
    x: &Tensor,
    w: &Tensor,
    out: &mut Tensor,
) -> Result<(), GraphError> {
    x.matmul_into(w, out)
        .map_err(|e| shape_err(node, e.to_string()))
}

/// Matrix multiplication backward pass: returns `(grad_x, grad_w)`.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] on incompatible operands.
pub fn matmul_backward(
    node: NodeId,
    x: &Tensor,
    w: &Tensor,
    grad_out: &Tensor,
) -> Result<(Tensor, Tensor), GraphError> {
    let wt = transpose(node, w)?;
    let xt = transpose(node, x)?;
    let gx = grad_out
        .matmul(&wt)
        .map_err(|e| shape_err(node, e.to_string()))?;
    let gw = xt
        .matmul(grad_out)
        .map_err(|e| shape_err(node, e.to_string()))?;
    Ok((gx, gw))
}

/// Bias addition forward pass.
///
/// For a rank-4 input `(N, C, H, W)` the bias has shape `(C,)` and is added per channel;
/// for a rank-2 input `(N, F)` the bias has shape `(F,)` and is added per feature.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] if the bias length does not match.
pub fn bias_add_forward(node: NodeId, x: &Tensor, bias: &Tensor) -> Result<Tensor, GraphError> {
    let mut out = Tensor::empty();
    bias_add_forward_into(node, x, bias, &mut out)?;
    Ok(out)
}

/// [`bias_add_forward`], writing into a recycled output buffer.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] if the bias length does not match; `out` is left
/// unchanged.
pub fn bias_add_forward_into(
    node: NodeId,
    x: &Tensor,
    bias: &Tensor,
    out: &mut Tensor,
) -> Result<(), GraphError> {
    let xd = x.dims();
    let b = bias.data();
    let broadcast = bias_layout(node, xd, b.len())?;
    out.reset_fill(xd, 0.0);
    if broadcast > 0 {
        bias_add_run(x.data(), b, broadcast, 0..x.len(), out.data_mut());
    }
    Ok(())
}

/// Adds the bias to elements `run` of `x`, writing them into `out`: the bias cycles over
/// contiguous `broadcast`-sized chunks of the row-major data, per channel plane (rank 4)
/// or per feature (rank 2). One add per element, so a run of any extent computes its
/// elements bit for bit as the whole tensor's pass does.
pub(crate) fn bias_add_run(
    x: &[f32],
    bias: &[f32],
    broadcast: usize,
    run: Range<usize>,
    out: &mut [f32],
) {
    let (mut i, mut chunk) = (run.start, run.start / broadcast);
    let mut b = chunk % bias.len();
    while i < run.end {
        let end = ((chunk + 1) * broadcast).min(run.end);
        let bias_v = bias[b];
        for (o, &v) in out[i..end].iter_mut().zip(&x[i..end]) {
            *o = v + bias_v;
        }
        (i, chunk, b) = (end, chunk + 1, if b + 1 == bias.len() { 0 } else { b + 1 });
    }
}

/// Bias addition backward pass: returns `(grad_x, grad_bias)`.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] if the shapes are inconsistent.
pub fn bias_add_backward(
    node: NodeId,
    x: &Tensor,
    bias: &Tensor,
    grad_out: &Tensor,
) -> Result<(Tensor, Tensor), GraphError> {
    let xd = x.dims();
    if grad_out.dims() != xd {
        return Err(shape_err(node, "bias_add backward gradient shape mismatch"));
    }
    let gdat = grad_out.data();
    let mut gb = vec![0.0f32; bias.len()];
    match xd.len() {
        4 => {
            let (n, c, h, w) = (xd[0], xd[1], xd[2], xd[3]);
            if bias.len() != c {
                return Err(shape_err(
                    node,
                    format!("bias length {} does not match {} channels", bias.len(), c),
                ));
            }
            for bi in 0..n {
                for (ch, g) in gb.iter_mut().enumerate() {
                    let base = (bi * c + ch) * h * w;
                    *g += gdat[base..base + h * w].iter().sum::<f32>();
                }
            }
        }
        2 => {
            let (n, f) = (xd[0], xd[1]);
            if bias.len() != f {
                return Err(shape_err(
                    node,
                    format!("bias length {} does not match {} features", bias.len(), f),
                ));
            }
            for bi in 0..n {
                for j in 0..f {
                    gb[j] += gdat[bi * f + j];
                }
            }
        }
        _ => {
            return Err(shape_err(
                node,
                "bias_add backward expects rank-2 or rank-4 input",
            ))
        }
    }
    Ok((
        grad_out.clone(),
        Tensor::from_vec(bias.dims().to_vec(), gb)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid() -> NodeId {
        NodeId::new(0)
    }

    #[test]
    fn transpose_known_result() {
        let x = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let t = transpose(nid(), &x).unwrap();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert!(transpose(nid(), &Tensor::ones(vec![2])).is_err());
    }

    #[test]
    fn matmul_backward_matches_numerical_gradient() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        let x = Tensor::from_vec(
            vec![2, 3],
            (0..6).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
        .unwrap();
        let w = Tensor::from_vec(
            vec![3, 4],
            (0..12).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
        .unwrap();
        let y = matmul_forward(nid(), &x, &w).unwrap();
        let grad_out = Tensor::ones(y.dims().to_vec());
        let (gx, gw) = matmul_backward(nid(), &x, &w, &grad_out).unwrap();
        let eps = 1e-3f32;
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (matmul_forward(nid(), &xp, &w).unwrap().sum()
                - matmul_forward(nid(), &xm, &w).unwrap().sum())
                / (2.0 * eps);
            assert!((num - gx.data()[idx]).abs() < 1e-2);
        }
        for idx in 0..w.len() {
            let mut wp = w.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = w.clone();
            wm.data_mut()[idx] -= eps;
            let num = (matmul_forward(nid(), &x, &wp).unwrap().sum()
                - matmul_forward(nid(), &x, &wm).unwrap().sum())
                / (2.0 * eps);
            assert!((num - gw.data()[idx]).abs() < 1e-2);
        }
    }

    #[test]
    fn bias_add_rank2() {
        let x = Tensor::from_vec(vec![2, 3], vec![0.0; 6]).unwrap();
        let b = Tensor::from_vec(vec![3], vec![1.0, 2.0, 3.0]).unwrap();
        let y = bias_add_forward(nid(), &x, &b).unwrap();
        assert_eq!(y.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn bias_add_rank4_broadcasts_per_channel() {
        let x = Tensor::zeros(vec![1, 2, 2, 2]);
        let b = Tensor::from_vec(vec![2], vec![10.0, 20.0]).unwrap();
        let y = bias_add_forward(nid(), &x, &b).unwrap();
        assert_eq!(y.data(), &[10.0, 10.0, 10.0, 10.0, 20.0, 20.0, 20.0, 20.0]);
    }

    #[test]
    fn bias_add_rejects_length_mismatch() {
        let x = Tensor::zeros(vec![1, 3, 2, 2]);
        let b = Tensor::zeros(vec![2]);
        assert!(bias_add_forward(nid(), &x, &b).is_err());
        assert!(bias_add_forward(nid(), &Tensor::zeros(vec![3]), &b).is_err());
    }

    #[test]
    fn bias_add_backward_sums_over_batch_and_space() {
        let x = Tensor::zeros(vec![2, 2, 2, 2]);
        let b = Tensor::zeros(vec![2]);
        let grad = Tensor::ones(vec![2, 2, 2, 2]);
        let (gx, gb) = bias_add_backward(nid(), &x, &b, &grad).unwrap();
        assert_eq!(gx.data(), grad.data());
        assert_eq!(gb.data(), &[8.0, 8.0]);

        let x2 = Tensor::zeros(vec![3, 2]);
        let b2 = Tensor::zeros(vec![2]);
        let grad2 = Tensor::ones(vec![3, 2]);
        let (_, gb2) = bias_add_backward(nid(), &x2, &b2, &grad2).unwrap();
        assert_eq!(gb2.data(), &[3.0, 3.0]);
    }
}
