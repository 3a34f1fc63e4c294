//! Shape-manipulating and combining kernels: flatten, reshape, concat, add, mul.

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

/// Validated concat layout, shared by the f32 and fixed-point kernels so every backend
/// accepts exactly the same operands with exactly the same errors.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConcatLayout {
    /// Output dims as a stack buffer (no allocation on the execution hot path); the
    /// meaningful prefix is `dims[..rank]` = `[n, total_c, spatial...]`.
    dims: [usize; 4],
    /// Operand rank (2 or 4).
    rank: usize,
    /// Leading (batch) extent.
    pub batch: usize,
    /// Total channels across all inputs.
    pub total_c: usize,
    /// Elements per channel (product of the spatial dims).
    pub inner: usize,
}

impl ConcatLayout {
    /// The output dimensions (`[n, total_c, spatial...]`).
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank]
    }
}

/// Checks that every input shares rank (2 or 4), batch and spatial dims, and sums the
/// channel extents.
pub(crate) fn concat_layout(node: NodeId, shapes: &[&[usize]]) -> Result<ConcatLayout, GraphError> {
    let first = shapes
        .first()
        .ok_or_else(|| shape_err(node, "concat requires at least one input"))?;
    let rank = first.len();
    if rank != 2 && rank != 4 {
        return Err(shape_err(node, "concat supports rank-2 or rank-4 inputs"));
    }
    let batch = first[0];
    let spatial = &first[2..];
    let mut total_c = 0usize;
    for d in shapes {
        if d.len() != rank || d[0] != batch || &d[2..] != spatial {
            return Err(shape_err(
                node,
                "concat inputs must agree in every dimension except channels",
            ));
        }
        total_c += d[1];
    }
    let inner: usize = spatial.iter().product::<usize>().max(1);
    let mut dims = [0usize; 4];
    dims[0] = batch;
    dims[1] = total_c;
    dims[2..rank].copy_from_slice(spatial);
    Ok(ConcatLayout {
        dims,
        rank,
        batch,
        total_c,
        inner,
    })
}

/// Flattens `(N, ...)` into `(N, features)`.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] if the input is a scalar.
pub fn flatten_forward(node: NodeId, x: &Tensor) -> Result<Tensor, GraphError> {
    let mut out = Tensor::empty();
    flatten_forward_into(node, x, &mut out)?;
    Ok(out)
}

/// [`flatten_forward`], writing into a recycled output buffer.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] if the input is a scalar; `out` is left unchanged.
pub fn flatten_forward_into(node: NodeId, x: &Tensor, out: &mut Tensor) -> Result<(), GraphError> {
    let d = x.dims();
    if d.is_empty() {
        return Err(shape_err(node, "flatten requires at least rank-1 input"));
    }
    let n = d[0];
    let features = d[1..].iter().product::<usize>().max(1);
    out.reset_rows_from_slice(n, &[features], x.data())
        .map_err(|e| shape_err(node, e.to_string()))
}

/// Reshapes to `[batch, dims...]`, preserving the batch dimension.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] if the element counts do not match.
pub fn reshape_forward(node: NodeId, x: &Tensor, dims: &[usize]) -> Result<Tensor, GraphError> {
    let mut out = Tensor::empty();
    reshape_forward_into(node, x, dims, &mut out)?;
    Ok(out)
}

/// [`reshape_forward`], writing into a recycled output buffer.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] if the element counts do not match; `out` is left
/// unchanged.
pub fn reshape_forward_into(
    node: NodeId,
    x: &Tensor,
    dims: &[usize],
    out: &mut Tensor,
) -> Result<(), GraphError> {
    let d = x.dims();
    if d.is_empty() {
        return Err(shape_err(node, "reshape requires at least rank-1 input"));
    }
    out.reset_rows_from_slice(d[0], dims, x.data())
        .map_err(|_| {
            shape_err(
                node,
                format!(
                    "cannot reshape {:?} into a batch of {} x {:?}",
                    d, d[0], dims
                ),
            )
        })
}

/// Backward for flatten/reshape: restores the gradient to the input shape.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] if the gradient has a different element count.
pub fn reshape_backward(node: NodeId, x: &Tensor, grad_out: &Tensor) -> Result<Tensor, GraphError> {
    grad_out
        .reshape(x.dims().to_vec())
        .map_err(|_| shape_err(node, "reshape backward element count mismatch"))
}

/// Concatenates tensors along the channel dimension (axis 1).
///
/// All inputs must have identical shapes except in axis 1 and must be rank 2 or rank 4.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] on incompatible operands.
pub fn concat_forward(node: NodeId, inputs: &[&Tensor]) -> Result<Tensor, GraphError> {
    let mut out = Tensor::empty();
    concat_forward_into(node, inputs, &mut out)?;
    Ok(out)
}

/// [`concat_forward`], writing into a recycled output buffer.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] on incompatible operands; `out` is left unchanged.
pub fn concat_forward_into(
    node: NodeId,
    inputs: &[&Tensor],
    out: &mut Tensor,
) -> Result<(), GraphError> {
    let shapes: Vec<&[usize]> = inputs.iter().map(|t| t.dims()).collect();
    let layout = concat_layout(node, &shapes)?;
    let (n, total_c, inner) = (layout.batch, layout.total_c, layout.inner);
    out.reset_fill(layout.dims(), 0.0);
    let odat = out.data_mut();
    for b in 0..n {
        let mut c_offset = 0usize;
        for t in inputs {
            let c = t.dims()[1];
            let src = &t.data()[b * c * inner..(b + 1) * c * inner];
            let dst_base = (b * total_c + c_offset) * inner;
            odat[dst_base..dst_base + c * inner].copy_from_slice(src);
            c_offset += c;
        }
    }
    Ok(())
}

/// Copies elements `run` of a batch-1 channel concatenation into `out`: the output is
/// the inputs' elements back to back, so each input fills the part of `run` it covers.
pub(crate) fn concat_run<'a, T: Copy + 'a>(
    inputs: impl IntoIterator<Item = &'a [T]>,
    run: Range<usize>,
    out: &mut [T],
) {
    let mut offset = 0;
    for src in inputs {
        let (lo, hi) = (run.start.max(offset), run.end.min(offset + src.len()));
        if lo < hi {
            out[lo..hi].copy_from_slice(&src[lo - offset..hi - offset]);
        }
        offset += src.len();
    }
}

/// Backward for concat: splits the output gradient back into per-input gradients.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] on shape inconsistencies.
pub fn concat_backward(
    node: NodeId,
    inputs: &[&Tensor],
    grad_out: &Tensor,
) -> Result<Vec<Tensor>, GraphError> {
    if inputs.is_empty() {
        return Err(shape_err(
            node,
            "concat backward requires at least one input",
        ));
    }
    let n = inputs[0].dims()[0];
    let spatial: Vec<usize> = inputs[0].dims()[2..].to_vec();
    let inner: usize = spatial.iter().product::<usize>().max(1);
    let total_c: usize = inputs.iter().map(|t| t.dims()[1]).sum();
    if grad_out.len() != n * total_c * inner {
        return Err(shape_err(
            node,
            "concat backward gradient element count mismatch",
        ));
    }
    let gdat = grad_out.data();
    let mut grads = Vec::with_capacity(inputs.len());
    let mut c_offset = 0usize;
    for t in inputs {
        let c = t.dims()[1];
        let mut g = vec![0.0f32; t.len()];
        for b in 0..n {
            let src_base = (b * total_c + c_offset) * inner;
            let dst_base = b * c * inner;
            g[dst_base..dst_base + c * inner]
                .copy_from_slice(&gdat[src_base..src_base + c * inner]);
        }
        grads.push(Tensor::from_vec(t.dims().to_vec(), g)?);
        c_offset += c;
    }
    Ok(grads)
}

/// Elementwise addition of two same-shaped tensors.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] if the shapes differ.
pub fn add_forward(node: NodeId, a: &Tensor, b: &Tensor) -> Result<Tensor, GraphError> {
    a.add(b).map_err(|e| shape_err(node, e.to_string()))
}

/// [`add_forward`], writing into a recycled output buffer.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] if the shapes differ; `out` is left unchanged.
pub fn add_forward_into(
    node: NodeId,
    a: &Tensor,
    b: &Tensor,
    out: &mut Tensor,
) -> Result<(), GraphError> {
    a.zip_map_into(b, out, |x, y| x + y)
        .map_err(|e| shape_err(node, e.to_string()))
}

/// Elementwise multiplication of two same-shaped tensors.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] if the shapes differ.
pub fn mul_forward(node: NodeId, a: &Tensor, b: &Tensor) -> Result<Tensor, GraphError> {
    a.mul(b).map_err(|e| shape_err(node, e.to_string()))
}

/// [`mul_forward`], writing into a recycled output buffer.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] if the shapes differ; `out` is left unchanged.
pub fn mul_forward_into(
    node: NodeId,
    a: &Tensor,
    b: &Tensor,
    out: &mut Tensor,
) -> Result<(), GraphError> {
    a.zip_map_into(b, out, |x, y| x * y)
        .map_err(|e| shape_err(node, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid() -> NodeId {
        NodeId::new(0)
    }

    #[test]
    fn flatten_collapses_trailing_dims() {
        let x = Tensor::zeros(vec![2, 3, 4, 5]);
        let y = flatten_forward(nid(), &x).unwrap();
        assert_eq!(y.dims(), &[2, 60]);
        assert!(flatten_forward(nid(), &Tensor::scalar(1.0)).is_err());
    }

    #[test]
    fn reshape_preserves_batch() {
        let x = Tensor::zeros(vec![2, 12]);
        let y = reshape_forward(nid(), &x, &[3, 4]).unwrap();
        assert_eq!(y.dims(), &[2, 3, 4]);
        assert!(reshape_forward(nid(), &x, &[5, 5]).is_err());
    }

    #[test]
    fn reshape_backward_restores_shape() {
        let x = Tensor::zeros(vec![2, 3, 4]);
        let g = Tensor::ones(vec![2, 12]);
        let gx = reshape_backward(nid(), &x, &g).unwrap();
        assert_eq!(gx.dims(), x.dims());
    }

    #[test]
    fn concat_stacks_channels() {
        let a = Tensor::filled(vec![1, 1, 2, 2], 1.0);
        let b = Tensor::filled(vec![1, 2, 2, 2], 2.0);
        let y = concat_forward(nid(), &[&a, &b]).unwrap();
        assert_eq!(y.dims(), &[1, 3, 2, 2]);
        assert_eq!(&y.data()[0..4], &[1.0; 4]);
        assert_eq!(&y.data()[4..12], &[2.0; 8]);
    }

    #[test]
    fn concat_rank2() {
        let a = Tensor::from_vec(vec![2, 1], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec(vec![2, 2], vec![3.0, 4.0, 5.0, 6.0]).unwrap();
        let y = concat_forward(nid(), &[&a, &b]).unwrap();
        assert_eq!(y.dims(), &[2, 3]);
        assert_eq!(y.data(), &[1.0, 3.0, 4.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    fn concat_rejects_mismatched_inputs() {
        let a = Tensor::zeros(vec![1, 1, 2, 2]);
        let b = Tensor::zeros(vec![1, 1, 3, 3]);
        assert!(concat_forward(nid(), &[&a, &b]).is_err());
        assert!(concat_forward(nid(), &[]).is_err());
        let c = Tensor::zeros(vec![2, 1, 2, 2]);
        assert!(concat_forward(nid(), &[&a, &c]).is_err());
    }

    #[test]
    fn concat_backward_splits_gradient() {
        let a = Tensor::zeros(vec![1, 1, 1, 2]);
        let b = Tensor::zeros(vec![1, 2, 1, 2]);
        let grad = Tensor::from_vec(vec![1, 3, 1, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let grads = concat_backward(nid(), &[&a, &b], &grad).unwrap();
        assert_eq!(grads[0].data(), &[1.0, 2.0]);
        assert_eq!(grads[1].data(), &[3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn add_and_mul_require_same_shape() {
        let a = Tensor::ones(vec![2, 2]);
        let b = Tensor::filled(vec![2, 2], 3.0);
        assert_eq!(add_forward(nid(), &a, &b).unwrap().data(), &[4.0; 4]);
        assert_eq!(mul_forward(nid(), &a, &b).unwrap().data(), &[3.0; 4]);
        let c = Tensor::ones(vec![3]);
        assert!(add_forward(nid(), &a, &c).is_err());
        assert!(mul_forward(nid(), &a, &c).is_err());
    }

    #[test]
    fn concat_round_trip_through_backward() {
        let a = Tensor::from_vec(vec![1, 2, 1, 1], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec(vec![1, 1, 1, 1], vec![3.0]).unwrap();
        let y = concat_forward(nid(), &[&a, &b]).unwrap();
        let grads = concat_backward(nid(), &[&a, &b], &y).unwrap();
        assert_eq!(grads[0].data(), a.data());
        assert_eq!(grads[1].data(), b.data());
    }
}
