//! Elementwise activation kernels and their derivatives.

use crate::error::GraphError;
use crate::graph::NodeId;
use ranger_tensor::Tensor;

fn shape_err(node: NodeId, message: impl Into<String>) -> GraphError {
    GraphError::ShapeError {
        node,
        message: message.into(),
    }
}

/// Validated softmax layout — `(rows, row_length)` over the last dimension — shared by
/// the f32 and fixed-point kernels so every backend accepts exactly the same operands
/// with exactly the same errors.
pub(crate) fn softmax_layout(
    node: NodeId,
    dims: &[usize],
    len: usize,
) -> Result<(usize, usize), GraphError> {
    if dims.is_empty() {
        return Err(shape_err(node, "softmax requires at least rank-1 input"));
    }
    let last = *dims.last().expect("non-empty dims");
    if last == 0 {
        return Err(shape_err(node, "softmax over an empty dimension"));
    }
    Ok((len / last, last))
}

/// Allocating wrapper over an elementwise `_into` kernel (the `_into` variant is the
/// single implementation, so the two cannot diverge numerically).
fn alloc(f: impl FnOnce(&mut Tensor)) -> Tensor {
    let mut out = Tensor::empty();
    f(&mut out);
    out
}

/// Rectified linear unit: `max(x, 0)`.
pub fn relu_forward(x: &Tensor) -> Tensor {
    alloc(|out| relu_forward_into(x, out))
}

/// [`relu_forward`], writing into a recycled output buffer.
pub fn relu_forward_into(x: &Tensor, out: &mut Tensor) {
    x.map_into(out, relu);
}

/// ReLU on one element — the kernel of [`relu_forward_into`] and of windowed passes.
pub(crate) fn relu(v: f32) -> f32 {
    v.max(0.0)
}

/// ReLU backward: the gradient flows only where the input was positive.
pub fn relu_backward(x: &Tensor, grad_out: &Tensor) -> Result<Tensor, GraphError> {
    Ok(x.zip_map(grad_out, |xi, g| if xi > 0.0 { g } else { 0.0 })?)
}

/// Hyperbolic tangent activation.
pub fn tanh_forward(x: &Tensor) -> Tensor {
    alloc(|out| tanh_forward_into(x, out))
}

/// [`tanh_forward`], writing into a recycled output buffer.
pub fn tanh_forward_into(x: &Tensor, out: &mut Tensor) {
    x.map_into(out, f32::tanh);
}

/// Tanh backward: `dy/dx = 1 - tanh(x)^2`.
pub fn tanh_backward(x: &Tensor, grad_out: &Tensor) -> Result<Tensor, GraphError> {
    Ok(x.zip_map(grad_out, |xi, g| {
        let t = xi.tanh();
        g * (1.0 - t * t)
    })?)
}

/// Logistic sigmoid activation.
pub fn sigmoid_forward(x: &Tensor) -> Tensor {
    alloc(|out| sigmoid_forward_into(x, out))
}

/// [`sigmoid_forward`], writing into a recycled output buffer.
pub fn sigmoid_forward_into(x: &Tensor, out: &mut Tensor) {
    x.map_into(out, sigmoid);
}

/// The logistic sigmoid of one element.
pub(crate) fn sigmoid(v: f32) -> f32 {
    1.0 / (1.0 + (-v).exp())
}

/// Sigmoid backward: `dy/dx = s(x) (1 - s(x))`.
pub fn sigmoid_backward(x: &Tensor, grad_out: &Tensor) -> Result<Tensor, GraphError> {
    Ok(x.zip_map(grad_out, |xi, g| {
        let s = 1.0 / (1.0 + (-xi).exp());
        g * s * (1.0 - s)
    })?)
}

/// Elementwise arc-tangent (the Nvidia Dave model converts its regression head to radians
/// with `2 * atan(x)`).
pub fn atan_forward(x: &Tensor) -> Tensor {
    alloc(|out| atan_forward_into(x, out))
}

/// [`atan_forward`], writing into a recycled output buffer.
pub fn atan_forward_into(x: &Tensor, out: &mut Tensor) {
    x.map_into(out, f32::atan);
}

/// Atan backward: `dy/dx = 1 / (1 + x^2)`.
pub fn atan_backward(x: &Tensor, grad_out: &Tensor) -> Result<Tensor, GraphError> {
    Ok(x.zip_map(grad_out, |xi, g| g / (1.0 + xi * xi))?)
}

/// Exponential linear unit with `alpha = 1`.
pub fn elu_forward(x: &Tensor) -> Tensor {
    alloc(|out| elu_forward_into(x, out))
}

/// [`elu_forward`], writing into a recycled output buffer.
pub fn elu_forward_into(x: &Tensor, out: &mut Tensor) {
    x.map_into(out, elu);
}

/// ELU (`alpha = 1`) of one element.
pub(crate) fn elu(v: f32) -> f32 {
    if v > 0.0 {
        v
    } else {
        v.exp() - 1.0
    }
}

/// ELU backward: `dy/dx = 1` for positive inputs, `exp(x)` otherwise.
pub fn elu_backward(x: &Tensor, grad_out: &Tensor) -> Result<Tensor, GraphError> {
    Ok(x.zip_map(grad_out, |xi, g| if xi > 0.0 { g } else { g * xi.exp() })?)
}

/// Softmax over the last dimension, computed with the usual max-subtraction for numerical
/// stability.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] if the input has rank 0.
pub fn softmax_forward(node: NodeId, x: &Tensor) -> Result<Tensor, GraphError> {
    let mut out = Tensor::empty();
    softmax_forward_into(node, x, &mut out)?;
    Ok(out)
}

/// [`softmax_forward`], writing into a recycled output buffer.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] if the input has rank 0; `out` is left unchanged.
pub fn softmax_forward_into(node: NodeId, x: &Tensor, out: &mut Tensor) -> Result<(), GraphError> {
    let dims = x.dims();
    let (rows, last) = softmax_layout(node, dims, x.len())?;
    out.reset_fill(dims, 0.0);
    let data = x.data();
    let odat = out.data_mut();
    for r in 0..rows {
        let row = &data[r * last..(r + 1) * last];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f32;
        for (o, &v) in odat[r * last..(r + 1) * last].iter_mut().zip(row) {
            let e = (v - max).exp();
            *o = e;
            denom += e;
        }
        for o in &mut odat[r * last..(r + 1) * last] {
            *o /= denom;
        }
    }
    Ok(())
}

/// Softmax backward given the forward *output* `y` and the upstream gradient.
///
/// `dL/dx_i = y_i * (g_i - sum_j g_j y_j)` per row.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] on shape mismatches.
pub fn softmax_backward(node: NodeId, y: &Tensor, grad_out: &Tensor) -> Result<Tensor, GraphError> {
    if y.dims() != grad_out.dims() {
        return Err(shape_err(node, "softmax backward shape mismatch"));
    }
    let dims = y.dims();
    let last = *dims.last().unwrap_or(&1);
    let rows = y.len() / last.max(1);
    let ydat = y.data();
    let gdat = grad_out.data();
    let mut gx = vec![0.0f32; y.len()];
    for r in 0..rows {
        let ys = &ydat[r * last..(r + 1) * last];
        let gs = &gdat[r * last..(r + 1) * last];
        let dot: f32 = ys.iter().zip(gs).map(|(&yi, &gi)| yi * gi).sum();
        for ((o, &yi), &gi) in gx[r * last..(r + 1) * last].iter_mut().zip(ys).zip(gs) {
            *o = yi * (gi - dot);
        }
    }
    Ok(Tensor::from_vec(dims.to_vec(), gx)?)
}

/// Range restriction (the Ranger operator): clamps every element into `[lo, hi]`.
pub fn clamp_forward(x: &Tensor, lo: f32, hi: f32) -> Tensor {
    alloc(|out| clamp_forward_into(x, lo, hi, out))
}

/// [`clamp_forward`], writing into a recycled output buffer.
pub fn clamp_forward_into(x: &Tensor, lo: f32, hi: f32, out: &mut Tensor) {
    x.map_into(out, clamp(lo, hi));
}

/// The range restriction `[lo, hi]` on one element.
pub(crate) fn clamp(lo: f32, hi: f32) -> impl Fn(f32) -> f32 + Copy {
    move |v| v.clamp(lo, hi)
}

/// Range restriction with an explicit out-of-bounds policy (the Section VI-C design
/// alternatives): saturate at the bound, reset to zero, or substitute a deterministic
/// pseudo-random in-range value.
pub fn range_restore_forward(
    x: &Tensor,
    lo: f32,
    hi: f32,
    policy: crate::op::RestorePolicy,
) -> Tensor {
    alloc(|out| range_restore_forward_into(x, lo, hi, policy, out))
}

/// [`range_restore_forward`], writing into a recycled output buffer.
pub fn range_restore_forward_into(
    x: &Tensor,
    lo: f32,
    hi: f32,
    policy: crate::op::RestorePolicy,
    out: &mut Tensor,
) {
    x.map_into(out, range_restore(lo, hi, policy));
}

/// The range restoration of one element under `policy`.
pub(crate) fn range_restore(
    lo: f32,
    hi: f32,
    policy: crate::op::RestorePolicy,
) -> impl Fn(f32) -> f32 + Copy {
    use crate::op::RestorePolicy;
    move |v| {
        if v >= lo && v <= hi {
            v
        } else {
            match policy {
                RestorePolicy::Saturate => v.clamp(lo, hi),
                RestorePolicy::Zero => 0.0,
                RestorePolicy::Random => {
                    // A cheap deterministic hash of the value's bits mapped into [lo, hi],
                    // so the "random replacement" alternative stays reproducible.
                    let h = v.to_bits().wrapping_mul(0x9E37_79B9) >> 8;
                    let unit = (h & 0xFFFF) as f32 / 65535.0;
                    lo + unit * (hi - lo)
                }
            }
        }
    }
}

/// Clamp backward: the gradient flows only where the input was strictly inside the bounds.
pub fn clamp_backward(
    x: &Tensor,
    grad_out: &Tensor,
    lo: f32,
    hi: f32,
) -> Result<Tensor, GraphError> {
    Ok(x.zip_map(grad_out, |xi, g| if xi > lo && xi < hi { g } else { 0.0 })?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid() -> NodeId {
        NodeId::new(0)
    }

    #[test]
    fn relu_clamps_negatives() {
        let x = Tensor::from_vec(vec![4], vec![-2.0, -0.5, 0.0, 3.0]).unwrap();
        assert_eq!(relu_forward(&x).data(), &[0.0, 0.0, 0.0, 3.0]);
        let g = Tensor::ones(vec![4]);
        assert_eq!(relu_backward(&x, &g).unwrap().data(), &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn tanh_saturates_and_matches_derivative() {
        let x = Tensor::from_vec(vec![3], vec![-10.0, 0.0, 10.0]).unwrap();
        let y = tanh_forward(&x);
        assert!(y.data()[0] > -1.0 - 1e-6 && y.data()[0] < -0.999);
        assert_eq!(y.data()[1], 0.0);
        let g = Tensor::ones(vec![3]);
        let gx = tanh_backward(&x, &g).unwrap();
        assert!((gx.data()[1] - 1.0).abs() < 1e-6);
        assert!(gx.data()[0] < 1e-6);
    }

    #[test]
    fn sigmoid_midpoint_and_derivative() {
        let x = Tensor::from_vec(vec![1], vec![0.0]).unwrap();
        assert!((sigmoid_forward(&x).data()[0] - 0.5).abs() < 1e-6);
        let g = Tensor::ones(vec![1]);
        assert!((sigmoid_backward(&x, &g).unwrap().data()[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn atan_is_horizontally_asymptotic() {
        let x = Tensor::from_vec(vec![2], vec![1000.0, -1000.0]).unwrap();
        let y = atan_forward(&x);
        assert!(y.data()[0] < std::f32::consts::FRAC_PI_2);
        assert!(y.data()[1] > -std::f32::consts::FRAC_PI_2);
        // Small deviations at the input of atan near zero map to nearly proportional
        // output deviations (derivative 1), while huge inputs have near-zero derivative.
        let g = Tensor::ones(vec![2]);
        assert!(atan_backward(&x, &g).unwrap().data()[0] < 1e-5);
    }

    #[test]
    fn elu_negative_branch() {
        let x = Tensor::from_vec(vec![2], vec![-1.0, 2.0]).unwrap();
        let y = elu_forward(&x);
        assert!((y.data()[0] - ((-1.0f32).exp() - 1.0)).abs() < 1e-6);
        assert_eq!(y.data()[1], 2.0);
        let g = Tensor::ones(vec![2]);
        let gx = elu_backward(&x, &g).unwrap();
        assert!((gx.data()[0] - (-1.0f32).exp()).abs() < 1e-6);
        assert_eq!(gx.data()[1], 1.0);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let x = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]).unwrap();
        let y = softmax_forward(nid(), &x).unwrap();
        for r in 0..2 {
            let row = &y.data()[r * 3..(r + 1) * 3];
            assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-5);
            assert!(row[2] > row[1] && row[1] > row[0]);
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let x = Tensor::from_vec(vec![1, 2], vec![10_000.0, 9_999.0]).unwrap();
        let y = softmax_forward(nid(), &x).unwrap();
        assert!(!y.has_non_finite());
        assert!(y.data()[0] > y.data()[1]);
    }

    #[test]
    fn softmax_backward_matches_numerical_gradient() {
        let x = Tensor::from_vec(vec![1, 3], vec![0.2, -0.1, 0.4]).unwrap();
        let y = softmax_forward(nid(), &x).unwrap();
        // Loss = y[0] (pick out the first probability); dL/dy = [1, 0, 0].
        let grad_out = Tensor::from_vec(vec![1, 3], vec![1.0, 0.0, 0.0]).unwrap();
        let gx = softmax_backward(nid(), &y, &grad_out).unwrap();
        let eps = 1e-3f32;
        for i in 0..3 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fp = softmax_forward(nid(), &xp).unwrap().data()[0];
            let fm = softmax_forward(nid(), &xm).unwrap().data()[0];
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - gx.data()[i]).abs() < 1e-3,
                "softmax grad {i}: {num} vs {}",
                gx.data()[i]
            );
        }
    }

    #[test]
    fn clamp_restricts_and_masks_gradient() {
        let x = Tensor::from_vec(vec![3], vec![-5.0, 0.5, 99.0]).unwrap();
        let y = clamp_forward(&x, 0.0, 1.0);
        assert_eq!(y.data(), &[0.0, 0.5, 1.0]);
        let g = Tensor::ones(vec![3]);
        assert_eq!(
            clamp_backward(&x, &g, 0.0, 1.0).unwrap().data(),
            &[0.0, 1.0, 0.0]
        );
    }

    #[test]
    fn softmax_rejects_scalar_input() {
        assert!(softmax_forward(nid(), &Tensor::scalar(1.0)).is_err());
    }
}
