//! Dense row-major `f32` tensors.

use crate::shape::Shape;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors produced by tensor construction and manipulation.
#[derive(Debug, Clone, PartialEq)]
pub enum TensorError {
    /// The provided data length does not match the number of elements implied by the shape.
    ShapeDataMismatch {
        /// Elements implied by the shape.
        expected: usize,
        /// Elements actually provided.
        actual: usize,
    },
    /// Two tensors that must have identical shapes do not.
    ShapeMismatch {
        /// Shape of the left operand.
        left: Shape,
        /// Shape of the right operand.
        right: Shape,
    },
    /// A reshape was requested to a shape with a different number of elements.
    InvalidReshape {
        /// Original shape.
        from: Shape,
        /// Requested shape.
        to: Shape,
    },
    /// An index was out of bounds for the tensor shape.
    IndexOutOfBounds {
        /// The offending index.
        index: Vec<usize>,
        /// The tensor shape.
        shape: Shape,
    },
    /// Matrix dimensions are incompatible for multiplication.
    MatMulMismatch {
        /// Shape of the left operand.
        left: Shape,
        /// Shape of the right operand.
        right: Shape,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeDataMismatch { expected, actual } => write!(
                f,
                "shape expects {expected} elements but {actual} were provided"
            ),
            TensorError::ShapeMismatch { left, right } => {
                write!(f, "shape mismatch between {left} and {right}")
            }
            TensorError::InvalidReshape { from, to } => {
                write!(f, "cannot reshape {from} into {to}")
            }
            TensorError::IndexOutOfBounds { index, shape } => {
                write!(f, "index {index:?} out of bounds for shape {shape}")
            }
            TensorError::MatMulMismatch { left, right } => {
                write!(f, "incompatible matmul operands {left} x {right}")
            }
        }
    }
}

impl std::error::Error for TensorError {}

/// A dense, row-major tensor of `f32` values.
///
/// # Example
///
/// ```
/// use ranger_tensor::Tensor;
///
/// let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
/// let b = a.map(|x| x * 2.0);
/// assert_eq!(b.data(), &[2.0, 4.0, 6.0, 8.0]);
/// # Ok::<(), ranger_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a shape and backing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if `data.len()` does not equal the number
    /// of elements implied by `dims`.
    pub fn from_vec(dims: impl Into<Shape>, data: Vec<f32>) -> Result<Self, TensorError> {
        let shape = dims.into();
        if shape.num_elements() != data.len() {
            return Err(TensorError::ShapeDataMismatch {
                expected: shape.num_elements(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: impl Into<Shape>) -> Self {
        let shape = dims.into();
        let n = shape.num_elements();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: impl Into<Shape>) -> Self {
        Self::filled(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn filled(dims: impl Into<Shape>, value: f32) -> Self {
        let shape = dims.into();
        let n = shape.num_elements();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Creates a scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::scalar(),
            data: vec![value],
        }
    }

    /// Returns the tensor shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Returns the dimension extents.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Returns the number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns a view of the backing data in row-major order.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Returns a mutable view of the backing data in row-major order.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds; use [`Tensor::try_get`] for a checked variant.
    pub fn get(&self, index: &[usize]) -> f32 {
        self.try_get(index)
            .unwrap_or_else(|e| panic!("tensor get failed: {e}"))
    }

    /// Returns the element at a multi-dimensional index, or an error if out of bounds.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if the index is invalid for this shape.
    pub fn try_get(&self, index: &[usize]) -> Result<f32, TensorError> {
        self.shape
            .flat_index(index)
            .map(|i| self.data[i])
            .ok_or_else(|| TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.shape.clone(),
            })
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if the index is invalid for this shape.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<(), TensorError> {
        match self.shape.flat_index(index) {
            Some(i) => {
                self.data[i] = value;
                Ok(())
            }
            None => Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.shape.clone(),
            }),
        }
    }

    /// Returns a tensor with the same data reinterpreted under a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidReshape`] if the element counts differ.
    pub fn reshape(&self, dims: impl Into<Shape>) -> Result<Tensor, TensorError> {
        let to = dims.into();
        if !self.shape.is_reshape_compatible(&to) {
            return Err(TensorError::InvalidReshape {
                from: self.shape.clone(),
                to,
            });
        }
        Ok(Tensor {
            shape: to,
            data: self.data.clone(),
        })
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    // ---- Buffer reuse -------------------------------------------------------------
    //
    // The methods below let a caller recycle one tensor as the output buffer of many
    // successive computations: they clear the backing `Vec<f32>` and refill it, so after
    // the buffer has grown to its steady-state capacity no further heap allocation
    // happens. `ExecPlan::run_into` uses them to make repeated forward passes
    // allocation-free after warm-up.

    /// Creates an empty tensor (shape `[0]`, no elements), the canonical starting state
    /// of a recycled output buffer.
    pub fn empty() -> Self {
        Tensor {
            shape: Shape::new(vec![0]),
            data: Vec::new(),
        }
    }

    /// Creates an empty tensor whose backing buffer can hold `capacity` elements without
    /// reallocating.
    pub fn with_capacity(capacity: usize) -> Self {
        Tensor {
            shape: Shape::new(vec![0]),
            data: Vec::with_capacity(capacity),
        }
    }

    /// Creates an empty tensor pre-sized to later hold a value of shape `dims` without
    /// any reallocation: both the element buffer and the dimension list have the needed
    /// capacity. Used to seed a plan's buffer arena from warmed shapes.
    pub fn with_capacity_for(dims: &[usize]) -> Self {
        let mut shape_dims = Vec::with_capacity(dims.len().max(1));
        shape_dims.push(0);
        Tensor {
            shape: Shape::new(shape_dims),
            data: Vec::with_capacity(dims.iter().product()),
        }
    }

    /// Resets this tensor to shape `dims` with every element set to `value`, reusing the
    /// backing allocation.
    pub fn reset_fill(&mut self, dims: &[usize], value: f32) {
        let n: usize = dims.iter().product();
        self.data.clear();
        self.data.resize(n, value);
        self.shape.set_dims(dims);
    }

    /// Resets this tensor to shape `dims` with contents copied from `data`, reusing the
    /// backing allocation.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if `data.len()` does not equal the
    /// number of elements implied by `dims`; the tensor is left unchanged.
    pub fn reset_from_slice(&mut self, dims: &[usize], data: &[f32]) -> Result<(), TensorError> {
        let expected: usize = dims.iter().product();
        if expected != data.len() {
            return Err(TensorError::ShapeDataMismatch {
                expected,
                actual: data.len(),
            });
        }
        self.data.clear();
        self.data.extend_from_slice(data);
        self.shape.set_dims(dims);
        Ok(())
    }

    /// Resets this tensor to shape `[lead, rest...]` with contents copied from `data`,
    /// reusing the backing allocation (the batch-preserving reshape used by `Flatten` and
    /// `Reshape` operators).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if the element counts disagree.
    pub fn reset_rows_from_slice(
        &mut self,
        lead: usize,
        rest: &[usize],
        data: &[f32],
    ) -> Result<(), TensorError> {
        let expected = lead * rest.iter().product::<usize>();
        if expected != data.len() {
            return Err(TensorError::ShapeDataMismatch {
                expected,
                actual: data.len(),
            });
        }
        self.data.clear();
        self.data.extend_from_slice(data);
        self.shape.set_dims_with_lead(lead, rest);
        Ok(())
    }

    /// Applies `f` to every element of `self`, writing the result into `out` (shape and
    /// contents of `out` are replaced; its allocation is reused).
    pub fn map_into(&self, out: &mut Tensor, f: impl Fn(f32) -> f32) {
        out.data.clear();
        out.data.extend(self.data.iter().map(|&x| f(x)));
        out.shape.set_dims(self.dims());
    }

    /// Combines `self` and `other` element-wise with `f`, writing the result into `out`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the operand shapes differ; `out` is left
    /// unchanged.
    pub fn zip_map_into(
        &self,
        other: &Tensor,
        out: &mut Tensor,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<(), TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.clone(),
                right: other.shape.clone(),
            });
        }
        out.data.clear();
        out.data
            .extend(self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)));
        out.shape.set_dims(self.dims());
        Ok(())
    }

    /// Combines two tensors element-wise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn zip_map(
        &self,
        other: &Tensor,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.clone(),
                right: other.shape.clone(),
            });
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_map(other, |a, b| a + b)
    }

    /// Element-wise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_map(other, |a, b| a - b)
    }

    /// Element-wise multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_map(other, |a, b| a * b)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, factor: f32) -> Tensor {
        self.map(|x| x * factor)
    }

    /// Clamps every element into `[lo, hi]`.
    ///
    /// This is the primitive Ranger's range-restriction operator is built on.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|x| x.clamp(lo, hi))
    }

    /// 2-D matrix multiplication: `self` is `(m, k)`, `other` is `(k, n)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MatMulMismatch`] if either operand is not rank 2 or the inner
    /// dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        let mut out = Tensor::empty();
        self.matmul_into(other, &mut out)?;
        Ok(out)
    }

    /// [`Tensor::matmul`], writing into a recycled output buffer (shape and contents of
    /// `out` are replaced; its allocation is reused). This is the single matmul kernel —
    /// the allocating variant delegates here, so the two cannot diverge numerically.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MatMulMismatch`] if either operand is not rank 2 or the
    /// inner dimensions differ; `out` is left unchanged.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) -> Result<(), TensorError> {
        let (ls, rs) = (self.dims(), other.dims());
        if ls.len() != 2 || rs.len() != 2 || ls[1] != rs[0] {
            return Err(TensorError::MatMulMismatch {
                left: self.shape.clone(),
                right: other.shape.clone(),
            });
        }
        let (m, k, n) = (ls[0], ls[1], rs[1]);
        out.data.clear();
        out.data.resize(m * n, 0.0);
        for i in 0..m {
            for p in 0..k {
                let a = self.data[i * k + p];
                if a == 0.0 {
                    continue;
                }
                let row = &other.data[p * n..(p + 1) * n];
                let out_row = &mut out.data[i * n..(i + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(row) {
                    *o += a * b;
                }
            }
        }
        out.shape.set_dims(&[m, n]);
        Ok(())
    }

    /// Returns the sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Returns the arithmetic mean of all elements (0.0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Returns the maximum element (negative infinity for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Returns the minimum element (positive infinity for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Returns the flat index of the maximum element, or `None` for an empty tensor.
    pub fn argmax(&self) -> Option<usize> {
        self.data
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
    }

    /// Returns the flat indices of the `k` largest elements, in decreasing order of value.
    pub fn top_k(&self, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.data.len()).collect();
        idx.sort_by(|&a, &b| {
            self.data[b]
                .partial_cmp(&self.data[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        idx.truncate(k);
        idx
    }

    /// Returns the Euclidean (L2) norm of the tensor viewed as a flat vector.
    pub fn l2_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Returns the largest absolute element-wise difference between two tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32, TensorError> {
        Ok(self
            .zip_map(other, |a, b| (a - b).abs())?
            .data
            .iter()
            .copied()
            .fold(0.0, f32::max))
    }

    /// Returns `true` if every element differs from `other` by at most `tol`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> Result<bool, TensorError> {
        Ok(self.max_abs_diff(other)? <= tol)
    }

    /// Returns `true` if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![2, 2], vec![1.0; 4]).is_ok());
        let err = Tensor::from_vec(vec![2, 2], vec![1.0; 3]).unwrap_err();
        assert_eq!(
            err,
            TensorError::ShapeDataMismatch {
                expected: 4,
                actual: 3
            }
        );
    }

    #[test]
    fn get_and_set_round_trip() {
        let mut t = Tensor::zeros(vec![2, 3]);
        t.set(&[1, 2], 7.5).unwrap();
        assert_eq!(t.get(&[1, 2]), 7.5);
        assert_eq!(t.get(&[0, 0]), 0.0);
        assert!(t.set(&[2, 0], 1.0).is_err());
        assert!(t.try_get(&[0, 3]).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![3], vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor::from_vec(vec![3], vec![4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(a.sub(&b).unwrap().data(), &[-3.0, -3.0, -3.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn elementwise_ops_reject_shape_mismatch() {
        let a = Tensor::zeros(vec![2]);
        let b = Tensor::zeros(vec![3]);
        assert!(matches!(a.add(&b), Err(TensorError::ShapeMismatch { .. })));
    }

    #[test]
    fn matmul_small_known_result() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Tensor::from_vec(vec![3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_incompatible() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![2, 2]);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::MatMulMismatch { .. })
        ));
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![4], vec![1.0, -2.0, 3.0, 0.5]).unwrap();
        assert_eq!(t.sum(), 2.5);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -2.0);
        assert_eq!(t.argmax(), Some(2));
        assert_eq!(t.top_k(2), vec![2, 0]);
        assert!((t.mean() - 0.625).abs() < 1e-6);
    }

    #[test]
    fn clamp_restricts_range() {
        let t = Tensor::from_vec(vec![4], vec![-5.0, 0.0, 2.0, 100.0]).unwrap();
        assert_eq!(t.clamp(0.0, 10.0).data(), &[0.0, 0.0, 2.0, 10.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let r = t.reshape(vec![3, 2]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(vec![4, 2]).is_err());
    }

    #[test]
    fn scalar_tensor_behaves() {
        let s = Tensor::scalar(3.5);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(&[]), 3.5);
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(vec![2]);
        assert!(!t.has_non_finite());
        t.data_mut()[1] = f32::NAN;
        assert!(t.has_non_finite());
    }

    #[test]
    fn reset_methods_reuse_the_allocation_and_set_the_shape() {
        let mut buf = Tensor::with_capacity(16);
        let ptr = buf.data().as_ptr();
        buf.reset_fill(&[2, 3], 1.5);
        assert_eq!(buf.dims(), &[2, 3]);
        assert_eq!(buf.data(), &[1.5; 6]);
        buf.reset_from_slice(&[4], &[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(buf.dims(), &[4]);
        assert_eq!(buf.data(), &[1.0, 2.0, 3.0, 4.0]);
        buf.reset_rows_from_slice(2, &[2], &[1.0, 2.0, 3.0, 4.0])
            .unwrap();
        assert_eq!(buf.dims(), &[2, 2]);
        // All resets fit within the reserved capacity: the buffer never moved.
        assert_eq!(buf.data().as_ptr(), ptr);
        // Mismatched element counts leave the tensor unchanged.
        assert!(buf.reset_from_slice(&[3], &[0.0; 4]).is_err());
        assert!(buf.reset_rows_from_slice(3, &[2], &[0.0; 4]).is_err());
        assert_eq!(buf.dims(), &[2, 2]);
    }

    #[test]
    fn into_variants_match_allocating_variants() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, -2.0, 3.0, 4.0, -5.0, 6.0]).unwrap();
        let b = Tensor::from_vec(vec![3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let mut out = Tensor::empty();
        a.map_into(&mut out, |x| x.max(0.0));
        assert_eq!(out, a.map(|x| x.max(0.0)));
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, a.matmul(&b).unwrap());
        let c = Tensor::filled(vec![2, 3], 0.5);
        a.zip_map_into(&c, &mut out, |x, y| x * y).unwrap();
        assert_eq!(out, a.mul(&c).unwrap());
        // Errors leave `out` untouched.
        let keep = out.clone();
        assert!(a.matmul_into(&c, &mut out).is_err());
        assert!(a.zip_map_into(&b, &mut out, |x, _| x).is_err());
        assert_eq!(out, keep);
    }

    #[test]
    fn approx_eq_and_max_abs_diff() {
        let a = Tensor::from_vec(vec![2], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec(vec![2], vec![1.05, 2.0]).unwrap();
        assert!((a.max_abs_diff(&b).unwrap() - 0.05).abs() < 1e-6);
        assert!(a.approx_eq(&b, 0.1).unwrap());
        assert!(!a.approx_eq(&b, 0.01).unwrap());
    }
}
