//! Tensor shapes and stride computation.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A validated tensor shape.
///
/// Shapes are stored as a list of dimension extents. The empty shape `[]` denotes a scalar
/// with a single element. Shapes are used row-major (C order): the last dimension varies
/// fastest.
///
/// # Example
///
/// ```
/// use ranger_tensor::Shape;
///
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.num_elements(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from dimension extents.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape { dims }
    }

    /// Creates the scalar shape (zero dimensions, one element).
    pub fn scalar() -> Self {
        Shape { dims: Vec::new() }
    }

    /// Returns the dimension extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Returns the number of dimensions (rank).
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Returns the total number of elements described by this shape.
    pub fn num_elements(&self) -> usize {
        self.dims.iter().product()
    }

    /// Returns the row-major strides for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index into a flat row-major offset.
    ///
    /// Returns `None` if the index rank does not match or any coordinate is out of bounds.
    pub fn flat_index(&self, index: &[usize]) -> Option<usize> {
        if index.len() != self.dims.len() {
            return None;
        }
        let mut flat = 0usize;
        for ((&i, &d), s) in index.iter().zip(&self.dims).zip(self.strides()) {
            if i >= d {
                return None;
            }
            flat += i * s;
        }
        Some(flat)
    }

    /// Converts a flat row-major offset into a multi-dimensional index.
    ///
    /// Returns `None` if the offset is out of range.
    pub fn multi_index(&self, mut flat: usize) -> Option<Vec<usize>> {
        if flat >= self.num_elements().max(1) {
            return None;
        }
        let mut index = vec![0usize; self.dims.len()];
        for (slot, stride) in index.iter_mut().zip(self.strides()) {
            *slot = flat / stride;
            flat %= stride;
        }
        Some(index)
    }

    /// Returns `true` if the two shapes describe the same number of elements, which is the
    /// requirement for a reshape to be valid.
    pub fn is_reshape_compatible(&self, other: &Shape) -> bool {
        self.num_elements() == other.num_elements()
    }

    /// Replaces the dimension extents in place, reusing the backing allocation.
    ///
    /// This is the allocation-free counterpart of `*shape = Shape::from(dims)`, used by
    /// the tensor buffer-reuse APIs on the execution hot path.
    pub fn set_dims(&mut self, dims: &[usize]) {
        self.dims.clear();
        self.dims.extend_from_slice(dims);
    }

    /// Replaces the dimension extents with `[lead, rest[0], rest[1], ...]` in place.
    ///
    /// Used by batch-preserving reshapes, where the leading (batch) dimension is carried
    /// over from the input and only the trailing dimensions are prescribed.
    pub fn set_dims_with_lead(&mut self, lead: usize, rest: &[usize]) {
        self.dims.clear();
        self.dims.push(lead);
        self.dims.extend_from_slice(rest);
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_elements_of_scalar_is_one() {
        assert_eq!(Shape::scalar().num_elements(), 1);
        assert_eq!(Shape::scalar().rank(), 0);
    }

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(s.num_elements(), 24);
    }

    #[test]
    fn flat_index_round_trips() {
        let s = Shape::new(vec![2, 3, 4]);
        for flat in 0..s.num_elements() {
            let idx = s.multi_index(flat).unwrap();
            assert_eq!(s.flat_index(&idx), Some(flat));
        }
    }

    #[test]
    fn flat_index_rejects_out_of_bounds() {
        let s = Shape::new(vec![2, 3]);
        assert_eq!(s.flat_index(&[2, 0]), None);
        assert_eq!(s.flat_index(&[0, 3]), None);
        assert_eq!(s.flat_index(&[0]), None);
        assert_eq!(s.multi_index(6), None);
    }

    #[test]
    fn reshape_compatibility() {
        let a = Shape::new(vec![2, 6]);
        let b = Shape::new(vec![3, 4]);
        let c = Shape::new(vec![5]);
        assert!(a.is_reshape_compatible(&b));
        assert!(!a.is_reshape_compatible(&c));
    }

    #[test]
    fn display_formats_dims() {
        assert_eq!(Shape::new(vec![1, 28, 28]).to_string(), "[1, 28, 28]");
        assert_eq!(Shape::scalar().to_string(), "[]");
    }
}
