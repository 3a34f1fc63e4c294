//! Dense tensors, fixed-point codecs and bit-level fault primitives.
//!
//! This crate is the numeric substrate of the Ranger (DSN'21) reproduction. It provides:
//!
//! * [`Tensor`] — a row-major, dynamically shaped dense `f32` tensor with the small set of
//!   element-wise, reduction and indexing operations the dataflow-graph executor needs.
//! * [`Shape`] — a validated tensor shape with stride computation.
//! * [`fixed`] — two's-complement fixed-point codecs (the paper evaluates DNNs using 32-bit
//!   and 16-bit fixed-point datatypes).
//! * [`qtensor`] — integer word tensors plus saturating Q-format kernels: the storage and
//!   arithmetic of the genuine fixed-point execution backend.
//! * [`bits`] — datatype-aware single/multi bit-flip primitives used by the fault injector.
//! * [`init`] — deterministic weight initializers (He / uniform).
//! * [`stats`] — small statistics helpers (mean, standard error, confidence intervals,
//!   percentiles) used when reporting SDC rates the way the paper does.
//!
//! # Example
//!
//! ```
//! use ranger_tensor::{Tensor, bits::DataType};
//!
//! let t = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
//! assert_eq!(t.get(&[1, 0]), 3.0);
//!
//! // Flip the high-order bit of a value under the paper's 32-bit fixed-point datatype.
//! let dt = DataType::fixed32();
//! let corrupted = dt.flip_bit(2.0, dt.bit_width() - 2);
//! assert!(corrupted.abs() > 1000.0);
//! # Ok::<(), ranger_tensor::TensorError>(())
//! ```

#![warn(missing_docs)]

pub mod bits;
pub mod fixed;
pub mod init;
pub mod qtensor;
pub mod shape;
pub mod stats;
pub mod tensor;

pub use bits::DataType;
pub use fixed::FixedSpec;
pub use qtensor::QTensor;
pub use shape::Shape;
pub use tensor::{Tensor, TensorError};
