//! Static dataflow graph, operators, compiled execution plans and autodiff.
//!
//! This crate is the reproduction's stand-in for the TensorFlow runtime the paper builds
//! on. It provides the two interfaces Ranger and the fault injector need:
//!
//! 1. **A static, rewritable dataflow graph** ([`Graph`], [`Node`], [`Op`]) — Ranger's
//!    Algorithm 1 walks the operator list and inserts range-restriction ([`Op::Clamp`])
//!    operators after selected operations, exactly as the paper's TensorFlow implementation
//!    duplicates the graph and remaps operator inputs.
//! 2. **Compiled execution plans with per-operator interception hooks** ([`ExecPlan`],
//!    [`exec::Interceptor`]) — the TensorFI-style fault injector corrupts the output of a
//!    randomly chosen operator during a forward pass. A graph runs through
//!    [`Graph::compile`] (or [`Graph::compile_with`] for another backend) and then
//!    [`ExecPlan::run_into`] on a reused store, or [`ExecPlan::run`] /
//!    [`ExecPlan::run_simple`] for a one-shot pass.
//!
//! On top of those the crate provides reverse-mode automatic differentiation
//! ([`autodiff`]) so the benchmark models can be trained from scratch, and a FLOPs
//! profiler ([`flops`]) used to reproduce the paper's Table IV overhead accounting.
//!
//! # Example
//!
//! ```
//! use ranger_graph::builder::GraphBuilder;
//! use ranger_tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut b = GraphBuilder::new();
//! let x = b.input("x");
//! let h = b.dense(x, 4, 8, &mut rng);
//! let h = b.relu(h);
//! let y = b.dense(h, 8, 3, &mut rng);
//! let graph = b.into_graph();
//!
//! let out = graph.compile()?.run_simple(&[("x", Tensor::zeros(vec![1, 4]))], y)?;
//! assert_eq!(out.dims(), &[1, 3]);
//! # Ok::<(), ranger_graph::GraphError>(())
//! ```

#![warn(missing_docs)]

pub mod autodiff;
pub mod backend;
pub mod builder;
pub mod error;
pub mod exec;
pub mod flops;
pub mod graph;
pub mod op;
pub mod ops;
pub mod plan;
pub mod region;

pub use backend::{
    default_backend, try_default_backend, BackendKind, ExecBackend, FixedBackend, ReferenceBackend,
    SimdBackend,
};
pub use builder::GraphBuilder;
pub use error::GraphError;
pub use exec::{GoldenSnapshot, Interceptor};
pub use graph::{Graph, Node, NodeId};
pub use op::Op;
pub use plan::ExecPlan;
