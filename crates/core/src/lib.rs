//! Ranger: a low-cost fault corrector for DNNs through selective range restriction.
//!
//! This crate is the Rust reproduction of the primary contribution of *"A Low-cost Fault
//! Corrector for Deep Neural Networks through Range Restriction"* (Chen, Li, Pattabiraman,
//! DSN 2021). Ranger makes a DNN resilient to transient hardware faults by:
//!
//! 1. **Deriving restriction bounds** for every activation (ACT) operation by profiling
//!    the values the network produces on a sample of its training data — or using a
//!    function's inherent bounds (Tanh, Sigmoid) where they exist ([`bounds`]).
//! 2. **Selectively inserting range-restriction operators** after the ACT operations and
//!    the pooling/reshape/concatenation operations that follow them (Algorithm 1 of the
//!    paper), so that the large value deviations caused by critical faults are dampened
//!    into small ones the DNN's inherent resilience tolerates ([`RangerProtector`],
//!    configured by [`RangerConfig`]).
//!
//! The crate also implements the paper's design alternatives (reset-to-zero and random
//! replacement, Section VI-C) as [`DesignAlternative`] protectors ([`alternatives`]), the
//! overhead accounting of Table III/IV in [`overhead`], and the technique-comparison
//! entries of Table VI in [`baselines`].
//!
//! # Example
//!
//! ```
//! use ranger::prelude::*;
//! use ranger_graph::GraphBuilder;
//! use ranger_tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // A small ReLU network.
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut b = GraphBuilder::new();
//! let x = b.input("x");
//! let h = b.dense(x, 4, 8, &mut rng);
//! let h = b.relu(h);
//! let pool = b.flatten(h);
//! let y = b.dense(pool, 8, 2, &mut rng);
//! let graph = b.into_graph();
//!
//! // Step 1: derive restriction bounds from (training) samples.
//! let samples = vec![Tensor::ones(vec![1, 4]), Tensor::zeros(vec![1, 4])];
//! let bounds = profile_bounds(&graph, "x", &samples, &BoundsConfig::default())?;
//!
//! // Step 2: insert Ranger into the selected layers.
//! let ranger = RangerProtector::new(RangerConfig::default());
//! let (protected, stats) = ranger.protect(&graph, &bounds)?;
//! assert!(stats.clamps_inserted > 0);
//! assert!(protected.clamp_count() > graph.clamp_count());
//! # Ok::<(), ranger_graph::GraphError>(())
//! ```

#![warn(missing_docs)]

pub mod alternatives;
pub mod baselines;
pub mod bounds;
pub mod overhead;
pub mod protect;
pub mod transform;

pub use bounds::{profile_bounds, profile_convergence, ActivationBounds, BoundsConfig};
pub use protect::{DesignAlternative, Protector, RangerProtector, Unprotected};
pub use transform::{RangerConfig, RangerStats};

/// Convenience re-exports for experiment code.
pub mod prelude {
    pub use crate::bounds::{profile_bounds, profile_convergence, ActivationBounds, BoundsConfig};
    pub use crate::overhead::{flops_overhead, memory_overhead_bytes, OverheadReport};
    pub use crate::protect::{DesignAlternative, Protector, RangerProtector, Unprotected};
    pub use crate::transform::{RangerConfig, RangerStats};
    pub use ranger_graph::op::RestorePolicy;
}
