//! TensorFI-style fault injection for dataflow-graph DNNs.
//!
//! The paper evaluates Ranger by injecting transient hardware faults — single and multiple
//! bit flips — into the output values of operators in the TensorFlow graph using TensorFI,
//! and measuring the Silent Data Corruption (SDC) rate with and without Ranger's
//! protection. This crate reproduces that methodology on top of
//! [`ranger_graph`]'s execution-interception hook:
//!
//! * [`space`] — the injection state space: every element of every injectable operator
//!   output (the last fully-connected layer and everything downstream is excluded, as in
//!   the paper), weighted by element count.
//! * [`fault`] — the fault model: which datatype the corrupted value is encoded in and how
//!   many independent bit flips occur per execution.
//! * [`injector`] — an [`Interceptor`](ranger_graph::Interceptor) that corrupts the chosen
//!   value(s) during a forward pass.
//! * [`judge`] — SDC criteria: image misclassification (top-1 / top-5) for classifiers,
//!   steering-angle deviation thresholds (15°/30°/60°/120°) for the AV models.
//! * [`campaign`] — the campaign runner: golden run, repeated faulty runs, SDC statistics
//!   with 95% confidence intervals.
//!
//! # Example
//!
//! ```
//! use ranger_inject::prelude::*;
//! use ranger_graph::{GraphBuilder, Op};
//! use ranger_tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // A toy two-layer network.
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut b = GraphBuilder::new();
//! let x = b.input("x");
//! let h = b.dense(x, 4, 8, &mut rng);
//! let h = b.relu(h);
//! let y = b.dense(h, 8, 3, &mut rng);
//! let probs = b.softmax(y);
//! let graph = b.into_graph();
//!
//! let target = InjectionTarget {
//!     graph: &graph,
//!     input_name: "x",
//!     output: probs,
//!     excluded: &[],
//! };
//! let config = CampaignConfig {
//!     trials: 20,
//!     batch: 4,   // 4 trials per work unit …
//!     workers: 2, // … scheduled across 2 worker threads —
//!     // any (batch, workers) combination reports identical SDC counts.
//!     backend: BackendKind::F32, // or Fixed16/Fixed32 for genuine fixed-point inference
//!     fault: FaultModel::single_bit_fixed32(),
//!     seed: 1,
//!     tile: 0, // reserved: must be 0
//! };
//! let inputs = vec![Tensor::ones(vec![1, 4])];
//! let judge = ClassifierJudge::top1();
//! let result = run_campaign(&target, &inputs, &judge, &config)?;
//! assert_eq!(result.trials, 20);
//! # Ok::<(), ranger_inject::CampaignError>(())
//! ```

#![warn(missing_docs)]

pub mod campaign;
pub mod fault;
pub mod injector;
pub mod judge;
pub mod sensitivity;
pub mod space;

pub use campaign::{
    campaign_chunks, default_chunk_len, run_campaign, trial_rng, CampaignConfig, CampaignError,
    CampaignResult, ChunkTally, PreparedCampaign, TrialChunk,
};
pub use fault::FaultModel;
pub use injector::FaultInjector;
pub use judge::{ClassifierJudge, SdcJudge, SteeringJudge};
// Backend selection is part of the campaign configuration surface; re-exported so
// campaign callers need not depend on ranger-graph directly.
pub use ranger_graph::{default_backend, try_default_backend, BackendKind};
pub use sensitivity::{bit_sensitivity, BitSensitivity};
pub use space::{InjectionSite, InjectionSpace};

/// Convenience re-exports for experiment code.
pub mod prelude {
    pub use crate::campaign::{
        campaign_chunks, default_chunk_len, run_campaign, trial_rng, CampaignConfig, CampaignError,
        CampaignResult, ChunkTally, PreparedCampaign, TrialChunk,
    };
    pub use crate::fault::FaultModel;
    pub use crate::injector::FaultInjector;
    pub use crate::judge::{ClassifierJudge, SdcJudge, SteeringJudge};
    pub use crate::sensitivity::{bit_sensitivity, BitSensitivity};
    pub use crate::space::{InjectionSite, InjectionSpace};
    pub use crate::InjectionTarget;
    pub use ranger_graph::{default_backend, try_default_backend, BackendKind};
}

use ranger_graph::{Graph, NodeId};

/// Everything the campaign runner needs to know about the DNN under test.
#[derive(Debug, Clone, Copy)]
pub struct InjectionTarget<'a> {
    /// The graph to execute (protected or unprotected).
    pub graph: &'a Graph,
    /// Name of the input placeholder to feed images into.
    pub input_name: &'a str,
    /// The node whose value is the DNN's final output.
    pub output: NodeId,
    /// Nodes excluded from injection (the paper excludes the last FC layer and everything
    /// downstream of it).
    pub excluded: &'a [NodeId],
}
