//! The [`Protector`] trait: one interface over every protection strategy.
//!
//! The paper evaluates several ways of hardening a DNN graph given profiled activation
//! bounds: Ranger's saturating range restriction (Algorithm 1), the Section VI-C design
//! alternatives (reset-to-zero as in Minerva, random in-range replacement), and — as the
//! control arm of every Table VI comparison — leaving the graph unprotected. The
//! reproduction's experiment pipeline treats all of them uniformly through this trait, so
//! a campaign over `N` strategies is a loop over `N` protectors rather than `N` hand-wired
//! special cases.
//!
//! Protecting a graph always goes through a protector: Algorithm 1 is
//! [`RangerProtector`], and the Section VI-C alternatives are [`DesignAlternative`].
//!
//! # Example
//!
//! ```
//! use ranger::prelude::*;
//! use ranger::protect::{DesignAlternative, Protector, RangerProtector, Unprotected};
//! use ranger_graph::GraphBuilder;
//! use ranger_tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut b = GraphBuilder::new();
//! let x = b.input("x");
//! let h = b.dense(x, 4, 8, &mut rng);
//! let h = b.relu(h);
//! let _y = b.dense(h, 8, 2, &mut rng);
//! let graph = b.into_graph();
//! let samples = vec![Tensor::ones(vec![1, 4])];
//! let bounds = profile_bounds(&graph, "x", &samples, &BoundsConfig::default())?;
//!
//! // The paper's comparison set as a uniform list of strategies.
//! let strategies: Vec<Box<dyn Protector>> = vec![
//!     Box::new(Unprotected),
//!     Box::new(RangerProtector::default()),
//!     Box::new(DesignAlternative::new(RestorePolicy::Zero)),
//! ];
//! for strategy in &strategies {
//!     let (protected, stats) = strategy.protect(&graph, &bounds)?;
//!     println!("{}: {} clamps", strategy.name(), stats.clamps_inserted);
//!     assert_eq!(protected.len() - graph.len(), stats.clamps_inserted);
//! }
//! # Ok::<(), ranger_graph::GraphError>(())
//! ```

use crate::bounds::ActivationBounds;
use crate::transform::{RangerConfig, RangerStats};
use ranger_graph::op::RestorePolicy;
use ranger_graph::{Graph, GraphError, NodeId, Op};
use std::time::Instant;

/// A protection strategy: given a graph and its profiled activation bounds, produce a
/// hardened copy of the graph plus insertion statistics.
///
/// Implementations must not modify the input graph (the paper's TensorFlow implementation
/// duplicates the graph and remaps operator inputs; the same contract holds here), and a
/// protected graph must compute identical fault-free outputs for inputs covered by the
/// profiling bounds.
pub trait Protector {
    /// A short human-readable name for reports (e.g. `"ranger"`, `"zero"`).
    fn name(&self) -> String;

    /// Produces the protected graph and the statistics of the transformation.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if the graph is malformed (e.g. cyclic).
    fn protect(
        &self,
        graph: &Graph,
        bounds: &ActivationBounds,
    ) -> Result<(Graph, RangerStats), GraphError>;
}

/// Ranger's selective range restriction (Algorithm 1 of the paper).
///
/// This is the one implementation of the transformation. The input graph is not
/// modified; the protected graph is a copy.
#[derive(Debug, Clone, Copy, Default)]
pub struct RangerProtector {
    /// The transformation configuration (follower protection, out-of-bounds policy).
    pub config: RangerConfig,
}

impl RangerProtector {
    /// Creates a protector with an explicit configuration.
    pub fn new(config: RangerConfig) -> Self {
        RangerProtector { config }
    }
}

/// Builds the restriction operator for the configured policy.
fn restriction_op(lo: f32, hi: f32, policy: RestorePolicy) -> Op {
    match policy {
        RestorePolicy::Saturate => Op::Clamp { lo, hi },
        other => Op::RangeRestore {
            lo,
            hi,
            policy: other,
        },
    }
}

impl Protector for RangerProtector {
    fn name(&self) -> String {
        match self.config.policy {
            RestorePolicy::Saturate => "ranger".to_string(),
            RestorePolicy::Zero => "ranger-zero".to_string(),
            RestorePolicy::Random => "ranger-random".to_string(),
        }
    }

    /// Algorithm 1 of the paper: traverse the operations of the network in order; for
    /// every ACT operation with a known restriction bound insert a range-restriction
    /// operator after it; if the operation consuming the ACT output is a max-pool,
    /// average-pool or reshape, bound it with the same restriction bound; if it is a
    /// concatenation, bound it with the merged bounds (minimum of the lower bounds,
    /// maximum of the upper bounds) of the ACT operations feeding it.
    fn protect(
        &self,
        graph: &Graph,
        bounds: &ActivationBounds,
    ) -> Result<(Graph, RangerStats), GraphError> {
        let config = &self.config;
        let start = Instant::now();
        let mut protected = graph.clone();
        let mut stats = RangerStats {
            clamps_inserted: 0,
            activations_protected: 0,
            followers_protected: 0,
            insertion_seconds: 0.0,
        };

        // Traverse the *original* operator list so freshly inserted restriction operators
        // are not revisited.
        let order: Vec<NodeId> = graph.operator_nodes()?;
        for id in order {
            let node = graph.node(id)?;
            if !node.op.is_activation() {
                continue;
            }
            let Some((lo, hi)) = bounds.get(id) else {
                continue;
            };
            // Degenerate bounds (inverted or non-finite) would make the clamp
            // meaningless — skip them instead of producing an operator that rejects every
            // value.
            if !(lo.is_finite() && hi.is_finite() && lo <= hi) {
                continue;
            }

            // Line 3-4: bound the ACT operation itself.
            let name = format!("{}/ranger", node.name);
            protected.insert_after(id, name, restriction_op(lo, hi, config.policy))?;
            stats.clamps_inserted += 1;
            stats.activations_protected += 1;

            if !config.protect_followers {
                continue;
            }

            // Lines 5-8: bound the operations that consume this ACT operation's output.
            // Consumers are looked up in the original graph (the paper's op_{i+1}).
            for consumer_id in graph.consumers(id) {
                let consumer = graph.node(consumer_id)?;
                if consumer.op.extends_activation_bound() {
                    let name = format!("{}/ranger", consumer.name);
                    protected.insert_after(
                        consumer_id,
                        name,
                        restriction_op(lo, hi, config.policy),
                    )?;
                    stats.clamps_inserted += 1;
                    stats.followers_protected += 1;
                } else if consumer.op.is_concat() {
                    // Merge the bounds of every bounded ACT operation feeding the concat.
                    let mut merged_lo = lo;
                    let mut merged_hi = hi;
                    for &concat_input in &consumer.inputs {
                        if let Some((l, h)) = bounds.get(concat_input) {
                            merged_lo = merged_lo.min(l);
                            merged_hi = merged_hi.max(h);
                        }
                    }
                    // Insert at most one restriction per concat operation, even though
                    // several of its inputs are ACT operations.
                    let already = protected.consumers(consumer_id).into_iter().any(|c| {
                        matches!(
                            protected.node(c).map(|n| &n.op),
                            Ok(Op::Clamp { .. }) | Ok(Op::RangeRestore { .. })
                        )
                    });
                    if !already {
                        let name = format!("{}/ranger", consumer.name);
                        protected.insert_after(
                            consumer_id,
                            name,
                            restriction_op(merged_lo, merged_hi, config.policy),
                        )?;
                        stats.clamps_inserted += 1;
                        stats.followers_protected += 1;
                    }
                }
            }
        }

        stats.insertion_seconds = start.elapsed().as_secs_f64();
        Ok((protected, stats))
    }
}

/// A Section VI-C design alternative: Ranger's insertion points with a different
/// out-of-bounds policy (reset-to-zero or random in-range replacement).
#[derive(Debug, Clone, Copy)]
pub struct DesignAlternative {
    /// The out-of-bounds restoration policy.
    pub policy: RestorePolicy,
}

impl DesignAlternative {
    /// Creates the design alternative for `policy`.
    pub fn new(policy: RestorePolicy) -> Self {
        DesignAlternative { policy }
    }
}

impl Protector for DesignAlternative {
    fn name(&self) -> String {
        match self.policy {
            RestorePolicy::Saturate => "saturate".to_string(),
            RestorePolicy::Zero => "zero".to_string(),
            RestorePolicy::Random => "random".to_string(),
        }
    }

    fn protect(
        &self,
        graph: &Graph,
        bounds: &ActivationBounds,
    ) -> Result<(Graph, RangerStats), GraphError> {
        RangerProtector::new(RangerConfig::with_policy(self.policy)).protect(graph, bounds)
    }
}

/// The unprotected control arm: returns a verbatim copy of the graph with zero insertion
/// statistics. Every Table VI-style comparison runs this arm to obtain the baseline SDC
/// rate that coverage is computed against.
#[derive(Debug, Clone, Copy, Default)]
pub struct Unprotected;

impl Protector for Unprotected {
    fn name(&self) -> String {
        "unprotected".to_string()
    }

    fn protect(
        &self,
        graph: &Graph,
        _bounds: &ActivationBounds,
    ) -> Result<(Graph, RangerStats), GraphError> {
        Ok((
            graph.clone(),
            RangerStats {
                clamps_inserted: 0,
                activations_protected: 0,
                followers_protected: 0,
                insertion_seconds: 0.0,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{profile_bounds, BoundsConfig};
    use rand::{rngs::StdRng, SeedableRng};
    use ranger_graph::GraphBuilder;
    use ranger_tensor::Tensor;

    fn toy() -> (Graph, Vec<Tensor>) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let c = b.conv2d(x, 1, 2, 3, 1, ranger_graph::op::Padding::Same, &mut rng);
        let r = b.relu(c);
        let p = b.max_pool(r, 2, 2);
        let f = b.flatten(p);
        let _y = b.dense(f, 8, 2, &mut rng);
        let samples = (0..4)
            .map(|i| Tensor::filled(vec![1, 1, 4, 4], 0.25 * (i + 1) as f32))
            .collect();
        (b.into_graph(), samples)
    }

    #[test]
    fn design_alternative_inserts_policy_ops() {
        let (graph, samples) = toy();
        let bounds = profile_bounds(&graph, "x", &samples, &BoundsConfig::default()).unwrap();
        let (zeroed, stats) = DesignAlternative::new(RestorePolicy::Zero)
            .protect(&graph, &bounds)
            .unwrap();
        assert!(stats.clamps_inserted > 0);
        assert!(zeroed.nodes().iter().any(|n| matches!(
            n.op,
            Op::RangeRestore {
                policy: RestorePolicy::Zero,
                ..
            }
        )));
        assert_eq!(zeroed.clamp_count(), 0);
    }

    #[test]
    fn unprotected_is_the_identity() {
        let (graph, samples) = toy();
        let bounds = profile_bounds(&graph, "x", &samples, &BoundsConfig::default()).unwrap();
        let (copy, stats) = Unprotected.protect(&graph, &bounds).unwrap();
        assert_eq!(copy, graph);
        assert_eq!(stats.clamps_inserted, 0);
    }

    #[test]
    fn protectors_are_usable_as_trait_objects() {
        let (graph, samples) = toy();
        let bounds = profile_bounds(&graph, "x", &samples, &BoundsConfig::default()).unwrap();
        let strategies: Vec<Box<dyn Protector>> = vec![
            Box::new(Unprotected),
            Box::new(RangerProtector::default()),
            Box::new(DesignAlternative::new(RestorePolicy::Random)),
        ];
        let names: Vec<String> = strategies.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["unprotected", "ranger", "random"]);
        for s in &strategies {
            let (protected, stats) = s.protect(&graph, &bounds).unwrap();
            assert_eq!(protected.len() - graph.len(), stats.clamps_inserted);
        }
    }
}
