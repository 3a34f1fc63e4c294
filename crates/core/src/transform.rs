//! Step 2 of Ranger: inserting range restriction into the selected DNN layers
//! (Algorithm 1 of the paper).
//!
//! This module holds the transformation's configuration and statistics; the
//! transformation itself is [`RangerProtector`](crate::protect::RangerProtector). The input
//! graph is not modified — like the TensorFlow implementation, which duplicates the
//! (append-only) graph and remaps operator inputs, the transformation works on a copy.

use ranger_graph::op::RestorePolicy;
use serde::{Deserialize, Serialize};

/// Configuration of the Ranger transformation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RangerConfig {
    /// Whether to extend each ACT operation's bound to the following
    /// `{MaxPool, AvgPool, Reshape, Concatenate}` operation, as Algorithm 1 lines 5–8 do.
    /// Disabling this protects only the ACT operations themselves (useful for ablation).
    pub protect_followers: bool,
    /// What an inserted restriction operator does with out-of-bounds values. The paper's
    /// Ranger saturates at the bound; `Zero` and `Random` are the Section VI-C design
    /// alternatives.
    pub policy: RestorePolicy,
}

impl Default for RangerConfig {
    fn default() -> Self {
        RangerConfig {
            protect_followers: true,
            policy: RestorePolicy::Saturate,
        }
    }
}

impl RangerConfig {
    /// The ablation configuration that restricts only ACT operations (no follower
    /// protection).
    pub fn activations_only() -> Self {
        RangerConfig {
            protect_followers: false,
            ..Default::default()
        }
    }

    /// A configuration using a Section VI-C design alternative for out-of-bounds values.
    pub fn with_policy(policy: RestorePolicy) -> Self {
        RangerConfig {
            policy,
            ..Default::default()
        }
    }
}

/// Statistics about one application of the Ranger transformation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RangerStats {
    /// Total number of restriction operators inserted.
    pub clamps_inserted: usize,
    /// How many of those protect ACT operations directly.
    pub activations_protected: usize,
    /// How many protect follower operations (pooling, reshape, concatenation).
    pub followers_protected: usize,
    /// Wall-clock seconds the transformation took (the paper's Table III instrumentation
    /// time).
    pub insertion_seconds: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{profile_bounds, ActivationBounds, BoundsConfig};
    use crate::protect::{Protector, RangerProtector};
    use rand::{rngs::StdRng, SeedableRng};
    use ranger_graph::{Graph, GraphBuilder, NodeId, Op};
    use ranger_tensor::Tensor;

    /// Builds a small CNN-like graph with a ReLU feeding a max-pool (the Algorithm 1
    /// follower case) and returns (graph, relu, pool, output).
    fn relu_pool_net() -> (Graph, NodeId, NodeId, NodeId) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let c = b.conv2d(x, 1, 2, 3, 1, ranger_graph::op::Padding::Same, &mut rng);
        let relu = b.relu(c);
        let pool = b.max_pool(relu, 2, 2);
        let f = b.flatten(pool);
        let y = b.dense(f, 2 * 2 * 2, 2, &mut rng);
        (b.into_graph(), relu, pool, y)
    }

    fn profiling_samples() -> Vec<Tensor> {
        (0..5)
            .map(|i| Tensor::filled(vec![1, 1, 4, 4], 0.2 * i as f32))
            .collect()
    }

    #[test]
    fn algorithm1_bounds_act_and_following_pool() {
        let (graph, relu, pool, _) = relu_pool_net();
        let bounds =
            profile_bounds(&graph, "x", &profiling_samples(), &BoundsConfig::default()).unwrap();
        let (protected, stats) = RangerProtector::default().protect(&graph, &bounds).unwrap();

        assert_eq!(stats.activations_protected, 1);
        assert_eq!(stats.followers_protected, 1);
        assert_eq!(stats.clamps_inserted, 2);
        assert_eq!(protected.clamp_count(), 2);
        assert!(stats.insertion_seconds >= 0.0);

        // The ReLU's consumer (in the protected graph) must now be a Clamp, and the pool's
        // consumer too.
        let relu_consumers = protected.consumers(relu);
        assert!(relu_consumers
            .iter()
            .any(|&c| matches!(protected.node(c).unwrap().op, Op::Clamp { .. })));
        let pool_consumers = protected.consumers(pool);
        assert!(pool_consumers
            .iter()
            .any(|&c| matches!(protected.node(c).unwrap().op, Op::Clamp { .. })));
        // The original graph is untouched.
        assert_eq!(graph.clamp_count(), 0);
    }

    #[test]
    fn activations_only_config_skips_followers() {
        let (graph, ..) = relu_pool_net();
        let bounds =
            profile_bounds(&graph, "x", &profiling_samples(), &BoundsConfig::default()).unwrap();
        let (protected, stats) = RangerProtector::new(RangerConfig::activations_only())
            .protect(&graph, &bounds)
            .unwrap();
        assert_eq!(stats.followers_protected, 0);
        assert_eq!(protected.clamp_count(), 1);
    }

    #[test]
    fn transformation_preserves_fault_free_output() {
        let (graph, _, _, y) = relu_pool_net();
        let samples = profiling_samples();
        let bounds = profile_bounds(&graph, "x", &samples, &BoundsConfig::default()).unwrap();
        let (protected, _) = RangerProtector::default().protect(&graph, &bounds).unwrap();

        let plan = graph.compile().unwrap();
        let plan_p = protected.compile().unwrap();
        for s in &samples {
            let a = plan.run_simple(&[("x", s.clone())], y).unwrap();
            let b = plan_p.run_simple(&[("x", s.clone())], y).unwrap();
            assert!(
                a.approx_eq(&b, 1e-6).unwrap(),
                "range restriction must not change fault-free outputs"
            );
        }
    }

    #[test]
    fn concat_gets_merged_bounds() {
        // Two ReLU branches with different ranges feeding a concat.
        let mut rng = StdRng::seed_from_u64(3);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let c1 = b.conv2d(x, 1, 2, 1, 1, ranger_graph::op::Padding::Same, &mut rng);
        let r1 = b.relu(c1);
        let c2 = b.conv2d(x, 1, 2, 1, 1, ranger_graph::op::Padding::Same, &mut rng);
        let r2 = b.relu(c2);
        let cat = b.concat(vec![r1, r2]);
        let _f = b.flatten(cat);
        let graph = b.into_graph();

        let mut bounds = ActivationBounds::new();
        bounds.set(r1, 0.0, 5.0);
        bounds.set(r2, -1.0, 10.0);
        let (protected, stats) = RangerProtector::default().protect(&graph, &bounds).unwrap();

        // One clamp per ReLU plus exactly one for the concat.
        assert_eq!(stats.clamps_inserted, 3);
        let concat_clamp = protected
            .consumers(cat)
            .into_iter()
            .find_map(|c| match protected.node(c).unwrap().op {
                Op::Clamp { lo, hi } => Some((lo, hi)),
                _ => None,
            })
            .expect("concat must be protected");
        assert_eq!(concat_clamp, (-1.0, 10.0));
    }

    #[test]
    fn unbounded_activations_without_profile_are_left_alone() {
        let (graph, ..) = relu_pool_net();
        let (protected, stats) = RangerProtector::default()
            .protect(&graph, &ActivationBounds::new())
            .unwrap();
        assert_eq!(stats.clamps_inserted, 0);
        assert_eq!(protected.clamp_count(), 0);
    }

    #[test]
    fn design_alternative_policy_inserts_range_restore_ops() {
        let (graph, ..) = relu_pool_net();
        let bounds =
            profile_bounds(&graph, "x", &profiling_samples(), &BoundsConfig::default()).unwrap();
        let (protected, _) = RangerProtector::new(RangerConfig::with_policy(RestorePolicy::Zero))
            .protect(&graph, &bounds)
            .unwrap();
        let restore_count = protected
            .nodes()
            .iter()
            .filter(|n| {
                matches!(
                    n.op,
                    Op::RangeRestore {
                        policy: RestorePolicy::Zero,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(restore_count, 2);
        assert_eq!(protected.clamp_count(), 0);
    }

    #[test]
    fn protected_graph_corrects_an_injected_critical_fault() {
        use ranger_graph::{Interceptor, Node};
        struct CorruptRelu {
            node: NodeId,
        }
        impl Interceptor for CorruptRelu {
            fn after_op(&mut self, node: &Node, output: &mut Tensor) {
                if node.id == self.node {
                    // Emulate a high-order-bit flip: a huge value deviation.
                    output.data_mut()[0] = 1.0e9;
                }
            }
        }

        let (graph, relu, _, y) = relu_pool_net();
        let samples = profiling_samples();
        let bounds = profile_bounds(&graph, "x", &samples, &BoundsConfig::default()).unwrap();
        let (protected, _) = RangerProtector::default().protect(&graph, &bounds).unwrap();

        let input = samples[2].clone();
        let plan = graph.compile().unwrap();
        let golden = plan.run_simple(&[("x", input.clone())], y).unwrap();
        let faulty_unprotected = plan
            .run(&[("x", input.clone())], &mut CorruptRelu { node: relu })
            .unwrap()
            .get(y)
            .unwrap()
            .clone();
        let faulty_protected = protected
            .compile()
            .unwrap()
            .run(&[("x", input)], &mut CorruptRelu { node: relu })
            .unwrap()
            .get(y)
            .unwrap()
            .clone();

        let unprotected_dev = golden.max_abs_diff(&faulty_unprotected).unwrap();
        let protected_dev = golden.max_abs_diff(&faulty_protected).unwrap();
        assert!(
            unprotected_dev > 1.0e3,
            "the fault must matter without Ranger"
        );
        assert!(
            protected_dev < unprotected_dev / 1.0e3,
            "Ranger must dampen the deviation ({unprotected_dev} -> {protected_dev})"
        );
    }
}
