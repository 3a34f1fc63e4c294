//! Property-based integration tests of Ranger's core invariants across crates.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use ranger::bounds::{profile_bounds, ActivationBounds, BoundsConfig};
use ranger::protect::{Protector, RangerProtector};
use ranger_engine::canonical_input;
use ranger_graph::exec::NoopInterceptor;
use ranger_graph::{GraphBuilder, Op};
use ranger_models::{archs, ModelConfig, ModelKind};
use ranger_tensor::init::uniform;
use ranger_tensor::{DataType, Tensor};

/// Builds a small random MLP with the given hidden width and returns (graph, output node).
fn mlp(hidden: usize, seed: u64) -> (ranger_graph::Graph, ranger_graph::NodeId) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    let x = b.input("x");
    let h = b.dense(x, 4, hidden, &mut rng);
    let h = b.relu(h);
    let h = b.dense(h, hidden, hidden, &mut rng);
    let h = b.relu(h);
    let y = b.dense(h, hidden, 3, &mut rng);
    (b.into_graph(), y)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The Ranger transformation never changes fault-free outputs, for any random network
    /// and input, because the profiling bound covers every value observed in profiling and
    /// the same inputs are replayed.
    #[test]
    fn transformation_preserves_fault_free_outputs(
        hidden in 2usize..10,
        seed in 0u64..50,
        scale in 0.1f32..3.0f32,
    ) {
        let (graph, y) = mlp(hidden, seed);
        let samples: Vec<Tensor> = (0..6)
            .map(|i| Tensor::filled(vec![1, 4], scale * (i as f32 + 1.0) / 6.0))
            .collect();
        let bounds = profile_bounds(&graph, "x", &samples, &BoundsConfig::default()).unwrap();
        let (protected, _) = RangerProtector::default().protect(&graph, &bounds).unwrap();
        let plan = graph.compile().unwrap();
        let plan_p = protected.compile().unwrap();
        for s in &samples {
            let a = plan.run_simple(&[("x", s.clone())], y).unwrap();
            let b = plan_p.run_simple(&[("x", s.clone())], y).unwrap();
            prop_assert!(a.approx_eq(&b, 1e-5).unwrap());
        }
    }

    /// Every clamp inserted by Ranger carries a bound that covers the values observed at
    /// that activation during profiling (no legitimate profiled value is ever truncated).
    #[test]
    fn inserted_bounds_cover_profiled_values(hidden in 2usize..8, seed in 0u64..30) {
        let (graph, _) = mlp(hidden, seed);
        let samples: Vec<Tensor> = (0..5)
            .map(|i| Tensor::filled(vec![1, 4], 0.3 * i as f32))
            .collect();
        let bounds = profile_bounds(&graph, "x", &samples, &BoundsConfig::default()).unwrap();
        let plan = graph.compile().unwrap();
        for s in &samples {
            let values = plan.run(&[("x", s.clone())], &mut NoopInterceptor).unwrap();
            for (node, (lo, hi)) in bounds.iter() {
                let v = values.get(node).unwrap();
                prop_assert!(v.max() <= hi + 1e-6);
                prop_assert!(v.min() >= lo - 1e-6);
            }
        }
    }

    /// With Ranger in place, any single bit flip injected *at a protected activation*
    /// results in downstream values that respect the restriction bound.
    #[test]
    fn protected_activation_output_is_always_within_bounds(
        hidden in 2usize..8,
        seed in 0u64..30,
        bit in 0u32..32,
        element in 0usize..4,
    ) {
        let (graph, _) = mlp(hidden, seed);
        let samples: Vec<Tensor> = (0..4)
            .map(|i| Tensor::filled(vec![1, 4], 0.5 * (i as f32 + 1.0)))
            .collect();
        let bounds = profile_bounds(&graph, "x", &samples, &BoundsConfig::default()).unwrap();
        let (protected, _) = RangerProtector::default().protect(&graph, &bounds).unwrap();

        // Pick the first protected ReLU and its clamp in the protected graph.
        let relu = protected
            .nodes()
            .iter()
            .find(|n| matches!(n.op, Op::Relu))
            .unwrap()
            .id;
        let clamp = protected
            .consumers(relu)
            .into_iter()
            .find(|&c| matches!(protected.node(c).unwrap().op, Op::Clamp { .. }))
            .unwrap();
        let (lo, hi) = match protected.node(clamp).unwrap().op {
            Op::Clamp { lo, hi } => (lo, hi),
            _ => unreachable!(),
        };

        // Corrupt one element of the ReLU output with a bit flip and check the clamp
        // output stays within the restriction bound.
        struct Corrupt {
            node: ranger_graph::NodeId,
            element: usize,
            bit: u32,
        }
        impl ranger_graph::Interceptor for Corrupt {
            fn after_op(&mut self, node: &ranger_graph::Node, output: &mut Tensor) {
                if node.id == self.node && self.element < output.len() {
                    let dt = DataType::fixed32();
                    output.data_mut()[self.element] = dt.flip_bit(output.data()[self.element], self.bit);
                }
            }
        }
        let mut interceptor = Corrupt { node: relu, element, bit };
        let values = protected
            .compile()
            .unwrap()
            .run(&[("x", samples[1].clone())], &mut interceptor)
            .unwrap();
        let clamp_out = values.get(clamp).unwrap();
        prop_assert!(clamp_out.max() <= hi + 1e-6);
        prop_assert!(clamp_out.min() >= lo - 1e-6);
    }

    /// Tighter percentile bounds never exceed the conservative maximum bounds.
    #[test]
    fn percentile_bounds_are_monotone(hidden in 2usize..8, seed in 0u64..20) {
        let (graph, _) = mlp(hidden, seed);
        let samples: Vec<Tensor> = (0..10)
            .map(|i| Tensor::filled(vec![1, 4], 0.2 * i as f32))
            .collect();
        let full = profile_bounds(&graph, "x", &samples, &BoundsConfig::default()).unwrap();
        let tight = profile_bounds(&graph, "x", &samples, &BoundsConfig::with_percentile(95.0)).unwrap();
        for (node, (_, hi_full)) in full.iter() {
            let (_, hi_tight) = tight.get(node).unwrap();
            prop_assert!(hi_tight <= hi_full + 1e-6);
        }
    }
}

/// A non-proptest sanity check: manual bounds that exclude an activation leave that
/// activation unprotected while others still receive clamps.
#[test]
fn partial_bounds_protect_only_known_activations() {
    let (graph, _) = mlp(4, 0);
    let relus: Vec<_> = graph
        .nodes()
        .iter()
        .filter(|n| matches!(n.op, Op::Relu))
        .map(|n| n.id)
        .collect();
    assert_eq!(relus.len(), 2);
    let mut bounds = ActivationBounds::new();
    bounds.set(relus[0], 0.0, 1.0);
    let (protected, stats) = RangerProtector::default().protect(&graph, &bounds).unwrap();
    assert_eq!(stats.activations_protected, 1);
    assert!(protected
        .consumers(relus[1])
        .iter()
        .all(|&c| !matches!(protected.node(c).unwrap().op, Op::Clamp { .. })));
}

/// Profiling several samples (through one plan and one reused store) yields exactly the
/// per-node combination of profiling each sample alone: the lower bound is the minimum
/// of the single-sample lower bounds and the upper bound the maximum of their upper
/// bounds, bit for bit. A value left over from an earlier sample's pass would break the
/// equality; concat (SqueezeNet) and residual adds (ResNet-18) are covered.
#[test]
fn profiled_bounds_combine_the_single_sample_bounds_exactly() {
    for kind in [ModelKind::LeNet, ModelKind::SqueezeNet, ModelKind::ResNet18] {
        let model = archs::build(&ModelConfig::new(kind), 0);
        let dims = canonical_input(&model).dims().to_vec();
        let mut rng = StdRng::seed_from_u64(11);
        let samples: Vec<Tensor> = (0..4)
            .map(|_| uniform(dims.clone(), -1.0, 1.0, &mut rng))
            .collect();
        let profile = |samples: &[Tensor]| {
            profile_bounds(
                &model.graph,
                &model.input_name,
                samples,
                &BoundsConfig::default(),
            )
            .unwrap()
        };
        let all = profile(&samples);
        let singles: Vec<ActivationBounds> = samples
            .iter()
            .map(|s| profile(std::slice::from_ref(s)))
            .collect();
        assert!(!all.is_empty(), "{kind}");
        for node in model.graph.nodes() {
            let combined = singles
                .iter()
                .filter_map(|b| b.get(node.id))
                .reduce(|(lo_a, hi_a), (lo_b, hi_b)| (lo_a.min(lo_b), hi_a.max(hi_b)));
            let bits = |b: Option<(f32, f32)>| b.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()));
            assert_eq!(
                bits(all.get(node.id)),
                bits(combined),
                "{kind}: node {} ({})",
                node.id,
                node.name
            );
        }
    }
}
