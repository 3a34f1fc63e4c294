//! Property-based tests for the dataflow-graph substrate: autodiff correctness against
//! numerical differentiation, rewrite semantics and execution determinism.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use ranger_graph::autodiff::{backward, mse_loss};
use ranger_graph::exec::NoopInterceptor;
use ranger_graph::{Graph, GraphBuilder, NodeId, Op};
use ranger_tensor::Tensor;

/// Builds a small two-layer MLP with the given hidden width, returning the graph, the
/// output node and the input width.
fn small_mlp(hidden: usize, seed: u64) -> (Graph, NodeId, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    let x = b.input("x");
    let h = b.dense(x, 3, hidden, &mut rng);
    let h = b.tanh(h);
    let y = b.dense(h, hidden, 2, &mut rng);
    (b.into_graph(), y, 3)
}

/// Evaluates the scalar loss `mean((f(x) - target)^2)` for the current parameters.
fn loss_of(graph: &Graph, output: NodeId, input: &Tensor, target: &Tensor) -> f32 {
    let plan = graph.compile().unwrap();
    let values = plan
        .run(&[("x", input.clone())], &mut NoopInterceptor)
        .unwrap();
    mse_loss(values.get(output).unwrap(), target).unwrap().0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Analytical gradients of every trainable parameter agree with central-difference
    /// numerical gradients on random networks and inputs.
    #[test]
    fn analytic_gradients_match_numerical(
        hidden in 2usize..6,
        seed in 0u64..40,
        x0 in -1.0f32..1.0,
        x1 in -1.0f32..1.0,
        x2 in -1.0f32..1.0,
    ) {
        let (graph, y, _) = small_mlp(hidden, seed);
        let input = Tensor::from_vec(vec![1, 3], vec![x0, x1, x2]).unwrap();
        let target = Tensor::from_vec(vec![1, 2], vec![0.3, -0.7]).unwrap();

        let plan = graph.compile().unwrap();
        let values = plan.run(&[("x", input.clone())], &mut NoopInterceptor).unwrap();
        let (_, grad_seed) = mse_loss(values.get(y).unwrap(), &target).unwrap();
        let grads = backward(&graph, &values, y, &grad_seed).unwrap();

        let eps = 1e-2f32;
        for param in graph.trainable_nodes() {
            let analytic = grads.get(param).unwrap().clone();
            let n = analytic.len();
            // Check a few coordinates of every parameter tensor.
            for idx in [0, n / 2, n - 1] {
                let mut plus = graph.clone();
                plus.node_mut(param).unwrap().value.as_mut().unwrap().data_mut()[idx] += eps;
                let mut minus = graph.clone();
                minus.node_mut(param).unwrap().value.as_mut().unwrap().data_mut()[idx] -= eps;
                let numerical = (loss_of(&plus, y, &input, &target)
                    - loss_of(&minus, y, &input, &target))
                    / (2.0 * eps);
                prop_assert!(
                    (numerical - analytic.data()[idx]).abs() < 2e-2,
                    "param {param} idx {idx}: numerical {numerical} vs analytic {}",
                    analytic.data()[idx]
                );
            }
        }
    }

    /// Inserting an Identity operator after any node leaves every output unchanged — the
    /// rewrite primitive itself does not disturb semantics (Ranger's correctness in the
    /// fault-free case builds on this plus clamp bounds covering observed values).
    #[test]
    fn identity_insertion_preserves_semantics(hidden in 2usize..6, seed in 0u64..40) {
        let (graph, y, width) = small_mlp(hidden, seed);
        let input = Tensor::filled(vec![1, width], 0.5);
        let plan = graph.compile().unwrap();
        let before = plan.run_simple(&[("x", input.clone())], y).unwrap();

        let mut rewritten = graph.clone();
        // Insert an identity after every operator node of the original graph.
        for id in graph.operator_nodes().unwrap() {
            rewritten.insert_after(id, "noop", Op::Identity).unwrap();
        }
        let plan2 = rewritten.compile().unwrap();
        let after = plan2.run_simple(&[("x", input)], y).unwrap();
        prop_assert!(before.approx_eq(&after, 1e-6).unwrap());
    }

    /// Execution is deterministic: running the same graph on the same input twice yields
    /// bit-identical outputs (required for the golden-run comparison in fault injection).
    #[test]
    fn execution_is_deterministic(hidden in 2usize..8, seed in 0u64..40, v in -2.0f32..2.0) {
        let (graph, y, width) = small_mlp(hidden, seed);
        let input = Tensor::filled(vec![1, width], v);
        let plan = graph.compile().unwrap();
        let a = plan.run_simple(&[("x", input.clone())], y).unwrap();
        let b = plan.run_simple(&[("x", input)], y).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Adding a clamp after a node increases the profiled FLOPs by exactly two operations
    /// per element of that node's output.
    #[test]
    fn clamp_flops_are_two_per_element(hidden in 2usize..8, seed in 0u64..40) {
        let (graph, y, width) = small_mlp(hidden, seed);
        let input = Tensor::ones(vec![1, width]);
        let baseline = ranger_graph::flops::profile(&graph, &[("x", input.clone())]).unwrap();
        let mut protected = graph.clone();
        // Clamp the first Tanh.
        let tanh = graph
            .nodes()
            .iter()
            .find(|n| matches!(n.op, Op::Tanh))
            .unwrap()
            .id;
        protected.insert_after(tanh, "clamp", Op::Clamp { lo: -1.0, hi: 1.0 }).unwrap();
        let with_clamp = ranger_graph::flops::profile(&protected, &[("x", input)]).unwrap();
        prop_assert_eq!(with_clamp.total - baseline.total, 2 * hidden as u64);
        let _ = y;
    }
}
