//! Design alternatives for the range-restriction operator (paper Section VI-C).
//!
//! Ranger restores out-of-bounds values to the restriction bound (saturation). The paper
//! also evaluates two alternatives: resetting out-of-bounds values to zero (as proposed by
//! Reagen et al. for Minerva) and replacing them with a random value inside the
//! restriction range. Saturation preserves accuracy and is deterministic; zero-resetting
//! degrades accuracy sharply because the value reduction is drastic and zeros propagate
//! through subsequent multiplications.
//!
//! Each alternative is a [`DesignAlternative`](crate::protect::DesignAlternative)
//! protector; `RestorePolicy::Saturate` inserts exactly what the default
//! [`RangerProtector`](crate::protect::RangerProtector) does.

use ranger_graph::op::RestorePolicy;

/// The three restoration policies the paper discusses, in the order Section VI-C presents
/// them.
pub fn all_policies() -> [RestorePolicy; 3] {
    [
        RestorePolicy::Saturate,
        RestorePolicy::Zero,
        RestorePolicy::Random,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{profile_bounds, ActivationBounds, BoundsConfig};
    use crate::protect::{DesignAlternative, Protector, RangerProtector};
    use rand::{rngs::StdRng, SeedableRng};
    use ranger_graph::{Graph, GraphBuilder, NodeId, Op};
    use ranger_tensor::Tensor;

    fn toy() -> (Graph, NodeId, NodeId) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let h = b.dense(x, 3, 6, &mut rng);
        let r = b.relu(h);
        let y = b.dense(r, 6, 2, &mut rng);
        (b.into_graph(), r, y)
    }

    #[test]
    fn saturate_alternative_matches_default_ranger() {
        let (graph, ..) = toy();
        let samples: Vec<Tensor> = (0..4)
            .map(|i| Tensor::filled(vec![1, 3], i as f32 * 0.3))
            .collect();
        let bounds = profile_bounds(&graph, "x", &samples, &BoundsConfig::default()).unwrap();
        let (a, _) = DesignAlternative::new(RestorePolicy::Saturate)
            .protect(&graph, &bounds)
            .unwrap();
        let (b, _) = RangerProtector::default().protect(&graph, &bounds).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_policy_zeroes_out_of_bound_values() {
        let (graph, relu, y) = toy();
        let mut bounds = ActivationBounds::new();
        bounds.set(relu, 0.0, 1.0);
        let (zeroed, _) = DesignAlternative::new(RestorePolicy::Zero)
            .protect(&graph, &bounds)
            .unwrap();
        assert!(zeroed.nodes().iter().any(|n| matches!(
            n.op,
            Op::RangeRestore {
                policy: RestorePolicy::Zero,
                ..
            }
        )));

        // Feed an input that drives the ReLU above the bound: the zero policy collapses
        // the downstream values harder than saturation does.
        let input = Tensor::filled(vec![1, 3], 100.0);
        let plan = graph.compile().unwrap();
        let golden = plan.run_simple(&[("x", input.clone())], y).unwrap();
        let (saturated, _) = DesignAlternative::new(RestorePolicy::Saturate)
            .protect(&graph, &bounds)
            .unwrap();
        let out_sat = saturated
            .compile()
            .unwrap()
            .run_simple(&[("x", input.clone())], y)
            .unwrap();
        let out_zero = zeroed
            .compile()
            .unwrap()
            .run_simple(&[("x", input)], y)
            .unwrap();
        let dev_sat = golden.max_abs_diff(&out_sat).unwrap();
        let dev_zero = golden.max_abs_diff(&out_zero).unwrap();
        assert!(
            dev_zero >= dev_sat,
            "zero-resetting should deviate at least as much as saturation ({dev_zero} vs {dev_sat})"
        );
    }

    #[test]
    fn random_policy_stays_inside_the_bounds_and_is_deterministic() {
        let (graph, relu, _) = toy();
        let mut bounds = ActivationBounds::new();
        bounds.set(relu, 0.0, 1.0);
        let (randomized, _) = DesignAlternative::new(RestorePolicy::Random)
            .protect(&graph, &bounds)
            .unwrap();
        let clamp_node = randomized
            .nodes()
            .iter()
            .find(|n| matches!(n.op, Op::RangeRestore { .. }))
            .unwrap()
            .id;
        let input = Tensor::filled(vec![1, 3], 50.0);
        let plan = randomized.compile().unwrap();
        let a = plan
            .run_simple(&[("x", input.clone())], clamp_node)
            .unwrap();
        let b = plan.run_simple(&[("x", input)], clamp_node).unwrap();
        assert_eq!(a, b, "random replacement must be reproducible");
        assert!(a.max() <= 1.0 && a.min() >= 0.0);
    }

    #[test]
    fn all_policies_lists_three() {
        assert_eq!(all_policies().len(), 3);
    }
}
