//! Constructors for the eight benchmark architectures.
//!
//! Each submodule builds one architecture family as a dataflow graph via
//! [`ranger_graph::GraphBuilder`]. The constructors honour the [`ModelConfig`]'s
//! activation family (ReLU or Tanh, the latter reproducing the Hong et al. baseline) and,
//! for the Dave model, the output unit (radians through `2·atan`, or a linear output in
//! degrees as in the paper's Section VI retraining).

pub mod alexnet;
pub mod comma;
pub mod dave;
pub mod lenet;
pub mod resnet;
pub mod squeezenet;
pub mod vgg;

use crate::model::{Activation, Model, ModelConfig, ModelKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ranger_graph::{Graph, GraphBuilder, NodeId};

/// Builds the model described by `config`, initializing weights from `seed`.
pub fn build(config: &ModelConfig, seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    match config.kind {
        ModelKind::LeNet => lenet::build(config, &mut rng),
        ModelKind::AlexNet => alexnet::build(config, &mut rng),
        ModelKind::Vgg11 => vgg::build_vgg11(config, &mut rng),
        ModelKind::Vgg16 => vgg::build_vgg16(config, &mut rng),
        ModelKind::ResNet18 => resnet::build(config, &mut rng),
        ModelKind::SqueezeNet => squeezenet::build(config, &mut rng),
        ModelKind::Dave => dave::build(config, &mut rng),
        ModelKind::Comma => comma::build(config, &mut rng),
    }
}

/// Applies the configured activation family to `x`.
pub(crate) fn activation(b: &mut GraphBuilder, config: &ModelConfig, x: NodeId) -> NodeId {
    match config.activation {
        Activation::Relu => b.relu(x),
        Activation::Tanh => b.tanh(x),
    }
}

/// Returns `node` plus every node reachable downstream of it (its transitive consumers).
///
/// Used to build the fault-injection exclusion set: the paper excludes the last
/// fully-connected layer (and therefore everything after it) from injection.
pub(crate) fn downstream_of(graph: &Graph, node: NodeId) -> Vec<NodeId> {
    let mut result = vec![node];
    let mut frontier = vec![node];
    while let Some(current) = frontier.pop() {
        for consumer in graph.consumers(current) {
            if !result.contains(&consumer) {
                result.push(consumer);
                frontier.push(consumer);
            }
        }
    }
    result.sort();
    result
}

/// Given the BiasAdd node returned by [`GraphBuilder::dense`], returns the exclusion set
/// for injections: the dense layer's MatMul and everything downstream.
pub(crate) fn exclusion_from_last_dense(graph: &Graph, last_dense_bias: NodeId) -> Vec<NodeId> {
    let matmul = graph
        .node(last_dense_bias)
        .expect("dense output node exists")
        .inputs[0];
    downstream_of(graph, matmul)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Task;
    use ranger_datasets::driving::AngleUnit;
    use ranger_tensor::Tensor;

    /// Every architecture must build, run a forward pass of the right shape, and expose a
    /// sensible exclusion set.
    #[test]
    fn all_architectures_build_and_run() {
        for kind in ModelKind::all() {
            let config = ModelConfig::new(kind);
            let model = build(&config, 7);
            assert_eq!(model.config.kind, kind);
            assert!(model.parameter_count() > 0, "{kind} has no parameters");
            assert!(model.activation_count() > 0, "{kind} has no activations");
            assert!(
                !model.excluded_from_injection.is_empty(),
                "{kind} must exclude its last FC layer from injection"
            );

            let batch = match kind.image_domain() {
                Some(domain) => {
                    let (c, h, w) = domain.image_shape();
                    Tensor::ones(vec![1, c, h, w])
                }
                None => {
                    let (c, h, w) = ranger_datasets::driving::FRAME_SHAPE;
                    Tensor::ones(vec![1, c, h, w])
                }
            };
            let out = model
                .forward(&batch)
                .unwrap_or_else(|e| panic!("{kind} forward failed: {e}"));
            match model.task {
                Task::Classification { num_classes } => {
                    assert_eq!(out.dims(), &[1, num_classes], "{kind} output shape");
                    let sum: f32 = out.data().iter().sum();
                    assert!(
                        (sum - 1.0).abs() < 1e-4,
                        "{kind} softmax should sum to 1, got {sum}"
                    );
                }
                Task::Regression { .. } => {
                    assert_eq!(out.dims(), &[1, 1], "{kind} output shape");
                    assert!(out.data()[0].is_finite());
                }
            }
        }
    }

    #[test]
    fn tanh_variant_contains_no_relu() {
        for kind in [ModelKind::LeNet, ModelKind::AlexNet, ModelKind::Vgg11] {
            let model = build(&ModelConfig::new(kind).with_tanh(), 3);
            let has_relu = model
                .graph
                .nodes()
                .iter()
                .any(|n| matches!(n.op, ranger_graph::Op::Relu));
            assert!(!has_relu, "{kind} Tanh variant must not contain ReLU nodes");
        }
    }

    #[test]
    fn dave_radian_output_goes_through_atan() {
        let radians = build(&ModelConfig::new(ModelKind::Dave), 1);
        let has_atan = radians
            .graph
            .nodes()
            .iter()
            .any(|n| matches!(n.op, ranger_graph::Op::Atan));
        assert!(has_atan);
        assert_eq!(
            radians.task,
            Task::Regression {
                unit: AngleUnit::Radians
            }
        );

        let degrees = build(
            &ModelConfig::new(ModelKind::Dave).with_steering_unit(AngleUnit::Degrees),
            1,
        );
        let has_atan = degrees
            .graph
            .nodes()
            .iter()
            .any(|n| matches!(n.op, ranger_graph::Op::Atan));
        assert!(!has_atan, "degree-output Dave is a linear regression head");
    }

    #[test]
    fn downstream_of_collects_transitive_consumers() {
        let model = build(&ModelConfig::lenet(), 0);
        // The exclusion set must contain the output node and the logits node.
        assert!(model.excluded_from_injection.contains(&model.output));
        assert!(model.excluded_from_injection.contains(&model.logits));
        // But not the first convolution.
        let first_conv = model
            .graph
            .nodes()
            .iter()
            .find(|n| matches!(n.op, ranger_graph::Op::Conv2d { .. }))
            .unwrap()
            .id;
        assert!(!model.excluded_from_injection.contains(&first_conv));
    }

    #[test]
    fn squeezenet_uses_concat_and_resnet_uses_add() {
        let squeeze = build(&ModelConfig::new(ModelKind::SqueezeNet), 2);
        assert!(squeeze
            .graph
            .nodes()
            .iter()
            .any(|n| matches!(n.op, ranger_graph::Op::Concat)));
        let resnet = build(&ModelConfig::new(ModelKind::ResNet18), 2);
        assert!(resnet
            .graph
            .nodes()
            .iter()
            .any(|n| matches!(n.op, ranger_graph::Op::Add)));
    }

    #[test]
    fn vgg16_has_thirteen_conv_activations() {
        let model = build(&ModelConfig::new(ModelKind::Vgg16), 5);
        let conv_count = model
            .graph
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, ranger_graph::Op::Conv2d { .. }))
            .count();
        assert_eq!(conv_count, 13, "VGG16 has 13 convolution layers");
    }

    #[test]
    fn forward_is_deterministic_given_seed() {
        let a = build(&ModelConfig::lenet(), 11);
        let b = build(&ModelConfig::lenet(), 11);
        let (c, h, w) = ModelKind::LeNet.image_domain().unwrap().image_shape();
        let x = Tensor::ones(vec![1, c, h, w]);
        let plan_a = a.graph.compile().unwrap();
        let plan_b = b.graph.compile().unwrap();
        let out_a = plan_a
            .run_simple(&[("image", x.clone())], a.output)
            .unwrap();
        let out_b = plan_b.run_simple(&[("image", x)], b.output).unwrap();
        assert_eq!(out_a, out_b);
    }
}
