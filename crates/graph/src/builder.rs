//! A layer-oriented convenience API for constructing model graphs.
//!
//! The eight benchmark architectures are expressed in terms of layers (conv + bias + ReLU,
//! dense, pooling, fire modules, residual blocks); [`GraphBuilder`] turns those into the
//! underlying operator nodes with freshly initialized weights.

use crate::graph::{Graph, NodeId};
use crate::op::{Op, Padding};
use rand::Rng;
use ranger_tensor::init;

/// Incrementally builds a [`Graph`] layer by layer.
///
/// The builder owns the graph; [`GraphBuilder::into_graph`] releases it. Weight constants
/// are created with He initialization (appropriate for the ReLU-dominated benchmark
/// models) and registered as trainable parameters.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    graph: Graph,
    layer_counter: usize,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        GraphBuilder::default()
    }

    /// Returns the graph built so far, consuming the builder.
    pub fn into_graph(self) -> Graph {
        self.graph
    }

    /// Returns a reference to the graph built so far.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    fn next_layer_name(&mut self, kind: &str) -> String {
        self.layer_counter += 1;
        format!("{kind}_{}", self.layer_counter)
    }

    /// Adds a graph input placeholder with the given name.
    pub fn input(&mut self, name: &str) -> NodeId {
        self.graph.add_input(name)
    }

    /// Adds a 2-D convolution layer (convolution + per-channel bias).
    ///
    /// `in_channels`/`out_channels` describe the filter bank; `kernel` is the square
    /// window size.
    #[allow(clippy::too_many_arguments)]
    pub fn conv2d<R: Rng + ?Sized>(
        &mut self,
        x: NodeId,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: Padding,
        rng: &mut R,
    ) -> NodeId {
        let name = self.next_layer_name("conv");
        let fan_in = in_channels * kernel * kernel;
        let w = init::he_normal(vec![out_channels, in_channels, kernel, kernel], fan_in, rng);
        let w = self.graph.add_const(format!("{name}/weights"), w, true);
        let b = self.graph.add_const(
            format!("{name}/bias"),
            ranger_tensor::Tensor::zeros(vec![out_channels]),
            true,
        );
        let conv = self.graph.add_node(
            format!("{name}/Conv2D"),
            Op::Conv2d { stride, padding },
            vec![x, w],
        );
        self.graph
            .add_node(format!("{name}/BiasAdd"), Op::BiasAdd, vec![conv, b])
    }

    /// Adds a dense (fully-connected) layer (matmul + bias). The input must be rank 2.
    pub fn dense<R: Rng + ?Sized>(
        &mut self,
        x: NodeId,
        in_features: usize,
        out_features: usize,
        rng: &mut R,
    ) -> NodeId {
        let name = self.next_layer_name("fc");
        let w = init::he_normal(vec![in_features, out_features], in_features, rng);
        let w = self.graph.add_const(format!("{name}/weights"), w, true);
        let b = self.graph.add_const(
            format!("{name}/bias"),
            ranger_tensor::Tensor::zeros(vec![out_features]),
            true,
        );
        let mm = self
            .graph
            .add_node(format!("{name}/MatMul"), Op::MatMul, vec![x, w]);
        self.graph
            .add_node(format!("{name}/BiasAdd"), Op::BiasAdd, vec![mm, b])
    }

    /// Adds a ReLU activation.
    pub fn relu(&mut self, x: NodeId) -> NodeId {
        let name = self.next_layer_name("relu");
        self.graph
            .add_node(format!("{name}/Relu"), Op::Relu, vec![x])
    }

    /// Adds a Tanh activation.
    pub fn tanh(&mut self, x: NodeId) -> NodeId {
        let name = self.next_layer_name("tanh");
        self.graph
            .add_node(format!("{name}/Tanh"), Op::Tanh, vec![x])
    }

    /// Adds a sigmoid activation.
    pub fn sigmoid(&mut self, x: NodeId) -> NodeId {
        let name = self.next_layer_name("sigmoid");
        self.graph
            .add_node(format!("{name}/Sigmoid"), Op::Sigmoid, vec![x])
    }

    /// Adds an ELU activation.
    pub fn elu(&mut self, x: NodeId) -> NodeId {
        let name = self.next_layer_name("elu");
        self.graph.add_node(format!("{name}/Elu"), Op::Elu, vec![x])
    }

    /// Adds an elementwise arc-tangent.
    pub fn atan(&mut self, x: NodeId) -> NodeId {
        let name = self.next_layer_name("atan");
        self.graph
            .add_node(format!("{name}/Atan"), Op::Atan, vec![x])
    }

    /// Adds a softmax over the last dimension.
    pub fn softmax(&mut self, x: NodeId) -> NodeId {
        let name = self.next_layer_name("softmax");
        self.graph
            .add_node(format!("{name}/Softmax"), Op::Softmax, vec![x])
    }

    /// Adds a max-pooling layer.
    pub fn max_pool(&mut self, x: NodeId, kernel: usize, stride: usize) -> NodeId {
        let name = self.next_layer_name("maxpool");
        self.graph.add_node(
            format!("{name}/MaxPool"),
            Op::MaxPool { kernel, stride },
            vec![x],
        )
    }

    /// Adds an average-pooling layer.
    pub fn avg_pool(&mut self, x: NodeId, kernel: usize, stride: usize) -> NodeId {
        let name = self.next_layer_name("avgpool");
        self.graph.add_node(
            format!("{name}/AvgPool"),
            Op::AvgPool { kernel, stride },
            vec![x],
        )
    }

    /// Adds a global average pooling layer.
    pub fn global_avg_pool(&mut self, x: NodeId) -> NodeId {
        let name = self.next_layer_name("gap");
        self.graph
            .add_node(format!("{name}/GlobalAvgPool"), Op::GlobalAvgPool, vec![x])
    }

    /// Adds a flatten layer.
    pub fn flatten(&mut self, x: NodeId) -> NodeId {
        let name = self.next_layer_name("flatten");
        self.graph
            .add_node(format!("{name}/Flatten"), Op::Flatten, vec![x])
    }

    /// Adds a reshape to `[batch, dims...]`.
    pub fn reshape(&mut self, x: NodeId, dims: Vec<usize>) -> NodeId {
        let name = self.next_layer_name("reshape");
        self.graph
            .add_node(format!("{name}/Reshape"), Op::Reshape { dims }, vec![x])
    }

    /// Adds a channel-axis concatenation of several tensors.
    pub fn concat(&mut self, inputs: Vec<NodeId>) -> NodeId {
        let name = self.next_layer_name("concat");
        self.graph
            .add_node(format!("{name}/Concat"), Op::Concat, inputs)
    }

    /// Adds an elementwise addition (residual connection).
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let name = self.next_layer_name("add");
        self.graph
            .add_node(format!("{name}/Add"), Op::Add, vec![a, b])
    }

    /// Adds a multiplication by a scalar constant.
    pub fn scalar_mul(&mut self, x: NodeId, factor: f32) -> NodeId {
        let name = self.next_layer_name("scale");
        self.graph.add_node(
            format!("{name}/ScalarMul"),
            Op::ScalarMul { factor },
            vec![x],
        )
    }

    /// Adds an identity node with a descriptive name (useful for marking logical outputs).
    pub fn identity(&mut self, x: NodeId, name: &str) -> NodeId {
        self.graph.add_node(name, Op::Identity, vec![x])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use ranger_tensor::Tensor;

    #[test]
    fn builder_constructs_runnable_mlp() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let h = b.dense(x, 4, 16, &mut rng);
        let h = b.relu(h);
        let logits = b.dense(h, 16, 3, &mut rng);
        let probs = b.softmax(logits);
        let g = b.into_graph();

        let plan = g.compile().unwrap();
        let out = plan
            .run_simple(&[("x", Tensor::ones(vec![2, 4]))], probs)
            .unwrap();
        assert_eq!(out.dims(), &[2, 3]);
        for r in 0..2 {
            let row_sum: f32 = out.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!((row_sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn builder_constructs_runnable_cnn() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut b = GraphBuilder::new();
        let x = b.input("image");
        let c = b.conv2d(x, 1, 4, 3, 1, Padding::Same, &mut rng);
        let c = b.relu(c);
        let p = b.max_pool(c, 2, 2);
        let f = b.flatten(p);
        let logits = b.dense(f, 4 * 4 * 4, 10, &mut rng);
        let g = b.into_graph();

        let plan = g.compile().unwrap();
        let out = plan
            .run_simple(&[("image", Tensor::ones(vec![1, 1, 8, 8]))], logits)
            .unwrap();
        assert_eq!(out.dims(), &[1, 10]);
    }

    #[test]
    fn parameters_are_trainable_and_counted() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let _ = b.dense(x, 10, 5, &mut rng);
        let g = b.into_graph();
        assert_eq!(g.trainable_nodes().len(), 2);
        assert_eq!(g.parameter_count(), 10 * 5 + 5);
    }

    #[test]
    fn layer_names_are_unique_and_descriptive() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let a = b.dense(x, 2, 2, &mut rng);
        let c = b.dense(a, 2, 2, &mut rng);
        let g = b.into_graph();
        let name_a = &g.node(a).unwrap().name;
        let name_c = &g.node(c).unwrap().name;
        assert_ne!(name_a, name_c);
        assert!(name_a.contains("BiasAdd"));
    }

    #[test]
    fn residual_add_and_concat_compose() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let c1 = b.conv2d(x, 2, 2, 3, 1, Padding::Same, &mut rng);
        let c1 = b.relu(c1);
        let res = b.add(c1, x);
        let cat = b.concat(vec![res, x]);
        let g = b.into_graph();
        let plan = g.compile().unwrap();
        let out = plan
            .run_simple(&[("x", Tensor::ones(vec![1, 2, 4, 4]))], cat)
            .unwrap();
        assert_eq!(out.dims(), &[1, 4, 4, 4]);
    }
}
