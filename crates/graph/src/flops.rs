//! FLOPs profiling, reproducing the paper's Table IV overhead accounting.
//!
//! The paper measures Ranger's runtime overhead in floating-point operations (FLOPs),
//! because FLOPs are independent of the host platform. The profiler runs one forward pass
//! to observe the concrete shape flowing through every operator and charges each operator
//! a conventional FLOP count (multiply-accumulate counted as two operations, element-wise
//! operators one operation per element, the Ranger clamp two operations per element for
//! its `min` and `max`).

use crate::error::GraphError;
use crate::exec::NoopInterceptor;
use crate::graph::{Graph, Node};
use crate::op::Op;
use ranger_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// FLOP counts for a graph, per node and in total.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FlopsReport {
    /// Per-node FLOP counts keyed by node name.
    pub per_node: Vec<(String, u64)>,
    /// Total FLOPs of one forward pass.
    pub total: u64,
}

impl FlopsReport {
    /// Returns the total FLOPs charged to nodes whose operator satisfies `pred`.
    pub fn total_for(&self, graph: &Graph, pred: impl Fn(&Op) -> bool) -> u64 {
        let by_name: HashMap<&str, u64> = self
            .per_node
            .iter()
            .map(|(n, f)| (n.as_str(), *f))
            .collect();
        graph
            .nodes()
            .iter()
            .filter(|n| pred(&n.op))
            .filter_map(|n| by_name.get(n.name.as_str()))
            .sum()
    }
}

/// Charges FLOPs to a node given the shapes of its inputs and output.
fn flops_for(node: &Node, input_shapes: &[&[usize]], output_shape: &[usize]) -> u64 {
    let out_elems: u64 = output_shape.iter().product::<usize>() as u64;
    match &node.op {
        Op::Input | Op::Const | Op::Identity | Op::Flatten | Op::Reshape { .. } | Op::Concat => 0,
        Op::Conv2d { .. } => {
            // 2 * Kh * Kw * Cin FLOPs per output element (multiply + add).
            let w = input_shapes.get(1).copied().unwrap_or_default();
            if w.len() == 4 {
                2 * (w[1] * w[2] * w[3]) as u64 * out_elems
            } else {
                0
            }
        }
        Op::MatMul => {
            let x = input_shapes.first().copied().unwrap_or_default();
            let k = x.get(1).copied().unwrap_or(0) as u64;
            2 * k * out_elems
        }
        Op::BiasAdd | Op::Add | Op::Mul | Op::ScalarMul { .. } | Op::Relu => out_elems,
        // Transcendental activations are charged a conventional cost of a few FLOPs each.
        Op::Tanh | Op::Sigmoid | Op::Atan | Op::Elu => 4 * out_elems,
        Op::Softmax => 5 * out_elems,
        Op::MaxPool { kernel, .. } | Op::AvgPool { kernel, .. } => {
            (kernel * kernel) as u64 * out_elems
        }
        Op::GlobalAvgPool => {
            let x = input_shapes.first().copied().unwrap_or_default();
            x.iter().product::<usize>() as u64
        }
        // Range restriction: one comparison for the lower bound and one for the upper.
        Op::Clamp { .. } | Op::RangeRestore { .. } => 2 * out_elems,
    }
}

/// Profiles one forward pass of `graph` on `feeds` and returns per-node and total FLOPs.
///
/// # Errors
///
/// Returns a [`GraphError`] if the forward pass fails.
pub fn profile(graph: &Graph, feeds: &[(&str, Tensor)]) -> Result<FlopsReport, GraphError> {
    let values = graph.compile()?.run(feeds, &mut NoopInterceptor)?;
    let dims = |id| values.dims_of(id).unwrap_or_default();
    let mut per_node = Vec::with_capacity(graph.len());
    let mut total = 0u64;
    for node in graph.nodes() {
        let inputs: Vec<&[usize]> = node.inputs.iter().map(|&i| dims(i)).collect();
        let flops = flops_for(node, &inputs, dims(node.id));
        total += flops;
        per_node.push((node.name.clone(), flops));
    }
    Ok(FlopsReport { per_node, total })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::op::Padding;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn matmul_flops_match_formula() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let y = b.dense(x, 8, 4, &mut rng);
        let g = b.into_graph();
        let report = profile(&g, &[("x", Tensor::ones(vec![2, 8]))]).unwrap();
        // MatMul: 2 * K * out_elems = 2 * 8 * (2*4) = 128; BiasAdd: 8.
        let _ = y;
        assert_eq!(report.total, 128 + 8);
    }

    #[test]
    fn conv_flops_match_formula() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let _ = b.conv2d(x, 3, 8, 3, 1, Padding::Same, &mut rng);
        let g = b.into_graph();
        let report = profile(&g, &[("x", Tensor::ones(vec![1, 3, 8, 8]))]).unwrap();
        // Conv: 2 * 3*3*3 * (1*8*8*8) = 27648; BiasAdd: 512.
        assert_eq!(report.total, 2 * 27 * 512 + 512);
    }

    #[test]
    fn clamp_overhead_is_two_flops_per_element() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let h = b.dense(x, 16, 16, &mut rng);
        let r = b.relu(h);
        let mut g = b.into_graph();
        let baseline = profile(&g, &[("x", Tensor::ones(vec![1, 16]))]).unwrap();
        g.insert_after(r, "ranger", Op::Clamp { lo: 0.0, hi: 1.0 })
            .unwrap();
        let protected = profile(&g, &[("x", Tensor::ones(vec![1, 16]))]).unwrap();
        assert_eq!(protected.total - baseline.total, 2 * 16);
        let clamp_only = protected.total_for(&g, |op| matches!(op, Op::Clamp { .. }));
        assert_eq!(clamp_only, 32);
    }

    #[test]
    fn shape_free_ops_are_not_charged() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let c = b.conv2d(x, 1, 2, 3, 1, Padding::Same, &mut rng);
        let f = b.flatten(c);
        let _ = b.identity(f, "out");
        let g = b.into_graph();
        let report = profile(&g, &[("x", Tensor::ones(vec![1, 1, 4, 4]))]).unwrap();
        let flatten_flops: u64 = report
            .per_node
            .iter()
            .filter(|(n, _)| n.contains("Flatten") || n == "out")
            .map(|(_, f)| *f)
            .sum();
        assert_eq!(flatten_flops, 0);
    }
}
