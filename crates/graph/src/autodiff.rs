//! Reverse-mode automatic differentiation, losses and optimizers.
//!
//! The benchmark models are trained from scratch on the synthetic datasets, so the graph
//! needs gradients. [`backward`] walks the graph in reverse topological order from an
//! output node, seeding the chain rule with a user-supplied gradient (typically the
//! gradient of a loss with respect to the logits or the regression output, produced by
//! [`softmax_cross_entropy`] or [`mse_loss`]).

use crate::error::GraphError;
use crate::exec::Values;
use crate::graph::{Graph, NodeId};
use crate::op::Op;
use crate::ops;
use ranger_tensor::Tensor;
use std::collections::HashMap;

/// Gradients of a scalar loss with respect to node outputs, keyed by node id.
#[derive(Debug, Default, Clone)]
pub struct Gradients {
    grads: HashMap<NodeId, Tensor>,
}

impl Gradients {
    /// Returns the gradient for `id`, if that node influenced the differentiated output.
    pub fn get(&self, id: NodeId) -> Option<&Tensor> {
        self.grads.get(&id)
    }

    /// Number of nodes with a recorded gradient.
    pub fn len(&self) -> usize {
        self.grads.len()
    }

    /// Returns `true` if no gradients were recorded.
    pub fn is_empty(&self) -> bool {
        self.grads.is_empty()
    }

    fn accumulate(&mut self, id: NodeId, grad: Tensor) -> Result<(), GraphError> {
        match self.grads.get_mut(&id) {
            Some(existing) => {
                *existing = existing.add(&grad)?;
            }
            None => {
                self.grads.insert(id, grad);
            }
        }
        Ok(())
    }
}

/// Computes gradients of a scalar function of `output` with respect to every node that
/// feeds it, starting from `seed = d(loss)/d(output)`.
///
/// # Errors
///
/// Returns [`GraphError::UnsupportedBackward`] if the graph contains an operator without a
/// backward rule on the differentiated path, or other [`GraphError`]s on malformed graphs.
pub fn backward(
    graph: &Graph,
    values: &Values,
    output: NodeId,
    seed: &Tensor,
) -> Result<Gradients, GraphError> {
    let mut grads = Gradients::default();
    grads.accumulate(output, seed.clone())?;

    let order = graph.topological_order()?;
    for &id in order.iter().rev() {
        let Some(grad_out) = grads.get(id).cloned() else {
            continue;
        };
        let node = graph.node(id)?;
        match &node.op {
            Op::Input | Op::Const => {}
            Op::Conv2d { stride, padding } => {
                let x = values.get(node.inputs[0])?;
                let w = values.get(node.inputs[1])?;
                let (gx, gw) = ops::conv2d_backward(id, x, w, &grad_out, *stride, *padding)?;
                grads.accumulate(node.inputs[0], gx)?;
                grads.accumulate(node.inputs[1], gw)?;
            }
            Op::MatMul => {
                let x = values.get(node.inputs[0])?;
                let w = values.get(node.inputs[1])?;
                let (gx, gw) = ops::matmul_backward(id, x, w, &grad_out)?;
                grads.accumulate(node.inputs[0], gx)?;
                grads.accumulate(node.inputs[1], gw)?;
            }
            Op::BiasAdd => {
                let x = values.get(node.inputs[0])?;
                let b = values.get(node.inputs[1])?;
                let (gx, gb) = ops::bias_add_backward(id, x, b, &grad_out)?;
                grads.accumulate(node.inputs[0], gx)?;
                grads.accumulate(node.inputs[1], gb)?;
            }
            Op::Relu => {
                let x = values.get(node.inputs[0])?;
                grads.accumulate(node.inputs[0], ops::relu_backward(x, &grad_out)?)?;
            }
            Op::Tanh => {
                let x = values.get(node.inputs[0])?;
                grads.accumulate(node.inputs[0], ops::tanh_backward(x, &grad_out)?)?;
            }
            Op::Sigmoid => {
                let x = values.get(node.inputs[0])?;
                grads.accumulate(node.inputs[0], ops::sigmoid_backward(x, &grad_out)?)?;
            }
            Op::Atan => {
                let x = values.get(node.inputs[0])?;
                grads.accumulate(node.inputs[0], ops::atan_backward(x, &grad_out)?)?;
            }
            Op::Elu => {
                let x = values.get(node.inputs[0])?;
                grads.accumulate(node.inputs[0], ops::elu_backward(x, &grad_out)?)?;
            }
            Op::Softmax => {
                let y = values.get(id)?;
                grads.accumulate(node.inputs[0], ops::softmax_backward(id, y, &grad_out)?)?;
            }
            Op::MaxPool { kernel, stride } => {
                let x = values.get(node.inputs[0])?;
                grads.accumulate(
                    node.inputs[0],
                    ops::max_pool_backward(id, x, &grad_out, *kernel, *stride)?,
                )?;
            }
            Op::AvgPool { kernel, stride } => {
                let x = values.get(node.inputs[0])?;
                grads.accumulate(
                    node.inputs[0],
                    ops::avg_pool_backward(id, x, &grad_out, *kernel, *stride)?,
                )?;
            }
            Op::GlobalAvgPool => {
                let x = values.get(node.inputs[0])?;
                grads.accumulate(
                    node.inputs[0],
                    ops::global_avg_pool_backward(id, x, &grad_out)?,
                )?;
            }
            Op::Flatten | Op::Reshape { .. } => {
                let x = values.get(node.inputs[0])?;
                grads.accumulate(node.inputs[0], ops::reshape_backward(id, x, &grad_out)?)?;
            }
            Op::Concat => {
                let inputs: Vec<&Tensor> = node
                    .inputs
                    .iter()
                    .map(|&i| values.get(i))
                    .collect::<Result<_, _>>()?;
                let gs = ops::concat_backward(id, &inputs, &grad_out)?;
                for (&input, g) in node.inputs.iter().zip(gs) {
                    grads.accumulate(input, g)?;
                }
            }
            Op::Add => {
                grads.accumulate(node.inputs[0], grad_out.clone())?;
                grads.accumulate(node.inputs[1], grad_out)?;
            }
            Op::Mul => {
                let a = values.get(node.inputs[0])?;
                let b = values.get(node.inputs[1])?;
                grads.accumulate(node.inputs[0], grad_out.mul(b)?)?;
                grads.accumulate(node.inputs[1], grad_out.mul(a)?)?;
            }
            Op::ScalarMul { factor } => {
                grads.accumulate(node.inputs[0], grad_out.scale(*factor))?;
            }
            Op::Identity => {
                grads.accumulate(node.inputs[0], grad_out)?;
            }
            Op::Clamp { lo, hi } | Op::RangeRestore { lo, hi, .. } => {
                let x = values.get(node.inputs[0])?;
                grads.accumulate(node.inputs[0], ops::clamp_backward(x, &grad_out, *lo, *hi)?)?;
            }
        }
    }
    Ok(grads)
}

/// Softmax cross-entropy loss computed directly from logits.
///
/// Returns the mean loss over the batch and the gradient with respect to the logits
/// (`softmax(logits) - onehot(labels)`, scaled by `1/batch`), which seeds [`backward`].
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] if `logits` is not rank 2 or a label is out of
/// range.
pub fn softmax_cross_entropy(
    logits: &Tensor,
    labels: &[usize],
) -> Result<(f32, Tensor), GraphError> {
    let dims = logits.dims();
    if dims.len() != 2 || dims[0] != labels.len() {
        return Err(GraphError::ShapeError {
            node: NodeId::new(usize::MAX),
            message: format!(
                "softmax cross entropy expects (batch, classes) logits matching {} labels, got {dims:?}",
                labels.len()
            ),
        });
    }
    let (n, classes) = (dims[0], dims[1]);
    let probs = ops::softmax_forward(NodeId::new(usize::MAX), logits)?;
    let mut grad = probs.clone();
    let mut loss = 0.0f32;
    for (i, &label) in labels.iter().enumerate() {
        if label >= classes {
            return Err(GraphError::ShapeError {
                node: NodeId::new(usize::MAX),
                message: format!("label {label} out of range for {classes} classes"),
            });
        }
        let p = probs.data()[i * classes + label].max(1e-12);
        loss -= p.ln();
        grad.data_mut()[i * classes + label] -= 1.0;
    }
    let scale = 1.0 / n as f32;
    Ok((loss * scale, grad.scale(scale)))
}

/// Mean-squared-error loss for regression outputs.
///
/// Returns the mean loss and the gradient with respect to the predictions.
///
/// # Errors
///
/// Returns a [`GraphError::ShapeError`] if the shapes differ.
pub fn mse_loss(predictions: &Tensor, targets: &Tensor) -> Result<(f32, Tensor), GraphError> {
    let diff = predictions
        .sub(targets)
        .map_err(|e| GraphError::ShapeError {
            node: NodeId::new(usize::MAX),
            message: e.to_string(),
        })?;
    let n = diff.len().max(1) as f32;
    let loss = diff.data().iter().map(|d| d * d).sum::<f32>() / n;
    let grad = diff.scale(2.0 / n);
    Ok((loss, grad))
}

/// Stochastic gradient descent with momentum over the trainable constants of a graph.
#[derive(Debug, Clone)]
pub struct SgdOptimizer {
    learning_rate: f32,
    momentum: f32,
    weight_decay: f32,
    clip_norm: Option<f32>,
    velocity: HashMap<NodeId, Tensor>,
}

impl SgdOptimizer {
    /// Creates an optimizer with the given learning rate, momentum and L2 weight decay.
    pub fn new(learning_rate: f32, momentum: f32, weight_decay: f32) -> Self {
        SgdOptimizer {
            learning_rate,
            momentum,
            weight_decay,
            clip_norm: None,
            velocity: HashMap::new(),
        }
    }

    /// Enables global gradient-norm clipping: if the L2 norm of the whole gradient exceeds
    /// `max_norm`, every gradient is scaled down proportionally. Clipping keeps the deeper
    /// benchmark models and the steering regressors from diverging at the start of
    /// training.
    pub fn with_clip_norm(mut self, max_norm: f32) -> Self {
        self.clip_norm = Some(max_norm);
        self
    }

    /// Returns the configured learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.learning_rate
    }

    /// Sets the learning rate (for schedules).
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.learning_rate = lr;
    }

    /// Applies one update step to every trainable constant with a gradient.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if a parameter's gradient has a mismatched shape.
    pub fn step(&mut self, graph: &mut Graph, grads: &Gradients) -> Result<(), GraphError> {
        // Global gradient-norm clipping across every trainable parameter.
        let clip_scale = match self.clip_norm {
            Some(max_norm) => {
                let total: f32 = graph
                    .trainable_nodes()
                    .iter()
                    .filter_map(|&id| grads.get(id))
                    .map(|g| g.data().iter().map(|v| v * v).sum::<f32>())
                    .sum();
                let norm = total.sqrt();
                if norm.is_finite() && norm > max_norm {
                    max_norm / norm
                } else if !norm.is_finite() {
                    // A non-finite gradient would destroy the weights; skip the update.
                    0.0
                } else {
                    1.0
                }
            }
            None => 1.0,
        };
        if clip_scale == 0.0 {
            // The whole gradient was non-finite; scaling it would still poison the
            // weights (0 · NaN = NaN), so skip this update entirely.
            return Ok(());
        }
        for id in graph.trainable_nodes() {
            let Some(grad) = grads.get(id) else { continue };
            let grad = &grad.scale(clip_scale);
            let node = graph.node_mut(id)?;
            let value = node
                .value
                .as_ref()
                .ok_or(GraphError::MissingConstValue(id))?;
            let mut update = grad.clone();
            if self.weight_decay > 0.0 {
                update = update.add(&value.scale(self.weight_decay))?;
            }
            if self.momentum > 0.0 {
                let velocity = self
                    .velocity
                    .entry(id)
                    .or_insert_with(|| Tensor::zeros(value.dims().to_vec()));
                *velocity = velocity.scale(self.momentum).add(&update)?;
                update = velocity.clone();
            }
            let new_value = value.sub(&update.scale(self.learning_rate))?;
            node.value = Some(new_value);
        }
        Ok(())
    }
}

/// The Adam optimizer over the trainable constants of a graph.
///
/// Adam adapts the step size per parameter from running estimates of the first and second
/// gradient moments; it is less sensitive to the learning rate than SGD and is used by the
/// deeper benchmark replicas when experimenting with alternative training recipes.
#[derive(Debug, Clone)]
pub struct AdamOptimizer {
    learning_rate: f32,
    beta1: f32,
    beta2: f32,
    epsilon: f32,
    step_count: u64,
    first_moment: HashMap<NodeId, Tensor>,
    second_moment: HashMap<NodeId, Tensor>,
}

impl AdamOptimizer {
    /// Creates an Adam optimizer with the given learning rate and the conventional
    /// defaults `beta1 = 0.9`, `beta2 = 0.999`, `epsilon = 1e-8`.
    pub fn new(learning_rate: f32) -> Self {
        AdamOptimizer {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            step_count: 0,
            first_moment: HashMap::new(),
            second_moment: HashMap::new(),
        }
    }

    /// Overrides the moment-decay coefficients.
    pub fn with_betas(mut self, beta1: f32, beta2: f32) -> Self {
        self.beta1 = beta1;
        self.beta2 = beta2;
        self
    }

    /// Returns the configured learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.learning_rate
    }

    /// Applies one Adam update to every trainable constant with a gradient.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if a parameter's gradient has a mismatched shape.
    pub fn step(&mut self, graph: &mut Graph, grads: &Gradients) -> Result<(), GraphError> {
        self.step_count += 1;
        let t = self.step_count as f32;
        let bias1 = 1.0 - self.beta1.powf(t);
        let bias2 = 1.0 - self.beta2.powf(t);
        for id in graph.trainable_nodes() {
            let Some(grad) = grads.get(id) else { continue };
            if grad.has_non_finite() {
                continue;
            }
            let node = graph.node_mut(id)?;
            let value = node
                .value
                .as_ref()
                .ok_or(GraphError::MissingConstValue(id))?;
            let m = self
                .first_moment
                .entry(id)
                .or_insert_with(|| Tensor::zeros(value.dims().to_vec()));
            *m = m.scale(self.beta1).add(&grad.scale(1.0 - self.beta1))?;
            let v = self
                .second_moment
                .entry(id)
                .or_insert_with(|| Tensor::zeros(value.dims().to_vec()));
            *v = v
                .scale(self.beta2)
                .add(&grad.mul(grad)?.scale(1.0 - self.beta2))?;
            let m_hat = m.scale(1.0 / bias1);
            let v_hat = v.scale(1.0 / bias2);
            let update = m_hat.zip_map(&v_hat, |mi, vi| mi / (vi.sqrt() + self.epsilon))?;
            node.value = Some(value.sub(&update.scale(self.learning_rate))?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::exec::NoopInterceptor;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn gradient_of_linear_layer_matches_closed_form() {
        // y = x W; loss = sum(y). dL/dW = x^T 1, dL/dx = 1 W^T.
        let mut g = Graph::new();
        let x = g.add_input("x");
        let w = g.add_const(
            "w",
            Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap(),
            true,
        );
        let y = g.add_node("y", Op::MatMul, vec![x, w]);
        let plan = g.compile().unwrap();
        let xin = Tensor::from_vec(vec![1, 2], vec![5.0, 7.0]).unwrap();
        let values = plan.run(&[("x", xin)], &mut NoopInterceptor).unwrap();
        let seed = Tensor::ones(vec![1, 2]);
        let grads = backward(&g, &values, y, &seed).unwrap();
        assert_eq!(grads.get(w).unwrap().data(), &[5.0, 5.0, 7.0, 7.0]);
        assert_eq!(grads.get(x).unwrap().data(), &[3.0, 7.0]);
    }

    #[test]
    fn gradients_accumulate_across_multiple_consumers() {
        // y = x + x (through two paths): dL/dx must be 2.
        let mut g = Graph::new();
        let x = g.add_input("x");
        let id1 = g.add_node("a", Op::Identity, vec![x]);
        let id2 = g.add_node("b", Op::Identity, vec![x]);
        let sum = g.add_node("sum", Op::Add, vec![id1, id2]);
        let plan = g.compile().unwrap();
        let values = plan
            .run(&[("x", Tensor::ones(vec![1, 3]))], &mut NoopInterceptor)
            .unwrap();
        let grads = backward(&g, &values, sum, &Tensor::ones(vec![1, 3])).unwrap();
        assert_eq!(grads.get(x).unwrap().data(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn softmax_cross_entropy_gradient_is_probs_minus_onehot() {
        let logits = Tensor::from_vec(vec![1, 3], vec![2.0, 1.0, 0.1]).unwrap();
        let (loss, grad) = softmax_cross_entropy(&logits, &[0]).unwrap();
        assert!(loss > 0.0);
        // Gradient for the true class must be negative, others positive, summing to ~0.
        assert!(grad.data()[0] < 0.0);
        assert!(grad.data()[1] > 0.0 && grad.data()[2] > 0.0);
        assert!(grad.sum().abs() < 1e-6);
        assert!(softmax_cross_entropy(&logits, &[5]).is_err());
        assert!(softmax_cross_entropy(&logits, &[0, 1]).is_err());
    }

    #[test]
    fn mse_loss_and_gradient() {
        let pred = Tensor::from_vec(vec![2, 1], vec![1.0, 3.0]).unwrap();
        let target = Tensor::from_vec(vec![2, 1], vec![0.0, 0.0]).unwrap();
        let (loss, grad) = mse_loss(&pred, &target).unwrap();
        assert!((loss - 5.0).abs() < 1e-6);
        assert_eq!(grad.data(), &[1.0, 3.0]);
    }

    #[test]
    fn sgd_reduces_loss_on_a_small_regression_problem() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let h = b.dense(x, 2, 8, &mut rng);
        let h = b.relu(h);
        let y = b.dense(h, 8, 1, &mut rng);
        let mut graph = b.into_graph();

        // Learn y = x0 + x1 on a fixed batch.
        let inputs =
            Tensor::from_vec(vec![4, 2], vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]).unwrap();
        let targets = Tensor::from_vec(vec![4, 1], vec![0.0, 1.0, 1.0, 2.0]).unwrap();

        let mut opt = SgdOptimizer::new(0.05, 0.9, 0.0);
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..200 {
            let values = graph
                .compile()
                .unwrap()
                .run(&[("x", inputs.clone())], &mut NoopInterceptor)
                .unwrap();
            let pred = values.get(y).unwrap();
            let (loss, grad) = mse_loss(pred, &targets).unwrap();
            first_loss.get_or_insert(loss);
            last_loss = loss;
            let grads = backward(&graph, &values, y, &grad).unwrap();
            opt.step(&mut graph, &grads).unwrap();
        }
        assert!(
            last_loss < first_loss.unwrap() * 0.05,
            "training should reduce the loss substantially: {} -> {last_loss}",
            first_loss.unwrap()
        );
    }

    #[test]
    fn adam_reduces_loss_on_a_small_regression_problem() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let h = b.dense(x, 2, 8, &mut rng);
        let h = b.relu(h);
        let y = b.dense(h, 8, 1, &mut rng);
        let mut graph = b.into_graph();
        let inputs =
            Tensor::from_vec(vec![4, 2], vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]).unwrap();
        let targets = Tensor::from_vec(vec![4, 1], vec![0.0, 1.0, 1.0, 2.0]).unwrap();
        let mut opt = AdamOptimizer::new(0.02).with_betas(0.9, 0.999);
        assert!((opt.learning_rate() - 0.02).abs() < 1e-9);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..150 {
            let values = graph
                .compile()
                .unwrap()
                .run(&[("x", inputs.clone())], &mut NoopInterceptor)
                .unwrap();
            let (loss, grad) = mse_loss(values.get(y).unwrap(), &targets).unwrap();
            first.get_or_insert(loss);
            last = loss;
            let grads = backward(&graph, &values, y, &grad).unwrap();
            opt.step(&mut graph, &grads).unwrap();
        }
        assert!(
            last < first.unwrap() * 0.1,
            "Adam should fit the toy problem: {} -> {last}",
            first.unwrap()
        );
    }

    #[test]
    fn adam_skips_non_finite_gradients() {
        let mut g = Graph::new();
        let _x = g.add_input("x");
        let w = g.add_const("w", Tensor::from_vec(vec![1], vec![2.0]).unwrap(), true);
        let mut grads = Gradients::default();
        grads
            .accumulate(w, Tensor::from_vec(vec![1], vec![f32::INFINITY]).unwrap())
            .unwrap();
        let mut opt = AdamOptimizer::new(0.1);
        opt.step(&mut g, &grads).unwrap();
        assert_eq!(g.node(w).unwrap().value.as_ref().unwrap().data()[0], 2.0);
    }

    #[test]
    fn gradient_clipping_bounds_the_update_and_skips_non_finite_gradients() {
        let mut g = Graph::new();
        let x = g.add_input("x");
        let w = g.add_const("w", Tensor::from_vec(vec![1, 1], vec![1.0]).unwrap(), true);
        let y = g.add_node("y", Op::MatMul, vec![x, w]);
        let plan = g.compile().unwrap();
        let values = plan
            .run(
                &[("x", Tensor::from_vec(vec![1, 1], vec![1000.0]).unwrap())],
                &mut NoopInterceptor,
            )
            .unwrap();
        // Huge seed gradient -> huge parameter gradient; clipping must bound the step.
        let grads = backward(
            &g,
            &values,
            y,
            &Tensor::from_vec(vec![1, 1], vec![1000.0]).unwrap(),
        )
        .unwrap();
        let mut clipped = SgdOptimizer::new(1.0, 0.0, 0.0).with_clip_norm(1.0);
        let mut graph_clipped = g.clone();
        clipped.step(&mut graph_clipped, &grads).unwrap();
        let updated = graph_clipped
            .node(w)
            .unwrap()
            .value
            .as_ref()
            .unwrap()
            .data()[0];
        assert!(
            (updated - 0.0).abs() < 1e-3,
            "clipped update should move by about the clip norm, got {updated}"
        );

        // A NaN gradient must not touch the weights when clipping is enabled.
        let mut nan_grads = Gradients::default();
        nan_grads
            .accumulate(w, Tensor::from_vec(vec![1, 1], vec![f32::NAN]).unwrap())
            .unwrap();
        let mut graph_nan = g.clone();
        let mut opt = SgdOptimizer::new(0.1, 0.0, 0.0).with_clip_norm(1.0);
        opt.step(&mut graph_nan, &nan_grads).unwrap();
        assert_eq!(
            graph_nan.node(w).unwrap().value.as_ref().unwrap().data()[0],
            1.0
        );
    }

    #[test]
    fn backward_through_clamp_masks_out_of_range() {
        let mut g = Graph::new();
        let x = g.add_input("x");
        let c = g.add_node("clamp", Op::Clamp { lo: 0.0, hi: 1.0 }, vec![x]);
        let plan = g.compile().unwrap();
        let values = plan
            .run(
                &[(
                    "x",
                    Tensor::from_vec(vec![1, 3], vec![-1.0, 0.5, 2.0]).unwrap(),
                )],
                &mut NoopInterceptor,
            )
            .unwrap();
        let grads = backward(&g, &values, c, &Tensor::ones(vec![1, 3])).unwrap();
        assert_eq!(grads.get(x).unwrap().data(), &[0.0, 1.0, 0.0]);
    }
}
