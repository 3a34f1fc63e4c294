//! Step 1 of Ranger: deriving restriction bounds by profiling activation values.
//!
//! The paper derives each ACT operation's restriction bound from a randomly-sampled subset
//! of the training data (20% is enough in their study; Fig. 4 shows the observed maxima
//! converge quickly with the number of samples). Functions with inherent bounds (Tanh,
//! Sigmoid) do not need profiling. The restriction bound can conservatively be the maximum
//! observed value (the paper's default) or a lower percentile of the observed values to
//! trade accuracy for additional resilience (Section VI-A).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ranger_graph::exec::Interceptor;
use ranger_graph::{Graph, GraphError, Node, NodeId};
use ranger_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Configuration of the bound-profiling step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundsConfig {
    /// The percentile (0–100] of observed activation values used as the upper restriction
    /// bound. `100.0` (the default) uses the maximum observed value, the paper's
    /// conservative choice that preserves accuracy; lower percentiles trade accuracy for
    /// resilience (Section VI-A).
    pub percentile: f64,
    /// Size of the per-activation reservoir used for percentile estimation. The maximum is
    /// always tracked exactly; the reservoir only matters for percentiles below 100.
    pub reservoir: usize,
    /// Seed for reservoir sampling.
    pub seed: u64,
}

impl Default for BoundsConfig {
    fn default() -> Self {
        BoundsConfig {
            percentile: 100.0,
            reservoir: 4096,
            seed: 0,
        }
    }
}

impl BoundsConfig {
    /// A configuration using the given percentile of observed values as the bound.
    pub fn with_percentile(percentile: f64) -> Self {
        BoundsConfig {
            percentile,
            ..Default::default()
        }
    }
}

/// Restriction bounds for the activation operations of a graph.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ActivationBounds {
    bounds: HashMap<NodeId, (f32, f32)>,
}

impl ActivationBounds {
    /// Creates an empty set of bounds.
    pub fn new() -> Self {
        ActivationBounds::default()
    }

    /// Returns the `(lower, upper)` restriction bound for an activation node.
    pub fn get(&self, node: NodeId) -> Option<(f32, f32)> {
        self.bounds.get(&node).copied()
    }

    /// Sets the restriction bound for an activation node.
    pub fn set(&mut self, node: NodeId, lo: f32, hi: f32) {
        self.bounds.insert(node, (lo, hi));
    }

    /// Number of activation operations with bounds.
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// Returns `true` if no bounds were derived.
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// Iterates over `(node, (lower, upper))` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, (f32, f32))> + '_ {
        self.bounds.iter().map(|(&k, &v)| (k, v))
    }

    /// Bytes needed to store the bounds at deployment time (two `f32` per ACT operation) —
    /// the memory overhead the paper reports as negligible.
    pub fn storage_bytes(&self) -> usize {
        self.bounds.len() * 2 * std::mem::size_of::<f32>()
    }
}

/// Observes activation outputs, maintaining min/max and a value reservoir per ACT node.
struct BoundProfiler {
    stats: HashMap<NodeId, LayerStats>,
    reservoir: usize,
    rng: StdRng,
}

struct LayerStats {
    min: f32,
    max: f32,
    seen: usize,
    sample: Vec<f32>,
}

impl Interceptor for BoundProfiler {
    fn after_op(&mut self, node: &Node, output: &mut Tensor) {
        if !node.op.is_activation() {
            return;
        }
        let entry = self.stats.entry(node.id).or_insert(LayerStats {
            min: f32::INFINITY,
            max: f32::NEG_INFINITY,
            seen: 0,
            sample: Vec::new(),
        });
        for &v in output.data() {
            // Non-finite activations (e.g. from a deliberately corrupted profiling run)
            // would produce meaningless bounds; ignore them.
            if !v.is_finite() {
                continue;
            }
            entry.min = entry.min.min(v);
            entry.max = entry.max.max(v);
            entry.seen += 1;
            if entry.sample.len() < self.reservoir {
                entry.sample.push(v);
            } else {
                // Reservoir sampling keeps the percentile estimate unbiased.
                let j = self.rng.gen_range(0..entry.seen);
                if j < self.reservoir {
                    entry.sample[j] = v;
                }
            }
        }
    }
}

/// Derives restriction bounds for every activation operation of `graph` by running the
/// provided profiling samples through it.
///
/// Activations with inherent bounds (Tanh, Sigmoid, Softmax) use those bounds directly;
/// unbounded activations (ReLU, ELU) use the configured percentile of the observed values.
/// The samples run in order through one compiled plan and one reused value store.
///
/// # Errors
///
/// Returns a [`GraphError`] if the graph is cyclic or a profiling forward pass fails.
pub fn profile_bounds(
    graph: &Graph,
    input_name: &str,
    samples: &[Tensor],
    config: &BoundsConfig,
) -> Result<ActivationBounds, GraphError> {
    let mut profiler = BoundProfiler {
        stats: HashMap::new(),
        reservoir: config.reservoir.max(1),
        rng: StdRng::seed_from_u64(config.seed),
    };
    let plan = graph.compile()?;
    let mut values = plan.buffers();
    for sample in samples {
        plan.run_into(&mut values, &[(input_name, sample.clone())], &mut profiler)?;
    }

    let mut bounds = ActivationBounds::new();
    for node in graph.nodes() {
        if !node.op.is_activation() {
            continue;
        }
        if let Some((lo, hi)) = node.op.inherent_bounds() {
            bounds.set(node.id, lo, hi);
            continue;
        }
        if let Some(stats) = profiler.stats.get(&node.id) {
            let hi = if config.percentile >= 100.0 {
                stats.max
            } else {
                let values: Vec<f64> = stats.sample.iter().map(|&v| v as f64).collect();
                ranger_tensor::stats::percentile(&values, config.percentile) as f32
            };
            // ReLU and ELU outputs are bounded below (0 and -1 respectively); use the
            // observed minimum which captures that without special-casing the operator.
            let lo = stats.min.min(0.0);
            // An activation whose profiled values were all non-finite yields no usable
            // bound; leave it unprotected rather than emit a degenerate clamp.
            if lo.is_finite() && hi.is_finite() && lo <= hi {
                bounds.set(node.id, lo, hi);
            }
        }
    }
    Ok(bounds)
}

/// One row of the Fig. 4 study: the per-activation maximum observed using a prefix of the
/// profiling samples, normalised to the maximum observed over all samples.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConvergencePoint {
    /// Number of profiling samples used.
    pub samples_used: usize,
    /// Per-activation normalised maxima (1.0 means the bound equals the global maximum),
    /// ordered by the activation's position in the graph.
    pub normalized_max: Vec<f64>,
}

/// Reproduces the Fig. 4 study: how quickly the observed per-activation maxima converge to
/// the global maxima as more profiling data is used.
///
/// `checkpoints` lists the sample counts at which to record the normalised maxima. The
/// samples run in order through one compiled plan and one reused value store.
///
/// # Errors
///
/// Returns a [`GraphError`] if the graph is cyclic or a profiling forward pass fails.
pub fn profile_convergence(
    graph: &Graph,
    input_name: &str,
    samples: &[Tensor],
    checkpoints: &[usize],
) -> Result<Vec<ConvergencePoint>, GraphError> {
    let plan = graph.compile()?;
    let mut values = plan.buffers();
    // Running maxima per activation node, in graph order.
    let act_nodes: Vec<NodeId> = graph
        .nodes()
        .iter()
        .filter(|n| n.op.is_activation() && n.op.inherent_bounds().is_none())
        .map(|n| n.id)
        .collect();
    let mut running: HashMap<NodeId, f32> = HashMap::new();
    let mut per_checkpoint: Vec<(usize, HashMap<NodeId, f32>)> = Vec::new();

    struct MaxObserver<'a> {
        running: &'a mut HashMap<NodeId, f32>,
    }
    impl Interceptor for MaxObserver<'_> {
        fn after_op(&mut self, node: &Node, output: &mut Tensor) {
            if node.op.is_activation() && node.op.inherent_bounds().is_none() {
                let m = self.running.entry(node.id).or_insert(f32::NEG_INFINITY);
                *m = m.max(output.max());
            }
        }
    }

    for (i, sample) in samples.iter().enumerate() {
        let mut observer = MaxObserver {
            running: &mut running,
        };
        plan.run_into(&mut values, &[(input_name, sample.clone())], &mut observer)?;
        if checkpoints.contains(&(i + 1)) {
            per_checkpoint.push((i + 1, running.clone()));
        }
    }
    let global = running;

    Ok(per_checkpoint
        .into_iter()
        .map(|(samples_used, maxima)| ConvergencePoint {
            samples_used,
            normalized_max: act_nodes
                .iter()
                .map(|id| {
                    let g = global.get(id).copied().unwrap_or(0.0) as f64;
                    let m = maxima.get(id).copied().unwrap_or(0.0) as f64;
                    if g.abs() < f64::EPSILON {
                        1.0
                    } else {
                        m / g
                    }
                })
                .collect(),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use ranger_graph::GraphBuilder;

    fn relu_net() -> (Graph, NodeId) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let h = b.dense(x, 4, 8, &mut rng);
        let relu = b.relu(h);
        let _y = b.dense(relu, 8, 2, &mut rng);
        (b.into_graph(), relu)
    }

    fn samples(n: usize, scale: f32) -> Vec<Tensor> {
        let mut rng = StdRng::seed_from_u64(9);
        (0..n)
            .map(|_| {
                Tensor::from_vec(
                    vec![1, 4],
                    (0..4).map(|_| rng.gen_range(0.0..scale)).collect(),
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn max_bound_covers_all_observed_values() {
        let (graph, relu) = relu_net();
        let data = samples(20, 1.0);
        let bounds = profile_bounds(&graph, "x", &data, &BoundsConfig::default()).unwrap();
        let (lo, hi) = bounds.get(relu).unwrap();
        assert!(lo <= 0.0);
        assert!(hi > 0.0);
        // Re-running the same samples must never exceed the derived bound.
        let plan = graph.compile().unwrap();
        for s in &data {
            let out = plan.run_simple(&[("x", s.clone())], relu).unwrap();
            assert!(out.max() <= hi + 1e-6);
        }
    }

    #[test]
    fn lower_percentile_gives_tighter_bound() {
        let (graph, relu) = relu_net();
        let data = samples(50, 2.0);
        let full = profile_bounds(&graph, "x", &data, &BoundsConfig::default()).unwrap();
        let tight =
            profile_bounds(&graph, "x", &data, &BoundsConfig::with_percentile(90.0)).unwrap();
        assert!(tight.get(relu).unwrap().1 <= full.get(relu).unwrap().1);
    }

    #[test]
    fn inherently_bounded_activations_need_no_profiling() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let h = b.dense(x, 2, 2, &mut rng);
        let t = b.tanh(h);
        let graph = b.into_graph();
        let bounds = profile_bounds(
            &graph,
            "x",
            &samples(3, 1.0 /* unused scale */),
            &BoundsConfig::default(),
        );
        // Samples have the wrong width for this graph, so profiling would fail — but Tanh
        // bounds must be available even with zero samples.
        let bounds = match bounds {
            Ok(b) => b,
            Err(_) => profile_bounds(&graph, "x", &[], &BoundsConfig::default()).unwrap(),
        };
        assert_eq!(bounds.get(t), Some((-1.0, 1.0)));
    }

    #[test]
    fn storage_overhead_is_two_floats_per_activation() {
        let (graph, _) = relu_net();
        let bounds =
            profile_bounds(&graph, "x", &samples(5, 1.0), &BoundsConfig::default()).unwrap();
        assert_eq!(bounds.storage_bytes(), bounds.len() * 8);
        assert!(!bounds.is_empty());
        assert_eq!(bounds.iter().count(), bounds.len());
    }

    #[test]
    fn convergence_is_monotone_and_reaches_one() {
        let (graph, _) = relu_net();
        let data = samples(40, 1.5);
        let points = profile_convergence(&graph, "x", &data, &[5, 20, 40]).unwrap();
        assert_eq!(points.len(), 3);
        let last = points.last().unwrap();
        assert!(last.normalized_max.iter().all(|&v| (v - 1.0).abs() < 1e-9));
        // Normalised maxima never decrease as more samples are used.
        for layer in 0..points[0].normalized_max.len() {
            for w in points.windows(2) {
                assert!(w[1].normalized_max[layer] >= w[0].normalized_max[layer] - 1e-9);
            }
        }
    }

    #[test]
    fn empty_samples_give_bounds_only_for_inherent_activations() {
        let (graph, relu) = relu_net();
        let bounds = profile_bounds(&graph, "x", &[], &BoundsConfig::default()).unwrap();
        assert_eq!(bounds.get(relu), None);
    }
}
