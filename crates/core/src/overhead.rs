//! Overhead accounting (paper Tables III and IV).
//!
//! Ranger's runtime cost is a handful of comparison operations per restricted value, so
//! the paper reports it in FLOPs (platform-independent) together with the one-time
//! instrumentation cost and the memory needed to store the restriction bounds.

use crate::bounds::ActivationBounds;
use ranger_graph::flops;
use ranger_graph::{Graph, GraphError};
use ranger_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// FLOPs of a model with and without Ranger, plus the relative overhead.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverheadReport {
    /// FLOPs of one forward pass of the unprotected model.
    pub baseline_flops: u64,
    /// FLOPs of one forward pass of the protected model.
    pub protected_flops: u64,
}

impl OverheadReport {
    /// The relative overhead `(protected - baseline) / baseline`, as a fraction.
    pub fn relative(&self) -> f64 {
        if self.baseline_flops == 0 {
            0.0
        } else {
            (self.protected_flops as f64 - self.baseline_flops as f64) / self.baseline_flops as f64
        }
    }

    /// The relative overhead as a percentage.
    pub fn percent(&self) -> f64 {
        self.relative() * 100.0
    }
}

/// Profiles the FLOPs of the unprotected and protected graphs on the same input
/// (reproducing the paper's Table IV).
///
/// # Errors
///
/// Returns a [`GraphError`] if either forward pass fails.
pub fn flops_overhead(
    baseline: &Graph,
    protected: &Graph,
    input_name: &str,
    input: &Tensor,
) -> Result<OverheadReport, GraphError> {
    let base = flops::profile(baseline, &[(input_name, input.clone())])?;
    let prot = flops::profile(protected, &[(input_name, input.clone())])?;
    Ok(OverheadReport {
        baseline_flops: base.total,
        protected_flops: prot.total,
    })
}

/// Memory overhead of deploying Ranger: the bytes needed to store the restriction bounds
/// (two `f32` per protected activation). The paper reports this as negligible relative to
/// model size (e.g. VGG16 weighs over 500 MB).
pub fn memory_overhead_bytes(bounds: &ActivationBounds) -> usize {
    bounds.storage_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{profile_bounds, BoundsConfig};
    use crate::protect::{Protector, RangerProtector};
    use rand::{rngs::StdRng, SeedableRng};
    use ranger_graph::GraphBuilder;

    #[test]
    fn ranger_overhead_is_small_relative_to_convolution_cost() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let c = b.conv2d(x, 3, 16, 3, 1, ranger_graph::op::Padding::Same, &mut rng);
        let r = b.relu(c);
        let p = b.max_pool(r, 2, 2);
        let f = b.flatten(p);
        let _y = b.dense(f, 16 * 8 * 8, 10, &mut rng);
        let graph = b.into_graph();

        let samples = vec![Tensor::ones(vec![1, 3, 16, 16])];
        let bounds = profile_bounds(&graph, "x", &samples, &BoundsConfig::default()).unwrap();
        let (protected, _) = RangerProtector::default().protect(&graph, &bounds).unwrap();

        let report = flops_overhead(&graph, &protected, "x", &samples[0]).unwrap();
        assert!(report.protected_flops > report.baseline_flops);
        assert!(
            report.percent() < 5.0,
            "range restriction must be cheap, got {:.3}%",
            report.percent()
        );
        assert!(report.relative() > 0.0);
    }

    #[test]
    fn zero_baseline_is_handled() {
        let report = OverheadReport {
            baseline_flops: 0,
            protected_flops: 10,
        };
        assert_eq!(report.relative(), 0.0);
    }

    #[test]
    fn memory_overhead_counts_bound_storage() {
        let mut bounds = ActivationBounds::new();
        bounds.set(ranger_graph::NodeId::new(1), 0.0, 1.0);
        bounds.set(ranger_graph::NodeId::new(2), 0.0, 2.0);
        assert_eq!(memory_overhead_bytes(&bounds), 16);
    }
}
