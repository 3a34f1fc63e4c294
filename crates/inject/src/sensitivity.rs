//! Bit-position sensitivity analysis.
//!
//! Section III-B of the paper argues that DNN computations are approximately monotone, so
//! critical faults cluster in the high-order bits: a flip in a high-order bit causes a
//! large value deviation at the fault site and therefore a large deviation at the output,
//! while low-order-bit flips are masked by the network's inherent resilience. This module
//! measures that relationship directly — the per-bit SDC rate — which both validates the
//! monotonicity assumption behind Ranger and shows how range restriction "transfers"
//! faults from the high-order bits to the harmless low-order ones.

use crate::campaign::{CampaignConfig, CampaignError, PreparedCampaign};
use crate::fault::FaultModel;
use crate::injector::{FaultInjector, PlannedFlip};
use crate::judge::SdcJudge;
use crate::InjectionTarget;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ranger_graph::BackendKind;
use ranger_tensor::stats::Proportion;
use ranger_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Per-bit-position SDC statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BitSensitivity {
    /// One entry per bit position (index 0 = least significant bit): the SDC proportion
    /// observed when flipping exactly that bit at random fault sites.
    pub per_bit: Vec<Proportion>,
}

impl BitSensitivity {
    /// The SDC rate of the most significant non-sign bit.
    pub fn high_order_rate(&self) -> f64 {
        self.per_bit
            .len()
            .checked_sub(2)
            .and_then(|i| self.per_bit.get(i))
            .map(|p| p.rate())
            .unwrap_or(0.0)
    }

    /// The SDC rate of the least significant bit.
    pub fn low_order_rate(&self) -> f64 {
        self.per_bit.first().map(|p| p.rate()).unwrap_or(0.0)
    }

    /// Returns `true` if the per-bit SDC rates are approximately non-decreasing with bit
    /// significance (ignoring the sign bit), i.e. the monotone clustering of critical
    /// faults in high-order bits that the paper describes. `slack` absorbs sampling noise.
    pub fn is_approximately_monotone(&self, slack: f64) -> bool {
        if self.per_bit.len() < 2 {
            return true;
        }
        // Exclude the sign bit (the last position): its effect depends on magnitude only.
        let rates: Vec<f64> = self.per_bit[..self.per_bit.len() - 1]
            .iter()
            .map(|p| p.rate())
            .collect();
        let mut running_max = 0.0f64;
        for &r in &rates {
            if r + slack < running_max {
                return false;
            }
            running_max = running_max.max(r);
        }
        true
    }
}

/// Measures the SDC rate per flipped bit position: for every bit of the datatype, injects
/// `trials_per_bit` faults (each at an independently chosen random site) flipping exactly
/// that bit, and judges the outcomes against the fault-free output using the first
/// category of `judge`.
///
/// Sites are drawn bit-major from one generator seeded with `seed`, weighted by the
/// input's injection space. Every trial runs through the campaign's trial function: a
/// fault cone from the input's golden pass on the `f32` reference backend, which equals a
/// full faulty pass bit for bit.
///
/// # Errors
///
/// Returns a [`CampaignError`] if the golden pass or any trial fails.
pub fn bit_sensitivity(
    target: &InjectionTarget<'_>,
    input: &Tensor,
    judge: &dyn SdcJudge,
    fault: FaultModel,
    trials_per_bit: usize,
    seed: u64,
) -> Result<BitSensitivity, CampaignError> {
    // The campaign supplies the plan, the golden pass, the space and the trial function;
    // its own per-trial draws are never made, so its seed and trial count stay at values
    // that merely validate (`seed` may exceed what a campaign config accepts).
    let config = CampaignConfig {
        trials: 1,
        batch: 1,
        workers: 1,
        backend: BackendKind::F32,
        fault,
        seed: 0,
        tile: 0,
    };
    let campaign = PreparedCampaign::new(target, std::slice::from_ref(input), judge, &config)?;
    let space = campaign.space(0);
    let mut values = campaign.buffers();
    let mut sites = Vec::with_capacity(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let width = fault.datatype.bit_width();
    let mut per_bit = Vec::with_capacity(width as usize);
    for bit in 0..width {
        let mut sdcs = 0u64;
        for _ in 0..trials_per_bit {
            let plan = vec![PlannedFlip {
                site: space.sample(&mut rng),
                bit,
            }];
            let mut injector = FaultInjector::with_plan(fault, plan);
            let trial = campaign.run_trial(&mut values, 0, &mut injector, &mut sites)?;
            sdcs += u64::from(trial.sdc[0]);
        }
        per_bit.push(Proportion::new(sdcs, trials_per_bit as u64));
    }
    Ok(BitSensitivity { per_bit })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::judge::ClassifierJudge;
    use crate::space::InjectionSpace;
    use ranger_graph::GraphBuilder;

    fn toy_classifier() -> (ranger_graph::Graph, ranger_graph::NodeId) {
        let mut rng = StdRng::seed_from_u64(8);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let h = b.dense(x, 6, 16, &mut rng);
        let h = b.relu(h);
        let y = b.dense(h, 16, 4, &mut rng);
        let probs = b.softmax(y);
        (b.into_graph(), probs)
    }

    /// `graph` with every ReLU clamped to a generous bound.
    fn clamped(graph: &ranger_graph::Graph) -> ranger_graph::Graph {
        let mut protected = graph.clone();
        let relus: Vec<_> = protected
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, ranger_graph::Op::Relu))
            .map(|n| n.id)
            .collect();
        for id in relus {
            protected
                .insert_after(id, "ranger", ranger_graph::Op::Clamp { lo: 0.0, hi: 20.0 })
                .unwrap();
        }
        protected
    }

    /// The per-bit table computed the long way: one full pass on a fresh store per
    /// trial, sites drawn bit-major from one `seed`-keyed generator over the reference
    /// space.
    fn full_pass_sensitivity(
        target: &InjectionTarget<'_>,
        input: &Tensor,
        judge: &dyn SdcJudge,
        fault: FaultModel,
        trials_per_bit: usize,
        seed: u64,
    ) -> Vec<Proportion> {
        let plan = target.graph.compile().unwrap();
        let feeds = [(target.input_name, input.clone())];
        let golden = plan.run_simple(&feeds, target.output).unwrap();
        let space = InjectionSpace::build(target, input).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..fault.datatype.bit_width())
            .map(|bit| {
                let mut sdcs = 0u64;
                for _ in 0..trials_per_bit {
                    let flips = vec![PlannedFlip {
                        site: space.sample(&mut rng),
                        bit,
                    }];
                    let mut injector = FaultInjector::with_plan(fault, flips);
                    let values = plan.run(&feeds, &mut injector).unwrap();
                    let faulty = values.get(target.output).unwrap();
                    sdcs += u64::from(judge.judge(&golden, faulty)[0]);
                }
                Proportion::new(sdcs, trials_per_bit as u64)
            })
            .collect()
    }

    /// The cone-backed table equals the full-pass reference bit for bit, for every bit,
    /// on the unprotected and the clamped graph, including a seed no campaign config
    /// accepts.
    #[test]
    fn bit_sensitivity_matches_full_pass_reference_for_every_bit() {
        let (graph, probs) = toy_classifier();
        let protected = clamped(&graph);
        let input = Tensor::filled(vec![1, 6], 0.8);
        let judge = ClassifierJudge::top1();
        let fault = FaultModel::single_bit_fixed32();
        for (name, graph) in [("unprotected", &graph), ("clamped", &protected)] {
            let target = InjectionTarget {
                graph,
                input_name: "x",
                output: probs,
                excluded: &[],
            };
            for seed in [5, u64::MAX - 2] {
                let table = bit_sensitivity(&target, &input, &judge, fault, 12, seed).unwrap();
                assert_eq!(
                    table.per_bit,
                    full_pass_sensitivity(&target, &input, &judge, fault, 12, seed),
                    "{name}, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn high_order_bits_cause_more_sdcs_than_low_order_bits() {
        let (graph, probs) = toy_classifier();
        let target = InjectionTarget {
            graph: &graph,
            input_name: "x",
            output: probs,
            excluded: &[],
        };
        let input = Tensor::filled(vec![1, 6], 0.8);
        let judge = ClassifierJudge::top1();
        let sensitivity = bit_sensitivity(
            &target,
            &input,
            &judge,
            FaultModel::single_bit_fixed32(),
            40,
            3,
        )
        .unwrap();
        assert_eq!(sensitivity.per_bit.len(), 32);
        assert!(
            sensitivity.high_order_rate() >= sensitivity.low_order_rate(),
            "high-order flips must be at least as damaging ({} vs {})",
            sensitivity.high_order_rate(),
            sensitivity.low_order_rate()
        );
        assert!(
            sensitivity.high_order_rate() > 0.0,
            "high-order flips should cause some SDCs"
        );
        assert!(
            sensitivity.low_order_rate() < 0.2,
            "low-order flips should be mostly benign"
        );
    }

    #[test]
    fn range_restriction_suppresses_high_order_bit_sdcs() {
        let (graph, probs) = toy_classifier();
        let input = Tensor::filled(vec![1, 6], 0.8);
        let judge = ClassifierJudge::top1();
        let fault = FaultModel::single_bit_fixed32();

        let unprotected = {
            let target = InjectionTarget {
                graph: &graph,
                input_name: "x",
                output: probs,
                excluded: &[],
            };
            bit_sensitivity(&target, &input, &judge, fault, 30, 5).unwrap()
        };
        let protected = clamped(&graph);
        let with_ranger = {
            let target = InjectionTarget {
                graph: &protected,
                input_name: "x",
                output: probs,
                excluded: &[],
            };
            bit_sensitivity(&target, &input, &judge, fault, 30, 5).unwrap()
        };
        // The protected graph has a slightly different (larger) injection space, so the
        // comparison is statistical: averaged over the high-order bits, range restriction
        // must not make things worse beyond sampling noise.
        let high_bits = 24..31;
        let mean_high = |s: &BitSensitivity| {
            let rates: Vec<f64> = high_bits.clone().map(|b| s.per_bit[b].rate()).collect();
            rates.iter().sum::<f64>() / rates.len() as f64
        };
        assert!(
            mean_high(&with_ranger) <= mean_high(&unprotected) + 0.15,
            "range restriction must not make high-order flips worse: {} vs {}",
            mean_high(&with_ranger),
            mean_high(&unprotected)
        );
    }

    #[test]
    fn monotonicity_helper_detects_violations() {
        let monotone = BitSensitivity {
            per_bit: vec![
                Proportion::new(0, 10),
                Proportion::new(2, 10),
                Proportion::new(5, 10),
                Proportion::new(9, 10),
                Proportion::new(3, 10), // sign bit: ignored
            ],
        };
        assert!(monotone.is_approximately_monotone(0.05));
        let broken = BitSensitivity {
            per_bit: vec![
                Proportion::new(9, 10),
                Proportion::new(0, 10),
                Proportion::new(0, 10),
            ],
        };
        assert!(!broken.is_approximately_monotone(0.05));
        assert!(BitSensitivity { per_bit: vec![] }.is_approximately_monotone(0.0));
    }
}
