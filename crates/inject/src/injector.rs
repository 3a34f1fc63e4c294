//! The interceptor that corrupts operator outputs during a forward pass.

use crate::fault::FaultModel;
use crate::space::{InjectionSite, InjectionSpace};
use rand::Rng;
use ranger_graph::{Interceptor, Node};
use ranger_tensor::{DataType, QTensor, Tensor};

/// One planned corruption: a site plus the bit to flip there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedFlip {
    /// Where the flip strikes.
    pub site: InjectionSite,
    /// Which bit of the datatype representation is flipped (0 = least significant).
    pub bit: u32,
}

/// An [`Interceptor`] that applies a set of planned bit flips during one forward pass.
///
/// The injector holds one plan per execution, matching the paper's "at most one fault
/// occurs per program execution" assumption — a multi-bit plan is still a single
/// transient fault event. A campaign keeps one injector per chunk and draws each trial's
/// plan into it with [`FaultInjector::replan`].
#[derive(Debug, Clone)]
pub struct FaultInjector {
    fault: FaultModel,
    plan: Vec<PlannedFlip>,
    injected: Vec<PlannedFlip>,
}

impl FaultInjector {
    /// Creates an injector that applies exactly the given flips.
    pub fn with_plan(fault: FaultModel, plan: Vec<PlannedFlip>) -> Self {
        FaultInjector {
            fault,
            plan,
            injected: Vec::new(),
        }
    }

    /// Plans a random fault according to `fault`: each of the `fault.bits` flips picks an
    /// independent site in `space` and an independent bit position.
    pub fn plan_random<R: Rng + ?Sized>(
        fault: FaultModel,
        space: &InjectionSpace,
        rng: &mut R,
    ) -> Self {
        let mut injector = Self::with_plan(fault, Vec::with_capacity(fault.bits));
        injector.replan(space, rng);
        injector
    }

    /// Draws a fresh random plan in place, exactly as [`FaultInjector::plan_random`]
    /// would (the same draws in the same order), and forgets the flips applied so far.
    /// Reuses both buffers, so a campaign keeps one injector per chunk and its trials
    /// allocate no plan.
    pub fn replan<R: Rng + ?Sized>(&mut self, space: &InjectionSpace, rng: &mut R) {
        let fault = self.fault;
        self.plan.clear();
        self.plan.extend((0..fault.bits).map(|_| PlannedFlip {
            site: space.sample(rng),
            bit: rng.gen_range(0..fault.datatype.bit_width()),
        }));
        self.injected.clear();
    }

    /// The flips this injector will apply.
    pub fn plan(&self) -> &[PlannedFlip] {
        &self.plan
    }

    /// The flips that were actually applied during the last execution.
    pub fn injected(&self) -> &[PlannedFlip] {
        &self.injected
    }

    /// Returns `true` if every planned flip was applied (i.e. each targeted operator was
    /// executed and its output was large enough).
    pub fn fully_injected(&self) -> bool {
        self.injected.len() == self.plan.len()
    }
}

impl Interceptor for FaultInjector {
    fn after_op(&mut self, node: &Node, output: &mut Tensor) {
        for flip in &self.plan {
            if flip.site.node == node.id && flip.site.element < output.len() {
                let value = output.data()[flip.site.element];
                let corrupted = self.fault.datatype.flip_bit(value, flip.bit);
                output.data_mut()[flip.site.element] = corrupted;
                self.injected.push(*flip);
            }
        }
    }

    /// On a fixed-point backend whose word format matches the fault model's datatype, the
    /// planned bits flip **directly in the stored integer words** — no
    /// encode → flip → decode round trip, so the corruption is exact even for magnitudes
    /// `f32` cannot represent. A mismatched datatype (only reachable through hand-built
    /// configurations; campaigns reject the pairing up front) falls back to flipping the
    /// dequantized value under the fault's own datatype and requantizing.
    fn after_op_words(&mut self, node: &Node, output: &mut QTensor) {
        for flip in &self.plan {
            if flip.site.node == node.id && flip.site.element < output.len() {
                if self.fault.datatype == DataType::Fixed(output.spec()) {
                    output.flip_word(flip.site.element, flip.bit);
                } else {
                    let value = output.get_f32(flip.site.element);
                    let corrupted = self.fault.datatype.flip_bit(value, flip.bit);
                    output.set_from_f32(flip.site.element, corrupted);
                }
                self.injected.push(*flip);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InjectionTarget;
    use rand::{rngs::StdRng, SeedableRng};
    use ranger_graph::GraphBuilder;

    fn toy() -> (ranger_graph::Graph, ranger_graph::NodeId) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let h = b.dense(x, 3, 4, &mut rng);
        let h = b.relu(h);
        let y = b.dense(h, 4, 2, &mut rng);
        (b.into_graph(), y)
    }

    #[test]
    fn planned_flip_changes_exactly_one_value_path() {
        let (graph, y) = toy();
        let target = InjectionTarget {
            graph: &graph,
            input_name: "x",
            output: y,
            excluded: &[],
        };
        let input = Tensor::ones(vec![1, 3]);
        let plan = graph.compile().unwrap();
        let golden = plan.run_simple(&[("x", input.clone())], y).unwrap();

        let space = InjectionSpace::build(&target, &input).unwrap();
        assert!(space.total_values() > 0);
        let fault = FaultModel::single_bit_fixed32();
        // Flip a high-order bit of the final dense layer's output: the corruption cannot
        // be masked by a downstream ReLU, so the output must deviate substantially.
        let site = InjectionSite {
            node: y,
            element: 0,
        };
        let mut injector = FaultInjector::with_plan(fault, vec![PlannedFlip { site, bit: 29 }]);
        let faulty = plan
            .run(&[("x", input)], &mut injector)
            .unwrap()
            .get(y)
            .unwrap()
            .clone();
        assert!(injector.fully_injected());
        assert_eq!(injector.injected().len(), 1);
        let deviation = golden.max_abs_diff(&faulty).unwrap();
        assert!(
            deviation > 1.0,
            "high-order flip should propagate, deviation {deviation}"
        );
    }

    #[test]
    fn plan_random_respects_bit_width_and_count() {
        let (graph, y) = toy();
        let target = InjectionTarget {
            graph: &graph,
            input_name: "x",
            output: y,
            excluded: &[],
        };
        let input = Tensor::ones(vec![1, 3]);
        let space = InjectionSpace::build(&target, &input).unwrap();
        let fault = FaultModel {
            datatype: ranger_tensor::DataType::fixed16(),
            bits: 3,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let injector = FaultInjector::plan_random(fault, &space, &mut rng);
        assert_eq!(injector.plan().len(), 3);
        for flip in injector.plan() {
            assert!(flip.bit < 16);
        }
    }

    /// `replan` refills one injector with exactly the plans `plan_random` draws, from
    /// the same stream position, and forgets the previous trial's applied flips.
    #[test]
    fn replan_draws_what_plan_random_draws() {
        let (graph, y) = toy();
        let target = InjectionTarget {
            graph: &graph,
            input_name: "x",
            output: y,
            excluded: &[],
        };
        let input = Tensor::ones(vec![1, 3]);
        let space = InjectionSpace::build(&target, &input).unwrap();
        let fault = FaultModel {
            datatype: ranger_tensor::DataType::fixed16(),
            bits: 2,
        };
        let (mut fresh, mut reused) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
        let mut injector = FaultInjector::plan_random(fault, &space, &mut reused);
        assert_eq!(
            injector.plan(),
            FaultInjector::plan_random(fault, &space, &mut fresh).plan()
        );
        let plan = graph.compile().unwrap();
        plan.run(&[("x", input)], &mut injector).unwrap();
        assert!(!injector.injected().is_empty());
        for _ in 0..5 {
            injector.replan(&space, &mut reused);
            assert!(injector.injected().is_empty());
            assert_eq!(
                injector.plan(),
                FaultInjector::plan_random(fault, &space, &mut fresh).plan()
            );
        }
    }

    /// On a fixed-point backend the injector flips stored words; the lazily decoded f32
    /// mirror served by `Values::get` must always reflect the flip — over repeated
    /// passes through one arena, with mirrors decoded between passes (the campaign
    /// runner's exact read pattern).
    #[test]
    fn word_flips_dirty_the_lazy_mirror() {
        use ranger_graph::BackendKind;
        let (graph, y) = toy();
        let fault = FaultModel {
            datatype: ranger_tensor::DataType::fixed16(),
            bits: 1,
        };
        let site = InjectionSite {
            node: y,
            element: 0,
        };
        let plan = graph.compile_with(BackendKind::Fixed16.backend()).unwrap();
        let mut values = plan.buffers();
        let feeds = [("x", Tensor::ones(vec![1, 3]))];
        // Golden pass, mirror decoded.
        plan.run_into(
            &mut values,
            &feeds,
            &mut ranger_graph::exec::NoopInterceptor,
        )
        .unwrap();
        let golden = values.get(y).unwrap().clone();
        for bit in [1u32, 13] {
            let mut injector = FaultInjector::with_plan(fault, vec![PlannedFlip { site, bit }]);
            plan.run_into(&mut values, &feeds, &mut injector).unwrap();
            assert!(injector.fully_injected());
            let faulty = values.get(y).unwrap();
            assert_ne!(faulty, &golden, "bit {bit}: flip must reach the mirror");
            assert_eq!(
                &values.get_q(y).unwrap().dequantize(),
                faulty,
                "bit {bit}: mirror and stored words diverged"
            );
            // A clean pass through the same arena restores the golden mirror.
            plan.run_into(
                &mut values,
                &feeds,
                &mut ranger_graph::exec::NoopInterceptor,
            )
            .unwrap();
            assert_eq!(values.get(y).unwrap(), &golden, "bit {bit}");
        }
    }

    #[test]
    fn flips_outside_output_bounds_are_skipped() {
        let (graph, y) = toy();
        let fault = FaultModel::single_bit_fixed32();
        let mut injector = FaultInjector::with_plan(
            fault,
            vec![PlannedFlip {
                site: InjectionSite {
                    node: y,
                    element: 999,
                },
                bit: 1,
            }],
        );
        let plan = graph.compile().unwrap();
        let input = Tensor::ones(vec![1, 3]);
        let out = plan
            .run(&[("x", input)], &mut injector)
            .unwrap()
            .get(y)
            .unwrap()
            .clone();
        assert!(!injector.fully_injected());
        assert!(!out.has_non_finite());
    }
}
