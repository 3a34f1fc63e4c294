//! The injection state space: which values a transient fault may corrupt.

use crate::InjectionTarget;
use rand::Rng;
use ranger_graph::exec::{NoopInterceptor, Values};
use ranger_graph::{ExecPlan, GraphError, NodeId};
use ranger_tensor::{FixedSpec, Tensor};

/// One concrete place a fault can strike: an element of an operator's output tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectionSite {
    /// The operator whose output is corrupted.
    pub node: NodeId,
    /// The flat element index within that output tensor.
    pub element: usize,
}

/// The set of all injectable values of a model on a given input, weighted by element
/// count.
///
/// The paper injects faults "into the output values of operators in the graph", i.e. the
/// probability that a given operator is hit is proportional to the number of values it
/// produces (its share of the state space). Output shapes are only known at execution
/// time, so the space is read off a finished forward pass ([`InjectionSpace::from_pass`]).
#[derive(Debug, Clone)]
pub struct InjectionSpace {
    sites: Vec<(NodeId, usize)>,
    total: usize,
    /// The integer word layout of the profiled values when the space was built on a
    /// fixed-point backend: faults drawn from this space strike raw words of this format.
    spec: Option<FixedSpec>,
}

impl InjectionSpace {
    /// Profiles `target` on `input` with one pass of the `f32` reference plan and builds
    /// the injection space from it.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if the graph does not compile or the pass fails.
    pub fn build(target: &InjectionTarget<'_>, input: &Tensor) -> Result<Self, GraphError> {
        let plan = target.graph.compile()?;
        let values = plan.run(&[(target.input_name, input.clone())], &mut NoopInterceptor)?;
        Self::from_pass(&plan, &values, target.excluded)
    }

    /// Builds the space from a forward pass of `plan` that `values` holds: in the plan's
    /// order, every injectable node not in `excluded` contributes its output's element
    /// count. On a fixed-point backend the space records the plan's
    /// [word layout](InjectionSpace::word_layout), the raw integer words faults strike.
    ///
    /// Element counts are backend-independent, so spaces read off any backend's pass
    /// weight operators identically and seeded fault plans stay comparable across
    /// backends.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] if an injectable node holds no value (`values`
    /// has not completed a pass of `plan`).
    pub fn from_pass(
        plan: &ExecPlan<'_>,
        values: &Values,
        excluded: &[NodeId],
    ) -> Result<Self, GraphError> {
        let graph = plan.graph();
        let mut sites = Vec::new();
        for &id in plan.order() {
            if graph.node(id)?.op.is_injectable() && !excluded.contains(&id) {
                let dims = values.dims_of(id).ok_or(GraphError::UnknownNode(id))?;
                sites.push((id, dims.iter().product()));
            }
        }
        Ok(InjectionSpace {
            total: sites.iter().map(|(_, n)| n).sum(),
            sites,
            spec: plan.backend().spec(),
        })
    }

    /// Total number of injectable values (the state space size).
    pub fn total_values(&self) -> usize {
        self.total
    }

    /// The fixed-point word layout of the injectable values, when the space was read off
    /// a fixed-point backend's pass ([`InjectionSpace::from_pass`]); `None` when the
    /// values are `f32` tensors.
    pub fn word_layout(&self) -> Option<FixedSpec> {
        self.spec
    }

    /// Number of injectable operators.
    pub fn operator_count(&self) -> usize {
        self.sites.len()
    }

    /// Returns the number of injectable values produced by `node`, if it is injectable.
    pub fn values_of(&self, node: NodeId) -> Option<usize> {
        self.sites
            .iter()
            .find(|(id, _)| *id == node)
            .map(|(_, n)| *n)
    }

    /// Samples an injection site uniformly over the state space (operators weighted by the
    /// number of values they produce).
    ///
    /// # Panics
    ///
    /// Panics if the space is empty.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> InjectionSite {
        assert!(
            self.total > 0,
            "cannot sample from an empty injection space"
        );
        let mut pick = rng.gen_range(0..self.total);
        for &(node, count) in &self.sites {
            if pick < count {
                return InjectionSite {
                    node,
                    element: pick,
                };
            }
            pick -= count;
        }
        unreachable!("sample index must fall inside one of the operators")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use ranger_graph::GraphBuilder;

    fn toy_target() -> (ranger_graph::Graph, NodeId, NodeId) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let h = b.dense(x, 4, 6, &mut rng);
        let h = b.relu(h);
        let y = b.dense(h, 6, 2, &mut rng);
        let relu_node = h;
        (b.into_graph(), y, relu_node)
    }

    #[test]
    fn space_counts_operator_outputs() {
        let (graph, y, _) = toy_target();
        let target = InjectionTarget {
            graph: &graph,
            input_name: "x",
            output: y,
            excluded: &[],
        };
        let space = InjectionSpace::build(&target, &Tensor::ones(vec![1, 4])).unwrap();
        // Operators: fc1 MatMul (6), fc1 BiasAdd (6), Relu (6), fc2 MatMul (2), fc2 BiasAdd (2).
        assert_eq!(space.operator_count(), 5);
        assert_eq!(space.total_values(), 6 + 6 + 6 + 2 + 2);
    }

    #[test]
    fn excluded_nodes_are_not_in_the_space() {
        let (graph, y, _) = toy_target();
        let excluded = vec![y];
        let target = InjectionTarget {
            graph: &graph,
            input_name: "x",
            output: y,
            excluded: &excluded,
        };
        let space = InjectionSpace::build(&target, &Tensor::ones(vec![1, 4])).unwrap();
        assert_eq!(space.values_of(y), None);
        assert_eq!(space.operator_count(), 4);
    }

    #[test]
    fn sampling_covers_operators_in_proportion() {
        let (graph, y, relu) = toy_target();
        let target = InjectionTarget {
            graph: &graph,
            input_name: "x",
            output: y,
            excluded: &[],
        };
        let space = InjectionSpace::build(&target, &Tensor::ones(vec![1, 4])).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut relu_hits = 0usize;
        let n = 4000;
        for _ in 0..n {
            let site = space.sample(&mut rng);
            assert!(site.element < space.values_of(site.node).unwrap());
            if site.node == relu {
                relu_hits += 1;
            }
        }
        // The ReLU holds 6/22 of the state space; allow a generous tolerance.
        let fraction = relu_hits as f64 / n as f64;
        assert!(
            (fraction - 6.0 / 22.0).abs() < 0.05,
            "fraction was {fraction}"
        );
    }

    #[test]
    #[should_panic(expected = "empty injection space")]
    fn sampling_empty_space_panics() {
        let space = InjectionSpace {
            sites: Vec::new(),
            total: 0,
            spec: None,
        };
        let mut rng = StdRng::seed_from_u64(0);
        space.sample(&mut rng);
    }

    /// The interceptor-recorded layout `from_pass` must reproduce: every node the
    /// injector could strike, in execution order, with its output length.
    struct LengthRecorder<'a> {
        excluded: &'a [NodeId],
        sites: Vec<(NodeId, usize)>,
    }

    impl ranger_graph::Interceptor for LengthRecorder<'_> {
        fn after_op(&mut self, node: &ranger_graph::Node, output: &mut Tensor) {
            if !self.excluded.contains(&node.id) {
                self.sites.push((node.id, output.len()));
            }
        }
    }

    /// Spaces read off any backend's pass list the same operators, in the same order,
    /// with the same element counts as an interceptor watching a reference pass, and
    /// record the word layout faults will strike.
    #[test]
    fn plan_built_space_matches_reference_and_records_layout() {
        use ranger_graph::BackendKind;
        let (graph, y, relu) = toy_target();
        let excluded = vec![relu];
        let target = InjectionTarget {
            graph: &graph,
            input_name: "x",
            output: y,
            excluded: &excluded,
        };
        let feeds = [("x", Tensor::ones(vec![1, 4]))];
        let mut recorder = LengthRecorder {
            excluded: &excluded,
            sites: Vec::new(),
        };
        graph.compile().unwrap().run(&feeds, &mut recorder).unwrap();
        assert_eq!(recorder.sites.len(), 4, "the ReLU is excluded");
        let reference = InjectionSpace::build(&target, &feeds[0].1).unwrap();
        assert_eq!(reference.sites, recorder.sites);
        assert_eq!(reference.word_layout(), None);
        for kind in [
            BackendKind::F32,
            BackendKind::Simd,
            BackendKind::Fixed16,
            BackendKind::Fixed32,
        ] {
            let plan = graph.compile_with(kind.backend()).unwrap();
            let values = plan.run(&feeds, &mut NoopInterceptor).unwrap();
            let space = InjectionSpace::from_pass(&plan, &values, &excluded).unwrap();
            assert_eq!(space.sites, recorder.sites, "{kind}");
            for node in graph.nodes() {
                let expected = recorder
                    .sites
                    .iter()
                    .find(|(id, _)| *id == node.id)
                    .map(|(_, n)| *n);
                assert_eq!(space.values_of(node.id), expected, "{kind}: {}", node.name);
            }
            assert_eq!(space.total_values(), 6 + 6 + 2 + 2, "{kind}");
            assert_eq!(space.word_layout(), kind.spec(), "{kind}");
        }
    }

    #[test]
    fn a_store_without_a_finished_pass_is_rejected() {
        let (graph, y, _) = toy_target();
        let plan = graph.compile().unwrap();
        let err = InjectionSpace::from_pass(&plan, &plan.buffers(), &[y]).unwrap_err();
        assert!(matches!(err, GraphError::UnknownNode(_)), "{err}");
    }
}
