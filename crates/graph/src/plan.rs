//! Compiled execution plans: plan a graph once, run it many times.
//!
//! An [`ExecPlan`] is the one way to run a graph. The reproduction's hot paths run the
//! *same* graph many times — a fault-injection campaign thousands of times, bound
//! profiling once per profiling sample — so the plan front-loads the per-run planning
//! work:
//!
//! * the topological order is computed once at [`Graph::compile`] time instead of being
//!   re-derived (with its O(nodes) bookkeeping allocations) on every pass,
//! * the output shape of every node can be recorded once ([`ExecPlan::warm`]) and reused
//!   for introspection — and to pre-size the buffer arena handed out by
//!   [`ExecPlan::buffers`],
//! * the node-value store ([`Values`]) doubles as a per-node buffer arena: every operator
//!   writes its output into the buffer its node produced on the previous pass, so a
//!   `run_into` loop performs zero output-tensor allocations after warm-up (verified by
//!   the `alloc_free_plan` integration test with a counting global allocator).
//!
//! The [`Interceptor`] hook sees every operator node once per pass, in plan order — the
//! fault injector and the bound profiler observe the same nodes in the same order on
//! every pass, whether the store is fresh or reused. For a one-shot pass,
//! [`ExecPlan::run`] returns a fresh store and [`ExecPlan::run_simple`] a single output.
//!
//! # Example
//!
//! ```
//! use ranger_graph::exec::NoopInterceptor;
//! use ranger_graph::builder::GraphBuilder;
//! use ranger_tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut b = GraphBuilder::new();
//! let x = b.input("x");
//! let h = b.dense(x, 4, 8, &mut rng);
//! let y = b.relu(h);
//! let graph = b.into_graph();
//!
//! let plan = graph.compile()?;
//! let mut values = plan.buffers();
//! for _ in 0..100 {
//!     plan.run_into(&mut values, &[("x", Tensor::ones(vec![1, 4]))], &mut NoopInterceptor)?;
//!     assert_eq!(values.get(y)?.dims(), &[1, 8]);
//! }
//! # Ok::<(), ranger_graph::GraphError>(())
//! ```

use crate::backend::{ExecBackend, F32};
use crate::error::GraphError;
use crate::exec::{GoldenSnapshot, Interceptor, NoopInterceptor, Values};
use crate::graph::{Graph, NodeId};
use crate::op::Op;
use crate::region::{BoxMap, View, Window};
use ranger_tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

impl Graph {
    /// Compiles this graph into a reusable execution plan on the `f32` backend
    /// ([`BackendKind::F32`](crate::backend::BackendKind::F32)): the runtime-dispatched
    /// kernels, bit for bit the reference semantics.
    ///
    /// # Example
    ///
    /// ```
    /// use ranger_graph::{Graph, Op};
    /// use ranger_tensor::Tensor;
    ///
    /// let mut g = Graph::new();
    /// let x = g.add_input("x");
    /// let y = g.add_node("double", Op::ScalarMul { factor: 2.0 }, vec![x]);
    /// let plan = g.compile()?;
    /// let out = plan.run_simple(&[("x", Tensor::ones(vec![1, 3]))], y)?;
    /// assert_eq!(out.data(), &[2.0, 2.0, 2.0]);
    /// # Ok::<(), ranger_graph::GraphError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::CyclicGraph`] if the graph contains a cycle.
    pub fn compile(&self) -> Result<ExecPlan<'_>, GraphError> {
        self.compile_with(&F32)
    }

    /// Compiles this graph into an execution plan on an explicit backend — the seam for
    /// alternative compute paths (fixed-point today) and for the reference oracle in
    /// tests (`compile_with(&ReferenceBackend)`).
    ///
    /// The planning work (topological order, shape recording, buffer arena) is
    /// backend-independent; only per-node kernel dispatch changes.
    ///
    /// # Example
    ///
    /// ```
    /// use ranger_graph::backend::BackendKind;
    /// use ranger_graph::{Graph, Op};
    /// use ranger_tensor::Tensor;
    ///
    /// let mut g = Graph::new();
    /// let x = g.add_input("x");
    /// let y = g.add_node("double", Op::ScalarMul { factor: 2.0 }, vec![x]);
    /// let plan = g.compile_with(BackendKind::Fixed16.backend())?;
    /// // 0.3 quantizes to 0.25 on the Q14.2 grid before the multiply.
    /// let out = plan.run_simple(&[("x", Tensor::filled(vec![1, 2], 0.3))], y)?;
    /// assert_eq!(out.data(), &[0.5, 0.5]);
    /// # Ok::<(), ranger_graph::GraphError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::CyclicGraph`] if the graph contains a cycle.
    pub fn compile_with<'g>(
        &'g self,
        backend: &'g dyn ExecBackend,
    ) -> Result<ExecPlan<'g>, GraphError> {
        let order = self.topological_order()?;
        Ok(ExecPlan {
            graph: self,
            backend,
            order,
            shapes: OnceLock::new(),
            timings: OnceLock::new(),
            cone: OnceLock::new(),
        })
    }
}

/// Pre-sized per-node wall-time slots, created once at [`ExecPlan::warm`] time.
///
/// Two `AtomicU64`s per graph node (accumulated nanoseconds and evaluations) plus a
/// pass counter: recording from [`ExecPlan::run_into`] is two clock reads and two
/// relaxed `fetch_add`s per node, with **zero allocations** — the slots exist before
/// the first timed pass, so the `alloc_free_plan` counting-allocator pin holds with
/// metrics enabled. Atomic slots also let the many worker threads sharing one
/// campaign plan record concurrently.
#[derive(Debug)]
struct PlanTimings {
    /// Accumulated wall nanoseconds per node, indexed by `NodeId::index()`.
    node_nanos: Vec<AtomicU64>,
    /// Evaluations per node: one per full pass, and one per cone pass that evaluated
    /// the node or, for a site on golden inputs, applied its flips
    /// ([`ExecPlan::run_cone`]).
    node_calls: Vec<AtomicU64>,
    /// Number of completed timed passes.
    passes: AtomicU64,
    /// Output elements the cone passes evaluated ([`ExecPlan::run_cone`]).
    cone_elements: AtomicU64,
}

impl PlanTimings {
    /// Records one evaluation of node `id` that started at `start`.
    fn record(&self, id: NodeId, start: Instant) {
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.node_nanos[id.index()].fetch_add(nanos, Ordering::Relaxed);
        self.node_calls[id.index()].fetch_add(1, Ordering::Relaxed);
    }
}

/// Per-node facts a fault-cone pass needs, indexed by `NodeId::index()`, derived once
/// per plan from its order and the graph's edges.
#[derive(Debug)]
struct ConeIndex {
    /// Each node's position in the plan's order.
    position: Vec<usize>,
    /// The position of each node's last consumer — or its own position when nothing
    /// reads it. A deviating value stays live until the pass has passed this point.
    last_use: Vec<usize>,
    /// How each node carries its inputs' deviating boxes to its output.
    maps: Vec<BoxMap>,
}

/// A compiled execution plan over a borrowed [`Graph`].
///
/// Create with [`Graph::compile`] (the `f32` reference backend) or
/// [`Graph::compile_with`] (any [`ExecBackend`]). The plan borrows the graph immutably,
/// so any number of plans can coexist, and the graph cannot be rewritten while a plan
/// over it is alive — exactly the staleness bug the borrow checker should reject.
#[derive(Debug)]
pub struct ExecPlan<'g> {
    graph: &'g Graph,
    backend: &'g dyn ExecBackend,
    order: Vec<NodeId>,
    /// Per-node output dimensions, recorded on the first completed run.
    shapes: OnceLock<Vec<Option<Vec<usize>>>>,
    /// Per-node wall-time slots, created at warm time iff metrics are enabled.
    timings: OnceLock<PlanTimings>,
    /// Positions and last uses for cone passes, built by the first
    /// [`ExecPlan::snapshot`].
    cone: OnceLock<ConeIndex>,
}

impl<'g> ExecPlan<'g> {
    /// The graph this plan executes.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The backend this plan dispatches kernels through.
    pub fn backend(&self) -> &'g dyn ExecBackend {
        self.backend
    }

    /// The topological execution order computed at compile time.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Returns a value store sized for this plan, for use with [`ExecPlan::run_into`].
    ///
    /// If the plan has been [warmed](ExecPlan::warm), every per-node output buffer is
    /// pre-allocated to the recorded shape's element count, so even the store's first
    /// `run_into` pass allocates no output tensors (for feeds of the warmed batch size).
    pub fn buffers(&self) -> Values {
        let mut values = Values::new(self.graph.len());
        if let Some(shapes) = self.shapes.get() {
            let spec = self.backend.spec();
            for (index, dims) in shapes.iter().enumerate() {
                if let Some(dims) = dims {
                    values.preallocate(NodeId::new(index), dims);
                    if let Some(spec) = spec {
                        values.preallocate_q(NodeId::new(index), spec, dims);
                    }
                }
            }
        }
        values
    }

    /// Runs a forward pass into a caller-owned value store, reusing its allocations.
    ///
    /// This is the hot-path entry point: the previous pass's tensors become the output
    /// buffers of the current pass (see [`Values`]), so after the first pass a `run_into`
    /// loop performs **zero output-tensor allocations** — each operator writes into its
    /// node's recycled buffer. The `interceptor` is called after every operator (not for
    /// inputs or constants), in plan order.
    ///
    /// If the plan was [warmed](ExecPlan::warm) while metrics were enabled
    /// (`ranger_obs`), each node's wall time is accumulated into a pre-sized atomic
    /// slot — still zero allocations, no RNG, and no branching on observed values,
    /// so results are bit-for-bit identical with metrics on or off. Drain the slots
    /// into the global registry with [`ExecPlan::publish_timings`].
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if a feed is missing or any operator receives invalid
    /// operands.
    pub fn run_into(
        &self,
        values: &mut Values,
        feeds: &[(&str, Tensor)],
        interceptor: &mut dyn Interceptor,
    ) -> Result<(), GraphError> {
        values.reset(self.graph.len());
        if let Some(timings) = self.timings.get() {
            for &id in &self.order {
                let node = self.graph.node(id)?;
                let start = Instant::now();
                self.backend.eval_node(node, values, feeds, interceptor)?;
                timings.record(id, start);
            }
            timings.passes.fetch_add(1, Ordering::Relaxed);
        } else {
            for &id in &self.order {
                let node = self.graph.node(id)?;
                self.backend.eval_node(node, values, feeds, interceptor)?;
            }
        }
        Ok(())
    }

    /// Freezes the fault-free pass just run into `values` as a [`GoldenSnapshot`], the
    /// starting state of [`ExecPlan::run_cone`] for that pass's feeds.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] if a non-constant node holds no value (the
    /// store has not completed a full pass of this plan).
    pub fn snapshot(&self, values: &Values) -> Result<GoldenSnapshot, GraphError> {
        // Built here, so that no cone pass allocates it.
        self.cone_index();
        let mut golden = GoldenSnapshot::new(self.graph.len());
        for node in self.graph.nodes() {
            if !matches!(node.op, Op::Const) {
                golden.capture(values, node.id)?;
            } else if let Some(value) = &node.value {
                // Constants are not captured, but a concatenation's box offsets count
                // their channels too.
                golden.set_view(node.id, View::of(value.dims()));
            }
        }
        Ok(golden)
    }

    /// The cone pass's per-node positions and last uses, built on first use.
    fn cone_index(&self) -> &ConeIndex {
        self.cone.get_or_init(|| {
            let mut position = vec![0; self.graph.len()];
            for (p, id) in self.order.iter().enumerate() {
                position[id.index()] = p;
            }
            let mut last_use = position.clone();
            for node in self.graph.nodes() {
                let p = position[node.id.index()];
                for input in &node.inputs {
                    last_use[input.index()] = last_use[input.index()].max(p);
                }
            }
            let maps = self
                .graph
                .nodes()
                .iter()
                .map(|node| BoxMap::of(self.graph, node))
                .collect();
            ConeIndex {
                position,
                last_use,
                maps,
            }
        })
    }

    /// Runs one faulty pass as a **fault cone**: it starts from `golden` (the snapshot of
    /// the same feeds' fault-free pass) and evaluates only the nodes whose value can
    /// differ from it, each only over the box its deviation can occupy. Returns whether
    /// `keep`'s value deviates from golden; when it does, `values.get(keep)` is the
    /// faulty value, and when it does not, the value is golden's bit for bit (the store's
    /// slot may then be stale — read golden's copy).
    ///
    /// The walk visits the order from the start and tracks per node a **dirty box**: a
    /// (channel, row, column) range of the value's [`View`] outside
    /// which it is golden. An injectable node that reads a deviating value is evaluated
    /// over the union of its inputs' boxes carried through its
    /// [`BoxMap`] (a `k × k` conv grows a box by `k − 1`; dense layers, softmax, global
    /// pooling and reshapes widen it to the whole value), compared with golden inside
    /// that window, and its box shrinks to the bounding box of the elements that really
    /// deviate — where ReLU masking and range restriction show. A site whose inputs are
    /// all golden is not evaluated: its slot is restored to golden, handed to the
    /// interceptor, and compared whole (the interceptor may touch any element). Every
    /// other node keeps its golden value; only a slot's previous dirty box is restored.
    /// The walk stops once every site has run and no unvisited node reads a deviating
    /// value — a fault masked early costs only the nodes up to where it died.
    ///
    /// Exactness: kernels are deterministic within a process and every windowed kernel
    /// computes each element exactly as its full pass does, so a node evaluated on
    /// golden inputs reproduces its golden output, and an element outside the box its
    /// map gives reads only golden inputs. The result therefore equals a full
    /// [`ExecPlan::run_into`] under the same `interceptor`, provided the interceptor
    /// mutates only the outputs of `sites` (it sees only the nodes the cone
    /// evaluates). Any trial order through one store is exact: the store is primed
    /// from `golden` on first use (re-primed when the snapshot changes, or after any
    /// full pass), and tracks per slot the box where it may differ from golden.
    ///
    /// Warmed cone passes allocate nothing: each evaluated node writes into its own
    /// buffer. With metrics on, each evaluated node's time and call are recorded in the
    /// plan's timing slots, the pass counts as one pass, and the elements evaluated are
    /// added to the `plan.cone.elements` counter.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if priming fails (the snapshot does not match this
    /// plan) or an evaluated operator fails; the store is then re-primed on next use.
    pub fn run_cone(
        &self,
        values: &mut Values,
        golden: &GoldenSnapshot,
        sites: &[NodeId],
        keep: NodeId,
        interceptor: &mut dyn Interceptor,
    ) -> Result<bool, GraphError> {
        let result = self.cone_pass(values, golden, sites, keep, interceptor);
        if result.is_err() {
            values.cone.primed = None;
        }
        result
    }

    fn cone_pass(
        &self,
        values: &mut Values,
        golden: &GoldenSnapshot,
        sites: &[NodeId],
        keep: NodeId,
        interceptor: &mut dyn Interceptor,
    ) -> Result<bool, GraphError> {
        let index = self.cone_index();
        if values.cone.primed != Some(golden.id) {
            self.prime(values, golden)?;
        }
        let is_injectable = |id: &NodeId| {
            self.graph
                .node(*id)
                .is_ok_and(|node| node.op.is_injectable())
        };
        let Some(last_site) = sites
            .iter()
            .filter(|id| is_injectable(id))
            .map(|id| index.position[id.index()])
            .max()
        else {
            return Ok(false);
        };
        let timings = self.timings.get();
        let mut live_until = 0usize;
        let mut keep_deviates = false;
        let mut elements = 0usize;
        for (pos, &id) in self.order.iter().enumerate() {
            if pos > last_site && live_until < pos {
                break;
            }
            let node = self.graph.node(id)?;
            let i = id.index();
            let site = sites.contains(&id);
            // The output box the inputs' deviations can reach.
            let mut window = Window::EMPTY;
            if node.op.is_injectable() {
                let (map, out) = (index.maps[i], golden.view(id));
                let mut offset = 0;
                for (k, input) in node.inputs.iter().enumerate() {
                    let input_view = golden.view(*input);
                    let deviating = &values.cone.deviating[input.index()];
                    if !deviating.is_empty() {
                        window = window.union(&map.apply(k, deviating, input_view, out, offset));
                    }
                    offset += input_view.c;
                }
            }
            let dirty = values.cone.dirty[i];
            if !node.op.is_injectable() || (window.is_empty() && !site) {
                if !dirty.is_empty() {
                    values.restore_window(id, golden, &dirty)?;
                }
                values.cone.dirty[i] = Window::EMPTY;
                values.cone.deviating[i] = Window::EMPTY;
                continue;
            }
            let whole = Window::whole(golden.view(id));
            let start = timings.map(|_| Instant::now());
            let compare = if window.is_empty() {
                // A site on golden inputs: its value is golden plus the planned flips.
                if !dirty.is_empty() {
                    values.restore_window(id, golden, &dirty)?;
                }
                values.intercept(node, interceptor);
                whole
            } else if window == whole {
                values.recycle_slot(i);
                self.backend.eval_node(node, values, &[], interceptor)?;
                elements += whole.elements();
                whole
            } else {
                if !dirty.is_empty() {
                    values.restore_window(id, golden, &dirty)?;
                }
                self.backend
                    .eval_window(node, values, &window, interceptor)?;
                elements += window.elements();
                // The interceptor may have touched a site anywhere.
                if site {
                    whole
                } else {
                    window
                }
            };
            if let (Some(t), Some(start)) = (timings, start) {
                t.record(id, start);
            }
            let deviation = values.deviation(id, golden, &compare);
            values.cone.dirty[i] = deviation;
            values.cone.deviating[i] = deviation;
            if !deviation.is_empty() {
                live_until = live_until.max(index.last_use[i]);
                keep_deviates |= id == keep;
            }
        }
        if let Some(t) = timings {
            t.passes.fetch_add(1, Ordering::Relaxed);
            t.cone_elements
                .fetch_add(elements as u64, Ordering::Relaxed);
        }
        Ok(keep_deviates)
    }

    /// Fills `values` with `golden`: constants through the backend (a fixed-point
    /// store's quantization cache makes that a no-op after the first pass), every
    /// other node by copy.
    fn prime(&self, values: &mut Values, golden: &GoldenSnapshot) -> Result<(), GraphError> {
        values.reset(self.graph.len());
        for &id in &self.order {
            let node = self.graph.node(id)?;
            if matches!(node.op, Op::Const) {
                self.backend
                    .eval_node(node, values, &[], &mut NoopInterceptor)?;
            } else {
                values.restore_golden(id, golden)?;
            }
        }
        values.cone.primed_from(golden, self.graph.len());
        Ok(())
    }

    /// Runs one fault-free forward pass on `feeds` into a fresh value store and returns
    /// it. The plan's first warm also records every node's output shape, making
    /// [`ExecPlan::output_dims`] available and pre-sizing every later
    /// [`ExecPlan::buffers`] store; later warms only run their pass.
    ///
    /// Campaigns warm with their first input's golden pass, so warming costs no pass of
    /// its own. Recording is explicit (not part of [`ExecPlan::run_into`]) so
    /// single-shot executions on a throwaway plan never pay for shape bookkeeping they
    /// cannot use. With metrics enabled, warming creates the plan's timing slots first,
    /// so its own pass is timed too.
    ///
    /// # Errors
    ///
    /// See [`ExecPlan::run_into`].
    pub fn warm(&self, feeds: &[(&str, Tensor)]) -> Result<Values, GraphError> {
        self.ensure_timings();
        let values = self.run(feeds, &mut NoopInterceptor)?;
        if self.shapes.get().is_none() {
            // dims_of reads shapes from whichever representation the backend stored, so
            // warming a fixed-point plan records every node without decoding any mirror.
            let recorded: Vec<Option<Vec<usize>>> = (0..self.graph.len())
                .map(|i| values.dims_of(NodeId::new(i)).map(|d| d.to_vec()))
                .collect();
            let _ = self.shapes.set(recorded);
        }
        Ok(values)
    }

    /// Creates the per-node timing slots if metrics are enabled and none exist yet.
    ///
    /// Allocation happens here — at warm time, outside the hot loop — never in
    /// [`ExecPlan::run_into`]. Plans warmed while metrics are disabled never time
    /// at all, so the disabled cost in the pass loop is a single pointer check.
    fn ensure_timings(&self) {
        if self.timings.get().is_none() && ranger_obs::enabled() {
            let _ = self.timings.set(PlanTimings {
                node_nanos: (0..self.graph.len()).map(|_| AtomicU64::new(0)).collect(),
                node_calls: (0..self.graph.len()).map(|_| AtomicU64::new(0)).collect(),
                passes: AtomicU64::new(0),
                cone_elements: AtomicU64::new(0),
            });
        }
    }

    /// Accumulated wall nanoseconds recorded for node `id`, or `None` if the plan
    /// is not timing (never warmed with metrics enabled).
    pub fn node_nanos(&self, id: NodeId) -> Option<u64> {
        self.timings
            .get()
            .and_then(|t| t.node_nanos.get(id.index()))
            .map(|slot| slot.load(Ordering::Relaxed))
    }

    /// Number of timed passes completed so far (0 if the plan is not timing).
    pub fn timed_passes(&self) -> u64 {
        self.timings
            .get()
            .map(|t| t.passes.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Drains the per-node timing slots into the global metrics registry,
    /// aggregated by operator kind.
    ///
    /// For each kind present in the graph this adds to three counters in
    /// [`ranger_obs::registry()`]:
    ///
    /// - `plan.op.<Kind>.nanos` — accumulated wall time across that kind's nodes,
    /// - `plan.op.<Kind>.calls` — node evaluations of that kind: every node once per
    ///   full pass, and once per cone pass only where the cone evaluated it (or applied
    ///   a site's flips to its golden value),
    ///
    /// plus `plan.passes` for the pass total and `plan.cone.elements` for the output
    /// elements cone passes evaluated (a windowed node counts its window, a site on
    /// golden inputs none). Slots are swapped to zero, so calling this
    /// repeatedly (e.g. once per campaign on a reused plan) never double-counts. A plan
    /// that is not timing publishes nothing.
    pub fn publish_timings(&self) {
        let Some(timings) = self.timings.get() else {
            return;
        };
        let passes = timings.passes.swap(0, Ordering::Relaxed);
        let cone_elements = timings.cone_elements.swap(0, Ordering::Relaxed);
        // Aggregate per op kind; the kind set is tiny, so a linear scan beats a map.
        let mut kinds: Vec<(&'static str, u64, u64)> = Vec::new();
        for &id in &self.order {
            let Ok(node) = self.graph.node(id) else {
                continue;
            };
            let nanos = timings.node_nanos[id.index()].swap(0, Ordering::Relaxed);
            let calls = timings.node_calls[id.index()].swap(0, Ordering::Relaxed);
            let kind = node.op.kind_name();
            match kinds.iter_mut().find(|(k, _, _)| *k == kind) {
                Some((_, total_nanos, total_calls)) => {
                    *total_nanos += nanos;
                    *total_calls += calls;
                }
                None => kinds.push((kind, nanos, calls)),
            }
        }
        let registry = ranger_obs::registry();
        registry.counter("plan.passes").add(passes);
        registry.counter("plan.cone.elements").add(cone_elements);
        for (kind, nanos, calls) in kinds {
            registry
                .counter(&format!("plan.op.{kind}.nanos"))
                .add(nanos);
            registry
                .counter(&format!("plan.op.{kind}.calls"))
                .add(calls);
        }
    }

    /// Runs a forward pass and returns a freshly allocated value store.
    ///
    /// # Errors
    ///
    /// See [`ExecPlan::run_into`].
    pub fn run(
        &self,
        feeds: &[(&str, Tensor)],
        interceptor: &mut dyn Interceptor,
    ) -> Result<Values, GraphError> {
        let mut values = self.buffers();
        self.run_into(&mut values, feeds, interceptor)?;
        Ok(values)
    }

    /// Runs a forward pass and returns only the value of `fetch`, using no interceptor.
    ///
    /// # Errors
    ///
    /// See [`ExecPlan::run_into`].
    pub fn run_simple(
        &self,
        feeds: &[(&str, Tensor)],
        fetch: NodeId,
    ) -> Result<Tensor, GraphError> {
        let values = self.run(feeds, &mut NoopInterceptor)?;
        values.get(fetch).cloned()
    }

    /// The output dimensions of `id` as recorded by [`ExecPlan::warm`], or `None` if the
    /// plan has not been warmed (or the node produced no value).
    pub fn output_dims(&self, id: NodeId) -> Option<&[usize]> {
        self.shapes
            .get()
            .and_then(|shapes| shapes.get(id.index()))
            .and_then(|dims| dims.as_deref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::graph::Node;
    use crate::op::Op;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> (Graph, NodeId) {
        let mut rng = StdRng::seed_from_u64(3);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let h = b.dense(x, 4, 6, &mut rng);
        let h = b.relu(h);
        let y = b.dense(h, 6, 2, &mut rng);
        (b.into_graph(), y)
    }

    #[test]
    fn run_into_reuses_the_store_across_passes() {
        let (graph, y) = toy();
        let plan = graph.compile().unwrap();
        let mut values = plan.buffers();
        let mut outputs = Vec::new();
        for i in 0..3 {
            let input = Tensor::filled(vec![1, 4], i as f32);
            plan.run_into(&mut values, &[("x", input)], &mut NoopInterceptor)
                .unwrap();
            outputs.push(values.get(y).unwrap().clone());
        }
        // Stale values from earlier passes must not leak into later ones.
        assert_ne!(outputs[0], outputs[1]);
        let fresh = graph
            .compile()
            .unwrap()
            .run_simple(&[("x", Tensor::filled(vec![1, 4], 2.0))], y)
            .unwrap();
        assert_eq!(outputs[2], fresh);
    }

    #[test]
    fn interceptor_corruption_propagates_under_the_plan() {
        struct Corrupt;
        impl Interceptor for Corrupt {
            fn after_op(&mut self, node: &Node, output: &mut Tensor) {
                if matches!(node.op, Op::Relu) {
                    output.data_mut()[0] = 77.0;
                }
            }
        }
        let (graph, _) = toy();
        let relu = graph
            .nodes()
            .iter()
            .find(|n| matches!(n.op, Op::Relu))
            .unwrap()
            .id;
        let plan = graph.compile().unwrap();
        let values = plan
            .run(&[("x", Tensor::ones(vec![1, 4]))], &mut Corrupt)
            .unwrap();
        assert_eq!(values.get(relu).unwrap().data()[0], 77.0);
    }

    #[test]
    fn output_shapes_are_recorded_by_warming() {
        let (graph, y) = toy();
        let plan = graph.compile().unwrap();
        // Plain runs never record shapes — single-shot executions skip the bookkeeping.
        plan.run_simple(&[("x", Tensor::ones(vec![1, 4]))], y)
            .unwrap();
        assert!(plan.output_dims(y).is_none(), "no shapes before warming");
        plan.warm(&[("x", Tensor::ones(vec![1, 4]))]).unwrap();
        assert_eq!(plan.output_dims(y), Some(&[1usize, 2][..]));
        // Warming again runs its pass and returns it, keeping the recorded shapes.
        let values = plan.warm(&[("x", Tensor::ones(vec![1, 4]))]).unwrap();
        assert_eq!(values.get(y).unwrap().dims(), &[1, 2]);
        assert_eq!(plan.output_dims(y), Some(&[1usize, 2][..]));
    }

    /// One test (not several) because it toggles the process-global enable flag:
    /// graph tests run in parallel, and a sibling test observing the flag
    /// mid-toggle would be racy.
    #[test]
    fn timing_slots_follow_the_metrics_enable_state() {
        let was_enabled = ranger_obs::enabled();

        // Warmed while disabled: no slots, no timing.
        if !was_enabled {
            let (graph, y) = toy();
            let plan = graph.compile().unwrap();
            plan.warm(&[("x", Tensor::ones(vec![1, 4]))]).unwrap();
            plan.run_simple(&[("x", Tensor::ones(vec![1, 4]))], y)
                .unwrap();
            assert_eq!(plan.timed_passes(), 0);
            assert_eq!(plan.node_nanos(y), None);
        }

        let (graph, y) = toy();
        let plan = graph.compile().unwrap();
        ranger_obs::set_enabled(true);
        plan.warm(&[("x", Tensor::ones(vec![1, 4]))]).unwrap();
        let mut values = plan.buffers();
        for _ in 0..2 {
            plan.run_into(
                &mut values,
                &[("x", Tensor::ones(vec![1, 4]))],
                &mut NoopInterceptor,
            )
            .unwrap();
        }
        // warm() creates the slots before its own pass, so it is timed with the two
        // explicit passes.
        assert_eq!(plan.timed_passes(), 3);
        assert!(plan.node_nanos(y).is_some());

        // Publishing drains the slots into per-kind registry counters. Deltas, not
        // absolutes: the registry is process-global and other tests share it.
        let registry = ranger_obs::registry();
        let calls_before = registry.counter("plan.op.MatMul.calls").value();
        plan.publish_timings();
        // toy() has two dense layers = two MatMul nodes, each called three times.
        assert_eq!(
            registry.counter("plan.op.MatMul.calls").value() - calls_before,
            6
        );
        assert_eq!(plan.timed_passes(), 0, "publishing drains the slots");
        // Publishing again adds nothing.
        plan.publish_timings();
        assert_eq!(
            registry.counter("plan.op.MatMul.calls").value() - calls_before,
            6
        );

        // A cone pass counts only the nodes it evaluated: a site on the second MatMul
        // runs that one node, and with no fault it stops there (no BiasAdd call).
        let second_matmul = graph.node(y).unwrap().inputs[0];
        let bias_calls_before = registry.counter("plan.op.BiasAdd.calls").value();
        let snapshot = plan.snapshot(&values).unwrap();
        plan.run_cone(
            &mut values,
            &snapshot,
            &[second_matmul],
            y,
            &mut NoopInterceptor,
        )
        .unwrap();
        assert_eq!(plan.timed_passes(), 1);
        plan.publish_timings();
        assert_eq!(
            registry.counter("plan.op.MatMul.calls").value() - calls_before,
            7
        );
        assert_eq!(
            registry.counter("plan.op.BiasAdd.calls").value(),
            bias_calls_before
        );
        ranger_obs::set_enabled(was_enabled);
    }

    #[test]
    fn compile_rejects_cyclic_graphs() {
        let mut g = Graph::new();
        let x = g.add_input("x");
        let a = g.add_node("a", Op::Identity, vec![x]);
        let b = g.add_node("b", Op::Identity, vec![a]);
        g.rewire_input(a, x, b).unwrap();
        assert!(matches!(g.compile(), Err(GraphError::CyclicGraph)));
    }

    #[test]
    fn missing_feed_error_is_preserved() {
        let (graph, y) = toy();
        let plan = graph.compile().unwrap();
        assert!(matches!(
            plan.run_simple(&[], y),
            Err(GraphError::MissingFeed(_))
        ));
    }
}
