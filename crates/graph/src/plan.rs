//! Compiled execution plans: plan a graph once, run it many times.
//!
//! [`Executor`](crate::exec::Executor) re-derives the topological order and re-allocates
//! its value store on every forward pass. That is fine for one-shot evaluation but wasteful
//! on the reproduction's hot path — a fault-injection campaign runs the *same* graph
//! thousands of times, and a bound-profiling pass runs it once per profiling sample. An
//! [`ExecPlan`] front-loads the per-run planning work:
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
//! The [`Interceptor`] hook behaves exactly as it does under `Executor` — the fault
//! injector and the bound profiler observe the same nodes in the same order — and the
//! computed values are bit-for-bit identical (`Executor` is itself implemented as
//! "compile, then run once").
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

use crate::backend::{ExecBackend, ReferenceBackend};
use crate::error::GraphError;
use crate::exec::{GoldenSnapshot, Interceptor, NoopInterceptor, TileRows, Values};
use crate::graph::{Graph, NodeId};
use crate::op::Op;
use ranger_tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static REFERENCE: ReferenceBackend = ReferenceBackend;

impl Graph {
    /// Compiles this graph into a reusable execution plan on the `f32`
    /// [`ReferenceBackend`].
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
    /// Returns [`GraphError::CyclicGraph`] if the graph contains a cycle (the same check
    /// every `Executor` run would perform).
    pub fn compile(&self) -> Result<ExecPlan<'_>, GraphError> {
        self.compile_with(&REFERENCE)
    }

    /// Compiles this graph into an execution plan on an explicit backend — the seam for
    /// alternative compute paths (fixed-point today; SIMD/GPU backends tomorrow).
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
    /// Evaluations per node: one per full or tiled pass, and one per cone pass that
    /// actually evaluated the node ([`ExecPlan::run_cone`]).
    node_calls: Vec<AtomicU64>,
    /// Number of completed timed passes.
    passes: AtomicU64,
    /// Segments executed by tiled passes ([`ExecPlan::run_tiled_into`]).
    tile_segments: AtomicU64,
    /// Batch rows pushed through segments by tiled passes (rows × segments).
    tile_rows: AtomicU64,
    /// Wall nanoseconds spent inside segment execution (slicing, row-group kernels,
    /// materialization) by tiled passes.
    tile_nanos: AtomicU64,
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
}

/// The default per-segment working-set budget [`ExecPlan::derive_tile_rows`] sizes row
/// groups against: half a MiB, comfortably inside a typical per-core L2 so a segment's
/// live activations stay cache-resident between consecutive nodes.
pub const DEFAULT_TILE_BUDGET_BYTES: usize = 512 * 1024;

/// One step of a [`TiledSchedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TileStep {
    /// Consecutive nodes evaluated once on the whole batch, exactly as
    /// [`ExecPlan::run_into`] would — constants, inputs, batch barriers (softmax), and
    /// anything that does not tile row-wise.
    Whole(Vec<NodeId>),
    /// Consecutive row-tileable nodes evaluated one row group at a time.
    Segment(SegmentPlan),
}

/// A maximal run of consecutive row-tileable nodes, with the bookkeeping tiled
/// execution needs: which outputs must be assembled back into full-batch values, and
/// which batch-carrying values computed outside the segment feed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentPlan {
    /// The segment's nodes, in execution order.
    pub nodes: Vec<NodeId>,
    /// For each node of `nodes`: whether its row groups are materialized into a
    /// full-batch value (true iff the node is consumed outside the segment, kept by the
    /// caller, or has no consumers at all). Non-materialized outputs live only as
    /// row-group scratch and are unreadable after the pass.
    pub materialize: Vec<bool>,
    /// Batch-carrying inputs computed outside the segment, row-sliced into the tile
    /// overlay for every group. Non-carrying inputs (weights, biases) are read whole.
    pub externals: Vec<NodeId>,
}

/// A tiled execution schedule: the plan's topological order partitioned into
/// [`TileStep`]s by [`ExecPlan::tiled_schedule`]. Owns no borrows, so campaigns build
/// it once next to the plan and reuse it across every pass and worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TiledSchedule {
    steps: Vec<TileStep>,
}

impl TiledSchedule {
    /// The schedule's steps, in execution order.
    pub fn steps(&self) -> &[TileStep] {
        &self.steps
    }

    /// Number of [`TileStep::Segment`] steps — 0 means tiling degenerates to the
    /// untiled order and callers may as well use [`ExecPlan::run_into`].
    pub fn segments(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, TileStep::Segment(_)))
            .count()
    }
}

/// Classifies one node for the tiled scheduler, given the carrying flags of every
/// already-classified (topologically earlier) node. Returns `(carrying, tileable)`:
/// whether the node's output carries the batch in its leading dimension, and whether
/// the node may run inside a row-group segment.
///
/// The rules are structural (no shapes needed):
///
/// - `Input` carries the batch but runs whole — the feed is copied once per pass, then
///   row-sliced into each group as a segment external.
/// - `Const` never carries.
/// - `Conv2d` / `MatMul` / `BiasAdd` carry through their first operand and tile iff the
///   data operand carries while the weight operand does not.
/// - `Softmax` carries but is a batch **barrier** — campaigns inject whole-batch faults
///   into its output, and keeping it whole also keeps the fixed-point kernel's row
///   buffer out of the per-group loop.
/// - Elementwise, pooling and shape ops tile iff their single input carries.
/// - `Add` / `Mul` tile iff **both** operands carry; `Concat` iff all of them do
///   (a non-carrying operand would need broadcasting the tiler does not do).
///
/// Anything non-tileable lands in a [`TileStep::Whole`] run, where the reference
/// (untiled) evaluation and interception semantics apply verbatim.
fn classify(op: &Op, inputs: &[NodeId], carrying: &[bool]) -> (bool, bool) {
    let c = |i: usize| {
        inputs
            .get(i)
            .is_some_and(|id| carrying.get(id.index()).copied().unwrap_or(false))
    };
    match op {
        Op::Input => (true, false),
        Op::Const => (false, false),
        Op::Conv2d { .. } | Op::MatMul | Op::BiasAdd => (c(0), inputs.len() == 2 && c(0) && !c(1)),
        Op::Softmax => (c(0), false),
        Op::Add | Op::Mul => (c(0) || c(1), inputs.len() == 2 && c(0) && c(1)),
        Op::Concat => {
            let any = (0..inputs.len()).any(c);
            let all = !inputs.is_empty() && (0..inputs.len()).all(c);
            (any, all)
        }
        Op::Relu
        | Op::Tanh
        | Op::Sigmoid
        | Op::Atan
        | Op::Elu
        | Op::MaxPool { .. }
        | Op::AvgPool { .. }
        | Op::GlobalAvgPool
        | Op::Flatten
        | Op::Reshape { .. }
        | Op::ScalarMul { .. }
        | Op::Identity
        | Op::Clamp { .. }
        | Op::RangeRestore { .. } => (c(0), inputs.len() == 1 && c(0)),
    }
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
    /// node's recycled buffer. The `interceptor` is called after every operator, as under
    /// [`Executor`](crate::exec::Executor).
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
            ConeIndex { position, last_use }
        })
    }

    /// Runs one faulty pass as a **fault cone**: it starts from `golden` (the snapshot of
    /// the same feeds' fault-free pass) and evaluates only the nodes whose value can
    /// differ from it. Returns whether `keep`'s value deviates from golden; when it
    /// does, `values.get(keep)` is the faulty value, and when it does not, the value is
    /// golden's bit for bit (the store's slot may then be stale — read golden's copy).
    ///
    /// The walk visits the order from the start. A node is evaluated iff it is
    /// injectable and either one of `sites` or a reader of a deviating value; its
    /// output is then compared with golden bit for bit. Every other node keeps its
    /// golden value (restored by copy if an earlier pass through this store left it
    /// dirty). The walk stops once every site has run and no unvisited node reads a
    /// deviating value — a fault masked early costs only the nodes up to where it died.
    ///
    /// Exactness: kernels are deterministic within a process, so a node evaluated on
    /// golden inputs reproduces its golden output, and a skipped node's output is
    /// exactly what a full pass would compute. The result therefore equals a full
    /// [`ExecPlan::run_into`] under the same `interceptor`, provided the interceptor
    /// mutates only the outputs of `sites` (it sees only the nodes the cone
    /// evaluates). Any trial order through one store is exact: the store is primed
    /// from `golden` on first use (re-primed when the snapshot changes, or after any
    /// full pass), and tracks per slot whether it still holds golden.
    ///
    /// Warmed cone passes allocate nothing: each evaluated node writes into its own
    /// previous buffer. With metrics on, each evaluated node's time and call are
    /// recorded in the plan's timing slots, and the pass counts as one pass.
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
        for (pos, &id) in self.order.iter().enumerate() {
            if pos > last_site && live_until < pos {
                break;
            }
            let node = self.graph.node(id)?;
            let i = id.index();
            let evaluate = node.op.is_injectable()
                && (sites.contains(&id)
                    || node.inputs.iter().any(|x| values.cone.deviating[x.index()]));
            if !evaluate {
                if values.cone.dirty[i] {
                    values.restore_golden(id, golden)?;
                }
                values.cone.dirty[i] = false;
                values.cone.deviating[i] = false;
                continue;
            }
            values.recycle_slot(i);
            let start = timings.map(|_| Instant::now());
            self.backend.eval_node(node, values, &[], interceptor)?;
            if let (Some(t), Some(start)) = (timings, start) {
                t.record(id, start);
            }
            let deviates = !values.matches_golden(id, golden);
            values.cone.dirty[i] = deviates;
            values.cone.deviating[i] = deviates;
            if deviates {
                live_until = live_until.max(index.last_use[i]);
                keep_deviates |= id == keep;
            }
        }
        if let Some(t) = timings {
            t.passes.fetch_add(1, Ordering::Relaxed);
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

    /// Partitions this plan's topological order into a [`TiledSchedule`]: maximal runs
    /// of row-tileable nodes become [`TileStep::Segment`]s, everything else stays in
    /// [`TileStep::Whole`] runs with the untiled semantics. `keep` names nodes whose
    /// full-batch outputs the caller will read after the pass (a campaign passes its
    /// injection target's output); they are materialized even when consumed only inside
    /// their segment.
    ///
    /// The partition is structural — no shapes needed, so the schedule can be built
    /// before warming — and deterministic: the same graph always yields the same steps.
    pub fn tiled_schedule(&self, keep: &[NodeId]) -> TiledSchedule {
        let mut carrying = vec![false; self.graph.len()];
        let mut steps: Vec<TileStep> = Vec::new();
        let mut whole: Vec<NodeId> = Vec::new();
        let mut seg: Vec<NodeId> = Vec::new();
        for &id in &self.order {
            let Ok(node) = self.graph.node(id) else {
                continue;
            };
            let (carries, tileable) = classify(&node.op, &node.inputs, &carrying);
            if let Some(slot) = carrying.get_mut(id.index()) {
                *slot = carries;
            }
            if tileable {
                if !whole.is_empty() {
                    steps.push(TileStep::Whole(std::mem::take(&mut whole)));
                }
                seg.push(id);
            } else {
                if !seg.is_empty() {
                    let plan = self.finalize_segment(std::mem::take(&mut seg), keep, &carrying);
                    steps.push(TileStep::Segment(plan));
                }
                whole.push(id);
            }
        }
        if !seg.is_empty() {
            let plan = self.finalize_segment(seg, keep, &carrying);
            steps.push(TileStep::Segment(plan));
        }
        if !whole.is_empty() {
            steps.push(TileStep::Whole(whole));
        }
        TiledSchedule { steps }
    }

    /// Completes a segment's bookkeeping: which outputs to materialize, which carrying
    /// values to row-slice in.
    fn finalize_segment(
        &self,
        nodes: Vec<NodeId>,
        keep: &[NodeId],
        carrying: &[bool],
    ) -> SegmentPlan {
        let mut materialize = Vec::with_capacity(nodes.len());
        for &id in &nodes {
            let consumers = self.graph.consumers(id);
            let escapes = consumers.is_empty() || consumers.iter().any(|c| !nodes.contains(c));
            materialize.push(escapes || keep.contains(&id));
        }
        let mut externals: Vec<NodeId> = Vec::new();
        for &id in &nodes {
            let Ok(node) = self.graph.node(id) else {
                continue;
            };
            for &input in &node.inputs {
                if carrying.get(input.index()).copied().unwrap_or(false)
                    && !nodes.contains(&input)
                    && !externals.contains(&input)
                {
                    externals.push(input);
                }
            }
        }
        SegmentPlan {
            nodes,
            materialize,
            externals,
        }
    }

    /// Derives a row-group height from this plan's warmed shapes: the largest
    /// `tile_rows` whose worst-case segment working set (one row of every segment node
    /// plus every sliced external, 4 bytes per element, times `tile_rows`) fits
    /// `budget_bytes`. Returns at least 1; [`ExecPlan::run_tiled_into`] caps the value
    /// at the pass's actual batch rows.
    ///
    /// Requires a [warmed](ExecPlan::warm) plan — without recorded shapes (or with a
    /// schedule that has no segments) there is nothing to size against and the answer
    /// is 1.
    pub fn derive_tile_rows(&self, schedule: &TiledSchedule, budget_bytes: usize) -> usize {
        let Some(shapes) = self.shapes.get() else {
            return 1;
        };
        let row_bytes = |id: NodeId| -> usize {
            shapes
                .get(id.index())
                .and_then(|dims| dims.as_ref())
                .map(|dims| {
                    let per_row: usize = dims.get(1..).map(|d| d.iter().product()).unwrap_or(1);
                    per_row.max(1) * std::mem::size_of::<f32>()
                })
                .unwrap_or(0)
        };
        let mut worst = 0usize;
        for step in &schedule.steps {
            if let TileStep::Segment(seg) = step {
                let bytes: usize = seg
                    .nodes
                    .iter()
                    .chain(&seg.externals)
                    .map(|&id| row_bytes(id))
                    .sum();
                worst = worst.max(bytes);
            }
        }
        if worst == 0 {
            return 1;
        }
        (budget_bytes / worst).max(1)
    }

    /// Runs one forward pass under a [`TiledSchedule`], `tile_rows` batch rows at a
    /// time: each [`TileStep::Segment`] slices its carrying externals into row-group
    /// views, pushes the group through every segment node back-to-back (so the group's
    /// live activations stay cache-resident across the segment), materializes the
    /// outputs that escape the segment, and recycles the group's scratch.
    /// [`TileStep::Whole`] runs evaluate exactly as [`ExecPlan::run_into`] does.
    ///
    /// Semantics: with an interceptor that translates [`TileRows`] offsets (the fault
    /// injectors) — or with none — the pass's readable outputs are **bit-for-bit**
    /// identical to the untiled pass at every tile size, because every kernel sees the
    /// same per-row operands in the same order and row groups merely partition the
    /// batch. Only nodes evaluated whole or materialized are readable afterwards;
    /// interior segment scratch is not.
    ///
    /// `tile_rows` is clamped to `[1, batch rows]`; `tile_rows >= batch` degenerates to
    /// one group per segment (still exercising the tile code path).
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if a feed is missing, any operator receives invalid
    /// operands, or a segment external lacks a leading batch dimension shared by its
    /// peers.
    pub fn run_tiled_into(
        &self,
        values: &mut Values,
        feeds: &[(&str, Tensor)],
        interceptor: &mut dyn Interceptor,
        schedule: &TiledSchedule,
        tile_rows: usize,
    ) -> Result<(), GraphError> {
        values.reset(self.graph.len());
        values.begin_tiles(self.graph.len());
        let timings = self.timings.get();
        let spec = self.backend.spec();
        let mut seg_count = 0u64;
        let mut rows_done = 0u64;
        let mut seg_nanos = 0u64;
        for step in &schedule.steps {
            match step {
                TileStep::Whole(nodes) => {
                    for &id in nodes {
                        let node = self.graph.node(id)?;
                        if let Some(t) = timings {
                            let start = Instant::now();
                            self.backend.eval_node(node, values, feeds, interceptor)?;
                            t.record(id, start);
                        } else {
                            self.backend.eval_node(node, values, feeds, interceptor)?;
                        }
                    }
                }
                TileStep::Segment(seg) => {
                    let seg_start = timings.map(|_| Instant::now());
                    // Every carrying external must agree on the batch row count.
                    let mut total_rows: Option<usize> = None;
                    for &e in &seg.externals {
                        let dims = values.dims_of(e).ok_or(GraphError::UnknownNode(e))?;
                        let lead = *dims.first().ok_or_else(|| GraphError::ShapeError {
                            node: e,
                            message: "tiled segment input requires a leading batch dimension"
                                .into(),
                        })?;
                        match total_rows {
                            None => total_rows = Some(lead),
                            Some(rows) if rows == lead => {}
                            Some(rows) => {
                                return Err(GraphError::ShapeError {
                                    node: e,
                                    message: format!(
                                        "segment inputs disagree on batch rows: {lead} vs {rows}"
                                    ),
                                });
                            }
                        }
                    }
                    let total_rows = total_rows.unwrap_or(0);
                    let step_rows = tile_rows.clamp(1, total_rows.max(1));
                    let mut row_start = 0usize;
                    while row_start < total_rows {
                        let rows = step_rows.min(total_rows - row_start);
                        let tr = TileRows {
                            row_start,
                            rows,
                            total_rows,
                        };
                        for &e in &seg.externals {
                            if spec.is_some() {
                                values.slice_rows_to_tile_q(e, row_start, rows)?;
                            } else {
                                values.slice_rows_to_tile(e, row_start, rows)?;
                            }
                        }
                        for &id in &seg.nodes {
                            let node = self.graph.node(id)?;
                            if let Some(t) = timings {
                                let start = Instant::now();
                                self.backend.eval_node_tile(
                                    node,
                                    values,
                                    feeds,
                                    interceptor,
                                    tr,
                                )?;
                                let nanos =
                                    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                                t.node_nanos[id.index()].fetch_add(nanos, Ordering::Relaxed);
                            } else {
                                self.backend.eval_node_tile(
                                    node,
                                    values,
                                    feeds,
                                    interceptor,
                                    tr,
                                )?;
                            }
                        }
                        for (&id, &mat) in seg.nodes.iter().zip(&seg.materialize) {
                            if mat {
                                if spec.is_some() {
                                    values.materialize_tile_q(id, row_start == 0)?;
                                } else {
                                    values.materialize_tile(id, row_start == 0)?;
                                }
                            }
                        }
                        values.recycle_tiles();
                        row_start += rows;
                        rows_done += rows as u64;
                    }
                    seg_count += 1;
                    // One call per segment node per pass, however many row groups ran.
                    if let Some(t) = timings {
                        for &id in &seg.nodes {
                            t.node_calls[id.index()].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    if let Some(start) = seg_start {
                        seg_nanos = seg_nanos.saturating_add(
                            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
                        );
                    }
                }
            }
        }
        if let Some(t) = timings {
            t.passes.fetch_add(1, Ordering::Relaxed);
            t.tile_segments.fetch_add(seg_count, Ordering::Relaxed);
            t.tile_rows.fetch_add(rows_done, Ordering::Relaxed);
            t.tile_nanos.fetch_add(seg_nanos, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Runs one forward pass on `feeds` and records every node's output shape, making
    /// [`ExecPlan::output_dims`] available. Shapes are computed at most once per plan;
    /// subsequent calls only run the pass if recording has not happened yet.
    ///
    /// Recording is explicit (not part of [`ExecPlan::run_into`]) so single-shot
    /// executions — including every [`Executor`](crate::exec::Executor) call, which
    /// compiles a throwaway plan — never pay for shape bookkeeping they cannot use.
    ///
    /// # Errors
    ///
    /// See [`ExecPlan::run_into`].
    pub fn warm(&self, feeds: &[(&str, Tensor)]) -> Result<(), GraphError> {
        if self.shapes.get().is_some() {
            self.ensure_timings();
            return Ok(());
        }
        let values = self.run(feeds, &mut NoopInterceptor)?;
        // dims_of reads shapes from whichever representation the backend stored, so
        // warming a fixed-point plan records every node without decoding any mirror.
        let recorded: Vec<Option<Vec<usize>>> = (0..self.graph.len())
            .map(|i| values.dims_of(NodeId::new(i)).map(|d| d.to_vec()))
            .collect();
        let _ = self.shapes.set(recorded);
        self.ensure_timings();
        Ok(())
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
                tile_segments: AtomicU64::new(0),
                tile_rows: AtomicU64::new(0),
                tile_nanos: AtomicU64::new(0),
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
    ///   full or tiled pass, and once per cone pass only where the cone evaluated it,
    ///
    /// plus `plan.passes` for the pass total, and — when tiled passes ran — the
    /// per-segment tiling counters `plan.tile.segments`, `plan.tile.rows` and
    /// `plan.tile.nanos`. Slots are swapped to zero, so calling this repeatedly
    /// (e.g. once per campaign on a reused plan) never double-counts. A plan that
    /// is not timing publishes nothing.
    ///
    /// Note on `plan.op.<Kind>.calls` under tiling: a tiled pass counts one call per
    /// node, regardless of how many row groups it split the node into (use
    /// `plan.tile.rows` / `plan.tile.segments` for the group count).
    pub fn publish_timings(&self) {
        let Some(timings) = self.timings.get() else {
            return;
        };
        let passes = timings.passes.swap(0, Ordering::Relaxed);
        let tile_segments = timings.tile_segments.swap(0, Ordering::Relaxed);
        let tile_rows = timings.tile_rows.swap(0, Ordering::Relaxed);
        let tile_nanos = timings.tile_nanos.swap(0, Ordering::Relaxed);
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
        registry.counter("plan.tile.segments").add(tile_segments);
        registry.counter("plan.tile.rows").add(tile_rows);
        registry.counter("plan.tile.nanos").add(tile_nanos);
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
    use crate::exec::{Executor, RecordingInterceptor};
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
    fn plan_matches_executor_bit_for_bit() {
        let (graph, y) = toy();
        let plan = graph.compile().unwrap();
        let exec = Executor::new(&graph);
        for i in 0..5 {
            let input = Tensor::filled(vec![1, 4], 0.3 * i as f32);
            let a = exec.run_simple(&[("x", input.clone())], y).unwrap();
            let b = plan.run_simple(&[("x", input)], y).unwrap();
            assert_eq!(a, b, "plan output must equal executor output exactly");
        }
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
        let exec = Executor::new(&graph);
        let fresh = exec
            .run_simple(&[("x", Tensor::filled(vec![1, 4], 2.0))], y)
            .unwrap();
        assert_eq!(outputs[2], fresh);
    }

    #[test]
    fn interceptor_order_matches_executor() {
        let (graph, y) = toy();
        let plan = graph.compile().unwrap();
        let exec = Executor::new(&graph);
        let input = Tensor::ones(vec![1, 4]);
        let mut rec_plan = RecordingInterceptor::default();
        let mut rec_exec = RecordingInterceptor::default();
        plan.run(&[("x", input.clone())], &mut rec_plan).unwrap();
        exec.run_with(&[("x", input)], y, &mut rec_exec).unwrap();
        let ids =
            |r: &RecordingInterceptor| r.outputs.iter().map(|(id, _)| *id).collect::<Vec<_>>();
        assert_eq!(ids(&rec_plan), ids(&rec_exec));
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
        // Warming twice is a no-op.
        plan.warm(&[("x", Tensor::ones(vec![1, 4]))]).unwrap();
        assert_eq!(plan.order().len(), graph.len());
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
        // warm() itself ran one pass before the slots existed; only the two
        // explicit passes are timed.
        assert_eq!(plan.timed_passes(), 2);
        assert!(plan.node_nanos(y).is_some());

        // Publishing drains the slots into per-kind registry counters. Deltas, not
        // absolutes: the registry is process-global and other tests share it.
        let registry = ranger_obs::registry();
        let calls_before = registry.counter("plan.op.MatMul.calls").value();
        plan.publish_timings();
        // toy() has two dense layers = two MatMul nodes, each called twice.
        assert_eq!(
            registry.counter("plan.op.MatMul.calls").value() - calls_before,
            4
        );
        assert_eq!(plan.timed_passes(), 0, "publishing drains the slots");
        // Publishing again adds nothing.
        plan.publish_timings();
        assert_eq!(
            registry.counter("plan.op.MatMul.calls").value() - calls_before,
            4
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
            5
        );
        assert_eq!(
            registry.counter("plan.op.BiasAdd.calls").value(),
            bias_calls_before
        );
        ranger_obs::set_enabled(was_enabled);
    }

    /// A conv stack with a batch barrier in the middle of the carrying chain: input →
    /// conv → relu → pool → flatten → dense → softmax. Exercises Whole steps (input,
    /// constants, softmax), one real segment, and materialization of the segment
    /// output the softmax consumes.
    fn conv_net() -> (Graph, NodeId) {
        let mut rng = StdRng::seed_from_u64(11);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let c = b.conv2d(x, 2, 3, 3, 1, crate::op::Padding::Same, &mut rng);
        let c = b.relu(c);
        let p = b.max_pool(c, 2, 2);
        let f = b.flatten(p);
        let h = b.dense(f, 3 * 3 * 3, 8, &mut rng);
        let h = b.tanh(h);
        let y = b.dense(h, 8, 4, &mut rng);
        let probs = b.softmax(y);
        (b.into_graph(), probs)
    }

    #[test]
    fn tiled_schedule_partitions_around_barriers_and_constants() {
        let (graph, probs) = conv_net();
        let plan = graph.compile().unwrap();
        let schedule = plan.tiled_schedule(&[probs]);
        assert!(
            schedule.segments() >= 1,
            "the conv chain must form a segment"
        );
        // The softmax node is a barrier: it must sit in a Whole step.
        for step in schedule.steps() {
            if let TileStep::Segment(seg) = step {
                for &id in &seg.nodes {
                    assert!(
                        !matches!(
                            graph.node(id).unwrap().op,
                            Op::Softmax | Op::Const | Op::Input
                        ),
                        "barriers and non-carrying nodes must not tile"
                    );
                }
                assert_eq!(seg.nodes.len(), seg.materialize.len());
            }
        }
        // Scheduling is deterministic.
        assert_eq!(schedule, plan.tiled_schedule(&[probs]));
    }

    #[test]
    fn tiled_pass_matches_untiled_bit_for_bit_across_backends_and_tile_sizes() {
        use crate::backend::BackendKind;
        let (graph, probs) = conv_net();
        let feed: Vec<f32> = (0..6 * 2 * 6 * 6)
            .map(|i| (i as f32 * 0.13).sin())
            .collect();
        let feeds = [("x", Tensor::from_vec(vec![6, 2, 6, 6], feed).unwrap())];
        for kind in BackendKind::all() {
            let plan = graph.compile_with(kind.backend()).unwrap();
            let untiled = plan.run(&feeds, &mut NoopInterceptor).unwrap();
            let schedule = plan.tiled_schedule(&[probs]);
            assert!(schedule.segments() >= 1);
            // Tile sizes spanning single-row, uneven tail, exact divisor and >= batch.
            for tile_rows in [1usize, 2, 4, 6, 9] {
                let mut values = plan.buffers();
                plan.run_tiled_into(
                    &mut values,
                    &feeds,
                    &mut NoopInterceptor,
                    &schedule,
                    tile_rows,
                )
                .unwrap();
                let (a, b) = (untiled.get(probs).unwrap(), values.get(probs).unwrap());
                assert_eq!(a.dims(), b.dims());
                let (ab, bb): (Vec<u32>, Vec<u32>) = (
                    a.data().iter().map(|v| v.to_bits()).collect(),
                    b.data().iter().map(|v| v.to_bits()).collect(),
                );
                assert_eq!(ab, bb, "{kind:?} tile_rows={tile_rows} diverged");
            }
        }
    }

    #[test]
    fn tiled_pass_reuses_buffers_and_keeps_interior_scratch_unreadable() {
        let (graph, probs) = conv_net();
        let plan = graph.compile().unwrap();
        let feeds = [("x", Tensor::ones(vec![4, 2, 6, 6]))];
        plan.warm(&feeds).unwrap();
        let schedule = plan.tiled_schedule(&[probs]);
        let relu = graph
            .nodes()
            .iter()
            .find(|n| matches!(n.op, Op::Relu))
            .unwrap()
            .id;
        let mut values = plan.buffers();
        for _ in 0..3 {
            plan.run_tiled_into(&mut values, &feeds, &mut NoopInterceptor, &schedule, 2)
                .unwrap();
            // probs (whole-step) and the kept output are readable...
            assert_eq!(values.get(probs).unwrap().dims(), &[4, 4]);
            // ... but interior segment scratch (the relu, consumed only by the pool in
            // the same segment) is not a full-batch value after the pass.
            assert!(
                values.get(relu).is_err(),
                "interior segment outputs must not be readable post-pass"
            );
            // An untiled pass through the same store restores full readability.
            plan.run_into(&mut values, &feeds, &mut NoopInterceptor)
                .unwrap();
            assert_eq!(values.get(relu).unwrap().dims(), &[4, 3, 6, 6]);
        }
    }

    #[test]
    fn derive_tile_rows_scales_with_the_budget() {
        let (graph, probs) = conv_net();
        let plan = graph.compile().unwrap();
        let schedule = plan.tiled_schedule(&[probs]);
        // Unwarmed: nothing to size against.
        assert_eq!(
            plan.derive_tile_rows(&schedule, DEFAULT_TILE_BUDGET_BYTES),
            1
        );
        plan.warm(&[("x", Tensor::ones(vec![4, 2, 6, 6]))]).unwrap();
        let small = plan.derive_tile_rows(&schedule, 1);
        let big = plan.derive_tile_rows(&schedule, usize::MAX / 2);
        assert_eq!(small, 1, "a tiny budget still yields one row");
        assert!(big >= small, "a bigger budget never shrinks the group");
        assert!(big > 1, "an effectively unbounded budget allows many rows");
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
