//! Graph execution with per-operator interception hooks.
//!
//! A compiled [`ExecPlan`](crate::plan::ExecPlan) evaluates the graph in topological
//! order. After computing each operator's output it hands the node and a mutable
//! reference to the output tensor to the registered [`Interceptor`], which is how the
//! fault injector corrupts a single operator output mid-inference (the TensorFI model)
//! and how the bound profiler observes activation ranges without modifying the graph.
//! This module holds the pieces every pass shares: the hook, the [`Values`] store and
//! the per-node semantic reference [`eval_node_into`].

use crate::error::GraphError;
use crate::graph::{Node, NodeId};
use crate::op::Op;
use crate::ops;
use crate::ops::activation::{clamp, elu, range_restore, relu, sigmoid};
use crate::ops::linear::{bias_add_run, bias_layout};
use crate::ops::pool::PoolKind;
use crate::ops::shape_ops::concat_run;
use crate::region::{View, Window};
use ranger_tensor::{QTensor, Tensor};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Observes (and may mutate) operator outputs during a forward pass.
///
/// Implementors receive every operator node in execution order together with its freshly
/// computed output. Constants and graph inputs are not intercepted, mirroring the paper's
/// fault model in which memory is ECC-protected and faults arise in datapath computations.
///
/// On an f32 backend the hook is [`Interceptor::after_op`]; on a fixed-point
/// backend it is [`Interceptor::after_op_words`], which receives the operator's stored
/// integer words. The default `after_op_words` bridges to `after_op` through a
/// dequantize → mutate → requantize round trip (re-encoding only the elements the
/// interceptor actually changed), so existing interceptors keep working on every backend;
/// performance-critical implementors (the fault injector, the no-op golden-run hook)
/// override it to act on the words directly.
pub trait Interceptor {
    /// Called after `node`'s output has been computed; the output may be mutated in place.
    fn after_op(&mut self, node: &Node, output: &mut Tensor);

    /// Word-level twin of [`Interceptor::after_op`], called by fixed-point backends with
    /// the operator's raw integer output.
    ///
    /// The default implementation exposes the dequantized values to `after_op` and
    /// re-encodes exactly the elements whose bits changed — untouched words survive
    /// verbatim, so a read-only interceptor never perturbs values whose magnitude
    /// exceeds `f32` precision.
    fn after_op_words(&mut self, node: &Node, output: &mut QTensor) {
        let mirror = output.dequantize();
        let mut mutated = mirror.clone();
        self.after_op(node, &mut mutated);
        for (i, (&before, &after)) in mirror.data().iter().zip(mutated.data()).enumerate() {
            if before.to_bits() != after.to_bits() {
                output.set_from_f32(i, after);
            }
        }
    }
}

/// An interceptor that does nothing (fault-free golden runs).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopInterceptor;

impl Interceptor for NoopInterceptor {
    fn after_op(&mut self, _node: &Node, _output: &mut Tensor) {}

    fn after_op_words(&mut self, _node: &Node, _output: &mut QTensor) {}
}

/// One node's **lazily decoded** f32 mirror of the words a fixed-point backend stored.
///
/// [`Values::set_q`] arms the slot: it clears any previously decoded tensor and parks the
/// node's recycled f32 buffer in `seed`. The first [`Values::get`] for the node that pass
/// moves the seed out, decodes the words into it, and publishes it through `decoded` —
/// at most once per pass, under `&self`. Campaigns only read the judged output node, so
/// for every other node the decode (a full extra write+read of the activation) never
/// happens at all.
///
/// Concurrency shape: `OnceLock` provides the lazy-init-under-`&self`; the `RefCell`
/// around the seed is borrowed only inside the init closure and never escapes, so no
/// borrow is ever held across a call boundary. (`Values` is a per-worker store — the
/// `RefCell` makes it `!Sync`, which it never needed to be.)
#[derive(Debug, Clone, Default)]
struct LazyMirror {
    decoded: OnceLock<Tensor>,
    seed: RefCell<Option<Tensor>>,
}

/// The values produced by a full forward pass, indexed by node id.
///
/// A `Values` doubles as the reusable buffer arena of a compiled
/// [`ExecPlan`](crate::plan::ExecPlan): `ExecPlan::run_into` moves the previous pass's
/// tensors into a per-node recycle pool and every operator writes its output into its
/// node's recycled buffer. Since a node's output shape is constant across passes of the
/// same graph on same-shaped feeds, the buffers reach steady-state capacity after one
/// pass and repeated passes perform **zero output-tensor allocations**.
#[derive(Debug, Clone, Default)]
pub struct Values {
    values: Vec<Option<Tensor>>,
    /// Last pass's tensors, keyed by node id; [`Values::take_recycled`] hands them out as
    /// output buffers during the current pass.
    recycled: Vec<Option<Tensor>>,
    /// Raw fixed-point words, keyed by node id — the working set of a fixed-point
    /// backend, recycled exactly like the f32 tensors. Empty under an f32 backend.
    qvalues: Vec<Option<QTensor>>,
    qrecycled: Vec<Option<QTensor>>,
    /// Per-node lazy f32 mirrors of the stored words (see [`LazyMirror`]); armed by
    /// [`Values::set_q`], decoded on first [`Values::get`], recycled by [`Values::reset`].
    qmirrors: Vec<LazyMirror>,
    /// Constant-quantization cache tags: `(const data pointer, element count, format)`
    /// recorded when a constant node's words were stored, so later passes can reuse the
    /// quantization instead of re-encoding the whole weight tensor
    /// ([`Values::take_recycled_q_const`]). A tag is cleared whenever its slot is
    /// recycled through the generic path, so a store reused across plans can never leak
    /// stale words.
    qconst_tags: Vec<Option<(usize, usize, ranger_tensor::FixedSpec)>>,
    /// Fault-cone bookkeeping ([`ExecPlan::run_cone`](crate::plan::ExecPlan::run_cone)).
    pub(crate) cone: ConeSlots,
}

/// Per-slot state of fault-cone passes through one [`Values`] store.
#[derive(Debug, Clone, Default)]
pub(crate) struct ConeSlots {
    /// The id of the [`GoldenSnapshot`] the store was primed from; `None` until primed,
    /// and cleared by every [`Values::reset`] (a full pass overwrites the slots).
    pub(crate) primed: Option<u64>,
    /// Per node: the box outside which the slot holds the golden value (empty when the
    /// whole slot is golden). A cone pass restores it before anything reads the slot.
    pub(crate) dirty: Vec<Window>,
    /// Per node: the box of the slot's deviation from golden in the current cone pass
    /// (empty when it does not deviate). Only nodes the pass has already visited are
    /// meaningful; later ones are stale.
    pub(crate) deviating: Vec<Window>,
}

impl ConeSlots {
    /// Marks a store of `len` slots, all just set to `golden`'s values, as primed.
    pub(crate) fn primed_from(&mut self, golden: &GoldenSnapshot, len: usize) {
        self.dirty.clear();
        self.dirty.resize(len, Window::EMPTY);
        self.deviating.clear();
        self.deviating.resize(len, Window::EMPTY);
        self.primed = Some(golden.id);
    }
}

impl Values {
    pub(crate) fn new(len: usize) -> Self {
        let mut qmirrors = Vec::new();
        qmirrors.resize_with(len, LazyMirror::default);
        Values {
            values: vec![None; len],
            recycled: vec![None; len],
            qvalues: vec![None; len],
            qrecycled: vec![None; len],
            qmirrors,
            qconst_tags: vec![None; len],
            cone: ConeSlots::default(),
        }
    }

    /// Starts a new pass over a graph of `len` nodes: the previous pass's tensors become
    /// the recycle pool and the value slots are cleared (keeping their allocation).
    ///
    /// Slots that produced no value last pass keep whatever buffer the pool already held
    /// — in particular the pre-sized buffers seeded by [`Values::preallocate`] survive
    /// until their node first executes.
    pub(crate) fn reset(&mut self, len: usize) {
        self.values.resize(len, None);
        self.recycled.resize(len, None);
        self.qvalues.resize(len, None);
        self.qrecycled.resize(len, None);
        self.qmirrors.resize_with(len, LazyMirror::default);
        self.qconst_tags.resize(len, None);
        for index in 0..len {
            self.recycle_slot(index);
        }
        self.cone.primed = None;
    }

    /// Moves node `index`'s value into its recycle pool, so the node's next evaluation
    /// writes into the same allocation.
    ///
    /// Mirror buffers — decoded this pass, or still-armed seeds that were never read —
    /// return to the f32 pool, and the mirror is cleared so a stale decode can never be
    /// served later.
    pub(crate) fn recycle_slot(&mut self, index: usize) {
        if let Some(tensor) = self.values[index].take() {
            self.recycled[index] = Some(tensor);
        }
        let slot = &mut self.qmirrors[index];
        if let Some(tensor) = slot.decoded.take().or_else(|| slot.seed.get_mut().take()) {
            if self.recycled[index].is_none() {
                self.recycled[index] = Some(tensor);
            }
        }
        if let Some(words) = self.qvalues[index].take() {
            self.qrecycled[index] = Some(words);
        }
    }

    /// Re-arms node `index`'s lazy f32 mirror after its words changed in place (the
    /// [`Values::set_q`] discipline): any decode is invalidated, and a seed buffer is
    /// parked for the next read — the invalidated decode itself, else the pooled f32
    /// buffer.
    fn rearm_mirror(&mut self, index: usize) {
        let slot = &mut self.qmirrors[index];
        if let Some(decoded) = slot.decoded.take() {
            *slot.seed.get_mut() = Some(decoded);
        }
        let seed = slot.seed.get_mut();
        if seed.is_none() {
            *seed = self.recycled[index].take();
        }
    }

    /// Takes the recycled output buffer for `id` (an empty tensor if none is pooled).
    ///
    /// Execution backends call this at the start of a node evaluation and hand the buffer
    /// back through [`Values::set`]; the pairing is what makes repeated passes
    /// allocation-free.
    pub fn take_recycled(&mut self, id: NodeId) -> Tensor {
        self.recycled
            .get_mut(id.index())
            .and_then(Option::take)
            .unwrap_or_else(Tensor::empty)
    }

    /// Takes the recycled word buffer for `id`, reformatted to `spec` (an empty word
    /// tensor if none is pooled) — the fixed-point twin of [`Values::take_recycled`].
    pub fn take_recycled_q(&mut self, id: NodeId, spec: ranger_tensor::FixedSpec) -> QTensor {
        if let Some(tag) = self.qconst_tags.get_mut(id.index()) {
            *tag = None;
        }
        self.qrecycled
            .get_mut(id.index())
            .and_then(Option::take)
            .map(|mut q| {
                q.reset_fill(spec, &[0], 0);
                q
            })
            .unwrap_or_else(|| QTensor::new(spec))
    }

    /// Takes the recycled word buffer for the constant node `id`, **keeping its
    /// contents** when they are the already-quantized words of `value` under `spec`
    /// (validated against the tag recorded by [`Values::mark_q_const`]). Returns the
    /// buffer and whether it still holds that cached quantization — constants never
    /// change between passes of a plan, so a hit skips re-encoding the whole tensor.
    pub fn take_recycled_q_const(
        &mut self,
        id: NodeId,
        spec: ranger_tensor::FixedSpec,
        value: &Tensor,
    ) -> (QTensor, bool) {
        let tag = (value.data().as_ptr() as usize, value.len(), spec);
        let cached = self.qconst_tags.get(id.index()).copied().flatten() == Some(tag);
        match self.qrecycled.get_mut(id.index()).and_then(Option::take) {
            Some(q) if cached && q.spec() == spec && q.len() == value.len() => (q, true),
            Some(mut q) => {
                q.reset_fill(spec, &[0], 0);
                (q, false)
            }
            None => (QTensor::new(spec), false),
        }
    }

    /// Records that `id`'s stored words are the quantization of `value` under `spec`,
    /// enabling the [`Values::take_recycled_q_const`] cache on the next pass.
    pub fn mark_q_const(&mut self, id: NodeId, spec: ranger_tensor::FixedSpec, value: &Tensor) {
        if let Some(slot) = self.qconst_tags.get_mut(id.index()) {
            *slot = Some((value.data().as_ptr() as usize, value.len(), spec));
        }
    }

    /// Seeds the recycle pool for `id` with a buffer pre-sized for an output of shape
    /// `dims`, so even the first pass through this store allocates nothing for that node.
    pub(crate) fn preallocate(&mut self, id: NodeId, dims: &[usize]) {
        if let Some(slot) = self.recycled.get_mut(id.index()) {
            *slot = Some(Tensor::with_capacity_for(dims));
        }
    }

    /// Seeds the word recycle pool for `id` with a buffer pre-sized for an output of
    /// shape `dims` — the fixed-point twin of [`Values::preallocate`], applied when the
    /// plan's backend computes on words.
    pub(crate) fn preallocate_q(
        &mut self,
        id: NodeId,
        spec: ranger_tensor::FixedSpec,
        dims: &[usize],
    ) {
        if let Some(slot) = self.qrecycled.get_mut(id.index()) {
            *slot = Some(QTensor::with_capacity_for(spec, dims));
        }
        if let Some(tag) = self.qconst_tags.get_mut(id.index()) {
            *tag = None;
        }
    }

    /// Returns the value computed for `id`.
    ///
    /// On a fixed-point backend this is the dequantized mirror of the stored words (see
    /// [`Values::get_q`]), so campaign judges, parity tests and report code read every
    /// backend's outputs through the same accessor. The mirror is **lazy**: a node's
    /// words are decoded at most once per pass, on the first `get` for that node —
    /// nodes nobody reads (every intermediate of a campaign pass) never decode at all.
    /// [`Values::set_q`] invalidates the slot whenever new words are stored, so a stale
    /// mirror is never served.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] if the node was not evaluated.
    pub fn get(&self, id: NodeId) -> Result<&Tensor, GraphError> {
        if let Some(value) = self.values.get(id.index()).and_then(|v| v.as_ref()) {
            return Ok(value);
        }
        let q = self
            .qvalues
            .get(id.index())
            .and_then(|v| v.as_ref())
            .ok_or(GraphError::UnknownNode(id))?;
        let slot = &self.qmirrors[id.index()];
        Ok(slot.decoded.get_or_init(|| {
            let mut mirror = slot.seed.borrow_mut().take().unwrap_or_else(Tensor::empty);
            q.dequantize_into(&mut mirror);
            mirror
        }))
    }

    /// The dimensions of `id`'s computed value — read from the stored words on a
    /// fixed-point backend, so checking a shape never forces a mirror decode.
    pub fn dims_of(&self, id: NodeId) -> Option<&[usize]> {
        if let Some(tensor) = self.values.get(id.index()).and_then(|v| v.as_ref()) {
            return Some(tensor.dims());
        }
        self.qvalues
            .get(id.index())
            .and_then(|v| v.as_ref())
            .map(|q| q.dims())
    }

    /// Whether `id`'s f32 mirror has been decoded this pass — test instrumentation for
    /// the laziness contract.
    #[doc(hidden)]
    pub fn mirror_decoded(&self, id: NodeId) -> bool {
        self.qmirrors
            .get(id.index())
            .is_some_and(|slot| slot.decoded.get().is_some())
    }

    /// Returns the raw fixed-point words computed for `id` (fixed-point backends only).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] if the node was not evaluated on a fixed-point
    /// backend.
    pub fn get_q(&self, id: NodeId) -> Result<&QTensor, GraphError> {
        self.qvalues
            .get(id.index())
            .and_then(|v| v.as_ref())
            .ok_or(GraphError::UnknownNode(id))
    }

    /// Stores the computed value for `id` (backends pair this with
    /// [`Values::take_recycled`]).
    pub fn set(&mut self, id: NodeId, value: Tensor) {
        self.values[id.index()] = Some(value);
    }

    /// Stores the computed words for `id` (fixed-point backends pair this with
    /// [`Values::take_recycled_q`]) and **arms the lazy f32 mirror**: any previously
    /// decoded mirror for the node is invalidated, and the node's recycled f32 buffer is
    /// parked as the seed the first [`Values::get`] will decode into. Storing words after
    /// *any* mutation — kernel output, word-level fault injection, or the generic
    /// interceptor bridge — therefore forces the next read to decode fresh words.
    pub fn set_q(&mut self, id: NodeId, value: QTensor) {
        self.qvalues[id.index()] = Some(value);
        let seed = self.take_recycled(id);
        let slot = &mut self.qmirrors[id.index()];
        slot.decoded.take();
        *slot.seed.get_mut() = Some(seed);
    }

    /// Iterates over all evaluated `(node id, tensor)` pairs.
    ///
    /// On a fixed-point backend this decodes the mirror of **every** stored node — it is
    /// the whole-graph introspection path (FLOPs profiling, debugging); hot paths read
    /// single nodes through [`Values::get`] instead.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Tensor)> {
        (0..self.values.len().max(self.qvalues.len())).filter_map(move |i| {
            let id = NodeId::new(i);
            self.get(id).ok().map(|t| (id, t))
        })
    }

    /// Copies `golden`'s value of `id` into the node's slot, reusing the slot's (or its
    /// pool's) allocation.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] if the snapshot holds no value for `id`.
    pub(crate) fn restore_golden(
        &mut self,
        id: NodeId,
        golden: &GoldenSnapshot,
    ) -> Result<(), GraphError> {
        let i = id.index();
        if let Some(g) = golden.values.get(i).and_then(Option::as_ref) {
            let mut buf = match self.values[i].take() {
                Some(buf) => buf,
                None => self.take_recycled(id),
            };
            buf.reset_from_slice(g.dims(), g.data())
                .expect("shape and data of an existing tensor agree");
            self.values[i] = Some(buf);
        } else if let Some(g) = golden.qvalues.get(i).and_then(Option::as_ref) {
            let mut buf = match self.qvalues[i].take() {
                Some(buf) => buf,
                None => self.take_recycled_q(id, g.spec()),
            };
            buf.reset_from_words(g.spec(), g.dims(), g.words())
                .expect("shape and words of an existing tensor agree");
            self.qvalues[i] = Some(buf);
            self.rearm_mirror(i);
        } else {
            return Err(GraphError::UnknownNode(id));
        }
        Ok(())
    }

    /// Copies `golden`'s value of `id` into the slot inside `window` only (a box in the
    /// value's view); the rest of the slot must already be golden. A slot that holds no
    /// value, or one of another shape, is restored whole.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] if the snapshot holds no value for `id`.
    pub(crate) fn restore_window(
        &mut self,
        id: NodeId,
        golden: &GoldenSnapshot,
        window: &Window,
    ) -> Result<(), GraphError> {
        let i = id.index();
        let view = golden.view(id);
        if let (Some(slot), Some(g)) = (&mut self.values[i], golden.value(id)) {
            if slot.dims() == g.dims() {
                let (dst, src) = (slot.data_mut(), g.data());
                window.for_each_run(view, |r| dst[r.clone()].copy_from_slice(&src[r]));
                return Ok(());
            }
        } else if let (Some(slot), Some(g)) = (&mut self.qvalues[i], golden.words(id)) {
            if slot.spec() == g.spec() && slot.dims() == g.dims() {
                let (dst, src) = (slot.words_mut(), g.words());
                window.for_each_run(view, |r| dst[r.clone()].copy_from_slice(&src[r]));
                self.rearm_mirror(i);
                return Ok(());
            }
        }
        self.restore_golden(id, golden)
    }

    /// The bounding box of the elements inside `window` where `id`'s slot differs from
    /// `golden`'s value **bit for bit**: `to_bits` on f32 (so `-0.0` differs from `+0.0`
    /// and a NaN equals itself), word equality on fixed-point. Empty when they agree
    /// everywhere in the box; the whole value when the shapes or formats differ.
    pub(crate) fn deviation(&self, id: NodeId, golden: &GoldenSnapshot, window: &Window) -> Window {
        let i = id.index();
        let view = golden.view(id);
        match (&self.values[i], &self.qvalues[i]) {
            (Some(v), _) => match golden.value(id) {
                Some(g) if v.dims() == g.dims() => {
                    window.deviation(view, v.data(), g.data(), |a, b| a.to_bits() == b.to_bits())
                }
                _ => Window::whole(view),
            },
            (None, Some(q)) => match golden.words(id) {
                Some(g) if q.spec() == g.spec() && q.dims() == g.dims() => {
                    window.deviation(view, q.words(), g.words(), |a, b| a == b)
                }
                _ => Window::whole(view),
            },
            (None, None) => Window::whole(view),
        }
    }

    /// Hands `node`'s stored output to `interceptor` in place — `after_op` on an f32
    /// slot, `after_op_words` on a word slot (re-arming its lazy mirror afterwards, as
    /// [`Values::set_q`] does).
    pub(crate) fn intercept(&mut self, node: &Node, interceptor: &mut dyn Interceptor) {
        let i = node.id.index();
        if let Some(value) = &mut self.values[i] {
            interceptor.after_op(node, value);
        } else if let Some(words) = &mut self.qvalues[i] {
            interceptor.after_op_words(node, words);
            self.rearm_mirror(i);
        }
    }

    /// Takes `id`'s stored f32 value out of its slot, to be computed over a window and
    /// stored back with [`Values::set`].
    pub(crate) fn take_value(&mut self, id: NodeId) -> Option<Tensor> {
        self.values[id.index()].take()
    }

    /// Takes `id`'s stored words out of their slot, to be computed over a window and
    /// stored back with [`Values::put_words`].
    pub(crate) fn take_words(&mut self, id: NodeId) -> Option<QTensor> {
        self.qvalues[id.index()].take()
    }

    /// Stores words taken with [`Values::take_words`] back after an in-place change,
    /// re-arming the lazy mirror as [`Values::set_q`] does.
    pub(crate) fn put_words(&mut self, id: NodeId, words: QTensor) {
        self.qvalues[id.index()] = Some(words);
        self.rearm_mirror(id.index());
    }
}

/// Source of process-unique [`GoldenSnapshot`] ids.
static NEXT_SNAPSHOT_ID: AtomicU64 = AtomicU64::new(1);

/// One input's golden pass, frozen per node: the state a fault-cone pass
/// ([`ExecPlan::run_cone`](crate::plan::ExecPlan::run_cone)) starts from and compares
/// against. Take it with [`ExecPlan::snapshot`](crate::plan::ExecPlan::snapshot) right
/// after a fault-free pass.
///
/// Every non-constant node's value is kept as the backend stored it: an f32 tensor, or
/// raw words on a fixed-point backend. Constants are left out — they never deviate, and
/// priming a store re-materializes them through the backend. Unlike [`Values`] (whose
/// lazy mirrors make it `!Sync`), a snapshot is plain data, so a campaign shares one per
/// input across all its workers. Each snapshot carries a process-unique id, which is how
/// a store remembers which snapshot it was primed from: an address could be reused by a
/// later snapshot once this one is freed.
#[derive(Debug)]
pub struct GoldenSnapshot {
    pub(crate) id: u64,
    values: Vec<Option<Tensor>>,
    qvalues: Vec<Option<QTensor>>,
    /// Each captured value's (channel, row, column) view, the coordinates of the fault
    /// cone's boxes.
    views: Vec<View>,
}

impl GoldenSnapshot {
    /// An empty snapshot over a graph of `len` nodes, with a fresh id.
    pub(crate) fn new(len: usize) -> Self {
        GoldenSnapshot {
            id: NEXT_SNAPSHOT_ID.fetch_add(1, Ordering::Relaxed),
            values: vec![None; len],
            qvalues: vec![None; len],
            views: vec![View::default(); len],
        }
    }

    /// The captured f32 value of `id`, if the backend stored one.
    fn value(&self, id: NodeId) -> Option<&Tensor> {
        self.values.get(id.index()).and_then(Option::as_ref)
    }

    /// The captured words of `id`, if the backend stored words.
    fn words(&self, id: NodeId) -> Option<&QTensor> {
        self.qvalues.get(id.index()).and_then(Option::as_ref)
    }

    /// The view of `id`'s captured value.
    pub(crate) fn view(&self, id: NodeId) -> View {
        self.views[id.index()]
    }

    /// Records the view of `id`'s value without capturing it (a constant's).
    pub(crate) fn set_view(&mut self, id: NodeId, view: View) {
        self.views[id.index()] = view;
    }

    /// Copies `id`'s value out of `values` (f32 tensor or words, whichever the backend
    /// stored).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] if the node holds no value.
    pub(crate) fn capture(&mut self, values: &Values, id: NodeId) -> Result<(), GraphError> {
        let i = id.index();
        if let Some(v) = values.values.get(i).and_then(Option::as_ref) {
            self.views[i] = View::of(v.dims());
            self.values[i] = Some(v.clone());
        } else {
            let words = values.get_q(id)?;
            self.views[i] = View::of(words.dims());
            self.qvalues[i] = Some(words.clone());
        }
        Ok(())
    }
}

/// Builds the [`GraphError::ArityMismatch`] for a node that received the wrong number of
/// inputs — shared by every backend's operand checks.
pub fn arity_err(node: &Node, expected: usize) -> GraphError {
    GraphError::ArityMismatch {
        node: node.id,
        op: node.op.kind_name().to_string(),
        expected,
        actual: node.inputs.len(),
    }
}

pub(crate) fn input<'v>(
    node: &Node,
    values: &'v Values,
    idx: usize,
) -> Result<&'v Tensor, GraphError> {
    let id = *node
        .inputs
        .get(idx)
        .ok_or_else(|| arity_err(node, idx + 1))?;
    values.get(id)
}

/// Evaluates one node given the values of its inputs and the feed list, writing the
/// result into the recycled buffer `out`.
///
/// This is the workspace's **single semantic reference**: the f32
/// [`ReferenceBackend`](crate::backend::ReferenceBackend) dispatches here, the
/// [`SimdBackend`](crate::backend::SimdBackend) delegates every operator it does not
/// vectorize here, and every backend is pinned against it by parity tests, so
/// execution paths cannot diverge semantically. `out` is an output
/// buffer whose allocation is reused (see [`Values::take_recycled`]); on error its
/// contents are unspecified but no value is stored for the node.
///
/// # Errors
///
/// Returns a [`GraphError`] if a feed is missing or any operator receives invalid
/// operands.
pub fn eval_node_into(
    node: &Node,
    values: &Values,
    feeds: &[(&str, Tensor)],
    out: &mut Tensor,
) -> Result<(), GraphError> {
    match &node.op {
        Op::Input => {
            let fed = feeds
                .iter()
                .find(|(name, _)| *name == node.name)
                .map(|(_, t)| t)
                .or(node.value.as_ref())
                .ok_or_else(|| GraphError::MissingFeed(node.name.clone()))?;
            out.reset_from_slice(fed.dims(), fed.data())
                .expect("shape and data of an existing tensor agree");
            Ok(())
        }
        Op::Const => {
            let value = node
                .value
                .as_ref()
                .ok_or(GraphError::MissingConstValue(node.id))?;
            out.reset_from_slice(value.dims(), value.data())
                .expect("shape and data of an existing tensor agree");
            Ok(())
        }
        Op::Conv2d { stride, padding } => {
            if node.inputs.len() != 2 {
                return Err(arity_err(node, 2));
            }
            let x = input(node, values, 0)?;
            let w = input(node, values, 1)?;
            ops::conv2d_forward_into(node.id, x, w, *stride, *padding, out)
        }
        Op::MatMul => {
            if node.inputs.len() != 2 {
                return Err(arity_err(node, 2));
            }
            ops::matmul_forward_into(
                node.id,
                input(node, values, 0)?,
                input(node, values, 1)?,
                out,
            )
        }
        Op::BiasAdd => {
            if node.inputs.len() != 2 {
                return Err(arity_err(node, 2));
            }
            ops::bias_add_forward_into(
                node.id,
                input(node, values, 0)?,
                input(node, values, 1)?,
                out,
            )
        }
        Op::Relu => {
            ops::relu_forward_into(input(node, values, 0)?, out);
            Ok(())
        }
        Op::Tanh => {
            ops::tanh_forward_into(input(node, values, 0)?, out);
            Ok(())
        }
        Op::Sigmoid => {
            ops::sigmoid_forward_into(input(node, values, 0)?, out);
            Ok(())
        }
        Op::Atan => {
            ops::atan_forward_into(input(node, values, 0)?, out);
            Ok(())
        }
        Op::Elu => {
            ops::elu_forward_into(input(node, values, 0)?, out);
            Ok(())
        }
        Op::Softmax => ops::softmax_forward_into(node.id, input(node, values, 0)?, out),
        Op::MaxPool { kernel, stride } => {
            ops::max_pool_forward_into(node.id, input(node, values, 0)?, *kernel, *stride, out)
        }
        Op::AvgPool { kernel, stride } => {
            ops::avg_pool_forward_into(node.id, input(node, values, 0)?, *kernel, *stride, out)
        }
        Op::GlobalAvgPool => {
            ops::global_avg_pool_forward_into(node.id, input(node, values, 0)?, out)
        }
        Op::Flatten => ops::flatten_forward_into(node.id, input(node, values, 0)?, out),
        Op::Reshape { dims } => {
            ops::reshape_forward_into(node.id, input(node, values, 0)?, dims, out)
        }
        Op::Concat => {
            if node.inputs.is_empty() {
                return Err(arity_err(node, 1));
            }
            let mut tensors = Vec::with_capacity(node.inputs.len());
            for i in 0..node.inputs.len() {
                tensors.push(input(node, values, i)?);
            }
            ops::concat_forward_into(node.id, &tensors, out)
        }
        Op::Add => {
            if node.inputs.len() != 2 {
                return Err(arity_err(node, 2));
            }
            ops::add_forward_into(
                node.id,
                input(node, values, 0)?,
                input(node, values, 1)?,
                out,
            )
        }
        Op::Mul => {
            if node.inputs.len() != 2 {
                return Err(arity_err(node, 2));
            }
            ops::mul_forward_into(
                node.id,
                input(node, values, 0)?,
                input(node, values, 1)?,
                out,
            )
        }
        Op::ScalarMul { factor } => {
            let factor = *factor;
            input(node, values, 0)?.map_into(out, |v| v * factor);
            Ok(())
        }
        Op::Identity => {
            let x = input(node, values, 0)?;
            out.reset_from_slice(x.dims(), x.data())
                .expect("shape and data of an existing tensor agree");
            Ok(())
        }
        Op::Clamp { lo, hi } => {
            ops::clamp_forward_into(input(node, values, 0)?, *lo, *hi, out);
            Ok(())
        }
        Op::RangeRestore { lo, hi, policy } => {
            ops::range_restore_forward_into(input(node, values, 0)?, *lo, *hi, *policy, out);
            Ok(())
        }
    }
}

/// Evaluates `node` over `window` of its output (a box in the output's view) into
/// `out`, which already holds a value of the output's shape; every element outside the
/// window is left as it is. This is the f32 fault cone's windowed twin of
/// [`eval_node_into`]: each operator runs the same per-element kernel, so every
/// computed element is bit for bit the full pass's. An operator without a windowed
/// kernel (or operands it cannot window) is computed whole.
///
/// # Errors
///
/// Returns a [`GraphError`] if an operator receives invalid operands.
pub(crate) fn eval_window_into(
    node: &Node,
    values: &Values,
    window: &Window,
    out: &mut Tensor,
) -> Result<(), GraphError> {
    let view = View::of(out.dims());
    match &node.op {
        Op::Conv2d { stride, padding } if node.inputs.len() == 2 => ops::conv2d_window_into(
            node.id,
            input(node, values, 0)?,
            input(node, values, 1)?,
            *stride,
            *padding,
            &window.ranges(),
            out,
        ),
        Op::MaxPool { kernel, stride } | Op::AvgPool { kernel, stride } => {
            let kind = if matches!(node.op, Op::MaxPool { .. }) {
                PoolKind::Max
            } else {
                PoolKind::Avg
            };
            let x = input(node, values, 0)?;
            ops::pool_window_into(node.id, x, *kernel, *stride, kind, &window.ranges(), out)
        }
        Op::Relu => map_window(node, values, window, out, relu),
        Op::Tanh => map_window(node, values, window, out, f32::tanh),
        Op::Sigmoid => map_window(node, values, window, out, sigmoid),
        Op::Atan => map_window(node, values, window, out, f32::atan),
        Op::Elu => map_window(node, values, window, out, elu),
        Op::ScalarMul { factor } => {
            let factor = *factor;
            map_window(node, values, window, out, move |v| v * factor)
        }
        Op::Identity => map_window(node, values, window, out, |v| v),
        Op::Clamp { lo, hi } => map_window(node, values, window, out, clamp(*lo, *hi)),
        Op::RangeRestore { lo, hi, policy } => {
            map_window(node, values, window, out, range_restore(*lo, *hi, *policy))
        }
        Op::BiasAdd if node.inputs.len() == 2 => {
            let (x, bias) = (input(node, values, 0)?, input(node, values, 1)?);
            let broadcast = bias_layout(node.id, x.dims(), bias.len())?;
            if x.dims() != out.dims() || broadcast == 0 {
                return eval_node_into(node, values, &[], out);
            }
            let (x, bias, o) = (x.data(), bias.data(), out.data_mut());
            window.for_each_run(view, |r| bias_add_run(x, bias, broadcast, r, o));
            Ok(())
        }
        Op::Add => zip_window(node, values, window, out, |a, b| a + b),
        Op::Mul => zip_window(node, values, window, out, |a, b| a * b),
        Op::Concat if view.batch1 => {
            let mut total = 0;
            for &id in &node.inputs {
                total += values.get(id)?.len();
            }
            if total != out.len() {
                return eval_node_into(node, values, &[], out);
            }
            let o = out.data_mut();
            let inputs = || {
                node.inputs
                    .iter()
                    .filter_map(|&id| values.get(id).ok())
                    .map(Tensor::data)
            };
            window.for_each_run(view, |r| concat_run(inputs(), r, o));
            Ok(())
        }
        _ => eval_node_into(node, values, &[], out),
    }
}

/// `out = f(x)` over `window` for the unary `node`; computed whole if the shapes differ.
fn map_window(
    node: &Node,
    values: &Values,
    window: &Window,
    out: &mut Tensor,
    f: impl Fn(f32) -> f32,
) -> Result<(), GraphError> {
    let x = input(node, values, 0)?;
    if x.dims() != out.dims() {
        return eval_node_into(node, values, &[], out);
    }
    let view = View::of(x.dims());
    let (x, o) = (x.data(), out.data_mut());
    window.for_each_run(view, |r| {
        for (o, &v) in o[r.clone()].iter_mut().zip(&x[r]) {
            *o = f(v);
        }
    });
    Ok(())
}

/// `out = f(a, b)` over `window` for the binary `node`; computed whole if the shapes
/// differ.
fn zip_window(
    node: &Node,
    values: &Values,
    window: &Window,
    out: &mut Tensor,
    f: impl Fn(f32, f32) -> f32,
) -> Result<(), GraphError> {
    if node.inputs.len() != 2 {
        return Err(arity_err(node, 2));
    }
    let (a, b) = (input(node, values, 0)?, input(node, values, 1)?);
    if a.dims() != out.dims() || b.dims() != out.dims() {
        return eval_node_into(node, values, &[], out);
    }
    let view = View::of(a.dims());
    let (a, b, o) = (a.data(), b.data(), out.data_mut());
    window.for_each_run(view, |r| {
        for ((o, &p), &q) in o[r.clone()].iter_mut().zip(&a[r.clone()]).zip(&b[r]) {
            *o = f(p, q);
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::op::Padding;

    fn relu_net() -> (Graph, NodeId, NodeId) {
        let mut g = Graph::new();
        let x = g.add_input("x");
        let w = g.add_const(
            "w",
            Tensor::from_vec(vec![2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap(),
            true,
        );
        let mm = g.add_node("matmul", Op::MatMul, vec![x, w]);
        let relu = g.add_node("relu", Op::Relu, vec![mm]);
        (g, mm, relu)
    }

    #[test]
    fn forward_pass_computes_expected_values() {
        let (g, _, relu) = relu_net();
        let plan = g.compile().unwrap();
        let x = Tensor::from_vec(vec![1, 2], vec![-1.0, 2.0]).unwrap();
        let out = plan.run_simple(&[("x", x)], relu).unwrap();
        assert_eq!(out.data(), &[0.0, 2.0]);
    }

    #[test]
    fn missing_feed_is_an_error() {
        let (g, _, relu) = relu_net();
        let plan = g.compile().unwrap();
        assert!(matches!(
            plan.run_simple(&[], relu),
            Err(GraphError::MissingFeed(_))
        ));
    }

    #[test]
    fn interceptor_sees_each_operator_once_in_order() {
        struct RecordIds(Vec<NodeId>);
        impl Interceptor for RecordIds {
            fn after_op(&mut self, node: &Node, _output: &mut Tensor) {
                self.0.push(node.id);
            }
        }
        let (g, mm, relu) = relu_net();
        let mut rec = RecordIds(Vec::new());
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, 1.0]).unwrap();
        g.compile().unwrap().run(&[("x", x)], &mut rec).unwrap();
        assert_eq!(rec.0, vec![mm, relu]);
    }

    #[test]
    fn interceptor_can_corrupt_an_operator_output() {
        struct CorruptMatmul;
        impl Interceptor for CorruptMatmul {
            fn after_op(&mut self, node: &Node, output: &mut Tensor) {
                if node.name == "matmul" {
                    output.data_mut()[0] = 1.0e6;
                }
            }
        }
        let (g, _, relu) = relu_net();
        let plan = g.compile().unwrap();
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, 1.0]).unwrap();
        let values = plan.run(&[("x", x)], &mut CorruptMatmul).unwrap();
        assert_eq!(values.get(relu).unwrap().data()[0], 1.0e6);
    }

    #[test]
    fn clamp_node_restricts_corrupted_value() {
        struct CorruptMatmul;
        impl Interceptor for CorruptMatmul {
            fn after_op(&mut self, node: &Node, output: &mut Tensor) {
                if node.name == "matmul" {
                    output.data_mut()[0] = 1.0e6;
                }
            }
        }
        let (mut g, mm, relu) = relu_net();
        g.insert_after(mm, "ranger", Op::Clamp { lo: 0.0, hi: 10.0 })
            .unwrap();
        let plan = g.compile().unwrap();
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, 1.0]).unwrap();
        let values = plan.run(&[("x", x)], &mut CorruptMatmul).unwrap();
        assert_eq!(values.get(relu).unwrap().data()[0], 10.0);
    }

    #[test]
    fn conv_graph_end_to_end() {
        let mut g = Graph::new();
        let x = g.add_input("image");
        let w = g.add_const("w", Tensor::ones(vec![2, 1, 3, 3]), true);
        let b = g.add_const("b", Tensor::zeros(vec![2]), true);
        let conv = g.add_node(
            "conv",
            Op::Conv2d {
                stride: 1,
                padding: Padding::Same,
            },
            vec![x, w],
        );
        let biased = g.add_node("bias", Op::BiasAdd, vec![conv, b]);
        let relu = g.add_node("relu", Op::Relu, vec![biased]);
        let pool = g.add_node(
            "pool",
            Op::MaxPool {
                kernel: 2,
                stride: 2,
            },
            vec![relu],
        );
        let flat = g.add_node("flatten", Op::Flatten, vec![pool]);

        let plan = g.compile().unwrap();
        let img = Tensor::ones(vec![1, 1, 4, 4]);
        let out = plan.run_simple(&[("image", img)], flat).unwrap();
        assert_eq!(out.dims(), &[1, 8]);
        assert!(out.data().iter().all(|&v| v > 0.0));
    }

    #[test]
    fn arity_errors_are_reported() {
        let mut g = Graph::new();
        let x = g.add_input("x");
        g.add_node("bad", Op::MatMul, vec![x]);
        let bad = g.by_name("bad").unwrap();
        let plan = g.compile().unwrap();
        let err = plan
            .run_simple(&[("x", Tensor::ones(vec![1, 1]))], bad)
            .unwrap_err();
        assert!(matches!(err, GraphError::ArityMismatch { .. }));
    }

    #[test]
    fn values_iterate_in_id_order() {
        let (g, mm, relu) = relu_net();
        let plan = g.compile().unwrap();
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, 1.0]).unwrap();
        let values = plan.run(&[("x", x)], &mut NoopInterceptor).unwrap();
        let ids: Vec<NodeId> = values.iter().map(|(id, _)| id).collect();
        assert!(ids.contains(&mm) && ids.contains(&relu));
        assert!(values.get(relu).is_ok());
    }
}
