//! Pluggable execution backends: the kernel-dispatch seam behind
//! [`ExecPlan`](crate::plan::ExecPlan).
//!
//! An [`ExecPlan`](crate::plan::ExecPlan) owns *what* to run (the topological order, the
//! buffer arena contract, the interception points); an [`ExecBackend`] owns *how* each
//! node computes. [`Graph::compile`](crate::graph::Graph::compile) plans onto the `f32`
//! backend ([`BackendKind::F32`]): the runtime-dispatched kernels of [`SimdBackend`],
//! and [`Graph::compile_with`](crate::graph::Graph::compile_with) plans onto any other
//! backend. [`ReferenceBackend`] — plain `f32` dispatch through [`eval_node_into`], the
//! workspace's single semantic reference — runs no production pass: it is the oracle
//! every backend is pinned against by parity tests (`tests/backend_parity.rs`,
//! `tests/backend_differential.rs`), the discipline `tests/pipeline_parity.rs`
//! established for the plan itself.
//!
//! The first real alternative is [`FixedBackend`]: genuine Q16/Q32 fixed-point inference.
//! Every activation is stored as its raw integer word
//! ([`QTensor`]), linear operators (convolution, matmul, bias,
//! residual add, pooling) run saturating integer arithmetic with a wide accumulator and a
//! single rescale per dot product, and transcendental activations (tanh, sigmoid, atan,
//! ELU, softmax) evaluate through the dequantize → `f32` → requantize bridge — the
//! software stand-in for the lookup tables a fixed-point datapath would use. Alongside
//! the words the [`Values`] store serves a **lazily** dequantized `f32` mirror: a node's
//! words decode on the first [`Values::get`] of that pass (and never, for nodes nobody
//! reads), so judges, recorders and report code read every backend through the same
//! accessors without every pass paying a full decode of every activation.
//!
//! Backend selection travels through configurations as a [`BackendKind`]; the
//! `RANGER_BACKEND` environment variable sets the workspace-wide default (mirroring
//! `RANGER_WORKERS`), which is how CI sweeps entire test suites through the fixed-point
//! path.

use crate::error::GraphError;
use crate::exec::{arity_err, eval_node_into, eval_window_into, input, Interceptor, Values};
use crate::graph::{Node, NodeId};
use crate::op::{Op, RestorePolicy};
use crate::ops::activation::{elu, sigmoid, softmax_layout};
use crate::ops::conv::{conv2d_geometry, Conv2dGeometry};
use crate::ops::linear::bias_layout;
use crate::ops::pool::{global_pool_layout, pool_layout, PoolLayout};
use crate::ops::shape_ops::{concat_layout, concat_run};
use crate::region::{View, Window};
use ranger_tensor::qtensor::{q_conv2d_into, q_conv2d_window_into, ConvGeometry};
use ranger_tensor::{FixedSpec, QTensor, Shape, Tensor, TensorError};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// How a compiled plan evaluates one node.
///
/// A backend is stateless and shared (`Send + Sync`): per-run state lives in the
/// [`Values`] store each caller owns, so one plan can drive any number of worker threads.
/// Implementations must uphold the arena contract — take the node's recycled buffer(s)
/// from `values`, write the output, store it back — and must call the interceptor exactly
/// once per injectable node, after the output is computed.
pub trait ExecBackend: fmt::Debug + Send + Sync {
    /// Short stable name used in reports and error messages.
    fn name(&self) -> &'static str;

    /// The fixed-point format this backend computes in, or `None` for native `f32`.
    fn spec(&self) -> Option<FixedSpec> {
        None
    }

    /// Evaluates `node` into `values`, calling `interceptor` if the node is injectable.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if a feed is missing or the node's operands are invalid.
    fn eval_node(
        &self,
        node: &Node,
        values: &mut Values,
        feeds: &[(&str, Tensor)],
        interceptor: &mut dyn Interceptor,
    ) -> Result<(), GraphError>;

    /// Evaluates `node` over `window` of its output (a box in the output's
    /// [`View`]) **in place**: the node's slot holds a value of the output's shape, and
    /// every element outside the window is left as it is. Then calls `interceptor` on
    /// the whole output if the node is injectable. This is the fault cone's windowed
    /// pass; each operator runs the kernel of its full pass, so every computed element
    /// is bit for bit the full pass's. A node whose slot holds no value is evaluated
    /// whole.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if the node's operands are invalid.
    fn eval_window(
        &self,
        node: &Node,
        values: &mut Values,
        window: &Window,
        interceptor: &mut dyn Interceptor,
    ) -> Result<(), GraphError>;
}

/// [`ExecBackend::eval_window`] for an f32 backend whose windowed kernels are `eval`.
fn eval_window_f32(
    backend: &dyn ExecBackend,
    node: &Node,
    values: &mut Values,
    interceptor: &mut dyn Interceptor,
    eval: impl FnOnce(&Values, &mut Tensor) -> Result<(), GraphError>,
) -> Result<(), GraphError> {
    let Some(mut output) = values.take_value(node.id) else {
        return backend.eval_node(node, values, &[], interceptor);
    };
    let result = eval(values, &mut output);
    if result.is_ok() && node.op.is_injectable() {
        interceptor.after_op(node, &mut output);
    }
    values.set(node.id, output);
    result
}

/// The `f32` reference backend: kernel dispatch through
/// [`eval_node_into`], bit-for-bit the semantics every other
/// backend is measured against.
///
/// No [`BackendKind`] selects it: production `f32` passes run [`SimdBackend`], and
/// tests reach the oracle with `graph.compile_with(&ReferenceBackend)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceBackend;

impl ExecBackend for ReferenceBackend {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn eval_node(
        &self,
        node: &Node,
        values: &mut Values,
        feeds: &[(&str, Tensor)],
        interceptor: &mut dyn Interceptor,
    ) -> Result<(), GraphError> {
        let mut output = values.take_recycled(node.id);
        eval_node_into(node, values, feeds, &mut output)?;
        if node.op.is_injectable() {
            interceptor.after_op(node, &mut output);
        }
        values.set(node.id, output);
        Ok(())
    }

    fn eval_window(
        &self,
        node: &Node,
        values: &mut Values,
        window: &Window,
        interceptor: &mut dyn Interceptor,
    ) -> Result<(), GraphError> {
        eval_window_f32(self, node, values, interceptor, |values, out| {
            eval_window_into(node, values, window, out)
        })
    }
}

/// The SIMD kernels' conv shape of the validated geometry `g`.
fn simd_conv_shape(g: &Conv2dGeometry, stride: usize) -> ranger_simd::Conv2dShape {
    ranger_simd::Conv2dShape {
        batch: g.batch,
        cin: g.cin,
        height: g.height,
        width: g.width,
        cout: g.cout,
        kh: g.kh,
        kw: g.kw,
        stride,
        pad_h: g.pad_h,
        pad_w: g.pad_w,
        out_h: g.out_h,
        out_w: g.out_w,
    }
}

/// The runtime-dispatched `f32` backend: the reference semantics, computed with the
/// widest vector unit the host offers. [`BackendKind::F32`] and [`BackendKind::Simd`]
/// select the two instances of this type, which differ only in [`ExecBackend::name`]
/// (`"f32"` and `"simd"`), and [`Graph::compile`](crate::graph::Graph::compile) plans
/// onto the first.
///
/// The three hot kernels — 2-D convolution, matmul and the three-pass stable softmax —
/// evaluate through `ranger-simd`'s portable kernel bodies, dispatched once per process
/// to AVX-512, AVX2+FMA, NEON or the scalar fallback
/// ([`ranger_simd::active_tier`]; `RANGER_SIMD_FORCE` pins a tier for testing). Every
/// other operator delegates to [`eval_node_into`], the same dispatch the
/// [`ReferenceBackend`] uses.
///
/// **This backend is bit-for-bit equal to the reference**, not merely close: the ported
/// kernels vectorize across independent output lanes with separate multiply and add
/// (never FMA, never a re-associated reduction), so every output element sees exactly
/// the scalar kernel's partial products in the scalar kernel's order. SDC counts from
/// campaigns on this backend are therefore pinned *equal* to f32-reference counts —
/// see docs/NUMERICS.md ("SIMD backend") and `tests/backend_differential.rs`. A conv
/// whose filter holds an infinity or NaN runs on [`eval_node_into`]: the SIMD conv's
/// padding taps would add `0 · inf = NaN` where the reference adds nothing.
#[derive(Debug, Clone, Copy)]
pub struct SimdBackend {
    name: &'static str,
}

impl SimdBackend {
    /// Computes `node` into `out`, routing the ported kernels through `ranger-simd`.
    fn eval_into(
        &self,
        node: &Node,
        values: &Values,
        feeds: &[(&str, Tensor)],
        out: &mut Tensor,
    ) -> Result<(), GraphError> {
        match &node.op {
            Op::Conv2d { stride, padding } => {
                if node.inputs.len() != 2 {
                    return Err(arity_err(node, 2));
                }
                let x = input(node, values, 0)?;
                let w = input(node, values, 1)?;
                // The shared validator guarantees this backend accepts exactly the
                // graphs (and reports exactly the errors) the f32 kernel does.
                let g = conv2d_geometry(node.id, x.dims(), w.dims(), *stride, *padding)?;
                let shape = simd_conv_shape(&g, *stride);
                out.reset_fill(&[g.batch, g.cout, g.out_h, g.out_w], 0.0);
                if ranger_simd::conv2d(x.data(), w.data(), &shape, out.data_mut()) {
                    Ok(())
                } else {
                    // A non-finite filter: the kernel's padding taps would turn
                    // `0 · inf` into NaN, so the reference computes this node.
                    eval_node_into(node, values, feeds, out)
                }
            }
            Op::MatMul if node.inputs.len() == 2 => {
                let a = input(node, values, 0)?;
                let b = input(node, values, 1)?;
                let (ls, rs) = (a.dims(), b.dims());
                if ls.len() != 2 || rs.len() != 2 || ls[1] != rs[0] {
                    // Invalid operands: delegate so the error is the reference's, word
                    // for word.
                    return eval_node_into(node, values, feeds, out);
                }
                let (m, k, n) = (ls[0], ls[1], rs[1]);
                out.reset_fill(&[m, n], 0.0);
                ranger_simd::matmul(a.data(), b.data(), m, k, n, out.data_mut());
                Ok(())
            }
            Op::Softmax if node.inputs.len() == 1 => {
                let x = input(node, values, 0)?;
                let (rows, last) = softmax_layout(node.id, x.dims(), x.len())?;
                out.reset_fill(x.dims(), 0.0);
                ranger_simd::softmax(x.data(), rows, last, out.data_mut());
                Ok(())
            }
            // Everything else — elementwise ops, pooling, shape ops, feeds — is the
            // reference dispatch itself, so it cannot diverge from it.
            _ => eval_node_into(node, values, feeds, out),
        }
    }

    /// Computes `window` of `node`'s output into `out`: the SIMD conv over the window,
    /// and the reference's windowed kernels for everything else.
    fn eval_window_into(
        &self,
        node: &Node,
        values: &Values,
        window: &Window,
        out: &mut Tensor,
    ) -> Result<(), GraphError> {
        if let (Op::Conv2d { stride, padding }, [x, w]) = (&node.op, node.inputs.as_slice()) {
            let (x, w) = (values.get(*x)?, values.get(*w)?);
            let g = conv2d_geometry(node.id, x.dims(), w.dims(), *stride, *padding)?;
            let ranges = window.ranges();
            let fits = out.dims() == [g.batch, g.cout, g.out_h, g.out_w]
                && ranges[0].end <= g.cout
                && ranges[1].end <= g.out_h
                && ranges[2].end <= g.out_w;
            if fits {
                let shape = simd_conv_shape(&g, *stride);
                if ranger_simd::conv2d_window(x.data(), w.data(), &shape, &ranges, out.data_mut()) {
                    return Ok(());
                }
            }
        }
        eval_window_into(node, values, window, out)
    }
}

impl ExecBackend for SimdBackend {
    fn name(&self) -> &'static str {
        self.name
    }

    fn eval_node(
        &self,
        node: &Node,
        values: &mut Values,
        feeds: &[(&str, Tensor)],
        interceptor: &mut dyn Interceptor,
    ) -> Result<(), GraphError> {
        let mut output = values.take_recycled(node.id);
        self.eval_into(node, values, feeds, &mut output)?;
        if node.op.is_injectable() {
            interceptor.after_op(node, &mut output);
        }
        values.set(node.id, output);
        Ok(())
    }

    fn eval_window(
        &self,
        node: &Node,
        values: &mut Values,
        window: &Window,
        interceptor: &mut dyn Interceptor,
    ) -> Result<(), GraphError> {
        eval_window_f32(self, node, values, interceptor, |values, out| {
            self.eval_window_into(node, values, window, out)
        })
    }
}

/// Genuine fixed-point inference in a two's-complement Q format.
///
/// See the [module docs](self) for the kernel semantics. The numeric contract (rounding,
/// saturation, wide accumulation) is defined — and test-pinned — by the raw-word helpers
/// on [`FixedSpec`].
#[derive(Debug, Clone, Copy)]
pub struct FixedBackend {
    spec: FixedSpec,
}

impl FixedBackend {
    /// Creates a backend computing in the given format.
    pub fn new(spec: FixedSpec) -> Self {
        FixedBackend { spec }
    }
}

fn shape_err(node: NodeId, message: impl Into<String>) -> GraphError {
    GraphError::ShapeError {
        node,
        message: message.into(),
    }
}

fn qinput<'v>(node: &Node, values: &'v Values, idx: usize) -> Result<&'v QTensor, GraphError> {
    let id = *node
        .inputs
        .get(idx)
        .ok_or_else(|| arity_err(node, idx + 1))?;
    values.get_q(id)
}

impl FixedBackend {
    /// Computes `node`'s raw words into `qout` from the word values of its inputs.
    fn eval_q(
        &self,
        node: &Node,
        values: &Values,
        feeds: &[(&str, Tensor)],
        qout: &mut QTensor,
    ) -> Result<(), GraphError> {
        let spec = self.spec;
        match &node.op {
            Op::Input => {
                let fed = feeds
                    .iter()
                    .find(|(name, _)| *name == node.name)
                    .map(|(_, t)| t)
                    .or(node.value.as_ref())
                    .ok_or_else(|| GraphError::MissingFeed(node.name.clone()))?;
                qout.quantize_from(fed);
                Ok(())
            }
            Op::Const => {
                let value = node
                    .value
                    .as_ref()
                    .ok_or(GraphError::MissingConstValue(node.id))?;
                qout.quantize_from(value);
                Ok(())
            }
            Op::Conv2d { stride, padding } => {
                if node.inputs.len() != 2 {
                    return Err(arity_err(node, 2));
                }
                let x = qinput(node, values, 0)?;
                let w = qinput(node, values, 1)?;
                // The shared validator guarantees this backend accepts exactly the
                // graphs (and reports exactly the errors) the f32 kernel does.
                let g = conv2d_geometry(node.id, x.dims(), w.dims(), *stride, *padding)?;
                q_conv2d_into(x, w, &q_conv_geometry(&g, *stride), qout)
                    .map_err(|e| shape_err(node.id, e.to_string()))
            }
            Op::MatMul => {
                if node.inputs.len() != 2 {
                    return Err(arity_err(node, 2));
                }
                qinput(node, values, 0)?
                    .matmul_into(qinput(node, values, 1)?, qout)
                    .map_err(|e| shape_err(node.id, e.to_string()))
            }
            Op::BiasAdd
            | Op::Relu
            | Op::Tanh
            | Op::Sigmoid
            | Op::Atan
            | Op::Elu
            | Op::ScalarMul { .. }
            | Op::Identity
            | Op::Clamp { .. }
            | Op::RangeRestore { .. }
            | Op::Add
            | Op::Mul => {
                // Elementwise: shaped like the first operand, then the windowed kernel
                // over the whole value, so full and windowed passes share each kernel.
                let x = qinput(node, values, 0)?;
                qout.reset_fill(spec, x.dims(), 0);
                let whole = Window::whole(View::of(x.dims()));
                self.eval_q_window(node, values, &whole, qout)
            }
            Op::Softmax => {
                let x = qinput(node, values, 0)?;
                let dims = x.dims().to_vec();
                let (rows, last) = softmax_layout(node.id, &dims, x.len())?;
                qout.reset_fill(spec, &dims, 0);
                let mut row_f32 = vec![0.0f32; last];
                let xdat = x.words();
                let odat = qout.words_mut();
                for r in 0..rows {
                    for (slot, &w) in row_f32.iter_mut().zip(&xdat[r * last..(r + 1) * last]) {
                        *slot = spec.raw_decode(w);
                    }
                    let max = row_f32.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    let mut denom = 0.0f32;
                    for v in &mut row_f32 {
                        *v = (*v - max).exp();
                        denom += *v;
                    }
                    for (o, &e) in odat[r * last..(r + 1) * last].iter_mut().zip(&row_f32) {
                        *o = spec.raw_encode(e / denom);
                    }
                }
                Ok(())
            }
            Op::MaxPool { kernel, stride } | Op::AvgPool { kernel, stride } => {
                let x = qinput(node, values, 0)?;
                let layout = pool_layout(node.id, x.dims(), *kernel, *stride)?;
                let (c, ho, wo) = (layout.channels, layout.out_h, layout.out_w);
                qout.reset_fill(spec, &[layout.batch, c, ho, wo], 0);
                let is_max = matches!(node.op, Op::MaxPool { .. });
                self.pool(
                    &layout,
                    x,
                    *kernel,
                    *stride,
                    is_max,
                    &[0..c, 0..ho, 0..wo],
                    qout,
                );
                Ok(())
            }
            Op::GlobalAvgPool => {
                let x = qinput(node, values, 0)?;
                let (n, c, h, w) = global_pool_layout(node.id, x.dims())?;
                let xdat = x.words();
                qout.reset_fill(spec, &[n, c], 0);
                let odat = qout.words_mut();
                for b in 0..n {
                    for ch in 0..c {
                        let base = (b * c + ch) * h * w;
                        let sum: i128 = xdat[base..base + h * w].iter().map(|&v| v as i128).sum();
                        odat[b * c + ch] = spec.div_round(sum, (h * w) as i128);
                    }
                }
                Ok(())
            }
            Op::Flatten => {
                let x = qinput(node, values, 0)?;
                let d = x.dims();
                if d.is_empty() {
                    return Err(shape_err(node.id, "flatten requires at least rank-1 input"));
                }
                let features = d[1..].iter().product::<usize>().max(1);
                qout.reset_rows_from_words(spec, d[0], &[features], x.words())
                    .map_err(|e| shape_err(node.id, e.to_string()))
            }
            Op::Reshape { dims } => {
                let x = qinput(node, values, 0)?;
                let d = x.dims();
                if d.is_empty() {
                    return Err(shape_err(node.id, "reshape requires at least rank-1 input"));
                }
                qout.reset_rows_from_words(spec, d[0], dims, x.words())
                    .map_err(|_| {
                        shape_err(
                            node.id,
                            format!(
                                "cannot reshape {:?} into a batch of {} x {:?}",
                                d, d[0], dims
                            ),
                        )
                    })
            }
            Op::Concat => {
                if node.inputs.is_empty() {
                    return Err(arity_err(node, 1));
                }
                let mut inputs = Vec::with_capacity(node.inputs.len());
                for i in 0..node.inputs.len() {
                    inputs.push(qinput(node, values, i)?);
                }
                let shapes: Vec<&[usize]> = inputs.iter().map(|t| t.dims()).collect();
                let layout = concat_layout(node.id, &shapes)?;
                let (n, total_c, inner) = (layout.batch, layout.total_c, layout.inner);
                qout.reset_fill(spec, layout.dims(), 0);
                let odat = qout.words_mut();
                for b in 0..n {
                    let mut c_offset = 0usize;
                    for t in &inputs {
                        let c = t.dims()[1];
                        let src = &t.words()[b * c * inner..(b + 1) * c * inner];
                        let dst_base = (b * total_c + c_offset) * inner;
                        odat[dst_base..dst_base + c * inner].copy_from_slice(src);
                        c_offset += c;
                    }
                }
                Ok(())
            }
        }
    }

    /// Max/average pooling on words over output `window` of every batch row of `qout`
    /// (already shaped for `layout`).
    #[allow(clippy::too_many_arguments)]
    fn pool(
        &self,
        layout: &PoolLayout,
        x: &QTensor,
        kernel: usize,
        stride: usize,
        is_max: bool,
        window: &[Range<usize>; 3],
        qout: &mut QTensor,
    ) {
        let spec = self.spec;
        let (n, c, h, w) = (layout.batch, layout.channels, layout.height, layout.width);
        let (ho, wo) = (layout.out_h, layout.out_w);
        let xdat = x.words();
        let odat = qout.words_mut();
        for b in 0..n {
            for ch in window[0].clone() {
                for oy in window[1].clone() {
                    for ox in window[2].clone() {
                        let mut max = i64::MIN;
                        let mut sum = 0i128;
                        for ky in 0..kernel {
                            for kx in 0..kernel {
                                let v = xdat
                                    [((b * c + ch) * h + oy * stride + ky) * w + ox * stride + kx];
                                if is_max {
                                    max = max.max(v);
                                } else {
                                    sum += v as i128;
                                }
                            }
                        }
                        odat[((b * c + ch) * ho + oy) * wo + ox] = if is_max {
                            max
                        } else {
                            spec.div_round(sum, (kernel * kernel) as i128)
                        };
                    }
                }
            }
        }
    }

    /// Computes `window` of `node`'s output words into `qout`, which already holds words
    /// of the output's shape; every word outside the window is left as it is. The
    /// elementwise kernels here are also the full pass's ([`FixedBackend::eval_q`]); an
    /// operator without a windowed kernel is computed whole.
    fn eval_q_window(
        &self,
        node: &Node,
        values: &Values,
        window: &Window,
        qout: &mut QTensor,
    ) -> Result<(), GraphError> {
        let spec = self.spec;
        let view = View::of(qout.dims());
        let decoded = |f: fn(f32) -> f32| move |a: i64| spec.raw_encode(f(spec.raw_decode(a)));
        match &node.op {
            Op::Conv2d { stride, padding } if node.inputs.len() == 2 => {
                let (x, w) = (qinput(node, values, 0)?, qinput(node, values, 1)?);
                let g = conv2d_geometry(node.id, x.dims(), w.dims(), *stride, *padding)?;
                let geometry = q_conv_geometry(&g, *stride);
                q_conv2d_window_into(x, w, &geometry, &window.ranges(), qout)
                    .map_err(|e| shape_err(node.id, e.to_string()))
            }
            Op::MaxPool { kernel, stride } | Op::AvgPool { kernel, stride } => {
                let x = qinput(node, values, 0)?;
                let layout = pool_layout(node.id, x.dims(), *kernel, *stride)?;
                let ranges = window.ranges();
                let dims = [layout.batch, layout.channels, layout.out_h, layout.out_w];
                if qout.dims() != dims
                    || ranges[0].end > dims[1]
                    || ranges[1].end > dims[2]
                    || ranges[2].end > dims[3]
                {
                    return Err(shape_err(
                        node.id,
                        format!("pooling window {ranges:?} does not fit an output of {dims:?}"),
                    ));
                }
                let is_max = matches!(node.op, Op::MaxPool { .. });
                self.pool(&layout, x, *kernel, *stride, is_max, &ranges, qout);
                Ok(())
            }
            Op::Relu => map_words(node, values, window, view, qout, |a| a.max(0)),
            Op::Tanh => map_words(node, values, window, view, qout, decoded(f32::tanh)),
            Op::Sigmoid => map_words(node, values, window, view, qout, decoded(sigmoid)),
            Op::Atan => map_words(node, values, window, view, qout, decoded(f32::atan)),
            Op::Elu => map_words(node, values, window, view, qout, decoded(elu)),
            Op::ScalarMul { factor } => {
                let raw_factor = spec.raw_encode(*factor) as i128;
                map_words(node, values, window, view, qout, |a| {
                    spec.rescale(a as i128 * raw_factor)
                })
            }
            Op::Identity => map_words(node, values, window, view, qout, |a| a),
            Op::Clamp { lo, hi } => {
                let (lo, hi) = (spec.raw_encode(*lo), spec.raw_encode(*hi));
                map_words(node, values, window, view, qout, |a| a.clamp(lo, hi))
            }
            Op::RangeRestore { lo, hi, policy } => {
                let (lo, hi, policy) = (*lo, *hi, *policy);
                let (lo_raw, hi_raw) = (spec.raw_encode(lo), spec.raw_encode(hi));
                map_words(node, values, window, view, qout, |word| {
                    if word >= lo_raw && word <= hi_raw {
                        return word;
                    }
                    match policy {
                        RestorePolicy::Saturate => word.clamp(lo_raw, hi_raw),
                        RestorePolicy::Zero => 0,
                        RestorePolicy::Random => {
                            // The same deterministic hash the f32 kernel applies, taken
                            // over the dequantized value's bit pattern.
                            let v = spec.raw_decode(word);
                            let h = v.to_bits().wrapping_mul(0x9E37_79B9) >> 8;
                            let unit = (h & 0xFFFF) as f32 / 65535.0;
                            spec.raw_encode(lo + unit * (hi - lo))
                        }
                    }
                })
            }
            Op::BiasAdd => {
                if node.inputs.len() != 2 {
                    return Err(arity_err(node, 2));
                }
                let (x, bias) = (qinput(node, values, 0)?, qinput(node, values, 1)?);
                let broadcast = bias_layout(node.id, x.dims(), bias.len())?;
                if x.dims() != qout.dims() {
                    return Err(shape_err(node.id, "bias_add output shape mismatch"));
                }
                if broadcast == 0 {
                    return Ok(());
                }
                let (x, b, o) = (x.words(), bias.words(), qout.words_mut());
                window.for_each_run(view, |run| {
                    let (mut i, mut chunk) = (run.start, run.start / broadcast);
                    let mut k = chunk % b.len();
                    while i < run.end {
                        let end = ((chunk + 1) * broadcast).min(run.end);
                        let bias_word = b[k] as i128;
                        for (o, &v) in o[i..end].iter_mut().zip(&x[i..end]) {
                            *o = spec.saturate_raw(v as i128 + bias_word);
                        }
                        (i, chunk, k) = (end, chunk + 1, if k + 1 == b.len() { 0 } else { k + 1 });
                    }
                });
                Ok(())
            }
            Op::Add => zip_words(node, values, window, view, qout, |a, b| {
                spec.saturate_raw(a as i128 + b as i128)
            }),
            Op::Mul => zip_words(node, values, window, view, qout, |a, b| {
                spec.rescale(a as i128 * b as i128)
            }),
            Op::Concat if view.batch1 => {
                let mut total = 0;
                for i in 0..node.inputs.len() {
                    total += qinput(node, values, i)?.len();
                }
                if total != qout.len() {
                    return self.eval_q(node, values, &[], qout);
                }
                let o = qout.words_mut();
                let inputs = || {
                    node.inputs
                        .iter()
                        .filter_map(|&id| values.get_q(id).ok())
                        .map(QTensor::words)
                };
                window.for_each_run(view, |r| concat_run(inputs(), r, o));
                Ok(())
            }
            _ => self.eval_q(node, values, &[], qout),
        }
    }
}

/// The fixed-point kernels' conv geometry of the validated geometry `g`.
fn q_conv_geometry(g: &Conv2dGeometry, stride: usize) -> ConvGeometry {
    ConvGeometry {
        batch: g.batch,
        cin: g.cin,
        height: g.height,
        width: g.width,
        cout: g.cout,
        kh: g.kh,
        kw: g.kw,
        stride,
        pad_h: g.pad_h,
        pad_w: g.pad_w,
        out_h: g.out_h,
        out_w: g.out_w,
    }
}

/// `qout = f(x)` over `window` for the unary `node`.
fn map_words(
    node: &Node,
    values: &Values,
    window: &Window,
    view: View,
    qout: &mut QTensor,
    f: impl Fn(i64) -> i64,
) -> Result<(), GraphError> {
    let x = qinput(node, values, 0)?;
    if x.dims() != qout.dims() {
        return Err(shape_err(node.id, "elementwise output shape mismatch"));
    }
    let (x, o) = (x.words(), qout.words_mut());
    window.for_each_run(view, |r| {
        for (o, &a) in o[r.clone()].iter_mut().zip(&x[r]) {
            *o = f(a);
        }
    });
    Ok(())
}

/// `qout = f(a, b)` over `window` for the binary `node`; operands of different shapes
/// are the same error the f32 kernels report.
fn zip_words(
    node: &Node,
    values: &Values,
    window: &Window,
    view: View,
    qout: &mut QTensor,
    f: impl Fn(i64, i64) -> i64,
) -> Result<(), GraphError> {
    if node.inputs.len() != 2 {
        return Err(arity_err(node, 2));
    }
    let (a, b) = (qinput(node, values, 0)?, qinput(node, values, 1)?);
    assert_eq!(a.spec(), b.spec(), "operands must share a format");
    if a.dims() != b.dims() {
        let e = TensorError::ShapeMismatch {
            left: Shape::new(a.dims().to_vec()),
            right: Shape::new(b.dims().to_vec()),
        };
        return Err(shape_err(node.id, e.to_string()));
    }
    if a.dims() != qout.dims() {
        return Err(shape_err(node.id, "elementwise output shape mismatch"));
    }
    let (a, b, o) = (a.words(), b.words(), qout.words_mut());
    window.for_each_run(view, |r| {
        for ((o, &p), &q) in o[r.clone()].iter_mut().zip(&a[r.clone()]).zip(&b[r]) {
            *o = f(p, q);
        }
    });
    Ok(())
}

impl ExecBackend for FixedBackend {
    fn name(&self) -> &'static str {
        if self.spec.total_bits() == 16 {
            "fixed16"
        } else if self.spec.total_bits() == 32 {
            "fixed32"
        } else {
            "fixed"
        }
    }

    fn spec(&self) -> Option<FixedSpec> {
        Some(self.spec)
    }

    fn eval_node(
        &self,
        node: &Node,
        values: &mut Values,
        feeds: &[(&str, Tensor)],
        interceptor: &mut dyn Interceptor,
    ) -> Result<(), GraphError> {
        // Constants never change between passes (and are never intercepted), so the
        // arena caches their quantization: a hit reuses last pass's words instead of
        // re-encoding the whole weight tensor.
        let mut qout = match (&node.op, node.value.as_ref()) {
            (Op::Const, Some(value)) => {
                let (mut qout, cached) = values.take_recycled_q_const(node.id, self.spec, value);
                if !cached {
                    qout.quantize_from(value);
                    values.mark_q_const(node.id, self.spec, value);
                }
                qout
            }
            _ => {
                let mut qout = values.take_recycled_q(node.id, self.spec);
                self.eval_q(node, values, feeds, &mut qout)?;
                qout
            }
        };
        if node.op.is_injectable() {
            interceptor.after_op_words(node, &mut qout);
        }
        // Storing the words arms the *lazy* dequantized f32 mirror: `Values::get` decodes
        // a node's words at most once per pass, on first read. Campaigns only read the
        // judged output node, so elementwise-heavy passes stop paying a full decode
        // (an extra write+read of every activation) per node. The store happens after
        // interception, so word flips and bridged generic mutations alike are always
        // visible to the next read.
        values.set_q(node.id, qout);
        Ok(())
    }

    fn eval_window(
        &self,
        node: &Node,
        values: &mut Values,
        window: &Window,
        interceptor: &mut dyn Interceptor,
    ) -> Result<(), GraphError> {
        let Some(mut qout) = values.take_words(node.id) else {
            return self.eval_node(node, values, &[], interceptor);
        };
        let result = self.eval_q_window(node, values, window, &mut qout);
        if result.is_ok() && node.op.is_injectable() {
            interceptor.after_op_words(node, &mut qout);
        }
        values.put_words(node.id, qout);
        result
    }
}

pub(crate) static F32: SimdBackend = SimdBackend { name: "f32" };
static SIMD: SimdBackend = SimdBackend { name: "simd" };
static FIXED16: FixedBackend = FixedBackend {
    spec: FixedSpec::q16(),
};
static FIXED32: FixedBackend = FixedBackend {
    spec: FixedSpec::q32(),
};

/// A selectable execution backend, as carried by campaign and pipeline configurations
/// (CLI `--backend`, `CampaignConfig::backend`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum BackendKind {
    /// `f32` inference on the runtime-dispatched kernels ([`SimdBackend`]), bit for bit
    /// the reference semantics ([`ReferenceBackend`]).
    #[default]
    F32,
    /// Genuine Q14.2 (16-bit) fixed-point inference — the paper's RQ4 datatype.
    Fixed16,
    /// Genuine Q24.8 (32-bit) fixed-point inference — the paper's RQ1–RQ3 datatype.
    Fixed32,
    /// An alias of [`BackendKind::F32`] that reports itself as `"simd"`: the same
    /// kernels and counts. It stays selectable because campaign fingerprints hash the
    /// serialized variant, so checkpoints written under `simd` keep resuming.
    Simd,
}

impl BackendKind {
    /// The shared backend instance this kind selects.
    pub fn backend(&self) -> &'static dyn ExecBackend {
        match self {
            BackendKind::F32 => &F32,
            BackendKind::Fixed16 => &FIXED16,
            BackendKind::Fixed32 => &FIXED32,
            BackendKind::Simd => &SIMD,
        }
    }

    /// The fixed-point format this kind computes in, or `None` for `f32`.
    pub fn spec(&self) -> Option<FixedSpec> {
        self.backend().spec()
    }

    /// Every selectable backend, in documentation order.
    pub fn all() -> [BackendKind; 4] {
        [
            BackendKind::F32,
            BackendKind::Fixed16,
            BackendKind::Fixed32,
            BackendKind::Simd,
        ]
    }

    /// The known backend names, comma-separated — the list every "unknown backend"
    /// error cites, built from [`BackendKind::all`] so it cannot go stale.
    pub fn known_names() -> String {
        Self::all()
            .iter()
            .map(|k| k.backend().name())
            .collect::<Vec<_>>()
            .join(", ")
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.backend().name())
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "f32" | "float32" | "float" => Ok(BackendKind::F32),
            "fixed16" | "q16" => Ok(BackendKind::Fixed16),
            "fixed32" | "q32" => Ok(BackendKind::Fixed32),
            "simd" => Ok(BackendKind::Simd),
            other => Err(format!(
                "unknown backend '{other}' (known backends: {})",
                BackendKind::known_names()
            )),
        }
    }
}

/// The default backend for campaign configurations: the `RANGER_BACKEND` environment
/// variable if set (an empty value counts as unset), otherwise [`BackendKind::F32`].
///
/// Reading the environment here — once, at configuration-default time, never inside the
/// executors — lets a CI job sweep an entire test suite through an alternative path
/// (`RANGER_BACKEND=fixed16 cargo test`, `RANGER_BACKEND=fixed32 cargo test`) without every
/// call site growing a knob, mirroring how `RANGER_WORKERS` sweeps the thread pool.
///
/// # Errors
///
/// Returns an error listing the known backends if `RANGER_BACKEND` is set to a name
/// [`BackendKind`] does not recognise. A misspelled sweep must fail loudly: silently
/// falling back to `f32` would run — and report on — the wrong backend (the same
/// fail-fast rule `RANGER_BENCH_FILTER` follows).
pub fn try_default_backend() -> Result<BackendKind, String> {
    match std::env::var("RANGER_BACKEND") {
        Ok(value) if !value.is_empty() => value
            .parse()
            .map_err(|e| format!("invalid RANGER_BACKEND: {e}")),
        _ => Ok(BackendKind::F32),
    }
}

/// [`try_default_backend`], panicking on a misconfigured `RANGER_BACKEND`.
///
/// Infallible call sites (configuration `Default` impls) use this; surfaces with an
/// error channel (the CLI) use [`try_default_backend`] and report cleanly.
///
/// # Panics
///
/// Panics if `RANGER_BACKEND` is set to an unknown name.
pub fn default_backend() -> BackendKind {
    match try_default_backend() {
        Ok(kind) => kind,
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::exec::NoopInterceptor;
    use rand::{rngs::StdRng, SeedableRng};

    fn toy() -> (crate::graph::Graph, NodeId) {
        let mut rng = StdRng::seed_from_u64(3);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let h = b.dense(x, 4, 6, &mut rng);
        let h = b.relu(h);
        let y = b.dense(h, 6, 2, &mut rng);
        (b.into_graph(), y)
    }

    #[test]
    fn backend_kind_round_trips_names() {
        for kind in BackendKind::all() {
            let parsed: BackendKind = kind.to_string().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert_eq!("q16".parse::<BackendKind>().unwrap(), BackendKind::Fixed16);
        assert_eq!("F32".parse::<BackendKind>().unwrap(), BackendKind::F32);
        assert!("mps".parse::<BackendKind>().is_err());
        assert_eq!(BackendKind::default(), BackendKind::F32);
    }

    #[test]
    fn backend_kind_exposes_specs() {
        assert_eq!(BackendKind::F32.spec(), None);
        assert_eq!(BackendKind::Fixed16.spec(), Some(FixedSpec::q16()));
        assert_eq!(BackendKind::Fixed32.spec(), Some(FixedSpec::q32()));
        // The SIMD backend computes native f32: no quantization spec, so campaigns
        // pair it with f32 fault models exactly like the reference.
        assert_eq!(BackendKind::Simd.spec(), None);
        assert_eq!(BackendKind::Fixed16.backend().name(), "fixed16");
        assert_eq!(BackendKind::F32.backend().name(), "f32");
        assert_eq!(BackendKind::Simd.backend().name(), "simd");
    }

    #[test]
    fn unknown_backend_error_lists_every_known_name() {
        let err = "warp".parse::<BackendKind>().unwrap_err();
        for name in ["f32", "fixed16", "fixed32", "simd"] {
            assert!(err.contains(name), "error must list '{name}': {err}");
        }
    }

    /// The `RANGER_BACKEND` audit (mirroring the `RANGER_BENCH_FILTER` fix): an unknown
    /// name must be rejected with the known backends, never silently fall back to f32.
    /// The graph test binary has no other reader of `RANGER_BACKEND`, so the temporary
    /// mutation cannot race another test; the sweep value (CI sets `fixed16` etc.) is
    /// restored on exit.
    #[test]
    fn misconfigured_ranger_backend_is_rejected_not_defaulted() {
        let original = std::env::var("RANGER_BACKEND").ok();
        std::env::set_var("RANGER_BACKEND", "warp");
        let err = try_default_backend().unwrap_err();
        assert!(err.contains("RANGER_BACKEND"), "{err}");
        assert!(err.contains("known backends"), "{err}");
        std::env::set_var("RANGER_BACKEND", "simd");
        assert_eq!(try_default_backend(), Ok(BackendKind::Simd));
        std::env::set_var("RANGER_BACKEND", "");
        assert_eq!(try_default_backend(), Ok(BackendKind::F32));
        std::env::remove_var("RANGER_BACKEND");
        assert_eq!(try_default_backend(), Ok(BackendKind::F32));
        if let Some(value) = original {
            std::env::set_var("RANGER_BACKEND", value);
        }
    }

    /// The SimdBackend contract in one place: ported kernels (conv2d, matmul, softmax)
    /// and delegated ops alike reproduce the reference bit-for-bit on a full forward
    /// pass, under both of its names.
    #[test]
    fn simd_backend_matches_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(41);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let c = b.conv2d(x, 2, 3, 3, 1, crate::op::Padding::Same, &mut rng);
        let c = b.relu(c);
        let p = b.max_pool(c, 2, 2);
        let f = b.flatten(p);
        let h = b.dense(f, 3 * 3 * 3, 8, &mut rng);
        let h = b.tanh(h);
        let y = b.dense(h, 8, 4, &mut rng);
        let _probs = b.softmax(y);
        let graph = b.into_graph();

        let feed: Vec<f32> = (0..2 * 2 * 6 * 6)
            .map(|i| (i as f32 * 0.37).sin())
            .collect();
        let feeds = [("x", Tensor::from_vec(vec![2, 2, 6, 6], feed).unwrap())];
        let reference = graph
            .compile_with(&ReferenceBackend)
            .unwrap()
            .run(&feeds, &mut NoopInterceptor)
            .unwrap();
        for kind in [BackendKind::F32, BackendKind::Simd] {
            let simd = graph
                .compile_with(kind.backend())
                .unwrap()
                .run(&feeds, &mut NoopInterceptor)
                .unwrap();
            for node in graph.nodes() {
                let (r, s) = (reference.get(node.id).unwrap(), simd.get(node.id).unwrap());
                assert_eq!(r.dims(), s.dims());
                let (rb, sb): (Vec<u32>, Vec<u32>) = (
                    r.data().iter().map(|v| v.to_bits()).collect(),
                    s.data().iter().map(|v| v.to_bits()).collect(),
                );
                assert_eq!(
                    rb, sb,
                    "{kind}: node {} ({:?}) diverged",
                    node.name, node.op
                );
            }
        }
    }

    #[test]
    fn simd_backend_reports_reference_errors_for_invalid_operands() {
        // Mismatched matmul operands: the SIMD backend must surface the reference
        // error, word for word.
        let build = |backend: &dyn ExecBackend| {
            let mut g = crate::graph::Graph::new();
            let x = g.add_input("x");
            let y = g.add_node("prod", Op::MatMul, vec![x, x]);
            let plan = g.compile_with(backend).unwrap();
            plan.run_simple(&[("x", Tensor::ones(vec![2, 3]))], y)
                .unwrap_err()
        };
        assert_eq!(
            format!("{}", build(BackendKind::F32.backend())),
            format!("{}", build(&ReferenceBackend))
        );
    }

    /// `Same` padding on a zero-extent spatial dimension has no output positions: every
    /// backend returns an empty `[1, cout, 0, 4]` tensor instead of underflowing the
    /// padding arithmetic.
    #[test]
    fn same_padded_conv_on_an_empty_dimension_yields_an_empty_output() {
        let mut g = crate::graph::Graph::new();
        let x = g.add_input("x");
        let w = g.add_const("w", Tensor::filled(vec![3, 1, 3, 3], 0.5), true);
        let conv = g.add_node(
            "conv",
            Op::Conv2d {
                stride: 1,
                padding: crate::op::Padding::Same,
            },
            vec![x, w],
        );
        let feeds = [("x", Tensor::zeros(vec![1, 1, 0, 4]))];
        let backends: [&dyn ExecBackend; 3] = [
            &ReferenceBackend,
            BackendKind::F32.backend(),
            BackendKind::Fixed16.backend(),
        ];
        for backend in backends {
            let plan = g.compile_with(backend).unwrap();
            let out = plan.run_simple(&feeds, conv).unwrap();
            assert_eq!(out.dims(), &[1, 3, 0, 4], "{}", backend.name());
            assert!(out.data().is_empty(), "{}", backend.name());
        }
    }

    #[test]
    fn fixed_backend_quantizes_inputs_and_weights() {
        // x -> ScalarMul(2.0): the Q14.2 backend must quantize the fed input onto the
        // 0.25 grid before computing.
        let mut g = crate::graph::Graph::new();
        let x = g.add_input("x");
        let y = g.add_node("double", Op::ScalarMul { factor: 2.0 }, vec![x]);
        let plan = g.compile_with(BackendKind::Fixed16.backend()).unwrap();
        let out = plan
            .run_simple(
                &[("x", Tensor::from_vec(vec![1, 2], vec![0.3, 1.0]).unwrap())],
                y,
            )
            .unwrap();
        // 0.3 quantizes to 0.25; 2 * 0.25 = 0.5 exactly. 1.0 stays exact.
        assert_eq!(out.data(), &[0.5, 2.0]);
    }

    /// The elementwise word kernels on operands that are exact on the Q14.2 grid:
    /// saturating add and mul, scalar mul, ReLU and clamp equal the f32 ops, the `tanh`
    /// bridge requantizes onto the grid, and operands of different shapes are refused.
    #[test]
    fn fixed_backend_elementwise_words_match_float_on_exact_values() {
        let a = Tensor::from_vec(vec![1, 3], vec![1.5, -2.0, 3.25]).unwrap();
        let b = Tensor::from_vec(vec![1, 3], vec![0.5, 4.0, -1.0]).unwrap();
        let mut g = crate::graph::Graph::new();
        let (xa, xb) = (g.add_input("a"), g.add_input("b"));
        let cases = [
            (g.add_node("add", Op::Add, vec![xa, xb]), a.add(&b).unwrap()),
            (g.add_node("mul", Op::Mul, vec![xa, xb]), a.mul(&b).unwrap()),
            (
                g.add_node("scale", Op::ScalarMul { factor: 2.0 }, vec![xa]),
                a.scale(2.0),
            ),
            (
                g.add_node("relu", Op::Relu, vec![xa]),
                a.map(|v| v.max(0.0)),
            ),
            (
                g.add_node("clamp", Op::Clamp { lo: 0.0, hi: 2.0 }, vec![xa]),
                a.clamp(0.0, 2.0),
            ),
        ];
        let plan = g.compile_with(BackendKind::Fixed16.backend()).unwrap();
        let values = plan
            .run(&[("a", a.clone()), ("b", b)], &mut NoopInterceptor)
            .unwrap();
        for (node, expected) in &cases {
            assert_eq!(values.get(*node).unwrap(), expected, "node {node:?}");
        }
        // tanh(0) = 0 exactly; tanh(100) ~ 1.0 requantizes onto the grid.
        let mut g = crate::graph::Graph::new();
        let x = g.add_input("x");
        let y = g.add_node("tanh", Op::Tanh, vec![x]);
        let plan = g.compile_with(BackendKind::Fixed16.backend()).unwrap();
        let feed = Tensor::from_vec(vec![1, 2], vec![0.0, 100.0]).unwrap();
        let out = plan.run_simple(&[("x", feed)], y).unwrap();
        assert_eq!(out.data(), &[0.0, 1.0]);
        // Mismatched shapes are refused.
        for op in [Op::Add, Op::Mul] {
            let mut g = crate::graph::Graph::new();
            let (xa, xb) = (g.add_input("a"), g.add_input("b"));
            let y = g.add_node("zip", op, vec![xa, xb]);
            let plan = g.compile_with(BackendKind::Fixed16.backend()).unwrap();
            let feeds = [("a", a.clone()), ("b", Tensor::zeros(vec![1, 2]))];
            assert!(plan.run_simple(&feeds, y).is_err());
        }
    }

    #[test]
    fn fixed_backend_stores_words_alongside_the_mirror() {
        let (graph, y) = toy();
        let plan = graph.compile_with(BackendKind::Fixed32.backend()).unwrap();
        let values = plan
            .run(&[("x", Tensor::ones(vec![1, 4]))], &mut NoopInterceptor)
            .unwrap();
        let mirror = values.get(y).unwrap();
        let words = values.get_q(y).unwrap();
        assert_eq!(words.spec(), FixedSpec::q32());
        assert_eq!(&words.dequantize(), mirror);
        // An f32 backend stores no words.
        let ref_values = graph
            .compile()
            .unwrap()
            .run(&[("x", Tensor::ones(vec![1, 4]))], &mut NoopInterceptor)
            .unwrap();
        assert!(ref_values.get_q(y).is_err());
    }

    #[test]
    fn fixed_backend_saturates_instead_of_overflowing() {
        // 100 * 100 = 10000 exceeds nothing in Q24.8 but 8000 * 8000 saturates Q14.2.
        let mut g = crate::graph::Graph::new();
        let x = g.add_input("x");
        let y = g.add_node("square", Op::Mul, vec![x, x]);
        let feed = Tensor::filled(vec![1, 1], 8000.0);
        let plan16 = g.compile_with(BackendKind::Fixed16.backend()).unwrap();
        let out = plan16.run_simple(&[("x", feed)], y).unwrap();
        assert_eq!(out.data()[0] as f64, FixedSpec::q16().max_value());
    }

    /// The constant-quantization cache must never leak words across plans: two graphs
    /// whose same-id constant nodes hold different (same-shaped) values, driven through
    /// one shared arena, each see their own weights on every pass.
    #[test]
    fn const_cache_is_invalidated_across_plans_sharing_an_arena() {
        let build = |weight: f32| {
            let mut g = crate::graph::Graph::new();
            let x = g.add_input("x");
            let c = g.add_const("c", Tensor::filled(vec![1, 2], weight), true);
            let y = g.add_node("sum", Op::Add, vec![x, c]);
            (g, y)
        };
        let (ga, ya) = build(1.0);
        let (gb, yb) = build(5.0);
        let plan_a = ga.compile_with(BackendKind::Fixed16.backend()).unwrap();
        let plan_b = gb.compile_with(BackendKind::Fixed16.backend()).unwrap();
        let feeds = [("x", Tensor::filled(vec![1, 2], 0.25))];
        let mut values = plan_a.buffers();
        for _ in 0..2 {
            plan_a
                .run_into(&mut values, &feeds, &mut NoopInterceptor)
                .unwrap();
            assert_eq!(values.get(ya).unwrap().data(), &[1.25, 1.25]);
            plan_b
                .run_into(&mut values, &feeds, &mut NoopInterceptor)
                .unwrap();
            assert_eq!(values.get(yb).unwrap().data(), &[5.25, 5.25]);
        }
    }

    #[test]
    fn missing_feed_error_is_preserved_on_the_fixed_backend() {
        let (graph, y) = toy();
        let plan = graph.compile_with(BackendKind::Fixed16.backend()).unwrap();
        assert!(matches!(
            plan.run_simple(&[], y),
            Err(GraphError::MissingFeed(_))
        ));
    }

    /// The laziness contract: on a fixed-point backend no mirror is decoded until a node
    /// is read, and reading one node decodes only that node.
    #[test]
    fn mirror_decodes_lazily_and_only_for_read_nodes() {
        let (graph, y) = toy();
        let relu = graph
            .nodes()
            .iter()
            .find(|n| matches!(n.op, Op::Relu))
            .unwrap()
            .id;
        let plan = graph.compile_with(BackendKind::Fixed16.backend()).unwrap();
        let values = plan
            .run(&[("x", Tensor::ones(vec![1, 4]))], &mut NoopInterceptor)
            .unwrap();
        assert!(
            !values.mirror_decoded(y) && !values.mirror_decoded(relu),
            "no node may decode before it is read"
        );
        values.get(y).unwrap();
        assert!(values.mirror_decoded(y), "the read node decodes");
        assert!(
            !values.mirror_decoded(relu),
            "reading one node must not decode the others"
        );
        // A second read serves the already-decoded mirror (same pass, same words).
        let first = values.get(y).unwrap().clone();
        assert_eq!(values.get(y).unwrap(), &first);
    }

    /// The invalidation contract: a mirror decoded in one pass is never served for a
    /// later pass's words — whether the node was read in the earlier pass or not.
    #[test]
    fn stale_mirrors_are_never_served_across_passes() {
        let (graph, y) = toy();
        let relu = graph
            .nodes()
            .iter()
            .find(|n| matches!(n.op, Op::Relu))
            .unwrap()
            .id;
        let plan = graph.compile_with(BackendKind::Fixed16.backend()).unwrap();
        let mut values = plan.buffers();
        let feed = |v: f32| [("x", Tensor::filled(vec![1, 4], v))];
        plan.run_into(&mut values, &feed(1.0), &mut NoopInterceptor)
            .unwrap();
        // Decode y in pass 1; leave relu undecoded.
        let pass1_y = values.get(y).unwrap().clone();
        plan.run_into(&mut values, &feed(-2.0), &mut NoopInterceptor)
            .unwrap();
        // Fresh single-shot references for the second input.
        let fresh = plan.run(&feed(-2.0), &mut NoopInterceptor).unwrap();
        assert_ne!(
            values.get(y).unwrap(),
            &pass1_y,
            "pass 2 must not serve pass 1's mirror"
        );
        assert_eq!(values.get(y).unwrap(), fresh.get(y).unwrap());
        assert_eq!(
            values.get(relu).unwrap(),
            fresh.get(relu).unwrap(),
            "a node first read in pass 2 decodes pass 2's words"
        );
    }

    /// The mixed-interceptor regression (lazy-mirror audit): in one pass, one node is
    /// corrupted through the word-level hook and another through the generic
    /// (`after_op`) bridge. Both mutations must be visible through `Values::get`, and
    /// the mirror must agree with the stored words — the bridge's mutation cannot leave
    /// a pre-mutation decode behind.
    #[test]
    fn mixed_word_and_generic_interceptor_mutations_refresh_the_mirror() {
        struct Mixed {
            relu: NodeId,
            out: NodeId,
        }
        impl Interceptor for Mixed {
            fn after_op(&mut self, node: &Node, output: &mut Tensor) {
                // Reached through the default word bridge for the ReLU node only.
                if node.id == self.relu {
                    output.data_mut()[0] = 19.3; // off-grid: lands on 19.25 in Q14.2
                }
            }
            fn after_op_words(&mut self, node: &Node, output: &mut QTensor) {
                if node.id == self.out {
                    // Word-level corruption, no f32 round trip.
                    output.flip_word(0, 3);
                } else {
                    // Every other node takes the generic bridge (the default impl).
                    let mirror = output.dequantize();
                    let mut mutated = mirror.clone();
                    self.after_op(node, &mut mutated);
                    for (i, (&before, &after)) in
                        mirror.data().iter().zip(mutated.data()).enumerate()
                    {
                        if before.to_bits() != after.to_bits() {
                            output.set_from_f32(i, after);
                        }
                    }
                }
            }
        }
        let (graph, y) = toy();
        let relu = graph
            .nodes()
            .iter()
            .find(|n| matches!(n.op, Op::Relu))
            .unwrap()
            .id;
        let plan = graph.compile_with(BackendKind::Fixed16.backend()).unwrap();
        let mut values = plan.buffers();
        for _ in 0..2 {
            // Two passes through one arena: the second pass re-applies both mutations
            // over recycled buffers and previously decoded mirrors.
            plan.run_into(
                &mut values,
                &[("x", Tensor::ones(vec![1, 4]))],
                &mut Mixed { relu, out: y },
            )
            .unwrap();
            // The generic-bridge mutation is served by the lazy mirror...
            assert_eq!(values.get(relu).unwrap().data()[0], 19.25);
            // ... and both mirrors agree exactly with the stored words.
            for node in [relu, y] {
                assert_eq!(
                    &values.get_q(node).unwrap().dequantize(),
                    values.get(node).unwrap(),
                    "mirror and words diverged"
                );
            }
            // The word-level flip on the output node is visible through get().
            let clean = plan
                .run(&[("x", Tensor::ones(vec![1, 4]))], &mut NoopInterceptor)
                .unwrap();
            assert_ne!(values.get(y).unwrap(), clean.get(y).unwrap());
        }
    }

    #[test]
    fn generic_interceptor_bridge_reencodes_only_mutated_elements() {
        struct CorruptFirst;
        impl Interceptor for CorruptFirst {
            fn after_op(&mut self, node: &Node, output: &mut Tensor) {
                if matches!(node.op, Op::Relu) {
                    output.data_mut()[0] = 77.3; // off-grid: quantizes to 77.25 in Q14.2
                }
            }
        }
        let (graph, y) = toy();
        let relu = graph
            .nodes()
            .iter()
            .find(|n| matches!(n.op, Op::Relu))
            .unwrap()
            .id;
        let plan = graph.compile_with(BackendKind::Fixed16.backend()).unwrap();
        let values = plan
            .run(&[("x", Tensor::ones(vec![1, 4]))], &mut CorruptFirst)
            .unwrap();
        assert_eq!(values.get(relu).unwrap().data()[0], 77.25);
        assert_eq!(values.get(y).unwrap().dims(), &[1, 2]);
    }
}
