//! Regions of one value for the fault cone: the (channel, row, column) box a
//! deviation can occupy, and how each operator carries a box from its inputs to its
//! output.
//!
//! A fault cone ([`ExecPlan::run_cone`](crate::plan::ExecPlan::run_cone)) tracks per
//! node the box outside which the node's value is golden. A flipped element spreads
//! only through receptive fields: a `k × k` convolution grows a box by `k − 1` and a
//! stride-2 one halves it. So a node whose inputs deviate inside small boxes is
//! evaluated only over the [`Window`] its [`BoxMap`] gives, and compared with golden
//! only there.

use crate::graph::{Graph, Node};
use crate::op::{Op, Padding};
use crate::ops::conv::padded_geometry;
use std::ops::Range;

/// How a value's elements are laid out as (channel, row, column).
///
/// A batch-1 tensor of rank 2 to 4 views as `(dims[1], dims[2], dims[3])`, missing
/// trailing extents read 1. Any other value views as one flat run of channels, so a box
/// over it is a flat index range and only elementwise maps shrink it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct View {
    /// Channels.
    pub c: usize,
    /// Rows per channel.
    pub h: usize,
    /// Columns per row.
    pub w: usize,
    /// Whether the value is a batch-1 NCHW tensor (convolution and pooling map boxes
    /// only between those).
    pub spatial: bool,
    /// Whether the value has a leading batch extent of 1 (channel concatenation maps
    /// boxes only between those).
    pub batch1: bool,
}

impl View {
    /// The view of a value with dimensions `dims`.
    pub fn of(dims: &[usize]) -> Self {
        if (2..=4).contains(&dims.len()) && dims[0] == 1 {
            View {
                c: dims[1],
                h: dims.get(2).copied().unwrap_or(1),
                w: dims.get(3).copied().unwrap_or(1),
                spatial: dims.len() == 4,
                batch1: true,
            }
        } else {
            View {
                c: dims.iter().product(),
                h: 1,
                w: 1,
                spatial: false,
                batch1: false,
            }
        }
    }
}

/// A box of a value's elements: channels `c`, rows `y` and columns `x`, each a
/// half-open `[start, end)` pair in the value's [`View`]. A box with an empty extent
/// holds no element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Window {
    /// Channel range.
    pub c: [usize; 2],
    /// Row range.
    pub y: [usize; 2],
    /// Column range.
    pub x: [usize; 2],
}

impl Window {
    /// The box holding no element.
    pub const EMPTY: Window = Window {
        c: [0, 0],
        y: [0, 0],
        x: [0, 0],
    };

    /// The box of every element of `view`.
    pub fn whole(view: View) -> Self {
        Window {
            c: [0, view.c],
            y: [0, view.h],
            x: [0, view.w],
        }
    }

    /// Whether the box holds no element.
    pub fn is_empty(&self) -> bool {
        self.c[0] >= self.c[1] || self.y[0] >= self.y[1] || self.x[0] >= self.x[1]
    }

    /// The number of elements in the box.
    pub fn elements(&self) -> usize {
        if self.is_empty() {
            0
        } else {
            (self.c[1] - self.c[0]) * (self.y[1] - self.y[0]) * (self.x[1] - self.x[0])
        }
    }

    /// The smallest box holding both boxes.
    pub fn union(&self, other: &Window) -> Window {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        let hull = |a: [usize; 2], b: [usize; 2]| [a[0].min(b[0]), a[1].max(b[1])];
        Window {
            c: hull(self.c, other.c),
            y: hull(self.y, other.y),
            x: hull(self.x, other.x),
        }
    }

    /// The channel, row and column ranges — the window argument of the conv kernels.
    pub fn ranges(&self) -> [Range<usize>; 3] {
        [
            self.c[0]..self.c[1],
            self.y[0]..self.y[1],
            self.x[0]..self.x[1],
        ]
    }

    /// Calls `f` with the flat index range of each run of the box's elements in
    /// `view`'s row-major order. Rows that touch are merged, so the box of a whole
    /// value is one run.
    pub fn for_each_run(&self, view: View, mut f: impl FnMut(Range<usize>)) {
        if self.is_empty() {
            return;
        }
        let width = self.x[1] - self.x[0];
        let mut run: Option<Range<usize>> = None;
        for c in self.c[0]..self.c[1] {
            for y in self.y[0]..self.y[1] {
                let start = (c * view.h + y) * view.w + self.x[0];
                match &mut run {
                    Some(r) if r.end == start => r.end += width,
                    _ => {
                        if let Some(r) = run.replace(start..start + width) {
                            f(r);
                        }
                    }
                }
            }
        }
        if let Some(r) = run {
            f(r);
        }
    }

    /// The bounding box of the elements of `self` (a box in `view`) where `a` and `b`
    /// differ under `same`; empty when they agree everywhere in the box.
    pub fn deviation<T: Copy>(
        &self,
        view: View,
        a: &[T],
        b: &[T],
        same: impl Fn(T, T) -> bool,
    ) -> Window {
        let mut found = Window {
            c: [usize::MAX, 0],
            y: [usize::MAX, 0],
            x: [usize::MAX, 0],
        };
        if self.is_empty() {
            return Window::EMPTY;
        }
        if view.h * view.w == 1 {
            // One element per channel: scan the channels as one row.
            let (ra, rb) = (&a[self.c[0]..self.c[1]], &b[self.c[0]..self.c[1]]);
            let differs = |(&p, &q): (&T, &T)| !same(p, q);
            return match ra.iter().zip(rb).position(differs) {
                None => Window::EMPTY,
                Some(first) => {
                    let last = ra.iter().zip(rb).rposition(differs).unwrap_or(first);
                    Window {
                        c: [self.c[0] + first, self.c[0] + last + 1],
                        y: [0, 1],
                        x: [0, 1],
                    }
                }
            };
        }
        for c in self.c[0]..self.c[1] {
            for y in self.y[0]..self.y[1] {
                let start = (c * view.h + y) * view.w;
                let row = self.x[0] + start..self.x[1] + start;
                let (ra, rb) = (&a[row.clone()], &b[row]);
                let Some(first) = ra.iter().zip(rb).position(|(&p, &q)| !same(p, q)) else {
                    continue;
                };
                let last = ra
                    .iter()
                    .zip(rb)
                    .rposition(|(&p, &q)| !same(p, q))
                    .unwrap_or(first);
                found.c = [found.c[0].min(c), c + 1];
                found.y = [found.y[0].min(y), found.y[1].max(y + 1)];
                found.x = [
                    found.x[0].min(self.x[0] + first),
                    found.x[1].max(self.x[0] + last + 1),
                ];
            }
        }
        if found.c[0] == usize::MAX {
            Window::EMPTY
        } else {
            found
        }
    }
}

/// How one operator carries a deviating box of an input to a box of its output.
///
/// Derived once per plan from the graph ([`BoxMap::of`]); the value shapes it needs come
/// from the golden snapshot's [`View`]s when the map is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoxMap {
    /// Any deviation may reach any output element (matmul, softmax, global pooling,
    /// flatten, reshape), or the output holds no evaluated value.
    Whole,
    /// Output element `i` reads element `i` of the first `operands` inputs (activations,
    /// clamps, scalar multiply, identity, bias and residual adds, products); a later
    /// input (a bias vector) reaches every element.
    Elementwise {
        /// The inputs read element by element.
        operands: usize,
    },
    /// A convolution: every output channel reads a `kh × kw` field of every input
    /// channel.
    Conv {
        /// Filter rows.
        kh: usize,
        /// Filter columns.
        kw: usize,
        /// Stride in both dimensions.
        stride: usize,
        /// Padding mode.
        padding: Padding,
    },
    /// Max or average pooling: each output channel reads a `kernel × kernel` field of
    /// its own input channel.
    Pool {
        /// Window size.
        kernel: usize,
        /// Stride.
        stride: usize,
    },
    /// Channel concatenation: input `k`'s box shifts by the channels before it.
    Concat,
}

impl BoxMap {
    /// The map of `node` in `graph`. A convolution whose filter is not a constant of
    /// known shape maps to [`BoxMap::Whole`].
    pub fn of(graph: &Graph, node: &Node) -> Self {
        match &node.op {
            Op::Relu
            | Op::Tanh
            | Op::Sigmoid
            | Op::Atan
            | Op::Elu
            | Op::ScalarMul { .. }
            | Op::Identity
            | Op::Clamp { .. }
            | Op::RangeRestore { .. }
            | Op::BiasAdd => BoxMap::Elementwise { operands: 1 },
            Op::Add | Op::Mul => BoxMap::Elementwise { operands: 2 },
            Op::Conv2d { stride, padding } => {
                let filter = node
                    .inputs
                    .get(1)
                    .and_then(|&w| graph.node(w).ok())
                    .filter(|w| matches!(w.op, Op::Const))
                    .and_then(|w| w.value.as_ref())
                    .map(|w| w.dims().to_vec());
                match filter.as_deref() {
                    Some(&[_, _, kh, kw]) => BoxMap::Conv {
                        kh,
                        kw,
                        stride: *stride,
                        padding: *padding,
                    },
                    _ => BoxMap::Whole,
                }
            }
            Op::MaxPool { kernel, stride } | Op::AvgPool { kernel, stride } => BoxMap::Pool {
                kernel: *kernel,
                stride: *stride,
            },
            Op::Concat => BoxMap::Concat,
            _ => BoxMap::Whole,
        }
    }

    /// The output box that input `k`'s deviating box `input` can reach. `input_view`
    /// and `out` are the two values' views; `offset` is the number of channels of the
    /// inputs before `k` (read only by [`BoxMap::Concat`]). Returns the whole output
    /// when the views do not support the map, and [`Window::EMPTY`] when no output
    /// element reads the box.
    pub fn apply(
        &self,
        k: usize,
        input: &Window,
        input_view: View,
        out: View,
        offset: usize,
    ) -> Window {
        let reach = self.reach(k, input, input_view, out, offset);
        if reach.is_empty() {
            Window::EMPTY
        } else {
            reach
        }
    }

    fn reach(
        &self,
        k: usize,
        input: &Window,
        input_view: View,
        out: View,
        offset: usize,
    ) -> Window {
        let whole = Window::whole(out);
        match *self {
            BoxMap::Whole => whole,
            BoxMap::Elementwise { operands } => {
                if k < operands && input_view == out {
                    *input
                } else {
                    whole
                }
            }
            BoxMap::Conv {
                kh,
                kw,
                stride,
                padding,
            } => {
                if k != 0 || !input_view.spatial || !out.spatial || stride == 0 {
                    return whole;
                }
                let (_, pad_h) = padded_geometry(input_view.h, kh, stride, padding);
                let (_, pad_w) = padded_geometry(input_view.w, kw, stride, padding);
                Window {
                    c: [0, out.c],
                    y: field_map(input.y, kh, stride, pad_h, out.h),
                    x: field_map(input.x, kw, stride, pad_w, out.w),
                }
            }
            BoxMap::Pool { kernel, stride } => {
                if k != 0 || !input_view.spatial || !out.spatial || stride == 0 {
                    return whole;
                }
                Window {
                    c: [input.c[0].min(out.c), input.c[1].min(out.c)],
                    y: field_map(input.y, kernel, stride, 0, out.h),
                    x: field_map(input.x, kernel, stride, 0, out.w),
                }
            }
            BoxMap::Concat => {
                if !input_view.batch1
                    || !out.batch1
                    || (input_view.h, input_view.w) != (out.h, out.w)
                    || offset + input_view.c > out.c
                {
                    return whole;
                }
                Window {
                    c: [input.c[0] + offset, input.c[1] + offset],
                    ..*input
                }
            }
        }
    }
}

/// The output positions along one dimension whose `kernel`-wide field (stride
/// `stride`, `pad` leading padding) overlaps input positions `span`, clamped to
/// `out` positions. Position `o` reads padded inputs `[o·stride, o·stride + kernel)`,
/// that is inputs `[o·stride − pad, o·stride − pad + kernel)`.
fn field_map(span: [usize; 2], kernel: usize, stride: usize, pad: usize, out: usize) -> [usize; 2] {
    if span[0] >= span[1] {
        return [0, 0];
    }
    let lo = (span[0] + pad + 1).saturating_sub(kernel).div_ceil(stride);
    let hi = (span[1] + pad).div_ceil(stride);
    [lo.min(out), hi.min(out)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeId;
    use crate::ops::conv::conv2d_forward;
    use crate::ops::pool::max_pool_forward;
    use ranger_tensor::Tensor;

    fn spatial(c: usize, h: usize, w: usize) -> View {
        View::of(&[1, c, h, w])
    }

    fn point(c: usize, y: usize, x: usize) -> Window {
        Window {
            c: [c, c + 1],
            y: [y, y + 1],
            x: [x, x + 1],
        }
    }

    fn conv(kh: usize, kw: usize, stride: usize, padding: Padding) -> BoxMap {
        BoxMap::Conv {
            kh,
            kw,
            stride,
            padding,
        }
    }

    /// The output box that actually changes when input element `(c, y, x)` of a conv
    /// changes: computed by running the kernel twice.
    fn conv_reach(
        view: View,
        cout: usize,
        k: (usize, usize),
        stride: usize,
        padding: Padding,
        at: (usize, usize, usize),
    ) -> (Window, View) {
        let x = Tensor::filled(vec![1, view.c, view.h, view.w], 1.0);
        let w = Tensor::filled(vec![cout, view.c, k.0, k.1], 1.0);
        let golden = conv2d_forward(NodeId::new(0), &x, &w, stride, padding).unwrap();
        let mut bumped = x.clone();
        bumped.data_mut()[(at.0 * view.h + at.1) * view.w + at.2] = 3.0;
        let faulty = conv2d_forward(NodeId::new(0), &bumped, &w, stride, padding).unwrap();
        let out = View::of(golden.dims());
        let reach = Window::whole(out).deviation(out, faulty.data(), golden.data(), |a, b| {
            a.to_bits() == b.to_bits()
        });
        (reach, out)
    }

    #[test]
    fn views_read_batch_one_tensors_as_channels_rows_and_columns() {
        assert_eq!(View::of(&[1, 3, 4, 5]), spatial(3, 4, 5));
        let dense = View::of(&[1, 7]);
        assert_eq!(
            (dense.c, dense.h, dense.w, dense.spatial, dense.batch1),
            (7, 1, 1, false, true)
        );
        let batched = View::of(&[2, 3, 4, 5]);
        assert_eq!(
            (batched.c, batched.h, batched.w, batched.batch1),
            (120, 1, 1, false)
        );
    }

    #[test]
    fn runs_merge_touching_rows() {
        let view = spatial(2, 3, 4);
        let mut runs = Vec::new();
        Window::whole(view).for_each_run(view, |r| runs.push(r));
        assert_eq!(runs, vec![0..24]);
        runs.clear();
        let full_rows = Window {
            c: [0, 2],
            y: [1, 3],
            x: [0, 4],
        };
        full_rows.for_each_run(view, |r| runs.push(r));
        assert_eq!(runs, vec![4..12, 16..24]);
        runs.clear();
        point(1, 2, 3)
            .union(&point(1, 1, 2))
            .for_each_run(view, |r| runs.push(r));
        assert_eq!(runs, vec![18..20, 22..24]);
    }

    #[test]
    fn deviation_is_the_bounding_box_of_differing_elements() {
        let view = spatial(2, 3, 4);
        let golden = vec![0u32; 24];
        let mut faulty = golden.clone();
        assert!(Window::whole(view)
            .deviation(view, &faulty, &golden, |a, b| a == b)
            .is_empty());
        faulty[5] = 1; // (0, 1, 1)
        faulty[22] = 1; // (1, 2, 2)
        let found = Window::whole(view).deviation(view, &faulty, &golden, |a, b| a == b);
        assert_eq!(
            found,
            Window {
                c: [0, 2],
                y: [1, 3],
                x: [1, 3]
            }
        );
        // Only the compared box counts.
        let inside = point(1, 2, 2).deviation(view, &faulty, &golden, |a, b| a == b);
        assert_eq!(inside, point(1, 2, 2));
    }

    /// Every conv map equals the reach measured by running the kernel, over both
    /// paddings, strides 1–2, kernels 1–5 (wider than the input included) and points at
    /// both edges and inside.
    #[test]
    fn conv_map_matches_the_measured_reach() {
        for (h, w) in [(5, 6), (2, 3), (1, 1), (7, 4)] {
            let view = spatial(2, h, w);
            for k in 1..=5 {
                for stride in 1..=2 {
                    for padding in [Padding::Same, Padding::Valid] {
                        for at in [
                            (0, 0, 0),
                            (1, h - 1, w - 1),
                            (0, h / 2, w / 2),
                            (1, 0, w - 1),
                        ] {
                            if padding == Padding::Valid && (k > h || k > w) {
                                continue;
                            }
                            let (reach, out) = conv_reach(view, 3, (k, k), stride, padding, at);
                            let mapped = conv(k, k, stride, padding).apply(
                                0,
                                &point(at.0, at.1, at.2),
                                view,
                                out,
                                0,
                            );
                            assert_eq!(
                                mapped, reach,
                                "k {k} stride {stride} {padding:?} at {at:?} on {h}x{w}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pool_map_keeps_channels_and_matches_the_measured_reach() {
        let view = spatial(3, 6, 5);
        for (kernel, stride) in [(2, 2), (3, 1), (3, 2), (1, 1)] {
            for at in [(0, 0, 0), (2, 5, 4), (1, 3, 2)] {
                let x = Tensor::filled(vec![1, 3, 6, 5], 1.0);
                let golden = max_pool_forward(NodeId::new(0), &x, kernel, stride).unwrap();
                let mut bumped = x.clone();
                bumped.data_mut()[(at.0 * 6 + at.1) * 5 + at.2] = 3.0;
                let faulty = max_pool_forward(NodeId::new(0), &bumped, kernel, stride).unwrap();
                let out = View::of(golden.dims());
                let reach =
                    Window::whole(out).deviation(out, faulty.data(), golden.data(), |a, b| a == b);
                let mapped = BoxMap::Pool { kernel, stride }.apply(
                    0,
                    &point(at.0, at.1, at.2),
                    view,
                    out,
                    0,
                );
                assert_eq!(mapped, reach, "kernel {kernel} stride {stride} at {at:?}");
            }
        }
    }

    #[test]
    fn elementwise_maps_keep_the_box_and_widen_on_a_broadcast_operand() {
        let view = spatial(4, 3, 3);
        let b = point(2, 1, 0);
        let unary = BoxMap::Elementwise { operands: 1 };
        assert_eq!(unary.apply(0, &b, view, view, 0), b);
        // The bias vector (input 1) reaches every element.
        assert_eq!(
            unary.apply(1, &b, View::of(&[4]), view, 0),
            Window::whole(view)
        );
        let binary = BoxMap::Elementwise { operands: 2 };
        assert_eq!(binary.apply(1, &b, view, view, 0), b);
        // Different shapes cannot map element by element.
        assert_eq!(
            binary.apply(0, &b, spatial(4, 3, 1), view, 0),
            Window::whole(view)
        );
    }

    #[test]
    fn concat_map_shifts_channels_by_the_inputs_before() {
        let (a, out) = (spatial(3, 2, 2), spatial(5, 2, 2));
        let b = point(1, 1, 0);
        assert_eq!(BoxMap::Concat.apply(1, &b, a, out, 2), point(3, 1, 0));
        assert_eq!(BoxMap::Concat.apply(0, &b, a, out, 0), b);
        // Batched values concatenate channels per batch row: no box map.
        let batched = View::of(&[2, 3, 2, 2]);
        assert_eq!(
            BoxMap::Concat.apply(0, &b, batched, View::of(&[2, 5, 2, 2]), 0),
            Window::whole(View::of(&[2, 5, 2, 2]))
        );
    }

    #[test]
    fn whole_maps_widen_to_the_whole_output() {
        let out = View::of(&[1, 10]);
        assert_eq!(
            BoxMap::Whole.apply(0, &point(0, 0, 0), spatial(2, 2, 2), out, 0),
            Window::whole(out)
        );
    }
}
