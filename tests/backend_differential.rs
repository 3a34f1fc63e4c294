//! Differential fuzzing of the SIMD backend against the scalar reference, per operator.
//!
//! The SIMD backend's kernels run every production `f32` pass (`Graph::compile`,
//! `BackendKind::F32` and its `simd` alias); the reference is `ReferenceBackend`, which
//! no production path selects, reached here through `compile_with(&ReferenceBackend)`.
//!
//! `tests/backend_parity.rs` pins whole zoo models; this suite attacks the three ported
//! SIMD kernels (conv2d, matmul, softmax) and the delegated remainder one operator at a
//! time, over randomized shapes/strides/padding and **full-range** operands — raw `u32`
//! bit patterns, so subnormals, ±0, infinities and NaN all flow through the kernels —
//! which is where re-association or a fused multiply-add would surface as a bit flip.
//!
//! # Tolerance table
//!
//! Every kernel the SIMD backend currently ports preserves the reference's partial-
//! product order and rounding steps (see `ranger-simd`'s crate docs), so every entry is
//! *bit-exact*; the `Tolerance` machinery exists so a future kernel that genuinely
//! re-associates (and re-measures its SDC baseline) can document a looser bound here.
//!
//! | operator            | tolerance                     | why                          |
//! |---------------------|-------------------------------|------------------------------|
//! | conv2d              | bit-exact (NaN as a class)    | lanes walk the wide phase-   |
//! |                     |                               | plane positions; `(ic,ky,kx)`|
//! |                     |                               | order per output preserved;  |
//! |                     |                               | non-finite filter: reference |
//! | matmul              | bit-exact (NaN as a class)    | `(i,p,j)` nest + `a == 0.0`  |
//! |                     |                               | skip preserved; lanes walk `j`|
//! | softmax             | bit-exact (NaN as a class)    | scalar `exp` pass verbatim;  |
//! |                     |                               | max/divide passes exact      |
//! | everything else     | bit-exact (NaN as a class)    | delegated to the reference   |
//!
//! "NaN as a class": IEEE 754 leaves NaN payload propagation unspecified and LLVM does
//! not pin scalar `fadd`/`fmul` operand order for payloads, so two *scalar* builds can
//! already disagree in NaN payload bits. A NaN output therefore matches any NaN; every
//! non-NaN output must match bit for bit. No judged quantity (argmax, SDC verdicts) can
//! observe a payload.
//!
//! Failures print the operator, the sampled shape and the operand seed, so a failing
//! case replays as a deterministic unit test.
//!
//! CI runs this suite three times: on the widest tier the host offers, under
//! `RANGER_SIMD_FORCE=avx2` (its own conv tile sizes, unreachable on an AVX-512 host
//! otherwise), and under `RANGER_SIMD_FORCE=scalar` to keep the fallback honest.

use proptest::prelude::*;
use ranger_graph::exec::NoopInterceptor;
use ranger_graph::op::Padding;
use ranger_graph::{Graph, NodeId, Op, ReferenceBackend};
use ranger_tensor::Tensor;

/// Per-operator output tolerance. Only `Bits` is in use — see the module-level table —
/// but `Ulps` documents what a future re-associating kernel would declare.
#[derive(Debug, Clone, Copy)]
enum Tolerance {
    /// Bit-for-bit equality, with NaN compared as a class (any payload matches).
    Bits,
    /// At most this many units in the last place apart (would require re-measuring the
    /// kernel's SDC baseline; no current kernel uses it).
    #[allow(dead_code)]
    Ulps(u32),
}

/// Canonicalizes a float for comparison: every NaN maps to the quiet-NaN bit pattern.
fn bits(v: f32) -> u32 {
    if v.is_nan() {
        0x7FC0_0000
    } else {
        v.to_bits()
    }
}

/// Asserts `simd` matches `reference` under `tolerance`; `context` names the operator,
/// shape and seed so a failure is replayable.
fn assert_matches(reference: &Tensor, simd: &Tensor, tolerance: Tolerance, context: &str) {
    assert_eq!(reference.dims(), simd.dims(), "{context}: shapes diverged");
    for (i, (&r, &s)) in reference.data().iter().zip(simd.data().iter()).enumerate() {
        match tolerance {
            Tolerance::Bits => assert_eq!(
                bits(r),
                bits(s),
                "{context}: element {i} diverged (reference {r} = {:#010x}, simd {s} = {:#010x})",
                r.to_bits(),
                s.to_bits()
            ),
            Tolerance::Ulps(max) => {
                let diff = (bits(r) as i64 - bits(s) as i64).unsigned_abs();
                assert!(
                    diff <= max as u64,
                    "{context}: element {i} is {diff} ulps from the reference \
                     (reference {r}, simd {s}, documented bound {max})"
                );
            }
        }
    }
}

/// SplitMix64-driven full-range `f32` generator: one value in four is a raw bit pattern
/// (hitting NaN, infinities, subnormals and ±0 with realistic frequency), one in eight
/// is an exact ±0 (exercising matmul's `a == 0.0` skip path), and the rest are moderate
/// magnitudes so most accumulations stay finite long enough to exercise real rounding.
struct FullRangeF32 {
    state: u64,
}

impl FullRangeF32 {
    fn new(seed: u64) -> Self {
        FullRangeF32 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f32(&mut self) -> f32 {
        let raw = self.next_u64();
        match raw % 8 {
            0 | 1 => f32::from_bits((raw >> 32) as u32),
            2 => f32::copysign(0.0, ((raw >> 32) as i32) as f32),
            _ => {
                // Moderate magnitudes in roughly [-8, 8).
                let unit = ((raw >> 40) as f32) / ((1u64 << 24) as f32);
                (unit - 0.5) * 16.0
            }
        }
    }

    fn tensor(&mut self, dims: Vec<usize>) -> Tensor {
        let len = dims.iter().product();
        Tensor::from_vec(dims, (0..len).map(|_| self.next_f32()).collect()).unwrap()
    }

    /// Like [`tensor`](Self::tensor), but every infinity and NaN is redrawn: a conv
    /// filter the SIMD kernel computes itself (a non-finite filter takes the reference
    /// fallback instead).
    fn finite_tensor(&mut self, dims: Vec<usize>) -> Tensor {
        let len = dims.iter().product();
        let data = (0..len)
            .map(|_| loop {
                let v = self.next_f32();
                if v.is_finite() {
                    break v;
                }
            })
            .collect();
        Tensor::from_vec(dims, data).unwrap()
    }
}

/// Builds `x → conv(w)` and asserts the SIMD backend matches the reference on it.
fn assert_conv_matches(w: Tensor, x: Tensor, stride: usize, padding: Padding, context: &str) {
    let mut g = Graph::new();
    let input = g.add_input("x");
    let w = g.add_const("w", w, true);
    let conv = g.add_node("conv", Op::Conv2d { stride, padding }, vec![input, w]);
    assert_backends_match(&g, &[("x", x)], &[conv], Tolerance::Bits, context);
}

/// Runs `graph` on the reference oracle and on the dispatched kernels (`compile()`, the
/// `f32` backend) and asserts every node the run materialized matches under
/// `tolerance`.
fn assert_backends_match(
    graph: &Graph,
    feeds: &[(&str, Tensor)],
    nodes: &[NodeId],
    tolerance: Tolerance,
    context: &str,
) {
    let reference_plan = graph.compile_with(&ReferenceBackend).unwrap();
    let simd_plan = graph.compile().unwrap();
    let mut reference = reference_plan.buffers();
    let mut simd = simd_plan.buffers();
    reference_plan
        .run_into(&mut reference, feeds, &mut NoopInterceptor)
        .unwrap();
    simd_plan
        .run_into(&mut simd, feeds, &mut NoopInterceptor)
        .unwrap();
    for &node in nodes {
        assert_matches(
            reference.get(node).unwrap(),
            simd.get(node).unwrap(),
            tolerance,
            &format!("{context}, node {node:?}"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// conv2d over random geometry (stride, padding, kernels up to and past the input
    /// size, channel counts past two output-channel blocks, rows spanning many wide
    /// vectors) and full-range activations: bit-exact against the reference. One
    /// filter in five carries an infinity or NaN, which takes the reference fallback.
    #[test]
    fn simd_conv2d_is_bit_exact_on_full_range_operands(
        batch in 1usize..4,
        cin in 1usize..4,
        height in 1usize..41,
        width in 1usize..41,
        cout in 1usize..12,
        kernel in 1usize..6,
        stride in 1usize..5,
        same_pad in 0u8..2,
        poison in 0u8..5,
        seed in 0u64..u64::MAX,
    ) {
        // Valid padding requires the kernel to fit inside the input.
        let padding = if same_pad == 1 || kernel > height.min(width) {
            Padding::Same
        } else {
            Padding::Valid
        };
        let context = format!(
            "conv2d [{batch},{cin},{height},{width}] * [{cout},{cin},{kernel},{kernel}] \
             stride {stride} {padding:?} poison {poison} seed {seed}"
        );
        let mut gen = FullRangeF32::new(seed);
        let mut w = gen.finite_tensor(vec![cout, cin, kernel, kernel]);
        if poison == 0 {
            let at = (seed % w.len() as u64) as usize;
            w.data_mut()[at] = if seed % 2 == 0 { f32::NAN } else { f32::NEG_INFINITY };
        }
        let x = gen.tensor(vec![batch, cin, height, width]);
        assert_conv_matches(w, x, stride, padding, &context);
    }

    /// matmul over random (m, k, n) — n past the widest vector width to cover tails —
    /// and full-range operands including exact zeros (the `a == 0.0` skip path):
    /// bit-exact against the reference.
    #[test]
    fn simd_matmul_is_bit_exact_on_full_range_operands(
        m in 1usize..8,
        k in 1usize..12,
        n in 1usize..40,
        seed in 0u64..u64::MAX,
    ) {
        let context = format!("matmul [{m},{k}] x [{k},{n}] seed {seed}");
        let mut gen = FullRangeF32::new(seed);
        let mut g = Graph::new();
        let x = g.add_input("x");
        let w = g.add_const("w", gen.tensor(vec![k, n]), true);
        let mm = g.add_node("mm", Op::MatMul, vec![x, w]);
        let feeds = [("x", gen.tensor(vec![m, k]))];
        assert_backends_match(&g, &feeds, &[mm], Tolerance::Bits, &context);
    }

    /// softmax over random row counts and lengths (short rows exercise the pure-scalar
    /// path, long rows the vector max/divide passes and their tails) on full-range
    /// inputs — NaN rows, all-(-inf) rows, overflowing rows: bit-exact against the
    /// reference.
    #[test]
    fn simd_softmax_is_bit_exact_on_full_range_operands(
        rows in 1usize..6,
        row_len in 1usize..40,
        seed in 0u64..u64::MAX,
    ) {
        let context = format!("softmax [{rows},{row_len}] seed {seed}");
        let mut gen = FullRangeF32::new(seed);
        let mut g = Graph::new();
        let x = g.add_input("x");
        let sm = g.add_node("softmax", Op::Softmax, vec![x]);
        let feeds = [("x", gen.tensor(vec![rows, row_len]))];
        assert_backends_match(&g, &feeds, &[sm], Tolerance::Bits, &context);
    }

    /// A mixed graph covering the delegated operators (relu, bias-add, max-pool,
    /// clamp, tanh) feeding the ported kernels: every materialized node matches
    /// bit-for-bit, proving the delegation path shares buffers correctly with the
    /// ported kernels inside one arena.
    #[test]
    fn simd_delegated_operators_compose_bit_exactly_with_ported_kernels(
        size in 4usize..9,
        cout in 1usize..4,
        features in 1usize..12,
        seed in 0u64..u64::MAX,
    ) {
        let context = format!("mixed graph size {size} cout {cout} features {features} seed {seed}");
        let mut gen = FullRangeF32::new(seed);
        let mut g = Graph::new();
        let x = g.add_input("x");
        let w = g.add_const("w", gen.tensor(vec![cout, 1, 3, 3]), true);
        let conv = g.add_node(
            "conv",
            Op::Conv2d { stride: 1, padding: Padding::Same },
            vec![x, w],
        );
        let bias = g.add_const("bias", gen.tensor(vec![cout]), true);
        let biased = g.add_node("biased", Op::BiasAdd, vec![conv, bias]);
        let relu = g.add_node("relu", Op::Relu, vec![biased]);
        let pool = g.add_node("pool", Op::MaxPool { kernel: 2, stride: 2 }, vec![relu]);
        let flat = g.add_node("flat", Op::Flatten, vec![pool]);
        let pooled = size / 2;
        let w2 = g.add_const(
            "w2",
            gen.tensor(vec![cout * pooled * pooled, features]),
            true,
        );
        let mm = g.add_node("mm", Op::MatMul, vec![flat, w2]);
        let clamp = g.add_node("clamp", Op::Clamp { lo: -4.0, hi: 4.0 }, vec![mm]);
        let tanh = g.add_node("tanh", Op::Tanh, vec![clamp]);
        let sm = g.add_node("softmax", Op::Softmax, vec![tanh]);
        let feeds = [("x", gen.tensor(vec![1, 1, size, size]))];
        assert_backends_match(
            &g,
            &feeds,
            &[conv, biased, relu, pool, flat, mm, clamp, tanh, sm],
            Tolerance::Bits,
            &context,
        );
    }
}

/// Strided convs, pinned deterministically at widths whose wide phase-plane rows span
/// many vectors of the widest lane count the dispatcher can pick (16 on AVX-512) and
/// end mid-vector: every stride (2, 3, 4) splits the input into phase planes and stays
/// bit-exact on full-range activations, with both `Same` padding (zero-filled plane
/// borders) and `Valid` padding (planes cut from the interior). The proptest above
/// samples this geometry; this test guarantees the deep cases run on every CI box.
#[test]
fn simd_strided_conv_gather_path_is_bit_exact_across_lane_widths() {
    for stride in [2usize, 3, 4] {
        for (width, padding) in [
            (77, Padding::Same),
            (77, Padding::Valid),
            (64, Padding::Same),
            (39, Padding::Valid),
        ] {
            let context = format!("strided conv stride {stride} width {width} {padding:?}");
            let mut gen = FullRangeF32::new(0xC0FFEE ^ (stride as u64) << 8 ^ width as u64);
            let w = gen.finite_tensor(vec![3, 2, 3, 3]);
            let x = gen.tensor(vec![2, 2, 9, width]);
            assert_conv_matches(w, x, stride, padding, &context);
        }
    }
}

/// A filter holding a NaN or an infinity cannot run through the phase planes: a
/// padding tap would add `0 · inf = NaN` where the reference adds nothing. The SIMD
/// backend hands such a conv to the reference kernel, so the outputs still match,
/// padding-adjacent positions included.
#[test]
fn simd_conv_with_a_non_finite_filter_takes_the_reference_path() {
    for (i, bad) in [f32::NAN, f32::INFINITY].into_iter().enumerate() {
        for padding in [Padding::Same, Padding::Valid] {
            let context = format!("non-finite filter {bad} {padding:?}");
            let mut gen = FullRangeF32::new(0xBAD ^ i as u64);
            let mut w = gen.finite_tensor(vec![5, 2, 3, 3]);
            // The top-left tap: under `Same` padding it reads the padding for every
            // output in the first row and column.
            w.data_mut()[0] = bad;
            // Moderate activations only: every non-padding output is then finite on
            // the reference, so a NaN leaking from a padding tap would show.
            let x = Tensor::from_vec(
                vec![2, 2, 7, 9],
                (0..2 * 2 * 7 * 9)
                    .map(|k| (k as f32 * 0.37).sin())
                    .collect(),
            )
            .unwrap();
            assert_conv_matches(w, x, 1, padding, &context);
        }
    }
}

/// The 20 convolutions of the zoo's ResNet-18 (stem, four stages of two basic blocks,
/// three 1×1 projection shortcuts) at batch 2: the geometries the benchmark's
/// conv-bound workload spends its time in, bit-exact on full-range activations.
#[test]
fn simd_conv_is_bit_exact_on_the_resnet18_geometries() {
    // (cin, cout, input size, kernel, stride); every conv pads `Same`.
    let mut convs = vec![(3, 8, 32, 3, 1)];
    convs.extend([(8, 8, 32, 3, 1); 4]);
    for (cin, cout, size) in [(8, 16, 32), (16, 24, 16), (24, 32, 8)] {
        convs.push((cin, cout, size, 3, 2));
        convs.push((cout, cout, size / 2, 3, 1));
        convs.push((cin, cout, size, 1, 2));
        convs.extend([(cout, cout, size / 2, 3, 1); 2]);
    }
    assert_eq!(convs.len(), 20);
    for (i, &(cin, cout, size, kernel, stride)) in convs.iter().enumerate() {
        let context = format!(
            "resnet18 conv {i}: [2,{cin},{size},{size}] * [{cout},{cin},{kernel},{kernel}] \
             stride {stride}"
        );
        let mut gen = FullRangeF32::new(0x5E5 + i as u64);
        let w = gen.finite_tensor(vec![cout, cin, kernel, kernel]);
        let x = gen.tensor(vec![2, cin, size, size]);
        assert_conv_matches(w, x, stride, Padding::Same, &context);
    }
}

/// Invalid operand shapes produce the reference backend's exact error text: the SIMD
/// backend validates through the same shared geometry/shape checks, so a user never
/// sees a backend-specific diagnostic.
#[test]
fn simd_backend_reports_reference_error_text_for_invalid_shapes() {
    let mut g = Graph::new();
    let x = g.add_input("x");
    let w = g.add_const("w", Tensor::filled(vec![3, 4], 1.0), true);
    let mm = g.add_node("mm", Op::MatMul, vec![x, w]);
    let feeds = [("x", Tensor::filled(vec![2, 2], 1.0))];
    let reference = g
        .compile_with(&ReferenceBackend)
        .unwrap()
        .run_simple(&feeds, mm)
        .unwrap_err()
        .to_string();
    let simd = g
        .compile()
        .unwrap()
        .run_simple(&feeds, mm)
        .unwrap_err()
        .to_string();
    assert_eq!(reference, simd);
}
