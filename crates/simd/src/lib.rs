//! Runtime-dispatched SIMD `f32` kernels with **order-preserving accumulation**.
//!
//! This crate is the vector half of the workspace's `SimdBackend`
//! (`ranger_graph::backend::SimdBackend`): portable kernel bodies for the three hot
//! operators — 2-D convolution, matmul and the three-pass stable softmax — written once
//! against the [`SimdF32`] lane abstraction and evaluated at runtime against the widest
//! instruction set the host offers (AVX-512 → AVX2+FMA → NEON → scalar fallback, the
//! ladder [`SimdTier`] names).
//!
//! # The bit-for-bit contract
//!
//! Fault-injection campaigns are pinned by *exact* SDC counts, so these kernels are not
//! allowed to change a single output bit relative to the scalar reference kernels in
//! `ranger-graph`/`ranger-tensor`. That rules out the classic SIMD strategy of
//! vectorizing the reduction dimension (which re-associates the `f32` sum) and rules out
//! FMA (which fuses the multiply's rounding step away). Instead every kernel here
//! vectorizes across **independent output lanes** — vector element `j` accumulates
//! output element `j` and nothing else, with a separate multiply and add per partial
//! product — so each output element sees *exactly* the partial products of the scalar
//! kernel, in the same order, with the same two rounding steps each:
//!
//! * **conv2d** is register-blocked. Per batch row it copies the input into zero-padded
//!   *phase planes* (one per `(ky mod stride, kx mod stride)` pair), so every tap of
//!   every stride reads a contiguous run of a *wide* output plane; a tile of output
//!   channels × vectors of accumulators then stays in registers across the whole
//!   `(ic, ky, kx)` reduction. Per output element the partial products still arrive in
//!   `(ic, ky, kx)` order. The padding taps add `0 · w = ±0`, which leaves an
//!   accumulator that starts at `+0.0` bit-for-bit unchanged (it can never be `-0.0`
//!   under round-to-nearest) — for finite `w`. A filter holding an infinity or NaN
//!   would turn those taps into NaN, so [`conv2d`] reports it instead of computing, and
//!   the caller runs the reference kernel.
//! * **matmul** keeps the `(i, p, j)` nest of `Tensor::matmul_into` — including its
//!   `a == 0.0` row-skip, which is a *semantic* property (skipped products never round) —
//!   and vectorizes the `j` (output column) loop.
//! * **softmax** is three passes: a vectorized max pass (reduction over `max`, which is
//!   associative up to the sign of zero — and the sign of the row max provably cannot
//!   change a softmax output, since `x - (+0.0)` and `x - (-0.0)` differ only at
//!   `x == -0.0` where both subtractions feed `exp` a zero and `exp(±0) = 1.0` exactly),
//!   a **scalar** `exp`-and-sum pass kept verbatim from the reference (transcendental
//!   bit parity, and the `denom` sum order is preserved), and a vectorized divide pass
//!   (IEEE division is correctly rounded, so lane width cannot change it).
//!
//! The dispatch ladder itself is the [`SimdOp`] trait: one generic `eval` body,
//! monomorphized inside per-tier `#[target_feature]` wrappers so LLVM compiles the
//! inlined lane ops with the tier's instruction set enabled. `RANGER_SIMD_FORCE` pins
//! the tier for differential testing (e.g. `RANGER_SIMD_FORCE=scalar` keeps the fallback
//! honest on AVX-512 hosts); see [`active_tier`].
//!
//! One caveat bounds the claim: **NaN payloads**. IEEE 754 leaves the payload of a NaN
//! produced by combining NaN operands unspecified, and LLVM does not pin `fadd`/`fmul`
//! operand order for payload propagation — two *scalar* builds of the same kernel may
//! already disagree in NaN payload bits. The contract is therefore: every non-NaN
//! output is bit-for-bit equal, and a NaN output is NaN on both sides (any payload).
//! No judged quantity can see the difference — comparisons against NaN are false
//! regardless of payload, so argmax/SDC verdicts are payload-insensitive.
//!
//! The proof that all of this holds is external: `tests/backend_differential.rs` at the
//! workspace root fuzzes every kernel against the scalar reference over full-range
//! operands (subnormals, ±0, infinities, NaN) and asserts bit equality under that
//! contract.

#![warn(missing_docs)]

mod dispatch;
mod kernels;
mod vec;

pub use dispatch::{active_tier, detected_tier, dispatch, SimdOp, SimdTier};
pub use kernels::{conv2d, conv2d_window, kernels, matmul, softmax, Conv2dShape, Kernels};
pub use vec::SimdF32;
