//! Integer linear-algebra kernels for the fixed-point inference path.
//!
//! The float kernels in [`crate::linalg`] evaluate *fake-quantized* models:
//! values snapped to a fixed-point grid but carried as `f32`. The kernels
//! here are the genuine article — integer codes (stored widened to `i16`),
//! `i32`/`i64` accumulators — and model what an FPGA datapath with
//! `ap_fixed` arithmetic actually computes. They operate on raw slices (no `Tensor` wrapper):
//! scale/zero-point bookkeeping lives one layer up, in `bnn-quant`.
//!
//! # Arithmetic contract
//!
//! * **Exact accumulation.** `a[i8] * b[i8]` products are at most `2^14` in
//!   magnitude, so an `i32` accumulator is exact for reductions of fewer
//!   than `2^17` terms — far beyond any layer in this workspace (the widest
//!   reduction, a dense layer on flattened CIFAR features, is a few thousand
//!   terms). The `i16` kernel accumulates in `i64` and is exact for any
//!   practical reduction (up to `2^33` terms). Kernels therefore never
//!   saturate *during* accumulation; saturation is applied explicitly when a
//!   wide accumulator is requantized back to a narrow storage type (see
//!   [`round_shift`] and [`saturate`]).
//! * **Rounding.** [`round_shift`] rounds to nearest with ties away from
//!   zero — the same convention as `f32::round`, which the fake-quantization
//!   grid in `bnn-quant` uses. This keeps the integer path and its
//!   fake-quant float reference bit-compatible wherever `f32` arithmetic is
//!   exact.
//! * **Determinism.** Integer addition is associative, so any execution
//!   order gives the same bits; the kernels still split work into disjoint
//!   output row blocks on a [`parpool::Executor`] exactly like the float
//!   kernels, preserving the PR-3 threading contract (one writer per output
//!   element, identical results for every thread count).
//! * **SIMD dispatch.** The hot inner loops — the packed matmul kernels, the
//!   requantize row helpers and the im2row fill — route through a runtime
//!   backend selected once per process (see [`crate::simd`]). Because
//!   accumulation is exact, every backend produces the same bits as the
//!   scalar reference; the scalar kernels stay compiled in as the fallback
//!   and as the oracle the parity suite checks vector backends against.

use crate::linalg::{fill_row_blocks, ConvGeometry};
use crate::simd::Backend;
use crate::TensorError;
use parpool::Executor;

/// Rounds `value / 2^shift` to the nearest integer, ties away from zero.
///
/// This is the requantization primitive of the fixed-point path: because
/// every scale in an `ap_fixed` pipeline is a power of two, rescaling an
/// accumulator to an output format is exactly a rounding right-shift. A
/// `shift` of zero returns the value unchanged.
///
/// # Example
///
/// ```
/// use bnn_tensor::int::round_shift;
///
/// assert_eq!(round_shift(10, 2), 3); // 2.5 rounds away from zero
/// assert_eq!(round_shift(-10, 2), -3);
/// assert_eq!(round_shift(9, 2), 2); // 2.25 rounds down
/// assert_eq!(round_shift(7, 0), 7);
/// ```
pub fn round_shift(value: i64, shift: u32) -> i64 {
    if shift == 0 {
        return value;
    }
    let bias = 1i64 << (shift - 1);
    if value >= 0 {
        (value + bias) >> shift
    } else {
        // Mirror the positive case so ties round away from zero.
        -((-value + bias) >> shift)
    }
}

/// Clamps a wide accumulator value into `[min, max]` — the explicit
/// saturation step of the fixed-point path (matching `ap_fixed`'s `AP_SAT`
/// overflow mode rather than two's-complement wrap-around).
///
/// # Example
///
/// ```
/// use bnn_tensor::int::saturate;
///
/// assert_eq!(saturate(300, -128, 127), 127);
/// assert_eq!(saturate(-300, -128, 127), -128);
/// assert_eq!(saturate(5, -128, 127), 5);
/// ```
pub fn saturate(value: i64, min: i64, max: i64) -> i64 {
    value.clamp(min, max)
}

/// Rescales an accumulator by `2^-shift` (rounding to nearest, ties away
/// from zero) and saturates the result into `[min, max]` — the full
/// requantize-one-value operation. Negative shifts scale *up* (saturating),
/// for the rare case where the output format has more fractional bits than
/// the accumulator.
pub fn requantize(value: i64, shift: i32, min: i64, max: i64) -> i64 {
    let scaled = if shift >= 0 {
        round_shift(value, shift as u32)
    } else {
        value.saturating_mul(1i64 << (-shift).min(62))
    };
    saturate(scaled, min, max)
}

/// Returns true when the whole-row requantize can take the SIMD path:
/// a plain rounding right-shift (no scale-up) into bounds that fit the
/// `i16` storage type the vector kernels narrow into.
fn simd_requant_ok(backend: Backend, shift: i32, min: i64, max: i64) -> bool {
    backend != Backend::Scalar
        && shift >= 0
        && min >= i16::MIN as i64
        && max <= i16::MAX as i64
        && min <= max
}

/// Requantizes a whole row of `i32` accumulators sharing one bias into `i16`
/// storage: `out[i] = saturate(round_shift(acc[i] + bias, shift), min, max)`
/// — the per-output-channel epilogue of a quantized convolution. Dispatches
/// to the active SIMD backend when the parameters fit its contract
/// (`shift >= 0`, bounds within `i16`), otherwise runs the scalar reference;
/// both produce identical bits.
///
/// # Panics
///
/// Panics if `acc` and `out` differ in length.
///
/// # Example
///
/// ```
/// use bnn_tensor::int::requantize_i32_row_into;
///
/// let acc = [10i32, -10, 1000];
/// let mut out = [0i16; 3];
/// requantize_i32_row_into(&acc, 0, 2, -128, 127, &mut out);
/// assert_eq!(out, [3, -3, 127]);
/// ```
pub fn requantize_i32_row_into(
    acc: &[i32],
    bias: i64,
    shift: i32,
    min: i64,
    max: i64,
    out: &mut [i16],
) {
    assert_eq!(
        acc.len(),
        out.len(),
        "requantize_i32_row_into length mismatch"
    );
    let backend = simdkern::active();
    if simd_requant_ok(backend, shift, min, max) {
        simdkern::requantize_i32_row(backend, acc, bias, shift as u32, min, max, out);
    } else {
        for (o, &a) in out.iter_mut().zip(acc) {
            *o = requantize(a as i64 + bias, shift, min, max) as i16;
        }
    }
}

/// [`requantize_i32_row_into`] for `i64` accumulators (the wide-format
/// convolution epilogue).
///
/// # Panics
///
/// Panics if `acc` and `out` differ in length.
pub fn requantize_i64_row_into(
    acc: &[i64],
    bias: i64,
    shift: i32,
    min: i64,
    max: i64,
    out: &mut [i16],
) {
    assert_eq!(
        acc.len(),
        out.len(),
        "requantize_i64_row_into length mismatch"
    );
    let backend = simdkern::active();
    if simd_requant_ok(backend, shift, min, max) {
        simdkern::requantize_i64_row(backend, acc, bias, shift as u32, min, max, out);
    } else {
        for (o, &a) in out.iter_mut().zip(acc) {
            *o = requantize(a + bias, shift, min, max) as i16;
        }
    }
}

/// [`requantize_i32_row_into`] with one bias per element
/// (`out[i] = saturate(round_shift(acc[i] + biases[i], shift), min, max)`)
/// — the dense-layer epilogue, where each output feature carries its own
/// bias.
///
/// # Panics
///
/// Panics if `acc`, `biases` and `out` differ in length.
pub fn requantize_i32_row_biased_into(
    acc: &[i32],
    biases: &[i64],
    shift: i32,
    min: i64,
    max: i64,
    out: &mut [i16],
) {
    assert_eq!(
        acc.len(),
        out.len(),
        "requantize_i32_row_biased_into length mismatch"
    );
    assert_eq!(
        acc.len(),
        biases.len(),
        "requantize_i32_row_biased_into bias mismatch"
    );
    let backend = simdkern::active();
    if simd_requant_ok(backend, shift, min, max) {
        simdkern::requantize_i32_row_biased(backend, acc, biases, shift as u32, min, max, out);
    } else {
        for ((o, &a), &b) in out.iter_mut().zip(acc).zip(biases) {
            *o = requantize(a as i64 + b, shift, min, max) as i16;
        }
    }
}

/// [`requantize_i32_row_biased_into`] for `i64` accumulators.
///
/// # Panics
///
/// Panics if `acc`, `biases` and `out` differ in length.
pub fn requantize_i64_row_biased_into(
    acc: &[i64],
    biases: &[i64],
    shift: i32,
    min: i64,
    max: i64,
    out: &mut [i16],
) {
    assert_eq!(
        acc.len(),
        out.len(),
        "requantize_i64_row_biased_into length mismatch"
    );
    assert_eq!(
        acc.len(),
        biases.len(),
        "requantize_i64_row_biased_into bias mismatch"
    );
    let backend = simdkern::active();
    if simd_requant_ok(backend, shift, min, max) {
        simdkern::requantize_i64_row_biased(backend, acc, biases, shift as u32, min, max, out);
    } else {
        for ((o, &a), &b) in out.iter_mut().zip(acc).zip(biases) {
            *o = requantize(a + b, shift, min, max) as i16;
        }
    }
}

/// Multiplies `a16` (`[m, k]` row-major) by the transpose of `bt16`
/// (`[n, k]` row-major) into the exact `i32` accumulator slice `out`
/// (`[m, n]`, fully overwritten) — the 8-bit-format matmul of the compiled
/// execution plans.
///
/// Operands must hold **i8-range** values widened to `i16`: the plans pack
/// weights into this layout once at compile time and store activations
/// widened. The transposed layout makes every dot product run over two
/// contiguous slices, and the scalar core register-blocks eight output rows
/// per `bt16`-row stream: the widening `i16 * i16 -> i32` reduction is the
/// integer inner loop LLVM vectorizes well at baseline codegen (`pmaddwd`).
/// Integer accumulation is exact, so any reduction order gives the same
/// bits. No heap allocation happens here; output row blocks are split
/// across `exec` with identical results for every thread count.
///
/// # Example
///
/// ```
/// use bnn_tensor::exec::Executor;
/// use bnn_tensor::int::matmul_wide_i32_into;
///
/// # fn main() -> Result<(), bnn_tensor::TensorError> {
/// let a = [1i16, 2, 3, 4]; // [2, 2]
/// let bt = [5i16, 7, 6, 8]; // the transpose of [[5, 6], [7, 8]]
/// let mut out = [0i32; 4];
/// matmul_wide_i32_into(&Executor::sequential(), &a, &bt, 2, 2, 2, &mut out)?;
/// assert_eq!(out, [19, 22, 43, 50]);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if slice lengths do not match
/// `m * k` / `n * k` / `m * n`, or if `k` exceeds the exact-accumulation
/// bound for i8-range operands (`k < 2^17`; see the
/// [module documentation](self)).
pub fn matmul_wide_i32_into(
    exec: &Executor,
    a16: &[i16],
    bt16: &[i16],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [i32],
) -> Result<(), TensorError> {
    if a16.len() != m * k || bt16.len() != n * k || out.len() != m * n {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![a16.len(), m, k],
            rhs: vec![bt16.len(), n, k],
            op: "matmul_wide_i32_into",
        });
    }
    // Strict bound: |product| peaks at (-128)^2 = 2^14, so k = 2^17 terms
    // could reach exactly 2^31 and overflow i32; only k < 2^17 is exact.
    if k >= (1 << 17) {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![m, k],
            rhs: vec![k, n],
            op: "matmul_wide_i32_into: k exceeds exact i32 accumulation bound (< 2^17)",
        });
    }
    let a16 = &a16[..m * k];
    let backend = effective_matmul_backend(k);
    fill_row_blocks(exec, out, m, n, |row0, chunk| {
        let rows = chunk.len() / n;
        let ablock = &a16[row0 * k..(row0 + rows) * k];
        match backend {
            Backend::Scalar => scalar_wide_i32_block(ablock, bt16, k, n, chunk),
            b => simdkern::matmul_wide_i32(b, ablock, bt16, k, n, chunk),
        }
    });
    Ok(())
}

/// Minimum reduction length before the vector matmul kernels pay for
/// themselves: each output element costs a horizontal accumulator sum plus
/// a scalar tail of up to one vector width, so short dot products (e.g. the
/// 25-tap first conv of LeNet) are faster on the register-blocked scalar
/// core.
const VECTOR_MATMUL_MIN_K: usize = 32;

/// The backend the packed matmuls should actually run on: the active
/// backend, demoted to scalar when the reduction is too short to amortize
/// the vector kernels' per-output overhead. Bits are identical either way.
fn effective_matmul_backend(k: usize) -> Backend {
    if k < VECTOR_MATMUL_MIN_K {
        Backend::Scalar
    } else {
        simdkern::active()
    }
}

/// The scalar register-blocked core of [`matmul_wide_i32_into`], operating
/// on one block of `a` rows (`chunk.len() / n` of them, relative-indexed).
/// This is the bit-exactness reference the SIMD backends are checked
/// against; `a16` must hold i8-range values.
fn scalar_wide_i32_block(a16: &[i16], bt16: &[i16], k: usize, n: usize, chunk: &mut [i32]) {
    // Register blocking: each transposed `b` row streams through the
    // core once per 8 (then 4, then 1) output rows, cutting the
    // bandwidth the plain dot layout needs while every reduction stays
    // pmaddwd-friendly. Measured on the 256^3 bench shape this is what
    // pushes the i8 kernel past the f32 axpy kernel.
    let rows = chunk.len() / n;
    let mut i = 0;
    while i + 8 <= rows {
        let base = i * k;
        let ar: [&[i16]; 8] = [
            &a16[base..base + k],
            &a16[base + k..base + 2 * k],
            &a16[base + 2 * k..base + 3 * k],
            &a16[base + 3 * k..base + 4 * k],
            &a16[base + 4 * k..base + 5 * k],
            &a16[base + 5 * k..base + 6 * k],
            &a16[base + 6 * k..base + 7 * k],
            &a16[base + 7 * k..base + 8 * k],
        ];
        for (j, bt_row) in bt16.chunks_exact(k).enumerate() {
            let mut s = [0i32; 8];
            for p in 0..k {
                let bv = bt_row[p] as i32;
                s[0] += ar[0][p] as i32 * bv;
                s[1] += ar[1][p] as i32 * bv;
                s[2] += ar[2][p] as i32 * bv;
                s[3] += ar[3][p] as i32 * bv;
                s[4] += ar[4][p] as i32 * bv;
                s[5] += ar[5][p] as i32 * bv;
                s[6] += ar[6][p] as i32 * bv;
                s[7] += ar[7][p] as i32 * bv;
            }
            for (r, &sv) in s.iter().enumerate() {
                chunk[(i + r) * n + j] = sv;
            }
        }
        i += 8;
    }
    while i + 4 <= rows {
        let base = i * k;
        let a0 = &a16[base..base + k];
        let a1 = &a16[base + k..base + 2 * k];
        let a2 = &a16[base + 2 * k..base + 3 * k];
        let a3 = &a16[base + 3 * k..base + 4 * k];
        for (j, bt_row) in bt16.chunks_exact(k).enumerate() {
            let (mut s0, mut s1, mut s2, mut s3) = (0i32, 0i32, 0i32, 0i32);
            for p in 0..k {
                let bv = bt_row[p] as i32;
                s0 += a0[p] as i32 * bv;
                s1 += a1[p] as i32 * bv;
                s2 += a2[p] as i32 * bv;
                s3 += a3[p] as i32 * bv;
            }
            chunk[i * n + j] = s0;
            chunk[(i + 1) * n + j] = s1;
            chunk[(i + 2) * n + j] = s2;
            chunk[(i + 3) * n + j] = s3;
        }
        i += 4;
    }
    // Remainder rows (1..=3) share a single pass over `bt` — small-`m`
    // products (a few-output-channel convolution over a huge patch
    // count) would otherwise re-stream the whole packed right-hand side
    // once per row. Integer accumulation is exact, so the fused order
    // produces the same bits as the row-at-a-time loop.
    if i < rows {
        let rem = rows - i;
        let ar = &a16[i * k..(i + rem) * k];
        for (j, bt_row) in bt16.chunks_exact(k).enumerate() {
            let mut s = [0i32; 3];
            for (r, a_row) in ar.chunks_exact(k).enumerate() {
                let mut acc = 0i32;
                for (&av, &bv) in a_row.iter().zip(bt_row) {
                    acc += av as i32 * bv as i32;
                }
                s[r] = acc;
            }
            for (r, &sv) in s[..rem].iter().enumerate() {
                chunk[(i + r) * n + j] = sv;
            }
        }
    }
}

/// Multiplies `a` (`[m, k]` row-major `i16`) by the transpose of `bt`
/// (`[n, k]` row-major) into the exact `i64` accumulator slice `out`
/// (`[m, n]`, fully overwritten) — the wide-format (9–16 bit) counterpart of
/// [`matmul_wide_i32_into`], used by the compiled execution plans.
///
/// Every output element is an ascending-index dot product of two contiguous
/// rows. Products are at most `2^30`, so the `i64` accumulator is exact for
/// any reduction length that fits in memory, and results are bitwise
/// identical for every thread count and loop order.
///
/// # Example
///
/// ```
/// use bnn_tensor::exec::Executor;
/// use bnn_tensor::int::matmul_abt_i64_into;
///
/// # fn main() -> Result<(), bnn_tensor::TensorError> {
/// let a = [300i16, -2, 1, 4]; // [2, 2], beyond the i8 range
/// let bt = [5i16, 7, 6, 8]; // the transpose of [[5, 6], [7, 8]]
/// let mut out = [0i64; 4];
/// matmul_abt_i64_into(&Executor::sequential(), &a, &bt, 2, 2, 2, &mut out)?;
/// assert_eq!(out, [1486, 1784, 33, 38]);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if slice lengths do not match.
pub fn matmul_abt_i64_into(
    exec: &Executor,
    a: &[i16],
    bt: &[i16],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [i64],
) -> Result<(), TensorError> {
    if a.len() != m * k || bt.len() != n * k || out.len() != m * n {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![a.len(), m, k],
            rhs: vec![bt.len(), n, k],
            op: "matmul_abt_i64_into",
        });
    }
    let backend = effective_matmul_backend(k);
    fill_row_blocks(exec, out, m, n, |row0, chunk| {
        let rows = chunk.len() / n;
        let ablock = &a[row0 * k..(row0 + rows) * k];
        match backend {
            Backend::Scalar => scalar_abt_i64_block(ablock, bt, k, n, chunk),
            b => simdkern::matmul_abt_i64(b, ablock, bt, k, n, chunk),
        }
    });
    Ok(())
}

/// The scalar core of [`matmul_abt_i64_into`] on one relative-indexed block
/// of `a` rows — the bit-exactness reference for the SIMD backends.
fn scalar_abt_i64_block(a: &[i16], bt: &[i16], k: usize, n: usize, chunk: &mut [i64]) {
    // Four output rows per pass over `bt`: each packed right-hand-side
    // row is streamed once per row *block* instead of once per row,
    // which matters for the few-output-channel convolutions where the
    // patch count dwarfs the channel count.
    let rows = chunk.len() / n;
    let mut i = 0;
    while i < rows {
        let block = (rows - i).min(4);
        let ar = &a[i * k..(i + block) * k];
        for (j, bt_row) in bt.chunks_exact(k).enumerate() {
            let mut s = [0i64; 4];
            for (r, a_row) in ar.chunks_exact(k).enumerate() {
                let mut acc = 0i64;
                for (&av, &bv) in a_row.iter().zip(bt_row) {
                    acc += av as i64 * bv as i64;
                }
                s[r] = acc;
            }
            for (r, &sv) in s[..block].iter().enumerate() {
                chunk[(i + r) * n + j] = sv;
            }
        }
        i += block;
    }
}

/// Unfolds an NCHW `i16` code tensor directly into the **transposed** im2col
/// layout `[cols, rows]` (`cols = batch * out_h * out_w` patch positions,
/// `rows = channels * kh * kw` taps) — the right-hand-side layout the packed
/// integer matmul kernels consume, produced without a separate transpose
/// pass. Padding taps hold integer zero. `out` is fully overwritten and only
/// reallocated when its size changes, so the steady state of an arena incurs
/// no heap allocation. Returns `(rows, cols)`.
///
/// # Example
///
/// ```
/// use bnn_tensor::int::im2row_i16_into;
/// use bnn_tensor::linalg::ConvGeometry;
///
/// # fn main() -> Result<(), bnn_tensor::TensorError> {
/// // One 2x3 plane, 2x2 kernel, stride 1: two patches of four taps.
/// let input = [1i16, 2, 3, 4, 5, 6];
/// let mut out = Vec::new();
/// let dims = im2row_i16_into(&input, 1, 1, &ConvGeometry::square(2, 3, 2, 1, 0), &mut out)?;
/// assert_eq!(dims, (4, 2));
/// assert_eq!(out, [1, 2, 4, 5, 2, 3, 5, 6]);
///
/// // Padding taps hold integer zero.
/// let dims = im2row_i16_into(&[7], 1, 1, &ConvGeometry::square(1, 1, 3, 1, 1), &mut out)?;
/// assert_eq!(dims, (9, 1));
/// assert_eq!(out[..9], [0, 0, 0, 0, 7, 0, 0, 0, 0]);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `input` does not hold
/// `batch * channels * in_h * in_w` codes.
pub fn im2row_i16_into(
    input: &[i16],
    batch: usize,
    channels: usize,
    geom: &ConvGeometry,
    out: &mut Vec<i16>,
) -> Result<(usize, usize), TensorError> {
    if input.len() != batch * channels * geom.in_h * geom.in_w {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![input.len()],
            rhs: vec![batch, channels, geom.in_h, geom.in_w],
            op: "im2row_i16_into",
        });
    }
    let out_h = geom.out_h();
    let out_w = geom.out_w();
    let rows = channels * geom.kernel_h * geom.kernel_w;
    let cols = batch * out_h * out_w;
    // Grow-only: the buffer is a shared arena scratch sized for the largest
    // convolution of a plan; only the first `rows * cols` elements are
    // written (and they all are), so a larger buffer needs no trimming.
    if out.len() < rows * cols {
        out.resize(rows * cols, 0);
    }
    let backend = simdkern::active();
    if backend == Backend::Scalar {
        // Patch-major fill: one contiguous `rows`-length patch per output
        // position, every element written (padding taps write literal 0).
        for b in 0..batch {
            for oh in 0..out_h {
                for ow in 0..out_w {
                    let col = (b * out_h + oh) * out_w + ow;
                    let patch = &mut out[col * rows..(col + 1) * rows];
                    let mut row = 0usize;
                    for c in 0..channels {
                        for kh in 0..geom.kernel_h {
                            let ih = (oh * geom.stride_h + kh) as isize - geom.pad_h as isize;
                            for kw in 0..geom.kernel_w {
                                let iw = (ow * geom.stride_w + kw) as isize - geom.pad_w as isize;
                                patch[row] = if ih >= 0
                                    && iw >= 0
                                    && (ih as usize) < geom.in_h
                                    && (iw as usize) < geom.in_w
                                {
                                    input[((b * channels + c) * geom.in_h + ih as usize)
                                        * geom.in_w
                                        + iw as usize]
                                } else {
                                    0
                                };
                                row += 1;
                            }
                        }
                    }
                }
            }
        }
    } else {
        // Vector backends share the branch-hoisted fill for wide kernel
        // rows (per-patch range splits + contiguous run copies instead of
        // per-tap bounds checks); simdkern routes short kernel rows — the
        // common 3x3/5x5 convs — back to the naive fill, where the
        // predictable per-tap branch is cheaper than the range-split
        // bookkeeping. Identical bits on every route.
        let shape = simdkern::ConvShape {
            in_h: geom.in_h,
            in_w: geom.in_w,
            kernel_h: geom.kernel_h,
            kernel_w: geom.kernel_w,
            stride_h: geom.stride_h,
            stride_w: geom.stride_w,
            pad_h: geom.pad_h,
            pad_w: geom.pad_w,
            out_h,
            out_w,
        };
        simdkern::im2row_i16(
            backend,
            input,
            batch,
            channels,
            &shape,
            &mut out[..rows * cols],
        );
    }
    Ok((rows, cols))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::{im2col, matmul};
    use crate::rng::{Rng, Xoshiro256StarStar};
    use crate::Tensor;

    fn random_codes_i8(n: usize, rng: &mut Xoshiro256StarStar) -> Vec<i16> {
        (0..n)
            .map(|_| (rng.next_u64() % 255) as i8 as i16)
            .collect()
    }

    /// Transposes a `[k, n]` row-major matrix into the `[n, k]` layout the
    /// packed kernels take.
    fn transpose(b: &[i16], k: usize, n: usize) -> Vec<i16> {
        let mut bt = vec![0i16; n * k];
        for (p, b_row) in b.chunks_exact(n).enumerate() {
            for (j, &v) in b_row.iter().enumerate() {
                bt[j * k + p] = v;
            }
        }
        bt
    }

    /// The naive triple loop `[m, k] x [k, n]` with `i64` accumulation.
    fn naive_matmul(a: &[i16], b: &[i16], m: usize, k: usize, n: usize) -> Vec<i64> {
        let mut out = vec![0i64; m * n];
        for i in 0..m {
            for j in 0..n {
                out[i * n + j] = (0..k)
                    .map(|p| a[i * k + p] as i64 * b[p * n + j] as i64)
                    .sum();
            }
        }
        out
    }

    fn wide_i32(exec: &Executor, a: &[i16], b: &[i16], m: usize, k: usize, n: usize) -> Vec<i32> {
        let mut out = vec![0i32; m * n];
        matmul_wide_i32_into(exec, a, &transpose(b, k, n), m, k, n, &mut out).unwrap();
        out
    }

    fn abt_i64(exec: &Executor, a: &[i16], b: &[i16], m: usize, k: usize, n: usize) -> Vec<i64> {
        let mut out = vec![0i64; m * n];
        matmul_abt_i64_into(exec, a, &transpose(b, k, n), m, k, n, &mut out).unwrap();
        out
    }

    #[test]
    fn round_shift_matches_float_rounding() {
        for v in -2000i64..=2000 {
            for shift in 1u32..=6 {
                let expected = (v as f64 / (1i64 << shift) as f64).round() as i64;
                assert_eq!(round_shift(v, shift), expected, "v={v} shift={shift}");
            }
            assert_eq!(round_shift(v, 0), v);
        }
    }

    #[test]
    fn requantize_saturates_at_bounds() {
        assert_eq!(requantize(1000, 2, -128, 127), 127);
        assert_eq!(requantize(-1000, 2, -128, 127), -128);
        assert_eq!(requantize(100, 2, -128, 127), 25);
        // negative shift scales up and saturates
        assert_eq!(requantize(100, -2, -128, 127), 127);
        assert_eq!(requantize(5, -2, -128, 127), 20);
        assert_eq!(requantize(i64::MAX / 2, -30, i64::MIN, i64::MAX), i64::MAX);
    }

    #[test]
    fn wide_i32_matmul_known_values() {
        let (a, b) = ([1i16, 2, 3, 4], [5i16, 6, 7, 8]);
        let seq = Executor::sequential();
        assert_eq!(wide_i32(&seq, &a, &b, 2, 2, 2), vec![19, 22, 43, 50]);
        let mut out = vec![0i32; 4];
        assert!(matmul_wide_i32_into(&seq, &a, &b, 2, 3, 2, &mut out).is_err());
    }

    #[test]
    fn wide_i32_matmul_matches_float_on_integer_values() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let (m, k, n) = (13, 29, 17);
        let a = random_codes_i8(m * k, &mut rng);
        let b = random_codes_i8(k * n, &mut rng);
        let af = Tensor::from_vec(a.iter().map(|&v| v as f32).collect(), &[m, k]).unwrap();
        let bf = Tensor::from_vec(b.iter().map(|&v| v as f32).collect(), &[k, n]).unwrap();
        let cf = matmul(&af, &bf).unwrap();
        let ci = wide_i32(&Executor::sequential(), &a, &b, m, k, n);
        // products and partial sums stay far below 2^24, so f32 is exact here
        for (x, &y) in ci.iter().zip(cf.as_slice()) {
            assert_eq!(*x as f32, y);
        }
    }

    #[test]
    fn abt_i64_matmul_matches_wide_i32_on_narrow_values() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(6);
        let (m, k, n) = (7, 11, 9);
        let a = random_codes_i8(m * k, &mut rng);
        let b = random_codes_i8(k * n, &mut rng);
        let seq = Executor::sequential();
        let c32 = wide_i32(&seq, &a, &b, m, k, n);
        let c64 = abt_i64(&seq, &a, &b, m, k, n);
        for (x, y) in c32.iter().zip(&c64) {
            assert_eq!(*x as i64, *y);
        }
    }

    #[test]
    fn parallel_integer_matmul_is_identical_to_sequential() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let (m, k, n) = (37, 23, 41);
        let a = random_codes_i8(m * k, &mut rng);
        let b = random_codes_i8(k * n, &mut rng);
        let (seq, par) = (Executor::sequential(), Executor::new(4));
        assert_eq!(
            wide_i32(&seq, &a, &b, m, k, n),
            wide_i32(&par, &a, &b, m, k, n)
        );
        let a16: Vec<i16> = a.iter().map(|&v| v * 100).collect();
        let b16: Vec<i16> = b.iter().map(|&v| v * 100).collect();
        assert_eq!(
            abt_i64(&seq, &a16, &b16, m, k, n),
            abt_i64(&par, &a16, &b16, m, k, n)
        );
    }

    #[test]
    fn wide_i32_matmul_rejects_oversized_reduction() {
        let seq = Executor::sequential();
        let mut one = vec![0i32; 1];
        let a = vec![0i16; 1 << 18];
        assert!(matmul_wide_i32_into(&seq, &a, &a, 1, 1 << 18, 1, &mut one).is_err());
        // Boundary: k = 2^17 all-extreme products reach exactly 2^31, one
        // past i32::MAX, so the bound is strict.
        let a = vec![i8::MIN as i16; 1 << 17];
        assert!(matmul_wide_i32_into(&seq, &a, &a, 1, 1 << 17, 1, &mut one).is_err());
        let a = vec![i8::MIN as i16; (1 << 17) - 1];
        matmul_wide_i32_into(&seq, &a, &a, 1, (1 << 17) - 1, 1, &mut one).unwrap();
        assert_eq!(one[0], (1 << 14) * ((1 << 17) - 1));
    }

    #[test]
    fn packed_kernels_match_naive_reference() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(11);
        let (m, k, n) = (19, 31, 23);
        let a = random_codes_i8(m * k, &mut rng);
        let b = random_codes_i8(k * n, &mut rng);
        let reference = naive_matmul(&a, &b, m, k, n);
        let out = wide_i32(&Executor::sequential(), &a, &b, m, k, n);
        let out: Vec<i64> = out.into_iter().map(i64::from).collect();
        assert_eq!(out, reference);

        // The abt i64 kernel on wide operands, despite its different loop
        // order (integer accumulation is exact).
        let aw: Vec<i16> = a.iter().map(|&v| v * 50).collect();
        let bw: Vec<i16> = b.iter().map(|&v| v * 50).collect();
        let reference = naive_matmul(&aw, &bw, m, k, n);
        assert_eq!(abt_i64(&Executor::new(4), &aw, &bw, m, k, n), reference);

        // shape validation
        let bt = transpose(&b, k, n);
        let mut out = vec![0i32; m * n];
        assert!(
            matmul_wide_i32_into(&Executor::sequential(), &a, &bt, m, k + 1, n, &mut out).is_err()
        );
        let mut out64 = vec![0i64; m * n];
        assert!(
            matmul_abt_i64_into(&Executor::sequential(), &a, &bt, m, k + 1, n, &mut out64).is_err()
        );
    }

    #[test]
    fn im2row_is_the_transposed_float_im2col() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(13);
        let (b, c) = (2usize, 3usize);
        for (h, w, stride_h, stride_w) in [(7usize, 5usize, 2usize, 1usize), (6, 5, 1, 2)] {
            let codes = random_codes_i8(b * c * h * w, &mut rng);
            let geom = ConvGeometry {
                in_h: h,
                in_w: w,
                kernel_h: 3,
                kernel_w: 2,
                stride_h,
                stride_w,
                pad_h: 1,
                pad_w: 1,
            };
            let xf =
                Tensor::from_vec(codes.iter().map(|&v| v as f32).collect(), &[b, c, h, w]).unwrap();
            let cols_f = im2col(&xf, &geom).unwrap();
            let mut packed = vec![99i16; 3]; // wrong size + stale contents
            let (rows, cols) = im2row_i16_into(&codes, b, c, &geom, &mut packed).unwrap();
            assert_eq!(cols_f.dims(), &[rows, cols]);
            for row in 0..rows {
                for col in 0..cols {
                    assert_eq!(
                        packed[col * rows + row] as f32,
                        cols_f.as_slice()[row * cols + col],
                        "mismatch at ({row}, {col})"
                    );
                }
            }
            assert!(im2row_i16_into(&codes[1..], b, c, &geom, &mut packed).is_err());
        }
    }

    #[test]
    fn i16_accumulation_handles_max_magnitude_inputs() {
        // Saturation edge case: every operand at the most negative code.
        // (-2^15) * (-2^15) * k accumulates exactly in i64.
        let k = 64usize;
        let a = vec![i16::MIN; k];
        let c = abt_i64(&Executor::sequential(), &a, &a, 1, k, 1);
        assert_eq!(c[0], (i16::MIN as i64) * (i16::MIN as i64) * k as i64);
        // requantizing that into an i16 range must saturate, not wrap
        assert_eq!(requantize(c[0], 8, i16::MIN as i64, i16::MAX as i64), 32767);
    }
}
