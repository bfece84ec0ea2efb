//! Compile-once execution plans: the integer inference path.
//!
//! [`QuantPlan`] executes a calibrated multi-exit network the way an
//! `ap_fixed` FPGA datapath would, allocating once and running many times:
//! the recursive lowering walk is flattened into a linear step list, buffer
//! lifetimes are planned at compile time (liveness over the flat list with
//! free-list reuse, elementwise steps running in place when their input
//! dies), weights are packed **once** into the transposed/widened `i16`
//! layout the integer matmul kernels consume, and every intermediate — code
//! slots, the im2col scratch, accumulators, dropout masks, softmax staging —
//! lives in a preallocated tensor arena, together with the MC-dropout mask
//! streams. After a warm-up call that sizes the arena for the batch,
//! [`QuantPlan::predict_probs_into`] performs **zero heap allocations** in
//! the steady state, and so does [`QuantPlan::predict_probs_batch_into`] on
//! a sequential executor (the row-shard fork/join of a multi-threaded one
//! allocates its scoped workers by design).
//!
//! # Arithmetic
//!
//! Conv and dense steps multiply `i16`-widened codes with exact `i32`
//! (formats up to 8 bits) or `i64` accumulation; biases are pre-quantized at
//! the accumulator scale, and results are requantized by an exact rounding
//! bit-shift (every scale is a power of two; ties round away from zero) and
//! **saturated** into the output format. ReLU and max pooling are pure
//! integer ops, average pooling divides with round-half-away-from-zero, and
//! batch-norm affines and the MC-dropout `1/keep` scale use
//! [`MUL_FRAC`]-fractional-bit multipliers. MC-dropout masks are drawn in
//! the integer domain from per-pass `stream_seed` streams.
//!
//! # Monte-Carlo schedule
//!
//! The plan executes steps; it does not schedule passes. Every seeded entry
//! point runs the exit-major driver shared with the float plan
//! ([`bnn_models::mc`]): pass count, per-pass reseeding, the kept-sample
//! cutoff, softmax averaging, the adaptive retire-or-compact loop and the
//! fixed-cost accounting live there. One row shard of the plan is the
//! driver's backend: a block is the backbone segment between two block
//! boundaries, an exit run dequantizes its codes into the arena's logit
//! staging, and compacting a surviving row moves it within the block's
//! pinned boundary slot.
//!
//! Two independent implementations check the plan. `bnn_hls::HlsSimulator`
//! interprets the plan's exported [`PlanSchedule`] and is bit-exact with it
//! (`tests/hls_golden_sim.rs`): that checks execution. The fake-quant float
//! reference ([`CalibratedNetwork::fake_quant`]) is built from the
//! calibration record by its own walk and tracks the plan bit for bit up to
//! 8 bits and within one quantization step at 16 bits
//! (`tests/quantized_inference.rs`): that checks compilation.
//!
//! # Threading
//!
//! Every plan kernel runs inline on the calling thread. Parallelism is by
//! **row sharding**: [`QuantPlan::predict_probs_batch_into`] splits the batch
//! into `min(threads, batch)` contiguous row shards and runs the whole call
//! for each shard — input quantization, backbone, every MC pass with its
//! reseed, exits, softmax and accumulation into the shard's own rows of the
//! output — on an arena of its own, in one fork/join per batch. The steps
//! are read-only during execution (the mask streams live in the arenas), so
//! the shards share them without copies. Per-sample masks make this
//! bit-exact with the unsharded call: every kernel reads one sample, and
//! every shard draws the same per-sample masks from `stream_seed(seed,
//! pass)`. The plan does not shard on a sequential executor or when called
//! from inside a parallel region. The per-batch-mask entry points
//! ([`QuantPlan::predict_probs_into`], [`QuantPlan::forward_exits_int`]) and
//! the adaptive entry run inline on one arena: per-batch masks depend on the
//! whole batch, and adaptive compaction moves rows across the batch.
//!
//! ```text
//! CalibratedNetwork ──ranges──► compile(format)
//!   │                              │  flatten ops · derive QuantParams
//!   │                              │  pack weights (i16, transposed)
//!   │                              ▼  plan slot liveness
//! (one float pass,            QuantPlan { steps, arenas }
//!  shared by all formats)         │
//!                                 ▼  run many: predict_probs_batch_into
//!                            rows 0..k ─► arena 0 ┐
//!                            rows k..n ─► arena 1 ┴─► out (disjoint rows)
//! ```

use crate::calib::{
    dropout_scale_q, quantize_affine, quantize_weights, CalibratedNetwork, RecordCursor,
};
use crate::error::QuantError;
use crate::fixed::FixedPointFormat;
use crate::params::{IntWidth, QuantParams};
use crate::schedule::{PlanSchedule, ScheduleExit, ScheduleOp, ScheduleStep, MUL_FRAC};
use bnn_models::mc::{self, McBackend, McLayout, McScratch};
use bnn_models::{AdaptivePrediction, AdaptiveStats, ExitPolicy};
use bnn_nn::layer::Mode;
use bnn_nn::lowering::LayerLowering;
use bnn_tensor::exec::{in_parallel_region, Executor};
use bnn_tensor::int::{
    im2row_i16_into, matmul_abt_i64_into, matmul_wide_i32_into, requantize,
    requantize_i32_row_biased_into, requantize_i32_row_into, requantize_i64_row_biased_into,
    requantize_i64_row_into,
};
use bnn_tensor::linalg::ConvGeometry;
use bnn_tensor::rng::{Rng, SplitMix64, Xoshiro256StarStar};
use bnn_tensor::Tensor;

/// A packed convolution: weights flattened to `[out_c, in_c*k*k]` `i16` once
/// at compile time.
#[derive(Debug, Clone)]
struct PlanConv {
    w16: Vec<i16>,
    bias: Vec<i64>,
    out_c: usize,
    in_c: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    shift: i32,
    /// Fractional bits of the weight codes (carried for schedule export;
    /// execution only needs `shift`).
    w_frac: u32,
    out: QuantParams,
}

/// A packed dense layer: weights transposed to `[out_f, in_f]` `i16`.
#[derive(Debug, Clone)]
struct PlanDense {
    wt16: Vec<i16>,
    bias: Vec<i64>,
    in_f: usize,
    out_f: usize,
    shift: i32,
    /// Fractional bits of the weight codes (carried for schedule export).
    w_frac: u32,
    out: QuantParams,
}

/// Quantized per-channel affine multipliers.
#[derive(Debug, Clone)]
struct PlanAffine {
    m: Vec<i64>,
    b: Vec<i64>,
    out: QuantParams,
}

/// One step of the flattened plan.
#[derive(Debug, Clone)]
enum StepKind {
    Conv(Box<PlanConv>),
    Dense(Box<PlanDense>),
    Relu,
    MaxPool {
        kernel: usize,
        stride: usize,
    },
    AvgPool {
        kernel: usize,
        stride: usize,
    },
    GlobalAvgPool,
    Affine(Box<PlanAffine>),
    McDropout {
        rate: f64,
        scale_q: i64,
        params: QuantParams,
        /// Index of this step's mask stream in [`Arena::streams`].
        stream: usize,
    },
    /// Residual merge: requantize both paths to the output format, add,
    /// clamp into `[0, qmax]` (the merged ReLU).
    Merge {
        m_shift: i32,
        s_shift: i32,
        out: QuantParams,
    },
}

/// A flattened op with its slot assignment and static per-sample shapes.
#[derive(Debug, Clone)]
struct Step {
    kind: StepKind,
    /// Source slot (the main path for [`StepKind::Merge`]).
    src: usize,
    /// Second source slot (the shortcut path of a merge).
    src2: Option<usize>,
    dst: usize,
    /// Per-sample dims of the source activation (batch axis stripped).
    in_dims: Vec<usize>,
    /// Per-sample dims of the output activation.
    out_dims: Vec<usize>,
    /// Static per-sample integer-op estimate (MACs for conv/dense, touched
    /// elements otherwise); multiply by the batch to price an invocation.
    ops: u64,
}

impl Step {
    fn in_elems(&self) -> usize {
        self.in_dims.iter().product()
    }

    fn out_elems(&self) -> usize {
        self.out_dims.iter().product()
    }
}

/// One compiled exit branch.
#[derive(Debug, Clone)]
struct PlanExit {
    steps: Vec<Step>,
    out_slot: usize,
    out_params: QuantParams,
    out_dims: Vec<usize>,
    /// Backbone block this exit reads from (attachment point) — the
    /// segmentation boundary for adaptive execution.
    after_block: usize,
}

/// How MC-dropout masks index into the batch. Both modes are needed.
///
/// [`MaskGranularity::PerBatch`] draws one mask per (row, channel), so every
/// row of a batch gets its own independent MC noise. Phase 3 scores a whole
/// evaluation set in one call and needs exactly that: its MC average per
/// row must not share noise with the other rows. A batch of N consumes N
/// times the draws, so batched output differs from N single-sample calls.
/// [`MaskGranularity::PerSample`] draws one per-sample mask per pass and
/// broadcasts it to every row. Every kernel in the plan computes each output
/// element from one sample alone, so a batched call is bit-exact with the
/// concatenation of single-sample calls — the batch-boundary invariance
/// dynamic batching needs. The price is that every row of a batch sees the
/// same masks, which correlates their MC noise; switching phase 3 to it
/// makes the ResNet-18 quick demo find no quality-preserving design on some
/// seeds. For `batch == 1` the two modes draw and apply identical masks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MaskGranularity {
    PerBatch,
    PerSample,
}

/// The preallocated tensor arena: activation slots, the shared scratch
/// buffers and the MC-dropout mask streams. All sizes grow monotonically
/// with the largest batch seen, so the steady state of repeated same-batch
/// calls never reallocates.
#[derive(Debug, Clone, Default)]
struct Arena {
    /// One mask stream per MC-dropout step, in flat step order (backbone,
    /// then exits in attachment order).
    streams: Vec<Xoshiro256StarStar>,
    slots: Vec<Vec<i16>>,
    cols: Vec<i16>,
    acc32: Vec<i32>,
    acc64: Vec<i64>,
    mask: Vec<bool>,
    /// Dequantized exit logits handed to the MC driver.
    logits: Vec<f32>,
}

/// One row shard's buffers: its arena and the MC driver's scratch.
#[derive(Debug, Clone, Default)]
struct Shard {
    arena: Arena,
    mc: McScratch,
}

impl Arena {
    /// Reseeds every mask stream from `master_seed` in flat step order
    /// (backbone, then exits in attachment order).
    fn reseed(&mut self, master_seed: u64) {
        let mut seeds = SplitMix64::new(master_seed);
        for rng in &mut self.streams {
            *rng = Xoshiro256StarStar::seed_from_u64(seeds.next_u64());
        }
    }
}

/// A compiled, arena-allocated execution plan for the integer inference of
/// a calibrated multi-exit network at one fixed-point format.
///
/// Build one with [`CalibratedNetwork::plan`]; see the
/// [module documentation](self) for the dataflow.
///
/// # Example
///
/// ```
/// use bnn_models::{zoo, ModelConfig};
/// use bnn_quant::{CalibratedNetwork, FixedPointFormat};
/// use bnn_tensor::rng::Xoshiro256StarStar;
/// use bnn_tensor::Tensor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = zoo::lenet5(&ModelConfig::mnist().with_resolution(12, 12).with_width_divisor(4))
///     .with_exits_after_every_block()?
///     .with_exit_mcd(0.25)?;
/// let trained = spec.build(7)?; // (train it for real use)
/// let mut rng = Xoshiro256StarStar::seed_from_u64(1);
/// let calib = Tensor::randn(&[4, 1, 12, 12], &mut rng);
///
/// let calibrated = CalibratedNetwork::calibrate(&trained, &calib)?;
/// let mut plan = calibrated.plan(FixedPointFormat::new(8, 3)?)?;
/// let inputs = Tensor::randn(&[4, 1, 12, 12], &mut rng);
/// let probs = plan.predict_probs(&inputs, 6, 2023)?; // warm-up sizes the arena
/// let again = plan.predict_probs(&inputs, 6, 2023)?; // steady state: no allocation
/// assert_eq!(probs.as_slice(), again.as_slice());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QuantPlan {
    format: FixedPointFormat,
    width: IntWidth,
    in_params: QuantParams,
    in_dims: Vec<usize>,
    input_slot: usize,
    backbone: Vec<Step>,
    exits: Vec<PlanExit>,
    /// Backbone step count after each block — segmentation boundaries for
    /// adaptive execution (`backbone[..block_bounds[b]]` runs blocks
    /// `0..=b`).
    block_bounds: Vec<usize>,
    /// Arena slot holding each block's boundary value (pinned: never reused
    /// by later steps, so compacting it between exits is safe).
    block_slots: Vec<usize>,
    /// Per-sample element count of each block's boundary value — the gather
    /// unit for batch compaction.
    block_units: Vec<usize>,
    /// Per-slot per-sample element capacity (max over the values sharing it).
    slot_elems: Vec<usize>,
    /// Per-sample scratch capacities.
    cols_unit: usize,
    acc_unit: usize,
    mask_unit: usize,
    logit_unit: usize,
    /// Number of MC-dropout steps (mask streams per arena).
    n_streams: usize,
    /// Classes, block and exit costs as the MC driver sees them.
    layout: McLayout,
    /// One arena and MC scratch per row shard; the inline entry points use
    /// the first.
    shards: Vec<Shard>,
    /// Row-shard executor; `None` resolves to [`Executor::global`] per call.
    exec: Option<Executor>,
}

/// Compile-time value bookkeeping: every step output is a fresh value;
/// flatten/identity alias their input (same storage, new shape).
struct ValueInfo {
    dims: Vec<usize>,
    alias_of: Option<usize>,
    pinned: bool,
}

/// The plan builder: emits steps with *value* ids, then linear-scans them
/// into slot ids.
struct PlanBuilder {
    total_bits: u32,
    steps: Vec<Step>,
    values: Vec<ValueInfo>,
    cols_unit: usize,
    acc_unit: usize,
    mask_unit: usize,
    n_streams: usize,
}

impl PlanBuilder {
    fn new_value(&mut self, dims: Vec<usize>) -> usize {
        self.values.push(ValueInfo {
            dims,
            alias_of: None,
            pinned: false,
        });
        self.values.len() - 1
    }

    fn alias_value(&mut self, of: usize, dims: Vec<usize>) -> usize {
        let root = self.root(of);
        self.values.push(ValueInfo {
            dims,
            alias_of: Some(root),
            pinned: false,
        });
        self.values.len() - 1
    }

    fn root(&self, v: usize) -> usize {
        match self.values[v].alias_of {
            Some(r) => r,
            None => v,
        }
    }

    fn dims(&self, v: usize) -> Vec<usize> {
        self.values[v].dims.clone()
    }

    fn push(
        &mut self,
        kind: StepKind,
        src: usize,
        src2: Option<usize>,
        out_dims: Vec<usize>,
    ) -> usize {
        let dst = self.new_value(out_dims.clone());
        let in_dims = self.dims(src);
        let ops = step_unit_ops(&kind, &in_dims, &out_dims);
        self.steps.push(Step {
            kind,
            src,
            src2,
            dst,
            in_dims,
            out_dims,
            ops,
        });
        dst
    }

    /// Transposes `[rows, cols]` weight codes into the `[cols, rows]` layout
    /// the dense kernels consume.
    fn transpose_codes(codes: &[i16], rows: usize, cols: usize) -> Vec<i16> {
        let mut out = vec![0i16; rows * cols];
        for (r, row) in codes.chunks_exact(cols).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                out[c * rows + r] = v;
            }
        }
        out
    }

    /// Emits the step(s) of one lowered op, consuming calibration records in
    /// the collector's walk order.
    fn emit(
        &mut self,
        lowering: &LayerLowering,
        cursor: &mut RecordCursor<'_>,
        params: &mut QuantParams,
        cur: &mut usize,
    ) -> Result<(), QuantError> {
        let total_bits = self.total_bits;
        match lowering {
            LayerLowering::Sequence(children) => {
                for child in children {
                    self.emit(child, cursor, params, cur)?;
                }
            }
            LayerLowering::Conv2d {
                weight,
                bias,
                stride,
                padding,
            } => {
                let record = cursor.take(lowering.name())?;
                let dims = weight.dims();
                let (out_c, in_c, kernel) = (dims[0], dims[1], dims[2]);
                let out = record
                    .out
                    .expect("conv records an output range")
                    .params(total_bits)?;
                let w = quantize_weights(
                    weight,
                    bias,
                    record.weight.expect("conv records a weight range"),
                    total_bits,
                    *params,
                    out,
                )?;
                let in_dims = self.dims(*cur);
                let (h, ww) = (in_dims[1], in_dims[2]);
                let geom = ConvGeometry::square(h, ww, kernel, *stride, *padding);
                let plane = geom.out_h() * geom.out_w();
                let kred = in_c * kernel * kernel;
                self.cols_unit = self.cols_unit.max(kred * plane);
                self.acc_unit = self.acc_unit.max(out_c * plane);
                *cur = self.push(
                    StepKind::Conv(Box::new(PlanConv {
                        w_frac: w.w_params.fractional_bits(),
                        w16: w.codes,
                        bias: w.bias,
                        out_c,
                        in_c,
                        kernel,
                        stride: *stride,
                        padding: *padding,
                        shift: w.shift,
                        out,
                    })),
                    *cur,
                    None,
                    record.out_dims.clone(),
                );
                *params = out;
            }
            LayerLowering::Dense { weight, bias } => {
                let record = cursor.take(lowering.name())?;
                let dims = weight.dims();
                let (in_f, out_f) = (dims[0], dims[1]);
                let out = record
                    .out
                    .expect("dense records an output range")
                    .params(total_bits)?;
                let w = quantize_weights(
                    weight,
                    bias,
                    record.weight.expect("dense records a weight range"),
                    total_bits,
                    *params,
                    out,
                )?;
                self.acc_unit = self.acc_unit.max(out_f);
                *cur = self.push(
                    StepKind::Dense(Box::new(PlanDense {
                        wt16: Self::transpose_codes(&w.codes, in_f, out_f),
                        w_frac: w.w_params.fractional_bits(),
                        bias: w.bias,
                        in_f,
                        out_f,
                        shift: w.shift,
                        out,
                    })),
                    *cur,
                    None,
                    record.out_dims.clone(),
                );
                *params = out;
            }
            LayerLowering::Relu => {
                let record = cursor.take(lowering.name())?;
                *cur = self.push(StepKind::Relu, *cur, None, record.out_dims.clone());
            }
            LayerLowering::MaxPool2d { kernel, stride } => {
                let record = cursor.take(lowering.name())?;
                *cur = self.push(
                    StepKind::MaxPool {
                        kernel: *kernel,
                        stride: *stride,
                    },
                    *cur,
                    None,
                    record.out_dims.clone(),
                );
            }
            LayerLowering::AvgPool2d { kernel, stride } => {
                let record = cursor.take(lowering.name())?;
                *cur = self.push(
                    StepKind::AvgPool {
                        kernel: *kernel,
                        stride: *stride,
                    },
                    *cur,
                    None,
                    record.out_dims.clone(),
                );
            }
            LayerLowering::GlobalAvgPool2d => {
                let record = cursor.take(lowering.name())?;
                *cur = self.push(StepKind::GlobalAvgPool, *cur, None, record.out_dims.clone());
            }
            LayerLowering::Flatten => {
                // Shape-only: the flat plan reinterprets the buffer in place.
                let record = cursor.take(lowering.name())?;
                *cur = self.alias_value(*cur, record.out_dims.clone());
            }
            LayerLowering::Identity => {
                let record = cursor.take(lowering.name())?;
                *cur = self.alias_value(*cur, record.out_dims.clone());
            }
            LayerLowering::Affine(bn) => {
                let record = cursor.take(lowering.name())?;
                let (scale, shift) = bn.fold();
                let out = record
                    .out
                    .expect("affine records an output range")
                    .params(total_bits)?;
                let aff = quantize_affine(&scale, &shift, *params, out);
                *cur = self.push(
                    StepKind::Affine(Box::new(PlanAffine {
                        m: aff.m,
                        b: aff.b,
                        out,
                    })),
                    *cur,
                    None,
                    record.out_dims.clone(),
                );
                *params = out;
            }
            LayerLowering::McDropout { rate } => {
                let record = cursor.take(lowering.name())?;
                let in_dims = self.dims(*cur);
                let unit = if in_dims.len() == 3 {
                    // NCHW at run time: one draw per (batch, channel).
                    in_dims[0]
                } else {
                    in_dims.iter().product()
                };
                self.mask_unit = self.mask_unit.max(unit);
                // Steps are emitted in flat order, so stream ids follow the
                // walk order (residual main paths before shortcuts).
                self.n_streams += 1;
                *cur = self.push(
                    StepKind::McDropout {
                        rate: *rate,
                        scale_q: dropout_scale_q(*rate),
                        params: *params,
                        stream: self.n_streams - 1,
                    },
                    *cur,
                    None,
                    record.out_dims.clone(),
                );
            }
            LayerLowering::Residual { main, shortcut } => {
                let v_in = *cur;
                let in_params = *params;
                let mut main_params = in_params;
                let mut v_main = v_in;
                for child in main {
                    self.emit(child, cursor, &mut main_params, &mut v_main)?;
                }
                let mut short_params = in_params;
                let mut v_short = v_in;
                for child in shortcut {
                    self.emit(child, cursor, &mut short_params, &mut v_short)?;
                }
                let record = cursor.take(lowering.name())?;
                let out = record
                    .out
                    .expect("residual records an output range")
                    .params(total_bits)?;
                *cur = self.push(
                    StepKind::Merge {
                        m_shift: main_params.fractional_bits() as i32
                            - out.fractional_bits() as i32,
                        s_shift: short_params.fractional_bits() as i32
                            - out.fractional_bits() as i32,
                        out,
                    },
                    v_main,
                    Some(v_short),
                    record.out_dims.clone(),
                );
                *params = out;
            }
        }
        Ok(())
    }
}

/// Static per-sample integer-op estimate of one step: multiply-accumulates
/// for conv/dense, touched elements for pools/element-wise steps, two
/// requantize-adds per element for a residual merge.
fn step_unit_ops(kind: &StepKind, in_dims: &[usize], out_dims: &[usize]) -> u64 {
    let in_elems: usize = in_dims.iter().product();
    let out_elems: usize = out_dims.iter().product();
    match kind {
        StepKind::Conv(c) => (c.in_c * c.kernel * c.kernel * out_elems) as u64,
        StepKind::Dense(d) => (d.in_f * d.out_f) as u64,
        StepKind::MaxPool { kernel, .. } | StepKind::AvgPool { kernel, .. } => {
            (kernel * kernel * out_elems) as u64
        }
        StepKind::GlobalAvgPool => in_elems as u64,
        StepKind::Relu | StepKind::Affine(_) | StepKind::McDropout { .. } => out_elems as u64,
        StepKind::Merge { .. } => 2 * out_elems as u64,
    }
}

/// Elementwise steps may run in place when their input dies at the step.
fn aliasable(kind: &StepKind) -> bool {
    matches!(
        kind,
        StepKind::Relu | StepKind::Affine(_) | StepKind::McDropout { .. }
    )
}

impl QuantPlan {
    /// Compiles the plan for one format from a calibrated network. See
    /// [`CalibratedNetwork::plan`].
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::Unsupported`] for formats wider than 16 bits,
    /// or [`QuantError::Internal`] on lowering/record skew.
    pub(crate) fn compile(
        calibrated: &CalibratedNetwork,
        format: FixedPointFormat,
    ) -> Result<Self, QuantError> {
        let total_bits = QuantParams::new(format)?.format().total_bits();
        let in_params = calibrated.input.params(total_bits)?;
        let mut builder = PlanBuilder {
            total_bits,
            steps: Vec::new(),
            values: Vec::new(),
            cols_unit: 0,
            acc_unit: 0,
            mask_unit: 0,
            n_streams: 0,
        };
        let input_value = builder.new_value(calibrated.in_dims.clone());

        // Backbone: blocks in execution order; the value live at each block
        // boundary is pinned (exit branches re-read it on every MC pass).
        let mut params = in_params;
        let mut cur = input_value;
        let mut block_values = Vec::with_capacity(calibrated.blocks.len());
        let mut block_params = Vec::with_capacity(calibrated.blocks.len());
        let mut block_bounds = Vec::with_capacity(calibrated.blocks.len());
        for (lowering, record) in &calibrated.blocks {
            let mut cursor = RecordCursor::new(&record.ops);
            builder.emit(lowering, &mut cursor, &mut params, &mut cur)?;
            cursor.finish()?;
            let root = builder.root(cur);
            builder.values[root].pinned = true;
            block_values.push(cur);
            block_params.push(params);
            block_bounds.push(builder.steps.len());
        }
        let backbone_len = builder.steps.len();

        // Exit branches, attachment order.
        let mut exit_meta = Vec::with_capacity(calibrated.exits.len());
        for (after_block, lowering, record) in &calibrated.exits {
            let mut cursor = RecordCursor::new(&record.ops);
            let mut exit_params = block_params[*after_block];
            let mut exit_cur = block_values[*after_block];
            let start = builder.steps.len();
            builder.emit(lowering, &mut cursor, &mut exit_params, &mut exit_cur)?;
            cursor.finish()?;
            exit_meta.push((start, exit_cur, exit_params, *after_block));
        }

        // Liveness over the flat step list, then linear-scan slot assignment
        // with free-list (ping-pong) reuse.
        let n_values = builder.values.len();
        let mut last_use = vec![usize::MAX; n_values];
        for (j, step) in builder.steps.iter().enumerate() {
            last_use[builder.root(step.src)] = j;
            if let Some(s2) = step.src2 {
                last_use[builder.root(s2)] = j;
            }
        }
        let mut slot_of = vec![usize::MAX; n_values];
        let mut slot_elems: Vec<usize> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        let assign = |slot_of: &mut Vec<usize>,
                      slot_elems: &mut Vec<usize>,
                      free: &mut Vec<usize>,
                      value: usize,
                      elems: usize|
         -> usize {
            let slot = free.pop().unwrap_or_else(|| {
                slot_elems.push(0);
                slot_elems.len() - 1
            });
            slot_of[value] = slot;
            slot_elems[slot] = slot_elems[slot].max(elems);
            slot
        };
        let input_elems: usize = calibrated.in_dims.iter().product();
        assign(
            &mut slot_of,
            &mut slot_elems,
            &mut free,
            input_value,
            input_elems,
        );
        for j in 0..builder.steps.len() {
            let (src_root, src2_root, dst_root, kind_aliasable, out_elems) = {
                let step = &builder.steps[j];
                (
                    builder.root(step.src),
                    step.src2.map(|s| builder.root(s)),
                    builder.root(step.dst),
                    aliasable(&step.kind),
                    step.out_elems(),
                )
            };
            let src_dies = last_use[src_root] == j && !builder.values[src_root].pinned;
            if kind_aliasable && src_dies {
                let slot = slot_of[src_root];
                slot_of[dst_root] = slot;
                slot_elems[slot] = slot_elems[slot].max(out_elems);
            } else {
                assign(
                    &mut slot_of,
                    &mut slot_elems,
                    &mut free,
                    dst_root,
                    out_elems,
                );
                let dst_slot = slot_of[dst_root];
                let mut dead = [None, None];
                if src_dies && slot_of[src_root] != dst_slot {
                    dead[0] = Some(slot_of[src_root]);
                }
                if let Some(s2) = src2_root {
                    if last_use[s2] == j
                        && !builder.values[s2].pinned
                        && slot_of[s2] != dst_slot
                        && Some(slot_of[s2]) != dead[0]
                    {
                        dead[1] = Some(slot_of[s2]);
                    }
                }
                for slot in dead.into_iter().flatten() {
                    free.push(slot);
                }
            }
        }

        // Rewrite value ids into slot ids.
        let mut steps = builder.steps;
        for step in &mut steps {
            step.src = slot_of[builder.values[step.src].alias_of.unwrap_or(step.src)];
            if let Some(s2) = step.src2 {
                step.src2 = Some(slot_of[builder.values[s2].alias_of.unwrap_or(s2)]);
            }
            step.dst = slot_of[builder.values[step.dst].alias_of.unwrap_or(step.dst)];
        }
        let total = steps.len();
        let mut exits = Vec::with_capacity(exit_meta.len());
        let mut logit_unit = 0usize;
        for (i, (start, out_value, out_params, after_block)) in exit_meta.iter().enumerate() {
            let end = exit_meta
                .get(i + 1)
                .map(|(next_start, _, _, _)| *next_start)
                .unwrap_or(total);
            let exit_steps = steps[*start..end].to_vec();
            let out_root = builder.values[*out_value].alias_of.unwrap_or(*out_value);
            let out_dims = builder.values[*out_value].dims.clone();
            logit_unit = logit_unit.max(out_dims.iter().product());
            exits.push(PlanExit {
                steps: exit_steps,
                out_slot: slot_of[out_root],
                out_params: *out_params,
                out_dims,
                after_block: *after_block,
            });
        }
        steps.truncate(backbone_len);
        let backbone = steps;

        // Block-boundary metadata for adaptive execution: the pinned slot
        // holding each block's output and its per-sample element count (the
        // compaction gather unit — rows are packed at the value's own dims).
        let block_slots: Vec<usize> = block_values
            .iter()
            .map(|&v| slot_of[builder.values[v].alias_of.unwrap_or(v)])
            .collect();
        let block_units: Vec<usize> = block_values
            .iter()
            .map(|&v| builder.values[v].dims.iter().product())
            .collect();

        let cost = |steps: &[Step]| (steps.len() as u64, steps.iter().map(|s| s.ops).sum());
        let block_starts = std::iter::once(0).chain(block_bounds.iter().copied());
        let layout = McLayout {
            classes: calibrated.classes,
            blocks: block_starts
                .zip(&block_bounds)
                .map(|(start, &end)| cost(&backbone[start..end]))
                .collect(),
            exits: exits
                .iter()
                .map(|e| (e.after_block, cost(&e.steps)))
                .collect(),
        };
        let mut plan = QuantPlan {
            format,
            width: in_params.width(),
            in_params,
            in_dims: calibrated.in_dims.clone(),
            input_slot: slot_of[input_value],
            backbone,
            exits,
            block_bounds,
            block_slots,
            block_units,
            slot_elems,
            cols_unit: builder.cols_unit,
            acc_unit: builder.acc_unit,
            mask_unit: builder.mask_unit,
            logit_unit,
            n_streams: builder.n_streams,
            layout,
            shards: Vec::new(),
            exec: None,
        };
        plan.ensure_shards(1, 0);
        Ok(plan)
    }

    /// The format this plan was compiled for.
    pub fn format(&self) -> FixedPointFormat {
        self.format
    }

    /// Number of exits.
    pub fn num_exits(&self) -> usize {
        self.exits.len()
    }

    /// Number of predicted classes.
    pub fn num_classes(&self) -> usize {
        self.layout.classes
    }

    /// Per-sample input dims the plan was compiled for (batch axis
    /// stripped): inputs must be shaped `[batch, ..in_dims]`.
    pub fn in_dims(&self) -> &[usize] {
        &self.in_dims
    }

    /// Pre-sizes the arenas for `max_batch` samples, so a serving worker can
    /// pay every allocation up front and subsequent
    /// [`QuantPlan::predict_probs_batch_into`] calls with any batch up to
    /// `max_batch` stay allocation-free (on a sequential executor). Each of
    /// the `T` row-shard arenas gets `⌈max_batch / T⌉` rows, so the total
    /// stays that of one `max_batch`-row arena; on a sequential executor
    /// that is the single arena the inline entry points use too. Monotone:
    /// never shrinks.
    pub fn ensure_batch(&mut self, max_batch: usize) {
        let batch = max_batch.max(1);
        let shards = self.row_shards(batch);
        self.ensure_shards(shards, batch.div_ceil(shards));
    }

    /// Number of flattened steps (backbone plus all exits).
    pub fn num_steps(&self) -> usize {
        self.backbone.len() + self.exits.iter().map(|e| e.steps.len()).sum::<usize>()
    }

    /// Number of arena activation slots the liveness plan settled on.
    pub fn num_slots(&self) -> usize {
        self.slot_elems.len()
    }

    /// The calibrated output format of every exit branch, in attachment
    /// order.
    pub fn exit_out_params(&self) -> Vec<QuantParams> {
        self.exits.iter().map(|e| e.out_params).collect()
    }

    /// Exports the plan's flattened step list as a backend-readable
    /// [`PlanSchedule`]: the same steps, constants, shifts and slot
    /// assignments this plan executes, with the runtime state (RNG streams,
    /// arena, executor) stripped. See [`crate::schedule`].
    pub fn schedule(&self) -> PlanSchedule {
        fn export_step(step: &Step) -> ScheduleStep {
            let op = match &step.kind {
                StepKind::Conv(c) => ScheduleOp::Conv {
                    weights: c.w16.clone(),
                    bias: c.bias.clone(),
                    out_c: c.out_c,
                    in_c: c.in_c,
                    kernel: c.kernel,
                    stride: c.stride,
                    padding: c.padding,
                    shift: c.shift,
                    w_frac: c.w_frac,
                    out: c.out,
                },
                StepKind::Dense(d) => ScheduleOp::Dense {
                    weights_t: d.wt16.clone(),
                    bias: d.bias.clone(),
                    in_f: d.in_f,
                    out_f: d.out_f,
                    shift: d.shift,
                    w_frac: d.w_frac,
                    out: d.out,
                },
                StepKind::Relu => ScheduleOp::Relu,
                StepKind::MaxPool { kernel, stride } => ScheduleOp::MaxPool {
                    kernel: *kernel,
                    stride: *stride,
                },
                StepKind::AvgPool { kernel, stride } => ScheduleOp::AvgPool {
                    kernel: *kernel,
                    stride: *stride,
                },
                StepKind::GlobalAvgPool => ScheduleOp::GlobalAvgPool,
                StepKind::Affine(a) => ScheduleOp::Affine {
                    m: a.m.clone(),
                    b: a.b.clone(),
                    out: a.out,
                },
                StepKind::McDropout {
                    rate,
                    scale_q,
                    params,
                    stream: _,
                } => ScheduleOp::McDropout {
                    rate: *rate,
                    scale_q: *scale_q,
                    params: *params,
                },
                StepKind::Merge {
                    m_shift,
                    s_shift,
                    out,
                } => ScheduleOp::Merge {
                    m_shift: *m_shift,
                    s_shift: *s_shift,
                    out: *out,
                },
            };
            ScheduleStep {
                op,
                src: step.src,
                src2: step.src2,
                dst: step.dst,
                in_dims: step.in_dims.clone(),
                out_dims: step.out_dims.clone(),
                unit_ops: step.ops,
            }
        }

        PlanSchedule {
            format: self.format,
            classes: self.layout.classes,
            in_params: self.in_params,
            in_dims: self.in_dims.clone(),
            input_slot: self.input_slot,
            backbone: self.backbone.iter().map(export_step).collect(),
            exits: self
                .exits
                .iter()
                .map(|e| ScheduleExit {
                    steps: e.steps.iter().map(export_step).collect(),
                    out_slot: e.out_slot,
                    out_params: e.out_params,
                    out_dims: e.out_dims.clone(),
                    after_block: e.after_block,
                })
                .collect(),
            slot_elems: self.slot_elems.clone(),
        }
    }

    /// Sets the row-shard executor of
    /// [`QuantPlan::predict_probs_batch_into`]: a batch is split into
    /// `min(exec.threads(), batch)` contiguous row shards that run in one
    /// fork/join. Without a call the plan shards over
    /// [`Executor::global`]. `Executor::sequential()` runs every call inline
    /// and makes the steady state strictly allocation-free (the fork/join
    /// allocates its scoped workers). Every kernel runs inline either way,
    /// and results are bitwise identical for every executor.
    pub fn set_executor(&mut self, exec: Executor) {
        self.exec = Some(exec);
    }

    /// Reseeds every MC-dropout stream from `master_seed`, walking the flat
    /// step list (backbone, then exits in attachment order).
    pub fn reseed_mc_streams(&mut self, master_seed: u64) {
        for shard in &mut self.shards {
            shard.arena.reseed(master_seed);
        }
    }

    /// Number of row shards a `batch`-row call of
    /// [`QuantPlan::predict_probs_batch_into`] splits into: one on a
    /// sequential executor or inside a parallel region.
    fn row_shards(&self, batch: usize) -> usize {
        if in_parallel_region() {
            return 1;
        }
        let exec = self.exec.unwrap_or_else(Executor::global);
        exec.threads().min(batch).max(1)
    }

    /// Grows the first `count` shards for `rows` samples each (monotone:
    /// repeated calls with the same or smaller sizes perform no
    /// allocation).
    fn ensure_shards(&mut self, count: usize, rows: usize) {
        fn grow<T: Clone + Default>(v: &mut Vec<T>, need: usize) {
            if v.len() < need {
                v.resize(need, T::default());
            }
        }
        if self.shards.len() < count {
            self.shards.resize_with(count, Shard::default);
        }
        let (acc32, acc64) = match self.width {
            IntWidth::W8 => (self.acc_unit * rows, 0),
            IntWidth::W16 => (0, self.acc_unit * rows),
        };
        for Shard { arena, mc } in &mut self.shards[..count] {
            if arena.streams.len() < self.n_streams {
                let unseeded = Xoshiro256StarStar::seed_from_u64(0);
                arena.streams.resize(self.n_streams, unseeded);
            }
            grow(&mut arena.slots, self.slot_elems.len());
            for (slot, &unit) in arena.slots.iter_mut().zip(&self.slot_elems) {
                grow(slot, unit * rows);
            }
            grow(&mut arena.cols, self.cols_unit * rows);
            grow(&mut arena.acc32, acc32);
            grow(&mut arena.acc64, acc64);
            grow(&mut arena.mask, self.mask_unit * rows);
            grow(&mut arena.logits, self.logit_unit * rows);
            mc.ensure(rows, self.layout.classes);
        }
    }

    /// Runs `f` on the plan and its first `count` shards, grown for `rows`
    /// samples each. The shards are moved out for the call, so `f` can share
    /// the plan's steps across shard threads while each shard mutates its
    /// own arena.
    fn with_shards<R>(
        &mut self,
        count: usize,
        rows: usize,
        f: impl FnOnce(&Self, &mut [Shard]) -> R,
    ) -> R {
        self.ensure_shards(count, rows);
        let mut shards = std::mem::take(&mut self.shards);
        let result = f(self, &mut shards[..count]);
        self.shards = shards;
        result
    }

    /// Checks the input shape, returning the batch size.
    fn check_input(&self, inputs: &Tensor) -> Result<usize, QuantError> {
        if inputs.dims().len() != self.in_dims.len() + 1 || inputs.dims()[1..] != self.in_dims[..] {
            return Err(QuantError::InvalidInput(format!(
                "plan expects input dims [batch, {:?}], got {:?}",
                self.in_dims,
                inputs.dims()
            )));
        }
        if inputs.dims()[0] == 0 {
            return Err(QuantError::InvalidInput("empty input batch".into()));
        }
        Ok(inputs.dims()[0])
    }

    /// Quantizes float input rows into the arena's input slot.
    fn load_input(&self, arena: &mut Arena, inputs: &[f32]) {
        let params = self.in_params;
        for (dst, &v) in arena.slots[self.input_slot].iter_mut().zip(inputs) {
            *dst = params.quantize_value(v) as i16;
        }
    }

    /// The plan as the MC driver's backend on one shard, with `inputs`
    /// quantized into the shard's input slot, and the driver's scratch.
    fn backend<'a>(
        &'a self,
        shard: &'a mut Shard,
        inputs: &[f32],
        masks: MaskGranularity,
    ) -> (QuantBackend<'a>, &'a mut McScratch) {
        self.load_input(&mut shard.arena, inputs);
        let backend = QuantBackend {
            plan: self,
            arena: &mut shard.arena,
            masks,
        };
        (backend, &mut shard.mc)
    }

    /// Runs a step slice at `batch` live rows.
    fn run_steps(
        steps: &[Step],
        arena: &mut Arena,
        width: IntWidth,
        batch: usize,
        mode: Mode,
        masks: MaskGranularity,
    ) -> Result<(), QuantError> {
        for step in steps {
            run_step(step, arena, width, batch, mode, masks)?;
        }
        Ok(())
    }

    /// Runs the backbone deterministically and the exit branches in `mode`,
    /// returning one dequantized logit tensor per exit. MC-dropout masks are
    /// drawn per batch ([`QuantPlan::predict_probs_into`]'s semantics). Runs
    /// inline on the first arena.
    ///
    /// # Errors
    ///
    /// Propagates execution errors.
    pub fn forward_exits_int(
        &mut self,
        inputs: &Tensor,
        mode: Mode,
    ) -> Result<Vec<Tensor>, QuantError> {
        let batch = self.check_input(inputs)?;
        self.with_shards(1, batch, |plan, shards| {
            let masks = MaskGranularity::PerBatch;
            let (mut backend, _) = plan.backend(&mut shards[0], inputs.as_slice(), masks);
            for block in 0..plan.block_bounds.len() {
                backend.run_block(block, batch)?;
            }
            (0..plan.exits.len())
                .map(|e| {
                    let logits = backend.run_exit(e, batch, mode)?.to_vec();
                    let dims = [&[batch][..], &plan.exits[e].out_dims].concat();
                    Ok(Tensor::from_vec(logits, &dims)?)
                })
                .collect()
        })
    }

    /// Seeded Monte-Carlo prediction into a caller-provided buffer: the
    /// backbone runs once, each pass reseeds the mask streams from
    /// `stream_seed(seed, pass)` and re-runs the exits in
    /// [`Mode::McSample`], and the first `n_samples` per-sample softmax
    /// tensors are averaged into `out` (`[batch, classes]`, resized).
    ///
    /// Masks are drawn **per batch**: every row gets its own independent
    /// masks, so the MC noise of one row is uncorrelated with the others' —
    /// what scoring a whole evaluation set in one call (Phase 3) needs. The
    /// price is that a row's result depends on its position in the batch;
    /// [`QuantPlan::predict_probs_batch_into`] makes the opposite trade.
    /// Zero steady-state heap allocation once the arena is warm. Runs inline
    /// on the first arena: per-batch masks depend on the whole batch.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::Internal`] for a plan without exits,
    /// [`QuantError::InvalidInput`] for an empty batch or an input shape
    /// mismatch, or propagates execution errors.
    pub fn predict_probs_into(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
        out: &mut Vec<f32>,
    ) -> Result<(usize, usize), QuantError> {
        self.predict_probs_impl(inputs, n_samples, seed, out, MaskGranularity::PerBatch)
    }

    /// The batch-boundary-invariant counterpart of
    /// [`QuantPlan::predict_probs_into`]: each MC pass draws its dropout
    /// masks at **per-sample** granularity and broadcasts them across the
    /// batch, so the result for every sample is bit-exact with a
    /// single-sample call at the same seed — regardless of how requests were
    /// grouped into batches. This is the serving entry point: a dynamic
    /// batcher may split the same requests `[a, b, c]` as `[a] + [b, c]` or
    /// `[a, b, c]` and every response stays identical. For `batch == 1` it
    /// is bit-exact with [`QuantPlan::predict_probs_into`] itself; for larger
    /// batches every row sees the same masks, so rows share their MC noise.
    ///
    /// The batch runs as `min(threads, batch)` row shards in one fork/join
    /// (see [`QuantPlan::set_executor`] and the
    /// [module documentation](self#threading)). Zero steady-state heap
    /// allocation once the arena is warm for the batch (sequential
    /// executor); see [`QuantPlan::ensure_batch`].
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidInput`] for an empty batch or an input
    /// shape mismatch, or propagates execution errors.
    pub fn predict_probs_batch_into(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
        out: &mut Vec<f32>,
    ) -> Result<(usize, usize), QuantError> {
        self.predict_probs_impl(inputs, n_samples, seed, out, MaskGranularity::PerSample)
    }

    /// [`QuantPlan::predict_probs_batch_into`] returning a fresh tensor.
    ///
    /// # Errors
    ///
    /// See [`QuantPlan::predict_probs_batch_into`].
    pub fn predict_probs_batch(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
    ) -> Result<Tensor, QuantError> {
        let mut out = Vec::new();
        let (batch, classes) = self.predict_probs_batch_into(inputs, n_samples, seed, &mut out)?;
        Ok(Tensor::from_vec(out, &[batch, classes])?)
    }

    fn predict_probs_impl(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
        out: &mut Vec<f32>,
        masks: MaskGranularity,
    ) -> Result<(usize, usize), QuantError> {
        self.layout.check_fixed().map_err(QuantError::Internal)?;
        let batch = self.check_input(inputs)?;
        // Per-batch masks depend on the whole batch, so only the per-sample
        // entry shards.
        let shards = match masks {
            MaskGranularity::PerBatch => 1,
            MaskGranularity::PerSample => self.row_shards(batch),
        };
        let rows = batch.div_ceil(shards);
        // Uneven splits can leave a thread without a shard (5 rows on 4
        // threads run as 2 + 2 + 1).
        let shards = batch.div_ceil(rows);
        let classes = self.layout.classes;
        out.resize(batch * classes, 0.0);
        self.with_shards(shards, rows, |plan, shards| {
            let run = |shard: &mut Shard, x: &[f32], o: &mut [f32]| {
                let (mut backend, mc) = plan.backend(shard, x, masks);
                mc::predict_fixed(&mut backend, mc, n_samples, seed, o)
            };
            if let [shard] = shards {
                return run(shard, inputs.as_slice(), out);
            }
            let exec = plan.exec.unwrap_or_else(Executor::global);
            let in_unit: usize = plan.in_dims.iter().product();
            let mut work: Vec<_> = shards
                .iter_mut()
                .zip(inputs.as_slice().chunks(rows * in_unit))
                .zip(out.chunks_mut(rows * classes))
                .collect();
            exec.par_map_mut(&mut work, |_, ((shard, x), o)| run(shard, x, o))
                .into_iter()
                .collect()
        })?;
        Ok((batch, classes))
    }

    /// [`QuantPlan::predict_probs_into`] returning a fresh tensor.
    ///
    /// # Errors
    ///
    /// See [`QuantPlan::predict_probs_into`].
    pub fn predict_probs(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
    ) -> Result<Tensor, QuantError> {
        let mut out = Vec::new();
        let (batch, classes) = self.predict_probs_into(inputs, n_samples, seed, &mut out)?;
        Ok(Tensor::from_vec(out, &[batch, classes])?)
    }

    /// Static cost of the fixed-depth path
    /// ([`QuantPlan::predict_probs_batch_into`]) for a `batch`-sample call
    /// at `n_samples` MC samples: `(step_invocations, ops)` where ops scale
    /// with the batch but invocations do not. This is the `ops_fixed`
    /// baseline adaptive execution reports its savings against.
    pub fn fixed_cost(&self, batch: usize, n_samples: usize) -> (u64, u64) {
        self.layout.fixed_cost(batch, n_samples)
    }

    /// Policy-driven adaptive batched prediction on the integer path: the
    /// flattened step list is executed in exit-boundary segments, and after
    /// each exit head's ensemble joins the live rows, `policy` retires the
    /// confident samples and the arena **compacts the surviving rows into a
    /// dense smaller batch** — a gather on the pinned block-boundary slot
    /// (which later steps never clobber) plus the live-index map, so only
    /// the stragglers pay for the deeper blocks.
    ///
    /// Execution order per exit `e`: run the backbone segment up to the
    /// exit's attachment block once in [`Mode::Eval`] on the live rows, then
    /// draw `ceil(n_samples / n_exits)` MC samples from exit `e` — pass `p`
    /// reseeds every mask stream from `stream_seed(seed, p)` (the fixed
    /// path's assignment) with per-sample masks broadcast across the batch.
    /// Each sample's output row is its running equally-weighted ensemble
    /// mean over the exits consulted before it retired. Because masks are
    /// per-sample and retirement decisions are row-local, every row —
    /// probabilities *and* exit choice — is bit-exact with evaluating that
    /// sample alone under the same policy, regardless of which samples
    /// shared its batch or when they retired.
    ///
    /// With `n_samples == 0` the exits are consulted deterministically in
    /// [`Mode::Eval`] (one consult per exit). With [`ExitPolicy::Never`] and
    /// `n_samples > 0` the call delegates to
    /// [`QuantPlan::predict_probs_batch_into`] and is bit-exact with it.
    ///
    /// Every other policy runs inline on the first arena, whatever the
    /// executor: compaction gathers survivors across the whole batch. Zero
    /// steady-state heap allocation once the arena is warm for the batch;
    /// see [`QuantPlan::ensure_batch`].
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidInput`] for an invalid policy threshold,
    /// an empty batch or a shape mismatch, [`QuantError::Internal`] for a
    /// plan without exits or with exits attached out of depth order, or
    /// propagates execution errors.
    pub fn predict_adaptive_batch_into(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
        policy: &ExitPolicy,
        out: &mut Vec<f32>,
        exit_taken: &mut Vec<usize>,
    ) -> Result<AdaptiveStats, QuantError> {
        policy.validate().map_err(QuantError::InvalidInput)?;
        self.layout.check_adaptive().map_err(QuantError::Internal)?;
        let batch = self.check_input(inputs)?;
        if mc::serves_fixed(policy, n_samples) {
            // Nothing retires, so the row-sharded fixed path serves it.
            self.predict_probs_batch_into(inputs, n_samples, seed, out)?;
            return Ok(self.layout.served_fixed(batch, n_samples, exit_taken));
        }
        // Compaction moves rows across the batch, so the adaptive path runs
        // inline on the first shard.
        self.with_shards(1, batch, |plan, shards| {
            let (mut backend, mc) = plan.backend(
                &mut shards[0],
                inputs.as_slice(),
                MaskGranularity::PerSample,
            );
            mc::predict_adaptive(
                &mut backend,
                mc,
                batch,
                n_samples,
                seed,
                policy,
                out,
                exit_taken,
            )
        })
    }

    /// [`QuantPlan::predict_adaptive_batch_into`] returning owned values.
    ///
    /// # Errors
    ///
    /// See [`QuantPlan::predict_adaptive_batch_into`].
    pub fn predict_adaptive_batch(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
        policy: &ExitPolicy,
    ) -> Result<AdaptivePrediction, QuantError> {
        let mut out = Vec::new();
        let mut exit_taken = Vec::new();
        let stats = self.predict_adaptive_batch_into(
            inputs,
            n_samples,
            seed,
            policy,
            &mut out,
            &mut exit_taken,
        )?;
        Ok(AdaptivePrediction {
            probs: Tensor::from_vec(out, &[stats.batch, stats.classes])?,
            exit_taken,
            stats,
        })
    }
}

/// One row shard of a [`QuantPlan`] as the MC driver's backend: blocks are
/// the backbone segments between `block_bounds`, each block's output stays
/// in its pinned boundary slot (so compaction is a row move there), and
/// exit codes are dequantized into the arena's logit staging.
struct QuantBackend<'a> {
    plan: &'a QuantPlan,
    arena: &'a mut Arena,
    masks: MaskGranularity,
}

impl McBackend for QuantBackend<'_> {
    type Error = QuantError;

    fn layout(&self) -> &McLayout {
        &self.plan.layout
    }

    fn run_block(&mut self, block: usize, live: usize) -> Result<(), QuantError> {
        let bounds = &self.plan.block_bounds;
        let start = block.checked_sub(1).map_or(0, |b| bounds[b]);
        QuantPlan::run_steps(
            &self.plan.backbone[start..bounds[block]],
            self.arena,
            self.plan.width,
            live,
            Mode::Eval,
            self.masks,
        )
    }

    fn reseed(&mut self, master_seed: u64) {
        self.arena.reseed(master_seed);
    }

    fn run_exit(&mut self, exit: usize, live: usize, mode: Mode) -> Result<&[f32], QuantError> {
        let exit = &self.plan.exits[exit];
        QuantPlan::run_steps(
            &exit.steps,
            self.arena,
            self.plan.width,
            live,
            mode,
            self.masks,
        )?;
        let n = exit.out_dims.iter().product::<usize>() * live;
        let scale = exit.out_params.scale();
        let logits = &mut self.arena.logits[..n];
        for (l, &c) in logits.iter_mut().zip(&self.arena.slots[exit.out_slot]) {
            *l = c as f32 * scale;
        }
        Ok(logits)
    }

    fn keep_row(&mut self, block: usize, from: usize, to: usize) {
        let unit = self.plan.block_units[block];
        self.arena.slots[self.plan.block_slots[block]]
            .copy_within(from * unit..(from + 1) * unit, to * unit);
    }
}

/// Rounded division with ties away from zero (`d > 0`): the average-pooling
/// divisor.
fn div_round(n: i64, d: i64) -> i64 {
    if n >= 0 {
        (2 * n + d) / (2 * d)
    } else {
        -((-2 * n + d) / (2 * d))
    }
}

impl CalibratedNetwork {
    /// Compiles the arena-allocated execution plan for one format — pure
    /// bookkeeping over the stored records plus one-time weight packing; no
    /// float inference.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::Unsupported`] for formats wider than 16 bits,
    /// or [`QuantError::Internal`] on lowering/record skew.
    pub fn plan(&self, format: FixedPointFormat) -> Result<QuantPlan, QuantError> {
        QuantPlan::compile(self, format)
    }
}

/// Executes one flattened step on the arena, inline on the calling thread
/// (the plan parallelises by row shard, not per kernel).
fn run_step(
    step: &Step,
    arena: &mut Arena,
    width: IntWidth,
    batch: usize,
    mode: Mode,
    masks: MaskGranularity,
) -> Result<(), QuantError> {
    let in_elems = step.in_elems() * batch;
    let out_elems = step.out_elems() * batch;
    let exec = Executor::sequential();
    let is_max_pool = matches!(step.kind, StepKind::MaxPool { .. });
    match &step.kind {
        StepKind::Conv(conv) => {
            let (c, h, w) = (step.in_dims[0], step.in_dims[1], step.in_dims[2]);
            let geom = ConvGeometry::square(h, w, conv.kernel, conv.stride, conv.padding);
            let plane = geom.out_h() * geom.out_w();
            let kred = conv.in_c * conv.kernel * conv.kernel;
            let ncols = batch * plane;
            let mut dst = std::mem::take(&mut arena.slots[step.dst]);
            {
                let src = &arena.slots[step.src][..in_elems];
                im2row_i16_into(src, batch, c, &geom, &mut arena.cols)?;
            }
            let out = conv.out;
            let (qmin, qmax) = (out.qmin(), out.qmax());
            match width {
                IntWidth::W8 => {
                    let acc = &mut arena.acc32[..conv.out_c * ncols];
                    matmul_wide_i32_into(
                        &exec,
                        &conv.w16,
                        &arena.cols[..kred * ncols],
                        conv.out_c,
                        kred,
                        ncols,
                        acc,
                    )?;
                    for co in 0..conv.out_c {
                        for b in 0..batch {
                            let src_row =
                                &acc[co * ncols + b * plane..co * ncols + (b + 1) * plane];
                            let start = (b * conv.out_c + co) * plane;
                            let dst_row = &mut dst[start..start + plane];
                            requantize_i32_row_into(
                                src_row,
                                conv.bias[co],
                                conv.shift,
                                qmin,
                                qmax,
                                dst_row,
                            );
                        }
                    }
                }
                IntWidth::W16 => {
                    let acc = &mut arena.acc64[..conv.out_c * ncols];
                    matmul_abt_i64_into(
                        &exec,
                        &conv.w16,
                        &arena.cols[..kred * ncols],
                        conv.out_c,
                        kred,
                        ncols,
                        acc,
                    )?;
                    for co in 0..conv.out_c {
                        for b in 0..batch {
                            let src_row =
                                &acc[co * ncols + b * plane..co * ncols + (b + 1) * plane];
                            let start = (b * conv.out_c + co) * plane;
                            let dst_row = &mut dst[start..start + plane];
                            requantize_i64_row_into(
                                src_row,
                                conv.bias[co],
                                conv.shift,
                                qmin,
                                qmax,
                                dst_row,
                            );
                        }
                    }
                }
            }
            arena.slots[step.dst] = dst;
        }
        StepKind::Dense(dense) => {
            let mut dst = std::mem::take(&mut arena.slots[step.dst]);
            let out = dense.out;
            let (qmin, qmax) = (out.qmin(), out.qmax());
            match width {
                IntWidth::W8 => {
                    let acc = &mut arena.acc32[..batch * dense.out_f];
                    matmul_wide_i32_into(
                        &exec,
                        &arena.slots[step.src][..in_elems],
                        &dense.wt16,
                        batch,
                        dense.in_f,
                        dense.out_f,
                        acc,
                    )?;
                    for (dst_row, acc_row) in dst[..out_elems]
                        .chunks_exact_mut(dense.out_f)
                        .zip(acc.chunks_exact(dense.out_f))
                    {
                        requantize_i32_row_biased_into(
                            acc_row,
                            &dense.bias,
                            dense.shift,
                            qmin,
                            qmax,
                            dst_row,
                        );
                    }
                }
                IntWidth::W16 => {
                    let acc = &mut arena.acc64[..batch * dense.out_f];
                    matmul_abt_i64_into(
                        &exec,
                        &arena.slots[step.src][..in_elems],
                        &dense.wt16,
                        batch,
                        dense.in_f,
                        dense.out_f,
                        acc,
                    )?;
                    for (dst_row, acc_row) in dst[..out_elems]
                        .chunks_exact_mut(dense.out_f)
                        .zip(acc.chunks_exact(dense.out_f))
                    {
                        requantize_i64_row_biased_into(
                            acc_row,
                            &dense.bias,
                            dense.shift,
                            qmin,
                            qmax,
                            dst_row,
                        );
                    }
                }
            }
            arena.slots[step.dst] = dst;
        }
        StepKind::Relu => {
            if step.src == step.dst {
                for v in arena.slots[step.dst][..in_elems].iter_mut() {
                    *v = (*v).max(0);
                }
            } else {
                let mut dst = std::mem::take(&mut arena.slots[step.dst]);
                for (d, &s) in dst[..in_elems]
                    .iter_mut()
                    .zip(&arena.slots[step.src][..in_elems])
                {
                    *d = s.max(0);
                }
                arena.slots[step.dst] = dst;
            }
        }
        StepKind::MaxPool { kernel, stride } | StepKind::AvgPool { kernel, stride } => {
            let is_max = is_max_pool;
            let (kernel, stride) = (*kernel, *stride);
            let (c, h, w) = (step.in_dims[0], step.in_dims[1], step.in_dims[2]);
            let geom = ConvGeometry::square(h, w, kernel, stride, 0);
            let (oh, ow) = (geom.out_h(), geom.out_w());
            let mut dst = std::mem::take(&mut arena.slots[step.dst]);
            let src = &arena.slots[step.src][..in_elems];
            for b in 0..batch {
                for ch in 0..c {
                    for y in 0..oh {
                        for x in 0..ow {
                            let mut best = i64::MIN;
                            let mut acc = 0i64;
                            for ky in 0..kernel {
                                for kx in 0..kernel {
                                    let iy = y * stride + ky;
                                    let ix = x * stride + kx;
                                    if iy < h && ix < w {
                                        let v = src[((b * c + ch) * h + iy) * w + ix] as i64;
                                        best = best.max(v);
                                        acc += v;
                                    }
                                }
                            }
                            dst[((b * c + ch) * oh + y) * ow + x] = if is_max {
                                best as i16
                            } else {
                                div_round(acc, (kernel * kernel) as i64) as i16
                            };
                        }
                    }
                }
            }
            arena.slots[step.dst] = dst;
        }
        StepKind::GlobalAvgPool => {
            let (c, h, w) = (step.in_dims[0], step.in_dims[1], step.in_dims[2]);
            let plane = (h * w) as i64;
            let mut dst = std::mem::take(&mut arena.slots[step.dst]);
            let src = &arena.slots[step.src][..in_elems];
            for b in 0..batch {
                for ch in 0..c {
                    let start = (b * c + ch) * h * w;
                    let acc: i64 = src[start..start + h * w].iter().map(|&v| v as i64).sum();
                    dst[b * c + ch] = div_round(acc, plane) as i16;
                }
            }
            arena.slots[step.dst] = dst;
        }
        StepKind::Affine(aff) => {
            let (c, h, w) = (step.in_dims[0], step.in_dims[1], step.in_dims[2]);
            let plane = h * w;
            let out = aff.out;
            let (qmin, qmax) = (out.qmin(), out.qmax());
            let apply = |src: &[i16], dst: &mut [i16]| {
                for b in 0..batch {
                    for ch in 0..c {
                        let start = (b * c + ch) * plane;
                        for i in 0..plane {
                            let x = src[start + i] as i64;
                            dst[start + i] =
                                requantize(x * aff.m[ch] + aff.b[ch], MUL_FRAC as i32, qmin, qmax)
                                    as i16;
                        }
                    }
                }
            };
            if step.src == step.dst {
                let mut buf = std::mem::take(&mut arena.slots[step.dst]);
                let src_copy: &mut [i16] = &mut buf[..in_elems];
                // Elementwise read-then-write on the same index is in-place
                // safe; do it in a single pass.
                for b in 0..batch {
                    for ch in 0..c {
                        let start = (b * c + ch) * plane;
                        for v in src_copy[start..start + plane].iter_mut() {
                            *v = requantize(
                                *v as i64 * aff.m[ch] + aff.b[ch],
                                MUL_FRAC as i32,
                                qmin,
                                qmax,
                            ) as i16;
                        }
                    }
                }
                arena.slots[step.dst] = buf;
            } else {
                let mut dst = std::mem::take(&mut arena.slots[step.dst]);
                apply(&arena.slots[step.src][..in_elems], &mut dst[..in_elems]);
                arena.slots[step.dst] = dst;
            }
        }
        StepKind::McDropout {
            rate,
            scale_q,
            params,
            stream,
        } => {
            let sampling = mode.samples_mc_dropout() && *rate > 0.0;
            if !sampling {
                // Stream positions stay aligned: a non-sampling pass draws
                // nothing.
                if step.src != step.dst {
                    let mut dst = std::mem::take(&mut arena.slots[step.dst]);
                    dst[..in_elems].copy_from_slice(&arena.slots[step.src][..in_elems]);
                    arena.slots[step.dst] = dst;
                }
                return Ok(());
            }
            let keep = 1.0 - *rate;
            // Filter-wise for NCHW (per-sample dims of rank 3), element-wise
            // otherwise — the float `McDropout` layer's draw order. Per-sample
            // granularity draws one sample's worth of masks and tiles them
            // across the batch (`% draws`); for batch 1 the draw count and
            // the applied mask are identical in both modes.
            let (draws, plane) = if step.in_dims.len() == 3 {
                let per_sample = match masks {
                    MaskGranularity::PerBatch => batch,
                    MaskGranularity::PerSample => 1,
                };
                (
                    per_sample * step.in_dims[0],
                    step.in_dims[1] * step.in_dims[2],
                )
            } else {
                let per_sample = match masks {
                    MaskGranularity::PerBatch => in_elems,
                    MaskGranularity::PerSample => in_elems / batch,
                };
                (per_sample, 1)
            };
            let rng = &mut arena.streams[*stream];
            for m in arena.mask[..draws].iter_mut() {
                *m = rng.bernoulli(keep);
            }
            let (qmin, qmax) = (params.qmin(), params.qmax());
            let scale_q = *scale_q;
            let mask = &arena.mask;
            let drop_one = |v: i64, kept: bool| -> i16 {
                if kept {
                    requantize(v * scale_q, MUL_FRAC as i32, qmin, qmax) as i16
                } else {
                    0
                }
            };
            if step.src == step.dst {
                let mut buf = std::mem::take(&mut arena.slots[step.dst]);
                for (i, v) in buf[..in_elems].iter_mut().enumerate() {
                    *v = drop_one(*v as i64, mask[(i / plane) % draws]);
                }
                arena.slots[step.dst] = buf;
            } else {
                let mut dst = std::mem::take(&mut arena.slots[step.dst]);
                for (i, (d, &s)) in dst[..in_elems]
                    .iter_mut()
                    .zip(&arena.slots[step.src][..in_elems])
                    .enumerate()
                {
                    *d = drop_one(s as i64, mask[(i / plane) % draws]);
                }
                arena.slots[step.dst] = dst;
            }
        }
        StepKind::Merge {
            m_shift,
            s_shift,
            out,
        } => {
            let (qmin, qmax) = (out.qmin(), out.qmax());
            let (m_shift, s_shift) = (*m_shift, *s_shift);
            let src2 = step.src2.expect("merge has a shortcut source");
            let mut dst = std::mem::take(&mut arena.slots[step.dst]);
            let main = &arena.slots[step.src][..out_elems];
            let short = &arena.slots[src2][..out_elems];
            for ((d, &a), &b) in dst[..out_elems].iter_mut().zip(main).zip(short) {
                let x = requantize(a as i64, m_shift, qmin, qmax);
                let y = requantize(b as i64, s_shift, qmin, qmax);
                *d = (x + y).max(0).min(qmax) as i16;
            }
            arena.slots[step.dst] = dst;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnn_models::{zoo, LayerSpec, ModelConfig, MultiExitNetwork, NetworkSpec};
    use bnn_nn::layer::Mode;
    use bnn_nn::network::Network;

    fn fmt(total: u32, int: u32) -> FixedPointFormat {
        FixedPointFormat::new(total, int).unwrap()
    }

    fn calib_batch(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        Tensor::randn(dims, &mut rng)
    }

    fn lenet(seed: u64) -> MultiExitNetwork {
        zoo::lenet5(
            &ModelConfig::mnist()
                .with_resolution(10, 10)
                .with_width_divisor(8)
                .with_classes(4),
        )
        .with_exits_after_every_block()
        .unwrap()
        .with_exit_mcd(0.25)
        .unwrap()
        .build(seed)
        .unwrap()
    }

    #[test]
    fn plan_reuses_slots_via_liveness() {
        let net = lenet(1);
        let calib = calib_batch(&[4, 1, 10, 10], 2);
        let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
        let plan = calibrated.plan(fmt(8, 3)).unwrap();
        // The flat plan has many steps but far fewer slots: transient
        // activations ping-pong while block outputs stay pinned.
        assert!(
            plan.num_steps() > plan.num_slots(),
            "{} steps should outnumber {} slots",
            plan.num_steps(),
            plan.num_slots()
        );
        assert_eq!(plan.num_exits(), 2);
        assert_eq!(plan.num_classes(), 4);
        assert_eq!(plan.format(), fmt(8, 3));
    }

    #[test]
    fn batched_predict_is_concat_of_single_sample_calls() {
        let net = lenet(21);
        let calib = calib_batch(&[6, 1, 10, 10], 22);
        let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
        let batch = 3usize;
        let x = calib_batch(&[batch, 1, 10, 10], 23);
        let per = 100usize;
        for format in [fmt(4, 2), fmt(8, 3), fmt(16, 6)] {
            let mut plan = calibrated.plan(format).unwrap();
            let all = plan.predict_probs_batch(&x, 5, 2023).unwrap();
            for b in 0..batch {
                let sample = Tensor::from_vec(
                    x.as_slice()[b * per..(b + 1) * per].to_vec(),
                    &[1, 1, 10, 10],
                )
                .unwrap();
                let one = plan.predict_probs_batch(&sample, 5, 2023).unwrap();
                assert_eq!(
                    &all.as_slice()[b * 4..(b + 1) * 4],
                    one.as_slice(),
                    "{format} sample {b}"
                );
                // Single-sample batched calls are bit-exact with the
                // unbatched entry point (same draws, same indexing).
                let plain = plan.predict_probs(&sample, 5, 2023).unwrap();
                assert_eq!(one.as_slice(), plain.as_slice(), "{format} sample {b}");
            }
        }
    }

    #[test]
    fn adaptive_never_matches_fixed_batch_bitwise() {
        let net = lenet(41);
        let calib = calib_batch(&[6, 1, 10, 10], 42);
        let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
        let x = calib_batch(&[3, 1, 10, 10], 43);
        for format in [fmt(4, 2), fmt(8, 3), fmt(16, 6)] {
            let mut plan = calibrated.plan(format).unwrap();
            let fixed = plan.predict_probs_batch(&x, 6, 2023).unwrap();
            let adaptive = plan
                .predict_adaptive_batch(&x, 6, 2023, &ExitPolicy::Never)
                .unwrap();
            assert_eq!(fixed.as_slice(), adaptive.probs.as_slice(), "{format}");
            assert_eq!(adaptive.exit_taken, vec![1; 3], "{format}");
            assert_eq!(adaptive.stats.ops_executed, adaptive.stats.ops_fixed);
            assert!(adaptive.stats.ops_fixed > 0);
        }
    }

    #[test]
    fn adaptive_rows_match_single_sample_evaluation() {
        let net = lenet(45);
        let calib = calib_batch(&[6, 1, 10, 10], 46);
        let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
        let batch = 4usize;
        let x = calib_batch(&[batch, 1, 10, 10], 47);
        let per = 100usize;
        for format in [fmt(4, 2), fmt(8, 3), fmt(16, 6)] {
            let mut plan = calibrated.plan(format).unwrap();
            for policy in [
                ExitPolicy::Confidence { threshold: 0.3 },
                ExitPolicy::Entropy { threshold: 0.97 },
                ExitPolicy::Confidence { threshold: 0.0 }, // all retire at exit 0
                ExitPolicy::Confidence { threshold: 1.0 }, // none retire early
            ] {
                for n_samples in [0usize, 6] {
                    let all = plan
                        .predict_adaptive_batch(&x, n_samples, 2023, &policy)
                        .unwrap();
                    for b in 0..batch {
                        let sample = Tensor::from_vec(
                            x.as_slice()[b * per..(b + 1) * per].to_vec(),
                            &[1, 1, 10, 10],
                        )
                        .unwrap();
                        let one = plan
                            .predict_adaptive_batch(&sample, n_samples, 2023, &policy)
                            .unwrap();
                        assert_eq!(
                            &all.probs.as_slice()[b * 4..(b + 1) * 4],
                            one.probs.as_slice(),
                            "{format} {policy} n={n_samples} row {b}"
                        );
                        assert_eq!(
                            all.exit_taken[b], one.exit_taken[0],
                            "{format} {policy} n={n_samples} row {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn adaptive_saves_ops_when_samples_retire_early() {
        let net = lenet(51);
        let calib = calib_batch(&[6, 1, 10, 10], 52);
        let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
        let mut plan = calibrated.plan(fmt(8, 3)).unwrap();
        let x = calib_batch(&[4, 1, 10, 10], 53);
        let all_early = plan
            .predict_adaptive_batch(&x, 6, 2023, &ExitPolicy::Confidence { threshold: 0.0 })
            .unwrap();
        assert_eq!(all_early.exit_taken, vec![0; 4]);
        assert!(all_early.stats.ops_executed < all_early.stats.ops_fixed);
        assert!(all_early.stats.ops_saved_fraction() > 0.0);
        // Never pays full freight.
        let never = plan
            .predict_adaptive_batch(&x, 6, 2023, &ExitPolicy::Never)
            .unwrap();
        assert_eq!(never.stats.ops_saved_fraction(), 0.0);
    }

    #[test]
    fn adaptive_rejects_invalid_policy() {
        let net = lenet(55);
        let calib = calib_batch(&[4, 1, 10, 10], 56);
        let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
        let mut plan = calibrated.plan(fmt(8, 3)).unwrap();
        let x = Tensor::ones(&[1, 1, 10, 10]);
        for bad in [f64::NAN, f64::INFINITY, -0.5, 1.5] {
            assert!(matches!(
                plan.predict_adaptive_batch(&x, 4, 1, &ExitPolicy::Entropy { threshold: bad }),
                Err(QuantError::InvalidInput(_))
            ));
        }
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        let net = lenet(31);
        let calib = calib_batch(&[4, 1, 10, 10], 32);
        let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
        let mut plan = calibrated.plan(fmt(8, 3)).unwrap();
        assert_eq!(plan.in_dims(), &[1, 10, 10]);
        let empty = Tensor::from_vec(Vec::new(), &[0, 1, 10, 10]).unwrap();
        assert!(matches!(
            plan.predict_probs(&empty, 4, 1),
            Err(QuantError::InvalidInput(_))
        ));
        let wrong = calib_batch(&[2, 1, 9, 9], 33);
        assert!(matches!(
            plan.predict_probs(&wrong, 4, 1),
            Err(QuantError::InvalidInput(_))
        ));
        assert!(matches!(
            plan.predict_probs_batch(&wrong, 4, 1),
            Err(QuantError::InvalidInput(_))
        ));
        let no_batch_axis = calib_batch(&[1, 10, 10], 34);
        assert!(matches!(
            plan.predict_probs(&no_batch_axis, 4, 1),
            Err(QuantError::InvalidInput(_))
        ));
    }

    #[test]
    fn ensure_batch_splits_rows_across_shard_arenas() {
        let net = lenet(61);
        let calib = calib_batch(&[4, 1, 10, 10], 62);
        let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
        let rows_of = |plan: &QuantPlan| -> Vec<usize> {
            plan.shards
                .iter()
                .map(|s| s.arena.slots[plan.input_slot].len() / plan.slot_elems[plan.input_slot])
                .collect()
        };
        // Three shards of ceil(7 / 3) rows: the total stays that of one
        // 7-row arena, up to rounding.
        let mut plan = calibrated.plan(fmt(8, 3)).unwrap();
        plan.set_executor(Executor::new(3));
        plan.ensure_batch(7);
        assert_eq!(rows_of(&plan), vec![3, 3, 3]);
        // A sequential plan keeps one arena at the full batch.
        let mut plan = calibrated.plan(fmt(8, 3)).unwrap();
        plan.set_executor(Executor::sequential());
        plan.ensure_batch(7);
        assert_eq!(rows_of(&plan), vec![7]);
        // Inside a parallel region the plan does not shard.
        plan.set_executor(Executor::new(3));
        assert_eq!(plan.row_shards(7), 3);
        let nested = Executor::new(2).par_map_indexed(&[0, 1], |_, _| plan.row_shards(7));
        assert_eq!(nested, vec![1, 1]);
    }

    #[test]
    fn planned_mc_prediction_is_seed_reproducible() {
        let net = lenet(11);
        let calib = calib_batch(&[4, 1, 10, 10], 12);
        let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
        let mut plan = calibrated.plan(fmt(8, 3)).unwrap();
        let x = calib_batch(&[3, 1, 10, 10], 13);
        let a = plan.predict_probs(&x, 4, 2023).unwrap();
        let b = plan.predict_probs(&x, 4, 2023).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
        let c = plan.predict_probs(&x, 4, 7).unwrap();
        assert_ne!(a.as_slice(), c.as_slice());
        // rows are simplexes
        for row in a.as_slice().chunks(4) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn per_batch_masks_are_independent_per_row_and_per_sample_masks_are_shared() {
        // Two identical rows in one batch: per-batch masks give each row its
        // own MC noise, per-sample masks broadcast one mask to both.
        let net = lenet(71);
        let calib = calib_batch(&[4, 1, 10, 10], 72);
        let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
        let row = calib_batch(&[1, 1, 10, 10], 73);
        let twice = Tensor::from_vec(row.as_slice().repeat(2), &[2, 1, 10, 10]).unwrap();
        for format in [fmt(4, 2), fmt(8, 3), fmt(16, 6)] {
            let mut plan = calibrated.plan(format).unwrap();
            let mut out = Vec::new();
            plan.predict_probs_into(&twice, 6, 2023, &mut out).unwrap();
            assert_ne!(out[..4], out[4..], "{format} per-batch rows must differ");
            plan.predict_probs_batch_into(&twice, 6, 2023, &mut out)
                .unwrap();
            assert_eq!(out[..4], out[4..], "{format} per-sample rows must match");
        }
    }

    #[test]
    fn four_bit_plan_outputs_lie_on_the_exit_grid() {
        let net = lenet(5);
        let calib = calib_batch(&[6, 1, 10, 10], 5);
        let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
        let mut plan = calibrated.plan(fmt(4, 2)).unwrap();
        let x = calib_batch(&[3, 1, 10, 10], 6);
        let logits = plan.forward_exits_int(&x, Mode::Eval).unwrap();
        for (exit, params) in logits.iter().zip(plan.exit_out_params()) {
            let eps = params.scale();
            for &v in exit.as_slice() {
                let steps = v / eps;
                assert!((steps - steps.round()).abs() < 1e-4, "{v} is off the grid");
            }
        }
    }

    #[test]
    fn residual_batchnorm_plan_tracks_the_float_reference() {
        // Residual merges and folded batch-norm affines: the affine
        // multipliers make float exactness format-dependent, so one step of
        // each exit's output grid bounds the drift. At 16 bits the drift of
        // the full-depth network exceeds one step; the 16-bit bound is pinned
        // on LeNet-5 in `tests/quantized_inference.rs`.
        let net = zoo::resnet18(
            &ModelConfig::cifar10()
                .with_resolution(12, 12)
                .with_width_divisor(16),
        )
        .with_exits_after_every_block()
        .unwrap()
        .with_exit_mcd(0.3)
        .unwrap()
        .build(7)
        .unwrap();
        let calib = calib_batch(&[4, 3, 12, 12], 7);
        let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
        let x = calib_batch(&[2, 3, 12, 12], 8);
        for format in [fmt(4, 2), fmt(6, 2), fmt(8, 3)] {
            let mut plan = calibrated.plan(format).unwrap();
            let mut reference = calibrated.fake_quant(format).unwrap();
            let int = plan.forward_exits_int(&x, Mode::Eval).unwrap();
            let float = reference.forward_exits(&x, Mode::Eval).unwrap();
            for ((a, b), params) in int.iter().zip(&float).zip(plan.exit_out_params()) {
                let eps = params.scale();
                for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                    assert!(
                        (x - y).abs() <= eps + 1e-6,
                        "{format}: {x} vs {y} (eps {eps})"
                    );
                }
            }
        }
    }

    #[test]
    fn formats_wider_than_sixteen_bits_are_rejected() {
        let net = lenet(9);
        let calib = calib_batch(&[2, 1, 10, 10], 14);
        let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
        assert!(matches!(
            calibrated.plan(fmt(24, 8)),
            Err(QuantError::Unsupported(_))
        ));
        assert!(matches!(
            calibrated.fake_quant(fmt(24, 8)),
            Err(QuantError::Unsupported(_))
        ));
    }

    /// A single-block network on `[batch, features, 1, 1]` inputs: a
    /// flatten backbone and the given classifier head.
    fn flat_network(features: usize, classes: usize, head: Vec<LayerSpec>) -> MultiExitNetwork {
        NetworkSpec::single_exit(
            "flat",
            features,
            1,
            1,
            classes,
            vec![vec![LayerSpec::Flatten]],
            head,
        )
        .build(1)
        .unwrap()
    }

    #[test]
    fn eight_bit_integer_path_matches_float_sim_bitwise() {
        // Every product and sum of an 8-bit LeNet stays below 2^24, where
        // f32 is exact: the plan and the float reference must agree exactly,
        // not just within a step.
        let net = lenet(3);
        let calib = calib_batch(&[6, 1, 10, 10], 3);
        let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
        let mut plan = calibrated.plan(fmt(8, 3)).unwrap();
        let mut reference = calibrated.fake_quant(fmt(8, 3)).unwrap();
        let x = calib_batch(&[2, 1, 10, 10], 4);
        let int = plan.forward_exits_int(&x, Mode::Eval).unwrap();
        let float = reference.forward_exits(&x, Mode::Eval).unwrap();
        assert_eq!(int.len(), 2);
        for (a, b) in int.iter().zip(&float) {
            assert_eq!(a.dims(), b.dims());
            assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    #[test]
    fn mc_dropout_masks_are_stream_seeded_and_domain_consistent() {
        // MC dropout is the head's last op, so the exit output shows the
        // mask positions directly.
        let net = flat_network(
            16,
            32,
            vec![
                LayerSpec::Dense {
                    in_features: 16,
                    out_features: 32,
                },
                LayerSpec::McDropout { rate: 0.5 },
            ],
        );
        let calib = calib_batch(&[8, 16, 1, 1], 9);
        let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
        let mut plan = calibrated.plan(fmt(8, 3)).unwrap();
        let mut reference = calibrated.fake_quant(fmt(8, 3)).unwrap();
        let x = calib_batch(&[2, 16, 1, 1], 10);

        plan.reseed_mc_streams(77);
        let a = plan
            .forward_exits_int(&x, Mode::McSample)
            .unwrap()
            .remove(0);
        let b = plan
            .forward_exits_int(&x, Mode::McSample)
            .unwrap()
            .remove(0);
        assert_ne!(a.as_slice(), b.as_slice(), "fresh masks must differ");

        // Reseeding replays the exact masks, and the reference draws the
        // same ones.
        plan.reseed_mc_streams(77);
        let a2 = plan
            .forward_exits_int(&x, Mode::McSample)
            .unwrap()
            .remove(0);
        assert_eq!(a.as_slice(), a2.as_slice());
        reference.reseed_mc_streams(77);
        let sim = reference
            .forward_exits(&x, Mode::McSample)
            .unwrap()
            .remove(0);
        for (ai, si) in a.as_slice().iter().zip(sim.as_slice()) {
            assert_eq!(*ai == 0.0, *si == 0.0, "mask positions must agree");
        }
        assert!(a.as_slice().contains(&0.0));

        // Eval mode is deterministic and mask-free.
        let e1 = plan.forward_exits_int(&x, Mode::Eval).unwrap().remove(0);
        let e2 = plan.forward_exits_int(&x, Mode::Eval).unwrap().remove(0);
        assert_eq!(e1.as_slice(), e2.as_slice());
    }

    #[test]
    fn max_magnitude_inputs_saturate_instead_of_wrapping() {
        // A dense layer fed the format's extreme values with extreme
        // weights must pin at the output format's range.
        let mut net = flat_network(
            8,
            2,
            vec![LayerSpec::Dense {
                in_features: 8,
                out_features: 2,
            }],
        );
        let weights = net
            .params_mut()
            .into_iter()
            .find(|p| p.value.dims().len() == 2)
            .unwrap();
        for w in weights.value.as_mut_slice() {
            *w = 100.0;
        }
        // Calibrate on small activations so the output format
        // underestimates the extreme case below.
        let calib = calib_batch(&[4, 8, 1, 1], 11);
        let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
        let mut plan = calibrated.plan(fmt(4, 2)).unwrap();
        let out = plan.exit_out_params()[0];
        let qmax = out.dequantize_value(out.qmax());
        let qmin = out.dequantize_value(out.qmin());
        let hot = Tensor::full(&[1, 8, 1, 1], 1e9);
        let logits = plan.forward_exits_int(&hot, Mode::Eval).unwrap().remove(0);
        assert!(
            logits.as_slice().iter().all(|&v| v == qmax),
            "must pin at qmax"
        );
        let cold = Tensor::full(&[1, 8, 1, 1], -1e9);
        let logits = plan.forward_exits_int(&cold, Mode::Eval).unwrap().remove(0);
        assert!(
            logits.as_slice().iter().all(|&v| v == qmin),
            "must pin at qmin"
        );
    }

    #[test]
    fn sixteen_bit_formats_use_wide_kernels() {
        let net = lenet(12);
        let calib = calib_batch(&[4, 1, 10, 10], 12);
        let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
        assert_eq!(calibrated.plan(fmt(8, 3)).unwrap().width, IntWidth::W8);
        let mut plan = calibrated.plan(fmt(16, 6)).unwrap();
        assert_eq!(plan.width, IntWidth::W16);
        // 16-bit quantization barely perturbs the float reference.
        let x = calib_batch(&[1, 1, 10, 10], 13);
        let int = plan.forward_exits_int(&x, Mode::Eval).unwrap();
        let float = calibrated
            .fake_quant(fmt(16, 6))
            .unwrap()
            .forward_exits(&x, Mode::Eval)
            .unwrap();
        for ((a, b), params) in int.iter().zip(&float).zip(plan.exit_out_params()) {
            let eps = params.scale();
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert!((x - y).abs() <= eps, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn softmax_layers_have_no_integer_lowering() {
        let net = flat_network(
            4,
            2,
            vec![
                LayerSpec::Dense {
                    in_features: 4,
                    out_features: 2,
                },
                LayerSpec::Softmax,
            ],
        );
        let calib = calib_batch(&[2, 4, 1, 1], 15);
        assert!(matches!(
            CalibratedNetwork::calibrate(&net, &calib),
            Err(QuantError::Unsupported(_))
        ));
    }

    #[test]
    fn avg_pool_division_rounds_half_away_from_zero() {
        assert_eq!(div_round(5, 2), 3);
        assert_eq!(div_round(-5, 2), -3);
        assert_eq!(div_round(7, 4), 2);
        assert_eq!(div_round(-7, 4), -2);
        assert_eq!(div_round(6, 4), 2); // 1.5 away from zero
        assert_eq!(div_round(-6, 4), -2);
        assert_eq!(div_round(0, 9), 0);
    }
}
