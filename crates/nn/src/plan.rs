//! Compiled float inference plans: allocate-once/run-many execution of a
//! lowered layer stack.
//!
//! [`InferencePlan::compile`] flattens a [`LayerLowering`] tree into a linear
//! step list over a small slot arena (element-wise steps run in place) and
//! one im2col/matmul scratch shared by every step. A residual block
//! flattens as main path ‖ shortcut ‖ merge: its input stays in its slot
//! until the shortcut has read it, and the main path's output until the
//! merge. Executing the plan reproduces the layer-by-layer
//! [`Layer::forward`](crate::Layer::forward) chain **bit for bit** — each
//! step runs exactly the kernels and loops of its layer (batch
//! normalisation its unfolded `gamma * ((x - mean) * (1 / std)) + beta`),
//! and MC-dropout steps draw from the same reseedable streams in the same
//! order (residual main paths before shortcuts) — while performing no
//! per-layer allocation in the steady state. This is what lets the
//! Monte-Carlo sampler re-run exit branches hundreds of times per
//! prediction without touching the allocator or rebuilding model replicas.
//!
//! Every layer with an inference lowering is plannable; plans run the
//! inference modes ([`Mode::Eval`], [`Mode::McSample`]).

use crate::layer::Mode;
use crate::lowering::{BatchNormConsts, LayerLowering};
use crate::NnError;
use bnn_tensor::linalg::{im2col_slices_into, matmul_slices_into, ConvGeometry};
use bnn_tensor::rng::{Rng, SplitMix64, Xoshiro256StarStar};
use bnn_tensor::Tensor;

/// A packed convolution step.
#[derive(Debug, Clone)]
struct PlanConv {
    /// Weights reshaped to `[out_c, in_c * k * k]`.
    w2d: Vec<f32>,
    bias: Vec<f32>,
    out_c: usize,
    in_c: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
}

/// A dense step.
#[derive(Debug, Clone)]
struct PlanDense {
    /// Weights `[in_f, out_f]` row-major (the layer's own layout).
    w: Vec<f32>,
    bias: Vec<f32>,
    in_f: usize,
    out_f: usize,
}

#[derive(Debug, Clone)]
enum StepKind {
    Conv(Box<PlanConv>),
    Dense(Box<PlanDense>),
    BatchNorm(Box<BatchNormConsts>),
    Relu,
    /// Max pooling when `max`, average pooling otherwise.
    Pool {
        kernel: usize,
        stride: usize,
        max: bool,
    },
    GlobalAvgPool,
    McDropout {
        rate: f64,
        rng: Xoshiro256StarStar,
    },
    /// Residual merge `relu(main + shortcut)`: the step's source is the main
    /// path's output, `shortcut` the slot holding the shortcut's.
    Merge {
        shortcut: usize,
    },
}

#[derive(Debug, Clone)]
struct Step {
    kind: StepKind,
    /// Arena slot read. An element-wise step whose `dst` differs copies
    /// `src` over first, then runs in place on `dst`.
    src: usize,
    dst: usize,
    /// Per-sample input dims (batch axis stripped).
    in_dims: Vec<usize>,
}

impl Step {
    fn elementwise(kind: &StepKind) -> bool {
        matches!(
            kind,
            StepKind::Relu
                | StepKind::BatchNorm(_)
                | StepKind::McDropout { .. }
                | StepKind::Merge { .. }
        )
    }
}

/// Kernel scratch shared by every step of a plan.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// im2col columns of the running convolution.
    cols: Vec<f32>,
    /// Matmul output of the running convolution or dense step.
    acc: Vec<f32>,
    /// Dropout mask staging of the running MC-dropout step.
    mask: Vec<f32>,
}

/// A compiled float inference plan for one lowered layer stack. Build with
/// [`InferencePlan::compile`]; run with [`InferencePlan::forward`]. See the
/// [module documentation](self).
#[derive(Debug, Clone)]
pub struct InferencePlan {
    steps: Vec<Step>,
    /// Per-sample element capacity of each arena slot; the input lands in
    /// slot 0.
    slot_elems: Vec<usize>,
    slots: Vec<Vec<f32>>,
    /// Slots the step being compiled must not overwrite: residual inputs
    /// until their main path has run, main-path outputs until their merge.
    /// Empty once compiled.
    pinned: Vec<usize>,
    /// Per-sample capacities of the shared scratch (largest step).
    cols_elems: usize,
    acc_elems: usize,
    mask_elems: usize,
    scratch: Scratch,
    out_slot: usize,
    in_dims: Vec<usize>,
    out_dims: Vec<usize>,
    /// Static per-sample op estimate of one full run (MACs for conv/dense,
    /// touched elements otherwise) — the float twin of the quant plan's
    /// integer-op counter, used for adaptive-execution accounting.
    unit_ops: u64,
}

impl InferencePlan {
    /// Compiles a plan for `layer` evaluating per-sample inputs of shape
    /// `in_dims` (batch axis stripped).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::UnsupportedLowering`] for layers without an
    /// inference lowering, or [`NnError::InvalidConfig`] on shape
    /// mismatches.
    pub fn compile(layer: &dyn crate::Layer, in_dims: &[usize]) -> Result<Self, NnError> {
        let lowering = layer.lowering()?;
        Self::compile_lowering(&lowering, in_dims)
    }

    /// [`InferencePlan::compile`] from an already-lowered graph.
    ///
    /// # Errors
    ///
    /// See [`InferencePlan::compile`].
    pub fn compile_lowering(lowering: &LayerLowering, in_dims: &[usize]) -> Result<Self, NnError> {
        let mut plan = InferencePlan {
            steps: Vec::new(),
            slot_elems: vec![in_dims.iter().product()],
            slots: Vec::new(),
            pinned: Vec::new(),
            cols_elems: 0,
            acc_elems: 0,
            mask_elems: 0,
            scratch: Scratch::default(),
            out_slot: 0,
            in_dims: in_dims.to_vec(),
            out_dims: in_dims.to_vec(),
            unit_ops: 0,
        };
        let mut cur_slot = 0usize;
        let mut cur_dims = in_dims.to_vec();
        plan.emit(lowering, &mut cur_slot, &mut cur_dims)?;
        plan.slots = vec![Vec::new(); plan.slot_elems.len()];
        plan.out_slot = cur_slot;
        plan.out_dims = cur_dims;
        Ok(plan)
    }

    fn push(
        &mut self,
        kind: StepKind,
        cur_slot: &mut usize,
        cur_dims: &mut Vec<usize>,
        out_dims: Vec<usize>,
    ) {
        let src = *cur_slot;
        let shortcut = match kind {
            StepKind::Merge { shortcut } => Some(shortcut),
            _ => None,
        };
        let writable = |slot: usize| !self.pinned.contains(&slot) && Some(slot) != shortcut;
        let dst = if Step::elementwise(&kind) && writable(src) {
            src
        } else {
            (0..)
                .find(|&slot| slot != src && writable(slot))
                .expect("an unbounded range has a free slot")
        };
        if dst == self.slot_elems.len() {
            self.slot_elems.push(0);
        }
        self.slot_elems[dst] = self.slot_elems[dst].max(out_dims.iter().product());
        self.unit_ops += step_unit_ops(&kind, cur_dims, &out_dims);
        self.steps.push(Step {
            kind,
            src,
            dst,
            in_dims: cur_dims.clone(),
        });
        *cur_slot = dst;
        *cur_dims = out_dims;
    }

    fn emit(
        &mut self,
        lowering: &LayerLowering,
        cur_slot: &mut usize,
        cur_dims: &mut Vec<usize>,
    ) -> Result<(), NnError> {
        match lowering {
            LayerLowering::Sequence(children) => {
                for child in children {
                    self.emit(child, cur_slot, cur_dims)?;
                }
            }
            LayerLowering::Conv2d {
                weight,
                bias,
                stride,
                padding,
            } => {
                let dims = weight.dims();
                let (out_c, in_c, kernel) = (dims[0], dims[1], dims[2]);
                if cur_dims.len() != 3 || cur_dims[0] != in_c {
                    return Err(NnError::InvalidConfig(format!(
                        "conv plan expects per-sample [{in_c}, h, w], got {cur_dims:?}"
                    )));
                }
                let geom =
                    ConvGeometry::square(cur_dims[1], cur_dims[2], kernel, *stride, *padding);
                let plane = geom.out_h() * geom.out_w();
                self.cols_elems = self.cols_elems.max(in_c * kernel * kernel * plane);
                self.acc_elems = self.acc_elems.max(out_c * plane);
                let out_dims = vec![out_c, geom.out_h(), geom.out_w()];
                self.push(
                    StepKind::Conv(Box::new(PlanConv {
                        w2d: weight.as_slice().to_vec(),
                        bias: bias.as_slice().to_vec(),
                        out_c,
                        in_c,
                        kernel,
                        stride: *stride,
                        padding: *padding,
                    })),
                    cur_slot,
                    cur_dims,
                    out_dims,
                );
            }
            LayerLowering::Dense { weight, bias } => {
                let dims = weight.dims();
                let (in_f, out_f) = (dims[0], dims[1]);
                if cur_dims.len() != 1 || cur_dims[0] != in_f {
                    return Err(NnError::InvalidConfig(format!(
                        "dense plan expects per-sample [{in_f}], got {cur_dims:?}"
                    )));
                }
                self.acc_elems = self.acc_elems.max(out_f);
                self.push(
                    StepKind::Dense(Box::new(PlanDense {
                        w: weight.as_slice().to_vec(),
                        bias: bias.as_slice().to_vec(),
                        in_f,
                        out_f,
                    })),
                    cur_slot,
                    cur_dims,
                    vec![out_f],
                );
            }
            LayerLowering::Affine(bn) => {
                if cur_dims.len() != 3 || cur_dims[0] != bn.gamma.len() {
                    return Err(NnError::InvalidConfig(format!(
                        "batchnorm plan expects per-sample [{}, h, w], got {cur_dims:?}",
                        bn.gamma.len()
                    )));
                }
                let out = cur_dims.clone();
                let kind = StepKind::BatchNorm(Box::new(bn.clone()));
                self.push(kind, cur_slot, cur_dims, out);
            }
            LayerLowering::Relu => {
                let out = cur_dims.clone();
                self.push(StepKind::Relu, cur_slot, cur_dims, out);
            }
            LayerLowering::MaxPool2d { kernel, stride }
            | LayerLowering::AvgPool2d { kernel, stride } => {
                if cur_dims.len() != 3 {
                    return Err(NnError::InvalidConfig(format!(
                        "pool plan expects per-sample [c, h, w], got {cur_dims:?}"
                    )));
                }
                let geom = ConvGeometry::square(cur_dims[1], cur_dims[2], *kernel, *stride, 0);
                let out_dims = vec![cur_dims[0], geom.out_h(), geom.out_w()];
                let kind = StepKind::Pool {
                    kernel: *kernel,
                    stride: *stride,
                    max: matches!(lowering, LayerLowering::MaxPool2d { .. }),
                };
                self.push(kind, cur_slot, cur_dims, out_dims);
            }
            LayerLowering::GlobalAvgPool2d => {
                if cur_dims.len() != 3 {
                    return Err(NnError::InvalidConfig(format!(
                        "global pool plan expects per-sample [c, h, w], got {cur_dims:?}"
                    )));
                }
                let out_dims = vec![cur_dims[0]];
                self.push(StepKind::GlobalAvgPool, cur_slot, cur_dims, out_dims);
            }
            LayerLowering::Flatten => {
                // Shape-only: reinterpret the current slot.
                *cur_dims = vec![cur_dims.iter().product()];
            }
            LayerLowering::Identity => {}
            LayerLowering::McDropout { rate } => {
                let elems: usize = cur_dims.iter().product();
                self.mask_elems = self.mask_elems.max(elems);
                let out = cur_dims.clone();
                self.push(
                    StepKind::McDropout {
                        rate: *rate,
                        rng: Xoshiro256StarStar::seed_from_u64(0),
                    },
                    cur_slot,
                    cur_dims,
                    out,
                );
            }
            LayerLowering::Residual { main, shortcut } => {
                let (input, input_dims) = (*cur_slot, cur_dims.clone());
                self.pinned.push(input);
                for child in main {
                    self.emit(child, cur_slot, cur_dims)?;
                }
                let (main_slot, main_dims) = (*cur_slot, std::mem::replace(cur_dims, input_dims));
                *self.pinned.last_mut().expect("pushed above") = main_slot;
                *cur_slot = input;
                for child in shortcut {
                    self.emit(child, cur_slot, cur_dims)?;
                }
                self.pinned.pop();
                if *cur_dims != main_dims {
                    return Err(NnError::InvalidConfig(format!(
                        "residual main path yields {main_dims:?}, shortcut {cur_dims:?}"
                    )));
                }
                let shortcut = *cur_slot;
                *cur_slot = main_slot;
                self.push(StepKind::Merge { shortcut }, cur_slot, cur_dims, main_dims);
            }
        }
        Ok(())
    }

    /// Per-sample input dims (batch axis stripped).
    pub fn in_dims(&self) -> &[usize] {
        &self.in_dims
    }

    /// Per-sample output dims (batch axis stripped).
    pub fn out_dims(&self) -> &[usize] {
        &self.out_dims
    }

    /// Number of flattened steps.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Static per-sample op estimate of one full run: multiply-accumulates
    /// for convolution/dense steps, touched output elements for the rest.
    /// Multiply by the batch to price a batched invocation.
    pub fn unit_ops(&self) -> u64 {
        self.unit_ops
    }

    /// Reseeds every MC-dropout stream from `streams` in step order — the
    /// same stream assignment as
    /// [`Layer::reseed_mc_streams`](crate::Layer::reseed_mc_streams) on the
    /// layer stack this plan was compiled from.
    pub fn reseed_mc(&mut self, streams: &mut SplitMix64) {
        for step in &mut self.steps {
            if let StepKind::McDropout { rng, .. } = &mut step.kind {
                *rng = Xoshiro256StarStar::seed_from_u64(streams.next_u64());
            }
        }
    }

    /// Pre-sizes the arena for `max_batch` samples so later runs with any
    /// batch up to `max_batch` resize nothing. Monotone: never shrinks.
    pub fn ensure_batch(&mut self, max_batch: usize) {
        let batch = max_batch.max(1);
        let grow = |buf: &mut Vec<f32>, unit: usize| {
            if buf.len() < unit * batch {
                buf.resize(unit * batch, 0.0);
            }
        };
        for (slot, &unit) in self.slots.iter_mut().zip(&self.slot_elems) {
            grow(slot, unit);
        }
        grow(&mut self.scratch.mask, self.mask_elems);
        // Each conv/dense step resizes cols/acc to its own size within this
        // capacity.
        for (buf, unit) in [
            (&mut self.scratch.cols, self.cols_elems),
            (&mut self.scratch.acc, self.acc_elems),
        ] {
            buf.reserve_exact((unit * batch).saturating_sub(buf.len()));
        }
    }

    /// Runs the plan on a batched input, bit-identical to folding the
    /// original layers with [`Layer::forward`](crate::Layer::forward).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the input shape does not match
    /// the compiled per-sample dims, or propagates kernel errors.
    pub fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError> {
        if input.dims().len() != self.in_dims.len() + 1 || input.dims()[1..] != self.in_dims[..] {
            return Err(NnError::InvalidConfig(format!(
                "plan expects input dims [batch, {:?}], got {:?}",
                self.in_dims,
                input.dims()
            )));
        }
        let batch = input.dims()[0];
        let out = self.run(input.as_slice(), batch, mode, false)?.to_vec();
        let mut dims = Vec::with_capacity(self.out_dims.len() + 1);
        dims.push(batch);
        dims.extend_from_slice(&self.out_dims);
        Ok(Tensor::from_vec(out, &dims)?)
    }

    /// Runs the plan on `batch` packed per-sample input rows, returning the
    /// `batch` output rows in the arena — the allocation-free core of
    /// [`InferencePlan::forward`], which calls it with `shared_mask ==
    /// false`. The rows stay readable through [`InferencePlan::output`]
    /// until the next run.
    ///
    /// With `shared_mask`, MC-dropout masks are drawn at **per-sample**
    /// granularity and broadcast across the batch: one sample's worth of
    /// mask draws per step, applied to every sample. Every other kernel
    /// already computes each output element from one sample alone, so under
    /// shared masks a batched run is bit-exact with running the samples one
    /// at a time — the batch-boundary invariance the serving layer relies
    /// on. For `batch == 1` (and in [`Mode::Eval`] at any batch) both mask
    /// modes give the same result.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if `input` does not hold `batch`
    /// samples, or propagates kernel errors.
    pub fn run(
        &mut self,
        input: &[f32],
        batch: usize,
        mode: Mode,
        shared_mask: bool,
    ) -> Result<&[f32], NnError> {
        let in_elems = self.in_dims.iter().product::<usize>() * batch;
        if input.len() != in_elems {
            return Err(NnError::InvalidConfig(format!(
                "plan expects {batch} input rows of dims {:?}, got {} elements",
                self.in_dims,
                input.len()
            )));
        }
        self.ensure_batch(batch);
        self.slots[0][..in_elems].copy_from_slice(input);
        for step in &mut self.steps {
            run_step(
                step,
                &mut self.slots,
                &mut self.scratch,
                batch,
                mode,
                shared_mask,
            )?;
        }
        Ok(self.output(batch))
    }

    /// The first `batch` output rows of the last run.
    pub fn output(&self, batch: usize) -> &[f32] {
        &self.slots[self.out_slot][..self.out_dims.iter().product::<usize>() * batch]
    }

    /// [`InferencePlan::output`], writable: callers may reorder rows in
    /// place (adaptive execution compacts surviving rows this way).
    pub fn output_mut(&mut self, batch: usize) -> &mut [f32] {
        let elems = self.out_dims.iter().product::<usize>() * batch;
        &mut self.slots[self.out_slot][..elems]
    }
}

/// Per-sample op estimate of one step — MACs for conv/dense, touched output
/// (or input, for reductions) elements otherwise. Mirrors the quant plan's
/// integer step accounting so the two plan families price work the same way.
fn step_unit_ops(kind: &StepKind, in_dims: &[usize], out_dims: &[usize]) -> u64 {
    let in_elems: usize = in_dims.iter().product();
    let out_elems: usize = out_dims.iter().product();
    match kind {
        StepKind::Conv(conv) => (conv.in_c * conv.kernel * conv.kernel * out_elems) as u64,
        StepKind::Dense(dense) => (dense.in_f * dense.out_f) as u64,
        StepKind::Pool { kernel, .. } => (kernel * kernel * out_elems) as u64,
        StepKind::GlobalAvgPool => in_elems as u64,
        StepKind::Relu | StepKind::BatchNorm(_) | StepKind::McDropout { .. } => out_elems as u64,
        StepKind::Merge { .. } => 2 * out_elems as u64,
    }
}

/// Borrows the source and destination slots (distinct indices).
fn src_dst(slots: &mut [Vec<f32>], src: usize, dst: usize) -> (&[f32], &mut [f32]) {
    debug_assert_ne!(src, dst);
    if src < dst {
        let (head, tail) = slots.split_at_mut(dst);
        (&head[src], &mut tail[0])
    } else {
        let (head, tail) = slots.split_at_mut(src);
        (&tail[0], &mut head[dst])
    }
}

fn run_step(
    step: &mut Step,
    slots: &mut [Vec<f32>],
    scratch: &mut Scratch,
    batch: usize,
    mode: Mode,
    shared_mask: bool,
) -> Result<(), NnError> {
    let in_elems = step.in_dims.iter().product::<usize>() * batch;
    if Step::elementwise(&step.kind) && step.src != step.dst {
        let (src, dst) = src_dst(slots, step.src, step.dst);
        dst[..in_elems].copy_from_slice(&src[..in_elems]);
    }
    match &mut step.kind {
        StepKind::Conv(conv) => {
            let (h, w) = (step.in_dims[1], step.in_dims[2]);
            let geom = ConvGeometry::square(h, w, conv.kernel, conv.stride, conv.padding);
            let plane = geom.out_h() * geom.out_w();
            let (src, dst) = src_dst(slots, step.src, step.dst);
            // The kernels take exact-length buffers; resizing the shared
            // scratch within the capacity `ensure_batch` reserved is free.
            let taps = conv.in_c * conv.kernel * conv.kernel;
            scratch.cols.resize(taps * batch * plane, 0.0);
            scratch.acc.resize(conv.out_c * batch * plane, 0.0);
            let (rows, cols) =
                im2col_slices_into(&src[..in_elems], batch, conv.in_c, &geom, &mut scratch.cols)?;
            matmul_slices_into(
                &conv.w2d,
                &scratch.cols,
                conv.out_c,
                rows,
                cols,
                &mut scratch.acc,
            )?;
            // Reorder [out_c, b*oh*ow] -> [b, out_c, oh, ow] adding bias —
            // exactly the loop of `Conv2d::forward`.
            if batch * plane > 0 {
                for (co, src_chan) in scratch.acc.chunks_exact(batch * plane).enumerate() {
                    let bias_v = conv.bias[co];
                    for (b, src_row) in src_chan.chunks_exact(plane).enumerate() {
                        let start = (b * conv.out_c + co) * plane;
                        for (d, s) in dst[start..start + plane].iter_mut().zip(src_row) {
                            *d = s + bias_v;
                        }
                    }
                }
            }
        }
        StepKind::Dense(dense) => {
            let (src, dst) = src_dst(slots, step.src, step.dst);
            scratch.acc.resize(batch * dense.out_f, 0.0);
            matmul_slices_into(
                &src[..in_elems],
                &dense.w,
                batch,
                dense.in_f,
                dense.out_f,
                &mut scratch.acc,
            )?;
            for b in 0..batch {
                let row = &scratch.acc[b * dense.out_f..(b + 1) * dense.out_f];
                let out_row = &mut dst[b * dense.out_f..(b + 1) * dense.out_f];
                for ((o, &a), &bv) in out_row.iter_mut().zip(row).zip(&dense.bias) {
                    *o = a + bv;
                }
            }
        }
        StepKind::BatchNorm(bn) => {
            // The eval arithmetic of `BatchNorm2d::forward`, unfolded.
            let (c, plane) = (step.in_dims[0], step.in_dims[1] * step.in_dims[2]);
            for (i, chan) in slots[step.dst][..in_elems]
                .chunks_exact_mut(plane.max(1))
                .enumerate()
            {
                let ch = i % c;
                let (gamma, beta, mean) = (bn.gamma[ch], bn.beta[ch], bn.mean[ch]);
                let std_inv = 1.0 / bn.std[ch];
                for v in chan {
                    *v = gamma * ((*v - mean) * std_inv) + beta;
                }
            }
        }
        StepKind::Relu => {
            // The exact comparison of the Relu layer (`x > 0.0`), in place.
            for v in slots[step.dst][..in_elems].iter_mut() {
                *v = if *v > 0.0 { *v } else { 0.0 };
            }
        }
        StepKind::Merge { shortcut } => {
            // `main + shortcut`, then the block's `v > 0.0` ReLU.
            let (short, dst) = src_dst(slots, *shortcut, step.dst);
            for (d, &s) in dst[..in_elems].iter_mut().zip(&short[..in_elems]) {
                let v = *d + s;
                *d = if v > 0.0 { v } else { 0.0 };
            }
        }
        StepKind::Pool {
            kernel,
            stride,
            max,
        } => {
            let (kernel, stride, max) = (*kernel, *stride, *max);
            let (c, h, w) = (step.in_dims[0], step.in_dims[1], step.in_dims[2]);
            let geom = ConvGeometry::square(h, w, kernel, stride, 0);
            let (oh, ow) = (geom.out_h(), geom.out_w());
            let norm = 1.0 / (kernel * kernel) as f32;
            let (src, dst) = src_dst(slots, step.src, step.dst);
            let src = &src[..in_elems];
            // The loops of `MaxPool2d::forward` / `AvgPool2d::forward`.
            for b in 0..batch {
                for ch in 0..c {
                    for y in 0..oh {
                        for x in 0..ow {
                            let mut acc = if max { f32::NEG_INFINITY } else { 0.0 };
                            for ky in 0..kernel {
                                for kx in 0..kernel {
                                    let iy = y * stride + ky;
                                    let ix = x * stride + kx;
                                    if iy < h && ix < w {
                                        let v = src[((b * c + ch) * h + iy) * w + ix];
                                        if !max {
                                            acc += v;
                                        } else if v > acc {
                                            acc = v;
                                        }
                                    }
                                }
                            }
                            dst[((b * c + ch) * oh + y) * ow + x] =
                                if max { acc } else { acc * norm };
                        }
                    }
                }
            }
        }
        StepKind::GlobalAvgPool => {
            let (c, h, w) = (step.in_dims[0], step.in_dims[1], step.in_dims[2]);
            let plane = (h * w) as f32;
            let (src, dst) = src_dst(slots, step.src, step.dst);
            let src = &src[..in_elems];
            for b in 0..batch {
                for ch in 0..c {
                    let start = (b * c + ch) * h * w;
                    dst[b * c + ch] = src[start..start + h * w].iter().sum::<f32>() / plane;
                }
            }
        }
        StepKind::McDropout { rate, rng } => {
            if !mode.samples_mc_dropout() || *rate == 0.0 {
                // Identity in Eval (the layer returns its input unchanged);
                // streams advance nothing.
                return Ok(());
            }
            let keep = 1.0 - *rate;
            let scale = (1.0 / keep) as f32;
            let (buf, mask) = (&mut slots[step.dst][..in_elems], &mut scratch.mask);
            // Draw the mask exactly like `McDropout::sample_mask`:
            // filter-wise for NCHW (rank-3 per-sample dims), element-wise
            // otherwise — then multiply element by element. Shared-mask mode
            // draws one sample's worth and tiles it across the batch
            // (`% draws`); for batch 1 the two modes are identical.
            if step.in_dims.len() == 3 {
                let c = step.in_dims[0];
                let plane = step.in_dims[1] * step.in_dims[2];
                let draws = if shared_mask { c } else { batch * c };
                for m in mask[..draws].iter_mut() {
                    *m = if rng.bernoulli(keep) { scale } else { 0.0 };
                }
                for (i, v) in buf.iter_mut().enumerate() {
                    *v *= mask[(i / plane) % draws];
                }
            } else {
                let draws = if shared_mask {
                    in_elems / batch
                } else {
                    in_elems
                };
                for m in mask[..draws].iter_mut() {
                    *m = if rng.bernoulli(keep) { scale } else { 0.0 };
                }
                for (i, v) in buf.iter_mut().enumerate() {
                    *v *= mask[i % draws];
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::activation::Relu;
    use crate::layers::batchnorm::BatchNorm2d;
    use crate::layers::conv2d::Conv2d;
    use crate::layers::dense::Dense;
    use crate::layers::dropout::{Dropout, McDropout};
    use crate::layers::flatten::Flatten;
    use crate::layers::pool::{AvgPool2d, GlobalAvgPool2d, MaxPool2d};
    use crate::sequential::Sequential;
    use crate::Layer;

    fn stack() -> Sequential {
        let mut net = Sequential::new("s");
        net.push(Conv2d::new(2, 4, 3, 1, 1, 1).unwrap());
        net.push(Relu::new());
        net.push(MaxPool2d::new(2, 2).unwrap());
        net.push(Conv2d::new(4, 4, 3, 1, 1, 2).unwrap());
        net.push(AvgPool2d::new(2, 2).unwrap());
        net.push(Flatten::new());
        net.push(Dropout::new(0.5, 3).unwrap());
        net.push(Dense::new(4 * 2 * 2, 6, 4).unwrap());
        net.push(McDropout::new(0.25, 5).unwrap());
        net.push(Dense::new(6, 3, 6).unwrap());
        net
    }

    #[test]
    fn plan_matches_layer_chain_bitwise_in_eval() {
        let mut net = stack();
        let mut plan = InferencePlan::compile(&net, &[2, 8, 8]).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let x = Tensor::randn(&[3, 2, 8, 8], &mut rng);
        let reference = net.forward(&x, Mode::Eval).unwrap();
        let planned = plan.forward(&x, Mode::Eval).unwrap();
        assert_eq!(reference.dims(), planned.dims());
        assert_eq!(reference.as_slice(), planned.as_slice());
        // steady state: a second run gives the same bits again
        let again = plan.forward(&x, Mode::Eval).unwrap();
        assert_eq!(planned.as_slice(), again.as_slice());
    }

    #[test]
    fn plan_matches_layer_chain_bitwise_in_mc_sample() {
        let mut net = stack();
        let mut plan = InferencePlan::compile(&net, &[2, 8, 8]).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let x = Tensor::randn(&[2, 2, 8, 8], &mut rng);
        for seed in [1u64, 42, 99] {
            let mut streams = SplitMix64::new(seed);
            Layer::reseed_mc_streams(&mut net, &mut streams);
            let mut streams = SplitMix64::new(seed);
            plan.reseed_mc(&mut streams);
            let reference = net.forward(&x, Mode::McSample).unwrap();
            let planned = plan.forward(&x, Mode::McSample).unwrap();
            assert_eq!(reference.as_slice(), planned.as_slice(), "seed {seed}");
        }
    }

    #[test]
    fn filterwise_mask_plan_matches_layer() {
        // MC dropout over NCHW draws per (batch, channel); the plan must
        // reproduce the draw order exactly.
        let mut net = Sequential::new("mcd");
        net.push(Conv2d::new(1, 8, 3, 1, 1, 1).unwrap());
        net.push(McDropout::new(0.5, 2).unwrap());
        let mut plan = InferencePlan::compile(&net, &[1, 6, 6]).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let x = Tensor::randn(&[4, 1, 6, 6], &mut rng);
        let mut streams = SplitMix64::new(11);
        Layer::reseed_mc_streams(&mut net, &mut streams);
        let mut streams = SplitMix64::new(11);
        plan.reseed_mc(&mut streams);
        let reference = net.forward(&x, Mode::McSample).unwrap();
        let planned = plan.forward(&x, Mode::McSample).unwrap();
        assert_eq!(reference.as_slice(), planned.as_slice());
    }

    #[test]
    fn global_avg_pool_plans() {
        let mut net = Sequential::new("gap");
        net.push(GlobalAvgPool2d::new());
        net.push(Dense::new(3, 2, 1).unwrap());
        let mut plan = InferencePlan::compile(&net, &[3, 5, 5]).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let x = Tensor::randn(&[2, 3, 5, 5], &mut rng);
        let reference = net.forward(&x, Mode::Eval).unwrap();
        let planned = plan.forward(&x, Mode::Eval).unwrap();
        assert_eq!(reference.as_slice(), planned.as_slice());
    }

    #[test]
    fn batchnorm_plan_matches_layer_chain_bitwise() {
        let mut net = Sequential::new("bn");
        net.push(Conv2d::new(2, 4, 3, 1, 1, 1).unwrap());
        net.push(BatchNorm2d::new(4).unwrap());
        net.push(Relu::new());
        net.push(McDropout::new(0.5, 2).unwrap());
        net.push(BatchNorm2d::new(4).unwrap());
        let mut rng = Xoshiro256StarStar::seed_from_u64(13);
        // A few training forwards move the running statistics off their
        // defaults (mean 0, var 1).
        for _ in 0..3 {
            let x = Tensor::randn(&[4, 2, 6, 6], &mut rng).map(|v| 2.0 * v + 1.5);
            net.forward(&x, Mode::Train).unwrap();
        }
        let x = Tensor::randn(&[3, 2, 6, 6], &mut rng);
        let mut plan = InferencePlan::compile(&net, &[2, 6, 6]).unwrap();
        let reference = net.forward(&x, Mode::Eval).unwrap();
        let planned = plan.forward(&x, Mode::Eval).unwrap();
        assert_eq!(reference.as_slice(), planned.as_slice());
        for seed in [5u64, 6] {
            Layer::reseed_mc_streams(&mut net, &mut SplitMix64::new(seed));
            plan.reseed_mc(&mut SplitMix64::new(seed));
            let reference = net.forward(&x, Mode::McSample).unwrap();
            let planned = plan.forward(&x, Mode::McSample).unwrap();
            assert_eq!(reference.as_slice(), planned.as_slice(), "seed {seed}");
        }
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let mut net = Sequential::new("d");
        net.push(Dense::new(4, 2, 0).unwrap());
        assert!(InferencePlan::compile(&net, &[5]).is_err());
        let mut plan = InferencePlan::compile(&net, &[4]).unwrap();
        assert!(plan.forward(&Tensor::ones(&[2, 5]), Mode::Eval).is_err());
    }
}
