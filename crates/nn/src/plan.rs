//! Compiled float inference plans: allocate-once/run-many execution of a
//! lowered layer stack.
//!
//! [`InferencePlan::compile`] flattens a [`LayerLowering`] tree into a linear
//! step list with a two-slot ping-pong arena (element-wise steps run in
//! place) and per-step kernel scratch. Executing the plan reproduces the
//! layer-by-layer [`Layer::forward`](crate::Layer::forward) chain **bit for
//! bit** — each step runs exactly the kernels and loops of its layer, and
//! MC-dropout steps draw from the same reseedable streams in the same order —
//! while performing no per-layer allocation in the steady state. This is
//! what lets the Monte-Carlo sampler re-run exit branches hundreds of times
//! per prediction without touching the allocator or rebuilding model
//! replicas.
//!
//! Only inference-static layers are plannable: convolution, dense, ReLU,
//! pooling, flatten, identity and MC dropout. Batch normalisation
//! ([`LayerLowering::Affine`]) and residual blocks are rejected — their
//! eval-time arithmetic is not bit-reproducible from the folded lowering —
//! and callers fall back to the unplanned layer chain (the Bayesian sampler
//! does this automatically).

use crate::layer::Mode;
use crate::lowering::LayerLowering;
use crate::NnError;
use bnn_tensor::linalg::{im2col_slices_into, matmul_slices_into, ConvGeometry};
use bnn_tensor::rng::{Rng, SplitMix64, Xoshiro256StarStar};
use bnn_tensor::Tensor;

/// A packed convolution step with its private kernel scratch.
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
    /// im2col column scratch, reused across runs.
    cols: Vec<f32>,
    /// Matmul output scratch (`[out_c, batch * plane]`), reused across runs.
    acc: Vec<f32>,
}

/// A dense step with its matmul scratch.
#[derive(Debug, Clone)]
struct PlanDense {
    /// Weights `[in_f, out_f]` row-major (the layer's own layout).
    w: Vec<f32>,
    bias: Vec<f32>,
    in_f: usize,
    out_f: usize,
    acc: Vec<f32>,
}

#[derive(Debug, Clone)]
enum StepKind {
    Conv(Box<PlanConv>),
    Dense(Box<PlanDense>),
    Relu,
    MaxPool { kernel: usize, stride: usize },
    AvgPool { kernel: usize, stride: usize },
    GlobalAvgPool,
    McDropout { rate: f64, rng: Xoshiro256StarStar },
}

#[derive(Debug, Clone)]
struct Step {
    kind: StepKind,
    /// Arena slot read (0 or 1; element-wise steps have `dst == src`).
    src: usize,
    dst: usize,
    /// Per-sample input dims (batch axis stripped).
    in_dims: Vec<usize>,
}

impl Step {
    fn elementwise(kind: &StepKind) -> bool {
        matches!(kind, StepKind::Relu | StepKind::McDropout { .. })
    }
}

/// A compiled float inference plan for one lowered layer stack. Build with
/// [`InferencePlan::compile`]; run with [`InferencePlan::forward`]. See the
/// [module documentation](self).
#[derive(Debug, Clone)]
pub struct InferencePlan {
    steps: Vec<Step>,
    /// Per-sample element capacity of the two ping-pong slots.
    slot_elems: [usize; 2],
    slots: [Vec<f32>; 2],
    /// Per-element dropout mask staging (largest MC-dropout step).
    mask_elems: usize,
    mask: Vec<f32>,
    input_slot: usize,
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
    /// inference lowering or whose lowering is not bit-reproducible from a
    /// flat plan (batch normalisation, residual blocks), or
    /// [`NnError::InvalidConfig`] on shape mismatches.
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
            slot_elems: [in_dims.iter().product(), 0],
            slots: [Vec::new(), Vec::new()],
            mask_elems: 0,
            mask: Vec::new(),
            input_slot: 0,
            out_slot: 0,
            in_dims: in_dims.to_vec(),
            out_dims: in_dims.to_vec(),
            unit_ops: 0,
        };
        let mut cur_slot = 0usize;
        let mut cur_dims = in_dims.to_vec();
        plan.emit(lowering, &mut cur_slot, &mut cur_dims)?;
        plan.out_slot = cur_slot;
        plan.out_dims = cur_dims;
        Ok(plan)
    }

    fn unsupported(what: &str) -> NnError {
        NnError::UnsupportedLowering {
            layer: format!("{what} (no bit-reproducible flat plan; use the layer chain)"),
        }
    }

    fn push(
        &mut self,
        kind: StepKind,
        cur_slot: &mut usize,
        cur_dims: &mut Vec<usize>,
        out_dims: Vec<usize>,
    ) {
        let src = *cur_slot;
        let dst = if Step::elementwise(&kind) {
            src
        } else {
            1 - src
        };
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
                        cols: Vec::new(),
                        acc: Vec::new(),
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
                self.push(
                    StepKind::Dense(Box::new(PlanDense {
                        w: weight.as_slice().to_vec(),
                        bias: bias.as_slice().to_vec(),
                        in_f,
                        out_f,
                        acc: Vec::new(),
                    })),
                    cur_slot,
                    cur_dims,
                    vec![out_f],
                );
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
                let kind = if matches!(lowering, LayerLowering::MaxPool2d { .. }) {
                    StepKind::MaxPool {
                        kernel: *kernel,
                        stride: *stride,
                    }
                } else {
                    StepKind::AvgPool {
                        kernel: *kernel,
                        stride: *stride,
                    }
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
            LayerLowering::Affine { .. } => {
                return Err(Self::unsupported("batchnorm2d"));
            }
            LayerLowering::Residual { .. } => {
                return Err(Self::unsupported("residual_block"));
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

    fn ensure(&mut self, batch: usize) {
        for (slot, &unit) in self.slots.iter_mut().zip(&self.slot_elems) {
            let need = unit * batch;
            if slot.len() < need {
                slot.resize(need, 0.0);
            }
        }
        if self.mask.len() < self.mask_elems * batch {
            self.mask.resize(self.mask_elems * batch, 0.0);
        }
    }

    /// Pre-sizes the arena for `max_batch` samples so later runs with any
    /// batch up to `max_batch` resize nothing. Monotone: never shrinks.
    pub fn ensure_batch(&mut self, max_batch: usize) {
        self.ensure(max_batch.max(1));
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
        self.ensure(batch);
        self.slots[self.input_slot][..in_elems].copy_from_slice(input);
        for step in &mut self.steps {
            run_step(
                step,
                &mut self.slots,
                &mut self.mask,
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
        StepKind::MaxPool { kernel, .. } | StepKind::AvgPool { kernel, .. } => {
            (kernel * kernel * out_elems) as u64
        }
        StepKind::GlobalAvgPool => in_elems as u64,
        StepKind::Relu | StepKind::McDropout { .. } => out_elems as u64,
    }
}

/// Borrows the source and destination slots (distinct indices) mutably.
fn two_slots(slots: &mut [Vec<f32>; 2], src: usize, dst: usize) -> (&[f32], &mut Vec<f32>) {
    debug_assert_ne!(src, dst);
    let (a, b) = slots.split_at_mut(1);
    if src == 0 {
        (&a[0], &mut b[0])
    } else {
        (&b[0], &mut a[0])
    }
}

fn run_step(
    step: &mut Step,
    slots: &mut [Vec<f32>; 2],
    mask: &mut [f32],
    batch: usize,
    mode: Mode,
    shared_mask: bool,
) -> Result<(), NnError> {
    let in_elems = step.in_dims.iter().product::<usize>() * batch;
    match &mut step.kind {
        StepKind::Conv(conv) => {
            let (h, w) = (step.in_dims[1], step.in_dims[2]);
            let geom = ConvGeometry::square(h, w, conv.kernel, conv.stride, conv.padding);
            let (out_h, out_w) = (geom.out_h(), geom.out_w());
            let plane = out_h * out_w;
            let (src, dst) = two_slots(slots, step.src, step.dst);
            let (rows, cols) =
                im2col_slices_into(&src[..in_elems], batch, conv.in_c, &geom, &mut conv.cols)?;
            matmul_slices_into(&conv.w2d, &conv.cols, conv.out_c, rows, cols, &mut conv.acc)?;
            // Reorder [out_c, b*oh*ow] -> [b, out_c, oh, ow] adding bias —
            // exactly the loop of `Conv2d::forward`.
            if batch * plane > 0 {
                for (co, src_chan) in conv.acc.chunks_exact(batch * plane).enumerate() {
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
            let (src, dst) = two_slots(slots, step.src, step.dst);
            matmul_slices_into(
                &src[..in_elems],
                &dense.w,
                batch,
                dense.in_f,
                dense.out_f,
                &mut dense.acc,
            )?;
            for b in 0..batch {
                let row = &dense.acc[b * dense.out_f..(b + 1) * dense.out_f];
                let out_row = &mut dst[b * dense.out_f..(b + 1) * dense.out_f];
                for ((o, &a), &bv) in out_row.iter_mut().zip(row).zip(&dense.bias) {
                    *o = a + bv;
                }
            }
        }
        StepKind::Relu => {
            // The exact comparison of the Relu layer (`x > 0.0`), in place.
            for v in slots[step.dst][..in_elems].iter_mut() {
                *v = if *v > 0.0 { *v } else { 0.0 };
            }
        }
        StepKind::MaxPool { kernel, stride } => {
            let (kernel, stride) = (*kernel, *stride);
            let (c, h, w) = (step.in_dims[0], step.in_dims[1], step.in_dims[2]);
            let geom = ConvGeometry::square(h, w, kernel, stride, 0);
            let (oh, ow) = (geom.out_h(), geom.out_w());
            let (src, dst) = two_slots(slots, step.src, step.dst);
            let src = &src[..in_elems];
            for b in 0..batch {
                for ch in 0..c {
                    for y in 0..oh {
                        for x in 0..ow {
                            let mut best = f32::NEG_INFINITY;
                            for ky in 0..kernel {
                                for kx in 0..kernel {
                                    let iy = y * stride + ky;
                                    let ix = x * stride + kx;
                                    if iy < h && ix < w {
                                        let v = src[((b * c + ch) * h + iy) * w + ix];
                                        if v > best {
                                            best = v;
                                        }
                                    }
                                }
                            }
                            dst[((b * c + ch) * oh + y) * ow + x] = best;
                        }
                    }
                }
            }
        }
        StepKind::AvgPool { kernel, stride } => {
            let (kernel, stride) = (*kernel, *stride);
            let (c, h, w) = (step.in_dims[0], step.in_dims[1], step.in_dims[2]);
            let geom = ConvGeometry::square(h, w, kernel, stride, 0);
            let (oh, ow) = (geom.out_h(), geom.out_w());
            let norm = 1.0 / (kernel * kernel) as f32;
            let (src, dst) = two_slots(slots, step.src, step.dst);
            let src = &src[..in_elems];
            for b in 0..batch {
                for ch in 0..c {
                    for y in 0..oh {
                        for x in 0..ow {
                            let mut acc = 0.0f32;
                            for ky in 0..kernel {
                                for kx in 0..kernel {
                                    let iy = y * stride + ky;
                                    let ix = x * stride + kx;
                                    if iy < h && ix < w {
                                        acc += src[((b * c + ch) * h + iy) * w + ix];
                                    }
                                }
                            }
                            dst[((b * c + ch) * oh + y) * ow + x] = acc * norm;
                        }
                    }
                }
            }
        }
        StepKind::GlobalAvgPool => {
            let (c, h, w) = (step.in_dims[0], step.in_dims[1], step.in_dims[2]);
            let plane = (h * w) as f32;
            let (src, dst) = two_slots(slots, step.src, step.dst);
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
            let buf = &mut slots[step.dst][..in_elems];
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
    fn batchnorm_is_not_plannable() {
        let mut net = Sequential::new("bn");
        net.push(BatchNorm2d::new(2).unwrap());
        let err = InferencePlan::compile(&net, &[2, 4, 4]).unwrap_err();
        assert!(err.to_string().contains("batchnorm"));
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
