//! The fake-quantized float reference of a calibrated network.
//!
//! [`FakeQuantNetwork`] evaluates in `f32` the graph a [`QuantPlan`]
//! executes in integers: the same calibrated per-tensor formats, weights and
//! biases dequantized from the same codes, the same 12-fractional-bit
//! batch-norm and dropout multipliers, and every scale-changing op snapping
//! its output back onto its format's grid. MC-dropout masks are drawn from
//! the same per-step streams, one draw per `(batch, channel)` — the
//! semantics of [`QuantPlan::forward_exits_int`].
//!
//! It is built by its own recursive walk over the [`CalibratedNetwork`]
//! record: it shares the per-format constant derivation with the plan
//! compiler, but none of its flattening, slot planning or weight packing.
//! Comparing the two therefore checks the plan's *compile* step, where
//! `bnn_hls::HlsSimulator` — which interprets the plan's own exported
//! schedule — checks its execution.
//!
//! Wherever `f32` arithmetic is exact (every format up to 8 bits on the
//! models in this workspace) the reference reproduces the plan bit for bit;
//! at 16 bits it stays within one quantization step of each exit's output
//! format. `tests/quantized_inference.rs` pins both bounds.
//!
//! [`QuantPlan`]: crate::QuantPlan
//! [`QuantPlan::forward_exits_int`]: crate::QuantPlan::forward_exits_int

use crate::calib::{
    affine_float, avg_pool_float, conv_float, dense_float, dropout_scale_q, global_avg_pool_float,
    max_pool_float, quantize_affine, quantize_weights, CalibratedNetwork, RecordCursor,
};
use crate::error::QuantError;
use crate::fixed::FixedPointFormat;
use crate::params::QuantParams;
use crate::schedule::MUL_FRAC;
use bnn_nn::layer::Mode;
use bnn_nn::lowering::LayerLowering;
use bnn_tensor::rng::{Rng, SplitMix64, Xoshiro256StarStar};
use bnn_tensor::Tensor;

/// One op of the reference graph, carrying dequantized constants only.
#[derive(Debug, Clone)]
enum Op {
    Conv {
        /// Dequantized weights `[out_c, in_c*k*k]`.
        weight: Tensor,
        bias: Vec<f32>,
        kernel: usize,
        stride: usize,
        padding: usize,
        out: QuantParams,
    },
    Dense {
        weight: Tensor,
        bias: Vec<f32>,
        out: QuantParams,
    },
    Relu,
    MaxPool {
        kernel: usize,
        stride: usize,
    },
    AvgPool {
        kernel: usize,
        stride: usize,
        params: QuantParams,
    },
    GlobalAvgPool {
        params: QuantParams,
    },
    Flatten,
    Affine {
        /// The effective (quantized) per-channel multipliers and offsets.
        m: Vec<f32>,
        b: Vec<f32>,
        out: QuantParams,
    },
    McDropout {
        rate: f64,
        /// The quantized inverted-dropout scale in value space.
        scale: f32,
        params: QuantParams,
        rng: Xoshiro256StarStar,
    },
    Residual {
        main: Vec<Op>,
        /// Empty means an identity skip connection.
        shortcut: Vec<Op>,
        out: QuantParams,
    },
}

/// The fake-quantized float reference of a [`CalibratedNetwork`] at one
/// format. Build one with [`CalibratedNetwork::fake_quant`]; see the
/// [module documentation](self) for what it is a reference for.
///
/// # Example
///
/// ```
/// use bnn_models::{zoo, ModelConfig};
/// use bnn_nn::layer::Mode;
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
/// let calibrated = CalibratedNetwork::calibrate(&trained, &calib)?;
///
/// // At 8 bits every f32 operation of the reference is exact, so it
/// // reproduces the compiled integer plan bit for bit.
/// let format = FixedPointFormat::new(8, 3)?;
/// let mut reference = calibrated.fake_quant(format)?;
/// let mut plan = calibrated.plan(format)?;
/// let x = Tensor::randn(&[2, 1, 12, 12], &mut rng);
/// let float = reference.forward_exits(&x, Mode::Eval)?;
/// let int = plan.forward_exits_int(&x, Mode::Eval)?;
/// assert_eq!(float.last().unwrap().as_slice(), int.last().unwrap().as_slice());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FakeQuantNetwork {
    in_params: QuantParams,
    blocks: Vec<Vec<Op>>,
    exits: Vec<(usize, Vec<Op>)>,
}

impl FakeQuantNetwork {
    /// Reseeds every MC-dropout stream from `master_seed`, walking blocks
    /// then exits (residual main paths before shortcuts) — the stream
    /// assignment of [`crate::QuantPlan::reseed_mc_streams`].
    pub fn reseed_mc_streams(&mut self, master_seed: u64) {
        let mut streams = SplitMix64::new(master_seed);
        for block in &mut self.blocks {
            reseed_ops(block, &mut streams);
        }
        for (_, exit) in &mut self.exits {
            reseed_ops(exit, &mut streams);
        }
    }

    /// Runs the backbone deterministically and the exit branches in `mode`,
    /// returning one logit tensor per exit (attachment order) — the float
    /// counterpart of [`crate::QuantPlan::forward_exits_int`]. In
    /// [`Mode::McSample`] every MC-dropout op draws a fresh mask from its
    /// stream.
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    pub fn forward_exits(&mut self, input: &Tensor, mode: Mode) -> Result<Vec<Tensor>, QuantError> {
        // Only the network input needs snapping: every op leaves its output
        // on the grid of the running format.
        let in_params = self.in_params;
        let mut current = input.map(|v| in_params.fake_quantize(v));
        let mut acts = Vec::with_capacity(self.blocks.len());
        for block in &mut self.blocks {
            current = run_ops(block, &current, Mode::Eval)?;
            acts.push(current.clone());
        }
        let mut outputs = Vec::with_capacity(self.exits.len());
        for (after_block, exit) in &mut self.exits {
            outputs.push(run_ops(exit, &acts[*after_block], mode)?);
        }
        Ok(outputs)
    }
}

impl CalibratedNetwork {
    /// Builds the fake-quantized float reference for one format from the
    /// stored records — no float calibration inference. See
    /// [`FakeQuantNetwork`].
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::Unsupported`] for formats wider than 16 bits,
    /// or [`QuantError::Internal`] on lowering/record skew.
    pub fn fake_quant(&self, format: FixedPointFormat) -> Result<FakeQuantNetwork, QuantError> {
        let total_bits = QuantParams::new(format)?.format().total_bits();
        let in_params = self.input.params(total_bits)?;
        let mut params = in_params;
        let mut blocks = Vec::with_capacity(self.blocks.len());
        let mut block_params = Vec::with_capacity(self.blocks.len());
        for (lowering, record) in &self.blocks {
            let mut cursor = RecordCursor::new(&record.ops);
            let mut ops = Vec::new();
            build(lowering, total_bits, &mut params, &mut cursor, &mut ops)?;
            cursor.finish()?;
            blocks.push(ops);
            block_params.push(params);
        }
        let mut exits = Vec::with_capacity(self.exits.len());
        for (after_block, lowering, record) in &self.exits {
            let mut cursor = RecordCursor::new(&record.ops);
            let mut exit_params = block_params[*after_block];
            let mut ops = Vec::new();
            build(
                lowering,
                total_bits,
                &mut exit_params,
                &mut cursor,
                &mut ops,
            )?;
            cursor.finish()?;
            exits.push((*after_block, ops));
        }
        Ok(FakeQuantNetwork {
            in_params,
            blocks,
            exits,
        })
    }
}

/// Appends the reference op(s) of `lowering` to `ops`, consuming calibration
/// records in walk order and advancing the running activation format.
fn build(
    lowering: &LayerLowering,
    total_bits: u32,
    params: &mut QuantParams,
    cursor: &mut RecordCursor<'_>,
    ops: &mut Vec<Op>,
) -> Result<(), QuantError> {
    match lowering {
        LayerLowering::Sequence(children) => {
            for child in children {
                build(child, total_bits, params, cursor, ops)?;
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
            ops.push(Op::Conv {
                weight: w.weight_values(&[out_c, in_c * kernel * kernel])?,
                bias: w.bias_values(),
                kernel,
                stride: *stride,
                padding: *padding,
                out,
            });
            *params = out;
        }
        LayerLowering::Dense { weight, bias } => {
            let record = cursor.take(lowering.name())?;
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
            ops.push(Op::Dense {
                weight: w.weight_values(weight.dims())?,
                bias: w.bias_values(),
                out,
            });
            *params = out;
        }
        LayerLowering::Relu => {
            cursor.take(lowering.name())?;
            ops.push(Op::Relu);
        }
        LayerLowering::MaxPool2d { kernel, stride } => {
            cursor.take(lowering.name())?;
            ops.push(Op::MaxPool {
                kernel: *kernel,
                stride: *stride,
            });
        }
        LayerLowering::AvgPool2d { kernel, stride } => {
            cursor.take(lowering.name())?;
            ops.push(Op::AvgPool {
                kernel: *kernel,
                stride: *stride,
                params: *params,
            });
        }
        LayerLowering::GlobalAvgPool2d => {
            cursor.take(lowering.name())?;
            ops.push(Op::GlobalAvgPool { params: *params });
        }
        LayerLowering::Flatten => {
            cursor.take(lowering.name())?;
            ops.push(Op::Flatten);
        }
        LayerLowering::Identity => {
            cursor.take(lowering.name())?;
        }
        LayerLowering::Affine(bn) => {
            let record = cursor.take(lowering.name())?;
            let (scale, shift) = bn.fold();
            let out = record
                .out
                .expect("affine records an output range")
                .params(total_bits)?;
            let aff = quantize_affine(&scale, &shift, *params, out);
            ops.push(Op::Affine {
                m: aff.m_values(*params, out),
                b: aff.b_values(out),
                out,
            });
            *params = out;
        }
        LayerLowering::McDropout { rate } => {
            cursor.take(lowering.name())?;
            ops.push(Op::McDropout {
                rate: *rate,
                scale: (dropout_scale_q(*rate) as f64 / 2f64.powi(MUL_FRAC as i32)) as f32,
                params: *params,
                rng: Xoshiro256StarStar::seed_from_u64(0),
            });
        }
        LayerLowering::Residual { main, shortcut } => {
            let in_params = *params;
            let mut main_ops = Vec::new();
            let mut main_params = in_params;
            for child in main {
                build(child, total_bits, &mut main_params, cursor, &mut main_ops)?;
            }
            let mut short_ops = Vec::new();
            let mut short_params = in_params;
            for child in shortcut {
                build(child, total_bits, &mut short_params, cursor, &mut short_ops)?;
            }
            let record = cursor.take(lowering.name())?;
            let out = record
                .out
                .expect("residual records an output range")
                .params(total_bits)?;
            ops.push(Op::Residual {
                main: main_ops,
                shortcut: short_ops,
                out,
            });
            *params = out;
        }
    }
    Ok(())
}

fn reseed_ops(ops: &mut [Op], streams: &mut SplitMix64) {
    for op in ops {
        match op {
            Op::McDropout { rng, .. } => {
                *rng = Xoshiro256StarStar::seed_from_u64(streams.next_u64());
            }
            Op::Residual { main, shortcut, .. } => {
                reseed_ops(main, streams);
                reseed_ops(shortcut, streams);
            }
            _ => {}
        }
    }
}

fn run_ops(ops: &mut [Op], input: &Tensor, mode: Mode) -> Result<Tensor, QuantError> {
    let mut current = input.clone();
    for op in ops {
        current = run_op(op, &current, mode)?;
    }
    Ok(current)
}

/// Evaluates one op in `f32`, snapping scale-changing results onto the
/// output format's grid.
fn run_op(op: &mut Op, input: &Tensor, mode: Mode) -> Result<Tensor, QuantError> {
    match op {
        Op::Conv {
            weight,
            bias,
            kernel,
            stride,
            padding,
            out,
        } => {
            let y = conv_float(input, weight, bias, *kernel, *stride, *padding)?;
            let out = *out;
            Ok(y.map(|v| out.fake_quantize(v)))
        }
        Op::Dense { weight, bias, out } => {
            let y = dense_float(input, weight, bias)?;
            let out = *out;
            Ok(y.map(|v| out.fake_quantize(v)))
        }
        Op::Relu => Ok(input.map(|v| v.max(0.0))),
        Op::MaxPool { kernel, stride } => max_pool_float(input, *kernel, *stride),
        Op::AvgPool {
            kernel,
            stride,
            params,
        } => avg_pool_float(input, *kernel, *stride, *params),
        Op::GlobalAvgPool { params } => global_avg_pool_float(input, *params),
        Op::Flatten => {
            let batch = input.dims()[0];
            let rest: usize = input.dims()[1..].iter().product();
            Ok(input.reshape(&[batch, rest])?)
        }
        Op::Affine { m, b, out } => {
            let y = affine_float(input, m, b, m.len())?;
            let out = *out;
            Ok(y.map(|v| out.fake_quantize(v)))
        }
        Op::McDropout {
            rate,
            scale,
            params,
            rng,
        } => {
            if !mode.samples_mc_dropout() || *rate == 0.0 {
                // A non-sampling pass draws nothing, so stream positions
                // stay aligned with the sampling passes.
                return Ok(input.clone());
            }
            // Filter-wise for NCHW (one draw per (batch, channel)),
            // element-wise otherwise — the draw order of the plan's
            // per-batch masks.
            let keep = 1.0 - *rate;
            let dims = input.dims();
            let (draws, plane) = if let [n, c, h, w] = dims {
                (n * c, h * w)
            } else {
                (input.len(), 1)
            };
            let mask: Vec<bool> = (0..draws).map(|_| rng.bernoulli(keep)).collect();
            let (scale, p) = (*scale, *params);
            let mut out = input.clone();
            for (i, v) in out.as_mut_slice().iter_mut().enumerate() {
                // Kept units use the quantized 1/keep multiplier and land
                // back on the activation grid (saturating).
                *v = if mask[i / plane] {
                    p.fake_quantize(*v * scale)
                } else {
                    0.0
                };
            }
            Ok(out)
        }
        Op::Residual {
            main,
            shortcut,
            out,
        } => {
            let main_out = run_ops(main, input, mode)?;
            let short_out = run_ops(shortcut, input, mode)?;
            let out = *out;
            let sum = main_out
                .map(|v| out.fake_quantize(v))
                .add(&short_out.map(|v| out.fake_quantize(v)))?;
            Ok(sum.map(|v| out.fake_quantize(v.max(0.0))))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnn_models::{zoo, ModelConfig};

    fn fmt(total: u32, int: u32) -> FixedPointFormat {
        FixedPointFormat::new(total, int).unwrap()
    }

    fn batch(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        Tensor::randn(dims, &mut rng)
    }

    fn calibrated(seed: u64) -> CalibratedNetwork {
        let net = zoo::lenet5(
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
        .unwrap();
        CalibratedNetwork::calibrate(&net, &batch(&[4, 1, 10, 10], seed + 1)).unwrap()
    }

    #[test]
    fn reseeding_replays_masks_and_eval_draws_none() {
        let mut reference = calibrated(1).fake_quant(fmt(8, 3)).unwrap();
        let x = batch(&[3, 1, 10, 10], 3);
        let eval = reference.forward_exits(&x, Mode::Eval).unwrap();
        reference.reseed_mc_streams(5);
        let a = reference.forward_exits(&x, Mode::McSample).unwrap();
        let b = reference.forward_exits(&x, Mode::McSample).unwrap();
        assert!(
            a.iter().zip(&b).any(|(x, y)| x.as_slice() != y.as_slice()),
            "fresh masks must differ"
        );
        reference.reseed_mc_streams(5);
        let again = reference.forward_exits(&x, Mode::McSample).unwrap();
        for (x, y) in a.iter().zip(&again) {
            assert_eq!(x.as_slice(), y.as_slice());
        }
        // Sampling passes leave the deterministic path untouched.
        let eval_again = reference.forward_exits(&x, Mode::Eval).unwrap();
        for (x, y) in eval.iter().zip(&eval_again) {
            assert_eq!(x.as_slice(), y.as_slice());
        }
    }

    #[test]
    fn outputs_are_one_logit_tensor_per_exit_on_the_exit_grid() {
        let calibrated = calibrated(7);
        let x = batch(&[3, 1, 10, 10], 9);
        for format in [fmt(4, 2), fmt(8, 3), fmt(16, 6)] {
            let mut reference = calibrated.fake_quant(format).unwrap();
            let exit_params = calibrated.plan(format).unwrap().exit_out_params();
            let logits = reference.forward_exits(&x, Mode::Eval).unwrap();
            assert_eq!(logits.len(), calibrated.num_exits());
            for (exit, params) in logits.iter().zip(exit_params) {
                assert_eq!(exit.dims(), &[3, calibrated.num_classes()]);
                let eps = params.scale();
                for &v in exit.as_slice() {
                    let steps = v / eps;
                    assert!(
                        (steps - steps.round()).abs() < 1e-4,
                        "{format}: {v} off grid"
                    );
                }
            }
        }
    }

    #[test]
    fn inputs_are_snapped_onto_the_input_grid() {
        // Perturbations below half an input step round away, so the whole
        // network sees the same codes.
        let mut reference = calibrated(11).fake_quant(fmt(8, 3)).unwrap();
        let x = batch(&[2, 1, 10, 10], 13);
        let eps = reference.in_params.scale();
        let snapped = x.map(|v| reference.in_params.fake_quantize(v));
        let nudged = snapped.map(|v| v + 0.25 * eps);
        let a = reference.forward_exits(&x, Mode::Eval).unwrap();
        let b = reference.forward_exits(&nudged, Mode::Eval).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.as_slice(), y.as_slice());
        }
    }
}
