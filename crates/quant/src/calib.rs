//! Calibrate-once range records: the float calibration forward runs **once**
//! per trained model, and [`QuantParams`] for every candidate format are
//! derived from the recorded ranges.
//!
//! Before this module existed, lowering a network to the integer path ran a
//! full float forward pass over the calibration batch *per format* — Phase
//! 3's per-format loop paid that cost for each of the {4, 6, 8, 16}-bit
//! design points. [`CalibratedNetwork::calibrate`] now walks the lowered
//! graph once, recording per-tensor [`ValueRange`]s (weights and activation
//! edges) plus the per-sample shape of every op output; compiling an
//! execution plan ([`CalibratedNetwork::plan`]) or building the fake-quant
//! float reference ([`CalibratedNetwork::fake_quant`]) for a format is then
//! pure bookkeeping — no float inference, no model replica.
//!
//! Ranges are observed on the **unquantized** float graph (raw weights, raw
//! activations). The per-format integer/fractional splits derived from one
//! shared record are therefore identical across formats by construction,
//! and both builders derive their per-format constants (weight and bias
//! codes, batch-norm and dropout multipliers) through the same helpers at the
//! end of this module, which is what lets the float reference track the plan
//! bit for bit wherever `f32` is exact.

use crate::error::QuantError;
use crate::params::QuantParams;
use crate::schedule::MUL_FRAC;
use bnn_models::MultiExitNetwork;
use bnn_nn::lowering::LayerLowering;
use bnn_nn::Network;
use bnn_tensor::linalg::{im2col, matmul, ConvGeometry};
use bnn_tensor::Tensor;

/// An observed value range `[min, max]`, always containing zero (ranges start
/// at `[0, 0]` and only widen), matching the symmetric `ap_fixed` grids.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ValueRange {
    pub(crate) min: f32,
    pub(crate) max: f32,
}

impl ValueRange {
    /// Observes every value of a slice, widening the range.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::NonFinite`] on NaN/infinite values.
    pub(crate) fn observe(values: &[f32]) -> Result<ValueRange, QuantError> {
        let mut range = ValueRange::default();
        for &v in values {
            if !v.is_finite() {
                return Err(QuantError::NonFinite(format!(
                    "cannot calibrate over non-finite value {v}"
                )));
            }
            range.min = range.min.min(v);
            range.max = range.max.max(v);
        }
        Ok(range)
    }

    /// Derives the `total_bits`-wide format covering this range.
    ///
    /// # Errors
    ///
    /// Propagates [`QuantParams::from_range`] errors.
    pub(crate) fn params(&self, total_bits: u32) -> Result<QuantParams, QuantError> {
        QuantParams::from_range(total_bits, self.min, self.max)
    }
}

/// The calibration record of one lowered op: observed ranges plus the
/// per-sample output shape (batch axis stripped), in graph walk order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct OpRecord {
    /// Stable op name (sanity-checked against the lowering walk at build
    /// time — a cursor mismatch is an internal error, never silent skew).
    pub(crate) name: &'static str,
    /// Weight range (conv / dense only).
    pub(crate) weight: Option<ValueRange>,
    /// Output activation range (format-defining ops only).
    pub(crate) out: Option<ValueRange>,
    /// Per-sample output dims (batch axis stripped).
    pub(crate) out_dims: Vec<usize>,
}

/// The calibration record of one lowered graph: the input range/shape and
/// one op record per op in deterministic walk order (residual children
/// before the residual's own merge record).
#[derive(Debug, Clone, PartialEq)]
pub struct GraphCalibration {
    pub(crate) input: ValueRange,
    pub(crate) in_dims: Vec<usize>,
    pub(crate) ops: Vec<OpRecord>,
}

impl GraphCalibration {
    /// Runs the pure-float calibration forward of `lowering` over `calib`,
    /// recording ranges and shapes; returns the record and the graph's
    /// output activation (for chaining block records).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::NonFinite`] for NaN/infinite weights or
    /// activations, or propagated shape errors.
    pub fn collect(lowering: &LayerLowering, calib: &Tensor) -> Result<(Self, Tensor), QuantError> {
        let input = ValueRange::observe(calib.as_slice())?;
        let in_dims = calib.dims()[1..].to_vec();
        let mut ops = Vec::new();
        let mut act = calib.clone();
        collect_into(lowering, &mut act, &mut ops)?;
        Ok((
            GraphCalibration {
                input,
                in_dims,
                ops,
            },
            act,
        ))
    }
}

/// A read cursor over the op records of one graph; the builder walks the
/// lowering in the same order the collector did and consumes one record per
/// op.
pub(crate) struct RecordCursor<'a> {
    ops: &'a [OpRecord],
    next: usize,
}

impl<'a> RecordCursor<'a> {
    pub(crate) fn new(ops: &'a [OpRecord]) -> Self {
        RecordCursor { ops, next: 0 }
    }

    /// Consumes the next record, checking it belongs to the expected op.
    pub(crate) fn take(&mut self, name: &'static str) -> Result<&'a OpRecord, QuantError> {
        let record = self.ops.get(self.next).ok_or_else(|| {
            QuantError::Internal(format!(
                "calibration record exhausted at op {name} (lowering/record skew)"
            ))
        })?;
        if record.name != name {
            return Err(QuantError::Internal(format!(
                "calibration record for {} consumed by op {name} (lowering/record skew)",
                record.name
            )));
        }
        self.next += 1;
        Ok(record)
    }

    /// Errors unless every record was consumed.
    pub(crate) fn finish(self) -> Result<(), QuantError> {
        if self.next != self.ops.len() {
            return Err(QuantError::Internal(format!(
                "lowering consumed {} of {} calibration records",
                self.next,
                self.ops.len()
            )));
        }
        Ok(())
    }
}

/// Appends the record(s) of `lowering` to `ops`, advancing the running float
/// activation.
fn push_record(
    ops: &mut Vec<OpRecord>,
    name: &'static str,
    weight: Option<ValueRange>,
    out: Option<ValueRange>,
    act: &Tensor,
) {
    ops.push(OpRecord {
        name,
        weight,
        out,
        out_dims: act.dims()[1..].to_vec(),
    });
}

fn collect_into(
    lowering: &LayerLowering,
    act: &mut Tensor,
    ops: &mut Vec<OpRecord>,
) -> Result<(), QuantError> {
    match lowering {
        LayerLowering::Sequence(children) => {
            for child in children {
                collect_into(child, act, ops)?;
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
            let w_range = ValueRange::observe(weight.as_slice())?;
            let w2d = weight.reshape(&[out_c, in_c * kernel * kernel])?;
            let y = conv_float(act, &w2d, bias.as_slice(), kernel, *stride, *padding)?;
            let out = ValueRange::observe(y.as_slice())?;
            *act = y;
            push_record(ops, lowering.name(), Some(w_range), Some(out), act);
        }
        LayerLowering::Dense { weight, bias } => {
            let w_range = ValueRange::observe(weight.as_slice())?;
            let y = dense_float(act, weight, bias.as_slice())?;
            let out = ValueRange::observe(y.as_slice())?;
            *act = y;
            push_record(ops, lowering.name(), Some(w_range), Some(out), act);
        }
        LayerLowering::Relu => {
            *act = act.map(|v| v.max(0.0));
            push_record(ops, lowering.name(), None, None, act);
        }
        LayerLowering::MaxPool2d { kernel, stride } => {
            *act = max_pool_float(act, *kernel, *stride)?;
            push_record(ops, lowering.name(), None, None, act);
        }
        LayerLowering::AvgPool2d { kernel, stride } => {
            // Plain averages: the range of the snapped integer average is
            // contained in the input format's range anyway (pooling cannot
            // widen a range), so no output range is recorded.
            let norm = 1.0 / (kernel * kernel) as f32;
            *act = pool_float_with(act, *kernel, *stride, 0.0, |a, v| a + v, |acc| acc * norm)?;
            push_record(ops, lowering.name(), None, None, act);
        }
        LayerLowering::GlobalAvgPool2d => {
            *act = global_avg_pool_plain(act)?;
            push_record(ops, lowering.name(), None, None, act);
        }
        LayerLowering::Flatten => {
            let batch = act.dims()[0];
            let rest: usize = act.dims()[1..].iter().product();
            *act = act.reshape(&[batch, rest])?;
            push_record(ops, lowering.name(), None, None, act);
        }
        LayerLowering::Affine(bn) => {
            let (scale, shift) = bn.fold();
            let y = affine_float(act, &scale, &shift, scale.len())?;
            let out = ValueRange::observe(y.as_slice())?;
            *act = y;
            push_record(ops, lowering.name(), None, Some(out), act);
        }
        LayerLowering::McDropout { .. } => {
            // Calibration runs the deterministic path; the op only becomes
            // stochastic in Mode::McSample and never widens the range.
            push_record(ops, lowering.name(), None, None, act);
        }
        LayerLowering::Identity => push_record(ops, lowering.name(), None, None, act),
        LayerLowering::Residual { main, shortcut } => {
            let input = act.clone();
            let mut main_act = input.clone();
            for child in main {
                collect_into(child, &mut main_act, ops)?;
            }
            let mut short_act = input;
            for child in shortcut {
                collect_into(child, &mut short_act, ops)?;
            }
            let sum = main_act.add(&short_act)?.map(|v| v.max(0.0));
            let out = ValueRange::observe(sum.as_slice())?;
            *act = sum;
            push_record(ops, lowering.name(), None, Some(out), act);
        }
    }
    Ok(())
}

/// Float-reference convolution on a lowered weight matrix (shared by
/// calibration and the fake-quant float reference).
pub(crate) fn conv_float(
    x: &Tensor,
    w2d: &Tensor,
    bias: &[f32],
    kernel: usize,
    stride: usize,
    padding: usize,
) -> Result<Tensor, QuantError> {
    let (batch, _c, h, w) = x.shape().as_nchw()?;
    let geom = ConvGeometry::square(h, w, kernel, stride, padding);
    let cols = im2col(x, &geom)?;
    let out2d = matmul(w2d, &cols)?;
    let out_c = w2d.dims()[0];
    let plane = geom.out_h() * geom.out_w();
    let mut data = vec![0.0f32; batch * out_c * plane];
    if plane > 0 && batch > 0 {
        // `[out_c, batch*plane]` matmul rows -> `[batch, out_c, plane]`.
        for (co, src_chan) in out2d.as_slice().chunks_exact(batch * plane).enumerate() {
            for (b, src_row) in src_chan.chunks_exact(plane).enumerate() {
                let start = (b * out_c + co) * plane;
                for (dst, &v) in data[start..start + plane].iter_mut().zip(src_row) {
                    *dst = v + bias[co];
                }
            }
        }
    }
    Ok(Tensor::from_vec(
        data,
        &[batch, out_c, geom.out_h(), geom.out_w()],
    )?)
}

/// Float-reference dense layer.
pub(crate) fn dense_float(x: &Tensor, w: &Tensor, bias: &[f32]) -> Result<Tensor, QuantError> {
    let mut out = matmul(x, w)?;
    let out_f = w.dims()[1];
    for row in out.as_mut_slice().chunks_exact_mut(out_f) {
        for (o, &b) in row.iter_mut().zip(bias) {
            *o += b;
        }
    }
    Ok(out)
}

/// Float reference of square-window pooling: `combine` folds the window
/// values, `finish` maps the folded value to the output.
pub(crate) fn pool_float_with(
    x: &Tensor,
    kernel: usize,
    stride: usize,
    init: f32,
    combine: impl Fn(f32, f32) -> f32,
    finish: impl Fn(f32) -> f32,
) -> Result<Tensor, QuantError> {
    let (n, c, h, w) = x.shape().as_nchw()?;
    let geom = ConvGeometry::square(h, w, kernel, stride, 0);
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let data = x.as_slice();
    let mut out = vec![0.0f32; n * c * oh * ow];
    for b in 0..n {
        for ch in 0..c {
            for y in 0..oh {
                for xx in 0..ow {
                    let mut acc = init;
                    for ky in 0..kernel {
                        for kx in 0..kernel {
                            let iy = y * stride + ky;
                            let ix = xx * stride + kx;
                            if iy < h && ix < w {
                                acc = combine(acc, data[((b * c + ch) * h + iy) * w + ix]);
                            }
                        }
                    }
                    out[((b * c + ch) * oh + y) * ow + xx] = finish(acc);
                }
            }
        }
    }
    Ok(Tensor::from_vec(out, &[n, c, oh, ow])?)
}

/// Float reference of max pooling (the max of on-grid values is on-grid).
pub(crate) fn max_pool_float(
    x: &Tensor,
    kernel: usize,
    stride: usize,
) -> Result<Tensor, QuantError> {
    pool_float_with(x, kernel, stride, f32::NEG_INFINITY, f32::max, |v| v)
}

/// Float reference of average pooling, with results snapped back onto the
/// activation grid (mirroring the integer rounding division).
pub(crate) fn avg_pool_float(
    x: &Tensor,
    kernel: usize,
    stride: usize,
    params: QuantParams,
) -> Result<Tensor, QuantError> {
    let norm = 1.0 / (kernel * kernel) as f32;
    pool_float_with(
        x,
        kernel,
        stride,
        0.0,
        |a, v| a + v,
        |acc| params.fake_quantize(acc * norm),
    )
}

/// Float reference of global average pooling, without grid snapping (the
/// calibration forward).
pub(crate) fn global_avg_pool_plain(x: &Tensor) -> Result<Tensor, QuantError> {
    let (n, c, h, w) = x.shape().as_nchw()?;
    let plane = h * w;
    let data = x.as_slice();
    let mut out = vec![0.0f32; n * c];
    for b in 0..n {
        for ch in 0..c {
            let start = (b * c + ch) * plane;
            let acc: f32 = data[start..start + plane].iter().sum();
            out[b * c + ch] = acc / plane as f32;
        }
    }
    Ok(Tensor::from_vec(out, &[n, c])?)
}

/// Float reference of global average pooling, snapped onto the grid (the
/// fake-quant reference).
pub(crate) fn global_avg_pool_float(x: &Tensor, params: QuantParams) -> Result<Tensor, QuantError> {
    Ok(global_avg_pool_plain(x)?.map(|v| params.fake_quantize(v)))
}

/// Float reference of a per-channel affine over NCHW data.
pub(crate) fn affine_float(
    x: &Tensor,
    scale: &[f32],
    shift: &[f32],
    channels: usize,
) -> Result<Tensor, QuantError> {
    let (n, c, h, w) = x.shape().as_nchw()?;
    if c != channels {
        return Err(QuantError::Internal(format!(
            "affine over {channels} channel(s) received {c}"
        )));
    }
    let plane = h * w;
    let mut out = x.clone();
    let data = out.as_mut_slice();
    for b in 0..n {
        for ch in 0..c {
            let start = (b * c + ch) * plane;
            for v in &mut data[start..start + plane] {
                *v = scale[ch] * *v + shift[ch];
            }
        }
    }
    Ok(out)
}

/// A trained multi-exit network calibrated **once**: the lowered inference
/// graphs of every backbone block and exit branch, paired with their range
/// records. Per-format artifacts — compiled [`crate::QuantPlan`]s and the
/// [`crate::FakeQuantNetwork`] float reference — derive from this without
/// re-running any float inference, which is what lets Phase 3 score every
/// `(format, reuse)` design point against a single calibration pass.
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
/// // One float calibration pass...
/// let calibrated = CalibratedNetwork::calibrate(&trained, &calib)?;
/// // ...then every searched format derives without further float inference.
/// for (total, int) in [(4, 2), (6, 2), (8, 3), (16, 6)] {
///     let plan = calibrated.plan(FixedPointFormat::new(total, int)?)?;
///     assert_eq!(plan.num_exits(), 2);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CalibratedNetwork {
    pub(crate) blocks: Vec<(LayerLowering, GraphCalibration)>,
    pub(crate) exits: Vec<(usize, LayerLowering, GraphCalibration)>,
    pub(crate) input: ValueRange,
    pub(crate) in_dims: Vec<usize>,
    pub(crate) classes: usize,
}

impl CalibratedNetwork {
    /// Lowers the trained network and runs the single float calibration
    /// forward over the representative batch `calib` (which must have the
    /// network's input shape).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::Unsupported`] for layers without an inference
    /// lowering, [`QuantError::NonFinite`] for NaN/infinite weights or
    /// activations, or propagated shape errors.
    pub fn calibrate(network: &MultiExitNetwork, calib: &Tensor) -> Result<Self, QuantError> {
        let input = ValueRange::observe(calib.as_slice())?;
        let in_dims = calib.dims()[1..].to_vec();
        let mut act = calib.clone();
        let mut blocks = Vec::new();
        let mut block_acts = Vec::new();
        for lowering in network.block_lowerings()? {
            let (record, out_act) = GraphCalibration::collect(&lowering, &act)?;
            act = out_act;
            block_acts.push(act.clone());
            blocks.push((lowering, record));
        }
        let mut exits = Vec::new();
        for (after_block, lowering) in network.exit_lowerings()? {
            let (record, _out) = GraphCalibration::collect(&lowering, &block_acts[after_block])?;
            exits.push((after_block, lowering, record));
        }
        Ok(CalibratedNetwork {
            blocks,
            exits,
            input,
            in_dims,
            classes: network.num_classes(),
        })
    }

    /// Number of exits.
    pub fn num_exits(&self) -> usize {
        self.exits.len()
    }

    /// Number of predicted classes.
    pub fn num_classes(&self) -> usize {
        self.classes
    }
}

/// The quantized constants of one conv/dense layer at one format: weight
/// codes on the recorded weight range's grid, bias codes at the accumulator
/// scale and the accumulator-to-output requantization shift.
pub(crate) struct QuantizedWeights {
    /// Weight codes in the lowering's element order.
    pub(crate) codes: Vec<i16>,
    pub(crate) w_params: QuantParams,
    /// Bias codes at scale `2^-(w_frac + in_frac)` (the accumulator scale).
    pub(crate) bias: Vec<i64>,
    acc_frac: u32,
    /// Accumulator-to-output requantization shift.
    pub(crate) shift: i32,
}

impl QuantizedWeights {
    /// The dequantized weights, shaped `dims`.
    pub(crate) fn weight_values(&self, dims: &[usize]) -> Result<Tensor, QuantError> {
        let values = self
            .codes
            .iter()
            .map(|&c| self.w_params.dequantize_value(c as i64))
            .collect();
        Ok(Tensor::from_vec(values, dims)?)
    }

    /// The dequantized biases.
    pub(crate) fn bias_values(&self) -> Vec<f32> {
        let acc_scale = 2f64.powi(self.acc_frac as i32);
        self.bias
            .iter()
            .map(|&c| (c as f64 / acc_scale) as f32)
            .collect()
    }
}

/// Quantizes a weight tensor and bias for one format (formats are at most
/// 16 bits wide, so every code fits `i16`).
pub(crate) fn quantize_weights(
    weight: &Tensor,
    bias: &Tensor,
    w_range: ValueRange,
    total_bits: u32,
    in_params: QuantParams,
    out: QuantParams,
) -> Result<QuantizedWeights, QuantError> {
    let w_params = w_range.params(total_bits)?;
    let codes = weight
        .as_slice()
        .iter()
        .map(|&v| w_params.quantize_value(v) as i16)
        .collect();
    let acc_frac = w_params.fractional_bits() + in_params.fractional_bits();
    let acc_scale = 2f64.powi(acc_frac as i32);
    let bias = bias
        .as_slice()
        .iter()
        .map(|&b| (b as f64 * acc_scale).round() as i64)
        .collect();
    Ok(QuantizedWeights {
        codes,
        w_params,
        bias,
        acc_frac,
        shift: acc_frac as i32 - out.fractional_bits() as i32,
    })
}

/// The per-channel multipliers and offsets of a folded batch-norm affine at
/// one format, as [`MUL_FRAC`]-fractional-bit fixed point against the in/out
/// formats' scales.
pub(crate) struct QuantizedAffine {
    /// `round(scale * eps_in / eps_out * 2^MUL_FRAC)`.
    pub(crate) m: Vec<i64>,
    /// `round(shift / eps_out * 2^MUL_FRAC)`.
    pub(crate) b: Vec<i64>,
}

impl QuantizedAffine {
    /// The effective multipliers in value space.
    pub(crate) fn m_values(&self, in_params: QuantParams, out: QuantParams) -> Vec<f32> {
        let (eps_in, eps_out) = (in_params.scale() as f64, out.scale() as f64);
        let mul = 2f64.powi(MUL_FRAC as i32);
        self.m
            .iter()
            .map(|&c| (c as f64 / mul * eps_out / eps_in) as f32)
            .collect()
    }

    /// The effective offsets in value space.
    pub(crate) fn b_values(&self, out: QuantParams) -> Vec<f32> {
        let eps_out = out.scale() as f64;
        let mul = 2f64.powi(MUL_FRAC as i32);
        self.b
            .iter()
            .map(|&c| (c as f64 / mul * eps_out) as f32)
            .collect()
    }
}

/// Quantizes affine `scale * x + shift` multipliers against the in/out
/// formats.
pub(crate) fn quantize_affine(
    scale: &[f32],
    shift: &[f32],
    in_params: QuantParams,
    out: QuantParams,
) -> QuantizedAffine {
    let eps_in = in_params.scale() as f64;
    let eps_out = out.scale() as f64;
    let mul = 2f64.powi(MUL_FRAC as i32);
    QuantizedAffine {
        m: scale
            .iter()
            .map(|&s| (s as f64 * eps_in / eps_out * mul).round() as i64)
            .collect(),
        b: shift
            .iter()
            .map(|&s| (s as f64 / eps_out * mul).round() as i64)
            .collect(),
    }
}

/// The quantized inverted-dropout scale, `round((1/keep) * 2^MUL_FRAC)`.
pub(crate) fn dropout_scale_q(rate: f64) -> i64 {
    (1.0 / (1.0 - rate) * 2f64.powi(MUL_FRAC as i32)).round() as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::FixedPointFormat;
    use crate::params::IntWidth;

    fn params(total: u32, int: u32) -> QuantParams {
        QuantParams::new(FixedPointFormat::new(total, int).unwrap()).unwrap()
    }

    fn range(values: &[f32]) -> ValueRange {
        ValueRange::observe(values).unwrap()
    }

    fn no_bias(n: usize) -> Tensor {
        Tensor::from_vec(vec![0.0; n], &[n]).unwrap()
    }

    #[test]
    fn weight_codes_round_trip_on_grid() {
        let w = Tensor::from_vec(vec![0.375, -1.25, 2.0, 0.0], &[2, 2]).unwrap();
        let q = quantize_weights(
            &w,
            &no_bias(2),
            range(w.as_slice()),
            8,
            params(8, 3),
            params(8, 3),
        )
        .unwrap();
        assert_eq!(q.codes.len(), 4);
        let back = q.weight_values(&[2, 2]).unwrap();
        assert_eq!(back.as_slice(), w.as_slice());
        assert_eq!(back.dims(), &[2, 2]);
    }

    #[test]
    fn weight_codes_match_fake_quantization() {
        let w = Tensor::from_vec((-20..20).map(|i| i as f32 * 0.173).collect(), &[40]).unwrap();
        let q = quantize_weights(
            &w,
            &no_bias(1),
            range(&[-1.9, 1.9]),
            6,
            params(6, 2),
            params(6, 2),
        )
        .unwrap();
        assert_eq!(q.w_params.format(), FixedPointFormat::new(6, 2).unwrap());
        let fake = w.map(|v| q.w_params.format().quantize(v));
        assert_eq!(q.weight_values(&[40]).unwrap().as_slice(), fake.as_slice());
    }

    #[test]
    fn weight_codes_follow_the_format_width() {
        // Codes are widened to `i16` for every format; their values use
        // exactly the format's code range.
        let w = Tensor::ones(&[3]);
        let r = range(&[-2.0, 2.0]);
        let q8 = quantize_weights(&w, &no_bias(1), r, 8, params(8, 3), params(8, 3)).unwrap();
        assert_eq!(q8.w_params.width(), IntWidth::W8);
        assert_eq!(q8.codes, vec![32, 32, 32]);
        let q16 = quantize_weights(&w, &no_bias(1), r, 16, params(16, 6), params(16, 6)).unwrap();
        assert_eq!(q16.w_params.width(), IntWidth::W16);
        assert_eq!(q16.codes, vec![8192, 8192, 8192]);
    }

    #[test]
    fn max_magnitude_weights_saturate_to_code_extremes() {
        // Weights far beyond the recorded range pin at qmin/qmax instead of
        // wrapping around, also at 16 bits where the codes fill `i16`.
        let w = Tensor::from_vec(vec![1e6, -1e6], &[2]).unwrap();
        for total in [4, 16] {
            let q = quantize_weights(
                &w,
                &no_bias(1),
                range(&[-1.0, 1.0]),
                total,
                params(total, 2),
                params(total, 2),
            )
            .unwrap();
            let codes: Vec<i64> = q.codes.iter().map(|&c| c as i64).collect();
            assert_eq!(codes, vec![q.w_params.qmax(), q.w_params.qmin()]);
        }
    }

    #[test]
    fn bias_codes_sit_at_the_accumulator_scale() {
        let w = Tensor::from_vec(vec![0.5, -0.25], &[1, 2]).unwrap();
        let bias = Tensor::from_vec(vec![0.75, -0.3], &[2]).unwrap();
        let (in_params, out) = (params(8, 3), params(8, 4));
        let q = quantize_weights(&w, &bias, range(w.as_slice()), 8, in_params, out).unwrap();
        let acc_frac = q.w_params.fractional_bits() + in_params.fractional_bits();
        let acc = 2f64.powi(acc_frac as i32);
        let expected: Vec<i64> = [0.75f32, -0.3]
            .iter()
            .map(|&b| (b as f64 * acc).round() as i64)
            .collect();
        assert_eq!(q.bias, expected);
        assert_eq!(q.bias_values()[0], 0.75); // on the accumulator grid
        assert!((q.bias_values()[1] + 0.3).abs() <= (0.5 / acc) as f32);
        assert_eq!(q.shift, acc_frac as i32 - out.fractional_bits() as i32);
    }

    #[test]
    fn affine_multipliers_carry_mul_frac_fractional_bits() {
        let (in_params, out) = (params(8, 3), params(8, 2));
        let q = quantize_affine(&[1.5, -0.7], &[0.25, 1.1], in_params, out);
        // m = scale * eps_in / eps_out at MUL_FRAC fractional bits:
        // 1.5 * 2^-5 / 2^-6 = 3.
        assert_eq!(q.m[0], 3 << MUL_FRAC);
        assert_eq!(q.b[0], (0.25 / out.scale() as f64 * 4096.0).round() as i64);
        // Back in value space the multipliers reproduce the float affine up
        // to one MUL_FRAC step.
        let tol = 1.0 / (1u64 << MUL_FRAC) as f32;
        for (m, want) in q.m_values(in_params, out).iter().zip([1.5f32, -0.7]) {
            assert!((m - want).abs() <= tol * out.scale() / in_params.scale());
        }
        for (b, want) in q.b_values(out).iter().zip([0.25f32, 1.1]) {
            assert!((b - want).abs() <= tol * out.scale());
        }
    }

    #[test]
    fn dropout_scale_is_the_rounded_inverse_keep_rate() {
        assert_eq!(dropout_scale_q(0.0), 1 << MUL_FRAC);
        assert_eq!(dropout_scale_q(0.5), 2 << MUL_FRAC);
        assert_eq!(dropout_scale_q(0.75), 4 << MUL_FRAC);
        // 1 / 0.75 = 1.333..., rounded at 12 fractional bits.
        assert_eq!(dropout_scale_q(0.25), 5461);
    }
}
