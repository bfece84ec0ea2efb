//! The compile-step suite of the integer inference path: the compiled
//! [`QuantPlan`](bayesnn_fpga::quant::QuantPlan) against the fake-quantized
//! float reference built from the same calibration record
//! ([`CalibratedNetwork::fake_quant`]). The reference is built by its own
//! walk over the record — not from the plan's exported schedule, which the
//! HLS simulator suite interprets — so these bounds check what the plan
//! compiler derived. Covered: the integer-vs-fake-quant parity sweep over the
//! paper's bitwidth search space on a trained LeNet-5, end-to-end saturation
//! behaviour and seeded MC prediction.

use bayesnn_fpga::models::{zoo, ModelConfig};
use bayesnn_fpga::nn::layer::Mode;
use bayesnn_fpga::nn::optimizer::Sgd;
use bayesnn_fpga::nn::trainer::{train, LabelledBatchSource, TrainConfig};
use bayesnn_fpga::quant::{CalibratedNetwork, FixedPointFormat};
use bayesnn_fpga::tensor::Tensor;
use bnn_data::{DatasetSpec, SyntheticConfig};
use bnn_models::MultiExitNetwork;

/// A trained multi-exit LeNet-5 with calibration and evaluation batches.
fn trained_lenet5() -> (MultiExitNetwork, Tensor, Tensor) {
    let model_cfg = ModelConfig::mnist()
        .with_resolution(10, 10)
        .with_width_divisor(8)
        .with_classes(4);
    let spec = zoo::lenet5(&model_cfg)
        .with_exits_after_every_block()
        .unwrap()
        .with_exit_mcd(0.25)
        .unwrap();
    let data = SyntheticConfig::new(
        DatasetSpec::mnist_like()
            .with_resolution(10, 10)
            .with_classes(4),
    )
    .with_samples(64, 32)
    .generate(11)
    .unwrap();
    let mut network = spec.build(2).unwrap();
    let batches =
        LabelledBatchSource::new(data.train.inputs().clone(), data.train.labels().to_vec())
            .unwrap();
    let mut sgd = Sgd::new(0.05).with_momentum(0.9);
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 16,
        ..TrainConfig::default()
    };
    train(&mut network, &batches, &mut sgd, &cfg).unwrap();
    let calib = data.train.take(24).unwrap().inputs().clone();
    let eval = data.test.inputs().clone();
    (network, calib, eval)
}

/// The largest absolute difference between two equally shaped tensors.
fn max_abs_diff(a: &Tensor, b: &Tensor) -> f32 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max)
}

/// The deterministic parity sweep: for every format in the paper's search
/// space `{4, 6, 8, 16}`, the compiled plan and the fake-quantized float
/// reference of the same calibrated graph must agree within one
/// quantization step of each exit's output format, on both the
/// deterministic and the Monte-Carlo sampled path.
#[test]
fn integer_path_matches_fake_quant_float_within_one_step_across_formats() {
    let (network, calib, eval) = trained_lenet5();
    let calibrated = CalibratedNetwork::calibrate(&network, &calib).unwrap();
    for format in FixedPointFormat::search_space() {
        let mut plan = calibrated.plan(format).unwrap();
        let mut reference = calibrated.fake_quant(format).unwrap();
        let steps: Vec<f32> = plan.exit_out_params().iter().map(|p| p.scale()).collect();

        // Deterministic (Eval) parity per exit.
        let int_logits = plan.forward_exits_int(&eval, Mode::Eval).unwrap();
        let sim_logits = reference.forward_exits(&eval, Mode::Eval).unwrap();
        assert_eq!(int_logits.len(), sim_logits.len());
        for (exit, (a, b)) in int_logits.iter().zip(&sim_logits).enumerate() {
            let max_diff = max_abs_diff(a, b);
            assert!(
                max_diff <= steps[exit] + 1e-6,
                "{format} exit {exit}: max |int - float| = {max_diff}, one step = {}",
                steps[exit]
            );
        }

        // MC-sampled parity: a shared reseed draws identical masks in both
        // domains, so the bound holds pass-for-pass too.
        plan.reseed_mc_streams(99);
        reference.reseed_mc_streams(99);
        let int_mc = plan.forward_exits_int(&eval, Mode::McSample).unwrap();
        let sim_mc = reference.forward_exits(&eval, Mode::McSample).unwrap();
        for (exit, (a, b)) in int_mc.iter().zip(&sim_mc).enumerate() {
            let max_diff = max_abs_diff(a, b);
            assert!(
                max_diff <= steps[exit] + 1e-6,
                "{format} exit {exit} (MC): max |int - float| = {max_diff}, one step = {}",
                steps[exit]
            );
        }
    }
}

/// Formats up to 8 bits keep all integer-path arithmetic inside the range
/// where f32 is exact, so there the plan and the reference are not merely
/// close — they are bitwise identical end to end, deterministic and
/// Monte-Carlo sampled.
#[test]
fn eight_bit_parity_is_exact() {
    let (network, calib, eval) = trained_lenet5();
    let calibrated = CalibratedNetwork::calibrate(&network, &calib).unwrap();
    for format in [
        FixedPointFormat::new(4, 2).unwrap(),
        FixedPointFormat::new(6, 2).unwrap(),
        FixedPointFormat::new(8, 3).unwrap(),
    ] {
        let mut plan = calibrated.plan(format).unwrap();
        let mut reference = calibrated.fake_quant(format).unwrap();
        let int_logits = plan.forward_exits_int(&eval, Mode::Eval).unwrap();
        let sim_logits = reference.forward_exits(&eval, Mode::Eval).unwrap();
        for (a, b) in int_logits.iter().zip(&sim_logits) {
            assert_eq!(a.as_slice(), b.as_slice(), "format {format}");
        }
        // A shared reseed draws the same masks in both domains, and the
        // quantized 1/keep multiply stays exact too.
        plan.reseed_mc_streams(77);
        reference.reseed_mc_streams(77);
        let int_mc = plan.forward_exits_int(&eval, Mode::McSample).unwrap();
        let sim_mc = reference.forward_exits(&eval, Mode::McSample).unwrap();
        for (a, b) in int_mc.iter().zip(&sim_mc) {
            assert_eq!(a.as_slice(), b.as_slice(), "format {format} (MC)");
        }
    }
}

/// Integer MC prediction is seed-reproducible and produces probability
/// simplex rows.
#[test]
fn integer_mc_prediction_is_reproducible_and_calibrated() {
    let (network, calib, eval) = trained_lenet5();
    let format = FixedPointFormat::new(8, 3).unwrap();
    let mut plan = CalibratedNetwork::calibrate(&network, &calib)
        .unwrap()
        .plan(format)
        .unwrap();
    let probs = plan.predict_probs(&eval, 6, 2023).unwrap();
    let again = plan.predict_probs(&eval, 6, 2023).unwrap();
    assert_eq!(probs.as_slice(), again.as_slice());
    let batch = eval.dims()[0];
    for b in 0..batch {
        let row = &probs.as_slice()[b * 4..(b + 1) * 4];
        let sum: f32 = row.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "row {b} sums to {sum}");
        assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }
}

/// Max-magnitude inputs must saturate (pin at the format extremes) instead
/// of wrapping, all the way through a real convolutional network.
#[test]
fn extreme_inputs_saturate_through_the_whole_network() {
    let (network, calib, _eval) = trained_lenet5();
    let format = FixedPointFormat::new(4, 2).unwrap();
    let calibrated = CalibratedNetwork::calibrate(&network, &calib).unwrap();
    let mut plan = calibrated.plan(format).unwrap();
    let hot = Tensor::full(&[2, 1, 10, 10], 1e9);
    let logits = plan.forward_exits_int(&hot, Mode::Eval).unwrap();
    for exit in &logits {
        for &v in exit.as_slice() {
            assert!(v.is_finite(), "saturation must never produce inf/NaN");
        }
    }
    // And the parity bound still holds at the extremes.
    let sim = calibrated
        .fake_quant(format)
        .unwrap()
        .forward_exits(&hot, Mode::Eval)
        .unwrap();
    let steps: Vec<f32> = plan.exit_out_params().iter().map(|p| p.scale()).collect();
    for (exit, (a, b)) in logits.iter().zip(&sim).enumerate() {
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() <= steps[exit] + 1e-6);
        }
    }
}
