//! Parity suite of compiled artifacts on a trained multi-exit LeNet-5: a
//! calibration record shared across formats derives the same per-format
//! float reference as a fresh calibration, and the sampler's planned float
//! prediction reproduces a spec-rebuilt replica's bit for bit. (The integer
//! plan's own parity lives in `tests/hls_golden_sim.rs`, against the HLS
//! simulator, and `tests/quantized_inference.rs`, against the fake-quant
//! float reference.)

use bayesnn_fpga::bayes::sampling::{McSampler, SamplingConfig};
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
    .with_samples(64, 24)
    .generate(17)
    .unwrap();
    let mut network = spec.build(4).unwrap();
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

/// The calibration record is derived once and shared across formats: every
/// per-format float reference built from it equals one built from a fresh
/// calibration pass for that format.
#[test]
fn shared_calibration_record_matches_per_format_calibration() {
    let (network, calib, eval) = trained_lenet5();
    let calibrated = CalibratedNetwork::calibrate(&network, &calib).unwrap();
    for format in FixedPointFormat::search_space() {
        let mut from_record = calibrated.fake_quant(format).unwrap();
        let mut fresh = CalibratedNetwork::calibrate(&network, &calib)
            .unwrap()
            .fake_quant(format)
            .unwrap();
        let a = from_record.forward_exits(&eval, Mode::Eval).unwrap();
        let b = fresh.forward_exits(&eval, Mode::Eval).unwrap();
        for (ta, tb) in a.iter().zip(&b) {
            assert_eq!(ta.as_slice(), tb.as_slice(), "{format}");
        }
    }
}

/// The float sampler's planned path (compiled `MultiExitPlan`, arenas reused
/// across MC passes) reproduces the prediction of a spec-rebuilt replica of
/// the same network — the strongest float-side equivalence available through
/// the public API: replicas share nothing with the original but the
/// checkpoint, so agreement pins the planned path to the checkpointed
/// arithmetic bit for bit.
#[test]
fn sampler_planned_path_matches_replica_prediction_bitwise() {
    use bayesnn_fpga::tensor::exec::Executor;
    let (mut network, _calib, eval) = trained_lenet5();
    // A replica rebuilt from spec + checkpoint (the pre-plan worker path).
    let mut replica = network.replicate().unwrap();
    // Both samplers compile (and cache) plans for this plannable network;
    // the executors differ, so this also pins the parallel fan-out (plan
    // clones as worker replicas) to the sequential single-plan loop.
    let planned = McSampler::new(SamplingConfig::new(8)).with_executor(Executor::new(4));
    let sequential = McSampler::new(SamplingConfig::new(8)).with_executor(Executor::sequential());
    let a = planned.predict(&mut network, &eval).unwrap();
    let b = sequential.predict(&mut replica, &eval).unwrap();
    assert_eq!(a.mean_probs.as_slice(), b.mean_probs.as_slice());
    assert_eq!(a.per_sample.len(), b.per_sample.len());
    for (sa, sb) in a.per_sample.iter().zip(&b.per_sample) {
        assert_eq!(sa.as_slice(), sb.as_slice());
    }
}
