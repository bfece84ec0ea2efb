//! Differential tests: the emitted HLS design's golden-reference simulator
//! is bit-exact with the compiled integer plan it was lowered from.
//!
//! `bnn_hls::HlsSimulator` re-implements every schedule op independently
//! (direct convolution, scalar loops, local rounding primitives), so
//! agreement here means the *emitted design* — not just the generator's
//! input — computes the arithmetic Phase 3 scored. This is the role
//! C-simulation plays in a real HLS flow, runnable without Vivado.
//!
//! Coverage: every zoo subject (plus a trained LeNet-5) × every searched
//! format {4, 6, 8, 16} bits, deterministic and Monte-Carlo forwards under
//! several shared reseeds, seeded multi-sample prediction, saturation edge
//! inputs, and the static-schedule cross-check against `bnn-hw`'s analytic
//! MAC model.

use bayesnn_fpga::hls::{HlsConfig, HlsSimulator, LoweredDesign, SimMode};
use bayesnn_fpga::models::{zoo, ModelConfig, NetworkSpec};
use bayesnn_fpga::nn::optimizer::Sgd;
use bayesnn_fpga::nn::trainer::{train, LabelledBatchSource, TrainConfig};
use bayesnn_fpga::nn::Mode;
use bayesnn_fpga::quant::{CalibratedNetwork, FixedPointFormat, QuantPlan};
use bayesnn_fpga::tensor::rng::Xoshiro256StarStar;
use bayesnn_fpga::tensor::Tensor;
use bnn_data::{DatasetSpec, SyntheticConfig};

struct Subject {
    name: &'static str,
    spec: NetworkSpec,
    calibrated: CalibratedNetwork,
    /// A representative input batch (distinct from the calibration batch).
    input: Tensor,
}

fn subjects() -> Vec<Subject> {
    let mut out = Vec::new();
    {
        let spec = zoo::lenet5(
            &ModelConfig::mnist()
                .with_resolution(10, 10)
                .with_width_divisor(8)
                .with_classes(4),
        )
        .with_exits_after_every_block()
        .unwrap()
        .with_exit_mcd(0.25)
        .unwrap();
        let net = spec.build(3).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        let calib = Tensor::randn(&[6, 1, 10, 10], &mut rng);
        let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
        let input = Tensor::randn(&[3, 1, 10, 10], &mut rng);
        out.push(Subject {
            name: "lenet5",
            spec,
            calibrated,
            input,
        });
    }
    {
        let spec = zoo::resnet18(
            &ModelConfig::cifar10()
                .with_resolution(12, 12)
                .with_width_divisor(16),
        )
        .with_exits_after_every_block()
        .unwrap()
        .with_exit_mcd(0.3)
        .unwrap();
        let net = spec.build(11).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let calib = Tensor::randn(&[4, 3, 12, 12], &mut rng);
        let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
        let input = Tensor::randn(&[2, 3, 12, 12], &mut rng);
        out.push(Subject {
            name: "resnet18",
            spec,
            calibrated,
            input,
        });
    }
    {
        // Trained weights: calibrated ranges and codes far from the build
        // initialisation, evaluated on a held-out synthetic batch.
        let spec = zoo::lenet5(
            &ModelConfig::mnist()
                .with_resolution(10, 10)
                .with_width_divisor(8)
                .with_classes(4),
        )
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
        let mut net = spec.build(4).unwrap();
        let batches =
            LabelledBatchSource::new(data.train.inputs().clone(), data.train.labels().to_vec())
                .unwrap();
        let mut sgd = Sgd::new(0.05).with_momentum(0.9);
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 16,
            ..TrainConfig::default()
        };
        train(&mut net, &batches, &mut sgd, &cfg).unwrap();
        let calib = data.train.take(24).unwrap().inputs().clone();
        let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
        out.push(Subject {
            name: "lenet5_trained",
            spec,
            calibrated,
            input: data.test.inputs().clone(),
        });
    }
    out
}

fn design_and_plan(subject: &Subject, format: FixedPointFormat) -> (LoweredDesign, QuantPlan) {
    let config = HlsConfig::new(subject.name).with_format(format);
    let design = LoweredDesign::generate(&subject.calibrated, &config).unwrap();
    let plan = subject.calibrated.plan(format).unwrap();
    (design, plan)
}

/// Dequantizes one exit's integer codes the way the plan's
/// `forward_exits_int` does, for exact f32 comparison.
fn dequant(codes: &[i64], scale: f32) -> Vec<f32> {
    codes.iter().map(|&c| c as f32 * scale).collect()
}

#[test]
fn forward_is_bit_exact_in_both_modes_for_every_subject_and_format() {
    for subject in subjects() {
        for format in FixedPointFormat::search_space() {
            let (design, mut plan) = design_and_plan(&subject, format);
            let mut sim = HlsSimulator::new(design.schedule().clone());

            // Deterministic forward: no masks drawn on either side.
            let sim_eval = sim.forward_exits(&subject.input, SimMode::Eval).unwrap();
            let plan_eval = plan.forward_exits_int(&subject.input, Mode::Eval).unwrap();
            assert_eq!(sim_eval.len(), plan_eval.len());
            for (e, (codes, reference)) in sim_eval.iter().zip(&plan_eval).enumerate() {
                let scale = design.schedule().exits[e].out_params.scale();
                assert_eq!(
                    dequant(codes, scale),
                    reference.as_slice(),
                    "{} {:?} exit {e} Eval",
                    subject.name,
                    format
                );
            }

            // Monte-Carlo forward: identical reseed on both sides, masks
            // drawn from the same per-step streams.
            for seed in [99u64, 5, 2023] {
                plan.reseed_mc_streams(seed);
                sim.reseed_mc_streams(seed);
                let sim_mc = sim
                    .forward_exits(&subject.input, SimMode::McSample)
                    .unwrap();
                let plan_mc = plan
                    .forward_exits_int(&subject.input, Mode::McSample)
                    .unwrap();
                for (e, (codes, reference)) in sim_mc.iter().zip(&plan_mc).enumerate() {
                    let scale = design.schedule().exits[e].out_params.scale();
                    assert_eq!(
                        dequant(codes, scale),
                        reference.as_slice(),
                        "{} {:?} exit {e} McSample seed {seed}",
                        subject.name,
                        format
                    );
                }
            }
        }
    }
}

#[test]
fn predict_probs_is_bit_exact_for_every_subject_and_format() {
    for subject in subjects() {
        for format in FixedPointFormat::search_space() {
            let (design, mut plan) = design_and_plan(&subject, format);
            let mut sim = HlsSimulator::new(design.schedule().clone());
            // n_samples exercises: fewer than the exit count (early pass
            // break), uneven multiples (partial last pass), even multiples,
            // and zero (the one-deterministic-pass convention).
            for n_samples in [1, 5, 0, 3, 4, 7, 6] {
                let probs = sim.predict_probs(&subject.input, n_samples, 2023).unwrap();
                let reference = plan.predict_probs(&subject.input, n_samples, 2023).unwrap();
                assert_eq!(
                    probs.as_slice(),
                    reference.as_slice(),
                    "{} {:?} n_samples={n_samples}",
                    subject.name,
                    format
                );
            }
        }
    }
}

#[test]
fn saturation_edges_pin_identically_on_both_paths() {
    // Max-magnitude inputs against calibration ranges measured on unit-scale
    // data: the input quantizer and the downstream requantizers must clamp,
    // and both implementations must clamp the same way.
    let mut any_pinned = false;
    for subject in subjects() {
        let mut dims = vec![1];
        dims.extend_from_slice(
            subject
                .calibrated
                .plan(FixedPointFormat::new(8, 3).unwrap())
                .unwrap()
                .in_dims(),
        );
        let n: usize = dims.iter().product();
        let extreme: Vec<f32> = (0..n)
            .map(|i| if i % 2 == 0 { 1.0e6 } else { -1.0e6 })
            .collect();
        let x = Tensor::from_vec(extreme, &dims).unwrap();
        for format in FixedPointFormat::search_space() {
            let (design, mut plan) = design_and_plan(&subject, format);
            let mut sim = HlsSimulator::new(design.schedule().clone());

            // The input quantizer pins at the format's rails.
            let in_params = design.schedule().in_params;
            assert_eq!(in_params.quantize_value(1.0e6), in_params.qmax());
            assert_eq!(in_params.quantize_value(-1.0e6), in_params.qmin());

            let sim_out = sim.forward_exits(&x, SimMode::Eval).unwrap();
            let plan_out = plan.forward_exits_int(&x, Mode::Eval).unwrap();
            for (e, (codes, reference)) in sim_out.iter().zip(&plan_out).enumerate() {
                let params = design.schedule().exits[e].out_params;
                assert_eq!(
                    dequant(codes, params.scale()),
                    reference.as_slice(),
                    "{} {:?} exit {e} saturated Eval",
                    subject.name,
                    format
                );
                if codes
                    .iter()
                    .any(|&c| c == params.qmin() || c == params.qmax())
                {
                    any_pinned = true;
                }
            }

            // The averaged prediction stays bit-exact (and finite) too.
            let probs = sim.predict_probs(&x, 3, 7).unwrap();
            let reference = plan.predict_probs(&x, 3, 7).unwrap();
            assert_eq!(probs.as_slice(), reference.as_slice());
            assert!(probs.as_slice().iter().all(|p| p.is_finite()));
        }
    }
    assert!(
        any_pinned,
        "extreme inputs should drive at least one exit logit to a rail"
    );
}

#[test]
fn static_schedule_cross_checks_the_hw_model() {
    for subject in subjects() {
        for format in FixedPointFormat::search_space() {
            let (design, plan) = design_and_plan(&subject, format);
            let summary = design.summary();
            // MACs: the emitted schedule and bnn-hw's analytic layer model
            // price the same machine, exactly.
            assert_eq!(
                summary.macs,
                bayesnn_fpga::hw::network_macs(&subject.spec).unwrap(),
                "{} {:?}",
                subject.name,
                format
            );
            // Stage count and arena footprint agree with the executing plan.
            assert_eq!(summary.steps, plan.num_steps());
            assert_eq!(
                summary.buffer_elems,
                design.schedule().buffer_elems(),
                "summary buffers derive from the schedule"
            );
            assert!(summary.pipeline_depth > 0 && summary.pipeline_depth <= summary.steps);
            assert!(summary.unit_ops >= summary.macs);
            assert!(summary.weight_params > 0);
        }
    }
}
