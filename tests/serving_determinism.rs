//! Determinism suite of the serving layer and its batch-capable plans.
//!
//! Three properties are pinned, all bitwise:
//!
//! 1. **Batch-boundary invariance** — `predict_probs_batch*` on a batch of
//!    N samples equals the concatenation of N single-sample calls, for every
//!    fixed-point format in the paper's search space `{4, 6, 8, 16}` and
//!    across executors, and likewise for the float [`MultiExitPlan`]. This
//!    is the property that makes dynamic batching transparent.
//! 2. **Plan-cache invalidation under concurrency** — worker threads running
//!    [`McSampler::predict`] while another thread mutates weights through
//!    `params_mut` only ever observe the pre- or post-mutation prediction,
//!    never a stale cached plan.
//! 3. **Server invariance** — the same request stream produces identical
//!    per-request outputs regardless of batching config and worker count.

use bayesnn_fpga::models::{zoo, ModelConfig};
use bayesnn_fpga::quant::{CalibratedNetwork, FixedPointFormat};
use bayesnn_fpga::serve::replay::{replay, ReplayConfig};
use bayesnn_fpga::serve::{
    BatchEngine, ExitPolicy, FloatEngine, InferenceServer, QuantEngine, ServerConfig,
};
use bayesnn_fpga::tensor::exec::Executor;
use bayesnn_fpga::tensor::rng::Xoshiro256StarStar;
use bayesnn_fpga::tensor::Tensor;
use bnn_models::MultiExitNetwork;
use std::time::Duration;

const MC_SAMPLES: usize = 6;
const MC_SEED: u64 = 2023;

/// The small multi-exit LeNet-5 of the plan test suites (10x10, width/8,
/// 4 classes; 100 input elements per sample).
fn small_lenet() -> MultiExitNetwork {
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
    .build(3)
    .unwrap()
}

/// A batch of well-formed inputs plus the same data as single-sample chunks.
fn batch_and_singles(batch: usize) -> (Tensor, Vec<Tensor>) {
    let mut rng = Xoshiro256StarStar::seed_from_u64(11);
    let inputs = Tensor::randn(&[batch, 1, 10, 10], &mut rng);
    let singles = inputs
        .as_slice()
        .chunks_exact(100)
        .map(|c| Tensor::from_vec(c.to_vec(), &[1, 1, 10, 10]).unwrap())
        .collect();
    (inputs, singles)
}

/// A small residual/batch-norm ResNet-18 (8x8, width/16, 10 classes), so
/// residual merges and folded batch-norm affines run in the batched sweep.
fn small_resnet() -> MultiExitNetwork {
    zoo::resnet18(
        &ModelConfig::cifar10()
            .with_resolution(8, 8)
            .with_width_divisor(16),
    )
    .with_exits_after_every_block()
    .unwrap()
    .with_exit_mcd(0.3)
    .unwrap()
    .build(11)
    .unwrap()
}

/// Acceptance-criteria sweep: batched integer prediction is bit-exact with
/// per-sample calls for every searched format (LeNet-5) and for both integer
/// widths (a residual/batch-norm ResNet-18), on the sequential executor and
/// on 2, 3 and 4 row shards, at batch sizes that split unevenly across the
/// shards or leave some threads without a row.
#[test]
fn quant_batched_predict_matches_singles_across_formats_and_executors() {
    const MAX_BATCH: usize = 7;
    let fmt = |total, int| FixedPointFormat::new(total, int).unwrap();
    let models = [
        (
            "lenet5",
            small_lenet(),
            vec![1, 10, 10],
            FixedPointFormat::search_space(),
        ),
        (
            "resnet18",
            small_resnet(),
            vec![3, 8, 8],
            vec![fmt(8, 3), fmt(16, 6)],
        ),
    ];
    for (model, network, in_dims, formats) in models {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let calib = Tensor::randn(&[&[8][..], &in_dims].concat(), &mut rng);
        let calibrated = CalibratedNetwork::calibrate(&network, &calib).unwrap();
        let pool = Tensor::randn(&[&[MAX_BATCH][..], &in_dims].concat(), &mut rng);
        let per: usize = in_dims.iter().product();
        let rows = |n: usize| {
            Tensor::from_vec(
                pool.as_slice()[..n * per].to_vec(),
                &[&[n][..], &in_dims].concat(),
            )
            .unwrap()
        };

        for format in formats {
            // Single-sample references on the sequential executor.
            let mut plan = calibrated.plan(format).unwrap();
            plan.set_executor(Executor::sequential());
            let mut singles = Vec::new();
            for i in 0..MAX_BATCH {
                let single = Tensor::from_vec(
                    pool.as_slice()[i * per..(i + 1) * per].to_vec(),
                    &[&[1][..], &in_dims].concat(),
                )
                .unwrap();
                let one = plan
                    .predict_probs_batch(&single, MC_SAMPLES, MC_SEED)
                    .unwrap();
                // Single-sample batched calls agree with the per-batch-mask
                // entry point (masks coincide at batch 1).
                let plain = plan.predict_probs(&single, MC_SAMPLES, MC_SEED).unwrap();
                assert_eq!(one.as_slice(), plain.as_slice(), "{model} {format} row {i}");
                singles.extend_from_slice(one.as_slice());
            }
            let classes = singles.len() / MAX_BATCH;

            for (name, exec) in [
                ("sequential", Executor::sequential()),
                ("threads(2)", Executor::new(2)),
                ("threads(3)", Executor::new(3)),
                ("threads(4)", Executor::new(4)),
            ] {
                let mut plan = calibrated.plan(format).unwrap();
                plan.set_executor(exec);
                for batch in [1usize, 2, 5, MAX_BATCH] {
                    let batched = plan
                        .predict_probs_batch(&rows(batch), MC_SAMPLES, MC_SEED)
                        .unwrap();
                    assert_eq!(
                        batched.as_slice(),
                        &singles[..batch * classes],
                        "{model} {format} on {name}, batch {batch}: \
                         batched != concat of single-sample calls"
                    );
                }
            }
        }
    }
}

/// Float-side batch-boundary invariance of the compiled [`MultiExitPlan`].
#[test]
fn float_batched_predict_matches_singles() {
    let network = small_lenet();
    let (inputs, singles) = batch_and_singles(4);
    let mut plan = network.compile_plan(&[1, 10, 10]).unwrap();
    let batched = plan
        .predict_probs_batch(&inputs, MC_SAMPLES, MC_SEED)
        .unwrap();
    let mut concat = Vec::new();
    for single in &singles {
        let one = plan
            .predict_probs_batch(single, MC_SAMPLES, MC_SEED)
            .unwrap();
        concat.extend_from_slice(one.as_slice());
    }
    assert_eq!(
        batched.as_slice(),
        &concat[..],
        "float batched != concat of single-sample calls"
    );
}

/// Plan-cache invalidation race: reader threads predicting through the
/// network's cached plan while a writer mutates weights via `params_mut`
/// must only ever observe the v0 (pre-mutation) or v1 (post-mutation)
/// prediction — a stale cached plan would produce a third value.
#[test]
fn cached_plan_invalidation_is_safe_under_concurrent_prediction() {
    use bayesnn_fpga::bayes::sampling::{McSampler, SamplingConfig};
    use bnn_nn::network::Network as _;
    use std::sync::{Arc, Mutex};

    let mutate = |net: &mut MultiExitNetwork| {
        let mut params = net.params_mut();
        params[0].value.as_mut_slice()[0] += 0.5;
    };
    let mut rng = Xoshiro256StarStar::seed_from_u64(23);
    let x = Tensor::randn(&[2, 1, 10, 10], &mut rng);
    let sampler = McSampler::new(SamplingConfig::new(4)).with_executor(Executor::new(2));

    // Reference predictions from fresh networks at both weight versions.
    let v0 = sampler.predict(&mut small_lenet(), &x).unwrap();
    let v1 = {
        let mut net = small_lenet();
        mutate(&mut net);
        sampler.predict(&mut net, &x).unwrap()
    };
    assert_ne!(v0.mean_probs.as_slice(), v1.mean_probs.as_slice());

    let shared = Arc::new(Mutex::new(small_lenet()));
    let observed: Vec<Vec<f32>> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let sampler = &sampler;
                let x = &x;
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    for _ in 0..8 {
                        let mut net = shared.lock().unwrap();
                        let pred = sampler.predict(&mut net, x).unwrap();
                        seen.push(pred.mean_probs.as_slice().to_vec());
                    }
                    seen
                })
            })
            .collect();
        // Let some reads land on v0, then mutate mid-flight.
        std::thread::sleep(Duration::from_millis(5));
        mutate(&mut shared.lock().unwrap());
        readers
            .into_iter()
            .flat_map(|r| r.join().unwrap())
            .collect()
    });
    for (i, probs) in observed.iter().enumerate() {
        assert!(
            probs[..] == *v0.mean_probs.as_slice() || probs[..] == *v1.mean_probs.as_slice(),
            "observation {i} matches neither the v0 nor the v1 prediction: stale plan"
        );
    }
    // After the race, the cache serves the mutated weights.
    let after = sampler.predict(&mut shared.lock().unwrap(), &x).unwrap();
    assert_eq!(after.mean_probs.as_slice(), v1.mean_probs.as_slice());
}

/// Serving determinism: one request stream, identical per-request outputs
/// under every batching config and worker count (and bit-exact with direct
/// single-sample plan calls), for every engine: the integer plan at 8.3, the
/// float LeNet-5 plan and the float ResNet-18 plan (batch norm and residual
/// merges).
#[test]
fn server_outputs_are_invariant_to_batching_and_workers() {
    let network = small_lenet();
    let mut rng = Xoshiro256StarStar::seed_from_u64(5);
    let calib = Tensor::randn(&[8, 1, 10, 10], &mut rng);
    let calibrated = CalibratedNetwork::calibrate(&network, &calib).unwrap();
    let mut plan = calibrated
        .plan(FixedPointFormat::new(8, 3).unwrap())
        .unwrap();
    plan.set_executor(Executor::sequential());
    let resnet = zoo::resnet18(
        &ModelConfig::cifar10()
            .with_resolution(12, 12)
            .with_width_divisor(16),
    )
    .with_exits_after_every_block()
    .unwrap()
    .with_exit_mcd(0.25)
    .unwrap()
    .build(3)
    .unwrap();

    // Six request samples per input shape.
    let request_pool = |in_dims: &[usize]| -> Vec<Vec<f32>> {
        let mut rng = Xoshiro256StarStar::seed_from_u64(41);
        let data = Tensor::randn(&[&[6][..], in_dims].concat(), &mut rng);
        let per = data.len() / 6;
        data.as_slice()
            .chunks_exact(per)
            .map(<[f32]>::to_vec)
            .collect()
    };
    let (lenet_dims, resnet_dims) = ([1, 10, 10], [3, 12, 12]);
    let lenet_pool = request_pool(&lenet_dims);
    let resnet_pool = request_pool(&resnet_dims);
    // Direct per-sample references through each engine's own plan.
    let reference =
        |pool: &[Vec<f32>], in_dims: &[usize], predict: &mut dyn FnMut(&Tensor) -> Tensor| {
            let dims = [&[1][..], in_dims].concat();
            pool.iter()
                .map(|s| {
                    predict(&Tensor::from_vec(s.clone(), &dims).unwrap())
                        .as_slice()
                        .to_vec()
                })
                .collect::<Vec<_>>()
        };
    let quant_reference = reference(&lenet_pool, &lenet_dims, &mut |x| {
        plan.predict_probs_batch(x, MC_SAMPLES, MC_SEED).unwrap()
    });
    let mut lenet_plan = network.compile_plan(&lenet_dims).unwrap();
    let lenet_reference = reference(&lenet_pool, &lenet_dims, &mut |x| {
        lenet_plan
            .predict_probs_batch(x, MC_SAMPLES, MC_SEED)
            .unwrap()
    });
    let mut resnet_plan = resnet.compile_plan(&resnet_dims).unwrap();
    let resnet_reference = reference(&resnet_pool, &resnet_dims, &mut |x| {
        resnet_plan
            .predict_probs_batch(x, MC_SAMPLES, MC_SEED)
            .unwrap()
    });
    let engines = [
        (
            "quant 8.3",
            Box::new(QuantEngine::new(plan)) as Box<dyn BatchEngine>,
            &lenet_pool,
            quant_reference,
        ),
        (
            "float lenet5",
            Box::new(FloatEngine::new(lenet_plan)),
            &lenet_pool,
            lenet_reference,
        ),
        (
            "float resnet18",
            Box::new(FloatEngine::new(resnet_plan)),
            &resnet_pool,
            resnet_reference,
        ),
    ];

    let configs = [
        (1usize, 1usize, Duration::ZERO),
        (2, 4, Duration::from_micros(500)),
        (3, 8, Duration::from_millis(2)),
    ];
    for (engine_name, engine, pool, reference) in &engines {
        for (workers, max_batch, max_delay) in configs {
            let server = InferenceServer::start(
                engine.fork(),
                ServerConfig {
                    workers,
                    max_batch,
                    max_delay,
                    mc_samples: MC_SAMPLES,
                    seed: MC_SEED,
                    policy: ExitPolicy::Never,
                    ..ServerConfig::default()
                },
            )
            .unwrap();
            let outcome = replay(
                &server,
                pool,
                &ReplayConfig {
                    requests: 48,
                    rate_per_sec: 50_000.0,
                    seed: 9,
                },
            )
            .unwrap();
            let stats = server.shutdown();
            assert_eq!(
                stats.completed, 48,
                "{engine_name}: every request must be served"
            );
            for (i, output) in outcome.outputs.iter().enumerate() {
                assert_eq!(
                    &output.probs[..],
                    &reference[i % pool.len()][..],
                    "{engine_name} workers={workers} max_batch={max_batch}: request {i} \
                     output depends on batch boundaries"
                );
            }
        }
    }
}
