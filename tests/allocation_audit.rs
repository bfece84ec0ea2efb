//! Allocation audit of the compiled execution plans: after a warm-up call
//! sizes the arena, planned integer prediction must perform **zero** heap
//! allocations per call (on a sequential executor — the row-shard fork/join
//! of `predict_probs_batch_into` allocates its scoped workers by design,
//! which is why this binary pins the plan to `Executor::sequential()`;
//! results are bitwise identical either way).
//!
//! This lives in its own integration-test binary because the counting
//! allocator is process-global.

use bayesnn_fpga::models::{zoo, ExitPolicy, ModelConfig};
use bayesnn_fpga::quant::{CalibratedNetwork, FixedPointFormat};
use bayesnn_fpga::tensor::exec::Executor;
use bayesnn_fpga::tensor::rng::Xoshiro256StarStar;
use bayesnn_fpga::tensor::Tensor;

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

/// The allocation counter is process-global, so the audits in this binary
/// must not run concurrently — each holds this lock while measuring.
static AUDIT_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn planned_predict_probs_is_allocation_free_after_warmup() {
    let _guard = AUDIT_LOCK.lock().unwrap();
    // The counter must be live: an ordinary allocation registers.
    let before = alloc_counter::allocation_count();
    let probe = vec![0u8; 4096];
    std::hint::black_box(&probe);
    assert!(
        alloc_counter::allocation_count() > before,
        "counting allocator is not installed"
    );

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
    let network = spec.build(3).unwrap();
    let mut rng = Xoshiro256StarStar::seed_from_u64(1);
    let calib = Tensor::randn(&[8, 1, 10, 10], &mut rng);
    let calibrated = CalibratedNetwork::calibrate(&network, &calib).unwrap();

    for format in [
        FixedPointFormat::new(8, 3).unwrap(),
        FixedPointFormat::new(16, 6).unwrap(),
    ] {
        let mut plan = calibrated.plan(format).unwrap();
        plan.set_executor(Executor::sequential());
        let inputs = Tensor::randn(&[4, 1, 10, 10], &mut rng);
        let mut out = Vec::new();

        // Warm-up: sizes every arena buffer (slots, im2col scratch,
        // accumulators, masks, softmax staging) and the output buffer.
        plan.predict_probs_into(&inputs, 6, 2023, &mut out).unwrap();
        let warm = out.clone();

        // Steady state: bit-identical result, zero allocations.
        let before = alloc_counter::allocation_count();
        plan.predict_probs_into(&inputs, 6, 2023, &mut out).unwrap();
        let allocations = alloc_counter::allocation_count() - before;
        assert_eq!(
            allocations, 0,
            "steady-state planned predict_probs allocated {allocations} time(s) ({format})"
        );
        assert_eq!(out, warm, "steady-state result must not drift ({format})");

        // A smaller batch stays inside the warmed arena too.
        let small = Tensor::randn(&[2, 1, 10, 10], &mut rng);
        plan.predict_probs_into(&small, 6, 2023, &mut out).unwrap();
        let before = alloc_counter::allocation_count();
        plan.predict_probs_into(&small, 6, 2023, &mut out).unwrap();
        assert_eq!(
            alloc_counter::allocation_count() - before,
            0,
            "smaller-batch steady state must not allocate ({format})"
        );
    }
}

/// The serving path's batched entry point gets the same guarantee: after
/// `ensure_batch(N)` and one warm-up call, `predict_probs_batch_into` at
/// batch N (and below) performs zero heap allocations — this is what lets
/// serving workers run allocation-free at their configured max batch.
#[test]
fn batched_predict_is_allocation_free_at_max_batch() {
    let _guard = AUDIT_LOCK.lock().unwrap();
    const MAX_BATCH: usize = 4;
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
    let network = spec.build(3).unwrap();
    let mut rng = Xoshiro256StarStar::seed_from_u64(9);
    let calib = Tensor::randn(&[8, 1, 10, 10], &mut rng);
    let calibrated = CalibratedNetwork::calibrate(&network, &calib).unwrap();

    for format in [
        FixedPointFormat::new(8, 3).unwrap(),
        FixedPointFormat::new(16, 6).unwrap(),
    ] {
        let mut plan = calibrated.plan(format).unwrap();
        plan.set_executor(Executor::sequential());
        plan.ensure_batch(MAX_BATCH);
        let inputs = Tensor::randn(&[MAX_BATCH, 1, 10, 10], &mut rng);
        let mut out = Vec::new();

        // Warm-up sizes the remaining per-call staging and the output.
        plan.predict_probs_batch_into(&inputs, 6, 2023, &mut out)
            .unwrap();
        let warm = out.clone();

        let before = alloc_counter::allocation_count();
        plan.predict_probs_batch_into(&inputs, 6, 2023, &mut out)
            .unwrap();
        let allocations = alloc_counter::allocation_count() - before;
        assert_eq!(
            allocations, 0,
            "steady-state batched predict allocated {allocations} time(s) ({format})"
        );
        assert_eq!(out, warm, "steady-state batched result drifted ({format})");

        // Partial batches — what the deadline-fired server path produces —
        // stay inside the arena sized for the max batch.
        let small = Tensor::randn(&[MAX_BATCH - 2, 1, 10, 10], &mut rng);
        plan.predict_probs_batch_into(&small, 6, 2023, &mut out)
            .unwrap();
        let before = alloc_counter::allocation_count();
        plan.predict_probs_batch_into(&small, 6, 2023, &mut out)
            .unwrap();
        assert_eq!(
            alloc_counter::allocation_count() - before,
            0,
            "partial-batch steady state must not allocate ({format})"
        );
    }
}

/// The adaptive early-exit path keeps the zero-allocation guarantee:
/// retirement scatters and survivor compaction run entirely inside the
/// arena (`acc`, `live_idx` and the frontier slot are all pre-sized by
/// `ensure_batch` + warm-up), so a mixed retire pattern — some rows out at
/// the first exit, stragglers compacted and served to full depth — costs
/// zero steady-state heap allocations.
#[test]
fn adaptive_batched_predict_is_allocation_free_after_warmup() {
    let _guard = AUDIT_LOCK.lock().unwrap();
    const MAX_BATCH: usize = 4;
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
    let network = spec.build(3).unwrap();
    let mut rng = Xoshiro256StarStar::seed_from_u64(17);
    let calib = Tensor::randn(&[8, 1, 10, 10], &mut rng);
    let calibrated = CalibratedNetwork::calibrate(&network, &calib).unwrap();

    for format in [
        FixedPointFormat::new(8, 3).unwrap(),
        FixedPointFormat::new(16, 6).unwrap(),
    ] {
        let mut plan = calibrated.plan(format).unwrap();
        plan.set_executor(Executor::sequential());
        plan.ensure_batch(MAX_BATCH);
        let inputs = Tensor::randn(&[MAX_BATCH, 1, 10, 10], &mut rng);
        let mut out = Vec::new();
        let mut exits = Vec::new();

        // Calibrate a threshold that yields a mixed retire pattern: the
        // midpoint of the batch's first-exit confidences retires some rows
        // at exit 0 and compacts the rest to full depth.
        let policy = {
            let probe = ExitPolicy::Confidence { threshold: 0.0 };
            plan.predict_adaptive_batch_into(&inputs, 6, 2023, &probe, &mut out, &mut exits)
                .unwrap();
            let classes = out.len() / MAX_BATCH;
            let confs: Vec<f32> = out
                .chunks_exact(classes)
                .map(|r| r.iter().copied().fold(f32::NEG_INFINITY, f32::max))
                .collect();
            let min = confs.iter().copied().fold(f32::INFINITY, f32::min);
            let max = confs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            assert!(min < max, "probe confidences are degenerate ({format})");
            ExitPolicy::Confidence {
                threshold: f64::from((min + max) / 2.0),
            }
        };

        // Warm-up sizes the staging, output and exit buffers.
        plan.predict_adaptive_batch_into(&inputs, 6, 2023, &policy, &mut out, &mut exits)
            .unwrap();
        let warm = out.clone();
        let warm_exits = exits.clone();
        assert!(
            warm_exits.contains(&0) && warm_exits.iter().any(|&e| e != 0),
            "retire pattern must be mixed for a meaningful audit ({format}): {warm_exits:?}"
        );

        let before = alloc_counter::allocation_count();
        plan.predict_adaptive_batch_into(&inputs, 6, 2023, &policy, &mut out, &mut exits)
            .unwrap();
        let allocations = alloc_counter::allocation_count() - before;
        assert_eq!(
            allocations, 0,
            "steady-state adaptive predict allocated {allocations} time(s) ({format})"
        );
        assert_eq!(out, warm, "steady-state adaptive result drifted ({format})");
        assert_eq!(
            exits, warm_exits,
            "steady-state exit choices drifted ({format})"
        );

        // Partial batches stay inside the warmed arena too.
        let small = Tensor::randn(&[MAX_BATCH - 2, 1, 10, 10], &mut rng);
        plan.predict_adaptive_batch_into(&small, 6, 2023, &policy, &mut out, &mut exits)
            .unwrap();
        let before = alloc_counter::allocation_count();
        plan.predict_adaptive_batch_into(&small, 6, 2023, &policy, &mut out, &mut exits)
            .unwrap();
        assert_eq!(
            alloc_counter::allocation_count() - before,
            0,
            "partial-batch adaptive steady state must not allocate ({format})"
        );
    }
}

/// The float plan keeps the same guarantee on a plain conv net and on a
/// batch-norm residual net: after `ensure_batch` and one warm-up call, the
/// fixed-depth and the adaptive (mixed retire pattern) batched entry points
/// perform zero heap allocations, at the max batch and below. The batches
/// stay below the kernels' parallel thresholds, so every kernel runs inline
/// and the calling thread's count is the whole story (the harness allocates
/// on its own threads while this audit measures).
#[test]
fn float_plan_predict_is_allocation_free_after_warmup() {
    let _guard = AUDIT_LOCK.lock().unwrap();
    const MAX_BATCH: usize = 4;
    let lenet = zoo::lenet5(
        &ModelConfig::mnist()
            .with_resolution(10, 10)
            .with_width_divisor(8)
            .with_classes(4),
    );
    let resnet = zoo::resnet18(
        &ModelConfig::cifar10()
            .with_resolution(12, 12)
            .with_width_divisor(16),
    );
    let mut rng = Xoshiro256StarStar::seed_from_u64(23);
    for (spec, in_dims) in [(lenet, [1, 10, 10]), (resnet, [3, 12, 12])] {
        let network = spec
            .with_exits_after_every_block()
            .unwrap()
            .with_exit_mcd(0.25)
            .unwrap()
            .build(3)
            .unwrap();
        let name = network.spec().name.clone();
        let mut plan = network.compile_plan(&in_dims).unwrap();
        plan.ensure_batch(MAX_BATCH);
        let shape = |batch: usize| [batch, in_dims[0], in_dims[1], in_dims[2]];
        let inputs = Tensor::randn(&shape(MAX_BATCH), &mut rng);
        let small = Tensor::randn(&shape(MAX_BATCH - 2), &mut rng);
        let mut out = Vec::new();
        let mut exits = Vec::new();

        // Fixed depth: warm up, then the same bits with zero allocations.
        for x in [&inputs, &small] {
            plan.predict_probs_batch_into(x, 6, 2023, &mut out).unwrap();
            let warm = out.clone();
            let before = alloc_counter::thread_allocation_count();
            plan.predict_probs_batch_into(x, 6, 2023, &mut out).unwrap();
            let allocations = alloc_counter::thread_allocation_count() - before;
            assert_eq!(
                allocations, 0,
                "{name}: steady-state float predict allocated {allocations} time(s)"
            );
            assert_eq!(out, warm, "{name}: steady-state float result drifted");
        }

        // Adaptive: the midpoint of the batch's first-exit confidences
        // retires some rows at exit 0 and compacts the rest.
        let probe = ExitPolicy::Confidence { threshold: 0.0 };
        plan.predict_adaptive_batch_into(&inputs, 6, 2023, &probe, &mut out, &mut exits)
            .unwrap();
        let confs: Vec<f32> = out
            .chunks_exact(out.len() / MAX_BATCH)
            .map(|r| r.iter().copied().fold(f32::NEG_INFINITY, f32::max))
            .collect();
        let min = confs.iter().copied().fold(f32::INFINITY, f32::min);
        let max = confs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        assert!(min < max, "{name}: probe confidences are degenerate");
        let policy = ExitPolicy::Confidence {
            threshold: f64::from((min + max) / 2.0),
        };
        for x in [&inputs, &small] {
            plan.predict_adaptive_batch_into(x, 6, 2023, &policy, &mut out, &mut exits)
                .unwrap();
            let (warm, warm_exits) = (out.clone(), exits.clone());
            let before = alloc_counter::thread_allocation_count();
            plan.predict_adaptive_batch_into(x, 6, 2023, &policy, &mut out, &mut exits)
                .unwrap();
            let allocations = alloc_counter::thread_allocation_count() - before;
            assert_eq!(
                allocations, 0,
                "{name}: steady-state float adaptive predict allocated {allocations} time(s)"
            );
            assert_eq!(out, warm, "{name}: steady-state adaptive result drifted");
            assert_eq!(
                exits, warm_exits,
                "{name}: steady-state exit choices drifted"
            );
        }
        plan.predict_adaptive_batch_into(&inputs, 6, 2023, &policy, &mut out, &mut exits)
            .unwrap();
        assert!(
            exits.contains(&0) && exits.iter().any(|&e| e != 0),
            "{name}: retire pattern must be mixed for a meaningful audit: {exits:?}"
        );
    }
}
