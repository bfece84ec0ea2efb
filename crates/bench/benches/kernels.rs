//! Criterion micro-benches of the core computational kernels: convolution
//! forward pass, multi-exit MC-dropout prediction and calibration metrics.

use bnn_bayes::metrics::expected_calibration_error;
use bnn_bayes::sampling::{McSampler, SamplingConfig};
use bnn_models::{zoo, ModelConfig};
use bnn_nn::layer::Mode;
use bnn_nn::layers::conv2d::Conv2d;
use bnn_nn::Layer;
use bnn_quant::{CalibratedNetwork, FixedPointFormat};
use bnn_tensor::exec::Executor;
use bnn_tensor::int::{
    im2row_i16_into, matmul_abt_i64_into, matmul_wide_i32_into, requantize_i32_row_into,
};
use bnn_tensor::linalg::{im2col, matmul, ConvGeometry};
use bnn_tensor::rng::{Rng, Xoshiro256StarStar};
use bnn_tensor::Tensor;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    group.sample_size(20);

    let mut rng = Xoshiro256StarStar::seed_from_u64(1);

    // Above the parallel threshold: exercises the executor's row-block split
    // (thread count via BNN_THREADS; results are identical either way).
    let ma = Tensor::randn(&[256, 256], &mut rng);
    let mb = Tensor::randn(&[256, 256], &mut rng);
    group.bench_function("matmul_256x256x256", |b| {
        b.iter(|| matmul(&ma, &mb).unwrap())
    });

    // The integer matmuls the compiled plans run, on the same shape with
    // pre-packed operands (`b` transposed, codes widened to i16 — the layout
    // plans pack once at compile time) and the plans' inline executor:
    // 8-bit-format codes with i32 accumulation, and 16-bit-format codes with
    // i64. Phase 3 scores every format on these kernels.
    let seq = Executor::sequential();
    let qa: Vec<i16> = (0..256 * 256)
        .map(|_| (rng.next_u64() % 255) as i8 as i16)
        .collect();
    let qbt: Vec<i16> = (0..256 * 256)
        .map(|_| (rng.next_u64() % 255) as i8 as i16)
        .collect();
    let mut acc32 = vec![0i32; 256 * 256];
    group.bench_function("matmul_i8_256x256x256", |b| {
        b.iter(|| matmul_wide_i32_into(&seq, &qa, &qbt, 256, 256, 256, &mut acc32).unwrap())
    });
    let wa: Vec<i16> = qa.iter().map(|&v| v * 97).collect();
    let wbt: Vec<i16> = qbt.iter().map(|&v| v * 97).collect();
    let mut acc64 = vec![0i64; 256 * 256];
    group.bench_function("matmul_i16_256x256x256", |b| {
        b.iter(|| matmul_abt_i64_into(&seq, &wa, &wbt, 256, 256, 256, &mut acc64).unwrap())
    });

    // The requantize epilogue over one output row (shift + saturate into i16
    // codes) and the i16 im2row fill of the planned conv — both dispatch to
    // the runtime SIMD backend.
    let acc: Vec<i32> = (0..4096).map(|_| rng.next_u64() as i32 >> 8).collect();
    let mut requant_out = vec![0i16; 4096];
    group.bench_function("requantize_row_4096", |b| {
        b.iter(|| requantize_i32_row_into(&acc, 321, 7, -128, 127, &mut requant_out))
    });
    let im2row_geom = ConvGeometry::square(16, 16, 3, 1, 1);
    let codes: Vec<i16> = (0..4 * 16 * 16 * 16)
        .map(|_| (rng.next_u64() % 255) as i8 as i16)
        .collect();
    let mut packed = Vec::new();
    group.bench_function("im2row_i16_4x16x16x16", |b| {
        b.iter(|| im2row_i16_into(&codes, 4, 16, &im2row_geom, &mut packed).unwrap())
    });

    let mut conv = Conv2d::new(16, 32, 3, 1, 1, 0).unwrap();
    let input = Tensor::randn(&[4, 16, 16, 16], &mut rng);
    group.bench_function("conv2d_forward_4x16x16x16", |b| {
        b.iter(|| conv.forward(&input, Mode::Eval).unwrap())
    });

    // The two halves of the forward pass, timed separately.
    let geom = ConvGeometry::square(16, 16, 3, 1, 1);
    group.bench_function("im2col_4x16x16x16", |b| {
        b.iter(|| im2col(&input, &geom).unwrap())
    });
    let cols = im2col(&input, &geom).unwrap();
    let w2d = Tensor::randn(&[32, 144], &mut rng);
    group.bench_function("matmul_32x144x1024", |b| {
        b.iter(|| matmul(&w2d, &cols).unwrap())
    });

    // Covers the slice-based layout reorders on both sides of the im2col
    // matmul (forward output reorder + backward gradient reorder).
    let out = conv.forward(&input, Mode::Train).unwrap();
    let grad_out = Tensor::ones(out.dims());
    group.bench_function("conv2d_backward_4x16x16x16", |b| {
        b.iter(|| conv.backward(&grad_out).unwrap())
    });

    let spec = zoo::lenet5(
        &ModelConfig::mnist()
            .with_resolution(12, 12)
            .with_width_divisor(4),
    )
    .with_exits_after_every_block()
    .unwrap()
    .with_exit_mcd(0.25)
    .unwrap();
    let mut network = spec.build(3).unwrap();
    let images = Tensor::randn(&[8, 1, 12, 12], &mut rng);
    let sampler = McSampler::new(SamplingConfig::new(8));
    group.bench_function("mc_predict_8_samples_batch8", |b| {
        b.iter(|| sampler.predict(&mut network, &images).unwrap())
    });

    // Integer MC prediction on the 8-bit quick-demo LeNet — the Phase 3 hot
    // loop on the compiled plan (packed weights, arena-allocated
    // intermediates).
    let calib = Tensor::randn(&[8, 1, 12, 12], &mut rng);
    let calibrated = CalibratedNetwork::calibrate(&network, &calib).unwrap();
    let fmt8 = FixedPointFormat::new(8, 3).unwrap();
    let mut plan = calibrated.plan(fmt8).unwrap();
    group.bench_function("quantized_predict_lenet5_8bit", |b| {
        b.iter(|| plan.predict_probs(&images, 8, 2023).unwrap())
    });
    // Compile costs: the one-off calibration forward and per-format plan
    // derivation Phase 3 amortises across its (format, reuse) grid.
    group.bench_function("quantized_plan_compile_8bit", |b| {
        b.iter(|| calibrated.plan(fmt8).unwrap())
    });

    let n = 512;
    let classes = 10;
    let mut probs = vec![0.0f32; n * classes];
    for row in probs.chunks_mut(classes) {
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = rng.next_f32() + 1e-3;
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    let probs = Tensor::from_vec(probs, &[n, classes]).unwrap();
    let labels: Vec<usize> = (0..n).map(|i| i % classes).collect();
    group.bench_function("ece_512x10", |b| {
        b.iter(|| expected_calibration_error(&probs, &labels, 15).unwrap())
    });

    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
