//! SIMD/scalar parity suite: every vector backend the host can run must
//! reproduce the scalar reference **bitwise** — for the packed matmul
//! kernels, the requantize row helpers and the im2row fill, across odd
//! shapes (remainder rows/columns, single-row and single-column products)
//! and thread counts, and end to end through the quantized inference plans
//! for every format in the paper's search space `{4, 6, 8, 16}`.
//!
//! Backends are forced through the process-global override
//! (`bnn_tensor::simd::set_backend_override`), so the scalar kernels stay
//! exercised on AVX2 hosts and the suite degrades gracefully on machines
//! with nothing but scalar (each sweep then compares scalar to itself).

use bayesnn_fpga::tensor::exec::Executor;
use bayesnn_fpga::tensor::int::{
    im2row_i16_into, matmul_abt_i64_into, matmul_wide_i32_into, requantize_i32_row_biased_into,
    requantize_i32_row_into, requantize_i64_row_biased_into, requantize_i64_row_into,
};
use bayesnn_fpga::tensor::linalg::ConvGeometry;
use bayesnn_fpga::tensor::rng::{Rng, Xoshiro256StarStar};
use bayesnn_fpga::tensor::simd::{available_backends, set_backend_override, Backend};
use std::sync::Mutex;

/// The backend override is process-global; every test in this binary takes
/// this lock so forced selections never bleed across threads.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` once per available backend (scalar included) with that backend
/// forced, handing it the scalar result of `reference` to compare against.
/// The override is always released, even if an assertion fires.
fn for_each_backend(mut f: impl FnMut(Backend)) {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            set_backend_override(None);
        }
    }
    let _reset = Reset;
    for backend in available_backends() {
        set_backend_override(Some(backend));
        f(backend);
    }
}

fn codes_i8_range(n: usize, rng: &mut Xoshiro256StarStar) -> Vec<i16> {
    (0..n)
        .map(|_| (rng.next_u64() % 255) as i8 as i16)
        .collect()
}

fn codes_i16(n: usize, rng: &mut Xoshiro256StarStar) -> Vec<i16> {
    (0..n).map(|_| rng.next_u64() as i16).collect()
}

/// Odd shapes: remainder rows against the 8/4-row register blocks,
/// remainder columns against the vector width, single-row and single-column
/// products, and a `k` spanning several vector strides plus a scalar tail.
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 7, 1),
    (1, 40, 33),
    (2, 1, 5),
    (3, 16, 5),
    (5, 37, 1),
    (8, 33, 9),
    (9, 129, 2),
    (13, 40, 17),
];

#[test]
fn matmul_kernels_match_scalar_bitwise_across_backends_and_threads() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(41);
    for &(m, k, n) in SHAPES {
        let a8 = codes_i8_range(m * k, &mut rng);
        let bt8 = codes_i8_range(n * k, &mut rng);
        let a16 = codes_i16(m * k, &mut rng);
        let bt16 = codes_i16(n * k, &mut rng);
        for threads in [1usize, 4] {
            let exec = Executor::new(threads);
            let mut reference32 = vec![0i32; m * n];
            let mut reference64 = vec![0i64; m * n];
            {
                let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
                set_backend_override(Some(Backend::Scalar));
                matmul_wide_i32_into(&exec, &a8, &bt8, m, k, n, &mut reference32).unwrap();
                matmul_abt_i64_into(&exec, &a16, &bt16, m, k, n, &mut reference64).unwrap();
                set_backend_override(None);
            }
            for_each_backend(|backend| {
                let mut got32 = vec![0i32; m * n];
                matmul_wide_i32_into(&exec, &a8, &bt8, m, k, n, &mut got32).unwrap();
                assert_eq!(
                    got32, reference32,
                    "wide_i32 {m}x{k}x{n} threads={threads} backend={backend:?}"
                );
                let mut got64 = vec![0i64; m * n];
                matmul_abt_i64_into(&exec, &a16, &bt16, m, k, n, &mut got64).unwrap();
                assert_eq!(
                    got64, reference64,
                    "abt_i64 {m}x{k}x{n} threads={threads} backend={backend:?}"
                );
            });
        }
    }
}

#[test]
fn transposed_i16_matmul_matches_naive_reference() {
    // Pin the abt i64 kernel to a naive triple loop over the untransposed
    // operands, so the transposed layout itself is verified, not just
    // backend-vs-backend consistency.
    let mut rng = Xoshiro256StarStar::seed_from_u64(43);
    for &(m, k, n) in SHAPES {
        let a = codes_i16(m * k, &mut rng);
        let b = codes_i16(k * n, &mut rng);
        let mut naive = vec![0i64; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i64;
                for p in 0..k {
                    acc += a[i * k + p] as i64 * b[p * n + j] as i64;
                }
                naive[i * n + j] = acc;
            }
        }
        let mut bt = vec![0i16; n * k];
        for p in 0..k {
            for j in 0..n {
                bt[j * k + p] = b[p * n + j];
            }
        }
        for_each_backend(|backend| {
            let mut got = vec![0i64; m * n];
            matmul_abt_i64_into(&Executor::sequential(), &a, &bt, m, k, n, &mut got).unwrap();
            assert_eq!(got, naive, "{m}x{k}x{n} backend={backend:?}");
        });
    }
}

#[test]
fn requantize_rows_match_scalar_bitwise_across_backends() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(47);
    let len = 163; // several vector strides plus a ragged tail
    let acc32: Vec<i32> = (0..len).map(|_| rng.next_u64() as i32 >> 8).collect();
    let acc64: Vec<i64> = (0..len).map(|_| rng.next_u64() as i64 >> 16).collect();
    let biases: Vec<i64> = (0..len)
        .map(|_| (rng.next_u64() % 4096) as i64 - 2048)
        .collect();
    // Shift 0, mid-range shifts, a shift past every accumulator bit, and a
    // negative (scale-up) shift that must take the scalar fallback; bounds
    // include narrow 4-bit-style ranges and the full i16 storage range.
    for shift in [0i32, 1, 7, 13, 40, -2] {
        for (qmin, qmax) in [
            (-128i64, 127i64),
            (-8, 7),
            (i16::MIN as i64, i16::MAX as i64),
        ] {
            let mut reference32 = vec![0i16; len];
            let mut reference64 = vec![0i16; len];
            let mut ref32b = vec![0i16; len];
            let mut ref64b = vec![0i16; len];
            {
                let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
                set_backend_override(Some(Backend::Scalar));
                requantize_i32_row_into(&acc32, 77, shift, qmin, qmax, &mut reference32);
                requantize_i64_row_into(&acc64, -129, shift, qmin, qmax, &mut reference64);
                requantize_i32_row_biased_into(&acc32, &biases, shift, qmin, qmax, &mut ref32b);
                requantize_i64_row_biased_into(&acc64, &biases, shift, qmin, qmax, &mut ref64b);
                set_backend_override(None);
            }
            for_each_backend(|backend| {
                let ctx = format!("shift={shift} bounds=({qmin},{qmax}) backend={backend:?}");
                let mut got = vec![0i16; len];
                requantize_i32_row_into(&acc32, 77, shift, qmin, qmax, &mut got);
                assert_eq!(got, reference32, "i32 row {ctx}");
                requantize_i64_row_into(&acc64, -129, shift, qmin, qmax, &mut got);
                assert_eq!(got, reference64, "i64 row {ctx}");
                requantize_i32_row_biased_into(&acc32, &biases, shift, qmin, qmax, &mut got);
                assert_eq!(got, ref32b, "i32 biased row {ctx}");
                requantize_i64_row_biased_into(&acc64, &biases, shift, qmin, qmax, &mut got);
                assert_eq!(got, ref64b, "i64 biased row {ctx}");
            });
        }
    }
}

#[test]
fn im2row_matches_scalar_bitwise_across_backends() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(53);
    // (kernel, stride, padding) over a non-square input: padded, unpadded,
    // strided, 1x1, and a kernel wider than the padding.
    let cases = [
        (3usize, 1usize, 1usize),
        (3, 2, 0),
        (1, 1, 0),
        (5, 1, 2),
        (4, 3, 1),
    ];
    let (batch, channels, in_h, in_w) = (2usize, 3usize, 9usize, 7usize);
    let input = codes_i16(batch * channels * in_h * in_w, &mut rng);
    for (kernel, stride, padding) in cases {
        let geom = ConvGeometry::square(in_h, in_w, kernel, stride, padding);
        let mut reference = Vec::new();
        let ref_shape;
        {
            let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            set_backend_override(Some(Backend::Scalar));
            ref_shape = im2row_i16_into(&input, batch, channels, &geom, &mut reference).unwrap();
            set_backend_override(None);
        }
        for_each_backend(|backend| {
            let mut got = Vec::new();
            let shape = im2row_i16_into(&input, batch, channels, &geom, &mut got).unwrap();
            assert_eq!(shape, ref_shape);
            assert_eq!(
                got, reference,
                "kernel={kernel} stride={stride} pad={padding} backend={backend:?}"
            );
        });
    }
}

#[test]
fn quantized_plans_are_backend_invariant_across_formats() {
    use bayesnn_fpga::models::{zoo, ModelConfig};
    use bayesnn_fpga::quant::{CalibratedNetwork, FixedPointFormat};
    use bayesnn_fpga::tensor::Tensor;

    // A small multi-exit LeNet-5 (random weights suffice: parity is about
    // arithmetic, not accuracy) calibrated on random images.
    let model_cfg = ModelConfig::mnist()
        .with_resolution(10, 10)
        .with_width_divisor(8)
        .with_classes(4);
    let network = zoo::lenet5(&model_cfg)
        .with_exits_after_every_block()
        .unwrap()
        .with_exit_mcd(0.25)
        .unwrap()
        .build(9)
        .unwrap();
    let mut rng = Xoshiro256StarStar::seed_from_u64(59);
    let calib = Tensor::randn(&[12, 1, 10, 10], &mut rng);
    let images = Tensor::randn(&[5, 1, 10, 10], &mut rng);
    let calibrated = CalibratedNetwork::calibrate(&network, &calib).unwrap();

    for format in FixedPointFormat::search_space() {
        let mut plan = calibrated.plan(format).unwrap();
        let reference;
        {
            let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            set_backend_override(Some(Backend::Scalar));
            reference = plan.predict_probs(&images, 8, 2023).unwrap();
            set_backend_override(None);
        }
        for_each_backend(|backend| {
            let got = plan.predict_probs(&images, 8, 2023).unwrap();
            assert_eq!(
                got.as_slice(),
                reference.as_slice(),
                "{format} backend={backend:?}"
            );
        });
    }
}
