//! `score_resnet18`: closed-loop offline scoring of a deep conv plan.
//!
//! ResNet-18 at CIFAR-10 geometry (32x32, width/8, an exit after every
//! block, MC dropout 0.3), calibrated and compiled to an 8.3 `QuantPlan` on
//! its default executor, scores a seeded synthetic CIFAR-like set in
//! batches of [`BATCH`] at fixed depth with [`MC_SAMPLES`] MC samples. The
//! integer kernels and the executor do the work; `bnn-serve` does nothing.
//! Every output row is checked against a single-sample plan call, and a few
//! against the independent `HlsSimulator`.

use crate::host::CpuClock;
use crate::report::Report;
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use crate::{Args, Error, SETUP_REPEATS};
use bnn_data::{DatasetSpec, SyntheticConfig};
use bnn_hls::HlsSimulator;
use bnn_models::{zoo, ModelConfig};
use bnn_quant::{CalibratedNetwork, FixedPointFormat, QuantPlan};
use bnn_tensor::rng::stream_seed;
use bnn_tensor::Tensor;
use std::time::Instant;

/// Rows per scoring call.
pub const BATCH: usize = 32;
/// Distinct batches the run cycles through.
const BATCHES: usize = 2;
/// Calibration samples.
const CALIB: usize = 32;
/// MC samples per row.
pub const MC_SAMPLES: usize = 8;
/// Master seed of the MC mask streams.
pub const MC_SEED: u64 = 2023;
/// Weight-initialisation seed of the network.
const MODEL_SEED: u64 = 11;
/// Inputs re-checked against the HLS simulator after the run.
const HLS_CHECKS: usize = 2;

struct Fixture {
    plan: QuantPlan,
    batches: Vec<Tensor>,
    /// Single-sample reference row of every input, batch-major.
    expected: Vec<Vec<f32>>,
    calibrate_s: f64,
    compile_s: f64,
}

/// A `[1, ..]` tensor of input `i` of `batch`.
fn single(batch: &Tensor, i: usize) -> Result<Tensor, Error> {
    let per = batch.len() / batch.dims()[0];
    let mut dims = batch.dims().to_vec();
    dims[0] = 1;
    Ok(Tensor::from_vec(
        batch.as_slice()[i * per..(i + 1) * per].to_vec(),
        &dims,
    )?)
}

impl Fixture {
    fn build(seed: u64, tracer: &mut Option<Tracer>) -> Result<Fixture, Error> {
        let spec = zoo::resnet18(&ModelConfig::cifar10().with_width_divisor(8))
            .with_exits_after_every_block()?
            .with_exit_mcd(0.3)?;
        let net = spec.build(MODEL_SEED)?;
        let data = SyntheticConfig::new(DatasetSpec::cifar10_like())
            .with_samples(CALIB, BATCH * BATCHES)
            .generate(stream_seed(seed, 1))?;

        let t = Instant::now();
        let calibrated = CalibratedNetwork::calibrate(&net, data.train.inputs())?;
        let calibrated_at = Instant::now();
        let mut plan = calibrated.plan(FixedPointFormat::new(8, 3)?)?;
        let compiled_at = Instant::now();
        if let Some(tr) = tracer.as_mut() {
            tr.record("quant.calibrate", t, calibrated_at, None, None, 1);
            tr.record("quant.compile", calibrated_at, compiled_at, None, None, 1);
        }

        let per: usize = plan.in_dims().iter().product();
        let mut dims = vec![BATCH];
        dims.extend_from_slice(plan.in_dims());
        let batches = data
            .test
            .inputs()
            .as_slice()
            .chunks_exact(BATCH * per)
            .map(|c| Tensor::from_vec(c.to_vec(), &dims))
            .collect::<Result<Vec<_>, _>>()?;
        let mut expected = Vec::with_capacity(BATCH * BATCHES);
        let mut out = Vec::new();
        for batch in &batches {
            for i in 0..BATCH {
                plan.predict_probs_batch_into(&single(batch, i)?, MC_SAMPLES, MC_SEED, &mut out)?;
                expected.push(out.clone());
            }
        }
        // Warm the arena at the scoring batch size.
        plan.predict_probs_batch_into(&batches[0], MC_SAMPLES, MC_SEED, &mut out)?;
        Ok(Fixture {
            plan,
            batches,
            expected,
            calibrate_s: (calibrated_at - t).as_secs_f64(),
            compile_s: (compiled_at - calibrated_at).as_secs_f64(),
        })
    }

    /// Whether `out` holds exactly the reference rows of batch `b`.
    fn rows_match(&self, b: usize, out: &[f32]) -> bool {
        let classes = out.len() / BATCH;
        out.len() == BATCH * classes
            && out.chunks_exact(classes).enumerate().all(|(i, row)| {
                let want = &self.expected[b * BATCH + i];
                row.len() == want.len()
                    && row
                        .iter()
                        .zip(want)
                        .all(|(a, w)| a.to_bits() == w.to_bits())
            })
    }

    /// The HLS golden simulator agrees with the reference rows on the
    /// first [`HLS_CHECKS`] inputs.
    fn hls_agrees(&self) -> Result<bool, Error> {
        let mut sim = HlsSimulator::new(self.plan.schedule());
        for i in 0..HLS_CHECKS {
            let probs = sim.predict_probs(&single(&self.batches[0], i)?, MC_SAMPLES, MC_SEED)?;
            let want = &self.expected[i];
            if probs.len() != want.len()
                || probs
                    .as_slice()
                    .iter()
                    .zip(want)
                    .any(|(a, w)| a.to_bits() != w.to_bits())
            {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// One scoring pass: calls over the cycled batches for `seconds`.
struct Pass {
    call_s: Vec<f64>,
    wrong: u64,
    window_s: f64,
    cpu_util: f64,
}

fn score(fx: &mut Fixture, seconds: f64, mut tracer: Option<&mut Tracer>) -> Result<Pass, Error> {
    let mut out = Vec::new();
    let mut pass = Pass {
        call_s: Vec::new(),
        wrong: 0,
        window_s: 0.0,
        cpu_util: 0.0,
    };
    let clock = CpuClock::start();
    let start = Instant::now();
    while pass.call_s.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let b = pass.call_s.len() % fx.batches.len();
        let t = Instant::now();
        fx.plan
            .predict_probs_batch_into(&fx.batches[b], MC_SAMPLES, MC_SEED, &mut out)?;
        let done = Instant::now();
        pass.call_s.push((done - t).as_secs_f64());
        if let Some(tr) = tracer.as_deref_mut() {
            let id = pass.call_s.len() as u64 - 1;
            tr.record("quant.predict_batch", t, done, None, Some(id), BATCH as u32);
        }
        if !fx.rows_match(b, &out) {
            pass.wrong += 1;
        }
    }
    pass.window_s = start.elapsed().as_secs_f64();
    pass.cpu_util = clock.utilisation();
    Ok(pass)
}

/// Runs the scoring workload.
pub fn run(args: &Args) -> Result<Report, Error> {
    let mut report = Report::default();
    let mut tracer = args.trace.then(Tracer::new);
    let (mut setup_s, mut calibrate_s, mut compile_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut fixture = None;
    for _ in 0..SETUP_REPEATS {
        drop(fixture.take());
        let start = Instant::now();
        let fx = Fixture::build(args.seed, &mut tracer)?;
        setup_s.push(start.elapsed().as_secs_f64());
        calibrate_s.push(fx.calibrate_s);
        compile_s.push(fx.compile_s);
        fixture = Some(fx);
    }
    let mut fx = fixture.expect("at least one set-up");

    let plain = score(&mut fx, args.seconds, None)?;
    let calls = Summary::of(plain.call_s.iter().map(|s| s * 1e3).collect());
    report.attempted = plain.call_s.len() as u64;
    report.failed = plain.wrong;
    report.metric("p50_ms", calls.p50);
    report.metric("p90_ms", calls.p90);
    report.metric("ops_per_s", plain.call_s.len() as f64 / plain.window_s);
    report.metric("setup_s", stats::median(&setup_s));
    report.check("HLS simulator agrees", fx.hls_agrees()?);

    if let Some(tr) = tracer.as_mut() {
        let traced = score(&mut fx, args.seconds, Some(tr))?;
        report.check("traced rows", traced.wrong == 0);
        let ops = fx.plan.fixed_cost(BATCH, MC_SAMPLES).1 as f64;
        let busy: f64 = traced.call_s.iter().sum();
        report.metric("quant.batch_ms", stats::median(&traced.call_s) * 1e3);
        report.metric("quant.gops", ops * traced.call_s.len() as f64 / busy / 1e9);
        report.metric("quant.cpu_util", traced.cpu_util);
        report.metric("quant.calibrate_ms", stats::median(&calibrate_s) * 1e3);
        report.metric("quant.compile_ms", stats::median(&compile_s) * 1e3);
        let per_call = |p: &Pass| p.window_s / p.call_s.len() as f64;
        report.metric("trace.overhead", per_call(&traced) / per_call(&plain));
    }

    report.fact("batch", BATCH);
    report.fact("mc_samples", MC_SAMPLES);
    report.fact(
        "samples_per_s",
        BATCH as f64 * plain.call_s.len() as f64 / plain.window_s,
    );
    report.fact("cpu_util", plain.cpu_util);
    report.fact("calls", calls.n);
    report.fact("p90_samples_beyond", calls.beyond(90.0));
    if let Some(t) = calls.tail {
        report.fact("tail_percentile", t.q);
        report.fact("tail_ms", t.value);
        report.fact("tail_samples_beyond", t.beyond);
    }
    report.fact("hls_checked_inputs", HLS_CHECKS);
    if let Some(tr) = tracer {
        crate::write_trace(args, &tr, &mut report);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_row_fails_the_check() {
        let fx = Fixture {
            plan: tiny(),
            batches: Vec::new(),
            expected: vec![vec![0.5, 0.5]; BATCH],
            calibrate_s: 0.0,
            compile_s: 0.0,
        };
        let mut out = vec![0.5f32; BATCH * 2];
        assert!(fx.rows_match(0, &out));
        out[2 * 7 + 1] = f32::from_bits(0.5f32.to_bits() + 1);
        assert!(!fx.rows_match(0, &out));
        assert!(!fx.rows_match(0, &out[..BATCH]));
    }

    fn tiny() -> QuantPlan {
        let spec = zoo::resnet18(
            &ModelConfig::cifar10()
                .with_resolution(8, 8)
                .with_width_divisor(16),
        )
        .with_exits_after_every_block()
        .unwrap()
        .with_exit_mcd(0.3)
        .unwrap();
        let net = spec.build(1).unwrap();
        let data = SyntheticConfig::new(DatasetSpec::cifar10_like().with_resolution(8, 8))
            .with_samples(4, 4)
            .generate(1)
            .unwrap();
        CalibratedNetwork::calibrate(&net, data.train.inputs())
            .unwrap()
            .plan(FixedPointFormat::new(8, 3).unwrap())
            .unwrap()
    }
}
