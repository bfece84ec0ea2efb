//! `design_resnet18`: a hardware designer's turnaround, the quick-demo
//! ResNet-18 configuration through all four pipeline stages.
//!
//! Each repeat runs `Phase1Stage::run` through `Phase4Stage::run` on one
//! context. Phase 1 trains and MC-evaluates the four candidate variants in
//! float (BN and residual layers), phase 3 searches fixed-point formats on
//! integer plans, phases 2 and 4 are analytic. The workload seed sets the
//! exploration's data and training seeds; every repeat of a run must reach
//! the identical outcome.

use crate::host::CpuClock;
use crate::report::Report;
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use crate::{Args, Error, SETUP_REPEATS};
use bnn_bayes::sampling::{McSampler, SamplingConfig};
use bnn_core::phase1::train_spec;
use bnn_core::pipeline::PipelineContext;
use bnn_core::{
    FrameworkConfig, Phase1Stage, Phase2Stage, Phase3Stage, Phase4Artifact, Phase4Stage,
};
use bnn_models::zoo::Architecture;
use bnn_tensor::rng::stream_seed;
use std::time::Instant;

/// Repeats a run makes at least, so the outcomes can be compared.
const MIN_REPEATS: usize = 2;

/// The four stages on one context.
struct Pipeline {
    config: FrameworkConfig,
    ctx: PipelineContext,
    p1: Phase1Stage,
    p2: Phase2Stage,
    p3: Phase3Stage,
    p4: Phase4Stage,
}

impl Pipeline {
    /// Builds and validates the context and the stages, and generates the
    /// exploration's seeded data set once to check the seed yields one.
    fn build(seed: u64) -> Result<Pipeline, Error> {
        let mut config = FrameworkConfig::quick_demo(Architecture::ResNet18);
        config.phase1.seed = stream_seed(seed, 1);
        config.phase1.train.seed = stream_seed(seed, 2);
        let ctx = PipelineContext::from_config(&config);
        ctx.validate()?;
        let pipeline = Pipeline {
            p1: Phase1Stage::new(config.phase1.clone()),
            p2: Phase2Stage::new(),
            p3: Phase3Stage::new(config.phase3.clone()),
            p4: Phase4Stage::new(),
            ctx,
            config,
        };
        pipeline.p1.validate()?;
        pipeline.p2.validate()?;
        pipeline.p3.validate()?;
        pipeline.p4.validate()?;
        pipeline
            .config
            .phase1
            .dataset
            .generate(pipeline.config.phase1.seed)?;
        Ok(pipeline)
    }

    /// One run of all four stages; returns the final artifact and each
    /// phase's wall time.
    fn run(&self, tracer: Option<&mut Tracer>) -> Result<(Phase4Artifact, [f64; 4]), Error> {
        let t0 = Instant::now();
        let a1 = self.p1.run(&self.ctx)?;
        let t1 = Instant::now();
        let a2 = self.p2.run(&self.ctx, &a1)?;
        let t2 = Instant::now();
        let a3 = self.p3.run(&self.ctx, &a2)?;
        let t3 = Instant::now();
        let a4 = self.p4.run(&self.ctx, &a3)?;
        let t4 = Instant::now();
        let marks = [t0, t1, t2, t3, t4];
        if let Some(tr) = tracer {
            let root = tr.record("core.pipeline", t0, t4, None, None, 1);
            let names = ["core.phase1", "core.phase2", "core.phase3", "core.phase4"];
            for (i, name) in names.into_iter().enumerate() {
                tr.record(name, marks[i], marks[i + 1], root, None, 1);
            }
        }
        let phase = |i: usize| (marks[i + 1] - marks[i]).as_secs_f64();
        Ok((a4, [phase(0), phase(1), phase(2), phase(3)]))
    }
}

/// Repeats of one pass: per-repeat phase times and how many outcomes
/// differed from the first.
struct Pass {
    phases: Vec<[f64; 4]>,
    mismatched: u64,
    cpu_util: f64,
    first: Phase4Artifact,
}

impl Pass {
    fn wall_s(&self) -> Vec<f64> {
        self.phases.iter().map(|p| p.iter().sum()).collect()
    }
}

fn repeat(p: &Pipeline, seconds: f64, mut tracer: Option<&mut Tracer>) -> Result<Pass, Error> {
    let clock = CpuClock::start();
    let start = Instant::now();
    let (first, times) = p.run(tracer.as_deref_mut())?;
    let mut pass = Pass {
        phases: vec![times],
        mismatched: 0,
        cpu_util: 0.0,
        first,
    };
    while pass.phases.len() < MIN_REPEATS || start.elapsed().as_secs_f64() < seconds {
        let (outcome, times) = p.run(tracer.as_deref_mut())?;
        pass.mismatched += u64::from(outcome != pass.first);
        pass.phases.push(times);
    }
    pass.cpu_util = clock.utilisation();
    Ok(pass)
}

/// Runs the design workload.
pub fn run(args: &Args) -> Result<Report, Error> {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut pipeline = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        pipeline = Some(Pipeline::build(args.seed)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let pipeline = pipeline.expect("at least one set-up");

    let plain = repeat(&pipeline, args.seconds, None)?;
    let wall = Summary::of(plain.wall_s().iter().map(|s| s * 1e3).collect());
    report.attempted = plain.phases.len() as u64;
    report.failed = plain.mismatched;
    report.metric("p50_ms", wall.p50);
    report.metric("p90_ms", wall.p90);
    report.metric("ops_per_s", 1e3 / wall.mean);
    report.metric("setup_s", stats::median(&setup_s));

    if args.trace {
        let mut tr = Tracer::new();
        let traced = repeat(&pipeline, args.seconds, Some(&mut tr))?;
        report.check(
            "traced outcomes identical to the untraced ones",
            traced.mismatched == 0 && traced.first == plain.first,
        );
        for (i, name) in [
            "core.phase1_s",
            "core.phase2_s",
            "core.phase3_s",
            "core.phase4_s",
        ]
        .into_iter()
        .enumerate()
        {
            let t: Vec<f64> = traced.phases.iter().map(|p| p[i]).collect();
            report.metric(name, stats::median(&t));
        }
        report.metric("core.cpu_util", traced.cpu_util);
        report.metric(
            "trace.overhead",
            stats::median(&traced.wall_s()) / stats::median(&plain.wall_s()),
        );

        // Phase 1 split: retrain the selected spec alone, then MC-evaluate
        // the trained network on the test split.
        let a1 = &traced.first.phase3.phase2.phase1;
        let (trained, train_s) = tr.time("nn.train_spec", || {
            train_spec(a1.best_spec(), &a1.data, &pipeline.config.phase1)
        });
        let mut network = trained?;
        let sampler = McSampler::new(
            SamplingConfig::new(pipeline.config.phase1.mc_samples)
                .with_seed(pipeline.config.phase1.seed),
        );
        let (prediction, mc_s) = tr.time("bayes.mc_predict", || {
            sampler.predict(&mut network, a1.data.test.inputs())
        });
        prediction?;
        report.metric("nn.train_s", train_s);
        report.metric("bayes.mc_eval_s", mc_s);
        crate::write_trace(args, &tr, &mut report);
    }

    report.fact("design_s", wall.p50 / 1e3);
    report.fact("repeats", wall.n);
    let walls: Vec<String> = plain.wall_s().iter().map(f64::to_string).collect();
    report.fact("repeat_s", format!("[{}]", walls.join(", ")));
    report.fact("cpu_util", plain.cpu_util);
    let phase_medians: Vec<String> = (0..4)
        .map(|i| {
            let t: Vec<f64> = plain.phases.iter().map(|p| p[i]).collect();
            format!("{}", stats::median(&t))
        })
        .collect();
    report.fact("phase_s", format!("[{}]", phase_medians.join(", ")));
    report.fact_str(
        "selected",
        &format!(
            "{} at {}, reuse {}",
            plain.first.phase3.phase2.phase1.result.best().variant,
            plain.first.phase3.format(),
            plain.first.phase3.reuse_factor()
        ),
    );
    Ok(report)
}
