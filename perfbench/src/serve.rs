//! The two serving workloads on the LeNet-5 8.3 plan.
//!
//! * `serve_open`: seeded Poisson arrivals at a fixed [`OPEN_RATE`],
//!   confidence early exit at the pool-median threshold. A deployer's
//!   latency at a fixed load: the queue, the batcher and adaptive
//!   compaction do the work, and about half the requests retire at exit 0.
//! * `serve_saturate`: one thread keeps [`OUTSTANDING`] requests in flight
//!   at fixed depth. Capacity: every batch is full, nothing waits on a
//!   deadline.
//!
//! Both use the same server ([`WORKERS`] workers, batches of up to
//! [`MAX_BATCH`] or [`MAX_DELAY`]) and the same mixed-difficulty pool: the
//! seeded clean test set plus its severity-3 shifts. Every reply is checked
//! bit for bit against a single-sample plan call for its pool entry.

use crate::load::{closed_loop, open_loop, poisson_schedule, Expected, LoadRun};
use crate::report::Report;
use crate::stats::{self, Summary};
use crate::trace::{BatchLog, TimedEngine, Tracer};
use crate::{Args, Error, SETUP_REPEATS};
use bnn_data::{Corruption, Dataset, DatasetSpec, SyntheticConfig};
use bnn_models::{zoo, ExitPolicy, ModelConfig};
use bnn_quant::{CalibratedNetwork, FixedPointFormat, QuantPlan};
use bnn_serve::{BatchEngine, InferenceServer, QuantEngine, ServeStats, ServerConfig};
use bnn_tensor::exec::Executor;
use bnn_tensor::rng::stream_seed;
use bnn_tensor::Tensor;
use std::time::{Duration, Instant};

/// MC samples per request.
pub const MC_SAMPLES: usize = 8;
/// Master seed of the MC mask streams.
pub const MC_SEED: u64 = 2023;
/// Weight-initialisation seed of the served network (part of the program,
/// not of the workload's inputs).
const MODEL_SEED: u64 = 7;
/// Corruption severity of the shifted part of the pool.
const SHIFT_SEVERITY: usize = 3;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// Largest batch the server assembles.
pub const MAX_BATCH: usize = 8;
/// Longest a partial batch waits.
pub const MAX_DELAY: Duration = Duration::from_micros(500);
/// Offered load of `serve_open`, requests per second.
pub const OPEN_RATE: f64 = 20_000.0;
/// Requests `serve_saturate` keeps in flight.
pub const OUTSTANDING: usize = 256;

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Open loop at a fixed rate, adaptive exit.
    Open,
    /// Closed loop at saturation, fixed depth.
    Saturate,
}

/// Everything a serving run needs before its first timed request.
struct Fixture {
    plan: QuantPlan,
    pool: Vec<Vec<f32>>,
    policy: ExitPolicy,
    expected: Expected,
    calibrate_s: f64,
    compile_s: f64,
}

fn rows(d: &Dataset, per: usize) -> Vec<Vec<f32>> {
    d.inputs()
        .as_slice()
        .chunks_exact(per)
        .map(<[f32]>::to_vec)
        .collect()
}

/// The pool median of the first-exit MC confidence: with it as the
/// confidence threshold about half the pool retires at exit 0.
fn median_first_exit_confidence(plan: &mut QuantPlan, pool: &[Vec<f32>]) -> Result<f64, Error> {
    let mut dims = vec![pool.len()];
    dims.extend_from_slice(plan.in_dims());
    let inputs = Tensor::from_vec(pool.concat(), &dims)?;
    // Threshold 0 retires everything at exit 0: the rows are exactly the
    // first-exit ensembles the policy scores.
    let first = plan.predict_adaptive_batch(
        &inputs,
        MC_SAMPLES,
        MC_SEED,
        &ExitPolicy::Confidence { threshold: 0.0 },
    )?;
    let classes = first.stats.classes;
    let conf: Vec<f64> = first
        .probs
        .as_slice()
        .chunks_exact(classes)
        .map(|row| f64::from(row.iter().copied().fold(f32::MIN, f32::max)))
        .collect();
    Ok(stats::median(&conf).clamp(0.0, 1.0))
}

impl Fixture {
    /// Builds the network, generates the seeded data and pool, calibrates
    /// and compiles the plan, fixes the policy and precomputes every pool
    /// entry's expected reply with a single-sample plan call.
    fn build(kind: Kind, seed: u64, tracer: &mut Option<Tracer>) -> Result<Fixture, Error> {
        let spec = zoo::lenet5(
            &ModelConfig::mnist()
                .with_resolution(12, 12)
                .with_width_divisor(4),
        )
        .with_exits_after_every_block()?
        .with_exit_mcd(0.25)?;
        let net = spec.build(MODEL_SEED)?;
        let data = SyntheticConfig::new(DatasetSpec::new("mnist-12", 1, 12, 12, 10))
            .with_samples(16, 64)
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
        // Each worker owns its replica on its own thread.
        plan.set_executor(Executor::sequential());

        let per: usize = plan.in_dims().iter().product();
        let mut pool = rows(&data.test, per);
        for (i, corruption) in Corruption::severity_ladder(SHIFT_SEVERITY)
            .iter()
            .enumerate()
        {
            let shifted = corruption.apply(&data.test, stream_seed(seed, 10 + i as u64))?;
            pool.extend(rows(&shifted, per));
        }
        // Reference calls run on clones, so the arena they size for the
        // whole pool does not ride into every worker's replica.
        let policy = match kind {
            Kind::Open => ExitPolicy::Confidence {
                threshold: median_first_exit_confidence(&mut plan.clone(), &pool)?,
            },
            Kind::Saturate => ExitPolicy::Never,
        };
        let expected = expected_replies(&mut plan.clone(), &pool, &policy)?;
        Ok(Fixture {
            plan,
            pool,
            policy,
            expected,
            calibrate_s: (calibrated_at - t).as_secs_f64(),
            compile_s: (compiled_at - calibrated_at).as_secs_f64(),
        })
    }

    fn config(&self) -> ServerConfig {
        ServerConfig {
            workers: WORKERS,
            max_batch: MAX_BATCH,
            max_delay: MAX_DELAY,
            mc_samples: MC_SAMPLES,
            seed: MC_SEED,
            policy: self.policy,
            ..ServerConfig::default()
        }
    }

    fn start(&self, engine: Box<dyn BatchEngine>) -> Result<InferenceServer, Error> {
        Ok(InferenceServer::start(engine, self.config())?)
    }

    /// Serves every pool entry once and checks the replies.
    fn warm_up(&self, server: &InferenceServer) -> bool {
        let handles: Vec<_> = self.pool.iter().map(|x| server.submit(x)).collect();
        handles.into_iter().enumerate().all(|(i, h)| {
            h.ok()
                .and_then(|h| h.wait().ok())
                .is_some_and(|reply| self.expected.matches(i, &reply))
        })
    }
}

/// Every pool entry's reply from a direct single-sample plan call at the
/// server's `(mc_samples, seed, policy)`.
fn expected_replies(
    plan: &mut QuantPlan,
    pool: &[Vec<f32>],
    policy: &ExitPolicy,
) -> Result<Expected, Error> {
    let mut dims = vec![1];
    dims.extend_from_slice(plan.in_dims());
    let last_exit = plan.num_exits() - 1;
    let (mut probs, mut exits) = (Vec::new(), Vec::new());
    let mut replies = Vec::with_capacity(pool.len());
    for x in pool {
        let x = Tensor::from_vec(x.clone(), &dims)?;
        let exit = if policy.is_never() {
            plan.predict_probs_batch_into(&x, MC_SAMPLES, MC_SEED, &mut probs)?;
            last_exit
        } else {
            plan.predict_adaptive_batch_into(
                &x, MC_SAMPLES, MC_SEED, policy, &mut probs, &mut exits,
            )?;
            exits[0]
        };
        replies.push((probs.clone(), exit));
    }
    Ok(Expected { replies })
}

/// Drives one pass of the workload's load.
fn drive(
    kind: Kind,
    fx: &Fixture,
    server: &InferenceServer,
    args: &Args,
    tracer: Option<&mut Tracer>,
) -> LoadRun {
    match kind {
        Kind::Open => {
            let schedule = poisson_schedule(
                stream_seed(args.seed, 2),
                OPEN_RATE,
                args.seconds,
                fx.pool.len(),
            );
            open_loop(server, &fx.pool, &fx.expected, &schedule, tracer)
        }
        Kind::Saturate => closed_loop(
            server,
            &fx.pool,
            &fx.expected,
            OUTSTANDING,
            args.seconds,
            stream_seed(args.seed, 2),
            tracer,
        ),
    }
}

/// Cost per operation the overhead ratio compares: median latency for the
/// open loop (its wall time is fixed by the schedule), window per reply
/// for the closed loop.
fn cost_per_op(kind: Kind, run: &LoadRun, latency: &Summary) -> f64 {
    match kind {
        Kind::Open => latency.p50,
        Kind::Saturate => run.window_s / run.in_window.max(1) as f64,
    }
}

/// Counter deltas between two `ServeStats` snapshots:
/// `(ops_executed / ops_fixed, exit-0 share)`.
fn stats_delta(before: &ServeStats, after: &ServeStats) -> (f64, f64) {
    let ops = (after.ops_executed - before.ops_executed) as f64;
    let fixed = (after.ops_fixed - before.ops_fixed) as f64;
    let exit0 = |s: &ServeStats| s.exit_counts.first().copied().unwrap_or(0);
    let completed = (after.completed - before.completed) as f64;
    (
        ops / fixed.max(1.0),
        (exit0(after) - exit0(before)) as f64 / completed.max(1.0),
    )
}

/// Per-layer serving metrics of a traced pass.
fn layer_metrics(report: &mut Report, run: &LoadRun, log: &BatchLog) {
    let batches = log
        .lock()
        .expect("a worker panicked while holding the batch log")
        .clone();
    let exec: Vec<f64> = batches
        .iter()
        .map(|b| (b.end - b.start).as_secs_f64())
        .collect();
    let rows: usize = batches.iter().map(|b| b.size).sum();
    // Mean over requests of the engine time of the batch each rode in.
    let ridden = batches
        .iter()
        .map(|b| b.size as f64 * (b.end - b.start).as_secs_f64())
        .sum::<f64>()
        / rows.max(1) as f64;
    report.metric("serve.submit_us", stats::median(&run.submit_s) * 1e6);
    report.metric("serve.exec_ms", stats::median(&exec) * 1e3);
    report.metric(
        "serve.batch_size",
        rows as f64 / batches.len().max(1) as f64,
    );
    report.metric(
        "serve.wait_ms",
        (stats::mean(&run.latency_s) - ridden) * 1e3,
    );
    report.fact("traced_batches", batches.len());
}

/// Runs a serving workload: repeated set-up, the untraced pass, and with
/// `--trace 1` a traced pass on a server whose engine is timed.
pub fn run(kind: Kind, args: &Args) -> Result<Report, Error> {
    let mut report = Report::default();
    let mut tracer = args.trace.then(Tracer::new);
    let (mut setup_s, mut calibrate_s, mut compile_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut warm = true;
    let mut current: Option<(Fixture, InferenceServer)> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((_, server)) = current.take() {
            server.shutdown();
        }
        let start = Instant::now();
        let fx = Fixture::build(kind, args.seed, &mut tracer)?;
        let server = fx.start(Box::new(QuantEngine::new(fx.plan.clone())))?;
        warm &= fx.warm_up(&server);
        setup_s.push(start.elapsed().as_secs_f64());
        calibrate_s.push(fx.calibrate_s);
        compile_s.push(fx.compile_s);
        current = Some((fx, server));
    }
    let (fx, server) = current.expect("at least one set-up");
    report.check("warm-up replies", warm);

    let mut plain = drive(kind, &fx, &server, args, None);
    let stats_plain = server.shutdown();
    // Sorted in place: a copy would add to the peak memory reported.
    let lat = Summary::of(std::mem::take(&mut plain.latency_s)).scaled(1e3);
    report.attempted = plain.attempted;
    report.failed = plain.failed();
    report.metric("p50_ms", lat.p50);
    report.metric("p90_ms", lat.p90);
    report.metric(
        "ops_per_s",
        plain.in_window as f64 / plain.window_s.max(1e-9),
    );
    report.metric("setup_s", stats::median(&setup_s));
    if kind == Kind::Saturate {
        let (ops_ratio, exit0) = stats_delta(&ServeStats::default(), &stats_plain);
        report.check(
            "fixed depth: ops ratio 1, no early exit",
            ops_ratio == 1.0 && exit0 == 0.0,
        );
    }

    if let Some(tr) = tracer.as_mut() {
        let (engine, log) = TimedEngine::new(Box::new(QuantEngine::new(fx.plan.clone())));
        let server = fx.start(Box::new(engine))?;
        report.check("traced warm-up replies", fx.warm_up(&server));
        log.lock().expect("no worker panicked").clear();
        let before = server.stats();
        let mut traced = drive(kind, &fx, &server, args, Some(tr));
        let after = server.shutdown();
        report.check("traced replies", traced.failed() == 0);
        layer_metrics(&mut report, &traced, &log);
        let traced_lat = Summary::of(std::mem::take(&mut traced.latency_s)).scaled(1e3);
        let (ops_ratio, exit0) = stats_delta(&before, &after);
        report.metric("serve.ops_ratio", ops_ratio);
        report.metric("serve.exit0_share", exit0);
        report.metric("serve.p99_ms", lat.p99);
        let lag = plain.lateness_s.iter().copied().fold(0.0, f64::max);
        report.metric("serve.gen_lag_ms", lag * 1e3);
        report.metric("quant.calibrate_ms", stats::median(&calibrate_s) * 1e3);
        report.metric("quant.compile_ms", stats::median(&compile_s) * 1e3);
        report.metric(
            "trace.overhead",
            cost_per_op(kind, &traced, &traced_lat) / cost_per_op(kind, &plain, &lat),
        );
        for batch in log.lock().expect("server stopped").iter() {
            tr.record(
                "serve.engine_batch",
                batch.start,
                batch.end,
                None,
                None,
                batch.size as u32,
            );
        }
    }

    report.fact(
        "throughput_rps",
        plain.in_window as f64 / plain.window_s.max(1e-9),
    );
    report.fact("workers", WORKERS);
    report.fact("max_batch", MAX_BATCH);
    report.fact("max_delay_us", MAX_DELAY.as_micros());
    report.fact("mc_samples", MC_SAMPLES);
    report.fact_str("policy", &fx.policy.to_string());
    report.fact("pool", fx.pool.len());
    report.fact("latency_samples", lat.n);
    report.fact("p90_samples_beyond", lat.beyond(90.0));
    report.fact("p99_ms", lat.p99);
    report.fact("p99_samples_beyond", lat.beyond(99.0));
    if let Some(t) = lat.tail {
        report.fact("tail_percentile", t.q);
        report.fact("tail_ms", t.value);
        report.fact("tail_samples_beyond", t.beyond);
    }
    report.fact("refused", plain.refused);
    report.fact("errored", plain.errored);
    report.fact("wrong", plain.wrong);
    report.fact("server_completed", stats_plain.completed);
    report.fact("mean_batch", stats_plain.mean_occupancy());
    if kind == Kind::Open {
        report.fact("offered_rps", OPEN_RATE);
        let lag = Summary::of(plain.lateness_s.iter().map(|s| s * 1e3).collect());
        report.fact("gen_lag_p50_ms", lag.p50);
        report.fact("gen_lag_p99_ms", lag.p99);
    } else {
        report.fact("outstanding", OUTSTANDING);
    }
    if let Some(tr) = tracer {
        crate::write_trace(args, &tr, &mut report);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny plan, so tests start a real server in milliseconds.
    fn tiny_plan() -> QuantPlan {
        let spec = zoo::lenet5(
            &ModelConfig::mnist()
                .with_resolution(10, 10)
                .with_width_divisor(8),
        )
        .with_exits_after_every_block()
        .unwrap()
        .with_exit_mcd(0.25)
        .unwrap();
        let net = spec.build(7).unwrap();
        let data = SyntheticConfig::new(DatasetSpec::new("t", 1, 10, 10, 10))
            .with_samples(8, 8)
            .generate(1)
            .unwrap();
        let calibrated = CalibratedNetwork::calibrate(&net, data.train.inputs()).unwrap();
        let mut plan = calibrated
            .plan(FixedPointFormat::new(8, 3).unwrap())
            .unwrap();
        plan.set_executor(Executor::sequential());
        plan
    }

    #[test]
    fn fail_ratio_counts_refusals_of_a_bounded_queue() {
        let mut plan = tiny_plan();
        let pool: Vec<Vec<f32>> = (0..4).map(|i| vec![0.1 * i as f32; 100]).collect();
        let expected = expected_replies(&mut plan, &pool, &ExitPolicy::Never).unwrap();
        let config = ServerConfig {
            workers: 1,
            max_batch: 1,
            max_delay: Duration::from_millis(20),
            mc_samples: MC_SAMPLES,
            seed: MC_SEED,
            ..ServerConfig::default()
        }
        .with_queue_limit(1);
        let server = InferenceServer::start(Box::new(QuantEngine::new(plan)), config).unwrap();
        let run = closed_loop(&server, &pool, &expected, 32, 0.05, 3, None);
        server.shutdown();
        assert!(
            run.refused > 0,
            "a one-slot queue must refuse a burst of 32"
        );
        assert_eq!(run.errored + run.wrong, 0);
        assert_eq!(run.failed(), run.refused);
        let mut report = Report {
            attempted: run.attempted,
            failed: run.failed(),
            ..Report::default()
        };
        assert!(report.fail_ratio() > 0.0 && !report.correct());
        report.failed = 0;
        assert!(report.correct());
    }

    #[test]
    fn served_replies_match_single_sample_calls() {
        let plan = tiny_plan();
        let pool: Vec<Vec<f32>> = (0..12)
            .map(|i| (0..100).map(|j| ((i * 7 + j) % 11) as f32 / 11.0).collect())
            .collect();
        let policy = ExitPolicy::Confidence { threshold: 0.3 };
        let expected = expected_replies(&mut plan.clone(), &pool, &policy).unwrap();
        let config = ServerConfig {
            workers: 2,
            max_batch: 4,
            max_delay: Duration::from_micros(300),
            mc_samples: MC_SAMPLES,
            seed: MC_SEED,
            policy,
            ..ServerConfig::default()
        };
        let server = InferenceServer::start(Box::new(QuantEngine::new(plan)), config).unwrap();
        let schedule = poisson_schedule(5, 5_000.0, 0.02, pool.len());
        let run = open_loop(&server, &pool, &expected, &schedule, None);
        server.shutdown();
        assert_eq!(run.attempted as usize, schedule.due_ns.len());
        assert_eq!(run.failed(), 0);
        assert_eq!(run.latency_s.len(), schedule.due_ns.len());
    }

    #[test]
    fn pool_and_expected_replies_are_reproducible_from_the_seed() {
        let a = Fixture::build(Kind::Saturate, 5, &mut None).unwrap();
        let b = Fixture::build(Kind::Saturate, 5, &mut None).unwrap();
        let c = Fixture::build(Kind::Saturate, 6, &mut None).unwrap();
        assert_eq!(a.pool, b.pool);
        assert_eq!(a.expected, b.expected);
        assert_ne!(a.pool, c.pool);
    }
}
