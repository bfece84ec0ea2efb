//! Monte-Carlo Dropout prediction for multi-exit networks.
//!
//! Two prediction paths are provided:
//!
//! * [`McSampler::predict`] — the paper's multi-exit MCD inference: the
//!   deterministic backbone runs **once**, its block activations are cached,
//!   and every additional MC sample only re-runs the (cheap) exit branches
//!   with fresh dropout masks. One forward pass of all exits yields
//!   `N_exit` samples, so `N_pass = ceil(N_sample / N_exit)` (paper §IV-B).
//! * [`McSampler::predict_single_exit`] — the vanilla MCD baseline that
//!   re-runs the whole network for every sample (paper Eq. 1).
//!
//! Threshold-based early exiting (used for the ECE-optimal rows of
//! Table I) is provided by [`McSampler::adaptive_exit_predict`], with
//! [`McSampler::confidence_exit_predict`] and
//! [`McSampler::entropy_exit_predict`] as the two policy shorthands. Early
//! exiting runs on the compiled [`bnn_models::MultiExitPlan`]'s adaptive
//! batched path: stragglers are compacted into a shrinking dense batch and
//! easy samples stop paying for deeper blocks.
//!
//! # Determinism and parallelism
//!
//! Every Monte-Carlo pass draws its dropout masks from a dedicated RNG
//! stream derived from [`SamplingConfig::seed`] and the pass index (via
//! [`bnn_tensor::rng::stream_seed`] and [`Network::reseed_mc_streams`]), so a
//! prediction depends only on the network checkpoint, the inputs and the
//! sampler seed — never on earlier passes or on scheduling. That is what
//! lets [`McSampler::predict`] fan independent passes out across the
//! executor's thread pool (each worker gets a clone of the compiled plan)
//! while staying bitwise identical to the single-threaded run.

use crate::BayesError;
use bnn_models::{ExitPolicy, MultiExitNetwork, MultiExitPlan};
use bnn_nn::layer::Mode;
use bnn_nn::network::Network;
use bnn_tensor::exec::{in_parallel_region, Executor};
use bnn_tensor::ops::softmax;
use bnn_tensor::rng::stream_seed;
use bnn_tensor::Tensor;

/// Configuration of an MC-Dropout prediction run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingConfig {
    /// Total number of MC samples to draw (across all exits).
    pub n_samples: usize,
    /// Calibration bin count used by downstream evaluation (carried along for
    /// convenience in reports).
    pub bins: usize,
    /// Master seed of the per-pass dropout-mask streams. Predictions with the
    /// same seed, network and inputs are bitwise reproducible.
    pub seed: u64,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig {
            n_samples: 4,
            bins: 15,
            seed: 2023,
        }
    }
}

impl SamplingConfig {
    /// Creates a configuration drawing `n_samples` MC samples.
    pub fn new(n_samples: usize) -> Self {
        SamplingConfig {
            n_samples,
            bins: 15,
            seed: 2023,
        }
    }

    /// Sets the master seed of the per-pass dropout-mask streams.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of exit forward passes needed for a network with `n_exits` exits.
    pub fn passes_for(&self, n_exits: usize) -> usize {
        if n_exits == 0 {
            return 0;
        }
        self.n_samples.div_ceil(n_exits)
    }
}

/// The result of an MC-Dropout prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct McPrediction {
    /// Equally weighted mean of all per-sample probability tensors, `[batch, classes]`.
    pub mean_probs: Tensor,
    /// Every individual sample's probabilities (one `[batch, classes]` tensor
    /// per exit per pass).
    pub per_sample: Vec<Tensor>,
    /// Number of exit forward passes that were executed.
    pub passes: usize,
}

impl McPrediction {
    /// Number of MC samples that contributed to the mean.
    pub fn num_samples(&self) -> usize {
        self.per_sample.len()
    }
}

/// The result of confidence-threshold early exiting.
#[derive(Debug, Clone, PartialEq)]
pub struct EarlyExitPrediction {
    /// Final probabilities for every sample, `[batch, classes]`.
    pub probs: Tensor,
    /// Index of the exit each sample stopped at.
    pub exit_taken: Vec<usize>,
    /// Mean fraction of the full-network FLOPs actually spent, per sample.
    pub mean_flops_fraction: f64,
}

/// Monte-Carlo Dropout sampler.
#[derive(Debug, Clone, Default)]
pub struct McSampler {
    config: SamplingConfig,
    executor: Executor,
}

impl McSampler {
    /// Creates a sampler with the given configuration on the process-global
    /// executor ([`Executor::global`]).
    pub fn new(config: SamplingConfig) -> Self {
        McSampler {
            config,
            executor: Executor::global(),
        }
    }

    /// Sets the executor MC passes fan out on. [`Executor::sequential`]
    /// forces single-threaded sampling (results are identical either way).
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }

    /// The sampler configuration.
    pub fn config(&self) -> &SamplingConfig {
        &self.config
    }

    /// Multi-exit MCD prediction with backbone caching (paper Eq. 2).
    ///
    /// The deterministic backbone runs once; the (cheap) exit passes are
    /// independent given their seeded mask streams and fan out across the
    /// sampler's executor. Everything executes on a compiled
    /// [`bnn_models::MultiExitPlan`] **cached on the network**
    /// ([`MultiExitNetwork::cached_plan`]) — backbone and exits run in
    /// preallocated arenas reused across passes *and across predictions*
    /// (the lowering + weight-packing compile reruns only after a weight
    /// mutation or input-shape change), and worker replicas are plan
    /// clones. The plan reproduces every layer kernel and mask stream of the
    /// layer chain bit for bit, and all thread counts, including the
    /// sequential path, give identical bits.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::Invalid`] for a network without exits or inputs
    /// of rank below 2, [`BayesError::Model`] when the network does not
    /// compile (a layer without an inference lowering), or propagates
    /// execution errors.
    pub fn predict(
        &self,
        network: &mut MultiExitNetwork,
        inputs: &Tensor,
    ) -> Result<McPrediction, BayesError> {
        let n_exits = network.num_exits();
        if n_exits == 0 {
            return Err(BayesError::Invalid("network has no exits".into()));
        }
        let plan = network.cached_plan(sample_dims(inputs)?)?;
        let passes = self.config.passes_for(n_exits).max(1);
        let activations = plan.forward_backbone(inputs, Mode::Eval)?;
        let pass_seeds: Vec<u64> = (0..passes)
            .map(|p| stream_seed(self.config.seed, p as u64))
            .collect();
        // Sequentially every pass runs on the cached plan; fanned out,
        // worker `w` runs passes `w, w + W, …` on its own plan — clones for
        // the first `W - 1` workers, the cached plan for the last. Each pass
        // reseeds, so the assignment does not affect the result.
        let pass_exits = if self.executor.threads() > 1 && passes > 1 && !in_parallel_region() {
            let workers = self.executor.threads().min(passes);
            let mut owned = vec![plan.clone(); workers - 1];
            let mut replicas: Vec<&mut MultiExitPlan> = owned.iter_mut().collect();
            replicas.push(plan);
            let mut per_worker: Vec<Vec<Vec<Tensor>>> = self
                .executor
                .par_map_mut(&mut replicas, |w, replica| {
                    pass_seeds[w..]
                        .iter()
                        .step_by(workers)
                        .map(|&seed| run_pass(replica, seed, &activations))
                        .collect::<Result<Vec<_>, _>>()
                })
                .into_iter()
                .collect::<Result<_, _>>()?;
            (0..passes)
                .map(|p| std::mem::take(&mut per_worker[p % workers][p / workers]))
                .collect()
        } else {
            pass_seeds
                .iter()
                .map(|&seed| run_pass(plan, seed, &activations))
                .collect::<Result<_, _>>()?
        };
        self.finish_prediction(pass_exits, passes, n_exits)
    }

    /// The tail of [`McSampler::predict`]: softmax per sample, truncate to
    /// the requested sample count, average.
    fn finish_prediction(
        &self,
        pass_exits: Vec<Vec<Tensor>>,
        passes: usize,
        n_exits: usize,
    ) -> Result<McPrediction, BayesError> {
        let mut per_sample = Vec::with_capacity(passes * n_exits);
        for exits in pass_exits {
            for logits in exits {
                per_sample.push(softmax(&logits)?);
            }
        }
        // Keep exactly n_samples samples if the pass granularity overshot.
        if self.config.n_samples > 0 && per_sample.len() > self.config.n_samples {
            per_sample.truncate(self.config.n_samples);
        }
        let mean_probs = Tensor::mean_of(&per_sample)?;
        Ok(McPrediction {
            mean_probs,
            per_sample,
            passes,
        })
    }

    /// Vanilla single-exit MCD prediction: the whole network is re-run for
    /// every MC sample and only the final exit is used (paper Eq. 1).
    ///
    /// This is deliberately the paper's slow baseline and stays sequential,
    /// but each sample still draws from its own seeded mask stream, so the
    /// result is reproducible and matches any parallel re-implementation
    /// bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates network errors.
    pub fn predict_single_exit(
        &self,
        network: &mut dyn Network,
        inputs: &Tensor,
    ) -> Result<McPrediction, BayesError> {
        let samples = self.config.n_samples.max(1);
        let mut per_sample = Vec::with_capacity(samples);
        for s in 0..samples {
            network.reseed_mc_streams(stream_seed(self.config.seed, s as u64));
            let logits = network.forward_final(inputs, Mode::McSample)?;
            per_sample.push(softmax(&logits)?);
        }
        let mean_probs = Tensor::mean_of(&per_sample)?;
        Ok(McPrediction {
            mean_probs,
            per_sample,
            passes: samples,
        })
    }

    /// Deterministic (dropout-disabled) prediction of the final exit — the
    /// non-Bayesian baseline.
    ///
    /// # Errors
    ///
    /// Propagates network errors.
    pub fn predict_deterministic(
        &self,
        network: &mut dyn Network,
        inputs: &Tensor,
    ) -> Result<Tensor, BayesError> {
        let logits = network.forward_final(inputs, Mode::Eval)?;
        Ok(softmax(&logits)?)
    }

    /// Confidence-threshold early exiting using the running ensemble of exits
    /// (the "largest possible ensemble at each exit" variant of the paper).
    ///
    /// Shorthand for [`McSampler::adaptive_exit_predict`] with
    /// [`ExitPolicy::Confidence`]: each sample stops at the first exit whose
    /// running-ensemble top-class probability reaches `threshold`.
    ///
    /// # Errors
    ///
    /// Propagates network errors or an invalid threshold.
    pub fn confidence_exit_predict(
        &self,
        network: &mut MultiExitNetwork,
        inputs: &Tensor,
        threshold: f64,
    ) -> Result<EarlyExitPrediction, BayesError> {
        self.adaptive_exit_predict(network, inputs, &ExitPolicy::Confidence { threshold })
    }

    /// Entropy-threshold early exiting: each sample stops at the first exit
    /// whose running-ensemble *normalized* predictive entropy drops to
    /// `threshold` or below (shorthand for [`McSampler::adaptive_exit_predict`]
    /// with [`ExitPolicy::Entropy`]).
    ///
    /// # Errors
    ///
    /// Propagates network errors or an invalid threshold.
    pub fn entropy_exit_predict(
        &self,
        network: &mut MultiExitNetwork,
        inputs: &Tensor,
        threshold: f64,
    ) -> Result<EarlyExitPrediction, BayesError> {
        self.adaptive_exit_predict(network, inputs, &ExitPolicy::Entropy { threshold })
    }

    /// Policy-driven early exiting using the running ensemble of exits.
    ///
    /// For each sample, exits are consulted in order; the running equally
    /// weighted ensemble of the exits seen so far is scored by `policy`
    /// ([`ExitPolicy::retires`]) and the sample stops at the first exit the
    /// policy accepts — or at the last exit unconditionally.
    ///
    /// Execution runs on the compiled plan's adaptive batched path
    /// ([`bnn_models::MultiExitPlan::predict_adaptive_batch_into`]):
    /// retired samples leave the batch mid-flight and survivors are
    /// compacted into a dense smaller batch, so deeper blocks only ever see
    /// the stragglers. Each row's probabilities and exit are those of a
    /// full-depth per-row sweep over the exits.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::Invalid`] for an invalid policy threshold, a
    /// network without exits or inputs of rank below 2,
    /// [`BayesError::Model`] when the network does not compile (a layer
    /// without an inference lowering), or propagates execution errors.
    pub fn adaptive_exit_predict(
        &self,
        network: &mut MultiExitNetwork,
        inputs: &Tensor,
        policy: &ExitPolicy,
    ) -> Result<EarlyExitPrediction, BayesError> {
        policy.validate().map_err(BayesError::Invalid)?;
        if network.num_exits() == 0 {
            return Err(BayesError::Invalid("network has no exits".into()));
        }
        let cumulative = exit_cumulative_flops_fraction(network)?;
        // n_samples = 0: one deterministic (dropout-disabled) consult per
        // exit — the historical early-exit semantics. The seed is unused in
        // that mode.
        let pred = network
            .cached_plan(sample_dims(inputs)?)?
            .predict_adaptive_batch(inputs, 0, 0, policy)?;
        let flops_sum: f64 = pred.exit_taken.iter().map(|&e| cumulative[e]).sum();
        Ok(EarlyExitPrediction {
            probs: pred.probs,
            exit_taken: pred.exit_taken,
            mean_flops_fraction: flops_sum / pred.stats.batch.max(1) as f64,
        })
    }
}

/// The per-sample dims of a `[batch, ..]` input.
fn sample_dims(inputs: &Tensor) -> Result<&[usize], BayesError> {
    match inputs.dims() {
        [_, sample @ ..] if !sample.is_empty() => Ok(sample),
        dims => Err(BayesError::Invalid(format!(
            "inputs must be [batch, ..sample dims], got {dims:?}"
        ))),
    }
}

/// One exit pass of [`McSampler::predict`]: reseeds every MC-dropout stream
/// from `seed` and runs the exits in [`Mode::McSample`] on the backbone
/// `activations`.
fn run_pass(
    plan: &mut MultiExitPlan,
    seed: u64,
    activations: &[Tensor],
) -> Result<Vec<Tensor>, BayesError> {
    plan.reseed_mc_streams(seed);
    Ok(plan.forward_exits_from_activations(activations, Mode::McSample)?)
}

/// Cumulative FLOPs fraction of the full network consumed when a sample
/// stops at each exit (backbone blocks up to the exit's attachment point
/// plus every exit head consulted along the way).
fn exit_cumulative_flops_fraction(network: &MultiExitNetwork) -> Result<Vec<f64>, BayesError> {
    let report = network.spec().flop_report()?;
    let full = report.total().max(1) as f64;
    let block_flops = backbone_cumulative_flops(network)?;
    let mut cumulative = Vec::with_capacity(network.spec().exits.len());
    let mut exit_acc = 0u64;
    for (i, exit_spec) in network.spec().exits.iter().enumerate() {
        exit_acc += report.exits[i];
        cumulative.push((block_flops[exit_spec.after_block] + exit_acc) as f64 / full);
    }
    Ok(cumulative)
}

/// Cumulative backbone FLOPs up to and including each block (batch size 1).
fn backbone_cumulative_flops(network: &MultiExitNetwork) -> Result<Vec<u64>, BayesError> {
    let spec = network.spec();
    let mut shape = spec.input_shape(1);
    let mut acc = 0u64;
    let mut out = Vec::with_capacity(spec.blocks.len());
    for block in &spec.blocks {
        for layer in block {
            acc += layer.flops(&shape);
            shape = layer.output_shape(&shape)?;
        }
        out.push(acc);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnn_models::{zoo, ModelConfig};

    fn small_net() -> MultiExitNetwork {
        let config = ModelConfig::cifar10()
            .with_resolution(12, 12)
            .with_width_divisor(16);
        zoo::resnet18(&config)
            .with_exits_after_every_block()
            .unwrap()
            .with_exit_mcd(0.3)
            .unwrap()
            .build(11)
            .unwrap()
    }

    #[test]
    fn sampling_config_pass_arithmetic() {
        let cfg = SamplingConfig::new(8);
        assert_eq!(cfg.passes_for(4), 2);
        assert_eq!(cfg.passes_for(3), 3);
        assert_eq!(cfg.passes_for(0), 0);
        assert_eq!(SamplingConfig::default().n_samples, 4);
    }

    #[test]
    fn multi_exit_prediction_shape_and_simplex() {
        let mut net = small_net();
        let sampler = McSampler::new(SamplingConfig::new(8));
        let x = Tensor::ones(&[3, 3, 12, 12]);
        let pred = sampler.predict(&mut net, &x).unwrap();
        assert_eq!(pred.mean_probs.dims(), &[3, 10]);
        assert_eq!(pred.num_samples(), 8);
        assert_eq!(pred.passes, 2);
        // rows sum to one
        for b in 0..3 {
            let s: f32 = pred.mean_probs.as_slice()[b * 10..(b + 1) * 10]
                .iter()
                .sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn samples_vary_across_passes() {
        let mut net = small_net();
        let sampler = McSampler::new(SamplingConfig::new(8));
        let x = Tensor::ones(&[1, 3, 12, 12]);
        let pred = sampler.predict(&mut net, &x).unwrap();
        let a = pred.per_sample[0].as_slice();
        let b = pred.per_sample[4].as_slice(); // same exit, next pass
        assert_ne!(a, b);
    }

    fn small_lenet() -> MultiExitNetwork {
        let config = ModelConfig::mnist()
            .with_resolution(10, 10)
            .with_width_divisor(8)
            .with_classes(4);
        zoo::lenet5(&config)
            .with_exits_after_every_block()
            .unwrap()
            .with_exit_mcd(0.25)
            .unwrap()
            .build(13)
            .unwrap()
    }

    /// The layer-chain oracle of [`McSampler::predict`]: the backbone once
    /// in [`Mode::Eval`], then per pass a reseed and the exits in
    /// [`Mode::McSample`], all on the network's own layers.
    fn predict_on_layers(
        sampler: &McSampler,
        network: &mut MultiExitNetwork,
        inputs: &Tensor,
    ) -> McPrediction {
        let n_exits = network.num_exits();
        let passes = sampler.config.passes_for(n_exits).max(1);
        let activations = network.forward_backbone(inputs, Mode::Eval).unwrap();
        let pass_exits = (0..passes)
            .map(|p| {
                network.reseed_mc_streams(stream_seed(sampler.config.seed, p as u64));
                network
                    .forward_exits_from_activations(&activations, Mode::McSample)
                    .unwrap()
            })
            .collect();
        sampler
            .finish_prediction(pass_exits, passes, n_exits)
            .unwrap()
    }

    /// The layer-chain oracle of [`McSampler::adaptive_exit_predict`]: every
    /// exit runs at full depth, then a per-row policy sweep picks each
    /// sample's exit.
    fn adaptive_exit_on_layers(
        network: &mut MultiExitNetwork,
        inputs: &Tensor,
        policy: &ExitPolicy,
    ) -> EarlyExitPrediction {
        let cumulative = exit_cumulative_flops_fraction(network).unwrap();
        let probs_per_exit: Vec<Tensor> = network
            .forward_exits(inputs, Mode::Eval)
            .unwrap()
            .iter()
            .map(|e| softmax(e).unwrap())
            .collect();
        let n_exits = probs_per_exit.len();
        let (batch, classes) = probs_per_exit[0].shape().as_matrix().unwrap();
        let mut out = vec![0.0f32; batch * classes];
        let mut exit_taken = vec![0usize; batch];
        let mut flops_sum = 0.0f64;
        for b in 0..batch {
            let mut running = vec![0.0f32; classes];
            for (i, exit_probs) in probs_per_exit.iter().enumerate() {
                let row = &exit_probs.as_slice()[b * classes..(b + 1) * classes];
                for (acc, &p) in running.iter_mut().zip(row) {
                    *acc += p;
                }
                let denom = (i + 1) as f32;
                if policy.retires(&running, denom) || i == n_exits - 1 {
                    for (o, r) in out[b * classes..(b + 1) * classes].iter_mut().zip(&running) {
                        *o = r / denom;
                    }
                    exit_taken[b] = i;
                    flops_sum += cumulative[i];
                    break;
                }
            }
        }
        EarlyExitPrediction {
            probs: Tensor::from_vec(out, &[batch, classes]).unwrap(),
            exit_taken,
            mean_flops_fraction: flops_sum / batch as f64,
        }
    }

    /// Each test network (LeNet-5, ResNet-18) with an input batch for it.
    /// Training forwards move ResNet-18's batch-norm running statistics off
    /// their defaults, where the folded and unfolded forms would agree.
    fn nets_and_inputs(batch: usize, seed: u64) -> Vec<(MultiExitNetwork, Tensor)> {
        let mut rng = bnn_tensor::rng::Xoshiro256StarStar::seed_from_u64(seed);
        let mut resnet = small_net();
        for _ in 0..2 {
            let x = Tensor::randn(&[4, 3, 12, 12], &mut rng).map(|v| 1.5 * v + 0.5);
            resnet.forward_backbone(&x, Mode::Train).unwrap();
        }
        vec![
            (small_lenet(), Tensor::randn(&[batch, 1, 10, 10], &mut rng)),
            (resnet, Tensor::randn(&[batch, 3, 12, 12], &mut rng)),
        ]
    }

    #[test]
    fn planned_prediction_matches_layered_bitwise() {
        // The planned path (fanned out by the multi-threaded executor) must
        // reproduce the layer chain bit for bit, mean and per-sample alike,
        // on a plain conv net and on a batch-norm residual net.
        let sampler = McSampler::new(SamplingConfig::new(8)).with_executor(Executor::new(4));
        for (mut net, x) in nets_and_inputs(3, 21) {
            let planned = sampler.predict(&mut net, &x).unwrap();
            let layered = predict_on_layers(&sampler, &mut net, &x);
            assert_eq!(planned.mean_probs.as_slice(), layered.mean_probs.as_slice());
            assert_eq!(planned.per_sample.len(), layered.per_sample.len());
            for (a, b) in planned.per_sample.iter().zip(&layered.per_sample) {
                assert_eq!(a.as_slice(), b.as_slice(), "{}", net.name());
            }
        }
    }

    #[test]
    fn cached_plan_predictions_stay_bitwise_and_track_mutations() {
        // Repeat predictions hit the network's cached plan (no recompile);
        // the results must stay bitwise identical to the first call, and a
        // weight mutation must invalidate the cache rather than serve stale
        // packed weights.
        let mut net = small_lenet();
        let mut rng = bnn_tensor::rng::Xoshiro256StarStar::seed_from_u64(31);
        let x = Tensor::randn(&[2, 1, 10, 10], &mut rng);
        let sampler = McSampler::new(SamplingConfig::new(8)).with_executor(Executor::new(2));
        let first = sampler.predict(&mut net, &x).unwrap();
        let v_after_first = net.weight_version();
        let second = sampler.predict(&mut net, &x).unwrap();
        assert_eq!(net.weight_version(), v_after_first, "predict must not bump");
        assert_eq!(first.mean_probs.as_slice(), second.mean_probs.as_slice());
        for (a, b) in first.per_sample.iter().zip(&second.per_sample) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
        // Mutate a weight through the public params_mut path.
        {
            use bnn_nn::network::Network as _;
            let mut params = net.params_mut();
            params[0].value.as_mut_slice()[0] += 0.5;
        }
        assert_ne!(net.weight_version(), v_after_first);
        let third = sampler.predict(&mut net, &x).unwrap();
        assert_ne!(first.mean_probs.as_slice(), third.mean_probs.as_slice());
        // A freshly built network with the same mutation agrees with the
        // post-mutation prediction, proving the cache was not stale.
        let mut fresh = small_lenet();
        {
            use bnn_nn::network::Network as _;
            let mut params = fresh.params_mut();
            params[0].value.as_mut_slice()[0] += 0.5;
        }
        let fresh_pred = sampler.predict(&mut fresh, &x).unwrap();
        assert_eq!(
            third.mean_probs.as_slice(),
            fresh_pred.mean_probs.as_slice()
        );
    }

    #[test]
    fn parallel_sampling_matches_sequential_bitwise() {
        let mut net_seq = small_net();
        let mut net_par = small_net();
        let x = Tensor::ones(&[3, 3, 12, 12]);
        let seq = McSampler::new(SamplingConfig::new(8)).with_executor(Executor::sequential());
        let par = McSampler::new(SamplingConfig::new(8)).with_executor(Executor::new(4));
        let a = seq.predict(&mut net_seq, &x).unwrap();
        let b = par.predict(&mut net_par, &x).unwrap();
        assert_eq!(a.mean_probs.as_slice(), b.mean_probs.as_slice());
        assert_eq!(a.per_sample.len(), b.per_sample.len());
        for (sa, sb) in a.per_sample.iter().zip(&b.per_sample) {
            assert_eq!(sa.as_slice(), sb.as_slice());
        }
    }

    #[test]
    fn predictions_are_seed_reproducible() {
        let mut net = small_net();
        let x = Tensor::ones(&[2, 3, 12, 12]);
        let sampler = McSampler::new(SamplingConfig::new(6));
        let a = sampler.predict(&mut net, &x).unwrap();
        let b = sampler.predict(&mut net, &x).unwrap();
        assert_eq!(a.mean_probs.as_slice(), b.mean_probs.as_slice());
        let other = McSampler::new(SamplingConfig::new(6).with_seed(7));
        let c = other.predict(&mut net, &x).unwrap();
        assert_ne!(a.mean_probs.as_slice(), c.mean_probs.as_slice());
    }

    #[test]
    fn single_exit_prediction_uses_requested_samples() {
        let mut net = small_net();
        let sampler = McSampler::new(SamplingConfig::new(5));
        let x = Tensor::ones(&[2, 3, 12, 12]);
        let pred = sampler.predict_single_exit(&mut net, &x).unwrap();
        assert_eq!(pred.num_samples(), 5);
        assert_eq!(pred.mean_probs.dims(), &[2, 10]);
    }

    #[test]
    fn deterministic_prediction_is_repeatable() {
        let mut net = small_net();
        let sampler = McSampler::default();
        let x = Tensor::ones(&[1, 3, 12, 12]);
        let a = sampler.predict_deterministic(&mut net, &x).unwrap();
        let b = sampler.predict_deterministic(&mut net, &x).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn confidence_exit_reduces_flops_at_low_threshold() {
        let mut net = small_net();
        let sampler = McSampler::default();
        let x = Tensor::ones(&[4, 3, 12, 12]);
        let eager = sampler.confidence_exit_predict(&mut net, &x, 0.0).unwrap();
        let strict = sampler
            .confidence_exit_predict(&mut net, &x, 0.999_999)
            .unwrap();
        // threshold 0 stops at the first exit; threshold ~1 runs to the end
        assert!(eager.exit_taken.iter().all(|&e| e == 0));
        assert!(strict.exit_taken.iter().all(|&e| e == net.num_exits() - 1));
        assert!(eager.mean_flops_fraction < strict.mean_flops_fraction);
        assert!(eager.mean_flops_fraction > 0.0);
        assert!(strict.mean_flops_fraction <= 1.0 + 1e-9);
        assert!(sampler.confidence_exit_predict(&mut net, &x, 1.5).is_err());
    }

    #[test]
    fn adaptive_plan_path_matches_layered_fallback_bitwise() {
        // The plan's adaptive batched path (with mid-flight compaction) must
        // give the full-depth layer-chain sweep's bits, exits and FLOPs.
        let sampler = McSampler::default();
        for (mut net, x) in nets_and_inputs(5, 41) {
            for policy in [
                ExitPolicy::Never,
                ExitPolicy::Confidence { threshold: 0.3 },
                ExitPolicy::Confidence { threshold: 0.0 },
                ExitPolicy::Entropy { threshold: 0.97 },
            ] {
                let planned = sampler
                    .adaptive_exit_predict(&mut net, &x, &policy)
                    .unwrap();
                let layered = adaptive_exit_on_layers(&mut net, &x, &policy);
                let what = format!("{} policy {policy}", net.name());
                assert_eq!(planned.probs.as_slice(), layered.probs.as_slice(), "{what}");
                assert_eq!(planned.exit_taken, layered.exit_taken, "{what}");
                assert_eq!(
                    planned.mean_flops_fraction, layered.mean_flops_fraction,
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn rank_one_inputs_are_typed_errors() {
        let mut net = small_lenet();
        let sampler = McSampler::default();
        let x = Tensor::ones(&[100]);
        assert!(matches!(
            sampler.predict(&mut net, &x),
            Err(BayesError::Invalid(_))
        ));
        assert!(matches!(
            sampler.adaptive_exit_predict(&mut net, &x, &ExitPolicy::Never),
            Err(BayesError::Invalid(_))
        ));
    }

    #[test]
    fn unlowerable_network_is_a_typed_error() {
        // Softmax has no inference lowering, so the network cannot compile.
        use bnn_models::spec::{LayerSpec, NetworkSpec};
        let mut net = NetworkSpec::single_exit(
            "softmax-head",
            1,
            4,
            4,
            2,
            vec![vec![LayerSpec::Flatten]],
            vec![
                LayerSpec::Dense {
                    in_features: 16,
                    out_features: 2,
                },
                LayerSpec::Softmax,
            ],
        )
        .build(1)
        .unwrap();
        let sampler = McSampler::default();
        let x = Tensor::ones(&[2, 1, 4, 4]);
        assert!(matches!(
            sampler.predict(&mut net, &x),
            Err(BayesError::Model(_))
        ));
        assert!(matches!(
            sampler.adaptive_exit_predict(&mut net, &x, &ExitPolicy::Never),
            Err(BayesError::Model(_))
        ));
    }

    #[test]
    fn entropy_exit_mirrors_confidence_behaviour() {
        // Normalized entropy is always <= 1 and > 0 for non-degenerate
        // rows, so threshold 1 retires everything at exit 0 and threshold 0
        // runs everything to the last exit.
        let mut net = small_net();
        let sampler = McSampler::default();
        let x = Tensor::ones(&[4, 3, 12, 12]);
        let eager = sampler.entropy_exit_predict(&mut net, &x, 1.0).unwrap();
        let strict = sampler.entropy_exit_predict(&mut net, &x, 0.0).unwrap();
        assert!(eager.exit_taken.iter().all(|&e| e == 0));
        assert!(strict.exit_taken.iter().all(|&e| e == net.num_exits() - 1));
        assert!(eager.mean_flops_fraction < strict.mean_flops_fraction);
        assert!(sampler
            .entropy_exit_predict(&mut net, &x, f64::NAN)
            .is_err());
        assert!(sampler.entropy_exit_predict(&mut net, &x, -0.5).is_err());
    }

    #[test]
    fn early_exit_probs_are_distributions() {
        let mut net = small_net();
        let sampler = McSampler::default();
        let x = Tensor::ones(&[2, 3, 12, 12]);
        let pred = sampler.confidence_exit_predict(&mut net, &x, 0.5).unwrap();
        for b in 0..2 {
            let s: f32 = pred.probs.as_slice()[b * 10..(b + 1) * 10].iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }
}
