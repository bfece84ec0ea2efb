//! Compiled inference plans for multi-exit networks: the allocate-once
//! counterpart of [`MultiExitNetwork`]'s forward path.
//!
//! [`MultiExitNetwork::compile_plan`] lowers every backbone block and exit
//! branch into a [`bnn_nn::InferencePlan`]. The plans execute exactly the
//! layer forward chain bit for bit (see `bnn_nn::plan`), so the Bayesian
//! sampler can run its backbone-once/exits-many Monte-Carlo loop on a plan —
//! reusing each plan's arena across passes instead of allocating per-layer
//! activations and rebuilding model replicas — without changing a single
//! output bit. The seeded fixed-depth and adaptive entry points run the
//! shared exit-major driver ([`crate::mc`]) with the plan as its backend:
//! every block's output stays in that block's arena, and adaptive
//! compaction moves surviving rows in place there. Every zoo architecture
//! plans, batch normalisation and residual blocks included.

use crate::error::ModelError;
use crate::mc::{self, McBackend, McLayout, McScratch};
use crate::multi_exit::MultiExitNetwork;
use crate::policy::{AdaptivePrediction, AdaptiveStats, ExitPolicy};
use bnn_nn::layer::Mode;
use bnn_nn::network::Network;
use bnn_nn::{InferencePlan, Layer};
use bnn_tensor::rng::SplitMix64;
use bnn_tensor::Tensor;

/// Compiled plans of every backbone block and exit branch of a multi-exit
/// network, in the network's own execution/attachment order.
///
/// Cloning a plan clones its packed weights and arenas — a self-contained
/// inference replica for a worker thread, without rebuilding the model from
/// its spec.
#[derive(Debug, Clone)]
pub struct MultiExitPlan {
    blocks: Vec<InferencePlan>,
    exits: Vec<(usize, InferencePlan)>,
    in_dims: Vec<usize>,
    layout: McLayout,
    mc: McScratch,
}

/// A compiled plan memoised on its network, keyed by the weight version and
/// input shape it was compiled for (see [`MultiExitNetwork::cached_plan`]).
#[derive(Debug)]
pub(crate) struct PlanCache {
    version: u64,
    in_dims: Vec<usize>,
    plan: MultiExitPlan,
}

impl MultiExitNetwork {
    /// Compiles the inference plan of this network for per-sample inputs of
    /// shape `in_dims` (batch axis stripped).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Nn`] when a layer has no inference lowering or
    /// a shape does not chain.
    pub fn compile_plan(&self, in_dims: &[usize]) -> Result<MultiExitPlan, ModelError> {
        let mut dims = in_dims.to_vec();
        let mut blocks = Vec::with_capacity(self.num_blocks());
        let mut block_dims = Vec::with_capacity(self.num_blocks());
        for block in self.blocks() {
            let plan = InferencePlan::compile(block as &dyn Layer, &dims)?;
            dims = plan.out_dims().to_vec();
            block_dims.push(dims.clone());
            blocks.push(plan);
        }
        let mut exits = Vec::with_capacity(self.exits().len());
        for (after_block, branch) in self.exits() {
            let plan = InferencePlan::compile(branch as &dyn Layer, &block_dims[*after_block])?;
            exits.push((*after_block, plan));
        }
        let cost = |plan: &InferencePlan| (plan.num_steps() as u64, plan.unit_ops());
        let layout = McLayout {
            classes: self.num_classes(),
            blocks: blocks.iter().map(cost).collect(),
            exits: exits.iter().map(|(b, plan)| (*b, cost(plan))).collect(),
        };
        Ok(MultiExitPlan {
            blocks,
            exits,
            in_dims: in_dims.to_vec(),
            layout,
            mc: McScratch::default(),
        })
    }

    /// The compiled plan for inputs of shape `in_dims`, memoised on the
    /// network: recompiled only when the weights have changed since the last
    /// call (tracked by [`MultiExitNetwork::weight_version`]) or when
    /// `in_dims` differs. Repeated predictions on a trained network skip the
    /// full lowering + weight-packing pass this way; the returned plan is
    /// handed out mutably because executing it mutates its arenas and MC
    /// streams, neither of which affects what a recompilation would produce.
    ///
    /// # Errors
    ///
    /// See [`MultiExitNetwork::compile_plan`].
    pub fn cached_plan(&mut self, in_dims: &[usize]) -> Result<&mut MultiExitPlan, ModelError> {
        let version = self.weight_version();
        let hit = matches!(
            &self.plan_cache,
            Some(c) if c.version == version && c.in_dims == in_dims
        );
        if !hit {
            let plan = self.compile_plan(in_dims)?;
            self.plan_cache = Some(PlanCache {
                version,
                in_dims: in_dims.to_vec(),
                plan,
            });
        }
        Ok(&mut self
            .plan_cache
            .as_mut()
            .expect("plan cache populated above")
            .plan)
    }
}

impl MultiExitPlan {
    /// Number of exits.
    pub fn num_exits(&self) -> usize {
        self.exits.len()
    }

    /// Number of predicted classes.
    pub fn num_classes(&self) -> usize {
        self.layout.classes
    }

    /// Per-sample input dims the plan was compiled for (batch axis
    /// stripped): inputs must be shaped `[batch, ..in_dims]`.
    pub fn in_dims(&self) -> &[usize] {
        &self.in_dims
    }

    /// Checks the input shape, returning the batch size.
    fn check_input(&self, inputs: &Tensor) -> Result<usize, ModelError> {
        if inputs.dims().len() != self.in_dims.len() + 1 || inputs.dims()[1..] != self.in_dims[..] {
            return Err(ModelError::InvalidInput(format!(
                "plan expects input dims [batch, {:?}], got {:?}",
                self.in_dims,
                inputs.dims()
            )));
        }
        if inputs.dims()[0] == 0 {
            return Err(ModelError::InvalidInput("empty input batch".into()));
        }
        Ok(inputs.dims()[0])
    }

    /// The plan as the MC driver's backend over the rows of `inputs`, and
    /// the driver's scratch.
    fn backend<'a>(&'a mut self, inputs: &'a Tensor) -> (FloatBackend<'a>, &'a mut McScratch) {
        let backend = FloatBackend {
            blocks: &mut self.blocks,
            exits: &mut self.exits,
            layout: &self.layout,
            input: inputs.as_slice(),
        };
        (backend, &mut self.mc)
    }

    /// Pre-sizes every block and exit arena for `max_batch` samples, so a
    /// serving worker pays all plan allocations up front. Monotone: never
    /// shrinks.
    pub fn ensure_batch(&mut self, max_batch: usize) {
        for block in &mut self.blocks {
            block.ensure_batch(max_batch);
        }
        for (_, exit) in &mut self.exits {
            exit.ensure_batch(max_batch);
        }
        self.mc.ensure(max_batch.max(1), self.layout.classes);
    }

    /// Reseeds every MC-dropout stream from `master_seed`, walking blocks
    /// then exits — the same stream assignment as
    /// [`Network::reseed_mc_streams`] on the network this plan was compiled
    /// from.
    pub fn reseed_mc_streams(&mut self, master_seed: u64) {
        reseed_streams(&mut self.blocks, &mut self.exits, master_seed);
    }

    /// Runs the backbone, returning the activation after every block —
    /// bit-identical to [`MultiExitNetwork::forward_backbone`].
    ///
    /// # Errors
    ///
    /// Propagates plan execution errors.
    pub fn forward_backbone(
        &mut self,
        input: &Tensor,
        mode: Mode,
    ) -> Result<Vec<Tensor>, ModelError> {
        let mut activations = Vec::with_capacity(self.blocks.len());
        for (i, block) in self.blocks.iter_mut().enumerate() {
            let src = if i == 0 { input } else { &activations[i - 1] };
            let out = block.forward(src, mode)?;
            activations.push(out);
        }
        Ok(activations)
    }

    /// Runs only the exit branches on pre-computed backbone activations —
    /// bit-identical to
    /// [`MultiExitNetwork::forward_exits_from_activations`]. Re-running this
    /// in [`Mode::McSample`] on the same activations draws additional MC
    /// samples while reusing each exit plan's arena.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidSpec`] if `activations` does not hold
    /// one tensor per block, or propagates execution errors.
    pub fn forward_exits_from_activations(
        &mut self,
        activations: &[Tensor],
        mode: Mode,
    ) -> Result<Vec<Tensor>, ModelError> {
        if activations.len() != self.blocks.len() {
            return Err(ModelError::InvalidSpec(format!(
                "expected {} block activations, got {}",
                self.blocks.len(),
                activations.len()
            )));
        }
        let mut outputs = Vec::with_capacity(self.exits.len());
        for (after_block, branch) in &mut self.exits {
            outputs.push(branch.forward(&activations[*after_block], mode)?);
        }
        Ok(outputs)
    }

    /// Seeded Monte-Carlo prediction with **batch-boundary-invariant**
    /// outputs, the float counterpart of
    /// `bnn_quant::QuantPlan::predict_probs_batch_into`: the backbone runs
    /// once in [`Mode::Eval`], each pass reseeds the mask streams from
    /// `stream_seed(seed, pass)` and re-runs the exits with per-sample
    /// dropout masks broadcast across the batch
    /// ([`InferencePlan::run`] with `shared_mask`), and the first `n_samples`
    /// per-sample softmax tensors are averaged into `out`
    /// (`[batch, classes]`, resized). Because the masks are per-sample, every
    /// row of the result is bit-exact with a single-sample call at the same
    /// seed, however the samples are grouped into batches.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidInput`] for an empty batch or an input
    /// shape mismatch, [`ModelError::InvalidSpec`] for a plan without exits,
    /// or propagates execution errors.
    pub fn predict_probs_batch_into(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
        out: &mut Vec<f32>,
    ) -> Result<(usize, usize), ModelError> {
        self.layout.check_fixed().map_err(ModelError::InvalidSpec)?;
        let batch = self.check_input(inputs)?;
        out.resize(batch * self.layout.classes, 0.0);
        let (mut backend, mc) = self.backend(inputs);
        mc::predict_fixed(&mut backend, mc, n_samples, seed, out)?;
        Ok((batch, self.layout.classes))
    }

    /// [`MultiExitPlan::predict_probs_batch_into`] returning a fresh tensor.
    ///
    /// # Errors
    ///
    /// See [`MultiExitPlan::predict_probs_batch_into`].
    pub fn predict_probs_batch(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
    ) -> Result<Tensor, ModelError> {
        let mut out = Vec::new();
        let (batch, classes) = self.predict_probs_batch_into(inputs, n_samples, seed, &mut out)?;
        Ok(Tensor::from_vec(out, &[batch, classes])?)
    }

    /// Static cost of the fixed-depth path
    /// ([`MultiExitPlan::predict_probs_batch_into`]) for a `batch`-sample
    /// call at `n_samples` MC samples: `(step_invocations, ops)` where ops
    /// scale with the batch but invocations do not (each invocation runs the
    /// whole batch). This is the `ops_fixed` baseline the adaptive path
    /// reports its savings against.
    pub fn fixed_cost(&self, batch: usize, n_samples: usize) -> (u64, u64) {
        self.layout.fixed_cost(batch, n_samples)
    }

    /// Policy-driven adaptive batched prediction: the step list is executed
    /// in exit-boundary segments, and after each exit head's ensemble joins
    /// the live rows, `policy` retires the confident samples and the
    /// surviving rows are **compacted into a dense smaller batch** that alone
    /// pays for the deeper blocks.
    ///
    /// Execution order per exit `e`: run the backbone blocks up to the
    /// exit's attachment point once in [`Mode::Eval`] on the live rows, then
    /// draw `ceil(n_samples / n_exits)` MC samples from exit `e` (pass `p`
    /// reseeds every mask stream from `stream_seed(seed, p)`, exactly the
    /// fixed path's assignment, with per-sample masks broadcast across the
    /// batch). Each sample's output row is the running equally-weighted
    /// ensemble mean over all exits consulted before it retired. Because
    /// masks are per-sample and every retirement decision is row-local,
    /// each row — probabilities *and* exit choice — is bit-exact with
    /// evaluating that sample alone under the same policy, regardless of
    /// which other samples shared its batch or when they retired.
    ///
    /// With `n_samples == 0` the exits are consulted deterministically in
    /// [`Mode::Eval`] (one consult per exit), matching the historical
    /// `McSampler::confidence_exit_predict` semantics. With
    /// [`ExitPolicy::Never`] and `n_samples > 0` the call delegates to
    /// [`MultiExitPlan::predict_probs_batch_into`] and is bit-exact with it.
    ///
    /// `out` is resized to `[batch * classes]` and `exit_taken` to `batch`
    /// (the exit index each sample retired at). Returns the execution
    /// accounting, including the fixed-depth op baseline for the same call.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidInput`] for an invalid policy threshold,
    /// an empty batch or a shape mismatch, [`ModelError::InvalidSpec`] for a
    /// plan without exits or with exits attached out of depth order, or
    /// propagates execution errors.
    pub fn predict_adaptive_batch_into(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
        policy: &ExitPolicy,
        out: &mut Vec<f32>,
        exit_taken: &mut Vec<usize>,
    ) -> Result<AdaptiveStats, ModelError> {
        policy.validate().map_err(ModelError::InvalidInput)?;
        self.layout
            .check_adaptive()
            .map_err(ModelError::InvalidSpec)?;
        let batch = self.check_input(inputs)?;
        let (mut backend, mc) = self.backend(inputs);
        mc::predict_adaptive(
            &mut backend,
            mc,
            batch,
            n_samples,
            seed,
            policy,
            out,
            exit_taken,
        )
    }

    /// [`MultiExitPlan::predict_adaptive_batch_into`] returning owned
    /// values.
    ///
    /// # Errors
    ///
    /// See [`MultiExitPlan::predict_adaptive_batch_into`].
    pub fn predict_adaptive_batch(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
        policy: &ExitPolicy,
    ) -> Result<AdaptivePrediction, ModelError> {
        let mut out = Vec::new();
        let mut exit_taken = Vec::new();
        let stats = self.predict_adaptive_batch_into(
            inputs,
            n_samples,
            seed,
            policy,
            &mut out,
            &mut exit_taken,
        )?;
        Ok(AdaptivePrediction {
            probs: Tensor::from_vec(out, &[stats.batch, stats.classes])?,
            exit_taken,
            stats,
        })
    }
}

/// Reseeds every MC-dropout stream from `master_seed`, walking blocks then
/// exits.
fn reseed_streams(
    blocks: &mut [InferencePlan],
    exits: &mut [(usize, InferencePlan)],
    master_seed: u64,
) {
    let mut streams = SplitMix64::new(master_seed);
    for block in blocks {
        block.reseed_mc(&mut streams);
    }
    for (_, exit) in exits {
        exit.reseed_mc(&mut streams);
    }
}

/// A [`MultiExitPlan`] as the MC driver's backend. Each block reads the
/// previous block's output rows from that block's arena (block 0 reads
/// `input`); exits read their attachment block's; MC masks are per sample
/// and broadcast across the batch.
struct FloatBackend<'a> {
    blocks: &'a mut [InferencePlan],
    exits: &'a mut [(usize, InferencePlan)],
    layout: &'a McLayout,
    input: &'a [f32],
}

impl McBackend for FloatBackend<'_> {
    type Error = ModelError;

    fn layout(&self) -> &McLayout {
        self.layout
    }

    fn run_block(&mut self, block: usize, live: usize) -> Result<(), ModelError> {
        let (done, rest) = self.blocks.split_at_mut(block);
        let input = done.last().map_or(self.input, |prev| prev.output(live));
        rest[0].run(input, live, Mode::Eval, false)?;
        Ok(())
    }

    fn reseed(&mut self, master_seed: u64) {
        reseed_streams(self.blocks, self.exits, master_seed);
    }

    fn run_exit(&mut self, exit: usize, live: usize, mode: Mode) -> Result<&[f32], ModelError> {
        let (block, plan) = &mut self.exits[exit];
        Ok(plan.run(self.blocks[*block].output(live), live, mode, true)?)
    }

    fn keep_row(&mut self, block: usize, from: usize, to: usize) {
        let unit: usize = self.blocks[block].out_dims().iter().product();
        self.blocks[block]
            .output_mut(from + 1)
            .copy_within(from * unit..(from + 1) * unit, to * unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{LayerSpec, NetworkSpec};
    use crate::{zoo, ModelConfig};
    use bnn_tensor::rng::Xoshiro256StarStar;

    fn lenet() -> MultiExitNetwork {
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
        .build(5)
        .unwrap()
    }

    #[test]
    fn plan_matches_network_forward_bitwise() {
        let mut net = lenet();
        let mut plan = net.compile_plan(&[1, 10, 10]).unwrap();
        assert_eq!(plan.num_exits(), 2);
        assert_eq!(plan.num_classes(), 4);
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let x = Tensor::randn(&[3, 1, 10, 10], &mut rng);

        let acts_ref = net.forward_backbone(&x, Mode::Eval).unwrap();
        let acts = plan.forward_backbone(&x, Mode::Eval).unwrap();
        assert_eq!(acts_ref.len(), acts.len());
        for (a, b) in acts_ref.iter().zip(&acts) {
            assert_eq!(a.as_slice(), b.as_slice());
        }

        // MC exit passes under shared reseeds stay bitwise equal.
        for seed in [3u64, 77] {
            net.reseed_mc_streams(seed);
            plan.reseed_mc_streams(seed);
            let e_ref = net
                .forward_exits_from_activations(&acts_ref, Mode::McSample)
                .unwrap();
            let e_plan = plan
                .forward_exits_from_activations(&acts, Mode::McSample)
                .unwrap();
            for (a, b) in e_ref.iter().zip(&e_plan) {
                assert_eq!(a.as_slice(), b.as_slice(), "seed {seed}");
            }
        }
    }

    #[test]
    fn cached_plan_recompiles_only_on_mutation_or_shape_change() {
        let mut net = lenet();
        let v0 = net.weight_version();
        let mut rng = Xoshiro256StarStar::seed_from_u64(21);
        let x = Tensor::randn(&[2, 1, 10, 10], &mut rng);

        // First call compiles; the cached plan matches a fresh compile bitwise.
        let mut fresh = net.compile_plan(&[1, 10, 10]).unwrap();
        let acts_fresh = fresh.forward_backbone(&x, Mode::Eval).unwrap();
        {
            let plan = net.cached_plan(&[1, 10, 10]).unwrap();
            let acts = plan.forward_backbone(&x, Mode::Eval).unwrap();
            for (a, b) in acts_fresh.iter().zip(&acts) {
                assert_eq!(a.as_slice(), b.as_slice());
            }
        }
        // Unmutated repeat: same version, cache hit (version unchanged, and
        // checkpointing — a read-only walk — must not invalidate).
        let _ = net.checkpoint();
        assert_eq!(net.weight_version(), v0);
        {
            let plan = net.cached_plan(&[1, 10, 10]).unwrap();
            let acts = plan.forward_backbone(&x, Mode::Eval).unwrap();
            for (a, b) in acts_fresh.iter().zip(&acts) {
                assert_eq!(a.as_slice(), b.as_slice());
            }
        }

        // Mutating a weight through params_mut bumps the version and the
        // next cached_plan call picks up the new weights.
        {
            let mut params = net.params_mut();
            let w = params[0].value.as_mut_slice();
            w[0] += 1.0;
        }
        assert_ne!(net.weight_version(), v0);
        let plan = net.cached_plan(&[1, 10, 10]).unwrap();
        let acts_new = plan.forward_backbone(&x, Mode::Eval).unwrap();
        assert_ne!(acts_new[0].as_slice(), acts_fresh[0].as_slice());
    }

    #[test]
    fn batched_predict_is_concat_of_single_sample_calls() {
        let net = lenet();
        let mut plan = net.compile_plan(&[1, 10, 10]).unwrap();
        plan.ensure_batch(3);
        assert_eq!(plan.in_dims(), &[1, 10, 10]);
        let mut rng = Xoshiro256StarStar::seed_from_u64(14);
        let x = Tensor::randn(&[3, 1, 10, 10], &mut rng);
        let all = plan.predict_probs_batch(&x, 5, 2023).unwrap();
        let per = 100usize;
        for b in 0..3 {
            let sample = Tensor::from_vec(
                x.as_slice()[b * per..(b + 1) * per].to_vec(),
                &[1, 1, 10, 10],
            )
            .unwrap();
            let one = plan.predict_probs_batch(&sample, 5, 2023).unwrap();
            assert_eq!(&all.as_slice()[b * 4..(b + 1) * 4], one.as_slice(), "{b}");
        }
        // rows are simplexes
        for row in all.as_slice().chunks(4) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn adaptive_never_matches_fixed_batch_bitwise() {
        let net = lenet();
        let mut plan = net.compile_plan(&[1, 10, 10]).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(31);
        let x = Tensor::randn(&[3, 1, 10, 10], &mut rng);
        let fixed = plan.predict_probs_batch(&x, 6, 2023).unwrap();
        let adaptive = plan
            .predict_adaptive_batch(&x, 6, 2023, &ExitPolicy::Never)
            .unwrap();
        assert_eq!(fixed.as_slice(), adaptive.probs.as_slice());
        assert_eq!(adaptive.exit_taken, vec![plan.num_exits() - 1; 3]);
        assert_eq!(adaptive.stats.ops_executed, adaptive.stats.ops_fixed);
        assert!(adaptive.stats.ops_fixed > 0);
    }

    #[test]
    fn adaptive_rows_match_single_sample_evaluation() {
        let net = lenet();
        let mut plan = net.compile_plan(&[1, 10, 10]).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(33);
        let x = Tensor::randn(&[4, 1, 10, 10], &mut rng);
        let per = 100usize;
        for policy in [
            ExitPolicy::Confidence { threshold: 0.3 },
            ExitPolicy::Entropy { threshold: 0.97 },
            ExitPolicy::Confidence { threshold: 0.0 }, // everyone retires at exit 0
            ExitPolicy::Confidence { threshold: 1.0 }, // nobody retires early
        ] {
            for n_samples in [0usize, 6] {
                let all = plan
                    .predict_adaptive_batch(&x, n_samples, 2023, &policy)
                    .unwrap();
                for b in 0..4 {
                    let sample = Tensor::from_vec(
                        x.as_slice()[b * per..(b + 1) * per].to_vec(),
                        &[1, 1, 10, 10],
                    )
                    .unwrap();
                    let one = plan
                        .predict_adaptive_batch(&sample, n_samples, 2023, &policy)
                        .unwrap();
                    assert_eq!(
                        &all.probs.as_slice()[b * 4..(b + 1) * 4],
                        one.probs.as_slice(),
                        "{policy} n={n_samples} row {b}"
                    );
                    assert_eq!(
                        all.exit_taken[b], one.exit_taken[0],
                        "{policy} n={n_samples} row {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn adaptive_saves_ops_when_samples_retire_early() {
        let net = lenet();
        let mut plan = net.compile_plan(&[1, 10, 10]).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(35);
        let x = Tensor::randn(&[4, 1, 10, 10], &mut rng);
        let all_early = plan
            .predict_adaptive_batch(&x, 6, 2023, &ExitPolicy::Confidence { threshold: 0.0 })
            .unwrap();
        assert_eq!(all_early.exit_taken, vec![0; 4]);
        assert!(all_early.stats.ops_executed < all_early.stats.ops_fixed);
        assert!(all_early.stats.ops_saved_fraction() > 0.0);
    }

    #[test]
    fn adaptive_rejects_invalid_policy() {
        let net = lenet();
        let mut plan = net.compile_plan(&[1, 10, 10]).unwrap();
        let x = Tensor::ones(&[1, 1, 10, 10]);
        for bad in [f64::NAN, -0.5, 1.5] {
            assert!(matches!(
                plan.predict_adaptive_batch(&x, 4, 1, &ExitPolicy::Confidence { threshold: bad }),
                Err(ModelError::InvalidInput(_))
            ));
        }
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        let net = lenet();
        let mut plan = net.compile_plan(&[1, 10, 10]).unwrap();
        let empty = Tensor::from_vec(Vec::new(), &[0, 1, 10, 10]).unwrap();
        assert!(matches!(
            plan.predict_probs_batch(&empty, 4, 1),
            Err(ModelError::InvalidInput(_))
        ));
        let mut rng = Xoshiro256StarStar::seed_from_u64(15);
        let wrong = Tensor::randn(&[2, 1, 9, 9], &mut rng);
        assert!(matches!(
            plan.predict_probs_batch(&wrong, 4, 1),
            Err(ModelError::InvalidInput(_))
        ));
    }

    #[test]
    fn batchnorm_and_residual_networks_plan_bitwise() {
        let config = ModelConfig::cifar10()
            .with_resolution(12, 12)
            .with_width_divisor(16);
        for spec in [
            zoo::resnet18(&config),
            zoo::vgg11(&config),
            zoo::vgg19(&config),
        ] {
            let mut net = spec
                .with_exits_after_every_block()
                .unwrap()
                .with_exit_mcd(0.3)
                .unwrap()
                .build(1)
                .unwrap();
            let mut rng = Xoshiro256StarStar::seed_from_u64(19);
            // Training forwards move the batch-norm running statistics off
            // their defaults, and must invalidate a plan cached before them.
            net.cached_plan(&[3, 12, 12]).unwrap();
            for _ in 0..2 {
                let x = Tensor::randn(&[4, 3, 12, 12], &mut rng).map(|v| 1.5 * v + 0.5);
                net.forward_backbone(&x, Mode::Train).unwrap();
            }
            let mut plan = net.cached_plan(&[3, 12, 12]).unwrap().clone();
            let x = Tensor::randn(&[3, 3, 12, 12], &mut rng);
            let acts_ref = net.forward_backbone(&x, Mode::Eval).unwrap();
            let acts = plan.forward_backbone(&x, Mode::Eval).unwrap();
            for (a, b) in acts_ref.iter().zip(&acts) {
                assert_eq!(a.as_slice(), b.as_slice(), "{}", net.name());
            }
            for seed in [3u64, 77] {
                net.reseed_mc_streams(seed);
                plan.reseed_mc_streams(seed);
                let e_ref = net
                    .forward_exits_from_activations(&acts_ref, Mode::McSample)
                    .unwrap();
                let e_plan = plan
                    .forward_exits_from_activations(&acts, Mode::McSample)
                    .unwrap();
                for (a, b) in e_ref.iter().zip(&e_plan) {
                    assert_eq!(a.as_slice(), b.as_slice(), "{} seed {seed}", net.name());
                }
            }
        }
    }

    #[test]
    fn plan_clone_is_an_independent_replica() {
        let net = NetworkSpec::single_exit(
            "tiny",
            1,
            8,
            8,
            2,
            vec![vec![
                LayerSpec::Conv2d {
                    in_channels: 1,
                    out_channels: 2,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                },
                LayerSpec::Relu,
            ]],
            vec![
                LayerSpec::GlobalAvgPool2d,
                LayerSpec::Dense {
                    in_features: 2,
                    out_features: 2,
                },
            ],
        )
        .with_exit_mcd(0.5)
        .unwrap()
        .build(3)
        .unwrap();
        let mut plan = net.compile_plan(&[1, 8, 8]).unwrap();
        let mut replica = plan.clone();
        let x = Tensor::ones(&[2, 1, 8, 8]);
        plan.reseed_mc_streams(41);
        replica.reseed_mc_streams(41);
        let acts_a = plan.forward_backbone(&x, Mode::Eval).unwrap();
        let acts_b = replica.forward_backbone(&x, Mode::Eval).unwrap();
        let a = plan
            .forward_exits_from_activations(&acts_a, Mode::McSample)
            .unwrap();
        let b = replica
            .forward_exits_from_activations(&acts_b, Mode::McSample)
            .unwrap();
        assert_eq!(a[0].as_slice(), b[0].as_slice());
    }
}
