//! The engine abstraction the server batches over.
//!
//! A [`BatchEngine`] is anything that can run **batch-boundary-invariant**
//! Monte-Carlo prediction: the result row for each sample must be bit-exact
//! with a single-sample call at the same `(n_samples, seed)`, however the
//! dynamic batcher happens to group requests. Both compiled plan families
//! provide exactly that entry point — [`QuantEngine`] wraps the integer
//! [`bnn_quant::QuantPlan`] (`predict_probs_batch_into`), [`FloatEngine`]
//! wraps the float [`bnn_models::MultiExitPlan`]
//! (`predict_probs_batch_into`) — so a worker can serve any mix of batch
//! sizes without changing a single response bit.

use crate::error::ServeError;
use bnn_models::{AdaptiveStats, ExitPolicy, MultiExitPlan};
use bnn_quant::QuantPlan;
use bnn_tensor::exec::Executor;
use bnn_tensor::Tensor;

/// A batch-capable inference engine a serving worker can own.
///
/// Contract: `predict_batch_into` must be **batch-boundary invariant** (each
/// output row bit-exact with a single-sample call at the same seed) and must
/// not allocate in the steady state after [`BatchEngine::ensure_batch`]
/// warmed the arena for the largest batch it will see (output-buffer growth
/// aside).
pub trait BatchEngine: Send {
    /// Per-sample input dims (batch axis stripped): submitted samples carry
    /// `in_dims().iter().product()` elements.
    fn in_dims(&self) -> &[usize];

    /// Number of predicted classes (the per-request response length).
    fn num_classes(&self) -> usize;

    /// Number of exit heads the plan carries (adaptive requests can retire
    /// at exits `0..num_exits()`).
    fn num_exits(&self) -> usize;

    /// The plan's static integer-op estimate for ONE sample served at fixed
    /// (full) depth with `n_samples` MC samples — the per-request baseline
    /// adaptive savings are measured against.
    fn fixed_unit_ops(&self, n_samples: usize) -> u64;

    /// Pre-sizes internal arenas for batches up to `max_batch`.
    fn ensure_batch(&mut self, max_batch: usize);

    /// Seeded MC prediction of a `[batch, ..in_dims]` tensor into `out`
    /// (`[batch, classes]`, resized), batch-boundary invariant.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] for malformed inputs or
    /// [`ServeError::Engine`] on execution failures.
    fn predict_batch_into(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
        out: &mut Vec<f32>,
    ) -> Result<(), ServeError>;

    /// Adaptive (early-exit) variant of
    /// [`BatchEngine::predict_batch_into`]: after each exit head the
    /// `policy` retires confident samples and the surviving rows are
    /// compacted into a dense smaller batch, so deeper blocks only see the
    /// stragglers. Fills `exit_taken[i]` with the exit request `i` retired
    /// at and returns the execution accounting. Per-row results stay
    /// batch-boundary invariant (bit-exact with a single-sample call under
    /// the same policy).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] for malformed inputs or an
    /// out-of-range policy threshold, [`ServeError::Engine`] on execution
    /// failures.
    fn predict_adaptive_batch_into(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
        policy: &ExitPolicy,
        out: &mut Vec<f32>,
        exit_taken: &mut Vec<usize>,
    ) -> Result<AdaptiveStats, ServeError>;

    /// An independent replica of this engine for another worker thread
    /// (packed weights and arenas are copied, no model rebuild).
    fn fork(&self) -> Box<dyn BatchEngine>;
}

/// [`BatchEngine`] over the integer [`QuantPlan`] — the production path:
/// allocation-free in steady state and SIMD-dispatched.
#[derive(Debug, Clone)]
pub struct QuantEngine {
    plan: QuantPlan,
}

impl QuantEngine {
    /// Wraps a compiled integer plan, pinned to `Executor::sequential()`:
    /// serving workers are the parallelism, so each batch runs inline on its
    /// worker and stays allocation-free in the steady state.
    pub fn new(mut plan: QuantPlan) -> Self {
        plan.set_executor(Executor::sequential());
        QuantEngine { plan }
    }
}

impl BatchEngine for QuantEngine {
    fn in_dims(&self) -> &[usize] {
        self.plan.in_dims()
    }

    fn num_classes(&self) -> usize {
        self.plan.num_classes()
    }

    fn num_exits(&self) -> usize {
        self.plan.num_exits()
    }

    fn fixed_unit_ops(&self, n_samples: usize) -> u64 {
        self.plan.fixed_cost(1, n_samples).1
    }

    fn ensure_batch(&mut self, max_batch: usize) {
        self.plan.ensure_batch(max_batch);
    }

    fn predict_batch_into(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
        out: &mut Vec<f32>,
    ) -> Result<(), ServeError> {
        self.plan
            .predict_probs_batch_into(inputs, n_samples, seed, out)?;
        Ok(())
    }

    fn predict_adaptive_batch_into(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
        policy: &ExitPolicy,
        out: &mut Vec<f32>,
        exit_taken: &mut Vec<usize>,
    ) -> Result<AdaptiveStats, ServeError> {
        Ok(self
            .plan
            .predict_adaptive_batch_into(inputs, n_samples, seed, policy, out, exit_taken)?)
    }

    fn fork(&self) -> Box<dyn BatchEngine> {
        Box::new(self.clone())
    }
}

/// [`BatchEngine`] over the float [`MultiExitPlan`] — the reference path for
/// networks that are not quantized (or not quantizable).
#[derive(Debug, Clone)]
pub struct FloatEngine {
    plan: MultiExitPlan,
}

impl FloatEngine {
    /// Wraps a compiled float multi-exit plan.
    pub fn new(plan: MultiExitPlan) -> Self {
        FloatEngine { plan }
    }
}

impl BatchEngine for FloatEngine {
    fn in_dims(&self) -> &[usize] {
        self.plan.in_dims()
    }

    fn num_classes(&self) -> usize {
        self.plan.num_classes()
    }

    fn num_exits(&self) -> usize {
        self.plan.num_exits()
    }

    fn fixed_unit_ops(&self, n_samples: usize) -> u64 {
        self.plan.fixed_cost(1, n_samples).1
    }

    fn ensure_batch(&mut self, max_batch: usize) {
        self.plan.ensure_batch(max_batch);
    }

    fn predict_batch_into(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
        out: &mut Vec<f32>,
    ) -> Result<(), ServeError> {
        self.plan
            .predict_probs_batch_into(inputs, n_samples, seed, out)?;
        Ok(())
    }

    fn predict_adaptive_batch_into(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
        policy: &ExitPolicy,
        out: &mut Vec<f32>,
        exit_taken: &mut Vec<usize>,
    ) -> Result<AdaptiveStats, ServeError> {
        Ok(self
            .plan
            .predict_adaptive_batch_into(inputs, n_samples, seed, policy, out, exit_taken)?)
    }

    fn fork(&self) -> Box<dyn BatchEngine> {
        Box::new(self.clone())
    }
}
