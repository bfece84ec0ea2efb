//! The exit-major Monte-Carlo driver shared by both compiled plan families.
//!
//! Multi-exit MC dropout runs the backbone once and draws MC samples from
//! every exit per pass (paper Eq. 2); adaptive execution stops easy inputs
//! at a shallow exit. This module holds that schedule exactly once, over a
//! small [`McBackend`] trait that `bnn_quant::QuantPlan` (one row shard of
//! it) and [`MultiExitPlan`](crate::MultiExitPlan) implement:
//!
//! * [`predict_fixed`] — the fixed-depth pass-major average: the backbone
//!   runs once in [`Mode::Eval`], pass `p` reseeds every mask stream from
//!   `stream_seed(seed, p)` and runs every exit in [`Mode::McSample`], and
//!   the first [`kept_samples`] softmax outputs are averaged.
//! * [`predict_adaptive`] — the exit-major walk: per exit, run the
//!   backbone blocks up to its attachment point on the live rows, draw
//!   [`samples_per_exit`] passes from the exit (pass `p` reseeds from the
//!   same `stream_seed(seed, p)`, so it draws the masks the fixed path
//!   draws), let the [`ExitPolicy`] retire rows, and compact the survivors
//!   to the front of the batch. [`ExitPolicy::Never`] with MC samples is
//!   served by [`predict_fixed`].
//! * [`McLayout::fixed_cost`] — the static price of the fixed path, the
//!   baseline [`AdaptiveStats`] measures savings against.
//!
//! A backend only runs blocks and exits on its arena; it never sees a pass
//! index, a kept-sample cutoff or a policy.

use crate::policy::{AdaptiveStats, ExitPolicy};
use bnn_nn::layer::Mode;
use bnn_tensor::ops::softmax_rows_into;
use bnn_tensor::rng::stream_seed;
use bnn_tensor::TensorError;

/// MC samples each consulted exit contributes on the adaptive path:
/// `ceil(n_samples / n_exits)`, or one deterministic consult when
/// `n_samples == 0`.
pub fn samples_per_exit(n_samples: usize, n_exits: usize) -> usize {
    if n_samples == 0 {
        1
    } else {
        n_samples.div_ceil(n_exits)
    }
}

/// Softmax samples the fixed path averages: `n_samples`, or one per exit
/// when `n_samples == 0`. Passes run every exit, so the last pass stops
/// early when `n_exits` does not divide `n_samples`.
pub fn kept_samples(n_samples: usize, n_exits: usize) -> usize {
    if n_samples == 0 {
        n_exits
    } else {
        n_samples
    }
}

/// `true` when an adaptive call is the fixed path: [`ExitPolicy::Never`]
/// retires nothing, and with MC samples its result is the fixed path's
/// pass-major average, bit for bit. (With `n_samples == 0` it consults each
/// exit once in [`Mode::Eval`] instead.)
pub fn serves_fixed(policy: &ExitPolicy, n_samples: usize) -> bool {
    policy.is_never() && n_samples > 0
}

/// `(step invocations, per-sample unit ops)` of one run of a block or an
/// exit head.
pub type RunCost = (u64, u64);

/// The static shape of a compiled multi-exit plan as the driver sees it:
/// classes, and the cost of each backbone block and of each exit head with
/// the block it attaches after.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct McLayout {
    /// Number of predicted classes.
    pub classes: usize,
    /// Cost of each backbone block, in execution order.
    pub blocks: Vec<RunCost>,
    /// Attachment block and cost of each exit head, in attachment order.
    pub exits: Vec<(usize, RunCost)>,
}

impl McLayout {
    /// Checks that the fixed path can run: the plan has an exit.
    ///
    /// # Errors
    ///
    /// Returns a description of the defect.
    pub fn check_fixed(&self) -> Result<(), String> {
        if self.exits.is_empty() {
            return Err("plan has no exits".into());
        }
        Ok(())
    }

    /// Checks that the adaptive path can run: the plan has an exit and
    /// its exits attach in ascending block order.
    ///
    /// # Errors
    ///
    /// Returns a description of the defect.
    pub fn check_adaptive(&self) -> Result<(), String> {
        self.check_fixed()?;
        if self.exits.windows(2).any(|w| w[0].0 > w[1].0) {
            return Err("adaptive execution requires exits in ascending block order".into());
        }
        Ok(())
    }

    /// Static cost of the fixed path for a `batch`-sample call at
    /// `n_samples` MC samples: `(step_invocations, ops)`, where ops scale
    /// with the batch and invocations do not (each runs the whole batch).
    pub fn fixed_cost(&self, batch: usize, n_samples: usize) -> (u64, u64) {
        let n_exits = self.exits.len();
        let kept = kept_samples(n_samples, n_exits);
        let (mut steps, mut unit_ops) = self
            .blocks
            .iter()
            .fold((0, 0), |(s, o), &(bs, bo)| (s + bs, o + bo));
        for (e, &(_, (es, eo))) in self.exits.iter().enumerate() {
            let runs = if e < kept {
                ((kept - e - 1) / n_exits + 1) as u64
            } else {
                0
            };
            steps += runs * es;
            unit_ops += runs * eo;
        }
        (steps, unit_ops * batch as u64)
    }

    /// Marks every sample of a `batch` served at fixed depth as retired at
    /// the last exit and returns the call's accounting: what it ran is
    /// exactly [`McLayout::fixed_cost`].
    pub fn served_fixed(
        &self,
        batch: usize,
        n_samples: usize,
        exit_taken: &mut Vec<usize>,
    ) -> AdaptiveStats {
        exit_taken.clear();
        exit_taken.resize(batch, self.exits.len().saturating_sub(1));
        let (steps, ops) = self.fixed_cost(batch, n_samples);
        AdaptiveStats {
            batch,
            classes: self.classes,
            samples_per_exit: samples_per_exit(n_samples, self.exits.len()),
            steps_executed: steps,
            ops_executed: ops,
            ops_fixed: ops,
        }
    }
}

/// One compiled plan's execution of blocks and exits, as the driver uses
/// it. The input rows are loaded before the driver runs; every call sees the
/// number of `live` rows, which are packed at the front of the batch.
pub trait McBackend {
    /// Execution error of the plan.
    type Error: From<TensorError>;

    /// The plan's classes, blocks and exits.
    fn layout(&self) -> &McLayout;

    /// Runs backbone block `block` in [`Mode::Eval`] on `live` rows of the
    /// previous block's output (the input rows for block 0).
    ///
    /// # Errors
    ///
    /// Propagates execution errors.
    fn run_block(&mut self, block: usize, live: usize) -> Result<(), Self::Error>;

    /// Reseeds every MC-dropout mask stream of the plan (blocks, then exits
    /// in attachment order) from `master_seed`.
    fn reseed(&mut self, master_seed: u64);

    /// Runs exit head `exit` in `mode` on `live` rows of its attachment
    /// block's output, returning the `[live, classes]` float logits.
    ///
    /// # Errors
    ///
    /// Propagates execution errors.
    fn run_exit(&mut self, exit: usize, live: usize, mode: Mode) -> Result<&[f32], Self::Error>;

    /// Copies row `from` of block `block`'s output over row `to` (`to <
    /// from`): the compaction of a surviving row.
    fn keep_row(&mut self, block: usize, from: usize, to: usize);
}

/// The driver's buffers: softmax staging, the running per-sample ensembles
/// and the live-row map of adaptive execution. Sizes grow monotonically, so
/// repeated same-batch calls never reallocate.
#[derive(Debug, Clone, Default)]
pub struct McScratch {
    /// Softmax of the current exit run, `[live, classes]`.
    probs: Vec<f32>,
    /// Adaptive execution: running per-sample softmax ensembles, live rows
    /// packed at the front.
    acc: Vec<f32>,
    /// Adaptive execution: original sample index of each live row.
    live_idx: Vec<usize>,
}

impl McScratch {
    /// Grows the buffers for `rows` samples of `classes` classes.
    pub fn ensure(&mut self, rows: usize, classes: usize) {
        let elems = rows * classes;
        if self.probs.len() < elems {
            self.probs.resize(elems, 0.0);
            self.acc.resize(elems, 0.0);
        }
        if self.live_idx.len() < rows {
            self.live_idx.resize(rows, 0);
        }
    }
}

/// The fixed-depth MC prediction of the loaded rows, averaged into `out`
/// (`[rows, classes]`): the backbone once in [`Mode::Eval`], then pass `p`
/// reseeds from `stream_seed(seed, p)` and runs the exits in order in
/// [`Mode::McSample`] until [`kept_samples`] softmax outputs are summed.
///
/// # Errors
///
/// Propagates backend errors.
pub fn predict_fixed<B: McBackend>(
    backend: &mut B,
    mc: &mut McScratch,
    n_samples: usize,
    seed: u64,
    out: &mut [f32],
) -> Result<(), B::Error> {
    let layout = backend.layout();
    let (n_blocks, n_exits, classes) = (layout.blocks.len(), layout.exits.len(), layout.classes);
    let rows = out.len() / classes;
    for block in 0..n_blocks {
        backend.run_block(block, rows)?;
    }
    mc.ensure(rows, classes);
    let probs = &mut mc.probs[..out.len()];
    let kept = kept_samples(n_samples, n_exits);
    out.fill(0.0);
    for sample in 0..kept {
        let (pass, exit) = (sample / n_exits, sample % n_exits);
        if exit == 0 {
            backend.reseed(stream_seed(seed, pass as u64));
        }
        let logits = backend.run_exit(exit, rows, Mode::McSample)?;
        softmax_rows_into(logits, rows, classes, probs)?;
        for (o, &p) in out.iter_mut().zip(probs.iter()) {
            *o += p;
        }
    }
    let inv = 1.0 / kept as f32;
    for o in out.iter_mut() {
        *o *= inv;
    }
    Ok(())
}

/// Policy-driven adaptive prediction of the `batch` loaded rows.
///
/// Per exit `e`: run the blocks up to its attachment point once on the live
/// rows, then draw [`samples_per_exit`] samples from exit `e` — pass `p`
/// reseeds every stream from `stream_seed(seed, p)`, so it draws the masks
/// the fixed path draws for this exit on pass `p` — in [`Mode::McSample`]
/// (or once in [`Mode::Eval`] when `n_samples == 0`). Then every live row
/// either retires, writing its running ensemble mean to its original row
/// of `out` and `e` to `exit_taken`, or slides forward to the next free
/// live row. Every row retires at the last exit. Calls that
/// [`serves_fixed`] run [`predict_fixed`].
///
/// `out` is resized to `[batch * classes]` and `exit_taken` to `batch`.
///
/// # Errors
///
/// Propagates backend errors.
#[allow(clippy::too_many_arguments)]
pub fn predict_adaptive<B: McBackend>(
    backend: &mut B,
    mc: &mut McScratch,
    batch: usize,
    n_samples: usize,
    seed: u64,
    policy: &ExitPolicy,
    out: &mut Vec<f32>,
    exit_taken: &mut Vec<usize>,
) -> Result<AdaptiveStats, B::Error> {
    let layout = backend.layout();
    let classes = layout.classes;
    out.resize(batch * classes, 0.0);
    let mut stats = layout.served_fixed(batch, n_samples, exit_taken);
    if serves_fixed(policy, n_samples) {
        predict_fixed(backend, mc, n_samples, seed, out)?;
        return Ok(stats);
    }
    let n_exits = layout.exits.len();
    let spe = stats.samples_per_exit;
    let mode = if n_samples == 0 {
        Mode::Eval
    } else {
        Mode::McSample
    };
    stats.steps_executed = 0;
    stats.ops_executed = 0;
    let mut charge = |(steps, ops): RunCost, live: usize| {
        stats.steps_executed += steps;
        stats.ops_executed += ops * live as u64;
    };

    mc.ensure(batch, classes);
    let McScratch {
        probs,
        acc,
        live_idx,
    } = mc;
    acc[..batch * classes].fill(0.0);
    for (i, v) in live_idx[..batch].iter_mut().enumerate() {
        *v = i;
    }
    let mut live = batch;
    let mut next_block = 0;
    for e in 0..n_exits {
        let (block, exit_cost) = backend.layout().exits[e];
        while next_block <= block {
            let cost = backend.layout().blocks[next_block];
            backend.run_block(next_block, live)?;
            charge(cost, live);
            next_block += 1;
        }
        let n = live * classes;
        for pass in 0..spe {
            if matches!(mode, Mode::McSample) {
                backend.reseed(stream_seed(seed, pass as u64));
            }
            let logits = backend.run_exit(e, live, mode)?;
            softmax_rows_into(logits, live, classes, &mut probs[..n])?;
            for (a, &p) in acc[..n].iter_mut().zip(&probs[..n]) {
                *a += p;
            }
            charge(exit_cost, live);
        }

        // Retire-or-compact: retired rows scatter their ensemble mean to
        // their original row; survivors slide forward in the accumulator,
        // the live-row map and the frontier block output.
        let consulted = ((e + 1) * spe) as f32;
        let last = e + 1 == n_exits;
        let mut keep = 0;
        for r in 0..live {
            let row = r * classes..(r + 1) * classes;
            if last || policy.retires(&acc[row.clone()], consulted) {
                let orig = live_idx[r];
                for (o, &a) in out[orig * classes..(orig + 1) * classes]
                    .iter_mut()
                    .zip(&acc[row])
                {
                    *o = a / consulted;
                }
                exit_taken[orig] = e;
            } else {
                if keep != r {
                    acc.copy_within(row, keep * classes);
                    live_idx[keep] = live_idx[r];
                    backend.keep_row(block, r, keep);
                }
                keep += 1;
            }
        }
        if keep == 0 {
            break;
        }
        live = keep;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One recorded backend call.
    #[derive(Debug, Clone, PartialEq)]
    enum Call {
        Block {
            block: usize,
            live: usize,
        },
        Reseed(u64),
        Exit {
            exit: usize,
            live: usize,
            mode: Mode,
        },
        Keep {
            block: usize,
            from: usize,
            to: usize,
        },
    }

    /// A backend whose exit logits are fixed per (exit, original row), so
    /// retirement is predictable; it records every call and tracks which
    /// original row sits at each live position, moving it on `keep_row`.
    struct Fake {
        layout: McLayout,
        calls: Vec<Call>,
        /// Logits per exit per original row.
        logits: Vec<Vec<Vec<f32>>>,
        rows: Vec<usize>,
        staged: Vec<f32>,
    }

    impl Fake {
        fn new(layout: McLayout, logits: Vec<Vec<Vec<f32>>>, batch: usize) -> Self {
            Fake {
                layout,
                calls: Vec::new(),
                logits,
                rows: (0..batch).collect(),
                staged: Vec::new(),
            }
        }
    }

    impl McBackend for Fake {
        type Error = TensorError;

        fn layout(&self) -> &McLayout {
            &self.layout
        }

        fn run_block(&mut self, block: usize, live: usize) -> Result<(), TensorError> {
            self.calls.push(Call::Block { block, live });
            Ok(())
        }

        fn reseed(&mut self, master_seed: u64) {
            self.calls.push(Call::Reseed(master_seed));
        }

        fn run_exit(
            &mut self,
            exit: usize,
            live: usize,
            mode: Mode,
        ) -> Result<&[f32], TensorError> {
            self.calls.push(Call::Exit { exit, live, mode });
            self.staged.clear();
            for &orig in &self.rows[..live] {
                self.staged.extend_from_slice(&self.logits[exit][orig]);
            }
            Ok(&self.staged)
        }

        fn keep_row(&mut self, block: usize, from: usize, to: usize) {
            self.calls.push(Call::Keep { block, from, to });
            self.rows[to] = self.rows[from];
        }
    }

    /// Two blocks, one exit after each; per-sample unit ops 10/20 (blocks)
    /// and 1/2 (exits), one step each except block 1 (three steps).
    fn layout() -> McLayout {
        McLayout {
            classes: 2,
            blocks: vec![(1, 10), (3, 20)],
            exits: vec![(0, (1, 1)), (1, (1, 2))],
        }
    }

    /// Exit-0 logits: rows 0 and 2 are confident (retire), rows 1 and 3
    /// are not.
    fn logits(batch: usize) -> Vec<Vec<Vec<f32>>> {
        let exit0 = (0..batch)
            .map(|r| {
                if r % 2 == 0 {
                    vec![9.0, 0.0]
                } else {
                    vec![0.0, 0.0]
                }
            })
            .collect();
        let exit1 = (0..batch).map(|_| vec![0.0, 1.0]).collect();
        vec![exit0, exit1]
    }

    #[test]
    fn schedule_helpers() {
        assert_eq!(samples_per_exit(0, 3), 1);
        assert_eq!(samples_per_exit(7, 3), 3);
        assert_eq!(kept_samples(0, 3), 3);
        assert_eq!(kept_samples(7, 3), 7);
        assert!(serves_fixed(&ExitPolicy::Never, 1));
        assert!(!serves_fixed(&ExitPolicy::Never, 0));
        assert!(!serves_fixed(&ExitPolicy::Confidence { threshold: 0.5 }, 4));
        assert!(McLayout::default().check_fixed().is_err());
        let unordered = McLayout {
            exits: vec![(1, (1, 1)), (0, (1, 1))],
            ..layout()
        };
        assert!(unordered.check_fixed().is_ok());
        assert!(unordered.check_adaptive().is_err());
        assert!(layout().check_adaptive().is_ok());
    }

    #[test]
    fn fixed_path_reseeds_per_pass_and_stops_at_the_kept_cutoff() {
        let mut fake = Fake::new(layout(), logits(2), 2);
        let mut mc = McScratch::default();
        let mut out = vec![0.0; 4];
        predict_fixed(&mut fake, &mut mc, 3, 42, &mut out).unwrap();
        let mc_exit = |exit| Call::Exit {
            exit,
            live: 2,
            mode: Mode::McSample,
        };
        // Two passes for 3 samples on 2 exits; pass 1 skips exit 1.
        assert_eq!(
            fake.calls,
            vec![
                Call::Block { block: 0, live: 2 },
                Call::Block { block: 1, live: 2 },
                Call::Reseed(stream_seed(42, 0)),
                mc_exit(0),
                mc_exit(1),
                Call::Reseed(stream_seed(42, 1)),
                mc_exit(0),
            ]
        );
        for row in out.chunks(2) {
            assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        }
        // fixed_cost prices exactly those runs: 1 + 3 block steps, exit 0
        // twice and exit 1 once.
        assert_eq!(layout().fixed_cost(2, 3), (4 + 2 + 1, (30 + 2 + 2) * 2));
    }

    #[test]
    fn adaptive_path_compacts_survivors_before_deeper_blocks() {
        let batch = 4;
        let mut fake = Fake::new(layout(), logits(batch), batch);
        let mut mc = McScratch::default();
        let (mut out, mut taken) = (Vec::new(), Vec::new());
        let policy = ExitPolicy::Confidence { threshold: 0.9 };
        let stats = predict_adaptive(
            &mut fake, &mut mc, batch, 4, 7, &policy, &mut out, &mut taken,
        )
        .unwrap();
        let exit = |exit, live| Call::Exit {
            exit,
            live,
            mode: Mode::McSample,
        };
        // Two samples per exit; rows 1 and 3 survive exit 0 and move to
        // live rows 0 and 1 of block 0's output before block 1 runs.
        assert_eq!(
            fake.calls,
            vec![
                Call::Block { block: 0, live: 4 },
                Call::Reseed(stream_seed(7, 0)),
                exit(0, 4),
                Call::Reseed(stream_seed(7, 1)),
                exit(0, 4),
                Call::Keep {
                    block: 0,
                    from: 1,
                    to: 0
                },
                Call::Keep {
                    block: 0,
                    from: 3,
                    to: 1
                },
                Call::Block { block: 1, live: 2 },
                Call::Reseed(stream_seed(7, 0)),
                exit(1, 2),
                Call::Reseed(stream_seed(7, 1)),
                exit(1, 2),
            ]
        );
        assert_eq!(taken, vec![0, 1, 0, 1]);
        // Survivors report the 4-sample ensemble over both exits: two
        // uniform samples and two of softmax([0, 1]).
        let class0 = (0.5 + 1.0 / (1.0 + 1f32.exp())) / 2.0;
        assert!((out[2] - class0).abs() < 1e-6);
        assert_eq!(stats.samples_per_exit, 2);
        assert_eq!(stats.steps_executed, 1 + 2 + 3 + 2);
        assert_eq!(stats.ops_executed, 10 * 4 + 2 * 4 + 20 * 2 + 2 * 2 * 2);
        assert_eq!(stats.ops_fixed, layout().fixed_cost(4, 4).1);
        assert!(stats.ops_saved_fraction() > 0.0);
    }

    #[test]
    fn deterministic_consults_run_each_exit_once_in_eval_without_reseeding() {
        let batch = 2;
        let mut fake = Fake::new(layout(), logits(batch), batch);
        let mut mc = McScratch::default();
        let (mut out, mut taken) = (Vec::new(), Vec::new());
        let stats = predict_adaptive(
            &mut fake,
            &mut mc,
            batch,
            0,
            7,
            &ExitPolicy::Never,
            &mut out,
            &mut taken,
        )
        .unwrap();
        let eval = |exit, live| Call::Exit {
            exit,
            live,
            mode: Mode::Eval,
        };
        assert_eq!(
            fake.calls,
            vec![
                Call::Block { block: 0, live: 2 },
                eval(0, 2),
                Call::Block { block: 1, live: 2 },
                eval(1, 2),
            ]
        );
        assert_eq!(taken, vec![1, 1]);
        assert_eq!(stats.samples_per_exit, 1);
        assert_eq!(stats.ops_executed, stats.ops_fixed);
    }

    #[test]
    fn never_with_samples_is_the_fixed_path_at_fixed_cost() {
        let batch = 3;
        let mut fake = Fake::new(layout(), logits(batch), batch);
        let mut mc = McScratch::default();
        let (mut out, mut taken) = (vec![5.0; 1], vec![9; 7]);
        let stats = predict_adaptive(
            &mut fake,
            &mut mc,
            batch,
            5,
            11,
            &ExitPolicy::Never,
            &mut out,
            &mut taken,
        )
        .unwrap();
        let mut fixed = Fake::new(layout(), logits(batch), batch);
        let mut reference = vec![0.0; batch * 2];
        predict_fixed(&mut fixed, &mut McScratch::default(), 5, 11, &mut reference).unwrap();
        assert_eq!(fake.calls, fixed.calls);
        assert_eq!(out, reference);
        assert_eq!(taken, vec![1; batch]);
        assert_eq!(stats.ops_executed, stats.ops_fixed);
        assert_eq!(stats.steps_executed, layout().fixed_cost(batch, 5).0);
        assert_eq!(stats.ops_fixed, layout().fixed_cost(batch, 5).1);
        assert_eq!(stats.samples_per_exit, 3);
    }
}
