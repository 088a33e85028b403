//! Hogwild: asynchronous, lock-free incremental SGD on the CPU.
//!
//! The exact `Incremental SGD Optimization Epoch` (Algorithm 3) with the
//! loop iterations executed concurrently by several threads over a shared
//! model, with no synchronization whatsoever — reads may be stale, writes
//! may be lost. On sparse data the per-example updates touch few
//! coordinates and rarely collide (near-linear scaling); on dense data
//! every update touches every coordinate and cache-coherency traffic plus
//! lost updates erase the benefit of parallelism — the central asynchronous
//! finding of the paper.
//!
//! This module holds the one per-row update, [`RowUpdate::apply`], that
//! wall-clock Hogwild (`crate::replication`) and modeled Hogwild
//! (`crate::modeled`) both run, through a [`ModelView`] of the model. It
//! injects the run's fault plan; the default (empty) plan draws no
//! decision, so the same update is the clean run. GPU warp-Hogwild keeps
//! its own body: its lockstep read and write phases price the simulated
//! kernel.

use sgd_linalg::Scalar;
use sgd_models::{Batch, Examples, PointwiseLoss};

use crate::faults::{FaultCounters, FaultPlan};
use crate::shared_model::SharedModel;

/// Deterministic Fisher–Yates shuffle of `0..n` (the single random pass
/// order shared by all epochs; DimmWitted's data access strategy).
pub(crate) fn shuffled_order(n: usize, seed: u64) -> Vec<u32> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
    order
}

/// The model as one row update sees it, coordinate by coordinate. A view
/// is passed by value, so its pointers stay in registers across a row.
pub(crate) trait ModelView {
    fn read(&self, j: usize) -> Scalar;
    fn add(&mut self, j: usize, d: Scalar);
}

/// Wall-clock Hogwild: racy reads and lossy writes on the shared model.
impl ModelView for &SharedModel {
    #[inline]
    fn read(&self, j: usize) -> Scalar {
        SharedModel::read(self, j)
    }
    #[inline]
    fn add(&mut self, j: usize, d: Scalar) {
        SharedModel::add(self, j, d);
    }
}

/// A modeled round of one example: every write lands at once.
impl ModelView for &mut [Scalar] {
    #[inline]
    fn read(&self, j: usize) -> Scalar {
        self[j]
    }
    #[inline]
    fn add(&mut self, j: usize, d: Scalar) {
        self[j] += d;
    }
}

/// A modeled round of several examples: each reads the model as it stood
/// when the round began, and its writes wait in `writes`, in order, for
/// the caller to apply when the round ends.
pub(crate) struct RoundBuffer<'a> {
    pub(crate) pre_round: &'a [Scalar],
    pub(crate) writes: &'a mut Vec<(u32, Scalar)>,
}

impl ModelView for RoundBuffer<'_> {
    #[inline]
    fn read(&self, j: usize) -> Scalar {
        self.pre_round[j]
    }
    #[inline]
    fn add(&mut self, j: usize, d: Scalar) {
        self.writes.push((j as u32, d));
    }
}

/// What every row update of one epoch shares.
pub(crate) struct RowUpdate<'a, L: ?Sized> {
    pub(crate) loss: &'a L,
    pub(crate) batch: &'a Batch<'a>,
    pub(crate) alpha: f64,
    pub(crate) plan: &'a FaultPlan,
    pub(crate) epoch: usize,
    /// The epoch-start model, which a stale read sees.
    pub(crate) stale_model: &'a [Scalar],
}

impl<L: PointwiseLoss + ?Sized> RowUpdate<'_, L> {
    /// Hogwild's update for example `i` (Algorithm 3's loop body), with
    /// the plan's faults: a stale margin is read from the epoch-start
    /// model, a corrupted step is scaled by the plan's noise factor, and a
    /// dropped update is computed but never written. Corruption and drops
    /// are drawn only for rows with a nonzero step. The write touches only
    /// the row's support: a zero entry leaves its coordinate as it was.
    pub(crate) fn apply(&self, mut model: impl ModelView, i: usize, fc: &mut FaultCounters) {
        // Folded from `+0.0` in column order.
        let mut margin = 0.0;
        if self.plan.stale_read(self.epoch, i) {
            fc.stale_reads += 1;
            self.entries(i, |j, v| margin += v * self.stale_model[j]);
        } else {
            self.entries(i, |j, v| margin += v * model.read(j));
        }
        let s = self.loss.dloss_at(margin, self.batch.y[i]);
        if s == 0.0 {
            return;
        }
        let mut step = -self.alpha * s;
        if let Some(f) = self.plan.corrupt_factor(self.epoch, i) {
            step *= f;
            fc.corrupted_updates += 1;
        }
        if self.plan.drops_update(self.epoch, i) {
            fc.dropped_updates += 1;
            return;
        }
        self.entries(i, |j, v| {
            if v != 0.0 {
                model.add(j, step * v);
            }
        });
    }

    /// Calls `f(j, x_ij)` for row `i`'s entries in column order: a sparse
    /// row's stored entries, or every column of a dense row.
    fn entries(&self, i: usize, mut f: impl FnMut(usize, Scalar)) {
        match self.batch.x {
            Examples::Sparse(m) => {
                let row = m.row(i);
                for (&c, &v) in row.cols.iter().zip(row.vals) {
                    f(c as usize, v);
                }
            }
            Examples::Dense(m) => {
                for (j, &v) in m.row(i).iter().enumerate() {
                    f(j, v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeviceKind, RunOptions};
    use crate::metrics::NullObserver;
    use crate::replication::replicated_observed;
    use crate::report::RunReport;
    use sgd_linalg::{CsrMatrix, Matrix};
    use sgd_models::{lr, LinearTask, LogisticLoss};

    /// Plain Hogwild (one shared model) over `threads` workers.
    fn hogwild(
        task: &LinearTask<LogisticLoss>,
        b: &Batch<'_>,
        threads: usize,
        alpha: f64,
        opts: &RunOptions,
    ) -> RunReport {
        let loss = task.pointwise();
        replicated_observed(task, loss, b, threads, alpha, None, opts, &mut NullObserver)
    }

    fn sparse_separable(n: usize, d: usize) -> (CsrMatrix, Vec<Scalar>) {
        // Each example touches 2 coordinates; label decided by the first.
        let entries: Vec<Vec<(u32, Scalar)>> = (0..n)
            .map(|i| {
                let c1 = (i % d) as u32;
                let c2 = ((i * 7 + 3) % d) as u32;
                let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                if c1 == c2 {
                    vec![(c1, sign)]
                } else {
                    vec![(c1.min(c2), sign), (c1.max(c2), sign * 0.25)]
                }
            })
            .collect();
        let y = (0..n).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        (CsrMatrix::from_row_entries(n, d, &entries), y)
    }

    #[test]
    fn shuffle_is_deterministic_permutation() {
        let a = shuffled_order(100, 1);
        let b = shuffled_order(100, 1);
        let c = shuffled_order(100, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn an_update_touches_only_the_rows_support() {
        // A zero entry at coordinate 1 and an infinite step: coordinate 1
        // keeps its `-0.0`.
        let x = Matrix::from_fn(1, 3, |_, j| if j == 1 { 0.0 } else { 1.0 });
        let (y, plan, mut w) = ([1.0], FaultPlan::default(), [0.0, -0.0, 0.0]);
        let batch = Batch::new(Examples::Dense(&x), &y);
        let (loss, alpha) = (&LogisticLoss, Scalar::INFINITY);
        let cx = RowUpdate { loss, batch: &batch, alpha, plan: &plan, epoch: 0, stale_model: &[] };
        cx.apply(&mut w[..], 0, &mut FaultCounters::default());
        assert_eq!(
            w.map(Scalar::to_bits),
            [Scalar::INFINITY, -0.0, Scalar::INFINITY].map(Scalar::to_bits)
        );
    }

    #[test]
    fn sequential_hogwild_converges_on_sparse_data() {
        let (x, y) = sparse_separable(256, 32);
        let b = Batch::new(Examples::Sparse(&x), &y);
        let task = lr(32);
        let opts = RunOptions { max_epochs: 60, ..Default::default() };
        let rep = hogwild(&task, &b, 1, 0.5, &opts);
        assert_eq!(rep.device, DeviceKind::CpuSeq);
        assert!(rep.best_loss() < 0.15, "loss {}", rep.best_loss());
        // Sequential execution has no staleness and no coherency traffic.
        assert_eq!(rep.metrics.total_staleness_rounds(), 0);
        assert_eq!(rep.metrics.total_coherency_conflicts(), 0.0);
    }

    #[test]
    fn parallel_hogwild_converges_on_sparse_data() {
        let (x, y) = sparse_separable(512, 64);
        let b = Batch::new(Examples::Sparse(&x), &y);
        let task = lr(64);
        let opts = RunOptions { max_epochs: 60, ..Default::default() };
        let rep = hogwild(&task, &b, 4, 0.5, &opts);
        assert_eq!(rep.device, DeviceKind::CpuPar);
        assert!(rep.best_loss() < 0.2, "loss {}", rep.best_loss());
        // Four workers over 512 examples: 128 concurrent-update rounds per
        // epoch, every epoch.
        let epochs = rep.trace.epochs() as u64;
        assert_eq!(rep.metrics.total_staleness_rounds(), 128 * epochs);
    }

    #[test]
    fn dense_hogwild_converges() {
        let x = Matrix::from_fn(128, 8, |i, j| {
            let s = if i % 2 == 0 { 1.0 } else { -1.0 };
            s * (((i + j) % 3) as Scalar + 1.0) / 3.0
        });
        let y: Vec<Scalar> = (0..128).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let b = Batch::new(Examples::Dense(&x), &y);
        let task = lr(8);
        let opts = RunOptions { max_epochs: 40, ..Default::default() };
        let rep = hogwild(&task, &b, 2, 0.5, &opts);
        assert!(rep.best_loss() < 0.2, "loss {}", rep.best_loss());
        // Dense low-dimensional data drives the coherency estimate up:
        // every touch is expected to invalidate a remote cacheline.
        let per_epoch = rep.metrics.epochs[0].coherency_conflicts;
        assert!(per_epoch > 0.0, "dense parallel Hogwild must report coherency traffic");
    }

    #[test]
    fn disjoint_support_parallel_equals_expectations() {
        // When threads touch disjoint model coordinates there are no
        // conflicts at all: parallel Hogwild must converge exactly like a
        // partitioned sequential run would.
        let n = 128;
        let d = 16;
        // Example i touches only coordinate i % d, examples are assigned to
        // threads by contiguous chunks of the shuffled order, but every
        // update is a single-coordinate op so conflicts cannot corrupt.
        let entries: Vec<Vec<(u32, Scalar)>> =
            (0..n).map(|i| vec![((i % d) as u32, 1.0)]).collect();
        let y: Vec<Scalar> = (0..n).map(|i| if (i % d) < d / 2 { 1.0 } else { -1.0 }).collect();
        let x = CsrMatrix::from_row_entries(n, d, &entries);
        let b = Batch::new(Examples::Sparse(&x), &y);
        let task = lr(d);
        let opts = RunOptions { max_epochs: 80, ..Default::default() };
        let rep = hogwild(&task, &b, 4, 1.0, &opts);
        assert!(rep.best_loss() < 0.1, "loss {}", rep.best_loss());
    }

    #[test]
    fn early_stop_and_timeout_flags() {
        let (x, y) = sparse_separable(256, 32);
        let b = Batch::new(Examples::Sparse(&x), &y);
        let task = lr(32);
        let opts = RunOptions { max_epochs: 200, target_loss: Some(0.3), ..Default::default() };
        let rep = hogwild(&task, &b, 2, 0.5, &opts);
        assert!(!rep.timed_out);

        // An impossible target within a tiny time budget reports timeout.
        let opts = RunOptions { max_epochs: 3, target_loss: Some(1e-12), ..Default::default() };
        let rep = hogwild(&task, &b, 2, 0.5, &opts);
        assert!(rep.timed_out, "must report the paper's ∞");
    }

    #[test]
    fn hogwild_survives_a_dead_worker() {
        // One of four workers dies at epoch 1; the async run degrades
        // gracefully instead of aborting (unlike a synchronous barrier).
        let (x, y) = sparse_separable(512, 64);
        let b = Batch::new(Examples::Sparse(&x), &y);
        let task = lr(64);
        let opts = RunOptions {
            max_epochs: 80,
            faults: crate::FaultPlan::default().with_worker_death(1, 1),
            ..Default::default()
        };
        let rep = hogwild(&task, &b, 4, 0.5, &opts);
        assert!(!matches!(rep.outcome, crate::RunOutcome::FaultAborted { .. }));
        assert!(rep.best_loss() < 0.3, "loss {}", rep.best_loss());
        assert!(rep.metrics.total_faults().dead_workers > 0);
    }

    #[test]
    fn hogwild_counts_injected_update_faults() {
        let (x, y) = sparse_separable(256, 32);
        let b = Batch::new(Examples::Sparse(&x), &y);
        let task = lr(32);
        let opts = RunOptions {
            max_epochs: 10,
            plateau: None,
            faults: crate::FaultPlan::default()
                .with_seed(9)
                .with_drops(0.1)
                .with_stale_reads(0.1)
                .with_corruption(0.1, 0.5),
            ..Default::default()
        };
        let rep = hogwild(&task, &b, 2, 0.5, &opts);
        let total = rep.metrics.total_faults();
        assert!(total.dropped_updates > 0);
        assert!(total.stale_reads > 0);
        assert!(total.corrupted_updates > 0);
        // A 10% fault mix must not destroy convergence on separable data.
        assert!(rep.best_loss() < 0.5, "loss {}", rep.best_loss());
    }
}
