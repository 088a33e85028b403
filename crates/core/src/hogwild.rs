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

use std::time::Instant;

use sgd_cpusim::{CpuSpec, HogwildCost};
use sgd_linalg::Scalar;
use sgd_models::{Batch, Examples, PointwiseLoss, Task};

use crate::config::{DeviceKind, RunOptions};
use crate::convergence::LossTrace;
use crate::faults::{FaultCounters, FaultPlan, FaultTally};
use crate::metrics::{EpochMetrics, EpochObserver, Recorder};
use crate::modeled::batch_stats;
use crate::report::RunReport;
use crate::shared_model::SharedModel;
use crate::supervisor::Supervisor;

/// Deterministic Fisher–Yates shuffle of `0..n` (the single random pass
/// order shared by all epochs; DimmWitted's data access strategy).
pub(crate) fn shuffled_order(n: usize, seed: u64) -> Vec<u32> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
    order
}

/// One thread's pass over its partition of the examples.
pub(crate) fn hogwild_worker<L: PointwiseLoss + ?Sized>(
    loss: &L,
    batch: &Batch<'_>,
    model: &SharedModel,
    alpha: f64,
    part: &[u32],
) {
    match batch.x {
        Examples::Sparse(m) => {
            for &i in part {
                let i = i as usize;
                let row = m.row(i);
                let mut margin = 0.0;
                for (&c, &v) in row.cols.iter().zip(row.vals) {
                    margin += v * model.read(c as usize);
                }
                let s = loss.dloss_at(margin, batch.y[i]);
                if s != 0.0 {
                    let step = -alpha * s;
                    for (&c, &v) in row.cols.iter().zip(row.vals) {
                        model.add(c as usize, step * v);
                    }
                }
            }
        }
        Examples::Dense(m) => {
            for &i in part {
                let i = i as usize;
                let row = m.row(i);
                let mut margin = 0.0;
                for (j, &v) in row.iter().enumerate() {
                    margin += v * model.read(j);
                }
                let s = loss.dloss_at(margin, batch.y[i]);
                if s != 0.0 {
                    let step = -alpha * s;
                    for (j, &v) in row.iter().enumerate() {
                        if v != 0.0 {
                            model.add(j, step * v);
                        }
                    }
                }
            }
        }
    }
}

/// [`hogwild_worker`] with per-example fault injection: stale margins are
/// computed against the epoch-start model, corrupted steps are scaled by
/// the plan's noise factor, and dropped updates are computed but never
/// written back (the Hogwild failure mode HOGWILD! claims to tolerate).
#[allow(clippy::too_many_arguments)]
pub(crate) fn hogwild_worker_faulty<L: PointwiseLoss + ?Sized>(
    loss: &L,
    batch: &Batch<'_>,
    model: &SharedModel,
    alpha: f64,
    part: &[u32],
    plan: &FaultPlan,
    epoch: usize,
    stale_model: &[Scalar],
    tally: &FaultTally,
) {
    let (mut dropped, mut stale_n, mut corrupted) = (0u64, 0u64, 0u64);
    match batch.x {
        Examples::Sparse(m) => {
            for &i in part {
                let i = i as usize;
                let row = m.row(i);
                let stale = plan.stale_read(epoch, i);
                let mut margin = 0.0;
                if stale {
                    stale_n += 1;
                    for (&c, &v) in row.cols.iter().zip(row.vals) {
                        margin += v * stale_model[c as usize];
                    }
                } else {
                    for (&c, &v) in row.cols.iter().zip(row.vals) {
                        margin += v * model.read(c as usize);
                    }
                }
                let s = loss.dloss_at(margin, batch.y[i]);
                if s != 0.0 {
                    let mut step = -alpha * s;
                    if let Some(f) = plan.corrupt_factor(epoch, i) {
                        step *= f;
                        corrupted += 1;
                    }
                    if plan.drops_update(epoch, i) {
                        dropped += 1;
                        continue;
                    }
                    for (&c, &v) in row.cols.iter().zip(row.vals) {
                        model.add(c as usize, step * v);
                    }
                }
            }
        }
        Examples::Dense(m) => {
            for &i in part {
                let i = i as usize;
                let row = m.row(i);
                let stale = plan.stale_read(epoch, i);
                let mut margin = 0.0;
                if stale {
                    stale_n += 1;
                    for (j, &v) in row.iter().enumerate() {
                        margin += v * stale_model[j];
                    }
                } else {
                    for (j, &v) in row.iter().enumerate() {
                        margin += v * model.read(j);
                    }
                }
                let s = loss.dloss_at(margin, batch.y[i]);
                if s != 0.0 {
                    let mut step = -alpha * s;
                    if let Some(f) = plan.corrupt_factor(epoch, i) {
                        step *= f;
                        corrupted += 1;
                    }
                    if plan.drops_update(epoch, i) {
                        dropped += 1;
                        continue;
                    }
                    for (j, &v) in row.iter().enumerate() {
                        if v != 0.0 {
                            model.add(j, step * v);
                        }
                    }
                }
            }
        }
    }
    tally.add(dropped, stale_n, corrupted);
}

/// Runs Hogwild over `batch` with `threads` concurrent workers
/// (`threads == 1` is exactly sequential incremental SGD, the paper's
/// `cpu-seq` asynchronous baseline).
pub(crate) fn hogwild_observed<T: Task>(
    task: &T,
    loss_fn: &dyn PointwiseLoss,
    batch: &Batch<'_>,
    threads: usize,
    alpha: f64,
    opts: &RunOptions,
    obs: &mut dyn EpochObserver,
) -> RunReport {
    let threads = threads.max(1);
    // Pin the ambient kernel width to the worker count for the whole run:
    // pool tasks inherit it, so neither the per-partition workers nor the
    // (untimed) loss evaluations ever fan out to machine width.
    sgd_linalg::pool::with_threads(threads, || {
        hogwild_run(task, loss_fn, batch, threads, alpha, opts, obs)
    })
}

fn hogwild_run<T: Task>(
    task: &T,
    loss_fn: &dyn PointwiseLoss,
    batch: &Batch<'_>,
    threads: usize,
    alpha: f64,
    opts: &RunOptions,
    obs: &mut dyn EpochObserver,
) -> RunReport {
    let device = if threads == 1 { DeviceKind::CpuSeq } else { DeviceKind::CpuPar };
    let n = batch.n();
    let order = shuffled_order(n, opts.seed);
    let chunk = n.div_ceil(threads);
    let parts: Vec<&[u32]> = order.chunks(chunk.max(1)).collect();

    // Per-epoch instrumentation: rounds of concurrent (potentially stale)
    // updates, and the cost model's *expected* cross-core invalidation
    // count for this batch shape on the paper's machine (wall-clock
    // execution cannot observe real invalidations, so this is the same
    // analytical estimate the modeled runners charge time for).
    let (_, avg_nnz, dim, _) = batch_stats(batch);
    let conflict_rate =
        HogwildCost { spec: CpuSpec::xeon_e5_2660_v4_dual(), threads }.conflict_rate(avg_nnz, dim);
    let staleness_rounds = if threads > 1 { n.div_ceil(threads) as u64 } else { 0 };
    let coherency_per_epoch = n as f64 * avg_nnz * conflict_rate;

    let model = SharedModel::from_slice(&task.init_model());
    let mut eval = sgd_linalg::CpuExec::par();
    let mut trace = LossTrace::new();
    let mut snapshot: Vec<Scalar> = vec![0.0; task.dim()];
    model.snapshot_into(&mut snapshot);
    let initial_loss = task.loss(&mut eval, batch, &snapshot);
    trace.push(0.0, initial_loss);
    let mut rec = Recorder::new(obs);
    let mut sup = Supervisor::new(opts, initial_loss);
    let faults = opts.faults.active();
    let tally = FaultTally::new();

    let mut opt_seconds = 0.0;
    for epoch in 0..opts.max_epochs {
        let mut fc = FaultCounters::default();
        let t0 = Instant::now();
        match faults {
            None => {
                if threads == 1 {
                    hogwild_worker(loss_fn, batch, &model, alpha, &order);
                } else {
                    sgd_linalg::pool::run(parts.len(), |t| {
                        hogwild_worker(loss_fn, batch, &model, alpha, parts[t])
                    });
                }
            }
            Some(plan) => {
                // `snapshot` still holds the epoch-start model here (it is
                // refreshed only after the epoch) — reuse it as the stale
                // target. A dead worker's partition is simply skipped: the
                // surviving workers carry on (graceful degradation).
                if threads == 1 {
                    if plan.worker_dead(0, epoch) {
                        fc.dead_workers = 1;
                    } else {
                        hogwild_worker_faulty(
                            loss_fn, batch, &model, alpha, &order, plan, epoch, &snapshot, &tally,
                        );
                    }
                } else {
                    // Death decisions key on the partition index, so they
                    // are taken here before dispatch; only the surviving
                    // partitions are handed to the pool.
                    let mut alive: Vec<&[u32]> = Vec::with_capacity(parts.len());
                    for (t, part) in parts.iter().enumerate() {
                        if plan.worker_dead(t, epoch) {
                            fc.dead_workers += 1;
                        } else {
                            alive.push(part);
                        }
                    }
                    sgd_linalg::pool::run(alive.len(), |t| {
                        hogwild_worker_faulty(
                            loss_fn, batch, &model, alpha, alive[t], plan, epoch, &snapshot, &tally,
                        )
                    });
                }
            }
        }
        let mut epoch_secs = t0.elapsed().as_secs_f64();
        if let Some(plan) = faults {
            tally.drain_into(&mut fc);
            // Independent workers absorb a straggler: only its throughput
            // share is lost, never the whole barrier.
            let dil = plan.async_dilation(threads);
            fc.straggler_delay_secs = epoch_secs * (dil - 1.0);
            epoch_secs *= dil;
        }
        opt_seconds += epoch_secs;

        model.snapshot_into(&mut snapshot);
        let loss = task.loss(&mut eval, batch, &snapshot); // untimed
        trace.push(opt_seconds, loss);
        rec.record(EpochMetrics {
            staleness_rounds,
            coherency_conflicts: coherency_per_epoch,
            faults: fc,
            ..EpochMetrics::new(epoch + 1, opt_seconds, loss)
        });
        if sup.observe(epoch + 1, opt_seconds, loss, &snapshot, &trace, &mut rec) {
            break;
        }
    }
    let verdict = sup.finish();
    RunReport {
        label: format!("{} async {}", task.name(), device.label()),
        device,
        step_size: alpha,
        trace,
        opt_seconds,
        timed_out: verdict.timed_out,
        metrics: rec.finish(),
        outcome: verdict.outcome,
        best_model: verdict.best_model,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::NullObserver;
    use sgd_linalg::{CsrMatrix, Matrix};
    use sgd_models::lr;

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
    fn sequential_hogwild_converges_on_sparse_data() {
        let (x, y) = sparse_separable(256, 32);
        let b = Batch::new(Examples::Sparse(&x), &y);
        let task = lr(32);
        let opts = RunOptions { max_epochs: 60, ..Default::default() };
        let rep = hogwild_observed(&task, task.pointwise(), &b, 1, 0.5, &opts, &mut NullObserver);
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
        let rep = hogwild_observed(&task, task.pointwise(), &b, 4, 0.5, &opts, &mut NullObserver);
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
        let rep = hogwild_observed(&task, task.pointwise(), &b, 2, 0.5, &opts, &mut NullObserver);
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
        let rep = hogwild_observed(&task, task.pointwise(), &b, 4, 1.0, &opts, &mut NullObserver);
        assert!(rep.best_loss() < 0.1, "loss {}", rep.best_loss());
    }

    #[test]
    fn early_stop_and_timeout_flags() {
        let (x, y) = sparse_separable(256, 32);
        let b = Batch::new(Examples::Sparse(&x), &y);
        let task = lr(32);
        let opts = RunOptions { max_epochs: 200, target_loss: Some(0.3), ..Default::default() };
        let rep = hogwild_observed(&task, task.pointwise(), &b, 2, 0.5, &opts, &mut NullObserver);
        assert!(!rep.timed_out);

        // An impossible target within a tiny time budget reports timeout.
        let opts = RunOptions { max_epochs: 3, target_loss: Some(1e-12), ..Default::default() };
        let rep = hogwild_observed(&task, task.pointwise(), &b, 2, 0.5, &opts, &mut NullObserver);
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
        let rep = hogwild_observed(&task, task.pointwise(), &b, 4, 0.5, &opts, &mut NullObserver);
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
        let rep = hogwild_observed(&task, task.pointwise(), &b, 2, 0.5, &opts, &mut NullObserver);
        let total = rep.metrics.total_faults();
        assert!(total.dropped_updates > 0);
        assert!(total.stale_reads > 0);
        assert!(total.corrupted_updates > 0);
        // A 10% fault mix must not destroy convergence on separable data.
        assert!(rep.best_loss() < 0.5, "loss {}", rep.best_loss());
    }
}
