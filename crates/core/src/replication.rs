//! DimmWitted-style model replication for NUMA-aware Hogwild.
//!
//! The paper adopts the DimmWitted (Zhang & Ré, PVLDB 2014) implementation
//! for its NUMA CPU; DimmWitted's central design axis is *model
//! replication*: one shared model for the whole machine (PerMachine =
//! classic Hogwild), one replica per NUMA node with workers sharing their
//! node's replica, or one replica per core (equivalent to model
//! averaging). Replicas are averaged at every epoch boundary. The ablation
//! bench sweeps this axis.

use std::time::Instant;

use sgd_cpusim::{CpuSpec, HogwildCost};
use sgd_linalg::Scalar;
use sgd_models::{Batch, PointwiseLoss, Task};

use crate::config::{DeviceKind, RunOptions};
use crate::convergence::LossTrace;
use crate::faults::{FaultCounters, FaultTally};
use crate::hogwild::{hogwild_worker, hogwild_worker_faulty, shuffled_order};
use crate::metrics::{EpochMetrics, EpochObserver, Recorder};
use crate::modeled::batch_stats;
use crate::report::RunReport;
use crate::shared_model::SharedModel;
use crate::supervisor::Supervisor;

/// Model-replication strategy (DimmWitted's axis).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Replication {
    /// One model shared by all threads: classic Hogwild.
    PerMachine,
    /// One replica per (emulated) NUMA node; threads are assigned
    /// round-robin; replicas averaged per epoch.
    PerNode {
        /// Number of emulated NUMA nodes (the paper's machine has 2).
        nodes: usize,
    },
    /// One replica per thread, averaged per epoch (model averaging).
    PerCore,
}

impl Replication {
    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            Replication::PerMachine => "per-machine".into(),
            Replication::PerNode { nodes } => format!("per-node({nodes})"),
            Replication::PerCore => "per-core".into(),
        }
    }

    fn replicas(&self, threads: usize) -> usize {
        match self {
            Replication::PerMachine => 1,
            Replication::PerNode { nodes } => (*nodes).clamp(1, threads),
            Replication::PerCore => threads,
        }
    }
}

/// Hogwild with the chosen replication strategy.
#[allow(clippy::too_many_arguments)]
pub(crate) fn replicated_observed<T: Task>(
    task: &T,
    loss_fn: &dyn PointwiseLoss,
    batch: &Batch<'_>,
    threads: usize,
    alpha: f64,
    replication: Replication,
    opts: &RunOptions,
    obs: &mut dyn EpochObserver,
) -> RunReport {
    let threads = threads.max(1);
    // Pin the ambient kernel width to the worker count for the whole run
    // (inherited by the pooled workers and the untimed loss evaluations).
    sgd_linalg::pool::with_threads(threads, || {
        replicated_run(task, loss_fn, batch, threads, alpha, replication, opts, obs)
    })
}

#[allow(clippy::too_many_arguments)]
fn replicated_run<T: Task>(
    task: &T,
    loss_fn: &dyn PointwiseLoss,
    batch: &Batch<'_>,
    threads: usize,
    alpha: f64,
    replication: Replication,
    opts: &RunOptions,
    obs: &mut dyn EpochObserver,
) -> RunReport {
    let n_replicas = replication.replicas(threads);
    let init = task.init_model();
    let replicas: Vec<SharedModel> =
        (0..n_replicas).map(|_| SharedModel::from_slice(&init)).collect();

    let n = batch.n();
    let order = shuffled_order(n, opts.seed);
    let chunk = n.div_ceil(threads);
    let parts: Vec<&[u32]> = order.chunks(chunk.max(1)).collect();

    // Contention only arises between threads sharing a replica, so the
    // coherency estimate and staleness rounds use the per-replica group
    // size (PerCore has private replicas: neither stale reads nor
    // conflicting writes within an epoch).
    let group = threads.div_ceil(n_replicas);
    let (_, avg_nnz, dim, _) = batch_stats(batch);
    let conflict_rate = HogwildCost { spec: CpuSpec::xeon_e5_2660_v4_dual(), threads: group }
        .conflict_rate(avg_nnz, dim);
    let staleness_rounds = if group > 1 { n.div_ceil(threads) as u64 } else { 0 };
    let coherency_per_epoch = n as f64 * avg_nnz * conflict_rate;

    let mut eval = sgd_linalg::CpuExec::par();
    let mut trace = LossTrace::new();
    let mut avg = init.clone();
    let initial_loss = task.loss(&mut eval, batch, &avg);
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
                sgd_linalg::pool::run(parts.len(), |t| {
                    hogwild_worker(loss_fn, batch, &replicas[t % n_replicas], alpha, parts[t])
                });
            }
            Some(plan) => {
                // `avg` still holds the epoch-start averaged model (every
                // replica was reset to it at the previous boundary): the
                // stale-read target. Death decisions key on the partition
                // index, so they are taken here before dispatch; dead
                // workers' partitions are skipped, and the survivors keep
                // their original replica assignment (`t % n_replicas`).
                let mut alive: Vec<usize> = Vec::with_capacity(parts.len());
                for t in 0..parts.len() {
                    if plan.worker_dead(t, epoch) {
                        fc.dead_workers += 1;
                    } else {
                        alive.push(t);
                    }
                }
                sgd_linalg::pool::run(alive.len(), |i| {
                    let t = alive[i];
                    hogwild_worker_faulty(
                        loss_fn,
                        batch,
                        &replicas[t % n_replicas],
                        alpha,
                        parts[t],
                        plan,
                        epoch,
                        &avg,
                        &tally,
                    )
                });
            }
        }

        // Epoch-boundary averaging (counted in optimization time: it is
        // part of the algorithm, unlike loss evaluation).
        average_replicas(&replicas, &mut avg);
        for r in &replicas {
            r.store_from(&avg);
        }
        let mut epoch_secs = t0.elapsed().as_secs_f64();
        if let Some(plan) = faults {
            tally.drain_into(&mut fc);
            let dil = plan.async_dilation(threads);
            fc.straggler_delay_secs = epoch_secs * (dil - 1.0);
            epoch_secs *= dil;
        }
        opt_seconds += epoch_secs;

        let loss = task.loss(&mut eval, batch, &avg);
        trace.push(opt_seconds, loss);
        rec.record(EpochMetrics {
            staleness_rounds,
            coherency_conflicts: coherency_per_epoch,
            faults: fc,
            ..EpochMetrics::new(epoch + 1, opt_seconds, loss)
        });
        if sup.observe(epoch + 1, opt_seconds, loss, &avg, &trace, &mut rec) {
            break;
        }
    }
    let verdict = sup.finish();
    let device = if threads == 1 { DeviceKind::CpuSeq } else { DeviceKind::CpuPar };
    RunReport {
        label: format!("{} async {} [{}]", task.name(), device.label(), replication.label()),
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

fn average_replicas(replicas: &[SharedModel], out: &mut [Scalar]) {
    let inv = 1.0 / replicas.len() as Scalar;
    out.fill(0.0);
    let mut buf = vec![0.0; out.len()];
    for r in replicas {
        r.snapshot_into(&mut buf);
        for (o, &v) in out.iter_mut().zip(&buf) {
            *o += v * inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Configuration, Engine, Strategy};
    use sgd_linalg::CsrMatrix;
    use sgd_models::{lr, Examples};

    fn data(n: usize, d: usize) -> (CsrMatrix, Vec<Scalar>) {
        let entries: Vec<Vec<(u32, Scalar)>> = (0..n)
            .map(|i| {
                let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                vec![((i % d) as u32, sign), (((i + 3) % d) as u32, sign * 0.5)]
            })
            .map(|mut v| {
                v.sort_by_key(|e| e.0);
                v.dedup_by_key(|e| e.0);
                v
            })
            .collect();
        let y = (0..n).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        (CsrMatrix::from_row_entries(n, d, &entries), y)
    }

    fn replicated(device: DeviceKind, replication: Replication) -> Configuration {
        Configuration::new(device, Strategy::ReplicatedHogwild { replication })
    }

    #[test]
    fn replica_counts() {
        assert_eq!(Replication::PerMachine.replicas(8), 1);
        assert_eq!(Replication::PerNode { nodes: 2 }.replicas(8), 2);
        assert_eq!(Replication::PerNode { nodes: 16 }.replicas(8), 8);
        assert_eq!(Replication::PerCore.replicas(8), 8);
    }

    #[test]
    fn labels_are_descriptive() {
        assert_eq!(Replication::PerMachine.label(), "per-machine");
        assert_eq!(Replication::PerNode { nodes: 2 }.label(), "per-node(2)");
        assert_eq!(Replication::PerCore.label(), "per-core");
    }

    #[test]
    fn all_strategies_converge() {
        let (x, y) = data(256, 16);
        let b = Batch::new(Examples::Sparse(&x), &y);
        let task = lr(16);
        let opts = RunOptions { max_epochs: 80, threads: 4, ..Default::default() };
        for repl in
            [Replication::PerMachine, Replication::PerNode { nodes: 2 }, Replication::PerCore]
        {
            let rep = Engine::run(&replicated(DeviceKind::CpuPar, repl), &task, &b, 0.5, &opts);
            assert!(rep.best_loss() < 0.3, "{}: loss {}", repl.label(), rep.best_loss());
        }
    }

    #[test]
    fn per_machine_single_thread_matches_plain_hogwild() {
        let (x, y) = data(128, 8);
        let b = Batch::new(Examples::Sparse(&x), &y);
        let task = lr(8);
        let opts = RunOptions { max_epochs: 10, ..Default::default() };
        let seq = DeviceKind::CpuSeq;
        let a = Engine::run(&replicated(seq, Replication::PerMachine), &task, &b, 0.5, &opts);
        let h = Engine::run(&Configuration::new(seq, Strategy::Hogwild), &task, &b, 0.5, &opts);
        // Single-threaded, same order and updates: identical trajectories.
        for (p, q) in a.trace.points().iter().zip(h.trace.points()) {
            assert!((p.1 - q.1).abs() < 1e-12, "{} vs {}", p.1, q.1);
        }
    }

    #[test]
    fn replicated_hogwild_degrades_gracefully_under_faults() {
        let (x, y) = data(256, 16);
        let b = Batch::new(Examples::Sparse(&x), &y);
        let task = lr(16);
        let opts = RunOptions {
            max_epochs: 60,
            threads: 4,
            faults: crate::faults::FaultPlan::default()
                .with_seed(7)
                .with_drops(0.05)
                .with_worker_death(1, 2),
            ..Default::default()
        };
        let cfg = replicated(DeviceKind::CpuPar, Replication::PerNode { nodes: 2 });
        let rep = Engine::run(&cfg, &task, &b, 0.5, &opts);
        assert!(
            !matches!(rep.outcome, crate::report::RunOutcome::FaultAborted { .. }),
            "async replication must absorb a dead worker, got {:?}",
            rep.outcome
        );
        let totals = rep.metrics.total_faults();
        assert!(totals.dead_workers > 0, "death never registered");
        assert!(totals.dropped_updates > 0, "drops never fired");
        assert!(rep.best_loss() < 0.4, "loss {}", rep.best_loss());
    }

    #[test]
    fn averaging_averages() {
        let a = SharedModel::from_slice(&[1.0, 3.0]);
        let b = SharedModel::from_slice(&[3.0, 5.0]);
        let mut out = vec![0.0; 2];
        average_replicas(&[a, b], &mut out);
        assert_eq!(out, vec![2.0, 4.0]);
    }
}
