//! DimmWitted-style model replication: the wall-clock CPU Hogwild step.
//!
//! The paper adopts the DimmWitted (Zhang & Ré, PVLDB 2014) implementation
//! for its NUMA CPU; DimmWitted's central design axis is *model
//! replication*: one shared model for the whole machine (PerMachine =
//! classic Hogwild, which is how `Strategy::Hogwild` runs on the CPU), one
//! replica per NUMA node with workers sharing their node's replica, or one
//! replica per core (equivalent to model averaging). Several replicas are
//! averaged at every epoch boundary; a single one is never averaged. The
//! ablation bench sweeps this axis.

use std::time::Instant;

use sgd_cpusim::{CpuSpec, HogwildCost};
use sgd_linalg::{CpuExec, Scalar};
use sgd_models::{Batch, PointwiseLoss, Task};

use crate::config::{DeviceKind, RunOptions};
use crate::epoch_loop::{EpochLoop, Halt, ModelStep};
use crate::faults::{FaultCounters, FaultTally};
use crate::hogwild::{shuffled_order, RowUpdate};
use crate::metrics::{EpochMetrics, EpochObserver};
use crate::modeled::batch_stats;
use crate::report::RunReport;
use crate::shared_model::SharedModel;

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

/// Hogwild over `threads` wall-clock workers with the chosen replication
/// (`threads == 1` is exactly sequential incremental SGD, the paper's
/// `cpu-seq` asynchronous baseline). `None` is `Strategy::Hogwild`: one
/// shared model, reported without a replication tag.
#[allow(clippy::too_many_arguments)]
pub(crate) fn replicated_observed<T: Task>(
    task: &T,
    loss_fn: &dyn PointwiseLoss,
    batch: &Batch<'_>,
    threads: usize,
    alpha: f64,
    replication: Option<Replication>,
    opts: &RunOptions,
    obs: &mut dyn EpochObserver,
) -> RunReport {
    let threads = threads.max(1);
    let n_replicas = replication.unwrap_or(Replication::PerMachine).replicas(threads);
    let init = task.init_model();
    let replicas: Vec<SharedModel> =
        (0..n_replicas).map(|_| SharedModel::from_slice(&init)).collect();
    let n = batch.n();
    let order = shuffled_order(n, opts.seed);
    // Worker `t` takes `parts[t]` of the shuffled order and updates
    // replica `t % n_replicas`; one worker takes the whole order.
    let parts: Vec<&[u32]> = if threads == 1 {
        vec![&order[..]]
    } else {
        order.chunks(n.div_ceil(threads).max(1)).collect()
    };

    // Contention only arises between threads sharing a replica, so the
    // coherency estimate and staleness rounds use the per-replica group
    // size (PerCore has private replicas: neither stale reads nor
    // conflicting writes within an epoch). Wall-clock execution cannot
    // observe real invalidations, so this is the same analytical estimate
    // the modeled runners charge time for, on the paper's machine.
    let group = threads.div_ceil(n_replicas);
    let (_, avg_nnz, dim, _) = batch_stats(batch);
    let conflict_rate = HogwildCost { spec: CpuSpec::xeon_e5_2660_v4_dual(), threads: group }
        .conflict_rate(avg_nnz, dim);
    let staleness_rounds = if group > 1 { n.div_ceil(threads) as u64 } else { 0 };
    let coherency_per_epoch = n as f64 * avg_nnz * conflict_rate;

    let (plan, tally) = (&opts.faults, FaultTally::new());
    let (mut buf, mut opt_seconds) = (vec![0.0; init.len()], 0.0);
    // `avg` is the epoch-start model: the replicas' average, or the single
    // replica's snapshot. Loss, checkpoint and stale-read target.
    let run = |avg: &mut [Scalar], epoch, m: &mut EpochMetrics| {
        if plan.all_workers_dead(parts.len(), epoch) {
            return Err(Halt::FaultAborted { clock: opt_seconds });
        }
        // Death decisions key on the partition index: dead workers are
        // counted here, and their tasks return at once (the survivors
        // carry on, keeping their replica).
        m.faults.dead_workers =
            (0..parts.len()).filter(|&t| plan.worker_dead(t, epoch)).count() as u64;
        let t0 = Instant::now();
        let cx = RowUpdate { loss: loss_fn, batch, alpha, plan, epoch, stale_model: avg };
        run_workers(threads, parts.len(), |t| {
            if !plan.worker_dead(t, epoch) {
                let (model, mut fc) = (&replicas[t % n_replicas], FaultCounters::default());
                parts[t].iter().for_each(|&i| cx.apply(model, i as usize, &mut fc));
                tally.add(fc.dropped_updates, fc.stale_reads, fc.corrupted_updates);
            }
        });
        if n_replicas > 1 {
            // Epoch-boundary averaging (counted in optimization time: it
            // is part of the algorithm, unlike loss evaluation).
            average_replicas(&replicas, avg, &mut buf);
            for r in &replicas {
                r.store_from(avg);
            }
        }
        let mut epoch_secs = t0.elapsed().as_secs_f64();
        tally.drain_into(&mut m.faults);
        // Independent workers absorb a straggler: only its throughput share
        // is lost, never the whole barrier.
        let dil = plan.async_dilation(threads);
        m.faults.straggler_delay_secs = epoch_secs * (dil - 1.0);
        epoch_secs *= dil;
        opt_seconds += epoch_secs;
        if n_replicas == 1 {
            replicas[0].snapshot_into(avg); // untimed
        }
        m.staleness_rounds = staleness_rounds;
        m.coherency_conflicts = coherency_per_epoch;
        Ok(opt_seconds)
    };

    let device = if threads == 1 { DeviceKind::CpuSeq } else { DeviceKind::CpuPar };
    let mut label = format!("{} async {}", task.name(), device.label());
    if let Some(r) = replication {
        label = format!("{label} [{}]", r.label());
    }
    let id = EpochLoop { label, device, step_size: alpha };
    let mut step = ModelStep::new(task, batch, CpuExec::par(), init, run);
    // Pin the ambient kernel width to the worker count for the whole run:
    // pool tasks inherit it, so neither the per-partition workers nor the
    // (untimed) loss evaluations ever fan out to machine width.
    sgd_linalg::pool::with_threads(threads, || id.run(&mut step, opts, obs))
}

/// Runs `f` for each of `tasks` workers: inline for one thread, on the
/// pool otherwise.
fn run_workers(threads: usize, tasks: usize, f: impl Fn(usize) + Sync) {
    if threads == 1 {
        (0..tasks).for_each(f);
    } else {
        sgd_linalg::pool::run(tasks, f);
    }
}

/// Writes the mean of `replicas` into `out`, reading each through `buf`.
fn average_replicas(replicas: &[SharedModel], out: &mut [Scalar], buf: &mut [Scalar]) {
    let inv = 1.0 / replicas.len() as Scalar;
    out.fill(0.0);
    for r in replicas {
        r.snapshot_into(buf);
        for (o, &v) in out.iter_mut().zip(buf.iter()) {
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
        average_replicas(&[a, b], &mut out, &mut [0.0; 2]);
        assert_eq!(out, vec![2.0, 4.0]);
    }
}
