//! Runners that report *modeled* CPU time (see `sgd-cpusim`).
//!
//! Functional results are computed exactly (and deterministically); the
//! reported seconds come from the performance model of the paper's
//! dual-socket Xeon instead of the host's wall clock, so the paper's
//! parallel-CPU findings reproduce even on small or single-core hosts.
//!
//! For the asynchronous runners the *statistical* effect of concurrency is
//! simulated with bounded staleness: examples (or mini-batches) are
//! processed in rounds of `threads`, every member of a round reading the
//! model as it stood when the round began — the standard analytical
//! approximation of Hogwild's delayed reads. With one thread this is
//! exactly sequential execution.
//!
//! Modeled Hogwild is only the caller of the one per-row update in
//! `crate::hogwild`: it chunks the visit order into rounds, skips a dead
//! lane's rows, and applies a round's queued writes when the round ends.

use sgd_cpusim::{CpuModelExec, CpuSpec, HogwildCost};
use sgd_linalg::{CpuExec, Exec, Scalar};
use sgd_models::{Batch, Examples, PointwiseLoss, Task};

use crate::config::{DeviceKind, RunOptions};
use crate::epoch_loop::{EpochLoop, Halt, ModelStep};
use crate::faults::{FaultCounters, FaultPlan};
use crate::hogwild::{shuffled_order, RoundBuffer, RowUpdate};
use crate::metrics::{EpochMetrics, EpochObserver};
use crate::report::RunReport;
use crate::sync::SyncState;

/// Which machine the CPU model describes and how many threads to model.
#[derive(Clone, Debug)]
pub struct CpuModelConfig {
    /// The modeled machine.
    pub spec: CpuSpec,
    /// Modeled thread count (1 = the paper's `cpu-seq` column).
    pub threads: usize,
    /// ViennaCL's GEMM result-size threshold (0 disables it — the Fig. 6
    /// ablation and the TensorFlow/Eigen comparator).
    pub gemm_parallel_threshold: usize,
}

impl CpuModelConfig {
    /// The paper's machine at `threads` threads with ViennaCL behaviour.
    pub fn paper_machine(threads: usize) -> Self {
        CpuModelConfig {
            spec: CpuSpec::xeon_e5_2660_v4_dual(),
            threads: threads.max(1),
            gemm_parallel_threshold: sgd_linalg::DEFAULT_GEMM_PARALLEL_THRESHOLD,
        }
    }

    /// Device label for reports.
    pub fn device(&self) -> DeviceKind {
        if self.threads == 1 {
            DeviceKind::CpuSeq
        } else {
            DeviceKind::CpuPar
        }
    }

    fn exec(&self) -> CpuModelExec {
        let mut e = CpuModelExec::new(self.spec.clone(), self.threads);
        e.gemm_parallel_threshold = self.gemm_parallel_threshold;
        e
    }
}

/// Synchronous (batch) gradient descent with modeled CPU time: the
/// epoch's kernels run on the CPU model, whose clock, plus the straggler
/// stalls, is the run's.
pub(crate) fn sync_modeled_observed<T: Task>(
    task: &T,
    batch: &Batch<'_>,
    mc: &CpuModelConfig,
    alpha: f64,
    opts: &RunOptions,
    obs: &mut dyn EpochObserver,
) -> RunReport {
    let mut s = SyncState::new(task, batch, alpha, opts, mc.threads);
    let mut e = mc.exec();
    // Straggler stalls charged on top of the cost model's own clock.
    let mut extra = 0.0;
    let run = |w: &mut [Scalar], epoch, m: &mut EpochMetrics| {
        if s.barrier_stalled(epoch) {
            return Err(Halt::FaultAborted { clock: e.elapsed_secs() + extra });
        }
        let epoch_start = e.elapsed_secs();
        s.task.gradient(&mut e, batch, w, &mut s.g);
        s.update(&mut e, w, epoch, &mut m.faults);
        // The modeled barrier waits for the slowest straggler.
        let dil = s.faults.sync_dilation(s.workers);
        m.faults.straggler_delay_secs = (e.elapsed_secs() - epoch_start) * (dil - 1.0);
        extra += m.faults.straggler_delay_secs;
        Ok(e.elapsed_secs() + extra)
    };
    let id = EpochLoop {
        label: format!("{} sync {} (modeled)", task.name(), mc.device().label()),
        device: mc.device(),
        step_size: alpha,
    };
    id.run(&mut ModelStep::new(task, batch, CpuExec::seq(), task.init_model(), run), opts, obs)
}

/// One bounded-staleness epoch for a linear task: rounds of `round`
/// examples read the pre-round model, and their writes land in order at
/// round end. `round == 1` is exactly sequential incremental SGD. Each lane
/// of a round is one modeled worker, and a dead lane's examples are
/// skipped; the row update draws the other faults on the example index, so
/// the schedule is independent of the round size.
fn staleness_epoch<L: PointwiseLoss + ?Sized>(
    cx: &RowUpdate<'_, L>,
    w: &mut [Scalar],
    order: &[u32],
    round: usize,
    fc: &mut FaultCounters,
) {
    let mut writes = Vec::new();
    for chunk in order.chunks(round.max(1)) {
        let lanes =
            chunk.iter().enumerate().filter(|&(lane, _)| !cx.plan.worker_dead(lane, cx.epoch));
        let rows = lanes.map(|(_, &i)| i as usize);
        if round <= 1 {
            rows.for_each(|i| cx.apply(&mut *w, i, fc));
        } else {
            rows.for_each(|i| cx.apply(RoundBuffer { pre_round: w, writes: &mut writes }, i, fc));
            writes.drain(..).for_each(|(j, d)| w[j as usize] += d);
        }
    }
}

/// Batch shape statistics the Hogwild cost model needs.
pub(crate) fn batch_stats(batch: &Batch<'_>) -> (usize, f64, usize, usize) {
    match batch.x {
        Examples::Sparse(m) => {
            let (_, avg, _) = m.nnz_per_row_stats();
            (m.rows(), avg, m.cols(), m.sparse_size_bytes())
        }
        Examples::Dense(m) => (m.rows(), m.cols() as f64, m.cols(), 8 * m.len()),
    }
}

/// Per-epoch counters and clock of a modeled asynchronous run: every
/// epoch costs the same modeled seconds, stretched by a straggler's
/// throughput share, and records the same staleness and coherency.
struct AsyncClock {
    epoch_secs: f64,
    staleness_rounds: u64,
    coherency_per_epoch: f64,
    elapsed: f64,
}

impl AsyncClock {
    /// Charges one epoch to the clock and its counters to `m`; independent
    /// modeled workers absorb a straggler (harmonic dilation over
    /// `workers`).
    fn tick(&mut self, plan: &FaultPlan, workers: usize, m: &mut EpochMetrics) -> f64 {
        let dil = plan.async_dilation(workers);
        m.faults.straggler_delay_secs = self.epoch_secs * (dil - 1.0);
        let secs = self.epoch_secs * dil;
        m.staleness_rounds = self.staleness_rounds;
        m.coherency_conflicts = self.coherency_per_epoch;
        self.elapsed += secs;
        self.elapsed
    }
}

/// Hogwild for a linear task with modeled time and bounded-staleness
/// statistics: one pass in rounds of `threads` examples.
pub(crate) fn hogwild_modeled_observed<T: Task>(
    task: &T,
    loss_fn: &dyn PointwiseLoss,
    batch: &Batch<'_>,
    mc: &CpuModelConfig,
    alpha: f64,
    opts: &RunOptions,
    obs: &mut dyn EpochObserver,
) -> RunReport {
    let (n, avg_nnz, dim, data_bytes) = batch_stats(batch);
    let cost = HogwildCost { spec: mc.spec.clone(), threads: mc.threads };
    let mut clock = AsyncClock {
        epoch_secs: cost.epoch_secs(n, avg_nnz, dim, data_bytes),
        staleness_rounds: if mc.threads > 1 { n.div_ceil(mc.threads) as u64 } else { 0 },
        // Expected cross-core invalidations per epoch under the cost model —
        // the same quantity its coherency time term charges for.
        coherency_per_epoch: n as f64 * avg_nnz * cost.conflict_rate(avg_nnz, dim),
        elapsed: 0.0,
    };
    let (plan, threads) = (&opts.faults, mc.threads);
    let order = shuffled_order(n, opts.seed);
    let mut epoch_start: Vec<Scalar> = Vec::new();
    let run = |w: &mut [Scalar], epoch, m: &mut EpochMetrics| {
        if plan.all_workers_dead(threads, epoch) {
            return Err(Halt::FaultAborted { clock: clock.elapsed });
        }
        plan.keep_epoch_start(&mut epoch_start, w);
        if plan.has_dead_worker(threads, epoch) {
            m.faults.dead_workers = 1;
        }
        let cx = RowUpdate { loss: loss_fn, batch, alpha, plan, epoch, stale_model: &epoch_start };
        staleness_epoch(&cx, w, &order, threads, &mut m.faults);
        Ok(clock.tick(plan, threads, m))
    };
    let id = EpochLoop {
        label: format!("{} async {} (modeled)", task.name(), mc.device().label()),
        device: mc.device(),
        step_size: alpha,
    };
    id.run(&mut ModelStep::new(task, batch, CpuExec::seq(), task.init_model(), run), opts, obs)
}

/// Hogbatch with modeled time: rounds of `threads` mini-batches share a
/// stale snapshot; timing is one batch's modeled single-thread cost
/// scaled by the batch count over the effective cores, plus the
/// coherency cost of the concurrent dense model updates.
pub(crate) fn hogbatch_modeled_observed<T: Task>(
    task: &T,
    full: &Batch<'_>,
    batches: &[Batch<'_>],
    mc: &CpuModelConfig,
    alpha: f64,
    opts: &RunOptions,
    obs: &mut dyn EpochObserver,
) -> RunReport {
    assert!(!batches.is_empty(), "at least one mini-batch required");
    let dim = task.dim();

    // Modeled cost of one epoch: per-batch gradient on one core, batches
    // spread over the machine, coherency from the dense updates. The
    // probe's step is discarded: it must not perturb the trajectory.
    let mut probe = CpuModelExec::new(mc.spec.clone(), 1);
    let mut g = vec![0.0; dim];
    let mut w = task.init_model();
    task.gradient(&mut probe, &batches[0], &w, &mut g);
    probe.axpy(-alpha, &g, &mut w);
    let batch_cost = probe.elapsed_secs();
    let (coherency, coherency_per_epoch) = if mc.threads > 1 {
        // Each batch update writes the whole (dense) model once, but the
        // write phase is only a small fraction of a batch's duration, so
        // the probability that another worker writes concurrently is the
        // write duty cycle times the number of other workers.
        let write_secs = dim as f64 * 1e-9;
        let duty = (write_secs / batch_cost.max(1e-12)).min(1.0);
        let rate = ((mc.threads - 1) as f64 * duty).min(1.0);
        let pipelines = (dim as f64 * 8.0 / mc.spec.cacheline as f64).sqrt().max(1.0);
        // Expected conflicting model-cacheline writes per epoch, and the
        // time they cost once invalidation latency is spread over the
        // memory pipelines.
        let conflicts = batches.len() as f64 * dim as f64 * rate;
        (conflicts * mc.spec.coherency_inval_ns * 1e-9 / pipelines, conflicts)
    } else {
        (0.0, 0.0)
    };
    // Scale by total rows rather than batch count so a smaller trailing
    // batch is not charged as a full one.
    let total_rows: usize = batches.iter().map(|b| b.n()).sum();
    let equivalent_batches = total_rows as f64 / batches[0].n().max(1) as f64;
    let workers = mc.threads.max(1);
    let mut clock = AsyncClock {
        epoch_secs: (batch_cost * equivalent_batches / mc.spec.effective_cores(mc.threads))
            .max(coherency)
            + if mc.threads > 1 { mc.spec.fork_join_secs } else { 0.0 },
        staleness_rounds: if mc.threads > 1 {
            batches.len().div_ceil(mc.threads) as u64
        } else {
            0
        },
        coherency_per_epoch,
        elapsed: 0.0,
    };
    let plan = &opts.faults;
    let (mut cpu, mut snapshot, mut epoch_start) = (CpuExec::seq(), vec![0.0; dim], Vec::new());
    let run = |w: &mut [Scalar], epoch, m: &mut EpochMetrics| {
        if plan.all_workers_dead(workers, epoch) {
            return Err(Halt::FaultAborted { clock: clock.elapsed });
        }
        plan.keep_epoch_start(&mut epoch_start, w);
        let fc = &mut m.faults;
        if plan.has_dead_worker(workers, epoch) {
            fc.dead_workers = 1;
        }
        // Lane index within a round = modeled worker id; fault decisions
        // hash on the global batch index.
        let mut idx = 0usize;
        for group in batches.chunks(workers) {
            snapshot.copy_from_slice(w);
            for (lane, b) in group.iter().enumerate() {
                let bi = idx;
                idx += 1;
                if plan.worker_dead(lane, epoch) {
                    continue;
                }
                let stale = plan.stale_read(epoch, bi);
                if stale {
                    fc.stale_reads += 1;
                }
                let read: &[Scalar] = if stale { &epoch_start } else { &snapshot };
                task.gradient(&mut cpu, b, read, &mut g);
                let mut a = alpha;
                if let Some(f) = plan.corrupt_factor(epoch, bi) {
                    a *= f;
                    fc.corrupted_updates += 1;
                }
                if plan.drops_update(epoch, bi) {
                    fc.dropped_updates += 1;
                    continue;
                }
                for (wj, &gj) in w.iter_mut().zip(&g) {
                    *wj -= a * gj;
                }
            }
        }
        Ok(clock.tick(plan, workers, m))
    };
    let id = EpochLoop {
        label: format!("{} async {} (hogbatch, modeled)", task.name(), mc.device().label()),
        device: mc.device(),
        step_size: alpha,
    };
    id.run(&mut ModelStep::new(task, full, CpuExec::seq(), task.init_model(), run), opts, obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Configuration, Engine, Strategy, Timing};
    use sgd_linalg::{CsrMatrix, Matrix};
    use sgd_models::{lr, LinearLoss, LogisticLoss, MlpTask};

    /// The modeled-time corner of `strategy` on the machine `mc` describes.
    fn modeled(strategy: Strategy, mc: &CpuModelConfig) -> Configuration {
        Configuration::new(mc.device(), strategy).with_timing(Timing::Modeled(mc.clone()))
    }

    fn paper(strategy: Strategy, threads: usize) -> Configuration {
        modeled(strategy, &CpuModelConfig::paper_machine(threads))
    }

    fn wall_seq(strategy: Strategy) -> Configuration {
        Configuration::new(DeviceKind::CpuSeq, strategy)
    }

    fn sparse_data(n: usize, d: usize) -> (CsrMatrix, Vec<Scalar>) {
        let entries: Vec<Vec<(u32, Scalar)>> = (0..n)
            .map(|i| {
                let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                let mut v = vec![((i % d) as u32, sign), (((i * 5 + 1) % d) as u32, sign * 0.5)];
                v.sort_by_key(|e| e.0);
                v.dedup_by_key(|e| e.0);
                v
            })
            .collect();
        let y = (0..n).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        (CsrMatrix::from_row_entries(n, d, &entries), y)
    }

    #[test]
    fn modeled_sync_statistics_match_wall_sync() {
        let (x, y) = sparse_data(128, 16);
        let b = Batch::new(Examples::Sparse(&x), &y);
        let task = lr(16);
        let opts = RunOptions { max_epochs: 8, ..Default::default() };
        let wall = Engine::run(&wall_seq(Strategy::Sync), &task, &b, 0.5, &opts);
        let modeled = Engine::run(&paper(Strategy::Sync, 56), &task, &b, 0.5, &opts);
        for (p, q) in wall.trace.points().iter().zip(modeled.trace.points()) {
            assert!((p.1 - q.1).abs() < 1e-12, "{} vs {}", p.1, q.1);
        }
        assert!(modeled.opt_seconds > 0.0);
    }

    #[test]
    fn modeled_single_thread_hogwild_matches_wall_hogwild() {
        let (x, y) = sparse_data(200, 16);
        let b = Batch::new(Examples::Sparse(&x), &y);
        let task = lr(16);
        let opts = RunOptions { max_epochs: 6, ..Default::default() };
        let wall = Engine::run(&wall_seq(Strategy::Hogwild), &task, &b, 0.5, &opts);
        let modeled = Engine::run(&paper(Strategy::Hogwild, 1), &task, &b, 0.5, &opts);
        for (p, q) in wall.trace.points().iter().zip(modeled.trace.points()) {
            assert!((p.1 - q.1).abs() < 1e-12, "{} vs {}", p.1, q.1);
        }
    }

    #[test]
    fn staleness_changes_trajectory_but_still_converges() {
        let (x, y) = sparse_data(256, 8); // low-dimensional: much contention
        let b = Batch::new(Examples::Sparse(&x), &y);
        let task = lr(8);
        let opts = RunOptions { max_epochs: 3, ..Default::default() };
        let fresh = Engine::run(&paper(Strategy::Hogwild, 1), &task, &b, 0.2, &opts);
        let stale = Engine::run(&paper(Strategy::Hogwild, 56), &task, &b, 0.2, &opts);
        // The delayed reads produce a measurably different trajectory...
        let diff: f64 = fresh
            .trace
            .points()
            .iter()
            .zip(stale.trace.points())
            .map(|(p, q)| (p.1 - q.1).abs())
            .sum();
        assert!(diff > 1e-9, "staleness must alter the trajectory");
        // ...while both still optimize.
        let l0 = fresh.trace.points()[0].1;
        assert!(fresh.best_loss() < 0.5 * l0);
        assert!(stale.best_loss() < 0.5 * l0);
    }

    /// The shared inputs of an unfaulted epoch's row updates.
    fn clean<'a>(b: &'a Batch<'a>, plan: &'a FaultPlan, alpha: f64) -> RowUpdate<'a, LogisticLoss> {
        RowUpdate { loss: &LogisticLoss, batch: b, alpha, plan, epoch: 0, stale_model: &[] }
    }

    #[test]
    fn staleness_round_one_is_exactly_incremental() {
        let (x, y) = sparse_data(128, 16);
        let b = Batch::new(Examples::Sparse(&x), &y);
        let order = crate::hogwild::shuffled_order(128, 1);
        let (plan, mut w1) = (FaultPlan::default(), vec![0.0; 16]);
        staleness_epoch(&clean(&b, &plan, 0.3), &mut w1, &order, 1, &mut Default::default());
        // Reference: plain incremental updates in the same order.
        let mut w2: Vec<Scalar> = vec![0.0; 16];
        for &i in &order {
            let i = i as usize;
            let row = x.row(i);
            let margin =
                row.cols.iter().zip(row.vals).fold(0.0, |m, (&c, &v)| m + v * w2[c as usize]);
            let step = -0.3 * LogisticLoss.dloss(margin, y[i]);
            for (&c, &v) in row.cols.iter().zip(row.vals) {
                w2[c as usize] += step * v;
            }
        }
        assert!(w1.iter().zip(&w2).all(|(a, b)| a.to_bits() == b.to_bits()), "{w1:?} vs {w2:?}");
    }

    #[test]
    fn a_round_reads_the_pre_round_model_and_lands_its_writes_in_order() {
        // Two rows of one round both touch coordinate 0.
        let x = CsrMatrix::from_row_entries(2, 2, &[vec![(0, 1.0), (1, 0.5)], vec![(0, -0.75)]]);
        let y = [1.0, 1.0];
        let (b, plan, w0) =
            (Batch::new(Examples::Sparse(&x), &y), FaultPlan::default(), [0.1, 0.3]);
        let cx = clean(&b, &plan, 0.7);
        let mut w = w0;
        staleness_epoch(&cx, &mut w, &[0, 1], 2, &mut Default::default());
        // Both steps come from the pre-round margins, and row 0's write
        // lands first.
        let s0 = -0.7 * LogisticLoss.dloss(1.0 * w0[0] + 0.5 * w0[1], 1.0);
        let s1 = -0.7 * LogisticLoss.dloss(-0.75 * w0[0], 1.0);
        assert_eq!(w[0].to_bits(), (w0[0] + s0 * 1.0 + s1 * -0.75).to_bits());
        assert_ne!(w[0].to_bits(), (w0[0] + s1 * -0.75 + s0 * 1.0).to_bits(), "order must show");
        assert_eq!(w[1].to_bits(), (w0[1] + s0 * 0.5).to_bits());
    }

    #[test]
    fn modeled_dense_hogwild_par_slower_per_epoch() {
        // covtype-like: dense, low-dimensional => parallel is slower.
        let x = Matrix::from_fn(512, 54, |i, j| (((i + j) % 5) as Scalar - 2.0) / 2.0);
        let y: Vec<Scalar> = (0..512).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let b = Batch::new(Examples::Dense(&x), &y);
        let task = lr(54);
        let opts = RunOptions { max_epochs: 2, ..Default::default() };
        let seq = Engine::run(&paper(Strategy::Hogwild, 1), &task, &b, 0.1, &opts);
        let par = Engine::run(&paper(Strategy::Hogwild, 56), &task, &b, 0.1, &opts);
        assert!(par.time_per_epoch() > seq.time_per_epoch());
    }

    #[test]
    fn modeled_sparse_hogwild_par_faster_per_epoch() {
        let (x, y) = sparse_data(4096, 100_000);
        let b = Batch::new(Examples::Sparse(&x), &y);
        let task = lr(100_000);
        let opts = RunOptions { max_epochs: 2, ..Default::default() };
        let seq = Engine::run(&paper(Strategy::Hogwild, 1), &task, &b, 0.1, &opts);
        let par = Engine::run(&paper(Strategy::Hogwild, 56), &task, &b, 0.1, &opts);
        assert!(par.time_per_epoch() < seq.time_per_epoch());
    }

    #[test]
    fn modeled_hogbatch_runs_and_speeds_up() {
        // w8a-like sizes: large enough that a batch's compute dominates
        // its model-update write phase (as at the paper's scale).
        let x = Matrix::from_fn(1024, 300, |i, j| {
            let s = if i % 2 == 0 { 1.0 } else { -1.0 };
            s * (((i * 3 + j) % 4) as Scalar + 1.0) / 4.0
        });
        let y: Vec<Scalar> = (0..1024).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let task = MlpTask::new(vec![300, 10, 5, 2], 1);
        let full = Batch::new(Examples::Dense(&x), &y);
        let hogbatch = Strategy::Hogbatch { batch_size: 512 };
        let opts = RunOptions { max_epochs: 3, ..Default::default() };
        // Zero fork/join isolates the scaling law from the (realistic)
        // per-region overhead, which dominates at this toy scale.
        let mut mc1 = CpuModelConfig::paper_machine(1);
        mc1.spec.fork_join_secs = 0.0;
        let mut mc56 = CpuModelConfig::paper_machine(56);
        mc56.spec.fork_join_secs = 0.0;
        let seq = Engine::run(&modeled(hogbatch.clone(), &mc1), &task, &full, 0.5, &opts);
        let par = Engine::run(&modeled(hogbatch, &mc56), &task, &full, 0.5, &opts);
        assert!(par.time_per_epoch() < seq.time_per_epoch());
        // Both make progress on the loss.
        assert!(seq.best_loss() < seq.trace.points()[0].1);
        assert!(par.best_loss() < par.trace.points()[0].1);
    }

    #[test]
    fn modeled_straggler_hits_sync_harder_than_hogwild() {
        // The paper-level claim the faults bench quantifies: a 4x straggler
        // stalls the synchronous barrier by the full 4x, while 8
        // independent Hogwild workers only lose its throughput share.
        let (x, y) = sparse_data(128, 16);
        let b = Batch::new(Examples::Sparse(&x), &y);
        let task = lr(16);
        let mc = CpuModelConfig::paper_machine(8);
        let clean = RunOptions { max_epochs: 4, plateau: None, ..Default::default() };
        let faulty = RunOptions {
            faults: crate::FaultPlan::default().with_straggler(0, 4.0),
            ..clean.clone()
        };
        let sc = Engine::run(&modeled(Strategy::Sync, &mc), &task, &b, 0.5, &clean);
        let sf = Engine::run(&modeled(Strategy::Sync, &mc), &task, &b, 0.5, &faulty);
        let hc = Engine::run(&modeled(Strategy::Hogwild, &mc), &task, &b, 0.2, &clean);
        let hf = Engine::run(&modeled(Strategy::Hogwild, &mc), &task, &b, 0.2, &faulty);
        assert_eq!(sc.trace.epochs(), sf.trace.epochs(), "straggler leaves statistics alone");
        assert_eq!(hc.trace.epochs(), hf.trace.epochs());
        let sync_ratio = sf.opt_seconds / sc.opt_seconds;
        let async_ratio = hf.opt_seconds / hc.opt_seconds;
        assert!((sync_ratio - 4.0).abs() < 1e-9, "sync dilation {sync_ratio}");
        let expected = 8.0 / (7.0 + 0.25);
        assert!((async_ratio - expected).abs() < 1e-9, "async dilation {async_ratio}");
        assert!(async_ratio < sync_ratio, "async absorbs the straggler");
    }

    #[test]
    fn gemm_threshold_ablation_changes_modeled_time() {
        // Large enough that the input-layer products dominate and benefit
        // from parallelism once the ViennaCL threshold is lifted.
        let x = Matrix::from_fn(20_000, 50, |i, j| (((i + j) % 7) as Scalar - 3.0) / 3.0);
        let y: Vec<Scalar> = (0..20_000).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let b = Batch::new(Examples::Dense(&x), &y);
        let task = MlpTask::new(vec![50, 10, 5, 2], 1);
        let opts = RunOptions { max_epochs: 2, ..Default::default() };
        // The weight-gradient products (50x10, 10x5, 5x2 results) stay
        // below the threshold; with it lifted they parallelize too.
        let mut with = CpuModelConfig::paper_machine(56);
        with.spec.fork_join_secs = 0.0;
        let mut without = with.clone();
        without.gemm_parallel_threshold = 0;
        let rep_with = Engine::run(&modeled(Strategy::Sync, &with), &task, &b, 0.5, &opts);
        let rep_without = Engine::run(&modeled(Strategy::Sync, &without), &task, &b, 0.5, &opts);
        assert!(
            rep_without.time_per_epoch() < rep_with.time_per_epoch(),
            "lifting the ViennaCL threshold must speed the modeled epoch up: {} vs {}",
            rep_without.time_per_epoch(),
            rep_with.time_per_epoch()
        );
    }
}
