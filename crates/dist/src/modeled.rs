//! The deterministic modeled-time cluster: discrete-event simulation of
//! a parameter server and N elastic workers.
//!
//! The distributed counterpart of `sgd-core`'s modeled runners:
//! functional results are exact (every gradient runs through the shared
//! `ComputeBackend` dispatch on the sequential CPU kernels), and time
//! comes from a discrete-event simulation — per-shard compute cost is
//! probed once on the `sgd-cpusim` performance model, network round
//! trips charge a fixed modeled RTT, and stragglers dilate their own
//! compute only. Same seed, same fault plan ⇒ bit-identical
//! [`RunReport`], which is what the determinism suite and CI pin.
//!
//! Event order is a total order: the event heap sorts by `(time,
//! sequence number)` with `f64::total_cmp`, so ties (and NaNs, which
//! cannot arise but would still order) are broken deterministically by
//! scheduling order.
//!
//! Elastic membership follows the run's [`FaultPlan`]: a worker whose
//! death epoch arrives dies at its *first event of that epoch* — after
//! it leased a shard, so the server demonstrably revokes and reassigns
//! mid-epoch work — and a worker with a configured rejoin is readmitted
//! at the start of its rejoin epoch, pulling the then-current model.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sgd_cpusim::CpuModelExec;
use sgd_linalg::{CpuExec, Scalar};
use sgd_models::{Batch, Task};

use sgd_core::{
    BackendSession, ComputeBackend, CpuModelConfig, EpochLoop, EpochMetrics, EpochStep,
    FaultCounters, FaultPlan, Halt, NullObserver, RunOptions, RunReport,
};

use crate::server::{ConsistencyMode, LeaseGrant, ParamServer, PushOutcome};
use crate::shard::{make_shards, Shard};
use crate::worker::GradJob;

/// Shape of the modeled cluster.
#[derive(Clone, Debug)]
pub struct DistConfig {
    /// Worker count (at least 1).
    pub workers: usize,
    /// Data shards the epoch is divided into (clamped to the row count).
    pub shards: usize,
    /// Consistency mode of the parameter server.
    pub mode: ConsistencyMode,
    /// The machine each worker models (threads = per-worker threads).
    pub mc: CpuModelConfig,
    /// Modeled network round-trip seconds charged per server call pair
    /// (lease+pull before a compute, and the push delivery after it).
    pub net_rtt_secs: f64,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            workers: 4,
            shards: 8,
            mode: ConsistencyMode::Sync { grads_to_wait: 4 },
            mc: CpuModelConfig::paper_machine(1),
            net_rtt_secs: 50.0e-6,
        }
    }
}

/// One scheduled event: worker `worker`'s in-flight push arrives at the
/// server at time `t`. `seq` breaks time ties in scheduling order.
struct Ev {
    t: f64,
    seq: u64,
    worker: usize,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.t.total_cmp(&other.t).then_with(|| self.seq.cmp(&other.seq))
    }
}

/// One simulated worker's replica state.
struct WorkerSim {
    alive: bool,
    idle: bool,
    /// Shard of the in-flight (or just-delivered) push.
    shard: usize,
    /// Version the in-flight gradient was computed against.
    version: u64,
    w: Vec<Scalar>,
    g: Vec<Scalar>,
}

/// SplitMix64 finalizer (same construction the fault plan uses).
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeded Fisher–Yates permutation of `0..shards` for one epoch's lease
/// order, written into `buf`. Shared with the wire runner so the
/// 1-worker wire trajectory is bitwise the 1-worker modeled one.
pub(crate) fn epoch_order(shards: usize, seed: u64, epoch: usize, buf: &mut Vec<usize>) {
    buf.clear();
    buf.extend(0..shards);
    let mut state = mix64(seed ^ mix64(epoch as u64));
    for i in (1..shards).rev() {
        state = mix64(state);
        let j = (state % (i as u64 + 1)) as usize;
        buf.swap(i, j);
    }
}

/// Everything the event handlers thread through the simulation.
struct Sim<'a, T: Task> {
    task: &'a T,
    shards: &'a [Shard],
    /// Modeled healthy compute seconds per shard.
    costs: &'a [f64],
    plan: &'a FaultPlan,
    net_rtt_secs: f64,
    server: ParamServer,
    workers: Vec<WorkerSim>,
    session: BackendSession,
    heap: BinaryHeap<Reverse<Ev>>,
    seq: u64,
}

impl<T: Task> Sim<'_, T> {
    /// Pulls the current model into `wk`'s replica, computes the gradient
    /// of its shard (exact kernels, sequential CPU backend), and schedules
    /// the push delivery at `now + rtt(lease+pull) + compute + rtt(push)`.
    fn fire_compute(&mut self, wk: usize, shard: usize, now: f64, fc: &mut FaultCounters) {
        let (version, model) = self.server.pull();
        let ws = &mut self.workers[wk];
        ws.idle = false;
        ws.shard = shard;
        ws.version = version;
        if ws.w.len() == model.len() {
            ws.w.copy_from_slice(model);
        } else {
            ws.w = model.to_vec();
        }
        let mut job = GradJob::new(self.task, &self.shards[shard], &ws.w, &mut ws.g);
        ComputeBackend::CpuSeq.dispatch(&mut self.session, &mut job);
        let slowdown = self.plan.slowdown_of(wk);
        let cost = self.costs[shard] * slowdown;
        fc.straggler_delay_secs += self.costs[shard] * (slowdown - 1.0);
        self.seq += 1;
        self.heap.push(Reverse(Ev {
            t: now + 2.0 * self.net_rtt_secs + cost,
            seq: self.seq,
            worker: wk,
        }));
    }

    /// Leases the next shard for `wk` and fires its compute; an empty
    /// pool parks the worker idle (woken by lease revocations).
    fn schedule_work(&mut self, wk: usize, now: f64, fc: &mut FaultCounters) {
        match self.server.lease(wk) {
            LeaseGrant::Shard(s) => self.fire_compute(wk, s, now, fc),
            LeaseGrant::Drained | LeaseGrant::Shutdown => self.workers[wk].idle = true,
        }
    }

    /// Wakes every idle live worker at `now` (called after lease
    /// revocations put shards back into the pool).
    fn wake_idle(&mut self, now: f64, fc: &mut FaultCounters) {
        for wk in 0..self.workers.len() {
            if self.workers[wk].alive && self.workers[wk].idle {
                self.schedule_work(wk, now, fc);
            }
        }
    }
}

/// Runs `task` on the modeled parameter-server cluster described by
/// `cfg`, producing the same typed [`RunReport`] as the single-node
/// runners. Deterministic: same `(cfg, alpha, opts)` — seed and fault
/// plan included — yields a bit-identical report.
pub fn run_dist_modeled<T: Task>(
    task: &T,
    batch: &Batch<'_>,
    cfg: &DistConfig,
    alpha: f64,
    opts: &RunOptions,
) -> RunReport {
    let shards = make_shards(batch, cfg.shards.max(1));
    let dim = task.dim();
    let w0 = task.init_model();

    // Probe each shard's healthy modeled compute cost once (shape-based,
    // deterministic); the probe's functional output is discarded.
    let mut costs = Vec::with_capacity(shards.len());
    {
        let mut g = vec![0.0; dim];
        for sh in &shards {
            let mut probe = CpuModelExec::new(cfg.mc.spec.clone(), cfg.mc.threads);
            probe.gemm_parallel_threshold = cfg.mc.gemm_parallel_threshold;
            task.gradient(&mut probe, &sh.batch(), &w0, &mut g);
            costs.push(probe.elapsed_secs());
        }
    }

    let workers = cfg.workers.max(1);
    let sim = Sim {
        task,
        shards: &shards,
        costs: &costs,
        plan: &opts.faults,
        net_rtt_secs: cfg.net_rtt_secs,
        server: ParamServer::new(w0.clone(), alpha, cfg.mode, shards.len()),
        workers: (0..workers)
            .map(|_| WorkerSim {
                alive: false,
                idle: true,
                shard: 0,
                version: 0,
                w: Vec::new(),
                g: Vec::new(),
            })
            .collect(),
        session: BackendSession::new(),
        heap: BinaryHeap::new(),
        seq: 0,
    };

    let mut step = ClusterStep {
        sim,
        batch,
        seed: opts.seed,
        eval: CpuExec::seq(),
        now: 0.0,
        order_buf: Vec::new(),
        dying: vec![false; workers],
    };
    let id = EpochLoop {
        label: format!("{} dist-{} x{} (modeled)", task.name(), cfg.mode.label(), workers),
        device: cfg.mc.device(),
        step_size: alpha,
    };
    id.run(&mut step, opts, &mut NullObserver)
}

/// One epoch of the simulated cluster: membership changes at the
/// boundary, then events until the server has applied every shard.
struct ClusterStep<'a, T: Task> {
    sim: Sim<'a, T>,
    batch: &'a Batch<'a>,
    seed: u64,
    eval: CpuExec,
    /// The simulation clock.
    now: f64,
    order_buf: Vec<usize>,
    /// Members whose death epoch arrived; each dies at its first event.
    dying: Vec<bool>,
}

impl<T: Task> EpochStep for ClusterStep<'_, T> {
    fn loss(&mut self) -> f64 {
        self.sim.task.loss(&mut self.eval, self.batch, self.sim.server.model())
    }

    fn epoch(&mut self, epoch: usize, m: &mut EpochMetrics) -> Result<f64, Halt> {
        let (sim, dying, fc) = (&mut self.sim, &mut self.dying, &mut m.faults);
        let workers = sim.workers.len();
        let stats0 = sim.server.stats();

        // Membership transitions at the epoch boundary: the plan's dead
        // window `[death, rejoin)` decides who participates. A worker
        // outside its dead window that is not yet a member joins (epoch 0
        // bootstrap and rejoins share this path); a member whose death
        // epoch arrived dies at its first event below.
        for (wk, dying_slot) in dying.iter_mut().enumerate() {
            let dead = sim.plan.worker_dead(wk, epoch);
            *dying_slot = sim.workers[wk].alive && dead;
            if !sim.workers[wk].alive && !dead {
                let (version, model) = sim.server.join(wk);
                let ws = &mut sim.workers[wk];
                ws.alive = true;
                ws.idle = true;
                ws.version = version;
                ws.w = model.to_vec();
                ws.g = vec![0.0; model.len()];
            }
        }
        let survivors = (0..workers).filter(|&wk| sim.workers[wk].alive && !dying[wk]).count();
        if survivors == 0 {
            return Err(Halt::FaultAborted { clock: self.now });
        }

        epoch_order(sim.shards.len(), self.seed, epoch, &mut self.order_buf);
        sim.server.begin_epoch(&self.order_buf);
        for wk in 0..workers {
            if sim.workers[wk].alive {
                sim.schedule_work(wk, self.now, fc);
            }
        }

        while !sim.server.epoch_done() {
            let Some(Reverse(ev)) = sim.heap.pop() else { break };
            self.now = ev.t;
            let wk = ev.worker;
            if !sim.workers[wk].alive {
                continue;
            }
            if dying[wk] {
                // Death surfaces at the worker's first event of its death
                // epoch: the server revokes its lease (back to the pool)
                // and idle survivors pick the shard up at this instant.
                dying[wk] = false;
                sim.workers[wk].alive = false;
                sim.server.leave(wk);
                fc.dead_workers += 1;
                sim.wake_idle(self.now, fc);
                continue;
            }
            let shard = sim.workers[wk].shard;
            let version = sim.workers[wk].version;
            let outcome = {
                let grad = std::mem::take(&mut sim.workers[wk].g);
                let out = sim.server.push(wk, version, shard, &grad);
                sim.workers[wk].g = grad;
                out
            };
            match outcome {
                PushOutcome::RejectedStale { .. } => {
                    // Same shard, fresh model: the ElasticDL recompute.
                    sim.fire_compute(wk, shard, self.now, fc);
                }
                _ => sim.schedule_work(wk, self.now, fc),
            }
        }
        if !sim.server.epoch_done() {
            // The pool still holds pending shards but every worker is
            // gone: the distributed analog of a stalled barrier.
            return Err(Halt::FaultAborted { clock: self.now });
        }
        sim.server.flush_pending();

        let stats = sim.server.stats();
        m.staleness_rounds =
            (stats.rejected + stats.downweighted) - (stats0.rejected + stats0.downweighted);
        Ok(self.now)
    }

    fn model(&self) -> &[Scalar] {
        self.sim.server.model()
    }
}

#[cfg(test)]
mod tests {
    use sgd_core::RunOutcome;
    use sgd_linalg::{Exec, Matrix};
    use sgd_models::{lr, Examples};

    use super::*;
    use crate::server::StalePolicy;

    fn fixture() -> (Matrix, Vec<Scalar>) {
        let n = 64;
        let d = 6;
        let x = Matrix::from_fn(n, d, |i, j| {
            let s = if i % 2 == 0 { 1.0 } else { -1.0 };
            s * (((i * d + j) % 7) as Scalar + 1.0) / 7.0
        });
        let y = (0..n).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        (x, y)
    }

    fn opts(epochs: usize) -> RunOptions {
        RunOptions { max_epochs: epochs, plateau: None, ..Default::default() }
    }

    #[test]
    fn one_worker_one_shard_sync_matches_the_single_node_trajectory_bitwise() {
        let (x, y) = fixture();
        let batch = Batch::new(Examples::Dense(&x), &y);
        let task = lr(6);
        let cfg = DistConfig {
            workers: 1,
            shards: 1,
            mode: ConsistencyMode::Sync { grads_to_wait: 1 },
            ..Default::default()
        };
        let rep = run_dist_modeled(&task, &batch, &cfg, 0.5, &opts(6));
        // Reference: full-batch gradient descent on the same exact
        // kernels — gradient, axpy apply, loss eval all via CpuExec::seq.
        let mut e = CpuExec::seq();
        let mut w = task.init_model();
        let mut g = vec![0.0; 6];
        for (point, _) in rep.trace.points().iter().skip(1).zip(0..) {
            task.gradient(&mut e, &batch, &w, &mut g);
            e.axpy(-0.5, &g, &mut w);
            let loss = task.loss(&mut e, &batch, &w);
            assert_eq!(
                point.1.to_bits(),
                loss.to_bits(),
                "dist 1-worker sync must be bitwise the single-node sync trajectory"
            );
        }
        assert_eq!(rep.trace.epochs(), 6);
    }

    #[test]
    fn the_report_is_bit_identical_across_runs_in_both_modes() {
        let (x, y) = fixture();
        let batch = Batch::new(Examples::Dense(&x), &y);
        let task = lr(6);
        for mode in [
            ConsistencyMode::Sync { grads_to_wait: 2 },
            ConsistencyMode::Async { max_staleness: 2, policy: StalePolicy::Reject },
            ConsistencyMode::Async { max_staleness: 1, policy: StalePolicy::DownWeight },
        ] {
            let cfg = DistConfig { workers: 3, shards: 6, mode, ..Default::default() };
            let run = || run_dist_modeled(&task, &batch, &cfg, 0.3, &opts(5));
            let (a, b) = (run(), run());
            assert_eq!(a.trace.points().len(), b.trace.points().len());
            for (p, q) in a.trace.points().iter().zip(b.trace.points()) {
                assert_eq!(p.0.to_bits(), q.0.to_bits(), "modeled times replay {mode:?}");
                assert_eq!(p.1.to_bits(), q.1.to_bits(), "losses replay {mode:?}");
            }
            assert_eq!(a.outcome, b.outcome);
        }
    }

    #[test]
    fn death_reassigns_shards_and_a_rejoin_readmits_the_worker() {
        let (x, y) = fixture();
        let batch = Batch::new(Examples::Dense(&x), &y);
        let task = lr(6);
        let cfg = DistConfig {
            workers: 3,
            shards: 6,
            mode: ConsistencyMode::Sync { grads_to_wait: 2 },
            ..Default::default()
        };
        // Worker 1 dies mid-run and comes back two epochs later.
        let mut o = opts(8);
        o.faults = FaultPlan::default().with_worker_death(1, 2).with_rejoin(1, 4);
        let rep = run_dist_modeled(&task, &batch, &cfg, 0.3, &o);
        assert_eq!(rep.trace.epochs(), 8, "the cluster survives the churn");
        let dead: u64 = rep.metrics.epochs.iter().map(|m| m.faults.dead_workers).sum();
        assert_eq!(dead, 1, "exactly one death event");
        let last = rep.trace.points().last().map(|p| p.1).unwrap_or(f64::NAN);
        let first = rep.trace.points().first().map(|p| p.1).unwrap_or(f64::NAN);
        assert!(last < first, "still optimizes through death and rejoin");
        // With a convergence target the churned run reports Converged.
        let target = rep.best_loss();
        let mut o2 = o.clone();
        o2.target_loss = Some(target * 1.02);
        let rep2 = run_dist_modeled(&task, &batch, &cfg, 0.3, &o2);
        assert_eq!(rep2.outcome, RunOutcome::Converged);
    }

    #[test]
    fn losing_every_worker_aborts_the_run() {
        let (x, y) = fixture();
        let batch = Batch::new(Examples::Dense(&x), &y);
        let task = lr(6);
        let cfg = DistConfig { workers: 1, shards: 2, ..Default::default() };
        let mut o = opts(6);
        o.faults = FaultPlan::default().with_worker_death(0, 2);
        let rep = run_dist_modeled(&task, &batch, &cfg, 0.3, &o);
        assert!(
            matches!(rep.outcome, RunOutcome::FaultAborted { .. }),
            "an empty cluster is a fault abort, got {:?}",
            rep.outcome
        );
    }

    #[test]
    fn async_absorbs_a_straggler_better_than_sync() {
        let (x, y) = fixture();
        let batch = Batch::new(Examples::Dense(&x), &y);
        let task = lr(6);
        // Zero modeled RTT: the tiny fixture's compute is nanoseconds, so
        // a nonzero network share would mask the straggler in both modes.
        let mk = |mode| DistConfig {
            workers: 4,
            shards: 8,
            mode,
            net_rtt_secs: 0.0,
            ..Default::default()
        };
        let sync = mk(ConsistencyMode::Sync { grads_to_wait: 4 });
        let asyn = mk(ConsistencyMode::Async { max_staleness: 8, policy: StalePolicy::Reject });
        let clean = opts(4);
        let mut slow = clean.clone();
        slow.faults = FaultPlan::default().with_straggler(0, 8.0);
        let sc = run_dist_modeled(&task, &batch, &sync, 0.3, &clean);
        let sf = run_dist_modeled(&task, &batch, &sync, 0.3, &slow);
        let ac = run_dist_modeled(&task, &batch, &asyn, 0.3, &clean);
        let af = run_dist_modeled(&task, &batch, &asyn, 0.3, &slow);
        let sync_ratio = sf.time_per_epoch() / sc.time_per_epoch();
        let async_ratio = af.time_per_epoch() / ac.time_per_epoch();
        assert!(
            async_ratio < sync_ratio,
            "async must degrade less under an injected straggler: \
             async {async_ratio:.3}x vs sync {sync_ratio:.3}x"
        );
    }

    #[test]
    fn staleness_events_are_counted() {
        let (x, y) = fixture();
        let batch = Batch::new(Examples::Dense(&x), &y);
        let task = lr(6);
        // A tight staleness bound with many racing workers forces
        // rejections.
        let cfg = DistConfig {
            workers: 4,
            shards: 8,
            mode: ConsistencyMode::Async { max_staleness: 0, policy: StalePolicy::Reject },
            ..Default::default()
        };
        let rep = run_dist_modeled(&task, &batch, &cfg, 0.3, &opts(3));
        let staleness: u64 = rep.metrics.epochs.iter().map(|m| m.staleness_rounds).sum();
        assert!(staleness > 0, "a zero staleness bound must reject racing pushes");
    }
}
