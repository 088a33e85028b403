//! Asynchronous SGD on the simulated GPU.
//!
//! Two kernels, mirroring the paper's GPU asynchronous implementations:
//!
//! * **warp-Hogwild** for the linear tasks: one thread per example, warps
//!   execute in lockstep. All 32 lanes read the model *before* any of them
//!   writes (lockstep loads), and the unsynchronized read-modify-write
//!   update means that when several lanes touch the same coordinate only
//!   the last lane's write survives — the intra-warp update conflicts that
//!   destroy statistical efficiency on dense data. On sparse data the
//!   conflicts vanish but the warp pays divergence (high nnz variance) and
//!   non-coalesced model gathers — the hardware-efficiency penalty.
//! * **Hogbatch** for the MLP: mini-batches dispatched kernel-by-kernel.
//!   Although many host threads enqueue work, only one kernel executes at
//!   a time (the paper's observation), so the updates are effectively
//!   sequential — statistical efficiency matches sequential mini-batch SGD
//!   and each small kernel pays a host dispatch/synchronization overhead.

use std::collections::BTreeMap;

use sgd_gpusim::kernels::GpuExec;
use sgd_gpusim::{GpuDevice, WarpCtx};
use sgd_linalg::{CpuExec, Exec, Scalar};
use sgd_models::{Batch, Examples, PointwiseLoss, Task};

use crate::config::{DeviceKind, RunOptions};
use crate::epoch_loop::{EpochLoop, Halt, ModelStep};
use crate::faults::{FaultCounters, FaultPlan};
use crate::hogwild::shuffled_order;
use crate::metrics::{EpochMetrics, EpochObserver, GpuEpochProbe};
use crate::report::RunReport;

/// Options specific to the GPU asynchronous kernels.
#[derive(Clone, Debug)]
pub struct GpuAsyncOptions {
    /// Resolve intra-warp conflicts with atomic adds (lossless, serialized)
    /// instead of the default last-write-wins races. Ablation knob.
    pub atomic_updates: bool,
    /// Host-side dispatch + synchronization cost charged per kernel launch
    /// in the Hogbatch path. The paper's asynchronous MLP launches
    /// thousands of small dependent kernels from contending host threads;
    /// this overhead is why its GPU Hogbatch is only ~2X faster than one
    /// CPU core despite the device's raw throughput.
    pub host_sync_overhead_secs: f64,
}

impl Default for GpuAsyncOptions {
    fn default() -> Self {
        GpuAsyncOptions { atomic_updates: false, host_sync_overhead_secs: 150e-6 }
    }
}

const F64: u64 = std::mem::size_of::<Scalar>() as u64;
const U32: u64 = std::mem::size_of::<u32>() as u64;

/// Processes warp `wi` (the asynchronous worker id) of examples
/// functionally, optionally reporting its memory/compute behaviour to a
/// tracing context. The plan's per-warp decisions are drawn and tallied
/// into `fc` first: a corrupted warp scales its step, a stale one reads
/// the epoch-start model in phase 1, and a dropped one discards its
/// phase-2 store after the gradient work is done. Returns the number of
/// updates lost to (or serialized by) intra-warp conflicts.
#[allow(clippy::too_many_arguments)]
fn process_warp(
    loss: &dyn PointwiseLoss,
    batch: &Batch<'_>,
    w: &mut [Scalar],
    alpha: f64,
    lanes: &[u32],
    atomic: bool,
    ctx: &mut Option<&mut WarpCtx<'_>>,
    addrs: TraceAddrs,
    plan: &FaultPlan,
    epoch: usize,
    wi: usize,
    epoch_start: &[Scalar],
    fc: &mut FaultCounters,
) -> u64 {
    let mut alpha = alpha;
    if let Some(f) = plan.corrupt_factor(epoch, wi) {
        alpha *= f;
        fc.corrupted_updates += 1;
    }
    let stale = plan.stale_read(epoch, wi);
    fc.stale_reads += u64::from(stale);
    let dropped = plan.drops_update(epoch, wi);
    fc.dropped_updates += u64::from(dropped);

    // Phase 1: lockstep gradient computation — every lane's margin is
    // computed against the model as it stood when the warp arrived (or a
    // stale snapshot of it, when the fault plan says so).
    let mut coeffs: Vec<Scalar> = Vec::with_capacity(lanes.len());
    let rw: &[Scalar] = if stale { epoch_start } else { w };
    match batch.x {
        Examples::Sparse(m) => {
            for &i in lanes {
                let row = m.row(i as usize);
                let margin: Scalar =
                    row.cols.iter().zip(row.vals).map(|(&c, &v)| v * rw[c as usize]).sum();
                coeffs.push(loss.dloss_at(margin, batch.y[i as usize]));
            }
            if let Some(ctx) = ctx.as_deref_mut() {
                trace_sparse_pass(m, lanes, ctx, addrs);
            }
        }
        Examples::Dense(m) => {
            for &i in lanes {
                let row = m.row(i as usize);
                let margin: Scalar = row.iter().zip(rw.iter()).map(|(&v, &wj)| v * wj).sum();
                coeffs.push(loss.dloss_at(margin, batch.y[i as usize]));
            }
            if let Some(ctx) = ctx.as_deref_mut() {
                trace_dense_pass(m, lanes, ctx, addrs);
            }
        }
    }
    if dropped {
        // The gradient work happened but the warp's store phase is lost.
        if let Some(ctx) = ctx.as_deref_mut() {
            ctx.record_conflicts(0);
        }
        return 0;
    }

    // Phase 2: lockstep unsynchronized updates. Without atomics, lanes that
    // touch the same coordinate all start from the pre-warp value and the
    // last store wins (lost updates). BTreeMap, not HashMap: this path is
    // pinned bit-for-bit by tests/fault_determinism.rs, and ordered
    // containers keep iteration-order nondeterminism out by construction.
    let mut pre: BTreeMap<u32, Scalar> = BTreeMap::new();
    let mut touches: u64 = 0;
    for (lane, &i) in lanes.iter().enumerate() {
        let s = coeffs[lane];
        if s == 0.0 {
            continue;
        }
        let step = -alpha * s;
        let mut apply = |c: u32, v: Scalar| {
            touches += 1;
            if atomic {
                w[c as usize] += step * v;
                pre.entry(c).or_insert(0.0);
            } else {
                let base = *pre.entry(c).or_insert(w[c as usize]);
                w[c as usize] = base + step * v;
            }
        };
        match batch.x {
            Examples::Sparse(m) => {
                let row = m.row(i as usize);
                for (&c, &v) in row.cols.iter().zip(row.vals) {
                    apply(c, v);
                }
            }
            Examples::Dense(m) => {
                for (j, &v) in m.row(i as usize).iter().enumerate() {
                    if v != 0.0 {
                        apply(j as u32, v);
                    }
                }
            }
        }
    }
    let conflicts = touches.saturating_sub(pre.len() as u64);
    if let Some(ctx) = ctx.as_deref_mut() {
        ctx.record_conflicts(conflicts);
        if atomic && conflicts > 0 {
            // Serialized atomic retries on the conflicting coordinates.
            ctx.compute(conflicts * 8, 1);
        }
    }
    conflicts
}

/// Simulated device addresses of the buffers a traced warp touches,
/// resolved once per run through the device's deterministic buffer
/// registry (host pointer values must never reach the cost model: their
/// run-to-run placement would make simulated cycles irreproducible).
/// Stale reads trace against the model's device buffer — the host-side
/// staleness snapshot is a modelling artifact with no device presence.
#[derive(Clone, Copy)]
struct TraceAddrs {
    /// Values array (sparse) or the row-major example matrix (dense).
    x: u64,
    /// Column-index array; unused for dense batches.
    cols: u64,
    /// The shared model vector.
    w: u64,
}

impl TraceAddrs {
    fn resolve(dev: &mut sgd_gpusim::GpuDevice, batch: &Batch<'_>, w: &[Scalar]) -> TraceAddrs {
        match batch.x {
            Examples::Sparse(m) => TraceAddrs {
                x: dev.buffer_addr(m.values()),
                cols: dev.buffer_addr(m.col_idx()),
                w: dev.buffer_addr(w),
            },
            Examples::Dense(m) => {
                TraceAddrs { x: dev.buffer_addr(m.as_slice()), cols: 0, w: dev.buffer_addr(w) }
            }
        }
    }
}

/// Memory/divergence trace of one warp's pass over sparse rows
/// (thread-per-example layout: value/index loads scatter across rows, the
/// model gather scatters across coordinates, trip count is the warp max).
fn trace_sparse_pass(
    m: &sgd_linalg::CsrMatrix,
    lanes: &[u32],
    ctx: &mut WarpCtx<'_>,
    addrs: TraceAddrs,
) {
    let TraceAddrs { x: vals_p, cols: cols_p, w: w_p } = addrs;
    let trips: Vec<u64> = lanes.iter().map(|&i| m.row_nnz(i as usize) as u64).collect();
    let max_trip = trips.iter().copied().max().unwrap_or(0);
    let mut acc: Vec<(u64, u32)> = Vec::with_capacity(lanes.len());
    for k in 0..max_trip {
        for (l, &i) in lanes.iter().enumerate() {
            if trips[l] > k {
                let off = m.row_ptr()[i as usize] as u64 + k;
                acc.push((vals_p + off * F64, F64 as u32));
            }
        }
        ctx.load(&acc);
        acc.clear();
        for (l, &i) in lanes.iter().enumerate() {
            if trips[l] > k {
                let off = m.row_ptr()[i as usize] as u64 + k;
                acc.push((cols_p + off * U32, U32 as u32));
            }
        }
        ctx.load(&acc);
        acc.clear();
        // Gather model coordinates, then scatter the updates back: the
        // same scattered addresses cost a load and a store each.
        for (l, &i) in lanes.iter().enumerate() {
            if trips[l] > k {
                let c = m.col_idx()[m.row_ptr()[i as usize] + k as usize];
                acc.push((w_p + c as u64 * F64, F64 as u32));
            }
        }
        ctx.load(&acc);
        ctx.store(&acc);
        acc.clear();
    }
    // fma for the margin + fma for the update per element.
    ctx.diverged_loop(&trips, 4);
}

/// Memory trace for dense rows: lanes stride by the row pitch (32
/// transactions per element column), the model access is a broadcast (one
/// transaction), updates store to the same broadcast coordinate.
fn trace_dense_pass(
    m: &sgd_linalg::Matrix,
    lanes: &[u32],
    ctx: &mut WarpCtx<'_>,
    addrs: TraceAddrs,
) {
    let TraceAddrs { x: x_p, w: w_p, .. } = addrs;
    let d = m.cols() as u64;
    let mut acc: Vec<(u64, u32)> = Vec::with_capacity(lanes.len());
    for k in 0..d {
        for &i in lanes {
            acc.push((x_p + (i as u64 * d + k) * F64, F64 as u32));
        }
        ctx.load(&acc);
        acc.clear();
        let coord = [(w_p + k * F64, F64 as u32)];
        ctx.load(&coord); // broadcast model read
        ctx.store(&coord); // conflicting lockstep writes coalesce to one tx
    }
    ctx.diverged_loop(&vec![d; lanes.len()], 4);
}

/// Runs warp-Hogwild for a linear task on the simulated GPU.
///
/// The whole epoch is a single kernel (one thread per example). The first
/// two epochs are traced (cold/warm L2); later epochs replay the warm cost
/// while computing functionally identical updates.
pub(crate) fn gpu_hogwild_observed<T: Task>(
    task: &T,
    loss_fn: &dyn PointwiseLoss,
    batch: &Batch<'_>,
    alpha: f64,
    opts: &RunOptions,
    gopts: &GpuAsyncOptions,
    obs: &mut dyn EpochObserver,
) -> RunReport {
    let mut dev = opts.gpu_device();
    let order = shuffled_order(batch.n(), opts.seed);
    // Warp `wi` of the shuffled order is asynchronous worker `wi`.
    let warps: Vec<&[u32]> = order.chunks(dev.spec().warp_size).collect();
    let w0 = task.init_model();
    let addrs = TraceAddrs::resolve(&mut dev, batch, &w0);
    let (plan, atomic) = (&opts.faults, gopts.atomic_updates);
    let (mut probe, mut warm_cost, mut epoch_start) = (GpuEpochProbe::new(), 0.0, Vec::new());
    let run = |w: &mut [Scalar], epoch, m: &mut EpochMetrics| {
        if plan.all_workers_dead(warps.len(), epoch) {
            return Err(Halt::FaultAborted { clock: dev.elapsed_secs() });
        }
        probe.begin(&dev);
        // Dead warps are removed from the launch list (the device absorbs
        // the loss of work, and the traced kernel is priced by the warps it
        // launches), stale/corrupt/drop decisions hash on the warp index,
        // and a straggler stretches the epoch by the harmonic dilation
        // instead of stalling a barrier.
        let epoch_t0 = dev.elapsed_secs();
        plan.keep_epoch_start(&mut epoch_start, w);
        let live: Vec<usize> =
            (0..warps.len()).filter(|&wi| !plan.worker_dead(wi, epoch)).collect();
        let fc = &mut m.faults;
        fc.dead_workers = (warps.len() - live.len()) as u64;
        let snap = &epoch_start;
        m.update_conflicts = launch(&mut dev, &mut warm_cost, epoch, live.len(), |k, ctx| {
            let wi = live[k];
            process_warp(
                loss_fn, batch, w, alpha, warps[wi], atomic, ctx, addrs, plan, epoch, wi, snap, fc,
            )
        });
        dilate(&mut dev, plan, warps.len(), epoch_t0, &mut m.faults);
        (m.simulated_cycles, m.l2_hit_ratio) = probe.end(&dev);
        Ok(dev.elapsed_secs())
    };
    let id = EpochLoop {
        label: format!("{} async gpu (warp-hogwild)", task.name()),
        device: DeviceKind::Gpu,
        step_size: alpha,
    };
    let mut step = ModelStep::new(task, batch, CpuExec::par(), w0, run).counting_conflicts();
    id.run(&mut step, opts, obs)
}

/// Runs `warps` warps through `warp` and returns their update conflicts.
/// The first two epochs launch a traced kernel (cold, then warm L2) and
/// record its cost in `warm_cost`; later epochs run the warps on the
/// host and replay that cost.
fn launch(
    dev: &mut GpuDevice,
    warm_cost: &mut f64,
    epoch: usize,
    warps: usize,
    mut warp: impl FnMut(usize, &mut Option<&mut WarpCtx<'_>>) -> u64,
) -> u64 {
    let mut conflicts = 0u64;
    if epoch < 2 {
        let t0 = dev.elapsed_secs();
        dev.run_kernel(warps, |wi, ctx| conflicts += warp(wi, &mut Some(ctx)));
        *warm_cost = dev.elapsed_secs() - t0;
    } else {
        for wi in 0..warps {
            conflicts += warp(wi, &mut None);
        }
        dev.advance_secs(*warm_cost);
    }
    conflicts
}

/// Stretches the epoch begun at `epoch_t0` by the harmonic straggler
/// dilation over `workers` asynchronous workers.
fn dilate(
    dev: &mut GpuDevice,
    plan: &FaultPlan,
    workers: usize,
    epoch_t0: f64,
    fc: &mut FaultCounters,
) {
    let es = dev.elapsed_secs() - epoch_t0;
    let dil = plan.async_dilation(workers);
    fc.straggler_delay_secs = es * (dil - 1.0);
    dev.advance_secs(fc.straggler_delay_secs);
}

/// Runs Hogbatch for any task on the simulated GPU: batches are processed
/// strictly in sequence (only one kernel executes at a time), each batch's
/// primitive stream paying the per-kernel host dispatch overhead. The
/// first epoch traces the kernel streams; later epochs run on the host
/// and replay its cost. The serialized stream loses no updates, so the
/// run counts zero conflicts.
pub(crate) fn gpu_hogbatch_observed<T: Task>(
    task: &T,
    full: &Batch<'_>,
    batches: &[Batch<'_>],
    alpha: f64,
    opts: &RunOptions,
    gopts: &GpuAsyncOptions,
    obs: &mut dyn EpochObserver,
) -> RunReport {
    assert!(!batches.is_empty(), "at least one mini-batch required");
    let (mut dev, mut probe, mut warm_cost) = (opts.gpu_device(), GpuEpochProbe::new(), 0.0);
    let (mut g, mut cpu, mut epoch_start) = (vec![0.0; task.dim()], CpuExec::seq(), Vec::new());
    // Host workers enqueueing batches round-robin (fault decisions only).
    let (plan, workers) = (&opts.faults, opts.threads.max(1));
    let run = |w: &mut [Scalar], epoch, m: &mut EpochMetrics| {
        if plan.all_workers_dead(workers, epoch) {
            return Err(Halt::FaultAborted { clock: dev.elapsed_secs() });
        }
        let traced = epoch == 0;
        probe.begin(&dev);
        let t0 = dev.elapsed_secs();
        plan.keep_epoch_start(&mut epoch_start, w);
        // One mini-batch: the gradient at `w` (or, when `stale`, at the
        // epoch-start model), then `w += step * g` unless the update is
        // dropped (`None`).
        let mut update = |w: &mut [Scalar], b: &Batch<'_>, stale: bool, step: Option<f64>| {
            let read: &[Scalar] = if stale { &epoch_start } else { w };
            if traced {
                let k0 = dev.stats().kernels_launched;
                let mut e = GpuExec::new(&mut dev);
                task.gradient(&mut e, b, read, &mut g);
                if let Some(a) = step {
                    e.axpy(a, &g, w);
                }
                let launches = dev.stats().kernels_launched - k0;
                dev.advance_secs(gopts.host_sync_overhead_secs * launches as f64);
            } else {
                task.gradient(&mut cpu, b, read, &mut g);
                if let Some(a) = step {
                    cpu.axpy(a, &g, w);
                }
            }
        };
        // A dead worker's batches never launch, decisions hash on the batch
        // index, a straggling enqueuer stretches the serialized stream by
        // the harmonic dilation.
        let fc = &mut m.faults;
        if plan.has_dead_worker(workers, epoch) {
            fc.dead_workers = 1;
        }
        for (bi, b) in batches.iter().enumerate() {
            if plan.worker_dead(bi % workers, epoch) {
                continue;
            }
            let stale = plan.stale_read(epoch, bi);
            fc.stale_reads += u64::from(stale);
            let mut a = alpha;
            if let Some(f) = plan.corrupt_factor(epoch, bi) {
                a *= f;
                fc.corrupted_updates += 1;
            }
            let dropped = plan.drops_update(epoch, bi);
            fc.dropped_updates += u64::from(dropped);
            update(w, b, stale, (!dropped).then_some(-a));
        }
        if traced {
            warm_cost = dev.elapsed_secs() - t0;
        } else {
            dev.advance_secs(warm_cost);
        }
        dilate(&mut dev, plan, workers, t0, &mut m.faults);
        (m.simulated_cycles, m.l2_hit_ratio) = probe.end(&dev);
        Ok(dev.elapsed_secs())
    };
    let id = EpochLoop {
        label: format!("{} async gpu (hogbatch)", task.name()),
        device: DeviceKind::Gpu,
        step_size: alpha,
    };
    let mut step =
        ModelStep::new(task, full, CpuExec::par(), task.init_model(), run).counting_conflicts();
    id.run(&mut step, opts, obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Configuration, Engine, Strategy};
    use sgd_linalg::{CsrMatrix, Matrix};
    use sgd_models::{lr, MlpTask};

    fn gpu_corner(strategy: Strategy) -> Configuration {
        Configuration::new(DeviceKind::Gpu, strategy)
    }

    fn seq_corner(strategy: Strategy) -> Configuration {
        Configuration::new(DeviceKind::CpuSeq, strategy)
    }

    fn dense_data(n: usize, d: usize) -> (Matrix, Vec<Scalar>) {
        let x = Matrix::from_fn(n, d, |i, j| {
            let s = if i % 2 == 0 { 1.0 } else { -1.0 };
            s * (((i * 3 + j) % 5) as Scalar + 1.0) / 5.0
        });
        let y = (0..n).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        (x, y)
    }

    #[test]
    fn dense_warps_lose_most_updates() {
        // Every lane updates every coordinate: in a 32-wide warp,
        // 31/32 of updates are lost to last-write-wins.
        let (x, y) = dense_data(64, 6);
        let b = Batch::new(Examples::Dense(&x), &y);
        let task = lr(6);
        let opts = RunOptions { max_epochs: 1, ..Default::default() };
        let rep = Engine::run(&gpu_corner(Strategy::Hogwild), &task, &b, 0.1, &opts);
        let conflicts = rep.update_conflicts().expect("gpu run records conflicts");
        // 64 examples, 6 coords each = 384 touches; 2 warps x 6 unique.
        assert_eq!(conflicts, 384 - 12);
        // The per-epoch metrics carry the same count.
        assert_eq!(rep.metrics.epochs[0].update_conflicts, 384 - 12);
    }

    #[test]
    fn dense_gpu_hogwild_needs_more_epochs_than_sequential() {
        // The statistical-efficiency gap of Table III on dense data: with
        // last-write-wins warps, the GPU makes far less progress per epoch
        // than sequential incremental SGD at the same step size.
        let (x, y) = dense_data(256, 8);
        let b = Batch::new(Examples::Dense(&x), &y);
        let task = lr(8);
        let alpha = 0.02;
        let epochs = 3;
        let opts = RunOptions { max_epochs: epochs, ..Default::default() };
        let seq = Engine::run(&seq_corner(Strategy::Hogwild), &task, &b, alpha, &opts);
        let gpu = Engine::run(&gpu_corner(Strategy::Hogwild), &task, &b, alpha, &opts);
        let l_seq = seq.trace.points()[epochs].1;
        let l_gpu = gpu.trace.points()[epochs].1;
        let l0 = seq.trace.points()[0].1;
        assert!(l_seq < l0, "sequential must make progress");
        // GPU progress from the start must be a small fraction of the
        // sequential progress (31/32 of its updates are lost).
        assert!(
            (l0 - l_gpu) < 0.5 * (l0 - l_seq),
            "gpu progress {} vs seq progress {}",
            l0 - l_gpu,
            l0 - l_seq
        );
        assert!(gpu.update_conflicts().expect("recorded") > 0);
    }

    #[test]
    fn disjoint_sparse_matches_sequential_hogwild() {
        // With disjoint per-example supports the warp semantics are
        // invisible: trajectories match sequential Hogwild exactly.
        let n = 96;
        let d = 96;
        let entries: Vec<Vec<(u32, Scalar)>> = (0..n).map(|i| vec![(i as u32, 1.0)]).collect();
        let y: Vec<Scalar> = (0..n).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let xs = CsrMatrix::from_row_entries(n, d, &entries);
        let b = Batch::new(Examples::Sparse(&xs), &y);
        let task = lr(d);
        let opts = RunOptions { max_epochs: 5, ..Default::default() };
        let seq = Engine::run(&seq_corner(Strategy::Hogwild), &task, &b, 0.5, &opts);
        let gpu = Engine::run(&gpu_corner(Strategy::Hogwild), &task, &b, 0.5, &opts);
        assert_eq!(gpu.update_conflicts(), Some(0));
        for (p, q) in seq.trace.points().iter().zip(gpu.trace.points()) {
            assert!((p.1 - q.1).abs() < 1e-12, "{} vs {}", p.1, q.1);
        }
    }

    #[test]
    fn atomic_updates_keep_all_updates() {
        let (x, y) = dense_data(64, 6);
        let b = Batch::new(Examples::Dense(&x), &y);
        let task = lr(6);
        let opts = RunOptions { max_epochs: 20, ..Default::default() };
        let lww = Engine::run(&gpu_corner(Strategy::Hogwild), &task, &b, 0.5, &opts);
        let atomic_cfg = gpu_corner(Strategy::Hogwild)
            .with_gpu_async(GpuAsyncOptions { atomic_updates: true, ..Default::default() });
        let atomic = Engine::run(&atomic_cfg, &task, &b, 0.5, &opts);
        // Atomic (mini-batch-like) updates make faster statistical progress
        // on dense data than last-write-wins.
        assert!(atomic.best_loss() < lww.best_loss() + 1e-12);
    }

    #[test]
    fn epoch_cost_replay_is_consistent() {
        let (x, y) = dense_data(128, 4);
        let b = Batch::new(Examples::Dense(&x), &y);
        let task = lr(4);
        let opts = RunOptions { max_epochs: 6, ..Default::default() };
        let rep = Engine::run(&gpu_corner(Strategy::Hogwild), &task, &b, 0.1, &opts);
        let pts = rep.trace.points();
        assert!(pts.len() >= 6);
        let d4 = pts[4].0 - pts[3].0;
        let d5 = pts[5].0 - pts[4].0;
        assert!((d4 - d5).abs() < 1e-15);
    }

    #[test]
    fn gpu_hogwild_metrics_cover_conflicts_cycles_and_l2() {
        let (x, y) = dense_data(128, 4);
        let b = Batch::new(Examples::Dense(&x), &y);
        let task = lr(4);
        let opts = RunOptions { max_epochs: 5, ..Default::default() };
        let rep = Engine::run(&gpu_corner(Strategy::Hogwild), &task, &b, 0.1, &opts);
        let m = &rep.metrics;
        assert_eq!(m.epochs.len(), rep.trace.epochs());
        let total: u64 = m.epochs.iter().map(|e| e.update_conflicts).sum();
        assert_eq!(Some(total), rep.update_conflicts(), "per-epoch conflicts sum to the total");
        for e in &m.epochs {
            assert!(e.update_conflicts > 0, "dense warps conflict every epoch");
            assert!(e.simulated_cycles > 0.0);
            assert!(e.l2_hit_ratio.is_finite());
        }
    }

    #[test]
    fn gpu_hogbatch_statistics_match_sequential_hogbatch() {
        let (x, y) = dense_data(96, 6);
        let task = MlpTask::new(vec![6, 5, 2], 1);
        let full = Batch::new(Examples::Dense(&x), &y);
        let opts = RunOptions { max_epochs: 10, ..Default::default() };
        let hogbatch = Strategy::Hogbatch { batch_size: 16 };
        let cpu = Engine::run(&seq_corner(hogbatch.clone()), &task, &full, 1.0, &opts);
        let dev = Engine::run(&gpu_corner(hogbatch), &task, &full, 1.0, &opts);
        for (p, q) in cpu.trace.points().iter().zip(dev.trace.points()) {
            assert!((p.1 - q.1).abs() < 1e-9, "{} vs {}", p.1, q.1);
        }
    }

    #[test]
    fn gpu_straggler_dilates_async_time_by_the_harmonic_mean() {
        let (x, y) = dense_data(128, 4);
        let b = Batch::new(Examples::Dense(&x), &y);
        let task = lr(4);
        let opts = RunOptions { max_epochs: 4, plateau: None, ..Default::default() };
        let clean = Engine::run(&gpu_corner(Strategy::Hogwild), &task, &b, 0.1, &opts);
        let lag_opts =
            RunOptions { faults: FaultPlan::default().with_straggler(0, 4.0), ..opts.clone() };
        let lag = Engine::run(&gpu_corner(Strategy::Hogwild), &task, &b, 0.1, &lag_opts);
        // A straggler-only plan changes no updates: same trajectory.
        assert_eq!(clean.trace.epochs(), lag.trace.epochs());
        for (p, q) in clean.trace.points().iter().zip(lag.trace.points()) {
            assert_eq!(p.1, q.1);
        }
        // 128 examples / 32-lane warps = 4 async workers; one 4x straggler
        // dilates time by 4/(3 + 1/4), far below the 4x a barrier pays.
        let dil = lag_opts.faults.async_dilation(4);
        assert!(dil > 1.0 && dil < 4.0, "dilation {dil}");
        let ratio = lag.opt_seconds / clean.opt_seconds;
        assert!((ratio - dil).abs() < 1e-9, "ratio {ratio} vs dilation {dil}");
    }

    #[test]
    fn gpu_warp_hogwild_absorbs_update_faults() {
        let (x, y) = dense_data(256, 8);
        let b = Batch::new(Examples::Dense(&x), &y);
        let task = lr(8);
        let opts = RunOptions {
            max_epochs: 8,
            plateau: None,
            faults: FaultPlan::default()
                .with_seed(5)
                .with_drops(0.2)
                .with_stale_reads(0.2)
                .with_corruption(0.2, 0.5)
                .with_worker_death(0, 1),
            ..Default::default()
        };
        let rep = Engine::run(&gpu_corner(Strategy::Hogwild), &task, &b, 0.02, &opts);
        assert!(
            !matches!(rep.outcome, crate::report::RunOutcome::FaultAborted { .. }),
            "async gpu must absorb a dead warp, got {:?}",
            rep.outcome
        );
        let totals = rep.metrics.total_faults();
        assert!(totals.dropped_updates > 0, "drops never fired");
        assert!(totals.stale_reads > 0, "stale reads never fired");
        assert!(totals.corrupted_updates > 0, "corruption never fired");
        assert!(totals.dead_workers > 0, "death never registered");
    }

    #[test]
    fn gpu_hogbatch_supervises_faults() {
        let (x, y) = dense_data(96, 6);
        let task = lr(6);
        let full = Batch::new(Examples::Dense(&x), &y);
        let opts = RunOptions {
            max_epochs: 10,
            threads: 4,
            plateau: None,
            faults: FaultPlan::default()
                .with_seed(11)
                .with_drops(0.2)
                .with_corruption(0.2, 0.5)
                .with_worker_death(1, 2),
            ..Default::default()
        };
        let cfg = gpu_corner(Strategy::Hogbatch { batch_size: 8 });
        let rep = Engine::run(&cfg, &task, &full, 0.5, &opts);
        assert!(
            !matches!(rep.outcome, crate::report::RunOutcome::FaultAborted { .. }),
            "serialized gpu stream must absorb a dead enqueuer, got {:?}",
            rep.outcome
        );
        let totals = rep.metrics.total_faults();
        assert!(totals.dropped_updates > 0, "drops never fired");
        assert!(totals.corrupted_updates > 0, "corruption never fired");
        assert!(totals.dead_workers > 0, "death never registered");
        assert!(rep.best_loss() < rep.trace.points()[0].1, "still makes progress");
    }

    #[test]
    fn host_sync_overhead_slows_hogbatch() {
        let (x, y) = dense_data(96, 6);
        let task = MlpTask::new(vec![6, 5, 2], 1);
        let full = Batch::new(Examples::Dense(&x), &y);
        let opts = RunOptions { max_epochs: 3, ..Default::default() };
        let slow_cfg = gpu_corner(Strategy::Hogbatch { batch_size: 8 });
        let fast_cfg = slow_cfg
            .clone()
            .with_gpu_async(GpuAsyncOptions { host_sync_overhead_secs: 0.0, ..Default::default() });
        let fast = Engine::run(&fast_cfg, &task, &full, 1.0, &opts);
        let slow = Engine::run(&slow_cfg, &task, &full, 1.0, &opts);
        assert!(slow.time_per_epoch() > 2.0 * fast.time_per_epoch());
    }
}
