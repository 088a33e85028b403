//! Engine-level pins over the 2×2×2 configuration cube.
//!
//! * Every corner dispatched through `Engine::run` reports a well-formed
//!   run: `device` and `step_size` echo the configuration and the metrics
//!   carry one row per traced epoch; corners that race real threads
//!   (wall-clock Hogwild/Hogbatch/replicated with >1 worker) also trace at
//!   least one epoch, and the GPU Hogwild corner counts update conflicts.
//!   One table of corners drives these checks; each row group keeps the
//!   test name it has always run under.
//! * Replay pins, bit for bit: an empty fault plan, the `Scalar` tier and
//!   the dispatch mode change nothing on a deterministic corner, sync
//!   training replays exactly on every device, and the two vector tiers
//!   agree.

use sgd_study::core::{
    Configuration, CpuModelConfig, DeviceKind, Engine, FaultPlan, Replication, RunOptions,
    RunReport, Strategy, Timing,
};
use sgd_study::dist::{run_dist_modeled, ConsistencyMode, DistConfig};
use sgd_study::linalg::{CsrMatrix, Matrix};
use sgd_study::models::{lr, Batch, Examples, MlpTask};

fn dense() -> (Matrix, Vec<f64>) {
    let x = Matrix::from_fn(64, 6, |i, j| {
        let s = if i % 2 == 0 { 1.0 } else { -1.0 };
        s * (((i * 3 + j) % 5) as f64 + 1.0) / 5.0
    });
    let y = (0..64).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
    (x, y)
}

fn sparse() -> (CsrMatrix, Vec<f64>) {
    let entries: Vec<Vec<(u32, f64)>> =
        (0..64).map(|i| vec![((i % 16) as u32, if i % 2 == 0 { 1.0 } else { -1.0 })]).collect();
    let y = (0..64).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
    (CsrMatrix::from_row_entries(64, 16, &entries), y)
}

fn opts() -> RunOptions {
    RunOptions { max_epochs: 8, plateau: None, ..Default::default() }
}

/// Bit-identical comparison for deterministic corners.
fn assert_identical(a: &RunReport, b: &RunReport) {
    assert_eq!(a.label, b.label);
    assert_eq!(a.device, b.device);
    assert_eq!(a.step_size, b.step_size);
    assert_eq!(a.trace.epochs(), b.trace.epochs());
    for (p, q) in a.trace.points().iter().zip(b.trace.points()) {
        assert_eq!(p.1, q.1, "loss diverged: {} vs {}", p.1, q.1);
    }
    assert_eq!(a.metrics.epochs.len(), a.trace.epochs());
    assert_eq!(a.outcome, b.outcome);
}

/// Which fixture a corner trains on: an LR model on the dense or the
/// sparse batch, or a 6-4-2 MLP on the dense one.
#[derive(Clone, Copy)]
enum Fixture {
    DenseLr,
    SparseLr,
    DenseMlp,
}

/// One row of the corner table: a configuration, what it trains, and what
/// its report must show beyond being well formed.
struct Corner {
    cfg: Configuration,
    fixture: Fixture,
    alpha: f64,
    threads: Option<usize>,
    /// Races real threads: must still trace at least one epoch.
    racing: bool,
    /// Must report a run-level update-conflict count.
    conflicts: bool,
}

impl Corner {
    fn wall(device: DeviceKind, strategy: Strategy, fixture: Fixture, alpha: f64) -> Self {
        let cfg = Configuration::new(device, strategy);
        Corner { cfg, fixture, alpha, threads: None, racing: false, conflicts: false }
    }

    /// The corner on the paper's machine modeled at `threads` threads.
    fn modeled(threads: usize, strategy: Strategy, fixture: Fixture, alpha: f64) -> Self {
        let mc = CpuModelConfig::paper_machine(threads);
        let cfg = Configuration::new(mc.device(), strategy).with_timing(Timing::Modeled(mc));
        Corner { cfg, fixture, alpha, threads: None, racing: false, conflicts: false }
    }

    fn threads(self, threads: usize) -> Self {
        Corner { threads: Some(threads), ..self }
    }

    fn racing(self, threads: usize) -> Self {
        Corner { racing: true, ..self.threads(threads) }
    }

    /// Runs the corner: `device` and `step_size` echo the configuration,
    /// the metrics carry one row per traced epoch, and the row's own
    /// checks hold.
    fn check(&self) {
        let (x, y) = dense();
        let (xs, ys) = sparse();
        let o = RunOptions { threads: self.threads.unwrap_or(opts().threads), ..opts() };
        let report = match self.fixture {
            Fixture::DenseLr => {
                Engine::run(&self.cfg, &lr(6), &Batch::new(Examples::Dense(&x), &y), self.alpha, &o)
            }
            Fixture::SparseLr => {
                let batch = Batch::new(Examples::Sparse(&xs), &ys);
                Engine::run(&self.cfg, &lr(16), &batch, self.alpha, &o)
            }
            Fixture::DenseMlp => {
                let mlp = MlpTask::new(vec![6, 4, 2], 42);
                Engine::run(&self.cfg, &mlp, &Batch::new(Examples::Dense(&x), &y), self.alpha, &o)
            }
        };
        assert_eq!(report.device, self.cfg.device, "{}", report.label);
        assert_eq!(report.step_size, self.alpha, "{}", report.label);
        assert_eq!(report.metrics.epochs.len(), report.trace.epochs(), "{}", report.label);
        if self.racing {
            assert!(report.trace.epochs() > 0, "{}", report.label);
        }
        if self.conflicts {
            assert!(report.update_conflicts().is_some(), "{}", report.label);
        }
    }
}

/// The corner table: each row group is one test, run under its name.
macro_rules! corner_tests {
    ($($name:ident => $corners:expr;)*) => {$(
        #[test]
        fn $name() {
            for corner in $corners {
                corner.check();
            }
        }
    )*};
}

corner_tests! {
    sync_wall_matches_legacy_on_every_device => [DeviceKind::CpuSeq, DeviceKind::CpuPar, DeviceKind::Gpu]
        .map(|device| Corner::wall(device, Strategy::Sync, Fixture::DenseLr, 0.5));
    sync_modeled_matches_legacy =>
        [1, 4].map(|threads| Corner::modeled(threads, Strategy::Sync, Fixture::SparseLr, 0.5));
    hogwild_wall_single_thread_matches_legacy =>
        [Corner::wall(DeviceKind::CpuSeq, Strategy::Hogwild, Fixture::SparseLr, 0.2).threads(1)];
    hogwild_wall_multithread_matches_legacy_shape =>
        [Corner::wall(DeviceKind::CpuPar, Strategy::Hogwild, Fixture::SparseLr, 0.2).racing(4)];
    hogwild_modeled_matches_legacy =>
        [Corner::modeled(4, Strategy::Hogwild, Fixture::SparseLr, 0.2)];
    gpu_hogwild_matches_legacy_including_conflicts => [Corner {
        conflicts: true,
        ..Corner::wall(DeviceKind::Gpu, Strategy::Hogwild, Fixture::SparseLr, 0.2)
    }];
    hogbatch_wall_single_thread_matches_legacy =>
        [Corner::wall(DeviceKind::CpuSeq, hogbatch(), Fixture::DenseMlp, 0.5).threads(1)];
    hogbatch_wall_multithread_matches_legacy_shape =>
        [Corner::wall(DeviceKind::CpuPar, hogbatch(), Fixture::DenseLr, 0.2).racing(2)];
    hogbatch_modeled_matches_legacy => [Corner::modeled(4, hogbatch(), Fixture::DenseLr, 0.2)];
    gpu_hogbatch_matches_legacy =>
        [Corner::wall(DeviceKind::Gpu, hogbatch(), Fixture::DenseMlp, 0.5)];
    replicated_hogwild_matches_legacy_shape =>
        [Replication::PerMachine, Replication::PerNode { nodes: 2 }, Replication::PerCore].map(
            |replication| {
                let strategy = Strategy::ReplicatedHogwild { replication };
                Corner::wall(DeviceKind::CpuPar, strategy, Fixture::SparseLr, 0.2).racing(4)
            },
        );
}

fn hogbatch() -> Strategy {
    Strategy::Hogbatch { batch_size: 16 }
}

#[test]
fn empty_fault_plan_is_bit_identical_on_every_deterministic_corner() {
    // Every runner has one fault-aware code path, and the default plan is
    // its clean run. A seeded plan whose only entry is a 1.0x straggler
    // draws no decision and dilates by exactly 1, so it must change no
    // bit: losses and outcomes (and, where the clock is deterministic,
    // times) are identical to a run with default options.
    let noop = FaultPlan::default().with_seed(1234).with_straggler(0, 1.0);
    assert!(noop.is_empty());
    let o = opts();
    let fo = RunOptions { faults: noop, ..opts() };

    // `det_time`: wall-clock CPU corners time real execution, so only
    // losses are comparable across two runs; modeled/simulated corners
    // must also reproduce their clocks exactly.
    let check = |run: &dyn Fn(&RunOptions) -> RunReport, det_time: bool| {
        let clean = run(&o);
        let gated = run(&fo);
        assert_identical(&clean, &gated);
        if det_time {
            assert_eq!(clean.opt_seconds, gated.opt_seconds, "{}", clean.label);
            for (c, g) in clean.trace.points().iter().zip(gated.trace.points()) {
                assert_eq!(c.0, g.0, "epoch time drifted under an empty plan");
            }
        }
        assert_eq!(gated.metrics.total_faults().total_events(), 0);
    };

    let (xs, y) = sparse();
    let batch = Batch::new(Examples::Sparse(&xs), &y);
    let task = lr(16);
    for device in [DeviceKind::CpuSeq, DeviceKind::CpuPar, DeviceKind::Gpu] {
        let cfg = Configuration::new(device, Strategy::Sync);
        check(&|ro| Engine::run(&cfg, &task, &batch, 0.5, ro), device == DeviceKind::Gpu);
    }
    let mc = CpuModelConfig::paper_machine(4);
    for strategy in [Strategy::Sync, Strategy::Hogwild] {
        let cfg =
            Configuration::new(mc.device(), strategy).with_timing(Timing::Modeled(mc.clone()));
        check(&|ro| Engine::run(&cfg, &task, &batch, 0.2, ro), true);
    }
    let cfg = Configuration::new(DeviceKind::Gpu, Strategy::Hogwild);
    check(&|ro| Engine::run(&cfg, &task, &batch, 0.2, ro), true);
    let cfg = Configuration::new(DeviceKind::CpuSeq, Strategy::Hogwild);
    check(&|ro| Engine::run(&cfg, &task, &batch, 0.2, ro), false);
    // Private replicas race no writes: two threads still replay the losses.
    let replication = Replication::PerCore;
    let cfg = Configuration::new(DeviceKind::CpuPar, Strategy::ReplicatedHogwild { replication });
    let two = |ro: &RunOptions| RunOptions { threads: 2, ..ro.clone() };
    check(&|ro| Engine::run(&cfg, &task, &batch, 0.2, &two(ro)), false);
    let mode = ConsistencyMode::Sync { grads_to_wait: 2 };
    let dist = DistConfig { workers: 2, mode, ..Default::default() };
    check(&|ro| run_dist_modeled(&task, &batch, &dist, 0.2, ro), true);

    let (x, yd) = dense();
    let full = Batch::new(Examples::Dense(&x), &yd);
    let dtask = lr(6);
    let cfg = Configuration::new(DeviceKind::CpuSeq, Strategy::Hogbatch { batch_size: 16 });
    check(&|ro| Engine::run(&cfg, &dtask, &full, 0.2, ro), false);
    let cfg = Configuration::new(mc.device(), Strategy::Hogbatch { batch_size: 16 })
        .with_timing(Timing::Modeled(mc.clone()));
    check(&|ro| Engine::run(&cfg, &dtask, &full, 0.2, ro), true);
    let cfg = Configuration::new(DeviceKind::Gpu, Strategy::Hogbatch { batch_size: 16 });
    check(&|ro| Engine::run(&cfg, &dtask, &full, 0.2, ro), true);
}

#[test]
fn sync_training_through_the_backend_replays_exactly_on_every_device() {
    // PR 6 folds the sync runner's cpu-seq / cpu-par / gpu-sim arms into
    // one `ComputeBackend::dispatch` path. Per device, two runs through
    // that path must produce bit-identical loss trajectories (the legacy
    // comparison above already pins dispatch ≡ pre-refactor bitwise);
    // across devices the trajectories agree at the tolerances the core
    // suite has always pinned — bitwise is not promised there because
    // parallel gradient reductions may legally reorder by an ULP.
    let (x, y) = dense();
    let batch = Batch::new(Examples::Dense(&x), &y);
    let task = lr(6);
    let o = RunOptions { threads: 4, ..opts() };
    let run =
        |d: DeviceKind| Engine::run(&Configuration::new(d, Strategy::Sync), &task, &batch, 0.5, &o);
    let seq = run(DeviceKind::CpuSeq);
    for device in [DeviceKind::CpuSeq, DeviceKind::CpuPar, DeviceKind::Gpu] {
        let a = run(device);
        let b = run(device);
        assert_eq!(a.trace.epochs(), b.trace.epochs(), "{}", a.label);
        for (p, q) in a.trace.points().iter().zip(b.trace.points()) {
            assert_eq!(
                p.1.to_bits(),
                q.1.to_bits(),
                "{}: loss not bit-deterministic across runs ({} vs {})",
                a.label,
                p.1,
                q.1
            );
        }
        assert_eq!(seq.trace.epochs(), a.trace.epochs(), "{}", a.label);
        for (p, q) in seq.trace.points().iter().zip(a.trace.points()) {
            assert!(
                (p.1 - q.1).abs() < 1e-9,
                "{}: loss drifted from cpu-seq ({} vs {})",
                a.label,
                p.1,
                q.1
            );
        }
    }
}

#[test]
fn run_options_kernel_tier_scalar_pins_the_default_trajectory() {
    // `RunOptions::tier` defaults to Scalar; setting it explicitly must be
    // a no-op down to the bit — times included, since modeled timing is
    // deterministic.
    use sgd_study::linalg::KernelTier;
    let (x, y) = dense();
    let batch = Batch::new(Examples::Dense(&x), &y);
    let task = lr(6);
    let mc = CpuModelConfig::paper_machine(4);
    let cfg =
        Configuration::new(mc.device(), Strategy::Sync).with_timing(Timing::Modeled(mc.clone()));
    let default_run = Engine::run(&cfg, &task, &batch, 0.5, &opts());
    let pinned =
        Engine::run(&cfg, &task, &batch, 0.5, &RunOptions { tier: KernelTier::Scalar, ..opts() });
    assert_identical(&default_run, &pinned);
    for (p, q) in default_run.trace.points().iter().zip(pinned.trace.points()) {
        assert_eq!(p.0.to_bits(), q.0.to_bits(), "modeled epoch time drifted");
        assert_eq!(p.1.to_bits(), q.1.to_bits(), "loss drifted under an explicit Scalar tier");
    }
}

#[test]
fn engine_tier_sweep_is_deterministic_and_vector_tiers_agree() {
    // The tier-sweep smoke for full training runs: every tier converges,
    // each tier replays bit-identically, and the two vector tiers (AVX2
    // when available, portable otherwise vs. forced-portable) agree
    // bitwise on any data — the same discipline `pool_bit_identity.rs`
    // pins for bare kernels, now through `Engine::run`.
    use sgd_study::linalg::KernelTier;
    let (x, y) = dense();
    let batch = Batch::new(Examples::Dense(&x), &y);
    let task = lr(6);
    let mc = CpuModelConfig::paper_machine(4);
    let cfg =
        Configuration::new(mc.device(), Strategy::Sync).with_timing(Timing::Modeled(mc.clone()));
    let run =
        |tier: KernelTier| Engine::run(&cfg, &task, &batch, 0.5, &RunOptions { tier, ..opts() });
    let mut by_tier = Vec::new();
    for tier in [KernelTier::Scalar, KernelTier::Simd, KernelTier::SimdPortable] {
        let a = run(tier);
        let b = run(tier);
        assert!(a.best_loss().is_finite(), "{tier:?} produced a non-finite loss");
        assert!(a.best_loss() < 0.5, "{tier:?} failed to make progress: {}", a.best_loss());
        assert_eq!(a.trace.epochs(), b.trace.epochs(), "{tier:?} epoch count not replayable");
        for (p, q) in a.trace.points().iter().zip(b.trace.points()) {
            assert_eq!(p.1.to_bits(), q.1.to_bits(), "{tier:?} not bit-deterministic");
        }
        by_tier.push(a);
    }
    let (simd, portable) = (&by_tier[1], &by_tier[2]);
    assert_eq!(simd.trace.epochs(), portable.trace.epochs());
    for (p, q) in simd.trace.points().iter().zip(portable.trace.points()) {
        assert_eq!(p.1.to_bits(), q.1.to_bits(), "Simd vs SimdPortable trajectories diverge");
    }
}

#[test]
fn dispatch_modes_agree_bitwise_on_a_deterministic_parallel_corner() {
    // The persistent pool and the measured fork-join baseline split work
    // into identical chunks (assignment depends only on the requested
    // width, never on the dispatch mechanism), so a deterministic corner
    // whose kernels cross MIN_PARALLEL_LEN must produce bit-identical
    // reports under either dispatch mode.
    use sgd_study::linalg::pool::{with_dispatch, Dispatch};
    use sgd_study::linalg::MIN_PARALLEL_LEN;

    let n = MIN_PARALLEL_LEN + 101;
    let x = Matrix::from_fn(n, 6, |i, j| {
        let s = if i % 2 == 0 { 1.0 } else { -1.0 };
        s * (((i * 3 + j) % 5) as f64 + 1.0) / 5.0
    });
    let y: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
    let batch = Batch::new(Examples::Dense(&x), &y);
    let task = lr(6);
    let cfg = Configuration::new(DeviceKind::CpuPar, Strategy::Sync);
    for threads in [2usize, 4] {
        let o = RunOptions { threads, max_epochs: 4, plateau: None, ..Default::default() };
        let pooled = with_dispatch(Dispatch::Pool, || Engine::run(&cfg, &task, &batch, 0.5, &o));
        let forked =
            with_dispatch(Dispatch::ForkJoin, || Engine::run(&cfg, &task, &batch, 0.5, &o));
        assert_identical(&pooled, &forked);
    }
}
