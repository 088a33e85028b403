//! Fault plans are deterministic: the same seed under modeled (or
//! simulated-GPU) timing reproduces the exact run — times, losses,
//! outcome, and every fault counter — bit for bit. Without this property
//! a fault sweep would not be an experiment, it would be weather.

use sgd_study::core::{
    Configuration, CpuModelConfig, DeviceKind, Engine, FaultPlan, RunOptions, RunOutcome,
    RunReport, Strategy, Timing,
};
use sgd_study::linalg::{CsrMatrix, Matrix};
use sgd_study::models::{lr, Batch, Examples};

fn sparse() -> (CsrMatrix, Vec<f64>) {
    sparse_rows(64)
}

fn sparse_rows(n: usize) -> (CsrMatrix, Vec<f64>) {
    let entries: Vec<Vec<(u32, f64)>> =
        (0..n).map(|i| vec![((i % 16) as u32, if i % 2 == 0 { 1.0 } else { -1.0 })]).collect();
    let y = (0..n).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
    (CsrMatrix::from_row_entries(n, 16, &entries), y)
}

fn dense() -> (Matrix, Vec<f64>) {
    let x = Matrix::from_fn(64, 6, |i, j| {
        let s = if i % 2 == 0 { 1.0 } else { -1.0 };
        s * (((i * 3 + j) % 5) as f64 + 1.0) / 5.0
    });
    let y = (0..64).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
    (x, y)
}

fn plan() -> FaultPlan {
    FaultPlan::default()
        .with_seed(99)
        .with_straggler(0, 3.0)
        .with_drops(0.1)
        .with_stale_reads(0.1)
        .with_corruption(0.1, 0.5)
        .with_worker_death(2, 5)
}

fn assert_bit_identical(a: &RunReport, b: &RunReport) {
    assert_eq!(a.label, b.label);
    assert_eq!(a.step_size, b.step_size);
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.opt_seconds, b.opt_seconds, "{}", a.label);
    assert_eq!(a.trace.epochs(), b.trace.epochs());
    for (pa, pb) in a.trace.points().iter().zip(b.trace.points()) {
        assert_eq!(pa.0, pb.0, "{}: epoch time not reproduced", a.label);
        assert_eq!(pa.1, pb.1, "{}: loss not reproduced", a.label);
    }
    let (fa, fb) = (a.metrics.total_faults(), b.metrics.total_faults());
    assert_eq!(fa.dropped_updates, fb.dropped_updates);
    assert_eq!(fa.stale_reads, fb.stale_reads);
    assert_eq!(fa.corrupted_updates, fb.corrupted_updates);
    assert_eq!(fa.dead_workers, fb.dead_workers);
    assert_eq!(fa.straggler_delay_secs, fb.straggler_delay_secs);
    assert_eq!(a.best_model, b.best_model);
    assert!(fa.total_events() > 0, "{}: the plan must actually inject faults", a.label);
}

#[test]
fn modeled_hogwild_fault_runs_are_bit_identical() {
    let (xs, y) = sparse();
    let batch = Batch::new(Examples::Sparse(&xs), &y);
    let task = lr(16);
    let o = RunOptions { max_epochs: 10, plateau: None, faults: plan(), ..Default::default() };
    let mc = CpuModelConfig::paper_machine(4);
    let cfg =
        Configuration::new(mc.device(), Strategy::Hogwild).with_timing(Timing::Modeled(mc.clone()));
    let a = Engine::run(&cfg, &task, &batch, 0.2, &o);
    let b = Engine::run(&cfg, &task, &batch, 0.2, &o);
    assert_bit_identical(&a, &b);
}

#[test]
fn gpu_async_fault_runs_are_bit_identical() {
    let (xs, y) = sparse();
    let batch = Batch::new(Examples::Sparse(&xs), &y);
    let task = lr(16);
    let o = RunOptions { max_epochs: 10, plateau: None, faults: plan(), ..Default::default() };
    let cfg = Configuration::new(DeviceKind::Gpu, Strategy::Hogwild);
    let a = Engine::run(&cfg, &task, &batch, 0.2, &o);
    let b = Engine::run(&cfg, &task, &batch, 0.2, &o);
    assert_bit_identical(&a, &b);
    assert_eq!(a.update_conflicts(), b.update_conflicts());
}

#[test]
fn clean_gpu_async_runs_are_bit_identical() {
    // The simulated device must not leak host allocator state into its
    // clock: two clean runs trace identical simulated addresses and land
    // on identical simulated seconds (the buffer registry assigns device
    // addresses by first-touch order, never by host pointer value).
    let (xs, y) = sparse();
    let batch = Batch::new(Examples::Sparse(&xs), &y);
    let task = lr(16);
    let o = RunOptions { max_epochs: 8, plateau: None, ..Default::default() };
    let cfg = Configuration::new(DeviceKind::Gpu, Strategy::Hogwild);
    let a = Engine::run(&cfg, &task, &batch, 0.2, &o);
    let b = Engine::run(&cfg, &task, &batch, 0.2, &o);
    assert_eq!(a.opt_seconds, b.opt_seconds);
    for (pa, pb) in a.trace.points().iter().zip(b.trace.points()) {
        assert_eq!(pa.0, pb.0);
        assert_eq!(pa.1, pb.1);
    }
}

#[test]
fn dense_gpu_warp_conflict_metrics_are_bit_identical() {
    // Dense rows make every warp lane touch every coordinate, so the
    // per-warp pre-update map (a BTreeMap precisely so this test can
    // exist) is heavily exercised and the conflict counter is nonzero.
    let (x, y) = dense();
    let batch = Batch::new(Examples::Dense(&x), &y);
    let task = lr(6);
    let o = RunOptions { max_epochs: 10, plateau: None, faults: plan(), ..Default::default() };
    let cfg = Configuration::new(DeviceKind::Gpu, Strategy::Hogwild);
    let a = Engine::run(&cfg, &task, &batch, 0.2, &o);
    let b = Engine::run(&cfg, &task, &batch, 0.2, &o);
    assert_bit_identical(&a, &b);
    assert_eq!(a.update_conflicts(), b.update_conflicts());
    assert!(a.update_conflicts() > Some(0), "dense warps must collide on coordinates");
}

#[test]
fn gpu_hogbatch_fault_runs_are_bit_identical() {
    // Hogbatch on the simulated GPU launches one kernel per mini-batch,
    // so the device's buffer registry (host-ptr-keyed, BTreeMap) sees
    // many distinct buffers; simulated times must still reproduce.
    let (x, y) = dense();
    let batch = Batch::new(Examples::Dense(&x), &y);
    let task = lr(6);
    let o = RunOptions { max_epochs: 10, plateau: None, faults: plan(), ..Default::default() };
    let cfg = Configuration::new(DeviceKind::Gpu, Strategy::Hogbatch { batch_size: 8 });
    let a = Engine::run(&cfg, &task, &batch, 0.2, &o);
    let b = Engine::run(&cfg, &task, &batch, 0.2, &o);
    assert_bit_identical(&a, &b);
}

#[test]
fn different_fault_seeds_change_the_run() {
    let (xs, y) = sparse();
    let batch = Batch::new(Examples::Sparse(&xs), &y);
    let task = lr(16);
    let mk = |seed: u64| {
        let faults = FaultPlan::default().with_seed(seed).with_drops(0.3).with_corruption(0.3, 0.5);
        let o = RunOptions { max_epochs: 10, plateau: None, faults, ..Default::default() };
        let mc = CpuModelConfig::paper_machine(4);
        let cfg = Configuration::new(mc.device(), Strategy::Hogwild)
            .with_timing(Timing::Modeled(mc.clone()));
        Engine::run(&cfg, &task, &batch, 0.2, &o)
    };
    let (a, b) = (mk(1), mk(2));
    let same_losses = a.trace.points().iter().zip(b.trace.points()).all(|(pa, pb)| pa.1 == pb.1);
    let (fa, fb) = (a.metrics.total_faults(), b.metrics.total_faults());
    assert!(
        !same_losses
            || fa.dropped_updates != fb.dropped_updates
            || fa.corrupted_updates != fb.corrupted_updates,
        "different seeds must draw different fault decisions"
    );
}

#[test]
fn an_async_run_with_no_surviving_worker_aborts_like_the_cluster() {
    // The only worker dies at epoch 2. Like a stalled sync barrier and
    // like `run_dist_modeled` with no survivor, every asynchronous corner
    // must abort there instead of charging epochs that do no work.
    let o = RunOptions {
        max_epochs: 20,
        threads: 1,
        plateau: None,
        faults: FaultPlan::default().with_worker_death(0, 2),
        ..Default::default()
    };
    let mc = CpuModelConfig::paper_machine(1);
    let modeled = |s| Configuration::new(mc.device(), s).with_timing(Timing::Modeled(mc.clone()));
    let hogbatch = || Strategy::Hogbatch { batch_size: 16 };
    let (xs, ys) = sparse();
    let (x32, y32) = sparse_rows(32); // one 32-lane warp: one GPU worker
    let (x, y) = dense();
    let sparse_batch = Batch::new(Examples::Sparse(&xs), &ys);
    let one_warp = Batch::new(Examples::Sparse(&x32), &y32);
    let dense_batch = Batch::new(Examples::Dense(&x), &y);
    let corners = [
        (Configuration::new(DeviceKind::CpuSeq, Strategy::Hogwild), &sparse_batch, lr(16)),
        (Configuration::new(DeviceKind::CpuSeq, hogbatch()), &dense_batch, lr(6)),
        (modeled(Strategy::Hogwild), &sparse_batch, lr(16)),
        (modeled(hogbatch()), &dense_batch, lr(6)),
        (Configuration::new(DeviceKind::Gpu, hogbatch()), &dense_batch, lr(6)),
        (Configuration::new(DeviceKind::Gpu, Strategy::Hogwild), &one_warp, lr(16)),
    ];
    for (cfg, batch, task) in &corners {
        let rep = Engine::run(cfg, task, batch, 0.2, &o);
        assert_eq!(rep.outcome, RunOutcome::FaultAborted { epoch: 3 }, "{}", rep.label);
        assert_eq!(rep.trace.epochs(), 2, "{}: epochs 0 and 1 ran before the death", rep.label);
        assert_eq!(rep.opt_seconds, rep.trace.points()[2].0, "{}: the clock stops", rep.label);
    }
}
