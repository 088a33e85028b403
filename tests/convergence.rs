//! End-to-end convergence: every optimizer in the study must actually
//! optimize every task on generated data, and configurations that share
//! update semantics must agree exactly.

use sgd_study::core::{
    reference_optimum, Configuration, CpuModelConfig, DeviceKind, Engine, RunOptions, Strategy,
    Timing,
};
use sgd_study::datagen::{
    generate, group_features, normalize_rows, plant_labels, DatasetProfile, GenOptions,
};
use sgd_study::models::{lr, svm, Batch, Examples, MlpTask, Task};

fn w8a_small() -> sgd_study::datagen::Dataset {
    generate(&DatasetProfile::w8a().scaled(0.02), &GenOptions::default())
}

fn opts(max_epochs: usize) -> RunOptions {
    RunOptions { max_epochs, max_secs: 20.0, ..Default::default() }
}

fn sync(device: DeviceKind) -> Configuration {
    Configuration::new(device, Strategy::Sync)
}

/// The modeled 56-thread corner of `strategy` on the paper's machine.
fn modeled(strategy: Strategy) -> Configuration {
    Configuration::new(DeviceKind::CpuPar, strategy)
        .with_timing(Timing::Modeled(CpuModelConfig::paper_machine(56)))
}

#[test]
fn sync_converges_on_all_tasks_and_devices() {
    let ds = w8a_small();
    let batch = Batch::new(Examples::Sparse(&ds.x), &ds.y);
    for device in [DeviceKind::CpuSeq, DeviceKind::CpuPar, DeviceKind::Gpu] {
        let lr_rep = Engine::run(&sync(device), &lr(ds.d()), &batch, 10.0, &opts(150));
        assert!(lr_rep.best_loss() < 0.3, "{device:?} LR loss {}", lr_rep.best_loss());
        let svm_rep = Engine::run(&sync(device), &svm(ds.d()), &batch, 10.0, &opts(150));
        assert!(svm_rep.best_loss() < 0.45, "{device:?} SVM loss {}", svm_rep.best_loss());
    }
}

#[test]
fn sync_statistical_efficiency_is_device_independent() {
    // The paper: "the statistical efficiency is identical in synchronous
    // SGD" — trajectories must agree to machine precision between seq CPU
    // and the simulated GPU, and to reduction-reordering tolerance for the
    // parallel CPU.
    let ds = w8a_small();
    let batch = Batch::new(Examples::Sparse(&ds.x), &ds.y);
    let task = lr(ds.d());
    let o = opts(20);
    let seq = Engine::run(&sync(DeviceKind::CpuSeq), &task, &batch, 1.0, &o);
    let par = Engine::run(&sync(DeviceKind::CpuPar), &task, &batch, 1.0, &o);
    let gpu = Engine::run(&sync(DeviceKind::Gpu), &task, &batch, 1.0, &o);
    let modeled = Engine::run(&modeled(Strategy::Sync), &task, &batch, 1.0, &o);
    for (((s, p), g), m) in seq
        .trace
        .points()
        .iter()
        .zip(par.trace.points())
        .zip(gpu.trace.points())
        .zip(modeled.trace.points())
    {
        assert!((s.1 - g.1).abs() < 1e-12);
        assert!((s.1 - m.1).abs() < 1e-12);
        assert!((s.1 - p.1).abs() < 1e-9);
    }
}

#[test]
fn hogwild_converges_across_thread_counts() {
    let ds = w8a_small();
    let batch = Batch::new(Examples::Sparse(&ds.x), &ds.y);
    let task = lr(ds.d());
    for threads in [1, 2, 4] {
        let device = if threads == 1 { DeviceKind::CpuSeq } else { DeviceKind::CpuPar };
        let cfg = Configuration::new(device, Strategy::Hogwild);
        let rep = Engine::run(&cfg, &task, &batch, 0.5, &RunOptions { threads, ..opts(80) });
        assert!(rep.best_loss() < 0.25, "threads {threads}: {}", rep.best_loss());
    }
    // Modeled variant converges too.
    let rep = Engine::run(&modeled(Strategy::Hogwild), &task, &batch, 0.5, &opts(80));
    assert!(rep.best_loss() < 0.25, "modeled: {}", rep.best_loss());
}

#[test]
fn gpu_hogwild_converges_on_sparse_data() {
    let ds = w8a_small();
    let batch = Batch::new(Examples::Sparse(&ds.x), &ds.y);
    let task = lr(ds.d());
    let cfg = Configuration::new(DeviceKind::Gpu, Strategy::Hogwild);
    let rep = Engine::run(&cfg, &task, &batch, 0.5, &opts(120));
    // Warp-Hogwild loses most intra-warp updates on colliding coordinates,
    // so its statistical efficiency is far worse than CPU Hogwild (the
    // paper's central asynchronous-GPU finding); it converges, slowly.
    assert!(rep.best_loss() < 0.4, "loss {}", rep.best_loss());
    assert!(rep.update_conflicts().is_some());
}

#[test]
fn mlp_pipeline_converges_end_to_end() {
    // The full MLP data path: generate -> group -> normalize -> re-plant
    // -> train with sync, Hogbatch, and GPU Hogbatch.
    let ds = generate(&DatasetProfile::w8a().scaled(0.01), &GenOptions::default());
    let grouped = normalize_rows(&group_features(&ds, 300).x);
    let x = grouped.to_dense();
    let (y, _) = plant_labels(&grouped, 3, 0.02);
    let task = MlpTask::new(vec![300, 10, 5, 2], 42);
    let full = Batch::new(Examples::Dense(&x), &y);
    let o = RunOptions {
        max_epochs: 600,
        max_secs: 30.0,
        plateau: None,
        threads: 2,
        ..Default::default()
    };

    let start = task.loss(&mut sgd_study::linalg::CpuExec::seq(), &full, &task.init_model());
    let rep = Engine::run(&sync(DeviceKind::Gpu), &task, &full, 3.0, &o);
    assert!(rep.best_loss() < 0.8 * start, "sync: {} -> {}", start, rep.best_loss());

    let hogbatch = |device| Configuration::new(device, Strategy::Hogbatch { batch_size: 128 });
    let hog = Engine::run(&hogbatch(DeviceKind::CpuPar), &task, &full, 1.0, &o);
    assert!(hog.best_loss() < 0.8 * start, "hogbatch: {}", hog.best_loss());

    let gpu = Engine::run(&hogbatch(DeviceKind::Gpu), &task, &full, 1.0, &o);
    assert!(gpu.best_loss() < 0.8 * start, "gpu hogbatch: {}", gpu.best_loss());
}

#[test]
fn reference_optimum_is_a_lower_bound_for_grid_runs() {
    let ds = w8a_small();
    let batch = Batch::new(Examples::Sparse(&ds.x), &ds.y);
    let task = svm(ds.d());
    let optimum = reference_optimum(&task, &batch, 100);
    for alpha in [0.1, 1.0, 10.0] {
        let rep = Engine::run(&sync(DeviceKind::CpuSeq), &task, &batch, alpha, &opts(100));
        assert!(
            rep.best_loss() >= optimum - 1e-9,
            "alpha {alpha}: run found {} below reference {optimum}",
            rep.best_loss()
        );
    }
}
