//! End-to-end train→checkpoint→reload→serve pipeline (the serving
//! acceptance criterion): a model trained through the engine, published
//! via the epoch hook, written to disk, and reloaded must serve
//! bitwise-identical predictions to the in-memory model — on every
//! backend — and corrupt checkpoint bytes must surface as typed errors.

use sgd_study::core::{Configuration, DeviceKind, Engine, RunOptions, Strategy};
use sgd_study::datagen::{generate, Dataset, DatasetProfile, GenOptions};
use sgd_study::models::{lr, Batch, Examples};
use sgd_study::serve::{
    run_admitted, AdmissionPolicy, BatchPolicy, Checkpoint, CheckpointError, CheckpointPublisher,
    ClosedClients, ComputeService, ModelRegistry, OfferedRequest, RequestPool, ServableModel,
    ServeBackend, Server, TaskDescriptor,
};

fn small_dataset() -> Dataset {
    let opts = GenOptions { seed: 11, scale: 0.003, ..GenOptions::default() };
    generate(&DatasetProfile::w8a(), &opts)
}

fn backends() -> [ServeBackend; 3] {
    [ServeBackend::CpuSeq, ServeBackend::CpuPar { threads: 4 }, ServeBackend::GpuSim]
}

#[test]
fn trained_checkpointed_reloaded_model_serves_identical_predictions() {
    let ds = small_dataset();
    let task = lr(ds.d());
    let batch = Batch::new(Examples::Sparse(&ds.x), &ds.y);

    let registry = ModelRegistry::new();
    let dir = std::env::temp_dir().join("sgd-serve-pipeline-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut publisher = CheckpointPublisher::new(
        &registry,
        "pipeline",
        TaskDescriptor::LogisticRegression { dim: ds.d() as u64 },
    )
    .with_directory(&dir);

    let cfg = Configuration::new(DeviceKind::CpuSeq, Strategy::Sync);
    let opts = RunOptions { max_epochs: 8, ..Default::default() };
    let report = Engine::run_observed(&cfg, &task, &batch, 0.1, &opts, &mut publisher);

    // The hook saw every improvement, and the final publication is the
    // same model the report calls best.
    assert!(publisher.published > 0, "training never improved: nothing published");
    assert!(publisher.last_error.is_none(), "{:?}", publisher.last_error);
    let snap = registry.get("pipeline").expect("hook published to the registry");
    let best = report.best_model.as_deref().expect("supervisor kept a best model");
    assert_eq!(snap.model.weights(), best, "registry holds RunReport::best_model");

    // Reload from disk (a byte-level fresh deserialization — nothing is
    // shared with the live model) and serve the same workload on every
    // backend: scores must match bit-for-bit.
    let path = dir.join("pipeline.ckpt");
    let reloaded = Checkpoint::load(&path).expect("published checkpoint loads");
    let served = ServableModel::from_checkpoint(&reloaded).expect("servable");
    let pool = RequestPool::from_dataset(&ds);
    let offered: Vec<OfferedRequest> =
        (0..48).map(|row| OfferedRequest { arrival: 0.0, priority: 0, row }).collect();
    let policy = BatchPolicy::new(8, 1e-3);
    let serve = |model: &ServableModel, backend: ServeBackend| {
        let mut srv = Server::new(backend);
        run_admitted(
            &mut ComputeService::new(&mut srv, model, &pool),
            &policy,
            &AdmissionPolicy::unbounded(),
            &offered,
            &ClosedClients::none(),
        )
    };
    for backend in backends() {
        let live = serve(&snap.model, backend);
        let cold = serve(&served, backend);
        assert_eq!(live.decisions.len(), cold.decisions.len());
        for (i, (a, b)) in live.decisions.iter().zip(&cold.decisions).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{}: request {i} diverged after disk round trip",
                backend.label()
            );
        }
    }

    // Corrupting any payload byte must be a typed CRC failure, never a
    // panic or a silently-different model.
    let mut bytes = std::fs::read(&path).expect("checkpoint bytes");
    std::fs::remove_file(&path).ok();
    let mid = bytes.len() / 2;
    if let Some(b) = bytes.get_mut(mid) {
        *b ^= 0x40;
    }
    match Checkpoint::from_bytes(&bytes) {
        Err(CheckpointError::ChecksumMismatch { .. }) => {}
        other => panic!("corrupt checkpoint must fail CRC, got {other:?}"),
    }
}

#[test]
fn training_hot_swaps_a_live_registry() {
    let ds = small_dataset();
    let task = lr(ds.d());
    let batch = Batch::new(Examples::Sparse(&ds.x), &ds.y);
    let registry = ModelRegistry::new();

    // Publish a deliberately bad model first; training must replace it.
    let stale = Checkpoint::new(
        TaskDescriptor::LogisticRegression { dim: ds.d() as u64 },
        vec![0.0; ds.d()],
    )
    .expect("dims");
    let first_rev = registry.publish(
        "live",
        ServableModel::from_checkpoint(&stale).expect("valid"),
        0,
        f64::INFINITY,
    );

    let mut publisher = CheckpointPublisher::new(
        &registry,
        "live",
        TaskDescriptor::LogisticRegression { dim: ds.d() as u64 },
    );
    let cfg = Configuration::new(DeviceKind::CpuSeq, Strategy::Sync);
    let opts = RunOptions { max_epochs: 5, ..Default::default() };
    Engine::run_observed(&cfg, &task, &batch, 0.1, &opts, &mut publisher);

    let snap = registry.get("live").expect("still published");
    assert!(snap.revision > first_rev, "training hot-swapped the stale model");
    assert!(snap.model.weights().iter().any(|&w| w != 0.0), "a real model is live");
    assert!(snap.loss.is_finite());
}
