//! Backend ↔ direct-execution equivalence for the PR 6 `ComputeBackend`
//! refactor.
//!
//! The training runners and the serving batcher now share one dispatch
//! path: `ComputeBackend::dispatch` driving an `ExecTask` over the
//! cpu-seq, cpu-par (persistent pool), or simulated-GPU executor. These
//! tests pin the refactor three ways:
//!
//! 1. dispatching through the trait is *bitwise* identical to driving
//!    the executors directly, for every backend and model family;
//! 2. the serving batcher's decisions are bitwise identical across
//!    backends and across runs (the paper's determinism discipline,
//!    applied to inference);
//! 3. the GPU serving path is warm and bit-deterministic: named buffer
//!    bindings give repeated batches the same virtual addresses, so the
//!    simulated L2 hit ratio strictly improves from the first batch to
//!    the second and the cycle count replays exactly — the regression
//!    the old host-pointer cache keys made impossible to pin.

use sgd_study::core::{BackendSession, ComputeBackend, ExecTask};
use sgd_study::gpusim::kernels::GpuExec;
use sgd_study::gpusim::GpuDevice;
use sgd_study::linalg::pool::with_threads;
use sgd_study::linalg::{CpuExec, CsrMatrix, Exec, Matrix};
use sgd_study::models::Examples;
use sgd_study::serve::{
    run_admitted, AdmissionPolicy, BatchPolicy, Checkpoint, ClosedClients, ComputeService,
    OfferedRequest, RequestPool, ServableModel, Server, TaskDescriptor,
};

/// Deterministic non-trivial weights for a descriptor's model dim.
fn model_for(descriptor: TaskDescriptor) -> ServableModel {
    let dim = descriptor.model_dim().expect("descriptor has a model dim");
    let weights: Vec<f64> = (0..dim).map(|i| ((i * 37 + 11) % 19) as f64 / 7.0 - 1.3).collect();
    let ck = Checkpoint::new(descriptor, weights).expect("weights match descriptor");
    ServableModel::from_checkpoint(&ck).expect("checkpoint is valid")
}

fn dense_rows(n: usize, d: usize) -> Matrix {
    Matrix::from_fn(n, d, |i, j| {
        let s = if (i + j) % 2 == 0 { 1.0 } else { -1.0 };
        s * (((i * 5 + j * 3) % 11) as f64 + 1.0) / 11.0
    })
}

fn sparse_rows(n: usize, d: usize) -> CsrMatrix {
    let entries: Vec<Vec<(u32, f64)>> = (0..n)
        .map(|i| {
            (0..4)
                .map(|k| {
                    let col = ((i * 7 + k * 13) % d) as u32;
                    (col, if (i + k) % 2 == 0 { 1.0 } else { -0.5 })
                })
                .collect()
        })
        .map(|mut row: Vec<(u32, f64)>| {
            row.sort_by_key(|&(c, _)| c);
            row.dedup_by_key(|&mut (c, _)| c);
            row
        })
        .collect();
    CsrMatrix::from_row_entries(n, d, &entries)
}

/// The serving batcher's job shape, reproduced here so the test drives
/// the executors directly on one side of the comparison.
struct PredictJob<'a> {
    model: &'a ServableModel,
    x: &'a Examples<'a>,
}

impl ExecTask for PredictJob<'_> {
    type Out = Vec<f64>;
    fn run<E: Exec>(&mut self, e: &mut E) -> Vec<f64> {
        self.model.predict_batch(e, self.x)
    }
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: row {i} diverged ({x} vs {y})");
    }
}

/// (1) Trait dispatch ≡ direct executor, bitwise, for every backend ×
/// model family × representation.
#[test]
fn dispatch_matches_direct_execution_bitwise() {
    let d = 24;
    let dense = dense_rows(48, d);
    let sparse = sparse_rows(48, d);
    let cases: Vec<(ServableModel, Examples<'_>, &str)> = vec![
        (
            model_for(TaskDescriptor::LogisticRegression { dim: d as u64 }),
            Examples::Dense(&dense),
            "lr-dense",
        ),
        (
            model_for(TaskDescriptor::LogisticRegression { dim: d as u64 }),
            Examples::Sparse(&sparse),
            "lr-sparse",
        ),
        (
            model_for(TaskDescriptor::LinearSvm { dim: d as u64 }),
            Examples::Sparse(&sparse),
            "svm-sparse",
        ),
        (
            model_for(TaskDescriptor::Mlp { layers: vec![d as u32, 8, 2], seed: 7 }),
            Examples::Dense(&dense),
            "mlp-dense",
        ),
    ];
    for (model, x, what) in &cases {
        // Pre-refactor paths: the executors driven by hand.
        let seq = model.predict_batch(&mut CpuExec::seq(), x);
        let par = with_threads(4, || model.predict_batch(&mut CpuExec::par(), x));
        let mut dev = GpuDevice::tesla_k80();
        let gpu = model.predict_batch(&mut GpuExec::new(&mut dev), x);

        for (backend, direct) in [
            (ComputeBackend::CpuSeq, &seq),
            (ComputeBackend::CpuPar { threads: 4 }, &par),
            (ComputeBackend::GpuSim, &gpu),
        ] {
            let mut sess = BackendSession::new();
            let mut job = PredictJob { model, x };
            let out = backend.dispatch(&mut sess, &mut job).out;
            assert_bits_eq(&out, direct, &format!("{what} via {}", backend.label()));
        }
        // And across backends: the decision values themselves agree
        // (gemv/spmv are row-parallel with per-row sequential reduction,
        // so even the parallel backends are bitwise stable).
        assert_bits_eq(&seq, &par, &format!("{what} seq vs par"));
        assert_bits_eq(&seq, &gpu, &format!("{what} seq vs gpu"));
    }
}

/// (2) Batcher decisions: bitwise across backends, bitwise across runs.
#[test]
fn serving_decisions_are_bitwise_across_backends_and_runs() {
    let d = 32;
    let model = model_for(TaskDescriptor::LogisticRegression { dim: d as u64 });
    let pool = RequestPool::sparse(sparse_rows(96, d));
    let offered: Vec<OfferedRequest> =
        (0..64).map(|row| OfferedRequest { arrival: 0.0, priority: 0, row }).collect();
    let policy = BatchPolicy::new(8, 2.5e-4);

    let mut reference: Option<Vec<f64>> = None;
    for backend in ComputeBackend::fixed_set(4) {
        let run = |_: ()| {
            let mut srv = Server::new(backend);
            run_admitted(
                &mut ComputeService::new(&mut srv, &model, &pool),
                &policy,
                &AdmissionPolicy::unbounded(),
                &offered,
                &ClosedClients::none(),
            )
        };
        let a = run(());
        let b = run(());
        assert_bits_eq(&a.decisions, &b.decisions, &format!("{} across runs", backend.label()));
        match &reference {
            Some(r) => assert_bits_eq(r, &a.decisions, &format!("{} vs cpu-seq", backend.label())),
            None => reference = Some(a.decisions.clone()),
        }
    }
}

/// (3) The warm-cache pin: on the GPU backend, batch 2 of the same
/// logical buffers reuses batch 1's virtual addresses, so the simulated
/// L2 hit ratio strictly improves — and the whole trace replays
/// bit-identically across servers.
#[test]
fn gpu_serving_trace_is_warm_and_bit_deterministic() {
    let d = 64;
    let model = model_for(TaskDescriptor::LogisticRegression { dim: d as u64 });
    // Sparse rows: the spmv kernels are the traced (memory-side) path.
    let sparse = sparse_rows(32, d);
    let x = Examples::Sparse(&sparse);

    let serve_two_batches = |_: ()| {
        let mut srv = Server::new(ComputeBackend::GpuSim);
        let (_, secs1) = srv.predict(&model, &x);
        let first = *srv.last_gpu_dispatch().expect("gpu dispatch recorded");
        let (_, secs2) = srv.predict(&model, &x);
        let second = *srv.last_gpu_dispatch().expect("gpu dispatch recorded");
        (secs1, first, secs2, second)
    };

    let (secs1, first, secs2, second) = serve_two_batches(());
    assert!(first.l2_hit_ratio().is_finite(), "sparse predict traces the L2");
    assert!(
        second.l2_hit_ratio() > first.l2_hit_ratio(),
        "warm batch must improve the hit ratio ({} -> {})",
        first.l2_hit_ratio(),
        second.l2_hit_ratio()
    );
    assert!(secs2 < secs1, "warm batch must be faster ({secs1} vs {secs2})");

    // Replay: a fresh server walks the identical simulated trace.
    let (r1, rf, r2, rs) = serve_two_batches(());
    assert_eq!(secs1.to_bits(), r1.to_bits(), "batch 1 sim time replays exactly");
    assert_eq!(secs2.to_bits(), r2.to_bits(), "batch 2 sim time replays exactly");
    assert_eq!(first.cycles.to_bits(), rf.cycles.to_bits(), "batch 1 cycles replay exactly");
    assert_eq!(second.cycles.to_bits(), rs.cycles.to_bits(), "batch 2 cycles replay exactly");
    assert_eq!(first.l2_hits, rf.l2_hits);
    assert_eq!(first.l2_misses, rf.l2_misses);
    assert_eq!(second.l2_hits, rs.l2_hits);
    assert_eq!(second.l2_misses, rs.l2_misses);
}

/// Router determinism at the integration level: identical arrival
/// traces produce identical per-batch backend choices and bitwise
/// latencies, and the choices split by batch shape.
#[test]
fn router_decisions_replay_exactly() {
    let d = 64;
    let model = model_for(TaskDescriptor::LogisticRegression { dim: d as u64 });
    let pool = RequestPool::dense(dense_rows(512, d));
    // A bursty trace: lone requests (cpu-seq territory) alternating with
    // 256-deep bursts (deep enough that a single gemv amortizes the
    // simulated kernel-launch overhead past the CPU's compute time).
    let mut offered = Vec::new();
    let mut t = 0.0;
    for _ in 0..4 {
        offered.push(OfferedRequest { arrival: t, priority: 0, row: offered.len() });
        t += 1e-3;
        for _ in 0..256 {
            offered.push(OfferedRequest { arrival: t, priority: 0, row: offered.len() });
        }
        t += 1e-3;
    }
    let policy = BatchPolicy::new(256, 1e-4);

    let run = |_: ()| {
        let mut srv = Server::routed(ComputeBackend::fixed_set(4).to_vec());
        run_admitted(
            &mut ComputeService::new(&mut srv, &model, &pool),
            &policy,
            &AdmissionPolicy::unbounded(),
            &offered,
            &ClosedClients::none(),
        )
    };
    let a = run(());
    let b = run(());
    assert_eq!(a.batch_backends, b.batch_backends, "routing decisions replay exactly");
    assert_bits_eq(&a.decisions, &b.decisions, "router decisions");
    let latencies_match = a.summary.mean.to_bits() == b.summary.mean.to_bits()
        && a.summary.p99.to_bits() == b.summary.p99.to_bits();
    assert!(latencies_match, "router latency accounting replays exactly");
    // The mixed trace exercises both sides of the cost model.
    let used_cpu = a.batch_backends.iter().any(|l| l.starts_with("cpu"));
    let used_gpu = a.batch_backends.iter().any(|l| l == "gpu-sim");
    assert!(used_cpu && used_gpu, "bursty trace splits across backends: {:?}", a.batch_backends);
}
