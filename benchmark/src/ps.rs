//! The parameter-server wire path: `run_dist_wire` over loopback TCP, run
//! to a loss target, back to back, for the length of the window.
//!
//! An operation is one epoch (a `RunReport::trace` delta), a target is
//! 1.01 x the loss the deterministic 1-worker `run_dist_modeled` reaches
//! after the spec's epoch count, and `time_to_target_s` is the wall time
//! of the whole `run_dist_wire` call — connects, joins and the per-epoch
//! loss evaluation under the server lock included.
//!
//! The traced run adds the benchmark's own copy of the coordinator and
//! worker loops (the public `DistWorker` verbs against its own
//! `ParamServer` behind a `DistWireServer`), one span per call, which is
//! where the per-layer figures and the server-side counters come from.

use std::io::Cursor;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, TryLockError};
use std::time::{Duration, Instant};

use sgd_core::{RunOptions, RunOutcome, RunReport};
use sgd_datagen::DatasetProfile;
use sgd_dist::{
    make_shards, run_dist_modeled, run_dist_wire, ConsistencyMode, DistConfig, DistWireClient,
    DistWireServer, DistWorker, InProcTransport, LeaseGrant, ParamServer, PushOutcome, Request,
    ServerStats, Shard, StalePolicy, Transport,
};
use sgd_linalg::CpuExec;
use sgd_models::{lr, Batch, Task};

use crate::inputs::LinearData;
use crate::json::Json;
use crate::measure::{median_secs, path_residual, per_call_secs, repeat_setup, timed, Ctx};
use crate::report::Outcome;
use crate::runs::Runs;
use crate::trace::{totals_by_name, Tracer};

const WORKERS: usize = 2;
/// How often the benchmark's coordinator and idle workers poll, as in
/// `run_dist_wire`.
const POLL: Duration = Duration::from_micros(200);

pub struct PsSpec {
    profile: fn() -> DatasetProfile,
    scale: f64,
    shards: usize,
    mode: ConsistencyMode,
    /// Step size the `ps` bench's grid picks on this data (the largest of
    /// the paper's grid; every smaller one ends 12 epochs higher).
    alpha: f64,
    /// Epochs of the 1-worker modeled run whose loss is the target.
    target_epochs: usize,
}

/// Four shards, not eight: a small reply costs one ~44 ms delayed-ACK
/// stall today, a shard step is three calls, and at eight shards one run
/// to target took 10.6 s — longer than a window. Four shards and an
/// 8-epoch target make it ~4 s (15 epochs), so a window holds three.
pub const NARROW_SYNC: PsSpec = PsSpec {
    profile: DatasetProfile::covtype,
    scale: 0.02,
    shards: 4,
    mode: ConsistencyMode::Sync { grads_to_wait: WORKERS },
    alpha: 100.0,
    target_epochs: 8,
};

/// Four shards for the same reason; 12 target epochs at ~200 ms an epoch
/// is ~2.5 s a run.
pub const WIDE_ASYNC: PsSpec = PsSpec {
    profile: DatasetProfile::rcv1,
    scale: 0.005,
    shards: 4,
    mode: ConsistencyMode::Async { max_staleness: 4, policy: StalePolicy::Reject },
    alpha: 100.0,
    target_epochs: 12,
};

impl PsSpec {
    fn cluster(&self, workers: usize, mode: ConsistencyMode) -> DistConfig {
        DistConfig { workers, shards: self.shards, mode, ..Default::default() }
    }
}

struct Inputs {
    data: LinearData,
    target: f64,
    generate_s: f64,
}

fn setup(spec: &PsSpec, seed: u64) -> Inputs {
    let (data, generate_s) = timed(|| LinearData::generate(&(spec.profile)(), spec.scale, seed));
    let task = lr(data.d());
    let lone = spec.cluster(1, ConsistencyMode::Sync { grads_to_wait: 1 });
    let opts =
        RunOptions { max_epochs: spec.target_epochs, plateau: None, seed, ..Default::default() };
    let target = run_dist_modeled(&task, &data.batch(), &lone, spec.alpha, &opts).best_loss();
    Inputs { data, target, generate_s }
}

fn options(spec: &PsSpec, inputs: &Inputs, seed: u64) -> RunOptions {
    RunOptions {
        max_epochs: 3 * spec.target_epochs,
        max_secs: 120.0,
        // The supervisor stops at 1 % above `target_loss`: 1.01 x target.
        target_loss: Some(inputs.target),
        plateau: None,
        seed,
        ..Default::default()
    }
}

pub fn run(spec: &PsSpec, ctx: &Ctx<'_>) -> Outcome {
    let mut out = Outcome::default();
    let (inputs, setup_s) = repeat_setup(|| setup(spec, ctx.seed));
    out.set("setup_s", setup_s);
    out.note("rows", Json::Num(inputs.data.n() as f64));
    out.note("features", Json::Num(inputs.data.d() as f64));
    out.note("target_loss", Json::Num(inputs.target));

    let task = lr(inputs.data.d());
    let batch = inputs.data.batch();
    let cluster = spec.cluster(WORKERS, spec.mode);
    let opts = options(spec, &inputs, ctx.seed);
    let untraced_window = if ctx.traced() { ctx.untraced_leg() } else { ctx.window() };
    let base = Runs::back_to_back(untraced_window, |_| {
        run_dist_wire(&task, &batch, &cluster, spec.alpha, &opts).map_err(|e| e.to_string())
    });
    let traced = ctx.traced().then(|| {
        let mut tally = Tally::default();
        let traced = Runs::back_to_back(ctx.traced_leg(), |run| {
            traced_run(spec, &task, &batch, &opts, ctx.tracer, run, &mut tally)
        });
        per_layer(spec, ctx, &inputs, &base, &traced, &tally, &mut out);
        traced
    });
    if traced.is_none() {
        base.set_end_to_end(&mut out);
    }
    for w in std::iter::once(&base).chain(&traced) {
        w.check(&mut out);
    }
    out
}

/// What the benchmark's own runs counted, summed over the traced leg.
#[derive(Default)]
struct Tally {
    epochs: u64,
    workers: WorkerCounts,
    /// `applied` increments that no push caused: partial sync quorums the
    /// coordinator flushed at an epoch boundary.
    flushed: u64,
    stats: ServerStats,
    lock_samples: u64,
    lock_busy: u64,
    conservation_broken: Option<String>,
}

fn digits(n: u64) -> u64 {
    n.max(1).ilog10() as u64 + 1
}

#[derive(Clone, Copy)]
enum Verb {
    Join,
    Pull,
    Lease,
    Push,
    Leave,
}

/// Bytes one call moves, computed from the protocol's line formats (every
/// `f64` is 16 hex digits and a space).
fn call_bytes(verb: Verb, worker: u64, version: u64, dim: u64) -> u64 {
    let vector = 17 * dim;
    match verb {
        // "PULL\n" / "JOIN w\n" -> "MODEL v <hex>...\n"
        Verb::Pull => 5 + 6 + digits(version) + vector + 1,
        Verb::Join => 5 + digits(worker) + 1 + 6 + digits(version) + vector + 1,
        // "LEASE w\n" -> "LEASE SHARD s\n" (the refusals differ by a byte or two)
        Verb::Lease => 6 + digits(worker) + 1 + 14,
        // "PUSH w v s <hex>...\n" -> "PUSHED APPLIED v\n"
        Verb::Push => {
            5 + digits(worker) + 1 + digits(version) + 2 + vector + 1 + 15 + digits(version) + 1
        }
        // "LEAVE w\n" -> "LEFT\n"
        Verb::Leave => 6 + digits(worker) + 1 + 5,
    }
}

/// One worker's side of a traced run.
#[derive(Default)]
struct WorkerCounts {
    pushes: u64,
    accepted: u64,
    recomputes: u64,
    calls: u64,
    wire_bytes: u64,
}

impl WorkerCounts {
    fn add(&mut self, o: &WorkerCounts) {
        self.pushes += o.pushes;
        self.accepted += o.accepted;
        self.recomputes += o.recomputes;
        self.calls += o.calls;
        self.wire_bytes += o.wire_bytes;
    }
}

#[allow(clippy::too_many_arguments)]
fn traced_worker<T: Task>(
    id: usize,
    addr: std::net::SocketAddr,
    task: &T,
    shards: &[Shard],
    tracer: &Tracer,
    run: u64,
    failed: &AtomicBool,
) -> Result<WorkerCounts, String> {
    let err = |e: sgd_dist::TransportError| {
        failed.store(true, Ordering::SeqCst);
        e.to_string()
    };
    let mut c = WorkerCounts::default();
    let dim = task.dim() as u64;
    let mut lane = tracer.lane();
    lane.span("dist.worker", run, |lane| {
        let client = lane
            .span("dist.worker.connect", run, |_| DistWireClient::connect(addr))
            .map_err(|e| format!("connect: {e}"))?;
        let mut w = DistWorker::new(id, client);
        let call = |c: &mut WorkerCounts, verb: Verb, version: u64| {
            c.calls += 1;
            c.wire_bytes += call_bytes(verb, id as u64, version, dim);
        };
        lane.span("dist.worker.join", run, |_| w.join()).map_err(err)?;
        call(&mut c, Verb::Join, w.version());
        loop {
            lane.span("dist.worker.pull", run, |_| w.pull()).map_err(err)?;
            call(&mut c, Verb::Pull, w.version());
            let grant = lane.span("dist.worker.lease", run, |_| w.lease()).map_err(err)?;
            call(&mut c, Verb::Lease, 0);
            match grant {
                LeaseGrant::Shutdown => break,
                LeaseGrant::Drained => {
                    lane.span("dist.worker.idle", run, |_| std::thread::sleep(POLL))
                }
                LeaseGrant::Shard(s) => loop {
                    lane.span("dist.worker.compute", run, |_| w.compute(task, &shards[s]));
                    let outcome = lane.span("dist.worker.push", run, |_| w.push(s)).map_err(err)?;
                    call(&mut c, Verb::Push, w.version());
                    c.pushes += 1;
                    if !matches!(outcome, PushOutcome::RejectedStale { .. }) {
                        c.accepted += 1;
                        break;
                    }
                    c.recomputes += 1;
                    lane.span("dist.worker.pull", run, |_| w.pull()).map_err(err)?;
                    call(&mut c, Verb::Pull, w.version());
                },
            }
        }
        lane.span("dist.worker.leave", run, |_| w.leave()).map_err(err)?;
        call(&mut c, Verb::Leave, 0);
        Ok(c)
    })
}

/// The benchmark's copy of `run_dist_wire`: the same coordinator and
/// worker loops over the same public verbs, with a span around every call
/// and its own `ParamServer`, whose counters it can therefore read.
fn traced_run<T: Task>(
    spec: &PsSpec,
    task: &T,
    batch: &Batch<'_>,
    opts: &RunOptions,
    tracer: &Tracer,
    run: u64,
    tally: &mut Tally,
) -> Result<RunReport, String> {
    let shards = make_shards(batch, spec.shards);
    let w0 = task.init_model();
    let server =
        Arc::new(Mutex::new(ParamServer::new(w0.clone(), spec.alpha, spec.mode, shards.len())));
    let front = DistWireServer::new(Arc::clone(&server));
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let lock = || server.lock().expect("no thread panics holding the server lock");

    let mut eval = CpuExec::seq();
    let mut trace = sgd_core::LossTrace::new();
    let initial_loss = task.loss(&mut eval, batch, &w0);
    trace.push(0.0, initial_loss);
    let stop_loss = opts.stop_loss().expect("the workload sets a target");
    let worker_failed = AtomicBool::new(false);
    let (mut samples, mut busy, mut flushed) = (0u64, 0u64, 0u64);
    let mut converged = false;
    let order: Vec<usize> = (0..shards.len()).collect();
    let start = Instant::now();
    let mut elapsed = 0.0;

    let workers: Vec<Result<WorkerCounts, String>> = std::thread::scope(|s| {
        let serving = s.spawn(|| front.serve_connections(&listener, WORKERS));
        let handles: Vec<_> = (0..WORKERS)
            .map(|id| {
                let (shards, worker_failed) = (&shards, &worker_failed);
                s.spawn(move || traced_worker(id, addr, task, shards, tracer, run, worker_failed))
            })
            .collect();
        for _epoch in 0..opts.max_epochs {
            lock().begin_epoch(&order);
            // Wait for the epoch, sampling whether the server lock is
            // held each time the coordinator looks.
            loop {
                samples += 1;
                match server.try_lock() {
                    Ok(srv) if srv.epoch_done() => break,
                    Ok(_) => {}
                    Err(TryLockError::WouldBlock) => busy += 1,
                    Err(TryLockError::Poisoned(_)) => break,
                }
                if worker_failed.load(Ordering::SeqCst)
                    || start.elapsed().as_secs_f64() > opts.max_secs
                {
                    break;
                }
                std::thread::sleep(POLL);
            }
            elapsed = start.elapsed().as_secs_f64();
            let loss = {
                let mut srv = lock();
                if !srv.epoch_done() {
                    break;
                }
                let before = srv.stats().applied;
                srv.flush_pending();
                flushed += srv.stats().applied - before;
                task.loss(&mut eval, batch, srv.model())
            };
            trace.push(elapsed, loss);
            tally.epochs += 1;
            if loss <= stop_loss {
                converged = true;
                break;
            }
            if !loss.is_finite() {
                break;
            }
        }
        lock().initiate_shutdown();
        let workers = handles.into_iter().map(|h| h.join().expect("worker thread")).collect();
        let _ = serving.join().expect("server thread");
        workers
    });

    let stats = lock().stats();
    tally.lock_samples += samples;
    tally.lock_busy += busy;
    tally.flushed += flushed;
    let mut run_counts = WorkerCounts::default();
    for w in workers {
        run_counts.add(&w?);
    }
    tally.workers.add(&run_counts);
    let (pushes, accepted) = (run_counts.pushes, run_counts.accepted);
    tally.stats.applied += stats.applied;
    tally.stats.accumulated += stats.accumulated;
    tally.stats.rejected += stats.rejected;
    tally.stats.downweighted += stats.downweighted;
    let epochs = trace.epochs() as u64;
    if accepted != spec.shards as u64 * epochs {
        tally.conservation_broken.get_or_insert(format!(
            "run {run}: {accepted} accepted pushes over {epochs} epochs of {} shards",
            spec.shards
        ));
    }
    // Every push ends applied, accumulated or rejected (a down-weighted
    // one is counted among the applied); the flushes applied without one.
    if stats.applied + stats.accumulated + stats.rejected != pushes + flushed {
        tally.conservation_broken.get_or_insert(format!(
            "run {run}: {} applied + {} accumulated + {} rejected != {pushes} pushes + {flushed} flushes",
            stats.applied, stats.accumulated, stats.rejected
        ));
    }
    Ok(RunReport {
        label: format!("LR dist-{} x{WORKERS} (benchmark's traced copy)", spec.mode.label()),
        device: sgd_core::DeviceKind::CpuSeq,
        step_size: spec.alpha,
        trace,
        opt_seconds: elapsed,
        timed_out: !converged,
        metrics: sgd_core::RunMetrics::default(),
        outcome: if converged { RunOutcome::Converged } else { RunOutcome::BudgetExhausted },
        best_model: None,
    })
}

fn hex_line(prefix: &str, values: &[f64]) -> String {
    use std::fmt::Write as _;
    let mut line = String::with_capacity(prefix.len() + 17 * values.len() + 1);
    line.push_str(prefix);
    for v in values {
        let _ = write!(line, " {:016x}", v.to_bits());
    }
    line.push('\n');
    line
}

fn per_layer(
    spec: &PsSpec,
    ctx: &Ctx<'_>,
    inputs: &Inputs,
    base: &Runs,
    traced: &Runs,
    tally: &Tally,
    out: &mut Outcome,
) {
    let task = lr(inputs.data.d());
    let batch = inputs.data.batch();
    let dim = inputs.data.d();
    let epochs = tally.epochs.max(1) as f64;
    traced.set_traced(base, out);
    out.set("datagen.generate_s", inputs.generate_s);
    out.check(
        "accepted pushes == shards x epochs; applied + accumulated + rejected == pushes",
        tally.conservation_broken.is_none(),
        tally
            .conservation_broken
            .clone()
            .unwrap_or_else(|| format!("{} pushes", tally.workers.pushes)),
    );

    // Counters.
    out.set("dist.server.applied", tally.stats.applied as f64);
    out.set("dist.server.accumulated", tally.stats.accumulated as f64);
    out.set("dist.server.rejected_stale", tally.stats.rejected as f64);
    out.set("dist.server.downweighted", tally.stats.downweighted as f64);
    out.set("dist.worker.recomputes", tally.workers.recomputes as f64);
    out.set(
        "dist.worker.useful_push_frac",
        tally.workers.accepted as f64 / tally.workers.pushes.max(1) as f64,
    );
    out.set("dist.wire.calls_per_epoch", tally.workers.calls as f64 / epochs);
    out.set("dist.wire.bytes_per_epoch", tally.workers.wire_bytes as f64 / epochs);
    out.set(
        "dist.server.lock_busy_frac",
        tally.lock_busy as f64 / tally.lock_samples.max(1) as f64,
    );

    // The worker path, from the spans: a worker's wall time is its calls
    // plus what is left, the named residual `idle` (explicit polling
    // sleeps, connect, join and leave, loop glue).
    let (spans, _) = ctx.tracer.snapshot();
    let by_name = totals_by_name(&spans);
    let total_ms = |name: &str| by_name.get(name).map_or(0.0, |t| t.total_ns as f64 / 1.0e6);
    let count = |name: &str| by_name.get(name).map_or(0.0, |t| t.count as f64);
    // Per epoch and worker: the mean over the traced leg.
    let per_epoch = |ms: f64| ms / epochs / WORKERS as f64;
    let wall_ms = per_epoch(total_ms("dist.worker"));
    let calls = [
        ("dist.worker.pull", "dist.worker.pull_ms", "dist.worker.pull_share"),
        ("dist.worker.lease", "dist.worker.lease_ms", "dist.worker.lease_share"),
        ("dist.worker.compute", "dist.worker.compute_ms", "dist.worker.compute_share"),
        ("dist.worker.push", "dist.worker.push_ms", "dist.worker.push_share"),
    ];
    let mut layers = Vec::new();
    for (span, metric, share) in calls {
        let ms = per_epoch(total_ms(span));
        out.set(metric, ms);
        out.set(share, ms / wall_ms);
        layers.push((metric, ms));
    }
    if let Some(idle) =
        path_residual(out, "ps worker path", wall_ms, &layers, "dist.worker.idle_ms")
    {
        out.set("dist.worker.idle_ms", idle);
        out.set("dist.worker.idle_share", idle / wall_ms);
    }
    // How much of a worker's wall no span covers at all.
    let uncovered =
        by_name.get("dist.worker").map_or(0.0, |t| t.self_ns as f64 / t.total_ns.max(1) as f64);
    out.set("dist.worker.untraced_share", uncovered);
    out.check(
        "ps worker path: spans cover the worker's wall time",
        uncovered < 0.05,
        format!("{:.2} % of worker wall time outside any span", uncovered * 100.0),
    );

    // Isolated replays: the same verbs against an in-memory server.
    let budget = ctx.replay_budget(6);
    let w0 = task.init_model();
    let fresh =
        || Arc::new(Mutex::new(ParamServer::new(w0.clone(), spec.alpha, spec.mode, spec.shards)));
    let grad: Vec<f64> = (0..dim).map(|i| 1.0e-3 * ((i % 7) as f64 - 3.0)).collect();
    // A batch is sized so one script stays near 3 MB.
    let per_batch = (3_000_000 / (17 * dim)).clamp(4, 64);

    let pull_script = "PULL\n".repeat(per_batch);
    let mut sink = Vec::with_capacity(per_batch * (17 * dim + 32));
    let front = DistWireServer::new(fresh());
    let wire_pull_s = per_call_secs(budget, || {
        sink.clear();
        front.serve_lines(Cursor::new(pull_script.as_bytes()), &mut sink).expect("in-memory serve");
    }) / per_batch as f64;

    // Each push must carry the version the server is at: a fresh server
    // per batch, and versions 0, 1, 2, ... in the script (with no worker
    // joined a sync quorum is one gradient, so every push applies).
    let push_script: String =
        (0..per_batch).map(|v| hex_line(&format!("PUSH 0 {v} 0"), &grad)).collect();
    let wire_push_s = median_secs(budget, || {
        let front = DistWireServer::new(fresh());
        sink.clear();
        let (handled, secs) =
            timed(|| front.serve_lines(Cursor::new(push_script.as_bytes()), &mut sink));
        assert_eq!(handled.expect("in-memory serve"), per_batch);
        secs
    }) / per_batch as f64;
    assert!(sink.starts_with(b"PUSHED APPLIED"), "scripted pushes must apply");

    let mut inproc = InProcTransport::new(fresh());
    let inproc_pull_s = per_call_secs(budget, || {
        std::hint::black_box(inproc.call(Request::Pull).expect("in-process call"));
    });
    let inproc_push_s = median_secs(budget, || {
        let mut t = InProcTransport::new(fresh());
        let requests: Vec<Request> = (0..per_batch as u64)
            .map(|version| Request::Push { worker: 0, version, shard: 0, grad: grad.clone() })
            .collect();
        let ((), secs) = timed(|| {
            for r in requests {
                std::hint::black_box(t.call(r).expect("in-process call"));
            }
        });
        secs
    }) / per_batch as f64;

    out.set("dist.wire.server_pull_us", wire_pull_s * 1.0e6);
    out.set("dist.wire.server_push_us", wire_push_s * 1.0e6);
    out.set("dist.server.pull_us", inproc_pull_s * 1.0e6);
    out.set("dist.server.push_us", inproc_push_s * 1.0e6);
    let codec_pull_s = (wire_pull_s - inproc_pull_s).max(0.0);
    let codec_push_s = (wire_push_s - inproc_push_s).max(0.0);
    out.set("dist.wire.codec_pull_us", codec_pull_s * 1.0e6);
    out.set("dist.wire.codec_push_us", codec_push_s * 1.0e6);

    // What a worker's calls spend outside both ends' code: the call time
    // minus the server's in-memory time for the verb and the client's own
    // codec, taken to cost what the server's costs for the same line (a
    // client parses the MODEL line a server encodes, and encodes the PUSH
    // line a server parses). A lease's in-memory time is a table lookup
    // and is not subtracted.
    let pulls = per_epoch(count("dist.worker.pull"));
    let pushes = per_epoch(count("dist.worker.push"));
    let both_ends_ms =
        (pulls * (wire_pull_s + codec_push_s) + pushes * (wire_push_s + codec_pull_s)) * 1.0e3;
    let call_ms: f64 = ["dist.worker.pull", "dist.worker.lease", "dist.worker.push"]
        .iter()
        .map(|n| per_epoch(total_ms(n)))
        .sum();
    let code = [("both ends' code, ms", both_ends_ms)];
    if let Some(wait) = path_residual(out, "ps call path", call_ms, &code, "socket.ps_wait_ms") {
        out.set("socket.ps_wait_ms", wait);
    }

    out.set(
        "dist.shard.make_ms",
        per_call_secs(budget, || {
            std::hint::black_box(make_shards(&batch, spec.shards));
        }) * 1.0e3,
    );

    // The modeled cluster on trial: the same cell on the discrete-event
    // clock, beside the measurement.
    let modeled_opts =
        RunOptions { max_epochs: 3, target_loss: None, ..options(spec, inputs, ctx.seed) };
    let modeled = run_dist_modeled(
        &task,
        &batch,
        &spec.cluster(WORKERS, spec.mode),
        spec.alpha,
        &modeled_opts,
    );
    let modeled_ms = modeled.time_per_epoch() * 1.0e3;
    out.set("dist.modeled.epoch_ms", modeled_ms);
    out.set("dist.modeled.residual", base.median_epoch_us() / 1.0e3 / modeled_ms);
}
