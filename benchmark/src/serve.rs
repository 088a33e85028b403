//! The serving wire path: a trained, published model behind a
//! `WireServer` on loopback TCP, driven by closed-loop `WireClient`
//! connections (each sends its next line only after the reply: callers
//! of this server wait for a decision).
//!
//! An operation is one request (client-side send to reply); a target is
//! a client batch of [`BATCH_OPS`] consecutive requests, so
//! `time_to_target_s` is what a caller with sixteen rows to score waits —
//! the mean-sensitive counterpart of the percentile metrics.
//!
//! Every `OK` value is checked, as it arrives, to be bitwise the
//! benchmark's own `predict_batch` under a model revision that was
//! current between send and receive, and the revisions one connection
//! sees never go backwards.

use std::io::Cursor;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sgd_core::{
    BackendSession, ComputeBackend, Configuration, CostModel, DeviceKind, Engine, ExecTask,
    RunOptions, Strategy,
};
use sgd_datagen::{libsvm, Dataset, DatasetProfile};
use sgd_linalg::{CpuExec, Exec, Scalar};
use sgd_models::{lr, Examples};
use sgd_serve::framing::read_bounded_line;
use sgd_serve::wire::WireResponse;
use sgd_serve::{
    predict_workload, Checkpoint, CheckpointPublisher, ModelRegistry, ServableModel,
    TaskDescriptor, WireClient, WireConfig, WireServer,
};

use crate::inputs::{request_lines, LinearData};
use crate::json::Json;
use crate::measure::{
    overhead_frac, path_residual, per_call_secs, repeat_setup, set_op_metrics, set_target_metrics,
    timed, Ctx,
};
use crate::report::Outcome;
use crate::stats;
use crate::trace::{self, Tracer};

/// Requests in one client batch (the serving path's "target").
pub const BATCH_OPS: usize = 16;
const CONNECTIONS: usize = 2;
const REQUEST_LINES: usize = 2048;
/// Untimed requests per connection before the window opens. Each costs
/// two delayed-ACK stalls today and set-up is repeated, so eight — enough
/// to fault in both sides' buffers — rather than more.
const WARMUP: usize = 8;
const TRAIN_EPOCHS: usize = 10;
const MODEL_NAME: &str = "m";
/// Models the hot-swap publisher cycles through, and its cadence.
const SWAP_MODELS: usize = 4;
const SWAP_EVERY: Duration = Duration::from_millis(100);
/// Latency samples one connection keeps. The pool is allocated and
/// touched before the first session and analysed in place, so the
/// benchmark's own memory (and with it `peak_rss_mb`) does not grow when
/// a faster server answers more requests; past the capacity, requests
/// are still sent and checked but their latencies only counted.
const LATENCY_CAPACITY: usize = 1 << 21;

pub struct ServeSpec {
    profile: fn() -> DatasetProfile,
    scale: f64,
    /// Whether a publisher hot-swaps the model while requests flow.
    swap: bool,
}

pub const NARROW: ServeSpec = ServeSpec { profile: DatasetProfile::w8a, scale: 0.2, swap: false };

pub const WIDE_SWAP: ServeSpec =
    ServeSpec { profile: DatasetProfile::rcv1, scale: 0.005, swap: true };

/// What set-up builds before the listener starts.
struct Inputs {
    data: LinearData,
    registry: ModelRegistry,
    lines: Vec<String>,
    generate_s: f64,
}

fn prepare(spec: &ServeSpec, seed: u64) -> Inputs {
    let (data, generate_s) = timed(|| LinearData::generate(&(spec.profile)(), spec.scale, seed));
    let registry = ModelRegistry::new();
    let task = lr(data.d());
    let descriptor = TaskDescriptor::LogisticRegression { dim: data.d() as u64 };
    let mut publisher = CheckpointPublisher::new(&registry, MODEL_NAME, descriptor);
    let opts = RunOptions { max_epochs: TRAIN_EPOCHS, plateau: None, seed, ..Default::default() };
    let cfg = Configuration::new(DeviceKind::CpuSeq, Strategy::Sync);
    Engine::run_observed(&cfg, &task, &data.batch(), 1.0, &opts, &mut publisher);
    assert!(publisher.published > 0, "training published no model: {:?}", publisher.last_error);
    let lines = request_lines(&data.ds, REQUEST_LINES, seed);
    Inputs { data, registry, lines, generate_s }
}

/// The checker's side of the inputs: each request line parsed, the swap
/// models, and the bit pattern every model must answer every line with.
struct Expected {
    rows: Vec<Dataset>,
    checkpoints: Vec<Checkpoint>,
    /// `bits[model][line]`.
    bits: Vec<Vec<u64>>,
}

impl Expected {
    fn build(inputs: &Inputs) -> Self {
        let dim = inputs.data.d();
        let rows: Vec<Dataset> = inputs
            .lines
            .iter()
            .map(|l| {
                libsvm::parse_str("request", l, dim).expect("generated lines are valid LIBSVM")
            })
            .collect();
        let trained = inputs.registry.get(MODEL_NAME).expect("training published a model");
        // Model 0 is the trained one; the others scale it by exactly
        // representable factors, so every model answers differently.
        let checkpoints: Vec<Checkpoint> = (0..SWAP_MODELS)
            .map(|k| {
                let factor = 1.0 + 0.125 * k as f64;
                let weights = trained.model.weights().iter().map(|w| w * factor).collect();
                Checkpoint::new(trained.model.descriptor(), weights).expect("same dimensions")
            })
            .collect();
        let bits = checkpoints
            .iter()
            .map(|ck| {
                let model = ServableModel::from_checkpoint(ck).expect("valid checkpoint");
                rows.iter()
                    .map(|r| {
                        let v = model.predict_batch(&mut CpuExec::seq(), &Examples::Sparse(&r.x));
                        v[0].to_bits()
                    })
                    .collect()
            })
            .collect();
        Expected { rows, checkpoints, bits }
    }
}

/// One hot-swap, as the publisher saw it.
#[derive(Clone, Copy)]
struct Swap {
    model: usize,
    /// Session-clock nanoseconds just before `ModelRegistry::publish` was
    /// called and just after it returned (`u64::MAX` until it has).
    start_ns: u64,
    end_ns: u64,
}

/// The publisher's log, read by the clients as replies arrive.
#[derive(Default)]
struct SwapLog {
    swaps: Mutex<Vec<Swap>>,
}

#[derive(Debug, PartialEq)]
enum Verdict {
    /// Correct under swap `index` (`None`: the model training published).
    Current(Option<usize>),
    /// Bitwise the answer of a model superseded before the request was
    /// sent.
    Stale,
    /// Bitwise the answer of a revision older than one this connection
    /// has already been served from.
    Backwards,
    Wrong,
}

/// Which revision answers with `bits`. `model_bits(m)` is what model `m`
/// must answer this line with; revision `None` (model 0) was current
/// until swap 0 returned, swap `j` from its start until swap `j + 1`
/// returned. A reply is `Current` under a revision that was current at
/// some moment between `send_ns` and `recv_ns` and is not older than
/// `seen`.
fn judge(
    swaps: &[Swap],
    model_bits: impl Fn(usize) -> u64,
    bits: u64,
    (send_ns, recv_ns): (u64, u64),
    seen: Option<usize>,
) -> Verdict {
    let mut stale = false;
    let mut backwards = false;
    for rev in std::iter::once(None).chain((0..swaps.len()).map(Some)) {
        if rev.is_some_and(|j| swaps[j].start_ns > recv_ns) {
            break;
        }
        if model_bits(rev.map_or(0, |j| swaps[j].model)) != bits {
            continue;
        }
        let next = rev.map_or(0, |j| j + 1);
        if swaps.get(next).is_some_and(|s| s.end_ns < send_ns) {
            stale = true;
        } else if rev < seen {
            backwards = true;
        } else {
            return Verdict::Current(rev);
        }
    }
    if backwards {
        Verdict::Backwards
    } else if stale {
        Verdict::Stale
    } else {
        Verdict::Wrong
    }
}

/// Counts of one connection over one phase.
#[derive(Clone, Copy, Default)]
struct Counts {
    sent: u64,
    ok: u64,
    busy: u64,
    err: u64,
    wrong: u64,
    stale: u64,
    backwards: u64,
    bytes_in: u64,
    unrecorded: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.busy += o.busy;
        self.err += o.err;
        self.wrong += o.wrong;
        self.stale += o.stale;
        self.backwards += o.backwards;
        self.bytes_in += o.bytes_in;
        self.unrecorded += o.unrecorded;
    }

    fn failed(&self) -> u64 {
        self.sent - self.ok
    }
}

enum Cmd {
    /// Send requests back to back until `until`.
    Run {
        until: Instant,
    },
    Quit,
}

struct PhaseDone {
    conn: usize,
    counts: Counts,
    /// This phase's samples within the connection's part of the pool.
    range: (usize, usize),
    first_failure: Option<String>,
}

/// What a client thread needs from its session.
struct ClientEnv<'a> {
    addr: SocketAddr,
    inputs: &'a Inputs,
    /// `None` in a set-up rehearsal, which warms up and quits.
    expected: Option<&'a Expected>,
    log: &'a SwapLog,
    clock: Instant,
    tracer: &'a Tracer,
}

/// One closed-loop connection: connects, warms up, then serves commands,
/// writing latencies (µs) into `samples`.
fn client_thread(
    conn: usize,
    env: &ClientEnv<'_>,
    samples: &mut [f64],
    ready: Sender<()>,
    cmds: Receiver<Cmd>,
    done: Sender<PhaseDone>,
) {
    let mut client = WireClient::connect(env.addr).expect("connect to the wire server");
    let lines = &env.inputs.lines;
    let mut next = conn * lines.len() / CONNECTIONS;
    for _ in 0..WARMUP {
        let resp = client.score(&lines[next % lines.len()]).expect("warm-up request");
        assert!(matches!(resp, WireResponse::Ok(_)), "warm-up answered {resp:?}");
        next += 1;
    }
    let mut lane = env.tracer.lane();
    let mut seen: Option<usize> = None;
    let mut recorded = 0usize;
    let mut op = 0u64;
    ready.send(()).expect("session is waiting for readiness");
    while let Ok(Cmd::Run { until }) = cmds.recv() {
        let expected = env.expected.expect("a session that runs phases has the checker's inputs");
        let mut counts = Counts::default();
        let mut first_failure = None;
        let from = recorded;
        while Instant::now() < until {
            let line = next % lines.len();
            next += 1;
            op += 1;
            let send = Instant::now();
            let resp = lane
                .span("serve.wire.request", op, |_| client.score(&lines[line]))
                .expect("request round trip");
            let recv = Instant::now();
            match samples.get_mut(recorded) {
                Some(slot) => {
                    *slot = (recv - send).as_secs_f64() * 1.0e6;
                    recorded += 1;
                }
                None => counts.unrecorded += 1,
            }
            counts.sent += 1;
            counts.bytes_in += lines[line].len() as u64 + 1;
            let problem = match resp {
                WireResponse::Ok(v) => {
                    let in_flight = (
                        (send - env.clock).as_nanos() as u64,
                        (recv - env.clock).as_nanos() as u64,
                    );
                    let swaps = env.log.swaps.lock().expect("swap log poisoned");
                    let verdict =
                        judge(&swaps, |m| expected.bits[m][line], v.to_bits(), in_flight, seen);
                    match verdict {
                        Verdict::Current(rev) => {
                            counts.ok += 1;
                            seen = rev;
                            None
                        }
                        Verdict::Stale => {
                            counts.stale += 1;
                            Some(format!("line {line}: {v} is a superseded model's answer"))
                        }
                        Verdict::Backwards => {
                            counts.backwards += 1;
                            Some(format!("line {line}: {v} is from before revision {seen:?}"))
                        }
                        Verdict::Wrong => {
                            counts.wrong += 1;
                            Some(format!("line {line}: {v} matches no revision current in flight"))
                        }
                    }
                }
                WireResponse::Busy { .. } => {
                    counts.busy += 1;
                    Some(format!("line {line}: BUSY"))
                }
                WireResponse::Err { detail, .. } => {
                    counts.err += 1;
                    Some(format!("line {line}: ERR {detail}"))
                }
            };
            if first_failure.is_none() {
                first_failure = problem;
            }
        }
        done.send(PhaseDone { conn, counts, range: (from, recorded), first_failure })
            .expect("session collects phases");
    }
}

/// The hot-swap publisher: every [`SWAP_EVERY`] pushes the next model
/// through the full reload path.
fn publisher_thread(
    registry: &ModelRegistry,
    checkpoints: &[Checkpoint],
    log: &SwapLog,
    clock: Instant,
    tracer: &Tracer,
    stop: &AtomicBool,
) {
    let mut lane = tracer.lane();
    let mut last_revision = registry.get(MODEL_NAME).map_or(0, |m| m.revision);
    let mut k = 0usize;
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(SWAP_EVERY);
        k += 1;
        let model = k % checkpoints.len();
        let op = k as u64;
        let bytes = lane.span("serve.checkpoint.encode", op, |_| checkpoints[model].to_bytes());
        let decoded = lane
            .span("serve.checkpoint.decode", op, |_| Checkpoint::from_bytes(&bytes))
            .expect("a checkpoint round-trips its own bytes");
        let servable = lane
            .span("serve.model.build", op, |_| ServableModel::from_checkpoint(&decoded))
            .expect("valid checkpoint");
        let index = {
            let mut swaps = log.swaps.lock().expect("swap log poisoned");
            swaps.push(Swap {
                model,
                start_ns: clock.elapsed().as_nanos() as u64,
                end_ns: u64::MAX,
            });
            swaps.len() - 1
        };
        let revision = lane.span("serve.registry.publish", op, |_| {
            registry.publish(MODEL_NAME, servable, k, f64::NAN)
        });
        log.swaps.lock().expect("swap log poisoned")[index].end_ns =
            clock.elapsed().as_nanos() as u64;
        assert_eq!(revision, last_revision + 1, "the registry numbers publications in order");
        last_revision = revision;
    }
}

/// A live session: the server, its connections and (for the swap
/// workload) the publisher, all running.
struct Session<'a> {
    cmds: &'a [Sender<Cmd>],
    done: &'a Receiver<PhaseDone>,
}

/// One phase's pooled result.
#[derive(Default)]
struct Phase {
    counts: Counts,
    /// Per connection, the range of its pool part this phase filled.
    ranges: Vec<(usize, (usize, usize))>,
    secs: f64,
    first_failure: Option<String>,
}

impl Session<'_> {
    /// Runs the first `connections` clients for `dur`.
    fn phase(&self, connections: usize, dur: Duration) -> Phase {
        let start = Instant::now();
        let until = start + dur;
        for tx in &self.cmds[..connections] {
            tx.send(Cmd::Run { until }).expect("client is alive");
        }
        let mut phase = Phase::default();
        for _ in 0..connections {
            let d = self.done.recv().expect("client finishes its phase");
            phase.counts.add(&d.counts);
            phase.ranges.push((d.conn, d.range));
            if phase.first_failure.is_none() {
                phase.first_failure = d.first_failure;
            }
        }
        phase.secs = start.elapsed().as_secs_f64();
        phase
    }
}

/// What a finished session reports beside its body's result.
struct SessionEnd {
    /// Request lines the server says it handled.
    handled: usize,
    swaps: usize,
}

/// Starts the listener, the server, the connections and the publisher,
/// waits until every connection has warmed up, runs `body`, and shuts
/// everything down.
fn session<R>(
    spec: &ServeSpec,
    inputs: &Inputs,
    expected: Option<&Expected>,
    pool: &mut [f64],
    tracer: &Tracer,
    body: impl FnOnce(&Session<'_>) -> R,
) -> (R, SessionEnd) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address");
    let config = WireConfig { workers: CONNECTIONS, ..WireConfig::default() };
    let server = WireServer::with_config(&inputs.registry, MODEL_NAME, config);
    let log = SwapLog::default();
    let stop = AtomicBool::new(false);
    let env = ClientEnv { addr, inputs, expected, log: &log, clock: Instant::now(), tracer };
    let part = pool.len() / CONNECTIONS;
    std::thread::scope(|s| {
        let serving = s.spawn(|| server.serve_connections(&listener, CONNECTIONS));
        let (ready_tx, ready_rx) = channel();
        let (done_tx, done_rx) = channel();
        let mut cmds = Vec::new();
        let mut parts = pool.chunks_mut(part.max(1));
        for conn in 0..CONNECTIONS {
            let (tx, rx) = channel();
            cmds.push(tx);
            let samples = parts.next().unwrap_or_default();
            let (env, ready_tx, done_tx) = (&env, ready_tx.clone(), done_tx.clone());
            s.spawn(move || client_thread(conn, env, samples, ready_tx, rx, done_tx));
        }
        let publisher = expected.filter(|_| spec.swap).map(|expected| {
            let (env, stop) = (&env, &stop);
            s.spawn(move || {
                publisher_thread(
                    &inputs.registry,
                    &expected.checkpoints,
                    env.log,
                    env.clock,
                    tracer,
                    stop,
                )
            })
        });
        for _ in 0..CONNECTIONS {
            ready_rx.recv().expect("every connection warms up");
        }
        let out = body(&Session { cmds: &cmds, done: &done_rx });
        stop.store(true, Ordering::SeqCst);
        for tx in &cmds {
            tx.send(Cmd::Quit).expect("client is alive");
        }
        if let Some(p) = publisher {
            p.join().expect("publisher thread");
        }
        // A client drops its connection on Quit; the server returns once
        // it has seen every connection close.
        let handled = serving.join().expect("server thread").expect("server I/O");
        let swaps = log.swaps.lock().expect("swap log poisoned").len();
        (out, SessionEnd { handled, swaps })
    })
}

/// The samples of one phase, as one slice per connection.
fn phase_parts<'p>(pool: &'p mut [f64], phase: &Phase) -> Vec<&'p mut [f64]> {
    let part = pool.len() / CONNECTIONS;
    let mut parts: Vec<Option<&mut [f64]>> = pool.chunks_mut(part.max(1)).map(Some).collect();
    phase
        .ranges
        .iter()
        .map(|&(conn, (from, to))| {
            let whole = parts[conn].take().expect("one range per connection and phase");
            &mut whole[from..to]
        })
        .collect()
}

/// The samples of one phase, each connection's sorted in place.
fn sorted_parts<'p>(pool: &'p mut [f64], phase: &Phase) -> Vec<&'p [f64]> {
    phase_parts(pool, phase)
        .into_iter()
        .map(|p| {
            p.sort_unstable_by(f64::total_cmp);
            &*p
        })
        .collect()
}

/// Wall seconds of each complete client batch (before the samples are
/// sorted: a batch is consecutive requests of one connection).
fn batch_secs(parts: &[&mut [f64]]) -> Vec<f64> {
    parts
        .iter()
        .flat_map(|p| p.chunks_exact(BATCH_OPS).map(|b| b.iter().sum::<f64>() / 1.0e6))
        .collect()
}

pub fn run(spec: &ServeSpec, ctx: &Ctx<'_>) -> Outcome {
    let mut out = Outcome::default();
    let off = Tracer::new(false);
    let mut pool = vec![1.0f64; CONNECTIONS * LATENCY_CAPACITY];

    // Set-up, repeated: everything from dataset generation to the last
    // warm-up reply of a session that is then shut down again. The
    // checker's own tables, and the session the window runs in, are built
    // outside it.
    let (inputs, setup_s) = repeat_setup(|| {
        let inputs = prepare(spec, ctx.seed);
        session(spec, &inputs, None, &mut [], &off, |_| ());
        inputs
    });
    out.set("setup_s", setup_s);
    let expected = Expected::build(&inputs);
    out.note("rows", Json::Num(inputs.data.n() as f64));
    out.note("features", Json::Num(inputs.data.d() as f64));
    out.note("connections", Json::Num(CONNECTIONS as f64));

    let (phases, end) = session(spec, &inputs, Some(&expected), &mut pool, ctx.tracer, |sess| {
        if ctx.traced() {
            let both = sess.phase(CONNECTIONS, ctx.traced_leg());
            // The connection left idle must not outlast the server's 5 s
            // read timeout.
            let single = sess.phase(1, ctx.untraced_leg().min(Duration::from_secs(3)));
            vec![both, single]
        } else {
            vec![sess.phase(CONNECTIONS, ctx.window())]
        }
    });

    let mut total = Counts::default();
    for p in &phases {
        total.add(&p.counts);
    }
    out.attempted = total.sent;
    out.failed = total.failed();
    let first_failure = phases.iter().find_map(|p| p.first_failure.clone());
    out.check(
        "each OK value is bitwise predict_batch under a revision current in flight",
        total.wrong == 0 && total.stale == 0,
        first_failure.clone().unwrap_or_else(|| format!("{} replies checked", total.ok)),
    );
    out.check(
        "revisions never go backwards on a connection",
        total.backwards == 0,
        format!("{} hot-swaps observed", end.swaps),
    );
    let answered = total.ok + total.wrong + total.stale + total.backwards + total.busy + total.err;
    out.check("ok + busy + err == sent", answered == total.sent, format!("{} sent", total.sent));
    out.check(
        "no request was refused or failed",
        total.busy + total.err == 0,
        first_failure.unwrap_or_default(),
    );
    let expected_handled = total.sent as usize + CONNECTIONS * WARMUP;
    out.check(
        "the server handled every line the clients sent",
        end.handled == expected_handled,
        format!("{} handled, {expected_handled} sent", end.handled),
    );
    if spec.swap {
        out.check(
            "the publisher hot-swapped while requests flowed",
            end.swaps > 0,
            format!("{} publications", end.swaps),
        );
    }
    out.note("latency_samples_unrecorded", Json::Num(total.unrecorded as f64));

    if ctx.traced() {
        let seen = Observed { phases, end, total };
        per_layer(spec, ctx, &inputs, &expected, &mut pool, &seen, &mut out);
    } else {
        let window = &phases[0];
        let batches = batch_secs(&phase_parts(&mut pool, window));
        set_op_metrics(&mut out, &sorted_parts(&mut pool, window));
        out.set("ops_per_s", window.counts.ok as f64 / window.secs);
        set_target_metrics(&mut out, &vec![BATCH_OPS as f64; batches.len()], &batches);
    }
    out
}

/// Scoring one parsed request as a backend job, as the server does.
struct Score<'a> {
    model: &'a ServableModel,
    x: &'a Examples<'a>,
}

impl ExecTask for Score<'_> {
    type Out = Vec<Scalar>;
    fn run<E: Exec>(&mut self, e: &mut E) -> Vec<Scalar> {
        self.model.predict_batch(e, self.x)
    }
}

/// What the measured session produced.
struct Observed {
    phases: Vec<Phase>,
    end: SessionEnd,
    total: Counts,
}

/// The traced run's per-layer figures.
fn per_layer(
    spec: &ServeSpec,
    ctx: &Ctx<'_>,
    inputs: &Inputs,
    expected: &Expected,
    pool: &mut [f64],
    seen: &Observed,
    out: &mut Outcome,
) {
    let Observed { phases, end, total } = seen;
    let n_lines = inputs.lines.len() as f64;
    let dim = inputs.data.d();
    out.set("datagen.generate_s", inputs.generate_s);
    out.set("fail_frac", total.failed() as f64 / total.sent.max(1) as f64);
    out.set("serve.wire.requests", total.sent as f64);
    out.set("serve.wire.ok", total.ok as f64);
    out.set("serve.wire.busy", total.busy as f64);
    out.set("serve.wire.err", total.err as f64);
    out.set("serve.wire.bytes_in_per_req", total.bytes_in as f64 / total.sent.max(1) as f64);
    let reply_bytes: usize =
        expected.bits[0].iter().map(|&b| format!("OK {}", f64::from_bits(b)).len() + 1).sum();
    out.set("serve.wire.bytes_out_per_req", reply_bytes as f64 / n_lines);
    out.set("serve.registry.publishes", end.swaps as f64);
    out.set("serve.registry.stale_replies", total.stale as f64);

    // The traced legs: both connections, then one alone.
    let single_p50 = stats::percentile_of_parts(&sorted_parts(pool, &phases[1]), 50.0);
    let traced_p50 = {
        let parts = sorted_parts(pool, &phases[0]);
        match stats::supported_percentile(&parts, 99.0) {
            Ok(p99) => out.set("serve.wire.lat_p99_us", p99),
            Err(e) => out.note(
                "serve.wire.lat_p99_us refused",
                Json::str(format!(
                    "{} samples leave {} beyond p99; reported as 0",
                    e.samples, e.beyond
                )),
            ),
        }
        stats::percentile_of_parts(&parts, 50.0)
    };
    out.set("traced.op_p50_us", traced_p50);
    out.set("serve.wire.lat_p50_1conn_us", single_p50);
    reload_path(&ctx.tracer.snapshot().0, out);

    // Tracing overhead: the same two connections with spans off, on a
    // short session of their own.
    let off = Tracer::new(false);
    let (base, _) = session(spec, inputs, Some(expected), pool, &off, |sess| {
        sess.phase(CONNECTIONS, ctx.untraced_leg())
    });
    let base_p50 = stats::percentile_of_parts(&sorted_parts(pool, &base), 50.0);
    out.set("trace.overhead_frac", overhead_frac(base_p50, traced_p50));

    // Isolated replays of the workload's own lines through each layer.
    let budget = ctx.replay_budget(6);
    let mut script = inputs.lines.join("\n");
    script.push('\n');
    let per_line = |secs: f64| secs / n_lines * 1.0e9;

    let mut buf = Vec::new();
    let framing_ns = per_line(per_call_secs(budget, || {
        let mut reader = Cursor::new(script.as_bytes());
        let max = WireConfig::default().max_line_bytes;
        while read_bounded_line(&mut reader, max, &mut buf).expect("in-memory read").is_some() {
            std::hint::black_box(&buf);
        }
    }));
    let parse_ns = per_line(per_call_secs(budget, || {
        for l in &inputs.lines {
            std::hint::black_box(libsvm::parse_str("wire", l, dim).expect("valid line"));
        }
    }));
    let registry = &inputs.registry;
    let get = || {
        std::hint::black_box(registry.get(MODEL_NAME));
    };
    let get_ns = per_call_secs(budget, get) * 1.0e9;
    let snapshot = registry.get(MODEL_NAME).expect("a model is published");
    let mut scratch = BackendSession::new();
    let predict_ns = per_line(per_call_secs(budget, || {
        for r in &expected.rows {
            let x = Examples::Sparse(&r.x);
            let mut job = Score { model: &snapshot.model, x: &x };
            std::hint::black_box(ComputeBackend::CpuSeq.dispatch(&mut scratch, &mut job).out);
        }
    }));
    let server = WireServer::with_config(registry, MODEL_NAME, WireConfig::default());
    let mut sink = Vec::with_capacity(64 * inputs.lines.len());
    let core_ns = per_line(per_call_secs(budget, || {
        sink.clear();
        let handled =
            server.serve_lines(Cursor::new(script.as_bytes()), &mut sink).expect("in-memory serve");
        assert_eq!(handled, inputs.lines.len());
    }));
    out.set("serve.framing.read_line_ns", framing_ns);
    out.set("datagen.libsvm.parse_ns", parse_ns);
    out.set("serve.registry.get_ns", get_ns);
    out.set("serve.model.predict_ns", predict_ns);
    out.set("serve.wire.core_ns", core_ns);

    if spec.swap {
        // `get` beside a publisher swapping at the workload's cadence.
        let (stop, log) = (AtomicBool::new(false), SwapLog::default());
        let under_ns = std::thread::scope(|s| {
            let publisher = s.spawn(|| {
                publisher_thread(registry, &expected.checkpoints, &log, Instant::now(), &off, &stop)
            });
            let ns = per_call_secs(budget.max(3 * SWAP_EVERY), get) * 1.0e9;
            stop.store(true, Ordering::SeqCst);
            publisher.join().expect("publisher thread");
            ns
        });
        out.set("serve.registry.get_under_publish_ns", under_ns);
    }

    // Server side: core = framing + parse + get + predict + the
    // server's own remainder (in-flight lock, reply formatting,
    // write). Client side: latency = core + the socket wait.
    let layers = [
        ("serve.framing.read_line_ns", framing_ns),
        ("datagen.libsvm.parse_ns", parse_ns),
        ("serve.registry.get_ns", get_ns),
        ("serve.model.predict_ns", predict_ns),
    ];
    if let Some(own) = path_residual(out, "serve core", core_ns, &layers, "serve.wire.self_ns") {
        out.set("serve.wire.self_ns", own);
    }
    let core = [("serve.wire.core_us", core_ns / 1.0e3)];
    if let Some(wait) = path_residual(out, "serve path", single_p50, &core, "socket.serve_wait_us")
    {
        out.set("socket.serve_wait_us", wait);
    }

    // The cost model on trial: its price for the same one-row
    // predicts, beside what they measured.
    let model = CostModel::default();
    let modeled_us = expected
        .rows
        .iter()
        .map(|r| {
            let w = predict_workload(&snapshot.model, &Examples::Sparse(&r.x));
            model.estimate_secs(&ComputeBackend::CpuSeq, &w)
        })
        .sum::<f64>()
        / n_lines
        * 1.0e6;
    out.set("core.costmodel.serve_predict_us", modeled_us);
    out.set("core.costmodel.serve_residual", predict_ns / 1.0e3 / modeled_us);
}

/// Per-swap medians of the reload path, from the publisher's spans.
fn reload_path(spans: &[trace::Span], out: &mut Outcome) {
    for (span, metric) in [
        ("serve.checkpoint.encode", "serve.checkpoint.encode_us"),
        ("serve.checkpoint.decode", "serve.checkpoint.decode_us"),
        ("serve.model.build", "serve.model.build_us"),
        ("serve.registry.publish", "serve.registry.publish_us"),
    ] {
        let durs: Vec<f64> =
            spans.iter().filter(|s| s.name == span).map(|s| s.dur_ns() as f64 / 1.0e3).collect();
        if durs.len() >= 5 {
            out.set(metric, stats::median(&durs));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: u64 = 10;
    const B: u64 = 20;

    fn bits_of(model: usize) -> u64 {
        [A, B][model % 2]
    }

    #[test]
    fn a_reply_must_match_a_revision_current_while_it_was_in_flight() {
        // The trained model (A) until swap 0 (model B) lands at 100..110;
        // swap 1 (model A again) lands at 200..210.
        let swaps = [
            Swap { model: 1, start_ns: 100, end_ns: 110 },
            Swap { model: 0, start_ns: 200, end_ns: 210 },
        ];
        // Before any swap: only the trained model can answer.
        assert_eq!(judge(&swaps, bits_of, A, (10, 50), None), Verdict::Current(None));
        assert_eq!(judge(&swaps, bits_of, B, (10, 50), None), Verdict::Wrong);
        // In flight across swap 0: either side of it is correct.
        assert_eq!(judge(&swaps, bits_of, A, (90, 120), None), Verdict::Current(None));
        assert_eq!(judge(&swaps, bits_of, B, (90, 120), None), Verdict::Current(Some(0)));
        // Sent after swap 0 returned: the trained model's answer is stale.
        assert_eq!(judge(&swaps, bits_of, A, (150, 160), None), Verdict::Stale);
        assert_eq!(judge(&swaps, bits_of, B, (150, 160), None), Verdict::Current(Some(0)));
        // After swap 1, A is current again — as revision 1, not the
        // trained model.
        assert_eq!(judge(&swaps, bits_of, A, (300, 310), Some(0)), Verdict::Current(Some(1)));
        assert_eq!(judge(&swaps, bits_of, B, (300, 310), Some(0)), Verdict::Stale);
    }

    #[test]
    fn a_connection_never_sees_an_older_revision_again() {
        let swaps = [Swap { model: 1, start_ns: 100, end_ns: u64::MAX }];
        // Swap 0 is still in progress, so both revisions are admissible —
        // but not the trained model once this connection was served swap 0.
        assert_eq!(judge(&swaps, bits_of, A, (120, 130), None), Verdict::Current(None));
        assert_eq!(judge(&swaps, bits_of, A, (120, 130), Some(0)), Verdict::Backwards);
        assert_eq!(judge(&swaps, bits_of, B, (120, 130), Some(0)), Verdict::Current(Some(0)));
    }
}
