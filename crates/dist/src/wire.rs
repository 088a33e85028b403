//! Loopback-TCP transport for the parameter server, served by
//! `sgd-serve`'s line server.
//!
//! Protocol: one request per line, one response line per request. Every
//! `f64` crosses the wire as the 16-hex-digit bit pattern of its IEEE
//! encoding (`{:016x}` of `to_bits`), so a value survives the round
//! trip *bitwise* — the property the 1-worker parity pin against the
//! modeled cluster rests on.
//!
//! * `JOIN <worker>` / `PULL` → `MODEL <version> <hex>...`
//! * `LEASE <worker>` → `LEASE SHARD <id>` | `LEASE DRAINED` |
//!   `LEASE SHUTDOWN`
//! * `PUSH <worker> <version> <shard> <hex>...` →
//!   `PUSHED APPLIED <version>` | `PUSHED ACC` | `PUSHED STALE <current>`
//!   | `PUSHED DW <version> <staleness>`
//! * `LEAVE <worker>` → `LEFT`
//! * anything else → `ERR <detail>`
//!
//! Elastic membership at the transport level: a connection that ends —
//! EOF, read timeout, or I/O error — with a `JOIN`ed worker that never
//! sent `LEAVE` is treated as a worker death, and the server revokes
//! its outstanding shard leases so survivors pick the work up. Request
//! semantics are [`serve_request`], the exact state machine the
//! in-process transport drives — the two transports cannot drift.
//!
//! The protocol is a [`Handler`] behind `sgd-serve`'s one
//! [`LineServer`]: the accept loop, bounded read, read timeout and reply
//! write are the scoring front-end's, and death-on-EOF is the handler's
//! end hook.
//!
//! Every wire byte flows through bounded, typed parsing: a malformed
//! line is an `ERR` response, never a panic, and this file is in the
//! analyzer's panic-freedom and indexing-ban scope.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sgd_core::{EpochLoop, EpochMetrics, EpochStep, Halt, NullObserver, RunOptions, RunReport};
use sgd_linalg::{CpuExec, Scalar};
use sgd_models::{Batch, Task};
use sgd_serve::framing::{lock_tolerant, Handler, LineServer};

use crate::modeled::{epoch_order, DistConfig};
use crate::server::{LeaseGrant, ParamServer, PushOutcome};
use crate::shard::make_shards;
use crate::transport::{serve_request, Reply, Request, Transport, TransportError};
use crate::worker::{DistWorker, WorkerStep};

/// How often wire-run threads poll for state they wait on (epoch
/// completion, a drained lease pool).
const POLL: Duration = Duration::from_micros(200);

/// Longest accepted request line, bytes: a model of dimension `d` takes
/// 17 bytes per weight on the wire, so this fits ~250k weights.
const MAX_LINE_BYTES: usize = 4 * 1024 * 1024;

/// Read timeout on accepted connections; an idle worker connection past
/// it counts as a death.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// The TCP front-end of one [`ParamServer`].
pub struct DistWireServer {
    lines: LineServer<PsProtocol>,
}

/// The parameter-server protocol: one request line in, one reply line
/// out, against the shared server.
struct PsProtocol {
    server: Arc<Mutex<ParamServer>>,
}

/// The worker a connection `JOIN`ed as, and whether it departed with
/// `LEAVE`; an unclean end revokes the membership.
#[derive(Default)]
struct Membership {
    joined: Option<usize>,
    departed: bool,
}

impl DistWireServer {
    /// A front-end over `server`. A worker connection is persistent, so
    /// every connection gets its own thread.
    pub fn new(server: Arc<Mutex<ParamServer>>) -> Self {
        let protocol = PsProtocol { server };
        DistWireServer {
            lines: LineServer::new(protocol, MAX_LINE_BYTES, Some(READ_TIMEOUT), usize::MAX),
        }
    }

    /// Accepts `connections` connections and serves each on its own
    /// scoped thread. Returns total lines handled.
    pub fn serve_connections(
        &self,
        listener: &TcpListener,
        connections: usize,
    ) -> std::io::Result<usize> {
        self.lines.serve_connections(listener, connections)
    }

    /// The transport-agnostic core: one request line in, one response
    /// line out, through a bounded buffer. Ending the stream (EOF,
    /// timeout, or error) with a joined worker that never sent `LEAVE`
    /// revokes that worker's membership and leases — death-on-EOF.
    pub fn serve_lines<R: BufRead, W: Write>(
        &self,
        reader: R,
        writer: W,
    ) -> std::io::Result<usize> {
        self.lines.serve_lines(reader, writer)
    }
}

impl Handler for PsProtocol {
    type Conn = Membership;

    // analyzer: root(panic-freedom) -- wire request callback: the LineServer trait edge runs against the crate dependency direction, so traversal re-anchors here
    fn answer(&self, conn: &mut Membership, line: &str, out: &mut String) {
        use std::fmt::Write as _;
        match parse_request(line) {
            Ok(req) => {
                match &req {
                    Request::Join { worker } => {
                        *conn = Membership { joined: Some(*worker), departed: false }
                    }
                    Request::Leave { worker } if conn.joined == Some(*worker) => {
                        conn.departed = true;
                    }
                    _ => {}
                }
                encode_reply(&serve_request(&self.server, req), out);
            }
            Err(msg) => {
                let _ = write!(out, "ERR {msg}");
            }
        }
    }

    fn hang_up(&self, conn: Membership) {
        if let Membership { joined: Some(worker), departed: false } = conn {
            lock_tolerant(&self.server).leave(worker);
        }
    }
}

fn parse_usize(tok: Option<&str>, what: &str) -> Result<usize, String> {
    tok.ok_or_else(|| format!("missing {what}"))?
        .parse::<usize>()
        .map_err(|_| format!("bad {what}"))
}

fn parse_u64(tok: Option<&str>, what: &str) -> Result<u64, String> {
    tok.ok_or_else(|| format!("missing {what}"))?.parse::<u64>().map_err(|_| format!("bad {what}"))
}

/// A weight or gradient component: 16 hex digits of the `f64` bit
/// pattern.
fn parse_hex_f64(tok: &str) -> Result<f64, String> {
    u64::from_str_radix(tok, 16).map(f64::from_bits).map_err(|_| format!("bad hex f64 '{tok}'"))
}

/// Parses one wire request line.
fn parse_request(line: &str) -> Result<Request, String> {
    let mut toks = line.split_whitespace();
    let verb = toks.next().ok_or_else(|| "empty request".to_string())?;
    match verb {
        "JOIN" => Ok(Request::Join { worker: parse_usize(toks.next(), "worker id")? }),
        "PULL" => Ok(Request::Pull),
        "LEASE" => Ok(Request::Lease { worker: parse_usize(toks.next(), "worker id")? }),
        "PUSH" => {
            let worker = parse_usize(toks.next(), "worker id")?;
            let version = parse_u64(toks.next(), "version")?;
            let shard = parse_usize(toks.next(), "shard id")?;
            let grad = toks.map(parse_hex_f64).collect::<Result<Vec<_>, _>>()?;
            Ok(Request::Push { worker, version, shard, grad })
        }
        "LEAVE" => Ok(Request::Leave { worker: parse_usize(toks.next(), "worker id")? }),
        other => Err(format!("unknown verb '{other}'")),
    }
}

/// Encodes one reply line into `out` (cleared by the caller).
fn encode_reply(reply: &Reply, out: &mut String) {
    use std::fmt::Write as _;
    match reply {
        Reply::Model { version, model } => {
            let _ = write!(out, "MODEL {version}");
            for v in model {
                let _ = write!(out, " {:016x}", v.to_bits());
            }
        }
        Reply::Lease(LeaseGrant::Shard(s)) => {
            let _ = write!(out, "LEASE SHARD {s}");
        }
        Reply::Lease(LeaseGrant::Drained) => out.push_str("LEASE DRAINED"),
        Reply::Lease(LeaseGrant::Shutdown) => out.push_str("LEASE SHUTDOWN"),
        Reply::Pushed(PushOutcome::Applied { version }) => {
            let _ = write!(out, "PUSHED APPLIED {version}");
        }
        Reply::Pushed(PushOutcome::Accumulated) => out.push_str("PUSHED ACC"),
        Reply::Pushed(PushOutcome::RejectedStale { current }) => {
            let _ = write!(out, "PUSHED STALE {current}");
        }
        Reply::Pushed(PushOutcome::DownWeighted { version, staleness }) => {
            let _ = write!(out, "PUSHED DW {version} {staleness}");
        }
        Reply::Left => out.push_str("LEFT"),
    }
}

/// Encodes one request line into `out` (cleared by the caller).
fn encode_request(req: &Request, out: &mut String) {
    use std::fmt::Write as _;
    match req {
        Request::Join { worker } => {
            let _ = write!(out, "JOIN {worker}");
        }
        Request::Pull => out.push_str("PULL"),
        Request::Lease { worker } => {
            let _ = write!(out, "LEASE {worker}");
        }
        Request::Push { worker, version, shard, grad } => {
            let _ = write!(out, "PUSH {worker} {version} {shard}");
            for g in grad {
                let _ = write!(out, " {:016x}", g.to_bits());
            }
        }
        Request::Leave { worker } => {
            let _ = write!(out, "LEAVE {worker}");
        }
    }
}

/// Parses one reply line (client side).
fn parse_reply(line: &str) -> Result<Reply, TransportError> {
    let bad = |detail: &str| TransportError(format!("{detail}: '{line}'"));
    let mut toks = line.split_whitespace();
    match toks.next() {
        Some("MODEL") => {
            let version = parse_u64(toks.next(), "version").map_err(TransportError)?;
            let model =
                toks.map(parse_hex_f64).collect::<Result<Vec<_>, _>>().map_err(TransportError)?;
            Ok(Reply::Model { version, model })
        }
        Some("LEASE") => match toks.next() {
            Some("SHARD") => Ok(Reply::Lease(LeaseGrant::Shard(
                parse_usize(toks.next(), "shard id").map_err(TransportError)?,
            ))),
            Some("DRAINED") => Ok(Reply::Lease(LeaseGrant::Drained)),
            Some("SHUTDOWN") => Ok(Reply::Lease(LeaseGrant::Shutdown)),
            _ => Err(bad("bad lease reply")),
        },
        Some("PUSHED") => match toks.next() {
            Some("APPLIED") => Ok(Reply::Pushed(PushOutcome::Applied {
                version: parse_u64(toks.next(), "version").map_err(TransportError)?,
            })),
            Some("ACC") => Ok(Reply::Pushed(PushOutcome::Accumulated)),
            Some("STALE") => Ok(Reply::Pushed(PushOutcome::RejectedStale {
                current: parse_u64(toks.next(), "version").map_err(TransportError)?,
            })),
            Some("DW") => Ok(Reply::Pushed(PushOutcome::DownWeighted {
                version: parse_u64(toks.next(), "version").map_err(TransportError)?,
                staleness: parse_u64(toks.next(), "staleness").map_err(TransportError)?,
            })),
            _ => Err(bad("bad push reply")),
        },
        Some("LEFT") => Ok(Reply::Left),
        Some("ERR") => Err(bad("server error")),
        _ => Err(bad("unparseable reply")),
    }
}

/// The TCP transport: one persistent connection per worker.
pub struct DistWireClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl DistWireClient {
    /// Connects to a [`DistWireServer`].
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(DistWireClient { writer, reader, line: String::new() })
    }
}

impl Transport for DistWireClient {
    fn call(&mut self, req: Request) -> Result<Reply, TransportError> {
        self.line.clear();
        encode_request(&req, &mut self.line);
        self.line.push('\n');
        self.writer
            .write_all(self.line.as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| TransportError(format!("send failed: {e}")))?;
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| TransportError(format!("recv failed: {e}")))?;
        if n == 0 {
            return Err(TransportError("server closed the connection".to_string()));
        }
        parse_reply(self.line.trim_end())
    }
}

/// A real multi-connection training run over loopback TCP: one
/// [`DistWireServer`] thread per worker connection, N worker threads
/// each driving a [`DistWorker`] over a [`DistWireClient`], and a
/// coordinator steering epochs. Reports wall-clock seconds (this runner
/// is the live-hardware counterpart of [`crate::run_dist_modeled`];
/// only `cfg.workers`, `cfg.shards`, and `cfg.mode` are read, and
/// `opts.faults` is ignored — transport-level churn is EOF-driven).
///
/// Functional guarantee rather than timing determinism: at 1 worker the
/// loss trajectory is bitwise the modeled runner's (pinned in this
/// module's tests); at N workers the interleaving is real and only
/// convergence is asserted.
pub fn run_dist_wire<T: Task>(
    task: &T,
    batch: &Batch<'_>,
    cfg: &DistConfig,
    alpha: f64,
    opts: &RunOptions,
) -> std::io::Result<RunReport> {
    let shards = make_shards(batch, cfg.shards.max(1));
    let workers = cfg.workers.max(1);
    let w0 = task.init_model();
    let server = Arc::new(Mutex::new(ParamServer::new(w0.clone(), alpha, cfg.mode, shards.len())));
    let front = DistWireServer::new(Arc::clone(&server));
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;

    let id = EpochLoop {
        label: format!("{} dist-{} x{} (wire)", task.name(), cfg.mode.label(), workers),
        device: sgd_core::DeviceKind::CpuSeq,
        step_size: alpha,
    };
    let worker_err: Mutex<Option<String>> = Mutex::new(None);
    let report = std::thread::scope(|s| {
        let serve = s.spawn(|| front.serve_connections(&listener, workers));
        for wk in 0..workers {
            let shards = &shards;
            let worker_err = &worker_err;
            s.spawn(move || {
                let outcome = (|| -> Result<(), TransportError> {
                    let client = DistWireClient::connect(addr)
                        .map_err(|e| TransportError(format!("connect: {e}")))?;
                    let mut w = DistWorker::new(wk, client);
                    w.join()?;
                    loop {
                        w.pull()?;
                        match w.work_one(task, shards)? {
                            WorkerStep::Worked { .. } => {}
                            WorkerStep::Drained => std::thread::sleep(POLL),
                            WorkerStep::Shutdown => break,
                        }
                    }
                    w.leave()
                })();
                if let Err(e) = outcome {
                    let mut slot = lock_tolerant(worker_err);
                    if slot.is_none() {
                        *slot = Some(e.to_string());
                    }
                }
            });
        }

        // The coordinator: steer epochs on the shared server handle.
        let mut step = Coordinator {
            task,
            batch,
            server: &server,
            worker_err: &worker_err,
            shards: shards.len(),
            seed: opts.seed,
            max_secs: opts.max_secs,
            eval: CpuExec::seq(),
            model: w0,
            order: Vec::new(),
            start: None,
        };
        let report = id.run(&mut step, opts, &mut NullObserver);
        lock_tolerant(&server).initiate_shutdown();
        let _ = serve.join();
        report
    });
    Ok(report)
}

/// The wire run's step: opens each epoch on the shared server and waits
/// for the worker threads to drain it. The clock is wall seconds since
/// the first epoch began.
struct Coordinator<'a, T: Task> {
    task: &'a T,
    batch: &'a Batch<'a>,
    server: &'a Mutex<ParamServer>,
    worker_err: &'a Mutex<Option<String>>,
    shards: usize,
    seed: u64,
    max_secs: f64,
    eval: CpuExec,
    /// The server's model as of the last completed epoch.
    model: Vec<Scalar>,
    order: Vec<usize>,
    start: Option<Instant>,
}

impl<T: Task> EpochStep for Coordinator<'_, T> {
    fn loss(&mut self) -> f64 {
        self.task.loss(&mut self.eval, self.batch, &self.model)
    }

    fn epoch(&mut self, epoch: usize, _m: &mut EpochMetrics) -> Result<f64, Halt> {
        let start = *self.start.get_or_insert_with(Instant::now);
        epoch_order(self.shards, self.seed, epoch, &mut self.order);
        lock_tolerant(self.server).begin_epoch(&self.order);
        let mut dead_cluster = false;
        loop {
            if lock_tolerant(self.server).epoch_done() {
                break;
            }
            // Two separate acquisitions: never hold the error slot while
            // taking the server lock.
            let errored = lock_tolerant(self.worker_err).is_some();
            dead_cluster = errored && lock_tolerant(self.server).live_workers() == 0;
            if dead_cluster || start.elapsed().as_secs_f64() > self.max_secs {
                break;
            }
            std::thread::sleep(POLL);
        }
        let clock = start.elapsed().as_secs_f64();
        let mut srv = lock_tolerant(self.server);
        if srv.epoch_done() {
            srv.flush_pending();
            self.model.copy_from_slice(srv.model());
            Ok(clock)
        } else if dead_cluster {
            // Every worker is gone with shards still pending.
            Err(Halt::FaultAborted { clock })
        } else {
            Err(Halt::OutOfTime { clock })
        }
    }

    fn model(&self) -> &[Scalar] {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use sgd_core::RunOutcome;
    use sgd_linalg::{Matrix, Scalar};
    use sgd_models::{lr, Examples};

    use super::*;
    use crate::modeled::run_dist_modeled;
    use crate::server::ConsistencyMode;

    fn fixture() -> (Matrix, Vec<Scalar>) {
        let n = 48;
        let d = 5;
        let x = Matrix::from_fn(n, d, |i, j| {
            let s = if i % 2 == 0 { 1.0 } else { -1.0 };
            s * (((i * d + j) % 7) as Scalar + 1.0) / 7.0
        });
        let y = (0..n).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        (x, y)
    }

    fn hex(v: f64) -> String {
        format!("{:016x}", v.to_bits())
    }

    #[test]
    fn the_line_protocol_round_trips_bitwise() {
        let server = Arc::new(Mutex::new(ParamServer::new(
            vec![0.5, -1.25],
            1.0,
            ConsistencyMode::Sync { grads_to_wait: 1 },
            1,
        )));
        lock_tolerant(&server).begin_epoch(&[0]);
        let front = DistWireServer::new(server);
        let script = format!(
            "JOIN 0\nLEASE 0\nPUSH 0 0 0 {} {}\nPULL\nLEAVE 0\nNONSENSE\n",
            hex(1.0),
            hex(2.0)
        );
        let mut out = Vec::new();
        let handled = front.serve_lines(BufReader::new(script.as_bytes()), &mut out).expect("io");
        assert_eq!(handled, 6);
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], format!("MODEL 0 {} {}", hex(0.5), hex(-1.25)));
        assert_eq!(lines[1], "LEASE SHARD 0");
        assert_eq!(lines[2], "PUSHED APPLIED 1");
        // w -= 1.0 * grad, exactly: 0.5 - 1.0 = -0.5; -1.25 - 2.0 = -3.25.
        assert_eq!(lines[3], format!("MODEL 1 {} {}", hex(-0.5), hex(-3.25)));
        assert_eq!(lines[4], "LEFT");
        assert!(lines[5].starts_with("ERR "), "unknown verb is typed: {}", lines[5]);
        // Round-trip the replies through the client parser too.
        assert_eq!(
            parse_reply(lines[3]).expect("model reply"),
            Reply::Model { version: 1, model: vec![-0.5, -3.25] }
        );
    }

    /// One call a server made on its writer.
    #[derive(Debug, PartialEq)]
    enum Call {
        Write(String),
        Flush,
    }

    /// A writer recording every `write` and `flush` call in order.
    #[derive(Default)]
    struct Recording(Vec<Call>);

    impl Write for Recording {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(Call::Write(String::from_utf8_lossy(buf).into_owned()));
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.0.push(Call::Flush);
            Ok(())
        }
    }

    #[test]
    fn serve_lines_writes_reply_then_newline_then_flush_per_line() {
        let server = Arc::new(Mutex::new(ParamServer::new(
            vec![0.5],
            1.0,
            ConsistencyMode::Sync { grads_to_wait: 1 },
            1,
        )));
        lock_tolerant(&server).begin_epoch(&[0]);
        let front = DistWireServer::new(server);
        let script = "JOIN 0\n\nLEASE 0\r\nBOGUS\nLEAVE 0";
        let mut out = Recording::default();
        let handled = front.serve_lines(BufReader::new(script.as_bytes()), &mut out).expect("io");
        assert_eq!(handled, 4);
        let mut expected = Vec::new();
        for reply in [
            format!("MODEL 0 {}", hex(0.5)),
            "LEASE SHARD 0".to_string(),
            "ERR unknown verb 'BOGUS'".to_string(),
            "LEFT".to_string(),
        ] {
            expected.extend([Call::Write(reply), Call::Write("\n".into()), Call::Flush]);
        }
        assert_eq!(out.0, expected);
    }

    #[test]
    fn eof_without_leave_is_a_death_that_frees_the_lease() {
        let server = Arc::new(Mutex::new(ParamServer::new(
            vec![0.0; 2],
            0.1,
            ConsistencyMode::Sync { grads_to_wait: 1 },
            2,
        )));
        lock_tolerant(&server).begin_epoch(&[0, 1]);
        let front = DistWireServer::new(Arc::clone(&server));
        // Worker 7 joins, leases shard 0, then the connection just ends.
        let script = "JOIN 7\nLEASE 7\n";
        let mut out = Vec::new();
        front.serve_lines(BufReader::new(script.as_bytes()), &mut out).expect("io");
        let srv = lock_tolerant(&server);
        assert_eq!(srv.live_workers(), 0, "EOF revoked the membership");
        assert_eq!(srv.stats().reassigned, 1, "the leased shard went back to the pool");
        assert_eq!(srv.stats().leaves, 1);
        drop(srv);
        // A survivor can now lease the revoked shard.
        let mut out2 = Vec::new();
        front
            .serve_lines(BufReader::new("JOIN 8\nLEASE 8\nLEAVE 8\n".as_bytes()), &mut out2)
            .expect("io");
        let text = String::from_utf8(out2).expect("utf8");
        assert!(
            text.lines().nth(1).is_some_and(|l| l == "LEASE SHARD 0" || l == "LEASE SHARD 1"),
            "revoked shard is leasable again: {text}"
        );
    }

    #[test]
    fn clean_leave_is_not_double_counted_on_eof() {
        let server = Arc::new(Mutex::new(ParamServer::new(
            vec![0.0; 2],
            0.1,
            ConsistencyMode::Sync { grads_to_wait: 1 },
            1,
        )));
        let front = DistWireServer::new(Arc::clone(&server));
        let mut out = Vec::new();
        front.serve_lines(BufReader::new("JOIN 3\nLEAVE 3\n".as_bytes()), &mut out).expect("io");
        assert_eq!(lock_tolerant(&server).stats().leaves, 1, "one leave, not two");
    }

    #[test]
    fn one_worker_wire_run_matches_the_modeled_trajectory_bitwise() {
        let (x, y) = fixture();
        let batch = Batch::new(Examples::Dense(&x), &y);
        let task = lr(5);
        let cfg = DistConfig {
            workers: 1,
            shards: 3,
            mode: ConsistencyMode::Sync { grads_to_wait: 1 },
            ..Default::default()
        };
        let opts = RunOptions { max_epochs: 4, plateau: None, ..Default::default() };
        let modeled = run_dist_modeled(&task, &batch, &cfg, 0.4, &opts);
        let wire = run_dist_wire(&task, &batch, &cfg, 0.4, &opts).expect("loopback run");
        assert_eq!(wire.trace.points().len(), modeled.trace.points().len());
        for (w, m) in wire.trace.points().iter().zip(modeled.trace.points()) {
            assert_eq!(
                w.1.to_bits(),
                m.1.to_bits(),
                "wire and modeled single-worker losses must agree bitwise"
            );
        }
    }

    #[test]
    fn running_out_of_time_mid_epoch_is_a_budget_exhaustion_on_both_transports() {
        let (x, y) = fixture();
        let batch = Batch::new(Examples::Dense(&x), &y);
        let task = lr(5);
        let cfg = DistConfig {
            workers: 2,
            shards: 4,
            mode: ConsistencyMode::Sync { grads_to_wait: 2 },
            ..Default::default()
        };
        let opts = RunOptions { max_epochs: 4, max_secs: 0.0, plateau: None, ..Default::default() };
        let modeled = run_dist_modeled(&task, &batch, &cfg, 0.4, &opts);
        let wire = run_dist_wire(&task, &batch, &cfg, 0.4, &opts).expect("loopback run");
        assert_eq!(modeled.outcome, RunOutcome::BudgetExhausted);
        assert_eq!(wire.outcome, RunOutcome::BudgetExhausted, "no fault was injected");
    }

    #[test]
    fn a_multi_worker_wire_run_converges() {
        let (x, y) = fixture();
        let batch = Batch::new(Examples::Dense(&x), &y);
        let task = lr(5);
        let cfg = DistConfig {
            workers: 3,
            shards: 6,
            mode: ConsistencyMode::Async {
                max_staleness: 4,
                policy: crate::server::StalePolicy::Reject,
            },
            ..Default::default()
        };
        let opts = RunOptions { max_epochs: 5, plateau: None, ..Default::default() };
        let rep = run_dist_wire(&task, &batch, &cfg, 0.3, &opts).expect("loopback run");
        assert_eq!(rep.trace.epochs(), 5);
        assert!(
            rep.best_loss() < rep.trace.points()[0].1,
            "three wire workers must reduce the loss"
        );
        assert!(!matches!(rep.outcome, RunOutcome::Diverged { .. }));
    }
}
