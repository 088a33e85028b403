//! Loopback TCP front-end speaking LIBSVM-formatted request lines, with
//! overload hardening.
//!
//! Protocol: one request per line, in LIBSVM format
//! (`<label> <idx>:<val> ...` — the label is carried but ignored for
//! scoring); one response line per request:
//!
//! * `OK <decision>` — scored against the *current* registry snapshot,
//!   so a hot-swap publication mid-connection takes effect on the very
//!   next line;
//! * `ERR BUSY retry_after=<secs>` — the server is over its in-flight
//!   bound ([`WireConfig::max_inflight`]); the client should back off;
//! * `ERR line too long (max <n> bytes)` — the request exceeded
//!   [`WireConfig::max_line_bytes`]; the oversized line is drained and
//!   the connection keeps serving;
//! * `ERR <detail>` — parse or registry failures.
//!
//! The protocol is a [`Handler`] behind the one [`LineServer`]: the
//! bounded read, the read timeout, the scoped worker pool and the reply
//! write live there, shared with the parameter-server transport. This
//! file owns what is specific to scoring — the in-flight bound and the
//! score itself.
//!
//! All wire bytes flow through `sgd-datagen`'s typed
//! [`ParseError`](sgd_datagen::libsvm::ParseError) path — a malformed
//! line is an `ERR` response, never a panic, and this file is in the
//! analyzer's panic-freedom and indexing-ban scope.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

use sgd_datagen::libsvm;
use sgd_linalg::CpuExec;
use sgd_models::Examples;

use crate::framing::{lock_tolerant, Handler, LineServer};
use crate::registry::ModelRegistry;

/// Overload limits of a [`WireServer`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WireConfig {
    /// Requests allowed in flight (being scored) at once before the
    /// server answers `ERR BUSY`.
    pub max_inflight: usize,
    /// Longest accepted request line, bytes; longer lines get a typed
    /// `ERR` and are drained without buffering.
    pub max_line_bytes: usize,
    /// Read timeout installed on accepted connections; a connection
    /// idle past it is closed (`None` = wait forever).
    pub read_timeout: Option<Duration>,
    /// Back-off hint advertised in `ERR BUSY retry_after=<secs>`.
    pub retry_after_secs: f64,
    /// Scoped worker threads accepting connections concurrently in
    /// [`WireServer::serve_connections`].
    pub workers: usize,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            max_inflight: 64,
            max_line_bytes: 64 * 1024,
            read_timeout: Some(Duration::from_secs(5)),
            retry_after_secs: 0.05,
            workers: 4,
        }
    }
}

/// A front-end serving one named registry entry over a TCP listener.
pub struct WireServer<'a> {
    lines: LineServer<Scorer<'a>>,
}

/// The scoring protocol: one LIBSVM line in, one `OK`/`ERR` line out.
struct Scorer<'a> {
    registry: &'a ModelRegistry,
    model_name: String,
    max_inflight: usize,
    inflight: Mutex<usize>,
    /// Formatted once at construction: under overload the server must
    /// do *less* work per request, so BUSY writes prebuilt bytes.
    busy_reply: String,
}

/// Decrements the in-flight count when a request finishes, even if the
/// scoring path unwinds.
struct InflightGuard<'a> {
    counter: &'a Mutex<usize>,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        let mut n = lock_tolerant(self.counter);
        *n = n.saturating_sub(1);
    }
}

impl<'a> WireServer<'a> {
    /// A server scoring requests against `model_name` in `registry`,
    /// with default overload limits.
    pub fn new(registry: &'a ModelRegistry, model_name: &str) -> Self {
        WireServer::with_config(registry, model_name, WireConfig::default())
    }

    /// A server with explicit overload limits.
    pub fn with_config(registry: &'a ModelRegistry, model_name: &str, config: WireConfig) -> Self {
        let scorer = Scorer {
            registry,
            model_name: model_name.to_string(),
            max_inflight: config.max_inflight,
            inflight: Mutex::new(0),
            busy_reply: format!("ERR BUSY retry_after={}", config.retry_after_secs),
        };
        let lines =
            LineServer::new(scorer, config.max_line_bytes, config.read_timeout, config.workers);
        WireServer { lines }
    }

    /// Accepts `connections` connections and serves them on a small
    /// bounded pool of scoped worker threads ([`WireConfig::workers`]),
    /// so a stalled client occupies one worker instead of blocking the
    /// accept loop. Returns total request lines handled.
    pub fn serve_connections(
        &self,
        listener: &TcpListener,
        connections: usize,
    ) -> std::io::Result<usize> {
        self.lines.serve_connections(listener, connections)
    }

    /// The transport-agnostic core: reads request lines from `reader`
    /// through a bounded buffer, writes one response line each to
    /// `writer`. A read timeout ends the connection cleanly (`Ok`);
    /// other I/O errors propagate.
    pub fn serve_lines<R: BufRead, W: Write>(
        &self,
        reader: R,
        writer: W,
    ) -> std::io::Result<usize> {
        self.lines.serve_lines(reader, writer)
    }
}

impl Handler for Scorer<'_> {
    type Conn = ();

    fn answer(&self, _conn: &mut (), line: &str, out: &mut String) {
        match self.try_acquire() {
            None => out.push_str(&self.busy_reply),
            Some(_inflight) => self.score_line_into(line, out),
        }
    }
}

impl Scorer<'_> {
    /// Claims an in-flight slot, or `None` past the bound.
    fn try_acquire(&self) -> Option<InflightGuard<'_>> {
        let mut n = lock_tolerant(&self.inflight);
        if *n >= self.max_inflight {
            return None;
        }
        *n += 1;
        Some(InflightGuard { counter: &self.inflight })
    }

    /// Scores one request line against the current snapshot, writing the
    /// response into `out` (cleared by the caller, capacity reused).
    fn score_line_into(&self, line: &str, out: &mut String) {
        use std::fmt::Write as _;
        let Some(snap) = self.registry.get(&self.model_name) else {
            let _ = write!(out, "ERR no model published under '{}'", self.model_name);
            return;
        };
        let dim = snap.model.input_dim();
        // analyzer: allow(hot-path-alloc) -- parse output is bounded by max_line_bytes, freed per request
        let ds = match libsvm::parse_str("wire", line, dim) {
            Ok(ds) => ds,
            Err(e) => {
                let _ = write!(out, "ERR {e}");
                return;
            }
        };
        if ds.x.rows() != 1 {
            let _ = write!(out, "ERR expected exactly one example per line, got {}", ds.x.rows());
            return;
        }
        // analyzer: allow(hot-path-alloc) -- scoring allocates the one-row output batch; bounded per admitted request
        let scores = snap.model.predict_batch(&mut CpuExec::seq(), &Examples::Sparse(&ds.x));
        match scores.first() {
            Some(v) => {
                let _ = write!(out, "OK {v}");
            }
            None => out.push_str("ERR empty prediction"),
        }
    }
}

/// One parsed wire response.
#[derive(Clone, Debug, PartialEq)]
pub enum WireResponse {
    /// `OK <decision>`.
    Ok(f64),
    /// `ERR BUSY retry_after=<secs>` — back off and retry.
    Busy {
        /// Server-advertised back-off, seconds.
        retry_after: f64,
    },
    /// Any other `ERR <detail>`.
    Err {
        /// The server's error detail.
        detail: String,
    },
}

/// A loadgen client: scores lines over a wire connection, with a
/// retry mode that honors `ERR BUSY retry_after=` hints.
pub struct WireClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Retries [`WireClient::score_with_retry`] attempts past the first.
    pub max_retries: usize,
}

impl WireClient {
    /// Connects to a wire server.
    pub fn connect(addr: std::net::SocketAddr) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(WireClient { writer, reader, max_retries: 3 })
    }

    /// Sends one LIBSVM request line, returns the parsed response.
    pub fn score(&mut self, line: &str) -> std::io::Result<WireResponse> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut response = String::new();
        self.reader.read_line(&mut response)?;
        Ok(parse_response(response.trim_end()))
    }

    /// Sends one request, retrying `ERR BUSY` after the server's
    /// advertised `retry_after` up to `max_retries` times. Returns the
    /// final response and how many retries were spent.
    pub fn score_with_retry(&mut self, line: &str) -> std::io::Result<(WireResponse, usize)> {
        let mut retries = 0;
        loop {
            match self.score(line)? {
                WireResponse::Busy { retry_after } if retries < self.max_retries => {
                    // A hostile server can advertise NaN; clamp passes NaN
                    // through and Duration::from_secs_f64 would panic on it.
                    let hint = if retry_after.is_finite() { retry_after } else { 0.0 };
                    std::thread::sleep(Duration::from_secs_f64(hint.clamp(0.0, 1.0)));
                    retries += 1;
                }
                response => return Ok((response, retries)),
            }
        }
    }
}

/// Parses one response line into a [`WireResponse`].
fn parse_response(line: &str) -> WireResponse {
    if let Some(rest) = line.strip_prefix("OK ") {
        return match rest.trim().parse::<f64>() {
            Ok(v) => WireResponse::Ok(v),
            Err(_) => WireResponse::Err { detail: format!("unparseable OK payload: {rest}") },
        };
    }
    if let Some(rest) = line.strip_prefix("ERR BUSY retry_after=") {
        let retry_after = rest.trim().parse::<f64>().unwrap_or(0.05);
        return WireResponse::Busy { retry_after };
    }
    WireResponse::Err { detail: line.strip_prefix("ERR ").unwrap_or(line).to_string() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Checkpoint;
    use crate::model::{ServableModel, TaskDescriptor};
    use std::io::{BufWriter, Read};

    fn registry_with_lr(weights: Vec<f64>) -> ModelRegistry {
        let reg = ModelRegistry::new();
        let dim = weights.len() as u64;
        let ck =
            Checkpoint::new(TaskDescriptor::LogisticRegression { dim }, weights).expect("dims");
        reg.publish("m", ServableModel::from_checkpoint(&ck).expect("valid"), 0, 0.5);
        reg
    }

    #[test]
    fn serve_lines_scores_and_reports_errors_in_order() {
        let reg = registry_with_lr(vec![1.0, 2.0, 3.0]);
        let srv = WireServer::new(&reg, "m");
        let input = "+1 1:1 3:2\n-1 2:0.5\nnot-a-label 1:1\n+1 99:1\n\n+1 1:0\n";
        let mut out = Vec::new();
        let handled = srv
            .serve_lines(BufReader::new(input.as_bytes()), BufWriter::new(&mut out))
            .expect("io");
        assert_eq!(handled, 5, "blank line skipped");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        // 1*1 + 3*2 = 7; 2*0.5 = 1.
        assert_eq!(lines.first().copied(), Some("OK 7"));
        assert_eq!(lines.get(1).copied(), Some("OK 1"));
        assert!(lines.get(2).is_some_and(|l| l.starts_with("ERR ")), "bad label is typed");
        assert!(lines.get(3).is_some_and(|l| l.starts_with("ERR ")), "index out of range");
        assert_eq!(lines.get(4).copied(), Some("OK 0"));
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
        let reg = registry_with_lr(vec![1.0, 2.0, 3.0]);
        let cfg = WireConfig { max_line_bytes: 32, ..WireConfig::default() };
        let srv = WireServer::with_config(&reg, "m", cfg);
        let long = "9".repeat(40);
        let input = format!("+1 1:1 3:2\n\n-1 2:0.5\r\n{long}\nbad 1:1\n+1 1:0");
        let mut out = Recording::default();
        let handled = srv.serve_lines(BufReader::new(input.as_bytes()), &mut out).expect("io");
        assert_eq!(handled, 5);
        let mut expected = Vec::new();
        for reply in [
            "OK 7",
            "OK 1",
            "ERR line too long (max 32 bytes)",
            "ERR line 1: bad label: 'bad' is not a number",
            "OK 0",
        ] {
            expected.extend([Call::Write(reply.into()), Call::Write("\n".into()), Call::Flush]);
        }
        assert_eq!(out.0, expected);
    }

    #[test]
    fn unpublished_model_is_an_error_not_a_panic() {
        let reg = ModelRegistry::new();
        let srv = WireServer::new(&reg, "ghost");
        let mut out = Vec::new();
        srv.serve_lines(BufReader::new("+1 1:1\n".as_bytes()), &mut out).expect("io");
        assert!(String::from_utf8(out).expect("utf8").starts_with("ERR "));
    }

    #[test]
    fn oversized_line_is_typed_and_bounded_not_buffered() {
        let reg = registry_with_lr(vec![1.0, 2.0]);
        let cfg = WireConfig { max_line_bytes: 32, ..WireConfig::default() };
        let srv = WireServer::with_config(&reg, "m", cfg);
        // A line far over the cap, then a normal request: the oversized
        // one gets a typed ERR and the connection keeps serving.
        let long = "a".repeat(10_000);
        let input = format!("{long}\n+1 1:2\n");
        let mut out = Vec::new();
        let handled = srv
            .serve_lines(BufReader::new(input.as_bytes()), BufWriter::new(&mut out))
            .expect("io");
        assert_eq!(handled, 2);
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.first().copied(), Some("ERR line too long (max 32 bytes)"));
        assert_eq!(lines.get(1).copied(), Some("OK 2"));
    }

    #[test]
    fn zero_inflight_budget_answers_busy_with_retry_hint() {
        let reg = registry_with_lr(vec![1.0]);
        let cfg = WireConfig { max_inflight: 0, retry_after_secs: 0.25, ..WireConfig::default() };
        let srv = WireServer::with_config(&reg, "m", cfg);
        let mut out = Vec::new();
        srv.serve_lines(BufReader::new("+1 1:1\n".as_bytes()), &mut out).expect("io");
        let text = String::from_utf8(out).expect("utf8");
        assert_eq!(text.trim_end(), "ERR BUSY retry_after=0.25");
        assert_eq!(parse_response(text.trim_end()), WireResponse::Busy { retry_after: 0.25 });
    }

    #[test]
    fn read_timeout_ends_a_silent_connection_cleanly() {
        let reg = registry_with_lr(vec![1.0]);
        let cfg =
            WireConfig { read_timeout: Some(Duration::from_millis(50)), ..WireConfig::default() };
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::scope(|s| {
            let server =
                s.spawn(|| WireServer::with_config(&reg, "m", cfg).serve_connections(&listener, 1));
            let mut conn = TcpStream::connect(addr).expect("connect");
            conn.write_all(b"+1 1:3\n").expect("write");
            let mut reader = BufReader::new(conn.try_clone().expect("clone"));
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            assert_eq!(line.trim(), "OK 3");
            // Send nothing more: the server must time out and return Ok
            // instead of pinning the worker forever.
            assert_eq!(server.join().expect("no panic").expect("clean timeout"), 1);
        });
    }

    #[test]
    fn concurrent_workers_serve_past_a_stalled_connection() {
        let reg = registry_with_lr(vec![1.0]);
        let cfg = WireConfig {
            workers: 2,
            read_timeout: Some(Duration::from_millis(500)),
            ..WireConfig::default()
        };
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::scope(|s| {
            let server =
                s.spawn(|| WireServer::with_config(&reg, "m", cfg).serve_connections(&listener, 2));
            // First client connects and stalls silently.
            let stalled = TcpStream::connect(addr).expect("connect stalled");
            // Second client must still get served while the first stalls.
            let mut client = WireClient::connect(addr).expect("connect live");
            let resp = client.score("+1 1:4").expect("score");
            assert_eq!(resp, WireResponse::Ok(4.0));
            drop(client);
            drop(stalled);
            let handled = server.join().expect("no panic").expect("serve");
            assert_eq!(handled, 1, "one line served; the stalled client timed out");
        });
    }

    #[test]
    fn client_retries_busy_then_gives_up_with_the_last_response() {
        let reg = registry_with_lr(vec![1.0]);
        let cfg = WireConfig { max_inflight: 0, retry_after_secs: 0.001, ..WireConfig::default() };
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::scope(|s| {
            let server =
                s.spawn(|| WireServer::with_config(&reg, "m", cfg).serve_connections(&listener, 1));
            let mut client = WireClient::connect(addr).expect("connect");
            client.max_retries = 2;
            let (resp, retries) = client.score_with_retry("+1 1:1").expect("score");
            assert_eq!(resp, WireResponse::Busy { retry_after: 0.001 });
            assert_eq!(retries, 2, "both retries spent against a saturated server");
            drop(client);
            let handled = server.join().expect("no panic").expect("serve");
            assert_eq!(handled, 3, "initial attempt plus two retries all answered");
        });
    }

    #[test]
    fn loopback_tcp_round_trip_with_hot_swap() {
        let reg = registry_with_lr(vec![1.0, 0.0]);
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::scope(|s| {
            let server = s.spawn(|| {
                WireServer::new(&reg, "m").serve_connections(&listener, 1).expect("serve")
            });
            let mut conn = TcpStream::connect(addr).expect("connect");
            let mut reader = BufReader::new(conn.try_clone().expect("clone"));
            let mut line = String::new();

            conn.write_all(b"+1 1:2\n").expect("write");
            reader.read_line(&mut line).expect("read");
            assert_eq!(line.trim(), "OK 2");

            // Hot-swap the model mid-connection: the next request sees it.
            let ck =
                Checkpoint::new(TaskDescriptor::LogisticRegression { dim: 2 }, vec![10.0, 0.0])
                    .expect("dims");
            reg.publish("m", ServableModel::from_checkpoint(&ck).expect("valid"), 1, 0.1);

            line.clear();
            conn.write_all(b"+1 1:2\n").expect("write");
            reader.read_line(&mut line).expect("read");
            assert_eq!(line.trim(), "OK 20", "hot-swapped weights serve immediately");

            // The reader holds a cloned FD, so dropping `conn` alone
            // would not deliver EOF to the server — shut down the socket's
            // write half explicitly.
            conn.shutdown(std::net::Shutdown::Write).expect("shutdown");
            let mut rest = String::new();
            reader.read_to_string(&mut rest).ok();
            assert_eq!(server.join().expect("no panic"), 2);
        });
    }
}
