//! The line server behind every TCP front-end.
//!
//! Both wire protocols — scoring (`wire.rs`) and the distributed
//! parameter server (`sgd-dist`) — are newline-delimited: one request
//! per line, one reply line per request. A protocol is a [`Handler`]
//! that answers one line into a reused buffer and may keep
//! per-connection state. [`LineServer`] owns everything else, once:
//!
//! * the accept loop, on a bounded set of scoped worker threads, so a
//!   stalled client occupies one worker instead of blocking the loop;
//! * the read timeout on every accepted connection;
//! * the bounded read: a hard byte bound enforced *while reading*, so an
//!   oversized line is drained, never buffered, and answered with a
//!   prebuilt `ERR line too long (max <n> bytes)`;
//! * blank lines (skipped, unanswered) and a trailing `\r` (stripped);
//! * the reply write — the reply, then `\n`, then a flush;
//! * the end hook ([`Handler::hang_up`]) on every exit path, and
//!   first-error capture across workers.
//!
//! Poison-tolerant locks keep one panicking handler from wedging shared
//! state for every later connection. This file reads untrusted bytes, so
//! it is in the analyzer's panic-freedom and indexing-ban scope.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// One bounded-buffer line read.
pub enum LineRead {
    /// A complete line (terminator stripped) within the byte bound; its
    /// bytes are in the caller's buffer.
    Line,
    /// The line exceeded the bound; its bytes were drained, not kept.
    TooLong,
}

/// Reads one `\n`-terminated line through the reader's own buffer into
/// `buf` (cleared first, capacity reused across calls), never holding
/// more than `max_bytes` of it: past the bound the rest of the line is
/// consumed and discarded. `Ok(None)` is EOF.
pub fn read_bounded_line<R: BufRead>(
    reader: &mut R,
    max_bytes: usize,
    buf: &mut Vec<u8>,
) -> std::io::Result<Option<LineRead>> {
    buf.clear();
    let mut overflow = false;
    let mut saw_any = false;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            if !saw_any {
                return Ok(None);
            }
            break;
        }
        saw_any = true;
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        if !overflow {
            if buf.len().saturating_add(take) > max_bytes {
                overflow = true;
                buf.clear();
            } else {
                // analyzer: allow(hot-path-alloc) -- growth bounded by max_line_bytes; capacity reused across requests
                buf.extend_from_slice(chunk.get(..take).unwrap_or(&[]));
            }
        }
        let eat = take + usize::from(newline.is_some());
        reader.consume(eat);
        if newline.is_some() {
            break;
        }
    }
    if overflow {
        Ok(Some(LineRead::TooLong))
    } else {
        Ok(Some(LineRead::Line))
    }
}

/// `true` for the error kinds a read timeout surfaces as.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// Poison-tolerant mutex lock: a panicking handler thread must not wedge
/// shared state for every later request (the registry's discipline,
/// applied to the front-ends).
pub fn lock_tolerant<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// One line protocol, served by a [`LineServer`].
pub trait Handler {
    /// What a connection remembers across its lines; fresh per
    /// connection.
    type Conn: Default;

    /// Answers one request line — terminator and trailing `\r`
    /// stripped, never blank — into `out`, which arrives cleared.
    fn answer(&self, conn: &mut Self::Conn, line: &str, out: &mut String);

    /// Runs exactly once when a connection ends, on every exit path:
    /// EOF, read timeout, or I/O error.
    fn hang_up(&self, _conn: Self::Conn) {}
}

/// A [`Handler`] behind the one accept loop, bounded read and reply
/// writer.
pub struct LineServer<H> {
    handler: H,
    max_line_bytes: usize,
    read_timeout: Option<Duration>,
    workers: usize,
    /// Formatted once: an oversized line is answered with prebuilt
    /// bytes, so the shed path does not allocate.
    too_long_reply: String,
}

impl<H: Handler> LineServer<H> {
    /// Serves `handler` on lines of at most `max_line_bytes`, closing an
    /// accepted connection idle past `read_timeout` (`None` = wait
    /// forever), on at most `workers` threads at once.
    pub fn new(
        handler: H,
        max_line_bytes: usize,
        read_timeout: Option<Duration>,
        workers: usize,
    ) -> Self {
        LineServer {
            handler,
            max_line_bytes,
            read_timeout,
            workers,
            too_long_reply: format!("ERR line too long (max {max_line_bytes} bytes)"),
        }
    }

    /// Accepts `connections` connections and serves them on
    /// `min(workers, connections)` scoped worker threads. A worker's
    /// first I/O error ends that worker; the first such error is
    /// returned once all are done. Returns total lines answered.
    // analyzer: root(panic-freedom) -- wire request entry point: the accept loop serving untrusted connections
    pub fn serve_connections(
        &self,
        listener: &TcpListener,
        connections: usize,
    ) -> std::io::Result<usize>
    where
        H: Sync,
    {
        let workers = self.workers.max(1).min(connections.max(1));
        let handled = Mutex::new(0usize);
        let claimed = Mutex::new(0usize);
        let first_err: Mutex<Option<std::io::Error>> = Mutex::new(None);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    {
                        let mut n = lock_tolerant(&claimed);
                        if *n >= connections {
                            break;
                        }
                        *n += 1;
                    }
                    match listener.accept().and_then(|(stream, _addr)| self.handle(stream)) {
                        Ok(h) => *lock_tolerant(&handled) += h,
                        Err(e) => {
                            let mut slot = lock_tolerant(&first_err);
                            if slot.is_none() {
                                *slot = Some(e);
                            }
                            break;
                        }
                    }
                });
            }
        });
        let outcome = match lock_tolerant(&first_err).take() {
            Some(e) => Err(e),
            None => Ok(*lock_tolerant(&handled)),
        };
        outcome
    }

    /// Serves one accepted connection to completion.
    fn handle(&self, stream: TcpStream) -> std::io::Result<usize> {
        stream.set_read_timeout(self.read_timeout)?;
        let reader = BufReader::new(stream.try_clone()?);
        self.serve_lines(reader, stream)
    }

    /// The transport-agnostic core: reads request lines from `reader`
    /// through a bounded buffer and writes one reply line each to
    /// `writer`. A read timeout ends the connection cleanly (`Ok`);
    /// other I/O errors propagate. Returns the lines answered.
    // analyzer: root(panic-freedom) -- wire request entry point: the per-line protocol core
    // analyzer: root(hot-path-alloc) -- per-request reply path: shed replies must not allocate under overload
    pub fn serve_lines<R: BufRead, W: Write>(
        &self,
        mut reader: R,
        mut writer: W,
    ) -> std::io::Result<usize> {
        let mut conn = H::Conn::default();
        let mut handled = 0;
        // analyzer: allow(hot-path-alloc) -- one buffer per connection, reused across requests
        let mut line_buf: Vec<u8> = Vec::new();
        // analyzer: allow(hot-path-alloc) -- one reply buffer per connection, reused across requests
        let mut reply = String::new();
        let outcome = loop {
            let read = match read_bounded_line(&mut reader, self.max_line_bytes, &mut line_buf) {
                Ok(r) => r,
                Err(e) if is_timeout(&e) => break Ok(handled),
                Err(e) => break Err(e),
            };
            reply.clear();
            match read {
                None => break Ok(handled),
                Some(LineRead::TooLong) => reply.push_str(&self.too_long_reply),
                Some(LineRead::Line) => {
                    let line = String::from_utf8_lossy(&line_buf);
                    let line = line.trim_end_matches('\r');
                    if line.trim().is_empty() {
                        continue;
                    }
                    self.handler.answer(&mut conn, line, &mut reply);
                }
            }
            let wrote = writer
                .write_all(reply.as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .and_then(|()| writer.flush());
            if let Err(e) = wrote {
                break Err(e);
            }
            handled += 1;
        };
        self.handler.hang_up(conn);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    fn read_all(input: &[u8], max: usize) -> Vec<(Option<bool>, Vec<u8>)> {
        let mut reader = BufReader::with_capacity(4, input);
        let mut buf = Vec::new();
        let mut out = Vec::new();
        loop {
            match read_bounded_line(&mut reader, max, &mut buf).expect("io") {
                None => {
                    out.push((None, Vec::new()));
                    return out;
                }
                Some(LineRead::Line) => out.push((Some(true), buf.clone())),
                Some(LineRead::TooLong) => out.push((Some(false), Vec::new())),
            }
        }
    }

    #[test]
    fn lines_are_split_and_bounded() {
        let got = read_all(b"ab\ncdef\nx", 3);
        assert_eq!(got[0], (Some(true), b"ab".to_vec()));
        assert_eq!(got[1], (Some(false), Vec::new()), "4 bytes over a 3-byte bound");
        assert_eq!(got[2], (Some(true), b"x".to_vec()), "unterminated tail still read");
        assert_eq!(got[3].0, None);
    }

    #[test]
    fn oversized_line_is_drained_not_buffered() {
        // The line spans many 4-byte reader chunks; after the overflow the
        // next line must come through intact.
        let long = vec![b'z'; 64];
        let mut input = long.clone();
        input.push(b'\n');
        input.extend_from_slice(b"ok\n");
        let got = read_all(&input, 8);
        assert_eq!(got[0].0, Some(false));
        assert_eq!(got[1], (Some(true), b"ok".to_vec()));
    }

    #[test]
    fn lock_tolerant_recovers_from_poison() {
        let m = Mutex::new(5);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m.lock().expect("fresh");
            panic!("poison it");
        }));
        assert_eq!(*lock_tolerant(&m), 5);
    }

    /// Echoes each line with its per-connection line number, and counts
    /// how often a connection ended.
    struct Echo<'a> {
        hang_ups: &'a Mutex<usize>,
    }

    impl Handler for Echo<'_> {
        type Conn = usize;
        fn answer(&self, seen: &mut usize, line: &str, out: &mut String) {
            *seen += 1;
            let _ = write!(out, "{seen} {line}");
        }
        fn hang_up(&self, _seen: usize) {
            *lock_tolerant(self.hang_ups) += 1;
        }
    }

    fn echo_server(
        hang_ups: &Mutex<usize>,
        max_line_bytes: usize,
        read_timeout: Option<Duration>,
    ) -> LineServer<Echo<'_>> {
        LineServer::new(Echo { hang_ups }, max_line_bytes, read_timeout, 1)
    }

    #[test]
    fn too_long_line_is_answered_and_the_connection_keeps_serving() {
        // The dist front-end's bound is 4 MiB; the reply shape is the
        // same at any bound, so pin it on a small one.
        let hang_ups = Mutex::new(0);
        let srv = echo_server(&hang_ups, 4, None);
        let mut out = Vec::new();
        let handled = srv
            .serve_lines(BufReader::new("abcdefgh\n \r\nab\r\n".as_bytes()), &mut out)
            .expect("io");
        assert_eq!(handled, 2, "the blank line is skipped, not answered");
        assert_eq!(
            String::from_utf8(out).expect("utf8"),
            "ERR line too long (max 4 bytes)\n1 ab\n"
        );
    }

    #[test]
    fn hang_up_runs_once_on_eof() {
        let hang_ups = Mutex::new(0);
        let srv = echo_server(&hang_ups, 64, None);
        let handled = srv.serve_lines(BufReader::new("a\nb\n".as_bytes()), Vec::new()).expect("io");
        assert_eq!(handled, 2);
        assert_eq!(*lock_tolerant(&hang_ups), 1);
    }

    /// A writer whose every write fails, like a reset socket.
    struct Broken;

    impl Write for Broken {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::BrokenPipe.into())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn hang_up_runs_once_on_a_failing_writer() {
        let hang_ups = Mutex::new(0);
        let srv = echo_server(&hang_ups, 64, None);
        let err = srv
            .serve_lines(BufReader::new("a\nb\n".as_bytes()), Broken)
            .expect_err("the write error propagates");
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        assert_eq!(*lock_tolerant(&hang_ups), 1, "a write error still runs the hook");
    }

    #[test]
    fn hang_up_runs_once_on_read_timeout() {
        let hang_ups = Mutex::new(0);
        let srv = echo_server(&hang_ups, 64, Some(Duration::from_millis(50)));
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::scope(|s| {
            let server = s.spawn(|| srv.serve_connections(&listener, 1));
            let mut conn = TcpStream::connect(addr).expect("connect");
            conn.write_all(b"hi\n").expect("write");
            let mut line = String::new();
            BufReader::new(conn.try_clone().expect("clone")).read_line(&mut line).expect("read");
            assert_eq!(line, "1 hi\n");
            // Stay silent: the server times out and returns cleanly.
            assert_eq!(server.join().expect("no panic").expect("clean timeout"), 1);
        });
        assert_eq!(*lock_tolerant(&hang_ups), 1);
    }
}
