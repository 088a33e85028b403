//! Pass 7: lock discipline (guard liveness × blocking calls × order).
//!
//! The serving and distributed stacks now share five lock families with a deliberate
//! nesting order, and the paper's latency story dies the moment a guard
//! is held across something slow: a backend dispatch under the session
//! mutex serializes *scoring* behind *fault bookkeeping*; a socket
//! write under the inflight counter turns one stalled client into a
//! server-wide stall. This pass runs on the [`SemanticModel`] (not on
//! single lines): for every lock-guard binding it scans the guard's
//! live span for
//!
//! * **blocking calls** — `ComputeBackend::dispatch`, `pool::run*`,
//!   and `TcpStream`/`BufReader` I/O — held across any classified guard;
//! * **order inversions** — acquiring a lock of a *lower* rank while
//!   holding a higher one, per the canonical table below;
//! * **re-acquisition** of the same lock (self-deadlock on a
//!   non-reentrant `Mutex`).
//!
//! Canonical acquisition order (outermost first — a lock may only be
//! taken while holding locks of strictly lower rank):
//!
//! | rank | class      | locks (receiver name fragments)                         |
//! |------|------------|---------------------------------------------------------|
//! | 0    | `registry` | `ModelRegistry` state (`state`, `registry`, `models`)   |
//! | 1    | `wire`     | wire accounting (`inflight`, `claimed`, `handled`, `first_err`, `counter`) |
//! | 2    | `server`   | the dist `ParamServer` mutex (`server`)                 |
//! | 3    | `session`  | the scoring `BackendSession` mutex (`session`)          |
//! | 4    | `pool`     | worker-pool internals (`queue`, `stats`, `latch`, `inner`; everything in `pool.rs`) |
//!
//! `Condvar::wait` is deliberately *not* a blocking token: it releases
//! the mutex it waits on, which is the one correct way to sleep while
//! "holding" a pool lock. Scope: the serving crate, the dist crate,
//! `sgd-core`, and the linalg worker pool — the files that actually
//! share these locks.

use super::{Finding, Pass};
use crate::semantic::{acquires_guard, GuardBinding, SemanticModel};
use crate::source::SourceFile;

/// Calls that park the current thread for macroscopic time: backend
/// dispatch, worker-pool fan-out, socket/buffered-reader I/O.
const BLOCKING: [(&str, &str); 10] = [
    (".dispatch(", "a backend dispatch"),
    ("pool::run(", "a worker-pool fan-out"),
    (".write_all(", "socket I/O"),
    (".flush(", "socket I/O"),
    (".read_line(", "socket I/O"),
    (".fill_buf(", "socket I/O"),
    (".read_to_string(", "socket I/O"),
    (".read_exact(", "socket I/O"),
    (".accept(", "a listener accept"),
    ("TcpStream::connect", "a socket connect"),
];

/// One row of the canonical lock-order table.
struct LockClass {
    rank: u8,
    name: &'static str,
    fragments: &'static [&'static str],
}

const CLASSES: [LockClass; 5] = [
    LockClass { rank: 0, name: "registry", fragments: &["state", "registry", "models"] },
    LockClass {
        rank: 1,
        name: "wire",
        fragments: &["inflight", "claimed", "handled", "first_err", "counter"],
    },
    LockClass { rank: 2, name: "server", fragments: &["server"] },
    LockClass { rank: 3, name: "session", fragments: &["session"] },
    LockClass { rank: 4, name: "pool", fragments: &["queue", "stats", "latch", "inner"] },
];

/// A classified acquisition: which class, and which fragment matched.
struct Classified {
    rank: u8,
    class: &'static str,
    fragment: &'static str,
}

/// Classifies an acquisition expression by receiver-name fragment (or
/// by file for the pool, whose internals all share one family).
fn classify(text: &str, rel_path: &str) -> Option<Classified> {
    if rel_path == "crates/linalg/src/pool.rs" {
        return Some(Classified { rank: 4, class: "pool", fragment: "pool" });
    }
    for c in &CLASSES {
        for frag in c.fragments {
            if !super::ident_occurrences(text, frag).is_empty() {
                return Some(Classified { rank: c.rank, class: c.name, fragment: frag });
            }
        }
    }
    None
}

/// The serve/core/pool files that actually share the classified locks.
fn lock_scope(rel_path: &str) -> bool {
    rel_path.starts_with("crates/serve/src/")
        || rel_path.starts_with("crates/dist/src/")
        || rel_path.starts_with("crates/core/src/")
        || rel_path == "crates/linalg/src/pool.rs"
}

pub struct LockDiscipline;

impl Pass for LockDiscipline {
    fn id(&self) -> &'static str {
        "lock-discipline"
    }

    fn description(&self) -> &'static str {
        "no lock guard held across dispatch/pool/I-O, no acquisition order inversion"
    }

    /// Model-only pass: the line hook never fires.
    fn in_scope(&self, _rel_path: &str) -> bool {
        false
    }

    fn check_line(&self, _sf: &SourceFile, _line0: usize, _code: &str, _out: &mut Vec<Finding>) {}

    fn check_model(&self, model: &SemanticModel<'_>, out: &mut Vec<Finding>) {
        for (fi, syntax) in model.syntax.iter().enumerate() {
            let sf = &model.files[fi];
            if !lock_scope(&sf.rel_path) {
                continue;
            }
            for guard in &syntax.guards {
                self.check_guard(sf, guard, out);
            }
        }
    }
}

impl LockDiscipline {
    /// Scans one guard's live span for blocking calls and conflicting
    /// acquisitions.
    fn check_guard(&self, sf: &SourceFile, guard: &GuardBinding, out: &mut Vec<Finding>) {
        let held = classify(&guard.init, &sf.rel_path);
        let held_desc = match &held {
            Some(c) => format!("`{}` lock (class `{}`, rank {})", c.fragment, c.class, c.rank),
            None => "an unclassified lock".to_string(),
        };
        let end = guard.live_end(sf).min(sf.code.len().saturating_sub(1));
        for line0 in guard.line + 1..=end {
            let code = &sf.code[line0];
            if let Some((tok, what)) = BLOCKING.iter().find(|(tok, _)| code.contains(tok)) {
                out.push(super::finding(
                    self.id(),
                    sf,
                    line0,
                    format!(
                        "`{tok}` — {what} — runs while guard `{}` (line {}, {held_desc}) is \
                         held: narrow the guard's scope or drop() it before the blocking call",
                        guard.name,
                        guard.line + 1,
                    ),
                ));
            }
            // Nested acquisitions: compare against the canonical order.
            let (Some(held_c), true) = (&held, acquires_guard(code)) else { continue };
            let Some(inner) = classify(code, &sf.rel_path) else { continue };
            if inner.rank < held_c.rank {
                out.push(super::finding(
                    self.id(),
                    sf,
                    line0,
                    format!(
                        "acquiring `{}` (class `{}`, rank {}) while holding {held_desc} taken \
                         at line {} inverts the canonical lock order \
                         (registry < wire < server < session < pool): restructure so the lower-rank \
                         lock is taken first, or release `{}` before this acquisition",
                        inner.fragment,
                        inner.class,
                        inner.rank,
                        guard.line + 1,
                        guard.name,
                    ),
                ));
            } else if inner.rank == held_c.rank && inner.fragment == held_c.fragment {
                out.push(super::finding(
                    self.id(),
                    sf,
                    line0,
                    format!(
                        "re-acquiring the `{}` lock while guard `{}` (line {}) already holds \
                         it: std Mutex/RwLock are not re-entrant, this self-deadlocks",
                        inner.fragment,
                        guard.name,
                        guard.line + 1,
                    ),
                ));
            }
        }
    }
}
