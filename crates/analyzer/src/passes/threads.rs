//! Pass 5: thread-spawn discipline.
//!
//! Detached `thread::spawn` threads outlive the run that created them:
//! they keep mutating the shared model after the supervisor declared an
//! outcome, and their panics vanish instead of failing the run. And
//! since the persistent worker pool landed, ad-hoc `thread::scope`
//! fork-join is banned too: scoped workers start with a fresh
//! thread-local context, so they silently drop the caller's
//! `with_threads` width (the oversubscription bug the pool fixed) and
//! bypass the pool's panic-propagation contract. Every form of thread
//! creation must therefore live in `pool.rs` (the persistent pool plus
//! its measured fork-join baseline), and everything else routes work
//! through `sgd_linalg::pool::{run, with_threads}`.
//!
//! One carve-out: the line server (`sgd-serve`'s `framing.rs`, which
//! handles the connections of both wire protocols) and the dist crate's
//! wire module (whose loopback runner drives one thread per worker) may
//! use `thread::scope` (and only `thread::scope`) — scoped joins keep
//! every connection thread's panic attached to its caller, while
//! detached `thread::spawn` would let a request thread outlive the
//! registry (or parameter server) it borrows from. Compute inside those
//! threads still routes through the pool.

use super::{basename_in, finding, Finding, Pass};
use crate::source::SourceFile;

/// The modules that own thread creation.
const ALLOWED_MODULES: [&str; 1] = ["pool.rs"];

/// The modules allowed to use scoped (joined) threads: the line server
/// and the dist wire transport.
const SCOPE_ALLOWED_PREFIXES: [&str; 2] =
    ["crates/serve/src/framing.rs", "crates/dist/src/wire.rs"];

pub struct ThreadDiscipline;

impl Pass for ThreadDiscipline {
    fn id(&self) -> &'static str {
        "thread-discipline"
    }

    fn description(&self) -> &'static str {
        "all thread creation confined to pool.rs (the line server and dist wire may use thread::scope)"
    }

    fn in_scope(&self, rel_path: &str) -> bool {
        !basename_in(rel_path, &ALLOWED_MODULES)
    }

    fn check_line(&self, sf: &SourceFile, line0: usize, code: &str, out: &mut Vec<Finding>) {
        let scope_ok = SCOPE_ALLOWED_PREFIXES.iter().any(|p| sf.rel_path.starts_with(p));
        for tok in ["thread::spawn", "thread::Builder", "thread::scope"] {
            if tok == "thread::scope" && scope_ok {
                continue;
            }
            if code.contains(tok) {
                out.push(finding(
                    self.id(),
                    sf,
                    line0,
                    format!(
                        "`{tok}` outside pool.rs: ad-hoc threads bypass the persistent pool's \
                         width-inheritance and panic contract; route work through \
                         sgd_linalg::pool (run/with_threads), or scoped threads in \
                         the line server (serve framing.rs) or the dist wire module"
                    ),
                ));
            }
        }
    }
}
