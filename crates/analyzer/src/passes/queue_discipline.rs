//! Pass 6: queue discipline (no unbounded request-queue growth).
//!
//! The overload work in PR 7 exists because a serving queue that grows
//! without an admission check is a memory leak with a latency curve:
//! under sustained overload every queued request makes the p99 worse
//! and the process bigger until something else fails for it. The
//! admission layer (`crates/serve/src/admission.rs`) therefore funnels
//! *every* enqueue through one bound-checked path
//! (`TierQueues::admit`), and this pass makes that structural: in the
//! serving queue modules, growing a queue is banned outside that path.
//!
//! Concretely, in `batcher.rs` and `admission.rs`:
//!
//! * any `.push_back(` — the `VecDeque` growth call — is flagged;
//! * `.push(` is flagged when the receiver looks like a request queue
//!   (its identifier mentions `pending`, `queue`, `backlog`, or
//!   `inbox`); result vectors (`latencies`, `decisions`, batch
//!   `members`) stay free to grow because they are bounded by work
//!   already admitted.
//!
//! The admission-checked enqueue itself carries an
//! `// analyzer: allow(queue-discipline) -- <reason>` annotation and is
//! the only one; `batcher.rs` holds no queue today and stays in scope so
//! one cannot come back there. Anything new that trips this pass should
//! either route through admission or argue its bound in an allow reason.

use super::{finding, Finding, Pass};
use crate::source::SourceFile;

/// The serving modules that own request queues.
const SCOPED_FILES: [&str; 2] = ["crates/serve/src/batcher.rs", "crates/serve/src/admission.rs"];

/// Receiver name fragments that mark a growable collection as a request
/// queue rather than a result buffer.
const QUEUE_NAMES: [&str; 4] = ["pending", "queue", "backlog", "inbox"];

pub struct QueueDiscipline;

impl Pass for QueueDiscipline {
    fn id(&self) -> &'static str {
        "queue-discipline"
    }

    fn description(&self) -> &'static str {
        "serving request queues grow only through the admission-checked path"
    }

    fn in_scope(&self, rel_path: &str) -> bool {
        SCOPED_FILES.contains(&rel_path)
    }

    fn check_line(&self, sf: &SourceFile, line0: usize, code: &str, out: &mut Vec<Finding>) {
        if code.contains(".push_back(") {
            out.push(finding(
                self.id(),
                sf,
                line0,
                "`.push_back(` in a serving queue module: every enqueue must go through \
                 the admission-checked path (TierQueues::admit) so overload sheds \
                 deterministically instead of growing memory; justify exceptions with an \
                 allow annotation"
                    .to_string(),
            ));
            return;
        }
        if let Some(recv) = push_receiver(code) {
            let lower = recv.to_lowercase();
            if QUEUE_NAMES.iter().any(|n| lower.contains(n)) {
                out.push(finding(
                    self.id(),
                    sf,
                    line0,
                    format!(
                        "`{recv}.push(` grows a request queue outside the admission-checked \
                         path: route the enqueue through admission (or argue its bound in an \
                         allow annotation)"
                    ),
                ));
            }
        }
    }
}

/// The identifier immediately before the first `.push(` on the line,
/// if any (`self.pending.push(x)` → `pending`).
fn push_receiver(code: &str) -> Option<String> {
    let i = code.find(".push(")?;
    let recv: String = code[..i]
        .chars()
        .rev()
        .take_while(|c| super::is_ident_char(*c))
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    (!recv.is_empty()).then_some(recv)
}
