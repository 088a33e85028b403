//! Pass 3: panic freedom.
//!
//! A worker that panics mid-epoch poisons the scoped-thread join and
//! takes the whole run (and under the supervisor, the whole grid) down
//! with it. PR 2's fault-injection layer exists precisely to convert
//! failures into typed outcomes, so panicking shortcuts are banned in
//! `sgd-core` runner/engine code, in the whole serving crate (a panic
//! there takes the endpoint down mid-request), and in the parsers that
//! consume *untrusted* bytes:
//!
//! * `unwrap()`, `expect(`, `panic!`, `unreachable!`, `todo!`,
//!   `unimplemented!` — convert to typed errors, or annotate with
//!   `// analyzer: allow(panic-freedom) -- <why it cannot fire>`;
//! * in the untrusted-byte parsers (`libsvm.rs`, the serving crate's
//!   `checkpoint.rs`, both `wire.rs` protocols, and `framing.rs`, the one
//!   loop over wire bytes) and in the overload decision paths
//!   (`admission.rs`, whose shed/reject/deadline branches run exactly
//!   when the system is already degraded), `[idx]` indexing into parsed
//!   fields — wire/file input and queue state must flow through
//!   `get`/iterators, never trusted offsets.

use super::{basename_in, finding, Finding, Pass};
use crate::semantic::SemanticModel;
use crate::source::SourceFile;

const PANIC_TOKENS: [&str; 6] =
    [".unwrap()", ".expect(", "panic!", "unreachable!", "todo!", "unimplemented!"];

/// The files where indexing itself is also banned: the untrusted-byte
/// parsers — LIBSVM text (datagen), checkpoint bytes, wire lines and the
/// line server that reads them (`framing.rs`) — plus the overload
/// decision paths in `admission.rs`, which run exactly when the system
/// is already degraded and must not add a panic to an overload.
const PARSER_FILES: [&str; 5] =
    ["libsvm.rs", "checkpoint.rs", "wire.rs", "framing.rs", "admission.rs"];

pub struct PanicFreedom;

impl Pass for PanicFreedom {
    fn id(&self) -> &'static str {
        "panic-freedom"
    }

    fn description(&self) -> &'static str {
        "no unwrap/expect/panic! in sgd-core runners, sgd-serve, or the untrusted-byte parsers"
    }

    fn in_scope(&self, rel_path: &str) -> bool {
        let core = rel_path.starts_with("crates/core/src/");
        let serve = rel_path.starts_with("crates/serve/src/");
        ((core || serve) && rel_path.ends_with(".rs")) || basename_in(rel_path, &PARSER_FILES)
    }

    fn check_line(&self, sf: &SourceFile, line0: usize, code: &str, out: &mut Vec<Finding>) {
        for tok in PANIC_TOKENS {
            if code.contains(tok) {
                out.push(finding(
                    self.id(),
                    sf,
                    line0,
                    format!(
                        "`{tok}` in a panic-free zone: convert to a typed error (EngineError/\
                         ParseError) or justify with an allow annotation"
                    ),
                ));
            }
        }
        if basename_in(&sf.rel_path, &PARSER_FILES) {
            if let Some(col) = user_data_index(code) {
                out.push(finding(
                    self.id(),
                    sf,
                    line0,
                    format!(
                        "direct `[..]` indexing at column {} in an untrusted-byte parser: \
                         wire/file input must go through `get`/iterators so malformed data \
                         surfaces as a typed error",
                        col + 1
                    ),
                ));
            }
        }
    }

    /// Transitive upgrade: the file list above covers where panics are
    /// *written*; this covers where they are *reachable from*. Functions
    /// annotated `// analyzer: root(panic-freedom) -- …` (the wire
    /// request entry points) seed a call-graph walk, and panic tokens in
    /// any reached function are flagged — but only in files the line
    /// scope does not already cover, so nothing is reported twice. The
    /// analyzer's own sources are excluded (name-based resolution would
    /// chase ubiquitous names like `run` into this crate, which no
    /// request reaches).
    fn check_model(&self, model: &SemanticModel<'_>, out: &mut Vec<Finding>) {
        let roots = model.roots_for(self.id());
        let reached = model.reachable_from(&roots, self.id());
        for (r, chain) in &reached {
            let sf = &model.files[r.file];
            if self.in_scope(&sf.rel_path) || sf.rel_path.starts_with("crates/analyzer/") {
                continue;
            }
            let Some(item) = model.item(*r) else { continue };
            if item.is_test {
                continue;
            }
            for line0 in item.start_line..=item.end_line.min(sf.code.len().saturating_sub(1)) {
                let code = &sf.code[line0];
                for tok in PANIC_TOKENS {
                    if code.contains(tok) {
                        out.push(finding(
                            self.id(),
                            sf,
                            line0,
                            format!(
                                "`{tok}` is reachable from a wire entry point (as {}): a \
                                 panic here takes a request-serving thread down — convert \
                                 to a typed error or justify with an allow annotation",
                                chain.join(" -> "),
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// Detects `ident[expr]` / `)[expr]` indexing (a panic site on bad input),
/// while letting through type positions (`[Scalar]`, `Vec<[u8; 4]>`),
/// array literals (`= [0; n]`), and attribute lines (`#[derive(...)]`).
fn user_data_index(code: &str) -> Option<usize> {
    let chars: Vec<char> = code.chars().collect();
    if chars.iter().find(|c| !c.is_whitespace()) == Some(&'#') {
        return None;
    }
    for (i, &c) in chars.iter().enumerate() {
        if c != '[' || i == 0 {
            continue;
        }
        // Indexing has an expression (ident, `)` or `]`) directly before
        // the bracket; type ascriptions (`: [u8; 4]`), slices-of (`&[T]`),
        // array literals (`= [...]`), and macros (`vec![..]`) do not.
        let Some(j) = chars[..i].iter().rposition(|c| !c.is_whitespace()) else {
            continue;
        };
        let p = chars[j];
        if !(super::is_ident_char(p) || p == ')' || p == ']') {
            continue;
        }
        // A lifetime before the bracket (`&'a [u8]`) or a keyword
        // (`&mut [f64]`, `dyn [..]`, `in [..]`, `return [..]`) is a type
        // position or fresh expression, not an indexed one: skip back
        // over the identifier and inspect it.
        if super::is_ident_char(p) {
            let start = chars[..j + 1]
                .iter()
                .rposition(|c| !super::is_ident_char(*c))
                .map(|k| k + 1)
                .unwrap_or(0);
            if start > 0 && chars.get(start.wrapping_sub(1)) == Some(&'\'') {
                continue;
            }
            let ident: String = chars[start..j + 1].iter().collect();
            if ["mut", "dyn", "in", "as", "return", "break", "else", "match"]
                .contains(&ident.as_str())
            {
                continue;
            }
        }
        return Some(i);
    }
    None
}
