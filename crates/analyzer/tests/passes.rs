//! Golden fixture tests: one known-bad and one known-good snippet per
//! pass, loaded under synthetic workspace-relative paths so the scoping
//! rules engage exactly as they would on the live tree — plus the gate
//! tests: the live workspace must be clean modulo the committed
//! baseline, and reintroducing a banned construct must produce a fresh
//! (non-baselined) finding.

use std::path::Path;

use sgd_analyzer::baseline::Baseline;
use sgd_analyzer::passes::{all_passes, analyze_file, analyze_workspace, Finding};
use sgd_analyzer::source::SourceFile;
use sgd_analyzer::workspace;

/// Scans `text` as if it lived at `rel_path`, returning findings for
/// `pass` only (fixtures may legitimately trip other passes too).
fn findings_for(rel_path: &str, text: &str, pass: &str) -> Vec<Finding> {
    let sf = SourceFile::parse(rel_path, text);
    analyze_file(&sf, &all_passes()).into_iter().filter(|f| f.pass == pass).collect()
}

/// Workspace-level variant for the semantic-model passes
/// (lock-discipline, hot-path-alloc, call-graph panic-freedom): builds a
/// synthetic workspace from `(rel_path, text)` pairs with no crate
/// dependency constraints and returns findings for `pass` only.
fn model_findings_for(files: &[(&str, &str)], pass: &str) -> Vec<Finding> {
    let parsed: Vec<SourceFile> = files.iter().map(|(p, t)| SourceFile::parse(p, t)).collect();
    let analysis = analyze_workspace(&parsed, &all_passes(), Default::default());
    analysis.findings.into_iter().filter(|f| f.pass == pass).collect()
}

#[test]
fn atomics_bad_fixture_triggers() {
    let hits = findings_for(
        "crates/core/src/sync.rs",
        include_str!("fixtures/atomics_bad.rs"),
        "atomics-discipline",
    );
    assert!(hits.len() >= 4, "expected leaked atomics, SeqCst, and RMW findings: {hits:#?}");
    assert!(hits.iter().any(|f| f.message.contains("SeqCst")), "{hits:#?}");
    assert!(hits.iter().any(|f| f.message.contains("read-modify-write")), "{hits:#?}");
    assert!(hits.iter().any(|f| f.message.contains("outside the allowlisted")), "{hits:#?}");
}

#[test]
fn atomics_good_fixture_is_clean() {
    let hits = findings_for(
        "crates/core/src/shared_model.rs",
        include_str!("fixtures/atomics_good.rs"),
        "atomics-discipline",
    );
    assert!(hits.is_empty(), "{hits:#?}");
}

#[test]
fn determinism_bad_fixture_triggers() {
    let hits = findings_for(
        "crates/gpusim/src/gpu.rs",
        include_str!("fixtures/determinism_bad.rs"),
        "determinism",
    );
    assert!(hits.len() >= 4, "{hits:#?}");
    for needle in ["HashMap", "HashSet", "Instant::now", "SystemTime"] {
        assert!(hits.iter().any(|f| f.message.contains(needle)), "missing {needle}: {hits:#?}");
    }
}

#[test]
fn determinism_good_fixture_is_clean() {
    let hits = findings_for(
        "crates/gpusim/src/gpu.rs",
        include_str!("fixtures/determinism_good.rs"),
        "determinism",
    );
    assert!(hits.is_empty(), "{hits:#?}");
}

#[test]
fn determinism_pass_ignores_wall_clock_runners() {
    // The same banned tokens are fine in a wall-clock runner: it is not
    // a bit-pinned module, so the pass is out of scope there.
    let hits = findings_for(
        "crates/core/src/hogwild.rs",
        include_str!("fixtures/determinism_bad.rs"),
        "determinism",
    );
    assert!(hits.is_empty(), "{hits:#?}");
}

#[test]
fn pointer_identity_keying_is_banned_outside_the_allocator() {
    // Keying simulated state on a host pointer is the bug PR 6 removed
    // from the serving path; the pass bans it workspace-wide.
    let bad = "pub fn cache_key<T>(s: &[T]) -> usize {\n    s.as_ptr() as usize\n}\n";
    let hits = findings_for("crates/serve/src/batcher.rs", bad, "determinism");
    assert_eq!(hits.len(), 1, "{hits:#?}");
    assert!(hits.iter().all(|f| f.message.contains("as_ptr")), "{hits:#?}");
    // Wall-clock runners are not exempt from the pointer rule.
    let hits = findings_for("crates/core/src/hogwild.rs", bad, "determinism");
    assert_eq!(hits.len(), 1, "{hits:#?}");
}

#[test]
fn the_blessed_pointer_users_may_read_pointers() {
    // The allocator converts pointers into stable virtual addresses; the
    // SIMD kernels hand them to load/store/gather intrinsics. Both are
    // blessed; everything else is not (previous test).
    let bad = "pub fn cache_key<T>(s: &[T]) -> usize {\n    s.as_ptr() as usize\n}\n";
    for path in ["crates/gpusim/src/gpu.rs", "crates/linalg/src/simd.rs"] {
        let hits = findings_for(path, bad, "determinism");
        assert!(hits.is_empty(), "{path}: {hits:#?}");
    }
}

#[test]
fn panic_bad_fixture_triggers() {
    let hits = findings_for(
        "crates/core/src/hogwild.rs",
        include_str!("fixtures/panic_bad.rs"),
        "panic-freedom",
    );
    assert_eq!(hits.len(), 4, "unwrap, expect, panic!, unreachable!: {hits:#?}");
}

#[test]
fn panic_good_fixture_is_clean() {
    let hits = findings_for(
        "crates/core/src/hogwild.rs",
        include_str!("fixtures/panic_good.rs"),
        "panic-freedom",
    );
    assert!(hits.is_empty(), "{hits:#?}");
}

#[test]
fn libsvm_indexing_triggers_and_iterators_do_not() {
    let bad = "pub fn label(ds: &Dataset, i: usize) -> f64 {\n    ds.y[i]\n}\n";
    let hits = findings_for("crates/datagen/src/libsvm.rs", bad, "panic-freedom");
    assert_eq!(hits.len(), 1, "{hits:#?}");
    assert!(hits[0].message.contains("indexing"), "{hits:#?}");

    let good = "pub fn labels(ds: &Dataset) -> Vec<f64> {\n    ds.y.iter().copied().collect()\n}\n";
    let hits = findings_for("crates/datagen/src/libsvm.rs", good, "panic-freedom");
    assert!(hits.is_empty(), "{hits:#?}");
}

#[test]
fn serve_crate_is_in_panic_freedom_scope() {
    let hits = findings_for(
        "crates/serve/src/registry.rs",
        include_str!("fixtures/panic_bad.rs"),
        "panic-freedom",
    );
    assert_eq!(hits.len(), 4, "serve request paths are panic-free zones: {hits:#?}");
}

#[test]
fn serve_parsers_ban_indexing_like_libsvm() {
    let bad = "fn word(fields: &[&str], i: usize) -> String {\n    fields[i].to_string()\n}\n";
    for path in [
        "crates/serve/src/checkpoint.rs",
        "crates/serve/src/wire.rs",
        "crates/serve/src/framing.rs",
    ] {
        let hits = findings_for(path, bad, "panic-freedom");
        assert_eq!(hits.len(), 1, "{path}: {hits:#?}");
        assert!(hits.iter().any(|f| f.message.contains("indexing")), "{path}: {hits:#?}");
    }
    // Other serve modules ban panics but not indexing (they operate on
    // data the crate itself constructed, not wire bytes).
    let hits = findings_for("crates/serve/src/batcher.rs", bad, "panic-freedom");
    assert!(hits.is_empty(), "{hits:#?}");
}

#[test]
fn float_bad_fixture_triggers() {
    let hits = findings_for(
        "crates/core/src/convergence.rs",
        include_str!("fixtures/float_bad.rs"),
        "float-discipline",
    );
    assert!(hits.len() >= 3, "{hits:#?}");
    assert!(hits.iter().any(|f| f.message.contains("`==`")), "{hits:#?}");
    assert!(hits.iter().any(|f| f.message.contains("`!=`")), "{hits:#?}");
    assert!(hits.iter().any(|f| f.message.contains("partial_cmp")), "{hits:#?}");
}

#[test]
fn float_good_fixture_is_clean() {
    let hits = findings_for(
        "crates/core/src/convergence.rs",
        include_str!("fixtures/float_good.rs"),
        "float-discipline",
    );
    assert!(hits.is_empty(), "{hits:#?}");
}

#[test]
fn threads_bad_fixture_triggers() {
    let hits = findings_for(
        "crates/core/src/hogwild.rs",
        include_str!("fixtures/threads_bad.rs"),
        "thread-discipline",
    );
    assert_eq!(hits.len(), 3, "thread::spawn, thread::Builder, and thread::scope: {hits:#?}");
}

#[test]
fn threads_good_fixture_is_clean() {
    let hits = findings_for(
        "crates/core/src/hogwild.rs",
        include_str!("fixtures/threads_good.rs"),
        "thread-discipline",
    );
    assert!(hits.is_empty(), "{hits:#?}");
}

#[test]
fn thread_spawn_is_fine_inside_pool() {
    let hits = findings_for(
        "crates/linalg/src/pool.rs",
        include_str!("fixtures/threads_bad.rs"),
        "thread-discipline",
    );
    assert!(hits.is_empty(), "{hits:#?}");
}

#[test]
fn serve_may_scope_but_not_spawn() {
    // The serve carve-out: scoped (joined) threads are fine in the line
    // server that handles connections, detached spawn and Builder are
    // still banned, and the rest of the crate gets no carve-out.
    let bad = include_str!("fixtures/threads_bad.rs");
    let hits = findings_for("crates/serve/src/framing.rs", bad, "thread-discipline");
    assert_eq!(hits.len(), 2, "spawn and Builder only; scope allowed: {hits:#?}");
    assert!(hits.iter().all(|f| !f.message.contains("thread::scope")), "{hits:#?}");
    let hits = findings_for("crates/serve/src/wire.rs", bad, "thread-discipline");
    assert_eq!(hits.len(), 3, "{hits:#?}");
}

#[test]
fn queue_bad_fixture_triggers_in_both_queue_modules() {
    for path in ["crates/serve/src/batcher.rs", "crates/serve/src/admission.rs"] {
        let hits = findings_for(path, include_str!("fixtures/queue_bad.rs"), "queue-discipline");
        assert_eq!(hits.len(), 3, "push_back + pending.push + backlog.push: {path}: {hits:#?}");
        assert!(hits.iter().any(|f| f.message.contains("push_back")), "{hits:#?}");
        assert!(hits.iter().any(|f| f.message.contains("pending")), "{hits:#?}");
    }
}

#[test]
fn queue_good_fixture_is_clean() {
    let hits = findings_for(
        "crates/serve/src/admission.rs",
        include_str!("fixtures/queue_good.rs"),
        "queue-discipline",
    );
    assert!(hits.is_empty(), "annotated enqueue and result buffers pass: {hits:#?}");
}

#[test]
fn queue_pass_is_scoped_to_the_serving_queue_modules() {
    // The same growth patterns are fine elsewhere: training code and the
    // wire front-end have their own disciplines.
    for path in ["crates/core/src/hogwild.rs", "crates/serve/src/wire.rs"] {
        let hits = findings_for(path, include_str!("fixtures/queue_bad.rs"), "queue-discipline");
        assert!(hits.is_empty(), "{path}: {hits:#?}");
    }
}

#[test]
fn admission_module_bans_indexing_like_the_parsers() {
    // Overload decision paths run exactly when the system is degraded;
    // an out-of-bounds panic there turns shedding into an outage.
    let bad = "fn tier(caps: &[usize], t: usize) -> usize {\n    caps[t]\n}\n";
    let hits = findings_for("crates/serve/src/admission.rs", bad, "panic-freedom");
    assert_eq!(hits.len(), 1, "{hits:#?}");
    assert!(hits.iter().any(|f| f.message.contains("indexing")), "{hits:#?}");
    // `&mut [T]` parameters are type positions, not indexing.
    let good = "fn fill(out: &mut [f64]) {\n    for v in out.iter_mut() { *v = 0.0; }\n}\n";
    let hits = findings_for("crates/serve/src/admission.rs", good, "panic-freedom");
    assert!(hits.is_empty(), "{hits:#?}");
}

#[test]
fn lock_bad_fixture_triggers() {
    let hits = model_findings_for(
        &[("crates/serve/src/wire.rs", include_str!("fixtures/lock_bad.rs"))],
        "lock-discipline",
    );
    assert!(hits.len() >= 4, "dispatch, write_all, inversion, re-acquisition: {hits:#?}");
    assert!(hits.iter().any(|f| f.message.contains(".dispatch(")), "{hits:#?}");
    assert!(hits.iter().any(|f| f.message.contains(".write_all(")), "{hits:#?}");
    assert!(
        hits.iter().any(|f| f.message.contains("inverts the canonical lock order")),
        "{hits:#?}"
    );
    assert!(hits.iter().any(|f| f.message.contains("re-acquiring")), "{hits:#?}");
}

#[test]
fn lock_good_fixture_is_clean() {
    let hits = model_findings_for(
        &[("crates/serve/src/wire.rs", include_str!("fixtures/lock_good.rs"))],
        "lock-discipline",
    );
    assert!(hits.is_empty(), "scoped guards and canonical order pass: {hits:#?}");
}

#[test]
fn lock_pass_is_scoped_to_the_lock_sharing_modules() {
    // The same patterns outside serve/core/pool concern locks the table
    // does not rank; the pass stays silent rather than guessing.
    let hits = model_findings_for(
        &[("crates/datagen/src/libsvm.rs", include_str!("fixtures/lock_bad.rs"))],
        "lock-discipline",
    );
    assert!(hits.is_empty(), "{hits:#?}");
}

#[test]
fn hotpath_bad_fixture_triggers() {
    let hits = model_findings_for(
        &[("crates/serve/src/wire.rs", include_str!("fixtures/hotpath_bad.rs"))],
        "hot-path-alloc",
    );
    assert!(hits.len() >= 2, "direct root format! and one-hop format!: {hits:#?}");
    assert!(hits.iter().any(|f| f.message.contains("busy_reply")), "{hits:#?}");
    assert!(
        hits.iter().any(|f| f.message.contains("shed -> render_reply")),
        "reaching chain must name the path from the root: {hits:#?}"
    );
}

#[test]
fn hotpath_good_fixture_is_clean() {
    let hits = model_findings_for(
        &[("crates/serve/src/wire.rs", include_str!("fixtures/hotpath_good.rs"))],
        "hot-path-alloc",
    );
    assert!(hits.is_empty(), "construction-time formatting and push_str pass: {hits:#?}");
}

#[test]
fn hotpath_pass_needs_a_root_annotation() {
    // Without a root annotation nothing is reachable: the pass only
    // polices paths the code has explicitly marked hot.
    let unrooted = "pub fn reply(limit: usize) -> String {\n    format!(\"ERR BUSY {limit}\")\n}\n";
    let hits = model_findings_for(&[("crates/serve/src/wire.rs", unrooted)], "hot-path-alloc");
    assert!(hits.is_empty(), "{hits:#?}");
}

#[test]
fn reasonless_allow_is_reported_not_honored() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    // analyzer: allow(panic-freedom)\n    x.unwrap()\n}\n";
    let sf = SourceFile::parse("crates/core/src/engine.rs", src);
    let all = analyze_file(&sf, &all_passes());
    assert!(all.iter().any(|f| f.pass == "allow-syntax"), "{all:#?}");
    assert!(all.iter().any(|f| f.pass == "panic-freedom"), "not suppressed: {all:#?}");
}

fn repo_root() -> std::path::PathBuf {
    workspace::find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
}

fn committed_baseline(root: &Path) -> Baseline {
    let path = root.join("analyzer-baseline.toml");
    match std::fs::read_to_string(&path) {
        Ok(text) => Baseline::parse(&text).expect("committed baseline parses"),
        Err(_) => Baseline::default(),
    }
}

/// The gate itself: the live tree must be clean modulo the committed
/// baseline (exactly what CI's `analyze` job enforces).
#[test]
fn live_workspace_is_clean_modulo_baseline() {
    let root = repo_root();
    let report = sgd_analyzer::run_check(&root, &committed_baseline(&root)).expect("scan");
    assert!(report.files_scanned > 50, "suspiciously small scan: {}", report.files_scanned);
    assert!(report.is_clean(), "new analyzer findings on the live tree:\n{:#?}", report.fresh);
}

/// Acceptance check from the issue: reintroducing a `HashMap` into
/// sgd-gpusim or an `unwrap()` into a runner hot path must come out as a
/// *fresh* finding against the committed baseline, i.e. fail CI.
#[test]
fn reintroduced_violations_are_not_grandfathered() {
    let baseline = committed_baseline(&repo_root());

    let gpusim = "pub struct D {\n    m: std::collections::HashMap<u64, u64>,\n}\n";
    let sf = SourceFile::parse("crates/gpusim/src/gpu.rs", gpusim);
    let (fresh, _, _) = baseline.split(analyze_file(&sf, &all_passes()));
    assert!(fresh.iter().any(|f| f.pass == "determinism"), "{fresh:#?}");

    let runner = "pub fn epoch(g: Option<f64>) -> f64 {\n    g.unwrap()\n}\n";
    let sf = SourceFile::parse("crates/core/src/hogwild.rs", runner);
    let (fresh, _, _) = baseline.split(analyze_file(&sf, &all_passes()));
    assert!(fresh.iter().any(|f| f.pass == "panic-freedom"), "{fresh:#?}");
}

/// Acceptance check from the issue, semantic-pass edition: a guard held
/// across dispatch or a shed-path `format!` in fixture-mirrored form
/// must come out as a *fresh* finding against the committed baseline.
#[test]
fn reintroduced_semantic_violations_are_not_grandfathered() {
    let baseline = committed_baseline(&repo_root());
    let fresh_for = |text: &str, pass: &str| -> Vec<Finding> {
        let parsed = vec![SourceFile::parse("crates/serve/src/wire.rs", text)];
        let analysis = analyze_workspace(&parsed, &all_passes(), Default::default());
        let (fresh, _, _) = baseline.split(analysis.findings);
        fresh.into_iter().filter(|f| f.pass == pass).collect()
    };

    let fresh = fresh_for(include_str!("fixtures/lock_bad.rs"), "lock-discipline");
    assert!(!fresh.is_empty(), "guard-across-dispatch must fail the gate");

    let fresh = fresh_for(include_str!("fixtures/hotpath_bad.rs"), "hot-path-alloc");
    assert!(!fresh.is_empty(), "shed-path allocation must fail the gate");
}

/// The live-tree gate covers the semantic passes too: they must be
/// registered in `all_passes`, so `live_workspace_is_clean_modulo_baseline`
/// really does gate them.
#[test]
fn semantic_passes_are_registered() {
    let ids: Vec<&str> = all_passes().iter().map(|p| p.id()).collect();
    for id in ["lock-discipline", "hot-path-alloc", "panic-freedom"] {
        assert!(ids.contains(&id), "{id} missing from all_passes: {ids:?}");
    }
}
