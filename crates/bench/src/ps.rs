//! Parameter-server scale-out sweep: sync vs async consistency across
//! worker counts and elastic-membership churn.
//!
//! The distributed extension of the paper's sync/async axis: every cell
//! runs the modeled parameter-server cluster (`sgd-dist`) — exact
//! kernels, discrete-event time — so the sweep is deterministic and the
//! headline contrasts are properties of the protocols, not of the host.
//! Three churn plans stress each (mode, worker-count) point:
//!
//! * `clean` — the degradation baseline;
//! * `straggler-8x` — worker 0 computes 8x slower. The sync quorum
//!   repeatedly rejects the straggler's stale gradients (it recomputes
//!   while the fast workers advance the version), so sync pays far more
//!   than the straggler's throughput share; async admits the late
//!   gradient under its staleness bound and degrades gracefully.
//! * `death+rejoin` — a worker dies mid-run and rejoins later; its
//!   leases are revoked and reassigned and the run still converges. A
//!   1-worker cluster losing its only worker is the honest corner case:
//!   the run fault-aborts.

use sgd_core::{
    Configuration, DeviceKind, Engine, FaultPlan, RunOptions, RunOutcome, Strategy, Timing,
};
use sgd_dist::{run_dist_modeled, ConsistencyMode, DistConfig, StalePolicy};

use crate::cli::ExperimentConfig;
use crate::prep::{prepare_all, Prepared};

/// Worker counts swept.
pub const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Compute slowdown of the injected straggler.
pub const STRAGGLER: f64 = 8.0;

/// The consistency modes compared, sized to the worker count: sync waits
/// for one gradient per live worker; async bounds staleness at two
/// pipeline rounds.
pub fn modes(workers: usize) -> [ConsistencyMode; 2] {
    [
        ConsistencyMode::Sync { grads_to_wait: workers },
        ConsistencyMode::Async { max_staleness: 2 * workers as u64, policy: StalePolicy::Reject },
    ]
}

/// The churn plans swept per (mode, workers) point. The death plan kills
/// worker 1 where there is one (worker 0 on a 1-worker cluster — the
/// abort corner) at epoch 2 and rejoins it at epoch 5.
pub fn plans(workers: usize) -> Vec<(&'static str, FaultPlan)> {
    let victim = 1usize.min(workers.saturating_sub(1));
    vec![
        ("clean", FaultPlan::default()),
        ("straggler-8x", FaultPlan::default().with_straggler(0, STRAGGLER)),
        ("death+rejoin", FaultPlan::default().with_worker_death(victim, 2).with_rejoin(victim, 5)),
    ]
}

/// The modeled cluster for one cell: one modeled core per worker, two
/// shards per worker, a 50 µs modeled network round trip. The RTT is
/// scaled with the dataset scale like every other fixed cost in
/// [`ExperimentConfig::mc_seq`], so shrunken datasets keep the paper's
/// compute-to-network ratio.
pub fn cluster(cfg: &ExperimentConfig, workers: usize, mode: ConsistencyMode) -> DistConfig {
    DistConfig {
        workers,
        shards: 2 * workers,
        mode,
        mc: cfg.mc_seq(),
        net_rtt_secs: 50.0e-6 * cfg.scale,
    }
}

/// One (dataset, mode, workers, plan) cell of the sweep.
#[derive(Clone, Debug)]
pub struct PsCell {
    /// Dataset name.
    pub dataset: String,
    /// Consistency-mode label (`sync-w4`, `async-s8-reject`).
    pub mode: String,
    /// Worker count.
    pub workers: usize,
    /// Churn-plan name from [`plans`].
    pub plan: &'static str,
    /// Supervisor outcome label.
    pub outcome: String,
    /// Epochs completed.
    pub epochs: usize,
    /// Modeled time per epoch, milliseconds.
    pub tpe_ms: f64,
    /// Time-per-epoch degradation vs this (dataset, mode, workers)
    /// clean cell.
    pub degradation: f64,
    /// Stale pushes rejected or down-weighted over the run.
    pub staleness_rounds: u64,
    /// Worker-death events absorbed.
    pub dead_workers: u64,
    /// Best loss the run reached.
    pub best_loss: f64,
}

/// Picks a step size for `task` on `batch` by a tiny deterministic grid
/// over the 1-worker cluster (shared by every cell of the dataset so
/// the cells differ only in mode, scale, and churn).
fn pick_alpha<T: sgd_models::Task>(
    cfg: &ExperimentConfig,
    task: &T,
    batch: &sgd_models::Batch<'_>,
    opts: &RunOptions,
) -> f64 {
    let probe = cluster(cfg, 1, ConsistencyMode::Sync { grads_to_wait: 1 });
    let mut popts = opts.clone();
    popts.max_epochs = opts.max_epochs.min(25);
    let mut best = (f64::INFINITY, cfg.grid.first().copied().unwrap_or(1.0));
    for &alpha in &cfg.grid {
        let rep = run_dist_modeled(task, batch, &probe, alpha, &popts);
        let loss = rep.best_loss();
        if !rep.diverged() && loss.is_finite() && loss < best.0 {
            best = (loss, alpha);
        }
    }
    best.1
}

fn run_cells(cfg: &ExperimentConfig, p: &Prepared, out: &mut Vec<PsCell>) {
    let task = sgd_models::lr(p.ds.d());
    let batch = p.linear_batch();
    let opts = cfg.run_options();
    let alpha = pick_alpha(cfg, &task, &batch, &opts);
    for workers in WORKER_COUNTS {
        for mode in modes(workers) {
            let dc = cluster(cfg, workers, mode);
            let mut clean_tpe = f64::NAN;
            for (pname, plan) in plans(workers) {
                let mut fopts = opts.clone();
                fopts.faults = plan;
                let rep = run_dist_modeled(&task, &batch, &dc, alpha, &fopts);
                let tpe = rep.time_per_epoch();
                if pname == "clean" {
                    clean_tpe = tpe;
                }
                out.push(PsCell {
                    dataset: p.name().to_string(),
                    mode: mode.label(),
                    workers,
                    plan: pname,
                    outcome: rep.outcome.label(),
                    epochs: rep.trace.epochs(),
                    tpe_ms: tpe * 1e3,
                    degradation: crate::render::ratio(tpe, clean_tpe),
                    staleness_rounds: rep.metrics.epochs.iter().map(|m| m.staleness_rounds).sum(),
                    dead_workers: rep.metrics.epochs.iter().map(|m| m.faults.dead_workers).sum(),
                    best_loss: rep.best_loss(),
                });
            }
        }
    }
}

/// Runs the full sweep on the first two selected datasets (one dense,
/// one sparse on the default selection).
pub fn rows(cfg: &ExperimentConfig) -> Vec<PsCell> {
    let mut out = Vec::new();
    for p in prepare_all(cfg).iter().take(2) {
        run_cells(cfg, p, &mut out);
    }
    out
}

/// Hand-rolled JSON for `BENCH_ps.json` (no JSON dependency).
pub fn to_json(rows: &[PsCell]) -> String {
    let mut out = String::from(
        "{\n  \"experiment\": \"parameter-server-scaleout\",\n  \"unit\": \"ms modeled time per epoch\",\n  \"rows\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"mode\": \"{}\", \"workers\": {}, \"plan\": \"{}\", \
             \"outcome\": \"{}\", \"epochs\": {}, \"tpe_ms\": {:.6}, \"degradation\": {:.4}, \
             \"staleness_rounds\": {}, \"dead_workers\": {}, \"best_loss\": {:.6}}}{}\n",
            r.dataset,
            r.mode,
            r.workers,
            r.plan,
            r.outcome,
            r.epochs,
            r.tpe_ms,
            r.degradation,
            r.staleness_rounds,
            r.dead_workers,
            r.best_loss,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Human-readable table plus the straggler headline per dataset.
pub fn render(rows: &[PsCell]) -> String {
    let mut out =
        String::from("Parameter-server scale-out: consistency mode x workers x churn (LR)\n");
    out.push_str(&format!(
        "{:<9} {:<16} {:>3} {:<13} | {:<18} {:>6} | {:>10} {:>7} | {:>7} {:>5} {:>12}\n",
        "dataset",
        "mode",
        "wk",
        "plan",
        "outcome",
        "epochs",
        "tpe-ms",
        "degrad",
        "stale",
        "dead",
        "best-loss"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<9} {:<16} {:>3} {:<13} | {:<18} {:>6} | {:>10.4} {:>6.2}x | {:>7} {:>5} {:>12.6}\n",
            r.dataset,
            r.mode,
            r.workers,
            r.plan,
            r.outcome,
            r.epochs,
            r.tpe_ms,
            r.degradation,
            r.staleness_rounds,
            r.dead_workers,
            r.best_loss,
        ));
    }
    out.push('\n');
    for (s, a) in straggler_comparison(rows) {
        out.push_str(&format!(
            "{} x{}: sync degrades {:.2}x, async degrades {:.2}x under the {}x straggler \
             (the quorum stalls on stale recomputes; async admits the late gradient)\n",
            s.dataset, s.workers, s.degradation, a.degradation, STRAGGLER,
        ));
    }
    out
}

/// Pairs each straggler sync cell at >= 4 workers with the async cell of
/// the same (dataset, workers), for the headline comparison.
pub fn straggler_comparison(rows: &[PsCell]) -> Vec<(&PsCell, &PsCell)> {
    let mut out = Vec::new();
    for s in rows {
        if !s.mode.starts_with("sync") || s.plan != "straggler-8x" || s.workers < 4 {
            continue;
        }
        if let Some(a) = rows.iter().find(|a| {
            a.mode.starts_with("async")
                && a.plan == s.plan
                && a.dataset == s.dataset
                && a.workers == s.workers
        }) {
            out.push((s, a));
        }
    }
    out
}

/// CI smoke mode. Pins, on a tiny dataset:
/// 1. bit-determinism: the full sweep re-run agrees on every modeled
///    time and loss bitwise;
/// 2. single-node anchor: the 1-worker 1-shard sync cluster reproduces
///    modeled `Engine::run` sync corner's loss trajectory bit for bit;
/// 3. the straggler contrast: at every >= 4-worker point, async
///    time-per-epoch degrades strictly less than sync;
/// 4. elasticity: a death+rejoin run at >= 2 workers reaches a
///    convergence target derived from its own clean run.
pub fn check(cfg: &ExperimentConfig) -> Result<(), String> {
    let a = rows(cfg);
    let b = rows(cfg);

    // (1) Bit-determinism across full re-runs.
    if a.len() != b.len() {
        return Err(format!("sweep size diverged across runs ({} vs {})", a.len(), b.len()));
    }
    for (x, y) in a.iter().zip(&b) {
        let same = x.tpe_ms.to_bits() == y.tpe_ms.to_bits()
            && x.best_loss.to_bits() == y.best_loss.to_bits()
            && x.epochs == y.epochs
            && x.staleness_rounds == y.staleness_rounds
            && x.dead_workers == y.dead_workers
            && x.outcome == y.outcome;
        if !same {
            return Err(format!(
                "{} {} x{} {}: not bit-deterministic across runs",
                x.dataset, x.mode, x.workers, x.plan
            ));
        }
    }

    // (2) The 1-worker 1-shard sync cluster is bitwise the single-node
    // modeled sync runner.
    let Some(p) = prepare_all(cfg).into_iter().next() else {
        return Err("no dataset selected".into());
    };
    let task = sgd_models::lr(p.ds.d());
    let batch = p.linear_batch();
    let opts = RunOptions { max_epochs: 8, plateau: None, ..cfg.run_options() };
    let alpha = pick_alpha(cfg, &task, &batch, &opts);
    let mut dc = cluster(cfg, 1, ConsistencyMode::Sync { grads_to_wait: 1 });
    dc.shards = 1;
    let dist = run_dist_modeled(&task, &batch, &dc, alpha, &opts);
    let corner = Configuration::new(DeviceKind::CpuSeq, Strategy::Sync)
        .with_timing(Timing::Modeled(cfg.mc_seq()));
    let single = Engine::run(&corner, &task, &batch, alpha, &opts);
    if dist.trace.points().len() != single.trace.points().len() {
        return Err(format!(
            "1-worker trace length {} != single-node {}",
            dist.trace.points().len(),
            single.trace.points().len()
        ));
    }
    for (d, s) in dist.trace.points().iter().zip(single.trace.points()) {
        if d.1.to_bits() != s.1.to_bits() {
            return Err(format!(
                "1-worker sync loss {} != single-node {} (must be bitwise identical)",
                d.1, s.1
            ));
        }
    }

    // (3) Async absorbs the straggler better than sync at every >= 4
    // worker point.
    let pairs = straggler_comparison(&a);
    if pairs.is_empty() {
        return Err("no straggler cells at >= 4 workers".into());
    }
    for (s, y) in pairs {
        // Negated so a NaN degradation fails the check too.
        let absorbed = y.degradation < s.degradation;
        if !absorbed {
            return Err(format!(
                "{} x{}: async straggler degradation {:.3}x must be below sync {:.3}x",
                s.dataset, s.workers, y.degradation, s.degradation
            ));
        }
    }

    // (4) Death + rejoin still converges at >= 2 workers.
    let dc = cluster(cfg, 4, ConsistencyMode::Sync { grads_to_wait: 4 });
    let mut churn = opts.clone();
    churn.faults = FaultPlan::default().with_worker_death(1, 2).with_rejoin(1, 5);
    let probe = run_dist_modeled(&task, &batch, &dc, alpha, &churn);
    let mut target = churn.clone();
    target.target_loss = Some(probe.best_loss() * 1.02);
    let rep = run_dist_modeled(&task, &batch, &dc, alpha, &target);
    if rep.outcome != RunOutcome::Converged {
        return Err(format!("death+rejoin run must converge, got {:?}", rep.outcome));
    }
    let dead: u64 = rep.metrics.epochs.iter().map(|m| m.faults.dead_workers).sum();
    if dead != 1 {
        return Err(format!("death+rejoin run must absorb exactly one death, saw {dead}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_check_passes() {
        let cfg = ExperimentConfig::smoke();
        check(&cfg).expect("ps --check must hold on the smoke config");
    }

    #[test]
    fn straggler_comparison_pairs_sync_with_async() {
        let cfg = ExperimentConfig::smoke();
        let cells = rows(&cfg);
        let pairs = straggler_comparison(&cells);
        assert_eq!(pairs.len(), 2, "4- and 8-worker pairs on one dataset");
        for (s, a) in pairs {
            assert!(s.mode.starts_with("sync") && a.mode.starts_with("async"));
            assert_eq!(s.workers, a.workers);
        }
    }

    #[test]
    fn json_and_render_cover_every_cell() {
        let cfg = ExperimentConfig::smoke();
        let cells = rows(&cfg);
        assert_eq!(cells.len(), WORKER_COUNTS.len() * 2 * 3, "modes x workers x plans");
        let json = to_json(&cells);
        assert!(json.contains("\"parameter-server-scaleout\""));
        assert!(json.contains("straggler-8x"));
        assert!(json.contains("death+rejoin"));
        let table = render(&cells);
        assert!(table.contains("sync degrades"));
    }

    #[test]
    fn a_one_worker_death_is_the_abort_corner() {
        let cfg = ExperimentConfig::smoke();
        let cells = rows(&cfg);
        let corner = cells
            .iter()
            .find(|c| c.workers == 1 && c.plan == "death+rejoin" && c.mode.starts_with("sync"))
            .expect("1-worker death cell present");
        assert!(
            corner.outcome.starts_with("fault-aborted"),
            "a 1-worker cluster cannot survive its only worker: {}",
            corner.outcome
        );
    }
}
