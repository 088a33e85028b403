//! Bit-level pin of every deterministic corner the epoch loop drives.
//!
//! `golden/loop_golden.txt` holds, for each run below (clean, then under
//! the fault plan of `fault_determinism.rs`): the label, the outcome, the
//! run-level conflict total, an FNV-1a digest of the best model, and one
//! line per epoch with the loss bits and every `EpochMetrics` counter.
//! Seconds (per epoch, in total, and the straggler delay) are pinned only
//! where a simulated or modeled clock produces them; wall seconds never
//! are.
//!
//! The wall corners run where no two threads share a model: one-thread
//! Hogwild and Hogbatch, and `PerCore` / `PerNode { nodes: 2 }` at two
//! threads, where each thread owns its replica.
//!
//! The last rows pair the clocks on one task each: Hogwild on dense rows
//! with zero entries (wall and modeled at one thread, and the modeled
//! round buffer at four), and Hogbatch at one thread (LR on `dense()`,
//! the MLP on `dense()`), so a shared digest shows the two runners agree.
//!
//! `golden/comparator_golden.txt` pins the framework comparators the same
//! way: BIDMach LR (sparse) and SVM (dense) and TensorFlow MLP 6-4-2
//! (dense), each on modeled 1 and 4 threads, GPU-sim and cpu-seq.

use std::fmt::Write as _;

use sgd_study::core::{
    Configuration, CpuModelConfig, DeviceKind, Engine, FaultPlan, Replication, RunOptions,
    RunOutcome, RunReport, Strategy, Timing,
};
use sgd_study::dist::{run_dist_modeled, ConsistencyMode, DistConfig, StalePolicy};
use sgd_study::frameworks::{run_bidmach, run_tensorflow};
use sgd_study::linalg::{CsrMatrix, Matrix};
use sgd_study::models::{lr, svm, Batch, Examples, MlpTask, Task};

const GOLDEN: &str = include_str!("golden/loop_golden.txt");
const COMPARATOR_GOLDEN: &str = include_str!("golden/comparator_golden.txt");

fn sparse() -> (CsrMatrix, Vec<f64>) {
    let entries: Vec<Vec<(u32, f64)>> =
        (0..64).map(|i| vec![((i % 16) as u32, if i % 2 == 0 { 1.0 } else { -1.0 })]).collect();
    let y = (0..64).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
    (CsrMatrix::from_row_entries(64, 16, &entries), y)
}

/// Dense 64x6 with one or two zero entries a row (`-0.0` on the negative
/// rows): an update's write set and its margin's sign of zero show.
fn dense_zeros() -> (Matrix, Vec<f64>) {
    let x = Matrix::from_fn(64, 6, |i, j| {
        let s = if i % 2 == 0 { 1.0 } else { -1.0 };
        s * ((i * 3 + j) % 5) as f64 / 4.0
    });
    let y = (0..64).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
    (x, y)
}

fn dense() -> (Matrix, Vec<f64>) {
    let x = Matrix::from_fn(64, 6, |i, j| {
        let s = if i % 2 == 0 { 1.0 } else { -1.0 };
        s * (((i * 3 + j) % 5) as f64 + 1.0) / 5.0
    });
    let y = (0..64).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
    (x, y)
}

/// The plan of `fault_determinism.rs`, with the dying worker a parameter
/// so the small clusters below also lose one.
fn plan(dead: usize) -> FaultPlan {
    FaultPlan::default()
        .with_seed(99)
        .with_straggler(0, 3.0)
        .with_drops(0.1)
        .with_stale_reads(0.1)
        .with_corruption(0.1, 0.5)
        .with_worker_death(dead, 5)
}

fn opts(threads: usize, faults: FaultPlan) -> RunOptions {
    RunOptions {
        max_epochs: 10,
        max_secs: 1e9,
        threads,
        plateau: None,
        faults,
        ..Default::default()
    }
}

fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// FNV-1a over the little-endian bytes of each coordinate's bits.
fn digest(w: &[f64]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in w.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Appends one run; `clocked` says its seconds are simulated or modeled.
fn pin(out: &mut String, rep: &RunReport, faulted: bool, clocked: bool) {
    // A faulted run counts fault events, unless the death it injects
    // stops the run before the epoch that would record it completes.
    let events = rep.metrics.total_faults().total_events();
    let fired = events > 0 || matches!(rep.outcome, RunOutcome::FaultAborted { .. });
    assert_eq!(faulted, fired, "{}: fault events {events}, {:?}", rep.label, rep.outcome);
    let secs = |v: f64| if clocked { hex(v) } else { "wall".to_string() };
    let best = rep.best_model.as_deref().map_or("none".to_string(), digest);
    let _ = writeln!(
        out,
        "{} faulted={faulted} {:?} secs={} conflicts={:?} best={best} loss0={}",
        rep.label,
        rep.outcome,
        secs(rep.opt_seconds),
        rep.metrics.update_conflicts,
        hex(rep.trace.points()[0].1),
    );
    assert_eq!(rep.metrics.epochs.len(), rep.trace.epochs(), "{}", rep.label);
    for (m, p) in rep.metrics.epochs.iter().zip(&rep.trace.points()[1..]) {
        assert_eq!((m.elapsed_secs.to_bits(), m.loss.to_bits()), (p.0.to_bits(), p.1.to_bits()));
        let f = &m.faults;
        let _ = writeln!(
            out,
            "  e{} loss={} t={} conflicts={} cycles={} l2={} stale_rounds={} coherency={} \
             faults={}/{}/{}/{} delay={}",
            m.epoch,
            hex(m.loss),
            secs(m.elapsed_secs),
            m.update_conflicts,
            hex(m.simulated_cycles),
            hex(m.l2_hit_ratio),
            m.staleness_rounds,
            hex(m.coherency_conflicts),
            f.dropped_updates,
            f.stale_reads,
            f.corrupted_updates,
            f.dead_workers,
            secs(f.straggler_delay_secs),
        );
    }
}

/// One `Engine` corner, clean and faulted.
fn corner<T: Task>(
    out: &mut String,
    cfg: &Configuration,
    task: &T,
    batch: &Batch<'_>,
    alpha: f64,
    threads: usize,
    clocked: bool,
) {
    for faulted in [false, true] {
        let faults = if faulted { plan(2) } else { FaultPlan::default() };
        let rep = Engine::run(cfg, task, batch, alpha, &opts(threads, faults));
        pin(out, &rep, faulted, clocked);
    }
}

fn actual() -> String {
    let (xs, ys) = sparse();
    let (xd, yd) = dense();
    let (xz, yz) = dense_zeros();
    let sparse = Batch::new(Examples::Sparse(&xs), &ys);
    let dense = Batch::new(Examples::Dense(&xd), &yd);
    let zeros = Batch::new(Examples::Dense(&xz), &yz);
    let mlp = MlpTask::new(vec![6, 4, 2], 42);
    let hogbatch = || Strategy::Hogbatch { batch_size: 16 };
    let modeled = |threads: usize, s: Strategy| {
        let mc = CpuModelConfig::paper_machine(threads);
        Configuration::new(mc.device(), s).with_timing(Timing::Modeled(mc))
    };
    let mut out = String::new();

    for threads in [1usize, 4] {
        corner(&mut out, &modeled(threads, Strategy::Sync), &lr(16), &sparse, 0.5, 4, true);
        corner(&mut out, &modeled(threads, Strategy::Hogwild), &lr(16), &sparse, 0.2, 4, true);
        corner(&mut out, &modeled(threads, hogbatch()), &lr(6), &dense, 0.2, 4, true);
    }

    let gpu = |s: Strategy| Configuration::new(DeviceKind::Gpu, s);
    corner(&mut out, &gpu(Strategy::Sync), &lr(16), &sparse, 0.5, 4, true);
    corner(&mut out, &gpu(Strategy::Hogwild), &lr(16), &sparse, 0.2, 4, true);
    corner(&mut out, &gpu(hogbatch()), &mlp, &dense, 0.5, 4, true);

    let seq = |s: Strategy| Configuration::new(DeviceKind::CpuSeq, s);
    corner(&mut out, &seq(Strategy::Hogwild), &lr(16), &sparse, 0.2, 1, false);
    corner(&mut out, &seq(hogbatch()), &mlp, &dense, 0.5, 1, false);
    for replication in [Replication::PerCore, Replication::PerNode { nodes: 2 }] {
        let cfg =
            Configuration::new(DeviceKind::CpuPar, Strategy::ReplicatedHogwild { replication });
        corner(&mut out, &cfg, &lr(16), &sparse, 0.2, 2, false);
    }

    for workers in [1usize, 2] {
        let modes = [
            ConsistencyMode::Sync { grads_to_wait: workers },
            ConsistencyMode::Async { max_staleness: 2, policy: StalePolicy::Reject },
        ];
        for mode in modes {
            let cfg = DistConfig { workers, shards: 4, mode, ..Default::default() };
            for faulted in [false, true] {
                let faults = if faulted { plan(workers - 1) } else { FaultPlan::default() };
                let rep = run_dist_modeled(&lr(6), &dense, &cfg, 0.3, &opts(1, faults));
                pin(&mut out, &rep, faulted, true);
            }
        }
    }

    corner(&mut out, &seq(Strategy::Hogwild), &lr(6), &zeros, 0.2, 1, false);
    for threads in [1usize, 4] {
        corner(&mut out, &modeled(threads, Strategy::Hogwild), &lr(6), &zeros, 0.2, 4, true);
    }
    corner(&mut out, &seq(hogbatch()), &lr(6), &dense, 0.2, 1, false);
    corner(&mut out, &modeled(1, hogbatch()), &mlp, &dense, 0.5, 4, true);
    out
}

#[test]
fn every_loop_driven_corner_is_pinned_bit_for_bit() {
    let got = actual();
    if got != GOLDEN {
        eprintln!("--- actual ---\n{got}--- end ---");
        panic!("a loop-driven corner moved a bit (actual printed above)");
    }
}

/// The comparators' corners, each with whether its clock is simulated or
/// modeled.
fn comparator_corners() -> Vec<(Configuration, bool)> {
    let mut corners: Vec<(Configuration, bool)> = [1usize, 4]
        .into_iter()
        .map(|threads| {
            let mc = CpuModelConfig::paper_machine(threads);
            let cfg = Configuration::new(mc.device(), Strategy::Sync);
            (cfg.with_timing(Timing::Modeled(mc)), true)
        })
        .collect();
    corners.push((Configuration::new(DeviceKind::Gpu, Strategy::Sync), true));
    corners.push((Configuration::new(DeviceKind::CpuSeq, Strategy::Sync), false));
    corners
}

fn comparator_actual() -> String {
    let (xs, ys) = sparse();
    let (xd, yd) = dense();
    let sparse = Batch::new(Examples::Sparse(&xs), &ys);
    let dense = Batch::new(Examples::Dense(&xd), &yd);
    let o = opts(1, FaultPlan::default());
    let mut out = String::new();
    for (cfg, clocked) in comparator_corners() {
        pin(&mut out, &run_bidmach(&cfg, &lr(16), &sparse, 0.5, &o), false, clocked);
        pin(&mut out, &run_bidmach(&cfg, &svm(6), &dense, 0.5, &o), false, clocked);
        pin(&mut out, &run_tensorflow(&cfg, &[6, 4, 2], &xd, &yd, 0.5, &o), false, clocked);
    }
    out
}

#[test]
fn every_comparator_corner_is_pinned_bit_for_bit() {
    let got = comparator_actual();
    if got != COMPARATOR_GOLDEN {
        eprintln!("--- actual ---\n{got}--- end ---");
        panic!("a comparator corner moved a bit (actual printed above)");
    }
}
