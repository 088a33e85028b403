//! Bit-level pin of synchronous training and of the reference optimum.
//!
//! `golden/sync_golden.txt` holds, for every run below, the IEEE-754 bits
//! of each loss in its trace, its outcome, and an FNV-1a digest of the
//! bits of its best model; then the bits of `reference_optimum` for each
//! task and batch. Wall-clock seconds are not pinned. Any change to the
//! kernel stream of a sync epoch, to where the loss is read, or to the
//! grid's cutoffs moves a line here.
//!
//! The parallel corners run at a fixed width of 2 (`RunOptions::threads`
//! for the engine, `with_threads` around `reference_optimum`), so the
//! pinned bits do not depend on the host's core count.

use std::fmt::Write as _;

use sgd_study::core::{
    reference_optimum, Configuration, DeviceKind, Engine, FaultPlan, RunOptions, RunReport,
    Strategy,
};
use sgd_study::datagen::{generate, DatasetProfile, GenOptions};
use sgd_study::linalg::pool::with_threads;
use sgd_study::linalg::{CsrMatrix, Matrix};
use sgd_study::models::{lr, svm, Batch, Examples, MlpTask, Task};

const GOLDEN: &str = include_str!("golden/sync_golden.txt");

/// Covtype-shaped: dense, 54 features, 5,810 rows (above the parallel
/// kernels' row floor, so the width-2 corners really chunk).
fn covtype_like() -> (Matrix, Vec<f64>) {
    let ds = generate(&DatasetProfile::covtype().scaled(0.01), &GenOptions::default());
    (ds.x.to_dense(), ds.y)
}

/// w8a-shaped: sparse, 300 features, ~12 non-zeros a row, 6,470 rows.
fn w8a_like() -> (CsrMatrix, Vec<f64>) {
    let ds = generate(&DatasetProfile::w8a().scaled(0.1), &GenOptions::default());
    (ds.x, ds.y)
}

fn opts(max_epochs: usize) -> RunOptions {
    RunOptions { max_epochs, max_secs: 1e9, threads: 2, plateau: None, ..Default::default() }
}

fn hex_bits(v: f64) -> String {
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

fn pin_run(out: &mut String, name: &str, rep: &RunReport) {
    let losses: Vec<String> = rep.trace.points().iter().map(|&(_, l)| hex_bits(l)).collect();
    let best = rep.best_model.as_deref().map_or("none".to_string(), digest);
    let _ = writeln!(out, "{name} {:?} best={best} loss={}", rep.outcome, losses.join(","));
}

fn sync(device: DeviceKind) -> Configuration {
    Configuration::new(device, Strategy::Sync)
}

/// Both CPU corners of one linear task; `target` makes the supervisor's
/// stop decision part of the pin.
fn pin_linear<T: Task>(
    out: &mut String,
    name: &str,
    task: &T,
    batch: &Batch<'_>,
    alpha: f64,
    target: Option<f64>,
) {
    let o = RunOptions { target_loss: target, ..opts(20) };
    for device in [DeviceKind::CpuSeq, DeviceKind::CpuPar] {
        let rep = Engine::run(&sync(device), task, batch, alpha, &o);
        pin_run(out, &format!("{name} {}", device.label()), &rep);
    }
}

fn actual() -> String {
    let (xd, yd) = covtype_like();
    let (xs, ys) = w8a_like();
    let dense = Batch::new(Examples::Dense(&xd), &yd);
    let sparse = Batch::new(Examples::Sparse(&xs), &ys);
    let mut out = String::new();

    pin_linear(&mut out, "LR covtype", &lr(xd.cols()), &dense, 10.0, None);
    pin_linear(&mut out, "SVM covtype", &svm(xd.cols()), &dense, 1.0, Some(0.85));
    pin_linear(&mut out, "LR w8a", &lr(xs.cols()), &sparse, 10.0, None);
    pin_linear(&mut out, "SVM w8a", &svm(xs.cols()), &sparse, 1.0, Some(0.6));

    let mlp = MlpTask::new(vec![xd.cols(), 10, 5, 2], 7);
    let rep = Engine::run(&sync(DeviceKind::CpuPar), &mlp, &dense, 1.0, &opts(10));
    pin_run(&mut out, "MLP covtype cpu-par", &rep);

    let faulty = RunOptions {
        faults: FaultPlan::default().with_seed(3).with_drops(0.3).with_stale_reads(0.3),
        ..opts(20)
    };
    let rep = Engine::run(&sync(DeviceKind::CpuPar), &lr(xd.cols()), &dense, 10.0, &faulty);
    let faults = rep.metrics.total_faults();
    assert!(faults.dropped_updates > 0 && faults.stale_reads > 0, "the plan must fire");
    pin_run(&mut out, "LR covtype cpu-par drops+stale", &rep);

    for (name, batch) in [("covtype", &dense), ("w8a", &sparse)] {
        let d = batch.x.d();
        let lr_opt = with_threads(2, || reference_optimum(&lr(d), batch, 40));
        let svm_opt = with_threads(2, || reference_optimum(&svm(d), batch, 40));
        let _ = writeln!(out, "optimum {name} LR={} SVM={}", hex_bits(lr_opt), hex_bits(svm_opt));
    }
    out
}

#[test]
fn sync_traces_and_reference_optimum_are_pinned_bit_for_bit() {
    let got = actual();
    if got != GOLDEN {
        eprintln!("--- actual ---\n{got}--- end ---");
        panic!("sync training or reference_optimum moved a bit (actual printed above)");
    }
}
