//! The comparators stop the way the engine does: they run on its epoch
//! loop, so the explosion sentinel and the best model are the engine's.
//! They also run at its kernel tier.

use sgd_core::{Configuration, DeviceKind, Engine, RunOptions, RunOutcome, RunReport, Strategy};
use sgd_frameworks::{run_bidmach, run_tensorflow};
use sgd_linalg::{CpuExec, KernelTier, Matrix, Scalar};
use sgd_models::{lr, Batch, Examples, MlpTask, Task};

/// Dense 64x6, `x[i][j] = ((3i + j) % 5 + 1) / 5`, positive every third
/// row.
fn fixture() -> (Matrix, Vec<Scalar>) {
    let x = Matrix::from_fn(64, 6, |i, j| ((i * 3 + j) % 5 + 1) as Scalar / 5.0);
    let y = (0..64).map(|i| if i % 3 == 0 { 1.0 } else { -1.0 }).collect();
    (x, y)
}

#[test]
fn the_comparators_stop_the_way_the_engine_does() {
    let (x, y) = fixture();
    let batch = Batch::new(Examples::Dense(&x), &y);
    let opts = RunOptions { max_epochs: 10, plateau: None, ..Default::default() };
    let seq = Configuration::new(DeviceKind::CpuSeq, Strategy::Sync);

    // A finite loss above 1e4 x the initial one trips the explosion
    // sentinel, as in the engine.
    let bid = run_bidmach(&seq, &lr(6), &batch, 1e5, &opts);
    let ours = Engine::run(&seq, &lr(6), &batch, 1e5, &opts);
    let explosion = ours.outcome == RunOutcome::Diverged { epoch: 1 }
        && ours.trace.points()[1].1.is_finite()
        && bid.outcome == ours.outcome;

    // The best model is kept, in `MlpTask`'s layout.
    let tf = run_tensorflow(&seq, &[6, 4, 2], &x, &y, 0.5, &opts);
    let mlp = MlpTask::new(vec![6, 4, 2], opts.seed);
    let best_loss = tf.trace.best_loss().unwrap_or(f64::NAN);
    let best = tf.best_model.as_deref().filter(|w| w.len() == mlp.dim());
    let best_model =
        best.is_some_and(|w| (mlp.loss(&mut CpuExec::seq(), &batch, w) - best_loss).abs() < 1e-10);

    // At every kernel tier, BIDMach's full-batch LR step is the engine's,
    // bit for bit, on data where the tiers' losses differ.
    let wide =
        Matrix::from_fn(257, 37, |i, j| ((i * 7919 + j * 104_729) % 1009) as Scalar / 168.0 - 3.0);
    let wide_y: Vec<Scalar> = (0..257).map(|i| if i % 3 == 0 { 1.0 } else { -1.0 }).collect();
    let wide_batch = Batch::new(Examples::Dense(&wide), &wide_y);
    let bits = |r: &RunReport| r.trace.points().iter().map(|p| p.1.to_bits()).collect::<Vec<_>>();
    let [scalar, simd] = [KernelTier::Scalar, KernelTier::Simd].map(|tier| {
        let o = RunOptions { max_epochs: 5, tier, ..opts.clone() };
        let bid = bits(&run_bidmach(&seq, &lr(37), &wide_batch, 0.3, &o));
        let ours = bits(&Engine::run(&seq, &lr(37), &wide_batch, 0.3, &o));
        (format!("LR at {tier:?}: BIDMach {bid:x?}, ours {ours:x?}"), bid, ours)
    });
    let tiers = [
        (format!("the tiers differ: {} vs {}", scalar.0, simd.0), scalar.2 != simd.2),
        (scalar.0, scalar.1 == scalar.2),
        (simd.0, simd.1 == simd.2),
    ];

    let rows = [
        (
            format!("LR at 1e5 explodes: BIDMach {:?}, ours {:?}", bid.outcome, ours.outcome),
            explosion,
        ),
        (format!("TF MLP keeps its best model: {:?}", tf.best_model.map(|w| w.len())), best_model),
    ];
    for (row, ok) in rows.into_iter().chain(tiers) {
        assert!(ok, "{row}");
    }
}
