//! TensorFlow-like synchronous MLP training (the paper's Fig. 9
//! comparator).
//!
//! Differences from our own implementation, mirroring TensorFlow 0.12:
//!
//! * execution is op-granular through the [`crate::tfgraph`] interpreter —
//!   every op (and every backward op, and one update per parameter
//!   tensor) is a separate kernel with a materialized output;
//! * the GPU path pays a per-op host dispatch overhead (the graph
//!   executor schedules kernels one at a time);
//! * the CPU backend parallelizes *all* matrix products (TF's Eigen has no
//!   ViennaCL-style minimum-size threshold), which is why TF's GPU-over-CPU
//!   speedup is lower than ours on small nets — its CPU baseline is
//!   faster, and its GPU pays more launches.

use sgd_core::{Configuration, RunOptions, RunReport, Strategy};
use sgd_linalg::{Exec, Matrix, Scalar};
use sgd_models::Task;

use crate::step::{self, SyncUpdate};
use crate::tfgraph::{Graph, Session};

/// Runs the TensorFlow comparator for one engine [`Configuration`]
/// corner.
///
/// The graph executor implements synchronous (full-batch) GD only, so
/// the configuration's strategy must be [`Strategy::Sync`]; the timing
/// source and device follow the configuration like
/// [`sgd_core::Engine::run`]. It runs on the engine's epoch loop: the
/// same sentinel, plateau stop and best model (in
/// [`sgd_models::MlpTask`]'s layout). It ignores `opts.faults`.
pub fn run_tensorflow(
    cfg: &Configuration,
    layers: &[usize],
    x: &Matrix,
    y: &[Scalar],
    alpha: f64,
    opts: &RunOptions,
) -> RunReport {
    assert!(
        matches!(cfg.strategy, Strategy::Sync),
        "the TensorFlow comparator implements synchronous GD only"
    );
    // Same initialization as `MlpTask`, so cross-framework trajectories
    // coincide.
    let w = sgd_models::MlpTask::new(layers.to_vec(), opts.seed).init_model();
    let (graph, _, shapes) = Graph::mlp(layers);
    let mut off = 0;
    let params = shapes
        .iter()
        .map(|&(r, c)| {
            let m = Matrix::from_vec(r, c, w[off..off + r * c].to_vec());
            off += r * c;
            m
        })
        .collect();
    let classes = y.iter().map(|&l| usize::from(l > 0.0)).collect();
    let update = TfGd { sess: Session::new(graph, params), x, classes, w };
    step::run(cfg, "TF MLP", update, alpha, opts)
}

/// Gradient descent through the graph executor; `w` mirrors the session's
/// parameters in `MlpTask`'s layout (the shapes concatenated in order).
struct TfGd<'a> {
    sess: Session,
    x: &'a Matrix,
    classes: Vec<usize>,
    w: Vec<Scalar>,
}

impl SyncUpdate for TfGd<'_> {
    const THREAD_PER_ROW: bool = false;
    /// The graph executor schedules kernels one at a time from the host.
    const LAUNCH_SECS: f64 = 50e-6;
    /// Eigen has no ViennaCL-style small-GEMM threshold.
    const PARALLEL_EVERY_GEMM: bool = true;

    fn update<E: Exec>(&mut self, e: &mut E, alpha: f64) {
        let grads = self.sess.gradients(e, self.x, &self.classes);
        self.sess.apply_gradients(e, &grads, alpha);
    }

    fn loss<E: Exec>(&self, e: &mut E) -> f64 {
        self.sess.loss(e, self.x, &self.classes)
    }

    fn sync_model(&mut self) {
        let mut off = 0;
        for p in self.sess.params() {
            let v = p.as_slice();
            self.w[off..off + v.len()].copy_from_slice(v);
            off += v.len();
        }
    }

    fn model(&self) -> &[Scalar] {
        &self.w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgd_core::{DeviceKind, Engine};
    use sgd_models::{Batch, Examples, MlpTask};

    fn toy() -> (Matrix, Vec<Scalar>) {
        let x = Matrix::from_fn(48, 5, |i, j| {
            let s = if i % 2 == 0 { 1.0 } else { -1.0 };
            s * (((i * 3 + j) % 4) as Scalar + 1.0) / 4.0
        });
        let y = (0..48).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        (x, y)
    }

    fn corner(device: DeviceKind) -> Configuration {
        Configuration::new(device, Strategy::Sync)
    }

    #[test]
    fn tf_trajectory_matches_our_sync_mlp() {
        // Same math, same init: TF-sim and our MLP task must produce the
        // same loss trajectory under synchronous GD.
        let (x, y) = toy();
        let layers = vec![5, 4, 2];
        let opts = RunOptions { max_epochs: 8, ..Default::default() };
        let tf = run_tensorflow(&corner(DeviceKind::CpuSeq), &layers, &x, &y, 0.5, &opts);

        let task = MlpTask::new(layers, opts.seed);
        let b = Batch::new(Examples::Dense(&x), &y);
        let ours = Engine::run(&corner(DeviceKind::CpuSeq), &task, &b, 0.5, &opts);
        for (p, q) in tf.trace.points().iter().zip(ours.trace.points()) {
            assert!((p.1 - q.1).abs() < 1e-10, "{} vs {}", p.1, q.1);
        }
    }

    #[test]
    fn gpu_run_is_costed_and_converges_like_cpu() {
        let (x, y) = toy();
        let layers = vec![5, 4, 2];
        let opts = RunOptions { max_epochs: 6, ..Default::default() };
        let gpu = run_tensorflow(&corner(DeviceKind::Gpu), &layers, &x, &y, 0.5, &opts);
        let cpu = run_tensorflow(&corner(DeviceKind::CpuSeq), &layers, &x, &y, 0.5, &opts);
        assert!(gpu.opt_seconds > 0.0);
        for (p, q) in gpu.trace.points().iter().zip(cpu.trace.points()) {
            assert!((p.1 - q.1).abs() < 1e-10);
        }
        assert!(gpu.metrics.total_simulated_cycles().unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn gpu_dispatch_overhead_dominates_tiny_graphs() {
        // >= 12 launches x 50 us means at least ~0.6 ms per epoch on a
        // tiny input regardless of arithmetic.
        let (x, y) = toy();
        let opts = RunOptions { max_epochs: 4, ..Default::default() };
        let gpu = run_tensorflow(&corner(DeviceKind::Gpu), &[5, 4, 2], &x, &y, 0.5, &opts);
        assert!(gpu.time_per_epoch() > 0.5e-3, "{}", gpu.time_per_epoch());
    }
}
