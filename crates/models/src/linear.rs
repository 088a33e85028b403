//! Generalized linear tasks: logistic regression and linear SVM.

use sgd_linalg::{Exec, Scalar};

use crate::batch::{Batch, Examples};
use crate::task::Task;

/// A pointwise margin loss `l(m, y)` with its derivative in the margin.
///
/// This is the piece the asynchronous (Hogwild) optimizers need: for a
/// linear model the per-example gradient is `dloss(x.w, y) * x`, so the
/// incremental update touches exactly the example's non-zero coordinates.
pub trait LinearLoss: Sync + Send + Clone {
    /// Task name for reports.
    const NAME: &'static str;
    /// Loss at margin `m` with label `y in {-1, +1}`.
    fn loss(&self, m: Scalar, y: Scalar) -> Scalar;
    /// Derivative of the loss with respect to the margin.
    fn dloss(&self, m: Scalar, y: Scalar) -> Scalar;
}

/// Object-safe view of a [`LinearLoss`].
///
/// `LinearLoss` itself is not object-safe (it is `Clone` and carries an
/// associated constant), but the execution engine in `sgd-core` needs to
/// hand a pointwise loss through a uniform, non-generic interface. Every
/// `LinearLoss` implements this trait automatically.
pub trait PointwiseLoss: Sync {
    /// Task name for reports.
    fn name(&self) -> &'static str;
    /// Loss at margin `m` with label `y in {-1, +1}`.
    fn loss_at(&self, m: Scalar, y: Scalar) -> Scalar;
    /// Derivative of the loss with respect to the margin.
    fn dloss_at(&self, m: Scalar, y: Scalar) -> Scalar;
}

impl<L: LinearLoss> PointwiseLoss for L {
    fn name(&self) -> &'static str {
        L::NAME
    }

    fn loss_at(&self, m: Scalar, y: Scalar) -> Scalar {
        self.loss(m, y)
    }

    fn dloss_at(&self, m: Scalar, y: Scalar) -> Scalar {
        self.dloss(m, y)
    }
}

/// Logistic loss `ln(1 + exp(-y m))`.
#[derive(Clone, Copy, Debug, Default)]
pub struct LogisticLoss;

impl LinearLoss for LogisticLoss {
    const NAME: &'static str = "LR";

    fn loss(&self, m: Scalar, y: Scalar) -> Scalar {
        let z = -y * m;
        // Numerically stable ln(1+exp(z)).
        if z > 0.0 {
            z + (-z).exp().ln_1p()
        } else {
            z.exp().ln_1p()
        }
    }

    fn dloss(&self, m: Scalar, y: Scalar) -> Scalar {
        // -y * sigmoid(-y m)
        let z = -y * m;
        let s = if z >= 0.0 {
            1.0 / (1.0 + (-z).exp())
        } else {
            let e = z.exp();
            e / (1.0 + e)
        };
        -y * s
    }
}

/// Hinge loss `max(0, 1 - y m)` (linear SVM, no regularizer — the paper
/// omits regularization to isolate computation time).
#[derive(Clone, Copy, Debug, Default)]
pub struct HingeLoss;

impl LinearLoss for HingeLoss {
    const NAME: &'static str = "SVM";

    fn loss(&self, m: Scalar, y: Scalar) -> Scalar {
        (1.0 - y * m).max(0.0)
    }

    fn dloss(&self, m: Scalar, y: Scalar) -> Scalar {
        if y * m < 1.0 {
            -y
        } else {
            0.0
        }
    }
}

/// A linear model over `d` features with loss `L`.
///
/// The batch gradient is the textbook two-pass primitive sequence the
/// paper's synchronous SGD executes through ViennaCL:
/// `p = X w` (gemv/spmv), `r_i = l'(p_i, y_i) / B` (elementwise), and
/// `g = X^T r` (gemv_t/spmv_t).
#[derive(Clone, Debug)]
pub struct LinearTask<L: LinearLoss> {
    loss: L,
    dim: usize,
}

impl<L: LinearLoss> LinearTask<L> {
    /// A linear task over `dim` features.
    pub fn new(loss: L, dim: usize) -> Self {
        LinearTask { loss, dim }
    }

    /// The pointwise loss (used by the incremental optimizers).
    pub fn pointwise(&self) -> &L {
        &self.loss
    }

    /// Batched decision values `p = X w` (one margin per example), the
    /// whole of [`Task::forward`]. `sgd-serve` dispatches this through
    /// whichever executor backs a request batch, so serving exercises the
    /// same gemv/spmv corners as training.
    pub fn decision_values<E: Exec>(
        &self,
        e: &mut E,
        x: &Examples<'_>,
        w: &[Scalar],
        out: &mut [Scalar],
    ) {
        assert_eq!(w.len(), self.dim, "model dimension mismatch");
        assert_eq!(out.len(), x.n(), "one decision value per example");
        if out.is_empty() {
            return;
        }
        match x {
            Examples::Dense(m) => e.gemv(m, w, out),
            Examples::Sparse(m) => e.spmv(m, w, out),
        }
    }
}

/// Logistic regression over `d` features.
pub fn lr(d: usize) -> LinearTask<LogisticLoss> {
    LinearTask::new(LogisticLoss, d)
}

/// Linear SVM over `d` features.
pub fn svm(d: usize) -> LinearTask<HingeLoss> {
    LinearTask::new(HingeLoss, d)
}

impl<L: LinearLoss> Task for LinearTask<L> {
    fn name(&self) -> &'static str {
        L::NAME
    }

    fn pointwise_loss(&self) -> Option<&dyn crate::PointwiseLoss> {
        Some(&self.loss)
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn init_model(&self) -> Vec<Scalar> {
        vec![0.0; self.dim]
    }

    /// The margins `p = X w`. [`forward`](Task::forward) reallocates
    /// the buffer only when the batch size changes.
    type Forward = Vec<Scalar>;

    fn forward<E: Exec>(&self, e: &mut E, batch: &Batch<'_>, w: &[Scalar], p: &mut Vec<Scalar>) {
        if p.len() != batch.n() {
            *p = vec![0.0; batch.n()];
        }
        self.decision_values(e, &batch.x, w, p);
    }

    fn loss_from<E: Exec>(&self, e: &mut E, batch: &Batch<'_>, p: &Vec<Scalar>) -> Scalar {
        let n = batch.n();
        assert_eq!(p.len(), n, "forward pass is of another batch");
        if n == 0 {
            return 0.0;
        }
        let l = self.loss.clone();
        let mut per = vec![0.0; n];
        e.zip(p, batch.y, &mut per, 6.0, move |m, y| l.loss(m, y));
        e.sum(&per) / n as Scalar
    }

    fn gradient_from<E: Exec>(
        &self,
        e: &mut E,
        batch: &Batch<'_>,
        w: &[Scalar],
        p: &Vec<Scalar>,
        g: &mut [Scalar],
    ) {
        assert_eq!(w.len(), self.dim, "model dimension mismatch");
        assert_eq!(g.len(), self.dim, "gradient dimension mismatch");
        let n = batch.n();
        assert_eq!(p.len(), n, "forward pass is of another batch");
        if n == 0 {
            g.fill(0.0);
            return;
        }
        let l = self.loss.clone();
        let inv = 1.0 / n as Scalar;
        let mut r = vec![0.0; n];
        e.zip(p, batch.y, &mut r, 6.0, move |m, y| l.dloss(m, y) * inv);
        match batch.x {
            Examples::Dense(m) => e.gemv_t(m, &r, g),
            Examples::Sparse(m) => e.spmv_t(m, &r, g),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradient;
    use sgd_linalg::{approx_eq_slice, CpuExec, CsrMatrix, Matrix};

    fn toy_batch() -> (Matrix, CsrMatrix, Vec<Scalar>) {
        let dense = Matrix::from_rows(&[
            &[1.0, 0.0, -0.5],
            &[0.0, 2.0, 0.0],
            &[0.5, -1.0, 1.0],
            &[0.0, 0.0, 0.25],
        ]);
        let sparse = CsrMatrix::from_dense(&dense);
        let y = vec![1.0, -1.0, 1.0, -1.0];
        (dense, sparse, y)
    }

    #[test]
    fn logistic_loss_values_and_slope() {
        let l = LogisticLoss;
        // At margin 0: ln 2, slope -y/2.
        assert!((l.loss(0.0, 1.0) - (2.0 as Scalar).ln()).abs() < 1e-12);
        assert!((l.dloss(0.0, 1.0) + 0.5).abs() < 1e-12);
        // Large correct margin: loss and slope vanish.
        assert!(l.loss(50.0, 1.0) < 1e-20);
        assert!(l.dloss(50.0, 1.0).abs() < 1e-20);
        // Large wrong margin: loss is ~linear, slope saturates at -y.
        assert!((l.loss(-50.0, 1.0) - 50.0).abs() < 1e-9);
        assert!((l.dloss(-50.0, 1.0) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn logistic_loss_is_stable_at_extremes() {
        let l = LogisticLoss;
        for &m in &[-1e6, -1e3, 0.0, 1e3, 1e6] {
            for &y in &[-1.0, 1.0] {
                assert!(l.loss(m, y).is_finite());
                assert!(l.dloss(m, y).is_finite());
            }
        }
    }

    #[test]
    fn hinge_loss_kink() {
        let h = HingeLoss;
        assert_eq!(h.loss(2.0, 1.0), 0.0);
        assert_eq!(h.dloss(2.0, 1.0), 0.0);
        assert_eq!(h.loss(0.0, 1.0), 1.0);
        assert_eq!(h.dloss(0.0, 1.0), -1.0);
        assert_eq!(h.loss(0.5, -1.0), 1.5);
        assert_eq!(h.dloss(0.5, -1.0), 1.0);
    }

    #[test]
    fn dense_and_sparse_paths_agree() {
        let (dense, sparse, y) = toy_batch();
        let task = lr(3);
        let w = vec![0.3, -0.2, 0.7];
        let mut e = CpuExec::seq();
        let bd = Batch::new(Examples::Dense(&dense), &y);
        let bs = Batch::new(Examples::Sparse(&sparse), &y);
        let ld = task.loss(&mut e, &bd, &w);
        let ls = task.loss(&mut e, &bs, &w);
        assert!((ld - ls).abs() < 1e-12);
        let mut gd = vec![0.0; 3];
        let mut gs = vec![0.0; 3];
        task.gradient(&mut e, &bd, &w, &mut gd);
        task.gradient(&mut e, &bs, &w, &mut gs);
        assert!(approx_eq_slice(&gd, &gs, 1e-12));
    }

    #[test]
    fn lr_gradient_checks_against_finite_differences() {
        let (dense, _, y) = toy_batch();
        let task = lr(3);
        let b = Batch::new(Examples::Dense(&dense), &y);
        let w = vec![0.1, -0.4, 0.9];
        let err = check_gradient(&task, &b, &w);
        assert!(err < 1e-6, "relative error {err}");
    }

    #[test]
    fn svm_gradient_checks_away_from_kink() {
        let (dense, _, y) = toy_batch();
        let task = svm(3);
        let b = Batch::new(Examples::Dense(&dense), &y);
        // A model where no example sits at margin exactly 1.
        let w = vec![0.13, -0.41, 0.97];
        let err = check_gradient(&task, &b, &w);
        assert!(err < 1e-6, "relative error {err}");
    }

    #[test]
    fn gradient_descends_the_loss() {
        let (dense, _, y) = toy_batch();
        let task = lr(3);
        let b = Batch::new(Examples::Dense(&dense), &y);
        let mut e = CpuExec::seq();
        let mut w = task.init_model();
        let l0 = task.loss(&mut e, &b, &w);
        let mut g = vec![0.0; 3];
        for _ in 0..50 {
            task.gradient(&mut e, &b, &w, &mut g);
            for (wi, gi) in w.iter_mut().zip(&g) {
                *wi -= 0.5 * gi;
            }
        }
        let l1 = task.loss(&mut e, &b, &w);
        assert!(l1 < l0 * 0.8, "loss {l0} -> {l1}");
    }

    #[test]
    fn empty_batch_is_harmless() {
        let dense = Matrix::zeros(0, 3);
        let y: Vec<Scalar> = vec![];
        let b = Batch::new(Examples::Dense(&dense), &y);
        let task = svm(3);
        let mut e = CpuExec::seq();
        assert_eq!(task.loss(&mut e, &b, &[0.0; 3]), 0.0);
        let mut g = vec![1.0; 3];
        task.gradient(&mut e, &b, &[0.0; 3], &mut g);
        assert_eq!(g, vec![0.0; 3]);
    }
}
