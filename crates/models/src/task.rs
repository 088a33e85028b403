//! The task abstraction shared by all optimizers.

use sgd_linalg::{Exec, Scalar};

use crate::batch::Batch;

/// A trainable model-fitting task.
///
/// `loss` and `gradient` are *means* over the batch, which keeps step-size
/// ranges comparable across dataset scales (the paper grids step sizes per
/// configuration anyway, so the normalization convention does not affect
/// any comparison).
///
/// Both start from the same forward pass over the batch, so a task splits
/// into three steps: [`forward`](Task::forward) makes one pass over the
/// examples, and [`loss_from`](Task::loss_from) and
/// [`gradient_from`](Task::gradient_from) read what it left behind. A
/// caller that needs the loss of a model and then its gradient (the
/// synchronous runner and the reference optimum do, every epoch) runs the
/// pass once and reads it twice. [`loss`](Task::loss) and
/// [`gradient`](Task::gradient) compose the steps for everyone else.
pub trait Task: Sync {
    /// What one forward pass over a batch leaves behind for the loss and
    /// the gradient: the margins `X w` for the linear tasks; the hidden
    /// activations, the output delta and the mean cross-entropy for the
    /// MLP. `Default` is an empty pass; [`forward`](Task::forward)
    /// overwrites all of it, so one value can be reused across models.
    type Forward: Default;

    /// Human-readable task name (`LR`, `SVM`, `MLP`).
    fn name(&self) -> &'static str;

    /// Dimension of the flat model vector.
    fn dim(&self) -> usize;

    /// The initial model every configuration starts from (the paper
    /// initializes all configurations identically).
    fn init_model(&self) -> Vec<Scalar>;

    /// The forward pass of `w` over the batch, written to `fwd`. This is
    /// the one step that reads the examples in the model's direction: a
    /// gemv / spmv for the linear tasks, the layer gemms and the fused
    /// softmax for the MLP.
    fn forward<E: Exec>(&self, e: &mut E, batch: &Batch<'_>, w: &[Scalar], fwd: &mut Self::Forward);

    /// Mean loss of the model whose forward pass `fwd` holds: one
    /// elementwise pass and a sum over the batch for the linear tasks, a
    /// field read for the MLP. It does not touch the examples.
    fn loss_from<E: Exec>(&self, e: &mut E, batch: &Batch<'_>, fwd: &Self::Forward) -> Scalar;

    /// Mean gradient at `w`, whose forward pass `fwd` holds, written to
    /// `g` (overwritten, `g.len() == dim()`): one elementwise pass and a
    /// gemv_t / spmv_t for the linear tasks, the backward pass for the
    /// MLP.
    fn gradient_from<E: Exec>(
        &self,
        e: &mut E,
        batch: &Batch<'_>,
        w: &[Scalar],
        fwd: &Self::Forward,
        g: &mut [Scalar],
    );

    /// Mean loss of `w` over the batch: a forward pass, then the loss
    /// read off it.
    fn loss<E: Exec>(&self, e: &mut E, batch: &Batch<'_>, w: &[Scalar]) -> Scalar {
        let mut fwd = Self::Forward::default();
        self.forward(e, batch, w, &mut fwd);
        self.loss_from(e, batch, &fwd)
    }

    /// Mean gradient of the loss at `w` over the batch, written to `g`
    /// (overwritten, `g.len() == dim()`): a forward pass, then the
    /// gradient read off it.
    fn gradient<E: Exec>(&self, e: &mut E, batch: &Batch<'_>, w: &[Scalar], g: &mut [Scalar]) {
        let mut fwd = Self::Forward::default();
        self.forward(e, batch, w, &mut fwd);
        self.gradient_from(e, batch, w, &fwd, g);
    }

    /// The pointwise margin loss, for tasks whose per-example gradient is
    /// `dloss(x.w, y) * x` (the linear tasks). Example-at-a-time
    /// optimizers (Hogwild and its variants) require `Some`; tasks without
    /// that structure (the MLP) return `None` and train through
    /// mini-batch gradients instead.
    fn pointwise_loss(&self) -> Option<&dyn crate::PointwiseLoss> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lr, svm, Examples, MlpTask};
    use sgd_linalg::pool::with_threads;
    use sgd_linalg::{CpuExec, CsrMatrix, Matrix, MIN_PARALLEL_LEN};

    /// Enough rows that the width-2 parallel kernels really chunk.
    const ROWS: usize = MIN_PARALLEL_LEN + 101;

    fn data(cols: usize) -> (Matrix, Vec<Scalar>) {
        let x = Matrix::from_fn(ROWS, cols, |i, j| {
            if (i + j) % 3 == 0 {
                0.0
            } else {
                ((i * 7 + j * 13) % 11) as Scalar / 11.0 - 0.4
            }
        });
        let y = (0..ROWS).map(|i| if (i * 5) % 7 < 3 { 1.0 } else { -1.0 }).collect();
        (x, y)
    }

    /// A deterministic model; different `salt`s give different models.
    fn model(dim: usize, salt: usize) -> Vec<Scalar> {
        (0..dim).map(|i| ((i * 3 + salt) % 7) as Scalar / 7.0 - 0.45).collect()
    }

    /// The loss and gradient bits a task reports at one model.
    type Bits = (u64, Vec<u64>);

    fn read<T: Task>(
        task: &T,
        e: &mut CpuExec,
        b: &Batch<'_>,
        w: &[Scalar],
        f: &T::Forward,
    ) -> Bits {
        let mut g = vec![Scalar::NAN; task.dim()];
        task.gradient_from(e, b, w, f, &mut g);
        (task.loss_from(e, b, f).to_bits(), g.iter().map(|v| v.to_bits()).collect())
    }

    /// What a task reports at the model `model(_, 2)`, three ways.
    struct Probe {
        /// `loss` and `gradient`.
        composed: Bits,
        /// Read off a fresh forward pass.
        split: Bits,
        /// Read off a `Forward` that held the pass of `model(_, 1)` first.
        reused: Bits,
    }

    fn probe<T: Task>(task: &T, e: &mut CpuExec, b: &Batch<'_>) -> Probe {
        let (w1, w2) = (model(task.dim(), 1), model(task.dim(), 2));
        assert_ne!(w1, w2);
        let mut g = vec![0.0; task.dim()];
        task.gradient(e, b, &w2, &mut g);
        let composed = (task.loss(e, b, &w2).to_bits(), g.iter().map(|v| v.to_bits()).collect());
        let mut fresh = T::Forward::default();
        task.forward(e, b, &w2, &mut fresh);
        let mut reused = T::Forward::default();
        task.forward(e, b, &w1, &mut reused);
        task.forward(e, b, &w2, &mut reused);
        Probe {
            composed,
            split: read(task, e, b, &w2, &fresh),
            reused: read(task, e, b, &w2, &reused),
        }
    }

    /// Probes LR and SVM on a dense and a sparse batch and the MLP on the
    /// dense one, each on the sequential and the width-2 parallel
    /// executor.
    fn probes() -> Vec<Probe> {
        let (dense, y) = data(5);
        let sparse = CsrMatrix::from_dense(&dense);
        let mlp = MlpTask::new(vec![5, 4, 2], 1);
        let mut out = Vec::new();
        let mut on = |e: &mut CpuExec| {
            for x in [Examples::Dense(&dense), Examples::Sparse(&sparse)] {
                let b = Batch::new(x, &y);
                out.push(probe(&lr(5), e, &b));
                out.push(probe(&svm(5), e, &b));
            }
            out.push(probe(&mlp, e, &Batch::new(Examples::Dense(&dense), &y)));
        };
        on(&mut CpuExec::seq());
        with_threads(2, || on(&mut CpuExec::par()));
        out
    }

    #[test]
    fn split_steps_match_loss_and_gradient_bit_for_bit() {
        for p in probes() {
            assert_eq!(p.split, p.composed);
        }
    }

    #[test]
    fn a_reused_forward_keeps_no_stale_state() {
        for p in probes() {
            assert_eq!(p.reused, p.composed);
        }
    }

    #[test]
    fn empty_batch_gives_zero_loss_and_zero_gradient() {
        fn check<T: Task>(task: &T, e: &mut CpuExec) {
            let x = Matrix::zeros(0, 5);
            let b = Batch::new(Examples::Dense(&x), &[]);
            let w = model(task.dim(), 1);
            let mut fwd = T::Forward::default();
            task.forward(e, &b, &w, &mut fwd);
            let mut g = vec![1.0; task.dim()];
            task.gradient_from(e, &b, &w, &fwd, &mut g);
            assert_eq!(task.loss_from(e, &b, &fwd), 0.0);
            assert!(g.iter().all(|&v| v == 0.0), "{g:?}");
        }
        let both = |e: &mut CpuExec| {
            check(&lr(5), e);
            check(&svm(5), e);
            check(&MlpTask::new(vec![5, 4, 2], 1), e);
        };
        both(&mut CpuExec::seq());
        with_threads(2, || both(&mut CpuExec::par()));
    }
}
