//! Fully-connected multi-layer perceptron with backpropagation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sgd_linalg::{Exec, Matrix, Scalar};

use crate::batch::{Batch, Examples};
use crate::task::Task;

/// A fully-connected MLP with tanh hidden units and a softmax
/// cross-entropy output, the deep-net task of the paper (architectures
/// like `54-10-5-2` in Table I; the paper does not specify the hidden
/// activation — tanh is the zero-centered classic for shallow
/// fully-connected nets and avoids the sigmoid's long saturated warm-up).
///
/// The flat model vector is, per layer, the row-major weight matrix
/// `n_l x n_{l+1}` followed by the `n_{l+1}` biases. All computation is a
/// sequence of `Exec` primitives (gemm / bias broadcast / elementwise /
/// softmax), exactly the kernel stream the paper offloads per device.
///
/// The MLP consumes *dense* batches: the paper stores the feature-grouped
/// datasets densely for deep-net training (Section IV-A).
#[derive(Clone, Debug)]
pub struct MlpTask {
    layers: Vec<usize>,
    seed: u64,
}

impl MlpTask {
    /// Builds an MLP with the given layer widths `[input, hidden..,
    /// output]`. The output width must be at least 2 (softmax classes).
    ///
    /// # Panics
    /// Panics on fewer than two layers or a zero width.
    pub fn new(layers: Vec<usize>, seed: u64) -> Self {
        assert!(layers.len() >= 2, "an MLP needs input and output layers");
        assert!(layers.iter().all(|&u| u > 0), "layer widths must be positive");
        assert!(*layers.last().expect("nonempty") >= 2, "softmax output needs >= 2 units");
        MlpTask { layers, seed }
    }

    /// Layer widths.
    pub fn layers(&self) -> &[usize] {
        &self.layers
    }

    /// Initialization seed (identifies the configuration in checkpoints).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Architecture string like `54-10-5-2`.
    pub fn arch_string(&self) -> String {
        self.layers.iter().map(|u| u.to_string()).collect::<Vec<_>>().join("-")
    }

    /// Number of weight matrices (layers - 1).
    fn n_links(&self) -> usize {
        self.layers.len() - 1
    }

    /// Offset of layer `l`'s weight block in the flat model.
    fn w_offset(&self, l: usize) -> usize {
        let mut off = 0;
        for k in 0..l {
            off += self.layers[k] * self.layers[k + 1] + self.layers[k + 1];
        }
        off
    }

    /// Copies layer `l`'s weights out of the flat model.
    fn weights(&self, w: &[Scalar], l: usize) -> Matrix {
        let (rows, cols) = (self.layers[l], self.layers[l + 1]);
        let off = self.w_offset(l);
        Matrix::from_vec(rows, cols, w[off..off + rows * cols].to_vec())
    }

    /// Layer `l`'s bias slice within the flat model.
    fn bias<'a>(&self, w: &'a [Scalar], l: usize) -> &'a [Scalar] {
        let (rows, cols) = (self.layers[l], self.layers[l + 1]);
        let off = self.w_offset(l) + rows * cols;
        &w[off..off + cols]
    }

    /// The layer pass: pushes the tanh activations of every hidden layer
    /// onto `hidden` (cleared first) and returns the output logits.
    fn layer_pass<E: Exec>(
        &self,
        e: &mut E,
        input: &Matrix,
        w: &[Scalar],
        hidden: &mut Vec<Matrix>,
    ) -> Matrix {
        hidden.clear();
        for l in 0..self.n_links() {
            let cur = if l == 0 { input } else { &hidden[l - 1] };
            let wl = self.weights(w, l);
            let mut z = Matrix::zeros(cur.rows(), self.layers[l + 1]);
            e.gemm(cur, &wl, &mut z);
            e.add_row_bias(&mut z, self.bias(w, l));
            if l + 1 < self.n_links() {
                // tanh hidden unit (~4 flops)
                e.map(z.as_mut_slice(), 4.0, |v| v.tanh());
                hidden.push(z);
            } else {
                return z;
            }
        }
        // analyzer: allow(panic-freedom) -- the loop returns on the last link; construction validates at least one link
        unreachable!("an MLP has at least one link");
    }

    /// Output logits for a dense batch (one row per example), the
    /// inference-side forward pass used by `sgd-serve`.
    pub fn logits<E: Exec>(&self, e: &mut E, input: &Matrix, w: &[Scalar]) -> Matrix {
        assert_eq!(w.len(), self.dim(), "model dimension mismatch");
        assert_eq!(input.cols(), self.layers[0], "input width mismatch");
        if input.rows() == 0 {
            // analyzer: allow(panic-freedom) -- layers is validated nonempty at construction
            return Matrix::zeros(0, *self.layers.last().expect("nonempty"));
        }
        self.layer_pass(e, input, w, &mut Vec::new())
    }

    /// Batched decision values: `logit(class 1) - logit(class 0)` per
    /// example, so the sign picks the class exactly as a linear margin
    /// does — the serving layer scores every task through one scalar.
    pub fn decision_values<E: Exec>(&self, e: &mut E, input: &Matrix, w: &[Scalar]) -> Vec<Scalar> {
        let logits = self.logits(e, input, w);
        logits
            .rows_iter()
            .map(|r| r.get(1).copied().unwrap_or(0.0) - r.first().copied().unwrap_or(0.0))
            .collect()
    }

    fn dense_input<'a>(batch: &Batch<'a>) -> &'a Matrix {
        match batch.x {
            Examples::Dense(m) => m,
            // analyzer: allow(panic-freedom) -- training task contract: the serving path densifies sparse input before prediction and never reaches here
            Examples::Sparse(_) => panic!(
                "MlpTask consumes dense batches; densify the (feature-grouped) dataset first"
            ),
        }
    }
}

impl Task for MlpTask {
    fn name(&self) -> &'static str {
        "MLP"
    }

    fn dim(&self) -> usize {
        self.w_offset(self.n_links())
    }

    fn init_model(&self) -> Vec<Scalar> {
        // Xavier-style N(0, 1/fan_in) weights, zero biases, fixed seed so
        // every configuration starts identically (paper methodology).
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut w = Vec::with_capacity(self.dim());
        for l in 0..self.n_links() {
            let (fan_in, fan_out) = (self.layers[l], self.layers[l + 1]);
            let std = 1.0 / (fan_in as Scalar).sqrt();
            for _ in 0..fan_in * fan_out {
                w.push(sgd_datagen_normal(&mut rng) * std);
            }
            w.extend(std::iter::repeat_n(0.0, fan_out));
        }
        w
    }

    type Forward = MlpForward;

    fn forward<E: Exec>(&self, e: &mut E, batch: &Batch<'_>, w: &[Scalar], fwd: &mut MlpForward) {
        assert_eq!(w.len(), self.dim(), "model dimension mismatch");
        if batch.n() == 0 {
            *fwd = MlpForward::default();
            return;
        }
        let input = Self::dense_input(batch);
        let mut logits = self.layer_pass(e, input, w, &mut fwd.hidden);
        // logits -> (softmax - onehot)/B, the output delta.
        fwd.loss = e.softmax_xent(&mut logits, &batch.classes());
        fwd.delta = logits;
    }

    fn loss_from<E: Exec>(&self, _e: &mut E, _batch: &Batch<'_>, fwd: &MlpForward) -> Scalar {
        fwd.loss
    }

    fn gradient_from<E: Exec>(
        &self,
        e: &mut E,
        batch: &Batch<'_>,
        w: &[Scalar],
        fwd: &MlpForward,
        g: &mut [Scalar],
    ) {
        assert_eq!(w.len(), self.dim(), "model dimension mismatch");
        assert_eq!(g.len(), self.dim(), "gradient dimension mismatch");
        if batch.n() == 0 {
            g.fill(0.0);
            return;
        }
        let input = Self::dense_input(batch);
        let mut delta = fwd.delta.clone();
        for l in (0..self.n_links()).rev() {
            let a = if l == 0 { input } else { &fwd.hidden[l - 1] };
            // Weight and bias gradients of this link.
            let mut gw = Matrix::zeros(self.layers[l], self.layers[l + 1]);
            e.gemm_tn(a, &delta, &mut gw);
            let off = self.w_offset(l);
            let nw = gw.len();
            g[off..off + nw].copy_from_slice(gw.as_slice());
            e.col_sums(&delta, &mut g[off + nw..off + nw + self.layers[l + 1]]);

            if l > 0 {
                // delta_{l} = (delta_{l+1} W_l^T) .* (1 - a^2)
                let wl = self.weights(w, l);
                let mut back = Matrix::zeros(delta.rows(), self.layers[l]);
                e.gemm_nt(&delta, &wl, &mut back);
                let mut next = Matrix::zeros(back.rows(), back.cols());
                e.zip(back.as_slice(), a.as_slice(), next.as_mut_slice(), 3.0, |b, s| {
                    b * (1.0 - s * s)
                });
                delta = next;
            }
        }
    }
}

/// What [`MlpTask`]'s forward pass leaves for the loss and the gradient.
#[derive(Debug, Default)]
pub struct MlpForward {
    /// The tanh activations of each hidden layer, one row per example.
    hidden: Vec<Matrix>,
    /// The output delta `(softmax - onehot) / B`.
    delta: Matrix,
    /// The mean cross-entropy the fused softmax returned.
    loss: Scalar,
}

/// Standard-normal sample (Box–Muller); duplicated from `sgd-datagen` to
/// avoid a dependency cycle between the model and data crates.
fn sgd_datagen_normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradient;
    use sgd_linalg::CpuExec;

    fn toy_batch() -> (Matrix, Vec<Scalar>) {
        let x = Matrix::from_rows(&[
            &[0.5, -1.0, 0.25, 0.0],
            &[1.0, 0.5, -0.75, 0.3],
            &[-0.2, 0.1, 0.9, -1.1],
            &[0.0, 0.0, 0.4, 0.8],
            &[0.7, -0.3, 0.0, 0.1],
        ]);
        let y = vec![1.0, -1.0, 1.0, 1.0, -1.0];
        (x, y)
    }

    #[test]
    fn dim_counts_weights_and_biases() {
        let mlp = MlpTask::new(vec![4, 3, 2], 0);
        assert_eq!(mlp.dim(), 4 * 3 + 3 + 3 * 2 + 2);
        assert_eq!(mlp.arch_string(), "4-3-2");
    }

    #[test]
    fn init_is_deterministic_and_scaled() {
        let mlp = MlpTask::new(vec![100, 10, 2], 7);
        let a = mlp.init_model();
        let b = mlp.init_model();
        assert_eq!(a, b);
        // Weights of the first layer have std ~ 0.1.
        let w0 = &a[0..1000];
        let var = w0.iter().map(|v| v * v).sum::<Scalar>() / 1000.0;
        assert!((var.sqrt() - 0.1).abs() < 0.02, "std {}", var.sqrt());
        // Biases are zero.
        assert!(a[1000..1010].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let (x, y) = toy_batch();
        let mlp = MlpTask::new(vec![4, 3, 2], 3);
        let b = Batch::new(Examples::Dense(&x), &y);
        let w = mlp.init_model();
        let err = check_gradient(&mlp, &b, &w);
        assert!(err < 1e-5, "relative error {err}");
    }

    #[test]
    fn deeper_net_gradient_checks() {
        let (x, y) = toy_batch();
        let mlp = MlpTask::new(vec![4, 5, 3, 2], 11);
        let b = Batch::new(Examples::Dense(&x), &y);
        // Perturb away from the symmetric init to exercise all paths.
        let mut w = mlp.init_model();
        for (i, v) in w.iter_mut().enumerate() {
            *v += 0.01 * ((i % 7) as Scalar - 3.0);
        }
        let err = check_gradient(&mlp, &b, &w);
        assert!(err < 1e-5, "relative error {err}");
    }

    #[test]
    fn training_reduces_loss() {
        let (x, y) = toy_batch();
        let mlp = MlpTask::new(vec![4, 6, 2], 5);
        let b = Batch::new(Examples::Dense(&x), &y);
        let mut e = CpuExec::seq();
        let mut w = mlp.init_model();
        let l0 = mlp.loss(&mut e, &b, &w);
        let mut g = vec![0.0; mlp.dim()];
        for _ in 0..200 {
            mlp.gradient(&mut e, &b, &w, &mut g);
            for (wi, gi) in w.iter_mut().zip(&g) {
                *wi -= 1.0 * gi;
            }
        }
        let l1 = mlp.loss(&mut e, &b, &w);
        assert!(l1 < l0 * 0.5, "loss {l0} -> {l1}");
    }

    #[test]
    fn loss_at_uniform_output_is_ln_k() {
        // With zero weights the logits are zero, so loss = ln(2).
        let (x, y) = toy_batch();
        let mlp = MlpTask::new(vec![4, 3, 2], 0);
        let b = Batch::new(Examples::Dense(&x), &y);
        let w = vec![0.0; mlp.dim()];
        let mut e = CpuExec::seq();
        let loss = mlp.loss(&mut e, &b, &w);
        assert!((loss - (2.0 as Scalar).ln()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "dense batches")]
    fn sparse_batches_rejected() {
        let (x, y) = toy_batch();
        let sparse = sgd_linalg::CsrMatrix::from_dense(&x);
        let mlp = MlpTask::new(vec![4, 3, 2], 0);
        let b = Batch::new(Examples::Sparse(&sparse), &y);
        let mut e = CpuExec::seq();
        let _ = mlp.loss(&mut e, &b, &mlp.init_model());
    }

    #[test]
    #[should_panic(expected = "input and output")]
    fn single_layer_rejected() {
        let _ = MlpTask::new(vec![4], 0);
    }

    #[test]
    fn gradient_on_gpu_exec_matches_cpu() {
        // The same task code must produce identical numbers on the
        // simulated GPU (it executes the same primitive stream).
        let (x, y) = toy_batch();
        let mlp = MlpTask::new(vec![4, 3, 2], 3);
        let b = Batch::new(Examples::Dense(&x), &y);
        let w = mlp.init_model();
        let mut g_cpu = vec![0.0; mlp.dim()];
        mlp.gradient(&mut CpuExec::seq(), &b, &w, &mut g_cpu);

        let mut dev = sgd_gpusim_device();
        let mut e = sgd_gpusim::kernels::GpuExec::new(&mut dev);
        let mut g_gpu = vec![0.0; mlp.dim()];
        mlp.gradient(&mut e, &b, &w, &mut g_gpu);
        assert!(sgd_linalg::approx_eq_slice(&g_cpu, &g_gpu, 1e-12));
        assert!(dev.stats().kernels_launched > 5, "per-primitive kernel launches expected");
    }

    fn sgd_gpusim_device() -> sgd_gpusim::GpuDevice {
        sgd_gpusim::GpuDevice::tesla_k80()
    }
}
