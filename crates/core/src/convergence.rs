//! The paper's convergence protocol.
//!
//! All configurations start from the same model; the optimal loss is the
//! lowest loss any configuration reaches in a long reference run
//! (following DimmWitted, which the paper adopts); convergence times are
//! reported at 10 %, 5 %, 2 % and 1 % above that optimum; loss-evaluation
//! time is excluded from all timings.

use sgd_linalg::{CpuExec, Scalar};
use sgd_models::{Batch, Task};

/// The paper's convergence thresholds (fractions above the optimum).
pub const THRESHOLDS: [f64; 4] = [0.10, 0.05, 0.02, 0.01];

/// Loss value corresponding to "within 1 % of `optimum`".
pub(crate) fn threshold_loss_1pct(optimum: f64) -> f64 {
    threshold_loss(optimum, 0.01)
}

/// Loss value corresponding to "within `frac` of `optimum`". For a
/// degenerate zero optimum the band falls back to an absolute `frac`.
pub fn threshold_loss(optimum: f64, frac: f64) -> f64 {
    if optimum.abs() < 1e-12 {
        frac
    } else {
        optimum * (1.0 + frac)
    }
}

/// The loss trajectory of one run: `(seconds, loss)` after each epoch,
/// with epoch 0 recorded at time 0 before any update.
#[derive(Clone, Debug, Default)]
pub struct LossTrace {
    points: Vec<(f64, Scalar)>,
}

impl LossTrace {
    /// An empty trace.
    pub fn new() -> Self {
        LossTrace::default()
    }

    /// Appends an epoch-end observation.
    ///
    /// # Panics
    /// Panics if time runs backwards.
    pub fn push(&mut self, secs: f64, loss: Scalar) {
        if let Some(&(t, _)) = self.points.last() {
            assert!(secs >= t, "time must be monotone ({secs} after {t})");
        }
        self.points.push((secs, loss));
    }

    /// The `(seconds, loss)` points.
    pub fn points(&self) -> &[(f64, Scalar)] {
        &self.points
    }

    /// Number of epochs recorded (excluding the initial point).
    pub fn epochs(&self) -> usize {
        self.points.len().saturating_sub(1)
    }

    /// Lowest loss observed.
    pub fn best_loss(&self) -> Option<Scalar> {
        self.points.iter().map(|&(_, l)| l).fold(None, |acc, l| match acc {
            None => Some(l),
            Some(b) => Some(b.min(l)),
        })
    }

    /// First time at which the loss reached `target` (seconds), if ever.
    pub fn time_to_loss(&self, target: Scalar) -> Option<f64> {
        self.points.iter().find(|&&(_, l)| l <= target).map(|&(t, _)| t)
    }

    /// First epoch index at which the loss reached `target`, if ever.
    pub fn epochs_to_loss(&self, target: Scalar) -> Option<usize> {
        self.points.iter().position(|&(_, l)| l <= target)
    }

    /// `true` when the loss improved by less than `rel_tol` (relatively)
    /// over the last `window` epochs — used to cut off step sizes that
    /// have stopped making progress.
    pub fn plateaued(&self, window: usize, rel_tol: f64) -> bool {
        let n = self.points.len();
        if n < window + 1 {
            return false;
        }
        let recent = self.points[n - 1].1;
        let past = self.points[n - 1 - window].1;
        if !recent.is_finite() || !past.is_finite() {
            return false;
        }
        (past - recent) < rel_tol * past.abs().max(1e-12)
    }

    /// Convergence summary against an optimum: time and epochs for each of
    /// the paper's four thresholds.
    pub fn summarize(&self, optimum: f64) -> ConvergenceSummary {
        let mut rows = Vec::with_capacity(THRESHOLDS.len());
        for &frac in &THRESHOLDS {
            let target = threshold_loss(optimum, frac);
            rows.push((frac, self.time_to_loss(target), self.epochs_to_loss(target)));
        }
        ConvergenceSummary { optimum, rows }
    }
}

/// Time/epoch-to-convergence at each threshold.
#[derive(Clone, Debug)]
pub struct ConvergenceSummary {
    /// The reference optimal loss.
    pub optimum: f64,
    /// `(threshold fraction, seconds, epochs)`; `None` = did not converge
    /// (the paper's `∞`).
    pub rows: Vec<(f64, Option<f64>, Option<usize>)>,
}

impl ConvergenceSummary {
    /// Seconds to reach 1 % above the optimum, if reached.
    pub fn time_to_1pct(&self) -> Option<f64> {
        // analyzer: allow(float-discipline) -- 0.01 is an exact table key copied verbatim from THRESHOLDS, never computed
        self.rows.iter().find(|r| r.0 == 0.01).and_then(|r| r.1)
    }

    /// Epochs to reach 1 % above the optimum, if reached.
    pub fn epochs_to_1pct(&self) -> Option<usize> {
        // analyzer: allow(float-discipline) -- 0.01 is an exact table key copied verbatim from THRESHOLDS, never computed
        self.rows.iter().find(|r| r.0 == 0.01).and_then(|r| r.2)
    }
}

/// Finds the reference optimal loss for a task/batch by running full-batch
/// gradient descent for `epochs` epochs at every step size in the grid and
/// taking the lowest loss observed (the paper runs all configurations "for
/// a full day" and keeps the minimum; this is the scaled equivalent).
///
/// Each step's loss check reads the forward pass that the next step's
/// gradient starts from, so a step streams the examples twice, not three
/// times.
pub fn reference_optimum<T: Task>(task: &T, batch: &Batch<'_>, epochs: usize) -> f64 {
    let mut e = CpuExec::par();
    let mut best = f64::INFINITY;
    let mut fwd = T::Forward::default();
    for &alpha in &crate::report::step_size_grid() {
        let mut w = task.init_model();
        let mut g = vec![0.0; task.dim()];
        task.forward(&mut e, batch, &w, &mut fwd);
        let mut prev = task.loss_from(&mut e, batch, &fwd);
        best = best.min(prev);
        let mut since_improvement = 0usize;
        for _ in 0..epochs {
            task.gradient_from(&mut e, batch, &w, &fwd, &mut g);
            for (wi, gi) in w.iter_mut().zip(&g) {
                *wi -= alpha * gi;
            }
            task.forward(&mut e, batch, &w, &mut fwd);
            let l = task.loss_from(&mut e, batch, &fwd);
            if !l.is_finite() || l > prev * 4.0 {
                break; // diverged at this step size
            }
            // Cut off step sizes that have flat-lined (saves most of the
            // grid's budget without meaningfully moving the minimum found).
            if l > best - 1e-5 * best.abs().max(1e-12) {
                since_improvement += 1;
                if since_improvement > 30 {
                    break;
                }
            } else {
                since_improvement = 0;
            }
            best = best.min(l);
            prev = l;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgd_linalg::Matrix;
    use sgd_models::{lr, Examples};

    #[test]
    fn trace_thresholds() {
        let mut t = LossTrace::new();
        t.push(0.0, 1.0);
        t.push(1.0, 0.5);
        t.push(2.0, 0.2);
        t.push(3.0, 0.101);
        t.push(4.0, 0.1005);
        // optimum 0.1: 1 % band is 0.101.
        assert_eq!(t.time_to_loss(threshold_loss(0.1, 0.01)), Some(3.0));
        assert_eq!(t.epochs_to_loss(threshold_loss(0.1, 0.01)), Some(3));
        assert_eq!(t.time_to_loss(0.05), None);
        assert_eq!(t.epochs(), 4);
        assert_eq!(t.best_loss(), Some(0.1005));
    }

    #[test]
    fn summary_orders_thresholds() {
        let mut t = LossTrace::new();
        t.push(0.0, 10.0);
        for i in 1..=100 {
            t.push(i as f64, 10.0 / (i as f64));
        }
        let s = t.summarize(0.1);
        // Looser thresholds are reached no later than tighter ones.
        let times: Vec<f64> = s.rows.iter().map(|r| r.1.expect("converged")).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
        assert!(s.time_to_1pct().is_some());
    }

    #[test]
    fn zero_optimum_uses_absolute_band() {
        assert_eq!(threshold_loss(0.0, 0.05), 0.05);
        assert!((threshold_loss(2.0, 0.05) - 2.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn trace_rejects_backwards_time() {
        let mut t = LossTrace::new();
        t.push(1.0, 1.0);
        t.push(0.5, 0.9);
    }

    #[test]
    fn plateau_detection() {
        let mut t = LossTrace::new();
        t.push(0.0, 1.0);
        for i in 1..=20 {
            t.push(i as f64, 1.0 / (1.0 + i as f64)); // still improving
        }
        assert!(!t.plateaued(10, 1e-3));
        for i in 21..=60 {
            t.push(i as f64, 0.05); // flat
        }
        assert!(t.plateaued(10, 1e-3));
        // Window larger than the trace: never plateaued.
        let mut s = LossTrace::new();
        s.push(0.0, 1.0);
        assert!(!s.plateaued(10, 1e-3));
    }

    #[test]
    fn reference_optimum_beats_initial_loss() {
        let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.9, 0.1], &[-1.0, 0.2], &[-0.8, -0.1]]);
        let y = vec![1.0, 1.0, -1.0, -1.0];
        let task = lr(2);
        let batch = Batch::new(Examples::Dense(&x), &y);
        let opt = reference_optimum(&task, &batch, 50);
        // Initial loss is ln 2; the data is separable so GD gets well below.
        assert!(opt < 0.5 * (2.0f64).ln(), "optimum {opt}");
    }
}
