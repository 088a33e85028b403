//! Run supervision: divergence sentinel, budget enforcement, and
//! best-model checkpointing, owned by the epoch loop.
//!
//! Before this layer, every runner ended its epoch loop with the same
//! four-way check and a silent `break` on a non-finite loss — a diverged
//! run was indistinguishable from a converged short one. The
//! [`Supervisor`] reproduces the legacy check order exactly (so fault-free
//! reports stay bit-identical) while classifying *why* the loop ended into
//! a [`RunOutcome`] and checkpointing the best finite-loss model seen.

use sgd_linalg::Scalar;

use crate::config::RunOptions;
use crate::convergence::LossTrace;
use crate::metrics::EpochObserver;
use crate::report::RunOutcome;

/// A finite loss this many times the initial loss counts as diverged even
/// before it overflows to `inf`/`NaN`.
pub(crate) const LOSS_EXPLOSION_FACTOR: f64 = 1e4;

/// Watches one epoch loop: decides when to stop and why, and checkpoints
/// the best model.
pub(crate) struct Supervisor {
    stop: Option<f64>,
    max_secs: f64,
    plateau: Option<(usize, f64)>,
    explosion_limit: f64,
    decided: Option<RunOutcome>,
    best_loss: f64,
    best_model: Option<Vec<Scalar>>,
}

/// What the supervisor concluded once the loop ended.
pub(crate) struct Verdict {
    pub(crate) outcome: RunOutcome,
    /// Legacy flag: the run had a convergence target and did not reach it.
    pub(crate) timed_out: bool,
    /// Best finite-loss model seen, when some epoch improved on the
    /// initial loss (`None` means the initial model was never beaten).
    pub(crate) best_model: Option<Vec<Scalar>>,
}

impl Supervisor {
    pub(crate) fn new(opts: &RunOptions, initial_loss: f64) -> Self {
        let explosion_limit = if initial_loss.is_finite() {
            LOSS_EXPLOSION_FACTOR * initial_loss.abs().max(1.0)
        } else {
            f64::INFINITY
        };
        Supervisor {
            stop: opts.stop_loss(),
            max_secs: opts.max_secs,
            plateau: opts.plateau,
            explosion_limit,
            decided: None,
            best_loss: initial_loss,
            best_model: None,
        }
    }

    /// Observes one completed epoch; returns `true` when the run must
    /// stop. The check order replicates the legacy epoch loop exactly:
    /// divergence, then convergence target, then time/plateau budgets.
    /// When the epoch improves on the best loss so far, the improvement is
    /// forwarded to `obs` (the serving layer's publish hook) before the
    /// stop decision.
    pub(crate) fn observe(
        &mut self,
        epoch: usize,
        secs: f64,
        loss: f64,
        model: &[Scalar],
        trace: &LossTrace,
        obs: &mut dyn EpochObserver,
    ) -> bool {
        if loss.is_finite() && loss < self.best_loss {
            self.best_loss = loss;
            match &mut self.best_model {
                Some(m) => m.copy_from_slice(model),
                None => self.best_model = Some(model.to_vec()),
            }
            obs.on_best_model(epoch, loss, model);
        }
        if !loss.is_finite() || loss > self.explosion_limit {
            self.decided = Some(RunOutcome::Diverged { epoch });
            return true;
        }
        if self.stop.is_some_and(|s| loss <= s) {
            self.decided = Some(RunOutcome::Converged);
            return true;
        }
        if secs > self.max_secs || self.plateau.is_some_and(|(w, tol)| trace.plateaued(w, tol)) {
            self.decided = Some(RunOutcome::BudgetExhausted);
            return true;
        }
        false
    }

    /// Records that a fault made further progress impossible (e.g. a dead
    /// worker stalling a synchronous barrier).
    pub(crate) fn abort(&mut self, epoch: usize) {
        self.decided = Some(RunOutcome::FaultAborted { epoch });
    }

    /// Concludes the run. A loop that ran out of `max_epochs` without any
    /// stop decision is a budget exhaustion; `timed_out` keeps the legacy
    /// meaning `target set && target not reached`.
    pub(crate) fn finish(self) -> Verdict {
        let outcome = self.decided.unwrap_or(RunOutcome::BudgetExhausted);
        let timed_out = self.stop.is_some() && outcome != RunOutcome::Converged;
        Verdict { outcome, timed_out, best_model: self.best_model }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{EpochMetrics, NullObserver};

    fn opts(target: Option<f64>) -> RunOptions {
        RunOptions { target_loss: target, max_secs: 10.0, plateau: None, ..Default::default() }
    }

    fn trace_with(losses: &[f64]) -> LossTrace {
        let mut t = LossTrace::new();
        for (i, &l) in losses.iter().enumerate() {
            t.push(i as f64, l);
        }
        t
    }

    #[test]
    fn non_finite_loss_is_diverged() {
        let mut sup = Supervisor::new(&opts(None), 1.0);
        let mut obs = NullObserver;
        let t = trace_with(&[1.0, f64::NAN]);
        assert!(sup.observe(1, 0.1, f64::NAN, &[0.0], &t, &mut obs));
        let v = sup.finish();
        assert_eq!(v.outcome, RunOutcome::Diverged { epoch: 1 });
        assert!(!v.timed_out, "no target was set");
    }

    #[test]
    fn finite_explosion_is_diverged() {
        let mut sup = Supervisor::new(&opts(None), 1.0);
        let bad = 2.0 * LOSS_EXPLOSION_FACTOR;
        let mut obs = NullObserver;
        let t = trace_with(&[1.0, bad]);
        assert!(sup.observe(1, 0.1, bad, &[0.0], &t, &mut obs));
        assert_eq!(sup.finish().outcome, RunOutcome::Diverged { epoch: 1 });
    }

    #[test]
    fn reaching_target_is_converged() {
        let mut sup = Supervisor::new(&opts(Some(0.5)), 1.0);
        let mut obs = NullObserver;
        let t = trace_with(&[1.0, 0.4]);
        assert!(!sup.observe(1, 0.1, 0.9, &[0.0], &t, &mut obs));
        assert!(sup.observe(2, 0.2, 0.4, &[0.1], &t, &mut obs));
        let v = sup.finish();
        assert_eq!(v.outcome, RunOutcome::Converged);
        assert!(!v.timed_out);
    }

    #[test]
    fn time_budget_is_budget_exhausted_and_times_out_with_target() {
        let mut sup = Supervisor::new(&opts(Some(0.01)), 1.0);
        let mut obs = NullObserver;
        let t = trace_with(&[1.0, 0.9]);
        assert!(sup.observe(1, 11.0, 0.9, &[0.0], &t, &mut obs));
        let v = sup.finish();
        assert_eq!(v.outcome, RunOutcome::BudgetExhausted);
        assert!(v.timed_out, "target set but unreached");
    }

    #[test]
    fn epoch_cap_without_decision_is_budget_exhausted() {
        let mut sup = Supervisor::new(&opts(None), 1.0);
        let mut obs = NullObserver;
        let t = trace_with(&[1.0, 0.9]);
        assert!(!sup.observe(1, 0.1, 0.9, &[0.0], &t, &mut obs));
        let v = sup.finish();
        assert_eq!(v.outcome, RunOutcome::BudgetExhausted);
        assert!(!v.timed_out);
    }

    #[test]
    fn abort_wins_over_budget() {
        let mut sup = Supervisor::new(&opts(Some(0.1)), 1.0);
        sup.abort(3);
        let v = sup.finish();
        assert_eq!(v.outcome, RunOutcome::FaultAborted { epoch: 3 });
        assert!(v.timed_out);
    }

    #[test]
    fn best_model_tracks_lowest_finite_loss() {
        let mut sup = Supervisor::new(&opts(None), 1.0);
        let mut obs = NullObserver;
        let t = trace_with(&[1.0]);
        sup.observe(1, 0.1, 0.5, &[1.0, 1.0], &t, &mut obs);
        sup.observe(2, 0.2, 0.8, &[2.0, 2.0], &t, &mut obs); // worse: not checkpointed
        sup.observe(3, 0.3, f64::INFINITY, &[9.0, 9.0], &t, &mut obs);
        let v = sup.finish();
        assert_eq!(v.best_model.as_deref(), Some(&[1.0, 1.0][..]));
        assert_eq!(v.outcome, RunOutcome::Diverged { epoch: 3 });
    }

    #[test]
    fn best_model_is_none_when_initial_loss_never_beaten() {
        let mut sup = Supervisor::new(&opts(None), 0.1);
        let mut obs = NullObserver;
        let t = trace_with(&[0.1]);
        sup.observe(1, 0.1, 0.5, &[1.0], &t, &mut obs);
        assert!(sup.finish().best_model.is_none());
    }

    #[test]
    fn improvements_notify_the_observer() {
        struct Capture(Vec<(usize, f64, Vec<Scalar>)>);
        impl EpochObserver for Capture {
            fn on_epoch(&mut self, _m: &EpochMetrics) {}
            fn on_best_model(&mut self, epoch: usize, loss: f64, model: &[Scalar]) {
                self.0.push((epoch, loss, model.to_vec()));
            }
        }
        let mut sup = Supervisor::new(&opts(None), 1.0);
        let mut obs = Capture(Vec::new());
        {
            let t = trace_with(&[1.0]);
            sup.observe(1, 0.1, 0.5, &[1.0, 2.0], &t, &mut obs);
            sup.observe(2, 0.2, 0.8, &[3.0, 4.0], &t, &mut obs); // no improvement
            sup.observe(3, 0.3, 0.25, &[5.0, 6.0], &t, &mut obs);
        }
        assert_eq!(obs.0.len(), 2, "only improving epochs publish");
        assert_eq!(obs.0.first(), Some(&(1, 0.5, vec![1.0, 2.0])));
        assert_eq!(obs.0.get(1), Some(&(3, 0.25, vec![5.0, 6.0])));
    }
}
