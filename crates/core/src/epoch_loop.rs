//! The one epoch loop every runner drives.
//!
//! A runner is an [`EpochStep`]: it runs one epoch on its own clock
//! (wall, simulated GPU or modeled CPU) and evaluates the loss untimed.
//! [`EpochLoop::run`] owns everything around that: the initial loss and
//! the [`LossTrace`], the per-epoch [`EpochMetrics`] (recorded before the
//! supervisor observes them), the [`Supervisor`]'s stop decision and best
//! model, the run-level conflict total, and the [`RunReport`].

use sgd_linalg::{CpuExec, Scalar};
use sgd_models::{Batch, Task};

use crate::config::{DeviceKind, RunOptions};
use crate::convergence::LossTrace;
use crate::metrics::{EpochMetrics, EpochObserver, RunMetrics};
use crate::report::RunReport;
use crate::supervisor::Supervisor;

/// Why a step could not complete an epoch. Each carries the run's clock
/// at the halt, which becomes the report's optimization seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Halt {
    /// A fault made progress impossible: a dead worker stalls the
    /// synchronous barrier, or no worker survives. The run ends
    /// [`crate::RunOutcome::FaultAborted`] at this epoch.
    FaultAborted {
        /// The run's clock when it stopped.
        clock: f64,
    },
    /// A transport gave up waiting for the epoch because the run's time
    /// budget ran out. The run ends [`crate::RunOutcome::BudgetExhausted`].
    OutOfTime {
        /// The run's clock when it stopped.
        clock: f64,
    },
}

/// One runner's epoch, handed to [`EpochLoop::run`].
pub trait EpochStep {
    /// `true` when the step counts lost updates exactly; the report then
    /// carries their run total in [`crate::RunMetrics::update_conflicts`].
    fn counts_conflicts(&self) -> bool {
        false
    }

    /// Full-batch loss of the current model. Never timed.
    fn loss(&mut self) -> f64;

    /// Runs epoch `epoch` (0-based), writing its counters into `m`, and
    /// returns the run's clock after it.
    fn epoch(&mut self, epoch: usize, m: &mut EpochMetrics) -> Result<f64, Halt>;

    /// The current model, which the supervisor checkpoints.
    fn model(&self) -> &[Scalar];
}

/// The identity a run reports under; [`EpochLoop::run`] drives a step
/// to a [`RunReport`] carrying it.
pub struct EpochLoop {
    /// Configuration label, e.g. `LR sync gpu`.
    pub label: String,
    /// Device the run executes on.
    pub device: DeviceKind,
    /// Step size.
    pub step_size: f64,
}

impl EpochLoop {
    /// Runs `step` until the supervisor stops it, it halts, or
    /// `opts.max_epochs` pass, streaming each epoch's metrics to `obs`.
    pub fn run<S: EpochStep>(
        self,
        step: &mut S,
        opts: &RunOptions,
        obs: &mut dyn EpochObserver,
    ) -> RunReport {
        let initial_loss = step.loss();
        let mut trace = LossTrace::new();
        trace.push(0.0, initial_loss);
        let mut metrics = RunMetrics::default();
        let mut sup = Supervisor::new(opts, initial_loss);
        let mut clock = 0.0;
        let mut conflicts = 0;
        for epoch in 0..opts.max_epochs {
            let mut m = EpochMetrics::new(epoch + 1, 0.0, 0.0);
            match step.epoch(epoch, &mut m) {
                Ok(t) => clock = t,
                Err(Halt::FaultAborted { clock: t }) => {
                    clock = t;
                    sup.abort(epoch + 1);
                    break;
                }
                Err(Halt::OutOfTime { clock: t }) => {
                    clock = t;
                    break;
                }
            }
            let loss = step.loss();
            trace.push(clock, loss);
            m.elapsed_secs = clock;
            m.loss = loss;
            conflicts += m.update_conflicts;
            obs.on_epoch(&m);
            metrics.epochs.push(m);
            if sup.observe(epoch + 1, clock, loss, step.model(), &trace, obs) {
                break;
            }
        }
        let verdict = sup.finish();
        metrics.update_conflicts = step.counts_conflicts().then_some(conflicts);
        RunReport {
            label: self.label,
            device: self.device,
            step_size: self.step_size,
            trace,
            opt_seconds: clock,
            timed_out: verdict.timed_out,
            metrics,
            outcome: verdict.outcome,
            best_model: verdict.best_model,
        }
    }
}

/// The step of every runner whose model is one vector: `run` updates it
/// in place and returns the clock, and the loss is `task`'s over `batch`
/// on `eval`.
pub(crate) struct ModelStep<'a, T, F> {
    task: &'a T,
    batch: &'a Batch<'a>,
    eval: CpuExec,
    w: Vec<Scalar>,
    run: F,
    counts_conflicts: bool,
}

impl<'a, T: Task, F> ModelStep<'a, T, F>
where
    F: FnMut(&mut [Scalar], usize, &mut EpochMetrics) -> Result<f64, Halt>,
{
    pub(crate) fn new(
        task: &'a T,
        batch: &'a Batch<'a>,
        eval: CpuExec,
        w: Vec<Scalar>,
        run: F,
    ) -> Self {
        ModelStep { task, batch, eval, w, run, counts_conflicts: false }
    }

    /// Marks the step as counting its lost updates exactly.
    pub(crate) fn counting_conflicts(self) -> Self {
        ModelStep { counts_conflicts: true, ..self }
    }
}

impl<T: Task, F> EpochStep for ModelStep<'_, T, F>
where
    F: FnMut(&mut [Scalar], usize, &mut EpochMetrics) -> Result<f64, Halt>,
{
    fn counts_conflicts(&self) -> bool {
        self.counts_conflicts
    }

    fn loss(&mut self) -> f64 {
        self.task.loss(&mut self.eval, self.batch, &self.w)
    }

    fn epoch(&mut self, epoch: usize, m: &mut EpochMetrics) -> Result<f64, Halt> {
        (self.run)(&mut self.w, epoch, m)
    }

    fn model(&self) -> &[Scalar] {
        &self.w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::NullObserver;
    use crate::report::RunOutcome;

    /// Halves a one-coordinate model each epoch on a clock of one second
    /// per epoch, halting with `halt` at epoch `halt_at`.
    struct Halving {
        w: Vec<Scalar>,
        halt_at: usize,
        halt: Halt,
    }

    impl EpochStep for Halving {
        fn counts_conflicts(&self) -> bool {
            true
        }
        fn loss(&mut self) -> f64 {
            self.w[0]
        }
        fn epoch(&mut self, epoch: usize, m: &mut EpochMetrics) -> Result<f64, Halt> {
            if epoch == self.halt_at {
                return Err(self.halt);
            }
            self.w[0] *= 0.5;
            m.update_conflicts = 2;
            Ok((epoch + 1) as f64)
        }
        fn model(&self) -> &[Scalar] {
            &self.w
        }
    }

    fn run(halt_at: usize, halt: Halt) -> RunReport {
        let opts = RunOptions { max_epochs: 5, plateau: None, ..Default::default() };
        let id = EpochLoop { label: "halving".into(), device: DeviceKind::CpuSeq, step_size: 0.5 };
        id.run(&mut Halving { w: vec![1.0], halt_at, halt }, &opts, &mut NullObserver)
    }

    #[test]
    fn the_loop_owns_trace_metrics_conflicts_and_best_model() {
        let rep = run(usize::MAX, Halt::OutOfTime { clock: 0.0 });
        assert_eq!(rep.outcome, RunOutcome::BudgetExhausted);
        assert_eq!(rep.trace.epochs(), 5);
        assert_eq!(rep.opt_seconds, 5.0);
        assert_eq!(rep.metrics.epochs.len(), 5);
        assert_eq!(rep.metrics.epochs[2].loss, 0.125);
        assert_eq!(rep.metrics.epochs[2].elapsed_secs, 3.0);
        assert_eq!(rep.metrics.update_conflicts, Some(10));
        assert_eq!(rep.best_model, Some(vec![1.0 / 32.0]));
    }

    #[test]
    fn a_fault_halt_aborts_at_that_epoch_on_the_halt_clock() {
        let rep = run(2, Halt::FaultAborted { clock: 2.5 });
        assert_eq!(rep.outcome, RunOutcome::FaultAborted { epoch: 3 });
        assert_eq!(rep.trace.epochs(), 2);
        assert_eq!(rep.opt_seconds, 2.5);
    }

    #[test]
    fn running_out_of_time_is_a_budget_exhaustion() {
        let rep = run(0, Halt::OutOfTime { clock: 0.25 });
        assert_eq!(rep.outcome, RunOutcome::BudgetExhausted);
        assert_eq!(rep.trace.epochs(), 0);
        assert_eq!(rep.opt_seconds, 0.25);
        assert!(rep.best_model.is_none());
    }
}
