//! Runs to a loss target, back to back for the length of a window — the
//! shape the training and the parameter-server workloads share: an
//! operation is one epoch (a `RunReport::trace` delta), a target is the
//! loss target of a run.

use std::time::{Duration, Instant};

use sgd_core::{RunOutcome, RunReport};

use crate::measure::{overhead_frac, set_op_metrics, set_target_metrics, timed};
use crate::report::Outcome;
use crate::stats;

/// Everything one window of back-to-back runs produced.
pub struct Runs {
    pub runs: u64,
    pub failed: u64,
    /// `(epochs, wall seconds)` of each run that reached the target.
    pub converged: Vec<(f64, f64)>,
    pub epoch_us: Vec<f64>,
    /// Wall seconds of the run calls, and the seconds their traces time.
    pub wall_s: f64,
    pub timed_s: f64,
    pub epochs: u64,
    pub staleness_rounds: u64,
    pub update_conflicts: u64,
    /// Loss bit patterns of the first run, and whether every later run
    /// reproduced them.
    first_losses: Option<Vec<u64>>,
    pub losses_repeat: bool,
    wall_covers_timed: bool,
    first_failure: Option<String>,
}

impl Runs {
    /// Calls `one` (with the run's index) until `window` has elapsed,
    /// finishing the run in progress; at least once.
    pub fn back_to_back(
        window: Duration,
        mut one: impl FnMut(u64) -> Result<RunReport, String>,
    ) -> Runs {
        let mut r = Runs {
            runs: 0,
            failed: 0,
            converged: Vec::new(),
            epoch_us: Vec::new(),
            wall_s: 0.0,
            timed_s: 0.0,
            epochs: 0,
            staleness_rounds: 0,
            update_conflicts: 0,
            first_losses: None,
            losses_repeat: true,
            wall_covers_timed: true,
            first_failure: None,
        };
        let start = Instant::now();
        while r.runs == 0 || start.elapsed() < window {
            let (result, wall_s) = timed(|| one(r.runs));
            r.absorb(result, wall_s);
        }
        r
    }

    fn absorb(&mut self, result: Result<RunReport, String>, wall_s: f64) {
        self.runs += 1;
        let failure = match result {
            Ok(report) => {
                let points = report.trace.points();
                self.epoch_us.extend(points.windows(2).map(|w| (w[1].0 - w[0].0) * 1.0e6));
                self.wall_s += wall_s;
                self.timed_s += report.opt_seconds;
                self.epochs += report.trace.epochs() as u64;
                self.staleness_rounds += report.metrics.total_staleness_rounds();
                self.update_conflicts += report.update_conflicts().unwrap_or(0);
                self.wall_covers_timed &= wall_s >= report.opt_seconds;
                let losses: Vec<u64> = points.iter().map(|p| p.1.to_bits()).collect();
                match &self.first_losses {
                    None => self.first_losses = Some(losses),
                    Some(first) => self.losses_repeat &= *first == losses,
                }
                if report.outcome == RunOutcome::Converged {
                    self.converged.push((report.trace.epochs() as f64, wall_s));
                    return;
                }
                format!("ended {} after {} epochs", report.outcome.label(), report.trace.epochs())
            }
            Err(e) => e,
        };
        self.failed += 1;
        self.first_failure.get_or_insert(format!("run {}: {failure}", self.runs));
    }

    pub fn median_epoch_us(&self) -> f64 {
        stats::median(&self.epoch_us)
    }

    /// The end-to-end metrics of an untraced window. `ops_per_s` counts
    /// the epochs of the runs that reached the target over the wall
    /// seconds of those whole runs, so time the trace leaves out (loss
    /// evaluation, connects, joins) still counts.
    pub fn set_end_to_end(&self, out: &mut Outcome) {
        set_op_metrics(out, &[&stats::sorted(self.epoch_us.clone())]);
        let (epochs, secs): (Vec<f64>, Vec<f64>) = self.converged.iter().copied().unzip();
        if !secs.is_empty() {
            set_target_metrics(out, &epochs, &secs);
            out.set("ops_per_s", epochs.iter().sum::<f64>() / secs.iter().sum::<f64>());
        }
    }

    /// What every traced leg reports about itself, against the untraced
    /// `base` leg of the same run.
    pub fn set_traced(&self, base: &Runs, out: &mut Outcome) {
        out.set("traced.op_p50_us", self.median_epoch_us());
        out.set(
            "trace.overhead_frac",
            overhead_frac(base.median_epoch_us(), self.median_epoch_us()),
        );
        if !self.converged.is_empty() {
            let epochs: Vec<f64> = self.converged.iter().map(|c| c.0).collect();
            out.set("epochs_to_target", stats::median(&epochs));
        }
        out.set("fail_frac", (base.failed + self.failed) as f64 / (base.runs + self.runs) as f64);
    }

    /// Counts this window's runs as attempted operations and checks what
    /// holds for every run to a target.
    pub fn check(&self, out: &mut Outcome) {
        out.attempted += self.runs;
        out.failed += self.failed;
        out.check(
            "every run ends Converged",
            self.failed == 0,
            self.first_failure.clone().unwrap_or_else(|| format!("{} runs", self.runs)),
        );
        out.check(
            "time_to_target_s >= epochs x epoch time",
            self.wall_covers_timed,
            "the wall time of a run covers the seconds its trace reports",
        );
    }
}
