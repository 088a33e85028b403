//! Per-epoch instrumentation shared by every runner.
//!
//! The epoch loop records one [`EpochMetrics`] per completed epoch into a
//! [`RunMetrics`] carried by the final [`crate::RunReport`], and forwards
//! it to an [`EpochObserver`] while the run is still in flight. Counters
//! that do not apply to a configuration are zero; rates that do not apply
//! are `NaN` (so a plot of, say, L2 hit ratios simply has no points for
//! CPU runs instead of a misleading zero line).

/// Hardware and staleness counters for one completed epoch.
#[derive(Clone, Copy, Debug)]
pub struct EpochMetrics {
    /// 1-based index of the completed epoch.
    pub epoch: usize,
    /// Optimization seconds elapsed at the end of the epoch (wall or
    /// simulated, matching the run's timing source).
    pub elapsed_secs: f64,
    /// Full-batch loss after the epoch.
    pub loss: f64,
    /// Model updates lost to write-write races during the epoch (GPU
    /// warp-Hogwild's intra-warp conflicts).
    pub update_conflicts: u64,
    /// Simulated device cycles spent in the epoch (`NaN` for wall-clock
    /// CPU runs, which have no cycle model).
    pub simulated_cycles: f64,
    /// L2 hit ratio of the epoch's simulated memory traffic (`NaN` when
    /// no cache model is in the loop).
    pub l2_hit_ratio: f64,
    /// Rounds of concurrent model updates whose participants read a stale
    /// snapshot (asynchronous CPU strategies; zero for synchronous runs).
    pub staleness_rounds: u64,
    /// Expected cache-coherency conflicts (cross-core invalidations of
    /// model cachelines) during the epoch, from the CPU cost model's
    /// conflict rate. Fractional because it is an expectation.
    pub coherency_conflicts: f64,
    /// Faults injected during the epoch by the run's
    /// [`crate::FaultPlan`] (all-zero for fault-free runs).
    pub faults: crate::faults::FaultCounters,
}

impl EpochMetrics {
    /// Metrics for a plain epoch: counters zero, simulator rates `NaN`.
    pub fn new(epoch: usize, elapsed_secs: f64, loss: f64) -> Self {
        EpochMetrics {
            epoch,
            elapsed_secs,
            loss,
            update_conflicts: 0,
            simulated_cycles: f64::NAN,
            l2_hit_ratio: f64::NAN,
            staleness_rounds: 0,
            coherency_conflicts: 0.0,
            faults: crate::faults::FaultCounters::default(),
        }
    }
}

/// All per-epoch metrics of one run, plus run-level aggregates.
#[derive(Clone, Debug, Default)]
pub struct RunMetrics {
    /// One entry per completed epoch, in order.
    pub epochs: Vec<EpochMetrics>,
    /// Total conflicting model updates, when the configuration tracks
    /// them exactly (the GPU asynchronous runners); `None` elsewhere.
    pub update_conflicts: Option<u64>,
}

impl RunMetrics {
    /// Sum of per-epoch staleness rounds.
    pub fn total_staleness_rounds(&self) -> u64 {
        self.epochs.iter().map(|e| e.staleness_rounds).sum()
    }

    /// Sum of per-epoch expected coherency conflicts.
    pub fn total_coherency_conflicts(&self) -> f64 {
        self.epochs.iter().map(|e| e.coherency_conflicts).sum()
    }

    /// Aggregate of the per-epoch injected-fault counters.
    pub fn total_faults(&self) -> crate::faults::FaultCounters {
        let mut total = crate::faults::FaultCounters::default();
        for e in &self.epochs {
            total.merge(&e.faults);
        }
        total
    }

    /// Sum of per-epoch simulated cycles (`None` when no epoch had a
    /// cycle model).
    pub fn total_simulated_cycles(&self) -> Option<f64> {
        let cycles: Vec<f64> =
            self.epochs.iter().map(|e| e.simulated_cycles).filter(|c| c.is_finite()).collect();
        if cycles.is_empty() {
            None
        } else {
            Some(cycles.iter().sum())
        }
    }
}

/// Receives each epoch's metrics while a run is in flight.
///
/// Implement this to stream per-epoch hardware counters to a logger or a
/// live plot; pass it to [`crate::Engine::run_observed`]. The same record
/// also lands in [`RunMetrics::epochs`], so a post-hoc consumer can ignore
/// the observer entirely.
pub trait EpochObserver {
    /// Called once per completed epoch, in order.
    fn on_epoch(&mut self, m: &EpochMetrics);

    /// Called whenever an epoch improves on the best finite loss seen so
    /// far in the run, with the model that achieved it — the same
    /// checkpoint the supervisor keeps for
    /// [`crate::RunReport::best_model`]. Fires right after the
    /// corresponding [`Self::on_epoch`], at epoch granularity, so a serving layer can
    /// publish best-so-far snapshots while the run continues. The default
    /// does nothing.
    fn on_best_model(&mut self, epoch: usize, loss: f64, model: &[sgd_linalg::Scalar]) {
        let _ = (epoch, loss, model);
    }
}

/// Observer that discards everything (the default).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl EpochObserver for NullObserver {
    fn on_epoch(&mut self, _m: &EpochMetrics) {}
}

/// Per-epoch counter deltas of a simulated GPU run.
///
/// The GPU runners trace real kernel streams only for the first (cold and
/// warm) epochs, then replay the warm epoch cost. Replay advances the
/// simulated clock — so cycle deltas stay exact — but performs no memory
/// accesses, so the L2 counters freeze; this probe falls back to the last
/// traced hit ratio for replayed epochs.
pub(crate) struct GpuEpochProbe {
    cycles0: f64,
    hits0: u64,
    misses0: u64,
    warm_l2: f64,
}

impl GpuEpochProbe {
    pub(crate) fn new() -> Self {
        GpuEpochProbe { cycles0: 0.0, hits0: 0, misses0: 0, warm_l2: f64::NAN }
    }

    /// Marks the start of an epoch.
    pub(crate) fn begin(&mut self, dev: &sgd_gpusim::GpuDevice) {
        self.cycles0 = dev.elapsed_cycles();
        self.hits0 = dev.stats().l2_hits;
        self.misses0 = dev.stats().l2_misses;
    }

    /// Returns `(simulated_cycles, l2_hit_ratio)` for the epoch since
    /// [`Self::begin`].
    pub(crate) fn end(&mut self, dev: &sgd_gpusim::GpuDevice) -> (f64, f64) {
        let cycles = dev.elapsed_cycles() - self.cycles0;
        let hits = dev.stats().l2_hits - self.hits0;
        let misses = dev.stats().l2_misses - self.misses0;
        let l2 = if hits + misses > 0 {
            let r = hits as f64 / (hits + misses) as f64;
            self.warm_l2 = r;
            r
        } else {
            self.warm_l2 // replayed epoch: reuse the traced warm ratio
        };
        (cycles, l2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_handle_missing_rates() {
        let mut m = RunMetrics::default();
        assert_eq!(m.total_simulated_cycles(), None);
        m.epochs.push(EpochMetrics::new(1, 0.1, 1.0));
        assert_eq!(m.total_simulated_cycles(), None, "NaN epochs have no cycle model");
        m.epochs.push(EpochMetrics { simulated_cycles: 4.0, ..EpochMetrics::new(2, 0.2, 0.9) });
        m.epochs.push(EpochMetrics { simulated_cycles: 6.0, ..EpochMetrics::new(3, 0.3, 0.8) });
        assert_eq!(m.total_simulated_cycles(), Some(10.0));
        assert_eq!(m.total_coherency_conflicts(), 0.0);
    }
}
