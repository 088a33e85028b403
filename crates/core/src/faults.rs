//! Deterministic fault injection for robustness experiments.
//!
//! The paper's asynchronous verdict leans on HOGWILD!'s claim that
//! lock-free SGD degrades gracefully under conflicting, stale, and lost
//! updates. A [`FaultPlan`] makes that claim testable: it describes a
//! reproducible set of faults — per-worker straggler delay, dropped
//! updates, stale-gradient replay, multiplicative gradient corruption, and
//! worker death at a given epoch — that every runner injects at its update
//! boundary. All per-event decisions are pure hashes of
//! `(seed, kind, epoch, index)`, so a plan replays bit-identically under
//! modeled or simulated timing regardless of thread interleaving.
//!
//! Timing semantics follow the barrier structure of each strategy:
//! synchronous runners stall on the slowest participant
//! ([`FaultPlan::sync_dilation`] = the worst straggler's slowdown), while
//! asynchronous runners only lose the straggler's share of aggregate
//! throughput ([`FaultPlan::async_dilation`]); a dead worker stalls a
//! synchronous barrier forever (the run aborts) but costs an asynchronous
//! run only that worker's partition, unless no worker survives it.

use std::sync::atomic::{AtomicU64, Ordering};

/// One deliberately slow worker: every epoch of work it performs takes
/// `slowdown` times longer than a healthy worker's.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Straggler {
    /// Worker (thread / partition / warp) index the delay applies to.
    pub worker: usize,
    /// Multiplicative delay, `>= 1.0` (`1.0` = healthy).
    pub slowdown: f64,
}

/// A worker that stops processing work from `epoch` (0-based) onward.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerDeath {
    /// Worker index that dies.
    pub worker: usize,
    /// First epoch the worker no longer participates in.
    pub epoch: usize,
}

/// A previously dead worker that comes back at `epoch` (0-based): the
/// elastic-membership counterpart of [`WorkerDeath`]. With a rejoin
/// configured, [`FaultPlan::worker_dead`] reports the worker dead only for
/// epochs in `[death.epoch, rejoin.epoch)`. Single-node synchronous
/// runners abort at the first stalled barrier, so a rejoin after the death
/// epoch never rescues them; the distributed parameter-server layer keeps
/// making progress on the surviving workers and readmits the worker at its
/// rejoin epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerRejoin {
    /// Worker index that rejoins (must match a [`WorkerDeath`]).
    pub worker: usize,
    /// First epoch the worker participates in again.
    pub epoch: usize,
}

/// A seeded, deterministic fault schedule carried on
/// [`crate::RunOptions`] and injected by every runner.
///
/// The default plan is empty: it draws no decision and dilates every
/// epoch by exactly `1.0`, so every runner's one fault-aware code path
/// reports bit-identically to a run without the robustness layer.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-event fault decisions (independent of the data
    /// shuffle seed).
    pub seed: u64,
    /// Deliberately slow workers.
    pub stragglers: Vec<Straggler>,
    /// Probability that an individual update is computed and then lost.
    pub drop_rate: f64,
    /// Probability that an update's gradient is computed against the
    /// epoch-start model instead of the freshest available one.
    pub stale_rate: f64,
    /// Probability that an update's step is corrupted by multiplicative
    /// noise.
    pub corrupt_rate: f64,
    /// Half-width of the corruption noise: a corrupted step is scaled by a
    /// factor drawn uniformly from `[1 - scale, 1 + scale]`.
    pub corrupt_scale: f64,
    /// Optional worker death.
    pub worker_death: Option<WorkerDeath>,
    /// Elastic rejoins (empty by default, keeping death permanent).
    pub rejoins: Vec<WorkerRejoin>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            stragglers: Vec::new(),
            drop_rate: 0.0,
            stale_rate: 0.0,
            corrupt_rate: 0.0,
            corrupt_scale: 0.5,
            worker_death: None,
            rejoins: Vec::new(),
        }
    }
}

// Domain-separation tags for the per-event hash.
const KIND_DROP: u64 = 0x1;
const KIND_STALE: u64 = 0x2;
const KIND_CORRUPT: u64 = 0x3;
const KIND_NOISE: u64 = 0x4;

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// `true` when the plan injects nothing: it draws no decision and
    /// dilates every epoch by exactly `1.0`.
    pub fn is_empty(&self) -> bool {
        self.stragglers.iter().all(|s| s.slowdown <= 1.0)
            && self.drop_rate <= 0.0
            && self.stale_rate <= 0.0
            && self.corrupt_rate <= 0.0
            && self.worker_death.is_none()
    }

    /// Sets the decision seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds a straggler.
    pub fn with_straggler(mut self, worker: usize, slowdown: f64) -> Self {
        self.stragglers.push(Straggler { worker, slowdown: slowdown.max(1.0) });
        self
    }

    /// Sets the dropped-update probability.
    pub fn with_drops(mut self, rate: f64) -> Self {
        self.drop_rate = rate;
        self
    }

    /// Sets the stale-gradient-replay probability.
    pub fn with_stale_reads(mut self, rate: f64) -> Self {
        self.stale_rate = rate;
        self
    }

    /// Sets the corruption probability and noise half-width.
    pub fn with_corruption(mut self, rate: f64, scale: f64) -> Self {
        self.corrupt_rate = rate;
        self.corrupt_scale = scale;
        self
    }

    /// Kills `worker` from `epoch` (0-based) onward.
    pub fn with_worker_death(mut self, worker: usize, epoch: usize) -> Self {
        self.worker_death = Some(WorkerDeath { worker, epoch });
        self
    }

    /// Brings `worker` back at `epoch` (0-based); see [`WorkerRejoin`].
    pub fn with_rejoin(mut self, worker: usize, epoch: usize) -> Self {
        self.rejoins.push(WorkerRejoin { worker, epoch });
        self
    }

    /// Deterministic uniform draw in `[0, 1)` for one `(kind, epoch,
    /// index)` event.
    fn u01(&self, kind: u64, epoch: usize, idx: usize) -> f64 {
        let h = mix64(self.seed ^ mix64(kind ^ mix64(epoch as u64 ^ mix64(idx as u64))));
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Does the update for `(epoch, idx)` get computed and then lost?
    pub fn drops_update(&self, epoch: usize, idx: usize) -> bool {
        self.drop_rate > 0.0 && self.u01(KIND_DROP, epoch, idx) < self.drop_rate
    }

    /// Does the update for `(epoch, idx)` read the epoch-start model?
    pub fn stale_read(&self, epoch: usize, idx: usize) -> bool {
        self.stale_rate > 0.0 && self.u01(KIND_STALE, epoch, idx) < self.stale_rate
    }

    /// Copies the model `w` into `epoch_start`, the target of this
    /// epoch's stale reads, when the plan reads stale models at all.
    pub(crate) fn keep_epoch_start(&self, epoch_start: &mut Vec<f64>, w: &[f64]) {
        if self.stale_rate > 0.0 {
            epoch_start.resize(w.len(), 0.0);
            epoch_start.copy_from_slice(w);
        }
    }

    /// Multiplicative corruption factor for `(epoch, idx)`, if corrupted.
    pub fn corrupt_factor(&self, epoch: usize, idx: usize) -> Option<f64> {
        if self.corrupt_rate > 0.0 && self.u01(KIND_CORRUPT, epoch, idx) < self.corrupt_rate {
            let u = 2.0 * self.u01(KIND_NOISE, epoch, idx) - 1.0;
            Some(1.0 + self.corrupt_scale * u)
        } else {
            None
        }
    }

    /// First epoch `worker` participates again after dying, if a rejoin is
    /// configured for it.
    fn rejoin_epoch(&self, worker: usize) -> Option<usize> {
        self.rejoins.iter().filter(|r| r.worker == worker).map(|r| r.epoch).min()
    }

    /// Is `worker` dead during `epoch`? With a rejoin configured the dead
    /// window is `[death.epoch, rejoin.epoch)`; without one it is
    /// unbounded.
    pub fn worker_dead(&self, worker: usize, epoch: usize) -> bool {
        self.worker_death.is_some_and(|d| {
            d.worker == worker
                && epoch >= d.epoch
                && self.rejoin_epoch(worker).is_none_or(|r| epoch < r)
        })
    }

    /// Is some worker in `0..workers` dead during `epoch`?
    pub fn has_dead_worker(&self, workers: usize, epoch: usize) -> bool {
        self.worker_death.is_some_and(|d| d.worker < workers && self.worker_dead(d.worker, epoch))
    }

    /// `true` when no worker in `0..workers` survives `epoch`: an
    /// asynchronous run has nobody left to make progress and aborts.
    pub fn all_workers_dead(&self, workers: usize, epoch: usize) -> bool {
        (0..workers.max(1)).all(|w| self.worker_dead(w, epoch))
    }

    /// `true` when a synchronous barrier over `workers` participants can
    /// never complete `epoch` (a participant is dead). Asynchronous
    /// runners keep going while [`FaultPlan::all_workers_dead`] is false.
    pub fn barrier_stalled(&self, workers: usize, epoch: usize) -> bool {
        self.has_dead_worker(workers, epoch)
    }

    /// The straggler slowdown of one worker (`1.0` when healthy).
    pub fn slowdown_of(&self, worker: usize) -> f64 {
        self.stragglers
            .iter()
            .filter(|s| s.worker == worker)
            .fold(1.0, |acc, s| acc.max(s.slowdown))
    }

    /// Epoch-time dilation of a synchronous barrier over `workers`
    /// participants: the barrier waits for the slowest worker, so the
    /// whole epoch stretches by the worst slowdown.
    pub fn sync_dilation(&self, workers: usize) -> f64 {
        (0..workers.max(1)).map(|w| self.slowdown_of(w)).fold(1.0, f64::max)
    }

    /// Epoch-time dilation of an asynchronous run over `workers`
    /// independent participants: a straggler only reduces aggregate
    /// throughput by its own share, so one worker at slowdown `s` dilates
    /// the epoch by `t / (t - 1 + 1/s)` — strictly less than the
    /// synchronous `s` for `t > 1`, and approaching `t/(t-1)` as
    /// `s -> inf` (graceful degradation).
    pub fn async_dilation(&self, workers: usize) -> f64 {
        let t = workers.max(1);
        let throughput: f64 = (0..t).map(|w| 1.0 / self.slowdown_of(w)).sum();
        t as f64 / throughput
    }
}

/// Injected-fault counts for one epoch (carried per epoch in
/// [`crate::EpochMetrics`]; aggregate with
/// [`crate::RunMetrics::total_faults`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultCounters {
    /// Updates computed and then discarded.
    pub dropped_updates: u64,
    /// Gradients computed against the epoch-start model.
    pub stale_reads: u64,
    /// Updates whose step was scaled by corruption noise.
    pub corrupted_updates: u64,
    /// Workers that were dead this epoch.
    pub dead_workers: u64,
    /// Extra seconds charged to the epoch for straggler delay.
    pub straggler_delay_secs: f64,
}

impl FaultCounters {
    /// Adds another epoch's counters into this one.
    pub fn merge(&mut self, other: &FaultCounters) {
        self.dropped_updates += other.dropped_updates;
        self.stale_reads += other.stale_reads;
        self.corrupted_updates += other.corrupted_updates;
        self.dead_workers += other.dead_workers;
        self.straggler_delay_secs += other.straggler_delay_secs;
    }

    /// Total discrete fault events (excludes straggler delay, which is a
    /// duration rather than a count).
    pub fn total_events(&self) -> u64 {
        self.dropped_updates + self.stale_reads + self.corrupted_updates + self.dead_workers
    }
}

/// Lock-free per-epoch fault tally shared by concurrent wall-clock
/// workers; drained into a [`FaultCounters`] at each epoch boundary.
#[derive(Default)]
pub(crate) struct FaultTally {
    dropped: AtomicU64,
    stale: AtomicU64,
    corrupted: AtomicU64,
}

impl FaultTally {
    pub(crate) fn new() -> Self {
        FaultTally::default()
    }

    // The three tallies below are plain event counters, not model state:
    // losing or reordering a count would miscount faults, so they use
    // lossless RMWs rather than SharedModel's lossy `add`.
    pub(crate) fn add(&self, dropped: u64, stale: u64, corrupted: u64) {
        // analyzer: allow(atomics-discipline) -- lossless event counter, not model state
        self.dropped.fetch_add(dropped, Ordering::Relaxed);
        // analyzer: allow(atomics-discipline) -- lossless event counter, not model state
        self.stale.fetch_add(stale, Ordering::Relaxed);
        // analyzer: allow(atomics-discipline) -- lossless event counter, not model state
        self.corrupted.fetch_add(corrupted, Ordering::Relaxed);
    }

    /// Moves the tallied counts into `fc`, resetting the tally.
    pub(crate) fn drain_into(&self, fc: &mut FaultCounters) {
        // analyzer: allow(atomics-discipline) -- atomic drain-and-reset of an event counter
        fc.dropped_updates += self.dropped.swap(0, Ordering::Relaxed);
        // analyzer: allow(atomics-discipline) -- atomic drain-and-reset of an event counter
        fc.stale_reads += self.stale.swap(0, Ordering::Relaxed);
        // analyzer: allow(atomics-discipline) -- atomic drain-and-reset of an event counter
        fc.corrupted_updates += self.corrupted.swap(0, Ordering::Relaxed);
    }
}

/// Per-epoch fault decisions for a synchronous full-batch update (one
/// update per epoch, so all decisions hash on `(epoch, 0)`).
#[derive(Clone, Copy, Debug)]
pub(crate) struct SyncFaultDecision {
    /// Replay the previous epoch's gradient instead of the fresh one.
    pub stale: bool,
    /// Multiplier on the step size (`1.0` when uncorrupted).
    pub alpha_factor: f64,
    /// Discard the update entirely.
    pub dropped: bool,
}

/// Draws the synchronous per-epoch fault decisions and tallies them.
pub(crate) fn sync_epoch_faults(
    plan: &FaultPlan,
    epoch: usize,
    fc: &mut FaultCounters,
) -> SyncFaultDecision {
    let stale = plan.stale_read(epoch, 0);
    if stale {
        fc.stale_reads += 1;
    }
    let mut alpha_factor = 1.0;
    if let Some(f) = plan.corrupt_factor(epoch, 0) {
        alpha_factor = f;
        fc.corrupted_updates += 1;
    }
    let dropped = plan.drops_update(epoch, 0);
    if dropped {
        fc.dropped_updates += 1;
    }
    SyncFaultDecision { stale, alpha_factor, dropped }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_empty() {
        let p = FaultPlan::default();
        assert!(p.is_empty());
        assert!(!p.drops_update(0, 0));
        assert!(!p.stale_read(3, 7));
        assert_eq!(p.corrupt_factor(1, 2), None);
        // The empty plan is the clean run: whatever the seed, it draws no
        // decision and kills nobody...
        let seeded = FaultPlan::default().with_seed(0xdead_beef);
        for epoch in 0..16 {
            for idx in 0..256 {
                assert!(!seeded.drops_update(epoch, idx), "drop at ({epoch}, {idx})");
                assert!(!seeded.stale_read(epoch, idx), "stale read at ({epoch}, {idx})");
                assert_eq!(
                    seeded.corrupt_factor(epoch, idx),
                    None,
                    "corruption at ({epoch}, {idx})"
                );
                assert!(!seeded.worker_dead(idx, epoch), "death at ({epoch}, {idx})");
            }
            assert!(!seeded.all_workers_dead(1, epoch));
        }
        // ...and its dilations are exactly 1, so `secs * dil` and
        // `secs * (dil - 1.0)` leave every clock bit as it is.
        for t in 1..=64 {
            assert_eq!(seeded.sync_dilation(t).to_bits(), 1.0f64.to_bits(), "sync, t = {t}");
            assert_eq!(seeded.async_dilation(t).to_bits(), 1.0f64.to_bits(), "async, t = {t}");
        }
    }

    #[test]
    fn unit_slowdown_straggler_is_still_empty() {
        let p = FaultPlan::default().with_straggler(0, 1.0);
        assert!(p.is_empty());
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::default().with_seed(7).with_drops(0.5);
        let b = FaultPlan::default().with_seed(7).with_drops(0.5);
        let c = FaultPlan::default().with_seed(8).with_drops(0.5);
        let da: Vec<bool> = (0..64).map(|i| a.drops_update(3, i)).collect();
        let db: Vec<bool> = (0..64).map(|i| b.drops_update(3, i)).collect();
        let dc: Vec<bool> = (0..64).map(|i| c.drops_update(3, i)).collect();
        assert_eq!(da, db);
        assert_ne!(da, dc);
    }

    #[test]
    fn rates_are_approximately_respected() {
        let p = FaultPlan::default().with_seed(1).with_drops(0.25);
        let hits = (0..10_000).filter(|&i| p.drops_update(0, i)).count();
        assert!((2000..3000).contains(&hits), "{hits} drops at rate 0.25");
    }

    #[test]
    fn fault_kinds_are_independent_streams() {
        let p = FaultPlan::default().with_seed(1).with_drops(0.5).with_stale_reads(0.5);
        let both = (0..1000).filter(|&i| p.drops_update(0, i) == p.stale_read(0, i)).count();
        // Correlated streams would agree (or disagree) almost always.
        assert!((300..700).contains(&both), "{both}/1000 agreements");
    }

    #[test]
    fn corruption_factor_stays_in_band() {
        let p = FaultPlan::default().with_seed(2).with_corruption(1.0, 0.5);
        for i in 0..256 {
            let f = p.corrupt_factor(1, i).expect("rate 1.0 always corrupts");
            assert!((0.5..=1.5).contains(&f), "{f}");
        }
    }

    #[test]
    fn straggler_dilation_sync_vs_async() {
        let p = FaultPlan::default().with_straggler(0, 4.0);
        // Barrier waits for the straggler: full 4x.
        assert!((p.sync_dilation(8) - 4.0).abs() < 1e-12);
        // Async only loses the straggler's throughput share.
        let a = p.async_dilation(8);
        assert!(a < 4.0, "async dilation {a} must be below the sync 4.0");
        assert!((a - 8.0 / (7.0 + 0.25)).abs() < 1e-12);
        // Single worker: no one to absorb the delay.
        assert!((p.async_dilation(1) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn async_dilation_is_bounded_as_slowdown_grows() {
        let p = FaultPlan::default().with_straggler(0, 1e12);
        // Graceful degradation: losing one of t workers costs t/(t-1).
        assert!((p.async_dilation(8) - 8.0 / 7.0).abs() < 1e-6);
    }

    #[test]
    fn worker_death_takes_effect_at_its_epoch() {
        let p = FaultPlan::default().with_worker_death(2, 5);
        assert!(!p.worker_dead(2, 4));
        assert!(p.worker_dead(2, 5));
        assert!(p.worker_dead(2, 9));
        assert!(!p.worker_dead(1, 9));
        assert!(p.barrier_stalled(4, 5));
        assert!(!p.barrier_stalled(2, 5), "dead worker outside the barrier set");
        // One death leaves survivors unless it was the only worker.
        assert!(!p.all_workers_dead(4, 5));
        let solo = FaultPlan::default().with_worker_death(0, 2);
        assert!(!solo.all_workers_dead(1, 1));
        assert!(solo.all_workers_dead(1, 2));
        assert!(!solo.all_workers_dead(2, 2));
    }

    #[test]
    fn rejoin_bounds_the_dead_window() {
        let p = FaultPlan::default().with_worker_death(2, 5).with_rejoin(2, 8);
        assert!(!p.worker_dead(2, 4));
        assert!(p.worker_dead(2, 5));
        assert!(p.worker_dead(2, 7));
        assert!(!p.worker_dead(2, 8), "rejoined at its epoch");
        assert!(!p.worker_dead(2, 20));
        assert!(!p.has_dead_worker(4, 8));
        assert!(p.has_dead_worker(4, 6));
        // A rejoin for a different worker changes nothing.
        let q = FaultPlan::default().with_worker_death(2, 5).with_rejoin(1, 8);
        assert!(q.worker_dead(2, 9));
        // Earliest rejoin wins when several are configured.
        let r = FaultPlan::default().with_worker_death(0, 1).with_rejoin(0, 6).with_rejoin(0, 3);
        assert!(r.worker_dead(0, 2));
        assert!(!r.worker_dead(0, 3));
    }

    #[test]
    fn tally_drains_and_resets() {
        let t = FaultTally::new();
        t.add(3, 2, 1);
        let mut fc = FaultCounters::default();
        t.drain_into(&mut fc);
        assert_eq!((fc.dropped_updates, fc.stale_reads, fc.corrupted_updates), (3, 2, 1));
        let mut fc2 = FaultCounters::default();
        t.drain_into(&mut fc2);
        assert_eq!(fc2.total_events(), 0, "drain resets the tally");
    }

    #[test]
    fn counters_merge() {
        let mut a =
            FaultCounters { dropped_updates: 1, straggler_delay_secs: 0.5, ..Default::default() };
        let b = FaultCounters {
            dropped_updates: 2,
            dead_workers: 1,
            straggler_delay_secs: 0.25,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.dropped_updates, 3);
        assert_eq!(a.dead_workers, 1);
        assert!((a.straggler_delay_secs - 0.75).abs() < 1e-12);
        assert_eq!(a.total_events(), 4);
    }
}
