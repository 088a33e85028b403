//! What the three paths measure the same way: repeated set-up, the
//! operation-time metrics, the target metrics, and time-boxed replays of
//! one layer in isolation.

use std::time::{Duration, Instant};

use crate::json::Json;
use crate::report::Outcome;
use crate::stats;
use crate::trace::{self, Tracer};

/// What one run was asked for.
pub struct Ctx<'a> {
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    pub tracer: &'a Tracer,
}

impl Ctx<'_> {
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// A traced run splits its window: a quarter untraced (the base the
    /// tracing overhead is measured against), half traced, and a quarter
    /// for replaying single layers in isolation.
    pub fn untraced_leg(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / 4.0)
    }

    pub fn traced_leg(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / 2.0)
    }

    /// Budget of one isolated replay, so that `replays` of them fill the
    /// last quarter of the window.
    pub fn replay_budget(&self, replays: usize) -> Duration {
        Duration::from_secs_f64(self.seconds / 4.0 / replays.max(1) as f64)
    }
}

/// Set-up is run at least this many times and its median reported: one
/// sample of a few-second quantity would make `setup_s` the noisiest
/// metric.
pub const MIN_SETUP_REPS: usize = 3;
/// A set-up that takes milliseconds is repeated until this much time has
/// gone into it (or this many repetitions): its first passes run on cold
/// caches and an idle clock, and a median of three would still see them.
const SETUP_BUDGET_SECS: f64 = 1.0;
const MAX_SETUP_REPS: usize = 15;

pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Runs `setup` repeatedly, keeps the last state, and returns the median
/// seconds. Each state is dropped before the next is built, so the peak
/// resident set is that of one set-up.
pub fn repeat_setup<S>(mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut secs = Vec::new();
    let mut state = None;
    while secs.len() < MIN_SETUP_REPS
        || (secs.iter().sum::<f64>() < SETUP_BUDGET_SECS && secs.len() < MAX_SETUP_REPS)
    {
        drop(state.take());
        let (s, t) = timed(&mut setup);
        secs.push(t);
        state = Some(s);
    }
    (state.expect("at least one repetition"), stats::median(&secs))
}

/// Median of the seconds `measure` returns — it sets up whatever it
/// needs untimed and times the part that counts — over at least five
/// batches, and more while `budget` lasts.
pub fn median_secs(budget: Duration, mut measure: impl FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let mut batches = Vec::new();
    while batches.len() < 5 || (start.elapsed() < budget && batches.len() < 10_000) {
        batches.push(measure());
    }
    stats::median(&batches)
}

/// Median seconds per call of `f`; a batch is sized to last about a
/// millisecond, so the clock reads are noise.
pub fn per_call_secs(budget: Duration, mut f: impl FnMut()) -> f64 {
    let (_, first) = timed(&mut f);
    let per_batch = ((1.0e-3 / first.max(1.0e-9)) as usize).clamp(1, 100_000);
    median_secs(budget, || {
        let (_, t) = timed(|| {
            for _ in 0..per_batch {
                f();
            }
        });
        t / per_batch as f64
    })
}

/// Sets `op_p50_us` and `op_p95_us` from the operation times (one part
/// per connection, each sorted ascending) and notes how well the sample
/// supports the tail figure.
pub fn set_op_metrics(out: &mut Outcome, parts: &[&[f64]]) {
    let p50 = stats::percentile_of_parts(parts, 50.0);
    out.set("op_p50_us", p50);
    out.set("op_p95_us", stats::percentile_of_parts(parts, 95.0));
    out.note("op_samples", Json::Num(parts.iter().map(|p| p.len()).sum::<usize>() as f64));
    // Every workload must report every metric, so p95 is printed even
    // where fewer than ten samples lie beyond it; this flag says when to
    // read it as "about the largest epoch seen" and not as a tail.
    out.note("op_p95_supported", Json::Bool(stats::supported_percentile(parts, 95.0).is_ok()));
    let iqr = stats::percentile_of_parts(parts, 75.0) - stats::percentile_of_parts(parts, 25.0);
    out.note("op_iqr_frac", Json::Num(iqr / p50));
}

/// Sets `ops_to_target` and `time_to_target_s` from the jobs that
/// reached their target.
pub fn set_target_metrics(out: &mut Outcome, ops: &[f64], secs: &[f64]) {
    out.set("ops_to_target", stats::median(ops));
    out.set("time_to_target_s", stats::median(secs));
    out.note("target_samples", Json::Num(secs.len() as f64));
}

/// `(traced - untraced) / untraced` of a workload's primary metric, where
/// lower is better for both.
pub fn overhead_frac(untraced: f64, traced: f64) -> f64 {
    (traced - untraced) / untraced
}

/// What `layers` leave of `total` — the path's one named residual, so
/// that layers + residual = the traced total. A negative residual fails
/// the run and yields `None`.
pub fn path_residual(
    out: &mut Outcome,
    path: &'static str,
    total: f64,
    layers: &[(&str, f64)],
    residual_name: &str,
) -> Option<f64> {
    let residual = trace::residual(total, layers, residual_name);
    let detail = match &residual {
        Ok(r) => format!("layers + {residual_name} ({r:.6}) = traced total ({total:.6})"),
        Err(e) => e.clone(),
    };
    out.check(path, residual.is_ok(), detail);
    residual.ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_is_repeated_and_only_the_last_state_kept() {
        let mut built = 0;
        let (state, median) = repeat_setup(|| {
            built += 1;
            built
        });
        assert_eq!((state, built), (MAX_SETUP_REPS, MAX_SETUP_REPS), "an instant set-up is capped");
        assert!(median >= 0.0);
        let mut slow = 0;
        let (state, median) = repeat_setup(|| {
            std::thread::sleep(Duration::from_millis(400));
            slow += 1;
            slow
        });
        assert_eq!(state, MIN_SETUP_REPS, "a slow one runs the minimum");
        assert!(median >= 0.4);
    }

    #[test]
    fn per_call_time_grows_with_the_work_per_call() {
        let spin = |n: u64| {
            move || {
                let mut x = 0u64;
                for i in 0..n {
                    x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
                }
                std::hint::black_box(x);
            }
        };
        let short = per_call_secs(Duration::from_millis(20), spin(1_000));
        let long = per_call_secs(Duration::from_millis(20), spin(100_000));
        assert!(long > 10.0 * short, "100x the work must not read the same: {short} vs {long}");
    }

    #[test]
    fn op_metrics_flag_an_unsupported_tail() {
        let mut out = Outcome::default();
        let few: Vec<f64> = (1..=20).map(f64::from).collect();
        set_op_metrics(&mut out, &[&few]);
        assert_eq!(out.metrics["op_p50_us"], 10.0);
        assert_eq!(out.metrics["op_p95_us"], 19.0);
        assert!(out.header.iter().any(|(k, v)| k == "op_p95_supported" && *v == Json::Bool(false)));
        let mut out = Outcome::default();
        let (a, b): (Vec<f64>, Vec<f64>) =
            ((1..=200).map(f64::from).collect(), (201..=400).map(f64::from).collect());
        set_op_metrics(&mut out, &[&b, &a]);
        assert_eq!(out.metrics["op_p95_us"], 380.0);
        assert!(out.header.iter().any(|(k, v)| k == "op_p95_supported" && *v == Json::Bool(true)));
    }
}
