//! Overload soak: admission control vs the unhardened baseline at
//! ~10^6 modeled requests.
//!
//! The serving counterpart of the paper's saturation story: past the
//! knee of the throughput curve, an unbounded queue buys no goodput —
//! it only converts overload into unbounded latency. The soak drives a
//! deterministic mixed open+closed scenario whose open-loop rate ramps
//! from below saturation to several times past it, against every fixed
//! backend and the cost-model router, twice each: once under a hardened
//! [`AdmissionPolicy`] (bounded tiered queue, backpressure, deadline)
//! and once under [`AdmissionPolicy::unbounded`] (the unhardened
//! baseline the serve and router sweeps also run under). Batches are
//! priced through [`ModeledService`] — O(1) per batch — which is what
//! makes a million-request soak feasible in CI time; the
//! admission/shedding mechanics are identical to the real compute path
//! (a pinned equivalence test lives in `sgd-serve`).
//!
//! Everything is seeded and simulated: same seed ⇒ bit-identical shed
//! decisions, outcome counts, and latency summaries. `check` pins that,
//! plus the two headline properties — conservation (`completed + shed +
//! rejected == offered`, no silent drops) and the bounded tail (the
//! hardened admitted p99 stays under its policy-derived bound while the
//! unhardened baseline's p99 diverges with the ramp).

use sgd_core::ComputeBackend;
use sgd_serve::{
    offered_requests, run_admitted, AdmissionPolicy, BatchPolicy, ClosedClients, ModeledService,
    OfferedRequest,
};

use crate::cli::ExperimentConfig;
use crate::prep::prepare_all;
use crate::serve::{request_pool, train_published_model};

/// Micro-batch size the soak serves at (capacity is defined at full
/// batches of this size).
pub const BATCH: usize = 16;

/// Open-loop rate ramp, as multiples of the contender's full-batch
/// capacity: two stages below/near saturation, two well past it.
pub const RAMP_FACTORS: [f64; 4] = [0.6, 1.2, 3.0, 6.0];

/// Priority tiers of the offered load (tier 0 = highest).
pub const TIERS: usize = 4;

/// Workload size of one soak cell.
#[derive(Clone, Copy, Debug)]
pub struct SoakDims {
    /// Open-loop requests per ramp stage.
    pub per_stage: usize,
    /// Closed-loop clients running alongside the ramp.
    pub clients: usize,
    /// Requests each closed client issues.
    pub per_client: usize,
}

impl SoakDims {
    /// The full soak: ~10^6 offered requests across the 4 contenders x
    /// 2 policies (128k per cell).
    pub fn full() -> Self {
        SoakDims { per_stage: 30_000, clients: 8, per_client: 1_000 }
    }

    /// CI smoke dims: the same shape at ~2.8k requests per cell.
    pub fn smoke() -> Self {
        SoakDims { per_stage: 600, clients: 8, per_client: 50 }
    }

    /// Requests offered to one cell.
    pub fn offered(&self) -> usize {
        self.per_stage * RAMP_FACTORS.len() + self.clients * self.per_client
    }
}

/// One backend choice under soak.
struct Contender {
    label: &'static str,
    candidates: Vec<ComputeBackend>,
}

fn contenders() -> Vec<Contender> {
    vec![
        Contender { label: "cpu-seq", candidates: vec![ComputeBackend::CpuSeq] },
        Contender { label: "cpu-par4", candidates: vec![ComputeBackend::CpuPar { threads: 4 }] },
        Contender { label: "gpu-sim", candidates: vec![ComputeBackend::GpuSim] },
        Contender {
            label: "router",
            candidates: vec![
                ComputeBackend::CpuSeq,
                ComputeBackend::CpuPar { threads: 4 },
                ComputeBackend::GpuSim,
            ],
        },
    ]
}

/// One (dataset, contender, policy) cell of the soak.
#[derive(Clone, Debug)]
pub struct SoakRow {
    /// Dataset name.
    pub dataset: String,
    /// Contender label (fixed backend or `router`).
    pub backend: String,
    /// `hardened` or `unbounded`.
    pub policy: String,
    /// Requests offered (open ramp + closed clients).
    pub offered: usize,
    /// Requests served to completion.
    pub completed: usize,
    /// Shed at admission (tier over its queue share).
    pub shed_admission: usize,
    /// Shed at batch assembly (deadline expired).
    pub shed_deadline: usize,
    /// Rejected by the in-flight backpressure bound.
    pub rejected: usize,
    /// Fraction of offered requests that did not complete.
    pub shed_fraction: f64,
    /// Completed requests per second of makespan.
    pub goodput_rps: f64,
    /// Median admitted latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile admitted latency, milliseconds.
    pub p99_ms: f64,
    /// 99.9th-percentile admitted latency, milliseconds.
    pub p999_ms: f64,
    /// Policy-derived bound the admitted tail must respect
    /// (deadline + 2 full-batch service times); 0 for the unbounded
    /// baseline, whose tail has no bound.
    pub tail_bound_ms: f64,
}

/// The deterministic ramp: `RAMP_FACTORS.len()` Poisson stages
/// concatenated end to end, each at `capacity * factor`, priorities
/// hashed across [`TIERS`].
fn ramped_offered(capacity_rps: f64, per_stage: usize, seed: u64) -> Vec<OfferedRequest> {
    let mut out: Vec<OfferedRequest> = Vec::new();
    let mut t0 = 0.0f64;
    for (s, factor) in RAMP_FACTORS.iter().enumerate() {
        let stage_seed = seed.wrapping_add(17 * (s as u64 + 1));
        let stage = offered_requests(capacity_rps * factor, per_stage, stage_seed, TIERS);
        for r in &stage {
            let arrival = t0 + r.arrival;
            out.push(OfferedRequest { arrival, priority: r.priority, row: out.len() });
        }
        t0 = out.last().map(|r| r.arrival).unwrap_or(t0);
    }
    out
}

/// Runs every cell: each contender under the hardened policy and the
/// unbounded baseline, on identical offered load.
fn cells(cfg: &ExperimentConfig, dims: &SoakDims) -> Vec<SoakRow> {
    let mut out = Vec::new();
    for p in prepare_all(cfg) {
        let model = train_published_model(cfg, &p);
        let pool = request_pool(&p);
        for c in contenders() {
            let mut svc = ModeledService::for_predict(c.candidates.clone(), &model, &pool);
            let s_full = svc.estimate_secs(BATCH).max(1e-12);
            let capacity = BATCH as f64 / s_full;
            let batch = BatchPolicy::new(BATCH, 2.0 * s_full);
            // Bounded queue of 4 full batches; backpressure 2 batches
            // above that; deadline under the full-queue drain time so
            // both shed paths engage under the ramp's overload stages.
            let hardened = AdmissionPolicy::new(4 * BATCH, 6 * BATCH, 3.0 * s_full, TIERS);
            let open = ramped_offered(capacity, dims.per_stage, cfg.seed);
            let closed = ClosedClients {
                clients: dims.clients,
                per_client: dims.per_client,
                think: 32.0 / capacity,
                priority: 0,
            };
            for (policy, name) in
                [(hardened, "hardened"), (AdmissionPolicy::unbounded(), "unbounded")]
            {
                let o = run_admitted(&mut svc, &batch, &policy, &open, &closed);
                let tail_bound =
                    if name == "hardened" { policy.deadline + 2.0 * s_full } else { 0.0 };
                out.push(SoakRow {
                    dataset: p.name().to_string(),
                    backend: c.label.to_string(),
                    policy: name.to_string(),
                    offered: dims.offered(),
                    completed: o.counts.completed,
                    shed_admission: o.counts.shed_admission,
                    shed_deadline: o.counts.shed_deadline,
                    rejected: o.counts.rejected,
                    shed_fraction: o.summary.shed_fraction(),
                    goodput_rps: o.summary.goodput,
                    p50_ms: o.summary.p50 * 1e3,
                    p99_ms: o.summary.p99 * 1e3,
                    p999_ms: o.summary.p999 * 1e3,
                    tail_bound_ms: tail_bound * 1e3,
                });
            }
        }
    }
    out
}

/// Runs the full soak (~10^6 modeled requests on the default dims), on
/// w8a when no datasets are selected.
pub fn rows(cfg: &ExperimentConfig) -> Vec<SoakRow> {
    let mut cfg = cfg.clone();
    if cfg.datasets.is_empty() {
        cfg.datasets = vec!["w8a".into()];
    }
    cells(&cfg, &SoakDims::full())
}

/// Hand-rolled JSON for `BENCH_soak.json` (no JSON dependency; every
/// float emitted is finite).
pub fn to_json(rows: &[SoakRow]) -> String {
    let mut out = String::from(
        "{\n  \"experiment\": \"soak-overload\",\n  \"unit\": \"ms latency / requests per second\",\n  \"rows\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"backend\": \"{}\", \"policy\": \"{}\", \
             \"offered\": {}, \"completed\": {}, \"shed_admission\": {}, \
             \"shed_deadline\": {}, \"rejected\": {}, \"shed_fraction\": {:.6}, \
             \"goodput_rps\": {:.1}, \"p50_ms\": {:.6}, \"p99_ms\": {:.6}, \
             \"p999_ms\": {:.6}, \"tail_bound_ms\": {:.6}}}{}\n",
            r.dataset,
            r.backend,
            r.policy,
            r.offered,
            r.completed,
            r.shed_admission,
            r.shed_deadline,
            r.rejected,
            r.shed_fraction,
            r.goodput_rps,
            r.p50_ms,
            r.p99_ms,
            r.p999_ms,
            r.tail_bound_ms,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Human-readable table for stdout.
pub fn render(rows: &[SoakRow]) -> String {
    let mut out = String::from(
        "Overload soak: ramp to 6x capacity, hardened admission vs unbounded baseline\n",
    );
    out.push_str(&format!(
        "{:<9} {:<9} {:<10} {:>9} {:>9} {:>7} | {:>11} {:>11} {:>11}\n",
        "dataset", "backend", "policy", "offered", "done", "shed%", "goodput", "p99-ms", "p999-ms"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<9} {:<9} {:<10} {:>9} {:>9} {:>6.1}% | {:>11.1} {:>11.4} {:>11.4}\n",
            r.dataset,
            r.backend,
            r.policy,
            r.offered,
            r.completed,
            r.shed_fraction * 100.0,
            r.goodput_rps,
            r.p99_ms,
            r.p999_ms,
        ));
    }
    out
}

/// CI smoke mode, on [`SoakDims::smoke`]. Asserts, per contender:
/// 1. bit-determinism: two runs agree on every count and every summary
///    float bitwise (shed decisions included — counts pin them);
/// 2. conservation: `completed + shed_admission + shed_deadline +
///    rejected == offered`, for both policies — no silent drops;
/// 3. graceful degradation: the hardened policy sheds under the ramp's
///    overload stages yet still completes work, and its admitted p99
///    respects the policy-derived tail bound;
/// 4. the contrast: the unhardened baseline completes everything but
///    its p99 diverges (at least 2x the hardened admitted p99).
pub fn check(cfg: &ExperimentConfig) -> Result<(), String> {
    let dims = SoakDims::smoke();
    let a = cells(cfg, &dims);
    let b = cells(cfg, &dims);

    // (1) Bit-determinism across full re-runs.
    if a.len() != b.len() {
        return Err(format!("soak size diverged across runs ({} vs {})", a.len(), b.len()));
    }
    for (x, y) in a.iter().zip(&b) {
        let same = x.completed == y.completed
            && x.shed_admission == y.shed_admission
            && x.shed_deadline == y.shed_deadline
            && x.rejected == y.rejected
            && x.goodput_rps.to_bits() == y.goodput_rps.to_bits()
            && x.p99_ms.to_bits() == y.p99_ms.to_bits()
            && x.p999_ms.to_bits() == y.p999_ms.to_bits();
        if !same {
            return Err(format!(
                "{} {} {}: not bit-deterministic across runs",
                x.dataset, x.backend, x.policy
            ));
        }
    }

    for r in &a {
        // (2) Conservation, every cell.
        let resolved = r.completed + r.shed_admission + r.shed_deadline + r.rejected;
        if resolved != r.offered {
            return Err(format!(
                "{} {} {}: resolution leak ({} resolved of {} offered)",
                r.dataset, r.backend, r.policy, resolved, r.offered
            ));
        }
    }

    for c in contenders() {
        let pair =
            |policy: &str| a.iter().find(|r| r.backend == c.label && r.policy == policy).cloned();
        let (Some(h), Some(u)) = (pair("hardened"), pair("unbounded")) else {
            return Err(format!("missing soak cells for contender {}", c.label));
        };
        // (3) The hardened policy sheds but keeps serving, under bound.
        let shed = h.shed_admission + h.shed_deadline + h.rejected;
        if shed == 0 {
            return Err(format!("{}: hardened policy shed nothing at 6x capacity", c.label));
        }
        if h.completed == 0 {
            return Err(format!("{}: hardened policy completed nothing", c.label));
        }
        if h.p99_ms > h.tail_bound_ms {
            return Err(format!(
                "{}: hardened admitted p99 {:.4}ms exceeds its bound {:.4}ms",
                c.label, h.p99_ms, h.tail_bound_ms
            ));
        }
        // (4) The baseline completes everything at the price of a
        // divergent tail.
        if u.completed != u.offered {
            return Err(format!("{}: unbounded baseline shed work", c.label));
        }
        if u.p99_ms < 2.0 * h.p99_ms {
            return Err(format!(
                "{}: baseline p99 {:.4}ms did not diverge past the hardened {:.4}ms",
                c.label, u.p99_ms, h.p99_ms
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_passes_on_the_smoke_config() {
        check(&ExperimentConfig::smoke()).expect("soak check must pass");
    }

    #[test]
    fn smoke_cells_produce_a_full_grid_and_valid_json() {
        let cfg = ExperimentConfig::smoke();
        let rows = cells(&cfg, &SoakDims::smoke());
        assert_eq!(rows.len(), contenders().len() * 2, "one dataset, 4 contenders x 2 policies");
        for r in &rows {
            assert_eq!(
                r.completed + r.shed_admission + r.shed_deadline + r.rejected,
                r.offered,
                "conservation in every cell"
            );
            assert!(r.p50_ms.is_finite() && r.p999_ms.is_finite());
            assert!(r.p50_ms <= r.p99_ms && r.p99_ms <= r.p999_ms);
        }
        let json = to_json(&rows);
        assert!(json.contains("\"soak-overload\""));
        assert_eq!(json.matches("\"policy\"").count(), rows.len());
        let table = render(&rows);
        assert!(table.contains("p999-ms"));
    }

    #[test]
    fn default_sweep_reproduces_the_committed_bench_file() {
        let rows = rows(&ExperimentConfig::default());
        assert_eq!(to_json(&rows), include_str!("../../../BENCH_soak.json"));
    }

    #[test]
    fn ramp_is_monotone_and_deterministic() {
        let a = ramped_offered(1000.0, 50, 7);
        let b = ramped_offered(1000.0, 50, 7);
        assert_eq!(a.len(), RAMP_FACTORS.len() * 50);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival.to_bits(), y.arrival.to_bits());
            assert_eq!((x.priority, x.row), (y.priority, y.row));
        }
        assert!(a.windows(2).all(|w| w[1].arrival >= w[0].arrival), "time moves forward");
        assert!(a.iter().any(|r| r.priority > 0), "tiers are populated");
    }
}
