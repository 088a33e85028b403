//! The benchmark's vocabulary — workloads, end-to-end metrics, per-layer
//! metrics — and the result one run produces. `BENCHMARK.json` lists the
//! same names; a unit test keeps the two in step.

use std::collections::BTreeMap;

use crate::json::Json;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, higher_is_better: false }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, higher_is_better: true }
}

/// End-to-end metrics, measured with tracing off. Every workload reports
/// every one of them, so they are phrased over an *operation* (one
/// request on the serving path, one epoch on the training and
/// parameter-server paths) and a *target* (the loss target of a run; on
/// the serving path a client batch of [`crate::serve::BATCH_OPS`]
/// requests).
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    lower("op_p50_us", "us"),
    lower("op_p95_us", "us"),
    higher("ops_per_s", "1/s"),
    lower("ops_to_target", "count"),
    lower("time_to_target_s", "s"),
    lower("peak_rss_mb", "MB"),
];

/// Per-layer metrics, from the traced run. A layer a workload never
/// enters reports 0 (no calls, no time).
pub const PER_LAYER: &[MetricDef] = &[
    // Serving path.
    lower("serve.framing.read_line_ns", "ns"),
    lower("datagen.libsvm.parse_ns", "ns"),
    lower("serve.registry.get_ns", "ns"),
    lower("serve.registry.get_under_publish_ns", "ns"),
    lower("serve.registry.publish_us", "us"),
    lower("serve.checkpoint.encode_us", "us"),
    lower("serve.checkpoint.decode_us", "us"),
    lower("serve.model.build_us", "us"),
    lower("serve.model.predict_ns", "ns"),
    lower("serve.wire.core_ns", "ns"),
    lower("serve.wire.self_ns", "ns"),
    lower("socket.serve_wait_us", "us"),
    lower("serve.wire.lat_p50_1conn_us", "us"),
    lower("serve.wire.lat_p99_us", "us"),
    higher("serve.wire.requests", "count"),
    higher("serve.wire.ok", "count"),
    lower("serve.wire.busy", "count"),
    lower("serve.wire.err", "count"),
    lower("serve.wire.bytes_in_per_req", "B"),
    lower("serve.wire.bytes_out_per_req", "B"),
    higher("serve.registry.publishes", "count"),
    lower("serve.registry.stale_replies", "count"),
    // Parameter-server path.
    lower("dist.worker.pull_ms", "ms"),
    lower("dist.worker.lease_ms", "ms"),
    lower("dist.worker.compute_ms", "ms"),
    lower("dist.worker.push_ms", "ms"),
    lower("dist.worker.idle_ms", "ms"),
    lower("dist.worker.pull_share", "ratio"),
    lower("dist.worker.lease_share", "ratio"),
    higher("dist.worker.compute_share", "ratio"),
    lower("dist.worker.push_share", "ratio"),
    lower("dist.worker.idle_share", "ratio"),
    lower("dist.worker.untraced_share", "ratio"),
    lower("dist.wire.server_pull_us", "us"),
    lower("dist.wire.server_push_us", "us"),
    lower("dist.server.pull_us", "us"),
    lower("dist.server.push_us", "us"),
    lower("dist.wire.codec_pull_us", "us"),
    lower("dist.wire.codec_push_us", "us"),
    lower("dist.server.lock_busy_frac", "ratio"),
    lower("socket.ps_wait_ms", "ms"),
    higher("dist.server.applied", "count"),
    lower("dist.server.accumulated", "count"),
    lower("dist.server.rejected_stale", "count"),
    lower("dist.server.downweighted", "count"),
    lower("dist.worker.recomputes", "count"),
    higher("dist.worker.useful_push_frac", "ratio"),
    lower("dist.wire.calls_per_epoch", "count"),
    lower("dist.wire.bytes_per_epoch", "B"),
    lower("dist.shard.make_ms", "ms"),
    lower("dist.modeled.epoch_ms", "ms"),
    lower("dist.modeled.residual", "ratio"),
    // Training path.
    lower("core.engine.untimed_frac", "ratio"),
    lower("models.gradient_ms", "ms"),
    lower("models.loss_ms", "ms"),
    lower("linalg.gemv_ms", "ms"),
    lower("linalg.gemv_t_ms", "ms"),
    higher("linalg.gemv_gflops", "GFLOP/s"),
    lower("linalg.dense_bytes_per_epoch", "B"),
    lower("linalg.spmv_ms", "ms"),
    lower("linalg.spmv_t_ms", "ms"),
    lower("linalg.sparse_bytes_per_epoch", "B"),
    lower("linalg.pool.submissions_per_epoch", "count"),
    higher("linalg.pool.max_width", "count"),
    higher("core.sync.scaling_t2", "ratio"),
    higher("core.hogwild.scaling_t2", "ratio"),
    lower("core.engine.staleness_rounds", "count"),
    lower("core.engine.update_conflicts", "count"),
    lower("cpusim.train_epoch_ms", "ms"),
    lower("cpusim.residual", "ratio"),
    lower("core.costmodel.serve_predict_us", "us"),
    lower("core.costmodel.serve_residual", "ratio"),
    // Every path.
    lower("datagen.generate_s", "s"),
    lower("core.reference_optimum_s", "s"),
    lower("epochs_to_target", "count"),
    lower("traced.op_p50_us", "us"),
    lower("trace.overhead_frac", "ratio"),
    lower("trace.spans", "count"),
    lower("fail_frac", "ratio"),
];

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "train_dense_sync",
        why: "covtype x0.1 dense LR, Engine cpu-par sync, 2 threads, alpha 100, to 1% of the reference optimum: gemv/gemv_t and pool dispatch do the work (the paper's sync corner)",
    },
    WorkloadDef {
        name: "train_sparse_hogwild",
        why: "rcv1 x0.02 sparse LR, Engine cpu-par Hogwild, 2 threads, alpha 0.01 (0.1 converges in 8 epochs, too coarse a count): sparse dot/axpy on SharedModel atomics, no dense kernel, no pool",
    },
    WorkloadDef {
        name: "serve_narrow",
        why: "w8a x0.2 LR (d=300, ~12 nnz, short lines), 2 closed-loop WireClient connections on a 2-worker WireServer: parse and kernel are tiny, so per-request fixed cost is the latency",
    },
    WorkloadDef {
        name: "serve_wide_swap",
        why: "rcv1 x0.005 LR (d=47236, ~2 KB lines) while a publisher hot-swaps one of 4 models every 100 ms through encode-decode-publish: parse and sparse predict dominate, registry written beside read",
    },
    WorkloadDef {
        name: "ps_narrow_sync",
        why: "covtype x0.02 LR, run_dist_wire, 2 workers, 4 shards (8 took 10.6 s a run), sync quorum 2, alpha 100, target 1.01x the 1-worker 8-epoch loss: ~1 KB messages, so round trips set epoch time",
    },
    WorkloadDef {
        name: "ps_wide_async",
        why: "rcv1 x0.005 LR, run_dist_wire, 2 workers, 4 shards, async staleness 4 reject, alpha 100, target 1.01x the 1-worker 12-epoch loss: 803 KB hex MODEL/PUSH lines, so codec and O(d) apply dominate",
    },
];

/// One output check: a property of the program's outputs the run
/// verified (or found broken).
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
    /// An advisory check is printed and recorded but does not make the
    /// run incorrect: it watches the benchmark itself, not the program's
    /// outputs.
    pub advisory: bool,
}

/// What one run of one workload produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts and other facts for the run header.
    pub header: Vec<(String, Json)>,
}

impl Outcome {
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check { name, ok, detail: detail.into(), advisory: false });
    }

    pub fn advise(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check { name, ok, detail: detail.into(), advisory: true });
    }

    /// Records a metric of the vocabulary.
    ///
    /// # Panics
    /// Panics on a name neither list defines: a misspelt metric would
    /// otherwise be dropped from every report without a trace.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name} is not in the benchmark's vocabulary"
        );
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, key: &str, value: Json) {
        self.header.push((key.to_string(), value));
    }

    /// Correct when no operation failed and every output check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok || c.advisory)
    }

    /// The metric set a run reports: every end-to-end metric with tracing
    /// off (each must have been measured), every per-layer metric with
    /// tracing on (0 for a layer the workload never entered).
    pub fn reported(&self, traced: bool) -> Vec<(&'static MetricDef, f64)> {
        let defs = if traced { PER_LAYER } else { END_TO_END };
        defs.iter()
            .map(|def| {
                let value = match self.metrics.get(def.name) {
                    Some(v) => *v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {} was not measured", def.name),
                };
                (def, value)
            })
            .collect()
    }

    /// The contract's result object: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_json(&self, traced: bool) -> Json {
        let metrics = self.reported(traced).into_iter().map(|(def, value)| {
            (def.name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(def.unit))]))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::package_dir;

    fn names(defs: &[MetricDef]) -> Vec<&'static str> {
        defs.iter().map(|d| d.name).collect()
    }

    #[test]
    fn names_are_unique_and_within_the_contracts_limits() {
        let mut all: Vec<&str> = names(END_TO_END);
        all.extend(names(PER_LAYER));
        all.extend(WORKLOADS.iter().map(|w| w.name));
        for n in &all {
            assert!(
                n.len() <= 64 && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()),
                "{n}"
            );
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
        }
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total, "a name is used once");
        assert!(
            END_TO_END.len() <= 16 && PER_LAYER.len() <= 128 && (2..=8).contains(&WORKLOADS.len())
        );
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    #[test]
    fn benchmark_json_lists_the_same_vocabulary() {
        let path = package_dir().join("..").join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let expected = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| {
                    let better = if d.higher_is_better { "higher" } else { "lower" };
                    (d.name.to_string(), d.unit.to_string(), better.to_string())
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), expected(END_TO_END));
        assert_eq!(listed("per_layer"), expected(PER_LAYER));
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                let field = |k: &str| w.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("why"))
            })
            .collect();
        let expected_workloads: Vec<(String, String)> =
            WORKLOADS.iter().map(|w| (w.name.to_string(), w.why.to_string())).collect();
        assert_eq!(workloads, expected_workloads);
    }

    #[test]
    fn an_untraced_result_must_carry_every_end_to_end_metric() {
        let mut o = Outcome { attempted: 3, ..Default::default() };
        for def in END_TO_END {
            o.set(def.name, 1.5);
        }
        let json = o.result_json(false);
        let keys: Vec<&str> =
            json.as_obj().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            json.get("metrics").and_then(Json::as_obj).map(<[_]>::len),
            Some(END_TO_END.len())
        );
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
        // A traced result lists every layer, entered or not.
        assert_eq!(
            o.result_json(true).get("metrics").and_then(Json::as_obj).map(<[_]>::len),
            Some(PER_LAYER.len())
        );
        o.advise("about the benchmark", false, "noisy");
        assert!(o.correct(), "an advisory check does not decide correctness");
        o.check("x", false, "broken");
        assert_eq!(o.result_json(false).get("correct"), Some(&Json::Bool(false)));
    }
}
