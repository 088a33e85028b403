//! Serving sweep: micro-batched inference across every backend (see
//! DESIGN.md, "Serving layer").
//!
//! `--check` runs the CI smoke mode (bit-determinism, the batching win,
//! and a checkpoint disk round trip on a tiny dataset) instead of the
//! timed sweep; `--out PATH` overrides where the JSON lands (default
//! `BENCH_serve.json`).

use sgd_bench::cli::{sweep_main, ExperimentConfig};
use sgd_bench::serve::{check, render, rows, to_json};

fn main() {
    sweep_main(
        "serve",
        "BENCH_serve.json",
        ExperimentConfig::from_args,
        |mut cfg| {
            cfg.datasets = vec!["w8a".into()];
            check(&cfg)?;
            Ok("deterministic, batching wins, checkpoint round trip bit-exact".into())
        },
        |cfg| {
            let rows = rows(&cfg);
            (render(&rows), to_json(&rows))
        },
    );
}
