//! Pool dispatch sweep: persistent pool vs fork-join (see DESIGN.md).
//!
//! `--check` runs the CI smoke mode (bit-equal losses across dispatch
//! modes on a tiny dataset) instead of the timed sweep; `--out PATH`
//! overrides where the JSON lands (default `BENCH_pool.json`).

use sgd_bench::cli::{sweep_main, ExperimentConfig};
use sgd_bench::pool::{check, render, rows, to_json};

fn main() {
    sweep_main(
        "pool",
        "BENCH_pool.json",
        ExperimentConfig::from_args,
        |mut cfg| {
            cfg.datasets = vec!["w8a".into()];
            check(&cfg)?;
            Ok("dispatch modes bit-equal".into())
        },
        |mut cfg| {
            // Default to the paper's dense profile plus its widest sparse one.
            if cfg.datasets.is_empty() {
                cfg.datasets = vec!["covtype".into(), "rcv1".into()];
            }
            let rows = rows(&cfg);
            (render(&rows), to_json(&rows))
        },
    );
}
