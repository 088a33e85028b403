//! Parameter-server scale-out sweep: consistency mode x worker count x
//! elastic-membership churn on the modeled `sgd-dist` cluster (see
//! DESIGN.md, "Distributed layer").
//!
//! `--check` runs the CI smoke mode (bit-determinism of the sweep, the
//! 1-worker == single-node anchor, the async-beats-sync straggler
//! contrast, and death+rejoin convergence) instead of the full sweep;
//! `--out PATH` overrides where the JSON lands (default `BENCH_ps.json`).

use sgd_bench::cli::{sweep_main, ExperimentConfig};
use sgd_bench::ps::{check, render, rows, to_json};

fn main() {
    sweep_main(
        "ps",
        "BENCH_ps.json",
        ExperimentConfig::from_args,
        |mut cfg| {
            cfg.datasets = vec!["w8a".into()];
            check(&cfg)?;
            Ok("sweep bit-deterministic, 1-worker sync matches single-node bitwise, \
                async absorbs the straggler, death+rejoin converges"
                .into())
        },
        |mut cfg| {
            if cfg.datasets.is_empty() {
                cfg.datasets = vec!["covtype".into(), "rcv1".into()];
            }
            let rows = rows(&cfg);
            (render(&rows), to_json(&rows))
        },
    );
}
