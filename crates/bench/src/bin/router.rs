//! Router sweep: cost-model backend routing vs every fixed backend on
//! shared arrival traces (see DESIGN.md, "Backend layer").
//!
//! `--check` runs the CI gate (bit-determinism, router within 5% of the
//! best fixed backend in every cell, strictly better than the best
//! single fixed backend somewhere) on the mixed sparse + dense smoke
//! workload; `--out PATH` overrides where the JSON lands (default
//! `BENCH_router.json`).

use sgd_bench::cli::{sweep_main, ExperimentConfig};
use sgd_bench::router::{check, render, rows, to_json};

fn main() {
    sweep_main(
        "router",
        "BENCH_router.json",
        ExperimentConfig::from_args,
        |cfg| {
            // `router::check` pins its own mixed sparse + dense workload.
            check(&cfg)?;
            Ok("deterministic, within 5% of best fixed everywhere, \
                beats the best single fixed backend"
                .into())
        },
        |cfg| {
            let rows = rows(&cfg);
            (render(&rows), to_json(&rows))
        },
    );
}
