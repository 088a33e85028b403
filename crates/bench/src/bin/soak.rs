//! Overload soak: hardened admission control vs the unhardened baseline
//! at ~10^6 modeled requests (see DESIGN.md, "Overload & graceful
//! degradation").
//!
//! `--check` runs the CI smoke mode (bit-determinism of shed decisions,
//! conservation, and the bounded-tail/divergent-baseline contrast on a
//! tiny dataset) instead of the full soak; `--out PATH` overrides where
//! the JSON lands (default `BENCH_soak.json`).

use sgd_bench::cli::{sweep_main, ExperimentConfig};
use sgd_bench::soak::{check, render, rows, to_json};

fn main() {
    sweep_main(
        "soak",
        "BENCH_soak.json",
        ExperimentConfig::from_args,
        |mut cfg| {
            cfg.datasets = vec!["w8a".into()];
            check(&cfg)?;
            Ok("deterministic shed decisions, conservation holds, \
                hardened tail bounded while the baseline diverges"
                .into())
        },
        |cfg| {
            let rows = rows(&cfg);
            (render(&rows), to_json(&rows))
        },
    );
}
