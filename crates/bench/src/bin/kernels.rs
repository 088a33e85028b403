//! Kernel roofline sweep: scalar vs SIMD (see DESIGN.md §11).
//!
//! `--check` runs the CI smoke mode (bitwise tier agreement, run-to-run
//! determinism, a loose SIMD-speedup floor) instead of the timed sweep;
//! `--force-portable` swaps the hardware-SIMD tier for the portable
//! fixed-lane mirror (the non-AVX2 leg); `--out PATH` overrides where
//! the JSON lands (default `BENCH_kernels.json`).

use sgd_bench::cli::sweep_main;
use sgd_bench::kernels::{check, render, rows, to_json, KernelBenchOpts};

fn main() {
    sweep_main(
        "kernels",
        "BENCH_kernels.json",
        |rest| {
            let mut opts = KernelBenchOpts::default();
            for arg in rest {
                match arg.as_str() {
                    "--force-portable" => opts.force_portable = true,
                    other => {
                        return Err(format!("unknown flag {other}\nflags: [--force-portable]"))
                    }
                }
            }
            Ok(opts)
        },
        |opts| {
            check(&opts)?;
            let leg = if opts.force_portable { " (portable leg)" } else { "" };
            Ok(format!("tiers bitwise-consistent{leg}"))
        },
        |opts| {
            let rows = rows(&opts, 0.02);
            (render(&rows), to_json(&rows, &opts))
        },
    );
}
