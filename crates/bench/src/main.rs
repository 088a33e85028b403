//! `sgd-bench <experiment> [flags]`: the one entry point of the
//! reproduction (see DESIGN.md for the experiment index).
//!
//! The nine paper experiments (`table1`..`table3`, `fig6`..`fig9`,
//! `ablation`, `faults`) parse [`ExperimentConfig`] flags and print their
//! table. The six sweeps (`kernels`, `pool`, `ps`, `router`, `serve`,
//! `soak`) go through [`run_sweep`]: `--check` runs the CI smoke mode
//! instead of the sweep, and `--out PATH` overrides where the JSON lands
//! (default `BENCH_<experiment>.json`). A missing or unknown experiment,
//! or a bad flag, exits 2; a failed check or write exits 1.

use sgd_bench::cli::{run_sweep, ExperimentConfig};
use sgd_bench::kernels::KernelBenchOpts;
use sgd_bench::{
    ablation, faults, fig6, fig7, fig8, fig9, kernels, pool, ps, router, serve, soak, table1,
    table2, table3,
};

/// Every experiment `run` dispatches, in help order.
const EXPERIMENTS: [&str; 15] = [
    "table1", "table2", "table3", "fig6", "fig7", "fig8", "fig9", "ablation", "faults", "kernels",
    "pool", "ps", "router", "serve", "soak",
];

fn main() {
    if let Err((code, msg)) = run(std::env::args().skip(1)) {
        eprintln!("{msg}");
        std::process::exit(code);
    }
}

/// Runs the experiment named by the first argument on the rest. `Err`
/// carries the exit code and the stderr line.
fn run(args: impl IntoIterator<Item = String>) -> Result<(), (i32, String)> {
    let mut args = args.into_iter();
    let name = args.next().unwrap_or_default();
    match name.as_str() {
        "table1" => paper(args, table1::render),
        "table2" => paper(args, table2::render),
        "table3" => paper(args, table3::render),
        "fig6" => paper(args, fig6::render),
        "fig7" => paper(args, fig7::render),
        "fig8" => paper(args, fig8::render),
        "fig9" => paper(args, fig9::render),
        "ablation" => paper(args, ablation::render),
        "faults" => paper(args, faults::render),
        "kernels" => {
            run_sweep(args, "kernels", "BENCH_kernels.json", kernel_opts, kernels_check, |opts| {
                let rows = kernels::rows(&opts, 0.02);
                (kernels::render(&rows), kernels::to_json(&rows, &opts))
            })
        }
        "pool" => run_sweep(
            args,
            "pool",
            "BENCH_pool.json",
            ExperimentConfig::from_args,
            |mut cfg| {
                cfg.datasets = vec!["w8a".into()];
                pool::check(&cfg)?;
                Ok("dispatch modes bit-equal".into())
            },
            |mut cfg| {
                // Default to the paper's dense profile plus its widest sparse one.
                if cfg.datasets.is_empty() {
                    cfg.datasets = vec!["covtype".into(), "rcv1".into()];
                }
                let rows = pool::rows(&cfg);
                (pool::render(&rows), pool::to_json(&rows))
            },
        ),
        "ps" => run_sweep(
            args,
            "ps",
            "BENCH_ps.json",
            ExperimentConfig::from_args,
            |mut cfg| {
                cfg.datasets = vec!["w8a".into()];
                ps::check(&cfg)?;
                Ok("sweep bit-deterministic, 1-worker sync matches single-node bitwise, \
                    async absorbs the straggler, death+rejoin converges"
                    .into())
            },
            |mut cfg| {
                if cfg.datasets.is_empty() {
                    cfg.datasets = vec!["covtype".into(), "rcv1".into()];
                }
                let rows = ps::rows(&cfg);
                (ps::render(&rows), ps::to_json(&rows))
            },
        ),
        "router" => run_sweep(
            args,
            "router",
            "BENCH_router.json",
            ExperimentConfig::from_args,
            |cfg| {
                // `router::check` pins its own mixed sparse + dense workload.
                router::check(&cfg)?;
                Ok("deterministic, within 5% of best fixed everywhere, \
                    beats the best single fixed backend"
                    .into())
            },
            |cfg| {
                let rows = router::rows(&cfg);
                (router::render(&rows), router::to_json(&rows))
            },
        ),
        "serve" => run_sweep(
            args,
            "serve",
            "BENCH_serve.json",
            ExperimentConfig::from_args,
            |mut cfg| {
                cfg.datasets = vec!["w8a".into()];
                serve::check(&cfg)?;
                Ok("deterministic, batching wins, checkpoint round trip bit-exact".into())
            },
            |cfg| {
                let rows = serve::rows(&cfg);
                (serve::render(&rows), serve::to_json(&rows))
            },
        ),
        "soak" => run_sweep(
            args,
            "soak",
            "BENCH_soak.json",
            ExperimentConfig::from_args,
            |mut cfg| {
                cfg.datasets = vec!["w8a".into()];
                soak::check(&cfg)?;
                Ok("deterministic shed decisions, conservation holds, \
                    hardened tail bounded while the baseline diverges"
                    .into())
            },
            |cfg| {
                let rows = soak::rows(&cfg);
                (soak::render(&rows), soak::to_json(&rows))
            },
        ),
        "" => Err((2, usage())),
        other => Err((2, format!("unknown experiment '{other}'\n{}", usage()))),
    }
}

/// A paper experiment: parse [`ExperimentConfig`] flags, print the table.
fn paper(
    args: impl IntoIterator<Item = String>,
    render: fn(&ExperimentConfig) -> String,
) -> Result<(), (i32, String)> {
    let cfg = ExperimentConfig::from_args(args).map_err(|msg| (2, msg))?;
    print!("{}", render(&cfg));
    Ok(())
}

fn usage() -> String {
    format!("usage: sgd-bench <experiment> [flags]\nexperiments: {}", EXPERIMENTS.join(" "))
}

/// `kernels` flags: `--force-portable` swaps the hardware-SIMD tier for
/// the portable fixed-lane mirror (the non-AVX2 leg).
fn kernel_opts(rest: Vec<String>) -> Result<KernelBenchOpts, String> {
    let mut opts = KernelBenchOpts::default();
    for arg in rest {
        match arg.as_str() {
            "--force-portable" => opts.force_portable = true,
            other => return Err(format!("unknown flag {other}\nflags: [--force-portable]")),
        }
    }
    Ok(opts)
}

/// `kernels --check`: bitwise tier agreement, run-to-run determinism and
/// a loose SIMD-speedup floor.
fn kernels_check(opts: KernelBenchOpts) -> Result<String, String> {
    kernels::check(&opts)?;
    let leg = if opts.force_portable { " (portable leg)" } else { "" };
    Ok(format!("tiers bitwise-consistent{leg}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgd_bench::cli::USAGE;

    fn run_line(line: &str) -> Result<(), (i32, String)> {
        run(line.split_whitespace().map(str::to_string))
    }

    fn lists_every_experiment(msg: &str) {
        for name in EXPERIMENTS {
            assert!(msg.split_whitespace().any(|w| w == name), "{name} missing from {msg}");
        }
    }

    #[test]
    fn missing_or_unknown_experiment_exits_2_listing_all_15() {
        let (code, msg) = run_line("").unwrap_err();
        assert_eq!(code, 2);
        lists_every_experiment(&msg);

        let (code, msg) = run_line("table4 --scale 0.01").unwrap_err();
        assert_eq!(code, 2);
        assert!(msg.starts_with("unknown experiment 'table4'\n"), "{msg}");
        lists_every_experiment(&msg);
    }

    #[test]
    fn bad_flags_exit_2_on_every_experiment() {
        // Each listed name reaches its arm: the flag, not the name, is refused.
        let (paper, sweeps) = EXPERIMENTS.split_at(9);
        for name in paper {
            let want = Err((2, format!("unknown flag '--bogus'\n{USAGE}")));
            assert_eq!(run_line(&format!("{name} --bogus")), want, "{name}");
        }
        for name in sweeps {
            let (code, msg) = run_line(&format!("{name} --bogus")).unwrap_err();
            assert_eq!(code, 2, "{name}");
            assert!(msg.ends_with("\nextra flags: [--check] [--out PATH]"), "{name}: {msg}");
            let want = Err((2, "--out requires a path".to_string()));
            assert_eq!(run_line(&format!("{name} --out")), want, "{name}");
        }
    }
}
