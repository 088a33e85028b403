//! Shared experiment configuration and a dependency-free CLI parser.

use sgd_core::{Configuration, DeviceKind, Strategy, Timing, TimingMode};

/// Configuration shared by every paper experiment and most sweeps.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Fraction of each dataset's published example count to generate.
    pub scale: f64,
    /// CPU threads for the parallel configurations (the paper's machine
    /// has 56).
    pub threads: usize,
    /// Cap on epochs per run.
    pub max_epochs: usize,
    /// Cap on optimization seconds per run (`∞` rows beyond it).
    pub max_secs: f64,
    /// Step-size grid; defaults to the paper's full `1e-6..1e2` grid so
    /// the reference optimum (computed over the same grid) is always
    /// reachable by the best run.
    pub grid: Vec<f64>,
    /// Epochs of full-batch GD used to estimate the reference optimum.
    pub optimum_epochs: usize,
    /// Restrict to these dataset names (empty = all five).
    pub datasets: Vec<String>,
    /// RNG seed.
    pub seed: u64,
    /// CPU timing source.
    pub timing: TimingMode,
    /// Epoch-budget multiplier for the MLP cells: the fully-connected nets
    /// need an order of magnitude more epochs than the linear tasks.
    pub mlp_epoch_boost: usize,
    /// Thread count for the *modeled* parallel-CPU configuration (the
    /// paper's machine has 56).
    pub model_threads: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            scale: 0.02,
            threads: sgd_core::RunOptions::default().threads,
            max_epochs: 300,
            max_secs: 10.0,
            grid: sgd_core::step_size_grid(),
            optimum_epochs: 150,
            datasets: vec![],
            seed: 42,
            timing: TimingMode::Model,
            model_threads: 56,
            mlp_epoch_boost: 5,
        }
    }
}

impl ExperimentConfig {
    /// A tiny configuration for smoke tests.
    pub fn smoke() -> Self {
        ExperimentConfig {
            scale: 0.001,
            threads: 2,
            max_epochs: 20,
            max_secs: 2.0,
            grid: vec![1.0],
            optimum_epochs: 20,
            datasets: vec!["w8a".into()],
            seed: 42,
            timing: TimingMode::Model,
            model_threads: 56,
            mlp_epoch_boost: 5,
        }
    }

    /// Modeled-CPU configuration for the sequential column (fixed costs
    /// and data-tier cache capacities scaled with the dataset scale).
    pub fn mc_seq(&self) -> sgd_core::CpuModelConfig {
        let mut mc = sgd_core::CpuModelConfig::paper_machine(1);
        mc.spec = mc.spec.scaled(self.scale);
        mc
    }

    /// Modeled-CPU configuration for the parallel column.
    pub fn mc_par(&self) -> sgd_core::CpuModelConfig {
        let mut mc = sgd_core::CpuModelConfig::paper_machine(self.model_threads);
        mc.spec = mc.spec.scaled(self.scale);
        mc
    }

    /// GPU asynchronous options with host-dispatch overhead scaled like
    /// the other fixed costs.
    pub fn gpu_async_opts(&self) -> sgd_core::GpuAsyncOptions {
        let mut g = sgd_core::GpuAsyncOptions::default();
        g.host_sync_overhead_secs *= self.scale;
        g
    }

    /// The engine [`Configuration`] for one cube corner under this
    /// experiment's timing mode: CPU corners follow `--timing` (modeled
    /// time describes `--model-threads` workers for `cpu-par`), the GPU is
    /// always simulated in wall terms.
    pub fn configuration(&self, device: DeviceKind, strategy: Strategy) -> Configuration {
        let timing = match device {
            DeviceKind::Gpu => Timing::Wall,
            DeviceKind::CpuSeq => self.timing.timing(|| self.mc_seq()),
            DeviceKind::CpuPar => self.timing.timing(|| self.mc_par()),
        };
        Configuration::new(device, strategy)
            .with_timing(timing)
            .with_gpu_async(self.gpu_async_opts())
    }

    /// Parses `--key value` style arguments; [`USAGE`] lists every flag.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut cfg = ExperimentConfig::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value =
                |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
            match flag.as_str() {
                "--scale" => cfg.scale = parse(&value("--scale")?)?,
                "--threads" => cfg.threads = parse(&value("--threads")?)?,
                "--max-epochs" => cfg.max_epochs = parse(&value("--max-epochs")?)?,
                "--max-secs" => cfg.max_secs = parse(&value("--max-secs")?)?,
                "--optimum-epochs" => cfg.optimum_epochs = parse(&value("--optimum-epochs")?)?,
                "--seed" => cfg.seed = parse(&value("--seed")?)?,
                "--model-threads" => cfg.model_threads = parse(&value("--model-threads")?)?,
                "--mlp-epoch-boost" => cfg.mlp_epoch_boost = parse(&value("--mlp-epoch-boost")?)?,
                "--timing" => {
                    cfg.timing = match value("--timing")?.as_str() {
                        "model" => TimingMode::Model,
                        "wall" => TimingMode::Wall,
                        other => return Err(format!("unknown timing mode '{other}' (model|wall)")),
                    }
                }
                "--full-grid" => cfg.grid = sgd_core::step_size_grid(),
                "--datasets" => {
                    cfg.datasets = value("--datasets")?.split(',').map(str::to_string).collect()
                }
                "--help" | "-h" => return Err(USAGE.to_string()),
                other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
            }
        }
        // Written so that NaN fails it too.
        if !(cfg.scale > 0.0 && cfg.scale <= 1.0) {
            return Err("--scale must be in (0, 1]".into());
        }
        let known: Vec<&str> = sgd_datagen::all_profiles().iter().map(|p| p.name).collect();
        for d in &cfg.datasets {
            if !known.contains(&d.as_str()) {
                return Err(format!("unknown dataset '{d}' (known: {})", known.join(", ")));
            }
        }
        Ok(cfg)
    }

    /// Base `RunOptions` derived from this configuration.
    pub fn run_options(&self) -> sgd_core::RunOptions {
        sgd_core::RunOptions {
            max_epochs: self.max_epochs,
            max_secs: self.max_secs,
            target_loss: None,
            threads: self.threads,
            seed: self.seed,
            gpu_spec: Some(sgd_gpusim::DeviceSpec::tesla_k80().scaled(self.scale)),
            plateau: Some((50, 1e-4)),
            faults: sgd_core::FaultPlan::default(),
            tier: sgd_linalg::KernelTier::Scalar,
        }
    }

    /// `true` when `name` is selected by `--datasets` (or no filter set).
    pub fn wants(&self, name: &str) -> bool {
        self.datasets.is_empty() || self.datasets.iter().any(|d| d == name)
    }
}

/// The flags [`ExperimentConfig::from_args`] accepts; `--help` prints it.
pub const USAGE: &str = "usage: <experiment> [--scale f] [--threads n] [--max-epochs n] \
[--max-secs f] [--optimum-epochs n] [--full-grid] [--datasets a,b,c] [--seed n] \
[--timing model|wall] [--model-threads n] [--mlp-epoch-boost n]";

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("cannot parse '{s}': {e}"))
}

/// The shared body of the sweeps (`kernels`, `pool`, `ps`, `router`,
/// `serve`, `soak`): `--check` runs the CI smoke and prints `<name>
/// --check: <its success line>`, anything else runs the sweep, prints its
/// table and writes its JSON to `--out PATH` (default `default_out`).
/// Every other argument goes to `parse`. `Err` carries the exit code (2
/// on a bad flag, 1 on a failed check or write) and the stderr line.
pub fn run_sweep<C>(
    args: impl IntoIterator<Item = String>,
    name: &str,
    default_out: &str,
    parse: impl FnOnce(Vec<String>) -> Result<C, String>,
    check: impl FnOnce(C) -> Result<String, String>,
    sweep: impl FnOnce(C) -> (String, String),
) -> Result<(), (i32, String)> {
    let mut do_check = false;
    let mut out_path = default_out.to_string();
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => do_check = true,
            "--out" => out_path = it.next().ok_or((2, "--out requires a path".to_string()))?,
            _ => rest.push(arg),
        }
    }
    let cfg =
        parse(rest).map_err(|msg| (2, format!("{msg}\nextra flags: [--check] [--out PATH]")))?;

    if do_check {
        let line = check(cfg).map_err(|msg| (1, format!("{name} --check failed: {msg}")))?;
        println!("{name} --check: {line}");
        return Ok(());
    }
    let (table, json) = sweep(cfg);
    print!("{table}");
    std::fs::write(&out_path, json).map_err(|e| (1, format!("cannot write {out_path}: {e}")))?;
    println!("wrote {out_path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn defaults_when_no_args() {
        let cfg = ExperimentConfig::from_args(args("")).expect("empty args valid");
        assert!(cfg.scale > 0.0);
        assert!(cfg.wants("covtype"));
    }

    #[test]
    fn parses_flags() {
        let cfg = ExperimentConfig::from_args(args(
            "--scale 0.1 --threads 4 --max-epochs 7 --datasets w8a,news --seed 9",
        ))
        .expect("valid flags");
        assert!((cfg.scale - 0.1).abs() < 1e-12);
        assert_eq!(cfg.threads, 4);
        assert_eq!(cfg.max_epochs, 7);
        assert!(cfg.wants("w8a"));
        assert!(cfg.wants("news"));
        assert!(!cfg.wants("covtype"));
        assert_eq!(cfg.seed, 9);

        // Every accepted flag is named in USAGE.
        for line in [
            "--scale 0.5",
            "--threads 2",
            "--max-epochs 3",
            "--max-secs 1",
            "--optimum-epochs 4",
            "--full-grid",
            "--datasets w8a",
            "--seed 1",
            "--timing wall",
            "--model-threads 8",
            "--mlp-epoch-boost 2",
        ] {
            assert!(ExperimentConfig::from_args(args(line)).is_ok(), "{line}");
            let flag = line.split_whitespace().next().expect("non-empty");
            assert!(USAGE.contains(&format!("[{flag}")), "USAGE lacks {flag}");
        }
    }

    #[test]
    fn full_grid_restores_nine_points() {
        let cfg = ExperimentConfig::from_args(args("--full-grid")).expect("valid");
        assert_eq!(cfg.grid.len(), 9);
    }

    #[test]
    fn timing_mode_parses() {
        let cfg = ExperimentConfig::from_args(args("--timing wall")).expect("valid");
        assert_eq!(cfg.timing, TimingMode::Wall);
        let cfg =
            ExperimentConfig::from_args(args("--timing model --model-threads 8")).expect("valid");
        assert_eq!(cfg.timing, TimingMode::Model);
        assert_eq!(cfg.model_threads, 8);
        assert!(ExperimentConfig::from_args(args("--timing bogus")).is_err());
    }

    #[test]
    fn configuration_maps_devices_to_timing() {
        let cfg = ExperimentConfig::smoke(); // timing: Model
        let c = cfg.configuration(DeviceKind::CpuPar, Strategy::Sync);
        assert!(matches!(c.timing, Timing::Modeled(ref mc) if mc.threads == cfg.model_threads));
        let c = cfg.configuration(DeviceKind::CpuSeq, Strategy::Sync);
        assert!(matches!(c.timing, Timing::Modeled(ref mc) if mc.threads == 1));
        // The GPU is always simulated; modeled CPU timing never applies.
        let c = cfg.configuration(DeviceKind::Gpu, Strategy::Sync);
        assert!(matches!(c.timing, Timing::Wall));
        let mut wall = cfg;
        wall.timing = TimingMode::Wall;
        let c = wall.configuration(DeviceKind::CpuPar, Strategy::Sync);
        assert!(matches!(c.timing, Timing::Wall));
    }

    #[test]
    fn sweep_main_exit_codes_and_outputs() {
        let parse = |rest: Vec<String>| match rest.as_slice() {
            [] => Ok(()),
            other => Err(format!("unknown flag {other:?}")),
        };
        let run = |line: &str, check_ok: bool| {
            run_sweep(
                args(line),
                "demo",
                "/nonexistent-dir/BENCH_demo.json",
                parse,
                |()| if check_ok { Ok("fine".to_string()) } else { Err("broke".to_string()) },
                |()| ("table\n".to_string(), "{}\n".to_string()),
            )
        };
        assert_eq!(run("--check", true), Ok(()));
        assert_eq!(run("--check", false), Err((1, "demo --check failed: broke".into())));
        assert_eq!(run("--out", true), Err((2, "--out requires a path".into())));
        let (code, msg) = run("--bogus", true).unwrap_err();
        assert_eq!(code, 2);
        assert!(msg.ends_with("\nextra flags: [--check] [--out PATH]"), "{msg}");
        // The default path is unwritable here: exit 1, after the table.
        let (code, msg) = run("", true).unwrap_err();
        assert_eq!(code, 1);
        assert!(msg.starts_with("cannot write /nonexistent-dir/BENCH_demo.json"), "{msg}");

        let out = std::env::temp_dir().join(format!("sweep_main_{}.json", std::process::id()));
        let line = format!("--out {}", out.display());
        assert_eq!(run(&line, true), Ok(()));
        assert_eq!(std::fs::read_to_string(&out).expect("sweep wrote its JSON"), "{}\n");
        std::fs::remove_file(&out).expect("temp file removable");
    }

    #[test]
    fn rejects_unknown_flag_and_bad_scale() {
        assert!(ExperimentConfig::from_args(args("--bogus 1")).is_err());
        assert!(ExperimentConfig::from_args(args("--scale 0")).is_err());
        let err = ExperimentConfig::from_args(args("--scale NaN")).unwrap_err();
        assert_eq!(err, "--scale must be in (0, 1]");
        assert!(ExperimentConfig::from_args(args("--scale x")).is_err());
        assert!(ExperimentConfig::from_args(args("--threads")).is_err());
        let err = ExperimentConfig::from_args(args("--datasets w8a,nosuch")).unwrap_err();
        assert!(err.contains("unknown dataset 'nosuch'"), "{err}");
    }
}
