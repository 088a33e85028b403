//! `sgd-e2e`: a wall-clock, layer-attributed benchmark of the three real
//! paths of this repository — `Engine` training, the `serve::wire` server
//! over loopback TCP, and `run_dist_wire` over loopback TCP.
//!
//! ```text
//! sgd-e2e run --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! sgd-e2e all [--seed N] [--seconds S] [--trace [0|1]] [--repeats R] [--out FILE] [--smoke]
//! sgd-e2e compare <a.json> <b.json> [--bounds BENCHMARK.json]
//! ```
//!
//! `run` builds the workload's inputs from the seed, drives only public
//! functions of the crates, checks every output, prints every metric by
//! name with its unit, and ends with one JSON object (`correct`,
//! `attempted`, `failed`, `metrics`): the end-to-end metrics with tracing
//! off, the per-layer metrics with it on. See `README.md` beside this
//! package for the vocabulary.

mod compare;
mod host;
mod inputs;
mod json;
mod measure;
mod ps;
mod report;
mod runs;
mod serve;
mod stats;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use measure::Ctx;
use report::{Outcome, WORKLOADS};
use trace::Tracer;

/// Length of the measured window (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 12.0;
/// Window of a `--smoke` run: long enough for every workload to complete
/// operations and have them checked, short enough for CI.
const SMOKE_SECONDS: f64 = 2.0;

const USAGE: &str = "usage:
  sgd-e2e run --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
  sgd-e2e all [--seed N] [--seconds S] [--trace [0|1]] [--repeats R] [--out FILE] [--smoke]
  sgd-e2e compare <a.json> <b.json> [--bounds BENCHMARK.json]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeats: usize,
    out: Option<PathBuf>,
    bounds: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        repeats: 1,
        out: None,
        bounds: None,
        positional: Vec::new(),
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--workload" => a.workload = Some(value(&mut i, flag)?),
            "--seed" => {
                a.seed = value(&mut i, flag)?.parse().map_err(|_| "bad --seed".to_string())?
            }
            "--seconds" => {
                let s: f64 =
                    value(&mut i, flag)?.parse().map_err(|_| "bad --seconds".to_string())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                a.seconds = Some(s);
            }
            "--repeats" => {
                a.repeats =
                    value(&mut i, flag)?.parse().map_err(|_| "bad --repeats".to_string())?;
                if a.repeats == 0 {
                    return Err("--repeats must be at least 1".to_string());
                }
            }
            "--out" => a.out = Some(PathBuf::from(value(&mut i, flag)?)),
            "--bounds" => a.bounds = Some(PathBuf::from(value(&mut i, flag)?)),
            "--smoke" => a.smoke = true,
            // `--trace` alone switches tracing on; `--trace 0|1` is how
            // the benchmark driver spells it.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    a.trace = false;
                    i += 1;
                }
                Some("1") => {
                    a.trace = true;
                    i += 1;
                }
                _ => a.trace = true,
            },
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => a.positional.push(other.to_string()),
        }
        i += 1;
    }
    Ok(a)
}

fn run_workload(name: &str, ctx: &Ctx<'_>) -> Option<Outcome> {
    Some(match name {
        "train_dense_sync" => train::run(&train::DENSE_SYNC, ctx),
        "train_sparse_hogwild" => train::run(&train::SPARSE_HOGWILD, ctx),
        "serve_narrow" => serve::run(&serve::NARROW, ctx),
        "serve_wide_swap" => serve::run(&serve::WIDE_SWAP, ctx),
        "ps_narrow_sync" => ps::run(&ps::NARROW_SYNC, ctx),
        "ps_wide_async" => ps::run(&ps::WIDE_ASYNC, ctx),
        _ => return None,
    })
}

/// One finished run, with everything the printers and writers need.
struct Finished {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    outcome: Outcome,
}

impl Finished {
    fn header(&self) -> Vec<(String, Json)> {
        let mut h = vec![
            ("workload".to_string(), Json::str(&self.workload)),
            ("seed".to_string(), Json::Num(self.seed as f64)),
            ("window_seconds".to_string(), Json::Num(self.seconds)),
            ("traced".to_string(), Json::Bool(self.traced)),
        ];
        h.extend(host::header_fields());
        h.extend(self.outcome.header.iter().cloned());
        h
    }

    /// The full record of the run, as written to `benchmark/out/`.
    fn record(&self) -> Json {
        let checks = self.outcome.checks.iter().map(|c| {
            Json::obj([
                ("name", Json::str(c.name)),
                ("ok", Json::Bool(c.ok)),
                ("advisory", Json::Bool(c.advisory)),
                ("detail", Json::str(&c.detail)),
            ])
        });
        Json::obj([
            ("header", Json::Obj(self.header())),
            ("checks", Json::Arr(checks.collect())),
            ("result", self.outcome.result_json(self.traced)),
        ])
    }

    fn print(&self) {
        println!(
            "# {} seed={} window={}s traced={}",
            self.workload, self.seed, self.seconds, self.traced
        );
        if let Some(w) = WORKLOADS.iter().find(|w| w.name == self.workload) {
            println!("# why: {}", w.why);
        }
        for (k, v) in self.header().iter().skip(4) {
            println!("header  {k} = {}", v.encode());
        }
        for c in &self.outcome.checks {
            let verdict = match (c.ok, c.advisory) {
                (true, _) => "ok    ",
                (false, true) => "WARN  ",
                (false, false) => "FAILED",
            };
            println!("check   {verdict} {} — {}", c.name, c.detail);
        }
        println!("ops     attempted={} failed={}", self.outcome.attempted, self.outcome.failed);
        for (def, value) in self.outcome.reported(self.traced) {
            let better = if def.higher_is_better { "higher" } else { "lower" };
            println!(
                "metric  {:<40} {:>18.6} {:<8} ({better} is better)",
                def.name, value, def.unit
            );
        }
    }
}

/// Runs one workload once and writes its record (and spans) under
/// `benchmark/out/` unless `smoke`.
fn execute(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<Finished, String> {
    let tracer = Tracer::new(traced);
    let ctx = Ctx { seed, seconds, tracer: &tracer };
    let mut outcome =
        run_workload(name, &ctx).ok_or_else(|| format!("unknown workload '{name}'\n{USAGE}"))?;
    let (spans, dropped) = tracer.snapshot();
    if traced {
        outcome.set("trace.spans", spans.len() as f64);
        outcome.note("trace_spans_dropped", Json::Num(dropped as f64));
        if let Some(&overhead) = outcome.metrics.get("trace.overhead_frac") {
            // Advisory: the two legs are short, and their medians differ
            // by a few percent either way from noise alone.
            outcome.advise(
                "tracing overhead stays under 5 %",
                overhead < 0.05,
                format!("{:.2} % of the workload's median operation time", overhead * 100.0),
            );
        }
    } else {
        outcome.set(
            "peak_rss_mb",
            host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?,
        );
    }
    let finished = Finished { workload: name.to_string(), seed, seconds, traced, outcome };
    if !smoke {
        let dir = host::package_dir().join("out");
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let stem = format!("{name}-seed{seed}{}", if traced { "-trace" } else { "" });
        let write = |file: String, doc: Json| {
            let path = dir.join(file);
            std::fs::write(&path, doc.encode() + "\n")
                .map_err(|e| format!("write {}: {e}", path.display()))
        };
        write(format!("{stem}.json"), finished.record())?;
        if traced {
            write(format!("{stem}-spans.json"), trace::to_json(&spans, dropped))?;
        }
    }
    Ok(finished)
}

fn cmd_run(a: &Args) -> Result<ExitCode, String> {
    let name = a.workload.as_deref().ok_or_else(|| format!("run needs --workload\n{USAGE}"))?;
    let seconds = a.seconds.unwrap_or(if a.smoke { SMOKE_SECONDS } else { DEFAULT_SECONDS });
    let finished = execute(name, a.seed, seconds, a.trace, a.smoke)?;
    finished.print();
    // The contract's last line.
    println!("{}", finished.outcome.result_json(a.trace).encode());
    Ok(if a.smoke && !finished.outcome.correct() { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

/// Runs `run` for one workload in a process of its own — what the
/// benchmark driver does, and the only way `peak_rss_mb` is one
/// workload's and not the largest so far — echoes its output, and
/// returns its result object.
fn run_in_child(name: &str, seed: u64, seconds: f64, a: &Args) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate this executable: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["run", "--workload", name, "--seed", &seed.to_string()]);
    cmd.args(["--seconds", &seconds.to_string(), "--trace", if a.trace { "1" } else { "0" }]);
    if a.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("start the run of {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, result) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", stdout.trim_end()));
    println!("{report}\n");
    Json::parse(result).map_err(|e| format!("{name} (exit {}): no result line: {e}", output.status))
}

fn cmd_all(a: &Args) -> Result<ExitCode, String> {
    let seconds = a.seconds.unwrap_or(if a.smoke { SMOKE_SECONDS } else { DEFAULT_SECONDS });
    let mut entries = Vec::new();
    let mut all_correct = true;
    let mut values: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    for repeat in 0..a.repeats {
        for w in WORKLOADS {
            let seed = a.seed + repeat as u64;
            let result = run_in_child(w.name, seed, seconds, a)?;
            all_correct &= result.get("correct") == Some(&Json::Bool(true));
            let metrics: Vec<(String, Json)> = result
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or("result without metrics")?
                .iter()
                .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.clone())))
                .collect();
            for (name, value) in &metrics {
                values.entry((w.name, name.clone())).or_default().extend(value.as_f64());
            }
            let mut entry = vec![
                ("workload".to_string(), Json::str(w.name)),
                ("seed".to_string(), Json::Num(seed as f64)),
                ("traced".to_string(), Json::Bool(a.trace)),
            ];
            entry.extend(
                ["correct", "attempted", "failed"]
                    .iter()
                    .filter_map(|&k| Some((k.to_string(), result.get(k)?.clone()))),
            );
            entry.push(("metrics".to_string(), Json::Obj(metrics)));
            entries.push(Json::Obj(entry));
        }
    }
    let mut spreads = Vec::new();
    if a.repeats > 1 {
        println!(
            "# run-to-run spread over {} repeats (interquartile distance / median)",
            a.repeats
        );
        for ((workload, metric), v) in &values {
            let s = stats::spread(v);
            println!(
                "spread  {workload:<22} {metric:<40} median {:>16.6}  spread {:>6.2} %",
                stats::median(v),
                s * 100.0
            );
            spreads.push((format!("{workload}.{metric}"), Json::Num(s)));
        }
    }
    println!("# all output checks {}", if all_correct { "passed" } else { "FAILED" });
    if let Some(path) = &a.out {
        let mut header = host::header_fields();
        header.push(("seed".to_string(), Json::Num(a.seed as f64)));
        header.push(("window_seconds".to_string(), Json::Num(seconds)));
        header.push(("repeats".to_string(), Json::Num(a.repeats as f64)));
        header.push(("spread".to_string(), Json::Obj(spreads)));
        let set = Json::obj([("header", Json::Obj(header)), ("runs", Json::Arr(entries))]);
        std::fs::write(path, set.encode() + "\n")
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("# wrote {}", path.display());
    }
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn read_json(path: &std::path::Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_compare(a: &Args) -> Result<ExitCode, String> {
    let [first, second] = a.positional.as_slice() else {
        return Err(format!("compare needs two result sets\n{USAGE}"));
    };
    let bounds_path =
        a.bounds.clone().unwrap_or_else(|| host::package_dir().join("..").join("BENCHMARK.json"));
    let bounds = compare::bounds_from(&read_json(&bounds_path)?)?;
    let sa = compare::samples_from(&read_json(first.as_ref())?)?;
    let sb = compare::samples_from(&read_json(second.as_ref())?)?;
    let rows = compare::compare(&sa, &sb, &bounds);
    print!("{}", compare::render(&rows));
    let failing = rows.iter().filter(|r| r.status.fails()).count();
    let unresolved = rows.iter().filter(|r| r.status == compare::Status::Unresolved).count();
    println!("# {} rows, {failing} failing, {unresolved} unresolved", rows.len());
    Ok(if failing > 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = parse_args(rest).and_then(|a| match command.as_str() {
        "run" => cmd_run(&a),
        "all" => cmd_all(&a),
        "compare" => cmd_compare(&a),
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("sgd-e2e: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Result<Args, String> {
        parse_args(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_spelling_and_the_short_one_both_parse() {
        let a =
            args(&["--workload", "serve_narrow", "--seed", "7", "--seconds", "12", "--trace", "0"])
                .expect("driver form");
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("serve_narrow"), 7, Some(12.0), false)
        );
        assert!(args(&["--workload", "x", "--trace", "1"]).expect("on").trace);
        assert!(args(&["--trace", "--workload", "x"]).expect("bare flag").trace);
        assert!(args(&["--trace"]).expect("trailing bare flag").trace);
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
        assert_eq!(args(&["a.json", "b.json"]).expect("positional").positional.len(), 2);
    }

    #[test]
    fn the_default_window_is_benchmark_jsons_run_seconds() {
        let path = host::package_dir().join("..").join("BENCHMARK.json");
        let doc = read_json(&path).expect("BENCHMARK.json at the repository root");
        assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(DEFAULT_SECONDS));
        let command: Vec<&str> = doc
            .get("command")
            .and_then(Json::as_arr)
            .expect("command")
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(command.last(), Some(&"run"), "the driver appends --workload ... to `run`");
    }
}
