//! `compare a.json b.json`: the regression gate. Both files are result
//! sets written by `all --out`; for every workload x end-to-end metric the
//! second set's median may be worse than the first's by at most the bound
//! `BENCHMARK.json` fixes for the metric. Where either side's run-to-run
//! spread is wider than the bound the row is `unresolved`, not `ok` —
//! unless every run of the second set reads better than every run of the
//! first, which no amount of spread can explain away. (`setup_s` is held
//! to its median only.)

use std::collections::BTreeMap;

use crate::json::Json;
use crate::stats;

/// One metric's gate, from `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub fn bounds_from(benchmark_json: &Json) -> Result<Vec<Bound>, String> {
    let list = benchmark_json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let better = m.get("better").and_then(Json::as_str).ok_or("metric without better")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?;
            Ok(Bound { name: name.to_string(), higher_is_better: better == "higher", bound })
        })
        .collect()
}

/// `workload -> metric -> one value per run`, from a result set.
pub type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn samples_from(set: &Json) -> Result<Samples, String> {
    let runs = set.get("runs").and_then(Json::as_arr).ok_or("result set has no runs list")?;
    let mut samples = Samples::new();
    for run in runs {
        if run.get("traced") == Some(&Json::Bool(true)) {
            continue;
        }
        let workload =
            run.get("workload").and_then(Json::as_str).ok_or("run without a workload")?;
        let metrics = run.get("metrics").and_then(Json::as_obj).ok_or("run without metrics")?;
        for (name, value) in metrics {
            let v = value.as_f64().ok_or_else(|| format!("{workload}.{name} is not a number"))?;
            samples
                .entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(v);
        }
    }
    Ok(samples)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    Ok,
    Improved,
    Regressed,
    Unresolved,
    Missing,
}

impl Status {
    pub fn label(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Improved => "improved",
            Status::Regressed => "REGRESSED",
            Status::Unresolved => "unresolved",
            Status::Missing => "MISSING",
        }
    }

    /// Whether this row fails the gate.
    pub fn fails(self) -> bool {
        matches!(self, Status::Regressed | Status::Missing)
    }
}

#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a_median: f64,
    pub b_median: f64,
    /// How much worse `b` is than `a`, as a share of `a` (negative:
    /// better).
    pub worse_by: f64,
    pub spread: f64,
    pub bound: f64,
    pub status: Status,
}

fn judge(a: &[f64], b: &[f64], bound: &Bound) -> Row {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse_by = if bound.higher_is_better { (ma - mb) / ma.abs() } else { (mb - ma) / ma.abs() };
    let spread = stats::spread(a).max(stats::spread(b));
    // Set-up is a few repetitions of a short job, so its spread is the
    // one the benchmark's acceptance rule does not gate either: only its
    // median is held to the bound.
    let noisy = spread > bound.bound && bound.name != "setup_s";
    let better = |x: f64, y: f64| if bound.higher_is_better { x > y } else { x < y };
    let b_wins_every_pair = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let a_wins_every_pair = a.iter().all(|&x| b.iter().all(|&y| better(x, y)));
    let status = if worse_by > bound.bound {
        // A regression past the bound is only believed over a noisy
        // metric when the runs do not overlap at all.
        if noisy && !a_wins_every_pair {
            Status::Unresolved
        } else {
            Status::Regressed
        }
    } else if noisy && !b_wins_every_pair {
        Status::Unresolved
    } else if -worse_by > bound.bound && b_wins_every_pair {
        Status::Improved
    } else {
        Status::Ok
    };
    Row {
        workload: String::new(),
        metric: bound.name.clone(),
        a_median: ma,
        b_median: mb,
        worse_by,
        spread,
        bound: bound.bound,
        status,
    }
}

/// One row per workload x metric of `a`; a pairing `b` lacks is
/// `Missing`.
pub fn compare(a: &Samples, b: &Samples, bounds: &[Bound]) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, metrics) in a {
        for bound in bounds {
            let Some(av) = metrics.get(&bound.name) else { continue };
            let row = match b.get(workload).and_then(|m| m.get(&bound.name)) {
                Some(bv) if !bv.is_empty() && !av.is_empty() => judge(av, bv, bound),
                _ => Row {
                    workload: String::new(),
                    metric: bound.name.clone(),
                    a_median: stats::median(av),
                    b_median: f64::NAN,
                    worse_by: f64::NAN,
                    spread: f64::NAN,
                    bound: bound.bound,
                    status: Status::Missing,
                },
            };
            rows.push(Row { workload: workload.clone(), ..row });
        }
    }
    rows
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<22} {:<18} {:>14} {:>14} {:>9} {:>8} {:>7}  {}\n",
        "workload", "metric", "a median", "b median", "worse by", "spread", "bound", "status"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<22} {:<18} {:>14.6} {:>14.6} {:>8.2}% {:>7.2}% {:>6.1}%  {}\n",
            r.workload,
            r.metric,
            r.a_median,
            r.b_median,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.status.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound { name: "op_p50_us".into(), higher_is_better: false, bound }
    }

    fn higher(bound: f64) -> Bound {
        Bound { name: "ops_per_s".into(), higher_is_better: true, bound }
    }

    #[test]
    fn within_the_bound_is_ok_and_past_it_is_a_regression() {
        let a = [100.0, 101.0, 99.0, 100.5, 100.0];
        let same = [101.0, 100.0, 102.0, 100.5, 101.5];
        assert_eq!(judge(&a, &same, &lower(0.05)).status, Status::Ok);
        let slower = [110.0, 111.0, 109.0, 110.5, 110.0];
        let row = judge(&a, &slower, &lower(0.05));
        assert_eq!(row.status, Status::Regressed);
        assert!((row.worse_by - 0.10).abs() < 1e-9);
        // For a higher-is-better metric the same numbers are a gain.
        assert_eq!(judge(&a, &slower, &higher(0.05)).status, Status::Improved);
        assert_eq!(judge(&slower, &a, &higher(0.05)).status, Status::Regressed);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy_a = [80.0, 100.0, 120.0, 90.0, 110.0];
        let noisy_b = [85.0, 105.0, 118.0, 95.0, 100.0];
        let row = judge(&noisy_a, &noisy_b, &lower(0.05));
        assert!(row.spread > 0.05);
        assert_eq!(row.status, Status::Unresolved);
        // A median past the bound over overlapping noisy runs is not
        // believed either way.
        let worse_b = [95.0, 125.0, 140.0, 100.0, 119.0];
        assert_eq!(judge(&noisy_a, &worse_b, &lower(0.05)).status, Status::Unresolved);
        // ... unless every run of one side beats every run of the other.
        let far_better = [50.0, 60.0, 70.0, 55.0, 65.0];
        assert_eq!(judge(&noisy_a, &far_better, &lower(0.05)).status, Status::Improved);
        let far_worse = [150.0, 160.0, 170.0, 155.0, 165.0];
        assert_eq!(judge(&noisy_a, &far_worse, &lower(0.05)).status, Status::Regressed);
    }

    #[test]
    fn set_up_is_held_to_its_median_only() {
        let setup = Bound { name: "setup_s".into(), higher_is_better: false, bound: 0.25 };
        let a = [1.7, 5.4, 2.5, 1.7, 1.7];
        let b = [1.7, 1.8, 1.8, 1.7, 2.1];
        let row = judge(&a, &b, &setup);
        assert!(row.spread > 0.25, "one slow repetition makes the spread huge");
        assert_eq!(row.status, Status::Ok);
        assert_eq!(judge(&b, &[2.6, 2.7, 2.5, 9.0, 2.6], &setup).status, Status::Regressed);
    }

    #[test]
    fn sets_are_read_per_workload_and_a_missing_pairing_fails() {
        let set = |p50: &[f64]| {
            Json::obj([(
                "runs",
                Json::Arr(
                    p50.iter()
                        .map(|&v| {
                            Json::obj([
                                ("workload", Json::str("serve_narrow")),
                                ("traced", Json::Bool(false)),
                                ("metrics", Json::obj([("op_p50_us", Json::Num(v))])),
                            ])
                        })
                        .chain([Json::obj([
                            ("workload", Json::str("serve_narrow")),
                            ("traced", Json::Bool(true)),
                            ("metrics", Json::obj([("op_p50_us", Json::Num(1.0e9))])),
                        ])])
                        .collect(),
                ),
            )])
        };
        let a = samples_from(&set(&[100.0, 101.0, 99.0])).expect("valid set");
        assert_eq!(
            a["serve_narrow"]["op_p50_us"],
            vec![100.0, 101.0, 99.0],
            "traced runs are left out"
        );
        let b = samples_from(&set(&[100.0, 100.0, 102.0])).expect("valid set");
        let rows = compare(&a, &b, &[lower(0.05)]);
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].workload.as_str(), rows[0].status), ("serve_narrow", Status::Ok));
        assert!(render(&rows).contains("serve_narrow"));
        let rows = compare(&a, &Samples::new(), &[lower(0.05)]);
        assert_eq!(rows[0].status, Status::Missing);
        assert!(rows[0].status.fails());
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let doc = Json::parse(
            r#"{"end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.08}]}"#,
        )
        .expect("valid");
        assert_eq!(bounds_from(&doc), Ok(vec![higher(0.08)]));
        assert!(bounds_from(&Json::obj([("x", Json::Null)])).is_err());
    }
}
