//! The whole set of runs, and the comparison of two sets.
//!
//! A set runs every workload in child processes (one process per run, so
//! that `peak_rss_mb` is the workload's own): one discarded warm-up, the
//! timed repeats for the end-to-end metrics, then one traced pass for the
//! per-layer metrics. Wall metrics are summarised over the repeats; sim
//! metrics and work counts must be identical across them.

use std::path::Path;
use std::process::{Command, ExitCode};

use crate::json::{self, Value};
use crate::metrics::{self, Better, MetricDef, END_TO_END, END_TO_END_LOCAL, PER_LAYER};
use crate::stats::Summary;
use crate::workloads::NAMES;
use crate::Cli;

/// The parsed output of one child run.
struct ChildRun {
    result: Value,
    /// The `local:` line: end-to-end metrics the contract's line omits.
    local: Value,
    /// The `exact:` line: work counts and digests that must repeat.
    exact: String,
}

fn run_child(workload: &str, cli: &Cli, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if cli.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    for line in stdout.lines().filter(|l| l.starts_with("FAILED: ")) {
        eprintln!("  {workload}: {line}");
    }
    let last = stdout.lines().last().ok_or("no output")?;
    let exact = stdout
        .lines()
        .find_map(|l| l.strip_prefix("exact: "))
        .unwrap_or_default()
        .to_string();
    let local = stdout
        .lines()
        .find_map(|l| l.strip_prefix("local: "))
        .map_or(Ok(Value::Null), json::parse)?;
    Ok(ChildRun {
        result: json::parse(last)?,
        local,
        exact,
    })
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Every end-to-end metric a set carries: the declared ones, then the
/// local ones.
fn end_to_end_defs() -> impl Iterator<Item = &'static MetricDef> {
    END_TO_END
        .iter()
        .chain(END_TO_END_LOCAL.iter().map(|(d, _)| d))
}

/// `v` to five significant digits, for the tables.
fn sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let decimals = (4 - v.abs().log10().floor() as i32).clamp(0, 12) as usize;
    format!("{v:.decimals$}")
}

fn num(v: f64) -> Value {
    Value::Num(v)
}

fn summary_json(unit: &str, exact: bool, s: &Summary) -> Value {
    Value::Obj(vec![
        ("unit".into(), Value::Str(unit.into())),
        ("exact".into(), Value::Bool(exact)),
        ("n".into(), num(s.n as f64)),
        ("min".into(), num(s.min)),
        ("q1".into(), num(s.q1)),
        ("median".into(), num(s.median)),
        ("q3".into(), num(s.q3)),
        ("max".into(), num(s.max)),
    ])
}

/// Runs one workload's share of the set; returns its JSON entry.
fn run_workload(workload: &str, cli: &Cli) -> Result<Value, String> {
    // The smoke tier is one timed run: no warm-up and no traced pass.
    let repeats = if cli.smoke { 1 } else { cli.repeats };
    if !cli.smoke {
        eprintln!("{workload}: warm-up");
        run_child(workload, cli, false)?;
    }
    let mut runs = Vec::new();
    for r in 0..repeats {
        eprintln!("{workload}: timed run {}/{repeats}", r + 1);
        runs.push(run_child(workload, cli, false)?);
    }
    let traced = if cli.smoke {
        None
    } else {
        eprintln!("{workload}: traced pass");
        Some(run_child(workload, cli, true)?)
    };

    let mut attempted = 0.0;
    let mut failed = 0.0;
    for run in runs.iter().chain(&traced) {
        attempted += run
            .result
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        failed += run
            .result
            .get("failed")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
    }

    println!("\n== {workload} ==");
    let mut e2e = Vec::new();
    for d in end_to_end_defs() {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| {
                metric_value(&r.result, d.name)
                    .or_else(|| r.local.get(d.name)?.get("value")?.as_f64())
            })
            .collect();
        let s = Summary::of(&values).ok_or_else(|| format!("{workload}: no {}", d.name))?;
        // The determinism self-check: a sim metric that differs between
        // two repeats of the same inputs is a failed op.
        if d.exact() && s.min != s.max {
            attempted += 1.0;
            failed += 1.0;
            println!("FAILED: {} differs between repeats: {values:?}", d.name);
        }
        println!(
            "{:<18} median {:>10} {:<3} q1 {} q3 {} min {} n {}",
            d.name,
            sig(s.median),
            d.unit,
            sig(s.q1),
            sig(s.q3),
            sig(s.min),
            s.n
        );
        e2e.push((d.name.to_string(), summary_json(d.unit, d.exact(), &s)));
    }
    attempted += 1.0;
    if runs.iter().any(|r| r.exact != runs[0].exact) {
        failed += 1.0;
        println!("FAILED: work counts differ between repeats:");
        for r in &runs {
            println!("  {}", r.exact);
        }
    }
    let mut layers = Vec::new();
    for d in PER_LAYER {
        let v = traced
            .as_ref()
            .and_then(|t| metric_value(&t.result, d.name))
            .unwrap_or(0.0);
        if v != 0.0 {
            println!("{:<40} {:>12} {}", d.name, sig(v), d.unit);
        }
        let entry = Value::Obj(vec![
            ("unit".into(), Value::Str(d.unit.into())),
            ("exact".into(), Value::Bool(d.exact())),
            ("value".into(), num(v)),
        ]);
        layers.push((d.name.to_string(), entry));
    }
    println!(
        "fail_frac = {} ({failed} of {attempted} ops and checks)",
        failed / attempted
    );
    Ok(Value::Obj(vec![
        ("attempted".into(), num(attempted)),
        ("failed".into(), num(failed)),
        ("fail_frac".into(), num(failed / attempted)),
        ("exact".into(), Value::Str(runs[0].exact.clone())),
        ("end_to_end".into(), Value::Obj(e2e)),
        ("per_layer".into(), Value::Obj(layers)),
    ]))
}

pub fn run_all(cli: &Cli) -> ExitCode {
    let mut entries = Vec::new();
    let mut failed = false;
    for workload in NAMES {
        match run_workload(workload, cli) {
            Ok(entry) => {
                failed |= entry.get("failed").and_then(Value::as_f64) != Some(0.0);
                entries.push((workload.to_string(), entry));
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let doc = Value::Obj(vec![
        ("seed".into(), num(cli.seed as f64)),
        ("seconds".into(), num(f64::from(cli.seconds))),
        ("repeats".into(), num(cli.repeats as f64)),
        ("smoke".into(), Value::Bool(cli.smoke)),
        ("cores".into(), num(cores as f64)),
        ("workloads".into(), Value::Obj(entries)),
    ]);
    let path = cli.out.clone().map_or_else(
        || {
            crate::out_dir().join(if cli.smoke {
                "results-smoke.json"
            } else {
                "results.json"
            })
        },
        Into::into,
    );
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, doc.to_json() + "\n"));
    if let Err(e) = written {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("\nwrote {}", path.display());
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The regression bound of each end-to-end metric: from `BENCHMARK.json`,
/// then the local ones from the registry.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = load(&path.display().to_string())?;
    let mut bounds = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "BENCHMARK.json: metric without name or bound".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    bounds.extend(
        END_TO_END_LOCAL
            .iter()
            .map(|(d, b)| (d.name.to_string(), *b)),
    );
    Ok(bounds)
}

fn summary_of(entry: &Value) -> Option<Summary> {
    let f = |k| entry.get(k).and_then(Value::as_f64);
    Some(Summary {
        n: f("n")? as usize,
        min: f("min")?,
        q1: f("q1")?,
        median: f("median")?,
        q3: f("q3")?,
        max: f("max")?,
    })
}

/// How one metric moved from A to B.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Identical,
    Differs,
    Unchanged,
    Improved,
    Regressed,
    Unresolved,
}

/// Applies a bound. `worse` is the share of A's median by which B is
/// worse (negative when better); `spread` the wider of the two sets'
/// interquartile ranges as a share of their medians. A spread wider than
/// the bound cannot tell `unchanged` from a regression: unresolved.
pub fn judge(worse: f64, spread: f64, bound: f64) -> Verdict {
    if worse > bound {
        Verdict::Regressed
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Prints one row per workload x end-to-end metric and the exact
/// per-layer counters that differ. Exit code: 0 when the sets agree,
/// 1 on a regression, a difference in an exact metric or a failed op,
/// 3 when the only trouble is unresolved metrics.
pub fn compare(a_path: &str, b_path: &str) -> ExitCode {
    let loaded = load(a_path).and_then(|a| Ok((a, load(b_path)?, bounds()?)));
    let (a, b, bounds) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let same_inputs = ["seed", "seconds", "smoke"]
        .iter()
        .all(|k| a.get(k).is_some() && a.get(k) == b.get(k));
    if !same_inputs {
        println!("note: the sets ran different inputs; exact metrics are held to their bound");
    }
    let (mut bad, mut unresolved) = (0, 0);
    println!(
        "{:<26} {:<18} {:>12} {:>12} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse", "spread", "bound"
    );
    for workload in NAMES {
        let entry = |doc: &Value| doc.get("workloads").and_then(|w| w.get(workload)).cloned();
        let (Some(wa), Some(wb)) = (entry(&a), entry(&b)) else {
            println!("{workload:<26} missing from a set");
            bad += 1;
            continue;
        };
        for (doc, which) in [(&wa, "A"), (&wb, "B")] {
            let failed = doc.get("failed").and_then(Value::as_f64).unwrap_or(1.0);
            if failed != 0.0 {
                println!("{workload:<26} fail_frac > 0 in set {which} ({failed} failed)");
                bad += 1;
            }
        }
        for (name, bound) in &bounds {
            let get = |doc: &Value| doc.get("end_to_end")?.get(name).and_then(summary_of);
            let (Some(sa), Some(sb)) = (get(&wa), get(&wb)) else {
                println!("{workload:<26} {name:<18} missing from a set");
                bad += 1;
                continue;
            };
            let def = metrics::def(name);
            let sign = if def.is_some_and(|d| d.better == Better::Higher) {
                -1.0
            } else {
                1.0
            };
            let worse = sign * (sb.median - sa.median) / sa.median.abs().max(f64::MIN_POSITIVE);
            let spread = sa.spread().max(sb.spread());
            let verdict = if same_inputs && def.is_some_and(|d| d.exact()) {
                if [sa.min, sa.max, sb.min, sb.max]
                    .iter()
                    .all(|&v| v == sa.median)
                {
                    Verdict::Identical
                } else {
                    Verdict::Differs
                }
            } else {
                judge(worse, spread, *bound)
            };
            match verdict {
                Verdict::Differs | Verdict::Regressed => bad += 1,
                Verdict::Unresolved => unresolved += 1,
                _ => {}
            }
            println!(
                "{workload:<26} {name:<18} {:>12} {:>12} {:>+7.1}% {:>6.1}% {:>5.0}%  {}",
                sig(sa.median),
                sig(sb.median),
                worse * 100.0,
                spread * 100.0,
                bound * 100.0,
                format!("{verdict:?}").to_lowercase()
            );
        }
        if same_inputs {
            if wa.get("exact") != wb.get("exact") {
                println!("{workload:<26} work counts of the timed runs differ");
                bad += 1;
            }
            let layers = |doc: &Value| {
                doc.get("per_layer")
                    .and_then(Value::as_obj)
                    .map(<[_]>::to_vec)
            };
            for (name, ea) in layers(&wa).unwrap_or_default() {
                let exact = ea.get("exact").and_then(Value::as_bool) == Some(true);
                let vb = wb.get("per_layer").and_then(|l| l.get(&name));
                if exact && vb.and_then(|e| e.get("value")) != ea.get("value") {
                    println!("{workload:<26} {name}: exact per-layer metric differs");
                    bad += 1;
                }
            }
        }
    }
    println!("\n{bad} regressed, differing or failed; {unresolved} unresolved");
    match (bad, unresolved) {
        (0, 0) => ExitCode::SUCCESS,
        (0, _) => ExitCode::from(3),
        _ => ExitCode::FAILURE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_print_five_significant_digits() {
        assert_eq!(sig(0.000162536), "0.00016254");
        assert_eq!(sig(14.7404805), "14.740");
        assert_eq!(sig(13143160.0), "13143160");
        assert_eq!(sig(0.0), "0");
    }

    #[test]
    fn a_wide_spread_is_unresolved_not_unchanged() {
        assert_eq!(judge(0.02, 0.03, 0.10), Verdict::Unchanged);
        assert_eq!(judge(0.02, 0.15, 0.10), Verdict::Unresolved);
        assert_eq!(judge(-0.20, 0.03, 0.10), Verdict::Improved);
        // A regression past the bound is one whatever the spread.
        assert_eq!(judge(0.12, 0.30, 0.10), Verdict::Regressed);
        // An apparent gain inside a wide spread is not claimed either.
        assert_eq!(judge(-0.20, 0.15, 0.10), Verdict::Unresolved);
    }
}
