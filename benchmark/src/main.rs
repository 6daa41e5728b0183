//! The repo benchmark. See `README.md` beside this crate for the metric
//! glossary, the workloads and how the pieces are meant to be read.
//!
//! Three ways in (all through `run.sh`, which builds first):
//!
//! - `--workload W --seed N --seconds S --trace 0|1` runs one workload in
//!   this process and prints its metrics by name, then one JSON object as
//!   the last line. `--trace 0` gives the end-to-end metrics, `--trace 1`
//!   the per-layer metrics and a span file under `out/`.
//! - no `--workload` runs the whole set: per workload one discarded
//!   warm-up, `--repeats` timed runs and one traced pass, each in a child
//!   process, summarised into `out/results.json` (or `--out FILE`).
//!   `--smoke` is the CI-sized set.
//! - `--compare A.json B.json` holds two result sets against the bounds
//!   in `BENCHMARK.json`.

mod inputs;
mod json;
mod metrics;
mod probes;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::process::ExitCode;

use json::Value;
use metrics::{MetricDef, END_TO_END, END_TO_END_LOCAL, PER_LAYER};
use workloads::{Args, Outcome};

const USAGE: &str = "usage:
  run.sh --workload NAME --seed N --seconds S --trace 0|1
  run.sh [--seed N] [--seconds S] [--repeats K] [--smoke] [--out FILE]
  run.sh --compare A.json B.json";

/// Flags of every mode, parsed once.
#[derive(Debug)]
pub struct Cli {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u32,
    pub trace: bool,
    pub repeats: usize,
    pub smoke: bool,
    pub out: Option<String>,
    pub compare: Option<(String, String)>,
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1991,
        seconds: 10,
        trace: false,
        repeats: 3,
        smoke: false,
        out: None,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds: a whole number from 1 to 60")?
            }
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: 0 or 1, not {other}")),
                }
            }
            "--repeats" => {
                cli.repeats = value("a number")?
                    .parse()
                    .ok()
                    .filter(|&r| r >= 1)
                    .ok_or("--repeats: a whole number, at least 1")?
            }
            "--smoke" => cli.smoke = true,
            "--out" => cli.out = Some(value("a file")?),
            "--compare" => cli.compare = Some((value("two files")?, value("two files")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &cli.compare {
        return suite::compare(a, b);
    }
    match &cli.workload {
        Some(name) => run_one(name, &cli),
        None => suite::run_all(&cli),
    }
}

/// Runs one workload in this process and prints its result.
fn run_one(name: &str, cli: &Cli) -> ExitCode {
    let args = Args {
        seed: cli.seed,
        seconds: cli.seconds,
        traced: cli.trace,
        smoke: cli.smoke,
    };
    let Some(outcome) = workloads::run(name, args) else {
        eprintln!("no workload {name}; one of {:?}", workloads::NAMES);
        return ExitCode::from(2);
    };
    let defs = if cli.trace { PER_LAYER } else { END_TO_END };
    println!(
        "# {name} seed={} seconds={} trace={} smoke={}",
        cli.seed,
        cli.seconds,
        u8::from(cli.trace),
        cli.smoke
    );
    for d in defs {
        print_metric(d, &outcome);
    }
    // The local end-to-end metrics ride with the end-to-end pass.
    let local: Vec<MetricDef> = END_TO_END_LOCAL
        .iter()
        .filter(|_| !cli.trace)
        .map(|(d, _)| *d)
        .collect();
    for d in &local {
        print_metric(d, &outcome);
    }
    for f in &outcome.checks.failures {
        println!("FAILED: {f}");
    }
    if cli.trace {
        match write_spans(name, &outcome) {
            Ok(path) => println!("# {} spans -> {path}", outcome.spans.len()),
            Err(e) => {
                eprintln!("cannot write span file: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("exact: {}", outcome.exact);
    println!("local: {}", metrics_json(&local, &outcome).to_json());
    println!("{}", result_line(defs, &outcome).to_json());
    ExitCode::SUCCESS
}

fn print_metric(d: &MetricDef, outcome: &Outcome) {
    match outcome.metrics.get(d.name) {
        Some(v) => {
            let note = outcome
                .metrics
                .note(d.name)
                .map_or(String::new(), |n| format!("  ({n})"));
            println!("{} = {v} {}{note}", d.name, d.unit);
        }
        None => println!("{} = 0 {}  (not measured by this workload)", d.name, d.unit),
    }
}

/// The contract's result object: `correct`, `attempted`, `failed` and
/// every metric of the pass, each with value and unit.
fn result_line(defs: &[MetricDef], outcome: &Outcome) -> Value {
    let metrics = metrics_json(defs, outcome);
    let failed = outcome.checks.failures.len() as u64;
    Value::Obj(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        (
            "attempted".into(),
            Value::Num(outcome.checks.attempted.max(1) as f64),
        ),
        ("failed".into(), Value::Num(failed as f64)),
        ("metrics".into(), metrics),
    ])
}

/// `{name: {value, unit}}` for `defs`; a metric the workload does not
/// measure reads 0.
fn metrics_json(defs: &[MetricDef], outcome: &Outcome) -> Value {
    let metrics = defs
        .iter()
        .map(|d| {
            let v = outcome.metrics.get(d.name).unwrap_or(0.0);
            let entry = Value::Obj(vec![
                ("value".into(), Value::Num(v)),
                ("unit".into(), Value::Str(d.unit.into())),
            ]);
            (d.name.to_string(), entry)
        })
        .collect();
    Value::Obj(metrics)
}

/// Where the benchmark writes: `out/` beside this crate's manifest.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_spans(name: &str, outcome: &Outcome) -> std::io::Result<String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.spans.json"));
    std::fs::write(&path, outcome.spans.to_chrome_trace(name))?;
    Ok(path.display().to_string())
}
