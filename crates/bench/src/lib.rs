//! Shared harness utilities for the experiment benches.
//!
//! Every `exp_*` bench target reproduces one quantitative claim from the
//! paper (see DESIGN.md's experiment index and EXPERIMENTS.md for the
//! paper-vs-measured record). Each one pushes typed rows into [`Table`]s
//! and hands them to a [`Report`], which writes them to
//! `BENCH_<experiment>.json` and prints that document.
//! `scripts/check_bench.py` holds every value that is not off a real clock
//! to the committed copy, and `scripts/render_experiments.py` renders
//! EXPERIMENTS.md's tables from the file.

use autonet_net::{NetParams, Network};
use autonet_sim::{SimDuration, SimTime};
use autonet_topo::{LinkId, Topology};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One cell of a [`Table`] row. Everything but [`Value::Wall`] is a pure
/// function of the experiment's seeds and is gated for exact equality.
#[derive(Clone, Debug)]
pub enum Value {
    /// An exact count.
    Count(u64),
    /// Simulated time, written as integer nanoseconds.
    Time(SimDuration),
    /// A deterministic ratio or rate, written (and so compared) to three
    /// decimals.
    Real(f64),
    /// A label.
    Text(String),
    /// A yes/no outcome.
    Bool(bool),
    /// A number read off a real clock (or derived from one), in the unit
    /// its column names: never compared, only checked finite and not negative.
    Wall(f64),
    /// No value on this row (a traced-only column on an untraced row).
    Missing,
}

impl Value {
    /// The tag written next to the column's name; `None` for `Missing`.
    fn kind(&self) -> Option<&'static str> {
        Some(match self {
            Value::Count(_) => "count",
            Value::Time(_) => "ns",
            Value::Real(_) => "real",
            Value::Text(_) => "text",
            Value::Bool(_) => "bool",
            Value::Wall(_) => "wall",
            Value::Missing => return None,
        })
    }

    fn json(&self) -> String {
        match self {
            Value::Count(n) => n.to_string(),
            Value::Time(d) => d.as_nanos().to_string(),
            Value::Real(x) | Value::Wall(x) => number(*x),
            Value::Text(s) => json_string(s),
            Value::Bool(b) => b.to_string(),
            Value::Missing => "null".into(),
        }
    }
}

fn number(x: f64) -> String {
    assert!(x.is_finite(), "a report cell must be finite, got {x}");
    format!("{x:.3}")
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c < ' ' => write!(out, "\\u{:04x}", c as u32).expect("writing to a String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

macro_rules! value_from {
    ($($x:ident: $t:ty => $value:expr),* $(,)?) => {$(
        impl From<$t> for Value {
            fn from($x: $t) -> Value {
                $value
            }
        }
    )*};
}
value_from! {
    x: u64 => Value::Count(x),
    x: u32 => Value::Count(x.into()),
    x: usize => Value::Count(x as u64),
    x: SimDuration => Value::Time(x),
    x: f64 => Value::Real(x),
    x: bool => Value::Bool(x),
    x: &str => Value::Text(x.into()),
    x: String => Value::Text(x),
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(x: Option<T>) -> Value {
        x.map_or(Value::Missing, Into::into)
    }
}

/// One titled table of an experiment's results: it names its columns once
/// and takes typed rows.
pub struct Table {
    title: String,
    /// Name and, once a row has filled it, the kind of each column.
    columns: Vec<(String, Option<&'static str>)>,
    rows: Vec<Vec<Value>>,
}

impl Table {
    /// An empty table. The names become the keys of each JSON row and the
    /// header EXPERIMENTS.md renders, so they must differ.
    pub fn new(title: &str, columns: &[&str]) -> Table {
        for (i, c) in columns.iter().enumerate() {
            assert!(!columns[..i].contains(c), "{title}: column {c:?} twice");
        }
        Table {
            title: title.to_string(),
            columns: columns.iter().map(|c| (c.to_string(), None)).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Panics if it does not have one cell per column, or
    /// puts a second kind of value in a column.
    pub fn row<I: IntoIterator<Item = Value>>(&mut self, cells: I) {
        let cells: Vec<Value> = cells.into_iter().collect();
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "{}: a row of {} cells for {} columns",
            self.title,
            cells.len(),
            self.columns.len(),
        );
        for ((name, kind), cell) in self.columns.iter_mut().zip(&cells) {
            let seen = cell.kind();
            assert!(
                kind.is_none() || seen.is_none() || *kind == seen,
                "{}: column {name:?} holds {kind:?}, got {cell:?}",
                self.title,
            );
            *kind = kind.or(seen);
        }
        self.rows.push(cells);
    }

    fn json(&self) -> String {
        let columns: Vec<String> = self
            .columns
            .iter()
            .map(|(name, kind)| format!("[{}, \"{}\"]", json_string(name), kind.unwrap_or("text")))
            .collect();
        let row = |r: &Vec<Value>| {
            let cells: Vec<String> = self
                .columns
                .iter()
                .zip(r)
                .map(|((name, _), v)| format!("{}: {}", json_string(name), v.json()))
                .collect();
            format!("        {{{}}}", cells.join(", "))
        };
        let rows: Vec<String> = self.rows.iter().map(row).collect();
        format!(
            "    {{\n      \"title\": {},\n      \"columns\": [{}],\n      \"rows\": [\n{}\n      ]\n    }}",
            json_string(&self.title),
            columns.join(", "),
            rows.join(",\n"),
        )
    }
}

/// The result of one experiment: its tables, in order. [`Report::finish`]
/// writes them to `BENCH_<experiment>.json` and prints that document.
pub struct Report {
    experiment: String,
    tables: Vec<Table>,
}

impl Report {
    /// A report that will be written to `BENCH_<experiment>.json`.
    pub fn new(experiment: &str) -> Report {
        Report {
            experiment: experiment.to_string(),
            tables: Vec::new(),
        }
    }

    /// Adds a filled table.
    pub fn table(mut self, table: Table) -> Report {
        self.tables.push(table);
        self
    }

    fn to_json(&self) -> String {
        let tables: Vec<String> = self.tables.iter().map(Table::json).collect();
        format!(
            "{{\n  \"experiment\": {},\n  \"tables\": [\n{}\n  ]\n}}\n",
            json_string(&self.experiment),
            tables.join(",\n"),
        )
    }

    /// Writes `BENCH_<experiment>.json` at the repository root (resolved
    /// relative to this crate's manifest, so the bench can run from any
    /// working directory) and prints the same document.
    pub fn finish(self) {
        let json = self.to_json();
        let path = repo_root().join(format!("BENCH_{}.json", self.experiment));
        std::fs::write(&path, &json).expect("bench JSON must be writable");
        print!("{json}");
        println!("wrote {}", path.display());
    }
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Brings a network up to a consistent state; panics if it cannot.
pub fn converge(topo: Topology, params: NetParams, seed: u64) -> Network {
    let mut net = Network::new(topo, params, seed);
    net.run_until_stable(SimTime::from_secs(120))
        .expect("network must converge during bring-up");
    net
}

/// The timing breakdown of one fault-induced reconfiguration.
#[derive(Clone, Copy, Debug)]
pub struct ReconfigMeasurement {
    /// Fault to the first switch closing (the monitoring tower's
    /// detection latency); `None` on an untraced network, whose spine
    /// keeps no per-switch instants.
    pub detection: Option<SimDuration>,
    /// First switch closed to last switch reopened — the paper's
    /// definition of reconfiguration time (§6.6.5: from the first
    /// tree-position packet of the new epoch to the last forwarding-table
    /// load); `None` on an untraced network.
    pub reconfiguration: Option<SimDuration>,
    /// Fault to fully reopened (what a user experiences).
    pub total: SimDuration,
}

/// Injects a link failure into a converged network and measures detection
/// and reconfiguration latency. Returns `None` if the network never
/// stabilizes within the deadline or no switch closed.
///
/// The first close is read off the typed spine, undrained; the last
/// reopen is the instant [`Network::run_until_stable`] returns, which the
/// spine's last `NetworkOpened` equals.
pub fn measure_reconfiguration(net: &mut Network, link: LinkId) -> Option<ReconfigMeasurement> {
    let fault_at = net.now() + SimDuration::from_millis(10);
    let traced_before = net.trace_log().len();
    let closes_before = net.stats().closes;
    net.schedule_link_down(fault_at, link);
    net.run_for(SimDuration::from_millis(20));
    let last_open = net.run_until_stable(net.now() + SimDuration::from_secs(120))?;
    // Without a close the last state change can predate the fault.
    if net.stats().closes == closes_before {
        return None;
    }
    let first_closed = net.trace_log().records()[traced_before..]
        .iter()
        .find(|r| matches!(r.event, autonet_core::Event::NetworkClosed { .. }))
        .map(|r| r.time);
    Some(ReconfigMeasurement {
        detection: first_closed.map(|t| t.saturating_since(fault_at)),
        reconfiguration: first_closed.map(|t| last_open.saturating_since(t)),
        total: last_open.saturating_since(fault_at),
    })
}

/// Mean of a slice of durations; `None` when it is empty.
pub fn mean(durations: &[SimDuration]) -> Option<SimDuration> {
    let total: u64 = durations.iter().map(|d| d.as_nanos()).sum();
    (!durations.is_empty()).then(|| SimDuration::from_nanos(total / durations.len() as u64))
}

/// The `q`-quantile of a slice of durations, an element of the slice (the
/// upper median at `q = 0.5`); `None` when it is empty.
pub fn quantile(durations: &[SimDuration], q: f64) -> Option<SimDuration> {
    let mut sorted: Vec<SimDuration> = durations.to_vec();
    sorted.sort();
    let rank = (sorted.len() as f64 * q) as usize;
    sorted
        .get(rank.min(sorted.len().saturating_sub(1)))
        .copied()
}

/// Writes a large emitted artifact (Perfetto traces, dumps) under the
/// gitignored `<repo>/artifacts/` directory, creating it on demand.
/// Returns the path written.
pub fn write_artifact(relpath: &str, contents: &str) -> PathBuf {
    let path = repo_root().join("artifacts").join(relpath);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).expect("artifacts dir must be creatable");
    }
    std::fs::write(&path, contents).expect("artifact must be writable");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: fn(u64) -> SimDuration = SimDuration::from_millis;

    #[test]
    fn mean_and_quantiles_of_durations() {
        assert_eq!(mean(&[MS(10), MS(30)]), Some(MS(20)));
        assert_eq!(mean(&[]), None);
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[MS(30), MS(10), MS(20)], 0.5), Some(MS(20)));
        assert_eq!(quantile(&[MS(10), MS(30)], 0.5), Some(MS(30)));
        let ten: Vec<SimDuration> = (1..=10).map(MS).collect();
        assert_eq!(quantile(&ten, 0.9), Some(MS(10)));
        assert_eq!(quantile(&ten, 1.0), Some(MS(10)));
    }

    fn demo() -> Table {
        let mut t = Table::new("T: a \"quoted\" title", &["topology", "n", "took", "wall"]);
        t.row([
            "torus 4×8".into(),
            32usize.into(),
            MS(5).into(),
            Value::Wall(1.5),
        ]);
        t.row([
            "a\\b".into(),
            7u64.into(),
            Value::Missing,
            Value::Wall(1234.56),
        ]);
        t
    }

    #[test]
    fn json_escapes_names_and_tags_wall_apart_from_exact() {
        let json = Report::new("demo").table(demo()).to_json();
        for want in [
            r#""experiment": "demo""#,
            r#""title": "T: a \"quoted\" title""#,
            r#""columns": [["topology", "text"], ["n", "count"], ["took", "ns"], ["wall", "wall"]]"#,
            r#"{"topology": "torus 4×8", "n": 32, "took": 5000000, "wall": 1.500}"#,
            r#"{"topology": "a\\b", "n": 7, "took": null, "wall": 1234.560}"#,
        ] {
            assert!(json.contains(want), "{want} not in {json}");
        }
        assert_eq!(json_string("a\nb"), r#""a\u000ab""#);
    }

    #[test]
    #[should_panic(expected = "a row of 3 cells for 2 columns")]
    fn a_wide_row_panics_at_row() {
        Table::new("T", &["a", "b"]).row([1u64.into(), 2u64.into(), 3u64.into()]);
    }

    #[test]
    #[should_panic(expected = "column \"a\" holds Some(\"count\")")]
    fn a_wall_value_in_an_exact_column_panics_at_row() {
        let mut t = Table::new("T", &["a"]);
        t.row([1u64.into()]);
        t.row([Value::Wall(0.5)]);
    }
}
