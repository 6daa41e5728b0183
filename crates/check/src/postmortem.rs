//! The flight recorder: self-explaining bundles for oracle failures.
//!
//! When an oracle fires deep inside a randomized campaign or a
//! worst-case search, the violation message alone rarely explains *why*.
//! This module packages everything a human needs into one bounded
//! directory — the event window around the violation, the causal span
//! export (opens in Perfetto) and the shrunken reproducer — so the
//! failure arrives ready to debug instead of ready to re-run.
//!
//! Writing is **explicit**, not wired into the engine: the shrinker and
//! the worst-case search re-run failing scenarios hundreds of times on
//! purpose, and only the final, human-facing failure should hit the
//! filesystem. Test harnesses call [`write_postmortem`] right before
//! panicking; the artifacts directory is gitignored.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use autonet_sim::{SimDuration, SimTime};
use autonet_trace::{merge_sorted, to_jsonl, SpanTree, Timeline, TraceRecord};

use crate::engine::CheckOutcome;
use crate::scenario::Scenario;
use crate::shrink::Reproducer;

/// Event-window reach before the violation instant.
const BEFORE: SimDuration = SimDuration::from_secs(2);
/// Event-window reach after the violation instant.
const AFTER: SimDuration = SimDuration::from_millis(500);
/// Hard cap on bundled events; when the window holds more, the **latest**
/// `MAX_EVENTS` are kept (the records nearest the violation matter most)
/// and the summary says how many were cut.
const MAX_EVENTS: usize = 20_000;

/// The default bundle root: `<repo>/artifacts/postmortems` (gitignored).
pub fn default_postmortem_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("artifacts")
        .join("postmortems")
}

/// Writes a complete postmortem bundle for a failing outcome into
/// `base/<name>-<violation-kind>/` and returns the bundle directory.
///
/// Bundle contents:
///
/// - `summary.txt` — the violation, the scenario as code, run stats, the
///   critical path, and an index of the other files;
/// - `events.jsonl` — the canonical event window around the violation
///   (bounded by `BEFORE`, `AFTER` and `MAX_EVENTS`);
/// - `spans.trace.json` — the causal span tree of the whole run in
///   Chrome Trace Event Format (drop onto <https://ui.perfetto.dev>);
/// - `reproducer.rs` — the shrunken self-contained test, when the caller
///   ran the shrinker.
///
/// # Errors
///
/// `InvalidInput` if the outcome has no violation; otherwise any I/O
/// error creating or writing the bundle.
pub fn write_postmortem(
    base: &Path,
    name: &str,
    scenario: &Scenario,
    outcome: &CheckOutcome,
    reproducer: Option<&Reproducer>,
) -> io::Result<PathBuf> {
    let violation = outcome.violation.as_ref().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "postmortem requested for a passing outcome",
        )
    })?;
    let dir = base.join(format!("{name}-{}", violation.kind()));
    fs::create_dir_all(&dir)?;

    let merged = merge_sorted(&outcome.records);
    let vt = violation.time();
    let lo = SimTime::from_nanos(vt.as_nanos().saturating_sub(BEFORE.as_nanos()));
    let hi = vt.saturating_add(AFTER);
    let windowed: Vec<TraceRecord> = merged
        .iter()
        .filter(|r| r.time >= lo && r.time <= hi)
        .cloned()
        .collect();
    let cut = windowed.len().saturating_sub(MAX_EVENTS);
    let bundled = &windowed[cut..];
    fs::write(dir.join("events.jsonl"), to_jsonl(bundled))?;

    let timeline = Timeline::build(&merged);
    let tree = SpanTree::build(&timeline, outcome.interruption.as_ref());
    fs::write(dir.join("spans.trace.json"), tree.to_chrome_trace())?;

    let mut files = vec!["events.jsonl", "spans.trace.json"];
    if let Some(rep) = reproducer {
        fs::write(
            dir.join("reproducer.rs"),
            rep.snippet(
                "let params = NetParams::tuned();\n    \
                 let cfg = OracleConfig::from_params(&params.autopilot);",
            ),
        )?;
        files.push("reproducer.rs");
    }

    let mut summary = String::new();
    {
        use std::fmt::Write as _;
        let w = &mut summary;
        let mut put = |s: String| writeln!(w, "{s}").expect("writing to a String cannot fail");
        put(format!("postmortem: {name}"));
        put(format!("violation kind: {}", violation.kind()));
        put(format!("violation: {violation}"));
        put(format!("violation time: {vt}"));
        put(format!(
            "run: end={} origin={} quiescences={}",
            outcome.end, outcome.origin, outcome.quiescences
        ));
        put(format!("damage: {:?}", outcome.damage));
        match &outcome.critical {
            Some(cp) => put(format!("critical path:\n{cp}")),
            None => put("critical path: none settled".to_string()),
        }
        put(format!(
            "events: {} total, {} bundled in [{lo}, {hi}]{}",
            merged.len(),
            bundled.len(),
            if cut > 0 {
                format!(" ({cut} oldest in-window records cut)")
            } else {
                String::new()
            }
        ));
        put("scenario:".to_string());
        put(scenario.to_code());
        put(format!("files: {}", files.join(", ")));
    }
    fs::write(dir.join("summary.txt"), summary)?;
    Ok(dir)
}

/// Convenience wrapper for test harnesses: writes the bundle into the
/// default gitignored directory and swallows (but reports) I/O errors,
/// so a full disk never masks the original oracle failure. Returns the
/// bundle path on success. No-op (`None`) for passing outcomes.
pub fn postmortem_on_failure(
    name: &str,
    scenario: &Scenario,
    outcome: &CheckOutcome,
    reproducer: Option<&Reproducer>,
) -> Option<PathBuf> {
    outcome.violation.as_ref()?;
    match write_postmortem(
        &default_postmortem_dir(),
        name,
        scenario,
        outcome,
        reproducer,
    ) {
        Ok(dir) => {
            eprintln!("postmortem bundle written to {}", dir.display());
            Some(dir)
        }
        Err(e) => {
            eprintln!("postmortem bundle could not be written: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autonet_sim::SimTime;

    #[test]
    fn passing_outcome_is_rejected() {
        let outcome = CheckOutcome {
            violation: None,
            end: SimTime::ZERO,
            origin: SimTime::ZERO,
            quiescences: 0,
            interruption: None,
            damage: Default::default(),
            critical: None,
            records: Vec::new(),
        };
        let scenario = Scenario {
            name: "unit".into(),
            topo: crate::scenario::TopoSpec::Ring { n: 4, seed: 0 },
            seed: 1,
            events: Vec::new(),
            settle_ms: 100,
        };
        let err = write_postmortem(Path::new("/nonexistent"), "unit", &scenario, &outcome, None)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(postmortem_on_failure("unit", &scenario, &outcome, None).is_none());
    }
}
