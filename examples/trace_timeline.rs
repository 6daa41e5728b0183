//! Timeline reconstruction demo: run a named fault scenario, merge the
//! typed event spine, and print the per-epoch phase breakdown — the
//! observability workflow behind EXPERIMENTS.md E20.
//!
//! Run with: `cargo run --example trace_timeline [scenario] [--critical-path]`
//!
//! Scenarios, from `autonet::scenarios` (the first three are the ones the
//! golden-trace tests lock down):
//!   single_link_cut        one trunk cut on a 4-switch ring (default)
//!   switch_crash_revive    a switch dies and later rejoins
//!   simultaneous_failures  four link cuts within 1 ms on a 4x4 torus
//!
//! Plus E1's scenario from EXPERIMENTS.md (not a golden — used for the
//! E20 phase-breakdown numbers):
//!   src_link_cut           one trunk cut on the 30-switch SRC network
//!
//! `--critical-path` appends, for every epoch with a complete causal
//! chain, the per-phase per-node critical path: which node's detect /
//! close-propagation / tree-stabilize / address-assign /
//! table-distribute / reopen step the reconfiguration latency is
//! actually waiting on.
//!
//! `--perfetto <out.json>` additionally exports the run's causal span
//! tree in Chrome Trace Event Format — drop the file onto
//! <https://ui.perfetto.dev> to scrub through the epochs visually.

use autonet::scenarios;
use autonet::trace::Timeline;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let critical = args.iter().any(|a| a == "--critical-path");
    // `--perfetto` consumes the next argument as the output path.
    let mut perfetto: Option<String> = None;
    let mut positional: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--critical-path" => {}
            "--perfetto" => match it.next() {
                Some(path) => perfetto = Some(path.clone()),
                None => {
                    eprintln!("--perfetto needs an output path (e.g. --perfetto out.json)");
                    std::process::exit(2);
                }
            },
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag '{flag}'; flags: --critical-path, --perfetto <out.json>");
                std::process::exit(2);
            }
            name => positional = Some(name.to_string()),
        }
    }
    let scenario = positional.unwrap_or_else(|| "single_link_cut".to_string());
    let Some(records) = scenarios::run(&scenario) else {
        eprintln!(
            "unknown scenario '{scenario}'; pick one of: {}",
            scenarios::NAMES.join(", ")
        );
        std::process::exit(2);
    };

    let tl = Timeline::build(&records);
    println!("scenario: {scenario}");
    println!(
        "{} events across {} epochs\n",
        tl.records.len(),
        tl.epochs.len()
    );

    println!("per-epoch phase breakdown:");
    println!("{tl}");

    if let Some(r) = tl.last_complete() {
        println!("last complete reconfiguration ({}):", r.epoch);
        let phases = r.phases().expect("complete by construction");
        let names = [
            "detected",
            "closed",
            "tree stable",
            "addresses assigned",
            "first table",
            "opened (settled)",
        ];
        let t0 = phases[0];
        for (name, t) in names.iter().zip(phases) {
            println!("  {name:<19} {t}  (+{})", t.saturating_since(t0));
        }
        println!();
    }

    if critical {
        println!("\ncritical paths:");
        let mut any = false;
        for r in &tl.epochs {
            if let Some(cp) = tl.critical_path(r.epoch) {
                println!("{cp}");
                any = true;
            }
        }
        if !any {
            println!("  (no epoch has a complete causal chain)");
        }
    }

    if let Some(out) = perfetto {
        let tree = tl.span_tree();
        std::fs::write(&out, tree.to_chrome_trace())
            .unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
        println!(
            "\nwrote {} epoch spans to {out} (open at https://ui.perfetto.dev)",
            tree.epochs.len()
        );
    }
}
