//! E14 — Autonet-to-Ethernet bridge throughput (§6.8.2).
//!
//! Paper (Firefly bridge, two processors forwarding): about 5000 small
//! packets/s discarded, over 1000 small packets/s forwarded, 200–300
//! maximum-size packets/s forwarded, ~1 ms latency; CPU-bound for small
//! packets, I/O-bus-bound for large ones.

use autonet_bench::{Report, Table};
use autonet_host::{Bridge, BridgeVerdict, EthFrame, Side, IP_ETHERTYPE};
use autonet_sim::{SimDuration, SimTime};
use autonet_wire::Uid;

fn frame(dst: u64, src: u64, len: usize) -> EthFrame {
    EthFrame::new(Uid::new(dst), Uid::new(src), IP_ETHERTYPE, vec![0u8; len])
}

/// When a small forwarded frame emerges from a bridge that was handed
/// `backlog` frames of one class in the same instant.
fn emerges_behind(backlog: u64, len: usize, discard: bool) -> SimTime {
    let mut b = Bridge::new();
    let t0 = SimTime::ZERO;
    // Two same-side endpoints: frames between them are discarded.
    b.process(t0, Side::Ethernet, &frame(1, 2, 64));
    b.process(t0, Side::Ethernet, &frame(2, 1, 64));
    for i in 0..backlog {
        // Unknown destinations force forwarding.
        let dst = if discard { 1 } else { 10_000 + i };
        b.process(t0, Side::Ethernet, &frame(dst, 2, len));
    }
    match b.process(t0, Side::Ethernet, &frame(9, 7, 52)) {
        BridgeVerdict::Forward { ready_at, .. } => ready_at,
        v => panic!("an unknown destination is forwarded, got {v:?}"),
    }
}

/// Sustained rate for one packet class: the frames queue on the bridge's
/// one forwarding pipeline, and a probe frame offered behind them emerges
/// one backlog later than it does from an idle bridge.
fn sustained_rate(len: usize, discard: bool) -> f64 {
    let n = 2000;
    let busy: SimDuration = emerges_behind(n, len, discard) - emerges_behind(0, len, discard);
    n as f64 / busy.as_secs_f64()
}

fn main() {
    println!("E14: bridge forwarding/discard rates (calibrated cost model)");
    let mut rates = Table::new(
        "E14: bridge sustained rates, paper vs measured",
        &["packet class", "paper (/s)", "measured (/s)"],
    );
    for (class, paper, len, discard) in [
        ("discard small (66 B)", "~5000", 52, true),
        ("forward small (66 B)", ">1000", 52, false),
        ("forward max-size (1500 B)", "200-300", 1486, false),
    ] {
        rates.row([
            class.into(),
            paper.into(),
            sustained_rate(len, discard).into(),
        ]);
    }
    // Latency for a single small packet through an idle bridge.
    let mut b = Bridge::new();
    let at = SimTime::from_millis(5);
    let BridgeVerdict::Forward { ready_at, .. } = b.process(at, Side::Autonet, &frame(42, 7, 52))
    else {
        panic!("an unknown destination is forwarded");
    };
    let mut latency = Table::new(
        "E14: latency of one small packet through an idle bridge",
        &["paper", "measured"],
    );
    latency.row(["~1 ms".into(), ready_at.saturating_since(at).into()]);
    Report::new("bridge").table(rates).table(latency).finish();
    println!(
        "\nShape check: small-packet forwarding is CPU-bound (~1000/s),\n\
         max-size forwarding is I/O-bus-bound (200-300/s), and receive-and-\n\
         discard is ~5x cheaper than forwarding."
    );
}
