//! E2 — Reconfiguration time vs network size and topology (§6.6.5, §7).
//!
//! Paper: "We do not yet understand fully how reconfiguration times vary
//! with network size and topology, but it should be a function of the
//! maximum switch-to-switch distance." We sweep tori, rings and lines and
//! report reconfiguration time against both diameter and switch count —
//! the correlation with diameter should dominate.

use autonet_bench::{converge, measure_reconfiguration, Report, Table};
use autonet_net::NetParams;
use autonet_topo::{diameter, gen, LinkId, Topology};

fn main() {
    println!("E2: reconfiguration time vs size and topology (tuned preset)");
    let mut t = Table::new(
        "E2: reconfiguration time by topology",
        &[
            "topology",
            "switches",
            "diameter",
            "reconfig",
            "fault-to-open",
        ],
    );
    let cases: Vec<(&str, Topology)> = vec![
        ("torus 2×2", gen::torus(2, 2, 61)),
        ("torus 3×3", gen::torus(3, 3, 62)),
        ("torus 4×4", gen::torus(4, 4, 63)),
        ("torus 5×5", gen::torus(5, 5, 64)),
        ("torus 6×6", gen::torus(6, 6, 65)),
        ("torus 4×8", gen::torus(8, 4, 66)),
        ("torus 8×8", gen::torus(8, 8, 74)),
        ("torus 10×10", gen::torus(10, 10, 75)),
        ("ring 8", gen::ring(8, 67)),
        ("ring 16", gen::ring(16, 68)),
        ("ring 32", gen::ring(32, 69)),
        ("ring 48", gen::ring(48, 76)),
        ("line 8", gen::line(8, 70)),
        ("line 16", gen::line(16, 71)),
        ("random 24+12", gen::random_connected(24, 12, 72)),
        ("random 48+24", gen::random_connected(48, 24, 73)),
    ];
    for (name, topo) in cases {
        let n = topo.num_switches();
        let d = diameter(&topo.view_all()).unwrap_or(0);
        let link = LinkId(topo.num_links() - 1);
        let mut net = converge(topo, NetParams::tuned(), 5);
        let m = measure_reconfiguration(&mut net, link);
        t.row([
            name.into(),
            n.into(),
            d.into(),
            m.and_then(|m| m.reconfiguration).into(),
            m.map(|m| m.total).into(),
        ]);
    }
    Report::new("reconfig_scaling").table(t).finish();
    println!(
        "\nShape check: time grows with the maximum switch-to-switch\n\
         distance (follow the rings); networks of very different sizes but\n\
         similar diameter (e.g. torus 4×4 vs torus 5×5, torus 6×6 vs 4×8)\n\
         land close together."
    );
}
