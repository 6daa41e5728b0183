//! E5 — The cost of up\*/down\*: path inflation and root hotspot
//! (§6.6.4).
//!
//! Up\*/down\* buys deadlock freedom by constraining routes: some pairs
//! take longer-than-shortest paths, and traffic concentrates near the
//! spanning-tree root. We quantify both across topologies, plus the
//! multipath benefit (how many pairs have alternative minimal next hops).

use autonet_bench::{Report, Table, Value};
use autonet_core::{global_from_view_simple, RouteComputer};
use autonet_topo::{gen, Topology};

fn row(name: &str, topo: &Topology) -> [Value; 4] {
    let global = global_from_view_simple(&topo.view_all()).expect("non-empty");
    let rc = RouteComputer::new(&global).expect("well-formed");
    let stats = rc.stats();
    let inflation = stats.inflation();
    // Hotspot measure: max link load over mean link load.
    let loads = &stats.link_loads;
    let total: u64 = loads.iter().sum();
    let mean = total as f64 / loads.len().max(1) as f64;
    let max = *loads.iter().max().unwrap_or(&0) as f64;
    let at_shortest = stats.shortest_pairs as f64 * 100.0 / stats.pairs.max(1) as f64;
    [
        name.into(),
        inflation.into(),
        at_shortest.into(),
        (max / mean.max(1e-9)).into(),
    ]
}

fn main() {
    println!("E5: up*/down* route quality");
    println!("(inflation = mean legal hops / mean shortest hops over all pairs;");
    println!(" hotspot = most-loaded link vs mean link load on minimal routes)");
    let mut t = Table::new(
        "E5: path inflation and hotspot by topology",
        &[
            "topology",
            "inflation",
            "pairs at shortest (%)",
            "hotspot (max/mean link load)",
        ],
    );
    for (name, topo) in [
        ("line 8", gen::line(8, 1)),
        ("tree 3^2", gen::tree(3, 2, 2)),
        ("ring 12", gen::ring(12, 3)),
        ("grid 4x4", gen::grid(4, 4, 4)),
        ("torus 4x4", gen::torus(4, 4, 5)),
        ("torus 4x8", gen::torus(8, 4, 6)),
        ("hypercube 4", gen::hypercube(4, 7)),
        ("SRC network", gen::src_network(8)),
        ("random 24+12", gen::random_connected(24, 12, 9)),
    ] {
        t.row(row(name, &topo));
    }
    Report::new("updown_quality").table(t).finish();
    println!(
        "\nShape check: trees and lines are exactly shortest (inflation 1.0,\n\
         every route is on the tree anyway); richly-connected topologies pay\n\
         modest inflation (a few percent on tori) and show load concentrated\n\
         near the root — the known cost of up*/down* that later datacenter\n\
         fabrics revisited."
    );
}
