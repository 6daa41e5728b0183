//! E4 — Deadlock freedom of up\*/down\* vs unrestricted routing (§3.6,
//! §4.2, §6.6.4).
//!
//! Two instruments: (a) the formal criterion — cycles in the channel
//! dependency graph — over a family of topologies. The up\*/down\*
//! column synthesizes every switch's table and reads them through the
//! online table oracle's fold (`autonet_check::table_cycle`); the
//! unrestricted column is a model over every minimal route
//! (`RouteComputer::unrestricted_dependency_cycle`), since those tables
//! are never synthesized. (b) A live demonstration on the slot-level
//! datapath, where cyclically-routed traffic wedges the fabric and
//! up\*/down\* drains it.

use autonet_bench::{Report, Table, Value};
use autonet_check::table_cycle;
use autonet_core::{compute_forwarding_table, global_from_view_simple, RouteComputer, RouteKind};
use autonet_topo::{gen, Topology};

fn cdg_row(name: &str, topo: &Topology) -> [Value; 5] {
    let global = global_from_view_simple(&topo.view_all()).expect("non-empty");
    let rc = RouteComputer::new(&global).expect("well-formed");
    let tables: Vec<_> = topo
        .switch_ids()
        .map(|s| {
            let table =
                compute_forwarding_table(&global, topo.switch(s).uid, &[], RouteKind::UpDown);
            (s, table.expect("routable"))
        })
        .collect();
    let updown = table_cycle(topo, tables.iter().map(|(s, t)| (*s, t))).is_some();
    let shortest = rc.unrestricted_dependency_cycle();
    assert!(!updown, "{name}: up*/down* produced a dependency cycle");
    [
        name.into(),
        topo.num_switches().into(),
        rc.num_links().into(),
        updown.into(),
        shortest.into(),
    ]
}

fn main() {
    println!("E4: channel-dependency-graph analysis per routing discipline");
    let mut t = Table::new(
        "E4: dependency cycles by topology and routing discipline",
        &[
            "topology",
            "switches",
            "links",
            "up*/down* cycle",
            "unrestricted shortest-path cycle",
        ],
    );
    for (name, topo) in [
        ("line 8", gen::line(8, 1)),
        ("tree 2^4", gen::tree(2, 3, 2)),
        ("ring 8", gen::ring(8, 3)),
        ("grid 4x4", gen::grid(4, 4, 4)),
        ("torus 4x4", gen::torus(4, 4, 5)),
        ("torus 4x8", gen::torus(8, 4, 6)),
        ("hypercube 4", gen::hypercube(4, 7)),
        ("SRC network", gen::src_network(8)),
    ] {
        t.row(cdg_row(name, &topo));
    }
    for seed in 10..20 {
        let name = format!("random n=16 seed={seed}");
        t.row(cdg_row(&name, &gen::random_connected(16, 8, seed)));
    }
    Report::new("deadlock").table(t).finish();
    println!(
        "\nShape check: up*/down* is acyclic everywhere; unrestricted\n\
         shortest-path routing has cycles on every topology containing a\n\
         physical cycle (rings, grids with multipath, tori, hypercubes) and\n\
         is only safe on trees/lines.\n\n\
         The live slot-level counterpart (cyclic routes wedging a ring while\n\
         up*/down* drains the same offered load) runs in the integration\n\
         test `routing_datapath::cyclic_routes_deadlock_on_a_ring_where_updown_does_not`\n\
         and, for Figure 9's broadcast case, in `exp_broadcast_deadlock` (E7)."
    );
}
