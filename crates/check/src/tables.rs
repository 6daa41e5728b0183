//! Up\*/down\* cycle-freedom of *installed* forwarding tables.
//!
//! The paper's central safety claim is not about the route computation in
//! the abstract but about what the hardware is actually loaded with:
//! every set of tables under which host traffic can flow must be free of
//! forwarding loops and of channel-dependency deadlock (§4). This module
//! checks that claim against the tables a backend really installed, by
//! building the *channel dependency graph*: one node per directed trunk
//! channel, and an edge `c1 → c2` whenever some table forwards a packet
//! that arrived over `c1` out over `c2`. Up\*/down\* routing orders
//! channels (up before down), so for any correct table set — including
//! the union over all destinations and the multipath alternatives — this
//! graph is acyclic. A cycle is simultaneously a potential forwarding
//! loop (if one destination's entries close it) and a potential deadlock
//! (if several destinations' entries do), so one check covers both.
//!
//! Only *open* switches contribute tables: during a reconfiguration the
//! network is closed and hosts cannot inject, so transiently inconsistent
//! mixtures across a closed boundary are not a safety violation. The
//! oracle re-runs whenever a switch opens or installs a table while open.
//! Each table is read once, when it is installed, down to that switch's
//! channel edges ([`table_edges`]); a check concatenates the edge lists of
//! the switches open on one epoch and runs one cycle search
//! ([`channel_cycle`]). [`table_cycle`] is the same fold over a given set
//! of tables, for judging synthesized tables outside a run (E4 and the
//! routing tests).
//!
//! Broadcast addresses are excluded. Broadcast traffic is confined to
//! spanning-tree links by construction (the flood sets name tree children
//! only, and the up phase starts at tree leaves), but the route computer
//! also programs *defensive* broadcast entries on non-tree trunk in-ports
//! — ports no broadcast packet can arrive on. Those dead entries would
//! read as down→up edges and make the union graph cyclic even for
//! perfectly correct tables; broadcast deadlock-freedom rests on tree
//! confinement plus FIFO sizing, not on channel ordering.

use autonet_switch::{ForwardingTable, PortSet};
use autonet_topo::{deadlock::find_cycle, LinkId, SwitchId, Topology};
use autonet_wire::MAX_PORTS;

/// The channel dependency edges switch `s`'s table induces, sorted and
/// each once: `(c_in, c_out)` whenever some programmed non-broadcast index
/// sends a packet that arrived over trunk channel `c_in` out over trunk
/// channel `c_out`. Channel `2 * link` runs from the link's `a` end to its
/// `b` end, `2 * link + 1` back; loopback cables carry no channel. Every
/// `c_in` enters `s`, so the lists of different switches are disjoint and
/// each holds all out-edges of the channels it names.
pub(crate) fn table_edges(
    topo: &Topology,
    s: SwitchId,
    table: &ForwardingTable,
) -> Vec<(usize, usize)> {
    // Per port of `s`, the trunk channel into it; the one out is its reverse.
    let mut into = [None; MAX_PORTS];
    for (port, l) in topo.links_at(s) {
        let spec = topo.link(l);
        if !spec.is_loopback() {
            into[usize::from(port)] = Some(2 * l.0 + usize::from(spec.a.switch == s));
        }
    }
    // Every programmed index, exact entries and per-remote-switch prefix
    // runs, folded to the out-ports its in-port reaches.
    let exact = table
        .iter()
        .filter(|((_, dst), _)| !dst.is_broadcast())
        .map(|((p, _), e)| (p, e));
    let runs = table.iter_prefixes().map(|((p, _), e)| (p, e));
    let mut outs = [PortSet::EMPTY; MAX_PORTS];
    for (p, entry) in exact.chain(runs) {
        outs[usize::from(p)] = outs[usize::from(p)].union(entry.ports);
    }
    let mut edges = Vec::new();
    for (c_in, out) in into.iter().zip(outs) {
        let Some(c_in) = *c_in else { continue };
        let c_outs = out.iter().filter_map(|q| into[usize::from(q)]);
        edges.extend(c_outs.map(|c| (c_in, c ^ 1)));
    }
    edges.sort_unstable();
    edges
}

/// Looks for a cycle in the channel dependency graph of the given
/// `(switch, table)` pairs of `topo`, one pair per switch, and names its
/// channels; `None` if the tables are acyclic. Up\*/down\* tables, as
/// `compute_forwarding_table` synthesizes them, always are.
pub fn table_cycle<'t>(
    topo: &Topology,
    tables: impl IntoIterator<Item = (SwitchId, &'t ForwardingTable)>,
) -> Option<Vec<String>> {
    let edges: Vec<(usize, usize)> = tables
        .into_iter()
        .flat_map(|(s, table)| table_edges(topo, s, table))
        .collect();
    channel_cycle(topo, &edges)
}

/// Looks for a cycle among the concatenated [`table_edges`] of some
/// switches and names its channels, or returns `None` if they are acyclic.
/// Each list holds all out-edges of its channels in order, so however the
/// lists are concatenated `find_cycle` meets each channel's children in
/// one order, and names the witness it names for their sorted union.
pub(crate) fn channel_cycle(topo: &Topology, edges: &[(usize, usize)]) -> Option<Vec<String>> {
    let mut cycle = find_cycle(2 * topo.num_links(), edges)?;
    // `find_cycle` repeats the first node at the end; list each channel once.
    if cycle.len() > 1 && cycle.first() == cycle.last() {
        cycle.pop();
    }
    Some(
        cycle
            .iter()
            .map(|&c| {
                let spec = topo.link(LinkId(c / 2));
                let (from, to) = if c % 2 == 0 {
                    (spec.a.switch.0, spec.b.switch.0)
                } else {
                    (spec.b.switch.0, spec.a.switch.0)
                };
                format!("s{from}→s{to} (link {})", c / 2)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use autonet_core::{compute_forwarding_table, global_from_view, Epoch, RouteKind};
    use autonet_sim::SimRng;
    use autonet_switch::ForwardingEntry;
    use autonet_topo::gen;
    use autonet_wire::{LinkTiming, PortIndex, ShortAddress, Uid};
    use std::collections::{BTreeMap, BTreeSet};

    /// The check over the given tables (`tables[s]` is the table of switch
    /// `s` if it is open and has one installed), concatenating the edge
    /// lists in `order`.
    fn check_in(
        topo: &Topology,
        tables: &[Option<ForwardingTable>],
        order: &[usize],
    ) -> Option<Vec<String>> {
        let open = order
            .iter()
            .filter_map(|&s| Some((SwitchId(s), tables[s].as_ref()?)));
        table_cycle(topo, open)
    }

    fn check(topo: &Topology, tables: &[Option<ForwardingTable>]) -> Option<Vec<String>> {
        let order: Vec<usize> = (0..tables.len()).collect();
        check_in(topo, tables, &order)
    }

    /// The check as it was when the oracle kept whole tables: every open
    /// table rescanned once per trunk in-port into one global edge set.
    fn per_in_port_scan(
        topo: &Topology,
        tables: &[Option<ForwardingTable>],
    ) -> Option<Vec<String>> {
        let channel_into = |l: LinkId, dst: SwitchId| -> Option<usize> {
            let spec = topo.link(l);
            if spec.is_loopback() {
                return None;
            }
            if spec.b.switch == dst {
                Some(2 * l.0)
            } else {
                Some(2 * l.0 + 1)
            }
        };
        let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
        for (s, table) in tables.iter().enumerate() {
            let Some(table) = table else { continue };
            let sid = SwitchId(s);
            let trunk: Vec<(PortIndex, usize, usize)> = topo
                .links_at(sid)
                .filter_map(|(port, l)| {
                    let c_in = channel_into(l, sid)?;
                    let far = topo.link(l).other_end(sid).switch;
                    let c_out = channel_into(l, far)?;
                    Some((port, c_in, c_out))
                })
                .collect();
            let out_channel = |q: PortIndex| trunk.iter().find(|&&(p, _, _)| p == q).map(|t| t.2);
            for &(in_port, c_in, _) in &trunk {
                let outs = table
                    .iter()
                    .filter(|((p, addr), _)| *p == in_port && !addr.is_broadcast())
                    .map(|(_, e)| e)
                    .chain(
                        table
                            .iter_prefixes()
                            .filter(|((p, _), _)| *p == in_port)
                            .map(|(_, e)| e),
                    );
                for entry in outs {
                    for q in entry.ports.iter() {
                        if let Some(c_out) = out_channel(q) {
                            edges.insert((c_in, c_out));
                        }
                    }
                }
            }
        }
        let edges: Vec<(usize, usize)> = edges.into_iter().collect();
        channel_cycle(topo, &edges)
    }

    /// Tables the real route computation produces are cycle-free: on
    /// tori, a tree and random graphs.
    #[test]
    fn computed_tables_have_no_channel_cycle() {
        let random = (1..15).map(|seed| gen::random_connected(16, 10, seed));
        let topos = [
            gen::torus(3, 3, 5),
            gen::torus(4, 4, 11),
            gen::tree(2, 3, 13),
        ];
        for topo in topos.into_iter().chain(random) {
            let view = topo.view_all();
            let global = global_from_view(&view, Epoch(1), &BTreeMap::new()).unwrap();
            let tables: Vec<Option<ForwardingTable>> = topo
                .switch_ids()
                .map(|s| {
                    compute_forwarding_table(&global, topo.switch(s).uid, &[], RouteKind::UpDown)
                })
                .collect();
            assert!(tables.iter().all(|t| t.is_some()));
            assert_eq!(check(&topo, &tables), None);
            assert_eq!(per_in_port_scan(&topo, &tables), None);
        }
    }

    /// A hand-built two-switch ping-pong entry is the smallest loop.
    #[test]
    fn reflected_entries_are_reported_as_a_cycle() {
        let topo = gen::line(2, 0);
        let spec = topo.link(LinkId(0)).clone();
        let mut ta = ForwardingTable::new();
        let mut tb = ForwardingTable::new();
        // Each side forwards packets for switch number 9 straight back
        // over the link they arrived on.
        ta.set_switch_prefix(
            spec.a.port,
            9,
            ForwardingEntry::alternatives(PortSet::single(spec.a.port)),
        );
        tb.set_switch_prefix(
            spec.b.port,
            9,
            ForwardingEntry::alternatives(PortSet::single(spec.b.port)),
        );
        let cycle = check(&topo, &[Some(ta), Some(tb)]).expect("loop must be found");
        assert_eq!(cycle, ["s0→s1 (link 0)", "s1→s0 (link 0)"]);
        // Exact (non-prefix) entries close cycles too.
        let mut ta2 = ForwardingTable::new();
        ta2.set(
            spec.a.port,
            ShortAddress::assigned(3, 0),
            ForwardingEntry::alternatives(PortSet::single(spec.a.port)),
        );
        let mut tb2 = ForwardingTable::new();
        tb2.set(
            spec.b.port,
            ShortAddress::assigned(3, 0),
            ForwardingEntry::alternatives(PortSet::single(spec.b.port)),
        );
        assert!(check(&topo, &[Some(ta2), Some(tb2)]).is_some());
    }

    /// A closed (None) switch cannot contribute to a cycle.
    #[test]
    fn closed_switches_are_excluded() {
        let topo = gen::line(2, 0);
        let spec = topo.link(LinkId(0)).clone();
        let mut ta = ForwardingTable::new();
        ta.set_switch_prefix(
            spec.a.port,
            9,
            ForwardingEntry::alternatives(PortSet::single(spec.a.port)),
        );
        assert_eq!(check(&topo, &[Some(ta), None]), None);
    }

    /// A random table of switch `s`: a few exact, broadcast and prefix
    /// entries, each naming one or two out-ports. Ports are mostly drawn
    /// from the switch's cabled ports, the rest from all thirteen (host,
    /// loopback, uncabled and port 0 alike).
    fn random_table(rng: &mut SimRng, topo: &Topology, s: SwitchId) -> ForwardingTable {
        let cabled: Vec<PortIndex> = topo.links_at(s).map(|(p, _)| p).collect();
        let port = |rng: &mut SimRng| {
            if rng.chance(0.8) {
                *rng.choose(&cabled)
            } else {
                rng.index(MAX_PORTS) as PortIndex
            }
        };
        let mut t = ForwardingTable::new();
        for _ in 0..rng.index(5) {
            let in_port = port(rng);
            let mut ports = PortSet::EMPTY;
            for _ in 0..rng.range(1, 3) {
                ports.insert(port(rng));
            }
            let entry = if rng.chance(0.5) {
                ForwardingEntry::alternatives(ports)
            } else {
                ForwardingEntry::simultaneous(ports)
            };
            let number = rng.range(1, 8) as u16;
            match rng.index(3) {
                0 => {
                    let dst = ShortAddress::assigned(number, rng.index(16) as PortIndex);
                    t.set(in_port, dst, entry);
                }
                1 => {
                    let dst = *rng.choose(&[
                        ShortAddress::BROADCAST_ALL,
                        ShortAddress::BROADCAST_SWITCHES,
                        ShortAddress::BROADCAST_HOSTS,
                    ]);
                    t.set(in_port, dst, entry);
                }
                _ => t.set_switch_prefix(in_port, number, entry),
            }
        }
        t
    }

    /// Folding each table once and concatenating the lists, in any switch
    /// order, gives the verdict and the witness of the per-in-port scan
    /// into one sorted edge set, on random topologies (with loopback
    /// cables and hosts) under random tables, some of which close cycles.
    #[test]
    fn folded_edges_match_the_per_in_port_scan() {
        let mut rng = SimRng::new(29);
        let (mut cyclic, mut acyclic) = (0, 0);
        for draw in 0..400 {
            let n = rng.range(2, 10) as usize;
            let mut topo = gen::random_connected(n, rng.index(n + 1), draw);
            for _ in 0..rng.index(3) {
                let s = SwitchId(rng.index(n));
                // A full switch takes no loopback; the draw goes on without.
                let _ = topo.connect(s, s, LinkTiming::coax_100m());
            }
            for h in 0..rng.index(n) {
                let s = SwitchId(rng.index(n));
                let _ = topo.attach_host(Uid::new(1_000 + h as u64), s, None);
            }
            let tables: Vec<Option<ForwardingTable>> = topo
                .switch_ids()
                .map(|s| rng.chance(0.8).then(|| random_table(&mut rng, &topo, s)))
                .collect();
            let expected = per_in_port_scan(&topo, &tables);
            assert_eq!(check(&topo, &tables), expected, "draw {draw}");
            let mut order: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut order);
            assert_eq!(
                check_in(&topo, &tables, &order),
                expected,
                "draw {draw}, order {order:?}"
            );
            if expected.is_some() {
                cyclic += 1;
            } else {
                acyclic += 1;
            }
        }
        assert!(
            cyclic >= 40 && acyclic >= 40,
            "{cyclic} cyclic, {acyclic} acyclic draws"
        );
    }
}
