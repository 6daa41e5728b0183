//! Up\*/down\* route computation and forwarding-table synthesis.
//!
//! Step 5 of reconfiguration (companion paper §6.6.4): from the global
//! topology and spanning tree, each switch computes its own forwarding
//! table. Every link is assigned a direction — the "up" end is the end
//! closer to the root in the spanning tree, ties broken by the smaller
//! UID — and a legal route traverses zero or more links up followed by
//! zero or more links down. Legality is enforced *locally*: forwarding
//! entries are indexed by the receiving port, and entries that would carry
//! a packet from a "down" arrival onto an "up" link are left as discard.
//!
//! Routes are minimal-hop among legal routes, with all tied next hops
//! programmed as alternative ports (dynamic multipath, trunk grouping).
//! Broadcast addresses route up the tree to the root and flood down.
//!
//! [`RouteComputer`] also implements the unrestricted-shortest-path
//! baseline and the channel-dependency-graph analysis used to demonstrate
//! that up\*/down\* is deadlock-free where the baseline is not.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use autonet_switch::{ForwardingEntry, ForwardingTable, PortSet};
use autonet_topo::deadlock::find_cycle;
use autonet_topo::NetView;
use autonet_wire::{PortIndex, ShortAddress, SwitchNumber, Uid, MAX_PORTS};

use crate::epoch::Epoch;
use crate::topology::{GlobalTopology, LinkInfo, SwitchInfo};

/// Which routing discipline to synthesize.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteKind {
    /// The paper's deadlock-free discipline.
    UpDown,
    /// Unrestricted minimal routing (the deadlock-prone baseline).
    Unrestricted,
}

/// A deduplicated physical link in the global topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct GLink {
    pub(crate) a: usize,
    pub(crate) a_port: PortIndex,
    pub(crate) b: usize,
    pub(crate) b_port: PortIndex,
}

/// Aggregate statistics over a route computation, for the experiments.
#[derive(Clone, Debug, Default)]
pub struct RoutingStats {
    /// Sum over reachable ordered pairs of minimal legal hop counts.
    pub legal_hops_total: u64,
    /// Sum over the same pairs of unrestricted shortest-path hop counts.
    pub shortest_hops_total: u64,
    /// Number of ordered pairs measured.
    pub pairs: u64,
    /// For every link, how many ordered pairs have it on a minimal legal
    /// route.
    pub link_loads: Vec<u64>,
}

impl RoutingStats {
    /// Mean path-length inflation of up\*/down\* over shortest paths.
    pub fn inflation(&self) -> f64 {
        if self.shortest_hops_total == 0 {
            1.0
        } else {
            self.legal_hops_total as f64 / self.shortest_hops_total as f64
        }
    }
}

/// Analyzer for one global topology: link directions, legal distances,
/// baseline distances, deadlock analysis and table synthesis.
#[derive(Clone)]
pub struct RouteComputer {
    uids: Vec<Uid>,
    index: BTreeMap<Uid, usize>,
    levels: Vec<u32>,
    /// Per node: its assigned switch number; `None` unless the topology
    /// numbers every switch (no table can be synthesized then).
    numbers: Option<Vec<SwitchNumber>>,
    pub(crate) links: Vec<GLink>,
    /// Per node: outgoing (link index, far node) pairs.
    adj: Vec<Vec<(usize, usize)>>,
}

/// Phase of a packet under the up\*/down\* rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Has not yet traversed a link downward; may still go up.
    Up,
    /// Has gone down; may only continue down.
    Down,
}

impl RouteComputer {
    /// Builds the analyzer from a global topology.
    ///
    /// Loopback links are omitted; a link is included only when both ends
    /// reported it, so an asymmetric view cannot route into a link the far
    /// end will not use.
    ///
    /// Returns `None` if the topology's parent pointers are broken (a
    /// cycle, a missing parent or root: no consistent level assignment).
    /// A correct reconfiguration never floods one, but the topology
    /// arrives from the wire; such a topology cannot be routed.
    pub fn new(global: &GlobalTopology) -> Option<Self> {
        let uids: Vec<Uid> = global.switches.iter().map(|s| s.uid).collect();
        let index: BTreeMap<Uid, usize> = uids.iter().enumerate().map(|(i, &u)| (u, i)).collect();
        let level_map = global.levels()?;
        let levels = uids
            .iter()
            .map(|u| level_map.get(u).copied())
            .collect::<Option<Vec<u32>>>()?;
        // Deduplicate links: keep one GLink per (end, end) pair reported by
        // both sides.
        let mut links: Vec<GLink> = Vec::new();
        let mut seen: std::collections::BTreeSet<(usize, PortIndex, usize, PortIndex)> =
            std::collections::BTreeSet::new();
        for (ai, s) in global.switches.iter().enumerate() {
            for l in &s.links {
                let Some(&bi) = index.get(&l.neighbor) else {
                    continue;
                };
                if bi == ai {
                    continue; // Looped-back links are omitted (§6.6.4).
                }
                // Canonical orientation: the smaller (node, port) end first.
                let (a, a_port, b, b_port) = if (ai, l.local_port) <= (bi, l.neighbor_port) {
                    (ai, l.local_port, bi, l.neighbor_port)
                } else {
                    (bi, l.neighbor_port, ai, l.local_port)
                };
                // Require the far end to have reported the same link.
                let far = &global.switches[b];
                let confirmed = far.links.iter().any(|fl| {
                    fl.local_port == b_port
                        && index.get(&fl.neighbor) == Some(&a)
                        && fl.neighbor_port == a_port
                });
                if !confirmed {
                    continue;
                }
                let glink = GLink {
                    a,
                    a_port,
                    b,
                    b_port,
                };
                if seen.insert((a, a_port, b, b_port)) {
                    links.push(glink);
                }
            }
        }
        let mut adj = vec![Vec::new(); uids.len()];
        for (li, l) in links.iter().enumerate() {
            adj[l.a].push((li, l.b));
            adj[l.b].push((li, l.a));
        }
        let numbers = uids.iter().map(|&u| global.number_of(u)).collect();
        Some(RouteComputer {
            uids,
            index,
            levels,
            numbers,
            links,
            adj,
        })
    }

    /// Number of usable (deduplicated, non-loopback) links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Number of switches.
    pub fn num_switches(&self) -> usize {
        self.uids.len()
    }

    pub(crate) fn node(&self, uid: Uid) -> Option<usize> {
        self.index.get(&uid).copied()
    }

    pub(crate) fn node_uid(&self, node: usize) -> Uid {
        self.uids[node]
    }

    /// Returns `true` if traversing `link` arriving at `to` moves toward
    /// the "up" end.
    pub(crate) fn is_up_traversal(&self, link: usize, to: usize) -> bool {
        let l = &self.links[link];
        let (a, b) = (l.a, l.b);
        let up_end = match self.levels[a].cmp(&self.levels[b]) {
            std::cmp::Ordering::Less => a,
            std::cmp::Ordering::Greater => b,
            std::cmp::Ordering::Equal => {
                if self.uids[a] < self.uids[b] {
                    a
                } else {
                    b
                }
            }
        };
        to == up_end
    }

    /// State index for the (node, phase) BFS.
    fn state(&self, node: usize, phase: Phase) -> usize {
        node * 2
            + match phase {
                Phase::Up => 0,
                Phase::Down => 1,
            }
    }

    /// Minimal legal hop counts from every (node, phase) state to `dst`.
    /// `u32::MAX` marks unreachable states.
    fn legal_dists_to(&self, dst: usize) -> Vec<u32> {
        let n = self.uids.len();
        let mut dist = vec![u32::MAX; n * 2];
        let mut queue = std::collections::VecDeque::new();
        for phase in [Phase::Up, Phase::Down] {
            dist[self.state(dst, phase)] = 0;
            queue.push_back((dst, phase));
        }
        // Reverse BFS: predecessors of (v, Down) are (u, *) where u→v is a
        // down traversal; predecessors of (v, Up) are (u, Up) where u→v is
        // up.
        while let Some((v, phase)) = queue.pop_front() {
            let d = dist[self.state(v, phase)];
            for &(li, u) in &self.adj[v] {
                let up = self.is_up_traversal(li, v);
                let preds: &[Phase] = match (up, phase) {
                    // u→v up keeps phase Up; only reachable into (v, Up).
                    (true, Phase::Up) => &[Phase::Up],
                    (true, Phase::Down) => &[],
                    // u→v down lands in (v, Down) from either phase at u.
                    (false, Phase::Down) => &[Phase::Up, Phase::Down],
                    (false, Phase::Up) => &[],
                };
                for &p in preds {
                    let s = self.state(u, p);
                    if dist[s] == u32::MAX {
                        dist[s] = d + 1;
                        queue.push_back((u, p));
                    }
                }
            }
        }
        dist
    }

    /// Unrestricted BFS hop counts from every node to `dst`.
    fn shortest_dists_to(&self, dst: usize) -> Vec<u32> {
        let n = self.uids.len();
        let mut dist = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        dist[dst] = 0;
        queue.push_back(dst);
        while let Some(v) = queue.pop_front() {
            for &(_, u) in &self.adj[v] {
                if dist[u] == u32::MAX {
                    dist[u] = dist[v] + 1;
                    queue.push_back(u);
                }
            }
        }
        dist
    }

    /// Minimal legal hop count from `src` (fresh packet) to `dst`.
    pub fn legal_dist(&self, src: Uid, dst: Uid) -> Option<u32> {
        let (s, d) = (self.node(src)?, self.node(dst)?);
        let dist = self.legal_dists_to(d);
        let v = dist[self.state(s, Phase::Up)];
        (v != u32::MAX).then_some(v)
    }

    /// Unrestricted shortest hop count from `src` to `dst`.
    pub fn unrestricted_dist(&self, src: Uid, dst: Uid) -> Option<u32> {
        let (s, d) = (self.node(src)?, self.node(dst)?);
        let dist = self.shortest_dists_to(d);
        let v = dist[s];
        (v != u32::MAX).then_some(v)
    }

    /// All-pairs statistics: path inflation and per-link route load.
    pub fn stats(&self) -> RoutingStats {
        let n = self.uids.len();
        let mut out = RoutingStats {
            link_loads: vec![0; self.links.len()],
            ..RoutingStats::default()
        };
        for d in 0..n {
            let legal = self.legal_dists_to(d);
            let short = self.shortest_dists_to(d);
            for s in 0..n {
                if s == d {
                    continue;
                }
                let lv = legal[self.state(s, Phase::Up)];
                let sv = short[s];
                if lv == u32::MAX || sv == u32::MAX {
                    continue;
                }
                out.pairs += 1;
                out.legal_hops_total += lv as u64;
                out.shortest_hops_total += sv as u64;
            }
            // Link load: a traversal u→v on link li lies on a minimal legal
            // route from s to d iff dist_from_start(u,p) + 1 + legal(v,p')
            // equals the total. Count once per (s, d) pair per link.
            for s in 0..n {
                if s == d || legal[self.state(s, Phase::Up)] == u32::MAX {
                    continue;
                }
                let total = legal[self.state(s, Phase::Up)];
                let from_src = self.legal_dists_from(s);
                for (li, _) in self.links.iter().enumerate() {
                    if self.link_on_min_route(li, &from_src, &legal, total) {
                        out.link_loads[li] += 1;
                    }
                }
            }
        }
        out
    }

    /// Minimal legal hop counts from the fresh state at `src` to every
    /// (node, phase) state, by forward BFS.
    fn legal_dists_from(&self, src: usize) -> Vec<u32> {
        self.legal_dists_from_state(src, Phase::Up)
    }

    /// Minimal legal hop counts from the state `(src, start)` to every
    /// (node, phase) state, by forward BFS. The workhorse of table
    /// synthesis: a switch needs one field per in-phase plus one per
    /// outgoing link's landing state — O(degree) BFS per table — where a
    /// reverse field per destination would cost O(switches) BFS per table
    /// and make 1024-switch reconfigurations quadratic. The fleet-wide
    /// dedup goes further still: every one of those fields is the
    /// from-field of *some* (node, phase) state, so a shared
    /// [`RouteCache`](crate::route_cache::RouteCache) computes the 2·V
    /// fields once and serves every switch slices of them.
    pub(crate) fn legal_dists_from_state(&self, src: usize, start: Phase) -> Vec<u32> {
        let n = self.uids.len();
        let mut dist = vec![u32::MAX; n * 2];
        let mut queue = std::collections::VecDeque::new();
        dist[self.state(src, start)] = 0;
        queue.push_back((src, start));
        while let Some((u, phase)) = queue.pop_front() {
            let d = dist[self.state(u, phase)];
            for &(li, v) in &self.adj[u] {
                let up = self.is_up_traversal(li, v);
                let next = match (phase, up) {
                    (Phase::Up, true) => Some(Phase::Up),
                    (_, false) => Some(Phase::Down),
                    (Phase::Down, true) => None,
                };
                if let Some(p) = next {
                    let s = self.state(v, p);
                    if dist[s] == u32::MAX {
                        dist[s] = d + 1;
                        queue.push_back((v, p));
                    }
                }
            }
        }
        dist
    }

    /// Distance from a forward-BFS field to node `d`, minimized over the
    /// phase the packet arrives in (delivery happens in either phase).
    fn dist_to_node(&self, field: &[u32], d: usize) -> u32 {
        field[self.state(d, Phase::Up)].min(field[self.state(d, Phase::Down)])
    }

    /// Whether some minimal legal route of length `total` crosses `link`.
    fn link_on_min_route(&self, li: usize, from_src: &[u32], to_dst: &[u32], total: u32) -> bool {
        let l = &self.links[li];
        for (u, v) in [(l.a, l.b), (l.b, l.a)] {
            let up = self.is_up_traversal(li, v);
            for phase in [Phase::Up, Phase::Down] {
                let du = from_src[self.state(u, phase)];
                if du == u32::MAX {
                    continue;
                }
                let next = match (phase, up) {
                    (Phase::Up, true) => Phase::Up,
                    (_, false) => Phase::Down,
                    (Phase::Down, true) => continue,
                };
                let dv = to_dst[self.state(v, next)];
                if dv != u32::MAX && du + 1 + dv == total {
                    return true;
                }
            }
        }
        false
    }

    /// Builds the channel-dependency edges induced by the forwarding
    /// discipline and reports whether they contain a cycle — the formal
    /// deadlock-possibility criterion. `UpDown` must always return `false`;
    /// `Unrestricted` returns `true` on any topology with a cycle of
    /// alternating shortest paths (e.g. a ring or torus).
    pub fn has_dependency_cycle(&self, kind: RouteKind) -> bool {
        let nch = self.links.len() * 2;
        // Channel id: 2*link + (0 if delivering into `a`, 1 into `b`).
        let ch = |li: usize, to: usize| -> usize {
            let l = &self.links[li];
            li * 2 + usize::from(to == l.b)
        };
        let mut edges: std::collections::BTreeSet<(usize, usize)> =
            std::collections::BTreeSet::new();
        for d in 0..self.uids.len() {
            match kind {
                RouteKind::UpDown => {
                    let to_dst = self.legal_dists_to(d);
                    // For every in-channel (n→u) and phase it induces, add
                    // edges to the out-channels the table would use.
                    for (li_in, l) in self.links.iter().enumerate() {
                        for (_n, u) in [(l.a, l.b), (l.b, l.a)] {
                            let phase = if self.is_up_traversal(li_in, u) {
                                Phase::Up
                            } else {
                                Phase::Down
                            };
                            if u == d {
                                continue;
                            }
                            for &(li_out, v) in &self.adj[u] {
                                let up = self.is_up_traversal(li_out, v);
                                let next = match (phase, up) {
                                    (Phase::Up, true) => Phase::Up,
                                    (_, false) => Phase::Down,
                                    (Phase::Down, true) => continue,
                                };
                                let dv = to_dst[self.state(v, next)];
                                let du = to_dst[self.state(u, phase)];
                                if du != u32::MAX && dv != u32::MAX && dv + 1 == du {
                                    edges.insert((ch(li_in, u), ch(li_out, v)));
                                }
                            }
                        }
                    }
                }
                RouteKind::Unrestricted => {
                    let to_dst = self.shortest_dists_to(d);
                    for (li_in, l) in self.links.iter().enumerate() {
                        for (n, u) in [(l.a, l.b), (l.b, l.a)] {
                            if u == d || to_dst[u] == u32::MAX {
                                continue;
                            }
                            // Only in-channels that actually carry packets
                            // to d: the upstream hop was itself a shortest
                            // step toward d.
                            if n == d || to_dst[n] != to_dst[u] + 1 {
                                continue;
                            }
                            for &(li_out, v) in &self.adj[u] {
                                if to_dst[v] != u32::MAX && to_dst[v] + 1 == to_dst[u] {
                                    edges.insert((ch(li_in, u), ch(li_out, v)));
                                }
                            }
                        }
                    }
                }
            }
        }
        let edge_list: Vec<(usize, usize)> = edges.into_iter().collect();
        find_cycle(nch, &edge_list).is_some()
    }
}

/// The table a switch runs with while an epoch forms: the constant
/// one-hop entries and nothing else (reconfiguration step 1). It never
/// varies, so it is built once; every join installs a handle on it, and
/// every synthesized table starts from it.
pub(crate) fn cleared_table() -> ForwardingTable {
    static ONE_HOP: OnceLock<ForwardingTable> = OnceLock::new();
    ONE_HOP
        .get_or_init(|| {
            let mut table = ForwardingTable::new();
            program_one_hop(&mut table);
            table
        })
        .clone()
}

/// Programs the constant one-hop entries that survive table clears:
/// `0001`–`000F` from the control processor go out the numbered port; from
/// any other port they go to the control processor (§6.3).
fn program_one_hop(table: &mut ForwardingTable) {
    for k in 1..MAX_PORTS as PortIndex {
        table.set(
            0,
            ShortAddress::one_hop(k),
            ForwardingEntry::alternatives(PortSet::single(k)),
        );
        for p in 1..MAX_PORTS as PortIndex {
            table.set(
                p,
                ShortAddress::one_hop(k),
                ForwardingEntry::alternatives(PortSet::single(0)),
            );
        }
    }
}

/// This switch's trunk attachment points: `(local port, link index, far
/// node)` pairs in deterministic [`RouteComputer`] link order. Shared by
/// the from-scratch path and the route cache so the distance fields they
/// pass to [`synthesize_table`] align positionally.
pub(crate) fn link_ports_of(rc: &RouteComputer, me: usize) -> Vec<(PortIndex, usize, usize)> {
    let mut link_ports: Vec<(PortIndex, usize, usize)> = Vec::new();
    for (li, l) in rc.links.iter().enumerate() {
        if l.a == me {
            link_ports.push((l.a_port, li, l.b));
        }
        if l.b == me {
            link_ports.push((l.b_port, li, l.a));
        }
    }
    link_ports
}

/// Computes the full forwarding table for switch `my_uid` from the global
/// topology, with `live_host_ports` being the ports currently classified
/// `s.host` (which may differ from the epoch snapshot — host arrivals and
/// departures patch tables locally without reconfiguration).
///
/// Returns `None` if `my_uid` is not part of the topology.
pub fn compute_forwarding_table(
    global: &GlobalTopology,
    my_uid: Uid,
    live_host_ports: &[PortIndex],
    kind: RouteKind,
) -> Option<ForwardingTable> {
    // A malformed topology (possible with the timeout-termination baseline,
    // which can ship partial trees) cannot be routed; the caller keeps the
    // cleared table.
    let rc = RouteComputer::new(global)?;
    let me = rc.node(my_uid)?;
    let link_ports = link_ports_of(&rc, me);

    // Forward distance fields, computed once per table: from my own two
    // in-phases, and from the landing state of each of my links (a hop out
    // of an `up` link lands in `(far, Up)`, a hop down in `(far, Down)`).
    // Next hops for *every* destination fall out of the minimality
    // equality `dist(far) + 1 == dist(me)` over these O(degree) fields —
    // identical tables to a reverse BFS per destination at a fraction of
    // the cost (legal distances are phase-path lengths either way).
    let (from_me_up, from_me_down, far_fields) = match kind {
        RouteKind::UpDown => {
            let fields: Vec<(PortIndex, bool, Vec<u32>)> = link_ports
                .iter()
                .map(|&(port, li, far)| {
                    let up = rc.is_up_traversal(li, far);
                    let landing = if up { Phase::Up } else { Phase::Down };
                    (port, up, rc.legal_dists_from_state(far, landing))
                })
                .collect();
            (
                rc.legal_dists_from_state(me, Phase::Up),
                rc.legal_dists_from_state(me, Phase::Down),
                fields,
            )
        }
        RouteKind::Unrestricted => {
            // Unrestricted distances are symmetric (undirected graph), so
            // `shortest_dists_to` doubles as a from-field.
            let fields: Vec<(PortIndex, bool, Vec<u32>)> = link_ports
                .iter()
                .map(|&(port, _li, far)| (port, false, rc.shortest_dists_to(far)))
                .collect();
            let from_me = rc.shortest_dists_to(me);
            (from_me.clone(), from_me, fields)
        }
    };
    let field_refs: Vec<(PortIndex, bool, &[u32])> = far_fields
        .iter()
        .map(|(port, up, field)| (*port, *up, field.as_slice()))
        .collect();
    synthesize_table(
        &rc,
        global,
        my_uid,
        live_host_ports,
        kind,
        &from_me_up,
        &from_me_down,
        &field_refs,
    )
}

/// Synthesizes switch `my_uid`'s forwarding table from precomputed
/// distance fields: the switch's own two in-phase fields plus, for each
/// trunk link in [`link_ports_of`] order, `(local port, is-up, landing
/// field of the far end)`. This is the single table-construction body —
/// [`compute_forwarding_table`] feeds it per-switch BFS results, the
/// shared [`RouteCache`](crate::route_cache::RouteCache) feeds it slices
/// of the fleet-wide field pool — so cached and from-scratch tables are
/// identical by construction, not by test alone.
#[allow(clippy::too_many_arguments)] // the full synthesis input, spelled out
pub(crate) fn synthesize_table(
    rc: &RouteComputer,
    global: &GlobalTopology,
    my_uid: Uid,
    live_host_ports: &[PortIndex],
    kind: RouteKind,
    from_me_up: &[u32],
    from_me_down: &[u32],
    far_fields: &[(PortIndex, bool, &[u32])],
) -> Option<ForwardingTable> {
    let me = rc.node(my_uid)?;
    let my_info = global.switch(my_uid)?;
    let numbers = rc.numbers.as_deref()?;
    let link_ports = link_ports_of(rc, me);
    let mut table = cleared_table();
    table.reserve_switch_numbers(numbers.iter().copied().max().unwrap_or(1));

    // In-ports and the phase a packet arriving there is in.
    let mut in_ports: Vec<(PortIndex, Phase)> = vec![(0, Phase::Up)];
    for &p in live_host_ports {
        in_ports.push((p, Phase::Up));
    }
    for &(port, li, _far) in &link_ports {
        // A packet arriving here traversed far→me; that traversal is up if
        // I am the up end.
        let phase = match kind {
            RouteKind::UpDown => {
                if rc.is_up_traversal(li, me) {
                    Phase::Up
                } else {
                    Phase::Down
                }
            }
            RouteKind::Unrestricted => Phase::Up,
        };
        in_ports.push((port, phase));
    }

    // --- Unicast entries per destination switch --------------------------
    let mut column: Vec<(PortIndex, ForwardingEntry)> = Vec::with_capacity(in_ports.len());
    for (d, &d_num) in numbers.iter().enumerate() {
        if d == me {
            // Local delivery: the control processor and every live host
            // port, from every in-port.
            let mut local_ports: Vec<PortIndex> = vec![0];
            local_ports.extend_from_slice(live_host_ports);
            for &q in &local_ports {
                let addr = ShortAddress::assigned(d_num, q);
                for &(in_p, _) in &in_ports {
                    table.set(
                        in_p,
                        addr,
                        ForwardingEntry::alternatives(PortSet::single(q)),
                    );
                }
            }
            continue;
        }
        // Remote switch: any port address of that switch routes the same
        // way; program a per-switch-number prefix entry per in-port.
        let next_hops = |phase: Phase| -> PortSet {
            let mut set = PortSet::EMPTY;
            match kind {
                RouteKind::UpDown => {
                    let from_me = match phase {
                        Phase::Up => &from_me_up,
                        Phase::Down => &from_me_down,
                    };
                    let here = rc.dist_to_node(from_me, d);
                    if here == u32::MAX {
                        return set;
                    }
                    for (port, up, field) in far_fields {
                        if phase == Phase::Down && *up {
                            continue; // Down-phase packets cannot go up.
                        }
                        let dv = rc.dist_to_node(field, d);
                        if dv != u32::MAX && dv + 1 == here {
                            set.insert(*port);
                        }
                    }
                }
                RouteKind::Unrestricted => {
                    let here = from_me_up[d];
                    if here == u32::MAX {
                        return set;
                    }
                    for (port, _up, field) in far_fields {
                        if field[d] != u32::MAX && field[d] + 1 == here {
                            set.insert(*port);
                        }
                    }
                }
            }
            set
        };
        let up_set = next_hops(Phase::Up);
        let down_set = next_hops(Phase::Down);
        column.clear();
        for &(in_p, phase) in &in_ports {
            let set = match phase {
                Phase::Up => up_set,
                Phase::Down => down_set,
            };
            if !set.is_empty() {
                column.push((in_p, ForwardingEntry::alternatives(set)));
            }
            // Empty set stays discard — the local enforcement of the rule.
        }
        table.set_switch_prefixes(d_num, &column);
    }

    // --- Special addresses -----------------------------------------------
    // Loopback: reflected back down the receiving host link.
    for &p in live_host_ports {
        table.set(
            p,
            ShortAddress::LOOPBACK,
            ForwardingEntry::alternatives(PortSet::single(p)),
        );
        // Host-to-local-switch service address.
        table.set(
            p,
            ShortAddress::TO_LOCAL_SWITCH,
            ForwardingEntry::alternatives(PortSet::single(0)),
        );
    }

    // --- Broadcast -------------------------------------------------------
    // My tree children and the port leading to each.
    let mut child_ports = PortSet::EMPTY;
    for child in global.children_of(my_uid) {
        // Find the link whose child-side port is the child's parent port.
        for &(port, li, far) in &link_ports {
            let l = &rc.links[li];
            let far_uid = rc.uids[far];
            if far_uid != child.uid {
                continue;
            }
            let far_port = if l.a == far { l.a_port } else { l.b_port };
            if far_port == child.parent_port {
                child_ports.insert(port);
            }
        }
    }
    let i_am_root = global.root == my_uid;
    let parent_port = my_info.parent_port;
    for addr in [
        ShortAddress::BROADCAST_ALL,
        ShortAddress::BROADCAST_SWITCHES,
        ShortAddress::BROADCAST_HOSTS,
    ] {
        let mut local = PortSet::EMPTY;
        if addr != ShortAddress::BROADCAST_HOSTS {
            local.insert(0);
        }
        if addr != ShortAddress::BROADCAST_SWITCHES {
            for &p in live_host_ports {
                local.insert(p);
            }
        }
        let flood = child_ports.union(local);
        for &(in_p, _) in &in_ports {
            let entry = if i_am_root {
                ForwardingEntry::simultaneous(flood)
            } else if in_p == parent_port {
                // Down phase: flood to children and local destinations.
                ForwardingEntry::simultaneous(flood)
            } else {
                // Up phase: forward toward the root.
                ForwardingEntry::alternatives(PortSet::single(parent_port))
            };
            if !entry.ports.is_empty() {
                table.set(in_p, addr, entry);
            }
        }
    }
    Some(table)
}

/// Derives the [`GlobalTopology`] the protocol would converge to on a
/// given live view — the reference result for integration tests and a
/// shortcut for experiments that only need routing, not the protocol run.
///
/// The spanning tree matches the distributed algorithm's fixpoint: the
/// root is the smallest UID, levels are BFS hop counts from it, and each
/// switch's parent is the neighbor at the previous level with the smallest
/// UID (lowest connecting port among parallel links). Unreachable switches
/// are omitted (they would form their own partition's configuration; see
/// [`global_from_component`]).
pub fn global_from_view(
    view: &NetView<'_>,
    epoch: Epoch,
    proposals: &BTreeMap<Uid, SwitchNumber>,
) -> Option<GlobalTopology> {
    let topo = view.topology();
    let root = view.up_switches().map(|s| topo.switch(s).uid).min()?;
    global_from_component(view, root, epoch, proposals)
}

/// [`global_from_view`] for the physical component of switch `root`,
/// rooted there: what that partition converges to when `root` is its
/// smallest UID. `None` if `root` is not an up switch of `view`.
pub fn global_from_component(
    view: &NetView<'_>,
    root: Uid,
    epoch: Epoch,
    proposals: &BTreeMap<Uid, SwitchNumber>,
) -> Option<GlobalTopology> {
    let topo = view.topology();
    let root_id = topo.switch_by_uid(root)?;
    if !view.switch_up(root_id) {
        return None;
    }
    let dist = autonet_topo::bfs_distances(view, root_id);
    let mut switches: Vec<SwitchInfo> = Vec::new();
    for s in view.up_switches() {
        let Some(my_level) = dist[s.0] else {
            continue; // Different partition.
        };
        let uid = topo.switch(s).uid;
        // Parent: neighbor at level-1 with smallest UID; among parallel
        // links to it, the lowest local port.
        let mut parent: Option<(Uid, PortIndex)> = None;
        if my_level > 0 {
            for (port, _lid, far) in view.neighbors(s) {
                if dist[far.switch.0] != Some(my_level - 1) {
                    continue;
                }
                let fuid = topo.switch(far.switch).uid;
                let better = match parent {
                    None => true,
                    Some((puid, pport)) => (fuid, port) < (puid, pport),
                };
                if better {
                    parent = Some((fuid, port));
                }
            }
        }
        let (parent, parent_port) = parent.unwrap_or((uid, 0));
        let links: Vec<LinkInfo> = view
            .neighbors(s)
            .map(|(port, _lid, far)| LinkInfo {
                local_port: port,
                neighbor: topo.switch(far.switch).uid,
                neighbor_port: far.port,
            })
            .collect();
        let host_ports: Vec<PortIndex> = topo.hosts_at(s).map(|(p, _, _)| p).collect();
        switches.push(SwitchInfo {
            uid,
            proposed_number: proposals.get(&uid).copied().unwrap_or(1),
            parent,
            parent_port,
            links,
            host_ports,
        });
    }
    let numbers = crate::addressing::assign_switch_numbers(&switches);
    Some(GlobalTopology {
        epoch,
        root,
        switches: std::sync::Arc::new(switches),
        numbers: std::sync::Arc::new(numbers),
    })
}

/// Convenience for tests: a global topology from a view with default
/// proposals.
pub fn global_from_view_simple(view: &NetView<'_>) -> Option<GlobalTopology> {
    global_from_view(view, Epoch(1), &BTreeMap::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use autonet_topo::gen;

    fn rc_for(topo: &autonet_topo::Topology) -> (GlobalTopology, RouteComputer) {
        let g = global_from_view_simple(&topo.view_all()).expect("non-empty");
        let rc = RouteComputer::new(&g).expect("well-formed");
        (g, rc)
    }

    #[test]
    fn updown_reaches_everything_on_many_topologies() {
        for topo in [
            gen::line(6, 3),
            gen::ring(8, 4),
            gen::torus(4, 4, 5),
            gen::tree(3, 2, 6),
            gen::random_connected(20, 8, 7),
        ] {
            let (g, rc) = rc_for(&topo);
            for a in g.switches.iter() {
                for b in g.switches.iter() {
                    assert!(
                        rc.legal_dist(a.uid, b.uid).is_some(),
                        "{:?} cannot reach {:?}",
                        a.uid,
                        b.uid
                    );
                }
            }
        }
    }

    #[test]
    fn legal_routes_at_least_as_long_as_shortest() {
        let topo = gen::torus(4, 4, 9);
        let (g, rc) = rc_for(&topo);
        for a in g.switches.iter() {
            for b in g.switches.iter() {
                let legal = rc.legal_dist(a.uid, b.uid).unwrap();
                let short = rc.unrestricted_dist(a.uid, b.uid).unwrap();
                assert!(legal >= short);
            }
        }
    }

    #[test]
    fn updown_is_deadlock_free_where_unrestricted_is_not() {
        let topo = gen::torus(4, 4, 11);
        let (_, rc) = rc_for(&topo);
        assert!(!rc.has_dependency_cycle(RouteKind::UpDown));
        assert!(rc.has_dependency_cycle(RouteKind::Unrestricted));
    }

    #[test]
    fn updown_deadlock_free_on_random_topologies() {
        for seed in 1..15 {
            let topo = gen::random_connected(16, 10, seed);
            let (_, rc) = rc_for(&topo);
            assert!(
                !rc.has_dependency_cycle(RouteKind::UpDown),
                "seed {seed} produced a cycle"
            );
        }
    }

    #[test]
    fn tree_topology_has_no_cycles_even_unrestricted() {
        let topo = gen::tree(2, 3, 13);
        let (_, rc) = rc_for(&topo);
        assert!(!rc.has_dependency_cycle(RouteKind::UpDown));
        assert!(!rc.has_dependency_cycle(RouteKind::Unrestricted));
    }

    #[test]
    fn all_links_usable() {
        // §6.6.4: the up*/down* rule excludes only looped-back links; every
        // usable link carries traffic on some minimal route.
        let topo = gen::torus(4, 4, 17);
        let (_, rc) = rc_for(&topo);
        let stats = rc.stats();
        assert_eq!(stats.link_loads.len(), rc.num_links());
        for (li, &load) in stats.link_loads.iter().enumerate() {
            assert!(load > 0, "link {li} carries no minimal route");
        }
    }

    #[test]
    fn inflation_is_reasonable_on_torus() {
        let topo = gen::torus(4, 4, 19);
        let (_, rc) = rc_for(&topo);
        let stats = rc.stats();
        let infl = stats.inflation();
        assert!(infl >= 1.0);
        assert!(
            infl < 2.0,
            "inflation {infl} implausibly high for a 4x4 torus"
        );
    }

    #[test]
    fn global_from_view_tree_is_bfs() {
        let topo = gen::line(4, 0); // UIDs 1..4 in order.
        let g = global_from_view_simple(&topo.view_all()).unwrap();
        assert_eq!(g.root, Uid::new(1));
        let levels = g.levels().unwrap();
        assert_eq!(levels[&Uid::new(4)], 3);
        // Switch 3's parent is switch 2.
        assert_eq!(g.switch(Uid::new(3)).unwrap().parent, Uid::new(2));
    }

    #[test]
    fn forwarding_table_local_delivery_and_discard() {
        let mut topo = gen::line(3, 0);
        gen::add_dual_homed_hosts(&mut topo, 1, 5);
        let g = global_from_view_simple(&topo.view_all()).unwrap();
        let my_uid = Uid::new(2); // Middle switch.
        let info = g.switch(my_uid).unwrap().clone();
        let table =
            compute_forwarding_table(&g, my_uid, &info.host_ports, RouteKind::UpDown).unwrap();
        let num = g.number_of(my_uid).unwrap();
        // Packets to my control processor are delivered to port 0.
        let cp_addr = ShortAddress::assigned(num, 0);
        let e = table.lookup(info.links[0].local_port, cp_addr);
        assert_eq!(e.ports, PortSet::single(0));
        // Packets to an unused port address on my switch discard.
        let unused = ShortAddress::assigned(num, 11);
        assert!(table.lookup(0, unused).is_discard());
    }

    #[test]
    fn forwarding_table_routes_across_line() {
        let topo = gen::line(3, 0);
        let g = global_from_view_simple(&topo.view_all()).unwrap();
        // Switch 1 (uid 1, the root) routes to switch 3 via its link to 2.
        let table = compute_forwarding_table(&g, Uid::new(1), &[], RouteKind::UpDown).unwrap();
        let n3 = g.number_of(Uid::new(3)).unwrap();
        let addr = ShortAddress::assigned(n3, 0);
        let e = table.lookup(0, addr);
        assert!(!e.is_discard());
        assert_eq!(e.ports.len(), 1);
    }

    #[test]
    fn broadcast_entries_flood_down_and_climb_up() {
        let mut topo = gen::line(3, 0);
        gen::add_dual_homed_hosts(&mut topo, 1, 5);
        let g = global_from_view_simple(&topo.view_all()).unwrap();
        // Middle switch (uid 2): packets from the parent flood to children
        // and hosts; packets from hosts climb to the parent.
        let info = g.switch(Uid::new(2)).unwrap().clone();
        let table =
            compute_forwarding_table(&g, Uid::new(2), &info.host_ports, RouteKind::UpDown).unwrap();
        let down = table.lookup(info.parent_port, ShortAddress::BROADCAST_ALL);
        assert!(down.broadcast);
        assert!(down.ports.contains(0), "CP gets bcast-all");
        let host_port = info.host_ports[0];
        let up = table.lookup(host_port, ShortAddress::BROADCAST_ALL);
        assert!(!up.broadcast);
        assert_eq!(up.ports, PortSet::single(info.parent_port));
    }

    #[test]
    fn cyclic_parent_pointers_cannot_be_routed() {
        // 30 and 40 name each other as parent: neither ever gets a level.
        let g = crate::topology::tests::cyclic_topology(Epoch(1));
        assert!(RouteComputer::new(&g).is_none());
        let me = Uid::new(20);
        assert!(compute_forwarding_table(&g, me, &[], RouteKind::UpDown).is_none());
    }

    #[test]
    fn down_to_up_entries_discard() {
        // On a ring, some destinations are unreachable legally from a
        // down-phase arrival; those entries must discard.
        let topo = gen::ring(6, 0);
        let g = global_from_view_simple(&topo.view_all()).unwrap();
        let rc = RouteComputer::new(&g).expect("well-formed");
        let mut found_discard = false;
        for s in g.switches.iter() {
            let table = compute_forwarding_table(&g, s.uid, &[], RouteKind::UpDown).unwrap();
            for d in g.switches.iter() {
                if d.uid == s.uid {
                    continue;
                }
                let num = g.number_of(d.uid).unwrap();
                for l in &s.links {
                    let e = table.lookup(l.local_port, ShortAddress::assigned(num, 0));
                    if e.is_discard() {
                        found_discard = true;
                    }
                }
            }
        }
        assert!(found_discard, "a ring must have down-phase discard entries");
        let _ = rc;
    }

    #[test]
    fn parallel_trunk_links_become_alternatives() {
        // 2x1 torus degenerates to a trunk pair between two switches.
        let topo = gen::torus(2, 1, 0);
        assert_eq!(topo.num_links(), 2);
        let g = global_from_view_simple(&topo.view_all()).unwrap();
        let table = compute_forwarding_table(&g, Uid::new(1), &[], RouteKind::UpDown).unwrap();
        let n2 = g.number_of(Uid::new(2)).unwrap();
        let e = table.lookup(0, ShortAddress::assigned(n2, 0));
        assert_eq!(e.ports.len(), 2, "both trunk links should be alternatives");
    }

    #[test]
    fn one_hop_entries_always_present() {
        let topo = gen::line(2, 0);
        let g = global_from_view_simple(&topo.view_all()).unwrap();
        let table = compute_forwarding_table(&g, Uid::new(1), &[], RouteKind::UpDown).unwrap();
        let e = table.lookup(0, ShortAddress::one_hop(1));
        assert_eq!(e.ports, PortSet::single(1));
        let back = table.lookup(5, ShortAddress::one_hop(3));
        assert_eq!(back.ports, PortSet::single(0));
    }
}
