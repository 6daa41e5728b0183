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
//! [`RouteComputer`] also models the unrestricted-shortest-path baseline
//! and its channel dependencies, for the experiments: up\*/down\* tables
//! are judged acyclic as synthesized, the baseline is never synthesized.

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::sync::OnceLock;

use autonet_switch::{ForwardingEntry, ForwardingTable, PortSet};
use autonet_topo::deadlock::find_cycle;
use autonet_topo::NetView;
use autonet_wire::{PortIndex, ShortAddress, SwitchNumber, Uid, MAX_PORTS};

use crate::epoch::Epoch;
use crate::topology::{GlobalTopology, LinkInfo, SwitchInfo};

/// The routing discipline a table is synthesized for. Up\*/down\* is
/// the only one; the type stays because `compute_forwarding_table` takes
/// it and the repo benchmark under `benchmark/` calls that with it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteKind {
    /// The paper's deadlock-free discipline.
    UpDown,
}

/// A deduplicated physical link in the global topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct GLink {
    a: usize,
    a_port: PortIndex,
    b: usize,
    b_port: PortIndex,
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
    /// Of those, the pairs whose legal distance equals the shortest.
    pub shortest_pairs: u64,
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
/// baseline distances, deadlock analysis and table synthesis. It is the
/// one owner of the topology's legal-distance fields: each is computed
/// on its first read and kept.
#[derive(Clone)]
pub struct RouteComputer {
    uids: Vec<Uid>,
    index: BTreeMap<Uid, usize>,
    levels: Vec<u32>,
    /// Per node: its assigned switch number; `None` unless the topology
    /// numbers every switch (no table can be synthesized then).
    numbers: Option<Vec<SwitchNumber>>,
    links: Vec<GLink>,
    /// Per node: outgoing (link index, far node) pairs, in link order.
    adj: Vec<Vec<(usize, usize)>>,
    /// Per (node, phase) state: the forward legal-distance field from it,
    /// filled on first read.
    fields: Vec<OnceCell<Vec<u32>>>,
}

/// Phase of a packet under the up\*/down\* rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Has not yet traversed a link downward; may still go up.
    Up,
    /// Has gone down; may only continue down.
    Down,
}

impl Phase {
    /// The phase after one more hop, up (`up`) or down; `None` for the
    /// one illegal turn, a down-phase packet going up.
    pub(crate) fn after(self, up: bool) -> Option<Phase> {
        match (self, up) {
            (Phase::Up, true) => Some(Phase::Up),
            (_, false) => Some(Phase::Down),
            (Phase::Down, true) => None,
        }
    }
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
        let fields = vec![OnceCell::new(); 2 * uids.len()];
        Some(RouteComputer {
            uids,
            index,
            levels,
            numbers,
            links,
            adj,
            fields,
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

    /// The port at which `node` attaches to link `link`.
    fn port_at(&self, link: usize, node: usize) -> PortIndex {
        let l = &self.links[link];
        if l.a == node {
            l.a_port
        } else {
            l.b_port
        }
    }

    /// Switch `me`'s trunk attachment points: `(local port, link index,
    /// far node)` in link order.
    pub(crate) fn link_ports(
        &self,
        me: usize,
    ) -> impl Iterator<Item = (PortIndex, usize, usize)> + '_ {
        self.adj[me]
            .iter()
            .map(move |&(li, far)| (self.port_at(li, me), li, far))
    }

    /// Everything synthesis reads about switch `me`'s own attachment: per
    /// trunk link, `(local port, far uid, far port, whether the hop to the
    /// far end goes up)`. The route cache's delta proof compares it.
    pub(crate) fn link_signature(
        &self,
        me: usize,
    ) -> impl Iterator<Item = (PortIndex, Uid, PortIndex, bool)> + '_ {
        self.link_ports(me).map(move |(port, li, far)| {
            let up = self.is_up_traversal(li, far);
            (port, self.uids[far], self.port_at(li, far), up)
        })
    }

    /// Returns `true` if traversing `link` arriving at `to` moves toward
    /// the "up" end.
    fn is_up_traversal(&self, link: usize, to: usize) -> bool {
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

    /// The phase a hop over `link` into `to` lands in: a hop up lands
    /// fresh, a hop down in the down phase.
    pub(crate) fn arrival_phase(&self, link: usize, to: usize) -> Phase {
        if self.is_up_traversal(link, to) {
            Phase::Up
        } else {
            Phase::Down
        }
    }

    /// State index for the (node, phase) BFS.
    fn state(&self, node: usize, phase: Phase) -> usize {
        node * 2
            + match phase {
                Phase::Up => 0,
                Phase::Down => 1,
            }
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
        let v = self.dist_to_node(self.field(s, Phase::Up), d);
        (v != u32::MAX).then_some(v)
    }

    /// Unrestricted shortest hop count from `src` to `dst`.
    pub fn unrestricted_dist(&self, src: Uid, dst: Uid) -> Option<u32> {
        let (s, d) = (self.node(src)?, self.node(dst)?);
        let dist = self.shortest_dists_to(d);
        let v = dist[s];
        (v != u32::MAX).then_some(v)
    }

    /// All-pairs statistics: path inflation and per-link route load, read
    /// off the legal-distance fields and one unrestricted BFS per source.
    pub fn stats(&self) -> RoutingStats {
        let n = self.uids.len();
        let mut out = RoutingStats {
            link_loads: vec![0; self.links.len()],
            ..RoutingStats::default()
        };
        for s in 0..n {
            let from_src = self.field(s, Phase::Up);
            let short = self.shortest_dists_to(s);
            for (d, &sv) in short.iter().enumerate() {
                let lv = self.dist_to_node(from_src, d);
                if s == d || lv == u32::MAX || sv == u32::MAX {
                    continue;
                }
                out.pairs += 1;
                out.shortest_pairs += u64::from(lv == sv);
                out.legal_hops_total += lv as u64;
                out.shortest_hops_total += sv as u64;
                // Link load: count each link once per (s, d) pair it lies
                // on some minimal legal route of.
                for li in 0..self.links.len() {
                    if self.link_on_min_route(li, from_src, d, lv) {
                        out.link_loads[li] += 1;
                    }
                }
            }
        }
        out
    }

    /// The legal-distance field from the state `(node, phase)`, computed
    /// on its first read and kept.
    pub(crate) fn field(&self, node: usize, phase: Phase) -> &[u32] {
        self.fields[self.state(node, phase)]
            .get_or_init(|| self.legal_dists_from_state(node, phase))
    }

    /// How many fields have been read so far.
    #[cfg(test)]
    pub(crate) fn filled_fields(&self) -> usize {
        self.fields.iter().filter(|f| f.get().is_some()).count()
    }

    /// Minimal legal hop counts from the state `(src, start)` to every
    /// (node, phase) state, by forward BFS: the body of
    /// [`RouteComputer::field`]. A table reads one field per in-phase plus
    /// one per outgoing link's landing state — O(degree) BFS per table —
    /// where a reverse field per destination would cost O(switches) BFS
    /// per table and make 1024-switch reconfigurations quadratic. Every
    /// one of those fields is the from-field of *some* (node, phase)
    /// state, so switches served from one analyzer by the shared
    /// [`RouteCache`](crate::route_cache::RouteCache) share each field,
    /// and the fleet runs at most 2·V BFS per topology.
    fn legal_dists_from_state(&self, src: usize, start: Phase) -> Vec<u32> {
        let n = self.uids.len();
        let mut dist = vec![u32::MAX; n * 2];
        let mut queue = std::collections::VecDeque::new();
        dist[self.state(src, start)] = 0;
        queue.push_back((src, start));
        while let Some((u, phase)) = queue.pop_front() {
            let d = dist[self.state(u, phase)];
            for &(li, v) in &self.adj[u] {
                if let Some(p) = phase.after(self.is_up_traversal(li, v)) {
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

    /// Whether some minimal legal route of length `total` to `d`, whose
    /// source's field is `from_src`, crosses link `li`.
    fn link_on_min_route(&self, li: usize, from_src: &[u32], d: usize, total: u32) -> bool {
        let l = &self.links[li];
        for (u, v) in [(l.a, l.b), (l.b, l.a)] {
            let up = self.is_up_traversal(li, v);
            for phase in [Phase::Up, Phase::Down] {
                let du = from_src[self.state(u, phase)];
                let Some(next) = phase.after(up) else {
                    continue;
                };
                if du == u32::MAX {
                    continue;
                }
                let dv = self.dist_to_node(self.field(v, next), d);
                if dv != u32::MAX && du + 1 + dv == total {
                    return true;
                }
            }
        }
        false
    }

    /// Whether unrestricted shortest-path routing, modelled over every
    /// minimal route to each destination, has a cycle in its channel
    /// dependency graph: true on any topology with a cycle of alternating
    /// shortest paths (a ring, a torus), false on trees. Up\*/down\*
    /// tables are judged as synthesized instead, by the table fold in
    /// `autonet-check`.
    pub fn unrestricted_dependency_cycle(&self) -> bool {
        let nch = self.links.len() * 2;
        // Channel id: 2*link + (0 if delivering into `a`, 1 into `b`).
        let ch = |li: usize, to: usize| -> usize {
            let l = &self.links[li];
            li * 2 + usize::from(to == l.b)
        };
        let mut edges: std::collections::BTreeSet<(usize, usize)> =
            std::collections::BTreeSet::new();
        for d in 0..self.uids.len() {
            let to_dst = self.shortest_dists_to(d);
            for (li_in, l) in self.links.iter().enumerate() {
                for (n, u) in [(l.a, l.b), (l.b, l.a)] {
                    if u == d || to_dst[u] == u32::MAX {
                        continue;
                    }
                    // Only in-channels that actually carry packets to d:
                    // the upstream hop was itself a shortest step toward d.
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

/// Computes the full forwarding table for switch `my_uid` from the global
/// topology, with `live_host_ports` being the ports currently classified
/// `s.host` (which may differ from the epoch snapshot — host arrivals and
/// departures patch tables locally without reconfiguration).
///
/// Returns `None` if `my_uid` is not part of the topology. This is the
/// from-scratch reference the route cache is checked against: a fresh
/// analyzer, so only the degree + 2 fields its switch reads are computed.
pub fn compute_forwarding_table(
    global: &GlobalTopology,
    my_uid: Uid,
    live_host_ports: &[PortIndex],
    _kind: RouteKind,
) -> Option<ForwardingTable> {
    // A malformed topology (possible with the timeout-termination baseline,
    // which can ship partial trees) cannot be routed; the caller keeps the
    // cleared table.
    let rc = RouteComputer::new(global)?;
    synthesize_table(&rc, global, my_uid, live_host_ports)
}

/// Synthesizes switch `my_uid`'s forwarding table from `rc`'s fields: the
/// switch's own two in-phase fields and, per trunk link, the far end's
/// landing field. Next hops for *every* destination fall out of the
/// minimality equality `dist(far) + 1 == dist(me)` over these O(degree)
/// fields. This is the single table-construction body —
/// [`compute_forwarding_table`] runs it on a fresh analyzer, the shared
/// [`RouteCache`](crate::route_cache::RouteCache) on one analyzer per
/// topology — so cached and from-scratch tables are identical by
/// construction, not by test alone.
pub(crate) fn synthesize_table(
    rc: &RouteComputer,
    global: &GlobalTopology,
    my_uid: Uid,
    live_host_ports: &[PortIndex],
) -> Option<ForwardingTable> {
    let me = rc.node(my_uid)?;
    let my_info = global.switch(my_uid)?;
    let numbers = rc.numbers.as_deref()?;
    let link_ports: Vec<(PortIndex, usize, usize)> = rc.link_ports(me).collect();
    let mut table = cleared_table();
    table.reserve_switch_numbers(numbers.iter().copied().max().unwrap_or(1));

    // The fields this table reads, gathered once: my two in-phases, and
    // per trunk link `(local port, is-up, landing field of the far end)`.
    let (from_me_up, from_me_down) = (rc.field(me, Phase::Up), rc.field(me, Phase::Down));
    let far_fields: Vec<(PortIndex, bool, &[u32])> = link_ports
        .iter()
        .map(|&(port, li, far)| {
            let phase = rc.arrival_phase(li, far);
            (port, phase == Phase::Up, rc.field(far, phase))
        })
        .collect();

    // In-ports and the phase a packet arriving there is in.
    let mut in_ports: Vec<(PortIndex, Phase)> = vec![(0, Phase::Up)];
    for &p in live_host_ports {
        in_ports.push((p, Phase::Up));
    }
    for &(port, li, _far) in &link_ports {
        // A packet arriving here traversed far→me; that traversal is up if
        // I am the up end.
        in_ports.push((port, rc.arrival_phase(li, me)));
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
            let from_me = match phase {
                Phase::Up => from_me_up,
                Phase::Down => from_me_down,
            };
            let here = rc.dist_to_node(from_me, d);
            if here == u32::MAX {
                return set;
            }
            for &(port, up, far_field) in &far_fields {
                if phase == Phase::Down && up {
                    continue; // Down-phase packets cannot go up.
                }
                let dv = rc.dist_to_node(far_field, d);
                if dv != u32::MAX && dv + 1 == here {
                    set.insert(port);
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
            if rc.uids[far] == child.uid && rc.port_at(li, far) == child.parent_port {
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
    fn unrestricted_routes_cycle_except_on_trees() {
        let (_, torus) = rc_for(&gen::torus(4, 4, 11));
        assert!(torus.unrestricted_dependency_cycle());
        let (_, tree) = rc_for(&gen::tree(2, 3, 13));
        assert!(!tree.unrestricted_dependency_cycle());
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
    fn ring_stats_count_the_pairs_at_shortest() {
        // E5's ring-12 row: 84.848 % of the pairs at shortest.
        let (_, rc) = rc_for(&gen::ring(12, 3));
        let stats = rc.stats();
        assert_eq!((stats.pairs, stats.shortest_pairs), (132, 112));
        assert_eq!(format!("{:.3}", stats.inflation()), "1.185");
    }

    /// The analyzer computes a field on its first read and no other: one
    /// table reads its switch's two in-phases and one landing state per
    /// trunk link, the statistics read every state a legal route reaches.
    #[test]
    fn fields_fill_on_first_read() {
        let (g, rc) = rc_for(&gen::fat_tree(&[2, 2], 3));
        assert_eq!(rc.filled_fields(), 0);
        let me = rc.num_switches() / 2;
        let trunks = rc.link_ports(me).count();
        assert!(trunks > 1);
        synthesize_table(&rc, &g, rc.uids[me], &[]).unwrap();
        assert_eq!(rc.filled_fields(), 2 + trunks);
        rc.stats();
        // Every state but the root's down phase: a hop into the root
        // always goes up, so no packet is ever there going down.
        assert_eq!(rc.filled_fields(), 2 * rc.num_switches() - 1);
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
