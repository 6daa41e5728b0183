//! Fleet-shared, incremental forwarding-table computation.
//!
//! Step 5 of reconfiguration runs at every switch independently: each one
//! receives the same agreed [`GlobalTopology`] and derives its own
//! forwarding table from it. In the real Autonet that was the only
//! option — the computation ran on each switch's own 68000 — but in the
//! simulator all N switches live in one process, so the fleet was paying
//! the O(V+E) route analysis (link dedup and orientation, legal-distance
//! BFS fields) N times per epoch for byte-identical inputs. At the scale
//! tier this dominated the cut-heal wall clock (ROADMAP open item 2).
//!
//! [`RouteCache`] deduplicates that work without changing a single table
//! byte:
//!
//! - **Shared route state.** The first serve of a topology (keyed by
//!   [`GlobalTopology::content_digest`], which deliberately excludes the
//!   epoch number so back-to-back epochs that agree on the same shape
//!   coalesce into one build) constructs one [`RouteComputer`] and the
//!   full pool of per-(node, phase) legal-distance fields. Every
//!   per-switch field that `compute_forwarding_table` would BFS for —
//!   the switch's own two in-phase fields and each trunk link's landing
//!   field — is a slice of that pool, so the fleet does the route
//!   analysis once and each switch only runs table *synthesis*
//!   ([`synthesize_table`], the same code the from-scratch path runs —
//!   identical output by construction).
//! - **Memoized serves.** Tables are memoized per `(switch, live host
//!   ports)` within a topology generation, so re-serves (host-port
//!   transitions, retransmitted completions) are a map lookup.
//! - **Delta reuse across epochs.** The cache keeps the previous
//!   generation. When a fault leaves the stable subtree intact — same
//!   root, same parent pointers, same switch numbering, only the link
//!   set changed — a switch whose own link signature and whose relevant
//!   distance fields are unchanged gets the previous epoch's table
//!   back verbatim: every input to synthesis has been proven equal, so
//!   the output is equal and need not be rebuilt. Switches whose up/down
//!   neighborhood actually changed fall through to synthesis.
//!
//! The digest reads the whole topology, so a serve skips it when the
//! topology asked about is the current generation's held one by identity
//! ([`GlobalTopology::same_object`]). The generation keeps its clone
//! alive and an `Arc` with two owners is never edited in place, so
//! identity implies the digest would match; any other topology is hashed,
//! and the generation its digest names takes over the new handle. One
//! switch per flood hashes, the rest are recognised.
//!
//! A full rebuild is forced whenever the digest is new (switch set,
//! spanning tree, numbering or any adjacency changed) or the topology
//! cannot be leveled (malformed tree from the timeout-termination
//! baseline); delta reuse is forced off whenever the tree precondition
//! fails. The cache is shared through the harness/pool layers as an
//! `Arc<RouteCache>`; every serve is a pure function of its inputs, so
//! sharing it across worlds, shards or threads cannot perturb behavior —
//! only wall-clock cost.

use std::collections::BTreeMap;
use std::sync::Mutex;

use autonet_switch::ForwardingTable;
use autonet_wire::{PortIndex, Uid};

use crate::routes::{link_ports_of, synthesize_table, Phase, RouteComputer};
use crate::topology::GlobalTopology;

/// Work counters, for the benches and the equivalence experiments. Purely
/// observational — nothing behavioral reads them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteCacheStats {
    /// Shared-route builds: one per distinct topology content served.
    pub builds: u64,
    /// Serves answered from the current generation's memo.
    pub served_memo: u64,
    /// Serves answered by reusing the previous generation's table after
    /// the delta proof (tree intact, fields unchanged).
    pub delta_reused: u64,
    /// Serves that ran table synthesis against the shared fields.
    pub synthesized: u64,
    /// Serves that returned no table (switch absent or topology
    /// malformed).
    pub unroutable: u64,
    /// Wall-clock nanoseconds spent building shared route state (the
    /// once-per-topology 2V field sweep).
    pub build_wall_ns: u64,
    /// Wall-clock nanoseconds serving tables (memo hits and synthesis;
    /// everything in `serve` except delta reuse).
    pub serve_wall_ns: u64,
    /// Wall-clock nanoseconds spent on delta-proof serves (proof plus
    /// the table handover).
    pub delta_wall_ns: u64,
}

impl RouteCacheStats {
    /// The work counters without the wall-clock attribution — what the
    /// equivalence experiments compare, since wall time is never
    /// reproducible.
    pub fn work(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.builds,
            self.served_memo,
            self.delta_reused,
            self.synthesized,
            self.unroutable,
        )
    }
}

/// The shared per-topology route state: one analyzer plus the complete
/// pool of forward legal-distance fields and per-node link signatures.
#[derive(Clone)]
struct SharedRoutes {
    rc: RouteComputer,
    /// `from_up[v]` = legal distances from the fresh state `(v, Up)`.
    from_up: Vec<Vec<u32>>,
    /// `from_down[v]` = legal distances from `(v, Down)`.
    from_down: Vec<Vec<u32>>,
    /// Per node: `(local port, far uid, far port, arriving-at-far is up)`
    /// for each incident deduplicated trunk link — everything synthesis
    /// reads about a switch's own attachment, for the delta proof.
    link_sig: Vec<Vec<(PortIndex, Uid, PortIndex, bool)>>,
}

impl SharedRoutes {
    /// Builds the shared state; `None` if the tree cannot be leveled (the
    /// same condition under which `compute_forwarding_table` bails).
    fn build(global: &GlobalTopology) -> Option<SharedRoutes> {
        let rc = RouteComputer::new(global)?;
        let n = rc.num_switches();
        let from_up: Vec<Vec<u32>> = (0..n)
            .map(|v| rc.legal_dists_from_state(v, Phase::Up))
            .collect();
        let from_down: Vec<Vec<u32>> = (0..n)
            .map(|v| rc.legal_dists_from_state(v, Phase::Down))
            .collect();
        let link_sig: Vec<Vec<(PortIndex, Uid, PortIndex, bool)>> = (0..n)
            .map(|v| {
                link_ports_of(&rc, v)
                    .into_iter()
                    .map(|(port, li, far)| {
                        let l = &rc.links[li];
                        let far_port = if l.a == far { l.a_port } else { l.b_port };
                        (
                            port,
                            rc.node_uid(far),
                            far_port,
                            rc.is_up_traversal(li, far),
                        )
                    })
                    .collect()
            })
            .collect();
        Some(SharedRoutes {
            rc,
            from_up,
            from_down,
            link_sig,
        })
    }

    /// Synthesizes one switch's table from slices of the shared pool —
    /// exactly the fields `compute_forwarding_table` would have BFS'd.
    fn table_for_switch(
        &self,
        global: &GlobalTopology,
        my_uid: Uid,
        live_host_ports: &[PortIndex],
    ) -> Option<ForwardingTable> {
        let me = self.rc.node(my_uid)?;
        let far_fields: Vec<(PortIndex, bool, &[u32])> = link_ports_of(&self.rc, me)
            .into_iter()
            .map(|(port, li, far)| {
                let up = self.rc.is_up_traversal(li, far);
                let field = if up {
                    self.from_up[far].as_slice()
                } else {
                    self.from_down[far].as_slice()
                };
                (port, up, field)
            })
            .collect();
        synthesize_table(
            &self.rc,
            global,
            my_uid,
            live_host_ports,
            &self.from_up[me],
            &self.from_down[me],
            &far_fields,
        )
    }
}

/// One topology generation: the digest it is keyed by, the shared route
/// state (absent when the topology is malformed), the topology itself
/// (cheap: `Arc` fields), and the tables served so far.
#[derive(Clone)]
struct Generation {
    digest: u64,
    global: GlobalTopology,
    shared: Option<SharedRoutes>,
    tables: BTreeMap<(Uid, Vec<PortIndex>), Option<ForwardingTable>>,
}

#[derive(Clone)]
struct Inner {
    current: Option<Generation>,
    previous: Option<Generation>,
    /// Whether the (current, previous) pair satisfies the delta
    /// precondition: identical switch sequence, root, numbering and
    /// parent pointers (the comparison is symmetric, so swapping the
    /// generations preserves it).
    delta_ok: bool,
    stats: RouteCacheStats,
}

/// The fleet-shared route cache. See the module docs for the contract:
/// for every input, [`RouteCache::table_for`] returns exactly what
/// [`compute_forwarding_table`](crate::routes::compute_forwarding_table)
/// with [`RouteKind::UpDown`](crate::routes::RouteKind::UpDown) returns.
pub struct RouteCache {
    inner: Mutex<Inner>,
}

impl RouteCache {
    /// An empty cache.
    pub fn new() -> Self {
        RouteCache {
            inner: Mutex::new(Inner {
                current: None,
                previous: None,
                delta_ok: false,
                stats: RouteCacheStats::default(),
            }),
        }
    }

    /// A snapshot of the work counters.
    pub fn stats(&self) -> RouteCacheStats {
        self.inner.lock().expect("route cache poisoned").stats
    }

    /// Serves switch `my_uid`'s forwarding table for `global` with the
    /// given live host ports — byte-identical to the from-scratch
    /// computation, at a fraction of the fleet-wide cost.
    pub fn table_for(
        &self,
        global: &GlobalTopology,
        my_uid: Uid,
        live_host_ports: &[PortIndex],
    ) -> Option<ForwardingTable> {
        let mut inner = self.inner.lock().expect("route cache poisoned");
        let held = inner.current.as_ref();
        if !held.is_some_and(|g| g.global.same_object(global)) {
            // Hash outside the lock: shards share one cache.
            drop(inner);
            let digest = global.content_digest();
            inner = self.inner.lock().expect("route cache poisoned");
            inner.ensure_generation(digest, global);
        }
        inner.serve(my_uid, live_host_ports)
    }
}

impl Default for RouteCache {
    fn default() -> Self {
        RouteCache::new()
    }
}

/// A deep copy: both generations, their memoized tables and the work
/// counters, behind a lock of its own. A forked world continues from the
/// copy exactly as the original would have — same memo hits, same delta
/// proofs, same counters — without either side seeing the other's serves.
impl Clone for RouteCache {
    fn clone(&self) -> Self {
        RouteCache {
            inner: Mutex::new(self.inner.lock().expect("route cache poisoned").clone()),
        }
    }
}

/// The delta precondition: the stable tree and addressing survived — same
/// switch sequence, root, numbering and parent pointers. Only the link
/// set may differ. Symmetric in its arguments.
fn tree_preserved(a: &GlobalTopology, b: &GlobalTopology) -> bool {
    a.root == b.root
        && a.switches.len() == b.switches.len()
        && a.numbers == b.numbers
        && a.switches
            .iter()
            .zip(b.switches.iter())
            .all(|(x, y)| x.uid == y.uid && x.parent == y.parent && x.parent_port == y.parent_port)
}

impl Inner {
    /// Makes `current` the generation for `digest`, rotating or swapping
    /// as needed. A digest matching `previous` (a fault that healed back
    /// to the prior shape) promotes it back without rebuilding.
    fn ensure_generation(&mut self, digest: u64, global: &GlobalTopology) {
        if self.previous.as_ref().is_some_and(|g| g.digest == digest) {
            // `delta_ok` is symmetric; the swap preserves it.
            std::mem::swap(&mut self.current, &mut self.previous);
        }
        if let Some(g) = self.current.as_mut().filter(|g| g.digest == digest) {
            // Same content under new allocations (the next epoch's flood):
            // hold those, so the rest of that flood is served by identity.
            g.global = global.clone();
            return;
        }
        let t0 = std::time::Instant::now();
        let shared = SharedRoutes::build(global);
        self.stats.build_wall_ns += t0.elapsed().as_nanos() as u64;
        if shared.is_some() {
            self.stats.builds += 1;
        }
        let fresh = Generation {
            digest,
            global: global.clone(),
            shared,
            tables: BTreeMap::new(),
        };
        self.previous = self.current.replace(fresh);
        self.delta_ok = match (&self.current, &self.previous) {
            (Some(c), Some(p)) => {
                c.shared.is_some() && p.shared.is_some() && tree_preserved(&c.global, &p.global)
            }
            _ => false,
        };
    }

    /// The delta proof for one switch: its link signature and every
    /// distance field its synthesis reads are unchanged from the previous
    /// generation, so the previous table is the current table.
    fn delta_donor(&self, my_uid: Uid, live_host_ports: &[PortIndex]) -> Option<ForwardingTable> {
        if !self.delta_ok {
            return None;
        }
        let cur = self.current.as_ref()?.shared.as_ref()?;
        let prev_gen = self.previous.as_ref()?;
        let prev = prev_gen.shared.as_ref()?;
        let me = cur.rc.node(my_uid)?;
        if cur.link_sig[me] != prev.link_sig[me]
            || cur.from_up[me] != prev.from_up[me]
            || cur.from_down[me] != prev.from_down[me]
        {
            return None;
        }
        for (_port, li, far) in link_ports_of(&cur.rc, me) {
            let changed = if cur.rc.is_up_traversal(li, far) {
                cur.from_up[far] != prev.from_up[far]
            } else {
                cur.from_down[far] != prev.from_down[far]
            };
            if changed {
                return None;
            }
        }
        prev_gen
            .tables
            .get(&(my_uid, live_host_ports.to_vec()))?
            .clone()
    }

    fn serve(&mut self, my_uid: Uid, live_host_ports: &[PortIndex]) -> Option<ForwardingTable> {
        let t0 = std::time::Instant::now();
        let key = (my_uid, live_host_ports.to_vec());
        if let Some(memo) = self.current.as_ref().and_then(|g| g.tables.get(&key)) {
            self.stats.served_memo += 1;
            let memo = memo.clone();
            self.stats.serve_wall_ns += t0.elapsed().as_nanos() as u64;
            return memo;
        }
        let table = match self.delta_donor(my_uid, live_host_ports) {
            Some(t) => {
                self.stats.delta_reused += 1;
                self.stats.delta_wall_ns += t0.elapsed().as_nanos() as u64;
                Some(t)
            }
            None => {
                let cur = self.current.as_mut().expect("generation ensured");
                let t = cur
                    .shared
                    .as_ref()
                    .and_then(|s| s.table_for_switch(&cur.global, my_uid, live_host_ports));
                match &t {
                    Some(_) => self.stats.synthesized += 1,
                    None => self.stats.unroutable += 1,
                }
                self.stats.serve_wall_ns += t0.elapsed().as_nanos() as u64;
                t
            }
        };
        self.current
            .as_mut()
            .expect("generation ensured")
            .tables
            .insert(key, table.clone());
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::Epoch;
    use crate::routes::{
        compute_forwarding_table, global_from_view, global_from_view_simple, RouteKind,
    };
    use autonet_topo::gen;
    use std::collections::BTreeMap;

    fn digests_match(g: &GlobalTopology, cache: &RouteCache, hosts: &[PortIndex]) {
        for s in g.switches.iter() {
            let scratch = compute_forwarding_table(g, s.uid, hosts, RouteKind::UpDown);
            let cached = cache.table_for(g, s.uid, hosts);
            match (&scratch, &cached) {
                (Some(a), Some(b)) => {
                    assert_eq!(
                        a.canonical_digest(),
                        b.canonical_digest(),
                        "switch {:?} cached table diverged",
                        s.uid
                    );
                }
                (None, None) => {}
                _ => panic!(
                    "switch {:?}: scratch {:?} vs cached {:?}",
                    s.uid,
                    scratch.is_some(),
                    cached.is_some()
                ),
            }
        }
    }

    #[test]
    fn cached_tables_match_scratch_on_assorted_topologies() {
        for topo in [
            gen::line(6, 3),
            gen::ring(8, 4),
            gen::torus(4, 4, 5),
            gen::tree(3, 2, 6),
            gen::random_connected(20, 8, 7),
        ] {
            let g = global_from_view_simple(&topo.view_all()).expect("non-empty");
            let cache = RouteCache::new();
            digests_match(&g, &cache, &[]);
            digests_match(&g, &cache, &[5, 6]);
            digests_match(&g, &cache, &[]); // identical keys re-served
            let stats = cache.stats();
            assert_eq!(stats.builds, 1, "one content digest, one build");
            assert!(stats.served_memo > 0, "second pass must hit the memo");
            // Wall attribution tracks the work that actually happened.
            assert!(stats.build_wall_ns > 0, "the build took real time");
            assert!(stats.serve_wall_ns > 0, "serves took real time");
            assert_eq!(stats.delta_wall_ns, 0, "no delta serves happened");
            assert_eq!(
                stats.work(),
                (
                    stats.builds,
                    stats.served_memo,
                    stats.delta_reused,
                    stats.synthesized,
                    stats.unroutable
                )
            );
        }
    }

    #[test]
    fn epoch_change_without_content_change_coalesces() {
        let topo = gen::torus(4, 4, 9);
        let mut g = global_from_view_simple(&topo.view_all()).unwrap();
        let cache = RouteCache::new();
        digests_match(&g, &cache, &[]);
        g.epoch = Epoch(7);
        digests_match(&g, &cache, &[]);
        assert_eq!(cache.stats().builds, 1, "same content must coalesce");
    }

    #[test]
    fn identity_path_serves_what_the_hash_path_serves() {
        let topo = gen::torus(4, 4, 9);
        let g = global_from_view_simple(&topo.view_all()).unwrap();
        let cache = RouteCache::new();
        // Equal content behind fresh allocations: only the digest can tell.
        let fresh = GlobalTopology {
            switches: std::sync::Arc::new((*g.switches).clone()),
            numbers: std::sync::Arc::new((*g.numbers).clone()),
            ..g.clone()
        };
        assert!(!fresh.same_object(&g));
        let uid = g.switches[3].uid;
        let hashed = cache.table_for(&g, uid, &[5]);
        let rehashed = cache.table_for(&fresh, uid, &[5]);
        // The generation now holds `fresh`'s allocations: its clone is
        // served by identity, and `g` goes back through the digest.
        let by_identity = cache.table_for(&fresh.clone(), uid, &[5]);
        let back = cache.table_for(&g, uid, &[5]);
        assert!(hashed.is_some());
        assert!(hashed == rehashed && hashed == by_identity && hashed == back);
        let stats = cache.stats();
        assert_eq!(
            (stats.builds, stats.synthesized, stats.served_memo),
            (1, 1, 3)
        );
        digests_match(&fresh, &cache, &[5]);
    }

    #[test]
    fn nontree_link_cut_delta_reuses_far_switches() {
        // A 6-switch ring: cutting one link keeps the BFS tree intact for
        // the right choice of link (the ring's "back" edge is not a tree
        // link), so switches far from the cut must delta-reuse.
        let topo = gen::ring(6, 0);
        let mut view = topo.view_all();
        let g1 = global_from_view(&view, Epoch(1), &BTreeMap::new()).unwrap();
        // Find a non-tree link: one where neither end's parent_port names
        // the other end.
        let non_tree = topo
            .link_ids()
            .find(|&l| {
                let spec = topo.link(l);
                let a = topo.switch(spec.a.switch).uid;
                let b = topo.switch(spec.b.switch).uid;
                let ia = g1.switch(a).unwrap();
                let ib = g1.switch(b).unwrap();
                !((ia.parent == b && ia.parent_port == spec.a.port)
                    || (ib.parent == a && ib.parent_port == spec.b.port))
            })
            .expect("a ring has one non-tree link");
        view.fail_link(non_tree);
        let g2 = global_from_view(&view, Epoch(2), &BTreeMap::new()).unwrap();
        assert!(
            tree_preserved(&g1, &g2),
            "cutting a non-tree link keeps the tree"
        );

        let cache = RouteCache::new();
        digests_match(&g1, &cache, &[]);
        digests_match(&g2, &cache, &[]);
        let stats = cache.stats();
        assert_eq!(stats.builds, 2);
        assert!(
            stats.delta_reused > 0,
            "switches away from the cut must reuse: {stats:?}"
        );
    }

    #[test]
    fn healed_fault_promotes_the_previous_generation() {
        let topo = gen::torus(3, 3, 2);
        let mut view = topo.view_all();
        let g1 = global_from_view(&view, Epoch(1), &BTreeMap::new()).unwrap();
        view.fail_link(autonet_topo::LinkId(0));
        let g2 = global_from_view(&view, Epoch(2), &BTreeMap::new()).unwrap();
        let cache = RouteCache::new();
        digests_match(&g1, &cache, &[]);
        digests_match(&g2, &cache, &[]);
        // Heal: back to the original shape under a new epoch.
        view.repair_link(autonet_topo::LinkId(0));
        let g3 = global_from_view(&view, Epoch(3), &BTreeMap::new()).unwrap();
        digests_match(&g3, &cache, &[]);
        assert_eq!(
            cache.stats().builds,
            2,
            "healing back must promote, not rebuild"
        );
    }

    /// Serves hand out handles on one image: a second serve of the same
    /// key shares the first's storage, and a write through one handle
    /// copies it first, leaving the memo and every other handle as served.
    #[test]
    fn serves_share_one_image_and_copy_on_write() {
        let topo = gen::torus(4, 4, 9);
        let g = global_from_view_simple(&topo.view_all()).unwrap();
        let cache = RouteCache::new();
        let uid = g.switches[5].uid;
        let first = cache.table_for(&g, uid, &[6]).unwrap();
        let second = cache.table_for(&g, uid, &[6]).unwrap();
        assert!(first.same_image(&second));
        let mut edited = first.clone();
        edited.set(
            1,
            autonet_wire::ShortAddress::LOOPBACK,
            autonet_switch::ForwardingEntry::alternatives(autonet_switch::PortSet::single(1)),
        );
        assert!(!edited.same_image(&first) && edited != first);
        let third = cache.table_for(&g, uid, &[6]).unwrap();
        assert!(third.same_image(&first) && third.same_image(&second));
        let scratch = compute_forwarding_table(&g, uid, &[6], RouteKind::UpDown).unwrap();
        assert_eq!(third, scratch);
        assert_eq!(cache.stats().served_memo, 2);
    }

    #[test]
    fn absent_switch_serves_none() {
        let topo = gen::line(3, 0);
        let g = global_from_view_simple(&topo.view_all()).unwrap();
        let cache = RouteCache::new();
        assert!(cache.table_for(&g, Uid::new(99), &[]).is_none());
        assert_eq!(cache.stats().unroutable, 1);
    }
}
