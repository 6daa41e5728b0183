//! Fleet-shared forwarding-table computation.
//!
//! Step 5 of reconfiguration runs at every switch independently: each one
//! receives the same agreed [`GlobalTopology`] and derives its own
//! forwarding table from it. In the real Autonet that was the only
//! option — the computation ran on each switch's own 68000 — but in the
//! simulator all N switches live in one process, so the fleet was paying
//! the O(V+E) route analysis (link dedup and orientation, legal-distance
//! BFS fields) N times per epoch for byte-identical inputs. At the scale
//! tier this dominated the cut-heal wall clock (E23).
//!
//! [`RouteCache`] deduplicates that work without changing a single table
//! byte:
//!
//! - **Shared route state.** The first serve of a topology (keyed by
//!   [`GlobalTopology::content_digest`], which hashes exactly what
//!   analyzer construction and synthesis read, so back-to-back epochs
//!   that agree on the same shape coalesce into one build) constructs
//!   one [`RouteComputer`]. Its per-(node, phase) legal-distance fields
//!   fill on first read, so every field `compute_forwarding_table` would
//!   BFS for — the switch's own two in-phase fields and each trunk
//!   link's landing field — is computed once for the fleet, and each
//!   switch only runs table *synthesis* ([`synthesize_table`], the same
//!   code the from-scratch path runs — identical output by
//!   construction).
//! - **Memoized serves.** Tables are memoized per `(switch, live host
//!   ports)` within a topology generation, so re-serves (host-port
//!   transitions, retransmitted completions) are a map lookup.
//! - **Heal promotion.** The cache keeps the previous generation. A
//!   topology whose digest names it — a fault that healed back to the
//!   shape before it — promotes it back, memo and all, so the heal's
//!   serves are memo hits.
//!
//! The digest reads the whole topology, so a serve skips it when the
//! topology asked about is the current generation's held one by identity
//! ([`GlobalTopology::same_object`]). The generation keeps its clone
//! alive and an `Arc` with two owners is never edited in place, so
//! identity implies the digest would match; any other topology is hashed,
//! and the generation its digest names takes over the new handle. One
//! switch per flood hashes, the rest are recognised.
//!
//! A build happens whenever the digest names neither generation (switch
//! set, spanning tree, numbering or any adjacency changed); a topology
//! that cannot be leveled (malformed tree from the timeout-termination
//! baseline) gets a generation with no analyzer, whose serves are all
//! `None`. The cache is shared through the harness/pool layers as an
//! `Arc<RouteCache>`; every serve is a pure function of its inputs, so
//! sharing it across worlds, shards or threads cannot perturb behavior —
//! only wall-clock cost.

use std::collections::BTreeMap;
use std::sync::Mutex;

use autonet_switch::ForwardingTable;
use autonet_wire::{PortIndex, Uid};

use crate::routes::{synthesize_table, RouteComputer};
use crate::topology::GlobalTopology;

/// Work counters, for the benches and the equivalence experiments. Purely
/// observational — nothing behavioral reads them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteCacheStats {
    /// Shared-route builds: one per distinct topology content served.
    pub builds: u64,
    /// Serves answered from the current generation's memo (a promoted
    /// generation's included).
    pub served_memo: u64,
    /// Always 0: tables are reused by memo and heal promotion only. Kept
    /// because `benchmark/` reads it.
    pub delta_reused: u64,
    /// Serves that ran table synthesis against the shared fields.
    pub synthesized: u64,
    /// Serves that returned no table (switch absent or topology
    /// malformed).
    pub unroutable: u64,
    /// Wall-clock nanoseconds spent constructing analyzers (link dedup
    /// and orientation, once per topology; no distance field).
    pub build_wall_ns: u64,
    /// Wall-clock nanoseconds serving tables (memo hits and synthesis,
    /// with the fields it fills).
    pub serve_wall_ns: u64,
    /// Always 0, like `delta_reused`, and kept for the same reason.
    pub delta_wall_ns: u64,
}

impl RouteCacheStats {
    /// The work counters without the wall-clock attribution — what the
    /// equivalence experiments compare, since wall time is never
    /// reproducible: builds, memo hits, syntheses, unroutable serves.
    pub fn work(&self) -> (u64, u64, u64, u64) {
        (
            self.builds,
            self.served_memo,
            self.synthesized,
            self.unroutable,
        )
    }
}

/// One topology generation: the digest it is keyed by, the shared
/// analyzer (absent when the tree cannot be leveled, the same condition
/// under which `compute_forwarding_table` bails), the topology itself
/// (cheap: `Arc` fields), and the tables served so far.
#[derive(Clone)]
struct Generation {
    digest: u64,
    global: GlobalTopology,
    rc: Option<RouteComputer>,
    tables: BTreeMap<(Uid, Vec<PortIndex>), Option<ForwardingTable>>,
}

#[derive(Clone)]
struct Inner {
    current: Option<Generation>,
    /// Kept for heal promotion only.
    previous: Option<Generation>,
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
        let cur = match inner.current.take_if(|g| g.global.same_object(global)) {
            Some(cur) => cur,
            None => {
                // Hash outside the lock: shards share one cache.
                drop(inner);
                let digest = global.content_digest();
                inner = self.inner.lock().expect("route cache poisoned");
                inner.generation(digest, global)
            }
        };
        inner.serve(cur, my_uid, live_host_ports)
    }
}

impl Default for RouteCache {
    fn default() -> Self {
        RouteCache::new()
    }
}

/// A deep copy: both generations, their memoized tables and the work
/// counters, behind a lock of its own. A forked world continues from the
/// copy exactly as the original would have — same memo hits, same
/// promotions, same counters — without either side seeing the other's
/// serves.
impl Clone for RouteCache {
    fn clone(&self) -> Self {
        RouteCache {
            inner: Mutex::new(self.inner.lock().expect("route cache poisoned").clone()),
        }
    }
}

impl Inner {
    /// Takes the generation for `digest` out of `current`, rotating or
    /// building as needed; [`Inner::serve`] puts it back. A digest
    /// matching `previous` (a fault that healed back to the prior shape)
    /// promotes it back without rebuilding.
    fn generation(&mut self, digest: u64, global: &GlobalTopology) -> Generation {
        if self.previous.as_ref().is_some_and(|g| g.digest == digest) {
            std::mem::swap(&mut self.current, &mut self.previous);
        }
        if let Some(mut g) = self.current.take_if(|g| g.digest == digest) {
            // Same content under new allocations (the next epoch's flood):
            // hold those, so the rest of that flood is served by identity.
            g.global = global.clone();
            return g;
        }
        let t0 = std::time::Instant::now();
        let rc = RouteComputer::new(global);
        self.stats.build_wall_ns += t0.elapsed().as_nanos() as u64;
        if rc.is_some() {
            self.stats.builds += 1;
        }
        self.previous = self.current.take();
        Generation {
            digest,
            global: global.clone(),
            rc,
            tables: BTreeMap::new(),
        }
    }

    /// Serves one table from `cur`, the generation [`RouteCache::table_for`]
    /// took out of `current`, and makes `cur` current again.
    fn serve(
        &mut self,
        mut cur: Generation,
        my_uid: Uid,
        live_host_ports: &[PortIndex],
    ) -> Option<ForwardingTable> {
        let t0 = std::time::Instant::now();
        let key = (my_uid, live_host_ports.to_vec());
        let table = match cur.tables.get(&key) {
            Some(memo) => {
                self.stats.served_memo += 1;
                memo.clone()
            }
            None => {
                // Exactly the fields `compute_forwarding_table` would BFS,
                // read off the shared analyzer.
                let t = cur
                    .rc
                    .as_ref()
                    .and_then(|rc| synthesize_table(rc, &cur.global, my_uid, live_host_ports));
                match &t {
                    Some(_) => self.stats.synthesized += 1,
                    None => self.stats.unroutable += 1,
                }
                cur.tables.insert(key, t.clone());
                t
            }
        };
        self.stats.serve_wall_ns += t0.elapsed().as_nanos() as u64;
        self.current = Some(cur);
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
            assert_eq!((stats.delta_reused, stats.delta_wall_ns), (0, 0));
            assert_eq!(
                stats.work(),
                (
                    stats.builds,
                    stats.served_memo,
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

    /// A heal back to the pre-cut shape promotes the pre-cut generation,
    /// memo and all, even when proposals and snapshot host ports moved in
    /// between: neither is read by analyzer construction or synthesis.
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
        let before = cache.stats();
        // Heal: back to the original shape under a new epoch, with one
        // switch proposing another number than the one it is assigned
        // and reporting another host port.
        view.repair_link(autonet_topo::LinkId(0));
        let mut g3 = global_from_view(&view, Epoch(3), &BTreeMap::new()).unwrap();
        let info = &mut std::sync::Arc::make_mut(&mut g3.switches)[4];
        info.proposed_number += 6;
        info.host_ports.push(9);
        assert_eq!(g3.numbers, g1.numbers);
        assert_ne!(g3.switches, g1.switches);
        digests_match(&g3, &cache, &[]);
        let after = cache.stats();
        assert_eq!(after.builds, 2, "healing back must promote, not rebuild");
        assert_eq!(after.synthesized, before.synthesized);
        assert_eq!(
            after.served_memo - before.served_memo,
            g3.switches.len() as u64,
            "the heal is served from the promoted memo"
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
