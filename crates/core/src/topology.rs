//! Topology descriptions exchanged during reconfiguration.
//!
//! As stability moves up the forming spanning tree, each switch's "I am
//! stable" message grows into a [`SubtreeReport`] describing the stable
//! subtree below it (companion paper §6.6.1 step 2). The root merges the
//! reports of all its children with its own adjacency to obtain the
//! [`GlobalTopology`], assigns switch numbers, and floods the result down
//! the tree (steps 3–4), from which every switch computes its forwarding
//! table locally (step 5).

use std::collections::BTreeMap;
use std::sync::Arc;

use autonet_wire::{PortIndex, SwitchNumber, Uid};

use crate::epoch::Epoch;

/// One switch-to-switch adjacency as seen from one end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkInfo {
    /// The local port the link is cabled to.
    pub local_port: PortIndex,
    /// UID of the switch at the far end.
    pub neighbor: Uid,
    /// The far end's port number.
    pub neighbor_port: PortIndex,
}

/// Everything one switch contributes to the topology description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SwitchInfo {
    /// The switch's UID.
    pub uid: Uid,
    /// The switch number it held last epoch and proposes to keep (1 for a
    /// freshly powered-on switch).
    pub proposed_number: SwitchNumber,
    /// UID of its tree parent (its own UID if it is the root).
    pub parent: Uid,
    /// Its local port to the parent (0 for the root).
    pub parent_port: PortIndex,
    /// Its usable switch-to-switch links (state `s.switch.good`).
    pub links: Vec<LinkInfo>,
    /// Ports classified `s.host`.
    pub host_ports: Vec<PortIndex>,
}

/// The topology and spanning tree of a stable subtree, accumulated on the
/// way up to the root.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct SubtreeReport {
    /// All switches in the subtree, the reporting switch first.
    pub switches: Vec<SwitchInfo>,
}

impl SubtreeReport {
    /// A leaf report containing just the reporting switch.
    pub fn leaf(info: SwitchInfo) -> Self {
        SubtreeReport {
            switches: vec![info],
        }
    }

    /// Merges the reporting switch's own info with its children's reports.
    pub fn merge(own: SwitchInfo, children: impl IntoIterator<Item = SubtreeReport>) -> Self {
        let mut switches = vec![own];
        for child in children {
            switches.extend(child.switches);
        }
        SubtreeReport { switches }
    }

    /// Number of switches described.
    pub fn len(&self) -> usize {
        self.switches.len()
    }

    /// Whether the report describes a well-formed spanning tree rooted at
    /// `root`: every switch appears exactly once and is reachable from the
    /// root via parent pointers. A report collected while a re-parenting
    /// notice is still in flight can violate this (the moved switch shows
    /// up under both its old and new parent, or under neither); the root
    /// must not terminate on such a snapshot.
    pub fn describes_tree(&self, root: Uid) -> bool {
        let mut children: BTreeMap<Uid, Vec<Uid>> = BTreeMap::new();
        let mut uids = std::collections::BTreeSet::new();
        for s in &self.switches {
            if !uids.insert(s.uid) {
                return false;
            }
            if s.uid != root {
                children.entry(s.parent).or_default().push(s.uid);
            }
        }
        if !uids.contains(&root) {
            return false;
        }
        let mut reached = 1usize;
        let mut frontier = vec![root];
        while let Some(u) = frontier.pop() {
            if let Some(kids) = children.get(&u) {
                reached += kids.len();
                frontier.extend(kids.iter().copied());
            }
        }
        reached == self.switches.len()
    }

    /// Returns `true` if the report is empty.
    pub fn is_empty(&self) -> bool {
        self.switches.is_empty()
    }
}

/// The complete topology the root floods down the tree: every switch's
/// adjacency, the spanning tree (via parent pointers), and the assigned
/// switch numbers.
///
/// The switch list and number assignment are behind [`Arc`]: the flood
/// clones this structure once per child and once per retransmission, and
/// at the scale tier (1024 switches, ~13 heap blocks per entry) deep
/// copies dominated the whole reconfiguration wall clock. Cloning now
/// bumps two refcounts; the (rare) mutators go through [`Arc::make_mut`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GlobalTopology {
    /// The epoch this topology belongs to.
    pub epoch: Epoch,
    /// UID of the spanning-tree root.
    pub root: Uid,
    /// Every switch in the configuration.
    pub switches: Arc<Vec<SwitchInfo>>,
    /// The root's switch-number assignment.
    pub numbers: Arc<BTreeMap<Uid, SwitchNumber>>,
}

impl GlobalTopology {
    /// Looks up a switch's info by UID.
    pub fn switch(&self, uid: Uid) -> Option<&SwitchInfo> {
        self.switches.iter().find(|s| s.uid == uid)
    }

    /// The assigned number of a switch.
    pub fn number_of(&self, uid: Uid) -> Option<SwitchNumber> {
        self.numbers.get(&uid).copied()
    }

    /// The tree level of every switch (root = 0), computed by following
    /// parent pointers. Returns `None` if the parent pointers are broken
    /// (a cycle or a missing parent) — which a well-formed reconfiguration
    /// never produces, but corrupted reports could.
    pub fn levels(&self) -> Option<BTreeMap<Uid, u32>> {
        let mut levels: BTreeMap<Uid, u32> = BTreeMap::new();
        levels.insert(self.root, 0);
        // Iterate to fixpoint; n passes suffice for a tree of n switches.
        for _ in 0..self.switches.len() {
            let mut changed = false;
            for s in self.switches.iter() {
                if levels.contains_key(&s.uid) {
                    continue;
                }
                if let Some(&pl) = levels.get(&s.parent) {
                    levels.insert(s.uid, pl + 1);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        if levels.len() == self.switches.len() {
            Some(levels)
        } else {
            None
        }
    }

    /// The tree children of `uid`: switches whose parent pointer names it.
    pub fn children_of(&self, uid: Uid) -> impl Iterator<Item = &SwitchInfo> {
        self.switches
            .iter()
            .filter(move |s| s.parent == uid && s.uid != uid)
    }

    /// Whether `other` is this topology by identity — the same root and
    /// the same two allocations — whatever their epoch numbers. Both
    /// sides keep the allocations alive and an `Arc` with two owners is
    /// never mutated in place ([`Arc::make_mut`] copies), so identity
    /// implies equal content; the converse does not hold.
    pub fn same_object(&self, other: &GlobalTopology) -> bool {
        self.root == other.root
            && Arc::ptr_eq(&self.switches, &other.switches)
            && Arc::ptr_eq(&self.numbers, &other.numbers)
    }

    /// A canonical 64-bit digest of exactly what route analysis and table
    /// synthesis read: the root, the switch order, and per switch its
    /// uid, parent, parent port and links, then the number assignment.
    ///
    /// It excludes the epoch number, so epochs whose agreed topologies
    /// have the same shape (back-to-back faults that converge to it, or a
    /// heal back to the pre-cut shape) hash equal and a route cache keyed
    /// on this digest shares their tables. It excludes `proposed_number`
    /// (only the root's number assignment reads it, and its outcome is
    /// hashed) and the snapshot's `host_ports` (tables read the live host
    /// ports, which the cache's memo key carries). FNV-1a over the
    /// in-memory order, which is itself canonical: the switch list is the
    /// root's tree accumulation order and the number map iterates sorted
    /// by UID.
    pub fn content_digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        eat(self.root.as_u64());
        for s in self.switches.iter() {
            eat(0xA0); // section tag: one switch
            eat(s.uid.as_u64());
            eat(s.parent.as_u64());
            eat(u64::from(s.parent_port));
            for l in &s.links {
                eat(0xA1); // section tag: one link
                eat(u64::from(l.local_port));
                eat(l.neighbor.as_u64());
                eat(u64::from(l.neighbor_port));
            }
        }
        for (&uid, &num) in self.numbers.iter() {
            eat(0xA3); // section tag: one number assignment
            eat(uid.as_u64());
            eat(u64::from(num));
        }
        h
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn info(uid: u64, parent: u64) -> SwitchInfo {
        SwitchInfo {
            uid: Uid::new(uid),
            proposed_number: 1,
            parent: Uid::new(parent),
            parent_port: if uid == parent { 0 } else { 1 },
            links: Vec::new(),
            host_ports: Vec::new(),
        }
    }

    fn three_chain() -> GlobalTopology {
        // 1 <- 2 <- 3.
        let mut numbers = BTreeMap::new();
        numbers.insert(Uid::new(1), 1);
        numbers.insert(Uid::new(2), 2);
        numbers.insert(Uid::new(3), 3);
        GlobalTopology {
            epoch: Epoch(1),
            root: Uid::new(1),
            switches: Arc::new(vec![info(1, 1), info(2, 1), info(3, 2)]),
            numbers: Arc::new(numbers),
        }
    }

    /// Root 10 with child 20 on its port 1 — and 30 and 40, which name
    /// each other as parent. Shared with the route and Autopilot tests.
    pub(crate) fn cyclic_topology(epoch: Epoch) -> GlobalTopology {
        GlobalTopology {
            epoch,
            root: Uid::new(10),
            switches: Arc::new(vec![info(10, 10), info(20, 10), info(30, 40), info(40, 30)]),
            numbers: Arc::new(BTreeMap::new()),
        }
    }

    #[test]
    fn merge_concatenates() {
        let r = SubtreeReport::merge(
            info(2, 1),
            [
                SubtreeReport::leaf(info(3, 2)),
                SubtreeReport::leaf(info(4, 2)),
            ],
        );
        assert_eq!(r.len(), 3);
        assert_eq!(r.switches[0].uid, Uid::new(2));
    }

    #[test]
    fn levels_follow_parents() {
        let g = three_chain();
        let levels = g.levels().expect("well-formed tree");
        assert_eq!(levels[&Uid::new(1)], 0);
        assert_eq!(levels[&Uid::new(2)], 1);
        assert_eq!(levels[&Uid::new(3)], 2);
    }

    #[test]
    fn children_lookup() {
        let g = three_chain();
        let kids: Vec<Uid> = g.children_of(Uid::new(1)).map(|s| s.uid).collect();
        assert_eq!(kids, vec![Uid::new(2)]);
        assert_eq!(g.children_of(Uid::new(3)).count(), 0);
    }

    #[test]
    fn broken_parent_pointers_detected() {
        let mut g = three_chain();
        // Point 3's parent at a nonexistent switch.
        Arc::make_mut(&mut g.switches)[2].parent = Uid::new(99);
        assert!(g.levels().is_none());
    }

    #[test]
    fn describes_tree_accepts_well_formed_reports() {
        let r = SubtreeReport {
            switches: vec![info(1, 1), info(2, 1), info(3, 2)],
        };
        assert!(r.describes_tree(Uid::new(1)));
    }

    #[test]
    fn describes_tree_rejects_duplicates_and_orphans() {
        // Switch 3 listed under both its old and new parent.
        let dup = SubtreeReport {
            switches: vec![info(1, 1), info(2, 1), info(3, 2), info(3, 1)],
        };
        assert!(!dup.describes_tree(Uid::new(1)));
        // Switch 3's parent is not in the report.
        let orphan = SubtreeReport {
            switches: vec![info(1, 1), info(3, 9)],
        };
        assert!(!orphan.describes_tree(Uid::new(1)));
        // The root itself is missing.
        let rootless = SubtreeReport {
            switches: vec![info(2, 1), info(3, 2)],
        };
        assert!(!rootless.describes_tree(Uid::new(1)));
    }

    #[test]
    fn content_digest_hashes_what_routing_reads() {
        let a = three_chain();
        // Epoch, proposals and snapshot host ports leave it unchanged.
        let mut b = three_chain();
        b.epoch = Epoch(99);
        let switches = Arc::make_mut(&mut b.switches);
        switches[1].proposed_number = 5;
        switches[2].host_ports.push(4);
        assert_eq!(a.content_digest(), b.content_digest());
        // Parent port, links and numbers move it.
        let mut c = three_chain();
        Arc::make_mut(&mut c.switches)[2].parent_port = 7;
        assert_ne!(a.content_digest(), c.content_digest());
        let mut d = three_chain();
        Arc::make_mut(&mut d.switches)[0].links.push(LinkInfo {
            local_port: 2,
            neighbor: Uid::new(2),
            neighbor_port: 1,
        });
        assert_ne!(a.content_digest(), d.content_digest());
        let mut e = three_chain();
        Arc::make_mut(&mut e.numbers).insert(Uid::new(3), 9);
        assert_ne!(a.content_digest(), e.content_digest());
    }

    #[test]
    fn lookup_by_uid() {
        let g = three_chain();
        assert_eq!(g.switch(Uid::new(2)).unwrap().parent, Uid::new(1));
        assert!(g.switch(Uid::new(9)).is_none());
        assert_eq!(g.number_of(Uid::new(3)), Some(3));
    }
}
