//! The switch forwarding table.
//!
//! Address interpretation (companion paper §6.3): the 16-bit destination
//! short address concatenated with the receiving port number indexes the
//! table; each entry holds a 13-bit port vector and a broadcast flag.
//!
//! - `broadcast = 0`: the vector lists *alternative* ports — the switch
//!   forwards on any one free port from the set (lowest-numbered free port
//!   when several are free), which is Autonet's dynamic multipath routing.
//! - `broadcast = 1`: the vector lists ports that must all forward the
//!   packet *simultaneously* (the flooding step of broadcast routing).
//! - A broadcast entry with an empty vector means *discard* — also the
//!   table's default for unprogrammed indices, so corrupted addresses and
//!   routes that would violate up\*/down\* fall through to discard.

use std::collections::HashMap;

use autonet_wire::{PortIndex, ShortAddress, SwitchNumber, MAX_PORTS};

use crate::portset::PortSet;

/// One forwarding-table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ForwardingEntry {
    /// The 13-bit port vector.
    pub ports: PortSet,
    /// Whether the vector is a simultaneous (broadcast) set or an
    /// alternative set.
    pub broadcast: bool,
}

impl ForwardingEntry {
    /// The discard entry: broadcast flag with an empty vector.
    pub const DISCARD: ForwardingEntry = ForwardingEntry {
        ports: PortSet::EMPTY,
        broadcast: true,
    };

    /// An alternative-ports entry.
    pub fn alternatives(ports: PortSet) -> Self {
        ForwardingEntry {
            ports,
            broadcast: false,
        }
    }

    /// A simultaneous-ports (flooding) entry.
    pub fn simultaneous(ports: PortSet) -> Self {
        ForwardingEntry {
            ports,
            broadcast: true,
        }
    }

    /// Returns `true` if this entry discards the packet.
    pub fn is_discard(&self) -> bool {
        self.ports.is_empty()
    }
}

/// A switch's forwarding table.
///
/// The hardware is a dense 64-Kbyte RAM; this model stores programmed
/// entries sparsely and returns [`ForwardingEntry::DISCARD`] for everything
/// else, which is behaviorally identical.
///
/// For a *remote* destination switch, the real table holds the same entry
/// at all 16 port addresses of that switch's number — which is why a host
/// plugging in needs only a local table patch (§6.5.3). This model stores
/// such runs once, keyed by switch number ([`set_switch_prefix`]); exact
/// entries take precedence on lookup. Behaviorally identical, 16× smaller.
///
/// [`set_switch_prefix`]: ForwardingTable::set_switch_prefix
///
/// # Examples
///
/// ```
/// use autonet_switch::{ForwardingEntry, ForwardingTable, PortSet};
/// use autonet_wire::ShortAddress;
///
/// let mut table = ForwardingTable::new();
/// // Packets from port 1 to switch 7's addresses may leave on port 3 or 4.
/// table.set_switch_prefix(1, 7, ForwardingEntry::alternatives(PortSet::from_ports([3, 4])));
/// let entry = table.lookup(1, ShortAddress::assigned(7, 9));
/// assert_eq!(entry.ports, PortSet::from_ports([3, 4]));
/// // Unprogrammed indices discard.
/// assert!(table.lookup(2, ShortAddress::assigned(7, 9)).is_discard());
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ForwardingTable {
    entries: HashMap<(PortIndex, u16), ForwardingEntry>,
    prefixes: HashMap<(PortIndex, SwitchNumber), ForwardingEntry>,
}

impl ForwardingTable {
    /// Creates an empty (all-discard) table.
    pub fn new() -> Self {
        ForwardingTable::default()
    }

    /// Programs the entry for packets arriving on `in_port` addressed to
    /// `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `in_port` is out of range.
    pub fn set(&mut self, in_port: PortIndex, dst: ShortAddress, entry: ForwardingEntry) {
        assert!(
            (in_port as usize) < MAX_PORTS,
            "in_port out of range: {in_port}"
        );
        if entry == ForwardingEntry::DISCARD {
            self.entries.remove(&(in_port, dst.as_u16()));
        } else {
            self.entries.insert((in_port, dst.as_u16()), entry);
        }
    }

    /// Programs the entry used for *all 16 port addresses* of destination
    /// switch `number` arriving on `in_port` — the per-remote-switch run of
    /// identical entries the software loads into the dense RAM.
    pub fn set_switch_prefix(
        &mut self,
        in_port: PortIndex,
        number: SwitchNumber,
        entry: ForwardingEntry,
    ) {
        assert!(
            (in_port as usize) < MAX_PORTS,
            "in_port out of range: {in_port}"
        );
        if entry == ForwardingEntry::DISCARD {
            self.prefixes.remove(&(in_port, number));
        } else {
            self.prefixes.insert((in_port, number), entry);
        }
    }

    /// Looks up the entry for a packet arriving on `in_port` addressed to
    /// `dst`; exact entries win over switch-number runs; unprogrammed
    /// indices discard.
    pub fn lookup(&self, in_port: PortIndex, dst: ShortAddress) -> ForwardingEntry {
        if let Some(e) = self.entries.get(&(in_port, dst.as_u16())) {
            return *e;
        }
        if let Some((num, _)) = dst.split_assigned() {
            if let Some(e) = self.prefixes.get(&(in_port, num)) {
                return *e;
            }
        }
        ForwardingEntry::DISCARD
    }

    /// Erases the whole table (the reload at reconfiguration step 1).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.prefixes.clear();
    }

    /// Number of programmed (non-discard) exact entries plus prefix runs.
    pub fn len(&self) -> usize {
        self.entries.len() + self.prefixes.len()
    }

    /// Returns `true` if no entries are programmed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.prefixes.is_empty()
    }

    /// Iterates over programmed entries as `((in_port, dst), entry)`.
    pub fn iter(&self) -> impl Iterator<Item = ((PortIndex, ShortAddress), ForwardingEntry)> + '_ {
        self.entries
            .iter()
            .map(|(&(p, d), &e)| ((p, ShortAddress::from_raw(d)), e))
    }

    /// Iterates over the per-remote-switch prefix runs as
    /// `((in_port, switch_number), entry)`. Together with [`iter`] this
    /// covers every programmed index, which is what whole-table analyses
    /// (e.g. the installed-table loop oracle) need.
    ///
    /// [`iter`]: ForwardingTable::iter
    pub fn iter_prefixes(
        &self,
    ) -> impl Iterator<Item = ((PortIndex, SwitchNumber), ForwardingEntry)> + '_ {
        self.prefixes.iter().map(|(&(p, n), &e)| ((p, n), e))
    }

    /// A canonical 64-bit digest of the programmed contents.
    ///
    /// The internal maps iterate in arbitrary order, so anything that
    /// needs a *stable* fingerprint (trace exports, cross-backend
    /// comparisons, golden files) must not hash the iteration order. This
    /// sorts both index spaces and runs FNV-1a over the sorted bytes:
    /// equal tables always produce equal digests, on any platform.
    pub fn canonical_digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut exact: Vec<((PortIndex, u16), ForwardingEntry)> =
            self.entries.iter().map(|(&k, &e)| (k, e)).collect();
        exact.sort_unstable_by_key(|&(k, _)| k);
        let mut runs: Vec<((PortIndex, SwitchNumber), ForwardingEntry)> =
            self.prefixes.iter().map(|(&k, &e)| (k, e)).collect();
        runs.sort_unstable_by_key(|&(k, _)| k);
        let mut h = FNV_OFFSET;
        let mut eat = |byte: u8| {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        };
        for ((port, dst), e) in exact {
            eat(0); // section tag: exact entries
            eat(port);
            eat((dst >> 8) as u8);
            eat(dst as u8);
            eat((e.ports.bits() >> 8) as u8);
            eat(e.ports.bits() as u8);
            eat(u8::from(e.broadcast));
        }
        for ((port, num), e) in runs {
            eat(1); // section tag: prefix runs
            eat(port);
            eat((num >> 8) as u8);
            eat(num as u8);
            eat((e.ports.bits() >> 8) as u8);
            eat(e.ports.bits() as u8);
            eat(u8::from(e.broadcast));
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sa(raw: u16) -> ShortAddress {
        ShortAddress::from_raw(raw)
    }

    #[test]
    fn default_is_discard() {
        let t = ForwardingTable::new();
        let e = t.lookup(3, sa(0x0123));
        assert!(e.is_discard());
        assert!(e.broadcast);
    }

    #[test]
    fn set_and_lookup_per_in_port() {
        let mut t = ForwardingTable::new();
        t.set(
            1,
            sa(0x0100),
            ForwardingEntry::alternatives(PortSet::from_ports([2, 5])),
        );
        t.set(
            2,
            sa(0x0100),
            ForwardingEntry::alternatives(PortSet::from_ports([7])),
        );
        assert_eq!(t.lookup(1, sa(0x0100)).ports, PortSet::from_ports([2, 5]));
        assert_eq!(t.lookup(2, sa(0x0100)).ports, PortSet::from_ports([7]));
        assert!(t.lookup(3, sa(0x0100)).is_discard());
    }

    #[test]
    fn clear_resets_to_discard() {
        let mut t = ForwardingTable::new();
        t.set(0, sa(1), ForwardingEntry::alternatives(PortSet::single(1)));
        t.clear();
        assert!(t.is_empty());
        assert!(t.lookup(0, sa(1)).is_discard());
    }

    #[test]
    fn storing_discard_erases() {
        let mut t = ForwardingTable::new();
        t.set(0, sa(1), ForwardingEntry::alternatives(PortSet::single(1)));
        t.set(0, sa(1), ForwardingEntry::DISCARD);
        assert!(t.is_empty());
    }

    #[test]
    fn broadcast_entry_roundtrip() {
        let mut t = ForwardingTable::new();
        let e = ForwardingEntry::simultaneous(PortSet::from_ports([0, 3, 9]));
        t.set(5, ShortAddress::BROADCAST_ALL, e);
        let got = t.lookup(5, ShortAddress::BROADCAST_ALL);
        assert!(got.broadcast);
        assert_eq!(got.ports.len(), 3);
        assert!(!got.is_discard());
    }

    #[test]
    fn canonical_digest_is_order_independent() {
        // Build the same table twice with insertions in opposite orders;
        // the HashMap internals will differ, the digest must not.
        let mut a = ForwardingTable::new();
        let mut b = ForwardingTable::new();
        let entries = [
            (1u8, 0x0100u16, PortSet::from_ports([2, 5])),
            (2, 0x0200, PortSet::single(7)),
            (3, 0x0300, PortSet::from_ports([1, 4, 9])),
        ];
        for &(p, d, ports) in &entries {
            a.set(p, sa(d), ForwardingEntry::alternatives(ports));
            a.set_switch_prefix(p, d >> 8, ForwardingEntry::alternatives(ports));
        }
        for &(p, d, ports) in entries.iter().rev() {
            b.set_switch_prefix(p, d >> 8, ForwardingEntry::alternatives(ports));
            b.set(p, sa(d), ForwardingEntry::alternatives(ports));
        }
        assert_eq!(a, b);
        assert_eq!(a.canonical_digest(), b.canonical_digest());
        // Any content change moves the digest.
        b.set(
            1,
            sa(0x0100),
            ForwardingEntry::alternatives(PortSet::single(2)),
        );
        assert_ne!(a.canonical_digest(), b.canonical_digest());
        // Empty tables have a digest too (the FNV offset basis).
        assert_eq!(
            ForwardingTable::new().canonical_digest(),
            ForwardingTable::default().canonical_digest()
        );
    }

    #[test]
    fn prefix_runs_and_exact_precedence() {
        let mut t = ForwardingTable::new();
        t.set_switch_prefix(2, 7, ForwardingEntry::alternatives(PortSet::single(9)));
        // Any port address of switch 7 matches the run.
        for q in 0..16 {
            let addr = ShortAddress::assigned(7, q);
            assert_eq!(t.lookup(2, addr).ports, PortSet::single(9));
        }
        // Exact entries win over the run.
        t.set(2, ShortAddress::assigned(7, 3), ForwardingEntry::DISCARD);
        // DISCARD stored as exact is an erase, so the prefix still applies;
        // store a non-discard exact instead to check precedence.
        t.set(
            2,
            ShortAddress::assigned(7, 3),
            ForwardingEntry::alternatives(PortSet::single(4)),
        );
        assert_eq!(
            t.lookup(2, ShortAddress::assigned(7, 3)).ports,
            PortSet::single(4)
        );
        // Other in-ports see nothing.
        assert!(t.lookup(3, ShortAddress::assigned(7, 0)).is_discard());
        // Non-assigned addresses never match runs.
        assert!(t.lookup(2, ShortAddress::BROADCAST_ALL).is_discard());
        t.clear();
        assert!(t.is_empty());
    }
}
