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

use std::fmt;
use std::sync::Arc;

use autonet_wire::{PortIndex, ShortAddress, SwitchNumber, MAX_PORTS, MAX_SWITCH_NUMBER};

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
/// The hardware is a dense 64-Kbyte RAM indexed by in-port and short
/// address. For a *remote* destination switch it holds the same entry at
/// all 16 port addresses of that switch's number — which is why a host
/// plugging in needs only a local table patch (§6.5.3). This model keeps
/// that RAM without the 16× replication: per in-port, one dense row of
/// entries indexed by destination switch number ([`set_switch_prefix`]),
/// [`ForwardingEntry::DISCARD`] where nothing is programmed. *Exact*
/// entries (local addresses, one-hop, loopback, broadcast) stay keyed by
/// `(in_port, address)` and take precedence on lookup. Behaviorally
/// identical to the RAM.
///
/// A table is one immutable image behind an [`Arc`]: `clone` bumps a
/// reference count, and [`set`], [`set_switch_prefix`] and [`clear`] copy
/// the image first if another handle shares it, so no write is ever seen
/// through another handle. Equality compares programmed contents, not how
/// wide the rows happen to be.
///
/// [`set`]: ForwardingTable::set
/// [`set_switch_prefix`]: ForwardingTable::set_switch_prefix
/// [`clear`]: ForwardingTable::clear
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
/// // A copy shares the image until one side writes.
/// let mut copy = table.clone();
/// assert!(copy.same_image(&table));
/// copy.clear();
/// assert!(!copy.same_image(&table) && table.len() == 1);
/// ```
#[derive(Clone, Default)]
pub struct ForwardingTable {
    image: Arc<Image>,
}

/// The programmed contents one or more [`ForwardingTable`] handles share.
#[derive(Clone, Default)]
struct Image {
    /// Exact entries sorted by key, `in_port << 16 | address`.
    exact: Vec<(u32, ForwardingEntry)>,
    /// `rows[in_port][number]`: the run for destination switch `number`.
    /// A row is empty until its first run is programmed.
    rows: [Vec<ForwardingEntry>; MAX_PORTS],
    /// Non-discard entries across `rows`.
    runs: usize,
    /// The length a row takes when it is first programmed.
    width: usize,
}

/// An exact entry's sort key.
fn exact_key(in_port: PortIndex, dst: ShortAddress) -> u32 {
    (u32::from(in_port) << 16) | u32::from(dst.as_u16())
}

fn assert_port(in_port: PortIndex) {
    assert!(
        (in_port as usize) < MAX_PORTS,
        "in_port out of range: {in_port}"
    );
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
        assert_port(in_port);
        let key = exact_key(in_port, dst);
        let found = self.image.exact.binary_search_by_key(&key, |&(k, _)| k);
        let discard = entry == ForwardingEntry::DISCARD;
        match found {
            Ok(i) if self.image.exact[i].1 == entry => {}
            Err(_) if discard => {}
            Ok(i) if discard => {
                Arc::make_mut(&mut self.image).exact.remove(i);
            }
            Ok(i) => Arc::make_mut(&mut self.image).exact[i].1 = entry,
            Err(i) => Arc::make_mut(&mut self.image).exact.insert(i, (key, entry)),
        }
    }

    /// Programs the entry used for *all 16 port addresses* of destination
    /// switch `number` arriving on `in_port` — the per-remote-switch run of
    /// identical entries the software loads into the dense RAM.
    ///
    /// # Panics
    ///
    /// Panics if `in_port` is out of range, or if `number` is not an
    /// assignable switch number (`1..=MAX_SWITCH_NUMBER`): the decoder
    /// refuses any other number, so none reaches a table.
    pub fn set_switch_prefix(
        &mut self,
        in_port: PortIndex,
        number: SwitchNumber,
        entry: ForwardingEntry,
    ) {
        self.set_switch_prefixes(number, &[(in_port, entry)]);
    }

    /// [`set_switch_prefix`] for one destination switch on several
    /// in-ports, in order: what synthesis writes per destination, with
    /// one copy-on-write check instead of one per in-port.
    ///
    /// # Panics
    ///
    /// As [`set_switch_prefix`].
    ///
    /// [`set_switch_prefix`]: ForwardingTable::set_switch_prefix
    pub fn set_switch_prefixes(
        &mut self,
        number: SwitchNumber,
        runs: &[(PortIndex, ForwardingEntry)],
    ) {
        assert!(
            (1..=MAX_SWITCH_NUMBER).contains(&number),
            "switch number out of range: {number}"
        );
        let n = usize::from(number);
        let current = |image: &Image, p: PortIndex| {
            image.rows[usize::from(p)]
                .get(n)
                .copied()
                .unwrap_or(ForwardingEntry::DISCARD)
        };
        runs.iter().for_each(|&(p, _)| assert_port(p));
        if runs.iter().all(|&(p, e)| current(&self.image, p) == e) {
            return;
        }
        let image = Arc::make_mut(&mut self.image);
        let width = image.width.max(n + 1);
        for &(p, entry) in runs {
            let row = &mut image.rows[usize::from(p)];
            if row.len() <= n {
                if entry == ForwardingEntry::DISCARD {
                    continue;
                }
                row.resize(width, ForwardingEntry::DISCARD);
            }
            let old = std::mem::replace(&mut row[n], entry);
            match (
                old == ForwardingEntry::DISCARD,
                entry == ForwardingEntry::DISCARD,
            ) {
                (true, false) => image.runs += 1,
                (false, true) => image.runs -= 1,
                _ => {}
            }
        }
    }

    /// Sizes rows for destination switch numbers up to `max` (at most
    /// [`MAX_SWITCH_NUMBER`]), so that a row is allocated once, at its
    /// first run, instead of growing run by run. Contents are unchanged.
    pub fn reserve_switch_numbers(&mut self, max: SwitchNumber) {
        let width = usize::from(max.min(MAX_SWITCH_NUMBER)) + 1;
        if self.image.width != width {
            Arc::make_mut(&mut self.image).width = width;
        }
    }

    /// Looks up the entry for a packet arriving on `in_port` addressed to
    /// `dst`; exact entries win over switch-number runs; unprogrammed
    /// indices discard.
    pub fn lookup(&self, in_port: PortIndex, dst: ShortAddress) -> ForwardingEntry {
        let image = &*self.image;
        let key = exact_key(in_port, dst);
        if let Ok(i) = image.exact.binary_search_by_key(&key, |&(k, _)| k) {
            return image.exact[i].1;
        }
        dst.split_assigned()
            .and_then(|(num, _)| image.rows.get(usize::from(in_port))?.get(usize::from(num)))
            .copied()
            .unwrap_or(ForwardingEntry::DISCARD)
    }

    /// Erases the whole table (the reload at reconfiguration step 1).
    pub fn clear(&mut self) {
        if !self.is_empty() {
            *self = ForwardingTable::new();
        }
    }

    /// Number of programmed (non-discard) exact entries plus prefix runs.
    pub fn len(&self) -> usize {
        self.image.exact.len() + self.image.runs
    }

    /// Returns `true` if no entries are programmed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `self` and `other` are handles on one shared image — what
    /// a clone is until either side writes. Equal tables built apart are
    /// not.
    pub fn same_image(&self, other: &ForwardingTable) -> bool {
        Arc::ptr_eq(&self.image, &other.image)
    }

    /// Iterates over programmed exact entries as `((in_port, dst), entry)`,
    /// in `(in_port, dst)` order.
    pub fn iter(&self) -> impl Iterator<Item = ((PortIndex, ShortAddress), ForwardingEntry)> + '_ {
        self.image.exact.iter().map(|&(k, e)| {
            let dst = ShortAddress::from_raw(k as u16);
            (((k >> 16) as PortIndex, dst), e)
        })
    }

    /// Iterates over the per-remote-switch prefix runs as
    /// `((in_port, switch_number), entry)`, in `(in_port, switch_number)`
    /// order. Together with [`iter`] this covers every programmed index,
    /// which is what whole-table analyses (e.g. the installed-table loop
    /// oracle) need.
    ///
    /// [`iter`]: ForwardingTable::iter
    pub fn iter_prefixes(
        &self,
    ) -> impl Iterator<Item = ((PortIndex, SwitchNumber), ForwardingEntry)> + '_ {
        self.image.rows.iter().enumerate().flat_map(|(p, row)| {
            row.iter()
                .enumerate()
                .filter(|&(_, &e)| e != ForwardingEntry::DISCARD)
                .map(move |(n, &e)| ((p as PortIndex, n as SwitchNumber), e))
        })
    }

    /// A canonical 64-bit digest of the programmed contents.
    ///
    /// Anything that needs a *stable* fingerprint (trace exports,
    /// cross-backend comparisons, golden files) uses this: FNV-1a over
    /// the exact entries, then the prefix runs, each in index order.
    /// Equal tables always produce equal digests, on any platform.
    pub fn canonical_digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |tag: u8, port: PortIndex, index: u16, e: ForwardingEntry| {
            let bits = e.ports.bits();
            let bytes = [
                tag,
                port,
                (index >> 8) as u8,
                index as u8,
                (bits >> 8) as u8,
                bits as u8,
                u8::from(e.broadcast),
            ];
            for byte in bytes {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        for ((port, dst), e) in self.iter() {
            eat(0, port, dst.as_u16(), e); // section tag: exact entries
        }
        for ((port, num), e) in self.iter_prefixes() {
            eat(1, port, num, e); // section tag: prefix runs
        }
        h
    }
}

/// Rows of different widths are equal when the wider one's extra
/// entries are all discard.
fn same_row(a: &[ForwardingEntry], b: &[ForwardingEntry]) -> bool {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let (head, tail) = long.split_at(short.len());
    head == short && tail.iter().all(|&e| e == ForwardingEntry::DISCARD)
}

impl PartialEq for ForwardingTable {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&*self.image, &*other.image);
        self.same_image(other)
            || (a.runs == b.runs
                && a.exact == b.exact
                && a.rows.iter().zip(&b.rows).all(|(x, y)| same_row(x, y)))
    }
}

impl Eq for ForwardingTable {}

impl fmt::Debug for ForwardingTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ForwardingTable")
            .field("exact", &self.iter().collect::<Vec<_>>())
            .field("runs", &self.iter_prefixes().collect::<Vec<_>>())
            .finish()
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
        // neither equality nor the digest may depend on the order.
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
