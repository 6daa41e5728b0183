//! The dense forwarding table against a sparse model: random `set`,
//! `set_switch_prefix(es)` and discard-erasure sequences over every in-port,
//! with switch numbers across the whole assignable range, must leave the
//! table answering exactly what a pair of `BTreeMap`s answers — lookups,
//! length, iteration, digest — and equal to any other table with the same
//! contents, however those were written and however wide its rows grew.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use autonet_switch::{ForwardingEntry, ForwardingTable, PortSet};
use autonet_wire::{PortIndex, ShortAddress, SwitchNumber, MAX_PORTS, MAX_SWITCH_NUMBER};

/// One write to a table.
#[derive(Clone, Debug)]
enum Op {
    Set(PortIndex, u16, ForwardingEntry),
    Prefix(PortIndex, SwitchNumber, ForwardingEntry),
    /// One destination's runs on several in-ports, repeats allowed.
    Column(SwitchNumber, Vec<(PortIndex, ForwardingEntry)>),
    /// Sizes rows for numbers up to this one; changes no contents.
    Reserve(SwitchNumber),
}

/// Switch numbers: mostly a few small ones, so writes collide and
/// overwrite, the rest anywhere in the assignable range.
fn number() -> impl Strategy<Value = SwitchNumber> {
    prop_oneof![
        3 => 1u16..6,
        1 => 1u16..=MAX_SWITCH_NUMBER,
        1 => Just(MAX_SWITCH_NUMBER),
    ]
}

/// Raw destination addresses: an assigned address of a drawn number, or
/// any of the 32 reserved addresses at either end of the space.
fn address() -> impl Strategy<Value = u16> {
    prop_oneof![
        (number(), 0u16..16).prop_map(|(n, q)| (n << 4) | q),
        0u16..0x10,
        0xFFF0u16..=0xFFFF,
    ]
}

/// Entries, one in four of them the discard entry (an erasure).
fn entry() -> impl Strategy<Value = ForwardingEntry> {
    prop_oneof![
        1 => Just(ForwardingEntry::DISCARD),
        3 => (0u16..=PortSet::ALL_MASK, any::<bool>()).prop_map(|(bits, broadcast)| {
            ForwardingEntry {
                ports: PortSet::from_bits(bits),
                broadcast,
            }
        }),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    let port = 0u8..MAX_PORTS as u8;
    prop_oneof![
        4 => (port.clone(), address(), entry()).prop_map(|(p, a, e)| Op::Set(p, a, e)),
        6 => (port.clone(), number(), entry()).prop_map(|(p, n, e)| Op::Prefix(p, n, e)),
        2 => (number(), prop::collection::vec((port, entry()), 0..16))
            .prop_map(|(n, runs)| Op::Column(n, runs)),
        1 => number().prop_map(Op::Reserve),
    ]
}

/// The sparse model: programmed entries only, discard erases.
#[derive(Default)]
struct Model {
    exact: BTreeMap<(PortIndex, u16), ForwardingEntry>,
    runs: BTreeMap<(PortIndex, SwitchNumber), ForwardingEntry>,
}

fn put<K: Ord>(map: &mut BTreeMap<K, ForwardingEntry>, key: K, e: ForwardingEntry) {
    if e == ForwardingEntry::DISCARD {
        map.remove(&key);
    } else {
        map.insert(key, e);
    }
}

impl Model {
    fn apply(&mut self, op: &Op) {
        match *op {
            Op::Set(p, a, e) => put(&mut self.exact, (p, a), e),
            Op::Prefix(p, n, e) => put(&mut self.runs, (p, n), e),
            Op::Column(n, ref runs) => {
                for &(p, e) in runs {
                    put(&mut self.runs, (p, n), e);
                }
            }
            Op::Reserve(_) => {}
        }
    }

    fn lookup(&self, p: PortIndex, a: u16) -> ForwardingEntry {
        let run = || {
            let (n, _) = ShortAddress::from_raw(a).split_assigned()?;
            self.runs.get(&(p, n)).copied()
        };
        self.exact
            .get(&(p, a))
            .copied()
            .or_else(run)
            .unwrap_or(ForwardingEntry::DISCARD)
    }

    /// FNV-1a over the sorted exact entries, then the sorted runs, seven
    /// bytes each: section tag, port, index (big-endian), port vector
    /// (big-endian), broadcast flag.
    fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: [u8; 7]| {
            for b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let record = |tag: u8, p: PortIndex, i: u16, e: &ForwardingEntry| {
            let [i_hi, i_lo] = i.to_be_bytes();
            let [v_hi, v_lo] = e.ports.bits().to_be_bytes();
            [tag, p, i_hi, i_lo, v_hi, v_lo, u8::from(e.broadcast)]
        };
        for (&(p, a), e) in &self.exact {
            eat(record(0, p, a, e));
        }
        for (&(p, n), e) in &self.runs {
            eat(record(1, p, n, e));
        }
        h
    }

    /// The model's contents written into a fresh table, last key first.
    fn rebuilt(&self, width: SwitchNumber) -> ForwardingTable {
        let mut t = ForwardingTable::new();
        t.reserve_switch_numbers(width);
        for (&(p, n), &e) in self.runs.iter().rev() {
            t.set_switch_prefix(p, n, e);
        }
        for (&(p, a), &e) in self.exact.iter().rev() {
            t.set(p, ShortAddress::from_raw(a), e);
        }
        t
    }
}

/// An iterated entry as an ordered tuple, for set comparison.
fn flat(p: PortIndex, index: u16, e: ForwardingEntry) -> (PortIndex, u16, u16, bool) {
    (p, index, e.ports.bits(), e.broadcast)
}

fn apply(t: &mut ForwardingTable, op: &Op) {
    match *op {
        Op::Set(p, a, e) => t.set(p, ShortAddress::from_raw(a), e),
        Op::Prefix(p, n, e) => t.set_switch_prefix(p, n, e),
        Op::Column(n, ref runs) => t.set_switch_prefixes(n, runs),
        Op::Reserve(n) => t.reserve_switch_numbers(n),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every observation of the dense table equals the model's.
    #[test]
    fn dense_table_matches_sparse_model(
        ops in prop::collection::vec(op(), 0..80),
        probes in prop::collection::vec((0u8..MAX_PORTS as u8, address()), 0..40),
    ) {
        let mut table = ForwardingTable::new();
        let mut model = Model::default();
        for op in &ops {
            apply(&mut table, op);
            model.apply(op);
        }
        // Lookups on every exact index, one address of every run, and
        // random addresses.
        let mut at: Vec<(PortIndex, u16)> = model.exact.keys().copied().collect();
        at.extend(model.runs.keys().map(|&(p, n)| (p, (n << 4) | (n % 16))));
        at.extend(probes);
        for (p, a) in at {
            prop_assert_eq!(
                table.lookup(p, ShortAddress::from_raw(a)),
                model.lookup(p, a),
                "in-port {} address {:#06x}", p, a
            );
        }
        prop_assert_eq!(table.len(), model.exact.len() + model.runs.len());
        prop_assert_eq!(table.is_empty(), model.exact.is_empty() && model.runs.is_empty());
        let exact: BTreeSet<_> = table.iter().map(|((p, a), e)| flat(p, a.as_u16(), e)).collect();
        let want: BTreeSet<_> = model.exact.iter().map(|(&(p, a), &e)| flat(p, a, e)).collect();
        prop_assert_eq!(exact, want);
        let runs: BTreeSet<_> = table.iter_prefixes().map(|((p, n), e)| flat(p, n, e)).collect();
        let want: BTreeSet<_> = model.runs.iter().map(|(&(p, n), &e)| flat(p, n, e)).collect();
        prop_assert_eq!(runs, want);
        prop_assert_eq!(table.canonical_digest(), model.digest());
    }

    /// Equality and the digest see contents only: not the order the
    /// writes came in, not writes later undone, not row widths.
    #[test]
    fn equality_ignores_write_order_and_row_growth(
        ops in prop::collection::vec(op(), 0..80),
        width in 1u16..=MAX_SWITCH_NUMBER,
    ) {
        let mut table = ForwardingTable::new();
        let mut model = Model::default();
        for op in &ops {
            apply(&mut table, op);
            model.apply(op);
        }
        for w in [1, width, MAX_SWITCH_NUMBER] {
            let other = model.rebuilt(w);
            prop_assert_eq!(&other, &table);
            prop_assert_eq!(other.canonical_digest(), table.canonical_digest());
        }
        // Erasing everything leaves a table equal to a new one, whatever
        // its rows' widths.
        for &(p, n) in model.runs.keys() {
            table.set_switch_prefix(p, n, ForwardingEntry::DISCARD);
        }
        for &(p, a) in model.exact.keys() {
            table.set(p, ShortAddress::from_raw(a), ForwardingEntry::DISCARD);
        }
        prop_assert!(table.is_empty());
        prop_assert_eq!(&table, &ForwardingTable::new());
        prop_assert_eq!(table.canonical_digest(), ForwardingTable::new().canonical_digest());
    }

    /// A clone is a second handle on one image; a write through either
    /// copies first, so the other handle never sees it.
    #[test]
    fn writes_never_show_through_a_clone(
        before in prop::collection::vec(op(), 0..40),
        after in prop::collection::vec(op(), 1..40),
    ) {
        let mut table = ForwardingTable::new();
        for op in &before {
            apply(&mut table, op);
        }
        let snapshot = table.clone();
        prop_assert!(snapshot.same_image(&table));
        let digest = snapshot.canonical_digest();
        let mut model = Model::default();
        for op in before.iter().chain(&after) {
            model.apply(op);
        }
        for op in &after {
            apply(&mut table, op);
        }
        prop_assert_eq!(snapshot.canonical_digest(), digest);
        prop_assert_eq!(table.canonical_digest(), model.digest());
    }
}
