//! Property-based tests on the core invariants.

use std::collections::BTreeMap;

use proptest::prelude::*;

use autonet::autopilot::Epoch;
use autonet::autopilot::{
    assign_switch_numbers, global_from_view_simple, AutopilotParams, ConnectivityEvent,
    ConnectivityMonitor, ControlMsg, MsgCodecError, PortState, RouteComputer, RouteKind, Skeptic,
    SrpPayload, SubtreeReport, SwitchInfo, TreePosition,
};
use autonet::autopilot::{Event, ReconfigCause};
use autonet::sim::{SimDuration, SimTime};
use autonet::topo::gen;
use autonet::trace::{merge_sorted, Timeline, TraceRecord};
use autonet::wire::{crc32, Packet, PacketType, ShortAddress, Uid};

/// An arbitrary trace event for timeline-reconstruction properties
/// (`tag` selects the kind, `epoch` scopes the epoch-carrying ones).
fn arbitrary_event(tag: u8, epoch: u64) -> Event {
    let epoch = Epoch(epoch);
    match tag % 7 {
        0 => Event::ReconfigTriggered {
            epoch,
            cause: ReconfigCause::EpochMessage,
        },
        1 => Event::NetworkClosed { epoch },
        2 => Event::TreeStable { epoch },
        3 => Event::AddressesAssigned { epoch, switches: 4 },
        4 => Event::TableInstalled {
            epoch,
            table: autonet::switch::ForwardingTable::new(),
        },
        5 => Event::NetworkOpened { epoch },
        _ => Event::UnroutableTopology { epoch },
    }
}

/// One step of an adversarial schedule against a [`Skeptic`].
#[derive(Clone, Copy, Debug)]
enum SkepticOp {
    /// A relapse: the port misbehaved.
    Bad,
    /// The port entered a good state.
    GoodStart,
    /// An idle observation (only time passes).
    Observe,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Up*/down* routing is deadlock-free on arbitrary connected graphs.
    #[test]
    fn updown_deadlock_free_on_random_graphs(
        n in 2usize..24,
        extra in 0usize..12,
        seed in 1u64..10_000,
    ) {
        use autonet::autopilot::compute_forwarding_table;
        use autonet_check::table_cycle;
        let topo = gen::random_connected(n, extra, seed);
        let global = global_from_view_simple(&topo.view_all()).expect("non-empty");
        let tables: Vec<_> = topo
            .switch_ids()
            .map(|s| {
                let uid = topo.switch(s).uid;
                let table = compute_forwarding_table(&global, uid, &[], RouteKind::UpDown);
                (s, table.expect("routable"))
            })
            .collect();
        prop_assert_eq!(table_cycle(&topo, tables.iter().map(|(s, t)| (*s, t))), None);
    }

    /// Every switch can reach every other via a legal route, and legal
    /// routes are never shorter than unrestricted ones.
    #[test]
    fn updown_reaches_everything(
        n in 2usize..20,
        extra in 0usize..10,
        seed in 1u64..10_000,
    ) {
        let topo = gen::random_connected(n, extra, seed);
        let global = global_from_view_simple(&topo.view_all()).expect("non-empty");
        let rc = RouteComputer::new(&global).expect("well-formed");
        for a in global.switches.iter() {
            for b in global.switches.iter() {
                let legal = rc.legal_dist(a.uid, b.uid);
                prop_assert!(legal.is_some(), "{:?} cannot reach {:?}", a.uid, b.uid);
                let short = rc.unrestricted_dist(a.uid, b.uid).unwrap();
                prop_assert!(legal.unwrap() >= short);
            }
        }
    }

    /// All usable links carry minimal routes (§6.6.4: "all links used").
    #[test]
    fn all_links_carry_traffic(
        n in 3usize..16,
        extra in 0usize..8,
        seed in 1u64..10_000,
    ) {
        let topo = gen::random_connected(n, extra, seed);
        let global = global_from_view_simple(&topo.view_all()).expect("non-empty");
        let rc = RouteComputer::new(&global).expect("well-formed");
        let stats = rc.stats();
        for (li, &load) in stats.link_loads.iter().enumerate() {
            prop_assert!(load > 0, "link {li} unused (seed {seed})");
        }
    }

    /// Switch-number assignment is a bijection that honors uncontested
    /// proposals.
    #[test]
    fn number_assignment_properties(
        proposals in prop::collection::vec(0u16..50, 1..40),
    ) {
        let switches: Vec<SwitchInfo> = proposals
            .iter()
            .enumerate()
            .map(|(i, &p)| SwitchInfo {
                uid: Uid::new(i as u64 + 1),
                proposed_number: p,
                parent: Uid::new(i as u64 + 1),
                parent_port: 0,
                links: vec![],
                host_ports: vec![],
            })
            .collect();
        let assigned = assign_switch_numbers(&switches);
        prop_assert_eq!(assigned.len(), switches.len());
        let values: std::collections::BTreeSet<_> = assigned.values().collect();
        prop_assert_eq!(values.len(), switches.len(), "numbers must be unique");
        // Re-proposing the assignment is a fixpoint.
        let again: Vec<SwitchInfo> = switches
            .iter()
            .map(|s| SwitchInfo {
                proposed_number: assigned[&s.uid],
                ..s.clone()
            })
            .collect();
        prop_assert_eq!(assign_switch_numbers(&again), assigned);
    }

    /// The packet codec round-trips arbitrary payloads and detects
    /// corruption.
    #[test]
    fn packet_codec_roundtrip(
        dst in 0u16..=u16::MAX,
        src in 0u16..=u16::MAX,
        payload in prop::collection::vec(any::<u8>(), 0..512),
        flip_byte in any::<prop::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let p = Packet::new(
            ShortAddress::from_raw(dst),
            ShortAddress::from_raw(src),
            PacketType::Data,
            payload,
        );
        let mut bytes = p.encode();
        prop_assert_eq!(Packet::decode(&bytes).unwrap(), p);
        // Any single-bit corruption is caught by the CRC.
        let i = flip_byte.index(bytes.len());
        bytes[i] ^= 1 << flip_bit;
        prop_assert!(Packet::decode(&bytes).is_err());
    }

    /// The control-message codec round-trips structured messages.
    #[test]
    fn control_msg_codec_roundtrip(
        epoch in 0u64..1_000_000,
        seq in 0u64..1_000_000,
        port in 1u8..13,
        root in 1u64..1_000_000,
        level in 0u32..64,
        is_parent in any::<bool>(),
    ) {
        let pos = TreePosition {
            root: Uid::new(root),
            level,
            parent: Uid::new(root + 1),
            parent_port: port,
        };
        for msg in [
            ControlMsg::TreePosition { epoch: Epoch(epoch), seq, from_port: port, pos },
            ControlMsg::TreePositionAck {
                epoch: Epoch(epoch),
                seq,
                is_parent,
                sender_seq: seq + 1,
                sender_from_port: port,
                sender_pos: pos,
            },
            ControlMsg::Probe { seq, origin: Uid::new(root), origin_port: port },
            ControlMsg::Srp { route: vec![port, 1, 2], hop: 1, back_route: vec![3, port], payload: SrpPayload::Ping },
        ] {
            let bytes = msg.encode();
            prop_assert_eq!(ControlMsg::decode(&bytes).unwrap(), msg);
        }
    }

    /// Nothing that arrives off the wire can panic a decoder: on random
    /// bytes (as they are, steered into every tag's parser, and sealed
    /// under a valid CRC) `ControlMsg::decode` and `Packet::decode` return
    /// — and what `ControlMsg::decode` accepts, a forwarding switch can
    /// encode again.
    #[test]
    fn decoders_are_total_on_random_bytes(
        junk in prop::collection::vec(any::<u8>(), 0..256),
        tag in 0u8..16,
    ) {
        let _ = ControlMsg::decode(&junk).map(|m| m.encode());
        let _ = Packet::decode(&junk);
        let mut tagged = junk.clone();
        tagged.insert(0, tag);
        let _ = ControlMsg::decode(&tagged).map(|m| m.encode());
        let mut sealed = junk.clone();
        sealed.extend(crc32(&junk).to_be_bytes());
        let _ = Packet::decode(&sealed);
    }

    /// The same on damaged valid encodings, classic and compact (more than
    /// 128 switches take tags 12/13): every strict prefix is an error, a
    /// single changed byte decodes or errs, and a compact reference past
    /// the end of the UID table is a `BadValue`, not an index panic.
    #[test]
    fn decoders_are_total_on_damaged_encodings(
        compact in any::<bool>(),
        extra in 0usize..10,
        seed in 1u64..10_000,
        cut in any::<prop::sample::Index>(),
        at in any::<prop::sample::Index>(),
        byte in any::<u8>(),
    ) {
        let n = if compact { 129 + extra } else { 2 + extra };
        let topo = gen::random_connected(n, extra, seed);
        let global = global_from_view_simple(&topo.view_all()).expect("non-empty");
        let report = SubtreeReport { switches: global.switches.to_vec() };
        let (epoch, root) = (global.epoch, global.root);
        let msgs = [
            ControlMsg::TopologyReport { epoch, seq: seed, report },
            ControlMsg::TopologyDown { epoch, global },
            ControlMsg::Srp {
                route: vec![1, 2],
                hop: 2,
                back_route: vec![3],
                payload: SrpPayload::State { uid: root, epoch, good_ports: 4, open: true },
            },
        ];
        for msg in msgs {
            let bytes = msg.encode();
            prop_assert_eq!(ControlMsg::decode(&bytes), Ok(msg));
            prop_assert!(ControlMsg::decode(&bytes[..cut.index(bytes.len())]).is_err());
            let mut damaged = bytes.clone();
            damaged[at.index(bytes.len())] = byte;
            let _ = ControlMsg::decode(&damaged).map(|m| m.encode());
            // The same message as a packet on the wire.
            let (dst, src) = (ShortAddress::one_hop(1), ShortAddress::TO_LOCAL_SWITCH);
            let wire = Packet::new(dst, src, PacketType::Reconfig, bytes.clone()).encode();
            prop_assert!(Packet::decode(&wire[..cut.index(wire.len())]).is_err());
            let mut damaged = wire.clone();
            damaged[at.index(wire.len())] = byte;
            let _ = Packet::decode(&damaged);
            // The first switch entry's parent reference sits right after
            // the header, the UID table and the entry's proposed number.
            let header = match bytes[0] {
                12 => 1 + 8 + 8,
                13 => 1 + 8 + 6,
                tag => {
                    prop_assert!(!compact || tag == 11, "tag {} at {} switches", tag, n);
                    continue;
                }
            };
            let parent_ref = header + 2 + 6 * n + 2;
            let mut dangling = bytes.clone();
            dangling[parent_ref..parent_ref + 2].copy_from_slice(&0xFFFEu16.to_be_bytes());
            prop_assert_eq!(ControlMsg::decode(&dangling), Err(MsgCodecError::BadValue));
            if bytes[0] == 13 {
                // The last number assignment: reference, then number.
                let last_ref = bytes.len() - 4;
                let mut dangling = bytes.clone();
                dangling[last_ref..last_ref + 2].copy_from_slice(&0xFFFEu16.to_be_bytes());
                prop_assert_eq!(ControlMsg::decode(&dangling), Err(MsgCodecError::BadValue));
            }
        }
    }

    /// CRC-32 detects all single-bit and all two-bit errors in short
    /// messages (it is a distance-4 code over these lengths).
    #[test]
    fn crc_detects_small_errors(
        data in prop::collection::vec(any::<u8>(), 1..64),
        a in any::<prop::sample::Index>(),
        b in any::<prop::sample::Index>(),
    ) {
        let base = crc32(&data);
        let mut one = data.clone();
        let i = a.index(one.len() * 8);
        one[i / 8] ^= 1 << (i % 8);
        prop_assert_ne!(crc32(&one), base);
        let j = b.index(one.len() * 8);
        if j != i {
            let mut two = one.clone();
            two[j / 8] ^= 1 << (j % 8);
            prop_assert_ne!(crc32(&two), base);
        }
    }

    /// Short-address packing is a bijection over the assignable range.
    #[test]
    fn short_address_packing(switch in 1u16..=0xFFE, port in 0u8..16) {
        let addr = ShortAddress::assigned(switch, port);
        prop_assert!(addr.is_assigned());
        prop_assert_eq!(addr.split_assigned(), Some((switch, port)));
        prop_assert!(!addr.is_broadcast());
        prop_assert_eq!(ShortAddress::from_bytes(addr.to_bytes()), addr);
    }

    /// The skeptic's required hold stays within `[min_hold, max_hold]`
    /// under any schedule of relapses, good streaks and idle reads
    /// (§6.5.5: backoff is capped, decay is clamped at the minimum).
    #[test]
    fn skeptic_hold_stays_within_bounds(
        min_ms in 1u64..50,
        mult in 1u64..64,
        decay_ms in 0u64..500,
        schedule in prop::collection::vec(
            (
                prop_oneof![
                    2 => Just(SkepticOp::Bad),
                    2 => Just(SkepticOp::GoodStart),
                    1 => Just(SkepticOp::Observe),
                ],
                0u64..2_000,
            ),
            1..60,
        ),
    ) {
        let min = SimDuration::from_millis(min_ms);
        let max = SimDuration::from_millis(min_ms * mult);
        let mut s = Skeptic::new(min, max, SimDuration::from_millis(decay_ms));
        let mut now = SimTime::ZERO;
        for (op, dt_ms) in schedule {
            now += SimDuration::from_millis(dt_ms);
            match op {
                SkepticOp::Bad => s.on_bad(now),
                SkepticOp::GoodStart => s.on_good_start(now),
                SkepticOp::Observe => {}
            }
            let hold = s.current_hold_at(now);
            prop_assert!(hold >= min, "hold {hold:?} fell below min {min:?}");
            prop_assert!(hold <= max, "hold {hold:?} exceeded max {max:?}");
            prop_assert_eq!(s.required_hold(), hold);
        }
    }

    /// A link flapping faster than the connectivity skeptic's window can
    /// never reach `s.switch.good`: every flap restarts the good streak,
    /// and the streak needed is at least `conn_min_hold` (§6.5.5).
    #[test]
    fn flapping_faster_than_skeptic_window_never_promotes(
        hold_ms in 30u64..150,
        flap_ms in 1u64..30,
        cycles in 10u64..40,
    ) {
        // Probe fast relative to the flapping so lack of promotion is the
        // skeptic's doing, not the probe schedule's.
        let params = AutopilotParams {
            conn_min_hold: SimDuration::from_millis(hold_ms),
            probe_interval: SimDuration::from_millis(1),
            probe_timeout: SimDuration::from_millis(2),
            ..AutopilotParams::tuned()
        };
        let mut m = ConnectivityMonitor::new(&params, Uid::new(1), 0);
        m.activate();
        let mut now = SimTime::ZERO;
        for t_ms in 1..=flap_ms * cycles {
            now += SimDuration::from_millis(1);
            if t_ms % flap_ms == 0 {
                // The sampler condemns the port mid-flap, then re-approves.
                let _ = m.deactivate(now);
                m.activate();
            }
            let (probe, _) = m.on_tick(now);
            if let Some(ControlMsg::Probe { seq, origin, origin_port }) = probe {
                let ev = m.on_reply(now, seq, origin, origin_port, Uid::new(2), 4);
                prop_assert!(
                    !matches!(ev, Some(ConnectivityEvent::BecameGood(_))),
                    "promoted at t={t_ms}ms despite {flap_ms}ms flapping < {hold_ms}ms hold"
                );
            }
            prop_assert_ne!(m.state(), PortState::SwitchGood);
        }
    }

    /// Timeline reconstruction is *total* and *ordered* for any
    /// interleaving of events: nothing is dropped, the merged output is
    /// sorted by `(time, node)`, and every epoch that appears in the
    /// input gets a report.
    #[test]
    fn timeline_reconstruction_total_and_ordered(
        raw in prop::collection::vec(
            (0u64..1_000_000, 0usize..8, any::<u8>(), 0u64..5),
            0..200,
        ),
    ) {
        let records: Vec<TraceRecord> = raw
            .iter()
            .map(|&(t, node, tag, epoch)| TraceRecord {
                time: SimTime::from_nanos(t),
                node,
                event: arbitrary_event(tag, epoch),
            })
            .collect();
        let tl = Timeline::build(&records);
        // Total: every input record survives into the merged history.
        prop_assert_eq!(tl.records.len(), records.len());
        // Ordered: sorted by (time, node).
        prop_assert!(tl
            .records
            .windows(2)
            .all(|w| (w[0].time, w[0].node) <= (w[1].time, w[1].node)));
        // Total over epochs: each epoch seen in the input has a report.
        let input_epochs: std::collections::BTreeSet<u64> =
            records.iter().filter_map(|r| r.event.epoch()).map(|e| e.0).collect();
        let report_epochs: std::collections::BTreeSet<u64> =
            tl.epochs.iter().map(|r| r.epoch.0).collect();
        prop_assert_eq!(&input_epochs, &report_epochs);
        // Reports come out ascending by epoch.
        prop_assert!(tl.epochs.windows(2).all(|w| w[0].epoch < w[1].epoch));
        // And the same input in any other order reconstructs identically.
        let mut reversed = records.clone();
        reversed.reverse();
        let tl2 = Timeline::build(&reversed);
        prop_assert_eq!(
            tl.epochs.iter().map(|r| r.phases()).collect::<Vec<_>>(),
            tl2.epochs.iter().map(|r| r.phases()).collect::<Vec<_>>()
        );
    }

    /// For well-formed histories (each node closes before it reopens
    /// within an epoch), the reconstructed report puts `closed` at or
    /// before `opened`, and `merge_sorted` is deterministic under
    /// arbitrary input permutations.
    #[test]
    fn timeline_opened_preceded_by_closed(
        // Per (node, epoch): close time and open delta, epochs ascending.
        spans in prop::collection::vec(
            (0usize..6, 1u64..1_000, 1u64..1_000),
            1..40,
        ),
        seed in 0u64..10_000,
    ) {
        let mut records = Vec::new();
        for (i, &(node, close_at, open_delta)) in spans.iter().enumerate() {
            let epoch = Epoch(i as u64 + 1);
            let base = i as u64 * 10_000;
            records.push(TraceRecord {
                time: SimTime::from_nanos(base + close_at),
                node,
                event: Event::NetworkClosed { epoch },
            });
            records.push(TraceRecord {
                time: SimTime::from_nanos(base + close_at + open_delta),
                node,
                event: Event::NetworkOpened { epoch },
            });
        }
        // Shuffle deterministically by seed: reconstruction must not care.
        let mut rng = autonet::sim::SimRng::new(seed);
        for i in (1..records.len()).rev() {
            records.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let tl = Timeline::build(&records);
        for report in &tl.epochs {
            let (Some(c), Some(o)) = (report.closed, report.opened) else {
                return Err(TestCaseError(format!(
                    "epoch {:?} lost its close/open pair",
                    report.epoch
                )));
            };
            prop_assert!(c <= o, "epoch {:?}: closed {c} after opened {o}", report.epoch);
        }
        let merged = merge_sorted(&records);
        prop_assert!(merged
            .windows(2)
            .all(|w| (w[0].time, w[0].node) <= (w[1].time, w[1].node)));
    }
}

proptest! {
    // Each case is a full packet-level campaign; keep the count small.
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Blackout windows from random hosted fault campaigns are always
    /// well-formed: ordered within their pair, non-overlapping, bounded
    /// by the run horizon, attributed to a reconfiguration epoch, and at
    /// least `min_run` probes long. (The in-engine blackout oracle checks
    /// containment in the epoch's trigger→open span; this pins down the
    /// report's own shape.)
    #[test]
    fn blackout_windows_are_well_formed_on_random_campaigns(
        n in 3usize..6,
        extra in 0usize..3,
        topo_seed in 1u64..500,
        sim_seed in 1u64..500,
        link in 0usize..2,
        cut_ms in 200u64..1_500,
    ) {
        use autonet_check::{run_packet, FaultEvent, FaultOp, OracleConfig, Scenario, TopoSpec};
        let params = autonet::net::NetParams::tuned();
        let cfg = OracleConfig::from_params(&params.autopilot);
        let scenario = Scenario {
            name: format!("prop-hosted-{topo_seed}-{sim_seed}"),
            topo: TopoSpec::Hosted {
                base: Box::new(TopoSpec::RandomConnected { n, extra, seed: topo_seed }),
                per_switch: 1,
                seed: topo_seed ^ 0x4057,
            },
            seed: sim_seed,
            events: vec![FaultEvent {
                at_ms: cut_ms,
                op: FaultOp::LinkDown(link),
            }],
            settle_ms: 120_000,
        };
        let outcome = run_packet(&scenario, &params, &cfg);
        prop_assert!(
            outcome.passed(),
            "{}: {}",
            scenario.name,
            outcome.violation.unwrap()
        );
        let report = outcome.interruption.expect("hosted topology must probe");
        prop_assert_eq!(report.pairs.len(), n, "one ring probe pair per host");
        for w in report.windows() {
            prop_assert!(w.start <= w.end, "window runs backwards: {w:?}");
            prop_assert!(w.end <= report.horizon, "window outlives the run: {w:?}");
            prop_assert!(w.epoch.is_some(), "unexplained blackout: {w:?}");
            prop_assert!(w.probes_lost >= 2, "window below min_run: {w:?}");
        }
        let max = report.max_blackout().unwrap_or(SimDuration::ZERO);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            prop_assert!(report.blackout_quantile(q) <= max, "p{q} above the max {max}");
        }
        for p in &report.pairs {
            prop_assert!(
                p.windows.windows(2).all(|ws| ws[0].end <= ws[1].start),
                "pair {} windows overlap or are unordered",
                p.pair
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `shrink_schedule` is idempotent and predicate-preserving for any
    /// deterministic predicate: the shrunk scenario still satisfies the
    /// predicate, and shrinking it again is a no-op. (The worst-case
    /// search leans on this: a champion minimized under its
    /// objective-floor predicate is already a fixpoint.)
    #[test]
    fn shrink_schedule_is_idempotent(
        raw in prop::collection::vec((0u64..2_000, 0u8..4, 0usize..6), 1..10),
        need in 0usize..3,
    ) {
        use autonet_check::{shrink_schedule, FaultEvent, FaultOp, Scenario, TopoSpec};
        let events: Vec<FaultEvent> = raw
            .iter()
            .map(|&(at_ms, kind, target)| FaultEvent {
                at_ms,
                op: match kind {
                    0 => FaultOp::LinkDown(target),
                    1 => FaultOp::LinkUp(target),
                    2 => FaultOp::SwitchDown(target),
                    _ => FaultOp::SwitchUp(target),
                },
            })
            .collect();
        let scenario = Scenario {
            name: "shrink-prop".into(),
            topo: TopoSpec::Ring { n: 6, seed: 0 },
            seed: 1,
            events,
            settle_ms: 1_000,
        };
        // "Still fails" = still carries at least `need` link cuts — a
        // deterministic stand-in for "objective still at its floor".
        let pred = |s: &Scenario| {
            s.events
                .iter()
                .filter(|e| matches!(e.op, FaultOp::LinkDown(_)))
                .count()
                >= need
        };
        prop_assume!(pred(&scenario));
        let once = shrink_schedule(&scenario, pred);
        prop_assert!(pred(&once), "shrinking lost the predicate");
        prop_assert!(once.events.len() <= scenario.events.len());
        let twice = shrink_schedule(&once, pred);
        prop_assert_eq!(&twice.events, &once.events, "shrink is not a fixpoint");
    }
}

proptest! {
    // Each case re-runs the full packet engine several times (the shrink
    // predicate is an engine run); keep the count small.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Shrinking a damage champion under its objective-floor predicate
    /// never lowers the measured blackout objective, and the result is a
    /// fixpoint of the same predicate — the worst-case search's champion
    /// minimization, as a property.
    #[test]
    fn shrink_preserves_blackout_objective(
        topo_seed in 1u64..200,
        sim_seed in 1u64..200,
        cut_a in 0usize..3,
        cut_b in 0usize..3,
        gap_ms in 0u64..400,
    ) {
        use autonet_check::{
            run_packet, shrink_schedule, FaultEvent, FaultOp, OracleConfig, Scenario, TopoSpec,
        };
        let params = autonet::net::NetParams::tuned();
        let cfg = OracleConfig::from_params(&params.autopilot);
        let scenario = Scenario {
            name: format!("shrink-objective-{topo_seed}-{sim_seed}"),
            topo: TopoSpec::Hosted {
                base: Box::new(TopoSpec::RandomConnected { n: 4, extra: 2, seed: topo_seed }),
                per_switch: 1,
                seed: topo_seed ^ 0x4057,
            },
            seed: sim_seed,
            events: vec![
                FaultEvent { at_ms: 100, op: FaultOp::LinkDown(cut_a) },
                FaultEvent { at_ms: 100 + gap_ms, op: FaultOp::LinkDown(cut_b) },
            ],
            settle_ms: 120_000,
        };
        let outcome = run_packet(&scenario, &params, &cfg);
        prop_assume!(outcome.passed());
        let floor = outcome.damage.blackout;
        let pred = |s: &Scenario| {
            let o = run_packet(s, &params, &cfg);
            o.passed() && o.damage.blackout >= floor
        };
        let shrunk = shrink_schedule(&scenario, pred);
        let after = run_packet(&shrunk, &params, &cfg);
        prop_assert!(after.passed());
        prop_assert!(
            after.damage.blackout >= floor,
            "shrinking lowered the blackout objective: {} < {}",
            after.damage.blackout,
            floor
        );
        let again = shrink_schedule(&shrunk, pred);
        prop_assert_eq!(&again.events, &shrunk.events, "objective shrink is not a fixpoint");
    }
}

proptest! {
    // Each case is a full packet-level run; keep the count small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The causal span tree derived from random multi-fault campaigns is
    /// always well-formed: every epoch span carries the six phases in
    /// pipeline order telescoping to the span bounds, per-node phase
    /// intervals never overlap, and nested blackouts stay inside their
    /// epoch (see `SpanTree::check_well_formed`). The Chrome-trace export
    /// of the same tree must be byte-deterministic.
    #[test]
    fn span_trees_are_well_formed_on_random_campaigns(
        n in 4usize..10,
        extra in 0usize..4,
        topo_seed in 1u64..500,
        sim_seed in 1u64..500,
        cuts in proptest::collection::vec(0usize..40, 1..4),
    ) {
        let topo = gen::random_connected(n, extra, topo_seed);
        let nlinks = topo.num_links();
        let mut net = autonet::net::Network::new(
            topo,
            autonet::net::NetParams::tuned(),
            sim_seed,
        );
        prop_assert!(
            net.run_until_stable(SimTime::from_secs(120)).is_some(),
            "bring-up converges"
        );
        let mut down: Vec<usize> = Vec::new();
        for cut in cuts {
            let l = cut % nlinks;
            let at = net.now() + SimDuration::from_millis(1);
            if down.contains(&l) {
                net.schedule_link_up(at, autonet::topo::LinkId(l));
                down.retain(|&x| x != l);
            } else {
                net.schedule_link_down(at, autonet::topo::LinkId(l));
                down.push(l);
            }
            prop_assert!(
                net.run_until_stable(net.now() + SimDuration::from_secs(120)).is_some(),
                "network heals around fault at link {l}"
            );
        }
        let timeline = Timeline::build(net.trace_log().records());
        let tree = timeline.span_tree();
        let shape = tree.check_well_formed();
        prop_assert!(shape.is_ok(), "span tree ill-formed: {}", shape.unwrap_err());
        prop_assert!(!tree.is_empty(), "bring-up alone must settle an epoch");
        prop_assert_eq!(
            tree.to_chrome_trace(),
            timeline.span_tree().to_chrome_trace(),
            "span export must be deterministic"
        );
    }
}

/// Deterministic (non-proptest) property: the reference topology builder
/// produces trees whose levels are exactly BFS distance from the minimum
/// UID, across many seeds.
#[test]
fn reference_tree_levels_are_bfs_distances() {
    for seed in 1..30 {
        let topo = gen::random_connected(14, 7, seed);
        let view = topo.view_all();
        let global = global_from_view_simple(&view).unwrap();
        let root_id = topo.switch_by_uid(global.root).unwrap();
        let dist = autonet::topo::bfs_distances(&view, root_id);
        let levels = global.levels().unwrap();
        let by_uid: BTreeMap<Uid, u32> = topo
            .switch_ids()
            .map(|s| (topo.switch(s).uid, dist[s.0].unwrap()))
            .collect();
        for (uid, level) in levels {
            assert_eq!(level, by_uid[&uid], "seed {seed}, uid {uid}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The shared route cache is byte-for-byte equivalent to from-scratch
    /// table computation (`ForwardingTable::canonical_digest`) on random
    /// connected topologies, for every switch and arbitrary live host
    /// ports.
    #[test]
    fn route_cache_matches_scratch_on_random_topologies(
        n in 2usize..20,
        extra in 0usize..10,
        seed in 1u64..10_000,
        host_lo in 1u8..11,
        host_hi in 1u8..11,
    ) {
        use autonet::autopilot::{compute_forwarding_table, RouteCache};
        let topo = gen::random_connected(n, extra, seed);
        let global = global_from_view_simple(&topo.view_all()).unwrap();
        let hosts: Vec<u8> = if host_lo <= host_hi {
            vec![host_lo, host_hi]
        } else {
            vec![host_hi]
        };
        let cache = RouteCache::new();
        for s in global.switches.iter() {
            let scratch =
                compute_forwarding_table(&global, s.uid, &hosts, RouteKind::UpDown);
            let cached = cache.table_for(&global, s.uid, &hosts);
            match (scratch, cached) {
                (Some(a), Some(b)) => prop_assert_eq!(
                    a.canonical_digest(),
                    b.canonical_digest(),
                    "switch {:?} diverged",
                    s.uid
                ),
                (None, None) => {}
                (a, b) => prop_assert!(
                    false,
                    "switch {:?}: scratch={} cached={}",
                    s.uid,
                    a.is_some(),
                    b.is_some()
                ),
            }
        }
        prop_assert_eq!(cache.stats().builds, 1);
    }

    /// Equivalence holds across multi-fault sequences served through ONE
    /// cache — the generation rotation, promotion of healed shapes, and
    /// delta-reuse paths must all reproduce the from-scratch tables
    /// exactly, epoch after epoch.
    #[test]
    fn route_cache_matches_scratch_across_fault_sequences(
        n in 4usize..14,
        extra in 2usize..10,
        seed in 1u64..10_000,
        cuts in proptest::collection::vec(0usize..40, 1..5),
        heal_first in 0u8..2,
    ) {
        use autonet::autopilot::{compute_forwarding_table, global_from_view, RouteCache};
        use autonet::topo::LinkId;
        let topo = gen::random_connected(n, extra, seed);
        let mut view = topo.view_all();
        let cache = RouteCache::new();
        let nlinks = topo.num_links();
        let mut epoch = 1u64;
        let check_epoch = |view: &autonet::topo::NetView<'_>, epoch: u64| {
            let Some(global) = global_from_view(view, Epoch(epoch), &BTreeMap::new()) else {
                return Ok(());
            };
            for s in global.switches.iter() {
                let scratch =
                    compute_forwarding_table(&global, s.uid, &[], RouteKind::UpDown)
                        .map(|t| t.canonical_digest());
                let cached = cache
                    .table_for(&global, s.uid, &[])
                    .map(|t| t.canonical_digest());
                prop_assert_eq!(scratch, cached, "epoch {} switch {:?}", epoch, s.uid);
            }
            Ok(())
        };
        check_epoch(&view, epoch)?;
        let mut failed: Vec<LinkId> = Vec::new();
        for cut in cuts {
            let lid = LinkId(cut % nlinks);
            epoch += 1;
            if failed.contains(&lid) {
                view.repair_link(lid);
                failed.retain(|&l| l != lid);
            } else {
                view.fail_link(lid);
                failed.push(lid);
            }
            check_epoch(&view, epoch)?;
        }
        // Heal everything (possibly revisiting shapes the cache has
        // retired) and check once more.
        if heal_first == 1 {
            failed.reverse();
        }
        for lid in failed {
            view.repair_link(lid);
            epoch += 1;
            check_epoch(&view, epoch)?;
        }
    }
}
