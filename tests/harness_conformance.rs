//! Conformance between the two simulation backends.
//!
//! The same Autopilot — inside the same `autonet_core::NodeHarness` —
//! calls two very different `Environment` implementations: the
//! packet-level transport of [`Network`] (synthesized status bits,
//! abstract links) and the slot-accurate datapath of [`SlotNet`] (real
//! symbols, real FIFOs, status bits latched by link units). If the
//! packet model's synthesis is faithful, the control plane must reach
//! the same conclusions about what the network *is* on both: identical
//! classifications for every cabled port, and the same final epoch.
//!
//! Uncabled ports are the one place the substrates legitimately differ:
//! the packet-level model simulates §5.3 reflection (the port hears its
//! own probes and classifies the loop), while the slot-level datapath
//! models silence (the port never leaves Checking). Both keep such ports
//! out of service, which is what the protocol requires.

use autonet::autopilot::PortState;
use autonet::net::{CpuModel, Driver, Net, NetParams, Network, PartitionedNetwork, SlotNet};
use autonet::sim::{SimDuration, SimTime};
use autonet::topo::{gen, HostId, LinkId, PortUse, SwitchId, Topology};
use autonet::wire::{LinkTiming, PortIndex, Uid, MAX_PORTS};

/// Two switches joined by one trunk, a single-homed host on each — small
/// enough for the slot-level model, rich enough to exercise the trunk and
/// host classifications on both backends.
fn small_topo() -> Topology {
    let mut t = Topology::new();
    let a = t.add_switch(Uid::new(1)).unwrap();
    let b = t.add_switch(Uid::new(2)).unwrap();
    t.connect(a, b, LinkTiming::coax_100m()).unwrap();
    t.attach_host(Uid::new(100), a, None).unwrap();
    t.attach_host(Uid::new(200), b, None).unwrap();
    t
}

#[test]
fn packet_and_slot_environments_agree() {
    let params = SlotNet::fast_params();

    let mut slot = SlotNet::new(&small_topo(), params);
    slot.boot();
    assert!(
        slot.run_until_converged(2, 4_000_000),
        "slot-level bring-up failed (t = {})",
        slot.now()
    );

    // Same protocol constants for the packet-level run; no boot jitter
    // (the slot-level backend boots everything at t = 0 too) and a
    // control processor scaled to the ~50×-faster protocol cadences, as
    // the slot model's CP also keeps up with them.
    let net_params = NetParams {
        autopilot: params,
        boot_jitter: SimDuration::ZERO,
        cpu: CpuModel {
            per_packet: SimDuration::from_micros(5),
            per_byte: SimDuration::from_nanos(50),
        },
        ..NetParams::tuned()
    };
    let mut pkt = Network::new(small_topo(), net_params, 1);
    assert!(
        pkt.run_until_stable(SimTime::from_secs(10)).is_some(),
        "packet-level bring-up failed"
    );

    let topo = small_topo();
    for s in [SwitchId(0), SwitchId(1)] {
        assert_eq!(
            pkt.autopilot(s).epoch(),
            slot.autopilot(s).epoch(),
            "final epoch at switch {}",
            s.0
        );
        for port in 1..MAX_PORTS as PortIndex {
            let cabled = !matches!(topo.port_use(s, port), PortUse::Free);
            let p = pkt.autopilot(s).port_state(port);
            let l = slot.autopilot(s).port_state(port);
            if cabled {
                assert_eq!(p, l, "switch {} port {port}", s.0);
            } else {
                // Substrates model uncabled ports differently, but both
                // must hold them out of service.
                for (backend, state) in [("packet", p), ("slot", l)] {
                    assert!(
                        state != PortState::SwitchGood && state != PortState::Host,
                        "{backend}: switch {} uncabled port {port} in service as {state:?}",
                        s.0
                    );
                }
            }
        }
        assert_eq!(
            pkt.autopilot(s).good_ports(),
            slot.autopilot(s).good_ports(),
            "in-service port sets at switch {}",
            s.0
        );
    }

    // Sanity: the agreement is about a configured network, not two
    // networks that agree on knowing nothing.
    let link_port = topo.link(LinkId(0)).a.port;
    assert_eq!(
        pkt.autopilot(SwitchId(0)).port_state(link_port),
        PortState::SwitchGood
    );
    let host_port = topo.host(HostId(0)).primary.port;
    assert_eq!(
        pkt.autopilot(SwitchId(0)).port_state(host_port),
        PortState::Host
    );
}

/// Three switches in a ring — redundancy, so a single cable fault never
/// partitions and both backends must keep one network on one epoch.
fn ring3() -> Topology {
    let mut t = Topology::new();
    let a = t.add_switch(Uid::new(1)).unwrap();
    let b = t.add_switch(Uid::new(2)).unwrap();
    let c = t.add_switch(Uid::new(3)).unwrap();
    t.connect(a, b, LinkTiming::coax_100m()).unwrap();
    t.connect(b, c, LinkTiming::coax_100m()).unwrap();
    t.connect(c, a, LinkTiming::coax_100m()).unwrap();
    t
}

/// The ring with a single-homed host on each side of the trunk the fault
/// tests cut — the data-plane view of the same conformance story.
fn ring3_hosts() -> Topology {
    let mut t = ring3();
    t.attach_host(Uid::new(100), SwitchId(0), None).unwrap();
    t.attach_host(Uid::new(200), SwitchId(1), None).unwrap();
    t
}

/// Trunk-port classifications every up switch reports, in a fixed order.
fn trunk_states(
    topo: &Topology,
    state: impl Fn(SwitchId, PortIndex) -> PortState,
) -> Vec<(usize, PortIndex, PortState)> {
    let mut out = Vec::new();
    for s in topo.switch_ids() {
        for (port, l) in topo.links_at(s) {
            if !topo.link(l).is_loopback() {
                out.push((s.0, port, state(s, port)));
            }
        }
    }
    out
}

/// The same cable fault — cut, reconfigure, splice, readmit — must leave
/// both backends with identical trunk classifications at each stage, and
/// the fault must cost each backend at least one epoch. The packet model
/// cuts the abstract link; the slot model drowns both ends in code
/// violations until the samplers condemn them, then goes quiet, exactly
/// as §5.3 hardware would present the fault.
#[test]
fn packet_and_slot_environments_agree_across_link_fault() {
    let params = SlotNet::fast_params();
    let topo = ring3();
    let spec = topo.link(LinkId(0)).clone();

    let mut slot = SlotNet::new(&ring3(), params);
    slot.boot();
    assert!(
        slot.run_until_converged(3, 8_000_000),
        "slot-level bring-up failed (t = {})",
        slot.now()
    );

    let net_params = NetParams {
        autopilot: params,
        boot_jitter: SimDuration::ZERO,
        cpu: CpuModel {
            per_packet: SimDuration::from_micros(5),
            per_byte: SimDuration::from_nanos(50),
        },
        ..NetParams::tuned()
    };
    let mut pkt = Network::new(ring3(), net_params, 1);
    assert!(
        pkt.run_until_stable(SimTime::from_secs(10)).is_some(),
        "packet-level bring-up failed"
    );

    let slot_epoch0 = slot.autopilot(SwitchId(0)).epoch();
    let pkt_epoch0 = pkt.autopilot(SwitchId(0)).epoch();

    // Cut link 0. Give each backend time for its samplers to condemn the
    // ports and the ring to reconfigure around the dead cable, then
    // require quiescence.
    slot.inject_noise(spec.a.switch, spec.a.port, 20_000, 7);
    slot.inject_noise(spec.b.switch, spec.b.port, 20_000, 8);
    slot.run_slots(1_000_000);
    assert!(
        slot.run_until_converged(3, 16_000_000),
        "slot-level reconfiguration after cut failed (t = {})",
        slot.now()
    );
    pkt.schedule_link_down(pkt.now() + SimDuration::from_millis(1), LinkId(0));
    pkt.run_for(SimDuration::from_millis(80));
    assert!(
        pkt.run_until_stable(pkt.now() + SimDuration::from_secs(10))
            .is_some(),
        "packet-level reconfiguration after cut failed"
    );

    for s in topo.switch_ids() {
        assert!(
            pkt.autopilot(s).epoch() > pkt_epoch0,
            "packet: cut cost no epoch at switch {}",
            s.0
        );
        assert!(
            slot.autopilot(s).epoch() > slot_epoch0,
            "slot: cut cost no epoch at switch {}",
            s.0
        );
    }
    assert_eq!(
        trunk_states(&topo, |s, p| pkt.autopilot(s).port_state(p)),
        trunk_states(&topo, |s, p| slot.autopilot(s).port_state(p)),
        "post-cut trunk classifications"
    );
    for (end, backend_pkt, backend_slot) in [
        (
            spec.a,
            pkt.autopilot(spec.a.switch),
            slot.autopilot(spec.a.switch),
        ),
        (
            spec.b,
            pkt.autopilot(spec.b.switch),
            slot.autopilot(spec.b.switch),
        ),
    ] {
        assert_eq!(backend_pkt.port_state(end.port), PortState::Dead);
        assert_eq!(backend_slot.port_state(end.port), PortState::Dead);
    }

    // Splice the cable back. The skeptics must readmit it on both
    // backends, and the ring must settle on a single epoch again.
    let slot_epoch1 = slot.autopilot(SwitchId(0)).epoch();
    let pkt_epoch1 = pkt.autopilot(SwitchId(0)).epoch();
    slot.inject_noise(spec.a.switch, spec.a.port, 0, 7);
    slot.inject_noise(spec.b.switch, spec.b.port, 0, 8);
    slot.run_slots(1_000_000);
    assert!(
        slot.run_until_converged(3, 16_000_000),
        "slot-level readmission failed (t = {})",
        slot.now()
    );
    pkt.schedule_link_up(pkt.now() + SimDuration::from_millis(1), LinkId(0));
    pkt.run_for(SimDuration::from_millis(80));
    assert!(
        pkt.run_until_stable(pkt.now() + SimDuration::from_secs(10))
            .is_some(),
        "packet-level readmission failed"
    );

    assert!(pkt.autopilot(SwitchId(0)).epoch() > pkt_epoch1);
    assert!(slot.autopilot(SwitchId(0)).epoch() > slot_epoch1);
    let healed = trunk_states(&topo, |s, p| pkt.autopilot(s).port_state(p));
    assert_eq!(
        healed,
        trunk_states(&topo, |s, p| slot.autopilot(s).port_state(p)),
        "post-heal trunk classifications"
    );
    assert!(
        healed.iter().all(|&(_, _, st)| st == PortState::SwitchGood),
        "every trunk port back in service: {healed:?}"
    );
    for backend_epochs in [
        topo.switch_ids()
            .map(|s| pkt.autopilot(s).epoch())
            .collect::<Vec<_>>(),
        topo.switch_ids()
            .map(|s| slot.autopilot(s).epoch())
            .collect::<Vec<_>>(),
    ] {
        assert!(
            backend_epochs.windows(2).all(|w| w[0] == w[1]),
            "single final epoch per backend: {backend_epochs:?}"
        );
    }
}

/// Scale-tier conformance on a 16×16 torus: the pooled packet backend
/// under its two executors — the classic loop over one FIFO-keyed queue
/// ([`Network`]) and the sharded conservative-lookahead loop
/// ([`PartitionedNetwork`]) — must classify every trunk port identically
/// and each settle the whole fabric on one epoch with the same agreed
/// topology, through bring-up and a trunk cut. The executors observe
/// cross-node state at slightly different instants (live reads vs the
/// window latch), so the *count* of reconfigurations bring-up takes —
/// the absolute epoch number — is legitimately schedule-dependent;
/// what must agree is everything the protocol promises: port
/// classifications, openness, per-backend epoch agreement, and the
/// reconstructed topology.
#[test]
#[ignore = "scale tier: run with --release -- --ignored"]
fn pooled_executors_agree_on_16x16_torus() {
    let topo = gen::torus(16, 16, 31);
    let n = topo.num_switches();

    /// Bring-up, a trunk cut, the reference audit, and one network-wide
    /// epoch with every switch open.
    fn cut_and_settle<D: Driver>(name: &str, mut net: Net<D>) -> Net<D> {
        net.run_until_stable_every(SimDuration::from_millis(100), SimTime::from_secs(300))
            .unwrap_or_else(|| panic!("{name} bring-up converges"));
        net.schedule_link_down(net.now() + SimDuration::from_millis(10), LinkId(0));
        net.run_until_stable_every(
            SimDuration::from_millis(50),
            net.now() + SimDuration::from_secs(60),
        )
        .unwrap_or_else(|| panic!("{name} reconverges after cut"));
        net.check_against_reference()
            .unwrap_or_else(|e| panic!("{name} reference: {e}"));
        let epochs: Vec<_> = (net.topology().switch_ids())
            .map(|s| {
                let ap = net.autopilot(s);
                assert!(ap.is_open(), "{name}: switch {} reopens", s.0);
                ap.epoch()
            })
            .collect();
        assert!(
            epochs.windows(2).all(|w| w[0] == w[1]),
            "{name}: one network-wide epoch: {epochs:?}"
        );
        net
    }
    let classic = cut_and_settle("classic", Network::new(topo.clone(), NetParams::scale(), 2));
    let sharded = cut_and_settle(
        "sharded",
        PartitionedNetwork::new(topo.clone(), NetParams::scale(), 2, 4),
    );

    assert_eq!(
        trunk_states(&topo, |s, p| classic.autopilot(s).port_state(p)),
        trunk_states(&topo, |s, p| sharded.autopilot(s).port_state(p)),
        "trunk classifications after cut"
    );
    // Both executors reconstruct the same network: same root, same
    // membership, and (from the classification equality above) the same
    // link set.
    let (cg, sg) = (
        classic.autopilot(SwitchId(0)).global().expect("classic"),
        sharded.autopilot(SwitchId(0)).global().expect("sharded"),
    );
    assert_eq!(cg.root, sg.root, "agreed root");
    assert_eq!(cg.switches.len(), sg.switches.len(), "agreed membership");
    assert_eq!(cg.switches.len(), n, "full fabric");
}

/// The slot-level oracle at its largest feasible size: a 4×4 torus (the
/// slot model walks every link unit every 80 ns slot, so 256 switches is
/// out of reach — the packet-pooled executors cover that scale above).
/// Both backends must classify every trunk port identically and land on
/// the same final epoch.
#[test]
#[ignore = "scale tier: run with --release -- --ignored"]
fn packet_and_slot_environments_agree_on_4x4_torus() {
    let params = SlotNet::fast_params();
    let topo = gen::torus(4, 4, 31);
    let n = topo.num_switches();

    let mut slot = SlotNet::new(&topo, params);
    slot.boot();
    assert!(
        slot.run_until_converged(n, 8_000_000),
        "slot-level bring-up failed (t = {})",
        slot.now()
    );

    let net_params = NetParams {
        autopilot: params,
        boot_jitter: SimDuration::ZERO,
        cpu: CpuModel {
            per_packet: SimDuration::from_micros(5),
            per_byte: SimDuration::from_nanos(50),
        },
        ..NetParams::tuned()
    };
    let mut pkt = Network::new(topo.clone(), net_params, 1);
    assert!(
        pkt.run_until_stable(SimTime::from_secs(10)).is_some(),
        "packet-level bring-up failed"
    );

    assert_eq!(
        trunk_states(&topo, |s, p| pkt.autopilot(s).port_state(p)),
        trunk_states(&topo, |s, p| slot.autopilot(s).port_state(p)),
        "trunk classifications"
    );
    for s in topo.switch_ids() {
        assert_eq!(
            pkt.autopilot(s).epoch(),
            slot.autopilot(s).epoch(),
            "final epoch at switch {}",
            s.0
        );
    }
}

/// The same cable fault as seen by the data plane: probe flows between
/// the two hosts must record a blackout window on *both* backends,
/// starting at the fault and attributed to the reconfiguration it
/// triggered — and, aligned on the fault instant, the packet-level and
/// slot-level windows must overlap. The absolute durations legitimately
/// differ (a sampler condemning a noisy cable is slower than an abstract
/// link dying), but both backends must agree that the cut briefly
/// darkened the same pairs and that service came back.
#[test]
fn packet_and_slot_blackouts_overlap_across_link_fault() {
    use autonet::trace::{InterruptionConfig, InterruptionReport, Timeline};

    let params = SlotNet::fast_params();
    let topo = ring3_hosts();
    let spec = topo.link(LinkId(0)).clone();
    let interval = SimDuration::from_micros(100);
    let pairs = [(HostId(0), HostId(1)), (HostId(1), HostId(0))];
    let report = |probe_pairs: Vec<(usize, usize)>,
                  records: &[autonet::net::ProbeRecord],
                  trace: &[autonet::trace::TraceRecord],
                  horizon: SimTime| {
        InterruptionReport::build(
            &probe_pairs,
            records,
            &Timeline::build(trace),
            horizon,
            InterruptionConfig {
                interval,
                min_run: 2,
            },
        )
    };

    // Slot backend: steady probed baseline, then noise kills the trunk.
    let mut slot = SlotNet::new(&ring3_hosts(), params);
    slot.boot();
    assert!(
        slot.run_until_converged(3, 8_000_000),
        "slot-level bring-up failed (t = {})",
        slot.now()
    );
    slot.start_probes(&pairs, interval);
    slot.run_slots(250_000);
    let slot_fault = slot.now();
    slot.inject_noise(spec.a.switch, spec.a.port, 20_000, 7);
    slot.inject_noise(spec.b.switch, spec.b.port, 20_000, 8);
    slot.run_slots(1_000_000);
    assert!(
        slot.run_until_converged(3, 16_000_000),
        "slot-level reconfiguration after cut failed (t = {})",
        slot.now()
    );
    slot.run_slots(500_000);
    let slot_report = report(
        slot.probe_pairs(),
        slot.probe_records(),
        slot.trace_log().records(),
        slot.now(),
    );

    // Packet backend: same protocol constants (see above), same fault.
    let net_params = NetParams {
        autopilot: params,
        boot_jitter: SimDuration::ZERO,
        cpu: CpuModel {
            per_packet: SimDuration::from_micros(5),
            per_byte: SimDuration::from_nanos(50),
        },
        ..NetParams::tuned()
    };
    let mut pkt = Network::new(ring3_hosts(), net_params, 1);
    assert!(
        pkt.run_until_stable(SimTime::from_secs(10)).is_some(),
        "packet-level bring-up failed"
    );
    // The default host driver needs ~600 ms after boot to learn its own
    // short address (the t=0 liveness check goes unanswered, then the
    // 500 ms reply timeout, then vigorous probing); probe only once the
    // host layer is steady so the one blackout is the reconfiguration's.
    pkt.run_for(SimDuration::from_secs(3));
    pkt.start_probes(&pairs, interval);
    pkt.run_for(SimDuration::from_millis(20));
    let pkt_fault = pkt.now() + SimDuration::from_millis(1);
    pkt.schedule_link_down(pkt_fault, LinkId(0));
    pkt.run_for(SimDuration::from_millis(80));
    assert!(
        pkt.run_until_stable(pkt.now() + SimDuration::from_secs(10))
            .is_some(),
        "packet-level reconfiguration after cut failed"
    );
    pkt.run_for(SimDuration::from_millis(100));
    let pkt_report = report(
        pkt.probe_pairs(),
        pkt.probe_records(),
        pkt.trace_log().records(),
        pkt.now(),
    );

    // Both directions cross the cut trunk; both backends must blackout
    // both, explain the window, restore service — and overlap in time
    // once aligned on the fault.
    for pair in 0..pairs.len() {
        let biggest = |r: &InterruptionReport, fault: SimTime, backend: &str| {
            assert!(
                r.pairs[pair].delivered > 0,
                "{backend}: pair {pair} never delivered a probe"
            );
            let w = r.pairs[pair]
                .windows
                .iter()
                .max_by_key(|w| w.end.saturating_since(w.start))
                .unwrap_or_else(|| panic!("{backend}: pair {pair} recorded no blackout"));
            assert!(w.restored, "{backend}: pair {pair} never recovered: {w:?}");
            assert!(
                w.epoch.is_some(),
                "{backend}: pair {pair} blackout unexplained: {w:?}"
            );
            (
                w.start.saturating_since(fault),
                w.end.saturating_since(fault),
            )
        };
        let (ps, pe) = biggest(&pkt_report, pkt_fault, "packet");
        let (ss, se) = biggest(&slot_report, slot_fault, "slot");
        assert!(
            ps.max(ss) < pe.min(se),
            "pair {pair}: fault-aligned windows disjoint; packet {ps}..{pe}, slot {ss}..{se}"
        );
    }
}

/// The scenario engine end to end over both substrates: a *pinned
/// adversarial schedule* — the worst-case search's favorite move, two
/// simultaneous trunk cuts in one slot — must darken probe flows on the
/// packet-level and the slot-level backend alike, and the fault-aligned
/// blackout windows must overlap. This is the conformance guarantee the
/// worst-case goldens lean on: a champion found on one substrate
/// describes real damage on the other, not a modeling artifact.
#[test]
fn pinned_adversarial_schedule_blackouts_overlap_on_both_substrates() {
    use autonet::trace::InterruptionReport;
    use autonet_check::{
        run_packet, run_slot, FaultEvent, FaultOp, OracleConfig, Scenario, TopoSpec,
    };

    let params = SlotNet::fast_params();
    // Two cuts in the same millisecond slot: the base graph (3 switches,
    // 4 trunks at this seed) is a triangle plus a parallel 0-2 cable, and
    // links 0 and 3 are exactly the two parallels — losing both redundant
    // cables at once forces a reconfiguration while the trunk graph stays
    // connected, so every switch re-converges on both backends (the
    // slot-level quiescence check needs all of them in one epoch) and the
    // blackout is the reconfiguration's, not a partition's. Late enough
    // that the packet-level host driver is past its address-learning
    // phase (see above).
    let scenario = Scenario {
        name: "adversarial-double-cut".into(),
        topo: TopoSpec::Hosted {
            base: Box::new(TopoSpec::RandomConnected {
                n: 3,
                extra: 2,
                seed: 2,
            }),
            per_switch: 1,
            seed: 5,
        },
        seed: 7,
        events: vec![
            FaultEvent {
                at_ms: 800,
                op: FaultOp::LinkDown(0),
            },
            FaultEvent {
                at_ms: 800,
                op: FaultOp::LinkDown(3),
            },
        ],
        settle_ms: 8_000,
    };
    let mut cfg = OracleConfig::from_params(&params);
    // Slot-scale outages need sub-millisecond probes to register.
    cfg.probe_interval = SimDuration::from_micros(100);
    cfg.step_ms = 5;

    let slot_out = run_slot(&scenario, params, &cfg);
    let net_params = NetParams {
        autopilot: params,
        boot_jitter: SimDuration::ZERO,
        cpu: CpuModel {
            per_packet: SimDuration::from_micros(5),
            per_byte: SimDuration::from_nanos(50),
        },
        ..NetParams::tuned()
    };
    let pkt_out = run_packet(&scenario, &net_params, &cfg);

    // Windows that overlap the fault instant (origin-aligned), as
    // (start, end) relative to the fault.
    let fault_windows = |report: &InterruptionReport,
                         fault: SimTime,
                         backend: &str|
     -> Vec<(usize, SimDuration, SimDuration)> {
        let grace = SimDuration::from_millis(500);
        let out: Vec<(usize, SimDuration, SimDuration)> = report
            .pairs
            .iter()
            .enumerate()
            .flat_map(|(i, p)| {
                p.windows
                    .iter()
                    .filter(|w| w.end >= fault && w.start <= fault + grace)
                    .map(move |w| {
                        (
                            i,
                            w.start.saturating_since(fault),
                            w.end.saturating_since(fault),
                        )
                    })
            })
            .collect();
        assert!(
            !out.is_empty(),
            "{backend}: double cut at {fault} darkened no probed pair"
        );
        out
    };
    let slot_report = slot_out.interruption.as_ref().expect("slot probes ran");
    let pkt_report = pkt_out.interruption.as_ref().expect("packet probes ran");
    let slot_fault = slot_out.origin + SimDuration::from_millis(800);
    let pkt_fault = pkt_out.origin + SimDuration::from_millis(800);
    let slot_ws = fault_windows(slot_report, slot_fault, "slot");
    let pkt_ws = fault_windows(pkt_report, pkt_fault, "packet");

    // Some pair must be darkened by the fault on BOTH substrates, with
    // fault-aligned windows that actually intersect.
    let overlapping = pkt_ws.iter().any(|&(pp, ps, pe)| {
        slot_ws
            .iter()
            .any(|&(sp, ss, se)| pp == sp && ps.max(ss) < pe.min(se))
    });
    assert!(
        overlapping,
        "no pair's fault-aligned blackout overlaps across substrates;\n  packet: {pkt_ws:?}\n  slot: {slot_ws:?}"
    );
}
