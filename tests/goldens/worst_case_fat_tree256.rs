// Pinned by: UPDATE_GOLDENS=1 cargo test --release --test worst_case_goldens
// Search seed 24: blackout 21.501s / 47 pairs / hold 3.418s / unroutable 0ns
// Random corpus median blackout: 0ns; 13 evaluations, 0 oracle violations.
(
    Scenario {
        name: "worst-24".into(),
        topo: TopoSpec::Hosted { base: Box::new(TopoSpec::FatTree { arities: vec![8, 2, 4], seed: 99 }), per_switch: 1, seed: 7 },
        seed: 24,
        events: vec![
            FaultEvent { at_ms: 369, op: FaultOp::LinkFlaps { link: 446, half_period_ms: 46, cycles: 2 } },
            FaultEvent { at_ms: 369, op: FaultOp::SwitchDown(232) },
        ],
        settle_ms: 30000,
    },
    21501082877u64,
)
