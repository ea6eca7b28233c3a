//! Degenerate-scenario suite: the adversarial compositions the fuzzer
//! generates, pinned as named tests. The split the panic-free front door
//! promises:
//!
//! * **invalid** inputs (out-of-range endpoints, unordered churn, solid
//!   flaps, zero-period timers…) come back as [`ConfigError`] — never a
//!   panic, never a run,
//! * **degenerate-but-valid** inputs (disconnected at t = 0, batteries
//!   that die in seconds, zero-packet flows, no traffic at all) run to
//!   completion with clean, conservation-respecting metrics.

use jtp_events::NoopSubscriber;
use jtp_netsim::scenario::{DynamicsSpec, Scenario, TrafficPattern};
use jtp_netsim::{
    try_run_subscribed, ConfigError, ExperimentConfig, FlowSpec, Metrics, TopologyKind,
    TransportKind,
};
use jtp_phys::BatteryConfig;
use jtp_sim::{NodeId, SimDuration};

/// The panic-free front door, keeping only the metrics.
fn try_run(cfg: &ExperimentConfig) -> Result<Metrics, ConfigError> {
    try_run_subscribed(cfg, NoopSubscriber).map(|(m, _)| m)
}

// ---------------------------------------------------------------------
// Degenerate but valid: must run, cleanly.
// ---------------------------------------------------------------------

#[test]
fn chain_spaced_beyond_radio_range_delivers_nothing_cleanly() {
    // 120 m spacing with a 100 m radio range: no link ever forms.
    let sc = Scenario::new(
        "disconnected-chain",
        TopologyKind::Linear {
            n: 4,
            spacing_m: 120.0,
        },
    )
    .duration_s(200.0)
    .seed(7)
    .traffic(TrafficPattern::Bulk {
        src: NodeId(0),
        dst: NodeId(3),
        packets: 20,
        start_s: 2.0,
        loss_tolerance: 0.0,
    });
    let m =
        try_run(&sc.try_build(TransportKind::Jtp).expect("valid")).expect("degenerate but valid");
    assert_eq!(m.delivered_packets, 0);
    assert_eq!(m.delivery_ratio(), 0.0);
    assert!(m.energy_total_j.is_finite());
}

#[test]
fn partition_from_t0_keeps_endpoints_separated() {
    // The cut is up from the very first instant and outlives the horizon:
    // a network that is *never* whole while traffic is offered.
    let sc = Scenario::new(
        "partitioned-at-birth",
        TopologyKind::Linear {
            n: 5,
            spacing_m: 55.0,
        },
    )
    .duration_s(150.0)
    .seed(11)
    .traffic(TrafficPattern::Bulk {
        src: NodeId(0),
        dst: NodeId(4),
        packets: 15,
        start_s: 1.0,
        loss_tolerance: 0.0,
    })
    .dynamics(DynamicsSpec::Partition {
        group: vec![NodeId(0), NodeId(1)],
        start_s: 0.0,
        end_s: 150.0,
    });
    let m =
        try_run(&sc.try_build(TransportKind::Jtp).expect("valid")).expect("degenerate but valid");
    assert_eq!(
        m.delivered_packets, 0,
        "packets crossed a partition that never healed"
    );
}

#[test]
fn batteries_that_die_in_seconds_leave_clean_metrics() {
    let sc = Scenario::new(
        "all-die-early",
        TopologyKind::Linear {
            n: 4,
            spacing_m: 55.0,
        },
    )
    .duration_s(300.0)
    .seed(13)
    .traffic(TrafficPattern::Bulk {
        src: NodeId(0),
        dst: NodeId(3),
        packets: 50,
        start_s: 1.0,
        loss_tolerance: 0.0,
    })
    .battery(BatteryConfig {
        capacity_j: 0.05,
        ..BatteryConfig::javelen_small()
    });
    let m =
        try_run(&sc.try_build(TransportKind::Jtp).expect("valid")).expect("degenerate but valid");
    assert!(m.battery_deaths >= 1, "0.05 J outlived the run");
    assert!(m.battery_deaths <= 4);
    // The lifetime accounting must stay coherent however early they die.
    let mut prev = u32::MAX;
    for &(_, alive) in &m.alive_curve {
        assert!(alive <= prev, "alive curve rose");
        prev = alive;
    }
    for (i, r) in m.residual_j.iter().enumerate() {
        assert!(
            (-1e-9..=0.05 + 1e-9).contains(r),
            "node {i} residual {r} J outside [0, capacity]"
        );
    }
}

#[test]
fn zero_packet_flows_run_to_empty_metrics_on_every_transport() {
    for t in [
        TransportKind::Jtp,
        TransportKind::Jnc,
        TransportKind::Tcp,
        TransportKind::Atp,
    ] {
        let mut cfg = ExperimentConfig::linear(3)
            .transport(t)
            .duration_s(120.0)
            .seed(9);
        cfg.flows = vec![FlowSpec::new(
            NodeId(0),
            NodeId(2),
            SimDuration::from_secs_f64(5.0),
            0,
        )];
        let m = try_run(&cfg).expect("zero-packet flow is valid");
        assert_eq!(m.delivered_packets, 0, "{t:?}");
        assert_eq!(m.flows[0].offered_packets, 0, "{t:?}");
        assert_eq!(m.delivery_ratio(), 0.0, "{t:?}");
        assert!(m.energy_total_j.is_finite(), "{t:?}");
    }
}

#[test]
fn a_scenario_with_no_traffic_at_all_idles_cleanly() {
    let sc = Scenario::new(
        "pure-idle",
        TopologyKind::Grid {
            cols: 3,
            rows: 3,
            spacing_m: 70.0,
        },
    )
    .duration_s(100.0)
    .seed(21);
    let m =
        try_run(&sc.try_build(TransportKind::Jtp).expect("valid")).expect("no traffic is valid");
    assert_eq!(m.delivered_packets, 0);
    assert!(m.flows.is_empty());
    assert_eq!(m.delivery_ratio(), 0.0);
    assert!(m.energy_total_j >= 0.0, "idle listening still costs energy");
}

// ---------------------------------------------------------------------
// Invalid: must be refused with a typed error, never a panic.
// ---------------------------------------------------------------------

#[test]
fn invalid_configs_error_instead_of_panicking() {
    // (description, config) pairs, each expected to fail validation.
    let base = || {
        ExperimentConfig::linear(4)
            .transport(TransportKind::Jtp)
            .duration_s(100.0)
            .seed(1)
    };
    let cases: Vec<(&str, ExperimentConfig)> = vec![
        ("single node", ExperimentConfig::linear(1)),
        ("zero nodes", ExperimentConfig::linear(0)),
        ("empty grid", ExperimentConfig::grid(0, 5)),
        ("out-of-range dst", {
            let mut c = base();
            c.flows = vec![FlowSpec::new(
                NodeId(0),
                NodeId(4),
                SimDuration::from_secs_f64(1.0),
                5,
            )];
            c
        }),
        ("self-loop flow", {
            let mut c = base();
            c.flows = vec![FlowSpec::new(
                NodeId(2),
                NodeId(2),
                SimDuration::from_secs_f64(1.0),
                5,
            )];
            c
        }),
        ("loss tolerance above 1", base().bulk_flow(5, 1.0, 1.5)),
        ("NaN spacing", {
            let mut c = base();
            c.topology = TopologyKind::Linear {
                n: 4,
                spacing_m: f64::NAN,
            };
            c
        }),
        ("zero duration", base().duration_s(0.0)),
    ];
    for (what, cfg) in cases {
        let err = try_run(&cfg);
        assert!(err.is_err(), "{what}: accepted an invalid config");
    }
}

#[test]
fn malformed_scenarios_error_instead_of_panicking() {
    let chain = TopologyKind::Linear {
        n: 4,
        spacing_m: 55.0,
    };
    let cases = vec![
        (
            "unordered churn",
            Scenario::new("x", chain.clone()).dynamics(DynamicsSpec::NodeChurn {
                node: NodeId(1),
                fail_at_s: 80.0,
                recover_at_s: 20.0,
            }),
        ),
        (
            "solid flap",
            Scenario::new("x", chain.clone()).dynamics(DynamicsSpec::LinkFlap {
                a: NodeId(0),
                b: NodeId(1),
                first_down_s: 5.0,
                down_s: 10.0,
                period_s: 10.0,
                cycles: 3,
            }),
        ),
        (
            "improper partition",
            Scenario::new("x", chain.clone()).dynamics(DynamicsSpec::Partition {
                group: (0..4u32).map(NodeId).collect(),
                start_s: 5.0,
                end_s: 50.0,
            }),
        ),
        (
            "laundered loss tolerance",
            // The regression the fuzzer caught: out-of-domain tolerance
            // under a transport whose lowering clamps it away.
            Scenario::new("x", chain).traffic(TrafficPattern::Bulk {
                src: NodeId(0),
                dst: NodeId(3),
                packets: 5,
                start_s: 1.0,
                loss_tolerance: 1.5,
            }),
        ),
    ];
    for (what, sc) in cases {
        for t in [TransportKind::Jtp, TransportKind::Tcp] {
            match sc.try_build(t) {
                Err(ConfigError::Scenario { .. }) | Err(ConfigError::Dynamics { .. }) => {}
                Err(other) => panic!("{what} under {t:?}: unexpected class {other}"),
                Ok(_) => panic!("{what} under {t:?}: accepted"),
            }
        }
    }
}
