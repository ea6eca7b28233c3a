//! Idle-slot skipping must be *observationally invisible*: for any
//! configuration and seed, a run with `idle_slot_skipping` on produces
//! byte-identical [`Metrics`] to the naive slot-per-event engine.
//!
//! The skipping engine replays every skipped slot's idle-slot accounting
//! (counters + the EWMA available-rate estimate) in slot order before the
//! next MAC read, schedules slot events in class 0 so slot/timer ties
//! resolve identically in both modes, and mirrors the naive engine's
//! early-stop once all flows complete — these tests pin all of that down
//! across transports, loads, mobility and partial transfers.

use jtp_netsim::{
    run_experiment, try_run_subscribed, ExperimentConfig, FlowSpec, Metrics, TraceConfig, TraceLog,
    TraceSubscriber, TransportKind,
};
use jtp_phys::gilbert::GilbertConfig;
use jtp_sim::{NodeId, SimDuration};

/// Byte-exact comparison via the (total) JSON encoding of every field.
fn assert_identical(a: &Metrics, b: &Metrics, what: &str) {
    let ja = serde_json::to_string(a).unwrap();
    let jb = serde_json::to_string(b).unwrap();
    assert_eq!(ja, jb, "{what}: skipping changed observable metrics");
}

fn run_both(mut cfg: ExperimentConfig) -> (Metrics, Metrics) {
    cfg.idle_slot_skipping = true;
    let fast = run_experiment(&cfg);
    cfg.idle_slot_skipping = false;
    let naive = run_experiment(&cfg);
    (fast, naive)
}

/// Fig. 5-style scenario: two long-lived competing flows (one UDP-like,
/// one fully reliable) on an 8-node chain with deep fades — the workload
/// whose averages every caching figure is built from.
#[test]
fn fig5_style_run_is_byte_identical() {
    let n = 8;
    let mut cfg = ExperimentConfig::linear(n)
        .transport(TransportKind::Jtp)
        .duration_s(800.0)
        .seed(500)
        .flow(FlowSpec {
            src: NodeId(0),
            dst: NodeId(n as u32 - 1),
            start: SimDuration::from_secs(50),
            packets: u32::MAX / 2, // long-lived
            loss_tolerance: 1.0,
            initial_rate_pps: None,
        })
        .flow(FlowSpec {
            src: NodeId(0),
            dst: NodeId(n as u32 - 1),
            start: SimDuration::from_secs(50),
            packets: u32::MAX / 2,
            loss_tolerance: 0.0,
            initial_rate_pps: None,
        });
    cfg.gilbert = GilbertConfig {
        bad_fraction: 0.25,
        bad_loss_floor: 0.85,
        ..GilbertConfig::paper_default()
    };
    let (fast, naive) = run_both(cfg);
    assert_identical(&fast, &naive, "fig5-style");
    assert!(fast.delivered_packets > 0, "scenario must exercise traffic");
}

/// Completed bulk transfers (early all-done stop) across every transport.
#[test]
fn completed_transfers_identical_across_transports() {
    for (kind, name) in [
        (TransportKind::Jtp, "jtp"),
        (TransportKind::Jnc, "jnc"),
        (TransportKind::Tcp, "tcp"),
        (TransportKind::Atp, "atp"),
    ] {
        let cfg = ExperimentConfig::linear(5)
            .transport(kind)
            .duration_s(600.0)
            .seed(901)
            .bulk_flow(40, 5.0, 0.0);
        let (fast, naive) = run_both(cfg);
        assert_identical(&fast, &naive, name);
        assert!(fast.flows[0].completed, "{name}: transfer should finish");
    }
}

/// Transfers cut off by the horizon (no early stop; the idle tail after
/// the last event must be replayed by `finalize`).
#[test]
fn horizon_truncated_run_identical() {
    let mut cfg = ExperimentConfig::linear(6)
        .transport(TransportKind::Jtp)
        .duration_s(120.0)
        .seed(77)
        .bulk_flow(5000, 1.0, 0.0); // cannot finish in 120 s
    cfg.gilbert = GilbertConfig::paper_default();
    let (fast, naive) = run_both(cfg);
    assert!(!fast.flows[0].completed, "transfer must be cut off");
    assert_identical(&fast, &naive, "horizon-truncated");
}

/// Mobility: topology changes mid-run exercise rescheduling around
/// MobilityTick events and the incremental routing refresh.
#[test]
fn mobile_run_identical() {
    let cfg = ExperimentConfig::random(12)
        .transport(TransportKind::Jtp)
        .duration_s(400.0)
        .seed(42)
        .mobile(1.0)
        .bulk_flow(60, 5.0, 0.0);
    let (fast, naive) = run_both(cfg);
    assert_identical(&fast, &naive, "mobile");
}

/// Mobility composed with batteries across the skip/naive engines: the
/// diffed geometry path must not disturb the idle-slot replay or the
/// death-slot aiming.
#[test]
fn mobile_battery_run_identical() {
    use jtp_phys::BatteryConfig;
    let mut cfg = ExperimentConfig::random(10)
        .transport(TransportKind::Jtp)
        .duration_s(400.0)
        .seed(649)
        .mobile(1.0)
        .flow(FlowSpec {
            src: NodeId(0),
            dst: NodeId(9),
            start: SimDuration::from_secs(5),
            packets: u32::MAX / 2,
            loss_tolerance: 1.0,
            initial_rate_pps: None,
        });
    cfg.battery = Some(BatteryConfig {
        capacity_j: 0.3,
        ..BatteryConfig::javelen_small()
    });
    let (fast, naive) = run_both(cfg);
    assert_identical(&fast, &naive, "mobile + battery");
    assert!(fast.battery_deaths > 0);
}

/// Loss-tolerant flows + random topology + several staggered flows: ties
/// between slot boundaries and timers are common here.
#[test]
fn multi_flow_random_topology_identical() {
    let mut cfg = ExperimentConfig::random(15)
        .transport(TransportKind::Jtp)
        .duration_s(500.0)
        .seed(7);
    for (i, (s, d, lt)) in [(0u32, 14u32, 0.0), (3, 11, 0.2), (8, 2, 0.5)]
        .into_iter()
        .enumerate()
    {
        cfg = cfg.flow(FlowSpec {
            src: NodeId(s),
            dst: NodeId(d),
            start: SimDuration::from_secs(5 + 3 * i as u64),
            packets: 50,
            loss_tolerance: lt,
            initial_rate_pps: None,
        });
    }
    let (fast, naive) = run_both(cfg);
    assert_identical(&fast, &naive, "multi-flow random");
}

/// Zero flows: the naive engine spins an event per slot for the whole
/// run; the skipping engine should schedule (almost) nothing yet report
/// identical metrics.
#[test]
fn empty_workload_identical() {
    let cfg = ExperimentConfig::linear(4)
        .transport(TransportKind::Jtp)
        .duration_s(300.0)
        .seed(1);
    let (fast, naive) = run_both(cfg);
    assert_identical(&fast, &naive, "empty workload");
}

/// Substrate dynamics — node churn, a partition window and a link flap,
/// all in one run — must preserve byte-identical equivalence: dynamics
/// events fire at the same instants in both engines, the crash's queue
/// flush feeds the same backlog bookkeeping, and blacked-out channels
/// consume no RNG in either mode.
#[test]
fn dynamics_run_identical() {
    use jtp_netsim::{DynamicsAction, DynamicsEvent};
    let cfg = ExperimentConfig::linear(7)
        .transport(TransportKind::Jtp)
        .duration_s(900.0)
        .seed(321)
        .bulk_flow(60, 5.0, 0.0)
        .flow(FlowSpec {
            src: NodeId(6),
            dst: NodeId(0),
            start: SimDuration::from_secs(10),
            packets: 40,
            loss_tolerance: 0.2,
            initial_rate_pps: None,
        })
        .dynamic(DynamicsEvent::at_s(
            40.0,
            DynamicsAction::NodeDown(NodeId(3)),
        ))
        .dynamic(DynamicsEvent::at_s(
            160.0,
            DynamicsAction::NodeUp(NodeId(3)),
        ))
        .dynamic(DynamicsEvent::at_s(
            220.0,
            DynamicsAction::PartitionStart(vec![NodeId(0), NodeId(1), NodeId(2)]),
        ))
        .dynamic(DynamicsEvent::at_s(320.0, DynamicsAction::PartitionEnd))
        .dynamic(DynamicsEvent::at_s(
            400.0,
            DynamicsAction::LinkDown(NodeId(4), NodeId(5)),
        ))
        .dynamic(DynamicsEvent::at_s(
            430.0,
            DynamicsAction::LinkUp(NodeId(4), NodeId(5)),
        ));
    let (fast, naive) = run_both(cfg);
    assert_identical(&fast, &naive, "dynamics");
    assert!(
        fast.churn_drops + fast.no_route_drops > 0,
        "dynamics must actually bite for the equivalence to mean anything"
    );
}

/// Battery depletion — endogenous node death — must be byte-identical:
/// the skipping engine charges skipped slots' baseline draw in bulk on
/// replay and aims a real slot event at every predicted death slot, so
/// deaths (and the routing floods they trigger) land at the exact instant
/// the naive per-slot loop detects them — mid-transfer included.
#[test]
fn battery_death_run_identical() {
    use jtp_phys::BatteryConfig;
    let mut cfg = ExperimentConfig::linear(6)
        .transport(TransportKind::Jtp)
        .duration_s(700.0)
        .seed(640)
        .flow(FlowSpec {
            src: NodeId(0),
            dst: NodeId(5),
            start: SimDuration::from_secs(5),
            packets: u32::MAX / 2, // long-lived: outlives the relays
            loss_tolerance: 1.0,
            initial_rate_pps: None,
        });
    cfg.battery = Some(BatteryConfig {
        capacity_j: 0.35,
        ..BatteryConfig::javelen_small()
    });
    let (fast, naive) = run_both(cfg);
    assert_identical(&fast, &naive, "battery death");
    assert!(
        fast.battery_deaths > 0,
        "batteries must actually die mid-transfer for this to prove anything"
    );
    assert!(fast.delivered_packets > 0);
}

/// Same, with an *empty* workload: the naive engine grinds an event per
/// slot to find the deaths; the skipping engine must derive the identical
/// death times from predictions alone.
#[test]
fn idle_battery_deaths_identical() {
    use jtp_phys::BatteryConfig;
    let mut cfg = ExperimentConfig::linear(5)
        .transport(TransportKind::Jtp)
        .duration_s(500.0)
        .seed(641);
    cfg.battery = Some(BatteryConfig {
        capacity_j: 0.25,
        ..BatteryConfig::javelen_small()
    });
    let (fast, naive) = run_both(cfg);
    assert_identical(&fast, &naive, "idle battery deaths");
    assert_eq!(fast.battery_deaths, 5, "every node dies of baseline draw");
}

/// Duty-cycled sleep (satellite of the battery work): sleeping receivers
/// reject frames deterministically before any RNG draw, and the sleep
/// draw changes the per-frame baseline sequence — still byte-identical,
/// with battery death striking mid-transfer under the duty cycle.
#[test]
fn duty_cycled_battery_run_identical() {
    use jtp_mac::DutyCycleConfig;
    use jtp_phys::BatteryConfig;
    let mut cfg = ExperimentConfig::grid(3, 2)
        .transport(TransportKind::Jtp)
        .duration_s(900.0)
        .seed(642)
        .flow(FlowSpec {
            src: NodeId(0),
            dst: NodeId(5),
            start: SimDuration::from_secs(5),
            packets: u32::MAX / 2,
            loss_tolerance: 1.0,
            initial_rate_pps: None,
        });
    cfg.battery = Some(BatteryConfig {
        capacity_j: 0.4,
        ..BatteryConfig::javelen_small()
    });
    cfg.duty_cycle = Some(DutyCycleConfig::half());
    let (fast, naive) = run_both(cfg);
    assert_identical(&fast, &naive, "duty-cycled battery");
    assert!(fast.battery_deaths > 0, "death under duty cycling required");
    assert!(
        fast.mac_attempts > fast.delivered_packets,
        "sleep must force retries for the equivalence to be interesting"
    );
}

/// Energy-aware routing adds periodic advertisement floods whose weights
/// are read from *materialised* battery levels — the skipping engine must
/// catch up skipped baseline draws before quantising, or the two engines
/// would advertise different weights.
#[test]
fn energy_aware_routing_run_identical() {
    use jtp_phys::BatteryConfig;
    let mut cfg = ExperimentConfig::grid(3, 2)
        .transport(TransportKind::Jtp)
        .duration_s(900.0)
        .seed(643)
        .flow(FlowSpec {
            src: NodeId(0),
            dst: NodeId(5),
            start: SimDuration::from_secs(5),
            packets: u32::MAX / 2,
            loss_tolerance: 1.0,
            initial_rate_pps: None,
        });
    cfg.battery = Some(BatteryConfig {
        capacity_j: 0.5,
        ..BatteryConfig::javelen_small()
    });
    cfg.energy_routing = Some(jtp_netsim::EnergyRoutingConfig::default());
    let (fast, naive) = run_both(cfg);
    assert_identical(&fast, &naive, "energy-aware routing");
    assert!(fast.battery_deaths > 0);
}

/// Scenario-dynamics churn composed with battery death: a node crashes,
/// its battery keeps draining while down, the heal is void once the
/// battery empties — the masked-truth bookkeeping must agree byte-for-
/// byte across engines.
#[test]
fn churn_plus_battery_run_identical() {
    use jtp_netsim::{DynamicsAction, DynamicsEvent};
    use jtp_phys::BatteryConfig;
    let mut cfg = ExperimentConfig::linear(6)
        .transport(TransportKind::Jtp)
        .duration_s(800.0)
        .seed(644)
        .bulk_flow(60, 5.0, 0.0)
        .dynamic(DynamicsEvent::at_s(
            30.0,
            DynamicsAction::NodeDown(NodeId(2)),
        ))
        .dynamic(DynamicsEvent::at_s(90.0, DynamicsAction::NodeUp(NodeId(2))))
        .dynamic(DynamicsEvent::at_s(
            120.0,
            DynamicsAction::AreaFail {
                x_m: 220.0,
                y_m: 0.0,
                radius_m: 30.0,
            },
        ));
    cfg.battery = Some(BatteryConfig {
        capacity_j: 0.4,
        ..BatteryConfig::javelen_small()
    });
    let (fast, naive) = run_both(cfg);
    assert_identical(&fast, &naive, "churn + area failure + battery");
    assert!(fast.battery_deaths > 0);
    assert!(fast.churn_drops + fast.no_route_drops + fast.arq_drops > 0);
}

/// Idle-slot skipping stays byte-identical at scale-family size: a
/// 100-node grid with battery death, energy re-advertisements and an
/// area failure (short horizon — the naive engine fires every slot).
#[test]
fn scale_grid_run_identical() {
    use jtp_netsim::{DynamicsAction, DynamicsEvent};
    use jtp_phys::BatteryConfig;
    let mut cfg = ExperimentConfig::grid(10, 10)
        .transport(TransportKind::Jtp)
        .duration_s(400.0)
        .seed(646)
        // A short diagonal hop count (0 → 22 is 4 hops): at 100 nodes a
        // frame is ~2.5 s, so corner-to-corner transfers would not
        // deliver inside a naive-engine-affordable horizon.
        .flow(FlowSpec {
            src: NodeId(0),
            dst: NodeId(22),
            start: SimDuration::from_secs(5),
            packets: u32::MAX / 2,
            loss_tolerance: 1.0,
            initial_rate_pps: None,
        })
        .dynamic(DynamicsEvent::at_s(
            120.0,
            DynamicsAction::AreaFail {
                x_m: 360.0,
                y_m: 400.0,
                radius_m: 90.0,
            },
        ));
    // ~3 s frames at 100 nodes: a 0.35 J battery dies of idle draw at
    // ~140 frames ≈ 350 s, inside the horizon.
    cfg.battery = Some(BatteryConfig {
        capacity_j: 0.35,
        ..BatteryConfig::javelen_small()
    });
    cfg.energy_routing = Some(jtp_netsim::EnergyRoutingConfig::default());
    let (fast, naive) = run_both(cfg);
    assert_identical(&fast, &naive, "100-node scale grid");
    assert!(
        fast.battery_deaths > 0,
        "scale run must reach battery death"
    );
    assert!(fast.delivered_packets > 0);
}

/// Traces must also be unaffected (receptions drive the fig-5 series).
#[test]
fn traces_identical_under_skipping() {
    let mut cfg = ExperimentConfig::linear(6)
        .transport(TransportKind::Jtp)
        .duration_s(400.0)
        .seed(55)
        .bulk_flow(80, 2.0, 0.0);
    let trace_cfg = TraceConfig {
        receptions: true,
        attempts_at: Some(NodeId(1)),
        ..Default::default()
    };
    let run_traced = |cfg: &ExperimentConfig| -> (Metrics, TraceLog) {
        let (m, sub) = try_run_subscribed(cfg, TraceSubscriber::new(trace_cfg)).expect("valid");
        (m, sub.into_log())
    };
    cfg.idle_slot_skipping = true;
    let (m_fast, t_fast) = run_traced(&cfg);
    cfg.idle_slot_skipping = false;
    let (m_naive, t_naive) = run_traced(&cfg);
    assert_identical(&m_fast, &m_naive, "traced");
    assert_eq!(t_fast.receptions, t_naive.receptions);
    assert_eq!(t_fast.attempts, t_naive.attempts);
}
