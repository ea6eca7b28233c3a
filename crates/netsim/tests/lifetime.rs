//! Battery & network-lifetime subsystem tests: finite budgets deplete,
//! depleted nodes die (for good), lifetime metrics tick, duty cycling
//! trades energy for reachability, energy-aware routing steers load off
//! drained relays, and area failures crash whole discs at once.

use jtp_mac::DutyCycleConfig;
use jtp_netsim::{
    run_experiment, DynamicsAction, DynamicsEvent, ExperimentConfig, FlowSpec, Scenario,
    TrafficPattern, TransportKind,
};
use jtp_phys::BatteryConfig;
use jtp_sim::{NodeId, SimDuration};

fn small_battery(capacity_j: f64) -> BatteryConfig {
    BatteryConfig {
        capacity_j,
        ..BatteryConfig::javelen_small()
    }
}

/// An idle network with batteries drains by baseline draw alone and every
/// node dies at its predictable instant: capacity / (idle_draw × frame)
/// frames in.
#[test]
fn idle_network_dies_of_baseline_draw() {
    let cfg = ExperimentConfig::linear(4)
        .duration_s(400.0)
        .seed(9)
        .battery(small_battery(0.3));
    // 4 nodes × 25 ms slots = 0.1 s frames; 0.1 mJ idle per frame;
    // 0.3 J / 0.1 mJ = 3000 frames = 300 s.
    let m = run_experiment(&cfg);
    assert_eq!(m.battery_deaths, 4, "every node must die");
    let first = m.first_death_s.expect("deaths recorded");
    assert!(
        (299.0..301.5).contains(&first),
        "baseline-only death at ~300 s, got {first}"
    );
    // All nodes share the draw, so the full curve collapses within one
    // frame of the first death.
    let last = m.alive_curve.last().expect("curve recorded");
    assert_eq!(last.1, 0);
    assert!(last.0 - first < 1.0, "staggered only by slot position");
    assert!(m.residual_j.iter().all(|&r| r == 0.0));
    assert_eq!(m.alive_at_s(100.0), 4);
    assert_eq!(m.alive_at_s(350.0), 0);
}

/// Without a battery nothing ever dies — the tally-only monitor of the
/// paper keeps its exact semantics.
#[test]
fn no_battery_means_no_deaths() {
    let cfg = ExperimentConfig::linear(4)
        .duration_s(300.0)
        .seed(9)
        .bulk_flow(20, 2.0, 0.0);
    let m = run_experiment(&cfg);
    assert_eq!(m.battery_deaths, 0);
    assert_eq!(m.first_death_s, None);
    assert_eq!(m.first_partition_s, None);
    assert!(m.alive_curve.is_empty());
    assert!(m.residual_j.is_empty());
}

/// Traffic accelerates death: relays carrying a transfer die before the
/// idle-only baseline would predict, and a chain's first mid-chain death
/// partitions the survivors.
#[test]
fn forwarding_load_shortens_lifetime_and_partitions_the_chain() {
    let idle = ExperimentConfig::linear(5)
        .duration_s(900.0)
        .seed(31)
        .battery(small_battery(0.5));
    let busy = ExperimentConfig::linear(5)
        .duration_s(900.0)
        .seed(31)
        .battery(small_battery(0.5))
        .flow(FlowSpec {
            src: NodeId(0),
            dst: NodeId(4),
            start: SimDuration::from_secs(5),
            packets: u32::MAX / 2, // long-lived: dies with the network
            loss_tolerance: 1.0,
            initial_rate_pps: None,
        });
    let m_idle = run_experiment(&idle);
    let m_busy = run_experiment(&busy);
    let t_idle = m_idle.first_death_s.expect("idle deaths");
    let t_busy = m_busy.first_death_s.expect("busy deaths");
    assert!(
        t_busy < t_idle - 10.0,
        "forwarding must cost lifetime: busy {t_busy} vs idle {t_idle}"
    );
    // A 5-chain losing any interior node splits; the sink or source dying
    // leaves the rest connected, so partition time may trail first death
    // but must exist once interior relays go.
    let part = m_busy.first_partition_s.expect("chain must partition");
    assert!(part >= t_busy);
    assert!(m_busy.delivered_packets > 0, "transfer ran before dying");
}

/// Battery death is permanent: a scheduled NodeUp cannot revive a node
/// whose battery already emptied.
#[test]
fn battery_death_survives_scheduled_heal() {
    // Node 1 dies of baseline draw at ~100 s (0.1 J / 0.1 mJ-per-frame ×
    // 0.1 s frames); dynamics try to heal it afterwards.
    let cfg = ExperimentConfig::linear(4)
        .duration_s(400.0)
        .seed(12)
        .battery(small_battery(0.1))
        .dynamic(DynamicsEvent::at_s(
            200.0,
            DynamicsAction::NodeUp(NodeId(1)),
        ))
        .bulk_flow(u32::MAX / 2, 150.0, 1.0);
    let m = run_experiment(&cfg);
    assert_eq!(m.battery_deaths, 4);
    // The flow starts after every battery is dead: nothing can deliver.
    assert_eq!(m.delivered_packets, 0);
}

/// Duty cycling extends lifetime (sleep draw ≪ idle draw) at the price of
/// reachability while asleep.
#[test]
fn duty_cycle_extends_idle_lifetime() {
    let always_on = ExperimentConfig::linear(4)
        .duration_s(2000.0)
        .seed(77)
        .battery(small_battery(0.3));
    let mut duty = always_on.clone();
    duty.duty_cycle = Some(DutyCycleConfig::half());
    let m_on = run_experiment(&always_on);
    let m_duty = run_experiment(&duty);
    let t_on = m_on.first_death_s.expect("always-on deaths");
    let t_duty = m_duty.first_death_s.expect("duty-cycled deaths");
    // Half the frames at 10% draw: mean draw 55% → lifetime ~1.8×.
    assert!(
        t_duty > 1.6 * t_on,
        "duty cycling must stretch lifetime: {t_duty} vs {t_on}"
    );
}

/// Sleeping receivers miss frames: the same transfer needs more MAC
/// attempts per delivery under a duty cycle.
#[test]
fn sleeping_receivers_cost_attempts() {
    let base = ExperimentConfig::linear(4)
        .duration_s(1500.0)
        .seed(21)
        .bulk_flow(40, 5.0, 0.0);
    let mut duty = base.clone();
    duty.duty_cycle = Some(DutyCycleConfig {
        period_frames: 4,
        awake_frames: 1,
    });
    let m_base = run_experiment(&base);
    let m_duty = run_experiment(&duty);
    assert_eq!(m_base.delivered_packets, 40);
    assert_eq!(
        m_duty.delivered_packets, 40,
        "transfer still completes through sleep (retries bridge the gaps)"
    );
    let apb_base = m_base.mac_attempts as f64 / m_base.delivered_packets as f64;
    let apb_duty = m_duty.mac_attempts as f64 / m_duty.delivered_packets as f64;
    assert!(
        apb_duty > 1.5 * apb_base,
        "75% sleep must inflate attempts/delivery: {apb_duty} vs {apb_base}"
    );
}

/// Energy-aware routing steers around a drained relay: with two equal-hop
/// relays and one pre-drained by cross-traffic, the energy-aware run
/// spreads load and postpones the first death.
#[test]
fn energy_aware_routing_postpones_first_death() {
    // 2×3 grid: 0-1-2 top row, 3-4-5 bottom row; flows 0→5 can relay via
    // 1,4 or 3,4… keep it simple: route choice exists between columns.
    let base = ExperimentConfig::grid(3, 2)
        .duration_s(1200.0)
        .seed(55)
        .battery(small_battery(0.6))
        .flow(FlowSpec {
            src: NodeId(0),
            dst: NodeId(5),
            start: SimDuration::from_secs(5),
            packets: u32::MAX / 2,
            loss_tolerance: 1.0,
            initial_rate_pps: None,
        });
    let mut aware = base.clone();
    aware.energy_routing = Some(jtp_netsim::EnergyRoutingConfig::default());
    let m_base = run_experiment(&base);
    let m_aware = run_experiment(&aware);
    let t_base = m_base.first_death_s.expect("hop-count run deaths");
    let t_aware = m_aware.first_death_s.expect("energy-aware run deaths");
    assert!(
        t_aware >= t_base,
        "energy-aware routing must not shorten lifetime: {t_aware} vs {t_base}"
    );
    assert!(m_aware.delivered_packets > 0);
}

/// An area failure crashes exactly the nodes inside the disc.
#[test]
fn area_failure_kills_the_disc() {
    // Chain at 55 m spacing: nodes 0..6 at x = 0,55,…,330. A 60 m blast
    // at x=110 takes out nodes 1,2,3 (x = 55,110,165).
    let cfg = ExperimentConfig::linear(7)
        .duration_s(600.0)
        .seed(3)
        .bulk_flow(u32::MAX / 2, 5.0, 1.0)
        .dynamic(DynamicsEvent::at_s(
            60.0,
            DynamicsAction::AreaFail {
                x_m: 110.0,
                y_m: 0.0,
                radius_m: 60.0,
            },
        ));
    let (with_blast, without_blast) = {
        let mut quiet = cfg.clone();
        quiet.dynamics.clear();
        (run_experiment(&cfg), run_experiment(&quiet))
    };
    // The blast severs the chain mid-transfer: deliveries stop early.
    assert!(
        with_blast.delivered_packets < without_blast.delivered_packets / 2,
        "blast {} vs quiet {}",
        with_blast.delivered_packets,
        without_blast.delivered_packets
    );
    assert!(
        with_blast.churn_drops + with_blast.no_route_drops > 0,
        "crashed relays must cost frames"
    );
}

/// A vanishingly small (but valid) baseline draw: the analytic
/// death-bound arithmetic must conclude "outlives the run" without
/// overflowing, and the run must behave exactly like a healthy battery.
#[test]
fn near_zero_draw_battery_outlives_run_without_overflow() {
    let cfg = ExperimentConfig::linear(3)
        .duration_s(60.0)
        .seed(2)
        .battery(BatteryConfig {
            capacity_j: 1.0,
            idle_draw_w: 1e-18,
            sleep_draw_w: 0.0,
            low_threshold: 0.25,
        })
        .bulk_flow(5, 1.0, 0.0);
    let m = run_experiment(&cfg);
    assert_eq!(m.battery_deaths, 0);
    assert_eq!(m.first_death_s, None);
    assert_eq!(m.delivered_packets, 5);
}

/// Scale smoke: a 100-node grid with batteries, energy-aware routing and
/// churn runs its full lifetime inside a bounded wall-clock budget — the
/// workload whose per-event cost used to collapse past 16 nodes (O(n²)
/// truth rebuilds, O(n³) weighted Dijkstra per advertisement, O(frames)
/// battery prediction per radio charge).
#[test]
fn hundred_node_grid_lifetime_smoke() {
    let start = std::time::Instant::now();
    let cfg = ExperimentConfig::grid(10, 10)
        .duration_s(900.0)
        .seed(500)
        .battery(small_battery(0.5))
        .energy_aware_routing()
        .flow(FlowSpec {
            src: NodeId(0),
            dst: NodeId(33),
            start: SimDuration::from_secs(5),
            packets: u32::MAX / 2, // long-lived: dies with the network
            loss_tolerance: 1.0,
            initial_rate_pps: None,
        })
        .dynamic(DynamicsEvent::at_s(
            100.0,
            DynamicsAction::NodeDown(NodeId(55)),
        ))
        .dynamic(DynamicsEvent::at_s(
            200.0,
            DynamicsAction::NodeUp(NodeId(55)),
        ));
    let m = run_experiment(&cfg);
    assert_eq!(
        m.battery_deaths, 100,
        "every node must deplete inside the horizon"
    );
    assert!(m.first_death_s.is_some());
    assert!(m.delivered_packets > 0, "the transfer must make progress");
    assert_eq!(m.alive_at_s(900.0), 0);
    // "Bounded runtime" is the point of the smoke test: the whole
    // 900-simulated-second, 100-node lifetime run — deaths, floods and
    // re-advertisements included — runs in well under a second in debug
    // builds. The generous wall bound only catches *catastrophic*
    // blowups on slow CI; the asymptotics themselves are pinned by the
    // incremental-vs-scratch equivalence stats and the committed
    // `scale` bench cells, not by this clock.
    assert!(
        start.elapsed() < std::time::Duration::from_secs(30),
        "100-node lifetime run took {:?} — a catastrophic scale regression",
        start.elapsed()
    );
}

/// `DynamicsAction::AreaFail` samples its victim disc from node positions
/// **at the instant the event fires** — under mobility the blast hits
/// wherever nodes have wandered to, not their initial placement. This
/// pins that contract (documented on the action) by snapshotting
/// positions just before the blast and diffing the survivor set.
#[test]
fn area_failure_under_mobility_samples_positions_at_event_time() {
    use jtp_events::NoopSubscriber;
    use jtp_netsim::Network;
    use jtp_phys::Point;
    use jtp_sim::{run_until, SimTime};

    let (centre, radius) = (Point::new(200.0, 120.0), 130.0);
    let cfg = ExperimentConfig::random(20)
        .duration_s(200.0)
        .seed(17)
        .mobile(5.0) // fast: nodes move far before the blast
        .dynamic(DynamicsEvent::at_s(
            120.0,
            DynamicsAction::AreaFail {
                x_m: centre.x,
                y_m: centre.y,
                radius_m: radius,
            },
        ));
    let (mut net, mut queue) = Network::try_with_subscriber(&cfg, NoopSubscriber).expect("valid");
    // Drive to just past the last mobility tick before the blast (ticks
    // are 1 s apart; the blast at t=120 fires on the 119-tick positions
    // because dynamics events were enqueued before that tick).
    run_until(&mut net, &mut queue, SimTime::from_secs_f64(119.5));
    let in_disc_at_event: Vec<bool> = net
        .positions()
        .iter()
        .map(|p| p.distance(centre) <= radius)
        .collect();
    let in_disc_at_start: Vec<bool> =
        jtp_netsim::topology::place_nodes(&cfg.topology, &cfg.pathloss, cfg.seed)
            .iter()
            .map(|p| p.distance(centre) <= radius)
            .collect();
    assert_ne!(
        in_disc_at_event, in_disc_at_start,
        "mobility must have moved the victim set for this test to bite \
         (reseed if the placement ever changes)"
    );
    let horizon = net.horizon();
    run_until(&mut net, &mut queue, horizon);
    for i in 0..20u32 {
        assert_eq!(
            net.node_is_up(NodeId(i)),
            !in_disc_at_event[i as usize],
            "node {i}: victims must be exactly the disc at event time"
        );
    }
}

/// The lifetime catalog scenarios actually exercise the subsystem: every
/// battery entry records deaths under JTP within its horizon.
#[test]
fn lifetime_catalog_entries_record_deaths() {
    for sc in Scenario::catalog().iter().filter(|s| s.battery.is_some()) {
        let m = run_experiment(&sc.build(TransportKind::Jtp));
        assert!(
            m.battery_deaths > 0,
            "{}: no deaths inside the horizon",
            sc.name
        );
        assert!(m.first_death_s.is_some());
        assert!(
            m.delivered_packets > 0,
            "{}: workload never delivered",
            sc.name
        );
    }
}

/// Poisson arrivals flow through the full stack (catalog scenario).
#[test]
fn poisson_traffic_runs_end_to_end() {
    let sc = Scenario::new(
        "poisson-smoke",
        jtp_netsim::TopologyKind::Linear {
            n: 5,
            spacing_m: 55.0,
        },
    )
    .duration_s(600.0)
    .seed(8)
    .traffic(TrafficPattern::Poisson {
        flows: 5,
        rate_per_s: 0.05,
        packets: 10,
        start_s: 5.0,
        loss_tolerance: 0.0,
    });
    let m = run_experiment(&sc.build(TransportKind::Jtp));
    assert_eq!(m.flows.len(), 5);
    assert!(m.delivered_packets >= 40, "most flows should complete");
}
