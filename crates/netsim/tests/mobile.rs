//! Mobile-topology tests: the first-partition metrics fix and the mobile
//! scale-family smoke (CI's `release-gate` job runs it in release
//! mode). The spatial-grid and diffed-truth oracles live in the
//! unit tests of `topology.rs` and `truth.rs`, next to the test-only
//! reference paths they call.

use jtp_netsim::scenario::Scenario;
use jtp_netsim::{run_experiment, DynamicsAction, DynamicsEvent, ExperimentConfig, TransportKind};
use jtp_sim::NodeId;

/// A link blackout that cuts the only bridge must record
/// `first_partition_s` even though no battery ever dies — the metric is
/// about the live node set disconnecting, whatever the cause. (It used
/// to be recorded only on battery-death disconnections.)
#[test]
fn blackout_partition_records_first_partition() {
    let cfg = ExperimentConfig::linear(5)
        .transport(TransportKind::Jtp)
        .duration_s(300.0)
        .seed(9)
        .bulk_flow(20, 5.0, 0.0)
        .dynamic(DynamicsEvent::at_s(
            40.0,
            DynamicsAction::LinkDown(NodeId(2), NodeId(3)),
        ))
        .dynamic(DynamicsEvent::at_s(
            60.0,
            DynamicsAction::LinkUp(NodeId(2), NodeId(3)),
        ));
    let m = run_experiment(&cfg);
    assert_eq!(m.battery_deaths, 0, "no batteries in this run");
    let t = m
        .first_partition_s
        .expect("blackout cut the chain: first_partition_s must be set");
    assert!(
        (t - 40.0).abs() < 1e-9,
        "recorded at the blackout instant, got {t}"
    );
}

/// A scheduled partition (the `PartitionStart` dynamics) records the
/// metric at its start, and the later heal does not unset it; node churn
/// that severs a chain interior records it too.
#[test]
fn scheduled_partition_and_churn_record_first_partition() {
    let part = ExperimentConfig::linear(6)
        .transport(TransportKind::Jtp)
        .duration_s(400.0)
        .seed(10)
        .bulk_flow(15, 5.0, 0.0)
        .dynamic(DynamicsEvent::at_s(
            70.0,
            DynamicsAction::PartitionStart(vec![NodeId(0), NodeId(1), NodeId(2)]),
        ))
        .dynamic(DynamicsEvent::at_s(120.0, DynamicsAction::PartitionEnd));
    let m = run_experiment(&part);
    assert_eq!(m.first_partition_s, Some(70.0));

    let churn = ExperimentConfig::linear(4)
        .transport(TransportKind::Jtp)
        .duration_s(300.0)
        .seed(11)
        .bulk_flow(15, 5.0, 0.0)
        .dynamic(DynamicsEvent::at_s(
            30.0,
            DynamicsAction::NodeDown(NodeId(1)),
        ))
        .dynamic(DynamicsEvent::at_s(90.0, DynamicsAction::NodeUp(NodeId(1))));
    let m = run_experiment(&churn);
    // Node 1 down splits {0} from {2, 3}: recorded at the crash.
    assert_eq!(m.first_partition_s, Some(30.0));

    // A connected-surviving-set event must NOT record it: losing an
    // endpoint of a chain leaves the survivors mutually reachable.
    let edge = ExperimentConfig::linear(4)
        .transport(TransportKind::Jtp)
        .duration_s(200.0)
        .seed(12)
        .bulk_flow(10, 5.0, 0.0)
        .dynamic(DynamicsEvent::at_s(
            30.0,
            DynamicsAction::NodeDown(NodeId(3)),
        ));
    let m = run_experiment(&edge);
    assert_eq!(m.first_partition_s, None, "survivors stayed connected");
}

/// The mobile scale family runs end to end inside a generous wall-clock
/// bound — the point of the tentpole: a 100+-node *mobile* run priced
/// like a static one. (The asymptotics are pinned by the equivalence
/// stats and the committed `mobility` bench cells; this clock only
/// catches catastrophic regressions on slow CI.)
#[test]
fn mobile_scale_catalog_smoke() {
    let start = std::time::Instant::now();
    let catalog = Scenario::catalog();
    let mobile: Vec<_> = catalog
        .iter()
        .filter(|s| s.mobile_mps.is_some() && s.topology.node_count() >= 100)
        .collect();
    assert!(
        mobile.len() >= 2,
        "mobile scale family missing from catalog"
    );
    for sc in mobile {
        let m = run_experiment(&sc.build(TransportKind::Jtp));
        assert!(
            m.delivered_packets > 0,
            "{}: mobile run delivered nothing",
            sc.name
        );
    }
    assert!(
        start.elapsed() < std::time::Duration::from_secs(60),
        "mobile scale runs took {:?} — a catastrophic mobility-path regression",
        start.elapsed()
    );
}
