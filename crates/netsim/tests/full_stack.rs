//! Integration tests of the assembled network: full transfers across the
//! TDMA MAC, Gilbert-Elliott channel, link-state routing and all three
//! transport protocols.

use jtp_netsim::{
    run_experiment, try_run_subscribed, ExperimentConfig, FlowSpec, TraceConfig, TraceSubscriber,
    TransportKind,
};
use jtp_phys::gilbert::GilbertConfig;
use jtp_sim::{NodeId, SimDuration};

fn quick(n: usize, transport: TransportKind, packets: u32, lt: f64) -> ExperimentConfig {
    ExperimentConfig::linear(n)
        .transport(transport)
        .duration_s(1500.0)
        .seed(11)
        .bulk_flow(packets, 5.0, lt)
}

#[test]
fn jtp_delivers_full_transfer_over_lossy_chain() {
    let m = run_experiment(&quick(5, TransportKind::Jtp, 60, 0.0));
    let f = &m.flows[0];
    assert!(f.completed, "transfer did not complete: {f:?}");
    assert_eq!(f.delivered_packets, 60, "0% tolerance => all delivered");
    assert!(m.energy_total_j > 0.0);
    assert!(m.mac_attempts >= 60 * 4, "at least one attempt per hop");
}

#[test]
fn tcp_delivers_full_transfer() {
    let m = run_experiment(&quick(4, TransportKind::Tcp, 40, 0.0));
    let f = &m.flows[0];
    assert!(f.completed, "TCP transfer incomplete: {f:?}");
    assert_eq!(f.delivered_packets, 40);
}

#[test]
fn atp_delivers_full_transfer() {
    let m = run_experiment(&quick(4, TransportKind::Atp, 40, 0.0));
    let f = &m.flows[0];
    assert!(f.completed, "ATP transfer incomplete: {f:?}");
    assert_eq!(f.delivered_packets, 40);
}

#[test]
fn loss_tolerant_flow_meets_but_may_not_exceed_requirement() {
    let mut cfg = quick(5, TransportKind::Jtp, 200, 0.20);
    // Lossier channel so the tolerance actually bites.
    cfg.gilbert = GilbertConfig {
        bad_fraction: 0.2,
        ..GilbertConfig::paper_default()
    };
    let m = run_experiment(&cfg);
    let f = &m.flows[0];
    assert!(f.completed, "tolerant flow should complete: {f:?}");
    let ratio = f.delivered_packets as f64 / 200.0;
    assert!(
        ratio >= 0.80 - 1e-9,
        "application requirement violated: {ratio}"
    );
}

#[test]
fn determinism_same_seed_identical_metrics() {
    let cfg = quick(5, TransportKind::Jtp, 50, 0.0);
    let a = run_experiment(&cfg);
    let b = run_experiment(&cfg);
    assert_eq!(a.delivered_packets, b.delivered_packets);
    assert_eq!(a.mac_attempts, b.mac_attempts);
    assert_eq!(a.source_retransmissions, b.source_retransmissions);
    assert!((a.energy_total_j - b.energy_total_j).abs() < 1e-12);
}

#[test]
fn different_seeds_differ() {
    let a = run_experiment(&quick(5, TransportKind::Jtp, 50, 0.0));
    let b = run_experiment(&quick(5, TransportKind::Jtp, 50, 0.0).seed(12));
    // Channel realisations differ, so the attempt counts almost surely do.
    assert_ne!(a.mac_attempts, b.mac_attempts);
}

#[test]
fn caching_reduces_source_retransmissions() {
    // Lossy enough that end-to-end recovery is regularly needed.
    let mut base = quick(7, TransportKind::Jtp, 120, 0.0);
    base.gilbert = GilbertConfig {
        bad_fraction: 0.25,
        ..GilbertConfig::paper_default()
    };
    let mut jnc = base.clone().transport(TransportKind::Jnc);
    jnc.gilbert = base.gilbert;
    let mut jtp_rtx = 0;
    let mut jnc_rtx = 0;
    let mut jtp_recovered = 0;
    for seed in 0..5 {
        let m1 = run_experiment(&base.clone().seed(100 + seed));
        let m2 = run_experiment(&jnc.clone().seed(100 + seed));
        jtp_rtx += m1.source_retransmissions;
        jnc_rtx += m2.source_retransmissions;
        jtp_recovered += m1.local_recoveries;
    }
    assert!(jtp_recovered > 0, "caches never recovered anything");
    assert!(
        jtp_rtx < jnc_rtx,
        "caching should cut source retransmissions: jtp {jtp_rtx} vs jnc {jnc_rtx}"
    );
}

#[test]
fn jtp_more_energy_efficient_than_tcp_on_long_paths() {
    let mut jtp_epb = 0.0;
    let mut tcp_epb = 0.0;
    for seed in 0..3 {
        let j = run_experiment(&quick(6, TransportKind::Jtp, 80, 0.0).seed(40 + seed));
        let t = run_experiment(&quick(6, TransportKind::Tcp, 80, 0.0).seed(40 + seed));
        jtp_epb += j.energy_per_bit_uj();
        tcp_epb += t.energy_per_bit_uj();
    }
    assert!(
        jtp_epb < tcp_epb,
        "JTP should beat TCP on energy/bit: {jtp_epb} vs {tcp_epb}"
    );
}

#[test]
fn two_competing_flows_both_progress() {
    let n = 6;
    let cfg = ExperimentConfig::linear(n)
        .transport(TransportKind::Jtp)
        .duration_s(2000.0)
        .seed(21)
        .flow(FlowSpec {
            src: NodeId(0),
            dst: NodeId(n as u32 - 1),
            start: SimDuration::from_secs(5),
            packets: 300,
            loss_tolerance: 0.0,
            initial_rate_pps: None,
        })
        .flow(FlowSpec {
            src: NodeId(n as u32 - 1),
            dst: NodeId(0),
            start: SimDuration::from_secs(5),
            packets: 300,
            loss_tolerance: 0.0,
            initial_rate_pps: None,
        });
    let m = run_experiment(&cfg);
    for f in &m.flows {
        assert!(f.delivered_packets > 50, "flow {} starved: {f:?}", f.flow);
    }
}

#[test]
fn mobile_network_still_delivers() {
    let cfg = ExperimentConfig::random(10)
        .transport(TransportKind::Jtp)
        .duration_s(2000.0)
        .seed(31)
        .mobile(1.0)
        .flow(FlowSpec {
            src: NodeId(0),
            dst: NodeId(9),
            start: SimDuration::from_secs(10),
            packets: 100,
            loss_tolerance: 0.0,
            initial_rate_pps: None,
        });
    let m = run_experiment(&cfg);
    assert!(
        m.flows[0].delivered_packets > 20,
        "mobility should degrade, not destroy, delivery: {:?}",
        m.flows[0]
    );
}

#[test]
fn traces_capture_receptions_and_attempts() {
    let trace_cfg = TraceConfig {
        receptions: true,
        attempts_at: Some(NodeId(2)),
        monitor_of: Some(jtp_sim::FlowId(0)),
    };
    let cfg = quick(4, TransportKind::Jtp, 50, 0.10);
    let (m, sub) = try_run_subscribed(&cfg, TraceSubscriber::new(trace_cfg)).expect("valid");
    let trace = sub.into_log();
    assert!(m.delivered_packets > 0);
    assert_eq!(trace.receptions.len() as u64, m.delivered_packets);
    assert!(!trace.attempts.is_empty(), "node 2 forwarded packets");
    assert!(
        trace.attempts.iter().all(|(_, a)| (1..=5).contains(a)),
        "budgets within MAC cap"
    );
    assert!(!trace.monitor.is_empty(), "monitor samples recorded");
}

#[test]
fn queue_drops_appear_under_overload() {
    // Tiny queues + aggressive constant feedback = congestion.
    let mut cfg = ExperimentConfig::linear(6)
        .transport(TransportKind::Jtp)
        .duration_s(1000.0)
        .seed(5)
        .bulk_flow(400, 5.0, 0.0);
    cfg.mac.queue_capacity = 3;
    let m = run_experiment(&cfg);
    // With deep multi-hop relaying through 3-slot queues some drops are
    // expected; mainly we assert the accounting plumbing works.
    assert!(m.queue_drops + m.arq_drops + m.delivered_packets > 0);
}

#[test]
fn energy_split_includes_ack_traffic() {
    let m = run_experiment(&quick(4, TransportKind::Jtp, 60, 0.0));
    assert!(m.energy_ack_j > 0.0, "feedback must cost energy");
    assert!(m.energy_ack_j < m.energy_total_j);
}

#[test]
fn stable_channel_uses_fewer_attempts() {
    let mut stable_total = 0;
    let mut lossy_total = 0;
    for seed in 0..4 {
        let mut stable = quick(5, TransportKind::Jtp, 100, 0.0).seed(60 + seed);
        stable.gilbert = GilbertConfig::stable();
        let mut lossy = quick(5, TransportKind::Jtp, 100, 0.0).seed(60 + seed);
        lossy.gilbert = GilbertConfig {
            bad_fraction: 0.3,
            ..GilbertConfig::paper_default()
        };
        stable_total += run_experiment(&stable).mac_attempts;
        lossy_total += run_experiment(&lossy).mac_attempts;
    }
    assert!(
        stable_total < lossy_total,
        "stable {stable_total} !< lossy {lossy_total}"
    );
}
