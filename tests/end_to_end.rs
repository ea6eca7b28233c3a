//! Workspace-level integration tests through the `javelen` facade:
//! cross-crate invariants that tie the transport, MAC, routing, channel
//! and energy accounting together.

use javelen::jtp::analysis;
use javelen::netsim::{
    run_experiment, run_many, try_run_subscribed, ExperimentConfig, FlowSpec, TraceConfig,
    TraceSubscriber, TransportKind,
};
use javelen::phys::gilbert::GilbertConfig;
use javelen::sim::{FlowId, NodeId, SimDuration};

fn chain(n: usize, kind: TransportKind, packets: u32) -> ExperimentConfig {
    ExperimentConfig::linear(n)
        .transport(kind)
        .duration_s(2000.0)
        .seed(2024)
        .bulk_flow(packets, 5.0, 0.0)
}

#[test]
fn energy_conservation_per_node_sums_to_total() {
    let m = run_experiment(&chain(6, TransportKind::Jtp, 80));
    let sum: f64 = m.per_node_energy_j.iter().sum();
    assert!(
        (sum - m.energy_total_j).abs() < 1e-9,
        "per-node energies must sum to the system total"
    );
    assert!(m.energy_ack_j <= m.energy_total_j);
}

#[test]
fn endpoints_of_a_linear_path_spend_less_than_relays() {
    // Source transmits only; destination mostly receives; relays do both.
    let m = run_experiment(&chain(7, TransportKind::Jtp, 150));
    let e = &m.per_node_energy_j;
    let relay_avg = e[1..6].iter().sum::<f64>() / 5.0;
    assert!(
        e[6] < relay_avg,
        "destination {} !< relays {relay_avg}",
        e[6]
    );
}

#[test]
fn mac_attempts_bound_delivered_times_hops() {
    let m = run_experiment(&chain(5, TransportKind::Jtp, 100));
    // Every delivered packet crossed 4 links at least once.
    assert!(m.mac_attempts >= m.delivered_packets * 4);
    // And the attempt cap bounds the blow-up (plus feedback traffic).
    assert!(m.mac_attempts < m.delivered_packets * 4 * 6);
}

#[test]
fn all_protocols_complete_the_same_workload() {
    for kind in [
        TransportKind::Jtp,
        TransportKind::Jnc,
        TransportKind::Tcp,
        TransportKind::Atp,
    ] {
        let m = run_experiment(&chain(4, kind, 60));
        assert!(
            m.flows[0].completed,
            "{kind:?} failed to complete: {:?}",
            m.flows[0]
        );
        assert_eq!(m.flows[0].delivered_packets, 60, "{kind:?}");
    }
}

#[test]
fn simulated_caching_gain_tracks_closed_form_ordering() {
    // eqs (5)/(6): the measured JNC/JTP transmission ratio grows with path
    // length, as the closed forms predict.
    let mut prev_ratio = 0.0;
    for &n in &[3usize, 7] {
        let mut jtp_cfg = chain(n, TransportKind::Jtp, 150);
        let mut jnc_cfg = chain(n, TransportKind::Jnc, 150);
        for cfg in [&mut jtp_cfg, &mut jnc_cfg] {
            cfg.gilbert = GilbertConfig::stable();
            cfg.pathloss.base_loss = 0.30; // uniform heavy loss
        }
        let jtp_tx: u64 = run_many(&jtp_cfg, 3).iter().map(|m| m.mac_attempts).sum();
        let jnc_tx: u64 = run_many(&jnc_cfg, 3).iter().map(|m| m.mac_attempts).sum();
        let ratio = jnc_tx as f64 / jtp_tx as f64;
        assert!(
            ratio >= prev_ratio * 0.9,
            "gain should not collapse with hops: H={} ratio={ratio}",
            n - 1
        );
        prev_ratio = ratio;
        // Closed-form gain for these parameters is also > 1.
        assert!(analysis::caching_gain(n as u32 - 1, 0.30, 5) >= 1.0);
    }
}

#[test]
fn udp_like_flow_never_requests_recovery() {
    let mut cfg = ExperimentConfig::linear(5)
        .transport(TransportKind::Jtp)
        .duration_s(1200.0)
        .seed(77)
        .bulk_flow(200, 5.0, 1.0); // fully tolerant
    cfg.gilbert = GilbertConfig {
        bad_fraction: 0.3,
        ..GilbertConfig::paper_default()
    };
    let m = run_experiment(&cfg);
    // Tolerant flows never SNACK, so caches are never asked to recover;
    // the only permitted source resends are tail probes (the transfer's
    // final packets are invisible to the receiver if lost, and the sender
    // re-sends a couple to close the connection).
    // A probe is resent once per feedback round until the tail lands, so
    // a handful is possible on a lossy channel (30% bad state here) — but
    // never bulk recovery, which would be on the order of the transfer
    // size (200).
    assert!(
        m.source_retransmissions <= 15,
        "UDP-like: only tail probes allowed, got {}",
        m.source_retransmissions
    );
    assert_eq!(m.local_recoveries, 0, "UDP-like: no SNACK, no cache hits");
    assert!(m.flows[0].completed, "tolerant flows complete regardless");
    assert!(m.flows[0].delivered_packets <= 200);
}

#[test]
fn reliability_energy_ordering_jtp0_vs_jtp20() {
    let mut total0 = 0.0;
    let mut total20 = 0.0;
    for seed in 0..3u64 {
        let mut a = chain(6, TransportKind::Jtp, 150);
        a.seed = 3000 + seed;
        let mut b = a.clone();
        a.flows[0].loss_tolerance = 0.0;
        b.flows[0].loss_tolerance = 0.20;
        for cfg in [&mut a, &mut b] {
            cfg.gilbert = GilbertConfig {
                bad_fraction: 0.25,
                ..GilbertConfig::paper_default()
            };
        }
        total0 += run_experiment(&a).energy_total_j;
        total20 += run_experiment(&b).energy_total_j;
    }
    assert!(
        total20 < total0,
        "tolerating 20% loss must save energy: {total20} !< {total0}"
    );
}

#[test]
fn route_break_mid_transfer_is_survived() {
    // A mobile run where the path almost certainly changes mid-transfer;
    // full reliability must still complete or deliver the large majority.
    let cfg = ExperimentConfig::random(12)
        .transport(TransportKind::Jtp)
        .duration_s(3000.0)
        .seed(4242)
        .mobile(2.0)
        .flow(FlowSpec {
            src: NodeId(0),
            dst: NodeId(11),
            start: SimDuration::from_secs(50),
            packets: 150,
            loss_tolerance: 0.0,
            initial_rate_pps: None,
        });
    let m = run_experiment(&cfg);
    assert!(
        m.flows[0].delivered_packets >= 100,
        "mobility should not break the transfer: {:?}",
        m.flows[0]
    );
}

#[test]
fn trace_reception_rate_matches_goodput() {
    let trace = TraceSubscriber::new(TraceConfig {
        receptions: true,
        ..Default::default()
    });
    let (m, sub) = try_run_subscribed(&chain(4, TransportKind::Jtp, 120), trace).expect("valid");
    let trace = sub.into_log();
    let n_receptions = trace
        .receptions
        .iter()
        .filter(|(_, f)| *f == FlowId(0))
        .count() as u64;
    assert_eq!(n_receptions, m.flows[0].delivered_packets);
}

#[test]
fn zero_packet_flow_is_trivially_complete() {
    let m = run_experiment(&chain(3, TransportKind::Jtp, 0));
    assert!(m.flows[0].completed);
    assert_eq!(m.delivered_packets, 0);
}
