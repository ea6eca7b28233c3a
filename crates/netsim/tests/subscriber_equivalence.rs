//! Subscriber-equivalence pins: the event layer observes the engine, it
//! never perturbs it. For a slice of the canonical catalog, a run with
//! every emission site compiled out (`NoopSubscriber`) and a run under
//! the full subscriber pile (reception trace + report recorder + time
//! accountant) must produce byte-identical metrics and byte-identical
//! golden digests — "without moving a single golden digest line".
//!
//! The same runs cross-check the [`EventCounters`] fold against
//! `Metrics`: the two count the same world through independent plumbing
//! (engine counters vs the event stream), so every shared quantity must
//! agree exactly.

use jtp_events::{DropCause, EventCounters, NoopSubscriber, TimeAccountant};
use jtp_netsim::runner::{try_run_digest_with, try_run_subscribed};
use jtp_netsim::{ReportRecorder, Scenario, TransportKind};

/// A catalog slice that exercises every event source: static baseline,
/// churn dynamics, batteries (deaths + energy routing) and mobility.
fn slice() -> Vec<Scenario> {
    let cat = Scenario::catalog();
    let mut out: Vec<Scenario> = Vec::new();
    for pick in [
        |s: &Scenario| s.dynamics.is_empty() && s.battery.is_none() && s.mobile_mps.is_none(),
        |s: &Scenario| !s.dynamics.is_empty() && s.battery.is_none(),
        |s: &Scenario| s.battery.is_some() && s.mobile_mps.is_none(),
        |s: &Scenario| s.mobile_mps.is_some(),
    ] {
        if let Some(sc) = cat
            .iter()
            .find(|s| pick(s) && !out.iter().any(|o| o.name == s.name))
        {
            out.push(sc.clone());
        }
    }
    assert!(out.len() >= 3, "catalog lost its variety");
    out
}

#[test]
fn full_subscriber_stack_never_moves_a_digest() {
    for sc in slice() {
        for transport in [TransportKind::Jtp, TransportKind::Tcp] {
            let cfg = sc.build(transport);
            let (off, _) = try_run_digest_with(&cfg, NoopSubscriber).expect("catalog lowers");
            let (on, _) =
                try_run_digest_with(&cfg, (ReportRecorder::new(), TimeAccountant::default()))
                    .expect("catalog lowers");
            assert_eq!(
                off.to_line(&sc.name),
                on.to_line(&sc.name),
                "{}: subscriber stack moved the golden digest",
                sc.name
            );
        }
    }
}

#[test]
fn noop_and_counting_runs_agree_on_metrics() {
    for sc in slice() {
        let cfg = sc.build(TransportKind::Jtp);
        let (m_off, _) = try_run_subscribed(&cfg, NoopSubscriber).expect("catalog lowers");
        let (m_on, _) = try_run_subscribed(&cfg, EventCounters::default()).expect("catalog lowers");
        let a = serde_json::to_string(&m_off).expect("metrics serialise");
        let b = serde_json::to_string(&m_on).expect("metrics serialise");
        assert_eq!(a, b, "{}: subscriber run perturbed Metrics", sc.name);
    }
}

#[test]
fn event_counters_cross_check_metrics() {
    for sc in slice() {
        let cfg = sc.build(TransportKind::Jtp);
        let (m, c) = try_run_subscribed(&cfg, EventCounters::default()).expect("catalog lowers");
        assert_eq!(
            c.fresh_deliveries, m.delivered_packets,
            "{}: fresh deliveries vs delivered packets",
            sc.name
        );
        assert_eq!(
            c.sends, m.mac_attempts,
            "{}: send events vs MAC attempts",
            sc.name
        );
        assert_eq!(
            c.drops[DropCause::Queue.index()],
            m.queue_drops,
            "{}: queue drops",
            sc.name
        );
        assert_eq!(
            c.drops[DropCause::Arq.index()],
            m.arq_drops,
            "{}: arq drops",
            sc.name
        );
        assert_eq!(
            c.drops[DropCause::Energy.index()],
            m.energy_budget_drops,
            "{}: energy drops",
            sc.name
        );
        assert_eq!(
            c.drops[DropCause::NoRoute.index()],
            m.no_route_drops,
            "{}: no-route drops",
            sc.name
        );
        assert_eq!(
            c.drops[DropCause::Churn.index()],
            m.churn_drops,
            "{}: churn drops",
            sc.name
        );
        assert_eq!(
            c.battery_deaths, m.battery_deaths,
            "{}: battery deaths",
            sc.name
        );
        assert!(
            c.busy_slots <= c.slots,
            "{}: busy slots cannot exceed slots",
            sc.name
        );
        assert!(
            c.fresh_deliveries <= c.deliveries,
            "{}: fresh deliveries exceed total deliveries",
            sc.name
        );
    }
}

#[test]
fn time_accountant_only_runs_keep_emission_sites_cold() {
    // A lone TimeAccountant asks for dispatch spans but no events; the
    // run must still be byte-inert and the accountant must see spans.
    let sc = &slice()[0];
    let cfg = sc.build(TransportKind::Jtp);
    let (m_off, _) = try_run_subscribed(&cfg, NoopSubscriber).expect("catalog lowers");
    let (m_t, t) = try_run_subscribed(&cfg, TimeAccountant::default()).expect("catalog lowers");
    assert_eq!(
        serde_json::to_string(&m_off).unwrap(),
        serde_json::to_string(&m_t).unwrap(),
        "timing spans perturbed the run"
    );
    let total_spans: u64 = jtp_events::Subsystem::ALL.iter().map(|&s| t.spans(s)).sum();
    assert!(total_spans > 0, "no dispatch spans recorded");
}
