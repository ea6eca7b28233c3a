//! Figure 5 — Fair in-network caching: the source back-off `t_b`.
//!
//! Two competing flows on an 8-node linear path: flow 1 is UDP-like
//! (100 % loss tolerance, never requests retransmissions), flow 2 requires
//! full reliability and regularly invokes the caches' local recovery.
//! The recovered packets are extra traffic flow 2 injects mid-path; §4.2
//! makes its source back off `t_b = Σ s_j / r(t)` to compensate.
//!
//! Observables (averaged over several seeds):
//! * flow 2's short-term reception-rate **spikes** relative to its
//!   long-term mean — visible without the back-off (paper's right plots),
//! * the capacity left to the competing flow 1 — the back-off returns the
//!   recovered packets' airtime to the other flow.

use jtp_bench::{finish, mean, mean_by, Args, Claim};
use jtp_netsim::{
    try_run_subscribed, ExperimentConfig, FlowSpec, TraceConfig, TraceSubscriber, TransportKind,
};
use jtp_phys::gilbert::GilbertConfig;
use jtp_sim::{FlowId, NodeId, SimDuration, SimTime};
use serde::Serialize;

#[derive(Serialize, Clone, Copy)]
struct Variant {
    backoff: bool,
    flow1_mean_pps: f64,
    flow2_mean_pps: f64,
    flow2_spike_ratio: f64,
    recoveries: u64,
}

/// A (time, rate) reception-rate series.
type Series = Vec<(f64, f64)>;

fn run_one(args: &Args, backoff: bool, seed: u64) -> (Variant, Series, Series) {
    let n = 8;
    let duration = args.pick(2500.0, 800.0);
    let mut cfg = ExperimentConfig::linear(n)
        .transport(TransportKind::Jtp)
        .duration_s(duration)
        .seed(seed)
        .flow(FlowSpec {
            src: NodeId(0),
            dst: NodeId(n as u32 - 1),
            start: SimDuration::from_secs(50),
            packets: u32::MAX / 2, // long-lived
            loss_tolerance: 1.0,   // UDP-like: never requests recovery
            initial_rate_pps: None,
        })
        .flow(FlowSpec {
            src: NodeId(0),
            dst: NodeId(n as u32 - 1),
            start: SimDuration::from_secs(50),
            packets: u32::MAX / 2,
            loss_tolerance: 0.0, // full reliability: exercises the caches
            initial_rate_pps: None,
        });
    cfg.jtp.backoff_on_local_recovery = backoff;
    // Deep fades so local recovery is a steady presence.
    cfg.gilbert = GilbertConfig {
        bad_fraction: 0.25,
        bad_loss_floor: 0.85,
        ..GilbertConfig::paper_default()
    };
    let tracer = TraceSubscriber::new(TraceConfig {
        receptions: true,
        ..Default::default()
    });
    let (m, tracer) = try_run_subscribed(&cfg, tracer).expect("valid config");
    let trace = tracer.into_log();
    let end = SimTime::from_secs_f64(duration);
    let short = |f: u16| {
        trace.reception_rate_series(
            FlowId(f),
            SimDuration::from_secs(30),
            SimDuration::from_secs(30),
            end,
        )
    };
    let long = |f: u16| {
        trace.reception_rate_series(
            FlowId(f),
            SimDuration::from_secs(300),
            SimDuration::from_secs(100),
            end,
        )
    };
    let steady = |s: &[(f64, f64)]| {
        let xs: Vec<f64> = s.iter().skip(3).map(|(_, r)| *r).collect();
        mean(&xs)
    };
    let s2 = short(1);
    let f2_long = steady(&long(1));
    let f2_peak = s2.iter().skip(3).map(|(_, r)| *r).fold(0.0, f64::max);
    let v = Variant {
        backoff,
        flow1_mean_pps: steady(&long(0)),
        flow2_mean_pps: f2_long,
        flow2_spike_ratio: if f2_long > 0.0 {
            f2_peak / f2_long
        } else {
            0.0
        },
        recoveries: m.local_recoveries,
    };
    (v, short(0), s2)
}

pub fn run(args: &Args) -> Vec<Claim> {
    let seeds: Vec<u64> = args.pick(vec![500, 501, 502, 503], vec![500, 501]);

    let mut with: Vec<Variant> = Vec::new();
    let mut without: Vec<Variant> = Vec::new();
    let mut sample_series: Option<(Series, Series)> = None;
    for &seed in &seeds {
        let (v, s1, s2) = run_one(args, true, seed);
        with.push(v);
        if sample_series.is_none() {
            sample_series = Some((s1, s2));
        }
        let (v, _, _) = run_one(args, false, seed);
        without.push(v);
    }

    println!("== Fig 5: reception rates of two competing flows ==");
    println!("flow1 = UDP-like (lt 100%), flow2 = reliable (lt 0%), 8-node path");
    if let Some((s1, s2)) = &sample_series {
        let fmt = |s: &[(f64, f64)]| {
            s.iter()
                .skip(1)
                .take(12)
                .map(|(_, r)| format!("{r:.2}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!("\nsample short-term series (with back-off, 30 s windows):");
        println!("  flow1: {}", fmt(s1));
        println!("  flow2: {}", fmt(s2));
    }

    let agg = |vs: &[Variant]| {
        let f1 = mean_by(vs, |v| v.flow1_mean_pps);
        let f2 = mean_by(vs, |v| v.flow2_mean_pps);
        let spike = mean_by(vs, |v| v.flow2_spike_ratio);
        let rec: u64 = vs.iter().map(|v| v.recoveries).sum();
        (f1, f2, spike, rec)
    };
    let (f1_w, f2_w, spike_w, rec_w) = agg(&with);
    let (f1_wo, f2_wo, spike_wo, rec_wo) = agg(&without);

    println!("\naveraged over {} seeds:", seeds.len());
    println!(
        "  with back-off:    f1 {f1_w:.3} pps, f2 {f2_w:.3} pps, f2 peak/mean {spike_w:.2}, recoveries {rec_w}"
    );
    println!(
        "  without back-off: f1 {f1_wo:.3} pps, f2 {f2_wo:.3} pps, f2 peak/mean {spike_wo:.2}, recoveries {rec_wo}"
    );

    finish(
        args,
        &vec![with, without],
        vec![
            Claim::new(
                "caches were exercised in both variants",
                rec_w > 0 && rec_wo > 0,
            ),
            Claim::new(
                "back-off leaves the competing flow >= capacity",
                f1_w >= f1_wo * 0.98,
            ),
            Claim::new(
                "back-off tames flow2 spikes (peak/mean smaller)",
                spike_w <= spike_wo + 0.10,
            ),
        ],
    )
}
