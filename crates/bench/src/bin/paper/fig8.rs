//! Figure 8 — Rate adaptation of two competing JTP flows and the flip-flop
//! path monitor.
//!
//! A long-lived flow 1 shares a linear path with a short-lived flow 2
//! active during [1000 s, 1250 s]. The top plots show the fair convergence
//! of reception rates while flow 2 is alive; the bottom plots zoom into
//! flow 1's path monitor (reported available rate, running mean, control
//! limits) as the monitor flips to the agile filter at the arrival and
//! departure of flow 2.

use jtp_bench::{finish, mean, Args, Claim};
use jtp_netsim::{
    try_run_subscribed, ExperimentConfig, FlowSpec, TraceConfig, TraceSubscriber, TransportKind,
};
use jtp_sim::{FlowId, NodeId, SimDuration, SimTime};
use serde::Serialize;

#[derive(Serialize)]
struct Output {
    flow1_rate_before: f64,
    flow1_rate_during: f64,
    flow1_rate_after: f64,
    flow2_rate_during: f64,
    monitor_samples: usize,
}

pub fn run(args: &Args) -> Vec<Claim> {
    let scale = if args.quick { 0.4 } else { 1.0 };
    let t_start2 = 1000.0 * scale;
    let t_end2 = 1250.0 * scale;
    let duration = 1800.0 * scale;
    let n = 6;
    let packets2 = ((t_end2 - t_start2) * 3.0) as u32; // keep flow 2 busy

    let cfg = ExperimentConfig::linear(n)
        .transport(TransportKind::Jtp)
        .duration_s(duration)
        .seed(800)
        .flow(FlowSpec {
            src: NodeId(0),
            dst: NodeId(n as u32 - 1),
            start: SimDuration::from_secs(20),
            packets: u32::MAX / 2,
            loss_tolerance: 0.0,
            initial_rate_pps: None,
        })
        .flow(FlowSpec {
            src: NodeId(0),
            dst: NodeId(n as u32 - 1),
            start: SimDuration::from_secs_f64(t_start2),
            packets: packets2,
            loss_tolerance: 0.0,
            initial_rate_pps: None,
        });
    let tracer = TraceSubscriber::new(TraceConfig {
        receptions: true,
        monitor_of: Some(FlowId(0)),
        ..Default::default()
    });
    let (_, tracer) = try_run_subscribed(&cfg, tracer).expect("valid config");
    let trace = tracer.into_log();

    let end = SimTime::from_secs_f64(duration);
    let w = SimDuration::from_secs(50);
    let step = SimDuration::from_secs(25);
    let r1 = trace.reception_rate_series(FlowId(0), w, step, end);
    let r2 = trace.reception_rate_series(FlowId(1), w, step, end);

    println!("== Fig 8(a): instantaneous throughput (pps) ==");
    println!("flow2 active in [{t_start2:.0}s, {t_end2:.0}s]");
    println!("{:>8} {:>8} {:>8}", "t(s)", "flow1", "flow2");
    for ((t, a), (_, b)) in r1.iter().zip(&r2) {
        if *t % (100.0 * scale).max(50.0) < step.as_secs_f64() {
            println!("{t:>8.0} {a:>8.2} {b:>8.2}");
        }
    }

    // Monitor zoom around the arrival of flow 2.
    println!("\n== Fig 8(b): flow 1's path monitor around flow 2 arrival ==");
    println!(
        "{:>9} {:>9} {:>9} {:>9} {:>9}",
        "t(s)", "reported", "mean", "LCL", "UCL"
    );
    let zoom_lo = t_start2 - 15.0;
    let zoom_hi = t_start2 + 40.0;
    let mut printed = 0;
    for s in &trace.monitor {
        let t = s.at.as_secs_f64();
        if t >= zoom_lo && t <= zoom_hi && printed < 25 {
            println!(
                "{:>9.1} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
                t, s.reported, s.mean, s.lcl, s.ucl
            );
            printed += 1;
        }
    }

    let in_window = |series: &[(f64, f64)], lo: f64, hi: f64| -> f64 {
        let xs: Vec<f64> = series
            .iter()
            .filter(|(t, _)| *t >= lo && *t <= hi)
            .map(|(_, r)| *r)
            .collect();
        mean(&xs)
    };
    let out = Output {
        flow1_rate_before: in_window(&r1, t_start2 * 0.5, t_start2 - 50.0),
        flow1_rate_during: in_window(&r1, t_start2 + 50.0, t_end2),
        flow1_rate_after: in_window(&r1, t_end2 + 100.0, duration),
        flow2_rate_during: in_window(&r2, t_start2 + 50.0, t_end2),
        monitor_samples: trace.monitor.len(),
    };
    println!(
        "\nflow1 rate before/during/after flow2: {:.2} / {:.2} / {:.2} pps",
        out.flow1_rate_before, out.flow1_rate_during, out.flow1_rate_after
    );
    println!("flow2 rate while active: {:.2} pps", out.flow2_rate_during);
    finish(
        args,
        &out,
        vec![
            Claim::new(
                "flow1 backs off while flow2 is active",
                out.flow1_rate_during < out.flow1_rate_before,
            ),
            Claim::new(
                "flow1 recovers after flow2 leaves",
                out.flow1_rate_after > out.flow1_rate_during,
            ),
            Claim::new(
                "rates roughly fair while sharing (within 3x)",
                out.flow2_rate_during > 0.0
                    && out.flow1_rate_during / out.flow2_rate_during < 3.0
                    && out.flow2_rate_during / out.flow1_rate_during.max(1e-9) < 3.0,
            ),
        ],
    )
}
