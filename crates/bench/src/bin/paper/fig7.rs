//! Figure 7 — Variable-rate vs constant-rate feedback.
//!
//! An 8-node linear topology with one long-lived flow competing with
//! several short-lived flows. The constant feedback rate is swept; the
//! paper shows (a) total energy rising with the feedback rate (more ACK
//! packets) while (b) low feedback rates suffer queue drops because the
//! long-lived sender backs off too slowly when the short flows arrive.
//! Variable-rate feedback achieves both low energy and few drops.

use jtp_bench::{finish, mean_by, print_table, Args, Claim};
use jtp_netsim::{run_many, ExperimentConfig, FlowSpec, TransportKind};
use jtp_sim::{NodeId, SimDuration};
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    feedback: String,
    feedback_rate_pps: f64,
    energy_mj_mean: f64,
    ack_energy_mj_mean: f64,
    /// Data-frame queue drops (the paper counts drops of the flows' data
    /// packets; at high feedback rates the ACK stream itself also gets
    /// dropped, which would otherwise mask the congestion signal).
    queue_drops_mean: f64,
}

fn workload(duration_s: f64) -> Vec<FlowSpec> {
    let n = 8u32;
    let mut flows = vec![FlowSpec {
        src: NodeId(0),
        dst: NodeId(n - 1),
        start: SimDuration::from_secs(20),
        packets: u32::MAX / 2, // long-lived
        loss_tolerance: 0.0,
        initial_rate_pps: None,
    }];
    // Short-lived cross traffic arriving "hot" (at a rate comparable to
    // the path capacity) on sub-paths — the long-lived sender must back
    // off quickly or mid-path queues overflow, which is precisely what
    // distinguishes feedback rates in the paper's Fig. 7(b).
    let mut t = 150.0;
    let mut k = 0u32;
    while t + 100.0 < duration_s {
        let (src, dst) = match k % 3 {
            0 => (1, 5),
            1 => (6, 2),
            _ => (3, 7),
        };
        flows.push(FlowSpec {
            src: NodeId(src),
            dst: NodeId(dst),
            start: SimDuration::from_secs_f64(t),
            packets: 150, // ~50 s episodes: backing off late costs drops
            loss_tolerance: 0.0,
            initial_rate_pps: Some(3.0),
        });
        t += 180.0;
        k += 1;
    }
    flows
}

pub fn run(args: &Args) -> Vec<Claim> {
    let duration = args.pick(2000.0, 800.0);
    let runs = args.pick(8, 2);
    // Constant feedback periods (s) => rates 1/T (the paper sweeps
    // 0.05..0.5 pkts/s).
    let periods: Vec<f64> = args.pick(vec![20.0, 10.0, 5.0, 3.0, 2.0], vec![20.0, 2.0]);

    let base = || {
        let mut cfg = ExperimentConfig::linear(8)
            .transport(TransportKind::Jtp)
            .duration_s(duration)
            .seed(700);
        cfg.flows = workload(duration);
        // Queues deep enough to absorb the rate controller's steady-state
        // limit cycle; only sustained overload episodes overflow them.
        cfg.mac.queue_capacity = 20;
        // Pin the controller's increase cadence to the slowest feedback
        // period for *all* variants: the sweep then varies exactly what
        // the paper varies — how quickly congestion news reaches the
        // sender — rather than how fast the controller ramps.
        cfg.jtp.min_increase_interval = SimDuration::from_secs(20);
        cfg
    };

    let mut points = Vec::new();
    for &period in &periods {
        let mut cfg = base();
        cfg.jtp.variable_feedback = false;
        cfg.jtp.constant_feedback_period = SimDuration::from_secs_f64(period);
        let ms = run_many(&cfg, runs);
        points.push(summarise(
            &ms,
            format!("constant 1/{period}s"),
            1.0 / period,
        ));
    }
    // Variable-rate feedback (JTP's default).
    let ms = run_many(&base(), runs);
    points.push(summarise(&ms, "variable".into(), 0.0));

    print_table(
        "Fig 7: energy and queue drops vs feedback rate",
        &[
            "feedback",
            "rate(pps)",
            "energy(mJ)",
            "ackEnergy(mJ)",
            "queueDrops",
        ],
        &points,
        |p| {
            vec![
                p.feedback.clone(),
                if p.feedback_rate_pps > 0.0 {
                    format!("{:.3}", p.feedback_rate_pps)
                } else {
                    "-".into()
                },
                format!("{:.2}", p.energy_mj_mean),
                format!("{:.2}", p.ack_energy_mj_mean),
                format!("{:.1}", p.queue_drops_mean),
            ]
        },
    );

    let variable = points.last().unwrap();
    let fastest = &points[periods.len() - 1];
    // The paper's headline for Fig. 7: variable-rate feedback achieves
    // both low energy and few drops — i.e. it sits on the sweep's Pareto
    // front rather than at either extreme.
    let min_drops = points[..periods.len()]
        .iter()
        .map(|p| p.queue_drops_mean)
        .fold(f64::INFINITY, f64::min);
    let drops_ok = variable.queue_drops_mean <= min_drops * 1.3 + 5.0;
    let energy_ok = variable.ack_energy_mj_mean < fastest.ack_energy_mj_mean;
    finish(
        args,
        &points,
        vec![
            Claim::new(
                "high feedback rate costs more ACK energy than variable",
                fastest.ack_energy_mj_mean > variable.ack_energy_mj_mean,
            ),
            Claim::new(
                "variable feedback on the energy/drops Pareto front",
                drops_ok && energy_ok,
            ),
        ],
    )
}

fn summarise(ms: &[jtp_netsim::Metrics], label: String, rate: f64) -> Point {
    Point {
        feedback: label,
        feedback_rate_pps: rate,
        energy_mj_mean: mean_by(ms, |m| m.energy_total_j * 1e3),
        ack_energy_mj_mean: mean_by(ms, |m| m.energy_ack_j * 1e3),
        queue_drops_mean: mean_by(ms, |m| m.queue_drops_data as f64),
    }
}
