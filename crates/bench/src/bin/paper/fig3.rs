//! Figure 3 — Different reliability levels (jtp0 / jtp10 / jtp20).
//!
//! (a) Total energy spent vs. network size for loss tolerances 0/10/20 %.
//! (b) Data delivered to the application vs. network size, against the
//!     application requirement lines (80 % and 90 % of the offered data).
//! (c) The per-packet MAC attempt budget iJTP assigns over time at the
//!     third node of a 4-node path.
//!
//! Expected shape (paper): jtp0 spends the most energy, jtp20 the least;
//! all three deliver at least their requirement; the attempt budget is
//! larger for less tolerant flows and spikes during bad channel periods.

use jtp_bench::{finish, mean_by, print_table, Args, Claim};
use jtp_netsim::{
    run_many, try_run_subscribed, ExperimentConfig, TraceConfig, TraceSubscriber, TransportKind,
};
use jtp_sim::NodeId;
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    net_size: usize,
    loss_tolerance: f64,
    energy_j_mean: f64,
    delivered_kb_mean: f64,
    offered_kb: f64,
    delivery_fraction: f64,
}

pub fn run(args: &Args) -> Vec<Claim> {
    let sizes: Vec<usize> = args.pick((2..=8).collect(), vec![3, 5]);
    let runs = args.pick(10, 2);
    let packets: u32 = args.pick(400, 80);
    let tolerances = [0.0, 0.10, 0.20];

    let mut points = Vec::new();
    for &n in &sizes {
        for &lt in &tolerances {
            let cfg = ExperimentConfig::linear(n)
                .transport(TransportKind::Jtp)
                .duration_s(args.pick(2500.0, 800.0))
                .seed(300)
                .bulk_flow(packets, 10.0, lt);
            let ms = run_many(&cfg, runs);
            let energy = mean_by(&ms, |m| m.energy_total_j);
            let delivered = mean_by(&ms, |m| m.delivered_bytes as f64 / 1000.0);
            let offered = packets as f64 * 0.8; // 800 B payloads => 0.8 kB each
            points.push(Point {
                net_size: n,
                loss_tolerance: lt,
                energy_j_mean: energy,
                delivered_kb_mean: delivered,
                offered_kb: offered,
                delivery_fraction: delivered / offered,
            });
        }
    }

    print_table(
        "Fig 3(a,b): energy & data delivered per reliability level",
        &[
            "netSize",
            "level",
            "energy(J)",
            "delivered(kB)",
            "offered(kB)",
            "fraction",
        ],
        &points,
        |p| {
            vec![
                p.net_size.to_string(),
                format!("jtp{}", (p.loss_tolerance * 100.0) as u32),
                format!("{:.4}", p.energy_j_mean),
                format!("{:.1}", p.delivered_kb_mean),
                format!("{:.1}", p.offered_kb),
                format!("{:.3}", p.delivery_fraction),
            ]
        },
    );
    println!("requirement lines: jtp10 >= 0.90, jtp20 >= 0.80 of offered data");

    // (c) attempt budgets over time at the third node of a 4-node path.
    println!("\n== Fig 3(c): max link-layer attempts at node 3 (4-node path) ==");
    for &lt in &[0.10, 0.20] {
        let cfg = ExperimentConfig::linear(4)
            .transport(TransportKind::Jtp)
            .duration_s(args.pick(1200.0, 400.0))
            .seed(333)
            .bulk_flow(args.pick(600, 150), 10.0, lt);
        let tracer = TraceSubscriber::new(TraceConfig {
            attempts_at: Some(NodeId(2)),
            ..Default::default()
        });
        let (_, tracer) = try_run_subscribed(&cfg, tracer).expect("valid config");
        let trace = tracer.into_log();
        // Bucket the budgets into 20 s bins, printing the max per bin
        // (mirrors the paper's scatter of per-packet budgets).
        let bin = 20.0;
        let mut bins: Vec<(f64, u32)> = Vec::new();
        for (t, a) in &trace.attempts {
            let b = (t.as_secs_f64() / bin).floor() * bin;
            match bins.last_mut() {
                Some((bt, ba)) if *bt == b => *ba = (*ba).max(*a),
                _ => bins.push((b, *a)),
            }
        }
        let series: Vec<String> = bins
            .iter()
            .take(20)
            .map(|(t, a)| format!("{t:>6.0}s:{a}"))
            .collect();
        println!("jtp{:<2} {}", (lt * 100.0) as u32, series.join(" "));
    }

    // jtp0 should cost >= jtp20 at the largest size: the last trio of
    // points, one per tolerance.
    let [jtp0, _, jtp20] = points.as_chunks::<3>().0.last().expect("at least one size");
    let verdict_energy_ordering = jtp0.energy_j_mean >= jtp20.energy_j_mean;
    finish(
        args,
        &points,
        vec![Claim::new(
            "energy(jtp0) >= energy(jtp20) at max size",
            verdict_energy_ordering,
        )],
    )
}
