//! Figure 9 — JTP vs ATP vs TCP on static linear topologies.
//!
//! Two competing flows between the ends of linear networks of increasing
//! size, good/bad channel alternation (§6.1.1), 20 independent runs with
//! 95 % confidence intervals, 2500 s runs with flows starting randomly
//! after a 900 s warm-up.
//!
//! Expected shape (paper): JTP spends the least energy per delivered bit
//! — by growing factors as paths lengthen (ATP ~2×, TCP ~5× at size 10) —
//! while also achieving the highest goodput.

use jtp_bench::{maybe_write_json, print_table, render_claims, Args, Claim};
use jtp_netsim::{run_many, summarize_runs, ExperimentConfig, FlowSpec, Metrics, TransportKind};
use jtp_phys::gilbert::GilbertConfig;
use jtp_sim::{NodeId, SimDuration, SimRng};
use serde::Serialize;

/// §6.1.1 channel with deep fades: bad 10 % of the time, 3 s mean bad
/// period, ~0.8 per-attempt loss while bad — the regime where local vs
/// end-to-end recovery differ most.
fn channel() -> GilbertConfig {
    GilbertConfig {
        bad_loss_floor: 0.8,
        ..GilbertConfig::paper_default()
    }
}

/// The transports Figs. 9–11 compare, with their table/JSON names.
pub const JTP_ATP_TCP: [(TransportKind, &str); 3] = [
    (TransportKind::Jtp, "jtp"),
    (TransportKind::Atp, "atp"),
    (TransportKind::Tcp, "tcp"),
];

/// One (network size, transport) cell of Figs. 9 and 10.
#[derive(Serialize)]
pub struct Point {
    pub net_size: usize,
    pub protocol: String,
    pub energy_uj_per_bit: f64,
    pub energy_ci95: f64,
    pub goodput_kbps: f64,
    pub goodput_ci95: f64,
}

impl Point {
    pub fn new(net_size: usize, protocol: &str, ms: &[Metrics]) -> Point {
        let (epb, gp) = summarize_runs(ms);
        Point {
            net_size,
            protocol: protocol.into(),
            energy_uj_per_bit: epb.mean,
            energy_ci95: epb.ci95,
            goodput_kbps: gp.mean,
            goodput_ci95: gp.ci95,
        }
    }
}

pub fn print_points(title: &str, points: &[Point]) {
    print_table(
        title,
        &["netSize", "proto", "energy(uJ/bit)", "goodput(kbps)"],
        points,
        |p| {
            vec![
                p.net_size.to_string(),
                p.protocol.clone(),
                format!("{:.4} ± {:.4}", p.energy_uj_per_bit, p.energy_ci95),
                format!("{:.3} ± {:.3}", p.goodput_kbps, p.goodput_ci95),
            ]
        },
    );
}

fn flows(n: usize, warmup: f64, seed: u64) -> Vec<FlowSpec> {
    // Two competing long-lived flows, one in each direction, started
    // randomly after the warm-up; goodput and energy/bit are measured in
    // steady state over the remainder of the run.
    let mut rng = SimRng::derive(seed, "fig9-starts");
    vec![
        FlowSpec {
            src: NodeId(0),
            dst: NodeId(n as u32 - 1),
            start: SimDuration::from_secs_f64(warmup + rng.uniform(0.0, 100.0)),
            packets: u32::MAX / 2,
            loss_tolerance: 0.0,
            initial_rate_pps: None,
        },
        FlowSpec {
            src: NodeId(n as u32 - 1),
            dst: NodeId(0),
            start: SimDuration::from_secs_f64(warmup + rng.uniform(0.0, 100.0)),
            packets: u32::MAX / 2,
            loss_tolerance: 0.0,
            initial_rate_pps: None,
        },
    ]
}

pub fn run(args: &Args) -> Vec<Claim> {
    let sizes: Vec<usize> = args.pick(vec![2, 4, 6, 8, 10], vec![3, 6]);
    let runs = args.pick(20, 2);
    let duration = args.pick(2500.0, 900.0);
    let warmup = args.pick(900.0, 100.0);

    let mut points = Vec::new();
    for &n in &sizes {
        for (kind, name) in JTP_ATP_TCP {
            let mut cfg = ExperimentConfig::linear(n)
                .transport(kind)
                .duration_s(duration)
                .seed(900);
            cfg.gilbert = channel();
            cfg.flows = flows(n, warmup, 900);
            points.push(Point::new(n, name, &run_many(&cfg, runs)));
        }
    }
    print_points("Fig 9: linear topologies, JTP vs ATP vs TCP", &points);

    // Shape checks at the largest size.
    let last = *sizes.last().unwrap();
    let [j, a, t] = points.as_chunks::<3>().0.last().expect("at least one size");
    println!("\nat netSize {last}:");
    println!(
        "  energy ratios: atp/jtp = {:.2} (paper ~2), tcp/jtp = {:.2} (paper ~5)",
        a.energy_uj_per_bit / j.energy_uj_per_bit,
        t.energy_uj_per_bit / j.energy_uj_per_bit
    );
    let claims = vec![
        Claim::new(
            "JTP lowest energy/bit",
            j.energy_uj_per_bit <= a.energy_uj_per_bit
                && j.energy_uj_per_bit <= t.energy_uj_per_bit,
        ),
        Claim::new(
            "JTP highest goodput",
            j.goodput_kbps >= a.goodput_kbps && j.goodput_kbps >= t.goodput_kbps,
        ),
    ];
    // Printed right under the ratio lines, without a blank line between.
    print!("{}", render_claims(&claims, false));
    maybe_write_json(args, &points);
    claims
}
