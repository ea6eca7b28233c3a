//! Network-lifetime comparison: which transport keeps a battery-powered
//! network alive — and delivering — longest?
//!
//! Runs the lifetime catalog scenarios (finite batteries, long-lived
//! workloads) under JTP / JNC / ATP / TCP and reports time-to-first-death,
//! time-to-partition, the alive-node curve at quarter points of the run,
//! packets delivered before the lights went out and energy-per-bit — the
//! paper's §6.1 energy story closed into an actual lifetime answer.
//!
//! Run: `cargo run --release -p jtp-bench --bin paper -- lifetime
//! --quick --json BENCH_lifetime.json`

use jtp_bench::{mean_by, Args, Claim};
use jtp_netsim::{run_many, Scenario, TransportKind};
use serde::Serialize;

#[derive(Serialize)]
struct Cell {
    scenario: String,
    transport: String,
    seeds: usize,
    /// Mean time of the first battery death (s); the run horizon when no
    /// node died.
    first_death_s_mean: f64,
    /// Fraction of runs in which the survivors were partitioned.
    partitioned_frac: f64,
    /// Mean alive-node counts at 25/50/75/100 % of the horizon.
    alive_curve: Vec<f64>,
    /// Mean packets delivered before the network died (or the run ended).
    delivered_mean: f64,
    /// Mean battery deaths per run.
    deaths_mean: f64,
    /// Mean residual energy left per node at harvest (J).
    residual_j_mean: f64,
    energy_per_bit_uj_mean: f64,
}

#[derive(Serialize)]
struct Report {
    quick: bool,
    cells: Vec<Cell>,
}

pub fn run(args: &Args) -> Vec<Claim> {
    let seeds = args.pick(6, 2);
    let transports = [
        (TransportKind::Jtp, "JTP"),
        (TransportKind::Jnc, "JNC"),
        (TransportKind::Atp, "ATP"),
        (TransportKind::Tcp, "TCP"),
    ];
    let scenarios: Vec<Scenario> = Scenario::catalog()
        .into_iter()
        .filter(|s| s.battery.is_some())
        .collect();
    assert!(
        !scenarios.is_empty(),
        "the catalog lost its lifetime (battery) entries"
    );
    let mut cells = Vec::new();
    let mut rows = Vec::new();
    for sc in &scenarios {
        let horizon = sc.duration_s;
        let n_nodes = sc.topology.node_count() as f64;
        for (t, tname) in transports {
            let cfg = sc.build(t);
            let ms = run_many(&cfg, seeds);
            let first_death = mean_by(&ms, |m| m.first_death_s.unwrap_or(horizon));
            let partitioned = ms.iter().filter(|m| m.first_partition_s.is_some()).count() as f64
                / ms.len() as f64;
            let alive_curve: Vec<f64> = [0.25, 0.5, 0.75, 1.0]
                .iter()
                .map(|q| mean_by(&ms, |m| m.alive_at_s(q * horizon) as f64))
                .collect();
            let delivered = mean_by(&ms, |m| m.delivered_packets as f64);
            let epb = {
                let finite: Vec<f64> = ms
                    .iter()
                    .map(|m| m.energy_per_bit_uj())
                    .filter(|v| v.is_finite())
                    .collect();
                jtp_bench::mean(&finite)
            };
            rows.push(vec![
                sc.name.clone(),
                tname.into(),
                format!("{first_death:.1}"),
                format!("{partitioned:.2}"),
                format!(
                    "{:.1}/{:.1}/{:.1}/{:.1}",
                    alive_curve[0], alive_curve[1], alive_curve[2], alive_curve[3]
                ),
                format!("{:.1}%", alive_curve[3] / n_nodes * 100.0),
                format!("{delivered:.0}"),
                format!("{epb:.3}"),
            ]);
            cells.push(Cell {
                scenario: sc.name.clone(),
                transport: tname.into(),
                seeds,
                first_death_s_mean: first_death,
                partitioned_frac: partitioned,
                alive_curve,
                delivered_mean: delivered,
                deaths_mean: mean_by(&ms, |m| m.battery_deaths as f64),
                residual_j_mean: mean_by(&ms, |m| m.mean_residual_j().unwrap_or(0.0)),
                energy_per_bit_uj_mean: epb,
            });
        }
    }
    jtp_bench::print_table(
        &format!("Network lifetime ({seeds} seeds per cell)"),
        &[
            "scenario",
            "transport",
            "first death s",
            "partitioned",
            "alive @25/50/75/100%",
            "survive%",
            "delivered",
            "µJ/bit",
        ],
        &rows,
        Vec::clone,
    );
    let report = Report {
        quick: args.quick,
        cells,
    };
    jtp_bench::maybe_write_json(args, &report);
    Vec::new()
}
