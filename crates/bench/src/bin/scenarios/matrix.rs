//! Scenario matrix: sweep the canonical scenario catalog across all five
//! transports (JTP / TCP / ATP / CUBIC / BBR), batch-averaged over
//! independent seeds.
//!
//! Two sections:
//!
//! * `catalog` — the scenario engine's headline artifact: one row per
//!   (scenario, transport) cell with delivery ratio, mean goodput,
//!   energy-per-bit and the recovery/drop counters that explain them —
//!   the paper's two-metric comparison extended to workloads and
//!   substrate dynamics the paper never ran.
//! * `transports` — the heavy-traffic opponents matrix: the `heavy-*`
//!   adversarial scenarios × all five transports, scored on fairness
//!   (Jain's index over per-flow goodput), latency (mean flow completion
//!   time) and lifetime (first battery death, death count, energy per
//!   bit).
//!
//! `--json` writes one object, `{"quick", "catalog", "transports"}`, with
//! one list of cells per section; a section `--section` left out is an
//! empty list.
//!
//! Run: `cargo run --release -p jtp-bench --bin scenarios -- matrix --quick
//! --json BENCH_scenarios.json`

use jtp_bench::{mean_by, Args};
use jtp_netsim::{run_many, summarize_runs, FlowMetrics, Scenario, TransportKind};
use serde::Serialize;

const TRANSPORTS: [(TransportKind, &str); 5] = [
    (TransportKind::Jtp, "JTP"),
    (TransportKind::Tcp, "TCP"),
    (TransportKind::Atp, "ATP"),
    (TransportKind::Cubic, "CUBIC"),
    (TransportKind::Bbr, "BBR"),
];

#[derive(Serialize)]
struct Cell {
    scenario: String,
    transport: String,
    seeds: usize,
    flows: usize,
    delivery_ratio_mean: f64,
    goodput_kbps_mean: f64,
    goodput_kbps_ci95: f64,
    energy_per_bit_uj_mean: f64,
    energy_per_bit_uj_ci95: f64,
    source_retransmissions: f64,
    local_recoveries: f64,
    churn_drops: f64,
    no_route_drops: f64,
}

/// One (heavy scenario, transport) cell of the opponents matrix.
#[derive(Serialize)]
struct TransportCell {
    scenario: String,
    transport: String,
    seeds: usize,
    flows: usize,
    delivery_ratio_mean: f64,
    goodput_kbps_mean: f64,
    /// Jain's fairness index over per-flow goodput, averaged across runs.
    jain_fairness_mean: f64,
    /// Mean time from flow start to completion (or run end), seconds.
    flow_completion_s_mean: f64,
    /// Fraction of flows that completed within the run.
    completed_frac: f64,
    /// Mean time of the first battery death (run horizon when none died).
    first_death_s_mean: f64,
    battery_deaths_mean: f64,
    energy_per_bit_uj_mean: f64,
}

#[derive(Serialize)]
struct Matrix {
    quick: bool,
    catalog: Vec<Cell>,
    transports: Vec<TransportCell>,
}

/// Jain's fairness index `(Σx)² / (n·Σx²)`; 1.0 for an empty or all-zero
/// allocation (nothing to be unfair about).
fn jain(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq <= 0.0 {
        1.0
    } else {
        sum * sum / (n * sq)
    }
}

fn catalog_section(seeds: usize) -> Vec<Cell> {
    let mut cells = Vec::new();
    for sc in Scenario::catalog() {
        for (t, tname) in TRANSPORTS {
            let cfg = sc.build(t);
            let ms = run_many(&cfg, seeds);
            let (epb, gp) = summarize_runs(&ms);
            cells.push(Cell {
                scenario: sc.name.clone(),
                transport: tname.into(),
                seeds,
                flows: cfg.flows.len(),
                delivery_ratio_mean: mean_by(&ms, |m| m.delivery_ratio()),
                goodput_kbps_mean: gp.mean,
                goodput_kbps_ci95: gp.ci95,
                energy_per_bit_uj_mean: epb.mean,
                energy_per_bit_uj_ci95: epb.ci95,
                source_retransmissions: mean_by(&ms, |m| m.source_retransmissions as f64),
                local_recoveries: mean_by(&ms, |m| m.local_recoveries as f64),
                churn_drops: mean_by(&ms, |m| m.churn_drops as f64),
                no_route_drops: mean_by(&ms, |m| m.no_route_drops as f64),
            });
        }
    }
    jtp_bench::print_table(
        &format!("Scenario matrix ({seeds} seeds per cell)"),
        &[
            "scenario",
            "transport",
            "flows",
            "delivery",
            "goodput kbps",
            "µJ/bit",
            "src rtx",
            "cache rec",
            "churn+noroute",
        ],
        &cells,
        |cell| {
            vec![
                cell.scenario.clone(),
                cell.transport.clone(),
                format!("{}", cell.flows),
                format!("{:.3}", cell.delivery_ratio_mean),
                format!("{:.2}", cell.goodput_kbps_mean),
                format!("{:.3}", cell.energy_per_bit_uj_mean),
                format!("{:.1}", cell.source_retransmissions),
                format!("{:.1}", cell.local_recoveries),
                format!("{:.1}", cell.churn_drops + cell.no_route_drops),
            ]
        },
    );
    cells
}

fn transports_section(seeds: usize) -> Vec<TransportCell> {
    let heavy = Scenario::heavy_catalog();
    assert!(!heavy.is_empty(), "the catalog lost its heavy-* entries");
    let mut cells = Vec::new();
    for sc in &heavy {
        let horizon = sc.duration_s;
        for (t, tname) in TRANSPORTS {
            let cfg = sc.build(t);
            let ms = run_many(&cfg, seeds);
            let (epb, gp) = summarize_runs(&ms);
            let fairness = mean_by(&ms, |m| {
                let g: Vec<f64> = m.flows.iter().map(|f| f.goodput_kbps()).collect();
                jain(&g)
            });
            let flows: Vec<&FlowMetrics> = ms.iter().flat_map(|m| &m.flows).collect();
            cells.push(TransportCell {
                scenario: sc.name.clone(),
                transport: tname.into(),
                seeds,
                flows: cfg.flows.len(),
                delivery_ratio_mean: mean_by(&ms, |m| m.delivery_ratio()),
                goodput_kbps_mean: gp.mean,
                jain_fairness_mean: fairness,
                flow_completion_s_mean: mean_by(&flows, |f| f.active_time_s),
                completed_frac: mean_by(&flows, |f| f.completed as u32 as f64),
                first_death_s_mean: mean_by(&ms, |m| m.first_death_s.unwrap_or(horizon)),
                battery_deaths_mean: mean_by(&ms, |m| m.battery_deaths as f64),
                energy_per_bit_uj_mean: epb.mean,
            });
        }
    }
    jtp_bench::print_table(
        &format!("Heavy-traffic opponents matrix ({seeds} seeds per cell)"),
        &[
            "scenario",
            "transport",
            "flows",
            "delivery",
            "goodput kbps",
            "jain",
            "fct s",
            "done%",
            "first death s",
            "deaths",
            "µJ/bit",
        ],
        &cells,
        |cell| {
            vec![
                cell.scenario.clone(),
                cell.transport.clone(),
                format!("{}", cell.flows),
                format!("{:.3}", cell.delivery_ratio_mean),
                format!("{:.2}", cell.goodput_kbps_mean),
                format!("{:.3}", cell.jain_fairness_mean),
                format!("{:.1}", cell.flow_completion_s_mean),
                format!("{:.2}", cell.completed_frac),
                format!("{:.1}", cell.first_death_s_mean),
                format!("{:.1}", cell.battery_deaths_mean),
                format!("{:.3}", cell.energy_per_bit_uj_mean),
            ]
        },
    );
    cells
}

pub fn run(args: &Args) {
    let mut matrix = Matrix {
        quick: args.quick,
        catalog: Vec::new(),
        transports: Vec::new(),
    };
    if args.section_enabled("catalog") {
        matrix.catalog = catalog_section(args.pick(8, 2));
    }
    if args.section_enabled("transports") {
        matrix.transports = transports_section(args.pick(6, 2));
    }
    jtp_bench::maybe_write_json(args, &matrix);
}
