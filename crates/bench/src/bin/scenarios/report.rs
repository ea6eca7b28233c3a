//! Per-scenario reports: run a slice of the canonical catalog through the
//! report subscriber stack and emit netbench-style artifacts — one
//! deterministic JSON document (byte-identical across runs of the same
//! build; CI's `release-gate` job runs this twice and `cmp`s) plus a
//! rendered markdown report with flow timelines, queue-depth histograms,
//! drop/flood breakdowns and the wall-clock time accounting.
//!
//! Run: `cargo run --release -p jtp-bench --bin scenarios -- report --quick
//! --json BENCH_report.json --md BENCH_report.md`

use jtp_bench::Args;
use jtp_netsim::{render_markdown, try_run_report, Scenario, ScenarioReport, TransportKind};
use serde::Serialize;

#[derive(Serialize)]
struct Bundle {
    quick: bool,
    reports: Vec<ScenarioReport>,
}

pub fn run(args: &Args) {
    // Quick mode keeps the cheap half of the catalog (static + dynamics
    // entries); the full run reports every catalog scenario.
    let scenarios: Vec<Scenario> = Scenario::catalog()
        .into_iter()
        .filter(|sc| !args.quick || (sc.battery.is_none() && sc.mobile_mps.is_none()))
        .collect();

    let mut reports = Vec::new();
    let mut markdown = String::new();
    for sc in &scenarios {
        let (report, time) = try_run_report(sc, TransportKind::Jtp).expect("catalog lowers");
        println!(
            "{:<28} delivered {:>6} ({:>5.1}%) | {:>7.2} kbit/s | {:>8.3} µJ/bit | {} floods",
            report.scenario,
            report.delivered_packets,
            report.delivery_ratio * 100.0,
            report.goodput_kbps,
            report.energy_per_bit_uj,
            report.events.total_floods,
        );
        markdown.push_str(&render_markdown(&report, Some(&time)));
        markdown.push('\n');
        reports.push(report);
    }

    if let Some(path) = &args.md {
        std::fs::write(path, &markdown).expect("write markdown report");
        println!("wrote {}", path.display());
    }
    if let Some(path) = &args.json {
        let bundle = Bundle {
            quick: args.quick,
            reports,
        };
        let json = serde_json::to_string(&bundle).expect("reports serialise");
        std::fs::write(path, json).expect("write JSON report");
        println!("wrote {}", path.display());
    }
}
