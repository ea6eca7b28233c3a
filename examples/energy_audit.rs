//! Energy audit: where do the joules go, protocol by protocol?
//!
//! Runs the same workload under JTP, JNC (no caching), ATP and TCP and
//! breaks system energy into data vs feedback traffic — the practical view
//! behind the paper's design goals (§2): minimise end-to-end
//! retransmissions, minimise acknowledgments, avoid congestion loss.
//!
//! ```sh
//! cargo run --release --example energy_audit
//! ```

use javelen::events::TimeAccountant;
use javelen::netsim::{
    run_experiment, try_run_subscribed, ExperimentConfig, ReportRecorder, TransportKind,
};
use javelen::phys::gilbert::GilbertConfig;
use javelen::phys::BatteryConfig;

fn main() {
    let kinds = [
        (TransportKind::Jtp, "JTP"),
        (TransportKind::Jnc, "JNC (no cache)"),
        (TransportKind::Atp, "ATP-like"),
        (TransportKind::Tcp, "TCP-SACK"),
    ];

    println!("energy audit — 7-node chain, 250-packet transfer, deep fades");
    println!();
    println!(
        "{:<16} {:>9} {:>11} {:>11} {:>9} {:>8} {:>8}",
        "protocol", "uJ/bit", "data(mJ)", "acks(mJ)", "ack%", "srcRtx", "cacheHit"
    );

    for (kind, name) in kinds {
        let mut cfg = ExperimentConfig::linear(7)
            .transport(kind)
            .duration_s(4000.0)
            .seed(5)
            .bulk_flow(250, 10.0, 0.0);
        cfg.gilbert = GilbertConfig {
            bad_fraction: 0.2,
            bad_loss_floor: 0.8,
            ..GilbertConfig::paper_default()
        };
        let m = run_experiment(&cfg);
        let data_mj = (m.energy_total_j - m.energy_ack_j) * 1e3;
        let ack_mj = m.energy_ack_j * 1e3;
        println!(
            "{:<16} {:>9.4} {:>11.2} {:>11.2} {:>8.1}% {:>8} {:>8}",
            name,
            m.energy_per_bit_uj(),
            data_mj,
            ack_mj,
            ack_mj / (data_mj + ack_mj) * 100.0,
            m.source_retransmissions,
            m.local_recoveries
        );
    }

    println!();
    println!("JTP: rare 200-B feedback packets and local recovery keep both");
    println!("columns small; TCP pays a per-2-packets ACK stream over every");
    println!("hop; JNC pays full-path source retransmissions.");

    // The same joules, closed into a lifetime: give every node a small
    // battery, offer an effectively endless transfer, and see which
    // transport keeps the network delivering longest. This table reads
    // from the per-scenario JSON report document (the same one
    // `scenario_report --json` writes) instead of raw `Metrics` — the
    // report also carries the flood costs and battery-death events that
    // explain the numbers.
    println!();
    println!("network lifetime — same chain, 0.6 J batteries, endless transfer");
    println!();
    println!(
        "{:<16} {:>14} {:>14} {:>10} {:>9} {:>7}",
        "protocol", "first death s", "partition s", "delivered", "uJ/bit", "floods"
    );
    for (kind, name) in kinds {
        let mut cfg = ExperimentConfig::linear(7)
            .transport(kind)
            .duration_s(2000.0)
            .seed(5)
            .battery(BatteryConfig::javelen_small())
            .bulk_flow(1_000_000, 10.0, 0.0);
        cfg.gilbert = GilbertConfig {
            bad_fraction: 0.2,
            bad_loss_floor: 0.8,
            ..GilbertConfig::paper_default()
        };
        let (m, (rec, _time)) =
            try_run_subscribed(&cfg, (ReportRecorder::new(), TimeAccountant::default()))
                .expect("valid config");
        let report = rec.into_report("chain7-lifetime", kind, cfg.seed, &m);
        let fmt_opt = |t: Option<f64>| match t {
            Some(t) => format!("{t:.1}"),
            None => "-".into(),
        };
        println!(
            "{:<16} {:>14} {:>14} {:>10} {:>9.4} {:>7}",
            name,
            fmt_opt(report.first_death_s),
            fmt_opt(report.first_partition_s),
            report.delivered_packets,
            report.energy_per_bit_uj,
            report.events.total_floods,
        );
    }
    println!();
    println!("time-to-first-death alone can flatter an idle protocol; read it");
    println!("next to `delivered` — packets moved before the network died.");
}
