//! Figure 11 — Random topologies with random-waypoint mobility.
//!
//! A 15-node network; every node moves (mean leg 47 m, mean pause 100 s)
//! at speeds 0.1 / 1 / 5 m/s. 5 flows with random endpoints.
//!
//! (a) energy per delivered bit and (b) goodput per speed for JTP/ATP/TCP;
//! (c) the split between end-to-end (source) retransmissions and locally
//! recovered packets (cache hits), normalised by data delivered — the
//! paper's evidence that caches help even when paths keep changing.

use super::fig9::JTP_ATP_TCP;
use jtp_bench::{finish, print_table, random_flows, Args, Claim};
use jtp_netsim::{run_many, summarize_runs, ExperimentConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    speed_mps: f64,
    protocol: String,
    energy_uj_per_bit: f64,
    goodput_kbps: f64,
    source_rtx_per_kpkt: f64,
    cache_hits_per_kpkt: f64,
}

pub fn run(args: &Args) -> Vec<Claim> {
    let n = 15;
    let speeds: Vec<f64> = args.pick(vec![0.1, 1.0, 5.0], vec![1.0]);
    let runs = args.pick(10, 2);
    let duration = args.pick(4000.0, 1200.0);
    let packets = u32::MAX / 2; // long-lived flows, steady-state metrics

    let mut points = Vec::new();
    for &speed in &speeds {
        let flows = random_flows(n, 5, packets, duration / 8.0, duration / 5.0, 1100);
        for (kind, name) in JTP_ATP_TCP {
            let mut cfg = ExperimentConfig::random(n)
                .transport(kind)
                .duration_s(duration)
                .seed(1100)
                .mobile(speed);
            cfg.flows = flows.clone();
            let ms = run_many(&cfg, runs);
            let (epb, gp) = summarize_runs(&ms);
            let delivered: f64 = ms.iter().map(|m| m.delivered_packets as f64).sum();
            let rtx: f64 = ms.iter().map(|m| m.source_retransmissions as f64).sum();
            let hits: f64 = ms.iter().map(|m| m.local_recoveries as f64).sum();
            let per_kpkt = |x: f64| {
                if delivered > 0.0 {
                    x / delivered * 1000.0
                } else {
                    0.0
                }
            };
            points.push(Point {
                speed_mps: speed,
                protocol: name.into(),
                energy_uj_per_bit: epb.mean,
                goodput_kbps: gp.mean,
                source_rtx_per_kpkt: per_kpkt(rtx),
                cache_hits_per_kpkt: per_kpkt(hits),
            });
        }
    }

    print_table(
        "Fig 11: mobility (15 nodes, random waypoint)",
        &[
            "speed(m/s)",
            "proto",
            "energy(uJ/bit)",
            "goodput(kbps)",
            "srcRtx/kpkt",
            "cacheHits/kpkt",
        ],
        &points,
        |p| {
            vec![
                format!("{}", p.speed_mps),
                p.protocol.clone(),
                format!("{:.4}", p.energy_uj_per_bit),
                format!("{:.3}", p.goodput_kbps),
                format!("{:.1}", p.source_rtx_per_kpkt),
                format!("{:.1}", p.cache_hits_per_kpkt),
            ]
        },
    );

    // One [jtp, atp, tcp] trio per speed, in the order they ran. Under
    // heavy churn JTP spends energy pushing reliable data through (2x the
    // goodput); its energy per bit must stay within a small band of the
    // best protocol, and win outright when routes are near-static.
    let trios = points.as_chunks::<3>().0;
    let energy_ok = !trios
        .iter()
        .any(|[j, a, t]| j.energy_uj_per_bit > a.energy_uj_per_bit.min(t.energy_uj_per_bit) * 1.10);
    let goodput_ok = !trios
        .iter()
        .any(|[j, a, t]| j.goodput_kbps < a.goodput_kbps || j.goodput_kbps < t.goodput_kbps);
    let cache_useful = points
        .iter()
        .filter(|p| p.protocol == "jtp")
        .all(|p| p.cache_hits_per_kpkt > 0.0);
    finish(
        args,
        &points,
        vec![
            Claim::new("JTP energy within 10% of best at every speed", energy_ok),
            Claim::new("JTP highest goodput at every speed", goodput_ok),
            Claim::new("caches still recover packets under mobility", cache_useful),
        ],
    )
}
