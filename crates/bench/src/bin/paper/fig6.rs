//! Figure 6 — The effect of cache size.
//!
//! One JTP flow over linear networks of several sizes; the in-network
//! cache capacity is swept. The paper observes a sudden drop in the number
//! of source retransmissions once caches are large enough to hold missing
//! packets until the (feedback-delayed) SNACK arrives, and little further
//! improvement beyond that.

use jtp_bench::{finish, mean_by, print_table, Args, Claim};
use jtp_netsim::{run_many, ExperimentConfig, TransportKind};
use jtp_phys::gilbert::GilbertConfig;
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    net_size: usize,
    cache_size: usize,
    source_rtx_mean: f64,
    cache_hits_mean: f64,
}

pub fn run(args: &Args) -> Vec<Claim> {
    let sizes: Vec<usize> = args.pick(vec![4, 6, 8], vec![5]);
    let caches: Vec<usize> = args.pick(vec![0, 1, 2, 4, 8, 16, 32, 64, 128], vec![0, 4, 32]);
    let runs = args.pick(10, 2);
    let packets = args.pick(300, 100);

    let mut points = Vec::new();
    for &n in &sizes {
        for &c in &caches {
            let mut cfg = ExperimentConfig::linear(n)
                .transport(TransportKind::Jtp)
                .duration_s(args.pick(3000.0, 1200.0))
                .seed(600)
                .bulk_flow(packets, 10.0, 0.0);
            cfg.jtp.cache_capacity = c;
            if c == 0 {
                cfg.jtp.caching_enabled = false;
            }
            cfg.gilbert = GilbertConfig {
                bad_fraction: 0.25,
                ..GilbertConfig::paper_default()
            };
            let ms = run_many(&cfg, runs);
            let rtx = mean_by(&ms, |m| m.source_retransmissions as f64);
            let hits = mean_by(&ms, |m| m.local_recoveries as f64);
            points.push(Point {
                net_size: n,
                cache_size: c,
                source_rtx_mean: rtx,
                cache_hits_mean: hits,
            });
        }
    }

    print_table(
        "Fig 6: source retransmissions vs cache size",
        &["netSize", "cache(pkts)", "source rtx", "cache hits"],
        &points,
        |p| {
            vec![
                p.net_size.to_string(),
                p.cache_size.to_string(),
                format!("{:.1}", p.source_rtx_mean),
                format!("{:.1}", p.cache_hits_mean),
            ]
        },
    );

    // Shape check: for each size, the largest cache has (far) fewer source
    // retransmissions than no cache. Each size's sweep starts at cache 0.
    let mut pass = true;
    for sweep in points.chunks(caches.len()) {
        let (first, last) = (&sweep[0], &sweep[sweep.len() - 1]);
        let (n, none, big) = (first.net_size, first.source_rtx_mean, last.source_rtx_mean);
        if big > none {
            pass = false;
        }
        println!(
            "netSize {n}: rtx cache=0 {none:.1} -> cache={} {big:.1}",
            caches.last().unwrap()
        );
    }
    finish(
        args,
        &points,
        vec![Claim::new("large caches eliminate most source rtx", pass)],
    )
}
