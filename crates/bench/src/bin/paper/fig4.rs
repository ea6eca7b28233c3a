//! Figure 4 — JTP vs JTP-with-No-Caching (JNC) on static linear paths.
//!
//! (a) Energy per delivered application bit vs. network size.
//! (b) Per-node energy on a 7-node linear path.
//!
//! Expected shape (paper): caching gains grow with path length; JTP both
//! spends less total energy and distributes it more evenly across mid-path
//! nodes (the paper calls out ~23 % fairer allocation to midpath nodes).

use jtp_bench::{finish, mean_by, print_table, Args, Claim};
use jtp_netsim::{run_many, ExperimentConfig, TransportKind};
use jtp_phys::gilbert::GilbertConfig;
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    net_size: usize,
    jtp_uj_per_bit: f64,
    jnc_uj_per_bit: f64,
    gain: f64,
}

fn lossy() -> GilbertConfig {
    // Deep fades (loss ~0.85 during bad periods) so the per-packet attempt
    // budget is regularly exhausted and recovery — local or end-to-end —
    // is exercised; this is the regime eq. (6) speaks to.
    GilbertConfig {
        bad_fraction: 0.25,
        bad_loss_floor: 0.85,
        ..GilbertConfig::paper_default()
    }
}

pub fn run(args: &Args) -> Vec<Claim> {
    let sizes: Vec<usize> = args.pick(vec![3, 4, 5, 6, 7, 8, 9], vec![4, 7]);
    let runs = args.pick(10, 2);
    let packets = args.pick(300, 80);

    let base = |n: usize, t: TransportKind| {
        let mut cfg = ExperimentConfig::linear(n)
            .transport(t)
            .duration_s(args.pick(3000.0, 1000.0))
            .seed(400)
            .bulk_flow(packets, 10.0, 0.0);
        cfg.gilbert = lossy();
        cfg
    };

    let mut points = Vec::new();
    for &n in &sizes {
        let jtp = run_many(&base(n, TransportKind::Jtp), runs);
        let jnc = run_many(&base(n, TransportKind::Jnc), runs);
        let epb = |ms: &[jtp_netsim::Metrics]| mean_by(ms, |m| m.energy_per_bit_uj());
        let (a, b) = (epb(&jtp), epb(&jnc));
        points.push(Point {
            net_size: n,
            jtp_uj_per_bit: a,
            jnc_uj_per_bit: b,
            gain: b / a,
        });
    }

    print_table(
        "Fig 4(a): energy per delivered bit, JTP vs JNC",
        &["netSize", "jtp(uJ/bit)", "jnc(uJ/bit)", "jnc/jtp"],
        &points,
        |p| {
            vec![
                p.net_size.to_string(),
                format!("{:.4}", p.jtp_uj_per_bit),
                format!("{:.4}", p.jnc_uj_per_bit),
                format!("{:.3}x", p.gain),
            ]
        },
    );

    // (b) per-node energy on the 7-node path.
    let n = 7;
    let jtp = run_many(&base(n, TransportKind::Jtp), runs);
    let jnc = run_many(&base(n, TransportKind::Jnc), runs);
    let avg_per_node = |ms: &[jtp_netsim::Metrics]| -> Vec<f64> {
        (0..n)
            .map(|i| mean_by(ms, |m| m.per_node_energy_j[i]))
            .collect()
    };
    let jtp_nodes = avg_per_node(&jtp);
    let jnc_nodes = avg_per_node(&jnc);
    print_table(
        "Fig 4(b): per-node energy, 7-node linear path",
        &["node", "jtp(J)", "jnc(J)"],
        &(0..n).collect::<Vec<_>>(),
        |&i| {
            vec![
                format!("{}", i + 1),
                format!("{:.5}", jtp_nodes[i]),
                format!("{:.5}", jnc_nodes[i]),
            ]
        },
    );

    // Shape checks: gains grow with path length; JNC source (node 1) works
    // harder than JTP's.
    let monotone_tail =
        points.len() < 2 || points.last().unwrap().gain >= points.first().unwrap().gain * 0.9;
    finish(
        args,
        &points,
        vec![
            Claim::new("caching gain grows (last >= ~first)", monotone_tail),
            Claim::new(
                "JNC source energy > JTP source energy",
                jnc_nodes[0] > jtp_nodes[0],
            ),
        ],
    )
}
