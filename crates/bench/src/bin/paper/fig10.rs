//! Figure 10 — JTP vs ATP vs TCP on static random topologies.
//!
//! Nodes uniform in a field sized for connectivity; 5 simultaneous flows
//! with random endpoints; 10 independent runs of 4000 s. All protocols run
//! under the same conditions in the same run (same placement, same flows,
//! same channel realisation) — as the paper does to make the comparison
//! meaningful despite topology variance.

use super::fig9::{print_points, Point, JTP_ATP_TCP};
use jtp_bench::{finish, random_flows, Args, Claim};
use jtp_netsim::{run_many, ExperimentConfig};

pub fn run(args: &Args) -> Vec<Claim> {
    let sizes: Vec<usize> = args.pick(vec![10, 15, 20, 25], vec![10]);
    let runs = args.pick(10, 2);
    let duration = args.pick(4000.0, 1000.0);
    let packets = u32::MAX / 2; // long-lived flows, steady-state metrics

    let mut points = Vec::new();
    for &n in &sizes {
        let flows = random_flows(
            n,
            5,
            packets,
            900.0_f64.min(duration / 4.0),
            1000.0_f64.min(duration / 3.0),
            1000 + n as u64,
        );
        for (kind, name) in JTP_ATP_TCP {
            let mut cfg = ExperimentConfig::random(n)
                .transport(kind)
                .duration_s(duration)
                .seed(1000);
            cfg.flows = flows.clone();
            points.push(Point::new(n, name, &run_many(&cfg, runs)));
        }
    }
    print_points(
        "Fig 10: static random topologies, JTP vs ATP vs TCP",
        &points,
    );

    // One [jtp, atp, tcp] trio per size, in the order they ran.
    let trios = points.as_chunks::<3>().0;
    let pass_energy = !trios.iter().any(|[j, a, t]| {
        j.energy_uj_per_bit > a.energy_uj_per_bit || j.energy_uj_per_bit > t.energy_uj_per_bit
    });
    let pass_goodput = !trios
        .iter()
        .any(|[j, a, t]| j.goodput_kbps < a.goodput_kbps && j.goodput_kbps < t.goodput_kbps);
    finish(
        args,
        &points,
        vec![
            Claim::new("JTP lowest energy/bit at every size", pass_energy),
            Claim::new("JTP never worst on goodput", pass_goodput),
        ],
    )
}
