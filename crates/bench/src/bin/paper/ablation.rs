//! Ablation study — sensitivity of JTP to its design parameters.
//!
//! Not a paper figure: this sweeps JTP's design choices and confirms
//! each mechanism earns its keep on a common scenario
//! (7-node chain, deep fades, one reliable bulk flow):
//!
//! * PI²/MD gains `K_I`, `K_D` (stability region, §5.2.2),
//! * flip-flop outlier trigger (early-feedback sensitivity),
//! * feedback aggregation `n` (T = max(T_lb, n/rate)),
//! * the mechanism toggles: caching, back-off, variable feedback.

use jtp_bench::{finish, mean_by, print_table, Args, Claim};
use jtp_netsim::{run_many, ExperimentConfig, TransportKind};
use jtp_phys::gilbert::GilbertConfig;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    variant: String,
    energy_uj_per_bit: f64,
    goodput_kbps: f64,
    source_rtx: f64,
    local_recoveries: f64,
    queue_drops_data: f64,
}

fn base(args: &Args) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::linear(7)
        .transport(TransportKind::Jtp)
        .duration_s(args.pick(3000.0, 900.0))
        .seed(7000)
        .bulk_flow(args.pick(400, 100), 10.0, 0.0);
    cfg.gilbert = GilbertConfig {
        bad_fraction: 0.2,
        bad_loss_floor: 0.8,
        ..GilbertConfig::paper_default()
    };
    cfg
}

fn measure(cfg: &ExperimentConfig, runs: usize, name: &str) -> Row {
    let ms = run_many(cfg, runs);
    Row {
        variant: name.to_string(),
        energy_uj_per_bit: mean_by(&ms, |m| m.energy_per_bit_uj()),
        goodput_kbps: mean_by(&ms, |m| m.avg_goodput_kbps()),
        source_rtx: mean_by(&ms, |m| m.source_retransmissions as f64),
        local_recoveries: mean_by(&ms, |m| m.local_recoveries as f64),
        queue_drops_data: mean_by(&ms, |m| m.queue_drops_data as f64),
    }
}

pub fn run(args: &Args) -> Vec<Claim> {
    let runs = args.pick(8, 2);
    let mut rows = Vec::new();

    rows.push(measure(&base(args), runs, "baseline"));

    // Mechanism toggles.
    {
        let mut cfg = base(args).transport(TransportKind::Jnc);
        cfg.gilbert = base(args).gilbert;
        rows.push(measure(&cfg, runs, "-caching (JNC)"));
    }
    {
        let mut cfg = base(args);
        cfg.jtp.backoff_on_local_recovery = false;
        rows.push(measure(&cfg, runs, "-backoff"));
    }
    {
        let mut cfg = base(args);
        cfg.jtp.variable_feedback = false;
        rows.push(measure(&cfg, runs, "-variable feedback"));
    }

    // Controller gains.
    for (ki, kd) in [(0.05, 0.85), (0.6, 0.85), (0.25, 0.5), (0.25, 0.97)] {
        let mut cfg = base(args);
        cfg.jtp.k_i = ki;
        cfg.jtp.k_d = kd;
        rows.push(measure(&cfg, runs, &format!("K_I={ki} K_D={kd}")));
    }

    // Outlier trigger sensitivity.
    for trig in [1u32, 6] {
        let mut cfg = base(args);
        cfg.jtp.outlier_trigger = trig;
        rows.push(measure(&cfg, runs, &format!("outlier_trigger={trig}")));
    }

    // Feedback aggregation.
    for n in [2.0, 32.0] {
        let mut cfg = base(args);
        cfg.jtp.feedback_aggregation = n;
        rows.push(measure(&cfg, runs, &format!("aggregation n={n}")));
    }

    // Cache eviction policy (the paper's named future work, §4). Small
    // caches make the policy matter.
    for policy in [
        jtp::CachePolicy::Lru,
        jtp::CachePolicy::Fifo,
        jtp::CachePolicy::Random,
    ] {
        let mut cfg = base(args);
        cfg.jtp.cache_capacity = 8;
        cfg.jtp.cache_policy = policy;
        rows.push(measure(&cfg, runs, &format!("cache8 {policy:?}")));
    }

    // Per-hop reliability allocation (the §3 alternative) on a tolerant
    // flow, where attempt budgets actually differ per hop.
    for (strategy, name) in [
        (jtp::AllocationStrategy::EqualShare, "alloc equal (lt=10%)"),
        (
            jtp::AllocationStrategy::LossAware {
                shift: 2.0,
                ref_loss: 0.1,
            },
            "alloc loss-aware (lt=10%)",
        ),
    ] {
        let mut cfg = base(args);
        cfg.jtp.allocation = strategy;
        cfg.flows[0].loss_tolerance = 0.10;
        rows.push(measure(&cfg, runs, name));
    }

    print_table(
        "Ablations: JTP mechanisms and parameters (7-node chain, deep fades)",
        &[
            "variant",
            "uJ/bit",
            "goodput",
            "srcRtx",
            "cacheHits",
            "qDrops",
        ],
        &rows,
        |r| {
            vec![
                r.variant.clone(),
                format!("{:.4}", r.energy_uj_per_bit),
                format!("{:.3}", r.goodput_kbps),
                format!("{:.1}", r.source_rtx),
                format!("{:.1}", r.local_recoveries),
                format!("{:.1}", r.queue_drops_data),
            ]
        },
    );

    let baseline = &rows[0];
    let jnc = &rows[1];
    // Back-off and variable feedback exist for fairness/congestion under
    // contention, not solo-flow energy; the energy-relevant mechanism on
    // this single-flow scenario is caching, and removing it must be the
    // most expensive of the three mechanism removals.
    let toggles = &rows[1..4];
    finish(
        args,
        &rows,
        vec![
            Claim::new(
                "removing caching raises source rtx",
                jnc.source_rtx > baseline.source_rtx,
            ),
            Claim::new(
                "caching is the costliest mechanism to remove",
                toggles
                    .iter()
                    .all(|r| jnc.energy_uj_per_bit >= r.energy_uj_per_bit),
            ),
        ],
    )
}
