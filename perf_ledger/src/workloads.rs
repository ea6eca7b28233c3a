//! The five workloads: each a fixed list of runs (scenario × transport ×
//! seed) whose seeds derive from `--seed`. The README records why each
//! exists and which layer it loads.

use jtp_netsim::{ExperimentConfig, FlowSpec, Scenario, TransportKind};
use jtp_phys::gilbert::GilbertConfig;
use jtp_sim::{NodeId, SimDuration, SimRng};

/// Workload names, in the order every table lists them.
pub const NAMES: [&str; 5] = [
    "random25-sparse",
    "fig9-chain10",
    "grid121-lifetime",
    "xl-static",
    "mobile-mixed",
];

/// All six transports, JTP first (the shape check compares against it).
pub const TRANSPORTS: [TransportKind; 6] = [
    TransportKind::Jtp,
    TransportKind::Jnc,
    TransportKind::Atp,
    TransportKind::Tcp,
    TransportKind::Cubic,
    TransportKind::Bbr,
];

/// Lowercase transport name as it appears in metric names.
pub fn transport_name(kind: TransportKind) -> &'static str {
    match kind {
        TransportKind::Jtp => "jtp",
        TransportKind::Jnc => "jnc",
        TransportKind::Atp => "atp",
        TransportKind::Tcp => "tcp",
        TransportKind::Cubic => "cubic",
        TransportKind::Bbr => "bbr",
    }
}

/// What a run simulates, before lowering.
#[derive(Clone, Debug)]
enum Source {
    /// `ExperimentConfig::random(25)` with two long-lived
    /// `loss_tolerance 1.0` flows (0→14, 8→20).
    Random25 { duration_s: f64 },
    /// The paper's Fig. 9 at netSize 10: a linear chain with two opposed
    /// infinite reliable flows started randomly after a warm-up, on the
    /// deep-fade channel (`bad_loss_floor 0.8`).
    Fig9Chain { duration_s: f64, warmup_s: f64 },
    /// A catalogued scenario, reseeded.
    Catalog(Box<Scenario>),
}

/// One operation of a workload.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Scenario name for reports and spans.
    pub scenario: String,
    pub transport: TransportKind,
    pub seed: u64,
    source: Source,
}

impl RunSpec {
    /// The `lower` phase: scenario → validated-shape `ExperimentConfig`,
    /// through the same public builders a user calls.
    pub fn lower(&self) -> ExperimentConfig {
        match &self.source {
            Source::Random25 { duration_s } => {
                let mut cfg = ExperimentConfig::random(25)
                    .transport(self.transport)
                    .duration_s(*duration_s)
                    .seed(self.seed);
                for (i, (src, dst)) in [(0u32, 14u32), (8, 20)].into_iter().enumerate() {
                    cfg = cfg.flow(FlowSpec {
                        src: NodeId(src),
                        dst: NodeId(dst),
                        start: SimDuration::from_secs(10 + i as u64 * 5),
                        packets: u32::MAX / 2,
                        loss_tolerance: 1.0,
                        initial_rate_pps: None,
                    });
                }
                cfg
            }
            Source::Fig9Chain {
                duration_s,
                warmup_s,
            } => {
                const N: u32 = 10;
                let mut cfg = ExperimentConfig::linear(N as usize)
                    .transport(self.transport)
                    .duration_s(*duration_s)
                    .seed(self.seed);
                cfg.gilbert = GilbertConfig {
                    bad_loss_floor: 0.8,
                    ..GilbertConfig::paper_default()
                };
                let mut rng = SimRng::derive(self.seed, "fig9-starts");
                for (src, dst) in [(0, N - 1), (N - 1, 0)] {
                    let start = warmup_s + rng.uniform(0.0, 100.0);
                    cfg = cfg.flow(FlowSpec {
                        src: NodeId(src),
                        dst: NodeId(dst),
                        start: SimDuration::from_secs_f64(start),
                        packets: u32::MAX / 2,
                        loss_tolerance: 0.0,
                        initial_rate_pps: None,
                    });
                }
                cfg
            }
            Source::Catalog(scenario) => scenario
                .as_ref()
                .clone()
                .seed(self.seed)
                .build(self.transport),
        }
    }
}

/// A named, fixed pair of run lists.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// How many times each run's set-up (`lower` + `build`) is repeated
    /// per pass, so the timed set-up interval stays ≥ 50 ms on small
    /// networks; the sum is divided by it.
    pub setup_reps: u32,
    /// The measured list: every pass executes it, and every end-to-end
    /// metric comes from it.
    pub runs: Vec<RunSpec>,
    /// Runs only a `--trace 1` invocation executes, once and untraced:
    /// they feed the per-transport layer rows and the shape check, never
    /// an end-to-end metric. CUBIC and BBR live here because their wall
    /// varies by more than 100 % from seed to seed on the Fig. 9 chain,
    /// which no bounded metric can carry.
    pub layer_runs: Vec<RunSpec>,
    /// Whether the Fig. 9 claim (JTP lowest µJ/bit and highest goodput)
    /// is checked on this workload's results.
    pub shape_check: bool,
}

/// Look a scenario up by name. A rename in the library fails here,
/// loudly, instead of silently shrinking a workload.
fn catalog_scenario(xl: bool, name: &str) -> Result<Scenario, String> {
    let catalog = if xl {
        Scenario::xl_catalog()
    } else {
        Scenario::catalog()
    };
    catalog
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("scenario {name:?} is no longer in the catalog"))
}

/// Seed of the `k`-th replica under `--seed`: distinct `--seed` values
/// give disjoint replica seeds for any realistic `k`.
fn replica_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(k)
}

fn replicas(
    scenario: &str,
    transport: TransportKind,
    source: &Source,
    seed: u64,
    count: u64,
) -> Vec<RunSpec> {
    (0..count)
        .map(|k| RunSpec {
            scenario: scenario.to_string(),
            transport,
            seed: replica_seed(seed, k),
            source: source.clone(),
        })
        .collect()
}

/// `count` JTP replicas of a catalogued scenario (`xl` selects
/// `Scenario::xl_catalog()`), optionally with its horizon cut to
/// `duration_s`.
fn catalog(
    xl: bool,
    scenario: &str,
    duration_s: Option<f64>,
    seed: u64,
    count: u64,
) -> Result<Vec<RunSpec>, String> {
    let mut found = catalog_scenario(xl, scenario)?;
    if let Some(s) = duration_s {
        found = found.duration_s(s);
    }
    let source = Source::Catalog(Box::new(found));
    Ok(replicas(scenario, TransportKind::Jtp, &source, seed, count))
}

/// Build the run lists of workload `name`. `quick` cuts durations and
/// seed counts to a smoke-test size (its numbers are not measurements).
///
/// Replica counts are sized so that a pass takes about 3 s on the
/// reference host and so that the workload's metrics, which are sums over
/// replicas, move by only a few percent from one `--seed` to the next:
/// many short replicas, not few long ones.
pub fn workload(name: &str, seed: u64, quick: bool) -> Result<Workload, String> {
    let Some(&name) = NAMES.iter().find(|n| **n == name) else {
        return Err(format!(
            "unknown workload {name:?}; the workloads are {}",
            NAMES.join(", ")
        ));
    };
    let pick = |full: u64, small: u64| if quick { small } else { full };
    let mut layer_runs = Vec::new();
    let (setup_reps, runs) = match name {
        "random25-sparse" => {
            // Random placements differ a lot (a flow may cross one hop or
            // five), so this workload needs the most replicas.
            let source = Source::Random25 {
                duration_s: pick(1_000, 250) as f64,
            };
            let kind = TransportKind::Jtp;
            let runs = replicas("random25", kind, &source, seed, pick(1024, 4));
            (4, runs)
        }
        "fig9-chain10" => {
            let source = if quick {
                Source::Fig9Chain {
                    duration_s: 400.0,
                    warmup_s: 90.0,
                }
            } else {
                Source::Fig9Chain {
                    duration_s: 2_500.0,
                    warmup_s: 900.0,
                }
            };
            // The same seeds under every transport: the comparison is
            // paired, so channel luck cancels out of the shape check.
            let mut runs = Vec::new();
            for kind in TRANSPORTS {
                if matches!(kind, TransportKind::Cubic | TransportKind::Bbr) {
                    layer_runs.extend(replicas(name, kind, &source, seed, pick(5, 1)));
                } else {
                    runs.extend(replicas(name, kind, &source, seed, pick(48, 1)));
                }
            }
            (128, runs)
        }
        "grid121-lifetime" => {
            let runs = catalog(false, name, None, seed, pick(64, 1))?;
            (4, runs)
        }
        "xl-static" => {
            let mut runs = catalog(true, "xl-grid-churn", None, seed, pick(48, 1))?;
            runs.extend(catalog(true, "xl-grid-heavy", None, seed, pick(48, 1))?);
            (1, runs)
        }
        "mobile-mixed" => {
            // The n = 100 scenarios' traffic is over by 300 s; cutting the
            // catalogued 600 s horizon there buys twice the replicas.
            let horizon = Some(300.0);
            let mut runs = catalog(false, "grid100-waypoint-cbr", horizon, seed, pick(64, 1))?;
            runs.extend(catalog(
                false,
                "heavy-pareto-mobile",
                horizon,
                seed,
                pick(64, 1),
            )?);
            runs.extend(catalog(true, "xl-clustered-mobile", None, seed, 1)?);
            (2, runs)
        }
        _ => unreachable!("every name in NAMES has an arm above"),
    };
    Ok(Workload {
        name,
        setup_reps: if quick { 1 } else { setup_reps },
        runs,
        layer_runs,
        shape_check: name == "fig9-chain10" && !quick,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_renamed_scenario_fails_loudly() {
        assert!(catalog_scenario(false, "grid121-lifetime").is_ok());
        assert!(catalog_scenario(true, "xl-grid-churn").is_ok());
        assert!(catalog_scenario(false, "xl-grid-churn").is_err());
        assert!(catalog(true, "no-such-scenario", None, 11, 3).is_err());
        let cut = catalog(false, "grid100-waypoint-cbr", Some(300.0), 11, 1).expect("catalogued");
        assert_eq!(cut[0].lower().duration, SimDuration::from_secs(300));
    }

    #[test]
    fn every_workload_builds_its_full_run_list() {
        let expected = [1024, 192, 64, 96, 129];
        for (name, runs) in NAMES.iter().zip(expected) {
            let w = workload(name, 11, false).expect("known workload");
            assert_eq!(w.name, *name);
            assert_eq!(w.runs.len(), runs, "{name}");
            assert!(workload(name, 11, true).expect("quick").runs.len() < runs);
        }
        assert!(workload("fig9", 11, false).is_err());
    }

    #[test]
    fn seeds_derive_from_the_seed_argument() {
        let a = workload("fig9-chain10", 11, false).expect("workload");
        let b = workload("fig9-chain10", 12, false).expect("workload");
        let seeds = |w: &Workload| w.runs.iter().map(|r| r.seed).collect::<Vec<_>>();
        assert_eq!(
            seeds(&a),
            seeds(&workload("fig9-chain10", 11, false).unwrap())
        );
        assert!(seeds(&a).iter().all(|s| !seeds(&b).contains(s)));
        // Paired across transports: every transport sees the same seeds.
        assert_eq!(seeds(&a)[..48], seeds(&a)[48..96]);
        let opponents: Vec<u64> = a.layer_runs.iter().map(|r| r.seed).collect();
        assert_eq!(opponents.len(), 10);
        assert_eq!(opponents[..5], seeds(&a)[..5]);
    }

    #[test]
    fn lowered_configs_validate() {
        for name in NAMES {
            let w = workload(name, 11, false).expect("known workload");
            for run in w.runs.iter().chain(&w.layer_runs) {
                run.lower().validate().expect("workload config validates");
            }
        }
    }
}
