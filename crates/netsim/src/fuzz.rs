//! Differential scenario fuzzing: generated adversarial scenarios checked
//! against the engine's own redundant implementations.
//!
//! The equivalence suites pin hand-picked scenarios; this module generates
//! compositions nobody would hand-write — arbitrary topologies × traffic
//! patterns × dynamics (churn, blackouts, partitions, flapping, area
//! failures, mobility) × energy configs (batteries, duty-cycling,
//! energy-aware routing), including degenerate cases (chains spaced beyond
//! radio range, partitions at t = 0, batteries that die in seconds,
//! zero-packet workloads) — and runs each through a differential-oracle
//! stack:
//!
//! * **skip vs naive engine** — `idle_slot_skipping` off must be
//!   byte-identical,
//! * **subscriber stack vs plain digest** — the full report subscriber
//!   pile must leave the golden digest and the event-stream checksum
//!   byte-identical,
//! * **parallel vs sequential batches** — `run_many_on(.., 2)` must equal
//!   `run_many_on(.., 1)` replica for replica,
//! * **metamorphic invariants** — post-horizon dynamics are inert;
//!   shortest-path distances are invariant under node relabelling;
//!   unit-weight energy routing equals hop routing,
//! * **conservation self-checks** — delivered ≤ offered, residual energy
//!   within `[0, capacity]`, a monotone non-increasing alive curve.
//!
//! The incremental truth and routing repairs are not whole-run oracles
//! here: each is checked per step against its reference oracle (scratch
//! truth, fresh routing tables) in the layer that owns it.
//!
//! A deliberately-invalid slice of the generated space (out-of-range
//! endpoints, unordered churn, solid flaps, …) asserts the panic-free
//! front door: those cases must come back as [`ConfigError`], never
//! unwind. Any divergence yields a [`CaseReport`] whose
//! [`repro`](CaseReport::repro) is self-contained: the generator seed +
//! case index + the generated [`Scenario`], ready to paste into a test.
//!
//! Drive it with `cargo run --release -p jtp-bench --bin scenarios -- fuzz`.

use crate::config::{
    ConfigError, DynamicsAction, DynamicsEvent, RoutingBackendKind, TopologyKind, TransportKind,
};
use crate::metrics::Metrics;
use crate::network::cluster_spec_for;
use crate::report::ReportRecorder;
use crate::runner::{run_many_on, try_run_digest_with, try_run_subscribed};
use crate::scenario::{DynamicsSpec, Scenario, TrafficPattern};
use crate::topology::{adjacency_from_positions, try_place_nodes};
use crate::trace::EventChecksum;
use jtp_events::{NoopSubscriber, TimeAccountant};
use jtp_phys::BatteryConfig;
use jtp_routing::{BackendSelect, LinkState, UNREACHABLE};
use jtp_sim::{NodeId, SimRng, SimTime};

/// A seeded generator of adversarial scenarios. Case `i` of seed `s` is a
/// pure function of `(s, i)` — re-running the same coordinates reproduces
/// the same scenario, transport and oracle verdict, which is what makes a
/// one-line repro possible.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioGen {
    /// The generator seed (not the per-scenario simulation seed, which is
    /// drawn from it).
    pub seed: u64,
}

/// One generated case: the scenario, the transport it runs under, and
/// whether the generator deliberately made it invalid (in which case the
/// oracle asserts a clean [`ConfigError`] rejection instead of running).
#[derive(Clone, Debug)]
pub struct GeneratedCase {
    /// The generated scenario.
    pub scenario: Scenario,
    /// Transport the oracle stack runs it under.
    pub transport: TransportKind,
    /// True when the generator injected a definitely-invalid mutation.
    pub expect_reject: bool,
}

/// Verdict of the oracle stack on one case.
#[derive(Clone, Debug)]
pub enum CaseOutcome {
    /// Every oracle and invariant agreed.
    Pass {
        /// Full engine runs the stack executed for this case.
        engine_runs: usize,
    },
    /// Validation rejected the case — the correct outcome for generated
    /// inputs that are malformed (and the asserted one for the
    /// deliberately-invalid slice).
    Rejected {
        /// The typed rejection.
        error: ConfigError,
    },
    /// At least one oracle or invariant disagreed — an engine bug (or,
    /// for the deliberately-invalid slice, a validator hole).
    Diverged {
        /// Human-readable description of each disagreement.
        failures: Vec<String>,
    },
}

/// Outcome of one generated case, carrying everything needed to reproduce
/// it.
#[derive(Clone, Debug)]
pub struct CaseReport {
    /// Generator seed the case was drawn from.
    pub seed: u64,
    /// Case index under that seed.
    pub index: u64,
    /// Transport the case ran under.
    pub transport: TransportKind,
    /// The generated scenario.
    pub scenario: Scenario,
    /// The oracle verdict.
    pub outcome: CaseOutcome,
    /// For genuine oracle divergences: the scenario greedily shrunk to a
    /// minimal still-diverging reproduction (see [`shrink_scenario`]).
    pub shrunk: Option<Scenario>,
}

impl CaseReport {
    /// True when the case found a bug.
    pub fn is_failure(&self) -> bool {
        matches!(self.outcome, CaseOutcome::Diverged { .. })
    }

    /// A self-contained repro: generator coordinates, the one-line rerun
    /// command, and the generated scenario as code-shaped debug output.
    pub fn repro(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "--- fuzz case seed={} index={} transport={:?} ---\n",
            self.seed, self.index, self.transport
        ));
        out.push_str(&format!(
            "rerun: cargo run --release -p jtp-bench --bin scenarios -- fuzz \
             --seed {} --start {} --cases 1\n",
            self.seed, self.index
        ));
        if let CaseOutcome::Diverged { failures } = &self.outcome {
            for f in failures {
                out.push_str(&format!("FAIL: {f}\n"));
            }
        }
        out.push_str(&format!("scenario: {:#?}\n", self.scenario));
        if let Some(s) = &self.shrunk {
            out.push_str(&format!(
                "shrunk to {} nodes, {} traffic, {} dynamics — minimal repro:\n\
                 shrunk scenario: {s:#?}\n",
                s.topology.node_count(),
                s.traffic.len(),
                s.dynamics.len()
            ));
        }
        out
    }
}

impl ScenarioGen {
    /// A generator over `seed`.
    pub fn new(seed: u64) -> Self {
        ScenarioGen { seed }
    }

    /// Generate case `index` (pure in `(self.seed, index)`).
    pub fn generate(&self, index: u64) -> GeneratedCase {
        let mut rng = SimRng::derive_indexed(self.seed, "fuzz-case", index);
        let transport = *rng
            .choose(&[
                TransportKind::Jtp,
                TransportKind::Jnc,
                TransportKind::Tcp,
                TransportKind::Atp,
                TransportKind::Cubic,
                TransportKind::Bbr,
            ])
            .expect("non-empty");
        let topology = gen_topology(&mut rng);
        let n = topology.node_count();
        let duration_s = rng.uniform(60.0, 300.0);
        let mut sc = Scenario::new(&format!("fuzz-{}-{index}", self.seed), topology)
            .duration_s(duration_s)
            .seed(rng.u64());

        for _ in 0..rng.below(4) {
            sc = sc.traffic(gen_traffic(&mut rng, n, duration_s));
        }
        for _ in 0..rng.below(4) {
            sc = sc.dynamics(gen_dynamics(&mut rng, n, duration_s));
        }
        if rng.chance(0.2) {
            sc = sc.mobile(rng.uniform(0.1, 5.0));
        }
        if rng.chance(0.3) {
            // Capacities down to 0.05 J die within seconds of boot — the
            // all-nodes-die-early regime the lifetime machinery must
            // absorb without traffic ever flowing.
            sc = sc.battery(BatteryConfig {
                capacity_j: rng.uniform(0.05, 1.2),
                ..BatteryConfig::javelen_small()
            });
            if rng.chance(0.3) {
                sc = sc.duty_cycle(jtp_mac::DutyCycleConfig::half());
            }
            if rng.chance(0.4) {
                sc = sc.energy_routing();
            }
        }

        // Hierarchical cluster routing rides along on a slice of the
        // energy-unweighted cases (validation rejects the combination
        // with energy routing, so the generator never draws it).
        if !sc.energy_routing && rng.chance(0.25) {
            sc = sc.routing_backend(RoutingBackendKind::Hierarchical);
        }

        let expect_reject = rng.chance(0.12);
        if expect_reject {
            sc = inject_invalid(&mut rng, sc, n);
        }
        GeneratedCase {
            scenario: sc,
            transport,
            expect_reject,
        }
    }

    /// Generate case `index` and run it through the oracle stack. A
    /// genuine oracle divergence is automatically shrunk to a minimal
    /// still-diverging reproduction (the `shrunk` field of the report).
    pub fn run_case(&self, index: u64) -> CaseReport {
        let case = self.generate(index);
        let mut outcome = check_scenario(&case.scenario, case.transport);
        if case.expect_reject {
            // The deliberately-invalid slice must be *rejected*; surviving
            // validation means the front door has a hole. (A Rejected
            // outcome already is the pass for this slice.)
            if let CaseOutcome::Pass { .. } = outcome {
                outcome = CaseOutcome::Diverged {
                    failures: vec!["deliberately-invalid scenario passed validation and ran".into()],
                };
            }
        }
        // Shrink genuine engine divergences (not validator holes — those
        // "fail" by *passing*, so dropping components can't preserve the
        // property being debugged). A panic while re-checking a candidate
        // counts as still-failing: the bug is still in there.
        let shrunk = match (&outcome, case.expect_reject) {
            (CaseOutcome::Diverged { .. }, false) => {
                let transport = case.transport;
                Some(shrink_scenario(
                    &case.scenario,
                    |s| {
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            matches!(check_scenario(s, transport), CaseOutcome::Diverged { .. })
                        }))
                        .unwrap_or(true)
                    },
                    200,
                ))
            }
            _ => None,
        };
        CaseReport {
            seed: self.seed,
            index,
            transport: case.transport,
            scenario: case.scenario,
            outcome,
            shrunk,
        }
    }
}

/// Run `sc` under `transport` through the full differential-oracle stack.
pub fn check_scenario(sc: &Scenario, transport: TransportKind) -> CaseOutcome {
    let cfg = match sc.try_build(transport) {
        Ok(cfg) => cfg,
        Err(error) => return CaseOutcome::Rejected { error },
    };
    // Pre-flight placement for every replica seed the batch below will
    // use: `run_many_on` goes through the panicking entry point, and a
    // hostile Random field can exhaust its resampling budget on any
    // replica's seed. Exhaustion is a validation outcome, not a bug.
    for replica in 0..2u64 {
        if let Err(error) =
            try_place_nodes(&cfg.topology, &cfg.pathloss, cfg.seed.wrapping_add(replica))
        {
            return CaseOutcome::Rejected { error };
        }
    }

    let mut failures = Vec::new();
    let mut engine_runs = 0usize;
    let json = |m: &Metrics| serde_json::to_string(m).expect("metrics serialise");

    // Sequential vs parallel batches (replica 0 doubles as the base run).
    let seq = run_many_on(&cfg, 2, 1);
    let par = run_many_on(&cfg, 2, 2);
    engine_runs += 4;
    for (i, (a, b)) in seq.iter().zip(&par).enumerate() {
        if json(a) != json(b) {
            failures.push(format!(
                "parallel vs sequential run_many diverged at replica {i}"
            ));
        }
    }
    let base = &seq[0];
    let jbase = json(base);

    // Skip vs naive slot engine.
    {
        let mut c = cfg.clone();
        c.idle_slot_skipping = false;
        match try_run_subscribed(&c, NoopSubscriber) {
            Ok((m, _)) => {
                engine_runs += 1;
                if json(&m) != jbase {
                    failures.push("idle-slot skipping vs naive engine diverged".into());
                }
            }
            Err(e) => failures.push(format!(
                "naive engine rejected a config the fast one ran: {e}"
            )),
        }
    }

    // The plain digest + event checksum: the reference the
    // subscriber-stack oracle below compares against.
    match try_run_digest_with(&cfg, EventChecksum::default()) {
        Ok((d1, ev1)) => {
            let ev1 = ev1.finish();
            engine_runs += 1;
            let line1 = d1.to_line(&sc.name);
            // Subscribers observe, never perturb: stacking the full
            // report pile (recorder + time accountant + event checksum)
            // next to the digest's trace must leave the digest
            // byte-identical — and the event checksum folded inside the
            // stack must equal the standalone one.
            match try_run_digest_with(
                &cfg,
                (
                    ReportRecorder::new(),
                    (TimeAccountant::default(), EventChecksum::default()),
                ),
            ) {
                Ok((ds, (_, (_, evs)))) => {
                    engine_runs += 1;
                    if ds.to_line(&sc.name) != line1 {
                        failures.push(format!(
                            "full subscriber stack perturbed the digest:\n  \
                             off: {line1}\n  on:  {}",
                            ds.to_line(&sc.name)
                        ));
                    }
                    if evs.finish() != ev1 {
                        failures.push(format!(
                            "event checksum differs inside the full subscriber stack: \
                             {ev1:016x} vs {:016x}",
                            evs.finish()
                        ));
                    }
                }
                Err(e) => failures.push(format!(
                    "subscriber stack rejected a config the plain digest ran: {e}"
                )),
            }
        }
        Err(e) => failures.push(format!(
            "digest run rejected a config the plain run accepted: {e}"
        )),
    }

    // Metamorphic: dynamics scheduled past the horizon are never lowered
    // into the event queue, so appending one must be byte-inert.
    {
        let mut c = cfg.clone();
        c.dynamics.push(DynamicsEvent::at_s(
            c.duration.as_secs_f64() + 60.0,
            DynamicsAction::NodeDown(NodeId(0)),
        ));
        match try_run_subscribed(&c, NoopSubscriber) {
            Ok((m, _)) => {
                engine_runs += 1;
                if json(&m) != jbase {
                    failures.push("post-horizon dynamics perturbed the run".into());
                }
            }
            Err(e) => failures.push(format!(
                "post-horizon dynamics made the config invalid: {e}"
            )),
        }
    }

    // Routing-layer metamorphics on this case's actual placement.
    match try_place_nodes(&cfg.topology, &cfg.pathloss, cfg.seed) {
        Ok(pts) => {
            let adj = adjacency_from_positions(&pts, &cfg.pathloss);
            failures.extend(relabelling_failures(&adj, cfg.seed));
            failures.extend(unit_weight_failures(&adj, &cfg));
            failures.extend(hierarchical_lawfulness_failures(&adj, &cfg));
        }
        Err(e) => failures.push(format!("placement failed after the engine ran: {e}")),
    }

    // Conservation self-checks on the base run.
    failures.extend(conservation_failures(&cfg, base));

    if failures.is_empty() {
        CaseOutcome::Pass { engine_runs }
    } else {
        CaseOutcome::Diverged { failures }
    }
}

/// Greedily shrink a failing scenario to a minimal reproduction.
///
/// Starting from `sc` (for which `still_fails` must hold), repeatedly try
/// deleting one component at a time — dynamics events first, then traffic
/// flows, then nodes (via topology-shape steps: shorter chain, dropped
/// lattice row/column, dropped cluster), then the routing backend back to
/// its default (exact) — keeping each reduction only if the shrunk
/// scenario still fails. Runs to a fixpoint: one full pass in
/// which no deletion survives. Candidates that merely become *invalid*
/// (e.g. traffic referencing a dropped node) naturally report not-failing
/// via the predicate (the oracle stack rejects them cleanly), so the
/// shrinker never trades a divergence for a `ConfigError`.
///
/// `max_evals` bounds the number of `still_fails` evaluations — each one
/// typically re-runs the whole oracle stack, so the budget caps total
/// shrink cost on pathological cases. The best scenario found so far is
/// returned when the budget runs out.
pub fn shrink_scenario(
    sc: &Scenario,
    mut still_fails: impl FnMut(&Scenario) -> bool,
    max_evals: usize,
) -> Scenario {
    let mut cur = sc.clone();
    let mut evals = 0usize;
    let mut try_shrink = |cur: &mut Scenario, cand: Scenario, evals: &mut usize| -> bool {
        if *evals >= max_evals {
            return false;
        }
        *evals += 1;
        if still_fails(&cand) {
            *cur = cand;
            true
        } else {
            false
        }
    };
    loop {
        let mut progressed = false;
        // Dynamics, back to front so surviving indices stay valid.
        for i in (0..cur.dynamics.len()).rev() {
            let mut cand = cur.clone();
            cand.dynamics.remove(i);
            progressed |= try_shrink(&mut cur, cand, &mut evals);
        }
        // Traffic flows.
        for i in (0..cur.traffic.len()).rev() {
            let mut cand = cur.clone();
            cand.traffic.remove(i);
            progressed |= try_shrink(&mut cur, cand, &mut evals);
        }
        // Nodes, one topology-shape step at a time.
        for topo in shrunk_topologies(&cur.topology) {
            let mut cand = cur.clone();
            cand.topology = topo;
            progressed |= try_shrink(&mut cur, cand, &mut evals);
        }
        // The backend toward its default: a repro that survives on the
        // exact backend does not implicate the hierarchical tables.
        if cur.routing_backend != RoutingBackendKind::Exact {
            let mut cand = cur.clone();
            cand.routing_backend = RoutingBackendKind::Exact;
            progressed |= try_shrink(&mut cur, cand, &mut evals);
        }
        if !progressed || evals >= max_evals {
            return cur;
        }
    }
}

/// One-step node-count reductions of a topology, preserving its shape and
/// the two-node minimum the scenario validator requires.
fn shrunk_topologies(t: &TopologyKind) -> Vec<TopologyKind> {
    let mut out = Vec::new();
    match *t {
        TopologyKind::Linear { n, spacing_m } if n > 2 => {
            out.push(TopologyKind::Linear {
                n: n - 1,
                spacing_m,
            });
        }
        TopologyKind::Random { n, field_side_m } if n > 2 => {
            out.push(TopologyKind::Random {
                n: n - 1,
                field_side_m,
            });
        }
        TopologyKind::Grid {
            cols,
            rows,
            spacing_m,
        } => {
            if rows > 1 && (rows - 1) * cols >= 2 {
                out.push(TopologyKind::Grid {
                    cols,
                    rows: rows - 1,
                    spacing_m,
                });
            }
            if cols > 1 && rows * (cols - 1) >= 2 {
                out.push(TopologyKind::Grid {
                    cols: cols - 1,
                    rows,
                    spacing_m,
                });
            }
        }
        TopologyKind::Clustered {
            clusters,
            per_cluster,
            spread_m,
            cluster_spacing_m,
        } => {
            if clusters > 1 && (clusters - 1) * per_cluster >= 2 {
                out.push(TopologyKind::Clustered {
                    clusters: clusters - 1,
                    per_cluster,
                    spread_m,
                    cluster_spacing_m,
                });
            }
            if per_cluster > 1 && clusters * (per_cluster - 1) >= 2 {
                out.push(TopologyKind::Clustered {
                    clusters,
                    per_cluster: per_cluster - 1,
                    spread_m,
                    cluster_spacing_m,
                });
            }
        }
        _ => {}
    }
    out
}

/// Shortest-path distances are label-independent: relabelling the nodes by
/// a random permutation must permute the distance matrix exactly. (Next
/// *hops* are not checked — ties legitimately break on node id.)
fn relabelling_failures(adj: &jtp_routing::Adjacency, seed: u64) -> Vec<String> {
    let n = adj.len();
    let mut perm: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
    SimRng::derive(seed, "fuzz-relabel").shuffle(&mut perm);
    let relabelled = adj.permuted(&perm);
    let d = adj.all_pairs_distances();
    let dp = relabelled.all_pairs_distances();
    for a in 0..n {
        for b in 0..n {
            if d[a][b] != dp[perm[a].index()][perm[b].index()] {
                return vec![format!(
                    "shortest-path distance {a}->{b} changed under node relabelling \
                     ({} vs {})",
                    d[a][b],
                    dp[perm[a].index()][perm[b].index()]
                )];
            }
        }
    }
    Vec::new()
}

/// Hierarchical cluster routing must be *lawful* on every placement the
/// engine accepts, whatever backend the case itself runs under: routes
/// are loop-free, deliver exactly when the exact backend's do, stay
/// within `exact distance + destination-cluster diameter` hops, and the
/// remaining-hops estimate never under-counts the walked route. The
/// oracle mirrors the engine's own cluster derivation
/// ([`cluster_spec_for`]), so it exercises precisely the structure a
/// hierarchical run would route on — including disconnected placements
/// (chains spaced beyond radio range), where unreachable pairs must stay
/// unreachable.
fn hierarchical_lawfulness_failures(
    adj: &jtp_routing::Adjacency,
    cfg: &crate::config::ExperimentConfig,
) -> Vec<String> {
    let n = adj.len();
    let select = BackendSelect::Hierarchical(cluster_spec_for(&cfg.topology));
    let mut hier = LinkState::with_backend(adj, cfg.routing_refresh, &select);
    hier.force_refresh_all(SimTime::ZERO, adj);
    let back = hier.hierarchical().expect("hierarchical backend selected");
    let d = adj.all_pairs_distances();
    for (a, row) in d.iter().enumerate() {
        for (b, &exact) in row.iter().enumerate() {
            if a == b {
                continue;
            }
            let (src, dst) = (NodeId(a as u32), NodeId(b as u32));
            let reachable = exact != UNREACHABLE;
            let path = match (hier.trace_path(src, dst), reachable) {
                (None, true) => {
                    return vec![format!(
                        "hierarchical route {a}->{b} fails or loops (exact distance {exact})"
                    )]
                }
                (Some(_), false) => {
                    return vec![format!(
                        "hierarchical route {a}->{b} exists for an exact-unreachable pair"
                    )]
                }
                (None, false) => continue,
                (Some(p), true) => p,
            };
            let mut seen = vec![false; n];
            for v in &path {
                if seen[v.index()] {
                    return vec![format!("hierarchical route {a}->{b} revisits {v}")];
                }
                seen[v.index()] = true;
            }
            let hops = (path.len() - 1) as u32;
            let bound = exact as u32 + back.cluster_diameter(dst);
            if hops < exact as u32 || hops > bound {
                return vec![format!(
                    "hierarchical stretch violated at {a}->{b}: {hops} hops, exact \
                     {exact}, bound {bound}"
                )];
            }
            match hier.remaining_hops(src, dst) {
                Some(est) if est >= hops => {}
                other => {
                    return vec![format!(
                        "hierarchical remaining-hops estimate {other:?} under-counts \
                         the {hops}-hop route {a}->{b}"
                    )]
                }
            }
        }
    }
    Vec::new()
}

/// Energy-weighted routing with all weights = 1 must agree with plain
/// hop-count routing, next hop for next hop.
fn unit_weight_failures(
    adj: &jtp_routing::Adjacency,
    cfg: &crate::config::ExperimentConfig,
) -> Vec<String> {
    let n = adj.len();
    let mut hop = LinkState::new(adj, cfg.routing_refresh);
    let mut unit = LinkState::new(adj, cfg.routing_refresh);
    unit.set_node_weights(Some(vec![1u16; n]));
    hop.force_refresh_all(SimTime::ZERO, adj);
    unit.force_refresh_all(SimTime::ZERO, adj);
    for a in 0..n as u32 {
        for b in 0..n as u32 {
            if a == b {
                continue;
            }
            let (h, u) = (
                hop.next_hop(NodeId(a), NodeId(b)),
                unit.next_hop(NodeId(a), NodeId(b)),
            );
            if h != u {
                return vec![format!(
                    "unit-weight energy routing disagrees with hop routing at \
                     {a}->{b}: {h:?} vs {u:?}"
                )];
            }
        }
    }
    Vec::new()
}

/// Physical-plausibility invariants every run must satisfy, however
/// degenerate the scenario.
fn conservation_failures(cfg: &crate::config::ExperimentConfig, m: &Metrics) -> Vec<String> {
    let mut f = Vec::new();
    let n = cfg.topology.node_count();
    let offered: u64 = m.flows.iter().map(|fl| fl.offered_packets as u64).sum();
    if m.delivered_packets > offered {
        f.push(format!(
            "delivered {} exceeds offered {offered}",
            m.delivered_packets
        ));
    }
    for fl in &m.flows {
        if fl.delivered_packets > fl.offered_packets as u64 {
            f.push(format!(
                "flow {}: delivered {} exceeds offered {}",
                fl.flow, fl.delivered_packets, fl.offered_packets
            ));
        }
    }
    let ratio = m.delivery_ratio();
    if !(0.0..=1.0 + 1e-9).contains(&ratio) {
        f.push(format!("delivery ratio {ratio} outside [0, 1]"));
    }
    if !m.energy_total_j.is_finite() || m.energy_total_j < 0.0 {
        f.push(format!(
            "total energy {} not finite/non-negative",
            m.energy_total_j
        ));
    }
    for (i, e) in m.per_node_energy_j.iter().enumerate() {
        if !e.is_finite() || *e < 0.0 {
            f.push(format!("node {i} energy {e} not finite/non-negative"));
            break;
        }
    }
    if let Some(b) = &cfg.battery {
        for (i, r) in m.residual_j.iter().enumerate() {
            if !(-1e-9..=b.capacity_j + 1e-9).contains(r) {
                f.push(format!(
                    "node {i} residual {r} J outside [0, capacity {} J]",
                    b.capacity_j
                ));
                break;
            }
        }
        if m.battery_deaths > n as u64 {
            f.push(format!(
                "{} battery deaths among {n} nodes",
                m.battery_deaths
            ));
        }
    }
    let mut prev_t = f64::NEG_INFINITY;
    let mut prev_alive = u32::MAX;
    for &(t, alive) in &m.alive_curve {
        if t < prev_t {
            f.push(format!("alive curve time went backwards at t={t}"));
            break;
        }
        if alive > prev_alive {
            f.push(format!("alive curve rose to {alive} at t={t}"));
            break;
        }
        if alive as usize > n {
            f.push(format!("alive count {alive} exceeds {n} nodes"));
            break;
        }
        prev_t = t;
        prev_alive = alive;
    }
    let horizon = cfg.duration.as_secs_f64();
    if m.duration_s < 0.0 || m.duration_s > horizon + 1e-9 {
        f.push(format!(
            "harvest time {} s outside [0, horizon {horizon} s]",
            m.duration_s
        ));
    }
    for (what, t) in [
        ("first death", m.first_death_s),
        ("first partition", m.first_partition_s),
    ] {
        if let Some(t) = t {
            if !(0.0..=horizon + 1e-9).contains(&t) {
                f.push(format!("{what} at {t} s outside [0, horizon {horizon} s]"));
            }
        }
    }
    f
}

// ---------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------

fn gen_topology(rng: &mut SimRng) -> TopologyKind {
    match rng.below(4) {
        0 => {
            // Spacing occasionally beyond the 100 m radio range: a chain
            // disconnected at t = 0 (a *valid* scenario that must run to
            // clean zero-delivery metrics).
            let spacing_m = if rng.chance(0.1) {
                rng.uniform(105.0, 140.0)
            } else {
                rng.uniform(35.0, 70.0)
            };
            TopologyKind::Linear {
                n: 2 + rng.below(8),
                spacing_m,
            }
        }
        1 => {
            let spacing_m = if rng.chance(0.1) {
                rng.uniform(105.0, 130.0) // fully disconnected lattice
            } else {
                rng.uniform(60.0, 95.0)
            };
            // rows >= 2 keeps the lattice at >= 2 nodes even when cols = 1.
            TopologyKind::Grid {
                cols: 1 + rng.below(4),
                rows: 2 + rng.below(3),
                spacing_m,
            }
        }
        2 => {
            let n = 4 + rng.below(7);
            // Occasionally a field too sparse to ever connect: placement
            // must fail with ConfigError::Placement, not a panic.
            let factor = if rng.chance(0.05) { 200.0 } else { 60.0 };
            TopologyKind::Random {
                n,
                field_side_m: factor * (n as f64).sqrt(),
            }
        }
        _ => {
            let cluster_spacing_m = rng.uniform(70.0, 110.0);
            TopologyKind::Clustered {
                clusters: 2 + rng.below(2),
                per_cluster: 2 + rng.below(3),
                spread_m: rng.uniform(5.0, cluster_spacing_m / 2.0),
                cluster_spacing_m,
            }
        }
    }
}

fn pair(rng: &mut SimRng, n: usize) -> (NodeId, NodeId) {
    let a = rng.below(n);
    let b = loop {
        let b = rng.below(n);
        if b != a {
            break b;
        }
    };
    (NodeId(a as u32), NodeId(b as u32))
}

fn gen_traffic(rng: &mut SimRng, n: usize, duration_s: f64) -> TrafficPattern {
    let start_s = rng.uniform(0.0, duration_s * 0.5);
    match rng.below(9) {
        0 => {
            let (src, dst) = pair(rng, n);
            TrafficPattern::Bulk {
                src,
                dst,
                // Zero-packet workloads included: the lowering clamps to
                // one packet, and the oracles must agree on that too.
                packets: rng.below(61) as u32,
                start_s,
                loss_tolerance: if rng.chance(0.3) {
                    rng.uniform(0.0, 0.5)
                } else {
                    0.0
                },
            }
        }
        1 => {
            let (src, dst) = pair(rng, n);
            TrafficPattern::Cbr {
                src,
                dst,
                rate_pps: rng.uniform(0.2, 3.0),
                start_s,
                duration_s: rng.uniform(5.0, 60.0),
                loss_tolerance: 0.0,
            }
        }
        2 => {
            let (src, dst) = pair(rng, n);
            TrafficPattern::OnOff {
                src,
                dst,
                rate_pps: rng.uniform(0.5, 3.0),
                on_s: rng.uniform(5.0, 20.0),
                off_s: rng.uniform(5.0, 40.0),
                start_s,
                cycles: 1 + rng.below(3) as u32,
                loss_tolerance: 0.0,
            }
        }
        3 => {
            let sink = NodeId(rng.below(n) as u32);
            let mut sources: Vec<NodeId> =
                (0..n as u32).map(NodeId).filter(|v| *v != sink).collect();
            rng.shuffle(&mut sources);
            sources.truncate(1 + rng.below(3));
            TrafficPattern::Convergecast {
                sink,
                sources,
                packets: 5 + rng.below(20) as u32,
                start_s,
                stagger_s: rng.uniform(0.0, 10.0),
            }
        }
        4 => {
            let (a, b) = pair(rng, n);
            TrafficPattern::CrossTraffic {
                a,
                b,
                packets: 5 + rng.below(35) as u32,
                start_s,
            }
        }
        5 => TrafficPattern::Poisson {
            flows: 1 + rng.below(4) as u32,
            rate_per_s: rng.uniform(0.01, 0.1),
            packets: 3 + rng.below(12) as u32,
            start_s,
            loss_tolerance: 0.0,
        },
        6 => TrafficPattern::FlashCrowd {
            bursts: 1 + rng.below(3) as u32,
            burst_rate_per_s: rng.uniform(0.005, 0.05),
            flows_per_burst: 1 + rng.below(4) as u32,
            packets: 2 + rng.below(8) as u32,
            start_s,
            loss_tolerance: if rng.chance(0.3) {
                rng.uniform(0.0, 0.4)
            } else {
                0.0
            },
        },
        7 => {
            let min_packets = 1 + rng.below(5) as u32;
            TrafficPattern::ParetoBulk {
                flows: 1 + rng.below(6) as u32,
                alpha: rng.uniform(1.05, 2.5),
                min_packets,
                max_packets: min_packets + rng.below(40) as u32,
                start_s,
                window_s: rng.uniform(0.0, duration_s * 0.4),
                loss_tolerance: 0.0,
            }
        }
        _ => {
            let sink = NodeId(rng.below(n) as u32);
            let mut sources: Vec<NodeId> =
                (0..n as u32).map(NodeId).filter(|v| *v != sink).collect();
            rng.shuffle(&mut sources);
            sources.truncate(1 + rng.below(4));
            let waves = 1 + rng.below(3) as u32;
            TrafficPattern::Incast {
                sink,
                sources,
                packets: 1 + rng.below(8) as u32,
                start_s,
                waves,
                period_s: rng.uniform(5.0, 60.0),
            }
        }
    }
}

fn gen_dynamics(rng: &mut SimRng, n: usize, duration_s: f64) -> DynamicsSpec {
    match rng.below(4) {
        0 => {
            let fail_at_s = rng.uniform(0.0, duration_s * 0.7);
            DynamicsSpec::NodeChurn {
                node: NodeId(rng.below(n) as u32),
                fail_at_s,
                recover_at_s: fail_at_s + rng.uniform(1.0, duration_s * 0.3),
            }
        }
        1 => {
            // Partitions that start at t = 0 yield a network disconnected
            // from the first instant — one of the ISSUE's named degenerate
            // compositions.
            let start_s = if rng.chance(0.3) {
                0.0
            } else {
                rng.uniform(0.0, duration_s * 0.6)
            };
            let mut members: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
            rng.shuffle(&mut members);
            members.truncate(1 + rng.below(n - 1));
            DynamicsSpec::Partition {
                group: members,
                start_s,
                end_s: start_s + rng.uniform(5.0, duration_s * 0.4),
            }
        }
        2 => DynamicsSpec::AreaFailure {
            x_m: rng.uniform(0.0, 600.0),
            y_m: rng.uniform(0.0, 600.0),
            radius_m: rng.uniform(20.0, 150.0),
            at_s: rng.uniform(0.0, duration_s),
        },
        _ => {
            let (a, b) = pair(rng, n);
            let down_s = rng.uniform(2.0, 15.0);
            DynamicsSpec::LinkFlap {
                a,
                b,
                first_down_s: rng.uniform(0.0, duration_s * 0.5),
                down_s,
                period_s: down_s + rng.uniform(2.0, 60.0),
                cycles: 1 + rng.below(3) as u32,
            }
        }
    }
}

/// Replace or append something definitely invalid; the front door must
/// refuse it with a [`ConfigError`], never a panic.
fn inject_invalid(rng: &mut SimRng, sc: Scenario, n: usize) -> Scenario {
    match rng.below(9) {
        0 => sc.traffic(TrafficPattern::Bulk {
            src: NodeId(0),
            dst: NodeId(n as u32), // one past the end
            packets: 5,
            start_s: 1.0,
            loss_tolerance: 0.0,
        }),
        1 => sc.traffic(TrafficPattern::Bulk {
            src: NodeId(0),
            dst: NodeId(0), // self-loop
            packets: 5,
            start_s: 1.0,
            loss_tolerance: 0.0,
        }),
        2 => sc.traffic(TrafficPattern::Bulk {
            src: NodeId(0),
            dst: NodeId(1),
            packets: 5,
            start_s: 1.0,
            loss_tolerance: 1.5, // outside [0, 1]
        }),
        3 => sc.dynamics(DynamicsSpec::NodeChurn {
            node: NodeId(0),
            fail_at_s: 50.0,
            recover_at_s: 20.0, // heals before failing
        }),
        4 => sc.traffic(TrafficPattern::Poisson {
            flows: 3,
            rate_per_s: 0.0, // no arrivals ever
            packets: 5,
            start_s: 1.0,
            loss_tolerance: 0.0,
        }),
        5 => sc.dynamics(DynamicsSpec::LinkFlap {
            a: NodeId(0),
            b: NodeId(1),
            first_down_s: 10.0,
            down_s: 30.0,
            period_s: 30.0, // zero up-time
            cycles: 2,
        }),
        6 => sc.dynamics(DynamicsSpec::Partition {
            group: (0..n as u32).map(NodeId).collect(), // not a proper subset
            start_s: 10.0,
            end_s: 50.0,
        }),
        7 => {
            // Energy routing with nothing to advertise.
            let mut sc = sc.energy_routing();
            sc.battery = None;
            sc
        }
        _ => {
            let mut sc = sc;
            sc.topology = TopologyKind::Linear {
                n: 1, // no destination exists
                spacing_m: 55.0,
            };
            sc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let g = ScenarioGen::new(7);
        for i in 0..20 {
            let a = g.generate(i);
            let b = g.generate(i);
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "case {i} not pure");
        }
        // Different indices and seeds explore different scenarios.
        let a = format!("{:?}", g.generate(0).scenario);
        let b = format!("{:?}", g.generate(1).scenario);
        let c = format!("{:?}", ScenarioGen::new(8).generate(0).scenario);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn generator_covers_the_adversarial_slices() {
        let g = ScenarioGen::new(3);
        let cases: Vec<GeneratedCase> = (0..200).map(|i| g.generate(i)).collect();
        assert!(cases.iter().any(|c| c.expect_reject), "no invalid slice");
        assert!(
            cases.iter().any(|c| c.scenario.battery.is_some()),
            "no battery cases"
        );
        assert!(
            cases.iter().any(|c| c.scenario.mobile_mps.is_some()),
            "no mobile cases"
        );
        assert!(
            cases
                .iter()
                .any(|c| c.scenario.routing_backend == RoutingBackendKind::Hierarchical),
            "no hierarchical-backend cases"
        );
        // Outside the deliberately-invalid slice the generator must never
        // draw the combination validation rejects (inject_invalid may).
        assert!(
            cases.iter().filter(|c| !c.expect_reject).all(|c| {
                c.scenario.routing_backend == RoutingBackendKind::Exact
                    || !c.scenario.energy_routing
            }),
            "generator drew the rejected hierarchical + energy-routing combination"
        );
        assert!(
            cases
                .iter()
                .any(|c| !c.expect_reject && c.scenario.dynamics.len() >= 2),
            "no composed-dynamics cases"
        );
        assert!(
            cases.iter().any(|c| match c.scenario.topology {
                TopologyKind::Linear { spacing_m, .. } => spacing_m > 100.0,
                TopologyKind::Grid { spacing_m, .. } => spacing_m > 100.0,
                _ => false,
            }),
            "no disconnected-at-t0 cases"
        );
        // All six transports appear.
        for t in [
            TransportKind::Jtp,
            TransportKind::Jnc,
            TransportKind::Tcp,
            TransportKind::Atp,
            TransportKind::Cubic,
            TransportKind::Bbr,
        ] {
            assert!(cases.iter().any(|c| c.transport == t), "{t:?} never drawn");
        }
        // The heavy-traffic family flows through the generator too.
        let has = |f: fn(&TrafficPattern) -> bool| {
            cases.iter().any(|c| c.scenario.traffic.iter().any(&f))
        };
        assert!(
            has(|p| matches!(p, TrafficPattern::FlashCrowd { .. })),
            "no flash-crowd cases"
        );
        assert!(
            has(|p| matches!(p, TrafficPattern::ParetoBulk { .. })),
            "no pareto-bulk cases"
        );
        assert!(
            has(|p| matches!(p, TrafficPattern::Incast { .. })),
            "no incast cases"
        );
    }

    #[test]
    fn oracle_stack_passes_a_window_of_cases() {
        // A smoke window; `scenarios fuzz` (and CI's fuzz job) sweep
        // hundreds.
        let g = ScenarioGen::new(1);
        for i in 0..6 {
            let r = g.run_case(i);
            assert!(!r.is_failure(), "case {i} diverged:\n{}", r.repro());
        }
    }

    #[test]
    fn deliberately_invalid_cases_are_rejected_not_run() {
        let g = ScenarioGen::new(11);
        let mut seen = 0;
        for i in 0..120 {
            let case = g.generate(i);
            if !case.expect_reject {
                continue;
            }
            seen += 1;
            let r = g.run_case(i);
            assert!(
                matches!(r.outcome, CaseOutcome::Rejected { .. }),
                "invalid case {i} was not rejected:\n{}",
                r.repro()
            );
        }
        assert!(seen >= 5, "only {seen} invalid cases in the window");
    }

    #[test]
    fn repro_output_is_self_contained() {
        let g = ScenarioGen::new(5);
        let r = g.run_case(0);
        let repro = r.repro();
        assert!(repro.contains("--seed 5"));
        assert!(repro.contains("--start 0"));
        assert!(repro.contains("Scenario"));
    }

    #[test]
    fn shrinker_reaches_the_minimal_failing_core() {
        // A bulky scenario whose "failure" is caused by exactly one
        // dynamics component: the shrinker must strip every flow, every
        // other dynamics event and every spare node.
        let sc = Scenario::new(
            "shrink-me",
            TopologyKind::Linear {
                n: 7,
                spacing_m: 50.0,
            },
        )
        .traffic(TrafficPattern::Bulk {
            src: NodeId(0),
            dst: NodeId(3),
            packets: 10,
            start_s: 1.0,
            loss_tolerance: 0.0,
        })
        .traffic(TrafficPattern::CrossTraffic {
            a: NodeId(1),
            b: NodeId(2),
            packets: 5,
            start_s: 2.0,
        })
        .dynamics(DynamicsSpec::NodeChurn {
            node: NodeId(1),
            fail_at_s: 5.0,
            recover_at_s: 10.0,
        })
        .dynamics(DynamicsSpec::AreaFailure {
            x_m: 0.0,
            y_m: 0.0,
            radius_m: 30.0,
            at_s: 8.0,
        })
        .dynamics(DynamicsSpec::LinkFlap {
            a: NodeId(0),
            b: NodeId(1),
            first_down_s: 3.0,
            down_s: 2.0,
            period_s: 10.0,
            cycles: 2,
        });
        let mut evals = 0usize;
        let fails = |s: &Scenario| {
            s.dynamics
                .iter()
                .any(|d| matches!(d, DynamicsSpec::AreaFailure { .. }))
        };
        let min = shrink_scenario(
            &sc,
            |s| {
                evals += 1;
                fails(s)
            },
            1000,
        );
        assert!(fails(&min), "shrinker lost the failing core");
        assert!(min.traffic.is_empty(), "flows survived: {:?}", min.traffic);
        assert_eq!(min.dynamics.len(), 1, "dynamics: {:?}", min.dynamics);
        assert!(matches!(min.topology, TopologyKind::Linear { n: 2, .. }));
        assert!(evals <= 40, "greedy shrink took {evals} evaluations");
    }

    #[test]
    fn shrinker_resets_engine_knobs_to_defaults() {
        // The failing core is one dynamics event; the routing backend is
        // an innocent bystander the shrinker must return to its default.
        let sc = Scenario::new(
            "knobs",
            TopologyKind::Linear {
                n: 4,
                spacing_m: 50.0,
            },
        )
        .routing_backend(RoutingBackendKind::Hierarchical)
        .dynamics(DynamicsSpec::AreaFailure {
            x_m: 0.0,
            y_m: 0.0,
            radius_m: 30.0,
            at_s: 8.0,
        });
        let min = shrink_scenario(
            &sc,
            |s| {
                s.dynamics
                    .iter()
                    .any(|d| matches!(d, DynamicsSpec::AreaFailure { .. }))
            },
            1000,
        );
        assert_eq!(
            min.routing_backend,
            RoutingBackendKind::Exact,
            "backend not reduced"
        );
        assert!(matches!(min.topology, TopologyKind::Linear { n: 2, .. }));
    }

    #[test]
    fn shrinker_respects_the_evaluation_budget() {
        let sc = Scenario::new(
            "budget",
            TopologyKind::Linear {
                n: 8,
                spacing_m: 50.0,
            },
        )
        .dynamics(DynamicsSpec::AreaFailure {
            x_m: 0.0,
            y_m: 0.0,
            radius_m: 30.0,
            at_s: 8.0,
        });
        let mut evals = 0usize;
        let min = shrink_scenario(
            &sc,
            |_| {
                evals += 1;
                true // everything "fails" — an unbounded shrinker would churn
            },
            3,
        );
        assert_eq!(evals, 3);
        // Budget-limited, but every accepted candidate still failed.
        assert!(min.topology.node_count() < 8);
    }

    #[test]
    fn shrunk_topologies_never_drop_below_two_nodes() {
        let shapes = [
            TopologyKind::Linear {
                n: 2,
                spacing_m: 50.0,
            },
            TopologyKind::Random {
                n: 2,
                field_side_m: 80.0,
            },
            TopologyKind::Grid {
                cols: 1,
                rows: 2,
                spacing_m: 80.0,
            },
            TopologyKind::Grid {
                cols: 2,
                rows: 1,
                spacing_m: 80.0,
            },
            TopologyKind::Clustered {
                clusters: 1,
                per_cluster: 2,
                spread_m: 10.0,
                cluster_spacing_m: 80.0,
            },
            TopologyKind::Clustered {
                clusters: 2,
                per_cluster: 1,
                spread_m: 10.0,
                cluster_spacing_m: 80.0,
            },
        ];
        for t in &shapes {
            for s in shrunk_topologies(t) {
                assert!(s.node_count() >= 2, "{t:?} shrank to {s:?}");
            }
            assert!(
                shrunk_topologies(t).is_empty() || t.node_count() > 2,
                "{t:?} at the 2-node floor must not shrink"
            );
        }
    }
}
