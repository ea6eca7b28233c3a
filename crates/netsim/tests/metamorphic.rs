//! Metamorphic invariants on the canonical catalog — the same rules the
//! fuzzer (`jtp_netsim::fuzz`) sweeps over generated scenarios, pinned
//! here on hand-picked catalog members so a regression names a scenario
//! a human recognises.
//!
//! Three families:
//!
//! * **post-horizon dynamics are inert** — the network only schedules
//!   dynamics with `at <= horizon`, so a run with extra events past the
//!   end must be byte-identical ("dynamics-free ≡ static", expressed in
//!   the form that is actually true at run level),
//! * **node relabelling preserves shortest-path distances** — the
//!   distance matrix commutes with any permutation of node labels
//!   (next *hops* are excluded by design: ties break on node id),
//! * **unit-weight energy routing ≡ hop routing** — with every node
//!   advertising weight 1, the energy-weighted tables must equal plain
//!   hop-count tables, next hop for next hop.

use jtp_events::NoopSubscriber;
use jtp_netsim::topology::{adjacency_from_positions, try_place_nodes};
use jtp_netsim::{
    try_run_digest_with, DynamicsAction, DynamicsEvent, ExperimentConfig, GoldenDigest, Scenario,
    TransportKind,
};
use jtp_routing::LinkState;
use jtp_sim::{NodeId, SimRng, SimTime};

/// Small, fast catalog members (the 100+-node members are exercised by
/// the scale suites; metamorphic pins don't need them).
const PINNED: &[&str] = &["chain-bulk", "grid-cross", "chain-onoff"];

fn pinned() -> Vec<Scenario> {
    let cat = Scenario::catalog();
    PINNED
        .iter()
        .map(|name| {
            cat.iter()
                .find(|sc| sc.name == *name)
                .unwrap_or_else(|| panic!("catalog lost scenario {name}"))
                .clone()
        })
        .collect()
}

fn digest(cfg: &ExperimentConfig) -> GoldenDigest {
    try_run_digest_with(cfg, NoopSubscriber)
        .expect("catalog lowers")
        .0
}

#[test]
fn post_horizon_dynamics_are_inert() {
    for sc in pinned() {
        let cfg = sc.build(TransportKind::Jtp);
        let base = digest(&cfg);
        let mut extended = cfg.clone();
        let horizon = cfg.duration.as_secs_f64();
        extended.dynamics.extend([
            DynamicsEvent::at_s(horizon + 1.0, DynamicsAction::NodeDown(NodeId(0))),
            DynamicsEvent::at_s(horizon + 30.0, DynamicsAction::NodeUp(NodeId(0))),
        ]);
        assert_eq!(
            digest(&extended),
            base,
            "{}: dynamics scheduled past the horizon perturbed the run",
            sc.name
        );
    }
}

#[test]
fn relabelling_preserves_distance_matrices() {
    for sc in pinned() {
        let cfg = sc.build(TransportKind::Jtp);
        let pts = try_place_nodes(&cfg.topology, &cfg.pathloss, cfg.seed)
            .unwrap_or_else(|e| panic!("{}: placement failed: {e}", sc.name));
        let adj = adjacency_from_positions(&pts, &cfg.pathloss);
        let n = adj.len();
        let mut perm: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        SimRng::derive(cfg.seed, "metamorphic-perm").shuffle(&mut perm);
        let relabelled = adj.permuted(&perm);
        let d = adj.all_pairs_distances();
        let dp = relabelled.all_pairs_distances();
        for a in 0..n {
            for b in 0..n {
                assert_eq!(
                    d[a][b],
                    dp[perm[a].index()][perm[b].index()],
                    "{}: distance {a}->{b} changed under relabelling",
                    sc.name
                );
            }
        }
    }
}

#[test]
fn unit_weight_energy_routing_equals_hop_routing() {
    for sc in pinned() {
        let cfg = sc.build(TransportKind::Jtp);
        let pts = try_place_nodes(&cfg.topology, &cfg.pathloss, cfg.seed)
            .unwrap_or_else(|e| panic!("{}: placement failed: {e}", sc.name));
        let adj = adjacency_from_positions(&pts, &cfg.pathloss);
        let n = adj.len();
        let mut hop = LinkState::new(&adj, cfg.routing_refresh);
        let mut unit = LinkState::new(&adj, cfg.routing_refresh);
        unit.set_node_weights(Some(vec![1u16; n]));
        // Views pick weighted tables up on the next refresh, not on set.
        hop.force_refresh_all(SimTime::ZERO, &adj);
        unit.force_refresh_all(SimTime::ZERO, &adj);
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                if a == b {
                    continue;
                }
                assert_eq!(
                    hop.next_hop(NodeId(a), NodeId(b)),
                    unit.next_hop(NodeId(a), NodeId(b)),
                    "{}: unit-weight routing diverged from hop routing at {a}->{b}",
                    sc.name
                );
            }
        }
    }
}
