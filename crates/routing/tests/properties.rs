//! Property-based tests of the link-state routing invariants.

use jtp_routing::{Adjacency, BackendSelect, ClusterSpec, LinkState};
use jtp_sim::{NodeId, SimDuration, SimRng, SimTime};
use proptest::prelude::*;

/// Build a random connected graph over `n` nodes from a seed: a random
/// spanning chain plus extra random edges.
fn random_connected(n: usize, seed: u64, extra_edges: usize) -> Adjacency {
    let mut rng = SimRng::new(seed);
    let mut order: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut order);
    let mut adj = Adjacency::new(n);
    for w in order.windows(2) {
        adj.set_edge(NodeId(w[0]), NodeId(w[1]), true);
    }
    for _ in 0..extra_edges {
        let a = rng.below(n) as u32;
        let b = rng.below(n) as u32;
        if a != b {
            adj.set_edge(NodeId(a), NodeId(b), true);
        }
    }
    adj
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// On a connected graph with consistent views, every pair routes, the
    /// hop-by-hop walk terminates, and its length equals the BFS distance.
    #[test]
    fn routes_follow_shortest_paths(
        n in 2usize..15,
        seed in any::<u64>(),
        extra in 0usize..10,
    ) {
        let adj = random_connected(n, seed, extra);
        let ls = LinkState::new(&adj, SimDuration::from_secs(5));
        let dist = adj.all_pairs_distances();
        for s in 0..n as u32 {
            for d in 0..n as u32 {
                if s == d {
                    continue;
                }
                let path = ls.trace_path(NodeId(s), NodeId(d));
                prop_assert!(path.is_some(), "no route {s}->{d}");
                let path = path.unwrap();
                prop_assert_eq!(
                    path.len() - 1,
                    dist[s as usize][d as usize] as usize,
                    "path not shortest"
                );
                prop_assert_eq!(path[0], NodeId(s));
                prop_assert_eq!(*path.last().unwrap(), NodeId(d));
                // Consecutive path nodes are adjacent.
                for w in path.windows(2) {
                    prop_assert!(adj.has_edge(w[0], w[1]));
                }
            }
        }
    }

    /// Forward and reverse walks always have equal length; on chains
    /// (no equal-cost alternatives) they coincide exactly — the symmetric
    /// routes JTP's caching exploits. On dense graphs equal-cost
    /// tie-breaking may pick different shortest paths per direction,
    /// which the opportunistic cache design tolerates.
    #[test]
    fn reverse_routes_have_equal_length(
        n in 2usize..12,
        seed in any::<u64>(),
        extra in 0usize..8,
    ) {
        let adj = random_connected(n, seed, extra);
        let ls = LinkState::new(&adj, SimDuration::from_secs(5));
        for s in 0..n as u32 {
            for d in (s + 1)..n as u32 {
                let fwd = ls.trace_path(NodeId(s), NodeId(d)).unwrap();
                let rev = ls.trace_path(NodeId(d), NodeId(s)).unwrap();
                prop_assert_eq!(fwd.len(), rev.len(), "{}->{} length asymmetry", s, d);
            }
        }
    }

    /// On chain topologies routes are exactly palindromic.
    #[test]
    fn chain_routes_are_exactly_symmetric(n in 2usize..20) {
        let adj = Adjacency::linear(n);
        let ls = LinkState::new(&adj, SimDuration::from_secs(5));
        for s in 0..n as u32 {
            for d in (s + 1)..n as u32 {
                let fwd = ls.trace_path(NodeId(s), NodeId(d)).unwrap();
                let mut rev = ls.trace_path(NodeId(d), NodeId(s)).unwrap();
                rev.reverse();
                prop_assert_eq!(fwd, rev);
            }
        }
    }

    /// remaining_hops agrees with the traced path length and decreases by
    /// exactly one along the route.
    #[test]
    fn remaining_hops_decrease_monotonically(
        n in 2usize..12,
        seed in any::<u64>(),
    ) {
        let adj = random_connected(n, seed, 4);
        let ls = LinkState::new(&adj, SimDuration::from_secs(5));
        let dst = NodeId(n as u32 - 1);
        let path = ls.trace_path(NodeId(0), dst).unwrap();
        for (i, node) in path.iter().enumerate() {
            let remaining = ls.remaining_hops(*node, dst).unwrap();
            prop_assert_eq!(remaining as usize, path.len() - 1 - i);
        }
    }

    /// The incremental exact backend under random edge flips interleaved
    /// with weight re-advertisements (hop-count `None` and random `Some`
    /// vectors): after every flooded refresh it agrees with a fresh
    /// backend built from scratch on the same truth and weights — no
    /// repair code runs in the fresh one — on all-pairs `next_hop`,
    /// `remaining_hops` and `converged_distance`.
    #[test]
    fn incremental_exact_matches_fresh_build_under_churn_and_adverts(
        n in 3usize..14,
        seed in any::<u64>(),
        extra in 0usize..10,
        steps in 4usize..24,
    ) {
        let mut adj = random_connected(n, seed, extra);
        let ival = SimDuration::from_secs(5);
        let mut live = LinkState::new(&adj, ival);
        let mut weights: Option<Vec<u16>> = None;
        let mut rng = SimRng::derive(seed, "proptest-exact-incremental");
        for step in 0..steps {
            if rng.below(3) == 0 {
                weights = if rng.below(4) == 0 {
                    None
                } else {
                    Some((0..n).map(|_| 1 + rng.below(16) as u16).collect())
                };
            } else {
                // Flip 1–3 random edges; disconnection is in scope.
                for _ in 0..1 + rng.below(3) {
                    let u = rng.below(n);
                    let v = rng.below(n);
                    if u != v {
                        let (u, v) = (NodeId(u as u32), NodeId(v as u32));
                        adj.set_edge(u, v, !adj.has_edge(u, v));
                    }
                }
            }
            let now = SimTime::from_secs_f64(step as f64 + 1.0);
            live.set_node_weights(weights.clone());
            live.force_refresh_all(now, &adj);
            let mut fresh = LinkState::new(&adj, ival);
            fresh.set_node_weights(weights.clone());
            fresh.force_refresh_all(now, &adj);
            for s in 0..n as u32 {
                for d in 0..n as u32 {
                    let (src, dst) = (NodeId(s), NodeId(d));
                    prop_assert_eq!(
                        live.next_hop(src, dst),
                        fresh.next_hop(src, dst),
                        "step {}: next_hop {}->{}",
                        step,
                        s,
                        d
                    );
                    prop_assert_eq!(
                        live.remaining_hops(src, dst),
                        fresh.remaining_hops(src, dst),
                        "step {}: remaining_hops {}->{}",
                        step,
                        s,
                        d
                    );
                    prop_assert_eq!(
                        live.converged_distance(src, dst),
                        fresh.converged_distance(src, dst),
                        "step {}: converged_distance {}->{}",
                        step,
                        s,
                        d
                    );
                }
            }
        }
    }

    /// The hierarchical backend on random graphs under random edge churn
    /// (which may disconnect the graph): against the exact backend as
    /// oracle, every walk is loop-free, delivers exactly when exact has
    /// a route, stays within the stretch bound `d_exact +
    /// diam(cluster(dst))`, and `remaining_hops` never under-counts the
    /// walk. The auto cluster target is itself randomised (0 = ⌈√n⌉).
    #[test]
    fn hierarchical_stays_lawful_under_random_churn(
        n in 4usize..14,
        seed in any::<u64>(),
        extra in 0usize..8,
        target in 0usize..6,
    ) {
        let mut adj = random_connected(n, seed, extra);
        let ival = SimDuration::from_secs(1);
        let mut exact = LinkState::new(&adj, ival);
        let mut hier = LinkState::with_backend(
            &adj,
            ival,
            &BackendSelect::Hierarchical(ClusterSpec::Auto { target }),
        );
        let mut rng = SimRng::derive(seed, "proptest-hier-churn");
        for round in 0..4u64 {
            if round > 0 {
                // Toggle 1–2 random edges; disconnection is in scope.
                for _ in 0..1 + rng.below(2) {
                    let u = rng.below(n);
                    let v = rng.below(n);
                    if u != v {
                        let (u, v) = (NodeId(u as u32), NodeId(v as u32));
                        adj.set_edge(u, v, !adj.has_edge(u, v));
                    }
                }
                let now = SimTime::from_secs_f64(round as f64);
                exact.force_refresh_all(now, &adj);
                hier.force_refresh_all(now, &adj);
            }
            let hb = hier.hierarchical().expect("hierarchical backend");
            for s in 0..n as u32 {
                for d in 0..n as u32 {
                    if s == d {
                        continue;
                    }
                    let (src, dst) = (NodeId(s), NodeId(d));
                    // Manual walk with a seen-set: loop-freedom is the
                    // property under test, not trace_path's guard.
                    let mut seen = vec![false; n];
                    let mut cur = src;
                    let mut hops = Some(0u32);
                    while cur != dst {
                        prop_assert!(!seen[cur.index()], "loop at {:?} on {s}->{d}", cur);
                        seen[cur.index()] = true;
                        match hier.next_hop(cur, dst) {
                            Some(next) => {
                                cur = next;
                                hops = hops.map(|h| h + 1);
                            }
                            None => {
                                hops = None;
                                break;
                            }
                        }
                    }
                    match exact.converged_distance(src, dst) {
                        None => prop_assert!(
                            hops.is_none(),
                            "{s}->{d} routed but exact says unreachable"
                        ),
                        Some(dist) => {
                            let hops = hops.expect("undelivered despite exact route");
                            let bound = dist + hb.cluster_diameter(dst);
                            prop_assert!(
                                hops >= dist && hops <= bound,
                                "{s}->{d}: {} hops outside [{}, {}]",
                                hops,
                                dist,
                                bound
                            );
                            let est = hier.remaining_hops(src, dst).expect("estimate");
                            prop_assert!(
                                est >= hops,
                                "{s}->{d}: estimate {} under-counts {} hops",
                                est,
                                hops
                            );
                        }
                    }
                }
            }
        }
    }

    /// Degenerate clusterings are route-identical to exact on random
    /// graphs: one all-nodes cluster (the intra table is the full
    /// table), singleton labels, and an auto target beyond n (which
    /// collapses to one cluster on a connected graph).
    #[test]
    fn degenerate_clusterings_route_identical_to_exact(
        n in 2usize..12,
        seed in any::<u64>(),
        extra in 0usize..8,
    ) {
        let adj = random_connected(n, seed, extra);
        let ival = SimDuration::from_secs(5);
        let exact = LinkState::new(&adj, ival);
        let specs = [
            ClusterSpec::Assignment(vec![0; n]),
            ClusterSpec::Assignment((0..n as u32).collect()),
            ClusterSpec::Auto { target: n + 100 },
        ];
        for spec in specs {
            let hier =
                LinkState::with_backend(&adj, ival, &BackendSelect::Hierarchical(spec));
            for s in 0..n as u32 {
                for d in 0..n as u32 {
                    prop_assert_eq!(
                        hier.next_hop(NodeId(s), NodeId(d)),
                        exact.next_hop(NodeId(s), NodeId(d)),
                        "degenerate clustering diverged for {}->{}",
                        s,
                        d
                    );
                }
            }
        }
    }
}
