//! Lawfulness and degenerate-equivalence pins for the hierarchical
//! backend, against [`ExactBackend`] as the oracle:
//!
//! * **degenerate pins** — one cluster ≡ exact (the intra table *is*
//!   the full table, same tie-break), singleton clusters ≡ exact (every
//!   toward-row *is* an exact next-hop column);
//! * **lawfulness under churn** — on random graphs under random edge
//!   churn, hierarchical routes stay loop-free, deliver exactly when
//!   the exact backend has a route, and respect the stretch bound
//!   `len ≤ d_exact + diam(subgraph(cluster(dst)))`, with
//!   `remaining_hops` a true upper bound on the walk;
//! * **grid convexity** — on grid blocks (geodesically convex), intra-
//!   cluster walks are exactly as long as the exact distance;
//! * **splits** — killing a cluster's cut node splits it into connected
//!   components and every route stays lawful.

use jtp_routing::{Adjacency, BackendSelect, ClusterSpec, LinkState, UNREACHABLE};
use jtp_sim::{NodeId, SimDuration, SimRng, SimTime};

fn refresh(now_s: f64, truth: &Adjacency, backends: &mut [&mut LinkState]) {
    for b in backends {
        b.force_refresh_all(SimTime::from_secs_f64(now_s), truth);
    }
}

/// Walk `hier`'s per-hop decisions, asserting no node repeats; returns
/// the hop count, or None when the walk dead-ends.
fn walk_hops(hier: &LinkState, src: NodeId, dst: NodeId) -> Option<u32> {
    let mut seen = vec![false; hier.len()];
    let mut cur = src;
    let mut hops = 0u32;
    while cur != dst {
        assert!(!seen[cur.index()], "loop at {cur:?} on {src:?}->{dst:?}");
        seen[cur.index()] = true;
        cur = hier.next_hop(cur, dst)?;
        hops += 1;
    }
    Some(hops)
}

/// Every pair: reachability matches exact; walks are loop-free, within
/// the stretch bound, and covered by the remaining-hops estimate.
fn assert_lawful(exact: &LinkState, hier: &LinkState, ctx: &str) {
    let n = exact.len();
    let hb = hier.hierarchical().expect("hierarchical backend");
    for s in 0..n as u32 {
        for d in 0..n as u32 {
            let (s, d) = (NodeId(s), NodeId(d));
            if s == d {
                continue;
            }
            let exact_dist = exact.converged_distance(s, d);
            let hops = walk_hops(hier, s, d);
            match exact_dist {
                None => assert!(
                    hops.is_none(),
                    "{ctx}: {s:?}->{d:?} routed but exact says unreachable"
                ),
                Some(dist) => {
                    let hops = hops.unwrap_or_else(|| {
                        panic!("{ctx}: {s:?}->{d:?} undelivered (exact {dist})")
                    });
                    assert!(hops >= dist, "{ctx}: {s:?}->{d:?} beat the shortest path");
                    let bound = dist + hb.cluster_diameter(d);
                    assert!(
                        hops <= bound,
                        "{ctx}: {s:?}->{d:?} took {hops} hops > bound {bound}"
                    );
                    let est = hier
                        .remaining_hops(s, d)
                        .unwrap_or_else(|| panic!("{ctx}: {s:?}->{d:?} estimate missing"));
                    assert!(
                        est >= hops,
                        "{ctx}: {s:?}->{d:?} estimate {est} under-counts {hops} hops"
                    );
                }
            }
        }
    }
}

fn mesh(n: usize, seed: u64, extra: usize) -> Adjacency {
    let mut rng = SimRng::derive(seed, "hier-mesh");
    let mut a = Adjacency::linear(n);
    for _ in 0..extra {
        let u = rng.below(n);
        let v = rng.below(n);
        if u != v {
            a.set_edge(NodeId(u as u32), NodeId(v as u32), true);
        }
    }
    a
}

fn all_next_hops(r: &LinkState) -> Vec<Option<NodeId>> {
    let n = r.len() as u32;
    (0..n)
        .flat_map(|s| (0..n).map(move |d| (s, d)))
        .map(|(s, d)| r.next_hop(NodeId(s), NodeId(d)))
        .collect()
}

#[test]
fn one_cluster_is_route_identical_to_exact() {
    let a = mesh(12, 7, 8);
    let exact = LinkState::new(&a, SimDuration::from_secs(5));
    let hier = LinkState::with_backend(
        &a,
        SimDuration::from_secs(5),
        &BackendSelect::Hierarchical(ClusterSpec::Assignment(vec![0; 12])),
    );
    assert_eq!(
        all_next_hops(&exact),
        all_next_hops(&hier),
        "one cluster: intra table must reproduce the exact table"
    );
    assert_eq!(hier.hierarchy_stats().unwrap().clusters, 1);
}

#[test]
fn singleton_clusters_are_route_identical_to_exact() {
    let a = mesh(11, 9, 7);
    let exact = LinkState::new(&a, SimDuration::from_secs(5));
    // clusters > nodes degenerates to one singleton per node: every
    // toward-row is an exact next-hop column.
    let labels: Vec<u32> = (0..11).collect();
    let hier = LinkState::with_backend(
        &a,
        SimDuration::from_secs(5),
        &BackendSelect::Hierarchical(ClusterSpec::Assignment(labels)),
    );
    assert_eq!(
        all_next_hops(&exact),
        all_next_hops(&hier),
        "singletons: toward rows must reproduce exact next hops"
    );
    assert_eq!(hier.hierarchy_stats().unwrap().clusters, 11);
}

#[test]
fn oversized_auto_target_is_one_cluster() {
    // Auto target beyond n collapses to a single cluster on a connected
    // graph — and must therefore match exact too.
    let a = mesh(10, 21, 6);
    let exact = LinkState::new(&a, SimDuration::from_secs(5));
    let hier = LinkState::with_backend(
        &a,
        SimDuration::from_secs(5),
        &BackendSelect::Hierarchical(ClusterSpec::Auto { target: 1000 }),
    );
    assert_eq!(hier.hierarchy_stats().unwrap().clusters, 1);
    assert_eq!(all_next_hops(&exact), all_next_hops(&hier));
}

#[test]
fn random_churn_stays_lawful() {
    let n = 18;
    let mut rng = SimRng::derive(41, "hier-churn");
    let mut truth = mesh(n, 3, 10);
    let mut exact = LinkState::new(&truth, SimDuration::from_secs(1));
    let mut hier = LinkState::with_backend(
        &truth,
        SimDuration::from_secs(1),
        &BackendSelect::Hierarchical(ClusterSpec::Auto { target: 0 }),
    );
    assert_lawful(&exact, &hier, "initial");
    for step in 0..60 {
        for _ in 0..1 + rng.below(3) {
            let u = rng.below(n);
            let v = rng.below(n);
            if u != v {
                let has = truth.has_edge(NodeId(u as u32), NodeId(v as u32));
                truth.set_edge(NodeId(u as u32), NodeId(v as u32), !has);
            }
        }
        refresh(step as f64 + 1.0, &truth, &mut [&mut exact, &mut hier]);
        assert_lawful(&exact, &hier, &format!("step {step}"));
    }
    let s = hier.stats();
    assert!(s.bfs_repaired > 0, "cluster rows must repair in place");
    assert!(s.bfs_skipped > 0, "screen must clear unaffected rows");
}

#[test]
fn grid_block_intra_routes_match_exact_distance() {
    // An 8×8 grid clustered into 2×2 blocks of 4×4 nodes. Blocks are
    // geodesically convex, so same-block walks must be *exactly* as
    // long as the exact shortest path — the intra-match pin.
    let (cols, rows) = (8usize, 8usize);
    let n = cols * rows;
    let mut a = Adjacency::new(n);
    for r in 0..rows {
        for c in 0..cols {
            let v = (r * cols + c) as u32;
            if c + 1 < cols {
                a.set_edge(NodeId(v), NodeId(v + 1), true);
            }
            if r + 1 < rows {
                a.set_edge(NodeId(v), NodeId(v + cols as u32), true);
            }
        }
    }
    let labels: Vec<u32> = (0..n)
        .map(|v| {
            let (r, c) = (v / cols, v % cols);
            ((r / 4) * 2 + c / 4) as u32
        })
        .collect();
    let exact = LinkState::new(&a, SimDuration::from_secs(5));
    let hier = LinkState::with_backend(
        &a,
        SimDuration::from_secs(5),
        &BackendSelect::Hierarchical(ClusterSpec::Assignment(labels)),
    );
    let hb = hier.hierarchical().unwrap();
    assert_eq!(hier.hierarchy_stats().unwrap().clusters, 4);
    let mut intra_pairs = 0;
    for s in 0..n as u32 {
        for d in 0..n as u32 {
            if s == d || hb.cluster_id(NodeId(s)) != hb.cluster_id(NodeId(d)) {
                continue;
            }
            intra_pairs += 1;
            let dist = exact.converged_distance(NodeId(s), NodeId(d)).unwrap();
            let hops = walk_hops(&hier, NodeId(s), NodeId(d)).unwrap();
            assert_eq!(hops, dist, "intra-block {s}->{d} must match exact length");
            assert_eq!(
                hier.remaining_hops(NodeId(s), NodeId(d)),
                Some(dist),
                "intra-block estimate is the exact subgraph distance"
            );
        }
    }
    assert_eq!(intra_pairs, 4 * 16 * 15);
    assert_lawful(&exact, &hier, "grid");
}

#[test]
fn cut_node_death_splits_cluster_and_stays_lawful() {
    // A 12-chain in three 4-blocks; killing node 5 severs its block
    // {4,5,6,7} into {4}, {6,7} (5 isolates), which must split.
    let n = 12;
    let truth0 = Adjacency::linear(n);
    let labels: Vec<u32> = (0..n as u32).map(|v| v / 4).collect();
    let mut exact = LinkState::new(&truth0, SimDuration::from_secs(1));
    let mut hier = LinkState::with_backend(
        &truth0,
        SimDuration::from_secs(1),
        &BackendSelect::Hierarchical(ClusterSpec::Assignment(labels)),
    );
    assert_eq!(hier.hierarchy_stats().unwrap().clusters, 3);

    let mut dead = truth0.clone();
    dead.set_edge(NodeId(4), NodeId(5), false);
    dead.set_edge(NodeId(5), NodeId(6), false);
    refresh(1.0, &dead, &mut [&mut exact, &mut hier]);
    let hs = hier.hierarchy_stats().unwrap();
    assert!(hs.splits >= 2, "block {{4..7}} must split, got {hs:?}");
    assert_lawful(&exact, &hier, "after death");

    // Heal: clusters never merge — the split survives — but routes are
    // lawful again across the restored chain.
    refresh(2.0, &truth0, &mut [&mut exact, &mut hier]);
    assert_eq!(hier.hierarchy_stats().unwrap().clusters, hs.clusters);
    assert_lawful(&exact, &hier, "after heal");
    for d in 0..n as u32 {
        if d != 0 {
            assert!(walk_hops(&hier, NodeId(0), NodeId(d)).is_some());
        }
    }
}

#[test]
fn disconnected_assignment_is_split_at_construction() {
    // Label 0 covers two disconnected chain segments: the constructor
    // must split it so the intra invariant holds from t = 0.
    let mut a = Adjacency::linear(8);
    a.set_edge(NodeId(3), NodeId(4), false);
    let hier = LinkState::with_backend(
        &a,
        SimDuration::from_secs(5),
        &BackendSelect::Hierarchical(ClusterSpec::Assignment(vec![0; 8])),
    );
    assert_eq!(hier.hierarchy_stats().unwrap().clusters, 2);
    let exact = LinkState::new(&a, SimDuration::from_secs(5));
    assert_lawful(&exact, &hier, "split assignment");
}

#[test]
fn estimate_never_under_counts_unreachable_pairs() {
    let mut a = Adjacency::linear(6);
    a.set_edge(NodeId(2), NodeId(3), false);
    let hier = LinkState::with_backend(
        &a,
        SimDuration::from_secs(5),
        &BackendSelect::Hierarchical(ClusterSpec::Auto { target: 3 }),
    );
    assert_eq!(hier.remaining_hops(NodeId(0), NodeId(5)), None);
    assert_eq!(hier.next_hop(NodeId(0), NodeId(5)), None);
    assert!(hier.stats().no_route > 0);
    let _ = UNREACHABLE; // distances stay u16-encoded end to end
}
