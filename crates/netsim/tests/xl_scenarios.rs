//! The 1000+-node `xl` scenario family: lowering validity, hierarchical
//! route lawfulness with measured stretch on the real placements, the
//! pinned routing-state footprint, and a wall-clock-bounded end-to-end
//! smoke run (release-only; CI's
//! `release-gate` job executes it with `--ignored`).
//!
//! Byte-identity is pinned elsewhere: `golden_traces.rs` holds the
//! historical catalog and one digest line per xl entry; this file owns
//! the xl family's lawfulness and scale checks.

use jtp_netsim::topology::{adjacency_from_positions, place_nodes};
use jtp_netsim::{cluster_spec_for, RoutingBackendKind, Scenario, TransportKind};
use jtp_routing::{BackendSelect, LinkState, UNREACHABLE};
use jtp_sim::{NodeId, SimRng, SimTime};

#[test]
fn xl_catalog_lowers_valid_at_1000_plus_nodes() {
    let cat = Scenario::xl_catalog();
    assert!(cat.len() >= 3, "xl family too small: {}", cat.len());
    for sc in &cat {
        assert!(
            sc.topology.node_count() >= 1000,
            "{} has only {} nodes",
            sc.name,
            sc.topology.node_count()
        );
        assert_eq!(
            sc.routing_backend,
            RoutingBackendKind::Hierarchical,
            "{} must select the hierarchical backend",
            sc.name
        );
        let cfg = sc
            .try_build(TransportKind::Jtp)
            .unwrap_or_else(|e| panic!("{} lowers invalid: {e}", sc.name));
        assert_eq!(cfg.routing_backend, RoutingBackendKind::Hierarchical);
    }
    // Names are unique and disjoint from the historical catalog, whose
    // goldens must never move because of the xl family.
    let historical: Vec<String> = Scenario::catalog().into_iter().map(|s| s.name).collect();
    for sc in &cat {
        assert!(sc.name.starts_with("xl-"), "{} not xl-prefixed", sc.name);
        assert!(!historical.contains(&sc.name));
    }
}

/// On every xl entry's *actual* placement: hierarchical routes are
/// lawful (loop-free, deliver iff the exact backend delivers) and their
/// stretch stays within the destination cluster's subgraph diameter —
/// measured over a deterministic pair sample, with the observed maximum
/// reported.
#[test]
fn xl_placements_route_lawfully_with_bounded_stretch() {
    for sc in Scenario::xl_catalog() {
        let cfg = sc.try_build(TransportKind::Jtp).expect("xl entry lowers");
        let pts = place_nodes(&cfg.topology, &cfg.pathloss, cfg.seed);
        let adj = adjacency_from_positions(&pts, &cfg.pathloss);
        let n = adj.len();

        let mut exact = LinkState::new(&adj, cfg.routing_refresh);
        exact.force_refresh_all(SimTime::ZERO, &adj);
        let select = BackendSelect::Hierarchical(cluster_spec_for(&cfg.topology));
        let mut hier = LinkState::with_backend(&adj, cfg.routing_refresh, &select);
        hier.force_refresh_all(SimTime::ZERO, &adj);
        let back = hier.hierarchical().expect("hierarchical selected");
        let stats = hier.hierarchy_stats().expect("hierarchy stats");
        assert!(
            stats.clusters >= 16,
            "{}: only {} clusters over {n} nodes",
            sc.name,
            stats.clusters
        );

        let mut rng = SimRng::derive(cfg.seed, "xl-stretch-sample");
        let (mut max_stretch, mut sum_stretch, mut sampled) = (0u32, 0u64, 0u64);
        for _ in 0..1500 {
            let a = rng.below(n);
            let b = rng.below(n);
            if a == b {
                continue;
            }
            let (src, dst) = (NodeId(a as u32), NodeId(b as u32));
            let d = exact
                .converged_distance(src, dst)
                .map_or(UNREACHABLE as u32, |d| d);
            let path = hier.trace_path(src, dst);
            if d == UNREACHABLE as u32 {
                assert!(
                    path.is_none(),
                    "{}: {a}->{b} routes despite being exact-unreachable",
                    sc.name
                );
                continue;
            }
            let path =
                path.unwrap_or_else(|| panic!("{}: {a}->{b} fails (exact {d} hops)", sc.name));
            let hops = (path.len() - 1) as u32;
            let bound = d + back.cluster_diameter(dst);
            assert!(
                (d..=bound).contains(&hops),
                "{}: {a}->{b} took {hops} hops (exact {d}, bound {bound})",
                sc.name
            );
            let est = hier
                .remaining_hops(src, dst)
                .unwrap_or_else(|| panic!("{}: no estimate for routable {a}->{b}", sc.name));
            assert!(
                est >= hops,
                "{}: estimate {est} under-counts the {hops}-hop route {a}->{b}",
                sc.name
            );
            max_stretch = max_stretch.max(hops - d);
            sum_stretch += (hops - d) as u64;
            sampled += 1;
        }
        assert!(sampled >= 1000, "{}: sample collapsed", sc.name);
        eprintln!(
            "{}: {} clusters over {n} nodes, {sampled} pairs sampled, \
             stretch max {max_stretch} hops, mean {:.3} hops",
            sc.name,
            stats.clusters,
            sum_stretch as f64 / sampled as f64
        );
    }
}

/// The hierarchical backend's routing-state footprint on every xl
/// entry's actual placement: Σ|C|² intra-cluster entries plus k·n
/// summary entries, against the exact backend's n² flat tables. The
/// committed values pin the partition; a ≥ 10× compression is what the
/// backend exists for.
#[test]
fn xl_state_footprint_is_pinned_and_compressed() {
    // (scenario, clusters, hierarchical table entries)
    let expected = [
        ("xl-grid-churn", 36, 70_720),
        ("xl-clustered-mobile", 40, 65_000),
        ("xl-grid-heavy", 36, 70_720),
    ];
    let cat = Scenario::xl_catalog();
    assert_eq!(cat.len(), expected.len(), "pin every xl entry");
    for sc in cat {
        let &(_, clusters, entries) = expected
            .iter()
            .find(|(name, ..)| *name == sc.name)
            .unwrap_or_else(|| panic!("{} has no pinned footprint", sc.name));
        let cfg = sc.try_build(TransportKind::Jtp).expect("xl entry lowers");
        let pts = place_nodes(&cfg.topology, &cfg.pathloss, cfg.seed);
        let adj = adjacency_from_positions(&pts, &cfg.pathloss);
        let n = adj.len() as u64;
        let select = BackendSelect::Hierarchical(cluster_spec_for(&cfg.topology));
        let hier = LinkState::with_backend(&adj, cfg.routing_refresh, &select);
        let back = hier.hierarchical().expect("hierarchical selected");
        let k = hier.hierarchy_stats().expect("hierarchy stats").clusters;
        let mut sizes = vec![0u64; k as usize];
        for v in 0..n {
            sizes[back.cluster_id(NodeId(v as u32)) as usize] += 1;
        }
        let footprint: u64 = sizes.iter().map(|s| s * s).sum::<u64>() + k * n;
        assert_eq!((k, footprint), (clusters, entries), "{}", sc.name);
        assert!(
            footprint * 10 <= n * n,
            "{}: {footprint} entries is under 10x compression against {}",
            sc.name,
            n * n
        );
    }
}

/// End-to-end xl smoke: one 1024-node catalog entry runs to completion
/// under a wall-clock bound. Release-only (CI's `release-gate` job runs
/// `cargo test --release -- --ignored xl_smoke`); debug builds would
/// blow the bound on compiler overhead alone.
#[test]
#[ignore = "release-only wall-clock-bounded smoke (CI release-gate job)"]
fn xl_smoke_one_entry_under_wall_clock_bound() {
    let sc = Scenario::xl_catalog()
        .into_iter()
        .find(|s| s.name == "xl-grid-churn")
        .expect("entry exists");
    let cfg = sc.try_build(TransportKind::Jtp).expect("lowers");
    let t0 = std::time::Instant::now();
    let m = jtp_netsim::run_experiment(&cfg);
    let wall = t0.elapsed();
    assert!(m.delivered_packets > 0, "xl run delivered nothing: {m:?}");
    // Generous bound: the entry prices at a few seconds in release; a
    // regression to exact-style O(n²) flood repair would blow through
    // this by an order of magnitude.
    assert!(
        wall.as_secs() < 120,
        "xl-grid-churn took {wall:?} (bound 120 s)"
    );
    eprintln!(
        "xl-grid-churn: {} packets delivered in {wall:?}",
        m.delivered_packets
    );
}
