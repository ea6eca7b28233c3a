//! Node placement and ground-truth connectivity.
//!
//! Geometric adjacency is derived through a [`SpatialGrid`] (cell size =
//! radio range): candidate pairs come from same-or-adjacent cells and the
//! **exact same float predicate** (`pathloss.in_range(distance)`) the
//! reference all-pairs scan uses decides membership — so the grid path
//! is bit-identical to the test-only all-pairs scan
//! `adjacency_from_positions_brute` (pinned by the boundary tests and the
//! `spatial_grid_matches_brute_force` proptest) while costing O(n·k) per
//! mobility tick instead of O(n²). Never switch the grid path to a
//! squared-distance comparison: `sqrt` rounding can make `d² < r²` and
//! `sqrt(d²) < r` disagree for distances at the range boundary, which
//! would flake every byte-equivalence pin downstream.

use crate::config::{ConfigError, TopologyKind};
use jtp_phys::{Field, PathLoss, Point, SpatialGrid};
use jtp_routing::Adjacency;
use jtp_sim::{NodeId, SimRng};

/// Place nodes according to the topology kind. Random placements are
/// resampled (deterministically from the seed) until the implied
/// connectivity graph is connected — the paper sizes fields so the network
/// "is connected with high probability", we make it a certainty.
///
/// Panics if the resampling budget runs out; [`try_place_nodes`] reports
/// that as [`ConfigError::Placement`] instead.
pub fn place_nodes(kind: &TopologyKind, pathloss: &PathLoss, seed: u64) -> Vec<Point> {
    try_place_nodes(kind, pathloss, seed).unwrap_or_else(|e| panic!("{e}"))
}

/// [`place_nodes`], with placement failure (a field too sparse for its
/// radio range to ever connect within the deterministic resampling
/// budget) reported as [`ConfigError::Placement`] instead of a panic.
pub fn try_place_nodes(
    kind: &TopologyKind,
    pathloss: &PathLoss,
    seed: u64,
) -> Result<Vec<Point>, ConfigError> {
    match kind {
        TopologyKind::Linear { n, spacing_m } => Ok((0..*n)
            .map(|i| Point::new(i as f64 * spacing_m, 0.0))
            .collect()),
        TopologyKind::Random { n, field_side_m } => {
            let field = Field::square(*field_side_m);
            let mut rng = SimRng::derive(seed, "placement");
            for _attempt in 0..1000 {
                let pts: Vec<Point> = (0..*n).map(|_| field.random_point(&mut rng)).collect();
                if adjacency_from_positions(&pts, pathloss).is_connected() {
                    return Ok(pts);
                }
            }
            Err(ConfigError::Placement(format!(
                "could not find a connected placement of {n} nodes in a \
                 {field_side_m} m field after 1000 attempts — enlarge the \
                 range or shrink the field"
            )))
        }
        TopologyKind::Grid {
            cols,
            rows,
            spacing_m,
        } => Ok((0..rows * cols)
            .map(|i| Point::new((i % cols) as f64 * spacing_m, (i / cols) as f64 * spacing_m))
            .collect()),
        TopologyKind::Clustered {
            clusters,
            per_cluster,
            spread_m,
            cluster_spacing_m,
        } => {
            let centers = cluster_centers(*clusters, *cluster_spacing_m);
            let mut rng = SimRng::derive(seed, "placement-clustered");
            for _attempt in 0..1000 {
                let mut pts = Vec::with_capacity(clusters * per_cluster);
                for c in &centers {
                    for _ in 0..*per_cluster {
                        // Uniform in the disc of radius `spread_m` around
                        // the centre (rejection-free: r = R·√u).
                        let r = spread_m * rng.f64().sqrt();
                        let a = rng.uniform(0.0, std::f64::consts::TAU);
                        pts.push(Point::new(c.x + r * a.cos(), c.y + r * a.sin()));
                    }
                }
                if adjacency_from_positions(&pts, pathloss).is_connected() {
                    return Ok(pts);
                }
            }
            Err(ConfigError::Placement(format!(
                "could not find a connected clustered placement \
                 ({clusters}×{per_cluster}, spread {spread_m} m, spacing \
                 {cluster_spacing_m} m) after 1000 attempts"
            )))
        }
    }
}

/// Cluster centres on a near-square lattice, `spacing` apart, offset so
/// every disc of nodes stays inside the positive quadrant.
fn cluster_centers(clusters: usize, spacing: f64) -> Vec<Point> {
    let cols = (clusters as f64).sqrt().ceil() as usize;
    (0..clusters)
        .map(|c| {
            Point::new(
                spacing * (0.5 + (c % cols) as f64),
                spacing * (0.5 + (c / cols) as f64),
            )
        })
        .collect()
}

/// Ground-truth adjacency: an edge wherever two radios are in range.
///
/// Spatial-grid fast path (see the module docs): candidate pairs come
/// from a uniform hash with cell size = `max_range`, the range decision
/// is the identical float predicate the brute-force scan applies, and
/// the result is bit-identical to the all-pairs scan.
pub fn adjacency_from_positions(positions: &[Point], pathloss: &PathLoss) -> Adjacency {
    let n = positions.len();
    let mut adj = Adjacency::new(n);
    if n < 2 {
        return adj;
    }
    let grid = SpatialGrid::build(positions, grid_cell(pathloss));
    grid.for_each_candidate_pair(|i, j| {
        let d = positions[i as usize].distance(positions[j as usize]);
        if pathloss.in_range(d) {
            adj.set_edge(NodeId(i), NodeId(j), true);
        }
    });
    adj
}

/// Grid cell side for neighbour discovery: the radio range plus a hair
/// of slack, so the adjacent-cell guarantee dominates every float-
/// rounding term in the cell indexing (see [`SpatialGrid::build`]).
fn grid_cell(pathloss: &PathLoss) -> f64 {
    pathloss.max_range * (1.0 + 1e-9)
}

/// The in-range undirected pairs `(a, b)` with `a < b`, sorted
/// lexicographically — the allocation-light form of
/// [`adjacency_from_positions`] the mobility tick consumes: candidates
/// from the spatial grid, membership by the identical float predicate,
/// and **no** per-tick graph construction (the caller diffs the list
/// against the standing geometry via [`geometry_edge_diff`] and patches
/// only what changed).
pub fn edges_from_positions(positions: &[Point], pathloss: &PathLoss) -> Vec<(NodeId, NodeId)> {
    EdgeScratch::new()
        .edges_from_positions(positions, pathloss)
        .to_vec()
}

/// Persistent buffers for [`edges_from_positions`]: the spatial grid's
/// CSR arrays, the packed candidate list and the output edge list are
/// all reused call to call, so a steady-state mobility tick performs
/// zero allocations in neighbour discovery (the buffers grow once to the
/// field's working size and stay). The computed edge set is identical to
/// the free function's — [`EdgeScratch::edges_from_positions`] *is* its
/// implementation.
#[derive(Clone, Debug, Default)]
pub struct EdgeScratch {
    grid: Option<SpatialGrid>,
    packed: Vec<u64>,
    edges: Vec<(NodeId, NodeId)>,
}

impl EdgeScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`edges_from_positions`] into the reused buffers: the in-range
    /// undirected pairs `(a, b)` with `a < b`, sorted lexicographically.
    /// The returned slice is valid until the next call.
    pub fn edges_from_positions(
        &mut self,
        positions: &[Point],
        pathloss: &PathLoss,
    ) -> &[(NodeId, NodeId)] {
        self.edges.clear();
        if positions.len() < 2 {
            return &self.edges;
        }
        let cell = grid_cell(pathloss);
        let grid = match &mut self.grid {
            Some(g) => {
                g.rebuild(positions, cell);
                g
            }
            None => self.grid.insert(SpatialGrid::build(positions, cell)),
        };
        // Squared-distance **prefilter only**: a candidate strictly beyond
        // `r·(1+1e-9)` squared provably has `sqrt(d²) > max_range`, so it can
        // be rejected without the sqrt. Everything inside the loose bound
        // still goes through the exact `in_range(distance)` predicate — the
        // boundary decision is never made on squared values (see the module
        // docs), so the result stays bit-identical to the brute scan.
        let rr_loose = (pathloss.max_range * (1.0 + 1e-9)).powi(2);
        let packed = &mut self.packed;
        packed.clear();
        grid.for_each_candidate_pair(|i, j| {
            let (p, q) = (positions[i as usize], positions[j as usize]);
            let d2 = (p.x - q.x) * (p.x - q.x) + (p.y - q.y) * (p.y - q.y);
            if d2 > rr_loose {
                return;
            }
            if pathloss.in_range(p.distance(q)) {
                packed.push((i as u64) << 32 | j as u64);
            }
        });
        // Lexicographic `(a, b)` order == numeric order of the packed keys.
        packed.sort_unstable();
        self.edges.extend(
            packed
                .iter()
                .map(|&k| (NodeId((k >> 32) as u32), NodeId(k as u32))),
        );
        &self.edges
    }
}

/// Diff the standing geometric adjacency against a sorted in-range edge
/// list (from [`edges_from_positions`]): a merge of the two sorted edge
/// streams, O(E_old + E_new), yielding `(a, b, present_in_new)` in
/// ascending `(a, b)` order — the exact shape
/// `MaskedTruth::apply_geometry_edge_diff` and the routing repair eat.
pub fn geometry_edge_diff(
    geo: &Adjacency,
    new_edges: &[(NodeId, NodeId)],
) -> Vec<(NodeId, NodeId, bool)> {
    let mut out = Vec::new();
    let mut it = new_edges.iter().copied().peekable();
    for i in 0..geo.len() {
        let a = NodeId(i as u32);
        for &b in geo.neighbors(a) {
            if b <= a {
                continue;
            }
            // Emit every new edge sorting strictly before (a, b): absent
            // from the old geometry, so it was added.
            while let Some(&(na, nb)) = it.peek() {
                if (na, nb) < (a, b) {
                    out.push((na, nb, true));
                    it.next();
                } else {
                    break;
                }
            }
            if it.peek() == Some(&(a, b)) {
                it.next(); // unchanged edge
            } else {
                out.push((a, b, false)); // vanished from the new list
            }
        }
    }
    for (na, nb) in it {
        out.push((na, nb, true));
    }
    out
}

/// The all-pairs scan: the reference oracle the grid path is pinned
/// against.
#[cfg(test)]
pub fn adjacency_from_positions_brute(positions: &[Point], pathloss: &PathLoss) -> Adjacency {
    let n = positions.len();
    let mut adj = Adjacency::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            let d = positions[i].distance(positions[j]);
            if pathloss.in_range(d) {
                adj.set_edge(NodeId(i as u32), NodeId(j as u32), true);
            }
        }
    }
    adj
}

/// The deployment field implied by a topology (for mobility bounds).
///
/// Degenerate lattices are clamped to the **actual placement extent**: a
/// 1-column grid puts every node at x = 0, so its field is 1 m wide (the
/// `+1.0` slack), not `spacing + 1` — the old `max(1)` clamp inflated the
/// empty axis and let waypoint mobility roam a full spacing off the
/// placement line.
pub fn field_for(kind: &TopologyKind) -> Field {
    // `+1.0` keeps the Field constructor's positive-area invariant when
    // an axis has zero extent (single row/column/node).
    let span = |count: usize, spacing: f64| count.saturating_sub(1) as f64 * spacing + 1.0;
    match kind {
        TopologyKind::Linear { n, spacing_m } => Field::new(span(*n, *spacing_m), 50.0),
        TopologyKind::Random { field_side_m, .. } => Field::square(*field_side_m),
        TopologyKind::Grid {
            cols,
            rows,
            spacing_m,
        } => Field::new(span(*cols, *spacing_m), span(*rows, *spacing_m)),
        TopologyKind::Clustered {
            clusters,
            cluster_spacing_m,
            ..
        } => {
            let cols = (*clusters as f64).sqrt().ceil() as usize;
            let rows = clusters.div_ceil(cols);
            Field::new(
                cols as f64 * cluster_spacing_m,
                rows as f64 * cluster_spacing_m,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TopologyKind;
    use proptest::prelude::*;

    fn pl() -> PathLoss {
        PathLoss::javelen_default()
    }

    #[test]
    fn linear_placement_is_a_chain() {
        let kind = TopologyKind::Linear {
            n: 5,
            spacing_m: 55.0,
        };
        let pts = place_nodes(&kind, &pl(), 1);
        let adj = adjacency_from_positions(&pts, &pl());
        // Chain: node i connects to i±1 only (110 m to i±2 is out of range).
        for i in 0..5u32 {
            for j in 0..5u32 {
                let expect = i.abs_diff(j) == 1;
                assert_eq!(adj.has_edge(NodeId(i), NodeId(j)), expect, "({i},{j})");
            }
        }
    }

    #[test]
    fn random_placement_is_connected_and_deterministic() {
        let kind = TopologyKind::Random {
            n: 15,
            field_side_m: 60.0 * 15f64.sqrt(),
        };
        let a = place_nodes(&kind, &pl(), 9);
        let b = place_nodes(&kind, &pl(), 9);
        assert_eq!(a.len(), 15);
        for (p, q) in a.iter().zip(&b) {
            assert_eq!(p, q, "same seed, same placement");
        }
        assert!(adjacency_from_positions(&a, &pl()).is_connected());
        let c = place_nodes(&kind, &pl(), 10);
        assert!(a.iter().zip(&c).any(|(p, q)| p != q), "seeds differ");
    }

    #[test]
    fn edge_scratch_reuse_matches_fresh_computation() {
        // The same scratch walked across many distinct position sets
        // (different sizes, including degenerate ones) must reproduce
        // the free function exactly — buffer reuse is invisible.
        let mut scratch = EdgeScratch::new();
        let mut rng = jtp_sim::SimRng::derive(42, "edge-scratch-test");
        for round in 0..12 {
            let n = match round % 4 {
                0 => 0,
                1 => 1,
                2 => 9,
                _ => 40,
            };
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.uniform(0.0, 500.0), rng.uniform(0.0, 500.0)))
                .collect();
            let fresh = edges_from_positions(&pts, &pl());
            let reused = scratch.edges_from_positions(&pts, &pl());
            assert_eq!(fresh, reused, "round {round} (n = {n}) diverged");
        }
    }

    #[test]
    fn adjacency_respects_range() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(99.0, 0.0),
            Point::new(250.0, 0.0),
        ];
        let adj = adjacency_from_positions(&pts, &pl());
        assert!(adj.has_edge(NodeId(0), NodeId(1)));
        assert!(!adj.has_edge(NodeId(0), NodeId(2)));
        assert!(!adj.has_edge(NodeId(1), NodeId(2)));
    }

    #[test]
    fn grid_placement_is_four_connected_at_80m() {
        let kind = TopologyKind::Grid {
            cols: 4,
            rows: 3,
            spacing_m: 80.0,
        };
        let pts = place_nodes(&kind, &pl(), 1);
        assert_eq!(pts.len(), 12);
        let adj = adjacency_from_positions(&pts, &pl());
        assert!(adj.is_connected());
        // Lattice neighbours only: id = row*cols + col.
        for i in 0..12u32 {
            let (r, c) = (i / 4, i % 4);
            for j in 0..12u32 {
                let (r2, c2) = (j / 4, j % 4);
                let lattice_adjacent = r.abs_diff(r2) + c.abs_diff(c2) == 1;
                assert_eq!(adj.has_edge(NodeId(i), NodeId(j)), lattice_adjacent);
            }
        }
    }

    #[test]
    fn clustered_placement_is_connected_deterministic_and_clustered() {
        let kind = TopologyKind::Clustered {
            clusters: 3,
            per_cluster: 4,
            spread_m: 25.0,
            cluster_spacing_m: 90.0,
        };
        let a = place_nodes(&kind, &pl(), 5);
        let b = place_nodes(&kind, &pl(), 5);
        assert_eq!(a.len(), 12);
        assert_eq!(a, b, "same seed, same placement");
        assert!(adjacency_from_positions(&a, &pl()).is_connected());
        let f = field_for(&kind);
        for p in &a {
            assert!(f.contains(*p), "node outside implied field: {p:?}");
        }
        // Nodes of one cluster sit within 2×spread of each other.
        for c in 0..3 {
            for i in 0..4 {
                for j in 0..4 {
                    let d = a[c * 4 + i].distance(a[c * 4 + j]);
                    assert!(d <= 50.0 + 1e-9, "intra-cluster distance {d}");
                }
            }
        }
    }

    /// The sorted edge list and its merge-diff against a standing
    /// geometry must agree with the full-adjacency oracle across random
    /// placements and perturbations.
    #[test]
    fn edge_list_and_diff_match_adjacency_oracle() {
        let pl = pl();
        let mut rng = SimRng::derive(17, "edge-list-oracle");
        let n = 40;
        let mut pts: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.uniform(0.0, 400.0), rng.uniform(0.0, 400.0)))
            .collect();
        let mut geo = adjacency_from_positions(&pts, &pl);
        for step in 0..60 {
            // Jitter a few nodes (a mobility-tick-shaped perturbation).
            for _ in 0..1 + rng.below(4) {
                let i = rng.below(n);
                pts[i] = Point::new(
                    (pts[i].x + rng.uniform(-30.0, 30.0)).clamp(0.0, 400.0),
                    (pts[i].y + rng.uniform(-30.0, 30.0)).clamp(0.0, 400.0),
                );
            }
            let edges = edges_from_positions(&pts, &pl);
            let expect = adjacency_from_positions_brute(&pts, &pl);
            let diff = geometry_edge_diff(&geo, &edges);
            assert_eq!(
                diff,
                geo.diff_edges(&expect),
                "step {step}: edge-list diff diverged from adjacency diff"
            );
            for &(a, b, present) in &diff {
                geo.set_edge(a, b, present);
            }
            assert_eq!(geo, expect, "step {step}: patched geometry drifted");
        }
    }

    /// The grid path and the brute-force scan must agree **exactly at the
    /// range boundary**: `in_range` is a strict `<` on the float distance,
    /// and the grid path applies the identical predicate (never a squared-
    /// distance shortcut), so a pair at exactly `max_range` is out of
    /// range in both paths and a pair one ULP below is in range in both.
    #[test]
    fn at_boundary_distances_agree_between_grid_and_brute() {
        let pl = pl();
        let r = pl.max_range;
        let just_under = f64::from_bits(r.to_bits() - 1); // nextafter(r, 0)
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(r, 0.0),          // exactly at range: no edge
            Point::new(0.0, just_under), // one ULP inside: edge
            Point::new(r + 1e-9, -r),    // just beyond: no edge to 0
        ];
        let grid = adjacency_from_positions(&pts, &pl);
        let brute = adjacency_from_positions_brute(&pts, &pl);
        assert_eq!(grid, brute, "grid and brute paths diverged at boundary");
        assert!(
            !grid.has_edge(NodeId(0), NodeId(1)),
            "d == max_range is out"
        );
        assert!(grid.has_edge(NodeId(0), NodeId(2)), "d < max_range is in");
        assert!(!grid.has_edge(NodeId(0), NodeId(3)));
    }

    /// Grid-backed adjacency is bit-identical to the all-pairs scan on
    /// assorted placements (the proptest below widens the sweep).
    #[test]
    fn grid_adjacency_matches_brute_on_catalog_shapes() {
        let pl = pl();
        for kind in [
            TopologyKind::Grid {
                cols: 10,
                rows: 10,
                spacing_m: 80.0,
            },
            TopologyKind::Clustered {
                clusters: 4,
                per_cluster: 8,
                spread_m: 25.0,
                cluster_spacing_m: 90.0,
            },
            TopologyKind::Random {
                n: 30,
                field_side_m: 330.0,
            },
            TopologyKind::Linear {
                n: 9,
                spacing_m: 55.0,
            },
        ] {
            let pts = place_nodes(&kind, &pl, 3);
            assert_eq!(
                adjacency_from_positions(&pts, &pl),
                adjacency_from_positions_brute(&pts, &pl),
                "grid vs brute diverged on {kind:?}"
            );
        }
    }

    /// A 1-column (or 1-row) grid must imply a field clamped to the
    /// actual placement extent — all nodes sit on the degenerate axis, so
    /// waypoint mobility may not roam a full spacing away from it.
    #[test]
    fn degenerate_grid_fields_clamp_to_placement_extent() {
        let col = TopologyKind::Grid {
            cols: 1,
            rows: 6,
            spacing_m: 80.0,
        };
        let f = field_for(&col);
        assert_eq!(f.width, 1.0, "1-column grid spans 0 m in x (+1 slack)");
        assert_eq!(f.height, 5.0 * 80.0 + 1.0);
        for p in place_nodes(&col, &pl(), 1) {
            assert!(f.contains(p), "placement outside implied field: {p:?}");
        }
        let row = TopologyKind::Grid {
            cols: 6,
            rows: 1,
            spacing_m: 80.0,
        };
        let f = field_for(&row);
        assert_eq!(f.height, 1.0, "1-row grid spans 0 m in y (+1 slack)");
        assert_eq!(f.width, 5.0 * 80.0 + 1.0);
    }

    /// Waypoint mobility over a degenerate grid's implied field stays on
    /// (within 1 m of) the placement axis for the whole run.
    #[test]
    fn waypoint_on_one_column_grid_stays_on_the_axis() {
        use jtp_phys::{MobilityModel, RandomWaypoint};
        use jtp_sim::SimTime;
        let kind = TopologyKind::Grid {
            cols: 1,
            rows: 5,
            spacing_m: 80.0,
        };
        let field = field_for(&kind);
        let pts = place_nodes(&kind, &pl(), 2);
        for (i, start) in pts.into_iter().enumerate() {
            let mut w = RandomWaypoint::new(field, start, 5.0, 47.0, 10.0, 9, i as u64);
            for t in 0..400 {
                let p = w.position_at(SimTime::from_secs_f64(t as f64));
                assert!(
                    (0.0..=1.0).contains(&p.x),
                    "node {i} roamed off the column at t={t}: {p:?}"
                );
                assert!(field.contains(p));
            }
        }
    }

    #[test]
    fn field_covers_linear_span() {
        let kind = TopologyKind::Linear {
            n: 8,
            spacing_m: 55.0,
        };
        let f = field_for(&kind);
        assert!(f.width >= 7.0 * 55.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Spatial-grid adjacency is bit-identical to the brute-force
        /// all-pairs scan for arbitrary placements and radio ranges —
        /// including clumped placements where many nodes share a cell and
        /// sparse ones where most cells are empty.
        #[test]
        fn spatial_grid_matches_brute_force(
            seed in any::<u64>(),
            n in 2usize..120,
            side in 20.0f64..900.0,
            max_range in 30.0f64..200.0,
        ) {
            let mut rng = jtp_sim::SimRng::derive(seed, "grid-vs-brute");
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.uniform(0.0, side), rng.uniform(0.0, side)))
                .collect();
            let pl = PathLoss {
                full_quality_range: max_range * 0.6,
                max_range,
                ..PathLoss::javelen_default()
            };
            let grid = adjacency_from_positions(&pts, &pl);
            let brute = adjacency_from_positions_brute(&pts, &pl);
            prop_assert_eq!(grid, brute, "grid vs brute diverged (n={}, range={})", n, max_range);
        }
    }
}
