//! The effective ground truth: geometric connectivity masked by the
//! substrate state, maintained **incrementally** per dynamics event.
//!
//! An edge `{i, j}` exists in the effective truth iff all of:
//!
//! 1. the radios are in range (the *geometric* adjacency, a pure function
//!    of node positions),
//! 2. both endpoints are powered (`node_up` — dynamics churn, area
//!    failures and battery death all clear it),
//! 3. the link is not blacked out (`LinkDown` dynamics),
//! 4. no active partition separates the endpoints.
//!
//! The historical `rebuild_truth` re-derived this from scratch — an
//! O(n²) pair scan with a distance computation per pair — on **every**
//! dynamics event and battery death, which is one of the two walls the
//! scenario engine hit past 16 nodes. [`MaskedTruth`] instead keeps the
//! geometric adjacency cached (it only changes on mobility ticks, which
//! genuinely move every node) and applies each mask change to exactly
//! the edges it can affect: a node failure touches its incident edges, a
//! link blackout touches one edge, a partition change touches the
//! geometric edges whose cut-crossing status changed. Every mutator
//! produces the identical adjacency a from-scratch rebuild would — the
//! skip-engine byte-equivalence suite and this module's tests pin that.

use jtp_routing::Adjacency;
use jtp_sim::NodeId;

/// Geometric connectivity plus substrate masks (see the module docs).
#[derive(Clone, Debug)]
pub struct MaskedTruth {
    /// Pure in-range connectivity of the current positions.
    geo: Adjacency,
    /// The masked, effective adjacency advertised to routing.
    truth: Adjacency,
    /// `node_up[i]` ⇔ node i is powered.
    node_up: Vec<bool>,
    /// Blacked-out undirected links as sorted `(lo, hi)` pairs. Only
    /// `LinkDown` dynamics add to it, so it holds a handful of links and
    /// is usually empty.
    blocked: Vec<(NodeId, NodeId)>,
    /// Active partition: side membership per node. At most one at a time.
    partition: Option<Vec<bool>>,
}

impl MaskedTruth {
    /// A fresh truth over `geo` with every node up, no blackouts and no
    /// partition: the effective truth *is* the geometry.
    pub fn new(geo: Adjacency) -> Self {
        let n = geo.len();
        MaskedTruth {
            truth: geo.clone(),
            geo,
            node_up: vec![true; n],
            blocked: Vec::new(),
            partition: None,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.node_up.len()
    }

    /// True when tracking zero nodes.
    pub fn is_empty(&self) -> bool {
        self.node_up.is_empty()
    }

    /// The effective (masked) adjacency — what routing gets flooded with.
    pub fn adjacency(&self) -> &Adjacency {
        &self.truth
    }

    /// The unmasked geometric adjacency.
    pub fn geometry(&self) -> &Adjacency {
        &self.geo
    }

    /// Is the node powered?
    pub fn is_up(&self, v: NodeId) -> bool {
        self.node_up[v.index()]
    }

    /// Is the undirected link `{a, b}` blacked out?
    pub fn link_blocked(&self, a: NodeId, b: NodeId) -> bool {
        self.blocked.binary_search(&(a.min(b), a.max(b))).is_ok()
    }

    /// Are `a` and `b` on the same side of the active partition (vacuously
    /// true without one)?
    pub fn same_side(&self, a: NodeId, b: NodeId) -> bool {
        self.partition
            .as_ref()
            .is_none_or(|side| side[a.index()] == side[b.index()])
    }

    /// Should the edge `{a, b}` exist under the current geometry + masks?
    fn edge_allowed(&self, a: NodeId, b: NodeId) -> bool {
        self.geo.has_edge(a, b)
            && self.node_up[a.index()]
            && self.node_up[b.index()]
            && !self.link_blocked(a, b)
            && self.same_side(a, b)
    }

    /// Power a node on or off, touching only its incident edges. A crash
    /// severs every incident truth edge; a heal restores exactly the
    /// geometric edges the other masks allow. No-op when already in the
    /// requested state.
    pub fn set_node_up(&mut self, v: NodeId, up: bool) {
        if self.node_up[v.index()] == up {
            return;
        }
        self.node_up[v.index()] = up;
        if up {
            for i in 0..self.geo.neighbors(v).len() {
                let u = self.geo.neighbors(v)[i];
                if self.edge_allowed(v, u) {
                    self.truth.set_edge(v, u, true);
                }
            }
        } else {
            while let Some(&u) = self.truth.neighbors(v).first() {
                self.truth.set_edge(v, u, false);
            }
        }
    }

    /// Black out (or lift the blackout on) one undirected link.
    pub fn set_link_blocked(&mut self, a: NodeId, b: NodeId, blocked: bool) {
        let key = (a.min(b), a.max(b));
        match (self.blocked.binary_search(&key), blocked) {
            (Ok(_), true) | (Err(_), false) => return,
            (Ok(k), false) => {
                self.blocked.remove(k);
            }
            (Err(k), true) => self.blocked.insert(k, key),
        }
        let want = self.edge_allowed(a, b);
        if self.truth.has_edge(a, b) != want {
            self.truth.set_edge(a, b, want);
        }
    }

    /// Install, replace or clear the partition, touching only the
    /// geometric edges whose cut-crossing status changed (O(edges), not
    /// O(n²)).
    pub fn set_partition(&mut self, side: Option<Vec<bool>>) {
        if let Some(s) = &side {
            assert_eq!(s.len(), self.len(), "one side flag per node");
        }
        let old = std::mem::replace(&mut self.partition, side);
        let cut =
            |p: &Option<Vec<bool>>, i: usize, j: usize| p.as_ref().is_some_and(|s| s[i] != s[j]);
        for i in 0..self.len() {
            let v = NodeId(i as u32);
            for k in 0..self.geo.neighbors(v).len() {
                let u = self.geo.neighbors(v)[k];
                if u.index() <= i {
                    continue;
                }
                if cut(&old, i, u.index()) == cut(&self.partition, i, u.index()) {
                    continue;
                }
                let want = self.edge_allowed(v, u);
                if self.truth.has_edge(v, u) != want {
                    self.truth.set_edge(v, u, want);
                }
            }
        }
    }

    /// Replace the geometric adjacency and re-derive the effective truth
    /// from scratch — the reference oracle
    /// [`MaskedTruth::apply_geometry_diff`] is pinned against.
    #[cfg(test)]
    pub fn set_geometry(&mut self, geo: Adjacency) {
        assert_eq!(geo.len(), self.len(), "geometry node count mismatch");
        self.geo = geo;
        self.truth = self.rebuilt();
    }

    /// Advance the geometric adjacency by its **edge diff**, in place:
    /// only the geometric edges that appeared or vanished are patched
    /// and re-masked, so a mobility tick costs O(changed edges) — no
    /// graph construction, no whole-truth rebuild. `diff` must be the
    /// exact old→new geometry diff (`old.diff_edges(&new)` or
    /// `topology::geometry_edge_diff` against an in-range edge list; the
    /// caller computes it anyway to feed the routing repair). The
    /// resulting truth is identical to a scratch `set_geometry` on
    /// the new geometry: edges untouched by the diff keep a mask status
    /// that cannot have changed, and every touched edge is re-derived
    /// through the same `edge_allowed` predicate the scratch rebuild
    /// applies.
    pub fn apply_geometry_diff(&mut self, diff: &[(NodeId, NodeId, bool)]) {
        for &(a, b, present) in diff {
            self.geo.set_edge(a, b, present);
            let want = present && self.edge_allowed(a, b);
            if self.truth.has_edge(a, b) != want {
                self.truth.set_edge(a, b, want);
            }
        }
    }

    /// The effective adjacency derived from scratch — the reference the
    /// incremental mutators must agree with (tests diff against this).
    pub fn rebuilt(&self) -> Adjacency {
        let n = self.len();
        let mut adj = Adjacency::new(n);
        for i in 0..n {
            let v = NodeId(i as u32);
            for &u in self.geo.neighbors(v) {
                if u.index() > i && self.edge_allowed(v, u) {
                    adj.set_edge(v, u, true);
                }
            }
        }
        adj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> MaskedTruth {
        MaskedTruth::new(Adjacency::linear(n))
    }

    #[test]
    fn node_down_severs_and_heal_restores() {
        let mut t = chain(5);
        t.set_node_up(NodeId(2), false);
        assert!(!t.adjacency().has_edge(NodeId(1), NodeId(2)));
        assert!(!t.adjacency().has_edge(NodeId(2), NodeId(3)));
        assert!(t.adjacency().has_edge(NodeId(0), NodeId(1)));
        assert_eq!(*t.adjacency(), t.rebuilt());
        t.set_node_up(NodeId(2), true);
        assert_eq!(*t.adjacency(), Adjacency::linear(5));
    }

    #[test]
    fn heal_respects_other_masks() {
        let mut t = chain(4);
        t.set_node_up(NodeId(1), false);
        t.set_link_blocked(NodeId(1), NodeId(2), true);
        t.set_node_up(NodeId(1), true);
        assert!(t.adjacency().has_edge(NodeId(0), NodeId(1)));
        assert!(
            !t.adjacency().has_edge(NodeId(1), NodeId(2)),
            "blackout must survive the heal"
        );
        assert_eq!(*t.adjacency(), t.rebuilt());
    }

    #[test]
    fn partition_cuts_only_crossing_edges() {
        let mut t = chain(6);
        t.set_partition(Some(vec![true, true, true, false, false, false]));
        assert!(!t.adjacency().has_edge(NodeId(2), NodeId(3)));
        assert!(t.adjacency().has_edge(NodeId(1), NodeId(2)));
        assert_eq!(*t.adjacency(), t.rebuilt());
        // Replace with a different cut in one call.
        t.set_partition(Some(vec![true, false, false, false, false, false]));
        assert!(t.adjacency().has_edge(NodeId(2), NodeId(3)));
        assert!(!t.adjacency().has_edge(NodeId(0), NodeId(1)));
        assert_eq!(*t.adjacency(), t.rebuilt());
        t.set_partition(None);
        assert_eq!(*t.adjacency(), Adjacency::linear(6));
    }

    #[test]
    fn geometry_swap_reapplies_masks() {
        let mut t = chain(4);
        t.set_node_up(NodeId(3), false);
        let mut richer = Adjacency::linear(4);
        richer.set_edge(NodeId(0), NodeId(3), true);
        t.set_geometry(richer);
        assert!(
            !t.adjacency().has_edge(NodeId(0), NodeId(3)),
            "down node stays down through a geometry change"
        );
        assert_eq!(*t.adjacency(), t.rebuilt());
    }

    /// The diffed geometry swap must agree edge-for-edge with the
    /// scratch `set_geometry` under random geometry churn layered over
    /// random masks.
    #[test]
    fn geometry_diff_matches_scratch_swap_under_churn() {
        use jtp_sim::SimRng;
        let n = 12;
        let mut rng = SimRng::derive(123, "geometry-diff-churn");
        let mut fast = MaskedTruth::new(Adjacency::linear(n));
        let mut scratch = MaskedTruth::new(Adjacency::linear(n));
        for step in 0..200 {
            // Random mask churn applied identically to both.
            match rng.below(6) {
                0 => {
                    let v = NodeId(rng.below(n) as u32);
                    let up = fast.is_up(v);
                    fast.set_node_up(v, !up);
                    scratch.set_node_up(v, !up);
                }
                1 => {
                    let a = rng.below(n);
                    let b = rng.below(n);
                    if a != b {
                        let (a, b) = (NodeId(a as u32), NodeId(b as u32));
                        let blocked = fast.link_blocked(a, b);
                        fast.set_link_blocked(a, b, !blocked);
                        scratch.set_link_blocked(a, b, !blocked);
                    }
                }
                2 => {
                    let side: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
                    fast.set_partition(Some(side.clone()));
                    scratch.set_partition(Some(side));
                }
                _ => {
                    // A "mobility tick": flip a few geometric edges.
                    let mut geo = fast.geometry().clone();
                    for _ in 0..1 + rng.below(4) {
                        let a = rng.below(n);
                        let b = rng.below(n);
                        if a != b {
                            let has = geo.has_edge(NodeId(a as u32), NodeId(b as u32));
                            geo.set_edge(NodeId(a as u32), NodeId(b as u32), !has);
                        }
                    }
                    let diff = fast.geometry().diff_edges(&geo);
                    fast.apply_geometry_diff(&diff);
                    assert_eq!(*fast.geometry(), geo, "patched geometry drifted");
                    scratch.set_geometry(geo);
                }
            }
            assert_eq!(
                *fast.adjacency(),
                *scratch.adjacency(),
                "step {step}: diffed truth diverged from scratch swap"
            );
            assert_eq!(*fast.adjacency(), fast.rebuilt(), "step {step}");
        }
    }

    /// Randomised mask churn: every incremental step must agree with the
    /// from-scratch reference rebuild.
    #[test]
    fn random_mask_churn_matches_scratch_rebuild() {
        use jtp_sim::SimRng;
        let n = 14;
        let mut geo = Adjacency::linear(n);
        geo.set_edge(NodeId(0), NodeId(9), true);
        geo.set_edge(NodeId(4), NodeId(13), true);
        geo.set_edge(NodeId(2), NodeId(7), true);
        let mut t = MaskedTruth::new(geo);
        let mut rng = SimRng::derive(99, "masked-truth-churn");
        for step in 0..300 {
            match rng.below(8) {
                0 | 1 => {
                    let v = NodeId(rng.below(n) as u32);
                    t.set_node_up(v, !t.is_up(v));
                }
                2 | 3 => {
                    let a = rng.below(n);
                    let b = rng.below(n);
                    if a != b {
                        let (a, b) = (NodeId(a as u32), NodeId(b as u32));
                        let blocked = t.link_blocked(a, b);
                        t.set_link_blocked(a, b, !blocked);
                    }
                }
                4 => {
                    let side: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
                    // A partition must be a proper subset to mean anything,
                    // but the mask machinery handles any side vector.
                    t.set_partition(Some(side));
                }
                5 => t.set_partition(None),
                _ => {
                    let a = rng.below(n);
                    let b = rng.below(n);
                    if a != b {
                        let mut geo = t.geometry().clone();
                        let has = geo.has_edge(NodeId(a as u32), NodeId(b as u32));
                        geo.set_edge(NodeId(a as u32), NodeId(b as u32), !has);
                        t.set_geometry(geo);
                    }
                }
            }
            assert_eq!(
                *t.adjacency(),
                t.rebuilt(),
                "step {step}: incremental truth diverged from scratch rebuild"
            );
        }
    }

    /// Diffed mobility truth must equal the scratch `set_geometry` rebuild
    /// across real random-waypoint trajectories — the exact per-tick shape
    /// the network's mobility handler executes — with masks (a downed node,
    /// a blocked link) layered on top.
    #[test]
    fn diffed_waypoint_truth_matches_scratch_rebuild() {
        use crate::config::TopologyKind;
        use crate::topology::{
            adjacency_from_positions, adjacency_from_positions_brute, edges_from_positions,
            field_for, geometry_edge_diff, place_nodes,
        };
        use jtp_phys::{MobilityModel, PathLoss, RandomWaypoint};
        use jtp_sim::SimTime;
        let kind = TopologyKind::Grid {
            cols: 6,
            rows: 6,
            spacing_m: 80.0,
        };
        let pl = PathLoss::javelen_default();
        let field = field_for(&kind);
        let start = place_nodes(&kind, &pl, 4);
        let mut walkers: Vec<RandomWaypoint> = start
            .iter()
            .enumerate()
            .map(|(i, &p)| RandomWaypoint::new(field, p, 2.5, 47.0, 5.0, 21, i as u64))
            .collect();
        let mut positions = start.clone();
        let mut fast = MaskedTruth::new(adjacency_from_positions(&positions, &pl));
        let mut scratch = fast.clone();
        // Masks that must survive every geometry swap identically.
        fast.set_node_up(NodeId(7), false);
        scratch.set_node_up(NodeId(7), false);
        fast.set_link_blocked(NodeId(0), NodeId(1), true);
        scratch.set_link_blocked(NodeId(0), NodeId(1), true);
        let mut total_changed = 0usize;
        for tick in 1..=300u64 {
            let now = SimTime::from_secs_f64(tick as f64);
            for (i, w) in walkers.iter_mut().enumerate() {
                positions[i] = w.position_at(now);
            }
            // The exact per-tick shape the network's mobility handler runs:
            // sorted in-range edge list → merge-diff → in-place patch.
            let edges = edges_from_positions(&positions, &pl);
            let diff = geometry_edge_diff(fast.geometry(), &edges);
            total_changed += diff.len();
            fast.apply_geometry_diff(&diff);
            scratch.set_geometry(adjacency_from_positions_brute(&positions, &pl));
            assert_eq!(
                fast.geometry(),
                scratch.geometry(),
                "tick {tick}: patched geometry diverged from the brute scan"
            );
            assert_eq!(
                fast.adjacency(),
                scratch.adjacency(),
                "tick {tick}: diffed truth diverged from scratch rebuild"
            );
            assert_eq!(*fast.adjacency(), fast.rebuilt(), "tick {tick}");
        }
        assert!(
            total_changed > 0,
            "waypoint run never flipped a link — the test exercised nothing"
        );
    }
}
