//! Undirected connectivity graphs and shortest-path distances.
//!
//! `Adjacency` maintains both an O(1) edge matrix and per-node sorted
//! neighbour lists, so the hot next-hop path iterates a slice instead of
//! allocating, and BFS runs over compact lists.

use jtp_sim::NodeId;

/// Symmetric adjacency over `n` nodes.
#[derive(Clone, Eq, Debug)]
pub struct Adjacency {
    n: usize,
    edges: Vec<bool>, // row-major n×n
    /// Neighbours of each node in ascending id order (kept in sync with
    /// `edges`; derived state, excluded from equality).
    neighbors: Vec<Vec<NodeId>>,
}

impl PartialEq for Adjacency {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.edges == other.edges
    }
}

/// Distance marker for unreachable pairs.
pub const UNREACHABLE: u16 = u16::MAX;

impl Adjacency {
    /// An edgeless graph of `n` nodes.
    pub fn new(n: usize) -> Self {
        Adjacency {
            n,
            edges: vec![false; n * n],
            neighbors: vec![Vec::new(); n],
        }
    }

    /// A linear chain 0—1—…—(n−1), the paper's linear topologies.
    pub fn linear(n: usize) -> Self {
        let mut a = Adjacency::new(n);
        for i in 1..n {
            a.set_edge(NodeId(i as u32 - 1), NodeId(i as u32), true);
        }
        a
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the empty graph.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    fn idx(&self, a: NodeId, b: NodeId) -> usize {
        a.index() * self.n + b.index()
    }

    fn neighbor_list_set(&mut self, a: NodeId, b: NodeId, present: bool) {
        let list = &mut self.neighbors[a.index()];
        match list.binary_search(&b) {
            Ok(pos) if !present => {
                list.remove(pos);
            }
            Err(pos) if present => list.insert(pos, b),
            _ => {}
        }
    }

    /// Add or remove the undirected edge `{a, b}`.
    pub fn set_edge(&mut self, a: NodeId, b: NodeId, present: bool) {
        assert!(a.index() < self.n && b.index() < self.n);
        assert_ne!(a, b, "self loops are meaningless");
        let (i, j) = (self.idx(a, b), self.idx(b, a));
        self.edges[i] = present;
        self.edges[j] = present;
        self.neighbor_list_set(a, b, present);
        self.neighbor_list_set(b, a, present);
    }

    /// Edge presence.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.edges[self.idx(a, b)]
    }

    /// Neighbours of `a` in ascending id order.
    pub fn neighbors(&self, a: NodeId) -> &[NodeId] {
        &self.neighbors[a.index()]
    }

    /// The graph relabelled by `perm`: node `i` of `self` becomes node
    /// `perm[i]` of the result. `perm` must be a permutation of
    /// `0..len()`. The metamorphic oracle for routing: shortest-path
    /// *distances* are label-independent, so
    /// `self.permuted(p).bfs_distances(p[s])[p[d]] ==
    /// self.bfs_distances(s)[d]` for every pair — while next-hop
    /// *choices* may legitimately differ (ties break on node id).
    pub fn permuted(&self, perm: &[NodeId]) -> Adjacency {
        assert_eq!(perm.len(), self.n, "permutation length mismatch");
        let mut seen = vec![false; self.n];
        for p in perm {
            assert!(
                p.index() < self.n && !seen[p.index()],
                "not a permutation of 0..n"
            );
            seen[p.index()] = true;
        }
        let mut out = Adjacency::new(self.n);
        for i in 0..self.n {
            let a = NodeId(i as u32);
            for &b in self.neighbors(a) {
                if b > a {
                    out.set_edge(perm[a.index()], perm[b.index()], true);
                }
            }
        }
        out
    }

    /// Edges present in exactly one of `self` (old) and `newer`, as
    /// `(a, b, present_in_newer)` with `a < b`, ordered by `(a, b)`.
    ///
    /// Computed by merging the two sorted neighbour lists per node —
    /// O(n + E_old + E_new), not the O(n²) pair scan — so diffing two
    /// mobility-tick geometries costs what actually changed, not the
    /// whole matrix. Output is ordered by ascending `a`, then ascending
    /// `b`, like an all-pairs scan.
    pub fn diff_edges(&self, newer: &Adjacency) -> Vec<(NodeId, NodeId, bool)> {
        assert_eq!(self.n, newer.n, "diff over different node counts");
        let mut out = Vec::new();
        for i in 0..self.n {
            let a = NodeId(i as u32);
            let old_l = self.neighbors(a);
            let new_l = newer.neighbors(a);
            // Skip neighbours b <= a (each undirected edge reported once).
            let mut o = old_l.partition_point(|&b| b <= a);
            let mut w = new_l.partition_point(|&b| b <= a);
            while o < old_l.len() || w < new_l.len() {
                match (old_l.get(o), new_l.get(w)) {
                    (Some(&bo), Some(&bn)) if bo == bn => {
                        o += 1;
                        w += 1;
                    }
                    (Some(&bo), Some(&bn)) if bo < bn => {
                        out.push((a, bo, false));
                        o += 1;
                    }
                    (Some(_), Some(&bn)) => {
                        out.push((a, bn, true));
                        w += 1;
                    }
                    (Some(&bo), None) => {
                        out.push((a, bo, false));
                        o += 1;
                    }
                    (None, Some(&bn)) => {
                        out.push((a, bn, true));
                        w += 1;
                    }
                    (None, None) => unreachable!("loop condition"),
                }
            }
        }
        out
    }

    /// BFS hop distances from `src` to every node (`UNREACHABLE` when
    /// disconnected).
    pub fn bfs_distances(&self, src: NodeId) -> Vec<u16> {
        let mut dist = vec![UNREACHABLE; self.n];
        self.bfs_distances_into(src, &mut dist);
        dist
    }

    /// BFS into a caller-provided row (avoids re-allocating per source).
    pub fn bfs_distances_into(&self, src: NodeId, dist: &mut Vec<u16>) {
        dist.clear();
        dist.resize(self.n, UNREACHABLE);
        let mut queue = std::collections::VecDeque::new();
        dist[src.index()] = 0;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()];
            for &v in self.neighbors(u) {
                if dist[v.index()] == UNREACHABLE {
                    dist[v.index()] = du + 1;
                    queue.push_back(v);
                }
            }
        }
    }

    /// All-pairs hop distances (row = source).
    pub fn all_pairs_distances(&self) -> Vec<Vec<u16>> {
        (0..self.n as u32)
            .map(|i| self.bfs_distances(NodeId(i)))
            .collect()
    }

    /// True when every node can reach every other.
    pub fn is_connected(&self) -> bool {
        if self.n == 0 {
            return true;
        }
        self.bfs_distances(NodeId(0))
            .iter()
            .all(|&d| d != UNREACHABLE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permuted_graph_preserves_distances_under_relabelling() {
        // A small asymmetric graph: chain 0—1—2—3 plus chord 0—2.
        let mut g = Adjacency::linear(4);
        g.set_edge(NodeId(0), NodeId(2), true);
        // Reverse relabelling: i -> 3 - i.
        let perm: Vec<NodeId> = (0..4).rev().map(NodeId).collect();
        let h = g.permuted(&perm);
        assert_eq!(h.len(), 4);
        for a in 0..4u32 {
            let da = g.bfs_distances(NodeId(a));
            let dp = h.bfs_distances(perm[a as usize]);
            for b in 0..4u32 {
                assert_eq!(
                    da[b as usize],
                    dp[perm[b as usize].index()],
                    "distance {a}->{b} changed under relabelling"
                );
            }
        }
        // The identity permutation is a no-op.
        let id: Vec<NodeId> = (0..4).map(NodeId).collect();
        assert_eq!(g.permuted(&id), g);
    }

    #[test]
    fn linear_chain_structure() {
        let a = Adjacency::linear(5);
        assert!(a.has_edge(NodeId(0), NodeId(1)));
        assert!(a.has_edge(NodeId(3), NodeId(4)));
        assert!(!a.has_edge(NodeId(0), NodeId(2)));
        assert_eq!(a.neighbors(NodeId(2)), vec![NodeId(1), NodeId(3)]);
        assert!(a.is_connected());
    }

    #[test]
    fn edges_are_symmetric() {
        let mut a = Adjacency::new(3);
        a.set_edge(NodeId(0), NodeId(2), true);
        assert!(a.has_edge(NodeId(2), NodeId(0)));
        a.set_edge(NodeId(2), NodeId(0), false);
        assert!(!a.has_edge(NodeId(0), NodeId(2)));
    }

    #[test]
    fn neighbor_lists_stay_sorted_and_deduplicated() {
        let mut a = Adjacency::new(5);
        a.set_edge(NodeId(2), NodeId(4), true);
        a.set_edge(NodeId(2), NodeId(0), true);
        a.set_edge(NodeId(2), NodeId(3), true);
        a.set_edge(NodeId(2), NodeId(3), true); // repeat: no duplicate
        assert_eq!(
            a.neighbors(NodeId(2)),
            vec![NodeId(0), NodeId(3), NodeId(4)]
        );
        a.set_edge(NodeId(2), NodeId(3), false);
        assert_eq!(a.neighbors(NodeId(2)), vec![NodeId(0), NodeId(4)]);
    }

    #[test]
    fn diff_edges_reports_changes() {
        let old = Adjacency::linear(4);
        let mut new = Adjacency::linear(4);
        new.set_edge(NodeId(0), NodeId(3), true); // added
        new.set_edge(NodeId(1), NodeId(2), false); // removed
        let mut diff = old.diff_edges(&new);
        diff.sort();
        assert_eq!(
            diff,
            vec![(NodeId(0), NodeId(3), true), (NodeId(1), NodeId(2), false)]
        );
        assert!(new.diff_edges(&new).is_empty());
    }

    impl Adjacency {
        /// The reference all-pairs diff: an O(n²) `has_edge` scan over
        /// every pair, in ascending `(a, b)` order.
        fn diff_edges_scan(&self, newer: &Adjacency) -> Vec<(NodeId, NodeId, bool)> {
            assert_eq!(self.n, newer.n, "diff over different node counts");
            let mut out = Vec::new();
            for i in 0..self.n as u32 {
                for j in (i + 1)..self.n as u32 {
                    let (a, b) = (NodeId(i), NodeId(j));
                    let now = newer.has_edge(a, b);
                    if self.has_edge(a, b) != now {
                        out.push((a, b, now));
                    }
                }
            }
            out
        }
    }

    /// The merge-based diff must reproduce the pair scan — same set, same
    /// `(a, b)` order — on random edge flips.
    #[test]
    fn diff_edges_matches_pair_scan_oracle() {
        use jtp_sim::SimRng;
        let mut rng = SimRng::derive(11, "diff-edges-oracle");
        let n = 17;
        let mut old = Adjacency::linear(n);
        for step in 0..50 {
            let mut new = old.clone();
            for _ in 0..rng.below(6) {
                let a = rng.below(n);
                let b = rng.below(n);
                if a != b {
                    let has = new.has_edge(NodeId(a as u32), NodeId(b as u32));
                    new.set_edge(NodeId(a as u32), NodeId(b as u32), !has);
                }
            }
            assert_eq!(
                old.diff_edges(&new),
                old.diff_edges_scan(&new),
                "step {step}"
            );
            old = new;
        }
    }

    #[test]
    fn bfs_distances_on_chain() {
        let a = Adjacency::linear(6);
        let d = a.bfs_distances(NodeId(0));
        assert_eq!(d, vec![0, 1, 2, 3, 4, 5]);
        let d2 = a.bfs_distances(NodeId(3));
        assert_eq!(d2, vec![3, 2, 1, 0, 1, 2]);
    }

    #[test]
    fn disconnected_components() {
        let mut a = Adjacency::new(4);
        a.set_edge(NodeId(0), NodeId(1), true);
        a.set_edge(NodeId(2), NodeId(3), true);
        assert!(!a.is_connected());
        let d = a.bfs_distances(NodeId(0));
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHABLE);
    }

    #[test]
    fn all_pairs_matches_single_source() {
        let a = Adjacency::linear(5);
        let apsp = a.all_pairs_distances();
        for i in 0..5u32 {
            assert_eq!(apsp[i as usize], a.bfs_distances(NodeId(i)));
        }
    }

    #[test]
    #[should_panic(expected = "self loops")]
    fn rejects_self_loop() {
        let mut a = Adjacency::new(2);
        a.set_edge(NodeId(1), NodeId(1), true);
    }
}
