//! Hierarchical cluster routing: the O(k·n) backend that breaks the
//! O(n²) state wall.
//!
//! The exact backend keeps an all-pairs distance table plus a flat
//! next-hop table — n² entries each, and a flood churns O(n) rows. At
//! n = 1000 that is 10⁶ entries per table, the last asymptotic ceiling
//! in the engine. This backend replaces the flat tables with two much
//! smaller structures over a partition of the nodes into **connected
//! clusters**:
//!
//! * per cluster `C`, a **multi-source BFS row** `d_C[v]` — the exact
//!   hop distance from `v` to the nearest member of `C` over the full
//!   graph — plus a derived **toward-row** `toward_C[v]`: the neighbour
//!   of `v` minimising `(d_C, id)`. k rows of n entries each
//!   (k ≈ √n clusters ⇒ O(n^1.5) state instead of O(n²));
//! * per cluster, an **exact intra-cluster table** (distances + next
//!   hops over the cluster's induced subgraph, Σ|C|² entries) and each
//!   member's subgraph eccentricity.
//!
//! Forwarding to a destination in cluster `C` walks `toward_C` while
//! outside `C` and switches to the intra table on entry. `d_C` strictly
//! decreases on every inter-cluster hop and the intra distance strictly
//! decreases inside, so (on a consistent snapshot) routes are provably
//! **loop-free** and **deliver** whenever the exact backend has a route;
//! the detour is bounded: `len ≤ d_exact(s, d) + diam(subgraph(C))`,
//! because the walk reaches *some* member of `C` in `d_C(s) ≤ d_exact(s,
//! d)` hops and then pays at most the cluster diameter. (The netsim
//! equivalence suite asserts this bound and records the measured
//! stretch.) For geodesically convex clusters — grid blocks — subgraph
//! distances equal graph distances, so intra-cluster routes are exactly
//! as long as the exact backend's.
//!
//! **Repair is scoped to what a flood touches**: changed edges screen
//! the k cluster rows by the same exact criteria the flat table uses
//! (`linkstate::row_affected`), flagged rows are repaired in
//! place by the multi-source generalisation of the affected-region
//! passes in `bfs_repair`, toward-rows are entry-patched at the
//! touched nodes, and only clusters containing a changed edge recompute
//! their (small) intra tables. A cluster whose subgraph disconnects —
//! e.g. its interior node died — **splits into connected components**
//! (deterministically, ordered by smallest member; clusters never
//! merge), so the intra-table invariant "members are mutually reachable
//! inside the cluster" always holds and delivery is preserved under
//! arbitrary churn. In the worst case repeated churn degrades the
//! partition toward singletons — which is still lawful (singleton
//! routing *is* exact routing), just larger state.
//!
//! Energy-weighted routing is **not** supported here: weights would need
//! weighted cluster summaries with different lawfulness arguments.
//! netsim rejects `routing_backend = hierarchical` + `energy_routing` at
//! config validation, so [`crate::RoutingBackend::set_node_weights`]
//! with `Some` weights panics.

use crate::bfs_repair::{repair_bfs_row, BfsRepairScratch};
use crate::graph::{Adjacency, UNREACHABLE};
use crate::linkstate::{row_affected, RoutingStats};
use jtp_sim::{NodeId, SimDuration, SimTime};
use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;

/// How the node set is partitioned into clusters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClusterSpec {
    /// Grow connected clusters of about `target` nodes by deterministic
    /// BFS from the smallest unassigned id (`target = 0` means ⌈√n⌉).
    /// Works on any graph; clusters are connected by construction.
    Auto {
        /// Desired cluster size; 0 selects ⌈√n⌉.
        target: usize,
    },
    /// Explicit per-node cluster labels (e.g. grid blocks or the
    /// generator's placement clusters). Labels need not be contiguous;
    /// a label whose induced subgraph is disconnected is split into
    /// components at construction.
    Assignment(Vec<u32>),
}

/// Hierarchy-specific diagnostics (the shared [`RoutingStats`] carries
/// the flood-plane counters; see the field docs for the mapping).
#[derive(Clone, Copy, Debug, Default)]
pub struct HierarchyStats {
    /// Current cluster count k.
    pub clusters: u64,
    /// Size of the largest current cluster.
    pub max_cluster: u64,
    /// Extra clusters created by disconnection splits.
    pub splits: u64,
    /// Intra-cluster table recomputations (each O(|C|²)).
    pub intra_rebuilds: u64,
}

/// One cluster's exact tables over its induced subgraph. Members are
/// mutually reachable inside the subgraph (the split invariant), so
/// every distance and eccentricity is finite.
#[derive(Clone, Debug)]
struct ClusterTables {
    /// Member node ids, ascending.
    members: Vec<NodeId>,
    /// `|C| × |C|` subgraph hop distances, row-major by local index.
    dist: Vec<u16>,
    /// `|C| × |C|` subgraph next hops (global neighbour id + 1, 0 on
    /// the diagonal), same `(distance, id)` tie-break as the exact
    /// backend's table build.
    hop: Vec<u32>,
    /// Each member's eccentricity within the subgraph (the intra half
    /// of the conservative remaining-hops estimate).
    ecc: Vec<u16>,
}

/// One immutable routing snapshot, shared by fresh views through an
/// `Rc` exactly like the exact backend's table shares.
#[derive(Clone, Debug)]
struct Snapshot {
    /// Cluster id per node.
    cluster_of: Vec<u32>,
    /// Index of each node within its cluster's `members`.
    local_idx: Vec<u32>,
    clusters: Vec<Rc<ClusterTables>>,
    /// `dc[c][v]`: exact hop distance from `v` to the nearest member of
    /// cluster `c` (multi-source BFS row over the full graph).
    dc: Vec<Rc<Vec<u16>>>,
    /// `toward[c][v]`: neighbour of `v` minimising `(dc[c], id)`,
    /// encoded id + 1; 0 for members (intra table takes over) and for
    /// nodes with no route to `c`.
    toward: Vec<Rc<Vec<u32>>>,
}

/// A node's possibly stale view: which snapshot it last heard flooded.
#[derive(Clone, Debug)]
struct HView {
    snap: Rc<Snapshot>,
    refreshed_at: SimTime,
}

/// Exact hop distances from the nearest of `sources` (a BFS from the
/// contracted super-source).
fn multi_source_bfs(adj: &Adjacency, sources: &[NodeId]) -> Vec<u16> {
    let mut row = vec![UNREACHABLE; adj.len()];
    let mut queue = VecDeque::with_capacity(sources.len());
    for &s in sources {
        row[s.index()] = 0;
        queue.push_back(s);
    }
    while let Some(x) = queue.pop_front() {
        let d = row[x.index()];
        for &y in adj.neighbors(x) {
            if row[y.index()] == UNREACHABLE {
                row[y.index()] = d + 1;
                queue.push_back(y);
            }
        }
    }
    row
}

/// One toward-row entry: the neighbour of `u` minimising `(dc, id)`
/// (ascending neighbour lists + strict `<` reproduce the exact
/// backend's tie-break), encoded id + 1; 0 for cluster members and
/// unreachable nodes.
fn derive_toward_entry(adj: &Adjacency, dc: &[u16], u: usize) -> u32 {
    if dc[u] == 0 || dc[u] == UNREACHABLE {
        return 0;
    }
    let mut best = UNREACHABLE;
    let mut enc = 0u32;
    for &v in adj.neighbors(NodeId(u as u32)) {
        let d = dc[v.index()];
        if d < best {
            best = d;
            enc = v.0 + 1;
        }
    }
    enc
}

/// A full toward-row for one cluster row `dc`.
fn build_toward_row(adj: &Adjacency, dc: &[u16]) -> Vec<u32> {
    (0..adj.len())
        .map(|u| derive_toward_entry(adj, dc, u))
        .collect()
}

/// Exact tables over the induced subgraph of `members` (sorted
/// ascending). The caller guarantees the subgraph is connected.
fn subgraph_tables(adj: &Adjacency, members: Vec<NodeId>, local_idx: &[u32]) -> ClusterTables {
    let c = members.len();
    let mut dist = vec![UNREACHABLE; c * c];
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    for li in 0..c {
        let row = &mut dist[li * c..(li + 1) * c];
        row[li] = 0;
        queue.push_back(members[li]);
        while let Some(x) = queue.pop_front() {
            let dx = row[local_idx[x.index()] as usize];
            for &y in adj.neighbors(x) {
                let ly = local_idx[y.index()];
                // `local_idx` is only valid for members of *this*
                // cluster here because the walk never leaves the
                // subgraph: non-members are filtered before lookup.
                if ly != u32::MAX
                    && members.binary_search(&y).is_ok()
                    && row[ly as usize] == UNREACHABLE
                {
                    row[ly as usize] = dx + 1;
                    queue.push_back(y);
                }
            }
        }
    }
    let mut hop = vec![0u32; c * c];
    let mut best = vec![UNREACHABLE; c];
    for li in 0..c {
        best.fill(UNREACHABLE);
        for &v in adj.neighbors(members[li]) {
            if members.binary_search(&v).is_err() {
                continue;
            }
            let lv = local_idx[v.index()] as usize;
            for lj in 0..c {
                if lj == li {
                    continue;
                }
                let d = dist[lv * c + lj];
                if d < best[lj] {
                    best[lj] = d;
                    hop[li * c + lj] = v.0 + 1;
                }
            }
        }
    }
    let ecc = (0..c)
        .map(|li| {
            dist[li * c..(li + 1) * c]
                .iter()
                .copied()
                .filter(|&d| d != UNREACHABLE)
                .max()
                .unwrap_or(0)
        })
        .collect();
    ClusterTables {
        members,
        dist,
        hop,
        ecc,
    }
}

/// Connected components of the induced subgraph of `members` (sorted
/// ascending), ordered by smallest member — the deterministic split
/// order.
fn components_within(adj: &Adjacency, members: &[NodeId]) -> Vec<Vec<NodeId>> {
    let mut in_set = vec![false; adj.len()];
    for &m in members {
        in_set[m.index()] = true;
    }
    let mut seen = vec![false; adj.len()];
    let mut comps = Vec::new();
    let mut queue = VecDeque::new();
    for &m in members {
        if seen[m.index()] {
            continue;
        }
        seen[m.index()] = true;
        queue.push_back(m);
        let mut comp = Vec::new();
        while let Some(x) = queue.pop_front() {
            comp.push(x);
            for &y in adj.neighbors(x) {
                if in_set[y.index()] && !seen[y.index()] {
                    seen[y.index()] = true;
                    queue.push_back(y);
                }
            }
        }
        comp.sort_unstable();
        comps.push(comp);
    }
    comps
}

/// The initial partition for `spec`: connected member lists, each
/// sorted ascending, the list of clusters ordered by smallest member.
fn initial_clusters(adj: &Adjacency, spec: &ClusterSpec) -> Vec<Vec<NodeId>> {
    let n = adj.len();
    let mut out = match spec {
        ClusterSpec::Auto { target } => {
            let target = if *target == 0 {
                (n as f64).sqrt().ceil() as usize
            } else {
                *target
            }
            .max(1);
            let mut assigned = vec![false; n];
            let mut groups = Vec::new();
            let mut queue = VecDeque::new();
            for seed in 0..n {
                if assigned[seed] {
                    continue;
                }
                assigned[seed] = true;
                queue.push_back(NodeId(seed as u32));
                let mut group = Vec::new();
                while let Some(x) = queue.pop_front() {
                    group.push(x);
                    if group.len() == target {
                        break;
                    }
                    for &y in adj.neighbors(x) {
                        if !assigned[y.index()] {
                            assigned[y.index()] = true;
                            queue.push_back(y);
                        }
                    }
                }
                // Nodes still queued when the size cap hit go back to
                // the pool for a later seed.
                for leftover in queue.drain(..) {
                    assigned[leftover.index()] = false;
                }
                group.sort_unstable();
                groups.push(group);
            }
            groups
        }
        ClusterSpec::Assignment(labels) => {
            assert_eq!(labels.len(), n, "one cluster label per node");
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&v| (labels[v], v));
            let mut groups: Vec<Vec<NodeId>> = Vec::new();
            for v in order {
                match groups.last_mut() {
                    Some(g) if labels[g[0].index()] == labels[v] => g.push(NodeId(v as u32)),
                    _ => groups.push(vec![NodeId(v as u32)]),
                }
            }
            // Labelled groups may be disconnected: split them up front
            // so the intra-table invariant holds from t = 0.
            groups
                .into_iter()
                .flat_map(|g| components_within(adj, &g))
                .collect()
        }
    };
    out.sort_by_key(|g| g[0]);
    out
}

/// Hierarchical cluster routing backend — see the module docs for the
/// scheme and its lawfulness argument.
#[derive(Clone, Debug)]
pub struct HierarchicalBackend {
    views: Vec<HView>,
    refresh_interval: SimDuration,
    snap: Rc<Snapshot>,
    /// The adjacency the current snapshot reflects, patched forward by
    /// the edge diff on every change (mirrors the exact backend).
    cache_adj: Adjacency,
    stats: RoutingStats,
    hier: HierarchyStats,
    no_route: Cell<u64>,
}

impl HierarchicalBackend {
    /// Build over `initial` with every view converged at t = 0, exactly
    /// like the exact backend's warm boot.
    pub fn new(initial: &Adjacency, refresh_interval: SimDuration, spec: &ClusterSpec) -> Self {
        let n = initial.len();
        let member_lists = initial_clusters(initial, spec);
        let mut stats = RoutingStats::default();
        let mut hier = HierarchyStats::default();
        let snap = Rc::new(Self::build_snapshot(
            initial,
            member_lists,
            &mut stats,
            &mut hier,
        ));
        let views = (0..n)
            .map(|_| HView {
                snap: Rc::clone(&snap),
                refreshed_at: SimTime::ZERO,
            })
            .collect();
        HierarchicalBackend {
            views,
            refresh_interval,
            snap,
            cache_adj: initial.clone(),
            stats,
            hier,
            no_route: Cell::new(0),
        }
    }

    /// Full snapshot build from member lists: one multi-source row, one
    /// toward-row and one intra table per cluster.
    fn build_snapshot(
        adj: &Adjacency,
        member_lists: Vec<Vec<NodeId>>,
        stats: &mut RoutingStats,
        hier: &mut HierarchyStats,
    ) -> Snapshot {
        let n = adj.len();
        let k = member_lists.len();
        let mut cluster_of = vec![u32::MAX; n];
        let mut local_idx = vec![u32::MAX; n];
        for (c, members) in member_lists.iter().enumerate() {
            for (li, &m) in members.iter().enumerate() {
                cluster_of[m.index()] = c as u32;
                local_idx[m.index()] = li as u32;
            }
        }
        let dc: Vec<Rc<Vec<u16>>> = member_lists
            .iter()
            .map(|m| Rc::new(multi_source_bfs(adj, m)))
            .collect();
        stats.bfs_run += k as u64;
        let toward = dc
            .iter()
            .map(|row| Rc::new(build_toward_row(adj, row)))
            .collect();
        stats.hop_full_builds += k as u64;
        let clusters: Vec<Rc<ClusterTables>> = member_lists
            .into_iter()
            .map(|members| Rc::new(subgraph_tables(adj, members, &local_idx)))
            .collect();
        hier.intra_rebuilds += k as u64;
        hier.clusters = k as u64;
        hier.max_cluster = clusters
            .iter()
            .map(|c| c.members.len() as u64)
            .max()
            .unwrap_or(0);
        Snapshot {
            cluster_of,
            local_idx,
            clusters,
            dc,
            toward,
        }
    }

    /// Bring the shared snapshot up to date with `ground_truth`:
    /// screen + repair the k cluster rows, entry-patch the toward rows,
    /// recompute intra tables only for clusters a changed edge lands
    /// in, and split clusters whose subgraph disconnected.
    fn ensure_cache(&mut self, ground_truth: &Adjacency) {
        if self.cache_adj == *ground_truth {
            return;
        }
        let n = ground_truth.len();
        let changed = self.cache_adj.diff_edges(ground_truth);
        let removed: Vec<(usize, usize)> = changed
            .iter()
            .filter(|&&(_, _, present)| !present)
            .map(|&(a, b, _)| (a.index(), b.index()))
            .collect();
        let added: Vec<(usize, usize)> = changed
            .iter()
            .filter(|&&(_, _, present)| present)
            .map(|&(a, b, _)| (a.index(), b.index()))
            .collect();
        let mut adj_touched = vec![false; n];
        for &(u, v, _) in &changed {
            adj_touched[u.index()] = true;
            adj_touched[v.index()] = true;
        }
        let mut snap = (*self.snap).clone();
        let old_adj = &self.cache_adj;

        // ---- 1. Screen + repair the k cluster distance rows (the same
        // exact criteria and affected-region passes as the flat table,
        // on k rows instead of n).
        let mut dc_changed = vec![false; snap.clusters.len()];
        let mut scratch = BfsRepairScratch::new(n);
        for (c, row_changed) in dc_changed.iter_mut().enumerate() {
            let row = &snap.dc[c];
            if !row_affected(row, &changed, old_adj, ground_truth) {
                self.stats.bfs_skipped += 1;
                continue;
            }
            self.stats.bfs_repaired += 1;
            let mut r = (**row).clone();
            repair_bfs_row(
                old_adj,
                ground_truth,
                &removed,
                &added,
                &mut r,
                &mut scratch,
            );
            let mut moved = 0u64;
            scratch.drain_dirty(|v| {
                if r[v] != row[v] {
                    moved += 1;
                }
            });
            if moved > 0 {
                self.stats.dist_entries_changed += moved;
                snap.dc[c] = Rc::new(r);
                *row_changed = true;
            }
        }

        // ---- 2. Intra tables for clusters containing a changed edge;
        // split any cluster whose subgraph disconnected.
        let k_before = snap.clusters.len();
        let mut intra_dirty = vec![false; k_before];
        for &(u, v, _) in &changed {
            let (cu, cv) = (snap.cluster_of[u.index()], snap.cluster_of[v.index()]);
            if cu == cv {
                intra_dirty[cu as usize] = true;
            }
        }
        for (c, &dirty) in intra_dirty.iter().enumerate() {
            if !dirty {
                continue;
            }
            let comps = components_within(ground_truth, &snap.clusters[c].members);
            if comps.len() == 1 {
                // Still connected: only the (small) intra tables need
                // recomputing; the repaired distance row stays valid.
                let comp = comps.into_iter().next().expect("one component");
                snap.clusters[c] = Rc::new(subgraph_tables(ground_truth, comp, &snap.local_idx));
                self.hier.intra_rebuilds += 1;
                continue;
            }
            self.hier.splits += comps.len() as u64 - 1;
            for (i, comp) in comps.into_iter().enumerate() {
                // The component with the smallest member keeps the
                // cluster id; the rest are appended (ids stay stable for
                // every untouched cluster, and clusters never merge).
                // Every component's source set differs from the old
                // member set, so each gets a fresh multi-source row —
                // a repair of the old row has the wrong sources.
                let id = if i == 0 {
                    c
                } else {
                    snap.clusters.push(Rc::clone(&snap.clusters[c]));
                    snap.dc.push(Rc::clone(&snap.dc[c]));
                    snap.toward.push(Rc::clone(&snap.toward[c]));
                    dc_changed.push(true);
                    snap.clusters.len() - 1
                };
                for (li, &m) in comp.iter().enumerate() {
                    snap.cluster_of[m.index()] = id as u32;
                    snap.local_idx[m.index()] = li as u32;
                }
                snap.dc[id] = Rc::new(multi_source_bfs(ground_truth, &comp));
                self.stats.bfs_run += 1;
                dc_changed[id] = true;
                snap.clusters[id] = Rc::new(subgraph_tables(ground_truth, comp, &snap.local_idx));
                self.hier.intra_rebuilds += 1;
            }
        }

        // ---- 3. Toward rows: full rebuild where the distance row
        // changed, entry patches at adjacency-touched nodes elsewhere.
        for (c, &row_changed) in dc_changed.iter().enumerate() {
            if row_changed {
                snap.toward[c] = Rc::new(build_toward_row(ground_truth, &snap.dc[c]));
                self.stats.hop_full_builds += 1;
                continue;
            }
            let mut patched: Vec<(usize, u32)> = Vec::new();
            for &(u, v, _) in &changed {
                for x in [u.index(), v.index()] {
                    let enc = derive_toward_entry(ground_truth, &snap.dc[c], x);
                    if enc != snap.toward[c][x] {
                        patched.push((x, enc));
                    }
                }
            }
            if !patched.is_empty() {
                let mut row = (*snap.toward[c]).clone();
                for (x, enc) in patched {
                    row[x] = enc;
                }
                snap.toward[c] = Rc::new(row);
                self.stats.hop_incremental_builds += 1;
            }
        }

        for &(a, b, present) in &changed {
            self.cache_adj.set_edge(a, b, present);
        }
        debug_assert!(self.cache_adj == *ground_truth, "diff patch drifted");
        self.hier.clusters = snap.clusters.len() as u64;
        self.hier.max_cluster = snap
            .clusters
            .iter()
            .map(|c| c.members.len() as u64)
            .max()
            .unwrap_or(0);
        self.snap = Rc::new(snap);
    }

    /// Hierarchy diagnostics (cluster count, splits, intra rebuilds).
    pub fn hierarchy_stats(&self) -> HierarchyStats {
        self.hier
    }

    /// `v`'s cluster id in the current snapshot (tests use this to tell
    /// intra- from inter-cluster pairs).
    pub fn cluster_id(&self, v: NodeId) -> u32 {
        self.snap.cluster_of[v.index()]
    }

    /// The destination-side detour bound for `v` in the current
    /// snapshot: the diameter of `v`'s cluster's induced subgraph (max
    /// member eccentricity). Hierarchical walk length is bounded by
    /// `d_exact(s, d) + cluster_diameter(d)` — the stretch bound the
    /// equivalence suite asserts and the bench records.
    pub fn cluster_diameter(&self, v: NodeId) -> u32 {
        let ct = &self.snap.clusters[self.snap.cluster_of[v.index()] as usize];
        ct.ecc.iter().copied().max().unwrap_or(0) as u32
    }

    /// The current snapshot's conservative route-length estimate from
    /// `from` to `dst` (not the per-view one): exact subgraph distance
    /// inside a cluster, `d_C(from) + ecc(dst)` across clusters. An
    /// upper bound on the hops a consistent-snapshot walk takes.
    pub fn converged_distance(&self, from: NodeId, dst: NodeId) -> Option<u32> {
        Self::estimate(&self.snap, from, dst)
    }

    fn estimate(snap: &Snapshot, from: NodeId, dst: NodeId) -> Option<u32> {
        if from == dst {
            return Some(0);
        }
        let c = snap.cluster_of[dst.index()] as usize;
        let ct = &snap.clusters[c];
        let lj = snap.local_idx[dst.index()] as usize;
        if snap.cluster_of[from.index()] as usize == c {
            let li = snap.local_idx[from.index()] as usize;
            let d = ct.dist[li * ct.members.len() + lj];
            return (d != UNREACHABLE).then_some(d as u32);
        }
        let d = snap.dc[c][from.index()];
        (d != UNREACHABLE).then_some(d as u32 + ct.ecc[lj] as u32)
    }
}

impl HierarchicalBackend {
    pub(crate) fn len_impl(&self) -> usize {
        self.views.len()
    }

    pub(crate) fn set_node_weights_impl(&mut self, weights: Option<Vec<u16>>) {
        assert!(
            weights.is_none(),
            "hierarchical backend does not support energy-weighted routing \
             (config validation rejects the combination)"
        );
    }

    pub(crate) fn refresh_due_views_impl(&mut self, now: SimTime, ground_truth: &Adjacency) {
        if self
            .views
            .iter()
            .all(|v| now.since(v.refreshed_at) < self.refresh_interval)
        {
            return;
        }
        self.ensure_cache(ground_truth);
        for view in &mut self.views {
            if now.since(view.refreshed_at) < self.refresh_interval {
                continue;
            }
            if !Rc::ptr_eq(&view.snap, &self.snap) {
                view.snap = Rc::clone(&self.snap);
                self.stats.refreshes += 1;
            }
            view.refreshed_at = now;
        }
    }

    pub(crate) fn force_refresh_impl(&mut self, node: NodeId, now: SimTime, truth: &Adjacency) {
        self.ensure_cache(truth);
        let view = &mut self.views[node.index()];
        view.snap = Rc::clone(&self.snap);
        view.refreshed_at = now;
        self.stats.refreshes += 1;
    }

    pub(crate) fn force_refresh_all_impl(&mut self, now: SimTime, ground_truth: &Adjacency) {
        self.ensure_cache(ground_truth);
        for view in &mut self.views {
            if !Rc::ptr_eq(&view.snap, &self.snap) {
                view.snap = Rc::clone(&self.snap);
                self.stats.refreshes += 1;
            }
            view.refreshed_at = now;
        }
    }

    pub(crate) fn next_hop_impl(&self, from: NodeId, dst: NodeId) -> Option<NodeId> {
        if from == dst {
            return None;
        }
        let snap = &self.views[from.index()].snap;
        let c = snap.cluster_of[dst.index()] as usize;
        let enc = if snap.cluster_of[from.index()] as usize == c {
            let ct = &snap.clusters[c];
            let (li, lj) = (
                snap.local_idx[from.index()] as usize,
                snap.local_idx[dst.index()] as usize,
            );
            ct.hop[li * ct.members.len() + lj]
        } else {
            snap.toward[c][from.index()]
        };
        if enc == 0 {
            self.no_route.set(self.no_route.get() + 1);
            return None;
        }
        Some(NodeId(enc - 1))
    }

    pub(crate) fn remaining_hops_impl(&self, from: NodeId, dst: NodeId) -> Option<u32> {
        Self::estimate(&self.views[from.index()].snap, from, dst)
    }

    pub(crate) fn stats_impl(&self) -> RoutingStats {
        RoutingStats {
            no_route: self.no_route.get(),
            ..self.stats
        }
    }
}
