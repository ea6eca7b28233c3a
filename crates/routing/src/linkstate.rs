//! Per-node topology views and next-hop selection.
//!
//! Performance notes (mobility ticks used to dominate mobile runs; the
//! per-packet `next_hop` scan was the hottest remaining forwarding cost):
//!
//! * all views refreshing to the same ground truth **share** one
//!   `Rc`-owned snapshot and one all-pairs distance table instead of
//!   recomputing BFS-per-source per view (n× less work, n× less memory).
//!   `Rc`, not `Arc`: an `ExactBackend` lives inside one single-threaded
//!   `Network` (batch parallelism is per-replica, each with its own
//!   network), so the share counts need no atomics — they sit on the
//!   per-mobility-tick refresh path;
//! * the shared distance table is maintained **incrementally**: when the
//!   ground truth changes, sources are screened by exact criteria on the
//!   changed edges (an added edge `{u,v}` is a shortcut for source `s`
//!   iff `|d(s,u) − d(s,v)| ≥ 2`; a removed tight edge matters iff its
//!   far endpoint loses its last alternate support in `s`'s tree), and a
//!   flagged row is **repaired in place** by the affected-region passes
//!   in the crate-private `bfs_repair` module instead of re-running a
//!   whole BFS.
//!   Unaffected rows are reused as-is (per-row `Rc` shares), which keeps
//!   results bit-identical to a full recompute;
//! * each snapshot also carries a flat **next-hop table** (row-major
//!   `src × dst`, encoded as `neighbour id + 1`, 0 = no route), updated
//!   right after the incremental distance update — only the entries
//!   adjacent to actually-changed distance entries are re-derived (BFS
//!   distances are symmetric, so a changed row is a changed column) —
//!   and shared across views through the same `Rc`.
//!   [`ExactBackend::next_hop`] is therefore a single array load on an
//!   immutable `&self` — the per-packet neighbour scan is gone, and its
//!   tie-break (minimise `(distance, id)`) is baked into the table so
//!   routes are unchanged.
//!
//! **Energy-aware routing** ([`ExactBackend::set_node_weights`]): when
//! per-node forwarding weights are advertised (netsim derives them from
//! residual battery fractions), the next-hop table is built from a
//! node-weighted Dijkstra instead of hop counts — max-min-lifetime style:
//! paths through drained nodes get expensive and traffic shifts to
//! fresher relays. The BFS hop-count table is kept alongside (it feeds
//! the transport's remaining-hops estimate, eq. 4, which must stay a
//! *hop* count), and the hot `next_hop` load is unchanged — only the
//! table build differs. With all weights equal to 1 the weighted
//! distances coincide with hop counts and the table is bit-identical to
//! the hop-count build.

use crate::bfs_repair::{repair_bfs_row, BfsRepairScratch};
use crate::graph::{Adjacency, UNREACHABLE};
use crate::wapsp::{WeightedApsp, UNREACHABLE_COST};
use jtp_sim::{NodeId, SimDuration, SimTime};
use std::cell::Cell;
use std::rc::Rc;

/// One source's distance row, individually shared: a refresh that
/// repairs k rows clones k rows and bumps n − k refcounts, instead of
/// deep-copying the whole n × n table (the dominant per-mobility-tick
/// cost before the diffed-tick work).
type DistRow = Rc<Vec<u16>>;
type DistTable = Rc<Vec<DistRow>>;
/// Flat row-major `src × dst` next-hop table: `0` = no route, else
/// `neighbour id + 1`.
type HopTable = Rc<Vec<u32>>;

/// One node's snapshot of the topology: its shortest-path distances and
/// the pre-resolved next-hop table derived from them. (The adjacency
/// itself is not stored — nothing on the per-packet path reads it.)
#[derive(Clone, Debug)]
struct View {
    dist: DistTable,
    hops: HopTable,
    refreshed_at: SimTime,
}

/// Routing diagnostics.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoutingStats {
    /// View refreshes performed across all nodes.
    pub refreshes: u64,
    /// next_hop queries that found no route in the local view.
    pub no_route: u64,
    /// BFS source recomputations skipped by the incremental distance
    /// update (each is one avoided O(V+E) traversal).
    pub bfs_skipped: u64,
    /// Full BFS source recomputations performed (the hierarchical
    /// backend's cluster rebuilds; the exact backend repairs instead).
    pub bfs_run: u64,
    /// BFS rows repaired in place by the affected-region repair (each
    /// replaces one full `bfs_run`).
    pub bfs_repaired: u64,
    /// Next-hop tables rebuilt from scratch (O(E·n)).
    pub hop_full_builds: u64,
    /// Next-hop tables updated in place — only the columns whose distance
    /// rows changed (hop-count mode) or the rows whose neighbour inputs
    /// changed (weighted mode) were re-derived.
    pub hop_incremental_builds: u64,
    /// Weighted single-source tables built from scratch (the first
    /// advertisement after weights were (re)enabled).
    pub weighted_full_builds: u64,
    /// Weighted source rows repaired incrementally (see
    /// [`crate::wapsp::WeightedApsp`]).
    pub weighted_repairs: u64,
    /// Distance-table entries whose value actually changed across the
    /// incremental repairs — exact per-entry dirt (hop-count deltas plus
    /// [`crate::wapsp::WapspStats::entries_changed`]), the true table
    /// cost a flood propagated.
    pub dist_entries_changed: u64,
}

/// The current ground truth, its distances and its next-hop table, shared
/// by fresh views. `adj` is owned and **patched in place** by the edge
/// diff on every change (never cloned from the ground truth — views
/// don't hold it). `weights` records which node-weight advertisement the
/// hop table was built under (None = plain hop counts); `wapsp` carries
/// the live weighted distance table across changes so the next
/// advertisement or topology edit repairs it instead of rebuilding.
#[derive(Clone, Debug)]
struct TruthCache {
    adj: Adjacency,
    dist: DistTable,
    hops: HopTable,
    weights: Option<Vec<u16>>,
    wapsp: Option<WeightedApsp>,
}

/// The one audited next-hop build both tables share: entry
/// `[src·n + dst]` holds the neighbour of `src` minimising
/// `(key(via, dst), id)` encoded as `id + 1`, or 0 when no neighbour
/// reaches `dst` (`key` returns `unreachable`). Neighbour lists are
/// sorted ascending and only a strictly smaller key displaces the
/// incumbent, so the first minimum reproduces the historical `(d, v)`
/// lexicographic tie-break exactly; the incumbent's key is kept in a
/// per-source row buffer rather than re-read through the distance table
/// (this build runs on every flooded refresh, so its constant factor is
/// part of the dynamics path). The key closure monomorphises away —
/// keeping hop-count and weighted builds on this single loop is what
/// guarantees their tie-breaks can never drift apart.
fn build_hop_table_by_key<D: Copy + Ord>(
    adj: &Adjacency,
    unreachable: D,
    key: impl Fn(NodeId, usize) -> D,
) -> Vec<u32> {
    let n = adj.len();
    let mut hops = vec![0u32; n * n];
    rebuild_rows(&mut hops, adj, unreachable, &key, |_| true);
    hops
}

/// One source row of the audited build (see [`build_hop_table_by_key`]):
/// shared verbatim by the full build and the partial rebuilds, so a
/// re-derived row can never drift from a from-scratch one.
fn build_hop_row_by_key<D: Copy + Ord>(
    adj: &Adjacency,
    src: usize,
    unreachable: D,
    key: &impl Fn(NodeId, usize) -> D,
    row: &mut [u32],
    best: &mut [D],
) {
    best.fill(unreachable);
    row.fill(0);
    for &v in adj.neighbors(NodeId(src as u32)) {
        for (dst, slot) in row.iter_mut().enumerate() {
            if dst == src {
                continue;
            }
            let d = key(v, dst);
            // `d < unreachable` for any reachable d, so an empty slot
            // (best = unreachable) accepts the first candidate.
            if d < best[dst] {
                best[dst] = d;
                *slot = v.0 + 1;
            }
        }
    }
}

/// One entry of the audited build, derived standalone: the neighbour of
/// `src` minimising `(key(v, dst), v)` encoded as `v + 1`, 0 when none
/// reaches. Same strict-`<` / ascending-neighbour tie-break as
/// [`build_hop_row_by_key`] (neighbour lists are sorted, only a strictly
/// smaller key displaces the incumbent) — the entry-level patch shares
/// this one derivation, and `partial_tables_match_full_rebuild_under_churn`
/// pins that it can never drift from the buffered row build.
fn derive_hop_entry<D: Copy + Ord>(
    adj: &Adjacency,
    src: usize,
    dst: usize,
    unreachable: D,
    key: &impl Fn(NodeId, usize) -> D,
) -> u32 {
    debug_assert_ne!(src, dst, "diagonal entries are never derived");
    let mut best = unreachable;
    let mut enc = 0u32;
    for &v in adj.neighbors(NodeId(src as u32)) {
        let d = key(v, dst);
        if d < best {
            best = d;
            enc = v.0 + 1;
        }
    }
    enc
}

/// Re-derive the flagged rows of a flat next-hop table in place. Every
/// rebuilt row goes through the same [`build_hop_row_by_key`] as the
/// full build, and `best` is refilled per row, so a rebuilt row is
/// byte-identical to a from-scratch one.
fn rebuild_rows<D: Copy + Ord>(
    hops: &mut [u32],
    adj: &Adjacency,
    unreachable: D,
    key: &impl Fn(NodeId, usize) -> D,
    redo: impl Fn(usize) -> bool,
) {
    let n = adj.len();
    debug_assert_eq!(hops.len(), n * n);
    let mut best = vec![unreachable; n];
    for (src, row) in hops.chunks_mut(n).enumerate() {
        if redo(src) {
            build_hop_row_by_key(adj, src, unreachable, key, row, &mut best);
        }
    }
}

/// The column-patch half of the hop-count incremental rebuild: per
/// changed column, mark the union of the changed entries' neighbourhoods
/// and re-derive exactly those entries. O(Σ deg) over the changed
/// region, not O(E) per column.
fn patch_hop_columns<D: Copy + Ord>(
    hops: &mut [u32],
    adj: &Adjacency,
    unreachable: D,
    key: &impl Fn(NodeId, usize) -> D,
    deltas: &[(u32, u32)],
    adj_touched: &[bool],
) {
    let n = adj.len();
    let mut marked = vec![false; n];
    let mut marked_list: Vec<usize> = Vec::new();
    let mut i = 0;
    while i < deltas.len() {
        let dst = deltas[i].0;
        for x in marked_list.drain(..) {
            marked[x] = false;
        }
        while i < deltas.len() && deltas[i].0 == dst {
            let w = NodeId(deltas[i].1);
            for &src in adj.neighbors(w) {
                let si = src.index();
                if !marked[si] && !adj_touched[si] && si != dst as usize {
                    marked[si] = true;
                    marked_list.push(si);
                }
            }
            i += 1;
        }
        let dsti = dst as usize;
        for &src in &marked_list {
            hops[src * n + dsti] = derive_hop_entry(adj, src, dsti, unreachable, key);
        }
    }
}

/// Entry-incremental rebuild of the **hop-count** next-hop table.
///
/// Entry `(src, dst)` reads `dist[v][dst]` for `src`'s neighbours `v` —
/// and BFS hop distances over an undirected graph are symmetric
/// (`dist[v][dst] == dist[dst][v]`), so the entry can only change when
/// `src`'s neighbour set did (those rows are rebuilt whole), or some
/// neighbour `v` of `src` has `dist[dst][v]` changed. `deltas` lists
/// exactly the changed distance
/// entries as `(row s, entry v)` pairs, grouped by ascending `s` — so
/// for each changed column `dst = s` only the sources adjacent to a
/// changed entry are re-derived, through the same single-entry logic as
/// the full build. The result is byte-identical to [`build_hop_table`]
/// (pinned by `hop_table_matches_neighbour_scan` and the partial-vs-full
/// test).
fn rebuild_hop_table_columns(
    prev: &[u32],
    adj: &Adjacency,
    dist: &[DistRow],
    deltas: &[(u32, u32)],
    adj_touched: &[bool],
) -> Vec<u32> {
    let key = |v: NodeId, dst: usize| dist[v.index()][dst];
    let mut hops = prev.to_vec();
    rebuild_rows(&mut hops, adj, UNREACHABLE, &key, |s| adj_touched[s]);
    patch_hop_columns(&mut hops, adj, UNREACHABLE, &key, deltas, adj_touched);
    hops
}

/// Row-incremental rebuild of the **weighted** next-hop table.
///
/// The weighted key `wdist[v][dst] + weights[v]` is *not* symmetric in
/// `(v, dst)` (node-entry costs exclude the source), so the column trick
/// does not apply; instead, entry `(src, dst)` depends only on `src`'s
/// neighbour set, its neighbours' distance rows and its neighbours'
/// weights — so exactly the rows `src` with a diff-edge endpoint or a
/// neighbour whose wapsp row / weight changed are re-derived (whole) —
/// [`weighted_redo_mask`] flags those rows — and every other row is
/// carried over. Byte-identical to [`build_hop_table_weighted`].
fn rebuild_weighted_hop_rows(
    prev: &[u32],
    adj: &Adjacency,
    wdist: &[Vec<u32>],
    weights: &[u16],
    redo: &[bool],
) -> Vec<u32> {
    let mut hops = prev.to_vec();
    let key = weighted_key(wdist, weights);
    rebuild_rows(&mut hops, adj, UNREACHABLE_COST, &key, |s| redo[s]);
    hops
}

/// Which weighted next-hop rows must be re-derived: every source touched
/// by the adjacency diff, plus every neighbour of a node whose wapsp row
/// or weight moved (entry `(src, dst)` reads exactly those inputs).
fn weighted_redo_mask(
    adj: &Adjacency,
    adj_touched: &[bool],
    wrow_changed: &[bool],
    weights: &[u16],
    old_weights: &[u16],
) -> Vec<bool> {
    let mut redo = adj_touched.to_vec();
    for v in 0..adj.len() {
        if wrow_changed[v] || weights[v] != old_weights[v] {
            for &u in adj.neighbors(NodeId(v as u32)) {
                redo[u.index()] = true;
            }
        }
    }
    redo
}

/// Hop-count next-hop table: the key is the neighbour's distance to the
/// destination (the uniform `+1` for entering the neighbour cancels out
/// of the comparison).
fn build_hop_table(adj: &Adjacency, dist: &[DistRow], unreachable: u16) -> Vec<u32> {
    build_hop_table_by_key(adj, unreachable, |v, dst| dist[v.index()][dst])
}

/// Weighted next-hop table: the key is the *full* forwarding cost
/// `weights[v] + wdist[v][dst]` (entering `v` costs `weights[v]`, which
/// varies per neighbour — unlike the hop-count build, where the uniform
/// `+1` cancels). Keys are computed on the fly instead of materialising
/// n² cost rows. With all weights equal to 1 every key is `1 + hops`,
/// so the table is bit-identical to the hop-count build.
fn build_hop_table_weighted(adj: &Adjacency, wdist: &[Vec<u32>], weights: &[u16]) -> Vec<u32> {
    build_hop_table_by_key(adj, UNREACHABLE_COST, weighted_key(wdist, weights))
}

/// The weighted next-hop key: the cost `wdist[v][dst] + weights[v]` of
/// reaching `dst` through neighbour `v` ([`UNREACHABLE_COST`] stays
/// unreachable).
fn weighted_key<'a>(
    wdist: &'a [Vec<u32>],
    weights: &'a [u16],
) -> impl Fn(NodeId, usize) -> u32 + 'a {
    move |v, dst| {
        let d = wdist[v.index()][dst];
        if d == UNREACHABLE_COST {
            UNREACHABLE_COST
        } else {
            d.saturating_add(weights[v.index()] as u32)
        }
    }
}

/// The affected-source criterion for one BFS row under an edge diff.
///
/// An added edge `{u,v}` is a shortcut for the row's source iff the
/// endpoints sat ≥ 2 levels apart (∞ on one side counts). A removed
/// edge that was not tight (`|du − dv| != 1`) never matters. A tight
/// removed edge flags the source iff the far endpoint `x` loses its last
/// alternate support (no surviving neighbour one level closer); if every
/// removed far endpoint keeps support, no distance in the row can
/// change — induction on ascending distance over the surviving graph.
pub(crate) fn row_affected(
    row: &[u16],
    changed: &[(NodeId, NodeId, bool)],
    old: &Adjacency,
    new: &Adjacency,
) -> bool {
    changed.iter().any(|&(u, v, present)| {
        let (du, dv) = (row[u.index()], row[v.index()]);
        if present {
            match (du == UNREACHABLE, dv == UNREACHABLE) {
                (true, true) => false,
                (true, false) | (false, true) => true,
                (false, false) => du.abs_diff(dv) >= 2,
            }
        } else if du == UNREACHABLE || dv == UNREACHABLE || du.abs_diff(dv) != 1 {
            false
        } else {
            let x = if du > dv { u } else { v };
            let dx = du.max(dv);
            !new.neighbors(x).iter().any(|&w| {
                old.has_edge(x, w) && row[w.index()] != UNREACHABLE && row[w.index()] + 1 == dx
            })
        }
    })
}

/// The exact flat-table routing backend: one possibly stale snapshot
/// (`View`) per node, refreshed from ground truth every
/// `refresh_interval`, with full all-pairs distance and next-hop tables
/// maintained incrementally. This is the historical `LinkState`
/// machinery verbatim, now one implementor of
/// [`crate::backend::RoutingBackend`] behind the [`crate::LinkState`]
/// facade — the refactor is observationally invisible (goldens, event
/// checksums and statistics are byte-identical).
#[derive(Clone, Debug)]
pub struct ExactBackend {
    views: Vec<View>,
    refresh_interval: SimDuration,
    stats: RoutingStats,
    /// `no_route` lives in a `Cell` so the hot `&self` [`ExactBackend::next_hop`]
    /// can count misses without requiring `&mut self`.
    no_route: Cell<u64>,
    cache: TruthCache,
    /// Currently advertised per-node forwarding weights (energy-aware
    /// routing); None = plain hop-count routing.
    node_weights: Option<Vec<u16>>,
}

impl ExactBackend {
    /// Create with all views initialised from `initial` at t=0 (the
    /// network boots with converged routing, like the paper's warm-up).
    pub fn new(initial: &Adjacency, refresh_interval: SimDuration) -> Self {
        let n = initial.len();
        let dist: DistTable = Rc::new(
            initial
                .all_pairs_distances()
                .into_iter()
                .map(Rc::new)
                .collect(),
        );
        let hops: HopTable = Rc::new(build_hop_table(initial, &dist, UNREACHABLE));
        let views = (0..n)
            .map(|_| View {
                dist: Rc::clone(&dist),
                hops: Rc::clone(&hops),
                refreshed_at: SimTime::ZERO,
            })
            .collect();
        ExactBackend {
            views,
            refresh_interval,
            stats: RoutingStats::default(),
            no_route: Cell::new(0),
            cache: TruthCache {
                adj: initial.clone(),
                dist,
                hops,
                weights: None,
                wapsp: None,
            },
            node_weights: None,
        }
    }

    /// Advertise per-node forwarding weights (energy-aware routing), or
    /// None to return to hop-count routing. Weight 1 is a full-energy
    /// node; larger weights tax routes through that node. Views pick the
    /// new tables up on their next (forced or due) refresh — exactly like
    /// a topology advertisement.
    ///
    /// # Panics
    /// Panics when the weight vector's length disagrees with the node
    /// count or any weight is zero (zero-cost relays would make route
    /// costs degenerate).
    pub fn set_node_weights(&mut self, weights: Option<Vec<u16>>) {
        if let Some(w) = &weights {
            assert_eq!(w.len(), self.views.len(), "one weight per node");
            assert!(w.iter().all(|&x| x >= 1), "weights must be >= 1");
        }
        self.node_weights = weights;
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// True when managing zero nodes.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Bring the shared truth cache up to date with `ground_truth` and the
    /// advertised node weights, re-running BFS only from affected sources
    /// and repairing (not rebuilding) the weighted distance table when
    /// weights are set — the energy-re-advertisement path is incremental
    /// end to end (see [`crate::wapsp`]).
    fn ensure_cache(&mut self, ground_truth: &Adjacency) {
        let adj_current = self.cache.adj == *ground_truth;
        if adj_current && self.cache.weights == self.node_weights {
            return;
        }
        let n = ground_truth.len();
        let changed = if adj_current {
            Vec::new()
        } else {
            self.cache.adj.diff_edges(ground_truth)
        };
        // Nodes whose neighbour set changed (their pre-resolved next-hop
        // rows must be re-derived whatever else holds still).
        let mut adj_touched = vec![false; n];
        for &(u, v, _) in &changed {
            adj_touched[u.index()] = true;
            adj_touched[v.index()] = true;
        }
        // Exactly the distance entries that changed, as `(row, entry)`
        // pairs grouped by ascending row — the hop-table rebuild patches
        // only the entries adjacent to these.
        let mut deltas: Vec<(u32, u32)> = Vec::new();
        let dist = if adj_current {
            Rc::clone(&self.cache.dist)
        } else {
            let edges = |present: bool| -> Vec<(usize, usize)> {
                changed
                    .iter()
                    .filter(|&&(_, _, p)| p == present)
                    .map(|&(a, b, _)| (a.index(), b.index()))
                    .collect()
            };
            let (removed, added) = (edges(false), edges(true));
            let mut scratch = BfsRepairScratch::new(n);
            let old = &self.cache.adj;
            let old_dist = &self.cache.dist;
            let mut rows: Vec<DistRow> = Vec::with_capacity(n);
            for s in 0..n {
                let row = &old_dist[s];
                if !row_affected(row, &changed, old, ground_truth) {
                    // Unaffected rows are shared, not copied: one
                    // refcount bump.
                    self.stats.bfs_skipped += 1;
                    rows.push(Rc::clone(row));
                    continue;
                }
                // Affected-region repair: increase + decrease passes
                // touch only the region the diff reaches.
                self.stats.bfs_repaired += 1;
                let mut r = (**row).clone();
                repair_bfs_row(old, ground_truth, &removed, &added, &mut r, &mut scratch);
                // The affected criterion is conservative; an exact
                // compare over the repair's dirty log (some writes
                // restore the original value) keeps the next-hop rebuild
                // proportional to what actually moved, keeps unmoved rows
                // shared, and records the changed entries the hop-table
                // patch navigates by. `deltas` stays grouped by row (the
                // outer loop ascends); within a row the order is
                // irrelevant — the patch marks a set and re-derives each
                // entry exactly.
                let before = deltas.len();
                scratch.drain_dirty(|v| {
                    if r[v] != row[v] {
                        deltas.push((s as u32, v as u32));
                    }
                });
                if deltas.len() == before {
                    rows.push(Rc::clone(row));
                } else {
                    rows.push(Rc::new(r));
                }
            }
            Rc::new(rows)
        };
        // `deltas` is the exact hop-count entry dirt of this refresh.
        self.stats.dist_entries_changed += deltas.len() as u64;
        // The hop table is derived state: updating it here — once per
        // actual topology/advertisement change, right after the
        // incremental distance update — is what lets `next_hop` stay a
        // pure array load. Only the columns whose distance rows changed
        // (hop-count keys are symmetric) or the rows whose neighbour
        // inputs changed (weighted keys) are re-derived; a switch between
        // hop-count and weighted routing rebuilds the table from scratch.
        let n64 = n as u64;
        let (hops, wapsp) = match &self.node_weights {
            None => {
                let hops = if !adj_current && self.cache.weights.is_none() {
                    self.stats.hop_incremental_builds += 1;
                    rebuild_hop_table_columns(
                        &self.cache.hops,
                        ground_truth,
                        &dist,
                        &deltas,
                        &adj_touched,
                    )
                } else {
                    self.stats.hop_full_builds += 1;
                    build_hop_table(ground_truth, &dist, UNREACHABLE)
                };
                (hops, None)
            }
            Some(w) => {
                let (ap, wrow_changed) = match self.cache.wapsp.take() {
                    // The cached table matches (cache.adj, cache.weights):
                    // repair it to (ground_truth, w).
                    Some(mut ap) => {
                        self.stats.weighted_repairs += n64;
                        let ec_before = ap.stats().entries_changed;
                        let ch = ap.update(&self.cache.adj, ground_truth, &changed, w);
                        self.stats.dist_entries_changed += ap.stats().entries_changed - ec_before;
                        (ap, Some(ch))
                    }
                    // First advertisement since weights were (re)enabled.
                    None => {
                        self.stats.weighted_full_builds += n64;
                        (WeightedApsp::build(ground_truth, w), None)
                    }
                };
                let hops = match (&wrow_changed, &self.cache.weights) {
                    (Some(ch), Some(old_w)) => {
                        self.stats.hop_incremental_builds += 1;
                        let redo = weighted_redo_mask(ground_truth, &adj_touched, ch, w, old_w);
                        rebuild_weighted_hop_rows(
                            &self.cache.hops,
                            ground_truth,
                            ap.rows(),
                            w,
                            &redo,
                        )
                    }
                    _ => {
                        self.stats.hop_full_builds += 1;
                        build_hop_table_weighted(ground_truth, ap.rows(), w)
                    }
                };
                (hops, Some(ap))
            }
        };
        // Patch the owned adjacency forward by the diff — O(changed
        // edges), never a clone of the ground truth. (Every old-adjacency
        // consumer — the diff itself, the row repairs, the wapsp update —
        // has already run.)
        for &(a, b, present) in &changed {
            self.cache.adj.set_edge(a, b, present);
        }
        debug_assert!(self.cache.adj == *ground_truth, "diff patch drifted");
        self.cache.dist = dist;
        self.cache.hops = Rc::new(hops);
        self.cache.weights = self.node_weights.clone();
        self.cache.wapsp = wapsp;
    }

    /// Refresh every view whose snapshot is older than the refresh
    /// interval. Call whenever ground truth may have changed (the assembly
    /// calls this on mobility updates); cheap when nothing is due.
    pub fn refresh_due_views(&mut self, now: SimTime, ground_truth: &Adjacency) {
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
            // A view is stale iff it no longer shares the cache's tables
            // (covers both topology changes and weight re-advertisements,
            // which rebuild the hop table under an unchanged adjacency).
            if !Rc::ptr_eq(&view.hops, &self.cache.hops) {
                view.dist = Rc::clone(&self.cache.dist);
                view.hops = Rc::clone(&self.cache.hops);
                self.stats.refreshes += 1;
            }
            // Due views — updated or already accurate — restart the
            // staleness clock.
            view.refreshed_at = now;
        }
    }

    /// Force one node's view up to date (e.g. a node hears a broken-link
    /// advertisement immediately).
    pub fn force_refresh(&mut self, node: NodeId, now: SimTime, ground_truth: &Adjacency) {
        self.ensure_cache(ground_truth);
        let view = &mut self.views[node.index()];
        view.dist = Rc::clone(&self.cache.dist);
        view.hops = Rc::clone(&self.cache.hops);
        view.refreshed_at = now;
        self.stats.refreshes += 1;
    }

    /// Force **every** view up to date immediately — the model for a
    /// flooded topology-change advertisement (node failure/recovery, link
    /// blackout, energy re-advertisement). Views already sharing the
    /// current tables only restart their staleness clock.
    pub fn force_refresh_all(&mut self, now: SimTime, ground_truth: &Adjacency) {
        self.ensure_cache(ground_truth);
        for view in &mut self.views {
            if !Rc::ptr_eq(&view.hops, &self.cache.hops) {
                view.dist = Rc::clone(&self.cache.dist);
                view.hops = Rc::clone(&self.cache.hops);
                self.stats.refreshes += 1;
            }
            view.refreshed_at = now;
        }
    }

    /// Next hop from `from` toward `dst` according to **`from`'s own
    /// view**: the neighbour minimising `(distance-to-dst, id)`.
    ///
    /// A single load from the view's pre-resolved hop table (see the
    /// module docs); `&self` so forwarding never needs a mutable borrow
    /// of the routing state.
    pub fn next_hop(&self, from: NodeId, dst: NodeId) -> Option<NodeId> {
        if from == dst {
            return None;
        }
        let n = self.views.len();
        let enc = self.views[from.index()].hops[from.index() * n + dst.index()];
        if enc == 0 {
            self.no_route.set(self.no_route.get() + 1);
            return None;
        }
        Some(NodeId(enc - 1))
    }

    /// Remaining hop count from `from` to `dst` in `from`'s view (the
    /// `H_i` of eq. 4). None if the view has no route.
    pub fn remaining_hops(&self, from: NodeId, dst: NodeId) -> Option<u32> {
        if from == dst {
            return Some(0);
        }
        let d = self.views[from.index()].dist[from.index()][dst.index()];
        (d != UNREACHABLE).then_some(d as u32)
    }

    /// Exact shortest distance from `from` to `dst` in the shared truth
    /// cache (as of the last completed refresh) — the trait's converged
    /// row access. Per-view staleness does not apply here; equivalence
    /// tests measure hierarchical stretch against this.
    pub fn converged_distance(&self, from: NodeId, dst: NodeId) -> Option<u32> {
        if from == dst {
            return Some(0);
        }
        let d = self.cache.dist[from.index()][dst.index()];
        (d != UNREACHABLE).then_some(d as u32)
    }

    /// Walk the per-hop next-hop decisions from `src` to `dst`; returns
    /// the node sequence, or None if the walk fails or loops (possible
    /// with inconsistent views).
    pub fn trace_path(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        let mut path = vec![src];
        let mut cur = src;
        let limit = self.len() * 2;
        while cur != dst {
            if path.len() > limit {
                return None; // inconsistent views looped the packet
            }
            cur = self.next_hop(cur, dst)?;
            path.push(cur);
        }
        Some(path)
    }

    /// Diagnostics.
    pub fn stats(&self) -> RoutingStats {
        RoutingStats {
            no_route: self.no_route.get(),
            ..self.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ls(n: usize) -> ExactBackend {
        ExactBackend::new(&Adjacency::linear(n), SimDuration::from_secs(5))
    }

    #[test]
    fn chain_routing() {
        let r = ls(5);
        assert_eq!(r.next_hop(NodeId(0), NodeId(4)), Some(NodeId(1)));
        assert_eq!(r.next_hop(NodeId(3), NodeId(4)), Some(NodeId(4)));
        assert_eq!(r.next_hop(NodeId(4), NodeId(0)), Some(NodeId(3)));
        assert_eq!(r.remaining_hops(NodeId(0), NodeId(4)), Some(4));
        assert_eq!(r.remaining_hops(NodeId(4), NodeId(4)), Some(0));
    }

    #[test]
    fn paths_are_symmetric_on_consistent_views() {
        let mut a = Adjacency::new(6);
        // A small mesh with redundant routes.
        for (u, v) in [(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5), (1, 4)] {
            a.set_edge(NodeId(u), NodeId(v), true);
        }
        let r = ExactBackend::new(&a, SimDuration::from_secs(5));
        let fwd = r.trace_path(NodeId(0), NodeId(5)).unwrap();
        let mut rev = r.trace_path(NodeId(5), NodeId(0)).unwrap();
        rev.reverse();
        assert_eq!(fwd, rev, "deterministic tie-break => symmetric routes");
    }

    #[test]
    fn stale_view_ignores_topology_change_until_refresh() {
        let mut r = ls(3);
        let mut truth = Adjacency::linear(3);
        truth.set_edge(NodeId(1), NodeId(2), false); // link breaks
                                                     // Immediately after the break, views are stale: still routes via 1.
        r.refresh_due_views(SimTime::from_secs_f64(1.0), &truth);
        assert_eq!(r.next_hop(NodeId(0), NodeId(2)), Some(NodeId(1)));
        // After the refresh interval the view updates: no route.
        r.refresh_due_views(SimTime::from_secs_f64(6.0), &truth);
        assert_eq!(r.next_hop(NodeId(0), NodeId(2)), None);
        assert!(r.stats().no_route > 0);
    }

    #[test]
    fn force_refresh_is_immediate_and_local() {
        let mut r = ls(3);
        let mut truth = Adjacency::linear(3);
        truth.set_edge(NodeId(1), NodeId(2), false);
        r.force_refresh(NodeId(0), SimTime::from_secs_f64(0.1), &truth);
        assert_eq!(r.next_hop(NodeId(0), NodeId(2)), None, "refreshed view");
        assert_eq!(
            r.next_hop(NodeId(1), NodeId(2)),
            Some(NodeId(2)),
            "other views untouched"
        );
    }

    #[test]
    fn next_hop_to_self_is_none() {
        let r = ls(3);
        assert_eq!(r.next_hop(NodeId(1), NodeId(1)), None);
    }

    #[test]
    fn trace_detects_disconnection() {
        let mut truth = Adjacency::new(4);
        truth.set_edge(NodeId(0), NodeId(1), true);
        truth.set_edge(NodeId(2), NodeId(3), true);
        let r = ExactBackend::new(&truth, SimDuration::from_secs(5));
        assert!(r.trace_path(NodeId(0), NodeId(3)).is_none());
    }

    #[test]
    fn refresh_counts_only_real_changes() {
        let mut r = ls(4);
        let truth = Adjacency::linear(4);
        r.refresh_due_views(SimTime::from_secs_f64(10.0), &truth);
        assert_eq!(r.stats().refreshes, 0, "no change, no refresh work");
        let mut changed = Adjacency::linear(4);
        changed.set_edge(NodeId(0), NodeId(2), true);
        r.refresh_due_views(SimTime::from_secs_f64(20.0), &changed);
        assert_eq!(r.stats().refreshes, 4, "all views pick up the change");
    }

    #[test]
    fn shortcut_is_used_after_refresh() {
        let mut r = ls(4); // 0-1-2-3
        let mut truth = Adjacency::linear(4);
        truth.set_edge(NodeId(0), NodeId(3), true); // direct shortcut
        r.refresh_due_views(SimTime::from_secs_f64(6.0), &truth);
        assert_eq!(r.next_hop(NodeId(0), NodeId(3)), Some(NodeId(3)));
        assert_eq!(r.remaining_hops(NodeId(0), NodeId(3)), Some(1));
    }

    #[test]
    fn incremental_update_matches_full_recompute() {
        // Evolve a graph through adds and removes; after every refresh the
        // shared distance table must equal a from-scratch recompute.
        let n = 9;
        let mut truth = Adjacency::linear(n);
        let mut r = ExactBackend::new(&truth, SimDuration::from_secs(1));
        let edits: Vec<(u32, u32, bool)> = vec![
            (0, 5, true),
            (3, 4, false),
            (2, 7, true),
            (0, 5, false),
            (1, 8, true),
            (6, 7, false),
            (3, 4, true),
            (0, 1, false),
        ];
        for (step, (u, v, present)) in edits.into_iter().enumerate() {
            truth.set_edge(NodeId(u), NodeId(v), present);
            let now = SimTime::from_secs_f64(2.0 * (step as f64 + 1.0));
            r.refresh_due_views(now, &truth);
            let expect = truth.all_pairs_distances();
            let got: Vec<Vec<u16>> = r.cache.dist.iter().map(|row| (**row).clone()).collect();
            assert_eq!(got, expect, "divergence after edit {step}");
        }
        let s = r.stats();
        assert!(s.bfs_skipped > 0, "incremental path never skipped a BFS");
        assert!(
            s.bfs_repaired > 0,
            "affected sources must repair their rows"
        );
        assert_eq!(s.bfs_run, 0, "default mode never re-runs a whole BFS");
        assert!(
            s.hop_incremental_builds > 0,
            "hop table must update in place"
        );
    }

    /// A from-scratch build of `truth` under `weights`: `new` runs BFS
    /// per source and the full next-hop build, and the first weight
    /// advertisement builds the weighted table whole — no repair code
    /// runs. The reference oracle for the incremental paths.
    fn fresh(truth: &Adjacency, weights: Option<&[u16]>, now: SimTime) -> ExactBackend {
        let mut r = ExactBackend::new(truth, SimDuration::from_secs(1));
        if let Some(w) = weights {
            r.set_node_weights(Some(w.to_vec()));
            r.force_refresh_all(now, truth);
        }
        r
    }

    /// The affected-region BFS repair and the column-incremental next-hop
    /// update must be byte-identical to a fresh build after every step of
    /// random topology churn.
    #[test]
    fn partial_tables_match_full_rebuild_under_churn() {
        use jtp_sim::SimRng;
        let n = 14;
        let mut rng = SimRng::derive(31, "linkstate-partial-churn");
        let mut truth = Adjacency::linear(n);
        truth.set_edge(NodeId(0), NodeId(9), true);
        let mut fast = ExactBackend::new(&truth, SimDuration::from_secs(1));
        for step in 0..60 {
            for _ in 0..1 + rng.below(3) {
                let a = rng.below(n);
                let b = rng.below(n);
                if a != b {
                    let has = truth.has_edge(NodeId(a as u32), NodeId(b as u32));
                    truth.set_edge(NodeId(a as u32), NodeId(b as u32), !has);
                }
            }
            let now = SimTime::from_secs_f64(2.0 * (step as f64 + 1.0));
            fast.refresh_due_views(now, &truth);
            let scratch = fresh(&truth, None, now);
            assert_eq!(
                *fast.cache.dist, *scratch.cache.dist,
                "step {step}: repaired distances diverged from full BFS"
            );
            assert_eq!(
                *fast.cache.hops, *scratch.cache.hops,
                "step {step}: partial hop table diverged from full build"
            );
        }
        let sf = fast.stats();
        assert!(sf.bfs_repaired > 0 && sf.bfs_run == 0);
        assert!(sf.hop_incremental_builds > 0);
    }

    #[test]
    fn fresh_views_share_one_distance_table() {
        let mut r = ls(6);
        let mut truth = Adjacency::linear(6);
        truth.set_edge(NodeId(0), NodeId(5), true);
        r.refresh_due_views(SimTime::from_secs_f64(10.0), &truth);
        for w in r.views.windows(2) {
            assert!(Rc::ptr_eq(&w[0].dist, &w[1].dist), "views must share");
            assert!(Rc::ptr_eq(&w[0].hops, &w[1].hops), "hop table shared");
        }
    }

    /// The cached hop table must agree with the historical neighbour scan
    /// (minimise `(distance, id)`) for every pair, through a sequence of
    /// incremental topology edits.
    #[test]
    fn hop_table_matches_neighbour_scan() {
        let n = 9;
        let mut truth = Adjacency::linear(n);
        let mut r = ExactBackend::new(&truth, SimDuration::from_secs(1));
        let edits: Vec<(u32, u32, bool)> = vec![
            (0, 4, true),
            (2, 3, false),
            (1, 7, true),
            (0, 4, false),
            (5, 8, true),
            (4, 5, false),
        ];
        let mut step = 0;
        loop {
            let dist = truth.all_pairs_distances();
            for s in 0..n as u32 {
                for d in 0..n as u32 {
                    let mut best: Option<(u16, NodeId)> = None;
                    if s != d {
                        for &v in truth.neighbors(NodeId(s)) {
                            let dv = dist[v.index()][d as usize];
                            if dv == UNREACHABLE {
                                continue;
                            }
                            if best.is_none_or(|(bd, bid)| (dv, v) < (bd, bid)) {
                                best = Some((dv, v));
                            }
                        }
                    }
                    assert_eq!(
                        r.next_hop(NodeId(s), NodeId(d)),
                        best.map(|(_, v)| v),
                        "cache disagrees with scan for {s}->{d} at step {step}"
                    );
                }
            }
            let Some(&(u, v, present)) = edits.get(step) else {
                break;
            };
            truth.set_edge(NodeId(u), NodeId(v), present);
            step += 1;
            r.refresh_due_views(SimTime::from_secs_f64(2.0 * step as f64), &truth);
        }
    }

    /// Node churn: failing a cut node severs routes; healing it restores
    /// all-pairs reachability (and identical next hops) after the flooded
    /// refresh.
    #[test]
    fn churn_fail_then_heal_restores_all_pairs_reachability() {
        let n = 7;
        let healthy = Adjacency::linear(n);
        let mut r = ExactBackend::new(&healthy, SimDuration::from_secs(5));
        let before: Vec<Option<NodeId>> = (0..n as u32)
            .flat_map(|s| (0..n as u32).map(move |d| (s, d)))
            .map(|(s, d)| r.next_hop(NodeId(s), NodeId(d)))
            .collect();

        // Node 3 fails: all its edges vanish from the advertised truth.
        let mut failed = healthy.clone();
        failed.set_edge(NodeId(2), NodeId(3), false);
        failed.set_edge(NodeId(3), NodeId(4), false);
        r.force_refresh_all(SimTime::from_secs_f64(10.0), &failed);
        assert_eq!(r.next_hop(NodeId(0), NodeId(6)), None, "cut must sever");
        assert_eq!(r.remaining_hops(NodeId(0), NodeId(6)), None);
        assert!(r.stats().no_route > 0);

        // Node 3 recovers: the healed truth is re-flooded.
        r.force_refresh_all(SimTime::from_secs_f64(20.0), &healthy);
        let after: Vec<Option<NodeId>> = (0..n as u32)
            .flat_map(|s| (0..n as u32).map(move |d| (s, d)))
            .map(|(s, d)| r.next_hop(NodeId(s), NodeId(d)))
            .collect();
        assert_eq!(before, after, "healing must restore identical routes");
        for s in 0..n as u32 {
            for d in 0..n as u32 {
                if s != d {
                    assert!(
                        r.trace_path(NodeId(s), NodeId(d)).is_some(),
                        "{s}->{d} unreachable after heal"
                    );
                }
            }
        }
    }

    /// A diamond with redundant routes: 0—1—3 and 0—2—3.
    fn diamond() -> Adjacency {
        let mut a = Adjacency::new(4);
        for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            a.set_edge(NodeId(u), NodeId(v), true);
        }
        a
    }

    #[test]
    fn unit_weights_reproduce_hop_count_routing() {
        // Energy-aware routing with every node at full energy must be
        // bit-identical to hop-count routing (same distances, same
        // tie-breaks) on an irregular mesh.
        let mut a = Adjacency::linear(7);
        a.set_edge(NodeId(0), NodeId(4), true);
        a.set_edge(NodeId(2), NodeId(6), true);
        let r_hops = ExactBackend::new(&a, SimDuration::from_secs(5));
        let mut r_w = ExactBackend::new(&a, SimDuration::from_secs(5));
        r_w.set_node_weights(Some(vec![1; 7]));
        r_w.force_refresh_all(SimTime::from_secs_f64(0.1), &a);
        for s in 0..7u32 {
            for d in 0..7u32 {
                assert_eq!(
                    r_hops.next_hop(NodeId(s), NodeId(d)),
                    r_w.next_hop(NodeId(s), NodeId(d)),
                    "{s}->{d}"
                );
            }
        }
    }

    #[test]
    fn heavy_weight_steers_route_around_drained_node() {
        let a = diamond();
        let mut r = ExactBackend::new(&a, SimDuration::from_secs(5));
        // Hop-count tie between relays 1 and 2 resolves to the lower id.
        assert_eq!(r.next_hop(NodeId(0), NodeId(3)), Some(NodeId(1)));
        // Node 1 is nearly drained: routes shift to relay 2 …
        r.set_node_weights(Some(vec![1, 8, 1, 1]));
        r.force_refresh_all(SimTime::from_secs_f64(1.0), &a);
        assert_eq!(r.next_hop(NodeId(0), NodeId(3)), Some(NodeId(2)));
        assert_eq!(r.next_hop(NodeId(3), NodeId(0)), Some(NodeId(2)));
        // … while the transport's remaining-hops estimate stays a true
        // hop count (eq. 4 must not see inflated "distances").
        assert_eq!(r.remaining_hops(NodeId(0), NodeId(3)), Some(2));
        // Clearing the advertisement restores hop-count routing.
        r.set_node_weights(None);
        r.force_refresh_all(SimTime::from_secs_f64(2.0), &a);
        assert_eq!(r.next_hop(NodeId(0), NodeId(3)), Some(NodeId(1)));
    }

    #[test]
    fn weight_change_propagates_on_due_refresh_without_topology_change() {
        let a = diamond();
        let mut r = ExactBackend::new(&a, SimDuration::from_secs(5));
        r.set_node_weights(Some(vec![1, 8, 1, 1]));
        // Inside the refresh interval nothing is due: stale tie-break.
        r.refresh_due_views(SimTime::from_secs_f64(1.0), &a);
        assert_eq!(r.next_hop(NodeId(0), NodeId(3)), Some(NodeId(1)));
        // Once due, the re-advertised weights reach every view even
        // though the adjacency never changed.
        r.refresh_due_views(SimTime::from_secs_f64(6.0), &a);
        assert_eq!(r.next_hop(NodeId(0), NodeId(3)), Some(NodeId(2)));
        assert!(r.stats().refreshes >= 4);
    }

    #[test]
    fn weighted_routing_respects_disconnection() {
        let mut a = diamond();
        let mut r = ExactBackend::new(&a, SimDuration::from_secs(5));
        r.set_node_weights(Some(vec![2, 3, 4, 5]));
        a.set_edge(NodeId(0), NodeId(1), false);
        a.set_edge(NodeId(0), NodeId(2), false);
        r.force_refresh_all(SimTime::from_secs_f64(1.0), &a);
        assert_eq!(r.next_hop(NodeId(0), NodeId(3)), None);
        assert_eq!(r.next_hop(NodeId(1), NodeId(3)), Some(NodeId(3)));
    }

    /// The incremental weighted-APSP path must produce byte-identical
    /// tables to a fresh build after every step of an interleaved
    /// sequence of topology churn and weight re-advertisements.
    #[test]
    fn incremental_weighted_path_matches_full_rebuild_under_churn() {
        use jtp_sim::SimRng;
        let n = 12;
        let mut rng = SimRng::derive(77, "linkstate-wapsp-churn");
        let mut truth = Adjacency::linear(n);
        truth.set_edge(NodeId(0), NodeId(7), true);
        truth.set_edge(NodeId(3), NodeId(11), true);
        let mut fast = ExactBackend::new(&truth, SimDuration::from_secs(5));
        let mut weights = vec![1u16; n];
        for step in 0..40 {
            // Alternate dynamics kinds: weight nudges (the EnergyAdvert
            // shape) and edge churn (node death / heal shape).
            if step % 3 != 2 {
                for _ in 0..1 + rng.below(3) {
                    let v = rng.below(n);
                    weights[v] = 1 + rng.below(16) as u16;
                }
            } else {
                let a = rng.below(n);
                let b = rng.below(n);
                if a != b {
                    let has = truth.has_edge(NodeId(a as u32), NodeId(b as u32));
                    truth.set_edge(NodeId(a as u32), NodeId(b as u32), !has);
                }
            }
            let now = SimTime::from_secs_f64(step as f64 + 1.0);
            fast.set_node_weights(Some(weights.clone()));
            fast.force_refresh_all(now, &truth);
            let scratch = fresh(&truth, Some(&weights), now);
            assert_eq!(
                *fast.cache.dist, *scratch.cache.dist,
                "step {step}: repaired distances diverged from full BFS"
            );
            assert_eq!(
                *fast.cache.hops, *scratch.cache.hops,
                "step {step}: weighted hop table diverged from full build"
            );
        }
        let sf = fast.stats();
        assert!(sf.weighted_repairs > 0, "incremental path never repaired");
        assert_eq!(
            sf.weighted_full_builds, n as u64,
            "only the first advertisement builds from scratch"
        );
        assert!(
            sf.hop_incremental_builds > 0,
            "weighted hop table must be row-updated, not rebuilt"
        );
    }

    /// Toggling the advertisement off and on drops and rebuilds the
    /// cached weighted table cleanly (the repair must never run against a
    /// stale table from before the hop-count interlude).
    #[test]
    fn weight_toggle_rebuilds_cached_table() {
        let a = diamond();
        let mut r = ExactBackend::new(&a, SimDuration::from_secs(5));
        r.set_node_weights(Some(vec![1, 8, 1, 1]));
        r.force_refresh_all(SimTime::from_secs_f64(1.0), &a);
        assert_eq!(r.next_hop(NodeId(0), NodeId(3)), Some(NodeId(2)));
        r.set_node_weights(None);
        r.force_refresh_all(SimTime::from_secs_f64(2.0), &a);
        assert_eq!(r.next_hop(NodeId(0), NodeId(3)), Some(NodeId(1)));
        r.set_node_weights(Some(vec![1, 1, 8, 1]));
        r.force_refresh_all(SimTime::from_secs_f64(3.0), &a);
        assert_eq!(r.next_hop(NodeId(0), NodeId(3)), Some(NodeId(1)));
        let s = r.stats();
        assert_eq!(
            s.weighted_full_builds, 8,
            "each (re)enable builds the 4-node table from scratch once"
        );
    }

    #[test]
    fn force_refresh_all_updates_every_view_at_once() {
        let mut r = ls(4);
        let mut truth = Adjacency::linear(4);
        truth.set_edge(NodeId(1), NodeId(2), false);
        // Well inside the refresh interval: a flooded advertisement must
        // still reach every view immediately.
        r.force_refresh_all(SimTime::from_secs_f64(0.5), &truth);
        for s in [0u32, 1] {
            assert_eq!(r.next_hop(NodeId(s), NodeId(3)), None, "view {s} stale");
        }
        assert_eq!(r.stats().refreshes, 4);
    }
}
