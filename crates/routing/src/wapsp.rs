//! Incremental node-weighted all-pairs shortest paths.
//!
//! Energy-aware routing re-floods a per-node weight vector on every
//! residual-energy advertisement, and substrate dynamics (churn, battery
//! death, partitions) edit the adjacency underneath it. The historical
//! path rebuilt the whole weighted distance table from scratch on every
//! such change — n × O(n²) selection Dijkstra, O(n³) per advertisement —
//! which is what made 100+-node lifetime runs collapse.
//!
//! [`WeightedApsp`] keeps the table alive across changes and repairs it
//! with a dynamic single-source update per row (Ramalingam–Reps style),
//! split into two exact phases per source:
//!
//! 1. an **increase pass** over the intermediate state (edges removed,
//!    weights raised): candidate nodes are popped in ascending old
//!    distance; a node keeps its old distance iff an *unaffected*
//!    neighbour still supports it (`d[u] + w[x] == d[x]`), otherwise it
//!    joins the affected region, which is then re-settled by a Dijkstra
//!    seeded from its unaffected boundary;
//! 2. a **decrease pass** applying added edges and lowered weights:
//!    a heap seeded with every directly-improved node relaxes outward,
//!    touching only nodes whose distance actually drops.
//!
//! Both phases compute *exact* shortest-path costs, and shortest-path
//! costs are unique values — so the repaired rows are **bit-identical**
//! to a from-scratch rebuild (pinned by tests and by the netsim
//! whole-run equivalence suite), and the flat next-hop table built from
//! them is byte-for-byte the table a from-scratch rebuild produces. The
//! cost per change is proportional to the affected region instead of n³.
//!
//! Cost model (matches the reference selection Dijkstra exactly): the cost
//! of a path is the sum of `weights[v]` over every node `v` *entered*
//! along it; the source itself is free. Weights must be ≥ 1.

use crate::graph::Adjacency;
use jtp_sim::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cost marker for unreachable pairs in weighted distance rows.
pub const UNREACHABLE_COST: u32 = u32::MAX;

/// Work counters for the incremental weighted-APSP maintenance.
#[derive(Clone, Copy, Debug, Default)]
pub struct WapspStats {
    /// Single-source from-scratch Dijkstra runs (initial builds).
    pub full_builds: u64,
    /// Source rows repaired incrementally instead of rebuilt.
    pub repaired_sources: u64,
    /// Nodes whose distance was re-settled across all repairs — the
    /// actual work done; compare with `repaired_sources × n` for the
    /// from-scratch cost it replaced.
    pub resettled: u64,
    /// Distance entries whose value actually changed across all repairs
    /// — exact per-entry dirt (every write is journaled with its
    /// original value and compared at the end of the row's repair), the
    /// true cost a flood's table update propagated downstream.
    pub entries_changed: u64,
}

/// The node-weighted all-pairs distance table, maintained incrementally.
///
/// Row `s` holds, for every destination `d`, the minimum over paths
/// `s → … → d` of the summed weights of entered nodes
/// ([`UNREACHABLE_COST`] when disconnected). Build one with
/// [`WeightedApsp::build`], keep it current with [`WeightedApsp::update`].
#[derive(Clone, Debug)]
pub struct WeightedApsp {
    n: usize,
    rows: Vec<Vec<u32>>,
    weights: Vec<u16>,
    stats: WapspStats,
}

/// Single-source node-weighted Dijkstra into a caller-provided row
/// (binary heap; O(m log n) instead of an O(n²) selection).
fn dijkstra_into(adj: &Adjacency, weights: &[u16], src: usize, row: &mut Vec<u32>) {
    let n = adj.len();
    row.clear();
    row.resize(n, UNREACHABLE_COST);
    row[src] = 0;
    let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
    heap.push(Reverse((0, src as u32)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > row[u as usize] {
            continue;
        }
        for &v in adj.neighbors(NodeId(u)) {
            let cand = d.saturating_add(weights[v.index()] as u32);
            if cand < row[v.index()] {
                row[v.index()] = cand;
                heap.push(Reverse((cand, v.0)));
            }
        }
    }
}

/// Reusable scratch for the per-source repairs: the affected/visited marks,
/// the touched log that un-marks them, and the candidate heap. Every
/// field is restored to its clean state at the end of each source's
/// repair, so a fresh scratch and a reused one produce identical rows.
struct RepairScratch {
    affected: Vec<bool>,
    visited: Vec<bool>,
    touched: Vec<usize>,
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    /// First-write journal: `(entry, original value)` per written entry
    /// (`logged` dedups), compared at the end of the repair for the
    /// exact changed-entry count.
    logged: Vec<bool>,
    log: Vec<(u32, u32)>,
}

impl RepairScratch {
    fn new(n: usize) -> Self {
        RepairScratch {
            affected: vec![false; n],
            visited: vec![false; n],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
            logged: vec![false; n],
            log: Vec::new(),
        }
    }
}

/// The shared (read-only) inputs of one [`WeightedApsp::update`] call,
/// bundled so the per-source repair is a free function.
struct RepairInputs<'a> {
    old_adj: &'a Adjacency,
    new_adj: &'a Adjacency,
    /// Intermediate weights for the increase pass: every weight at its
    /// higher value, so the pass sees increase-type changes only.
    w_mid: &'a [u32],
    new_weights: &'a [u16],
    raised: &'a [usize],
    lowered: &'a [usize],
    removed: &'a [(usize, usize)],
    added: &'a [(usize, usize)],
}

/// Repair one source row from `(old_adj, old weights)` to
/// `(new_adj, new_weights)` — the two exact phases described in the
/// module docs. Pure in `(inputs, s, row)`: no shared mutable state, no
/// RNG. Returns `(entries changed, nodes re-settled)` —
/// the entry count is exact: every write is journaled with the entry's
/// original value and compared once the repair settles, so writes that
/// restore the old value do not count.
fn repair_row(
    inp: &RepairInputs<'_>,
    s: usize,
    row: &mut [u32],
    scratch: &mut RepairScratch,
) -> (u64, u64) {
    let RepairScratch {
        affected,
        visited,
        touched,
        heap,
        logged,
        log,
    } = scratch;
    let mut resettled = 0u64;
    macro_rules! journal {
        ($idx:expr) => {{
            let i: usize = $idx;
            if !logged[i] {
                logged[i] = true;
                log.push((i as u32, row[i]));
            }
        }};
    }

    // ---- Phase 1: increase pass over (A_mid = old − removed, w_mid). A
    //      neighbour iteration over A_mid is "new-adjacency neighbours
    //      that were also present in the old adjacency" (edge-presence
    //      checks are O(1)).
    //
    // 1a. Identify the affected region: process candidates in ascending
    //     *old* distance; every potential supporter has a strictly
    //     smaller old distance (weights ≥ 1), so its affected/unaffected
    //     status is final when a node is examined.
    heap.clear();
    for &v in inp.raised {
        if v != s && row[v] != UNREACHABLE_COST {
            heap.push(Reverse((row[v], v as u32)));
        }
    }
    for &(a, b) in inp.removed {
        for x in [a, b] {
            if x != s && row[x] != UNREACHABLE_COST {
                heap.push(Reverse((row[x], x as u32)));
            }
        }
    }
    touched.clear();
    while let Some(Reverse((d, x))) = heap.pop() {
        let x = x as usize;
        if visited[x] {
            continue;
        }
        visited[x] = true;
        touched.push(x);
        let supported = inp.new_adj.neighbors(NodeId(x as u32)).iter().any(|&u| {
            inp.old_adj.has_edge(NodeId(x as u32), u)
                && !affected[u.index()]
                && row[u.index()] != UNREACHABLE_COST
                && row[u.index()].saturating_add(inp.w_mid[x]) == d
        });
        if supported {
            continue;
        }
        affected[x] = true;
        for &y in inp.new_adj.neighbors(NodeId(x as u32)) {
            let yi = y.index();
            if inp.old_adj.has_edge(NodeId(x as u32), y)
                && !visited[yi]
                && row[yi] != UNREACHABLE_COST
                && row[yi] > d
            {
                heap.push(Reverse((row[yi], y.0)));
            }
        }
    }
    // 1b. Re-settle the affected region: Dijkstra seeded from its
    //     unaffected boundary (whose distances are still exact).
    heap.clear();
    for &x in touched.iter() {
        if !affected[x] {
            continue;
        }
        let mut best = UNREACHABLE_COST;
        for &u in inp.new_adj.neighbors(NodeId(x as u32)) {
            if inp.old_adj.has_edge(NodeId(x as u32), u)
                && !affected[u.index()]
                && row[u.index()] != UNREACHABLE_COST
            {
                best = best.min(row[u.index()].saturating_add(inp.w_mid[x]));
            }
        }
        journal!(x);
        row[x] = best;
        if best != UNREACHABLE_COST {
            heap.push(Reverse((best, x as u32)));
        }
    }
    while let Some(Reverse((d, x))) = heap.pop() {
        let x = x as usize;
        if d > row[x] {
            continue;
        }
        resettled += 1;
        for &y in inp.new_adj.neighbors(NodeId(x as u32)) {
            let yi = y.index();
            if !affected[yi] || !inp.old_adj.has_edge(NodeId(x as u32), y) {
                continue;
            }
            let cand = d.saturating_add(inp.w_mid[yi]);
            if cand < row[yi] {
                journal!(yi);
                row[yi] = cand;
                heap.push(Reverse((cand, y.0)));
            }
        }
    }
    for &x in touched.iter() {
        affected[x] = false;
        visited[x] = false;
    }

    // ---- Phase 2: decrease pass to (new_adj, new_weights): added edges
    //      and lowered weights only improve distances; a seeded
    //      relaxation touches exactly the improved region.
    heap.clear();
    for &v in inp.lowered {
        if v == s {
            continue;
        }
        let mut best = UNREACHABLE_COST;
        for &u in inp.new_adj.neighbors(NodeId(v as u32)) {
            if row[u.index()] != UNREACHABLE_COST {
                best = best.min(row[u.index()].saturating_add(inp.new_weights[v] as u32));
            }
        }
        if best < row[v] {
            journal!(v);
            row[v] = best;
            heap.push(Reverse((best, v as u32)));
        }
    }
    for &(a, b) in inp.added {
        for (x, via) in [(a, b), (b, a)] {
            if x == s || row[via] == UNREACHABLE_COST {
                continue;
            }
            let cand = row[via].saturating_add(inp.new_weights[x] as u32);
            if cand < row[x] {
                journal!(x);
                row[x] = cand;
                heap.push(Reverse((cand, x as u32)));
            }
        }
    }
    while let Some(Reverse((d, x))) = heap.pop() {
        let x = x as usize;
        if d > row[x] {
            continue;
        }
        resettled += 1;
        for &y in inp.new_adj.neighbors(NodeId(x as u32)) {
            let yi = y.index();
            let cand = d.saturating_add(inp.new_weights[yi] as u32);
            if cand < row[yi] {
                journal!(yi);
                row[yi] = cand;
                heap.push(Reverse((cand, y.0)));
            }
        }
    }
    let mut entries = 0u64;
    for &(i, old) in log.iter() {
        let i = i as usize;
        if row[i] != old {
            entries += 1;
        }
        logged[i] = false;
    }
    log.clear();
    (entries, resettled)
}

impl WeightedApsp {
    /// Build the full table from scratch for `(adj, weights)`.
    ///
    /// # Panics
    /// Panics when the weight vector's length disagrees with the node
    /// count (a zero weight would also break the cost model; the
    /// link-state layer rejects those before they reach here).
    pub fn build(adj: &Adjacency, weights: &[u16]) -> Self {
        let n = adj.len();
        assert_eq!(weights.len(), n, "one weight per node");
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|s| {
                let mut row = Vec::new();
                dijkstra_into(adj, weights, s, &mut row);
                row
            })
            .collect();
        WeightedApsp {
            n,
            rows,
            weights: weights.to_vec(),
            stats: WapspStats {
                full_builds: n as u64,
                ..WapspStats::default()
            },
        }
    }

    /// The distance rows (row = source).
    pub fn rows(&self) -> &[Vec<u32>] {
        &self.rows
    }

    /// Work counters.
    pub fn stats(&self) -> WapspStats {
        self.stats
    }

    /// Repair the table from its current `(old_adj, old weights)` state to
    /// `(new_adj, new_weights)`. `edge_diff` must be
    /// `old_adj.diff_edges(new_adj)` — the caller already computes it for
    /// the hop-count table's incremental BFS, so it is passed in rather
    /// than recomputed. Rows end bit-identical to a from-scratch build.
    ///
    /// Returns one flag per source: `true` iff that row changed —
    /// **exact**, not a superset: every write is journaled against the
    /// entry's original value, so writes that restore the old value do
    /// not flag the row. The link-state layer uses this to re-derive
    /// only the next-hop rows whose inputs moved, and the per-entry
    /// count behind it ([`WapspStats::entries_changed`]) is the true
    /// repair cost flood events report.
    ///
    /// # Panics
    /// Panics when node counts disagree with the table.
    pub fn update(
        &mut self,
        old_adj: &Adjacency,
        new_adj: &Adjacency,
        edge_diff: &[(NodeId, NodeId, bool)],
        new_weights: &[u16],
    ) -> Vec<bool> {
        assert_eq!(old_adj.len(), self.n, "old adjacency size mismatch");
        assert_eq!(new_adj.len(), self.n, "new adjacency size mismatch");
        assert_eq!(new_weights.len(), self.n, "one weight per node");
        let old_weights = std::mem::replace(&mut self.weights, new_weights.to_vec());
        let w_mid: Vec<u32> = old_weights
            .iter()
            .zip(new_weights)
            .map(|(&o, &n)| o.max(n) as u32)
            .collect();
        let raised: Vec<usize> = (0..self.n)
            .filter(|&v| (old_weights[v] as u32) < w_mid[v])
            .collect();
        let lowered: Vec<usize> = (0..self.n)
            .filter(|&v| (new_weights[v] as u32) < w_mid[v])
            .collect();
        let removed: Vec<(usize, usize)> = edge_diff
            .iter()
            .filter(|&&(_, _, present)| !present)
            .map(|&(a, b, _)| (a.index(), b.index()))
            .collect();
        let added: Vec<(usize, usize)> = edge_diff
            .iter()
            .filter(|&&(_, _, present)| present)
            .map(|&(a, b, _)| (a.index(), b.index()))
            .collect();
        let mut changed = vec![false; self.n];
        if raised.is_empty() && lowered.is_empty() && removed.is_empty() && added.is_empty() {
            return changed;
        }
        let inp = RepairInputs {
            old_adj,
            new_adj,
            w_mid: &w_mid,
            new_weights,
            raised: &raised,
            lowered: &lowered,
            removed: &removed,
            added: &added,
        };
        let mut scratch = RepairScratch::new(self.n);
        for (s, row) in self.rows.iter_mut().enumerate() {
            let (entries, resettled) = repair_row(&inp, s, row, &mut scratch);
            self.stats.repaired_sources += 1;
            self.stats.resettled += resettled;
            self.stats.entries_changed += entries;
            changed[s] = entries > 0;
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jtp_sim::SimRng;

    /// Reference oracle: the O(n²) selection Dijkstra (the code path the
    /// incremental table replaced).
    fn selection_dijkstra(adj: &Adjacency, weights: &[u16], src: usize) -> Vec<u32> {
        let n = adj.len();
        let mut dist = vec![UNREACHABLE_COST; n];
        let mut done = vec![false; n];
        dist[src] = 0;
        loop {
            let mut best: Option<(u32, usize)> = None;
            for (v, &d) in dist.iter().enumerate() {
                if !done[v] && d != UNREACHABLE_COST && best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, v));
                }
            }
            let Some((du, u)) = best else { break };
            done[u] = true;
            for &v in adj.neighbors(NodeId(u as u32)) {
                let cand = du.saturating_add(weights[v.index()] as u32);
                if cand < dist[v.index()] {
                    dist[v.index()] = cand;
                }
            }
        }
        dist
    }

    fn assert_matches_scratch(ap: &WeightedApsp, adj: &Adjacency, weights: &[u16], what: &str) {
        for s in 0..adj.len() {
            assert_eq!(
                ap.rows()[s],
                selection_dijkstra(adj, weights, s),
                "{what}: row {s} diverged from from-scratch Dijkstra"
            );
        }
    }

    #[test]
    fn build_matches_selection_dijkstra() {
        let mut adj = Adjacency::linear(7);
        adj.set_edge(NodeId(0), NodeId(4), true);
        adj.set_edge(NodeId(2), NodeId(6), true);
        let w = [1u16, 5, 1, 2, 1, 9, 1];
        let ap = WeightedApsp::build(&adj, &w);
        assert_matches_scratch(&ap, &adj, &w, "fresh build");
    }

    #[test]
    fn weight_raise_and_lower_repair_exactly() {
        let mut adj = Adjacency::new(4);
        for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            adj.set_edge(NodeId(u), NodeId(v), true);
        }
        let mut w = vec![1u16; 4];
        let mut ap = WeightedApsp::build(&adj, &w);
        // Raise relay 1: traffic shifts to relay 2.
        w[1] = 8;
        ap.update(&adj, &adj, &[], &w);
        assert_matches_scratch(&ap, &adj, &w, "raise");
        assert_eq!(
            ap.rows()[0][3],
            2,
            "0→2→3 enters nodes 2 and 3 at cost 1 each"
        );
        // Lower it back below relay 2.
        w[1] = 1;
        w[2] = 4;
        ap.update(&adj, &adj, &[], &w);
        assert_matches_scratch(&ap, &adj, &w, "lower+raise mix");
    }

    #[test]
    fn edge_removal_and_addition_repair_exactly() {
        let mut old = Adjacency::linear(6);
        let w = [1u16, 2, 3, 1, 2, 1];
        let mut ap = WeightedApsp::build(&old, &w);
        // Remove a chain edge (disconnects) and add a shortcut.
        let mut new = old.clone();
        new.set_edge(NodeId(2), NodeId(3), false);
        new.set_edge(NodeId(0), NodeId(5), true);
        let diff = old.diff_edges(&new);
        ap.update(&old, &new, &diff, &w);
        assert_matches_scratch(&ap, &new, &w, "remove+add");
        // Heal the removed edge again.
        old = new.clone();
        new.set_edge(NodeId(2), NodeId(3), true);
        let diff = old.diff_edges(&new);
        ap.update(&old, &new, &diff, &w);
        assert_matches_scratch(&ap, &new, &w, "heal");
    }

    /// Randomised churn + energy sequences: every step flips a few edges
    /// and nudges a few weights; the repaired table must stay bit-equal
    /// to a from-scratch rebuild at every step (this is the routing-level
    /// equivalence pin the scale work rides on).
    #[test]
    fn random_churn_and_weight_sequences_match_scratch() {
        let mut rng = SimRng::derive(4242, "wapsp-churn");
        for n in [9usize, 16, 25] {
            let mut adj = Adjacency::linear(n);
            let mut w: Vec<u16> = (0..n).map(|_| 1 + rng.below(8) as u16).collect();
            let mut ap = WeightedApsp::build(&adj, &w);
            for step in 0..60 {
                let mut new = adj.clone();
                for _ in 0..1 + rng.below(3) {
                    let a = rng.below(n);
                    let b = rng.below(n);
                    if a != b {
                        let has = new.has_edge(NodeId(a as u32), NodeId(b as u32));
                        new.set_edge(NodeId(a as u32), NodeId(b as u32), !has);
                    }
                }
                for _ in 0..rng.below(4) {
                    let v = rng.below(n);
                    w[v] = 1 + rng.below(32) as u16;
                }
                let diff = adj.diff_edges(&new);
                let before = ap.rows().to_vec();
                let ec_before = ap.stats().entries_changed;
                let changed = ap.update(&adj, &new, &diff, &w);
                adj = new;
                assert_matches_scratch(&ap, &adj, &w, &format!("n={n} step={step}"));
                // The changed-rows report is exact: a row is flagged iff
                // its values actually moved (the hop-table row rebuild
                // relies on unflagged rows being untouched, and flood
                // events report the per-entry count as true repair cost).
                let mut moved = 0u64;
                for s in 0..n {
                    assert_eq!(
                        changed[s],
                        ap.rows()[s] != before[s],
                        "n={n} step={step}: row {s} flag is not exact"
                    );
                    moved += ap.rows()[s]
                        .iter()
                        .zip(before[s].iter())
                        .filter(|(a, b)| a != b)
                        .count() as u64;
                }
                assert_eq!(
                    ap.stats().entries_changed - ec_before,
                    moved,
                    "n={n} step={step}: entries_changed must count exactly \
                     the entries that moved"
                );
            }
            let st = ap.stats();
            assert!(st.repaired_sources > 0, "repairs must run");
            assert!(
                st.resettled < st.repaired_sources * n as u64,
                "repair must touch less than full rebuilds would (n={n}: \
                 resettled {} over {} source repairs)",
                st.resettled,
                st.repaired_sources
            );
        }
    }

    #[test]
    fn unreachable_components_connect_and_sever() {
        // Two islands; bridge them, then cut the bridge again.
        let mut old = Adjacency::new(6);
        for (u, v) in [(0, 1), (1, 2), (3, 4), (4, 5)] {
            old.set_edge(NodeId(u), NodeId(v), true);
        }
        let w = [1u16, 1, 2, 3, 1, 1];
        let mut ap = WeightedApsp::build(&old, &w);
        assert_eq!(ap.rows()[0][5], UNREACHABLE_COST);
        let mut new = old.clone();
        new.set_edge(NodeId(2), NodeId(3), true);
        ap.update(&old, &new, &old.diff_edges(&new), &w);
        assert_matches_scratch(&ap, &new, &w, "bridge");
        assert_ne!(ap.rows()[0][5], UNREACHABLE_COST);
        let back = old.clone();
        ap.update(&new, &back, &new.diff_edges(&back), &w);
        assert_matches_scratch(&ap, &back, &w, "sever");
        assert_eq!(ap.rows()[0][5], UNREACHABLE_COST);
    }

    #[test]
    fn no_change_is_a_cheap_no_op() {
        let adj = Adjacency::linear(5);
        let w = [1u16, 2, 3, 2, 1];
        let mut ap = WeightedApsp::build(&adj, &w);
        let before = ap.rows().to_vec();
        ap.update(&adj, &adj, &[], &w);
        assert_eq!(ap.rows(), &before[..]);
        assert_eq!(ap.stats().repaired_sources, 0, "no-op must not touch rows");
    }

    #[test]
    #[should_panic(expected = "one weight per node")]
    fn rejects_mismatched_weight_vector() {
        let adj = Adjacency::linear(3);
        WeightedApsp::build(&adj, &[1, 1]);
    }
}
