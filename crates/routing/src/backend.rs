//! The routing-backend contract and the [`LinkState`] facade netsim
//! drives.
//!
//! [`RoutingBackend`] is the surface the flood paths consume — queries
//! (`next_hop`, `remaining_hops`, the converged-distance row access,
//! stats) and mutations (the churn/weight/geometry-diff repairs behind
//! `refresh_due_views` / `force_refresh*`). Two implementors exist:
//!
//! * [`ExactBackend`] — the historical flat-table
//!   machinery, moved behind the trait **byte-identically**: with
//!   `routing_backend = exact` every golden digest, event checksum and
//!   statistic is unchanged from before the refactor (the netsim golden
//!   and equivalence suites pin this);
//! * [`HierarchicalBackend`] — cluster
//!   routing with O(k·n) state; routes are lawful (loop-free, deliver
//!   whenever exact does, stretch bounded by the destination cluster's
//!   subgraph diameter) rather than byte-equal (see
//!   [`crate::hierarchy`]).
//!
//! [`LinkState`] wraps the two in an enum — static dispatch, so the
//! exact backend's per-packet `next_hop` array load gains one
//! predictable branch and no vtable call, and `Clone`/`Debug` compose
//! without boxing.

use crate::graph::Adjacency;
use crate::hierarchy::{ClusterSpec, HierarchicalBackend, HierarchyStats};
use crate::linkstate::{ExactBackend, RoutingStats};
use jtp_sim::{NodeId, SimDuration, SimTime};

/// The query/mutation surface a routing backend offers the engine's
/// flood paths (see the module docs for the two implementors and their
/// equivalence contracts).
pub trait RoutingBackend {
    /// Number of nodes.
    fn len(&self) -> usize;

    /// True when managing zero nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Advertise per-node forwarding weights (energy-aware routing), or
    /// `None` for plain hop counts. The hierarchical backend rejects
    /// `Some` weights (netsim's config validation makes the combination
    /// unrepresentable).
    fn set_node_weights(&mut self, weights: Option<Vec<u16>>);

    /// Refresh every view older than the refresh interval against
    /// `ground_truth` (the periodic advertisement path).
    fn refresh_due_views(&mut self, now: SimTime, ground_truth: &Adjacency);

    /// Force one node's view up to date immediately.
    fn force_refresh(&mut self, node: NodeId, now: SimTime, ground_truth: &Adjacency);

    /// Force every view up to date — a flooded advertisement.
    fn force_refresh_all(&mut self, now: SimTime, ground_truth: &Adjacency);

    /// Next hop from `from` toward `dst` in `from`'s own (possibly
    /// stale) view.
    fn next_hop(&self, from: NodeId, dst: NodeId) -> Option<NodeId>;

    /// Remaining-hops estimate from `from` to `dst` in `from`'s view
    /// (the `H_i` of eq. 4). Exact: the true distance. Hierarchical: an
    /// upper bound (distance-to-cluster + destination eccentricity).
    fn remaining_hops(&self, from: NodeId, dst: NodeId) -> Option<u32>;

    /// Row access against the backend's *converged* tables (the shared
    /// cache as of the last completed refresh, not a per-node view):
    /// exact shortest distance for [`ExactBackend`], the conservative
    /// route-length estimate for the hierarchical backend. Equivalence
    /// tests measure stretch against this.
    fn converged_distance(&self, from: NodeId, dst: NodeId) -> Option<u32>;

    /// Flood-plane diagnostics.
    fn stats(&self) -> RoutingStats;
}

impl RoutingBackend for ExactBackend {
    fn len(&self) -> usize {
        self.len()
    }
    fn set_node_weights(&mut self, weights: Option<Vec<u16>>) {
        self.set_node_weights(weights);
    }
    fn refresh_due_views(&mut self, now: SimTime, ground_truth: &Adjacency) {
        self.refresh_due_views(now, ground_truth);
    }
    fn force_refresh(&mut self, node: NodeId, now: SimTime, ground_truth: &Adjacency) {
        self.force_refresh(node, now, ground_truth);
    }
    fn force_refresh_all(&mut self, now: SimTime, ground_truth: &Adjacency) {
        self.force_refresh_all(now, ground_truth);
    }
    fn next_hop(&self, from: NodeId, dst: NodeId) -> Option<NodeId> {
        self.next_hop(from, dst)
    }
    fn remaining_hops(&self, from: NodeId, dst: NodeId) -> Option<u32> {
        self.remaining_hops(from, dst)
    }
    fn converged_distance(&self, from: NodeId, dst: NodeId) -> Option<u32> {
        self.converged_distance(from, dst)
    }
    fn stats(&self) -> RoutingStats {
        self.stats()
    }
}

impl RoutingBackend for HierarchicalBackend {
    fn len(&self) -> usize {
        self.len_impl()
    }
    fn set_node_weights(&mut self, weights: Option<Vec<u16>>) {
        self.set_node_weights_impl(weights);
    }
    fn refresh_due_views(&mut self, now: SimTime, ground_truth: &Adjacency) {
        self.refresh_due_views_impl(now, ground_truth);
    }
    fn force_refresh(&mut self, node: NodeId, now: SimTime, ground_truth: &Adjacency) {
        self.force_refresh_impl(node, now, ground_truth);
    }
    fn force_refresh_all(&mut self, now: SimTime, ground_truth: &Adjacency) {
        self.force_refresh_all_impl(now, ground_truth);
    }
    fn next_hop(&self, from: NodeId, dst: NodeId) -> Option<NodeId> {
        self.next_hop_impl(from, dst)
    }
    fn remaining_hops(&self, from: NodeId, dst: NodeId) -> Option<u32> {
        self.remaining_hops_impl(from, dst)
    }
    fn converged_distance(&self, from: NodeId, dst: NodeId) -> Option<u32> {
        self.converged_distance(from, dst)
    }
    fn stats(&self) -> RoutingStats {
        self.stats_impl()
    }
}

/// Which backend a run routes with (lowered from
/// `ExperimentConfig::routing_backend`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BackendSelect {
    /// The flat-table exact backend (the default; byte-identical to the
    /// pre-refactor engine).
    Exact,
    /// Hierarchical cluster routing with the given partition spec.
    Hierarchical(ClusterSpec),
}

#[derive(Clone, Debug)]
enum Imp {
    Exact(ExactBackend),
    Hier(HierarchicalBackend),
}

/// The routing facade the engine holds: the historical `LinkState` API,
/// now dispatching to the selected [`RoutingBackend`].
#[derive(Clone, Debug)]
pub struct LinkState {
    imp: Imp,
}

impl LinkState {
    /// The historical constructor: the exact backend, all views
    /// converged at t = 0.
    pub fn new(initial: &Adjacency, refresh_interval: SimDuration) -> Self {
        LinkState {
            imp: Imp::Exact(ExactBackend::new(initial, refresh_interval)),
        }
    }

    /// Construct with an explicit backend selection.
    pub fn with_backend(
        initial: &Adjacency,
        refresh_interval: SimDuration,
        select: &BackendSelect,
    ) -> Self {
        let imp = match select {
            BackendSelect::Exact => Imp::Exact(ExactBackend::new(initial, refresh_interval)),
            BackendSelect::Hierarchical(spec) => {
                Imp::Hier(HierarchicalBackend::new(initial, refresh_interval, spec))
            }
        };
        LinkState { imp }
    }

    /// Shared access to the selected backend through the trait.
    pub fn backend(&self) -> &dyn RoutingBackend {
        match &self.imp {
            Imp::Exact(b) => b,
            Imp::Hier(b) => b,
        }
    }

    fn backend_mut(&mut self) -> &mut dyn RoutingBackend {
        match &mut self.imp {
            Imp::Exact(b) => b,
            Imp::Hier(b) => b,
        }
    }

    /// Hierarchy diagnostics; `None` on the exact backend.
    pub fn hierarchy_stats(&self) -> Option<HierarchyStats> {
        match &self.imp {
            Imp::Exact(_) => None,
            Imp::Hier(b) => Some(b.hierarchy_stats()),
        }
    }

    /// The hierarchical backend, when selected (tests and the stretch
    /// bench reach cluster introspection through this).
    pub fn hierarchical(&self) -> Option<&HierarchicalBackend> {
        match &self.imp {
            Imp::Exact(_) => None,
            Imp::Hier(b) => Some(b),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.backend().len()
    }

    /// True when managing zero nodes.
    pub fn is_empty(&self) -> bool {
        self.backend().is_empty()
    }

    /// See [`RoutingBackend::set_node_weights`].
    pub fn set_node_weights(&mut self, weights: Option<Vec<u16>>) {
        self.backend_mut().set_node_weights(weights);
    }

    /// See [`RoutingBackend::refresh_due_views`].
    pub fn refresh_due_views(&mut self, now: SimTime, ground_truth: &Adjacency) {
        self.backend_mut().refresh_due_views(now, ground_truth);
    }

    /// See [`RoutingBackend::force_refresh`].
    pub fn force_refresh(&mut self, node: NodeId, now: SimTime, ground_truth: &Adjacency) {
        self.backend_mut().force_refresh(node, now, ground_truth);
    }

    /// See [`RoutingBackend::force_refresh_all`].
    pub fn force_refresh_all(&mut self, now: SimTime, ground_truth: &Adjacency) {
        self.backend_mut().force_refresh_all(now, ground_truth);
    }

    /// See [`RoutingBackend::next_hop`]. Statically dispatched — the
    /// exact backend's per-packet array load keeps its cost.
    #[inline]
    pub fn next_hop(&self, from: NodeId, dst: NodeId) -> Option<NodeId> {
        match &self.imp {
            Imp::Exact(b) => b.next_hop(from, dst),
            Imp::Hier(b) => b.next_hop_impl(from, dst),
        }
    }

    /// See [`RoutingBackend::remaining_hops`].
    #[inline]
    pub fn remaining_hops(&self, from: NodeId, dst: NodeId) -> Option<u32> {
        match &self.imp {
            Imp::Exact(b) => b.remaining_hops(from, dst),
            Imp::Hier(b) => b.remaining_hops_impl(from, dst),
        }
    }

    /// See [`RoutingBackend::converged_distance`].
    pub fn converged_distance(&self, from: NodeId, dst: NodeId) -> Option<u32> {
        self.backend().converged_distance(from, dst)
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

    /// See [`RoutingBackend::stats`].
    pub fn stats(&self) -> RoutingStats {
        self.backend().stats()
    }
}
