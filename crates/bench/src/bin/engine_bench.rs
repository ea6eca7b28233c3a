//! Engine throughput benchmark — the perf trajectory artifact.
//!
//! Measures the three layers of the event-engine overhaul and writes
//! `BENCH_engine.json` (see README "Benchmarks"):
//!
//! 1. **queue_ops** — pure event-queue operation throughput: the seed's
//!    `BinaryHeap + 2×HashSet` design (replicated below verbatim) vs the
//!    slab-indexed 4-ary-heap queue, on a hold-model workload with a
//!    cancel/reschedule mix.
//! 2. **slot_engine** — whole-simulator throughput (simulated seconds per
//!    wall second) on a fig5-scale scenario: naive slot-per-event engine
//!    vs idle-slot skipping. Results are byte-identical (tested in
//!    `engine_equivalence.rs`); only the wall clock differs.
//! 3. **batch** — a multi-seed fig5-scale batch: the seed's serial naive
//!    loop vs the overhauled engine with the parallel runner.
//! 4. **next_hop** — the per-packet forwarding decision: the historical
//!    neighbour scan over the shared distance table (replicated below)
//!    vs the flat per-view next-hop table (PR 2), which turns every
//!    query into one array load. Routes are identical; only the cost per
//!    forwarded packet changes.
//! 5. **scale** — the dynamics/energy-re-advertisement path at 100+
//!    nodes: incremental rebuilds (masked-truth edits + weighted-APSP
//!    repair) vs the legacy from-scratch rebuilds (O(n²) truth + O(n³)
//!    weighted Dijkstra per change), measured both at the routing
//!    component level and over a whole catalog-scale lifetime run.
//!    Results are byte-identical between modes (pinned by
//!    `engine_equivalence::incremental_rebuilds_identical_to_scratch_rebuilds`);
//!    only the wall clock differs.
//! 6. **mobility** — the per-tick cost of *moving* topologies at n ∈
//!    {64, 100, 256}: spatial-grid neighbour discovery vs the brute-force
//!    all-pairs scan, and the whole diffed tick (geometry diff +
//!    masked-truth patch + affected-region BFS repair + column-
//!    incremental next-hop rebuild) vs the scratch path. Byte-identical
//!    results (pinned by the `mobile` tests and
//!    `engine_equivalence::mobile_incremental_rebuilds_identical_to_scratch`);
//!    only the wall clock differs.
//!
//! Run: `cargo run --release -p jtp-bench --bin engine_bench -- --quick
//! --json BENCH_engine.json`. `--section <name>` (repeatable) restricts
//! the run to a named section — `queue_ops`, `slot_engine`, `batch`,
//! `next_hop`, `scale`, `mobility`, `events` or `xl` — and
//! **fails loudly** on an unknown name.

use jtp_bench::Args;
use jtp_events::{EventCounters, NoopSubscriber, Subscriber, TimeAccountant};
use jtp_netsim::runner::try_run_subscribed;
use jtp_netsim::topology::{
    adjacency_from_positions, adjacency_from_positions_brute, edges_from_positions, field_for,
    geometry_edge_diff, place_nodes,
};
use jtp_netsim::{
    cluster_spec_for, run_experiment, ExperimentConfig, FlowSpec, MaskedTruth, ReportRecorder,
    RoutingBackendKind, Scenario, TopologyKind, TraceConfig, TraceSubscriber, TransportKind,
};
use jtp_phys::mobility::MobilityModel;
use jtp_phys::{PathLoss, Point, RandomWaypoint};
use jtp_routing::{Adjacency, BackendSelect, LinkState, UNREACHABLE};
use jtp_sim::{EventQueue, NodeId, SimDuration, SimRng, SimTime};
use serde::Serialize;
use std::time::Instant;

/// Verbatim replica of the seed's event queue (pre-overhaul) so the
/// before/after comparison stays runnable forever.
mod baseline {
    use jtp_sim::SimTime;
    use std::cmp::Ordering;
    use std::collections::{BinaryHeap, HashSet};

    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    pub struct EventId(u64);

    struct Entry<E> {
        time: SimTime,
        seq: u64,
        #[allow(dead_code)] // the seed carried (and never set) this flag
        cancelled: bool,
        event: E,
    }

    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }
    impl<E> Eq for Entry<E> {}
    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .time
                .cmp(&self.time)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    pub struct BaselineQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        cancelled: HashSet<u64>,
        pending: HashSet<u64>,
        next_seq: u64,
        now: SimTime,
        popped: u64,
    }

    impl<E> BaselineQueue<E> {
        pub fn new() -> Self {
            BaselineQueue {
                heap: BinaryHeap::new(),
                cancelled: HashSet::new(),
                pending: HashSet::new(),
                next_seq: 0,
                now: SimTime::ZERO,
                popped: 0,
            }
        }

        pub fn now(&self) -> SimTime {
            self.now
        }

        pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
            assert!(at >= self.now);
            let seq = self.next_seq;
            self.next_seq += 1;
            self.pending.insert(seq);
            self.heap.push(Entry {
                time: at,
                seq,
                cancelled: false,
                event,
            });
            EventId(seq)
        }

        pub fn cancel(&mut self, id: EventId) -> bool {
            if !self.pending.remove(&id.0) {
                return false;
            }
            self.cancelled.insert(id.0)
        }

        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            while let Some(entry) = self.heap.pop() {
                if self.cancelled.remove(&entry.seq) {
                    continue;
                }
                self.pending.remove(&entry.seq);
                self.now = entry.time;
                self.popped += 1;
                return Some((entry.time, entry.event));
            }
            None
        }
    }
}

/// Hold-model workload: keep `fill` events pending; each step pops the
/// earliest and schedules a replacement; every third step also schedules
/// and immediately cancels a timer (the reschedule pattern the skipping
/// engine leans on). Identical op sequence for both queues.
struct Hold {
    state: u64,
}

impl Hold {
    fn new() -> Self {
        Hold { state: 0x9E37_79B9 }
    }

    fn next_offset(&mut self) -> u64 {
        // xorshift64* — cheap, identical sequence for both queues.
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        (self.state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) % 100_000
    }
}

fn bench_baseline_queue(fill: usize, steps: u64) -> f64 {
    let mut q = baseline::BaselineQueue::new();
    let mut rng = Hold::new();
    for i in 0..fill {
        q.schedule_at(SimTime::from_micros(rng.next_offset()), i as u64);
    }
    let start = Instant::now();
    for step in 0..steps {
        let (t, _) = q.pop().expect("hold model never drains");
        let at = SimTime::from_micros(t.as_micros() + rng.next_offset());
        q.schedule_at(at, step);
        if step % 3 == 0 {
            let id = q.schedule_at(at, u64::MAX);
            q.cancel(id);
        }
    }
    let wall = start.elapsed().as_secs_f64();
    std::hint::black_box(q.now());
    steps as f64 / wall
}

fn bench_indexed_queue(fill: usize, steps: u64) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = Hold::new();
    for i in 0..fill {
        q.schedule_at(SimTime::from_micros(rng.next_offset()), i as u64);
    }
    let start = Instant::now();
    for step in 0..steps {
        let (t, _) = q.pop().expect("hold model never drains");
        let at = SimTime::from_micros(t.as_micros() + rng.next_offset());
        q.schedule_at(at, step);
        if step % 3 == 0 {
            let id = q.schedule_at(at, u64::MAX);
            q.cancel(id);
        }
    }
    let wall = start.elapsed().as_secs_f64();
    std::hint::black_box(q.now());
    steps as f64 / wall
}

/// Fig. 5-scale scenario: 8-node chain, two long-lived competing flows.
fn fig5_scenario(seed: u64, duration_s: f64, skipping: bool) -> ExperimentConfig {
    let n = 8;
    let mut cfg = ExperimentConfig::linear(n)
        .transport(TransportKind::Jtp)
        .duration_s(duration_s)
        .seed(seed)
        .flow(FlowSpec {
            src: NodeId(0),
            dst: NodeId(n as u32 - 1),
            start: SimDuration::from_secs(50),
            packets: u32::MAX / 2,
            loss_tolerance: 1.0,
            initial_rate_pps: None,
        })
        .flow(FlowSpec {
            src: NodeId(0),
            dst: NodeId(n as u32 - 1),
            start: SimDuration::from_secs(50),
            packets: u32::MAX / 2,
            loss_tolerance: 0.0,
            initial_rate_pps: None,
        });
    cfg.idle_slot_skipping = skipping;
    cfg
}

fn time_runs(cfgs: &[ExperimentConfig]) -> f64 {
    let start = Instant::now();
    for cfg in cfgs {
        std::hint::black_box(run_experiment(cfg));
    }
    start.elapsed().as_secs_f64()
}

#[derive(Serialize)]
struct QueueOps {
    pending: usize,
    baseline_events_per_sec: f64,
    indexed_events_per_sec: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct SlotEngine {
    scenario: String,
    simulated_s: f64,
    legacy_wall_s: f64,
    overhauled_wall_s: f64,
    legacy_sim_s_per_wall_s: f64,
    overhauled_sim_s_per_wall_s: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct NextHopBench {
    nodes: usize,
    extra_edges: usize,
    queries: u64,
    scan_queries_per_sec: f64,
    cached_queries_per_sec: f64,
    speedup: f64,
}

/// Replica of the pre-PR-2 `next_hop`: scan the source's neighbours for
/// the one minimising `(distance-to-dst, id)` over the shared APSP table.
fn scan_next_hop(adj: &Adjacency, dist: &[Vec<u16>], from: NodeId, dst: NodeId) -> Option<NodeId> {
    if from == dst {
        return None;
    }
    let mut best: Option<(u16, NodeId)> = None;
    for &v in adj.neighbors(from) {
        let d = dist[v.index()][dst.index()];
        if d == UNREACHABLE {
            continue;
        }
        if best.is_none_or(|(bd, bid)| (d, v) < (bd, bid)) {
            best = Some((d, v));
        }
    }
    best.map(|(_, v)| v)
}

/// Next-hop decision throughput: historical neighbour scan vs the flat
/// per-view hop table, over an identical pseudo-random query stream on a
/// random connected graph.
fn bench_next_hop(nodes: usize, extra_edges: usize, queries: u64) -> NextHopBench {
    // Random connected graph: a shuffled spanning chain plus extra edges.
    let mut rng = SimRng::derive(2024, "nexthop-bench");
    let mut order: Vec<u32> = (0..nodes as u32).collect();
    rng.shuffle(&mut order);
    let mut adj = Adjacency::new(nodes);
    for w in order.windows(2) {
        adj.set_edge(NodeId(w[0]), NodeId(w[1]), true);
    }
    let mut added = 0;
    while added < extra_edges {
        let a = rng.below(nodes) as u32;
        let b = rng.below(nodes) as u32;
        if a != b && !adj.has_edge(NodeId(a), NodeId(b)) {
            adj.set_edge(NodeId(a), NodeId(b), true);
            added += 1;
        }
    }
    let dist = adj.all_pairs_distances();
    let ls = LinkState::new(&adj, SimDuration::from_secs(5));

    // Correctness cross-check on the full pair grid before timing.
    for s in 0..nodes as u32 {
        for d in 0..nodes as u32 {
            assert_eq!(
                ls.next_hop(NodeId(s), NodeId(d)),
                scan_next_hop(&adj, &dist, NodeId(s), NodeId(d)),
                "cache and scan disagree for {s}->{d}"
            );
        }
    }

    let mut stream = Hold::new();
    let mut pairs = Vec::with_capacity(4096);
    for _ in 0..4096 {
        let s = (stream.next_offset() % nodes as u64) as u32;
        let d = (stream.next_offset() % nodes as u64) as u32;
        pairs.push((NodeId(s), NodeId(d)));
    }

    let time_qps = |f: &dyn Fn(NodeId, NodeId) -> Option<NodeId>| {
        let mut sink = 0u64;
        // Warm.
        for &(s, d) in &pairs {
            sink ^= f(s, d).map_or(0, |v| v.0 as u64);
        }
        let start = Instant::now();
        for i in 0..queries {
            let (s, d) = pairs[(i % pairs.len() as u64) as usize];
            sink ^= f(s, d).map_or(0, |v| v.0 as u64);
        }
        let wall = start.elapsed().as_secs_f64();
        std::hint::black_box(sink);
        queries as f64 / wall
    };
    let scan_qps = time_qps(&|s, d| scan_next_hop(&adj, &dist, s, d));
    let cached_qps = time_qps(&|s, d| ls.next_hop(s, d));

    let out = NextHopBench {
        nodes,
        extra_edges,
        queries,
        scan_queries_per_sec: scan_qps,
        cached_queries_per_sec: cached_qps,
        speedup: cached_qps / scan_qps,
    };
    println!(
        "next-hop (n={nodes:>3})            : scan {scan_qps:>12.0} q/s | cached {cached_qps:>12.0} q/s | speedup {:.2}x",
        out.speedup
    );
    out
}

#[derive(Serialize)]
struct ScaleCell {
    scenario: String,
    nodes: usize,
    /// Substrate changes applied (advertisements + churn events, or the
    /// simulated seconds of the whole-run cells).
    work: String,
    scratch_wall_s: f64,
    incremental_wall_s: f64,
    speedup: f64,
}

/// One advertisement round of the synthetic drain model: node `i`'s
/// weight walks up through quantisation levels at its own rate and
/// stagger, so each round changes a *few* weights — the advert shape the
/// energy subsystem floods (levels are coarse precisely so that
/// re-floods stay rare; see `EnergyRoutingConfig`).
fn drained_weights(n: usize, round: u64, rounds: u64) -> Vec<u16> {
    (0..n)
        .map(|i| {
            let rate = 0.7 + (i % 16) as f64 / 24.0;
            let stagger = (i % 29) as f64 / 29.0;
            1 + ((round as f64 * rate / rounds as f64) * 4.0 - stagger)
                .max(0.0)
                .floor() as u16
        })
        .collect()
}

/// A `cols × rows` 4-connected lattice, optionally with one edge removed.
fn lattice_adj(cols: usize, rows: usize, blocked: Option<(u32, u32)>) -> Adjacency {
    let mut adj = Adjacency::new(cols * rows);
    for r in 0..rows {
        for c in 0..cols {
            let i = (r * cols + c) as u32;
            if c + 1 < cols {
                adj.set_edge(NodeId(i), NodeId(i + 1), true);
            }
            if r + 1 < rows {
                adj.set_edge(NodeId(i), NodeId(i + cols as u32), true);
            }
        }
    }
    if let Some((a, b)) = blocked {
        adj.set_edge(NodeId(a), NodeId(b), false);
    }
    adj
}

/// Routing-component cell: a `cols × rows` lattice under an interleaved
/// advertisement/churn sequence, timed once with the incremental
/// weighted-APSP repair and once with the legacy from-scratch rebuild.
/// Cross-checks a sample of next hops for equality before timing.
fn bench_scale_routing(cols: usize, rows: usize, rounds: u64) -> ScaleCell {
    let n = cols * rows;
    let grid = |blocked: Option<(u32, u32)>| lattice_adj(cols, rows, blocked);
    let base = grid(None);
    let flapped = grid(Some((n as u32 / 2, n as u32 / 2 + 1)));
    // Every 8th round a link near the middle flaps (the churn shape);
    // every round re-advertises the drained weight vector. Weight vectors
    // are precomputed so the timed loop measures the *flood handling*,
    // not the advert synthesis.
    let weights: Vec<Vec<u16>> = (0..rounds).map(|r| drained_weights(n, r, rounds)).collect();
    let run_mode = |full_rebuild: bool| -> f64 {
        let mut ls = LinkState::new(&base, SimDuration::from_secs(5));
        ls.set_full_weighted_rebuild(full_rebuild);
        let start = Instant::now();
        for round in 0..rounds {
            let truth = if round % 8 == 4 { &flapped } else { &base };
            ls.set_node_weights(Some(weights[round as usize].clone()));
            ls.force_refresh_all(SimTime::from_secs_f64(round as f64 + 1.0), truth);
            std::hint::black_box(ls.next_hop(NodeId(0), NodeId(n as u32 - 1)));
        }
        start.elapsed().as_secs_f64()
    };
    // Correctness spot-check: both modes must route identically after an
    // advert + churn round.
    {
        let mut a = LinkState::new(&base, SimDuration::from_secs(5));
        let mut b = LinkState::new(&base, SimDuration::from_secs(5));
        b.set_full_weighted_rebuild(true);
        for (round, truth) in [(1u64, grid(None)), (2, grid(Some((4, 5))))] {
            for ls in [&mut a, &mut b] {
                ls.set_node_weights(Some(drained_weights(n, round * 7, rounds)));
                ls.force_refresh_all(SimTime::from_secs_f64(round as f64), &truth);
            }
            for s in (0..n as u32).step_by(7) {
                for d in (0..n as u32).step_by(5) {
                    assert_eq!(
                        a.next_hop(NodeId(s), NodeId(d)),
                        b.next_hop(NodeId(s), NodeId(d)),
                        "modes disagree for {s}->{d}"
                    );
                }
            }
        }
    }
    run_mode(false); // warm
    let best_of_2 = |full: bool, f: &dyn Fn(bool) -> f64| f(full).min(f(full));
    let scratch = best_of_2(true, &run_mode);
    let incremental = best_of_2(false, &run_mode);
    let out = ScaleCell {
        scenario: format!("routing: {cols}x{rows} grid advert+churn"),
        nodes: n,
        work: format!("{rounds} advert rounds, link flap every 8th"),
        scratch_wall_s: scratch,
        incremental_wall_s: incremental,
        speedup: scratch / incremental,
    };
    println!(
        "scale routing ({n:>3} nodes)       : scratch {scratch:>8.3}s | incremental {incremental:>8.3}s | speedup {:.2}x",
        out.speedup
    );
    out
}

/// Whole-run cell: the catalog's 100+-node lifetime scenario (batteries,
/// energy-aware routing, deaths flooding refreshes) run end to end in
/// both rebuild modes. Metrics are asserted identical before reporting.
fn bench_scale_run(name: &str) -> ScaleCell {
    let sc = Scenario::catalog()
        .into_iter()
        .find(|s| s.name == name)
        .expect("catalog scale entry");
    // Always the full horizon: the rebuild storm is the death cascade in
    // the run's second half — truncating it would measure idle slots.
    let mut cfg = sc.build(TransportKind::Jtp);
    let nodes = cfg.topology.node_count();
    cfg.incremental_rebuilds = true;
    let m_inc = run_experiment(&cfg); // warm
    let time_best_of_2 = |cfg: &ExperimentConfig| {
        (0..2)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(run_experiment(cfg));
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let incremental = time_best_of_2(&cfg);
    cfg.incremental_rebuilds = false;
    let m_scratch = run_experiment(&cfg);
    let scratch = time_best_of_2(&cfg);
    assert_eq!(
        serde_json::to_string(&m_scratch).unwrap(),
        serde_json::to_string(&m_inc).unwrap(),
        "rebuild modes diverged"
    );
    let out = ScaleCell {
        scenario: format!("run: {name} (JTP)"),
        nodes,
        work: format!(
            "{:.0} simulated s, full lifetime",
            cfg.duration.as_secs_f64()
        ),
        scratch_wall_s: scratch,
        incremental_wall_s: incremental,
        speedup: scratch / incremental,
    };
    println!(
        "scale run {name:<22}: scratch {scratch:>8.3}s | incremental {incremental:>8.3}s | speedup {:.2}x",
        out.speedup
    );
    out
}

/// A deterministic sequence of waypoint-evolved position frames over a
/// `cols × rows` grid placement (1 s ticks, paper-style leg/pause
/// structure), precomputed so the timed loops measure geometry/repair
/// work only, never the mobility model itself.
fn waypoint_frames(
    cols: usize,
    rows: usize,
    ticks: u64,
) -> (Vec<Point>, Vec<Vec<Point>>, PathLoss) {
    let kind = TopologyKind::Grid {
        cols,
        rows,
        spacing_m: 80.0,
    };
    let pl = PathLoss::javelen_default();
    let field = field_for(&kind);
    let start = place_nodes(&kind, &pl, 7);
    // The catalog's mobility regime (`.mobile(1.0)`: 1 m/s, 47 m legs,
    // 100 s pauses, 1 s ticks) — ~1–3 links flip per tick, which is the
    // workload the diffed path is built for.
    let mut walkers: Vec<RandomWaypoint> = start
        .iter()
        .enumerate()
        .map(|(i, &p)| RandomWaypoint::new(field, p, 1.0, 47.0, 100.0, 77, i as u64))
        .collect();
    let frames: Vec<Vec<Point>> = (1..=ticks)
        .map(|t| {
            let now = SimTime::from_secs_f64(t as f64);
            walkers.iter_mut().map(|w| w.position_at(now)).collect()
        })
        .collect();
    (start, frames, pl)
}

/// Mobility geometry cell: per-tick neighbour discovery **as each
/// engine runs it** — the diffed engine's spatial-grid pass producing
/// the sorted in-range edge list (it never builds a graph per tick) vs
/// the scratch engine's brute-force all-pairs scan producing a full
/// `Adjacency` — over an identical waypoint trajectory. The comparison
/// deliberately includes each side's output-shape cost, because that is
/// the cost the respective engine pays; the pure candidate-set
/// equivalence (grid-backed `Adjacency` == brute `Adjacency`) is pinned
/// by assertion on sampled frames before timing and by the
/// `spatial_grid_matches_brute_force` proptest.
fn bench_mobility_geometry(cols: usize, rows: usize, ticks: u64) -> ScaleCell {
    let (_, frames, pl) = waypoint_frames(cols, rows, ticks);
    let n = cols * rows;
    for f in frames.iter().step_by((ticks as usize / 8).max(1)) {
        assert_eq!(
            adjacency_from_positions(f, &pl),
            adjacency_from_positions_brute(f, &pl),
            "grid and brute adjacency diverged"
        );
    }
    let time_brute = || {
        let start = Instant::now();
        for f in &frames {
            std::hint::black_box(adjacency_from_positions_brute(f, &pl).len());
        }
        start.elapsed().as_secs_f64()
    };
    // The grid side times the production per-tick shape: the sorted
    // in-range edge list (no graph construction).
    let time_grid = || {
        let start = Instant::now();
        for f in &frames {
            std::hint::black_box(edges_from_positions(f, &pl).len());
        }
        start.elapsed().as_secs_f64()
    };
    time_grid(); // warm
    let best_of_3 = |f: &dyn Fn() -> f64| f().min(f()).min(f());
    let brute = best_of_3(&time_brute);
    let grid = best_of_3(&time_grid);
    let out = ScaleCell {
        scenario: format!("geometry: {cols}x{rows} waypoint ticks"),
        nodes: n,
        work: format!(
            "{ticks} ticks, grid edge-list pass (diffed engine) vs \
             brute adjacency scan (scratch engine)"
        ),
        scratch_wall_s: brute,
        incremental_wall_s: grid,
        speedup: brute / grid,
    };
    println!(
        "mobility geometry ({n:>3} nodes)   : brute {brute:>8.3}s | grid {grid:>8.3}s | speedup {:.2}x",
        out.speedup
    );
    out
}

/// Mobility repair cell: the **whole diffed tick** under a per-tick
/// flooded refresh (the worst case for the repair machinery — the
/// production engine refreshes views at most every 5 s, where the
/// incremental side amortises even better) — neighbour discovery,
/// geometry-diff application to the masked truth, affected-region BFS
/// repair and the entry-incremental next-hop rebuild — vs the scratch
/// path (brute scan, whole-truth rebuild, full BFS rows, full table
/// builds). Next hops are cross-checked between modes before timing.
fn bench_mobility_repair(cols: usize, rows: usize, ticks: u64) -> ScaleCell {
    let (start_pts, frames, pl) = waypoint_frames(cols, rows, ticks);
    let n = cols * rows;
    let run_mode = |incremental: bool| -> f64 {
        let mut truth = MaskedTruth::new(adjacency_from_positions(&start_pts, &pl));
        let mut ls = LinkState::new(truth.adjacency(), SimDuration::from_secs(5));
        ls.set_full_table_rebuild(!incremental);
        let t0 = Instant::now();
        for (i, f) in frames.iter().enumerate() {
            if incremental {
                let edges = edges_from_positions(f, &pl);
                let diff = geometry_edge_diff(truth.geometry(), &edges);
                truth.apply_geometry_diff(&diff);
            } else {
                truth.set_geometry(adjacency_from_positions_brute(f, &pl));
            }
            ls.force_refresh_all(SimTime::from_secs_f64((i + 1) as f64), truth.adjacency());
            std::hint::black_box(ls.next_hop(NodeId(0), NodeId(n as u32 - 1)));
        }
        t0.elapsed().as_secs_f64()
    };
    // Correctness spot-check: both modes must route identically after
    // every tick of a short prefix.
    {
        let mut a_truth = MaskedTruth::new(adjacency_from_positions(&start_pts, &pl));
        let mut b_truth = a_truth.clone();
        let mut a = LinkState::new(a_truth.adjacency(), SimDuration::from_secs(5));
        let mut b = LinkState::new(b_truth.adjacency(), SimDuration::from_secs(5));
        b.set_full_table_rebuild(true);
        for (i, f) in frames.iter().take(12).enumerate() {
            let edges = edges_from_positions(f, &pl);
            let diff = geometry_edge_diff(a_truth.geometry(), &edges);
            a_truth.apply_geometry_diff(&diff);
            b_truth.set_geometry(adjacency_from_positions_brute(f, &pl));
            assert_eq!(a_truth.adjacency(), b_truth.adjacency());
            let now = SimTime::from_secs_f64((i + 1) as f64);
            a.force_refresh_all(now, a_truth.adjacency());
            b.force_refresh_all(now, b_truth.adjacency());
            for s in (0..n as u32).step_by(7) {
                for d in (0..n as u32).step_by(5) {
                    assert_eq!(
                        a.next_hop(NodeId(s), NodeId(d)),
                        b.next_hop(NodeId(s), NodeId(d)),
                        "modes disagree for {s}->{d} at tick {i}"
                    );
                }
            }
        }
    }
    run_mode(true); // warm
    let best_of_3 = |m: bool| run_mode(m).min(run_mode(m)).min(run_mode(m));
    let scratch = best_of_3(false);
    let incremental = best_of_3(true);
    let out = ScaleCell {
        scenario: format!("repair: {cols}x{rows} waypoint tick end-to-end"),
        nodes: n,
        work: format!("{ticks} ticks, diffed truth+BFS repair vs scratch"),
        scratch_wall_s: scratch,
        incremental_wall_s: incremental,
        speedup: scratch / incremental,
    };
    println!(
        "mobility repair ({n:>3} nodes)     : scratch {scratch:>8.3}s | incremental {incremental:>8.3}s | speedup {:.2}x",
        out.speedup
    );
    out
}

/// Event-layer overhead on the sparse-load engine workload: the same
/// run under the disabled subscriber (every emission site compiled
/// out), the default reception trace (the pre-event-layer hot path),
/// pure event counters, and the full report stack with wall-clock
/// spans.
#[derive(Serialize)]
struct EventsCell {
    scenario: String,
    simulated_s: f64,
    /// `NoopSubscriber`: emission sites monomorphized away.
    noop_wall_s: f64,
    /// `TraceSubscriber` with the default (all-off) trace config — what
    /// every untraced run paid before the event layer existed.
    trace_default_wall_s: f64,
    /// `EventCounters`: every event built and folded into counters.
    counters_wall_s: f64,
    /// Reception trace + report recorder + time accountant (the
    /// `scenario_report` stack, dispatch spans included).
    full_stack_wall_s: f64,
    /// Noop vs the pre-event-layer hot path, in percent — the zero-cost
    /// claim (≤ 1 % is the acceptance bar; negative = noop is faster).
    noop_overhead_pct: f64,
}

fn bench_events(sim_s: f64) -> EventsCell {
    let cfg = fig9_scenario(500, sim_s);
    fn one_run<S: Subscriber, F: Fn() -> S>(cfg: &ExperimentConfig, mk: F) -> f64 {
        let start = Instant::now();
        std::hint::black_box(try_run_subscribed(cfg, mk()).expect("scenario runs"));
        start.elapsed().as_secs_f64()
    }
    // A single run is well under a second, where host noise — frequency
    // scaling, noisy neighbours — swamps the effect being measured. Warm
    // once per stack (allocator, caches), then interleave the four
    // subscriber stacks at single-run granularity and keep each stack's
    // minimum, so drift hits all stacks alike instead of biasing whichever
    // happened to run last.
    const ROUNDS: usize = 12;
    let (mut noop, mut trace_default, mut counters, mut full) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for round in 0..=ROUNDS {
        let n = one_run(&cfg, || NoopSubscriber);
        let t = one_run(&cfg, || TraceSubscriber::new(TraceConfig::default()));
        let c = one_run(&cfg, EventCounters::default);
        let f = one_run(&cfg, || {
            (
                TraceSubscriber::new(TraceConfig {
                    receptions: true,
                    ..Default::default()
                }),
                (ReportRecorder::new(), TimeAccountant::default()),
            )
        });
        if round > 0 {
            // Round 0 is the warm-up pass.
            noop = noop.min(n);
            trace_default = trace_default.min(t);
            counters = counters.min(c);
            full = full.min(f);
        }
    }
    let cell = EventsCell {
        scenario: "fig9: random25 sparse load (JTP)".into(),
        simulated_s: sim_s,
        noop_wall_s: noop,
        trace_default_wall_s: trace_default,
        counters_wall_s: counters,
        full_stack_wall_s: full,
        noop_overhead_pct: (noop / trace_default - 1.0) * 100.0,
    };
    println!(
        "events fig9 ({sim_s:.0}s sim)        : noop {noop:>8.3}s | trace-off {trace_default:>8.3}s | counters {counters:>8.3}s | full stack {full:>8.3}s | noop overhead {:+.2}%",
        cell.noop_overhead_pct
    );
    cell
}

#[derive(Serialize)]
struct Batch {
    scenario: String,
    seeds: usize,
    threads: usize,
    legacy_serial_wall_s: f64,
    overhauled_parallel_wall_s: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct Report {
    quick: bool,
    queue_workload: String,
    queue_ops: Vec<QueueOps>,
    slot_engine: Vec<SlotEngine>,
    batch: Option<Batch>,
    next_hop: Vec<NextHopBench>,
    /// 100+-node dynamics/energy-re-advertisement path: incremental
    /// rebuilds vs the legacy from-scratch rebuilds (byte-identical
    /// results, see `engine_equivalence`).
    scale: Vec<ScaleCell>,
    /// Mobile-topology per-tick path at n ∈ {64, 100, 256}: spatial-grid
    /// vs brute-force neighbour discovery, and the diffed
    /// truth+BFS-repair tick vs the scratch rebuilds (byte-identical
    /// results, see the `mobile` tests).
    mobility: Vec<ScaleCell>,
    /// Event/telemetry layer overhead on the sparse-load workload:
    /// disabled subscriber vs the pre-event-layer hot path vs counting
    /// and full-report stacks (byte-identical results, see
    /// `subscriber_equivalence` and the fuzz oracle).
    events: Vec<EventsCell>,
}

/// Configure a scenario as the pre-overhaul engine (slot-per-event loop,
/// uncoalesced wakeup chains) or the overhauled one.
fn engine_mode(cfg: &mut ExperimentConfig, overhauled: bool) {
    cfg.idle_slot_skipping = overhauled;
    cfg.wakeup_coalescing = overhauled;
}

/// Fig. 9-style scenario: 25-node random field, sparse long-lived load —
/// the workload class behind the paper's random-topology figures.
fn fig9_scenario(seed: u64, duration_s: f64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::random(25)
        .transport(TransportKind::Jtp)
        .duration_s(duration_s)
        .seed(seed);
    for (i, (s, d)) in [(0u32, 14u32), (8, 20)].iter().enumerate() {
        cfg = cfg.flow(FlowSpec {
            src: NodeId(*s),
            dst: NodeId(*d),
            start: SimDuration::from_secs(10 + i as u64 * 5),
            packets: u32::MAX / 2,
            loss_tolerance: 1.0,
            initial_rate_pps: None,
        });
    }
    cfg
}

fn bench_slot_engine(
    name: &str,
    mut mk: impl FnMut(u64, f64) -> ExperimentConfig,
    sim_s: f64,
) -> SlotEngine {
    let mut legacy = mk(500, sim_s);
    engine_mode(&mut legacy, false);
    let mut fast = mk(500, sim_s);
    engine_mode(&mut fast, true);
    // Warm (allocator, caches), then measure.
    time_runs(std::slice::from_ref(&fast));
    let legacy_wall = time_runs(std::slice::from_ref(&legacy));
    let fast_wall = time_runs(std::slice::from_ref(&fast));
    let out = SlotEngine {
        scenario: name.to_string(),
        simulated_s: sim_s,
        legacy_wall_s: legacy_wall,
        overhauled_wall_s: fast_wall,
        legacy_sim_s_per_wall_s: sim_s / legacy_wall,
        overhauled_sim_s_per_wall_s: sim_s / fast_wall,
        speedup: legacy_wall / fast_wall,
    };
    println!(
        "engine {name:<28}: legacy {legacy_wall:>8.3}s | overhauled {fast_wall:>8.3}s | speedup {:.2}x",
        out.speedup
    );
    out
}

// ----------------------------------------------------------------------
// xl: the 1000+-node family — exact vs hierarchical routing backend
// ----------------------------------------------------------------------

#[derive(Serialize)]
struct XlStateCell {
    scenario: String,
    nodes: usize,
    clusters: u64,
    /// Flat per-view tables: n² distance entries (the O(n²) wall).
    exact_table_entries: u64,
    /// Σ|C|² intra-cluster entries + k·n summary rows.
    hierarchical_table_entries: u64,
    /// exact / hierarchical — the state-compression factor.
    compression: f64,
}

#[derive(Serialize)]
struct XlRepairCell {
    scenario: String,
    nodes: usize,
    /// Node-churn rounds applied (fail + recover alternating).
    churn_rounds: u64,
    exact_wall_s: f64,
    hierarchical_wall_s: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct XlRunCell {
    scenario: String,
    nodes: usize,
    simulated_s: f64,
    exact_wall_s: f64,
    hierarchical_wall_s: f64,
    speedup: f64,
    exact_delivered: u64,
    hierarchical_delivered: u64,
}

#[derive(Serialize)]
struct XlSection {
    /// Routing-state footprint, exact vs hierarchical, per xl entry.
    state: Vec<XlStateCell>,
    /// Churn flood-repair cost on the xl placements: identical
    /// fail/recover sequences through both backends.
    repair: Vec<XlRepairCell>,
    /// Whole-run wall clock of an xl catalog entry under each backend.
    whole_run: Vec<XlRunCell>,
}

/// Routing-state footprint of both backends on an xl placement. Exact
/// is n² by construction; the hierarchical figure is computed from the
/// backend's *actual* clusters (Σ|C|² intra tables + k rows of n
/// toward/dc entries).
fn bench_xl_state(sc: &Scenario) -> XlStateCell {
    let cfg = sc.build(TransportKind::Jtp);
    let pts = place_nodes(&cfg.topology, &cfg.pathloss, cfg.seed);
    let adj = adjacency_from_positions(&pts, &cfg.pathloss);
    let n = adj.len();
    let select = BackendSelect::Hierarchical(cluster_spec_for(&cfg.topology));
    let hier = LinkState::with_backend(&adj, cfg.routing_refresh, &select);
    let back = hier.hierarchical().expect("hierarchical selected");
    let stats = back.hierarchy_stats();
    let mut sizes = vec![0u64; stats.clusters as usize];
    for v in 0..n {
        sizes[back.cluster_id(NodeId(v as u32)) as usize] += 1;
    }
    let intra: u64 = sizes.iter().map(|s| s * s).sum();
    let summary = stats.clusters * n as u64;
    let out = XlStateCell {
        scenario: sc.name.clone(),
        nodes: n,
        clusters: stats.clusters,
        exact_table_entries: (n * n) as u64,
        hierarchical_table_entries: intra + summary,
        compression: (n * n) as f64 / (intra + summary) as f64,
    };
    println!(
        "xl state {:<22}: exact {:>10} entries | hierarchical {:>9} entries | compression {:.1}x",
        out.scenario, out.exact_table_entries, out.hierarchical_table_entries, out.compression
    );
    out
}

/// Churn flood-repair cost on an xl placement: alternate a mid-field
/// node failing and recovering, flooding a full refresh each round,
/// through both backends on the identical adjacency sequence. This is
/// the repair path every NodeChurn dynamics event exercises; at 1000+
/// nodes the hierarchical backend must win (cluster-scoped repair vs
/// O(n)-row floods) — asserted, not just reported.
fn bench_xl_repair(sc: &Scenario, rounds: u64) -> XlRepairCell {
    let cfg = sc.build(TransportKind::Jtp);
    let pts = place_nodes(&cfg.topology, &cfg.pathloss, cfg.seed);
    let base = adjacency_from_positions(&pts, &cfg.pathloss);
    let n = base.len();
    // The churned variant: a node near the field centre loses every
    // link (exactly what a NodeChurn failure does to the truth).
    let victim = NodeId(n as u32 / 2);
    let mut failed = base.clone();
    for nbr in base.neighbors(victim).to_vec() {
        failed.set_edge(victim, nbr, false);
    }
    let select = BackendSelect::Hierarchical(cluster_spec_for(&cfg.topology));
    let run_mode = |hier: bool| -> f64 {
        let mut ls = if hier {
            LinkState::with_backend(&base, cfg.routing_refresh, &select)
        } else {
            LinkState::new(&base, cfg.routing_refresh)
        };
        let start = Instant::now();
        for round in 0..rounds {
            let truth = if round % 2 == 0 { &failed } else { &base };
            ls.force_refresh_all(SimTime::from_secs_f64(round as f64 + 1.0), truth);
            std::hint::black_box(ls.next_hop(NodeId(0), NodeId(n as u32 - 1)));
        }
        start.elapsed().as_secs_f64()
    };
    run_mode(true); // warm
    let best_of_2 = |hier: bool| run_mode(hier).min(run_mode(hier));
    let exact = best_of_2(false);
    let hier_wall = best_of_2(true);
    let out = XlRepairCell {
        scenario: sc.name.clone(),
        nodes: n,
        churn_rounds: rounds,
        exact_wall_s: exact,
        hierarchical_wall_s: hier_wall,
        speedup: exact / hier_wall,
    };
    println!(
        "xl repair {:<21}: exact {exact:>8.3}s | hierarchical {hier_wall:>8.3}s | speedup {:.2}x",
        out.scenario, out.speedup
    );
    assert!(
        out.speedup > 1.0,
        "hierarchical repair must win at n = {n} (exact {exact:.3}s vs {hier_wall:.3}s)"
    );
    out
}

/// Whole-run wall clock of an xl catalog entry under each backend: the
/// same scenario lowered once with `routing_backend = Exact` and once
/// `Hierarchical`. Delivered counts are reported for both (routes
/// differ across backends, so metrics legitimately differ); at 1000+
/// nodes the hierarchical run must be faster — asserted.
fn bench_xl_run(sc: &Scenario, best_of: usize) -> XlRunCell {
    let nodes = sc.topology.node_count();
    let time_backend = |kind: RoutingBackendKind| -> (f64, u64) {
        let cfg = sc.clone().routing_backend(kind).build(TransportKind::Jtp);
        let m = run_experiment(&cfg); // warm + metrics
        let wall = (0..best_of)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(run_experiment(&cfg));
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        (wall, m.delivered_packets)
    };
    let (hier_wall, hier_delivered) = time_backend(RoutingBackendKind::Hierarchical);
    let (exact_wall, exact_delivered) = time_backend(RoutingBackendKind::Exact);
    let out = XlRunCell {
        scenario: sc.name.clone(),
        nodes,
        simulated_s: sc.duration_s,
        exact_wall_s: exact_wall,
        hierarchical_wall_s: hier_wall,
        speedup: exact_wall / hier_wall,
        exact_delivered,
        hierarchical_delivered: hier_delivered,
    };
    println!(
        "xl run {:<24}: exact {exact_wall:>8.3}s | hierarchical {hier_wall:>8.3}s | speedup {:.2}x",
        out.scenario, out.speedup
    );
    assert!(
        out.speedup > 1.0,
        "hierarchical whole-run must win at n = {nodes} (exact {exact_wall:.3}s vs {hier_wall:.3}s)"
    );
    out
}

fn main() {
    // An unknown `--section` is a hard error at parse time — a CI job
    // gating on a renamed section must fail, not upload an artifact
    // without it.
    let args = Args::parse_with_sections(&[
        "queue_ops",
        "slot_engine",
        "batch",
        "next_hop",
        "scale",
        "mobility",
        "events",
        "xl",
    ]);

    // 1. Pure queue-op throughput at simulation-realistic and stress
    //    pending-set sizes.
    let mut queue_ops = Vec::new();
    if args.section_enabled("queue_ops") {
        let steps: u64 = args.pick(4_000_000, 800_000);
        for fill in [48usize, 4096] {
            bench_baseline_queue(fill, steps / 10); // warm
            bench_indexed_queue(fill, steps / 10);
            let base_eps = bench_baseline_queue(fill, steps);
            let idx_eps = bench_indexed_queue(fill, steps);
            let row = QueueOps {
                pending: fill,
                baseline_events_per_sec: base_eps,
                indexed_events_per_sec: idx_eps,
                speedup: idx_eps / base_eps,
            };
            println!(
                "queue ops (fill {fill:>4})          : baseline {base_eps:>12.0} ev/s | indexed {idx_eps:>12.0} ev/s | speedup {:.2}x",
                row.speedup
            );
            queue_ops.push(row);
        }
    }

    // 2. Whole-engine throughput: pre-overhaul engine (slot-per-event,
    //    uncoalesced wakeups) vs the overhauled engine. Results of the two
    //    engines are deterministic per mode; idle-slot skipping itself is
    //    byte-identical (see tests/engine_equivalence.rs).
    let mut slot_engine = Vec::new();
    if args.section_enabled("slot_engine") {
        let sim_s = args.pick(5000.0, 1500.0);
        slot_engine = vec![
            bench_slot_engine("fig9: random25 sparse load", fig9_scenario, sim_s),
            bench_slot_engine(
                "fig5: linear8 saturated",
                |seed, d| fig5_scenario(seed, d, true),
                args.pick(2500.0, 800.0),
            ),
        ];
    }

    // 3. Multi-seed batch at fig5 scale: legacy engine run serially (the
    //    pre-overhaul harness) vs the overhauled engine through the
    //    work-stealing parallel runner.
    let mut batch = None;
    if args.section_enabled("batch") {
        let seeds: usize = args.pick(12, 4);
        let batch_sim_s = args.pick(2500.0, 800.0);
        let legacy: Vec<ExperimentConfig> = (0..seeds)
            .map(|i| {
                let mut c = fig5_scenario(500 + i as u64, batch_sim_s, false);
                engine_mode(&mut c, false);
                c
            })
            .collect();
        let legacy_wall = time_runs(&legacy);
        let mut batch_cfg = fig5_scenario(500, batch_sim_s, true);
        engine_mode(&mut batch_cfg, true);
        let start = Instant::now();
        let ms = jtp_netsim::run_many(&batch_cfg, seeds);
        let parallel_wall = start.elapsed().as_secs_f64();
        assert_eq!(ms.len(), seeds);
        let b = Batch {
            scenario: "fig5 multi-seed batch (2 competing flows, linear8)".into(),
            seeds,
            threads: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            legacy_serial_wall_s: legacy_wall,
            overhauled_parallel_wall_s: parallel_wall,
            speedup: legacy_wall / parallel_wall,
        };
        println!(
            "batch ({seeds} seeds)              : legacy serial {legacy_wall:>8.3}s | overhauled {parallel_wall:>8.3}s | speedup {:.2}x",
            b.speedup
        );
        batch = Some(b);
    }

    // 4. Per-packet next-hop decision: neighbour scan vs flat hop table,
    //    at the random-field scale (25) and a larger mesh (100).
    let mut next_hop = Vec::new();
    if args.section_enabled("next_hop") {
        let nh_queries: u64 = args.pick(20_000_000, 2_000_000);
        next_hop = vec![
            bench_next_hop(25, 30, nh_queries),
            bench_next_hop(100, 150, nh_queries),
        ];
    }

    // 5. Scale: the dynamics/energy-re-advertisement path past 16 nodes —
    //    incremental masked-truth + weighted-APSP repair vs the legacy
    //    from-scratch rebuilds, at the routing component level (100- and
    //    144-node grids) and over the catalog's 121-node lifetime run.
    let mut scale = Vec::new();
    if args.section_enabled("scale") {
        let adverts: u64 = args.pick(120, 40);
        scale = vec![
            bench_scale_routing(10, 10, adverts),
            bench_scale_routing(12, 12, adverts),
            bench_scale_routing(16, 16, adverts),
            bench_scale_run("grid121-lifetime"),
        ];
    }

    // 6. Mobility: the per-tick geometry + repair cost of moving
    //    topologies — spatial-grid vs brute-force neighbour discovery,
    //    and the whole diffed tick vs the scratch rebuilds, at the
    //    mobile scale family's sizes.
    let mut mobility = Vec::new();
    if args.section_enabled("mobility") {
        // The catalog's own 600 s horizon: random-waypoint mobility needs
        // a few mean-pause lengths to reach its steady state (~1/3 of
        // nodes mid-leg); shorter windows under-represent the churn the
        // real mobile entries sustain.
        let ticks: u64 = args.pick(600, 150);
        for (cols, rows) in [(8usize, 8usize), (10, 10), (16, 16)] {
            mobility.push(bench_mobility_geometry(cols, rows, ticks));
            mobility.push(bench_mobility_repair(cols, rows, ticks));
        }
    }

    // 7. The event/telemetry layer    // 8. The event/telemetry layer: the zero-cost-when-disabled claim,
    //    measured — NoopSubscriber must be within noise of the
    //    pre-event-layer hot path (a default-config TraceSubscriber),
    //    with the counting and full-report stacks priced alongside.
    let mut events = Vec::new();
    if args.section_enabled("events") {
        events.push(bench_events(args.pick(25_000.0, 1500.0)));
    }

    // 8. xl: the 1000+-node family — routing-state footprint, churn
    //    flood-repair cost and whole-run wall clock, exact vs
    //    hierarchical backend. Hierarchical must win at this scale; the
    //    cells assert it. Written as its own top-level JSON section (like
    //    `lifetime` and `transports`) so `--section xl` can refresh it
    //    without touching the core report.
    let mut xl = None;
    if args.section_enabled("xl") {
        let cat = Scenario::xl_catalog();
        let churn_entry = cat
            .iter()
            .find(|s| s.name == "xl-grid-churn")
            .expect("xl catalog entry");
        xl = Some(XlSection {
            state: cat.iter().map(bench_xl_state).collect(),
            repair: vec![bench_xl_repair(churn_entry, args.pick(24, 8))],
            whole_run: vec![bench_xl_run(churn_entry, args.pick(2, 1))],
        });
    }

    let report = Report {
        quick: args.quick,
        queue_workload: "hold model: pop + schedule(now+U[0,100ms]) per step, extra schedule+cancel every 3rd step".into(),
        queue_ops,
        slot_engine,
        batch,
        next_hop,
        scale,
        mobility,
        events,
    };
    // `--section xl` alone must not clobber the core report (or the
    // `lifetime`/`transports` sections other binaries merge in).
    let core_ran = args.sections.is_empty() || args.sections.iter().any(|s| s != "xl");
    if core_ran {
        jtp_bench::maybe_write_json(&args, &report);
    }
    if let (Some(xl), Some(path)) = (&xl, &args.json) {
        let body = serde_json::to_string_pretty(xl).expect("serialisable xl section");
        jtp_bench::merge_json_section(path, "xl", &body);
    }
}
