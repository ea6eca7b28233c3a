//! Micro rows: one public function of one layer, timed in a tight loop
//! on a fixed input. They need no legacy twin — each is an absolute cost
//! — and do not depend on the workload or the seed, so every workload's
//! traced invocation reports the same rows.

use crate::stats::median;
use jtp_mac::{Frame, FrameKind, MacConfig, NodeMac, SlotOutcome, TdmaSchedule};
use jtp_netsim::topology::{
    adjacency_from_positions, field_for, geometry_edge_diff, try_place_nodes, EdgeScratch,
};
use jtp_netsim::{cluster_spec_for, MaskedTruth, TopologyKind};
use jtp_phys::gilbert::{GilbertConfig, GilbertElliott};
use jtp_phys::mobility::{MobilityModel, RandomWaypoint};
use jtp_phys::spatial::SpatialGrid;
use jtp_phys::{PathLoss, Point};
use jtp_routing::{Adjacency, BackendSelect, LinkState};
use jtp_sim::{EventQueue, NodeId, SimDuration, SimTime};
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions per row; the row reports their median.
const REPS: usize = 3;

/// Median over [`REPS`] of `nanos_per_op()`, each call a fresh timed loop.
fn row(mut nanos_per_op: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..REPS).map(|_| nanos_per_op()).collect();
    median(&samples)
}

/// Nanoseconds per iteration of `body` over `iters` iterations.
fn time_loop(iters: u64, mut body: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        body(i);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// xorshift64* offsets for the hold model.
struct Offsets(u64);

impl Offsets {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) % 100_000
    }
}

/// Hold model on the event queue: keep `fill` events pending; each step
/// pops the earliest and schedules a replacement, and every third step
/// also schedules and cancels a timer (the skipping engine's reschedule
/// pattern). Returns ns per step.
fn queue_hold_ns(fill: usize, steps: u64) -> f64 {
    row(|| {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut offsets = Offsets(0x9E37_79B9);
        for i in 0..fill {
            q.schedule_at(SimTime::from_micros(offsets.next()), i as u64);
        }
        let ns = time_loop(steps, |step| {
            let (t, _) = q.pop().expect("hold model never drains");
            let at = SimTime::from_micros(t.as_micros() + offsets.next());
            q.schedule_at(at, step);
            if step % 3 == 0 {
                let id = q.schedule_at(at, u64::MAX);
                q.cancel(id);
            }
        });
        black_box(q.now());
        ns
    })
}

/// `GilbertElliott::loss_prob` sampled once per 25 ms slot (ns per call).
fn gilbert_loss_prob_ns() -> f64 {
    row(|| {
        let mut ge = GilbertElliott::new(GilbertConfig::paper_default(), 1, 0);
        time_loop(1_000_000, |i| {
            black_box(ge.loss_prob(SimTime::from_micros(i * 25_000), 0.05));
        })
    })
}

/// The xl family's two placements.
fn xl_grid() -> TopologyKind {
    TopologyKind::Grid {
        cols: 32,
        rows: 32,
        spacing_m: 80.0,
    }
}

fn xl_clustered() -> TopologyKind {
    TopologyKind::Clustered {
        clusters: 40,
        per_cluster: 25,
        spread_m: 25.0,
        cluster_spacing_m: 90.0,
    }
}

fn place(kind: &TopologyKind, pathloss: &PathLoss) -> Vec<Point> {
    try_place_nodes(kind, pathloss, 7).expect("catalogued placements are placeable")
}

/// `SpatialGrid::build` + `for_each_candidate_pair` over the 1000-node
/// clustered placement (µs per pass over the field).
fn spatial_pairs_us() -> f64 {
    let pathloss = PathLoss::javelen_default();
    let positions = place(&xl_clustered(), &pathloss);
    let cell = pathloss.max_range * (1.0 + 1e-9);
    row(|| {
        time_loop(20, |_| {
            let grid = SpatialGrid::build(&positions, cell);
            let mut pairs = 0u64;
            grid.for_each_candidate_pair(|_, _| pairs += 1);
            black_box(pairs);
        })
    }) / 1e3
}

/// One frame through a node's MAC: `enqueue` → `record_owned_slot` →
/// `transmit_result`, every fourth attempt lost (ns per frame).
fn frame_cycle_ns() -> f64 {
    row(|| {
        let mut mac: NodeMac<u64> = NodeMac::new(MacConfig::default(), 10.0);
        time_loop(1_000_000, |i| {
            let frame = Frame::new(NodeId(0), NodeId(1), FrameKind::Data, 828, i);
            mac.enqueue(frame).expect("queue has room");
            mac.record_owned_slot(true);
            // The provisional ARQ budget is one attempt, so a lost frame
            // is exhausted and the queue is empty again either way.
            let outcome = mac.transmit_result(i % 4 != 0);
            debug_assert!(!matches!(outcome, SlotOutcome::Retrying));
            black_box(outcome);
        })
    })
}

/// The idle-skipping engine's schedule queries on a 25-node frame with
/// two backlogged nodes: `next_owned_slot` from the last busy slot, then
/// `owner` of the slot found (ns per pair of calls).
fn schedule_owner_ns() -> f64 {
    row(|| {
        let mut schedule = TdmaSchedule::new(25, SimDuration::from_millis(25), 7);
        let mut backlogged = vec![false; 25];
        backlogged[3] = true;
        backlogged[17] = true;
        let mut after = SimTime::ZERO;
        time_loop(200_000, |_| {
            let slot = schedule
                .next_owned_slot(after, &backlogged)
                .expect("two nodes are backlogged");
            black_box(schedule.owner(slot));
            after = schedule.slot_start(slot);
        })
    })
}

/// The `side × side` lattice the catalog's grids place: 80 m spacing,
/// 4-connected at the 100 m radio range.
fn grid(side: usize) -> Adjacency {
    let kind = TopologyKind::Grid {
        cols: side,
        rows: side,
        spacing_m: 80.0,
    };
    let pathloss = PathLoss::javelen_default();
    adjacency_from_positions(&place(&kind, &pathloss), &pathloss)
}

const REFRESH: SimDuration = SimDuration::from_secs(5);

/// `LinkState::next_hop` over a fixed pseudo-random set of pairs (ns per
/// query).
fn next_hop_ns(routing: &LinkState) -> f64 {
    let n = routing.len() as u64;
    row(|| {
        time_loop(500_000, |i| {
            let from = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
            let dst = i.wrapping_mul(0xC2B2_AE3D_27D4_EB4F) >> 33;
            black_box(routing.next_hop(NodeId((from % n) as u32), NodeId((dst % n) as u32)));
        })
    })
}

/// Energy-advert repair on the exact backend: each round re-advertises a
/// weight vector in which a few nodes have drained one level further,
/// then floods every view (µs per round, 11×11 lattice).
fn exact_advert_repair_us(truth: &Adjacency) -> f64 {
    const ROUNDS: u64 = 48;
    let n = truth.len() as u64;
    let weights: Vec<Vec<u16>> = (0..ROUNDS)
        .map(|round| (0..n).map(|i| 1 + ((round + i % 29) / 12) as u16).collect())
        .collect();
    row(|| {
        let mut routing = LinkState::new(truth, REFRESH);
        time_loop(ROUNDS, |round| {
            routing.set_node_weights(Some(weights[round as usize].clone()));
            routing.force_refresh_all(SimTime::from_secs_f64(round as f64 + 1.0), truth);
            black_box(routing.next_hop(NodeId(0), NodeId(n as u32 - 1)));
        })
    }) / 1e3
}

/// Churn repair on the hierarchical backend: a mid-field node alternately
/// loses and regains every link, flooding a full refresh each round (µs
/// per round, 32×32 lattice).
fn hier_churn_repair_us(base: &Adjacency, select: &BackendSelect) -> f64 {
    let n = base.len() as u32;
    let victim = NodeId(n / 2);
    let mut failed = base.clone();
    for nbr in base.neighbors(victim).to_vec() {
        failed.set_edge(victim, nbr, false);
    }
    row(|| {
        let mut routing = LinkState::with_backend(base, REFRESH, select);
        time_loop(24, |round| {
            let truth = if round % 2 == 0 { &failed } else { base };
            routing.force_refresh_all(SimTime::from_secs_f64(round as f64 + 1.0), truth);
            black_box(routing.next_hop(NodeId(0), NodeId(n - 1)));
        })
    }) / 1e3
}

/// Mobility-tick geometry on a 10×10 grid whose nodes walk the catalog's
/// waypoint regime (1 m/s, 47 m legs, 100 s pauses, 1 s ticks): µs per
/// tick in `geometry_edge_diff` and in `MaskedTruth::apply_geometry_diff`.
fn geometry_tick_us() -> (f64, f64) {
    let pathloss = &PathLoss::javelen_default();
    const TICKS: u64 = 300;
    let kind = TopologyKind::Grid {
        cols: 10,
        rows: 10,
        spacing_m: 80.0,
    };
    let start = place(&kind, pathloss);
    let field = field_for(&kind);
    let mut walkers: Vec<RandomWaypoint> = start
        .iter()
        .enumerate()
        .map(|(i, &p)| RandomWaypoint::paper_default(field, p, 1.0, 77, i as u64))
        .collect();
    let frames: Vec<Vec<Point>> = (1..=TICKS)
        .map(|t| {
            let now = SimTime::from_secs_f64(t as f64);
            walkers.iter_mut().map(|w| w.position_at(now)).collect()
        })
        .collect();
    let mut samples = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let mut truth = MaskedTruth::new(adjacency_from_positions(&start, pathloss));
        let mut scratch = EdgeScratch::new();
        let (mut diff_ns, mut patch_ns) = (0, 0);
        for frame in &frames {
            let edges = scratch.edges_from_positions(frame, pathloss);
            let t0 = Instant::now();
            let diff = geometry_edge_diff(truth.geometry(), edges);
            let t1 = Instant::now();
            truth.apply_geometry_diff(&diff);
            let t2 = Instant::now();
            diff_ns += (t1 - t0).as_nanos();
            patch_ns += (t2 - t1).as_nanos();
        }
        black_box(truth.len());
        samples.0.push(diff_ns as f64 / TICKS as f64 / 1e3);
        samples.1.push(patch_ns as f64 / TICKS as f64 / 1e3);
    }
    (median(&samples.0), median(&samples.1))
}

fn grid121() -> Adjacency {
    grid(11)
}

fn grid1024() -> Adjacency {
    grid(32)
}

fn hierarchical() -> BackendSelect {
    BackendSelect::Hierarchical(cluster_spec_for(&xl_grid()))
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// A micro row: its metric name and the function that measures it.
pub type Row = (&'static str, fn() -> f64);

/// Every micro row.
pub const ROWS: [Row; 16] = [
    ("sim.queue_hold48_ns", || queue_hold_ns(48, 400_000)),
    ("sim.queue_hold4096_ns", || queue_hold_ns(4096, 200_000)),
    ("phys.gilbert_loss_prob_ns", gilbert_loss_prob_ns),
    ("phys.spatial_pairs_us", spatial_pairs_us),
    ("mac.frame_cycle_ns", frame_cycle_ns),
    ("mac.schedule_owner_ns", schedule_owner_ns),
    ("routing.exact_next_hop_ns", || {
        next_hop_ns(&LinkState::new(&grid121(), REFRESH))
    }),
    ("routing.hier_next_hop_ns", || {
        next_hop_ns(&LinkState::with_backend(
            &grid1024(),
            REFRESH,
            &hierarchical(),
        ))
    }),
    ("routing.exact_init_ms", || {
        let truth = grid121();
        ms(row(|| {
            time_loop(8, |_| {
                black_box(LinkState::new(&truth, REFRESH).len());
            })
        }))
    }),
    ("routing.hier_init_ms", || {
        let (truth, select) = (grid1024(), hierarchical());
        ms(row(|| {
            time_loop(2, |_| {
                black_box(LinkState::with_backend(&truth, REFRESH, &select).len());
            })
        }))
    }),
    ("routing.exact_advert_repair_us", || {
        exact_advert_repair_us(&grid121())
    }),
    ("routing.hier_churn_repair_us", || {
        hier_churn_repair_us(&grid1024(), &hierarchical())
    }),
    ("netsim.place_ms", || {
        let pathloss = PathLoss::javelen_default();
        ms(row(|| {
            time_loop(64, |_| {
                black_box(place(&xl_grid(), &pathloss).len());
            })
        }))
    }),
    ("netsim.adjacency_ms", || {
        let pathloss = PathLoss::javelen_default();
        let positions = place(&xl_grid(), &pathloss);
        ms(row(|| {
            time_loop(8, |_| {
                black_box(adjacency_from_positions(&positions, &pathloss).len());
            })
        }))
    }),
    ("netsim.geometry_edge_diff_us", || geometry_tick_us().0),
    ("netsim.truth_patch_us", || geometry_tick_us().1),
];
