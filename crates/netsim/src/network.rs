//! The assembled network: nodes (MAC + iJTP + energy meter), channel,
//! routing, flows and the event loop gluing them together.
//!
//! One [`Network`] is one experiment run. The event loop follows the
//! paper's system structure:
//!
//! * a TDMA slot event fires for every slot owned by a **backlogged**
//!   node; the pseudo-random schedule names the owner, which transmits the
//!   head of its MAC queue (after the iJTP PreXmit hook — Algorithm 1 —
//!   has charged energy, set the attempt budget and stamped the available
//!   rate). Slots owned by idle nodes are *skipped*: the engine jumps
//!   straight to the next busy slot and replays the skipped owners'
//!   idle-slot statistics exactly, so results are byte-identical to the
//!   naive slot-per-event loop at a fraction of the event count
//!   (`ExperimentConfig::idle_slot_skipping` toggles this),
//! * delivered frames either terminate at their endpoint (eJTP / TCP /
//!   ATP state machines) or pass through the iJTP PostRcv hook
//!   (Algorithm 2 — caching and SNACK-triggered local recovery) and are
//!   forwarded along the link-state route,
//! * sender wakeups pace data out at the receiver-assigned rate; receiver
//!   timers emit regular feedback; mobility ticks move nodes and refresh
//!   (staleness permitting) the routing views,
//! * scheduled **dynamics** events crash/heal nodes, black out links,
//!   open/heal partitions and blast whole discs: the effective ground
//!   truth is the geometric connectivity masked by the substrate state,
//!   and each action floods a routing refresh while in-flight traffic
//!   fails at the channel — identically in the skipping and naive
//!   engines,
//! * with finite **batteries**, every radio charge plus a per-frame
//!   idle/sleep baseline draw (charged at each owned slot, so the
//!   idle-slot replay reproduces the naive drain sequence exactly)
//!   depletes the node's reservoir; depletion kills the node for good
//!   through the same masked-truth machinery, at a slot event the
//!   skipping engine *aims* at the predicted death slot (an analytic
//!   lower bound far out, the exactly-replayed crossing once near).
//!   Duty-cycled nodes sleep whole frames (they transmit but don't
//!   receive), and energy-aware routing periodically floods quantised
//!   residual fractions as per-node forwarding weights.
//!
//! Hot-path notes: per-link Gilbert-Elliott fading processes live in
//! per-node rows keyed by the higher endpoint (no per-frame hashing, and
//! storage for the links that carried traffic, not all n(n−1)/2 pairs),
//! the earliest predicted battery death is the root of a min-tree over
//! the per-node predictions, and slot events are scheduled in event
//! class 0 so a slot boundary always precedes same-instant timers
//! regardless of *when* the slot event was (re)scheduled — the invariant
//! the skipping engine's equivalence proof rests on.

use crate::config::{
    ConfigError, DynamicsAction, DynamicsEvent, EnergyRoutingConfig, ExperimentConfig,
    MobilityConfig, RoutingBackendKind, TopologyKind, TransportKind,
};
use crate::endpoint::{Receiver, Sender};
use crate::metrics::{FlowMetrics, Metrics};
use crate::payload::{Payload, TransportPacket};
use crate::topology::{
    adjacency_from_positions, field_for, geometry_edge_diff, try_place_nodes, EdgeScratch,
};
use crate::truth::MaskedTruth;
use jtp::{IjtpModule, JtpReceiver, JtpSender, LinkInfo, PreXmitVerdict};
use jtp_baselines::atp::{AtpReceiver, AtpSender};
use jtp_baselines::bbr::BbrSender;
use jtp_baselines::cubic::CubicSender;
use jtp_baselines::sack::TcpReceiver;
use jtp_baselines::tcp::TcpSender;
use jtp_events::{
    AttemptBudget, BatteryDeath, Delivery, DropCause, DynamicsApplied, FloodCause, FloodEnd,
    FloodStart, NoopSubscriber, PacketDrop, PacketKind, PacketSend, SlotGrant, Subscriber,
    Subsystem,
};
use jtp_mac::{Frame, FrameKind, NodeMac, SleepSchedule, SlotOutcome, TdmaSchedule};
use jtp_phys::energy::EnergyCategory;
use jtp_phys::gilbert::{GilbertConfig, GilbertElliott};
use jtp_phys::{
    Battery, BatteryConfig, EnergyMeter, MobilityModel, PathLoss, Point, RadioEnergyModel,
    RandomWaypoint,
};
use jtp_routing::{BackendSelect, ClusterSpec, LinkState};
use jtp_sim::{EventId, EventQueue, FlowId, NodeId, SimDuration, SimRng, SimTime, Simulation};
use std::time::Instant;

/// Open a wall-clock span iff the subscriber asked for timing — with
/// `S::TIMING == false` this is a compile-time `None` and no clock is
/// read (wall-clock reads are not free on the hot path).
fn span_start<S: Subscriber>() -> Option<Instant> {
    S::TIMING.then(Instant::now)
}

/// Derive the hierarchical backend's cluster structure from the
/// placement family — the topology already knows where the natural
/// routing regions are:
///
/// * `Grid` — contiguous `b×b` blocks (`b ≈ (cols·rows)^¼`, so block
///   size tracks √n). Blocks are connected rectangles of the
///   4-connected lattice and geodesically convex, so intra-block routes
///   are exact shortest paths.
/// * `Clustered` — the placement's own groups (nodes are laid down
///   `per_cluster` at a time, so node `i` belongs to group
///   `i / per_cluster`). Each group is a dense disc (complete subgraph
///   at the default spread).
/// * `Linear` / `Random` — no exploitable structure declared; BFS-grown
///   patches of ≈ ⌈√n⌉ nodes (`ClusterSpec::Auto`).
///
/// Disconnected labels (possible under adversarial geometry) are split
/// into connected components by the backend at construction, so the
/// derivation never has to prove connectivity itself. Shared with the
/// fuzzer's lawfulness oracle, which must mirror the engine's clustering
/// exactly.
pub fn cluster_spec_for(topology: &TopologyKind) -> ClusterSpec {
    match topology {
        TopologyKind::Grid { cols, rows, .. } => {
            let n = cols * rows;
            let b = ((n as f64).sqrt().sqrt().round() as usize).max(1);
            let blocks_per_row = cols.div_ceil(b).max(1);
            let labels = (0..n)
                .map(|i| {
                    let (r, c) = (i / cols, i % cols);
                    ((r / b) * blocks_per_row + c / b) as u32
                })
                .collect();
            ClusterSpec::Assignment(labels)
        }
        TopologyKind::Clustered {
            clusters,
            per_cluster,
            ..
        } => {
            let labels = (0..clusters * per_cluster)
                .map(|i| (i / per_cluster) as u32)
                .collect();
            ClusterSpec::Assignment(labels)
        }
        TopologyKind::Linear { .. } | TopologyKind::Random { .. } => {
            ClusterSpec::Auto { target: 0 }
        }
    }
}

/// Event class of TDMA slot boundaries: delivered before same-instant
/// timer events (classes are ordered before FIFO sequence at ties).
const SLOT_CLASS: u8 = 0;

/// Frames within which battery-death prediction switches from the
/// analytic lower bound to the exact per-frame float replay (the replay
/// must reproduce the engine's drain sequence bit-for-bit, so the final
/// approach is always walked; the window also absorbs the bound's
/// float-safety margin).
const PREDICT_EXACT_WINDOW: u64 = 32;

/// The minimum of n optional values, kept as a flat binary tree: leaves
/// at `tree[leaves..leaves + n]` (`None` and unused leaves stored as
/// `u64::MAX`), each inner node the min of its two children, the root at
/// `tree[1]`. An update is O(log n) array writes with no allocation —
/// cheap enough to run on every battery charge, which re-predicts a
/// death slot.
struct MinTree {
    tree: Vec<u64>,
    leaves: usize,
}

impl MinTree {
    /// n values, all `None`.
    fn new(n: usize) -> Self {
        let leaves = n.next_power_of_two();
        MinTree {
            tree: vec![u64::MAX; 2 * leaves],
            leaves,
        }
    }

    /// Set value `i` and repair its ancestors, stopping at the first one
    /// whose minimum is unchanged (every one above it is then unchanged).
    fn set(&mut self, i: usize, value: Option<u64>) {
        let mut k = self.leaves + i;
        self.tree[k] = value.unwrap_or(u64::MAX);
        while k > 1 {
            k /= 2;
            let m = self.tree[2 * k].min(self.tree[2 * k + 1]);
            if self.tree[k] == m {
                break;
            }
            self.tree[k] = m;
        }
    }

    /// The smallest `Some` value.
    fn min(&self) -> Option<u64> {
        Some(self.tree[1]).filter(|&m| m != u64::MAX)
    }
}

/// Simulation events.
#[derive(Clone, Copy, Debug)]
pub enum Event {
    /// TDMA slot boundary (global slot index).
    Slot(u64),
    /// A flow's transfer begins.
    FlowStart(FlowId),
    /// Pacing / sender timers.
    SenderWakeup(FlowId),
    /// Regular feedback timer (JTP/ATP) or delayed-ACK flush (TCP).
    ReceiverTimer(FlowId),
    /// Positions move; topology and routing views refresh.
    MobilityTick,
    /// A scheduled substrate dynamics action fires (index into
    /// [`ExperimentConfig::dynamics`]).
    Dynamics(u32),
    /// Periodic residual-energy advertisement: nodes flood their battery
    /// levels and routing re-weights (energy-aware routing only).
    EnergyAdvert,
}

struct Flow {
    id: FlowId,
    src: NodeId,
    dst: NodeId,
    start: SimTime,
    offered_packets: u32,
    sender: Sender,
    receiver: Receiver,
    started: bool,
    completed_at: Option<SimTime>,
    /// The single pending sender wakeup, if any: (handle, fire time).
    /// Wakeups are deduplicated — an ACK arrival used to spawn an extra
    /// parallel wakeup chain that never died, giving O(acks²) no-op timer
    /// events per flow; now an earlier request cancels the later one.
    wakeup: Option<(EventId, SimTime)>,
}

enum Mobility {
    Static,
    Waypoint(RandomWaypoint),
}

struct Node {
    mac: NodeMac<TransportPacket>,
    ijtp: IjtpModule,
    energy: EnergyMeter,
    mobility: Mobility,
}

/// One experiment run: build with [`Network::try_with_subscriber`], drive
/// with [`jtp_sim::run_until`], harvest with [`Network::metrics`] —
/// the steps [`crate::runner::try_run_subscribed`] takes.
///
/// The subscriber is a **type parameter**, not a field behind a flag:
/// every event emission site is gated on the compile-time
/// [`Subscriber::ENABLED`], so with the default [`NoopSubscriber`] the
/// whole event layer monomorphizes away — no branch, no payload
/// construction — and the engine is byte-identical to an
/// uninstrumented build (pinned by the subscriber-equivalence tests
/// and the `events` bench section).
pub struct Network<S: Subscriber = NoopSubscriber> {
    transport: TransportKind,
    nodes: Vec<Node>,
    positions: Vec<Point>,
    flows: Vec<Flow>,
    schedule: TdmaSchedule,
    routing: LinkState,
    /// Effective ground truth: geometric connectivity masked by the
    /// substrate state (churn, blackouts, partitions, battery deaths),
    /// maintained incrementally per dynamics event.
    truth: MaskedTruth,
    /// Per-undirected-link fading processes: row `lo` holds
    /// `(hi, process)` for every link `{lo, hi}` (`lo < hi`) that has
    /// carried an attempt, in first-use order. A process is created on
    /// its link's first attempt from a substream keyed by the pair, so
    /// storage is O(live links) rather than O(n²) and no substream
    /// depends on when — or whether — any other link was used.
    channels: Vec<Vec<(u32, GilbertElliott)>>,
    attempt_rng: SimRng,
    /// Reused neighbour-discovery buffers for mobility ticks (spatial
    /// grid CSR arrays + packed candidate and edge lists): zero
    /// steady-state allocations per tick, byte-identical edge sets.
    edge_scratch: EdgeScratch,
    pathloss: PathLoss,
    gilbert_cfg: GilbertConfig,
    energy_model: RadioEnergyModel,
    seed: u64,
    mobility_cfg: Option<MobilityConfig>,
    tcp_ack_flush: SimDuration,
    end: SimTime,
    /// The attached event subscriber (see [`jtp_events`]). The engine
    /// only ever writes to it — subscriber state never feeds back into
    /// simulation results.
    sub: S,
    no_route_drops: u64,
    // ---- substrate dynamics state ----
    /// The scheduled dynamics timeline (from the config).
    dynamics: Vec<DynamicsEvent>,
    /// Frames lost to node crashes (flushed queues + sends from a dead
    /// node), distinct from congestion/ARQ/no-route drops.
    churn_drops: u64,
    // ---- battery / lifetime state ----
    /// Finite energy budgets (None = the tally-only monitor).
    battery_cfg: Option<BatteryConfig>,
    /// Per-node reservoirs (empty when batteries are disabled).
    batteries: Vec<Battery>,
    /// `battery_dead[i]` ⇔ node i's battery depleted. Unlike dynamics
    /// churn, battery death is permanent: `NodeUp` cannot revive it.
    battery_dead: Vec<bool>,
    /// Skipping engine only: a future slot (owned by node i) at or
    /// before which node i's battery provably cannot die of baseline
    /// draw — either the exactly-replayed crossing slot (when the death
    /// is within [`PREDICT_EXACT_WINDOW`] frames) or a conservative
    /// analytic lower bound on it. Slot events are aimed at these: an
    /// aimed slot that isn't the crossing fires harmlessly and re-aims,
    /// so endogenous death still fires at the exact instant the naive
    /// per-slot loop would detect it. Written only through
    /// [`Network::set_death_slot`], which mirrors it into `death_min`.
    death_slot: Vec<Option<u64>>,
    /// `death_slot` as a min-tree: its root is the earliest predicted
    /// death, read by each slot re-aim without a scan over all n nodes.
    death_min: MinTree,
    /// Nodes whose batteries crossed zero in the current event, in drain
    /// order; processed (once each) at the event's timestamp.
    pending_deaths: Vec<NodeId>,
    /// Battery deaths in chronological order.
    deaths: Vec<(SimTime, NodeId)>,
    /// First instant battery deaths split the surviving nodes.
    first_partition: Option<SimTime>,
    /// Baseline battery charge per owned slot while awake (J).
    baseline_idle_j: f64,
    /// Baseline battery charge per owned slot while duty-cycle asleep (J).
    baseline_sleep_j: f64,
    /// Duty-cycled sleep schedule (None = always listening).
    sleep: Option<SleepSchedule>,
    /// Energy-aware routing parameters (None = hop-count routing).
    energy_cfg: Option<EnergyRoutingConfig>,
    /// The last advertised weight vector (avoids re-flooding unchanged
    /// advertisements).
    advertised_weights: Option<Vec<u16>>,
    // ---- idle-slot-skipping engine state ----
    /// Whether slots owned by idle nodes are skipped (config).
    skip_idle: bool,
    /// `backlog[i]` ⇔ node i's MAC queue is non-empty.
    backlog: Vec<bool>,
    /// Count of `true` entries in `backlog`.
    backlog_count: usize,
    /// Set when `backlog` changed since the slot event was last synced.
    backlog_dirty: bool,
    /// Next slot index not yet accounted (fired or replayed as idle).
    slot_cursor: u64,
    /// The scheduled slot event, if any: (queue handle, slot index).
    pending_slot: Option<(EventId, u64)>,
    /// Flows with `completed_at` set (O(1) all-done check).
    completed_flows: usize,
}

impl<S: Subscriber> Network<S> {
    /// Build a network wired to an arbitrary event subscriber, with
    /// invalid or unplaceable configurations reported as [`ConfigError`].
    /// With [`NoopSubscriber`] the event layer compiles to nothing.
    pub fn try_with_subscriber(
        cfg: &ExperimentConfig,
        sub: S,
    ) -> Result<(Network<S>, EventQueue<Event>), ConfigError> {
        cfg.validate()?;
        let n = cfg.topology.node_count();
        let positions = try_place_nodes(&cfg.topology, &cfg.pathloss, cfg.seed)?;
        let truth = MaskedTruth::new(adjacency_from_positions(&positions, &cfg.pathloss));
        let select = match cfg.routing_backend {
            RoutingBackendKind::Exact => BackendSelect::Exact,
            RoutingBackendKind::Hierarchical => {
                BackendSelect::Hierarchical(cluster_spec_for(&cfg.topology))
            }
        };
        let routing = LinkState::with_backend(truth.adjacency(), cfg.routing_refresh, &select);
        let schedule = TdmaSchedule::new(n as u32, cfg.slot, cfg.seed);
        let capacity = schedule.per_node_capacity_pps();
        let field = field_for(&cfg.topology);

        let nodes: Vec<Node> = (0..n)
            .map(|i| {
                let cache = if cfg.transport == TransportKind::Jtp && cfg.jtp.caching_enabled {
                    cfg.jtp.cache_capacity
                } else {
                    0
                };
                let mobility = match &cfg.mobility {
                    Some(m) => Mobility::Waypoint(RandomWaypoint::new(
                        field,
                        positions[i],
                        m.speed_mps,
                        m.mean_leg_m,
                        m.mean_pause_s,
                        cfg.seed,
                        i as u64,
                    )),
                    None => Mobility::Static,
                };
                let mut ijtp = IjtpModule::with_cache_policy(
                    cache,
                    cfg.mac.max_attempts_cap,
                    cfg.jtp.cache_policy,
                );
                ijtp.set_allocation(cfg.jtp.allocation);
                Node {
                    mac: NodeMac::new(cfg.mac, capacity),
                    ijtp,
                    energy: EnergyMeter::new(),
                    mobility,
                }
            })
            .collect();

        let mut jtp_cfg = cfg.jtp.clone();
        // Give the receiver-side controller the true capacity ceiling (the
        // paper: "the eJTP destination also limits the sending rate by its
        // delivery rate"), leaving headroom for rate probing.
        jtp_cfg.max_rate_pps = jtp_cfg.max_rate_pps.min(capacity * 2.0);
        // At xl scale the TDMA frame is long enough that the capacity
        // ceiling can undercut the configured rate floor; the floor must
        // follow the ceiling down or the transport config turns invalid.
        jtp_cfg.min_rate_pps = jtp_cfg.min_rate_pps.min(jtp_cfg.max_rate_pps);
        // The congestion-avoidance margin δ scales with the slot capacity:
        // JTP "aggressively seeks to avoid any congestion-based packet
        // loss" by keeping the path's available rate strictly positive.
        jtp_cfg.delta_avail_pps = jtp_cfg.delta_avail_pps.max(0.10 * capacity);
        let mut tcp_cfg = cfg.tcp.clone();
        tcp_cfg.max_rate_pps = tcp_cfg.max_rate_pps.min(capacity * 2.0);
        tcp_cfg.min_rate_pps = tcp_cfg.min_rate_pps.min(tcp_cfg.max_rate_pps);
        let mut atp_cfg = cfg.atp.clone();
        atp_cfg.max_rate_pps = atp_cfg.max_rate_pps.min(capacity * 2.0);
        atp_cfg.min_rate_pps = atp_cfg.min_rate_pps.min(atp_cfg.max_rate_pps);
        let mut cubic_cfg = cfg.cubic.clone();
        cubic_cfg.max_rate_pps = cubic_cfg.max_rate_pps.min(capacity * 2.0);
        cubic_cfg.min_rate_pps = cubic_cfg.min_rate_pps.min(cubic_cfg.max_rate_pps);
        let mut bbr_cfg = cfg.bbr.clone();
        bbr_cfg.max_rate_pps = bbr_cfg.max_rate_pps.min(capacity * 2.0);
        bbr_cfg.min_rate_pps = bbr_cfg.min_rate_pps.min(bbr_cfg.max_rate_pps);

        let flows: Vec<Flow> = cfg
            .flows
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let id = FlowId(i as u16);
                let (sender, receiver) = match cfg.transport {
                    TransportKind::Jtp | TransportKind::Jnc => {
                        let mut fc = jtp_cfg.clone();
                        if let Some(r) = spec.initial_rate_pps {
                            fc.initial_rate_pps = r.clamp(fc.min_rate_pps, fc.max_rate_pps);
                        }
                        (
                            Sender::Jtp(Box::new(JtpSender::new(
                                id,
                                spec.packets,
                                spec.loss_tolerance,
                                fc.clone(),
                            ))),
                            Receiver::Jtp(Box::new(JtpReceiver::new(id, spec.loss_tolerance, fc))),
                        )
                    }
                    TransportKind::Tcp => (
                        Sender::Tcp(Box::new(TcpSender::new(id, spec.packets, tcp_cfg.clone()))),
                        Receiver::Sack(Box::new(TcpReceiver::new(id, tcp_cfg.delayed_ack_every))),
                    ),
                    TransportKind::Atp => (
                        Sender::Atp(Box::new(AtpSender::new(id, spec.packets, atp_cfg.clone()))),
                        Receiver::Atp(Box::new(AtpReceiver::new(id, atp_cfg.clone()))),
                    ),
                    TransportKind::Cubic => (
                        Sender::Cubic(Box::new(CubicSender::new(
                            id,
                            spec.packets,
                            cubic_cfg.clone(),
                        ))),
                        Receiver::Sack(Box::new(TcpReceiver::new(id, cubic_cfg.delayed_ack_every))),
                    ),
                    TransportKind::Bbr => (
                        Sender::Bbr(Box::new(BbrSender::new(id, spec.packets, bbr_cfg.clone()))),
                        Receiver::Sack(Box::new(TcpReceiver::new(id, bbr_cfg.delayed_ack_every))),
                    ),
                };
                Flow {
                    id,
                    src: spec.src,
                    dst: spec.dst,
                    start: SimTime::ZERO + spec.start,
                    offered_packets: spec.packets,
                    sender,
                    receiver,
                    started: false,
                    completed_at: None,
                    wakeup: None,
                }
            })
            .collect();

        let end = SimTime::ZERO + cfg.duration;
        let mut queue = EventQueue::new();
        let skip_idle = cfg.idle_slot_skipping;
        let mut pending_slot = None;
        if !skip_idle {
            // Naive engine: one event per slot from t=0 on.
            let id = queue.schedule_at_class(SimTime::ZERO, SLOT_CLASS, Event::Slot(0));
            pending_slot = Some((id, 0));
        }
        // Dynamics fire before same-instant flow starts (schedule order
        // breaks FIFO ties), so a t=0 failure precedes a t=0 flow.
        for (i, ev) in cfg.dynamics.iter().enumerate() {
            let at = SimTime::ZERO + ev.at;
            if at <= end {
                queue.schedule_at(at, Event::Dynamics(i as u32));
            }
        }
        for f in &flows {
            queue.schedule_at(f.start.min(end), Event::FlowStart(f.id));
        }
        if let Some(m) = &cfg.mobility {
            queue.schedule_at(SimTime::ZERO + m.update_period, Event::MobilityTick);
        }
        if let Some(e) = &cfg.energy_routing {
            let first = SimTime::ZERO + e.advert_period;
            if first <= end {
                queue.schedule_at(first, Event::EnergyAdvert);
            }
        }

        let frame_s = schedule.frame_duration().as_secs_f64();
        let mut net = Network {
            transport: cfg.transport,
            backlog: vec![false; n],
            backlog_count: 0,
            backlog_dirty: false,
            slot_cursor: 0,
            pending_slot,
            completed_flows: 0,
            skip_idle,
            nodes,
            positions,
            flows,
            schedule,
            routing,
            truth,
            channels: vec![Vec::new(); n],
            attempt_rng: SimRng::derive(cfg.seed, "channel-attempts"),
            edge_scratch: EdgeScratch::new(),
            pathloss: cfg.pathloss,
            gilbert_cfg: cfg.gilbert,
            energy_model: cfg.energy,
            seed: cfg.seed,
            mobility_cfg: cfg.mobility,
            tcp_ack_flush: cfg.tcp_ack_flush,
            end,
            sub,
            no_route_drops: 0,
            dynamics: cfg.dynamics.clone(),
            churn_drops: 0,
            battery_cfg: cfg.battery,
            batteries: match &cfg.battery {
                Some(b) => (0..n).map(|_| Battery::new(b.capacity_j)).collect(),
                None => Vec::new(),
            },
            battery_dead: vec![false; n],
            death_slot: vec![None; n],
            death_min: MinTree::new(n),
            pending_deaths: Vec::new(),
            deaths: Vec::new(),
            first_partition: None,
            baseline_idle_j: cfg.battery.map_or(0.0, |b| b.idle_draw_w * frame_s),
            baseline_sleep_j: cfg.battery.map_or(0.0, |b| b.sleep_draw_w * frame_s),
            sleep: cfg.duty_cycle.map(SleepSchedule::new),
            energy_cfg: cfg.energy_routing,
            advertised_weights: None,
        };
        if net.battery_cfg.is_some() && net.skip_idle {
            // Aim the skipping engine's slot event at upcoming baseline-
            // draw deaths from the start — an empty workload must still
            // fire every death the naive per-slot loop would detect.
            for i in 0..n {
                net.set_death_slot(i, net.predict_death_slot(i));
            }
            net.backlog_dirty = true;
            net.sync_slot_event(SimTime::ZERO, &mut queue);
        }
        Ok((net, queue))
    }

    /// Consume the network, keeping the subscriber — the harvest path
    /// for runs whose instrumentation outlives the engine.
    pub fn into_subscriber(self) -> S {
        self.sub
    }

    /// The configured end of the run.
    pub fn horizon(&self) -> SimTime {
        self.end
    }

    /// True once every flow has completed (false when there are no flows).
    pub fn all_flows_completed(&self) -> bool {
        !self.flows.is_empty() && self.completed_flows == self.flows.len()
    }

    // ------------------------------------------------------------------
    // Idle-slot-skipping engine
    // ------------------------------------------------------------------

    /// Record node `node`'s queue-empty status after a MAC mutation.
    fn refresh_backlog(&mut self, node: NodeId) {
        let has = self.nodes[node.index()].mac.queue_len() > 0;
        if self.backlog[node.index()] != has {
            self.backlog[node.index()] = has;
            if has {
                self.backlog_count += 1;
            } else {
                self.backlog_count -= 1;
            }
            self.backlog_dirty = true;
        }
    }

    /// Replay slots `[slot_cursor, upto)` as idle: each was owned by a node
    /// whose queue was empty when the slot passed (the scheduling invariant
    /// guarantees this), so the only effects the naive loop would have had
    /// are the owner's idle-slot accounting and its baseline battery draw —
    /// applied here in slot order, byte-identically (the per-slot `drain`
    /// additions reproduce the naive engine's float sequence exactly).
    ///
    /// Deaths can never occur inside a replay: the slot event is aimed at
    /// `min(next busy slot, earliest predicted death slot)`, and every
    /// predicted death slot is at or **before** the true crossing (it is
    /// either the exactly-replayed crossing or a conservative analytic
    /// lower bound on it), so a battery that baseline draw would deplete
    /// gets a *fired* slot event no later than that instant instead of
    /// being replayed past it.
    fn replay_idle_slots(&mut self, upto: u64) {
        while self.slot_cursor < upto {
            let owner = self.schedule.owner(self.slot_cursor);
            self.nodes[owner.index()].mac.record_owned_slot(false);
            self.charge_baseline(owner, self.slot_cursor);
            if S::ENABLED {
                // Replayed slots carry their true slot-boundary time, so
                // the slot-grant stream matches the naive engine's (which
                // fires every one of these) — they just arrive in a burst
                // at catch-up instead of one by one.
                let ev = SlotGrant {
                    slot: self.slot_cursor,
                    owner,
                    busy: false,
                    queue_depth: 0,
                };
                self.sub
                    .on_slot(self.schedule.slot_start(self.slot_cursor), &ev);
            }
            debug_assert!(
                self.pending_deaths.is_empty(),
                "battery death inside an idle replay — prediction missed a slot"
            );
            self.slot_cursor += 1;
        }
    }

    /// Reconcile the scheduled slot event with the current backlog: keep it
    /// iff it still targets the earliest busy-owned slot, else cancel and
    /// reschedule. Runs after every handled event (cheap no-op unless the
    /// backlog changed).
    fn sync_slot_event(&mut self, now: SimTime, q: &mut EventQueue<Event>) {
        if !self.skip_idle {
            return;
        }
        if self.all_flows_completed() {
            // The naive loop stops rescheduling slots once all flows are
            // done; mirror that so the pending-event sets (and thus the
            // queue drain time) agree exactly.
            if let Some((id, _)) = self.pending_slot.take() {
                q.cancel(id);
            }
            return;
        }
        if !self.backlog_dirty {
            return;
        }
        self.backlog_dirty = false;
        let busy = if self.backlog_count == 0 {
            None
        } else {
            self.schedule.next_owned_slot(now, &self.backlog)
        };
        // Earliest predicted baseline-draw death: its slot must *fire* so
        // the death materialises at the same instant as in the naive loop.
        let death = self.death_min.min();
        debug_assert_eq!(
            death,
            self.death_slot.iter().filter_map(|&s| s).min(),
            "death index out of step with death_slot"
        );
        let desired = match (busy, death) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
        .filter(|&s| self.schedule.slot_start(s) <= self.end);
        match (self.pending_slot, desired) {
            (Some((_, cur)), Some(want)) if cur == want => {}
            (prev, want) => {
                if let Some((id, _)) = prev {
                    q.cancel(id);
                }
                self.pending_slot = want.map(|s| {
                    let at = self.schedule.slot_start(s);
                    (q.schedule_at_class(at, SLOT_CLASS, Event::Slot(s)), s)
                });
            }
        }
    }

    /// Account the idle tail after the event loop finishes: every slot the
    /// naive loop would still have fired (start ≤ min(end, horizon), no
    /// early all-done stop) is replayed as idle. No-op unless idle-slot
    /// skipping is enabled.
    pub fn finalize(&mut self, horizon: SimTime) {
        if !self.skip_idle || self.all_flows_completed() {
            return;
        }
        let last = self.schedule.slot_index_at(self.end.min(horizon));
        self.replay_idle_slots(last + 1);
    }

    // ------------------------------------------------------------------
    // Battery & lifetime
    // ------------------------------------------------------------------

    /// Baseline battery draw for the frame containing `slot`, charged to
    /// the slot's owner: `idle_draw × frame` while listening, or
    /// `sleep_draw × frame` in a duty-cycled sleep frame. One charge per
    /// node per frame, applied at the owned slot so the skipping engine's
    /// replay reproduces the naive engine's drain sequence exactly.
    fn charge_baseline(&mut self, owner: NodeId, slot: u64) {
        if self.battery_cfg.is_none() {
            return;
        }
        let i = owner.index();
        if self.battery_dead[i] {
            return;
        }
        let frame = slot / self.nodes.len() as u64;
        let j = match &self.sleep {
            Some(s) if !s.awake(owner, frame) => self.baseline_sleep_j,
            _ => self.baseline_idle_j,
        };
        if self.batteries[i].drain(j) {
            self.pending_deaths.push(owner);
        }
    }

    /// Charge transport energy to a node's meter *and* drain its battery.
    /// Only ever called at fired slot events, so the drain lands at the
    /// same instant in both engines.
    fn charge_node(&mut self, node: NodeId, category: EnergyCategory, joules: f64) {
        self.nodes[node.index()].energy.charge(category, joules);
        if self.battery_cfg.is_none() {
            return;
        }
        let i = node.index();
        if self.battery_dead[i] {
            return;
        }
        if self.batteries[i].drain(joules) {
            self.pending_deaths.push(node);
        } else {
            // The drain sequence changed: the predicted baseline-draw
            // death slot moves earlier. Keep the aim exact.
            self.recompute_death_slot(i);
        }
    }

    /// Predict a slot at which node `i`'s battery may die of baseline
    /// draw alone: either the **exact** crossing slot — found by
    /// replaying the per-frame `drain` additions the engine will execute
    /// (no closed forms — float rounding must match) — or a
    /// **conservative lower bound** on it when the crossing is far away.
    ///
    /// The bound is analytic: with at most `j_max` joules leaving per
    /// frame, the reservoir provably cannot empty within
    /// `remaining/j_max` frames (shrunk by a float-safety factor and the
    /// exact-replay window), so the frame-by-frame walk — which used to
    /// make every radio charge on a 100k-frame battery cost a 100k-frame
    /// replay — is skipped entirely until the crossing is near. Aiming a
    /// slot event at the bound is harmless: a fired slot with no death is
    /// observationally identical to a replayed idle slot, and the firing
    /// re-predicts from the new state ([`Network::handle_slot`]), closing
    /// in geometrically. Only inside the final [`PREDICT_EXACT_WINDOW`]
    /// does the exact float replay run, so deaths still land on the
    /// byte-exact slot the naive per-slot loop would detect.
    ///
    /// None when batteries are off, the node is dead, draws are zero, or
    /// the (bound on the) crossing lies beyond the run horizon.
    fn predict_death_slot(&self, i: usize) -> Option<u64> {
        let cfg = self.battery_cfg.as_ref()?;
        if self.battery_dead[i] {
            return None;
        }
        if cfg.idle_draw_w <= 0.0 && cfg.sleep_draw_w <= 0.0 {
            return None;
        }
        let node = NodeId(i as u32);
        let n = self.nodes.len() as u64;
        let cap = self.batteries[i].capacity_j();
        let mut drained = self.batteries[i].drained_j();
        if drained >= cap {
            return None; // already crossing: handled as a pending death
        }
        // First frame whose baseline charge is still pending: the cursor
        // frame unless the node's owned slot there is already accounted.
        let mut frame = self.slot_cursor / n;
        if self.schedule.owned_slot_in_frame(node, frame) < self.slot_cursor {
            frame += 1;
        }
        // Analytic skip: the crossing cannot happen within `safe` pending
        // frames even at the maximum per-frame draw, with a 1e-6 relative
        // margin absorbing worst-case float-summation rounding (valid up
        // to ~10⁹-frame lifetimes; catalog batteries sit far below).
        let j_max = self.baseline_idle_j.max(self.baseline_sleep_j);
        if j_max > 0.0 {
            // The float→int cast saturates for near-zero draws, so guard
            // the index arithmetic with the run's own frame bound: a
            // crossing provably past the horizon is simply no death.
            let horizon_frame = self.schedule.slot_index_at(self.end) / n + 1;
            let safe = ((cap - drained) / j_max * (1.0 - 1e-6)) as u64;
            let safe = safe.saturating_sub(PREDICT_EXACT_WINDOW);
            if safe > 0 {
                let bound = frame.saturating_add(safe);
                if bound > horizon_frame {
                    return None; // even the earliest possible crossing is past the horizon
                }
                if self.schedule.slot_start(bound * n) > self.end {
                    return None;
                }
                let slot = self.schedule.owned_slot_in_frame(node, bound);
                return (self.schedule.slot_start(slot) <= self.end).then_some(slot);
            }
        }
        // Exact replay — only ever runs within the final window (plus
        // whatever slack the draw mix left under the j_max bound).
        loop {
            if self.schedule.slot_start(frame * n) > self.end {
                return None; // the battery outlives the run
            }
            let j = match &self.sleep {
                Some(s) if !s.awake(node, frame) => self.baseline_sleep_j,
                _ => self.baseline_idle_j,
            };
            drained += j;
            if drained >= cap {
                let slot = self.schedule.owned_slot_in_frame(node, frame);
                return (self.schedule.slot_start(slot) <= self.end).then_some(slot);
            }
            frame += 1;
        }
    }

    /// Refresh node `i`'s predicted death slot (skipping engine only —
    /// the naive loop fires every slot and needs no aim) and mark the
    /// slot event for re-aiming if it moved.
    fn recompute_death_slot(&mut self, i: usize) {
        if !self.skip_idle {
            return;
        }
        let predicted = self.predict_death_slot(i);
        if predicted != self.death_slot[i] {
            self.set_death_slot(i, predicted);
            self.backlog_dirty = true;
        }
    }

    /// Set node `i`'s predicted death slot, keeping `death_min` in step.
    fn set_death_slot(&mut self, i: usize, slot: Option<u64>) {
        self.death_min.set(i, slot);
        self.death_slot[i] = slot;
    }

    /// Materialise battery deaths recorded during the current event, in
    /// drain order: each dead node's queue is lost, its links vanish from
    /// the advertised topology (flooded refresh, like dynamics churn) and
    /// the lifetime clocks tick. Battery death is permanent.
    fn process_pending_deaths(&mut self, now: SimTime) {
        if self.pending_deaths.is_empty() {
            return;
        }
        let mut any = false;
        for v in std::mem::take(&mut self.pending_deaths) {
            let i = v.index();
            if self.battery_dead[i] {
                continue;
            }
            self.battery_dead[i] = true;
            self.set_death_slot(i, None);
            self.deaths.push((now, v));
            if S::ENABLED {
                let ev = BatteryDeath {
                    node: v,
                    alive: (self.positions.len() - self.deaths.len()) as u32,
                };
                self.sub.on_battery_death(now, &ev);
            }
            if self.truth.is_up(v) {
                self.truth.set_node_up(v, false);
                self.flush_queue(now, v);
                self.refresh_backlog(v);
            }
            any = true;
        }
        if any {
            self.backlog_dirty = true;
            self.flood_views(now, FloodCause::BatteryDeath, true);
            self.note_first_partition(now);
        }
    }

    /// Lose a crashed/dead node's transmit queue, counting (and
    /// reporting) the frames as churn drops.
    fn flush_queue(&mut self, now: SimTime, v: NodeId) {
        let lost = self.nodes[v.index()].mac.flush();
        self.churn_drops += lost;
        if S::ENABLED && lost > 0 {
            let ev = PacketDrop {
                node: v,
                cause: DropCause::Churn,
                packets: lost,
            };
            self.sub.on_drop(now, &ev);
        }
    }

    /// Advertise the current truth to routing views — all of them
    /// (`all`, the flooded refresh failure detection triggers) or just
    /// the staleness-due ones (mobility ticks) — bracketed by flood
    /// start/end events whose costs are exact routing work-counter
    /// deltas, under a flood-plane wall span when the subscriber times.
    fn flood_views(&mut self, now: SimTime, cause: FloodCause, all: bool) {
        let before = if S::ENABLED {
            self.sub.on_flood_start(now, &FloodStart { cause });
            Some(self.routing.stats())
        } else {
            None
        };
        let t0 = span_start::<S>();
        if all {
            self.routing.force_refresh_all(now, self.truth.adjacency());
        } else {
            self.routing.refresh_due_views(now, self.truth.adjacency());
        }
        if let Some(t0) = t0 {
            self.sub
                .on_subsystem_time(Subsystem::FloodPlane, t0.elapsed().as_nanos() as u64);
        }
        if let Some(b) = before {
            let a = self.routing.stats();
            let ev = FloodEnd {
                cause,
                views_refreshed: a.refreshes - b.refreshes,
                sources_repaired: (a.bfs_run - b.bfs_run)
                    + (a.bfs_repaired - b.bfs_repaired)
                    + (a.weighted_repairs - b.weighted_repairs),
                entries_changed: a.dist_entries_changed - b.dist_entries_changed,
            };
            self.sub.on_flood_end(now, &ev);
        }
    }

    /// Record the first instant the live node set stopped being mutually
    /// reachable — whatever the cause: battery deaths, dynamics churn,
    /// link blackouts, scheduled partitions, area failures or mobility
    /// drift. (Historically only the battery-death path recorded this,
    /// so e.g. a blackout-partitioned run reported `first_partition_s:
    /// None`; every substrate-changing handler now funnels through
    /// here.) Cheap once recorded; until then one O(V+E) traversal per
    /// substrate change.
    fn note_first_partition(&mut self, now: SimTime) {
        if self.first_partition.is_none() && !self.alive_connected() {
            self.first_partition = Some(now);
        }
    }

    /// Are the currently functional nodes (battery intact and powered)
    /// mutually reachable over the effective ground truth? Vacuously true
    /// below two survivors — a lone survivor is an endpoint, not a
    /// partition.
    fn alive_connected(&self) -> bool {
        let n = self.positions.len();
        let alive: Vec<bool> = (0..n)
            .map(|i| !self.battery_dead[i] && self.truth.is_up(NodeId(i as u32)))
            .collect();
        let alive_count = alive.iter().filter(|&&a| a).count();
        if alive_count < 2 {
            return true;
        }
        let start = alive.iter().position(|&a| a).expect("alive_count >= 2");
        let mut seen = vec![false; n];
        let mut stack = vec![NodeId(start as u32)];
        seen[start] = true;
        let mut reached = 1;
        while let Some(u) = stack.pop() {
            for &v in self.truth.adjacency().neighbors(u) {
                if alive[v.index()] && !seen[v.index()] {
                    seen[v.index()] = true;
                    reached += 1;
                    stack.push(v);
                }
            }
        }
        reached == alive_count
    }

    /// Quantised forwarding weight for one node's residual fraction (see
    /// [`EnergyRoutingConfig`]).
    fn advert_weight(&self, i: usize, e: &EnergyRoutingConfig) -> u16 {
        let cfg = self.battery_cfg.as_ref().expect("advert needs a battery");
        if self.battery_dead[i] {
            // Dead nodes carry no links, so the weight is moot; pin it to
            // the ceiling for cleanliness.
            return 1 + e.levels + e.low_penalty;
        }
        let frac = self.batteries[i].residual_frac();
        let scaled = ((1.0 - frac) * e.levels as f64).floor() as u16;
        let mut w = 1 + scaled.min(e.levels);
        if frac < cfg.low_threshold {
            w += e.low_penalty;
        }
        w
    }

    /// Periodic residual-energy advertisement: quantise every battery
    /// into a forwarding weight and, when the vector changed, flood it —
    /// routing shifts to residual-energy-weighted shortest paths.
    fn handle_energy_advert(&mut self, now: SimTime, q: &mut EventQueue<Event>) {
        let Some(e) = self.energy_cfg else {
            return;
        };
        if self.battery_cfg.is_none() {
            return;
        }
        // Residuals are read here, so the skipping engine must first
        // materialise the baseline draws the naive loop has already
        // applied (every slot with start ≤ now has fired there). After
        // all flows complete neither engine fires further slots, so the
        // frozen levels already agree.
        if self.skip_idle && !self.all_flows_completed() {
            let upto = self.schedule.slot_index_at(now) + 1;
            if upto > self.slot_cursor {
                self.replay_idle_slots(upto);
            }
        }
        let weights: Vec<u16> = (0..self.nodes.len())
            .map(|i| self.advert_weight(i, &e))
            .collect();
        let changed = self.advertised_weights.as_ref() != Some(&weights);
        if S::ENABLED {
            let ev = jtp_events::EnergyAdvert { changed };
            self.sub.on_energy_advert(now, &ev);
        }
        if changed {
            self.routing.set_node_weights(Some(weights.clone()));
            self.advertised_weights = Some(weights);
            self.flood_views(now, FloodCause::EnergyAdvert, true);
        }
        let at = now + e.advert_period;
        if at <= self.end {
            q.schedule_at(at, Event::EnergyAdvert);
        }
    }

    // ------------------------------------------------------------------
    // Substrate dynamics
    // ------------------------------------------------------------------

    /// Apply one scheduled dynamics action, then advertise the new truth
    /// to every routing view at once (the flooded link-state update a
    /// failure detection triggers).
    fn handle_dynamics(&mut self, now: SimTime, idx: u32) {
        match self.dynamics[idx as usize].action.clone() {
            DynamicsAction::NodeDown(v) => {
                if self.truth.is_up(v) {
                    self.truth.set_node_up(v, false);
                    // The crash loses the transmit queue; while down the
                    // node enqueues nothing, so its slots stay idle (and
                    // skippable) by construction.
                    self.flush_queue(now, v);
                    self.refresh_backlog(v);
                }
            }
            DynamicsAction::NodeUp(v) => {
                // A battery-dead node is beyond reviving: the scheduled
                // heal fizzles.
                if !self.battery_dead[v.index()] {
                    self.truth.set_node_up(v, true);
                }
            }
            DynamicsAction::LinkDown(a, b) => {
                self.truth.set_link_blocked(a, b, true);
            }
            DynamicsAction::LinkUp(a, b) => {
                self.truth.set_link_blocked(a, b, false);
            }
            DynamicsAction::PartitionStart(group) => {
                let mut side = vec![false; self.positions.len()];
                for v in &group {
                    side[v.index()] = true;
                }
                self.truth.set_partition(Some(side));
            }
            DynamicsAction::PartitionEnd => {
                self.truth.set_partition(None);
            }
            DynamicsAction::AreaFail { x_m, y_m, radius_m } => {
                // Correlated failure: every node inside the disc — at its
                // position **at the instant the event fires**, so under
                // mobility the victim set is sampled from the moved
                // placement, not the initial one — crashes at once.
                let centre = Point::new(x_m, y_m);
                for i in 0..self.positions.len() {
                    let v = NodeId(i as u32);
                    if self.truth.is_up(v) && self.positions[i].distance(centre) <= radius_m {
                        self.truth.set_node_up(v, false);
                        self.flush_queue(now, v);
                        self.refresh_backlog(v);
                    }
                }
            }
        }
        if S::ENABLED {
            let ev = DynamicsApplied { index: idx };
            self.sub.on_dynamics(now, &ev);
        }
        self.flood_views(now, FloodCause::Dynamics, true);
        self.note_first_partition(now);
    }

    // ------------------------------------------------------------------
    // Forwarding
    // ------------------------------------------------------------------

    /// Route `tp` one hop from `from` and enqueue it at `from`'s MAC.
    fn forward_from(&mut self, now: SimTime, from: NodeId, tp: TransportPacket) {
        if !self.truth.is_up(from) {
            // A dead node originates and forwards nothing; transport
            // timers at a crashed endpoint spin harmlessly until it heals.
            self.churn_drops += 1;
            if S::ENABLED {
                let ev = PacketDrop {
                    node: from,
                    cause: DropCause::Churn,
                    packets: 1,
                };
                self.sub.on_drop(now, &ev);
            }
            return;
        }
        let Some(next) = self.routing.next_hop(from, tp.dst_end) else {
            self.no_route_drops += 1;
            if S::ENABLED {
                let ev = PacketDrop {
                    node: from,
                    cause: DropCause::NoRoute,
                    packets: 1,
                };
                self.sub.on_drop(now, &ev);
            }
            return;
        };
        let bytes = tp.payload.wire_bytes();
        let kind = tp.payload.kind();
        let mut frame = Frame::new(from, next, kind, bytes, tp);
        // Non-JTP-data frames use the MAC's full budget; JTP data budgets
        // are set per packet by iJTP at first transmission.
        frame.max_attempts = self.nodes[from.index()].mac.max_attempts_cap();
        let overflow = self.nodes[from.index()].mac.enqueue(frame).is_err(); // counted inside
        if S::ENABLED && overflow {
            let ev = PacketDrop {
                node: from,
                cause: DropCause::Queue,
                packets: 1,
            };
            self.sub.on_drop(now, &ev);
        }
        self.refresh_backlog(from);
    }

    // ------------------------------------------------------------------
    // TDMA slot
    // ------------------------------------------------------------------

    fn handle_slot(&mut self, now: SimTime, slot: u64, q: &mut EventQueue<Event>) {
        if self.skip_idle {
            // This event consumed the pending handle; catch up the skipped
            // idle slots first so MAC statistics are read in replay order.
            self.pending_slot = None;
            self.replay_idle_slots(slot);
            self.backlog_dirty = true;
        }
        self.slot_cursor = slot + 1;
        let owner = self.schedule.owner(slot);
        // Baseline draw lands before the transmission decision; a node
        // whose battery dies of it loses its queue and the slot goes idle
        // — identically in both engines, since this death slot always
        // *fires* (the skipping engine aims at predicted death slots).
        self.charge_baseline(owner, slot);
        self.process_pending_deaths(now);
        if self.skip_idle && self.death_slot[owner.index()].is_some_and(|ds| ds <= slot) {
            // The aimed slot was a conservative lower bound, not the
            // crossing itself: re-predict from the post-charge state and
            // re-aim (each hop lands geometrically closer to the exact
            // death slot; see `predict_death_slot`).
            self.recompute_death_slot(owner.index());
        }
        // Queue depth is sampled at the slot boundary, before the
        // pre-transmit hooks get a chance to drop heads.
        let queue_depth = if S::ENABLED {
            self.nodes[owner.index()].mac.queue_len() as u32
        } else {
            0
        };
        match self.prepare_head(owner, now) {
            None => {
                self.nodes[owner.index()].mac.record_owned_slot(false);
                if S::ENABLED {
                    let ev = SlotGrant {
                        slot,
                        owner,
                        busy: false,
                        queue_depth,
                    };
                    self.sub.on_slot(now, &ev);
                }
            }
            Some((dst, bytes, kind)) => {
                self.nodes[owner.index()].mac.record_owned_slot(true);
                if S::ENABLED {
                    let ev = SlotGrant {
                        slot,
                        owner,
                        busy: true,
                        queue_depth,
                    };
                    self.sub.on_slot(now, &ev);
                }
                let success = self.sample_channel(owner, dst, now);
                if S::ENABLED {
                    let ev = PacketSend {
                        from: owner,
                        to: dst,
                        kind: match kind {
                            FrameKind::Data => PacketKind::Data,
                            FrameKind::Ack => PacketKind::Ack,
                        },
                        bytes: bytes as u32,
                        delivered: success,
                    };
                    self.sub.on_send(now, &ev);
                }
                let tx_j = self.energy_model.tx_energy_j(bytes);
                let (cat_tx, cat_rx) = match kind {
                    FrameKind::Data => (EnergyCategory::DataTx, EnergyCategory::DataRx),
                    FrameKind::Ack => (EnergyCategory::AckTx, EnergyCategory::AckRx),
                };
                self.charge_node(owner, cat_tx, tx_j);
                if success {
                    let rx_j = self.energy_model.rx_energy_j(bytes);
                    self.charge_node(dst, cat_rx, rx_j);
                }
                match self.nodes[owner.index()].mac.transmit_result(success) {
                    SlotOutcome::Delivered(frame) => self.deliver(now, frame, q),
                    SlotOutcome::Exhausted(_) => {
                        if S::ENABLED {
                            let ev = PacketDrop {
                                node: owner,
                                cause: DropCause::Arq,
                                packets: 1,
                            };
                            self.sub.on_drop(now, &ev);
                        }
                    }
                    SlotOutcome::Retrying => {}
                    SlotOutcome::Idle => unreachable!("prepared head implies non-idle"),
                }
                // Transmission/reception drains materialise *after* the
                // frame's fate resolved: the packet that empties a battery
                // still arrives, then the node goes dark.
                self.process_pending_deaths(now);
            }
        }
        self.refresh_backlog(owner);
        if !self.skip_idle {
            // Naive engine: fire every slot; stop once every flow has
            // finished, so the queue drains and the run ends early with
            // identical metrics.
            let next = self.schedule.slot_start(slot + 1);
            if !self.all_flows_completed() && next <= self.end {
                let id = q.schedule_at_class(next, SLOT_CLASS, Event::Slot(slot + 1));
                self.pending_slot = Some((id, slot + 1));
            } else {
                self.pending_slot = None;
            }
        }
    }

    /// Run the pre-transmission hooks on the owner's queue head, dropping
    /// hook-rejected frames, until a transmittable frame remains. Returns
    /// `(next_hop, wire_bytes, kind)`.
    fn prepare_head(&mut self, owner: NodeId, now: SimTime) -> Option<(NodeId, usize, FrameKind)> {
        loop {
            let (dst, dst_end, first, bytes, is_jtp_data, is_atp_data) = {
                let head = self.nodes[owner.index()].mac.head()?;
                (
                    head.dst,
                    head.payload.dst_end,
                    head.is_first_attempt(),
                    head.bytes,
                    matches!(head.payload.payload, Payload::JtpData(_)),
                    matches!(head.payload.payload, Payload::AtpData(_)),
                )
            };
            if is_jtp_data {
                // Gather link state before mutably borrowing the node.
                let remaining = match self.routing.remaining_hops(owner, dst_end) {
                    Some(h) => h.max(1),
                    None => {
                        // The local view lost the route: drop (counted).
                        self.nodes[owner.index()].mac.drop_head();
                        self.no_route_drops += 1;
                        if S::ENABLED {
                            let ev = PacketDrop {
                                node: owner,
                                cause: DropCause::NoRoute,
                                packets: 1,
                            };
                            self.sub.on_drop(now, &ev);
                        }
                        continue;
                    }
                };
                let mac = &self.nodes[owner.index()].mac;
                let link = LinkInfo {
                    loss_rate: mac.loss_rate(dst),
                    avail_rate_pps: mac.available_pps(),
                    avg_attempts: mac.avg_attempts(dst),
                    tx_energy_nj: (self.energy_model.tx_energy_j(bytes) * 1e9).round() as u32,
                    remaining_hops: remaining,
                };
                let node = &mut self.nodes[owner.index()];
                let head = node.mac.head_mut().expect("head probed above");
                let Payload::JtpData(ref mut data) = head.payload.payload else {
                    unreachable!("probed as JTP data")
                };
                match node.ijtp.pre_xmit_data(data, &link, first) {
                    PreXmitVerdict::DropEnergyExhausted => {
                        node.mac.drop_head();
                        if S::ENABLED {
                            let ev = PacketDrop {
                                node: owner,
                                cause: DropCause::Energy,
                                packets: 1,
                            };
                            self.sub.on_drop(now, &ev);
                        }
                        continue;
                    }
                    PreXmitVerdict::Forward { max_attempts } => {
                        if first {
                            head.max_attempts = max_attempts;
                            if S::ENABLED {
                                let ev = AttemptBudget {
                                    node: owner,
                                    budget: max_attempts,
                                };
                                self.sub.on_attempt_budget(now, &ev);
                            }
                        }
                    }
                }
            } else if is_atp_data {
                // ATP's explicit-rate stamping by intermediate nodes.
                let mac = &self.nodes[owner.index()].mac;
                let eff = (mac.available_pps() / mac.avg_attempts(dst).max(1.0)) as f32;
                let head = self.nodes[owner.index()].mac.head_mut().expect("head");
                if let Payload::AtpData(ref mut d) = head.payload.payload {
                    if eff < d.stamped_rate {
                        d.stamped_rate = eff;
                    }
                }
            }
            let head = self.nodes[owner.index()]
                .mac
                .head()
                .expect("head survives hooks");
            return Some((head.dst, head.bytes, head.kind));
        }
    }

    /// Sample the channel for one transmission attempt.
    fn sample_channel(&mut self, from: NodeId, to: NodeId, now: SimTime) -> bool {
        // Substrate dynamics short-circuit the channel without touching
        // any RNG substream: a dead endpoint, a blacked-out link or a
        // partition cut can never deliver.
        if !self.truth.is_up(from) || !self.truth.is_up(to) {
            return false;
        }
        // A duty-cycled receiver sleeping this frame hears nothing (the
        // sender still wakes to transmit in its owned slot and pays for
        // the attempt). Pure function of (node, frame): no RNG consumed,
        // identical on the skipping and naive slot paths.
        if let Some(s) = &self.sleep {
            let frame = self.schedule.slot_index_at(now) / self.nodes.len() as u64;
            if !s.awake(to, frame) {
                return false;
            }
        }
        if self.truth.link_blocked(from, to) {
            return false;
        }
        if !self.truth.same_side(from, to) {
            return false;
        }
        let (lo, hi) = (from.0.min(to.0), from.0.max(to.0));
        let d = self.positions[from.index()].distance(self.positions[to.index()]);
        if !self.pathloss.in_range(d) {
            return false;
        }
        let baseline = self.pathloss.loss_at(d);
        // Fading is shared per undirected link (symmetric channel).
        let n = self.nodes.len() as u64;
        let row = &mut self.channels[lo as usize];
        let k = match row.iter().position(|&(h, _)| h == hi) {
            Some(k) => k,
            None => {
                let ge =
                    GilbertElliott::new(self.gilbert_cfg, self.seed, lo as u64 * n + hi as u64);
                row.push((hi, ge));
                row.len() - 1
            }
        };
        let loss = row[k].1.loss_prob(now, baseline);
        !self.attempt_rng.chance(loss)
    }

    // ------------------------------------------------------------------
    // Delivery
    // ------------------------------------------------------------------

    fn deliver(&mut self, now: SimTime, frame: Frame<TransportPacket>, q: &mut EventQueue<Event>) {
        let here = frame.dst;
        let tp = frame.payload;
        if tp.dst_end == here {
            self.consume(now, here, tp, q);
        } else {
            self.relay(now, here, tp);
        }
    }

    /// Hop processing at an intermediate node (Algorithm 2), then forward.
    fn relay(&mut self, now: SimTime, here: NodeId, mut tp: TransportPacket) {
        match &mut tp.payload {
            Payload::JtpData(d) => {
                self.nodes[here.index()].ijtp.post_rcv_data(d);
            }
            Payload::JtpAck(a) => {
                let recovered = self.nodes[here.index()].ijtp.post_rcv_ack(a);
                if !recovered.is_empty() {
                    // Data flows toward the ACK's origin (the receiver).
                    let data_dst = tp.src_end;
                    let data_src = tp.dst_end;
                    for pkt in recovered {
                        self.forward_from(
                            now,
                            here,
                            TransportPacket {
                                src_end: data_src,
                                dst_end: data_dst,
                                payload: Payload::JtpData(pkt),
                            },
                        );
                    }
                }
            }
            // TCP and ATP are end-to-end only: intermediate nodes forward.
            _ => {}
        }
        self.forward_from(now, here, tp);
    }

    /// Mark a flow complete (first time only).
    fn mark_completed(&mut self, fi: usize, now: SimTime) {
        if self.flows[fi].completed_at.is_none() {
            self.flows[fi].completed_at = Some(now);
            self.completed_flows += 1;
        }
    }

    /// Endpoint processing.
    fn consume(
        &mut self,
        now: SimTime,
        here: NodeId,
        tp: TransportPacket,
        q: &mut EventQueue<Event>,
    ) {
        let fid = tp.payload.flow();
        let fi = fid.index();
        debug_assert!(fi < self.flows.len(), "unknown flow {fid}");
        let wire_bytes = if S::ENABLED {
            tp.payload.wire_bytes() as u32
        } else {
            0
        };
        if tp.payload.kind() == FrameKind::Ack {
            let complete = self.flows[fi].sender.on_feedback(now, &tp.payload);
            if complete {
                self.mark_completed(fi, now);
            }
            self.request_wakeup(fi, now, q);
            return;
        }
        let (fresh, feedback, monitor) = self.flows[fi].receiver.on_data(now, &tp.payload);
        if S::ENABLED {
            let ev = Delivery {
                flow: fid,
                node: here,
                bytes: wire_bytes,
                fresh,
            };
            self.sub.on_delivery(now, &ev);
            if let Some(ev) = monitor {
                self.sub.on_monitor(now, &ev);
            }
        }
        if let Some(p) = feedback {
            let back_to = self.flows[fi].src;
            self.forward_from(
                now,
                here,
                TransportPacket {
                    src_end: here,
                    dst_end: back_to,
                    payload: p,
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Request a sender wakeup at `at`, keeping at most one pending wakeup
    /// per flow: a pending earlier (or equal) wakeup covers this request —
    /// its handler recomputes the next need when it fires — and a pending
    /// later one is cancelled in favour of the earlier time.
    fn request_wakeup(&mut self, fi: usize, at: SimTime, q: &mut EventQueue<Event>) {
        if let Some((id, t)) = self.flows[fi].wakeup {
            if t <= at {
                return;
            }
            q.cancel(id);
        }
        let fid = self.flows[fi].id;
        let id = q.schedule_at(at, Event::SenderWakeup(fid));
        self.flows[fi].wakeup = Some((id, at));
    }

    fn handle_flow_start(&mut self, now: SimTime, fid: FlowId, q: &mut EventQueue<Event>) {
        self.flows[fid.index()].started = true;
        self.request_wakeup(fid.index(), now, q);
        q.schedule_at(now, Event::ReceiverTimer(fid));
    }

    fn handle_sender_wakeup(&mut self, now: SimTime, fid: FlowId, q: &mut EventQueue<Event>) {
        let fi = fid.index();
        // This event is the flow's one pending wakeup.
        self.flows[fi].wakeup = None;
        if !self.flows[fi].started || self.flows[fi].completed_at.is_some() {
            return;
        }
        let (src, dst) = (self.flows[fi].src, self.flows[fi].dst);
        let mut outgoing: Vec<Payload> = Vec::new();
        let next_wakeup = self.flows[fi].sender.on_wakeup(now, &mut outgoing);
        for p in outgoing {
            self.forward_from(
                now,
                src,
                TransportPacket {
                    src_end: src,
                    dst_end: dst,
                    payload: p,
                },
            );
        }
        if let Some(at) = next_wakeup {
            let at = at.max(now + SimDuration::from_millis(1));
            if at <= self.end {
                self.request_wakeup(fi, at, q);
            }
        }
    }

    fn handle_receiver_timer(&mut self, now: SimTime, fid: FlowId, q: &mut EventQueue<Event>) {
        let fi = fid.index();
        if !self.flows[fi].started || self.flows[fi].completed_at.is_some() {
            return;
        }
        let (src, dst) = (self.flows[fi].src, self.flows[fi].dst);
        let (feedback, next_at) = self.flows[fi].receiver.on_timer(now, self.tcp_ack_flush);
        if let Some(p) = feedback {
            // Feedback travels receiver -> sender.
            self.forward_from(
                now,
                dst,
                TransportPacket {
                    src_end: dst,
                    dst_end: src,
                    payload: p,
                },
            );
        }
        let at = next_at.max(now + SimDuration::from_millis(1));
        if at <= self.end {
            q.schedule_at(at, Event::ReceiverTimer(fid));
        }
    }

    fn handle_mobility_tick(&mut self, now: SimTime, q: &mut EventQueue<Event>) {
        let Some(mcfg) = self.mobility_cfg else {
            return;
        };
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if let Mobility::Waypoint(w) = &mut node.mobility {
                self.positions[i] = w.position_at(now);
            }
        }
        let t0 = span_start::<S>();
        // Spatial-grid neighbour discovery (O(n·k)) into a sorted
        // in-range edge list, merged against the standing geometry: only
        // the links that actually appeared or vanished this tick are
        // patched and re-masked — no per-tick graph construction — and
        // the same diff-shaped change is what the routing cache repairs
        // from.
        let edges = self
            .edge_scratch
            .edges_from_positions(&self.positions, &self.pathloss);
        let diff = geometry_edge_diff(self.truth.geometry(), edges);
        self.truth.apply_geometry_diff(&diff);
        let changed_edges = diff.len() as u32;
        if let Some(t0) = t0 {
            self.sub
                .on_subsystem_time(Subsystem::GeometryDiff, t0.elapsed().as_nanos() as u64);
        }
        if S::ENABLED {
            let ev = jtp_events::MobilityTick { changed_edges };
            self.sub.on_mobility(now, &ev);
        }
        self.flood_views(now, FloodCause::Mobility, false);
        self.note_first_partition(now);
        let at = now + mcfg.update_period;
        if at <= self.end {
            q.schedule_at(at, Event::MobilityTick);
        }
    }

    // ------------------------------------------------------------------
    // Harvest
    // ------------------------------------------------------------------

    /// Collect run metrics. Call after the event loop finishes (and, when
    /// idle-slot skipping is on, after [`Network::finalize`]).
    pub fn metrics(&self, now: SimTime) -> Metrics {
        let mut per_node = Vec::with_capacity(self.nodes.len());
        let mut total = EnergyMeter::new();
        for node in &self.nodes {
            per_node.push(node.energy.total_j());
            total.merge(&node.energy);
        }
        let mut queue_drops = 0;
        let mut queue_drops_data = 0;
        let mut arq_drops = 0;
        let mut mac_attempts = 0;
        let mut energy_budget_drops = 0;
        let mut local_recoveries = 0;
        for node in &self.nodes {
            let s = node.mac.stats();
            queue_drops += s.queue_drops;
            queue_drops_data += s.queue_drops_data;
            arq_drops += s.arq_drops;
            mac_attempts += s.attempts;
            let i = node.ijtp.stats();
            energy_budget_drops += i.energy_drops;
            local_recoveries += i.local_retransmissions;
        }
        let mut flows = Vec::with_capacity(self.flows.len());
        let mut delivered_packets = 0;
        let mut delivered_bytes = 0;
        let mut source_retransmissions = 0;
        let mut feedbacks_sent = 0;
        for f in &self.flows {
            let end_time = f.completed_at.unwrap_or(now);
            let active = end_time.since(f.start).as_secs_f64();
            let (packets, bytes, feedbacks) = f.receiver.deliveries();
            let (retransmissions, recovered) = f.sender.retransmissions();
            let fm = FlowMetrics {
                flow: f.id.0,
                delivered_packets: packets,
                delivered_bytes: bytes,
                offered_packets: f.offered_packets,
                source_retransmissions: retransmissions,
                locally_recovered: recovered,
                feedbacks_sent: feedbacks,
                active_time_s: active,
                completed: f.completed_at.is_some(),
            };
            delivered_packets += fm.delivered_packets;
            delivered_bytes += fm.delivered_bytes;
            source_retransmissions += fm.source_retransmissions;
            feedbacks_sent += fm.feedbacks_sent;
            flows.push(fm);
        }
        let residual_j: Vec<f64> = self.batteries.iter().map(|b| b.residual_j()).collect();
        let mut alive = self.positions.len() as u32;
        let alive_curve: Vec<(f64, u32)> = self
            .deaths
            .iter()
            .map(|(t, _)| {
                alive -= 1;
                (t.as_secs_f64(), alive)
            })
            .collect();
        Metrics {
            energy_total_j: total.total_j(),
            per_node_energy_j: per_node,
            energy_ack_j: total.ack_j(),
            battery_deaths: self.deaths.len() as u64,
            first_death_s: self.deaths.first().map(|(t, _)| t.as_secs_f64()),
            first_partition_s: self.first_partition.map(|t| t.as_secs_f64()),
            alive_curve,
            residual_j,
            delivered_packets,
            delivered_bytes,
            source_retransmissions,
            local_recoveries,
            queue_drops,
            queue_drops_data,
            arq_drops,
            energy_budget_drops,
            no_route_drops: self.no_route_drops,
            churn_drops: self.churn_drops,
            mac_attempts,
            feedbacks_sent,
            flows,
            duration_s: now.as_secs_f64(),
        }
    }

    /// Which transport this run exercises.
    pub fn transport(&self) -> TransportKind {
        self.transport
    }

    /// Current node positions (test/diagnostic).
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Whether a node is currently powered — false after dynamics churn,
    /// an area failure or battery death (test/diagnostic; this is what
    /// the `AreaFail` disc-semantics test asserts against).
    pub fn node_is_up(&self, v: NodeId) -> bool {
        self.truth.is_up(v)
    }
}

impl<S: Subscriber> Simulation for Network<S> {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, queue: &mut EventQueue<Event>) {
        let t0 = span_start::<S>();
        match event {
            Event::Slot(s) => self.handle_slot(now, s, queue),
            Event::FlowStart(f) => self.handle_flow_start(now, f, queue),
            Event::SenderWakeup(f) => self.handle_sender_wakeup(now, f, queue),
            Event::ReceiverTimer(f) => self.handle_receiver_timer(now, f, queue),
            Event::MobilityTick => self.handle_mobility_tick(now, queue),
            Event::Dynamics(i) => self.handle_dynamics(now, i),
            Event::EnergyAdvert => self.handle_energy_advert(now, queue),
        }
        if let Some(t0) = t0 {
            // Dispatch-level buckets: every event lands in exactly one
            // (nested flood-plane / geometry-diff spans ride inside).
            let sys = match event {
                Event::Slot(_) => Subsystem::SlotPlane,
                Event::FlowStart(_) | Event::SenderWakeup(_) | Event::ReceiverTimer(_) => {
                    Subsystem::Timers
                }
                Event::MobilityTick => Subsystem::Mobility,
                Event::Dynamics(_) => Subsystem::Dynamics,
                Event::EnergyAdvert => Subsystem::EnergyAdvert,
            };
            self.sub
                .on_subsystem_time(sys, t0.elapsed().as_nanos() as u64);
        }
        // Any handler may have enqueued or drained MAC traffic; keep the
        // skipping engine's slot event aimed at the earliest busy slot.
        self.sync_slot_event(now, queue);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use std::collections::HashSet;

    /// The min-tree agrees with a plain scan after every update, at sizes
    /// that fill no, one and a partial power-of-two level of leaves.
    #[test]
    fn min_tree_tracks_the_minimum() {
        let mut rng = SimRng::derive(5, "min-tree");
        for n in [0, 1, 2, 5, 8, 121] {
            let mut tree = MinTree::new(n);
            let mut plain = vec![None; n];
            assert_eq!(tree.min(), None);
            for _ in 0..20 * n {
                let i = rng.below(n);
                let v = (!rng.chance(0.3)).then(|| rng.below(50) as u64);
                tree.set(i, v);
                plain[i] = v;
                assert_eq!(tree.min(), plain.iter().filter_map(|&v| v).min());
            }
        }
    }

    /// Fading processes are stored per link that carried an attempt: none
    /// at build, and after a full xl run at most one per geometric edge
    /// (127 of 1 984 on `xl-grid-churn`), rather than a slot for each of
    /// the n(n−1)/2 ≈ 524 k pairs of n = 1024.
    #[test]
    fn channel_storage_is_bounded_by_live_links() {
        let sc = Scenario::xl_catalog()
            .into_iter()
            .find(|s| s.name == "xl-grid-churn")
            .expect("xl-grid-churn in the xl catalog");
        let cfg = sc.build(TransportKind::Jtp);
        let (mut net, mut queue) =
            Network::try_with_subscriber(&cfg, NoopSubscriber).expect("valid config");
        assert!(
            net.channels.iter().all(Vec::is_empty),
            "a fading process was stored before any attempt"
        );

        let horizon = net.horizon();
        jtp_sim::run_until(&mut net, &mut queue, horizon);
        let mut keys = HashSet::new();
        for (lo, row) in net.channels.iter().enumerate() {
            for &(hi, _) in row {
                assert!(
                    (lo as u32) < hi,
                    "link ({lo}, {hi}) stored under the wrong row"
                );
                assert!(
                    keys.insert((lo as u32, hi)),
                    "link ({lo}, {hi}) stored twice"
                );
            }
        }
        let geo = net.truth.geometry();
        let n = geo.len();
        let edges = (0..n)
            .map(|i| geo.neighbors(NodeId(i as u32)).len())
            .sum::<usize>()
            / 2;
        assert!(!keys.is_empty(), "the run transmitted nothing");
        assert!(
            keys.len() <= edges,
            "{} stored processes exceed {edges} geometric edges",
            keys.len()
        );
        assert!(keys.len() * 100 < n * (n - 1) / 2);
    }
}
