//! Declarative scenario engine: traffic patterns × substrate dynamics ×
//! topologies, lowered onto [`ExperimentConfig`].
//!
//! The paper's evaluation exercises a handful of fixed topologies and bulk
//! flows; a [`Scenario`] composes richer workloads — constant-bit-rate
//! streams, on-off bursts, many-to-one convergecast, bidirectional
//! cross-traffic — with network dynamics — node failure/recovery churn,
//! partitions via link blackouts, link flapping — over any
//! [`TopologyKind`] (chains, random fields, grids, clusters), and lowers
//! the whole description to a plain [`ExperimentConfig`] that every
//! existing runner, trace and equivalence proof already understands.
//!
//! ```
//! use jtp_netsim::scenario::{DynamicsSpec, Scenario, TrafficPattern};
//! use jtp_netsim::{run_experiment, TopologyKind, TransportKind};
//! use jtp_sim::NodeId;
//!
//! let sc = Scenario::new(
//!     "demo-grid-churn",
//!     TopologyKind::Grid { cols: 3, rows: 3, spacing_m: 80.0 },
//! )
//! .duration_s(400.0)
//! .seed(7)
//! .traffic(TrafficPattern::Cbr {
//!     src: NodeId(0),
//!     dst: NodeId(8),
//!     rate_pps: 1.0,
//!     start_s: 5.0,
//!     duration_s: 60.0,
//!     loss_tolerance: 0.0,
//! })
//! .dynamics(DynamicsSpec::NodeChurn {
//!     node: NodeId(4),
//!     fail_at_s: 20.0,
//!     recover_at_s: 45.0,
//! });
//! let m = run_experiment(&sc.build(TransportKind::Jtp));
//! assert!(m.delivered_packets > 0);
//! ```

use crate::config::{
    ConfigError, DynamicsAction, DynamicsEvent, ExperimentConfig, FlowSpec, RoutingBackendKind,
    TopologyKind, TransportKind,
};
use jtp_mac::DutyCycleConfig;
use jtp_phys::BatteryConfig;
use jtp_sim::{NodeId, SimDuration, SimRng};

/// One declarative workload component. Patterns lower to one or more
/// [`FlowSpec`]s; rates map onto the transport's initial sending rate (the
/// receiver-driven controllers take over from there, so a "CBR" stream is
/// an *offered* constant rate, shaped by the protocol under test).
#[derive(Clone, Debug)]
pub enum TrafficPattern {
    /// A single bulk transfer (the paper's workload).
    Bulk {
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Packets to transfer.
        packets: u32,
        /// Start time (seconds).
        start_s: f64,
        /// End-to-end loss tolerance (JTP only; forced to 0 for TCP/ATP).
        loss_tolerance: f64,
    },
    /// A constant-bit-rate stream: `rate_pps · duration_s` packets
    /// offered at `rate_pps` from the first packet on.
    Cbr {
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Offered rate in packets per second.
        rate_pps: f64,
        /// Start time (seconds).
        start_s: f64,
        /// Stream length (seconds).
        duration_s: f64,
        /// End-to-end loss tolerance (JTP only; forced to 0 for TCP/ATP).
        loss_tolerance: f64,
    },
    /// Periodic bursts: `cycles` bursts of `rate_pps · on_s` packets,
    /// `on_s + off_s` apart, each arriving "hot" at `rate_pps`.
    OnOff {
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Burst rate in packets per second.
        rate_pps: f64,
        /// Burst length (seconds).
        on_s: f64,
        /// Silence between bursts (seconds).
        off_s: f64,
        /// First burst start (seconds).
        start_s: f64,
        /// Number of bursts.
        cycles: u32,
        /// End-to-end loss tolerance (JTP only; forced to 0 for TCP/ATP).
        loss_tolerance: f64,
    },
    /// Many-to-one: every source sends `packets` to the common sink,
    /// starts staggered by `stagger_s` (sensor-style convergecast).
    Convergecast {
        /// The common destination.
        sink: NodeId,
        /// Sending nodes.
        sources: Vec<NodeId>,
        /// Packets per source.
        packets: u32,
        /// First source's start time (seconds).
        start_s: f64,
        /// Start offset between consecutive sources (seconds).
        stagger_s: f64,
    },
    /// Bidirectional cross-traffic: simultaneous equal transfers `a → b`
    /// and `b → a` (data of each direction competes with the other's
    /// feedback on every shared slot).
    CrossTraffic {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// Packets per direction.
        packets: u32,
        /// Start time of both directions (seconds).
        start_s: f64,
    },
    /// A Poisson flow-arrival process: `flows` transfers whose start
    /// times form a Poisson process of rate `rate_per_s` from `start_s`
    /// on, each between a uniformly drawn distinct src/dst pair. Drawn
    /// from the scenario seed's own substream (in-crate xoshiro), so the
    /// arrival pattern is independent of channel/mobility randomness and
    /// identical across the transports being compared.
    Poisson {
        /// Number of flow arrivals.
        flows: u32,
        /// Arrival rate (flows per second).
        rate_per_s: f64,
        /// Packets per flow.
        packets: u32,
        /// Process start time (seconds).
        start_s: f64,
        /// End-to-end loss tolerance (JTP only; forced to 0 for TCP/ATP).
        loss_tolerance: f64,
    },
    /// A flash crowd: burst *events* arrive as a Poisson process of rate
    /// `burst_rate_per_s`, and each event spawns `flows_per_burst` short
    /// flows **at the same instant** between uniformly drawn distinct
    /// endpoint pairs — the synchronized-demand spike that exposes slow
    /// ramp-up and unfair convergence in congestion controllers. Drawn
    /// from the `"scenario-flash"` substream of the scenario seed, so the
    /// burst pattern is identical across the transports being compared.
    FlashCrowd {
        /// Number of burst events.
        bursts: u32,
        /// Burst-event arrival rate (events per second).
        burst_rate_per_s: f64,
        /// Simultaneous flows per burst event.
        flows_per_burst: u32,
        /// Packets per flow (flash flows are short).
        packets: u32,
        /// Process start time (seconds).
        start_s: f64,
        /// End-to-end loss tolerance (JTP only; forced to 0 for baselines).
        loss_tolerance: f64,
    },
    /// Heavy-tailed transfer sizes: `flows` transfers whose sizes follow a
    /// bounded Pareto distribution with shape `alpha` on
    /// `[min_packets, max_packets]` (inverse-CDF sampled — most flows are
    /// mice, a few are elephants), each starting uniformly inside
    /// `[start_s, start_s + window_s)` between uniformly drawn distinct
    /// endpoint pairs. Drawn from the `"scenario-pareto"` substream.
    ParetoBulk {
        /// Number of transfers.
        flows: u32,
        /// Pareto shape (smaller ⇒ heavier tail; 1.1–1.5 is web-like).
        alpha: f64,
        /// Smallest transfer (packets).
        min_packets: u32,
        /// Largest transfer (packets).
        max_packets: u32,
        /// Window start (seconds).
        start_s: f64,
        /// Arrival window length (seconds).
        window_s: f64,
        /// End-to-end loss tolerance (JTP only; forced to 0 for baselines).
        loss_tolerance: f64,
    },
    /// An incast storm: every source fires `packets` at the common sink
    /// **simultaneously**, in `waves` synchronized waves `period_s` apart
    /// — the datacenter-style fan-in that collapses the sink's last hop.
    /// Fully deterministic (no substream): the synchronization *is* the
    /// workload. Always fully reliable, like convergecast.
    Incast {
        /// The common destination.
        sink: NodeId,
        /// Sending nodes (all start at once).
        sources: Vec<NodeId>,
        /// Packets per source per wave.
        packets: u32,
        /// First wave start (seconds).
        start_s: f64,
        /// Number of synchronized waves.
        waves: u32,
        /// Wave spacing (seconds; must be positive when `waves > 1`).
        period_s: f64,
    },
}

impl TrafficPattern {
    /// The pattern's end-to-end loss tolerance, for patterns that carry
    /// one (`None` for convergecast and cross-traffic, which are always
    /// fully reliable).
    pub fn loss_tolerance(&self) -> Option<f64> {
        match self {
            TrafficPattern::Bulk { loss_tolerance, .. }
            | TrafficPattern::Cbr { loss_tolerance, .. }
            | TrafficPattern::OnOff { loss_tolerance, .. }
            | TrafficPattern::Poisson { loss_tolerance, .. }
            | TrafficPattern::FlashCrowd { loss_tolerance, .. }
            | TrafficPattern::ParetoBulk { loss_tolerance, .. } => Some(*loss_tolerance),
            TrafficPattern::Convergecast { .. }
            | TrafficPattern::CrossTraffic { .. }
            | TrafficPattern::Incast { .. } => None,
        }
    }

    /// Append this pattern's flows. `force_reliable` clamps loss
    /// tolerance to 0 (TCP/ATP support nothing else); `n_nodes`, `seed`
    /// and `index` feed the stochastic patterns (Poisson arrivals draw
    /// endpoints over the topology from a per-pattern substream).
    fn lower(
        &self,
        flows: &mut Vec<FlowSpec>,
        force_reliable: bool,
        n_nodes: usize,
        seed: u64,
        index: usize,
    ) {
        let lt = |x: f64| if force_reliable { 0.0 } else { x };
        let mut push = |src: NodeId, dst: NodeId, start_s: f64, packets: u32, tol: f64, rate| {
            flows.push(FlowSpec {
                src,
                dst,
                start: SimDuration::from_secs_f64(start_s),
                packets: packets.max(1),
                loss_tolerance: tol,
                initial_rate_pps: rate,
            });
        };
        match self {
            TrafficPattern::Bulk {
                src,
                dst,
                packets,
                start_s,
                loss_tolerance,
            } => push(*src, *dst, *start_s, *packets, lt(*loss_tolerance), None),
            TrafficPattern::Cbr {
                src,
                dst,
                rate_pps,
                start_s,
                duration_s,
                loss_tolerance,
            } => push(
                *src,
                *dst,
                *start_s,
                (rate_pps * duration_s).round() as u32,
                lt(*loss_tolerance),
                Some(*rate_pps),
            ),
            TrafficPattern::OnOff {
                src,
                dst,
                rate_pps,
                on_s,
                off_s,
                start_s,
                cycles,
                loss_tolerance,
            } => {
                for i in 0..*cycles {
                    push(
                        *src,
                        *dst,
                        start_s + i as f64 * (on_s + off_s),
                        (rate_pps * on_s).round() as u32,
                        lt(*loss_tolerance),
                        Some(*rate_pps),
                    );
                }
            }
            TrafficPattern::Convergecast {
                sink,
                sources,
                packets,
                start_s,
                stagger_s,
            } => {
                for (i, src) in sources.iter().enumerate() {
                    push(
                        *src,
                        *sink,
                        start_s + i as f64 * stagger_s,
                        *packets,
                        0.0,
                        None,
                    );
                }
            }
            TrafficPattern::CrossTraffic {
                a,
                b,
                packets,
                start_s,
            } => {
                push(*a, *b, *start_s, *packets, 0.0, None);
                push(*b, *a, *start_s, *packets, 0.0, None);
            }
            TrafficPattern::Poisson {
                flows: n_flows,
                rate_per_s,
                packets,
                start_s,
                loss_tolerance,
            } => {
                assert!(*rate_per_s > 0.0, "Poisson rate must be positive");
                assert!(n_nodes >= 2, "Poisson flows need two endpoints");
                let mut rng = SimRng::derive_indexed(seed, "scenario-poisson", index as u64);
                let mut at = *start_s;
                for _ in 0..*n_flows {
                    at += rng.exponential(1.0 / rate_per_s);
                    let src = rng.below(n_nodes);
                    let dst = loop {
                        let d = rng.below(n_nodes);
                        if d != src {
                            break d;
                        }
                    };
                    push(
                        NodeId(src as u32),
                        NodeId(dst as u32),
                        at,
                        *packets,
                        lt(*loss_tolerance),
                        None,
                    );
                }
            }
            TrafficPattern::FlashCrowd {
                bursts,
                burst_rate_per_s,
                flows_per_burst,
                packets,
                start_s,
                loss_tolerance,
            } => {
                assert!(*burst_rate_per_s > 0.0, "flash-crowd rate must be positive");
                assert!(n_nodes >= 2, "flash-crowd flows need two endpoints");
                let mut rng = SimRng::derive_indexed(seed, "scenario-flash", index as u64);
                let mut at = *start_s;
                for _ in 0..*bursts {
                    at += rng.exponential(1.0 / burst_rate_per_s);
                    for _ in 0..*flows_per_burst {
                        let src = rng.below(n_nodes);
                        let dst = loop {
                            let d = rng.below(n_nodes);
                            if d != src {
                                break d;
                            }
                        };
                        push(
                            NodeId(src as u32),
                            NodeId(dst as u32),
                            at,
                            *packets,
                            lt(*loss_tolerance),
                            None,
                        );
                    }
                }
            }
            TrafficPattern::ParetoBulk {
                flows: n_flows,
                alpha,
                min_packets,
                max_packets,
                start_s,
                window_s,
                loss_tolerance,
            } => {
                assert!(*alpha > 0.0, "Pareto shape must be positive");
                assert!(
                    1 <= *min_packets && min_packets <= max_packets,
                    "Pareto bounds must satisfy 1 <= min <= max"
                );
                assert!(n_nodes >= 2, "Pareto flows need two endpoints");
                let mut rng = SimRng::derive_indexed(seed, "scenario-pareto", index as u64);
                let (l, h) = (*min_packets as f64, *max_packets as f64);
                for _ in 0..*n_flows {
                    let at = start_s + rng.uniform(0.0, window_s.max(0.0));
                    // Bounded Pareto via inverse CDF:
                    //   x = L / (1 − U·(1 − (L/H)^α))^(1/α),  U ∈ [0, 1)
                    // U = 0 ⇒ L (a mouse), U → 1 ⇒ H (an elephant).
                    let u = rng.f64();
                    let x = l / (1.0 - u * (1.0 - (l / h).powf(*alpha))).powf(1.0 / alpha);
                    let size = (x.round() as u32).clamp(*min_packets, *max_packets);
                    let src = rng.below(n_nodes);
                    let dst = loop {
                        let d = rng.below(n_nodes);
                        if d != src {
                            break d;
                        }
                    };
                    push(
                        NodeId(src as u32),
                        NodeId(dst as u32),
                        at,
                        size,
                        lt(*loss_tolerance),
                        None,
                    );
                }
            }
            TrafficPattern::Incast {
                sink,
                sources,
                packets,
                start_s,
                waves,
                period_s,
            } => {
                for w in 0..*waves {
                    let at = start_s + w as f64 * period_s;
                    for src in sources {
                        push(*src, *sink, at, *packets, 0.0, None);
                    }
                }
            }
        }
    }
}

/// One declarative substrate-dynamics component, lowered to scheduled
/// [`DynamicsEvent`]s.
#[derive(Clone, Debug)]
pub enum DynamicsSpec {
    /// The node crashes at `fail_at_s` (losing its queue) and recovers —
    /// empty-handed — at `recover_at_s`.
    NodeChurn {
        /// The churning node.
        node: NodeId,
        /// Crash time (seconds).
        fail_at_s: f64,
        /// Recovery time (seconds).
        recover_at_s: f64,
    },
    /// A clean partition: every link between `group` and the rest blacks
    /// out during `[start_s, end_s)`.
    Partition {
        /// One side of the cut.
        group: Vec<NodeId>,
        /// Blackout start (seconds).
        start_s: f64,
        /// Blackout end (seconds).
        end_s: f64,
    },
    /// A correlated area failure at `at_s`: every node within `radius_m`
    /// of `(x_m, y_m)` — wherever it has moved to by then — crashes at
    /// once (ROADMAP's "all nodes in a disc"). Composes naturally with
    /// battery death: the blast prunes the topology, survivors inherit
    /// the forwarding load and drain faster.
    AreaFailure {
        /// Blast centre x (metres).
        x_m: f64,
        /// Blast centre y (metres).
        y_m: f64,
        /// Blast radius (metres).
        radius_m: f64,
        /// Blast time (seconds).
        at_s: f64,
    },
    /// The link `{a, b}` flaps: `cycles` blackouts of `down_s` seconds,
    /// starting `period_s` apart from `first_down_s` on.
    LinkFlap {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// First blackout start (seconds).
        first_down_s: f64,
        /// Blackout length (seconds).
        down_s: f64,
        /// Blackout spacing (seconds, must exceed `down_s`).
        period_s: f64,
        /// Number of blackouts.
        cycles: u32,
    },
}

impl DynamicsSpec {
    /// Append this spec's scheduled events.
    fn lower(&self, out: &mut Vec<DynamicsEvent>) {
        match self {
            DynamicsSpec::NodeChurn {
                node,
                fail_at_s,
                recover_at_s,
            } => {
                assert!(fail_at_s < recover_at_s, "churn must fail before healing");
                out.push(DynamicsEvent::at_s(
                    *fail_at_s,
                    DynamicsAction::NodeDown(*node),
                ));
                out.push(DynamicsEvent::at_s(
                    *recover_at_s,
                    DynamicsAction::NodeUp(*node),
                ));
            }
            DynamicsSpec::Partition {
                group,
                start_s,
                end_s,
            } => {
                assert!(start_s < end_s, "partition must start before healing");
                out.push(DynamicsEvent::at_s(
                    *start_s,
                    DynamicsAction::PartitionStart(group.clone()),
                ));
                out.push(DynamicsEvent::at_s(*end_s, DynamicsAction::PartitionEnd));
            }
            DynamicsSpec::AreaFailure {
                x_m,
                y_m,
                radius_m,
                at_s,
            } => {
                out.push(DynamicsEvent::at_s(
                    *at_s,
                    DynamicsAction::AreaFail {
                        x_m: *x_m,
                        y_m: *y_m,
                        radius_m: *radius_m,
                    },
                ));
            }
            DynamicsSpec::LinkFlap {
                a,
                b,
                first_down_s,
                down_s,
                period_s,
                cycles,
            } => {
                assert!(down_s < period_s, "flap duty cycle must leave up-time");
                for i in 0..*cycles {
                    let t = first_down_s + i as f64 * period_s;
                    out.push(DynamicsEvent::at_s(t, DynamicsAction::LinkDown(*a, *b)));
                    out.push(DynamicsEvent::at_s(
                        t + down_s,
                        DynamicsAction::LinkUp(*a, *b),
                    ));
                }
            }
        }
    }
}

/// A complete declarative scenario. Build one with [`Scenario::new`] and
/// the chaining methods, then lower it with [`Scenario::build`] for any
/// transport — the same scenario sweeps cleanly across JTP/TCP/ATP (loss
/// tolerances collapse to full reliability where the transport demands
/// it).
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Stable identifier (used by golden-trace digests and bench tables).
    pub name: String,
    /// Node placement.
    pub topology: TopologyKind,
    /// Workload components.
    pub traffic: Vec<TrafficPattern>,
    /// Substrate dynamics components.
    pub dynamics: Vec<DynamicsSpec>,
    /// Simulated duration (seconds).
    pub duration_s: f64,
    /// Master seed.
    pub seed: u64,
    /// Random-waypoint speed (None = static).
    pub mobile_mps: Option<f64>,
    /// Finite per-node energy budgets (None = tally-only energy monitor).
    pub battery: Option<BatteryConfig>,
    /// Duty-cycled sleep schedule (None = always listening).
    pub duty_cycle: Option<DutyCycleConfig>,
    /// Route on residual-energy-weighted shortest paths (needs a battery).
    pub energy_routing: bool,
    /// Which routing backend maintains per-node views. `Exact` (the
    /// default) keeps every historical golden byte-identical; the
    /// `xl` catalog switches to `Hierarchical` for sub-quadratic
    /// routing state at 1000+ nodes.
    pub routing_backend: RoutingBackendKind,
    /// TDMA slot length override in milliseconds (None = the engine
    /// default, 25 ms). A 1000+-node frame at the default slot spans
    /// ~26 s — per-node capacity ≈ 0.04 pps, so no multi-hop flow can
    /// complete inside a realistic horizon; the `xl` catalog shortens
    /// the slot to keep the frame (and thus hop latency) around a
    /// second. Historical catalog entries leave this `None` so their
    /// goldens never move.
    pub slot_ms: Option<u64>,
}

impl Scenario {
    /// A scenario skeleton: static topology, no traffic, 600 s, seed 1.
    pub fn new(name: &str, topology: TopologyKind) -> Self {
        Scenario {
            name: name.to_string(),
            topology,
            traffic: Vec::new(),
            dynamics: Vec::new(),
            duration_s: 600.0,
            seed: 1,
            mobile_mps: None,
            battery: None,
            duty_cycle: None,
            energy_routing: false,
            routing_backend: RoutingBackendKind::Exact,
            slot_ms: None,
        }
    }

    /// Add a traffic pattern.
    pub fn traffic(mut self, t: TrafficPattern) -> Self {
        self.traffic.push(t);
        self
    }

    /// Add a dynamics component.
    pub fn dynamics(mut self, d: DynamicsSpec) -> Self {
        self.dynamics.push(d);
        self
    }

    /// Set the simulated duration.
    pub fn duration_s(mut self, s: f64) -> Self {
        self.duration_s = s;
        self
    }

    /// Set the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enable random-waypoint mobility at the paper's parameters.
    pub fn mobile(mut self, speed_mps: f64) -> Self {
        self.mobile_mps = Some(speed_mps);
        self
    }

    /// Give every node a finite battery.
    pub fn battery(mut self, battery: BatteryConfig) -> Self {
        self.battery = Some(battery);
        self
    }

    /// Put every node on a duty-cycled sleep schedule.
    pub fn duty_cycle(mut self, duty: DutyCycleConfig) -> Self {
        self.duty_cycle = Some(duty);
        self
    }

    /// Route on residual-energy-weighted shortest paths (default
    /// parameters; requires [`Scenario::battery`]).
    pub fn energy_routing(mut self) -> Self {
        self.energy_routing = true;
        self
    }

    /// Select the routing backend (see [`RoutingBackendKind`]).
    pub fn routing_backend(mut self, kind: RoutingBackendKind) -> Self {
        self.routing_backend = kind;
        self
    }

    /// Override the TDMA slot length (milliseconds, must be positive —
    /// enforced by [`ExperimentConfig::validate`] at lowering time).
    pub fn slot_ms(mut self, ms: u64) -> Self {
        self.slot_ms = Some(ms);
        self
    }

    /// Lower onto a validated [`ExperimentConfig`] for `transport`.
    ///
    /// Panics if the scenario is malformed — the convenience wrapper for
    /// hand-written scenarios that are supposed to be correct. Generated
    /// or untrusted scenarios should use [`Scenario::try_build`].
    pub fn build(&self, transport: TransportKind) -> ExperimentConfig {
        self.try_build(transport)
            .unwrap_or_else(|e| panic!("scenario {} lowers invalid: {e}", self.name))
    }

    /// Lower onto a validated [`ExperimentConfig`] for `transport`,
    /// reporting malformed scenarios as [`ConfigError`] instead of
    /// panicking. Scenario-level inconsistencies (unordered churn times,
    /// flap duty cycles with no up-time, non-positive Poisson rates)
    /// surface as [`ConfigError::Scenario`]; everything else funnels
    /// through [`ExperimentConfig::validate`].
    pub fn try_build(&self, transport: TransportKind) -> Result<ExperimentConfig, ConfigError> {
        self.validate_specs()?;
        let mut cfg = ExperimentConfig::with_topology(self.topology.clone())
            .transport(transport)
            .duration_s(self.duration_s)
            .seed(self.seed);
        if let Some(s) = self.mobile_mps {
            cfg = cfg.mobile(s);
        }
        if let Some(b) = self.battery {
            cfg = cfg.battery(b);
        }
        if let Some(d) = self.duty_cycle {
            cfg = cfg.duty_cycle(d);
        }
        if self.energy_routing {
            cfg = cfg.energy_aware_routing();
        }
        cfg = cfg.routing_backend(self.routing_backend);
        if let Some(ms) = self.slot_ms {
            cfg.slot = SimDuration::from_millis(ms);
        }
        let n_nodes = self.topology.node_count();
        let force_reliable = transport.requires_full_reliability();
        for (i, t) in self.traffic.iter().enumerate() {
            t.lower(&mut cfg.flows, force_reliable, n_nodes, self.seed, i);
        }
        for d in &self.dynamics {
            d.lower(&mut cfg.dynamics);
        }
        cfg.validate()?;
        Ok(cfg)
    }

    /// Scenario-level sanity: the declarative fields the lowering step
    /// consumes before [`ExperimentConfig::validate`] ever sees the
    /// result. Ordering checks are deliberately negated (`!(a < b)`, not
    /// `a >= b`) so NaN input falls into the rejecting branch.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn validate_specs(&self) -> Result<(), ConfigError> {
        let err = |reason: String| ConfigError::Scenario {
            name: self.name.clone(),
            reason,
        };
        // Guards the Poisson endpoint-draw loop, which needs two distinct
        // nodes to terminate.
        if self.topology.node_count() < 2 {
            return Err(err(format!(
                "need at least source and destination (got {} nodes)",
                self.topology.node_count()
            )));
        }
        for (i, t) in self.traffic.iter().enumerate() {
            if let TrafficPattern::Poisson { rate_per_s, .. } = t {
                if !(rate_per_s.is_finite() && *rate_per_s > 0.0) {
                    return Err(err(format!(
                        "traffic {i}: Poisson rate must be finite and positive \
                         (got {rate_per_s} flows/s)"
                    )));
                }
            }
            if let TrafficPattern::FlashCrowd {
                burst_rate_per_s, ..
            } = t
            {
                if !(burst_rate_per_s.is_finite() && *burst_rate_per_s > 0.0) {
                    return Err(err(format!(
                        "traffic {i}: flash-crowd burst rate must be finite and \
                         positive (got {burst_rate_per_s} events/s)"
                    )));
                }
            }
            if let TrafficPattern::ParetoBulk {
                alpha,
                min_packets,
                max_packets,
                window_s,
                ..
            } = t
            {
                if !(alpha.is_finite() && *alpha > 0.0) {
                    return Err(err(format!(
                        "traffic {i}: Pareto shape must be finite and positive \
                         (got {alpha})"
                    )));
                }
                if *min_packets < 1 || min_packets > max_packets {
                    return Err(err(format!(
                        "traffic {i}: Pareto bounds must satisfy 1 <= min <= max \
                         (got [{min_packets}, {max_packets}])"
                    )));
                }
                if !(window_s.is_finite() && *window_s >= 0.0) {
                    return Err(err(format!(
                        "traffic {i}: Pareto arrival window must be finite and \
                         non-negative (got {window_s} s)"
                    )));
                }
            }
            if let TrafficPattern::Incast {
                sources,
                waves,
                period_s,
                ..
            } = t
            {
                if sources.is_empty() {
                    return Err(err(format!("traffic {i}: incast needs sources")));
                }
                if *waves > 1 && !(period_s.is_finite() && *period_s > 0.0) {
                    return Err(err(format!(
                        "traffic {i}: incast wave period must be finite and positive \
                         (got {period_s} s for {waves} waves)"
                    )));
                }
            }
            // Checked here, not only in cfg.validate(): the lowering
            // forces loss tolerance to 0 for TCP/ATP, which would
            // otherwise *silently launder* an out-of-domain value
            // (first caught by the fuzzer: tolerance 1.5 under Tcp).
            if let Some(lt) = t.loss_tolerance() {
                if !(0.0..=1.0).contains(&lt) {
                    return Err(err(format!(
                        "traffic {i}: loss tolerance {lt} outside [0, 1]"
                    )));
                }
            }
        }
        for (i, d) in self.dynamics.iter().enumerate() {
            match d {
                DynamicsSpec::NodeChurn {
                    fail_at_s,
                    recover_at_s,
                    ..
                } => {
                    if !(fail_at_s < recover_at_s) {
                        return Err(err(format!(
                            "dynamics {i}: churn must fail (at {fail_at_s} s) before \
                             healing (at {recover_at_s} s)"
                        )));
                    }
                }
                DynamicsSpec::Partition { start_s, end_s, .. } => {
                    if !(start_s < end_s) {
                        return Err(err(format!(
                            "dynamics {i}: partition must start (at {start_s} s) before \
                             healing (at {end_s} s)"
                        )));
                    }
                }
                DynamicsSpec::LinkFlap {
                    down_s, period_s, ..
                } => {
                    if !(*down_s > 0.0 && down_s < period_s) {
                        return Err(err(format!(
                            "dynamics {i}: flap down-time ({down_s} s) must be positive \
                             and below the period ({period_s} s)"
                        )));
                    }
                }
                DynamicsSpec::AreaFailure { .. } => {} // checked by cfg.validate()
            }
        }
        Ok(())
    }

    /// The canonical scenario catalog: one entry per workload/dynamics/
    /// topology family. The golden-trace regression tests pin each
    /// entry's JTP metrics byte-for-byte, and `scenarios matrix` sweeps
    /// the grid across transports.
    pub fn catalog() -> Vec<Scenario> {
        vec![
            Scenario::new(
                "chain-bulk",
                TopologyKind::Linear {
                    n: 6,
                    spacing_m: 55.0,
                },
            )
            .duration_s(700.0)
            .seed(101)
            .traffic(TrafficPattern::Bulk {
                src: NodeId(0),
                dst: NodeId(5),
                packets: 120,
                start_s: 5.0,
                loss_tolerance: 0.0,
            }),
            Scenario::new(
                "chain-flap",
                TopologyKind::Linear {
                    n: 7,
                    spacing_m: 55.0,
                },
            )
            .duration_s(900.0)
            .seed(102)
            .traffic(TrafficPattern::Bulk {
                src: NodeId(0),
                dst: NodeId(6),
                packets: 90,
                start_s: 5.0,
                loss_tolerance: 0.0,
            })
            .dynamics(DynamicsSpec::LinkFlap {
                a: NodeId(2),
                b: NodeId(3),
                first_down_s: 30.0,
                down_s: 10.0,
                period_s: 60.0,
                cycles: 5,
            }),
            Scenario::new(
                "grid-cross",
                TopologyKind::Grid {
                    cols: 4,
                    rows: 4,
                    spacing_m: 80.0,
                },
            )
            .duration_s(900.0)
            .seed(103)
            .traffic(TrafficPattern::CrossTraffic {
                a: NodeId(0),
                b: NodeId(15),
                packets: 70,
                start_s: 5.0,
            })
            .traffic(TrafficPattern::Bulk {
                src: NodeId(3),
                dst: NodeId(12),
                packets: 50,
                start_s: 20.0,
                loss_tolerance: 0.0,
            }),
            Scenario::new(
                "grid-churn-cbr",
                TopologyKind::Grid {
                    cols: 4,
                    rows: 4,
                    spacing_m: 80.0,
                },
            )
            .duration_s(700.0)
            .seed(104)
            .traffic(TrafficPattern::Cbr {
                src: NodeId(0),
                dst: NodeId(15),
                rate_pps: 1.5,
                start_s: 10.0,
                duration_s: 120.0,
                loss_tolerance: 0.0,
            })
            .dynamics(DynamicsSpec::NodeChurn {
                node: NodeId(5),
                fail_at_s: 40.0,
                recover_at_s: 90.0,
            })
            .dynamics(DynamicsSpec::NodeChurn {
                node: NodeId(10),
                fail_at_s: 60.0,
                recover_at_s: 120.0,
            }),
            Scenario::new(
                "chain-onoff",
                TopologyKind::Linear {
                    n: 8,
                    spacing_m: 55.0,
                },
            )
            .duration_s(800.0)
            .seed(105)
            .traffic(TrafficPattern::OnOff {
                src: NodeId(0),
                dst: NodeId(7),
                rate_pps: 3.0,
                on_s: 20.0,
                off_s: 40.0,
                start_s: 10.0,
                cycles: 4,
                loss_tolerance: 0.0,
            }),
            Scenario::new(
                "random-convergecast",
                TopologyKind::Random {
                    n: 16,
                    field_side_m: 240.0,
                },
            )
            .duration_s(900.0)
            .seed(106)
            .traffic(TrafficPattern::Convergecast {
                sink: NodeId(0),
                sources: vec![NodeId(3), NodeId(7), NodeId(11), NodeId(14), NodeId(15)],
                packets: 35,
                start_s: 5.0,
                stagger_s: 4.0,
            }),
            Scenario::new(
                "random-partition",
                TopologyKind::Random {
                    n: 14,
                    field_side_m: 225.0,
                },
            )
            .duration_s(900.0)
            .seed(107)
            .traffic(TrafficPattern::Bulk {
                src: NodeId(0),
                dst: NodeId(13),
                packets: 90,
                start_s: 5.0,
                loss_tolerance: 0.0,
            })
            .dynamics(DynamicsSpec::Partition {
                group: (0..7).map(NodeId).collect(),
                start_s: 60.0,
                end_s: 150.0,
            }),
            Scenario::new(
                "clustered-onoff-cross",
                TopologyKind::Clustered {
                    clusters: 3,
                    per_cluster: 4,
                    spread_m: 25.0,
                    cluster_spacing_m: 90.0,
                },
            )
            .duration_s(900.0)
            .seed(108)
            .traffic(TrafficPattern::CrossTraffic {
                a: NodeId(0),
                b: NodeId(11),
                packets: 50,
                start_s: 5.0,
            })
            .traffic(TrafficPattern::OnOff {
                src: NodeId(4),
                dst: NodeId(8),
                rate_pps: 2.0,
                on_s: 15.0,
                off_s: 45.0,
                start_s: 30.0,
                cycles: 3,
                loss_tolerance: 0.0,
            }),
            // ---- lifetime family: finite batteries, nodes die ----
            Scenario::new(
                "grid-lifetime-race",
                TopologyKind::Grid {
                    cols: 4,
                    rows: 4,
                    spacing_m: 80.0,
                },
            )
            .duration_s(900.0)
            .seed(109)
            .traffic(TrafficPattern::CrossTraffic {
                a: NodeId(0),
                b: NodeId(15),
                // Effectively unbounded: the transfer outlives the
                // batteries, so the run measures lifetime, not completion.
                packets: 50_000,
                start_s: 5.0,
            })
            .battery(BatteryConfig::javelen_small())
            .energy_routing(),
            Scenario::new(
                "grid-duty-cycle",
                TopologyKind::Grid {
                    cols: 3,
                    rows: 3,
                    spacing_m: 80.0,
                },
            )
            .duration_s(900.0)
            .seed(110)
            .traffic(TrafficPattern::Bulk {
                src: NodeId(0),
                dst: NodeId(8),
                // Outlives the batteries (see grid-lifetime-race).
                packets: 50_000,
                start_s: 5.0,
                loss_tolerance: 0.0,
            })
            .battery(BatteryConfig {
                capacity_j: 0.45,
                ..BatteryConfig::javelen_small()
            })
            .duty_cycle(DutyCycleConfig::half()),
            Scenario::new(
                "chain-poisson-lifetime",
                TopologyKind::Linear {
                    n: 7,
                    spacing_m: 55.0,
                },
            )
            .duration_s(900.0)
            .seed(111)
            .traffic(TrafficPattern::Poisson {
                flows: 6,
                rate_per_s: 0.02,
                packets: 15,
                start_s: 5.0,
                loss_tolerance: 0.0,
            })
            // Small enough that relays die (~250 s) while Poisson
            // arrivals are still coming: late flows meet a dying network.
            .battery(BatteryConfig {
                capacity_j: 0.25,
                ..BatteryConfig::javelen_small()
            }),
            // ---- scale family: 100–144-node grids and clusters. The
            // per-node TDMA capacity shrinks with n (one slot per frame),
            // so workloads are sized in tens of packets; what these
            // entries exercise is the *engine* — incremental truth
            // rebuilds, incremental weighted APSP and bounded battery
            // prediction keep per-event cost flat where from-scratch
            // rebuilds collapse past 16 nodes. ----
            Scenario::new(
                "grid100-churn-cross",
                TopologyKind::Grid {
                    cols: 10,
                    rows: 10,
                    spacing_m: 80.0,
                },
            )
            .duration_s(600.0)
            .seed(112)
            .traffic(TrafficPattern::CrossTraffic {
                a: NodeId(0),
                b: NodeId(99),
                packets: 40,
                start_s: 5.0,
            })
            .traffic(TrafficPattern::Cbr {
                src: NodeId(9),
                dst: NodeId(90),
                rate_pps: 0.3,
                start_s: 20.0,
                duration_s: 100.0,
                loss_tolerance: 0.0,
            })
            .dynamics(DynamicsSpec::NodeChurn {
                node: NodeId(44),
                fail_at_s: 60.0,
                recover_at_s: 180.0,
            })
            .dynamics(DynamicsSpec::AreaFailure {
                // Mid-grid blast: nodes around (4,5)–(5,5) crash; the
                // cross-flows route around the hole.
                x_m: 360.0,
                y_m: 400.0,
                radius_m: 90.0,
                at_s: 240.0,
            }),
            Scenario::new(
                "clustered120-convergecast",
                TopologyKind::Clustered {
                    clusters: 8,
                    per_cluster: 15,
                    spread_m: 25.0,
                    cluster_spacing_m: 90.0,
                },
            )
            .duration_s(600.0)
            .seed(113)
            .traffic(TrafficPattern::Convergecast {
                sink: NodeId(0),
                sources: vec![
                    NodeId(20),
                    NodeId(41),
                    NodeId(62),
                    NodeId(83),
                    NodeId(104),
                    NodeId(119),
                ],
                packets: 12,
                start_s: 5.0,
                stagger_s: 6.0,
            })
            .dynamics(DynamicsSpec::LinkFlap {
                a: NodeId(0),
                b: NodeId(1),
                first_down_s: 40.0,
                down_s: 15.0,
                period_s: 90.0,
                cycles: 4,
            }),
            Scenario::new(
                "grid121-lifetime",
                TopologyKind::Grid {
                    cols: 11,
                    rows: 11,
                    spacing_m: 80.0,
                },
            )
            .duration_s(900.0)
            .seed(114)
            .traffic(TrafficPattern::CrossTraffic {
                a: NodeId(0),
                b: NodeId(120),
                // Effectively unbounded: the run measures lifetime. At
                // 121 nodes a frame is ~3 s, so the idle draw alone kills
                // the javelen_small battery at ~600 s — inside the
                // horizon, with relays dying earlier under load.
                packets: 50_000,
                start_s: 5.0,
            })
            .battery(BatteryConfig::javelen_small())
            .energy_routing(),
            // ---- mobile scale family: 100+-node topologies where every
            // node moves. What these entries exercise is the mobility
            // tentpole — spatial-grid neighbour discovery, diffed
            // geometry application and the affected-region BFS /
            // column-incremental next-hop repair keep the per-tick cost
            // proportional to the links that actually flipped; each
            // layer is pinned per step against its reference oracle
            // (brute geometry, scratch truth, fresh routing tables). ----
            Scenario::new(
                "grid100-waypoint-cbr",
                TopologyKind::Grid {
                    cols: 10,
                    rows: 10,
                    spacing_m: 80.0,
                },
            )
            .duration_s(600.0)
            .seed(115)
            .mobile(1.0)
            // Few-hop pairs: at 100 nodes a frame is 2.5 s, so the
            // workload is sized to the per-node TDMA capacity (~0.4 pps)
            // and to path lengths mobility can keep re-forming — what
            // the entry exercises is the per-tick engine, not an
            // 18-hop corner-to-corner miracle.
            .traffic(TrafficPattern::Cbr {
                src: NodeId(0),
                dst: NodeId(22),
                rate_pps: 0.2,
                start_s: 10.0,
                duration_s: 120.0,
                loss_tolerance: 0.0,
            })
            .traffic(TrafficPattern::CrossTraffic {
                a: NodeId(45),
                b: NodeId(48),
                packets: 30,
                start_s: 5.0,
            })
            .dynamics(DynamicsSpec::NodeChurn {
                node: NodeId(46),
                fail_at_s: 90.0,
                recover_at_s: 200.0,
            }),
            Scenario::new(
                "clustered120-mobile-lifetime",
                TopologyKind::Clustered {
                    clusters: 8,
                    per_cluster: 15,
                    spread_m: 25.0,
                    cluster_spacing_m: 90.0,
                },
            )
            .duration_s(600.0)
            .seed(116)
            .mobile(1.0)
            .traffic(TrafficPattern::CrossTraffic {
                a: NodeId(0),
                b: NodeId(119),
                // Effectively unbounded: the run measures lifetime under
                // mobility — relays drift, routes re-form, batteries die.
                packets: 50_000,
                start_s: 5.0,
            })
            // At 120 nodes a frame is 3 s; 0.45 J of idle draw dies at
            // ~450 s, inside the horizon, with loaded relays earlier.
            .battery(BatteryConfig {
                capacity_j: 0.45,
                ..BatteryConfig::javelen_small()
            })
            .energy_routing(),
            // ---- heavy family: adversarial Internet-style load. Flash
            // crowds (synchronized demand spikes), bounded-Pareto sizes
            // (mice + elephants) and incast storms (synchronized fan-in),
            // composed with churn/flap/mobility — the workloads the
            // modern congestion-control opponents (CUBIC/BBR) were built
            // for, and where 2007-era baselines fall over. ----
            Scenario::new(
                "heavy-flash-grid",
                TopologyKind::Grid {
                    cols: 10,
                    rows: 10,
                    spacing_m: 80.0,
                },
            )
            .duration_s(600.0)
            .seed(117)
            .traffic(TrafficPattern::FlashCrowd {
                bursts: 3,
                burst_rate_per_s: 0.01,
                flows_per_burst: 4,
                packets: 8,
                start_s: 10.0,
                loss_tolerance: 0.0,
            })
            .dynamics(DynamicsSpec::LinkFlap {
                a: NodeId(44),
                b: NodeId(45),
                first_down_s: 60.0,
                down_s: 20.0,
                period_s: 120.0,
                cycles: 3,
            }),
            Scenario::new(
                "heavy-pareto-mobile",
                TopologyKind::Grid {
                    cols: 10,
                    rows: 10,
                    spacing_m: 80.0,
                },
            )
            .duration_s(600.0)
            .seed(118)
            .mobile(1.0)
            .traffic(TrafficPattern::ParetoBulk {
                flows: 10,
                alpha: 1.3,
                min_packets: 4,
                max_packets: 60,
                start_s: 5.0,
                window_s: 120.0,
                loss_tolerance: 0.0,
            }),
            Scenario::new(
                "heavy-incast-clustered",
                TopologyKind::Clustered {
                    clusters: 8,
                    per_cluster: 15,
                    spread_m: 25.0,
                    cluster_spacing_m: 90.0,
                },
            )
            .duration_s(600.0)
            .seed(119)
            .traffic(TrafficPattern::Incast {
                sink: NodeId(0),
                sources: vec![
                    NodeId(20),
                    NodeId(41),
                    NodeId(62),
                    NodeId(83),
                    NodeId(104),
                    NodeId(119),
                ],
                packets: 10,
                start_s: 10.0,
                waves: 2,
                period_s: 150.0,
            })
            .dynamics(DynamicsSpec::NodeChurn {
                node: NodeId(1),
                fail_at_s: 30.0,
                recover_at_s: 100.0,
            }),
            Scenario::new(
                "heavy-mixed-storm",
                TopologyKind::Grid {
                    cols: 10,
                    rows: 10,
                    spacing_m: 80.0,
                },
            )
            .duration_s(900.0)
            .seed(120)
            .traffic(TrafficPattern::FlashCrowd {
                bursts: 2,
                burst_rate_per_s: 0.02,
                flows_per_burst: 3,
                packets: 6,
                start_s: 10.0,
                loss_tolerance: 0.0,
            })
            .traffic(TrafficPattern::ParetoBulk {
                flows: 6,
                alpha: 1.2,
                min_packets: 3,
                max_packets: 40,
                start_s: 20.0,
                window_s: 200.0,
                loss_tolerance: 0.0,
            })
            .traffic(TrafficPattern::Incast {
                sink: NodeId(0),
                sources: vec![NodeId(9), NodeId(90), NodeId(99)],
                packets: 8,
                start_s: 60.0,
                waves: 1,
                period_s: 1.0,
            })
            .dynamics(DynamicsSpec::NodeChurn {
                node: NodeId(55),
                fail_at_s: 80.0,
                recover_at_s: 200.0,
            })
            .dynamics(DynamicsSpec::LinkFlap {
                a: NodeId(0),
                b: NodeId(1),
                first_down_s: 100.0,
                down_s: 15.0,
                period_s: 120.0,
                cycles: 3,
            })
            // Finite batteries: the heavy family's lifetime column. With
            // 100 nodes a frame is 2.5 s; the idle draw alone crosses the
            // javelen_small reservoir inside the 900 s horizon.
            .battery(BatteryConfig::javelen_small()),
        ]
    }

    /// The heavy-traffic adversarial slice of the catalog (flash crowds,
    /// heavy tails, incast storms) — the `scenarios matrix` transports
    /// section sweeps exactly these across all five transports.
    pub fn heavy_catalog() -> Vec<Scenario> {
        Self::catalog()
            .into_iter()
            .filter(|s| s.name.starts_with("heavy-"))
            .collect()
    }

    /// The 1000+-node `xl` scenario family — a **separate** catalog, so
    /// the historical golden digests never move. Every entry selects the
    /// hierarchical routing backend: at this scale the exact backend's
    /// flat n×n tables are the O(n²) wall the backend exists to break
    /// (the `xl-static` ledger workload times it; `xl_scenarios` pins
    /// the state footprint). The
    /// family composes the three stressors the paper's machinery must
    /// absorb at city scale: churn floods (cluster-scoped repair),
    /// mobility (per-tick geometry diffs into cluster splits), and
    /// heavy traffic (incast + flash crowds across long routes). CI's
    /// `release-gate` job runs one entry under a wall-clock bound.
    ///
    /// Every entry also shortens the TDMA slot to 1 ms: a 1024-node
    /// frame at the default 25 ms slot spans ~26 s, making multi-hop
    /// delivery physically impossible inside the horizon. At 1 ms the
    /// frame is ~1 s, so per-node capacity (~1 pps) and hop latency
    /// stay in the regime the historical catalog exercises.
    pub fn xl_catalog() -> Vec<Scenario> {
        vec![
            // 32×32 lattice (1024 nodes): diagonal bulk + CBR while
            // nodes churn mid-grid — every churn event floods a repair
            // the hierarchical backend scopes to the touched clusters.
            Scenario::new(
                "xl-grid-churn",
                TopologyKind::Grid {
                    cols: 32,
                    rows: 32,
                    spacing_m: 80.0,
                },
            )
            .duration_s(300.0)
            .seed(901)
            .routing_backend(RoutingBackendKind::Hierarchical)
            .slot_ms(1)
            .traffic(TrafficPattern::Bulk {
                src: NodeId(0),
                dst: NodeId(1023),
                packets: 40,
                start_s: 5.0,
                loss_tolerance: 0.0,
            })
            // A 15-hop row flow: long enough to cross the churned region,
            // short enough that per-hop fading leaves healthy delivery
            // (the 62-hop diagonal above is the stress case — at that
            // length correlated fades make end-to-end survival rare, as
            // on a real dense mesh).
            .traffic(TrafficPattern::Cbr {
                src: NodeId(512),
                dst: NodeId(527),
                rate_pps: 1.0,
                start_s: 10.0,
                duration_s: 60.0,
                loss_tolerance: 0.1,
            })
            .dynamics(DynamicsSpec::NodeChurn {
                node: NodeId(528),
                fail_at_s: 40.0,
                recover_at_s: 90.0,
            })
            .dynamics(DynamicsSpec::NodeChurn {
                node: NodeId(497),
                fail_at_s: 60.0,
                recover_at_s: 120.0,
            })
            .dynamics(DynamicsSpec::LinkFlap {
                a: NodeId(496),
                b: NodeId(528),
                first_down_s: 130.0,
                down_s: 10.0,
                period_s: 40.0,
                cycles: 3,
            }),
            // 40 dense clusters × 25 nodes (1000 nodes) under mobility:
            // the placement's natural groups seed the hierarchy, and
            // drifting nodes force cluster splits — the worst case the
            // lawfulness pins cover.
            Scenario::new(
                "xl-clustered-mobile",
                TopologyKind::Clustered {
                    clusters: 40,
                    per_cluster: 25,
                    spread_m: 25.0,
                    cluster_spacing_m: 90.0,
                },
            )
            .duration_s(240.0)
            .seed(902)
            .routing_backend(RoutingBackendKind::Hierarchical)
            .slot_ms(1)
            .mobile(1.0)
            .traffic(TrafficPattern::Convergecast {
                sink: NodeId(0),
                sources: vec![NodeId(999), NodeId(500), NodeId(250)],
                packets: 30,
                start_s: 5.0,
                stagger_s: 10.0,
            }),
            // 1024-node lattice under heavy traffic: an incast storm at
            // the grid centre plus flash-crowd arrivals, with an area
            // failure knocking out a corner mid-run.
            Scenario::new(
                "xl-grid-heavy",
                TopologyKind::Grid {
                    cols: 32,
                    rows: 32,
                    spacing_m: 80.0,
                },
            )
            .duration_s(240.0)
            .seed(903)
            .routing_backend(RoutingBackendKind::Hierarchical)
            .slot_ms(1)
            .traffic(TrafficPattern::Incast {
                sink: NodeId(528),
                sources: vec![
                    NodeId(0),
                    NodeId(31),
                    NodeId(992),
                    NodeId(1023),
                    NodeId(16),
                    NodeId(1007),
                ],
                packets: 12,
                start_s: 5.0,
                waves: 2,
                period_s: 60.0,
            })
            .traffic(TrafficPattern::FlashCrowd {
                bursts: 2,
                burst_rate_per_s: 0.02,
                flows_per_burst: 3,
                packets: 6,
                start_s: 30.0,
                loss_tolerance: 0.1,
            })
            .dynamics(DynamicsSpec::AreaFailure {
                x_m: 0.0,
                y_m: 0.0,
                radius_m: 150.0,
                at_s: 120.0,
            }),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cbr_lowering_counts_packets() {
        let mut flows = Vec::new();
        TrafficPattern::Cbr {
            src: NodeId(0),
            dst: NodeId(1),
            rate_pps: 2.5,
            start_s: 3.0,
            duration_s: 10.0,
            loss_tolerance: 0.4,
        }
        .lower(&mut flows, false, 8, 1, 0);
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].packets, 25);
        assert_eq!(flows[0].initial_rate_pps, Some(2.5));
        assert_eq!(flows[0].loss_tolerance, 0.4);
        // TCP/ATP lowering forces full reliability.
        let mut reliable = Vec::new();
        TrafficPattern::Cbr {
            src: NodeId(0),
            dst: NodeId(1),
            rate_pps: 2.5,
            start_s: 3.0,
            duration_s: 10.0,
            loss_tolerance: 0.4,
        }
        .lower(&mut reliable, true, 8, 1, 0);
        assert_eq!(reliable[0].loss_tolerance, 0.0);
    }

    #[test]
    fn onoff_lowering_staggers_bursts() {
        let mut flows = Vec::new();
        TrafficPattern::OnOff {
            src: NodeId(0),
            dst: NodeId(3),
            rate_pps: 4.0,
            on_s: 10.0,
            off_s: 20.0,
            start_s: 5.0,
            cycles: 3,
            loss_tolerance: 0.0,
        }
        .lower(&mut flows, false, 8, 1, 0);
        assert_eq!(flows.len(), 3);
        for (i, f) in flows.iter().enumerate() {
            assert_eq!(f.packets, 40);
            let start = f.start.as_secs_f64();
            assert!((start - (5.0 + 30.0 * i as f64)).abs() < 1e-9);
        }
    }

    #[test]
    fn convergecast_and_cross_traffic_fan_out() {
        let mut flows = Vec::new();
        TrafficPattern::Convergecast {
            sink: NodeId(0),
            sources: vec![NodeId(1), NodeId(2), NodeId(3)],
            packets: 10,
            start_s: 1.0,
            stagger_s: 2.0,
        }
        .lower(&mut flows, false, 8, 1, 0);
        assert_eq!(flows.len(), 3);
        assert!(flows.iter().all(|f| f.dst == NodeId(0)));
        let mut cross = Vec::new();
        TrafficPattern::CrossTraffic {
            a: NodeId(0),
            b: NodeId(4),
            packets: 9,
            start_s: 2.0,
        }
        .lower(&mut cross, false, 8, 1, 0);
        assert_eq!(cross.len(), 2);
        assert_eq!((cross[0].src, cross[0].dst), (NodeId(0), NodeId(4)));
        assert_eq!((cross[1].src, cross[1].dst), (NodeId(4), NodeId(0)));
    }

    #[test]
    fn link_flap_lowers_paired_events() {
        let mut evs = Vec::new();
        DynamicsSpec::LinkFlap {
            a: NodeId(1),
            b: NodeId(2),
            first_down_s: 10.0,
            down_s: 5.0,
            period_s: 30.0,
            cycles: 2,
        }
        .lower(&mut evs);
        assert_eq!(evs.len(), 4);
        assert_eq!(
            evs[0].action,
            DynamicsAction::LinkDown(NodeId(1), NodeId(2))
        );
        assert_eq!(evs[1].action, DynamicsAction::LinkUp(NodeId(1), NodeId(2)));
        assert!((evs[2].at.as_secs_f64() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn poisson_lowering_is_deterministic_and_well_formed() {
        let pat = TrafficPattern::Poisson {
            flows: 12,
            rate_per_s: 0.1,
            packets: 9,
            start_s: 5.0,
            loss_tolerance: 0.3,
        };
        let mut a = Vec::new();
        pat.lower(&mut a, false, 10, 42, 0);
        let mut b = Vec::new();
        pat.lower(&mut b, false, 10, 42, 0);
        assert_eq!(a.len(), 12);
        let mut prev = 5.0;
        for (fa, fb) in a.iter().zip(&b) {
            assert_eq!(fa.src, fb.src, "same seed, same arrival pattern");
            assert_eq!(fa.start, fb.start);
            assert_ne!(fa.src, fa.dst, "endpoints must be distinct");
            assert!(fa.src.index() < 10 && fa.dst.index() < 10);
            assert!(fa.start.as_secs_f64() > prev, "arrivals strictly ordered");
            prev = fa.start.as_secs_f64();
            assert_eq!(fa.loss_tolerance, 0.3);
        }
        // Mean inter-arrival ≈ 1/rate = 10 s (loose statistical check).
        let span = a.last().unwrap().start.as_secs_f64() - 5.0;
        assert!((3.0..40.0).contains(&(span / 12.0)), "span {span}");
        // Different substream index → different arrivals.
        let mut c = Vec::new();
        pat.lower(&mut c, false, 10, 42, 1);
        assert!(a.iter().zip(&c).any(|(x, y)| x.start != y.start));
        // TCP/ATP lowering forces full reliability.
        let mut reliable = Vec::new();
        pat.lower(&mut reliable, true, 10, 42, 0);
        assert!(reliable.iter().all(|f| f.loss_tolerance == 0.0));
    }

    #[test]
    fn area_failure_lowers_to_area_fail_action() {
        let mut evs = Vec::new();
        DynamicsSpec::AreaFailure {
            x_m: 100.0,
            y_m: 50.0,
            radius_m: 75.0,
            at_s: 30.0,
        }
        .lower(&mut evs);
        assert_eq!(evs.len(), 1);
        assert!((evs[0].at.as_secs_f64() - 30.0).abs() < 1e-9);
        assert_eq!(
            evs[0].action,
            DynamicsAction::AreaFail {
                x_m: 100.0,
                y_m: 50.0,
                radius_m: 75.0,
            }
        );
    }

    #[test]
    fn lifetime_knobs_lower_onto_config() {
        let sc = Scenario::new(
            "knobs",
            TopologyKind::Linear {
                n: 4,
                spacing_m: 55.0,
            },
        )
        .battery(BatteryConfig::javelen_small())
        .duty_cycle(DutyCycleConfig::half())
        .energy_routing()
        .traffic(TrafficPattern::Bulk {
            src: NodeId(0),
            dst: NodeId(3),
            packets: 5,
            start_s: 1.0,
            loss_tolerance: 0.0,
        });
        let cfg = sc.build(TransportKind::Jtp);
        assert!(cfg.battery.is_some());
        assert!(cfg.duty_cycle.is_some());
        assert!(cfg.energy_routing.is_some());
    }

    #[test]
    fn try_build_reports_malformed_scenarios_without_panicking() {
        let chain = TopologyKind::Linear {
            n: 4,
            spacing_m: 55.0,
        };
        let unordered_churn =
            Scenario::new("bad-churn", chain.clone()).dynamics(DynamicsSpec::NodeChurn {
                node: NodeId(1),
                fail_at_s: 50.0,
                recover_at_s: 20.0,
            });
        let nan_partition =
            Scenario::new("bad-partition", chain.clone()).dynamics(DynamicsSpec::Partition {
                group: vec![NodeId(0)],
                start_s: f64::NAN,
                end_s: 100.0,
            });
        let solid_flap =
            Scenario::new("bad-flap", chain.clone()).dynamics(DynamicsSpec::LinkFlap {
                a: NodeId(0),
                b: NodeId(1),
                first_down_s: 10.0,
                down_s: 30.0,
                period_s: 30.0,
                cycles: 2,
            });
        let dead_poisson =
            Scenario::new("bad-poisson", chain.clone()).traffic(TrafficPattern::Poisson {
                flows: 3,
                rate_per_s: 0.0,
                packets: 5,
                start_s: 1.0,
                loss_tolerance: 0.0,
            });
        let lonely = Scenario::new(
            "bad-lonely",
            TopologyKind::Linear {
                n: 1,
                spacing_m: 55.0,
            },
        );
        for sc in [
            unordered_churn,
            nan_partition,
            solid_flap,
            dead_poisson,
            lonely,
        ] {
            let err = sc.try_build(TransportKind::Jtp).unwrap_err();
            assert!(
                matches!(err, ConfigError::Scenario { ref name, .. } if *name == sc.name),
                "{}: expected a scenario-level error, got {err}",
                sc.name
            );
        }
        // Errors below the scenario layer pass through untouched.
        let bad_flow = Scenario::new("bad-flow", chain).traffic(TrafficPattern::Bulk {
            src: NodeId(0),
            dst: NodeId(9),
            packets: 5,
            start_s: 1.0,
            loss_tolerance: 0.0,
        });
        assert!(matches!(
            bad_flow.try_build(TransportKind::Jtp),
            Err(ConfigError::Flow { index: 0, .. })
        ));
    }

    #[test]
    fn catalog_lowers_valid_for_every_transport() {
        let cat = Scenario::catalog();
        assert!(
            cat.len() >= 16,
            "catalog shrank below the canonical sixteen (8 + the lifetime \
             family + the static and mobile 100+-node scale families)"
        );
        assert!(
            cat.iter()
                .filter(|s| s.topology.node_count() >= 100)
                .count()
                >= 5,
            "the scale family must keep 100+-node entries in the catalog"
        );
        assert!(
            cat.iter()
                .filter(|s| s.mobile_mps.is_some() && s.topology.node_count() >= 100)
                .count()
                >= 2,
            "the mobile scale family must keep 100+-node mobile entries"
        );
        let mut names: Vec<&str> = cat.iter().map(|s| s.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), cat.len(), "scenario names must be unique");
        assert!(
            cat.iter().filter(|s| s.battery.is_some()).count() >= 3,
            "the lifetime family must keep finite batteries in the catalog"
        );
        assert!(
            cat.iter().filter(|s| s.name.starts_with("heavy-")).count() >= 4,
            "the heavy family must keep flash/pareto/incast entries"
        );
        for sc in &cat {
            for t in [
                TransportKind::Jtp,
                TransportKind::Jnc,
                TransportKind::Tcp,
                TransportKind::Atp,
                TransportKind::Cubic,
                TransportKind::Bbr,
            ] {
                let cfg = sc.build(t);
                assert!(!cfg.flows.is_empty(), "{}: no traffic lowered", sc.name);
            }
        }
    }

    #[test]
    fn heavy_catalog_is_the_heavy_slice() {
        let heavy = Scenario::heavy_catalog();
        assert!(heavy.len() >= 4);
        assert!(heavy.iter().all(|s| s.name.starts_with("heavy-")));
        assert!(
            heavy.iter().any(|s| s.battery.is_some()),
            "the heavy family needs a lifetime column"
        );
    }

    #[test]
    fn flash_crowd_lowering_is_deterministic_and_synchronized() {
        let pat = TrafficPattern::FlashCrowd {
            bursts: 4,
            burst_rate_per_s: 0.05,
            flows_per_burst: 3,
            packets: 7,
            start_s: 5.0,
            loss_tolerance: 0.2,
        };
        let mut a = Vec::new();
        pat.lower(&mut a, false, 20, 42, 0);
        let mut b = Vec::new();
        pat.lower(&mut b, false, 20, 42, 0);
        assert_eq!(a.len(), 12, "bursts × flows_per_burst");
        for (fa, fb) in a.iter().zip(&b) {
            assert_eq!((fa.src, fa.dst, fa.start), (fb.src, fb.dst, fb.start));
            assert_ne!(fa.src, fa.dst);
            assert_eq!(fa.packets, 7);
            assert_eq!(fa.loss_tolerance, 0.2);
        }
        // Flows inside one burst share the arrival instant (the spike).
        for chunk in a.chunks(3) {
            assert!(chunk.iter().all(|f| f.start == chunk[0].start));
        }
        // Bursts are strictly ordered in time.
        assert!(a[0].start < a[3].start && a[3].start < a[6].start);
        // Baseline lowering forces full reliability.
        let mut reliable = Vec::new();
        pat.lower(&mut reliable, true, 20, 42, 0);
        assert!(reliable.iter().all(|f| f.loss_tolerance == 0.0));
    }

    #[test]
    fn pareto_sizes_are_bounded_and_heavy_tailed() {
        let pat = TrafficPattern::ParetoBulk {
            flows: 200,
            alpha: 1.2,
            min_packets: 4,
            max_packets: 120,
            start_s: 10.0,
            window_s: 60.0,
            loss_tolerance: 0.0,
        };
        let mut flows = Vec::new();
        pat.lower(&mut flows, false, 30, 7, 0);
        assert_eq!(flows.len(), 200);
        for f in &flows {
            assert!((4..=120).contains(&f.packets), "size {} escaped", f.packets);
            let s = f.start.as_secs_f64();
            assert!((10.0..70.0).contains(&s), "start {s} outside window");
            assert_ne!(f.src, f.dst);
        }
        // Heavy tail: most flows are mice, but elephants exist.
        let mice = flows.iter().filter(|f| f.packets <= 12).count();
        let elephants = flows.iter().filter(|f| f.packets >= 60).count();
        assert!(mice > 100, "mice = {mice}");
        assert!(elephants >= 1, "elephants = {elephants}");
        // Same seed, same draw.
        let mut again = Vec::new();
        pat.lower(&mut again, false, 30, 7, 0);
        assert_eq!(
            flows.iter().map(|f| f.packets).collect::<Vec<_>>(),
            again.iter().map(|f| f.packets).collect::<Vec<_>>()
        );
    }

    #[test]
    fn incast_waves_are_synchronized_fan_in() {
        let pat = TrafficPattern::Incast {
            sink: NodeId(0),
            sources: vec![NodeId(3), NodeId(5), NodeId(7)],
            packets: 9,
            start_s: 20.0,
            waves: 2,
            period_s: 100.0,
        };
        let mut flows = Vec::new();
        pat.lower(&mut flows, false, 10, 1, 0);
        assert_eq!(flows.len(), 6);
        assert!(flows.iter().all(|f| f.dst == NodeId(0)));
        assert!(flows.iter().all(|f| f.loss_tolerance == 0.0));
        let w0: Vec<_> = flows.iter().take(3).map(|f| f.start).collect();
        assert!(w0.iter().all(|&t| t == w0[0]), "wave is simultaneous");
        let gap = flows[3].start.as_secs_f64() - flows[0].start.as_secs_f64();
        assert!((gap - 100.0).abs() < 1e-9);
    }

    #[test]
    fn heavy_specs_reject_malformed_input() {
        let chain = TopologyKind::Linear {
            n: 4,
            spacing_m: 55.0,
        };
        let nan_flash =
            Scenario::new("bad-flash", chain.clone()).traffic(TrafficPattern::FlashCrowd {
                bursts: 2,
                burst_rate_per_s: f64::NAN,
                flows_per_burst: 2,
                packets: 5,
                start_s: 1.0,
                loss_tolerance: 0.0,
            });
        let inverted_pareto =
            Scenario::new("bad-pareto", chain.clone()).traffic(TrafficPattern::ParetoBulk {
                flows: 3,
                alpha: 1.2,
                min_packets: 50,
                max_packets: 10,
                start_s: 1.0,
                window_s: 10.0,
                loss_tolerance: 0.0,
            });
        let nan_alpha =
            Scenario::new("bad-alpha", chain.clone()).traffic(TrafficPattern::ParetoBulk {
                flows: 3,
                alpha: f64::NAN,
                min_packets: 1,
                max_packets: 10,
                start_s: 1.0,
                window_s: 10.0,
                loss_tolerance: 0.0,
            });
        let empty_incast =
            Scenario::new("bad-incast", chain.clone()).traffic(TrafficPattern::Incast {
                sink: NodeId(0),
                sources: vec![],
                packets: 5,
                start_s: 1.0,
                waves: 1,
                period_s: 1.0,
            });
        let dead_period = Scenario::new("bad-period", chain).traffic(TrafficPattern::Incast {
            sink: NodeId(0),
            sources: vec![NodeId(1)],
            packets: 5,
            start_s: 1.0,
            waves: 3,
            period_s: 0.0,
        });
        for sc in [
            nan_flash,
            inverted_pareto,
            nan_alpha,
            empty_incast,
            dead_period,
        ] {
            let err = sc.try_build(TransportKind::Jtp).unwrap_err();
            assert!(
                matches!(err, ConfigError::Scenario { ref name, .. } if *name == sc.name),
                "{}: expected a scenario-level error, got {err}",
                sc.name
            );
        }
    }
}
