//! Experiment configuration: topology, transport, workload and substrate
//! parameters, with a builder mirroring the paper's scenario descriptions.

use jtp::JtpConfig;
use jtp_baselines::atp::AtpConfig;
use jtp_baselines::bbr::BbrConfig;
use jtp_baselines::cubic::CubicConfig;
use jtp_baselines::tcp::TcpConfig;
use jtp_mac::{DutyCycleConfig, MacConfig};
use jtp_phys::gilbert::GilbertConfig;
use jtp_phys::{BatteryConfig, PathLoss, RadioEnergyModel};
use jtp_sim::{NodeId, SimDuration};

/// Why a configuration (or a scenario lowering onto one) was rejected.
///
/// Every malformed-input path in the simulator funnels through this type:
/// [`ExperimentConfig::validate`] is the single choke point, and the
/// fallible entry points (`Network::try_with_subscriber`,
/// `try_run_subscribed`, `Scenario::try_build`, `try_place_nodes`)
/// surface it instead of panicking. The variants are coarse-grained by
/// *which knob* was wrong, so fuzzers and CLIs can branch on the class
/// while humans read the embedded reason.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// Node placement parameters are unusable (too few nodes,
    /// non-positive/non-finite geometry).
    Topology(String),
    /// A flow references nodes outside the topology or carries
    /// out-of-range parameters.
    Flow {
        /// Index into [`ExperimentConfig::flows`].
        index: usize,
        /// What is wrong with it.
        reason: String,
    },
    /// A scheduled dynamics event is malformed.
    Dynamics {
        /// Index into [`ExperimentConfig::dynamics`].
        index: usize,
        /// What is wrong with it.
        reason: String,
    },
    /// Mobility parameters would corrupt or hang the run.
    Mobility(String),
    /// A period or duration that drives the event loop is zero or
    /// otherwise degenerate (zero-period events never advance time).
    Timing(String),
    /// JTP transport parameters rejected by [`JtpConfig::validate`].
    Jtp(String),
    /// Path-loss model parameters rejected by [`PathLoss::validate`].
    PathLoss(String),
    /// Battery parameters rejected by `BatteryConfig::validate`.
    Battery(String),
    /// Duty-cycle parameters rejected by `DutyCycleConfig::validate`.
    DutyCycle(String),
    /// Energy-aware-routing parameters rejected by
    /// [`EnergyRoutingConfig::validate`], or routing requested without a
    /// battery to advertise.
    EnergyRouting(String),
    /// A [`crate::scenario::Scenario`] failed to lower: its declarative
    /// fields are inconsistent before they ever reach an
    /// [`ExperimentConfig`].
    Scenario {
        /// The scenario's name.
        name: String,
        /// What is wrong with it.
        reason: String,
    },
    /// Node placement failed: the sampled geometry never produced a
    /// connected network within the resampling budget.
    Placement(String),
    /// The routing-backend knob clashes with another knob (today:
    /// hierarchical routing cannot consume energy-weighted tables).
    RoutingBackend(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Topology(r) => write!(f, "topology: {r}"),
            ConfigError::Flow { index, reason } => write!(f, "flow {index}: {reason}"),
            ConfigError::Dynamics { index, reason } => write!(f, "dynamics {index}: {reason}"),
            ConfigError::Mobility(r) => write!(f, "mobility: {r}"),
            ConfigError::Timing(r) => write!(f, "timing: {r}"),
            ConfigError::Jtp(r) => write!(f, "jtp: {r}"),
            ConfigError::PathLoss(r) => write!(f, "pathloss: {r}"),
            ConfigError::Battery(r) => write!(f, "battery: {r}"),
            ConfigError::DutyCycle(r) => write!(f, "duty cycle: {r}"),
            ConfigError::EnergyRouting(r) => write!(f, "energy routing: {r}"),
            ConfigError::Scenario { name, reason } => write!(f, "scenario {name:?}: {reason}"),
            ConfigError::Placement(r) => write!(f, "placement: {r}"),
            ConfigError::RoutingBackend(r) => write!(f, "routing backend: {r}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Which routing backend maintains the per-node link-state views.
///
/// `Exact` is the historical flat-table machinery: full n×n distance
/// tables with incremental BFS-row repair — every golden trace in the
/// repository was produced by it and stays byte-identical under it.
/// `Hierarchical` partitions the network into connected clusters (derived
/// from the topology: grid blocks, the clustered family's natural groups,
/// or ⌈√n⌉ BFS-grown patches) and keeps exact tables only within each
/// cluster plus one distance-to-cluster row per cluster — O(n·√n)-ish
/// state instead of O(n²), at the cost of bounded route stretch
/// (≤ destination-cluster diameter). Traces differ from `Exact` wherever
/// an inter-cluster route takes a lawful-but-longer path, so goldens are
/// pinned per backend. Hierarchical routing does not consume
/// energy-advertised weights; combining it with
/// [`ExperimentConfig::energy_aware_routing`] is rejected by
/// [`ExperimentConfig::validate`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RoutingBackendKind {
    /// Flat exact tables with incremental repair (the default; all
    /// pre-existing goldens).
    #[default]
    Exact,
    /// Cluster-partitioned tables: exact intra-cluster, summarized
    /// inter-cluster, loop-free with bounded stretch.
    Hierarchical,
}

/// Which transport protocol a flow (and the whole run) uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TransportKind {
    /// JTP with in-network caching (the paper's protocol).
    Jtp,
    /// JTP with caching disabled (the paper's JNC comparison).
    Jnc,
    /// Rate-based TCP-SACK.
    Tcp,
    /// ATP-like explicit-rate transport.
    Atp,
    /// CUBIC (RFC 8312) window curve, rate-paced.
    Cubic,
    /// BBR bandwidth/RTT path model with pacing-gain cycling.
    Bbr,
}

impl TransportKind {
    /// Transports that only support full-reliability transfers (loss
    /// tolerance 0): every non-JTP baseline.
    pub fn requires_full_reliability(self) -> bool {
        matches!(
            self,
            TransportKind::Tcp | TransportKind::Atp | TransportKind::Cubic | TransportKind::Bbr
        )
    }
}

/// Node placement.
#[derive(Clone, Debug)]
pub enum TopologyKind {
    /// `n` nodes in a chain, neighbours `spacing_m` apart (§6.1.1).
    Linear {
        /// Node count.
        n: usize,
        /// Inter-node spacing in metres.
        spacing_m: f64,
    },
    /// `n` nodes uniform in a square field sized for connectivity with
    /// high probability (§6.1.2); resampled until connected.
    Random {
        /// Node count.
        n: usize,
        /// Field side in metres.
        field_side_m: f64,
    },
    /// `cols × rows` nodes on a regular lattice, `spacing_m` apart. With
    /// the default 80 m spacing and the 100 m radio range the lattice is
    /// 4-connected (diagonals are out of range), giving the multipath-rich
    /// mesh the scenario engine's cross-traffic patterns want.
    Grid {
        /// Columns (node id = `row * cols + col`).
        cols: usize,
        /// Rows.
        rows: usize,
        /// Lattice spacing in metres.
        spacing_m: f64,
    },
    /// `clusters × per_cluster` nodes in dense clusters whose centres sit
    /// on a coarse lattice: intra-cluster links are short and strong,
    /// inter-cluster connectivity funnels through the few nodes near the
    /// cluster edges. Resampled (deterministically) until connected.
    Clustered {
        /// Number of clusters (centres on a near-square lattice).
        clusters: usize,
        /// Nodes per cluster.
        per_cluster: usize,
        /// Maximum node distance from its cluster centre, in metres.
        spread_m: f64,
        /// Distance between adjacent cluster centres, in metres.
        cluster_spacing_m: f64,
    },
}

impl TopologyKind {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        match self {
            TopologyKind::Linear { n, .. } | TopologyKind::Random { n, .. } => *n,
            TopologyKind::Grid { cols, rows, .. } => cols * rows,
            TopologyKind::Clustered {
                clusters,
                per_cluster,
                ..
            } => clusters * per_cluster,
        }
    }
}

/// One scheduled change to the network substrate (node churn, link
/// blackouts, partitions). Actions take effect instantaneously at their
/// scheduled time and are advertised to routing as a flooded link-state
/// update; data already in flight keeps failing at the channel until the
/// views converge — exactly the transient the recovery machinery must
/// absorb.
#[derive(Clone, Debug, PartialEq)]
pub enum DynamicsAction {
    /// The node crashes: its MAC queue is lost, it stops transmitting and
    /// receiving, and its links vanish from the advertised topology.
    NodeDown(NodeId),
    /// The node recovers with an empty queue.
    NodeUp(NodeId),
    /// The undirected link is blacked out (jammed / obstructed) even if
    /// the radios are in range.
    LinkDown(NodeId, NodeId),
    /// The blackout lifts.
    LinkUp(NodeId, NodeId),
    /// Every link between the listed group and the rest of the network
    /// blacks out — a clean network partition. At most one partition is
    /// active at a time.
    PartitionStart(Vec<NodeId>),
    /// The partition heals.
    PartitionEnd,
    /// A correlated area failure: every node within `radius_m` of the
    /// point `(x_m, y_m)` crashes at once (queues lost, links gone). The
    /// spatially-correlated analogue of [`DynamicsAction::NodeDown`];
    /// victims can be revived individually with `NodeUp`.
    ///
    /// **Disc semantics under mobility**: the victim set is sampled from
    /// node positions **at the instant the event fires** — i.e. the
    /// positions as of the last mobility tick before (or at) the blast
    /// time — not from the initial placement. A node that wandered into
    /// the disc by then dies; one that wandered out survives. Pinned by
    /// `lifetime::area_failure_under_mobility_samples_positions_at_event_time`.
    AreaFail {
        /// Blast centre x (metres).
        x_m: f64,
        /// Blast centre y (metres).
        y_m: f64,
        /// Blast radius (metres).
        radius_m: f64,
    },
}

/// A dynamics action with its activation time.
#[derive(Clone, Debug, PartialEq)]
pub struct DynamicsEvent {
    /// When the action takes effect.
    pub at: SimDuration,
    /// What happens.
    pub action: DynamicsAction,
}

impl DynamicsEvent {
    /// Convenience constructor from seconds.
    pub fn at_s(at_s: f64, action: DynamicsAction) -> Self {
        DynamicsEvent {
            at: SimDuration::from_secs_f64(at_s),
            action,
        }
    }
}

/// Random-waypoint mobility parameters (None = static network).
#[derive(Clone, Copy, Debug)]
pub struct MobilityConfig {
    /// Movement speed (paper: 0.1 / 1 / 5 m/s).
    pub speed_mps: f64,
    /// Mean leg length (paper: 47 m).
    pub mean_leg_m: f64,
    /// Mean pause (paper: 100 s).
    pub mean_pause_s: f64,
    /// Position/topology re-evaluation period.
    pub update_period: SimDuration,
}

impl MobilityConfig {
    /// The paper's §6.1.2 parameterisation at the given speed.
    pub fn paper(speed_mps: f64) -> Self {
        MobilityConfig {
            speed_mps,
            mean_leg_m: 47.0,
            mean_pause_s: 100.0,
            update_period: SimDuration::from_secs(1),
        }
    }
}

/// Energy-aware routing parameters: nodes periodically advertise their
/// residual battery fraction, quantised into a per-node forwarding weight;
/// the link-state layer then routes on residual-energy-weighted shortest
/// paths (max-min-lifetime style) instead of raw hop counts.
#[derive(Clone, Copy, Debug)]
pub struct EnergyRoutingConfig {
    /// How often residual-energy advertisements flood the network.
    pub advert_period: SimDuration,
    /// Quantisation levels above the base weight: a full battery weighs 1,
    /// an empty one `1 + levels`. Coarse levels keep re-floods rare.
    pub levels: u16,
    /// Extra weight once a node falls below its battery's low-power
    /// threshold — the max-min hammer that makes nearly-drained relays a
    /// last resort.
    pub low_penalty: u16,
}

impl Default for EnergyRoutingConfig {
    fn default() -> Self {
        EnergyRoutingConfig {
            advert_period: SimDuration::from_secs(10),
            levels: 7,
            low_penalty: 24,
        }
    }
}

impl EnergyRoutingConfig {
    /// Sanity-check the parameters.
    pub fn validate(&self) -> Result<(), String> {
        if self.advert_period.is_zero() {
            return Err("energy routing advert period must be positive".into());
        }
        if self.levels == 0 {
            return Err("energy routing needs at least one quantisation level".into());
        }
        // The heaviest advertised weight is 1 + levels + low_penalty (a
        // dead node); it must fit the u16 weight lattice.
        if 1 + self.levels as u32 + self.low_penalty as u32 > u16::MAX as u32 {
            return Err("energy routing weights overflow u16: shrink levels/low_penalty".into());
        }
        Ok(())
    }
}

/// One flow of the workload.
#[derive(Clone, Debug)]
pub struct FlowSpec {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// When the transfer starts.
    pub start: SimDuration,
    /// Packets to transfer (800-byte payloads by default).
    pub packets: u32,
    /// End-to-end loss tolerance (0.0 = full reliability; only JTP uses
    /// values other than 0).
    pub loss_tolerance: f64,
    /// Initial sending rate override (pps). None = protocol default.
    /// Short-lived bursts that arrive "hot" are modelled by setting this
    /// above the default 1 pps.
    pub initial_rate_pps: Option<f64>,
}

impl FlowSpec {
    /// A full-reliability flow with protocol-default initial rate.
    pub fn new(src: NodeId, dst: NodeId, start: SimDuration, packets: u32) -> Self {
        FlowSpec {
            src,
            dst,
            start,
            packets,
            loss_tolerance: 0.0,
            initial_rate_pps: None,
        }
    }
}

/// Full experiment description.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Placement of nodes.
    pub topology: TopologyKind,
    /// Protocol under test.
    pub transport: TransportKind,
    /// Flows; empty means "one bulk flow end-to-end" filled at build time.
    pub flows: Vec<FlowSpec>,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Master seed.
    pub seed: u64,
    /// TDMA slot length.
    pub slot: SimDuration,
    /// MAC parameters.
    pub mac: MacConfig,
    /// JTP parameters (used by Jtp/Jnc runs).
    pub jtp: JtpConfig,
    /// TCP parameters (Tcp runs).
    pub tcp: TcpConfig,
    /// ATP parameters (Atp runs).
    pub atp: AtpConfig,
    /// CUBIC parameters (Cubic runs).
    pub cubic: CubicConfig,
    /// BBR parameters (Bbr runs).
    pub bbr: BbrConfig,
    /// Distance → loss model.
    pub pathloss: PathLoss,
    /// Good/bad channel process.
    pub gilbert: GilbertConfig,
    /// Radio energy parameters.
    pub energy: RadioEnergyModel,
    /// Finite per-node energy budgets (None = the paper's tally-only
    /// monitor: joules are counted but never run out). With a battery,
    /// radio charges plus a per-frame idle/sleep draw deplete each node;
    /// a depleted node dies for good — the lifetime subsystem's core knob.
    pub battery: Option<BatteryConfig>,
    /// Duty-cycled sleep schedule (None = always listening). Sleeping
    /// nodes keep transmitting in their owned slots but do not receive,
    /// and pay the battery's sleep draw instead of the idle draw.
    pub duty_cycle: Option<DutyCycleConfig>,
    /// Residual-energy-aware routing (None = hop-count shortest paths).
    /// Requires a battery: the advertised weights are residual fractions.
    pub energy_routing: Option<EnergyRoutingConfig>,
    /// Mobility (None = static).
    pub mobility: Option<MobilityConfig>,
    /// Scheduled substrate dynamics: node churn, link blackouts,
    /// partitions. Empty = a static, always-healthy substrate.
    pub dynamics: Vec<DynamicsEvent>,
    /// Link-state view refresh interval.
    pub routing_refresh: SimDuration,
    /// Periodic delayed-ACK flush for TCP receivers.
    pub tcp_ack_flush: SimDuration,
    /// Skip TDMA slots owned by nodes with empty MAC queues, jumping the
    /// event clock straight to the next busy slot. Observationally
    /// identical to firing every slot (idle-slot statistics are replayed
    /// exactly), but collapses idle stretches from O(slots) events to
    /// O(1). Disable only to cross-check the engine against the naive
    /// per-slot loop.
    pub idle_slot_skipping: bool,
    /// Which routing backend maintains per-node views (see
    /// [`RoutingBackendKind`]). `Exact` (the default) reproduces every
    /// historical trace byte-for-byte; `Hierarchical` trades bounded
    /// route stretch for sub-quadratic routing state, opening the
    /// 1000-node scenario families.
    pub routing_backend: RoutingBackendKind,
}

impl ExperimentConfig {
    fn base(topology: TopologyKind) -> Self {
        ExperimentConfig {
            topology,
            transport: TransportKind::Jtp,
            flows: Vec::new(),
            duration: SimDuration::from_secs(1000),
            seed: 1,
            slot: SimDuration::from_millis(25),
            mac: MacConfig::default(),
            jtp: JtpConfig::default(),
            tcp: TcpConfig::default(),
            atp: AtpConfig::default(),
            cubic: CubicConfig::default(),
            bbr: BbrConfig::default(),
            pathloss: PathLoss::javelen_default(),
            gilbert: GilbertConfig::paper_default(),
            energy: RadioEnergyModel::javelen_default(),
            battery: None,
            duty_cycle: None,
            energy_routing: None,
            mobility: None,
            dynamics: Vec::new(),
            routing_refresh: SimDuration::from_secs(5),
            tcp_ack_flush: SimDuration::from_millis(500),
            idle_slot_skipping: true,
            routing_backend: RoutingBackendKind::Exact,
        }
    }

    /// A config over an explicit topology, with paper-default substrate
    /// parameters (the entry point the scenario engine lowers through).
    ///
    /// Constructors never panic: an unusable topology (fewer than two
    /// nodes, degenerate geometry) is reported by [`Self::validate`],
    /// which every run entry point calls before building a network.
    pub fn with_topology(topology: TopologyKind) -> Self {
        Self::base(topology)
    }

    /// A linear chain of `n` nodes, 55 m spacing (full-quality links,
    /// single-hop neighbours only).
    pub fn linear(n: usize) -> Self {
        Self::base(TopologyKind::Linear { n, spacing_m: 55.0 })
    }

    /// `n` nodes uniform in a square field sized for connectivity
    /// (side = 60·√n metres, mean degree ≈ 8 at 100 m range).
    pub fn random(n: usize) -> Self {
        let side = 60.0 * (n as f64).sqrt();
        Self::base(TopologyKind::Random {
            n,
            field_side_m: side,
        })
    }

    /// A `cols × rows` lattice, 80 m spacing (4-connected at the 100 m
    /// radio range).
    pub fn grid(cols: usize, rows: usize) -> Self {
        Self::base(TopologyKind::Grid {
            cols,
            rows,
            spacing_m: 80.0,
        })
    }

    /// `clusters` dense clusters of `per_cluster` nodes: 25 m spread
    /// around centres 90 m apart, so clusters interconnect only through
    /// their rims.
    pub fn clustered(clusters: usize, per_cluster: usize) -> Self {
        Self::base(TopologyKind::Clustered {
            clusters,
            per_cluster,
            spread_m: 25.0,
            cluster_spacing_m: 90.0,
        })
    }

    /// Select the transport protocol. `Jnc` also disables JTP caching.
    pub fn transport(mut self, t: TransportKind) -> Self {
        self.transport = t;
        if t == TransportKind::Jnc {
            self.jtp.caching_enabled = false;
        }
        self
    }

    /// Set the simulated duration in seconds.
    pub fn duration_s(mut self, s: f64) -> Self {
        self.duration = SimDuration::from_secs_f64(s);
        self
    }

    /// Set the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Add a flow.
    pub fn flow(mut self, spec: FlowSpec) -> Self {
        self.flows.push(spec);
        self
    }

    /// Enable random-waypoint mobility at the paper's parameters.
    pub fn mobile(mut self, speed_mps: f64) -> Self {
        self.mobility = Some(MobilityConfig::paper(speed_mps));
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
    /// parameters). Requires [`ExperimentConfig::battery`].
    pub fn energy_aware_routing(mut self) -> Self {
        self.energy_routing = Some(EnergyRoutingConfig::default());
        self
    }

    /// Schedule a substrate dynamics event.
    pub fn dynamic(mut self, ev: DynamicsEvent) -> Self {
        self.dynamics.push(ev);
        self
    }

    /// Select the routing backend (see [`RoutingBackendKind`]). The
    /// hierarchical backend is incompatible with
    /// [`ExperimentConfig::energy_aware_routing`]; the combination is
    /// rejected by [`Self::validate`].
    pub fn routing_backend(mut self, kind: RoutingBackendKind) -> Self {
        self.routing_backend = kind;
        self
    }

    /// Convenience: one bulk transfer of `packets` packets from node 0 to
    /// the last node, starting at `start_s`, with loss tolerance `lt`.
    pub fn bulk_flow(self, packets: u32, start_s: f64, lt: f64) -> Self {
        let n = self.topology.node_count();
        let spec = FlowSpec {
            src: NodeId(0),
            dst: NodeId(n.saturating_sub(1) as u32),
            start: SimDuration::from_secs_f64(start_s),
            packets,
            loss_tolerance: lt,
            initial_rate_pps: None,
        };
        self.flow(spec)
    }

    /// Validate cross-field consistency. The single choke point every run
    /// entry point (`Network::try_with_subscriber`, `try_run_subscribed`,
    /// `Scenario::try_build`) passes through: a config that validates
    /// runs without panicking, however degenerate its outcome.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let n = self.topology.node_count();
        if n < 2 {
            return Err(ConfigError::Topology(format!(
                "need at least source and destination (got {n} nodes)"
            )));
        }
        self.validate_topology_geometry()?;
        self.validate_timing()?;
        self.jtp.validate().map_err(ConfigError::Jtp)?;
        self.pathloss.validate().map_err(ConfigError::PathLoss)?;
        if let Some(b) = &self.battery {
            b.validate().map_err(ConfigError::Battery)?;
        }
        if let Some(d) = &self.duty_cycle {
            d.validate().map_err(ConfigError::DutyCycle)?;
        }
        if let Some(e) = &self.energy_routing {
            e.validate().map_err(ConfigError::EnergyRouting)?;
            if self.battery.is_none() {
                return Err(ConfigError::EnergyRouting(
                    "needs a battery (weights are residual fractions)".into(),
                ));
            }
            if self.routing_backend == RoutingBackendKind::Hierarchical {
                return Err(ConfigError::RoutingBackend(
                    "hierarchical routing cannot consume energy-weighted tables \
                     (cluster summaries are hop-count only); use the exact backend"
                        .into(),
                ));
            }
        }
        if let Some(m) = &self.mobility {
            if m.update_period.is_zero() {
                return Err(ConfigError::Mobility(
                    "update period must be positive (zero would re-tick forever at one instant)"
                        .into(),
                ));
            }
            if !m.speed_mps.is_finite() || m.speed_mps < 0.0 {
                return Err(ConfigError::Mobility(format!(
                    "speed must be finite and non-negative (got {} m/s)",
                    m.speed_mps
                )));
            }
            if !m.mean_leg_m.is_finite() || m.mean_leg_m <= 0.0 {
                return Err(ConfigError::Mobility(format!(
                    "mean leg must be finite and positive (got {} m)",
                    m.mean_leg_m
                )));
            }
            if !m.mean_pause_s.is_finite() || m.mean_pause_s < 0.0 {
                return Err(ConfigError::Mobility(format!(
                    "mean pause must be finite and non-negative (got {} s)",
                    m.mean_pause_s
                )));
            }
        }
        for (i, f) in self.flows.iter().enumerate() {
            let flow_err = |reason: String| ConfigError::Flow { index: i, reason };
            if f.src.index() >= n || f.dst.index() >= n {
                return Err(flow_err("endpoints outside topology".into()));
            }
            if f.src == f.dst {
                return Err(flow_err("identical endpoints".into()));
            }
            if !(0.0..=1.0).contains(&f.loss_tolerance) {
                return Err(flow_err(format!(
                    "loss tolerance {} outside [0,1]",
                    f.loss_tolerance
                )));
            }
            if self.transport.requires_full_reliability() && f.loss_tolerance != 0.0 {
                return Err(flow_err(format!(
                    "{:?} only supports full reliability",
                    self.transport
                )));
            }
            if let Some(r) = f.initial_rate_pps {
                if !r.is_finite() || r <= 0.0 {
                    return Err(flow_err(format!(
                        "initial rate must be finite and positive (got {r} pps)"
                    )));
                }
            }
        }
        for (i, ev) in self.dynamics.iter().enumerate() {
            let dyn_err = |reason: String| ConfigError::Dynamics { index: i, reason };
            match &ev.action {
                DynamicsAction::NodeDown(v) | DynamicsAction::NodeUp(v) => {
                    if v.index() >= n {
                        return Err(dyn_err(format!("node {v} outside topology")));
                    }
                }
                DynamicsAction::LinkDown(a, b) | DynamicsAction::LinkUp(a, b) => {
                    if a.index() >= n || b.index() >= n {
                        return Err(dyn_err("link endpoint outside topology".into()));
                    }
                    if a == b {
                        return Err(dyn_err("link endpoints identical".into()));
                    }
                }
                DynamicsAction::PartitionStart(group) => {
                    if group.is_empty() || group.len() >= n {
                        return Err(dyn_err(
                            "partition group must be a non-empty proper subset".into(),
                        ));
                    }
                    if group.iter().any(|v| v.index() >= n) {
                        return Err(dyn_err("partition member outside topology".into()));
                    }
                }
                DynamicsAction::PartitionEnd => {}
                DynamicsAction::AreaFail {
                    x_m, y_m, radius_m, ..
                } => {
                    if !radius_m.is_finite() || *radius_m <= 0.0 {
                        return Err(dyn_err(format!(
                            "area failure radius must be finite and positive (got {radius_m} m)"
                        )));
                    }
                    if !x_m.is_finite() || !y_m.is_finite() {
                        return Err(dyn_err("area failure centre must be finite".into()));
                    }
                }
            }
        }
        Ok(())
    }

    /// Geometry sanity for the four placement families: every length that
    /// feeds the position sampler must be finite and positive, else
    /// distances go NaN and "resample until connected" never terminates.
    fn validate_topology_geometry(&self) -> Result<(), ConfigError> {
        let positive = |what: &str, v: f64| -> Result<(), ConfigError> {
            if !v.is_finite() || v <= 0.0 {
                Err(ConfigError::Topology(format!(
                    "{what} must be finite and positive (got {v} m)"
                )))
            } else {
                Ok(())
            }
        };
        match &self.topology {
            TopologyKind::Linear { spacing_m, .. } => positive("chain spacing", *spacing_m),
            TopologyKind::Random { field_side_m, .. } => positive("field side", *field_side_m),
            TopologyKind::Grid { spacing_m, .. } => positive("lattice spacing", *spacing_m),
            TopologyKind::Clustered {
                spread_m,
                cluster_spacing_m,
                ..
            } => {
                positive("cluster spacing", *cluster_spacing_m)?;
                positive("cluster spread", *spread_m)?;
                // Discs must stay inside the implied deployment field
                // (whose cells are cluster_spacing wide, centres at cell
                // midpoints): otherwise mobility clamping would silently
                // move nodes off the connectivity-checked placement.
                if *spread_m > cluster_spacing_m / 2.0 {
                    return Err(ConfigError::Topology(format!(
                        "clustered spread ({spread_m} m) must be in \
                         (0, cluster_spacing/2 = {} m]",
                        cluster_spacing_m / 2.0
                    )));
                }
                Ok(())
            }
        }
    }

    /// Every period that re-schedules `now + period` must be positive, or
    /// the event loop re-fires forever at one instant. `SimDuration`
    /// construction already clamps negative/NaN seconds to zero, so a
    /// zero check covers the whole malformed range.
    fn validate_timing(&self) -> Result<(), ConfigError> {
        if self.duration.is_zero() {
            return Err(ConfigError::Timing(
                "simulated duration must be positive".into(),
            ));
        }
        if self.slot.is_zero() {
            return Err(ConfigError::Timing(
                "TDMA slot length must be positive".into(),
            ));
        }
        if self.tcp_ack_flush.is_zero() {
            return Err(ConfigError::Timing(
                "TCP ack-flush period must be positive".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_valid_config() {
        let cfg = ExperimentConfig::linear(5)
            .transport(TransportKind::Jtp)
            .duration_s(500.0)
            .seed(7)
            .bulk_flow(100, 10.0, 0.1);
        cfg.validate().unwrap();
        assert_eq!(cfg.topology.node_count(), 5);
        assert_eq!(cfg.flows.len(), 1);
        assert_eq!(cfg.flows[0].dst, NodeId(4));
    }

    #[test]
    fn jnc_disables_caching() {
        let cfg = ExperimentConfig::linear(3).transport(TransportKind::Jnc);
        assert!(!cfg.jtp.caching_enabled);
    }

    #[test]
    fn tcp_rejects_loss_tolerance() {
        let cfg = ExperimentConfig::linear(3)
            .transport(TransportKind::Tcp)
            .bulk_flow(10, 0.0, 0.2);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn every_baseline_rejects_loss_tolerance() {
        for t in [
            TransportKind::Tcp,
            TransportKind::Atp,
            TransportKind::Cubic,
            TransportKind::Bbr,
        ] {
            assert!(t.requires_full_reliability());
            let cfg = ExperimentConfig::linear(3)
                .transport(t)
                .bulk_flow(10, 0.0, 0.2);
            assert!(cfg.validate().is_err(), "{t:?} must reject tolerance");
            let ok = ExperimentConfig::linear(3)
                .transport(t)
                .bulk_flow(10, 0.0, 0.0);
            ok.validate().unwrap();
        }
        assert!(!TransportKind::Jtp.requires_full_reliability());
        assert!(!TransportKind::Jnc.requires_full_reliability());
    }

    #[test]
    fn flow_endpoint_bounds_checked() {
        let cfg = ExperimentConfig::linear(3).flow(FlowSpec {
            src: NodeId(0),
            dst: NodeId(9),
            start: SimDuration::ZERO,
            packets: 1,
            loss_tolerance: 0.0,
            initial_rate_pps: None,
        });
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn hierarchical_backend_rejects_energy_routing() {
        let hier = ExperimentConfig::grid(4, 4)
            .bulk_flow(5, 0.0, 0.0)
            .routing_backend(RoutingBackendKind::Hierarchical);
        assert_eq!(
            ExperimentConfig::grid(4, 4).routing_backend,
            RoutingBackendKind::Exact,
            "exact by default"
        );
        hier.validate().unwrap();
        let clash = hier
            .clone()
            .battery(BatteryConfig::javelen_small())
            .energy_aware_routing();
        let err = clash.validate().unwrap_err();
        assert!(matches!(err, ConfigError::RoutingBackend(_)));
        assert!(err.to_string().contains("routing backend"));
        // The same knobs with the exact backend are fine.
        clash
            .routing_backend(RoutingBackendKind::Exact)
            .validate()
            .unwrap();
    }

    #[test]
    fn grid_and_clustered_node_counts() {
        assert_eq!(ExperimentConfig::grid(4, 3).topology.node_count(), 12);
        assert_eq!(ExperimentConfig::clustered(3, 5).topology.node_count(), 15);
    }

    #[test]
    fn clustered_spread_must_fit_the_cell() {
        let mut cfg = ExperimentConfig::clustered(3, 4);
        cfg.validate().unwrap();
        if let TopologyKind::Clustered { spread_m, .. } = &mut cfg.topology {
            *spread_m = 60.0; // > 90/2: discs would spill out of the field
        }
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn dynamics_validation_catches_bad_specs() {
        let ok = ExperimentConfig::linear(4)
            .dynamic(DynamicsEvent::at_s(
                10.0,
                DynamicsAction::NodeDown(NodeId(2)),
            ))
            .dynamic(DynamicsEvent::at_s(20.0, DynamicsAction::NodeUp(NodeId(2))));
        ok.validate().unwrap();
        let bad_node = ExperimentConfig::linear(4).dynamic(DynamicsEvent::at_s(
            1.0,
            DynamicsAction::NodeDown(NodeId(9)),
        ));
        assert!(bad_node.validate().is_err());
        let bad_link = ExperimentConfig::linear(4).dynamic(DynamicsEvent::at_s(
            1.0,
            DynamicsAction::LinkDown(NodeId(1), NodeId(1)),
        ));
        assert!(bad_link.validate().is_err());
        let bad_partition = ExperimentConfig::linear(4).dynamic(DynamicsEvent::at_s(
            1.0,
            DynamicsAction::PartitionStart(vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]),
        ));
        assert!(bad_partition.validate().is_err());
    }

    #[test]
    fn battery_and_duty_cycle_knobs_validate() {
        let ok = ExperimentConfig::linear(4)
            .battery(BatteryConfig::javelen_small())
            .duty_cycle(DutyCycleConfig::half())
            .energy_aware_routing();
        ok.validate().unwrap();
        // Energy routing without a battery has nothing to advertise.
        let orphan = ExperimentConfig::linear(4).energy_aware_routing();
        assert!(orphan.validate().is_err());
        let mut bad_batt = ExperimentConfig::linear(4).battery(BatteryConfig::javelen_small());
        bad_batt.battery.as_mut().unwrap().capacity_j = -1.0;
        assert!(bad_batt.validate().is_err());
        let mut bad_duty = ExperimentConfig::linear(4).duty_cycle(DutyCycleConfig::half());
        bad_duty.duty_cycle.as_mut().unwrap().awake_frames = 0;
        assert!(bad_duty.validate().is_err());
        // Dead-node weight 1 + levels + low_penalty must fit u16.
        let mut overflow = ExperimentConfig::linear(4)
            .battery(BatteryConfig::javelen_small())
            .energy_aware_routing();
        overflow.energy_routing.as_mut().unwrap().levels = u16::MAX;
        assert!(overflow.validate().is_err());
    }

    #[test]
    fn area_failure_radius_validated() {
        let ok = ExperimentConfig::linear(4).dynamic(DynamicsEvent::at_s(
            5.0,
            DynamicsAction::AreaFail {
                x_m: 55.0,
                y_m: 0.0,
                radius_m: 60.0,
            },
        ));
        ok.validate().unwrap();
        let bad = ExperimentConfig::linear(4).dynamic(DynamicsEvent::at_s(
            5.0,
            DynamicsAction::AreaFail {
                x_m: 0.0,
                y_m: 0.0,
                radius_m: 0.0,
            },
        ));
        assert!(bad.validate().is_err());
    }

    #[test]
    fn tiny_topologies_error_instead_of_panicking() {
        // Constructors are total; validate() is the choke point.
        for cfg in [
            ExperimentConfig::linear(0),
            ExperimentConfig::linear(1),
            ExperimentConfig::random(1),
            ExperimentConfig::grid(1, 1),
            ExperimentConfig::grid(0, 7),
            ExperimentConfig::clustered(1, 1),
            ExperimentConfig::with_topology(TopologyKind::Linear {
                n: 0,
                spacing_m: 55.0,
            }),
        ] {
            assert!(
                matches!(cfg.validate(), Err(ConfigError::Topology(_))),
                "{:?} should fail topology validation",
                cfg.topology
            );
        }
        // bulk_flow on a zero-node chain must not underflow either.
        let cfg = ExperimentConfig::linear(0).bulk_flow(1, 0.0, 0.0);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn degenerate_geometry_and_timing_rejected() {
        let mut nan_spacing = ExperimentConfig::linear(3);
        if let TopologyKind::Linear { spacing_m, .. } = &mut nan_spacing.topology {
            *spacing_m = f64::NAN;
        }
        assert!(matches!(
            nan_spacing.validate(),
            Err(ConfigError::Topology(_))
        ));

        let zero_duration = ExperimentConfig::linear(3).duration_s(0.0);
        assert!(matches!(
            zero_duration.validate(),
            Err(ConfigError::Timing(_))
        ));
        // from_secs_f64 clamps NaN/negative to zero, so these funnel into
        // the same rejection.
        let nan_duration = ExperimentConfig::linear(3).duration_s(f64::NAN);
        assert!(nan_duration.validate().is_err());

        let mut zero_slot = ExperimentConfig::linear(3);
        zero_slot.slot = SimDuration::ZERO;
        assert!(matches!(zero_slot.validate(), Err(ConfigError::Timing(_))));

        let mut zero_mob = ExperimentConfig::linear(3).mobile(1.0);
        zero_mob.mobility.as_mut().unwrap().update_period = SimDuration::ZERO;
        assert!(matches!(zero_mob.validate(), Err(ConfigError::Mobility(_))));
        let mut nan_speed = ExperimentConfig::linear(3).mobile(f64::NAN);
        assert!(matches!(
            nan_speed.validate(),
            Err(ConfigError::Mobility(_))
        ));
        nan_speed.mobility = None;
        nan_speed.validate().unwrap();
    }

    #[test]
    fn bad_flow_rates_rejected() {
        let mut cfg = ExperimentConfig::linear(3).bulk_flow(10, 0.0, 0.0);
        cfg.flows[0].initial_rate_pps = Some(f64::INFINITY);
        assert!(matches!(cfg.validate(), Err(ConfigError::Flow { .. })));
        cfg.flows[0].initial_rate_pps = Some(0.0);
        assert!(cfg.validate().is_err());
        cfg.flows[0].initial_rate_pps = Some(8.0);
        cfg.validate().unwrap();
    }

    #[test]
    fn config_error_displays_its_class() {
        let err = ExperimentConfig::linear(1).validate().unwrap_err();
        assert!(err.to_string().contains("topology"));
        let err = ExperimentConfig::linear(3)
            .bulk_flow(1, 0.0, 7.0)
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("flow 0"));
    }

    #[test]
    fn random_field_scales_with_n() {
        let small = ExperimentConfig::random(4);
        let large = ExperimentConfig::random(25);
        let (
            TopologyKind::Random {
                field_side_m: s, ..
            },
            TopologyKind::Random {
                field_side_m: l, ..
            },
        ) = (small.topology.clone(), large.topology.clone())
        else {
            panic!()
        };
        assert!(l > s);
    }
}
