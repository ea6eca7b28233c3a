//! Typed event vocabulary and zero-cost subscriber layer.
//!
//! Every observable thing the engine does — a slot firing, a packet
//! delivered or dropped, a routing flood, a battery death — is described
//! here as a plain struct, and consumers implement [`Subscriber`] to
//! receive the ones they care about. The design rule is the one
//! s2n-quic's generated events crate uses: the subscriber is a **type
//! parameter** of the engine, so with [`NoopSubscriber`] every emission
//! site monomorphizes to nothing — no branch, no virtual call, no
//! argument construction (emission sites gate on [`Subscriber::ENABLED`],
//! a `const`, and build event payloads inside that gate).
//!
//! Determinism contract (see ARCHITECTURE.md "Event & telemetry layer"):
//!
//! * subscribers receive `&`-events and may keep any state they like,
//!   but the engine never reads that state back — a subscriber cannot
//!   influence simulation results;
//! * subscribers must not feed wall-clock (or any other host
//!   non-determinism) back into anything that is compared across runs:
//!   wall time lives in [`TimeAccountant`] and in markdown reports,
//!   never in serialized JSON that CI diffs;
//! * event streams are a pure function of the scenario, so a subscriber
//!   that folds the stream (counts, checksums, timelines) is itself
//!   deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use jtp_sim::{FlowId, NodeId, SimTime};

/// Why a data packet left the network without being delivered.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DropCause {
    /// MAC transmit queue overflow on enqueue.
    Queue,
    /// ARQ attempt budget exhausted at the MAC.
    Arq,
    /// Pre-transmit energy verdict: not worth the remaining budget.
    Energy,
    /// No route to the destination in the sender's view.
    NoRoute,
    /// Queue flushed because the node (or its origin) left the network.
    Churn,
}

impl DropCause {
    /// All causes, in a fixed order (stable across runs — report tables
    /// and histograms index by this).
    pub const ALL: [DropCause; 5] = [
        DropCause::Queue,
        DropCause::Arq,
        DropCause::Energy,
        DropCause::NoRoute,
        DropCause::Churn,
    ];

    /// Position of this cause in [`DropCause::ALL`].
    pub fn index(self) -> usize {
        match self {
            DropCause::Queue => 0,
            DropCause::Arq => 1,
            DropCause::Energy => 2,
            DropCause::NoRoute => 3,
            DropCause::Churn => 4,
        }
    }

    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            DropCause::Queue => "queue",
            DropCause::Arq => "arq",
            DropCause::Energy => "energy",
            DropCause::NoRoute => "no_route",
            DropCause::Churn => "churn",
        }
    }
}

/// Coarse packet class for send events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PacketKind {
    /// Transport data (JTP, TCP or ATP payload).
    Data,
    /// Acknowledgement / feedback traffic.
    Ack,
}

/// What triggered a routing flood.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FloodCause {
    /// A scripted dynamics action (node/link up/down, weight change…).
    Dynamics,
    /// One or more batteries died this slot.
    BatteryDeath,
    /// An energy advert changed link weights.
    EnergyAdvert,
    /// A mobility tick moved the geometry.
    Mobility,
}

impl FloodCause {
    /// All causes, in a fixed order.
    pub const ALL: [FloodCause; 4] = [
        FloodCause::Dynamics,
        FloodCause::BatteryDeath,
        FloodCause::EnergyAdvert,
        FloodCause::Mobility,
    ];

    /// Position of this cause in [`FloodCause::ALL`].
    pub fn index(self) -> usize {
        match self {
            FloodCause::Dynamics => 0,
            FloodCause::BatteryDeath => 1,
            FloodCause::EnergyAdvert => 2,
            FloodCause::Mobility => 3,
        }
    }

    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            FloodCause::Dynamics => "dynamics",
            FloodCause::BatteryDeath => "battery_death",
            FloodCause::EnergyAdvert => "energy_advert",
            FloodCause::Mobility => "mobility",
        }
    }
}

/// A TDMA slot was granted to its owner.
#[derive(Clone, Copy, Debug)]
pub struct SlotGrant {
    /// Absolute slot index.
    pub slot: u64,
    /// Slot owner.
    pub owner: NodeId,
    /// Whether the owner had a frame to transmit this slot.
    pub busy: bool,
    /// Owner's MAC queue depth when the slot fired (before transmit).
    pub queue_depth: u32,
}

/// A frame went on the air.
#[derive(Clone, Copy, Debug)]
pub struct PacketSend {
    /// Transmitting node.
    pub from: NodeId,
    /// Link-layer next hop.
    pub to: NodeId,
    /// Data or ack traffic.
    pub kind: PacketKind,
    /// Wire bytes of the frame.
    pub bytes: u32,
    /// Whether the channel delivered it this attempt.
    pub delivered: bool,
}

/// Per-packet ARQ attempt budget chosen at first transmission.
#[derive(Clone, Copy, Debug)]
pub struct AttemptBudget {
    /// Node the budget was computed at.
    pub node: NodeId,
    /// Maximum link-layer attempts granted to the head-of-line packet.
    pub budget: u32,
}

/// A transport data packet reached a destination endpoint.
#[derive(Clone, Copy, Debug)]
pub struct Delivery {
    /// Flow the packet belongs to.
    pub flow: FlowId,
    /// Receiving node.
    pub node: NodeId,
    /// Wire bytes of the delivered packet.
    pub bytes: u32,
    /// `false` for duplicates the receiver had already seen.
    pub fresh: bool,
}

/// One or more data packets were dropped.
#[derive(Clone, Copy, Debug)]
pub struct PacketDrop {
    /// Node at which the drop happened.
    pub node: NodeId,
    /// Why.
    pub cause: DropCause,
    /// How many packets this event covers (queue flushes drop in bulk).
    pub packets: u64,
}

/// A JTP receiver's flip-flop rate monitor produced a sample.
#[derive(Clone, Copy, Debug)]
pub struct MonitorUpdate {
    /// Monitored flow.
    pub flow: FlowId,
    /// Rate reported by the sender in the delivered packet (pps).
    pub reported: f64,
    /// Monitor mean estimate.
    pub mean: f64,
    /// Lower control limit.
    pub lcl: f64,
    /// Upper control limit.
    pub ucl: f64,
}

/// A routing flood (view resynchronization) is starting.
#[derive(Clone, Copy, Debug)]
pub struct FloodStart {
    /// What triggered it.
    pub cause: FloodCause,
}

/// A routing flood finished; costs are exact engine work counts.
#[derive(Clone, Copy, Debug)]
pub struct FloodEnd {
    /// What triggered it.
    pub cause: FloodCause,
    /// Node views refreshed by this flood.
    pub views_refreshed: u64,
    /// Source rows repaired or rebuilt (hop BFS + weighted APSP).
    pub sources_repaired: u64,
    /// Distance-table entries whose value actually changed (exact
    /// per-entry dirt from the incremental engines).
    pub entries_changed: u64,
}

/// A node's battery reached zero.
#[derive(Clone, Copy, Debug)]
pub struct BatteryDeath {
    /// The node that died.
    pub node: NodeId,
    /// Nodes still alive after this death.
    pub alive: u32,
}

/// An energy advert fired (periodic energy-aware weight refresh).
#[derive(Clone, Copy, Debug)]
pub struct EnergyAdvert {
    /// Whether any link weight changed (a flood follows iff `true`).
    pub changed: bool,
}

/// A scripted dynamics action was applied to the substrate.
#[derive(Clone, Copy, Debug)]
pub struct DynamicsApplied {
    /// Index of the action in the scenario's dynamics script.
    pub index: u32,
}

/// A mobility tick moved node positions.
#[derive(Clone, Copy, Debug)]
pub struct MobilityTick {
    /// Geometry edges that appeared or disappeared this tick.
    pub changed_edges: u32,
}

/// Engine subsystems for wall-clock accounting.
///
/// The first five are **dispatch-level** buckets — every handled event
/// falls in exactly one. [`Subsystem::FloodPlane`] and
/// [`Subsystem::GeometryDiff`] are **nested** sub-spans inside whichever
/// dispatch bucket triggered them (a death flood is inside `SlotPlane`,
/// a mobility diff inside `Mobility`), so the seven do not sum to total
/// wall time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Subsystem {
    /// TDMA slot events: transmit, receive, energy charge, deaths.
    SlotPlane,
    /// Transport timers: flow starts, sender wakeups, receiver timers.
    Timers,
    /// Scripted dynamics actions.
    Dynamics,
    /// Periodic energy adverts.
    EnergyAdvert,
    /// Mobility ticks (position updates + topology repair).
    Mobility,
    /// Routing view refresh after a substrate change (nested span).
    FloodPlane,
    /// Geometry recompute + edge diff on mobility ticks (nested span).
    GeometryDiff,
}

impl Subsystem {
    /// Number of subsystems (array sizing for accountants).
    pub const COUNT: usize = 7;

    /// All subsystems, in a fixed order.
    pub const ALL: [Subsystem; Subsystem::COUNT] = [
        Subsystem::SlotPlane,
        Subsystem::Timers,
        Subsystem::Dynamics,
        Subsystem::EnergyAdvert,
        Subsystem::Mobility,
        Subsystem::FloodPlane,
        Subsystem::GeometryDiff,
    ];

    /// Position of this subsystem in [`Subsystem::ALL`].
    pub fn index(self) -> usize {
        match self {
            Subsystem::SlotPlane => 0,
            Subsystem::Timers => 1,
            Subsystem::Dynamics => 2,
            Subsystem::EnergyAdvert => 3,
            Subsystem::Mobility => 4,
            Subsystem::FloodPlane => 5,
            Subsystem::GeometryDiff => 6,
        }
    }

    /// Stable name for report tables.
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::SlotPlane => "slot_plane",
            Subsystem::Timers => "timers",
            Subsystem::Dynamics => "dynamics",
            Subsystem::EnergyAdvert => "energy_advert",
            Subsystem::Mobility => "mobility",
            Subsystem::FloodPlane => "flood_plane",
            Subsystem::GeometryDiff => "geometry_diff",
        }
    }
}

/// Receives engine events. All handlers default to no-ops so a
/// subscriber implements only what it folds.
///
/// The two associated consts are the zero-cost switchboard:
///
/// * [`Subscriber::ENABLED`] gates every event emission site — the
///   engine writes `if S::ENABLED { sub.on_x(now, &X { .. }) }`, so
///   with a `false` const the whole block (including payload
///   construction) is dead code after monomorphization;
/// * [`Subscriber::TIMING`] gates the `Instant::now()` spans around
///   dispatch and the flood plane — wall-clock reads are themselves
///   not free, so they only exist for subscribers that ask.
pub trait Subscriber {
    /// Whether event emission sites are compiled in for this subscriber.
    const ENABLED: bool = true;
    /// Whether wall-clock subsystem spans are compiled in.
    const TIMING: bool = false;

    /// A TDMA slot fired.
    fn on_slot(&mut self, _now: SimTime, _ev: &SlotGrant) {}
    /// A frame was transmitted.
    fn on_send(&mut self, _now: SimTime, _ev: &PacketSend) {}
    /// An ARQ attempt budget was granted.
    fn on_attempt_budget(&mut self, _now: SimTime, _ev: &AttemptBudget) {}
    /// A data packet arrived at a destination endpoint.
    fn on_delivery(&mut self, _now: SimTime, _ev: &Delivery) {}
    /// Data packets were dropped.
    fn on_drop(&mut self, _now: SimTime, _ev: &PacketDrop) {}
    /// A receiver rate monitor produced a sample.
    fn on_monitor(&mut self, _now: SimTime, _ev: &MonitorUpdate) {}
    /// A routing flood is starting.
    fn on_flood_start(&mut self, _now: SimTime, _ev: &FloodStart) {}
    /// A routing flood finished.
    fn on_flood_end(&mut self, _now: SimTime, _ev: &FloodEnd) {}
    /// A battery died.
    fn on_battery_death(&mut self, _now: SimTime, _ev: &BatteryDeath) {}
    /// An energy advert fired.
    fn on_energy_advert(&mut self, _now: SimTime, _ev: &EnergyAdvert) {}
    /// A dynamics action was applied.
    fn on_dynamics(&mut self, _now: SimTime, _ev: &DynamicsApplied) {}
    /// A mobility tick was applied.
    fn on_mobility(&mut self, _now: SimTime, _ev: &MobilityTick) {}
    /// A wall-clock span closed (only emitted when [`Self::TIMING`]).
    fn on_subsystem_time(&mut self, _sys: Subsystem, _wall_ns: u64) {}
}

/// The disabled subscriber: every emission site compiles to nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSubscriber;

impl Subscriber for NoopSubscriber {
    const ENABLED: bool = false;
    const TIMING: bool = false;
}

/// Pair composition: `(A, B)` fans every event out to both members.
/// Nest pairs to stack more — `(trace, (report, time))`.
impl<A: Subscriber, B: Subscriber> Subscriber for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;
    const TIMING: bool = A::TIMING || B::TIMING;

    fn on_slot(&mut self, now: SimTime, ev: &SlotGrant) {
        self.0.on_slot(now, ev);
        self.1.on_slot(now, ev);
    }
    fn on_send(&mut self, now: SimTime, ev: &PacketSend) {
        self.0.on_send(now, ev);
        self.1.on_send(now, ev);
    }
    fn on_attempt_budget(&mut self, now: SimTime, ev: &AttemptBudget) {
        self.0.on_attempt_budget(now, ev);
        self.1.on_attempt_budget(now, ev);
    }
    fn on_delivery(&mut self, now: SimTime, ev: &Delivery) {
        self.0.on_delivery(now, ev);
        self.1.on_delivery(now, ev);
    }
    fn on_drop(&mut self, now: SimTime, ev: &PacketDrop) {
        self.0.on_drop(now, ev);
        self.1.on_drop(now, ev);
    }
    fn on_monitor(&mut self, now: SimTime, ev: &MonitorUpdate) {
        self.0.on_monitor(now, ev);
        self.1.on_monitor(now, ev);
    }
    fn on_flood_start(&mut self, now: SimTime, ev: &FloodStart) {
        self.0.on_flood_start(now, ev);
        self.1.on_flood_start(now, ev);
    }
    fn on_flood_end(&mut self, now: SimTime, ev: &FloodEnd) {
        self.0.on_flood_end(now, ev);
        self.1.on_flood_end(now, ev);
    }
    fn on_battery_death(&mut self, now: SimTime, ev: &BatteryDeath) {
        self.0.on_battery_death(now, ev);
        self.1.on_battery_death(now, ev);
    }
    fn on_energy_advert(&mut self, now: SimTime, ev: &EnergyAdvert) {
        self.0.on_energy_advert(now, ev);
        self.1.on_energy_advert(now, ev);
    }
    fn on_dynamics(&mut self, now: SimTime, ev: &DynamicsApplied) {
        self.0.on_dynamics(now, ev);
        self.1.on_dynamics(now, ev);
    }
    fn on_mobility(&mut self, now: SimTime, ev: &MobilityTick) {
        self.0.on_mobility(now, ev);
        self.1.on_mobility(now, ev);
    }
    fn on_subsystem_time(&mut self, sys: Subsystem, wall_ns: u64) {
        self.0.on_subsystem_time(sys, wall_ns);
        self.1.on_subsystem_time(sys, wall_ns);
    }
}

/// Pure event counters — a cheap always-on subscriber used by tests to
/// cross-check the event stream against `Metrics`, and by reports for
/// their totals table.
#[derive(Clone, Debug, Default)]
pub struct EventCounters {
    /// Slots fired (owned slots that were processed).
    pub slots: u64,
    /// Slots whose owner transmitted a frame.
    pub busy_slots: u64,
    /// Frames put on the air.
    pub sends: u64,
    /// Frames the channel lost.
    pub send_failures: u64,
    /// Data-packet arrivals at endpoints (including duplicates).
    pub deliveries: u64,
    /// First-time data-packet arrivals.
    pub fresh_deliveries: u64,
    /// Attempt budgets granted.
    pub attempt_budgets: u64,
    /// Packets dropped, indexed by [`DropCause::index`].
    pub drops: [u64; DropCause::ALL.len()],
    /// Rate-monitor samples.
    pub monitor_samples: u64,
    /// Floods, indexed by [`FloodCause::index`].
    pub floods: [u64; FloodCause::ALL.len()],
    /// Node views refreshed across all floods.
    pub views_refreshed: u64,
    /// Source rows repaired across all floods.
    pub sources_repaired: u64,
    /// Distance entries changed across all floods.
    pub entries_changed: u64,
    /// Battery deaths.
    pub battery_deaths: u64,
    /// Energy adverts fired.
    pub energy_adverts: u64,
    /// Dynamics actions applied.
    pub dynamics_applied: u64,
    /// Mobility ticks applied.
    pub mobility_ticks: u64,
}

impl EventCounters {
    /// Total packets dropped across all causes.
    pub fn total_drops(&self) -> u64 {
        self.drops.iter().sum()
    }

    /// Total floods across all causes.
    pub fn total_floods(&self) -> u64 {
        self.floods.iter().sum()
    }
}

impl Subscriber for EventCounters {
    fn on_slot(&mut self, _now: SimTime, ev: &SlotGrant) {
        self.slots += 1;
        self.busy_slots += u64::from(ev.busy);
    }
    fn on_send(&mut self, _now: SimTime, ev: &PacketSend) {
        self.sends += 1;
        self.send_failures += u64::from(!ev.delivered);
    }
    fn on_attempt_budget(&mut self, _now: SimTime, _ev: &AttemptBudget) {
        self.attempt_budgets += 1;
    }
    fn on_delivery(&mut self, _now: SimTime, ev: &Delivery) {
        self.deliveries += 1;
        self.fresh_deliveries += u64::from(ev.fresh);
    }
    fn on_drop(&mut self, _now: SimTime, ev: &PacketDrop) {
        self.drops[ev.cause.index()] += ev.packets;
    }
    fn on_monitor(&mut self, _now: SimTime, _ev: &MonitorUpdate) {
        self.monitor_samples += 1;
    }
    fn on_flood_end(&mut self, _now: SimTime, ev: &FloodEnd) {
        self.floods[ev.cause.index()] += 1;
        self.views_refreshed += ev.views_refreshed;
        self.sources_repaired += ev.sources_repaired;
        self.entries_changed += ev.entries_changed;
    }
    fn on_battery_death(&mut self, _now: SimTime, _ev: &BatteryDeath) {
        self.battery_deaths += 1;
    }
    fn on_energy_advert(&mut self, _now: SimTime, _ev: &EnergyAdvert) {
        self.energy_adverts += 1;
    }
    fn on_dynamics(&mut self, _now: SimTime, _ev: &DynamicsApplied) {
        self.dynamics_applied += 1;
    }
    fn on_mobility(&mut self, _now: SimTime, _ev: &MobilityTick) {
        self.mobility_ticks += 1;
    }
}

/// Wall-clock accounting per subsystem. Timing-only: it requests no
/// events, so a lone
/// `TimeAccountant` keeps every emission site compiled out and only
/// pays for the dispatch spans.
///
/// Wall time is host noise — it must never flow into `Metrics`, golden
/// digests, or deterministic JSON. Reports print it in markdown only.
#[derive(Clone, Debug, Default)]
pub struct TimeAccountant {
    spans: [u64; Subsystem::COUNT],
    wall_ns: [u64; Subsystem::COUNT],
}

impl TimeAccountant {
    /// Spans recorded for a subsystem.
    pub fn spans(&self, sys: Subsystem) -> u64 {
        self.spans[sys.index()]
    }

    /// Total wall nanoseconds recorded for a subsystem.
    pub fn wall_ns(&self, sys: Subsystem) -> u64 {
        self.wall_ns[sys.index()]
    }

    /// Wall nanoseconds summed over the dispatch-level buckets (the
    /// nested [`Subsystem::FloodPlane`] / [`Subsystem::GeometryDiff`]
    /// spans are excluded to avoid double counting).
    pub fn dispatch_wall_ns(&self) -> u64 {
        Subsystem::ALL
            .iter()
            .filter(|s| !matches!(s, Subsystem::FloodPlane | Subsystem::GeometryDiff))
            .map(|&s| self.wall_ns(s))
            .sum()
    }

    /// Fold another accountant in (e.g. when merging the runs of a batch).
    pub fn merge(&mut self, other: &TimeAccountant) {
        for i in 0..Subsystem::COUNT {
            self.spans[i] += other.spans[i];
            self.wall_ns[i] += other.wall_ns[i];
        }
    }
}

impl Subscriber for TimeAccountant {
    const ENABLED: bool = false;
    const TIMING: bool = true;

    fn on_subsystem_time(&mut self, sys: Subsystem, wall_ns: u64) {
        self.spans[sys.index()] += 1;
        self.wall_ns[sys.index()] += wall_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cause_indices_match_all_order() {
        for (i, c) in DropCause::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, c) in FloodCause::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, s) in Subsystem::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    // The point of this test IS the constant values: it pins the const
    // wiring that makes the disabled path compile to nothing.
    #[allow(clippy::assertions_on_constants)]
    fn noop_is_disabled_and_pairs_or_the_consts() {
        assert!(!NoopSubscriber::ENABLED);
        assert!(!NoopSubscriber::TIMING);
        assert!(!<(NoopSubscriber, NoopSubscriber)>::ENABLED);
        assert!(<(EventCounters, NoopSubscriber)>::ENABLED);
        assert!(!<(EventCounters, NoopSubscriber)>::TIMING);
        assert!(<(EventCounters, TimeAccountant)>::TIMING);
        // TimeAccountant alone asks for spans but no events.
        assert!(!TimeAccountant::ENABLED);
        assert!(TimeAccountant::TIMING);
    }

    #[test]
    fn pair_fans_out_to_both_members() {
        let mut pair = (EventCounters::default(), EventCounters::default());
        let now = SimTime::ZERO;
        pair.on_slot(
            now,
            &SlotGrant {
                slot: 3,
                owner: NodeId(1),
                busy: true,
                queue_depth: 2,
            },
        );
        pair.on_drop(
            now,
            &PacketDrop {
                node: NodeId(1),
                cause: DropCause::Churn,
                packets: 4,
            },
        );
        for c in [&pair.0, &pair.1] {
            assert_eq!(c.slots, 1);
            assert_eq!(c.busy_slots, 1);
            assert_eq!(c.drops[DropCause::Churn.index()], 4);
            assert_eq!(c.total_drops(), 4);
        }
    }

    #[test]
    fn time_accountant_accumulates_and_merges() {
        let mut t = TimeAccountant::default();
        t.on_subsystem_time(Subsystem::SlotPlane, 100);
        t.on_subsystem_time(Subsystem::SlotPlane, 50);
        t.on_subsystem_time(Subsystem::FloodPlane, 700);
        assert_eq!(t.spans(Subsystem::SlotPlane), 2);
        assert_eq!(t.wall_ns(Subsystem::SlotPlane), 150);
        // Nested spans are excluded from the dispatch total.
        assert_eq!(t.dispatch_wall_ns(), 150);
        let mut u = TimeAccountant::default();
        u.on_subsystem_time(Subsystem::Timers, 25);
        u.merge(&t);
        assert_eq!(u.wall_ns(Subsystem::Timers), 25);
        assert_eq!(u.wall_ns(Subsystem::FloodPlane), 700);
        assert_eq!(u.dispatch_wall_ns(), 175);
    }
}
