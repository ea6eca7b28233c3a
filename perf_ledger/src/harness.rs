//! Executes runs and passes. Every layer is measured from outside: the
//! harness times public calls with `Instant` and reads public counters;
//! nothing inside the library crates knows it is being benchmarked.

use crate::stats::ratio;
use crate::workloads::RunSpec;
use jtp_events::{
    AttemptBudget, BatteryDeath, Delivery, DynamicsApplied, EnergyAdvert, EventCounters, FloodEnd,
    FloodStart, MobilityTick, MonitorUpdate, PacketDrop, PacketSend, SlotGrant, Subscriber,
    TimeAccountant,
};
use jtp_netsim::trace::Fnv64;
use jtp_netsim::{Metrics, Network, TransportKind};
use jtp_sim::{run_until, SimTime};
use std::time::Instant;

/// The phases of a run, in execution order. `lower` and `build` are
/// set-up; the other four are the run wall `sim_s_per_wall_s` divides by.
pub const PHASES: [&str; 6] = ["lower", "build", "run_until", "finalize", "harvest", "drop"];
const LOWER: usize = 0;
const BUILD: usize = 1;
pub const RUN_UNTIL: usize = 2;

/// Counts every typed event the engine emits (`events.emitted`): the
/// library's `EventCounters` folds drops per packet, not per event.
#[derive(Clone, Copy, Debug, Default)]
pub struct Emitted(pub u64);

impl Subscriber for Emitted {
    fn on_slot(&mut self, _: SimTime, _: &SlotGrant) {
        self.0 += 1;
    }
    fn on_send(&mut self, _: SimTime, _: &PacketSend) {
        self.0 += 1;
    }
    fn on_attempt_budget(&mut self, _: SimTime, _: &AttemptBudget) {
        self.0 += 1;
    }
    fn on_delivery(&mut self, _: SimTime, _: &Delivery) {
        self.0 += 1;
    }
    fn on_drop(&mut self, _: SimTime, _: &PacketDrop) {
        self.0 += 1;
    }
    fn on_monitor(&mut self, _: SimTime, _: &MonitorUpdate) {
        self.0 += 1;
    }
    fn on_flood_start(&mut self, _: SimTime, _: &FloodStart) {
        self.0 += 1;
    }
    fn on_flood_end(&mut self, _: SimTime, _: &FloodEnd) {
        self.0 += 1;
    }
    fn on_battery_death(&mut self, _: SimTime, _: &BatteryDeath) {
        self.0 += 1;
    }
    fn on_energy_advert(&mut self, _: SimTime, _: &EnergyAdvert) {
        self.0 += 1;
    }
    fn on_dynamics(&mut self, _: SimTime, _: &DynamicsApplied) {
        self.0 += 1;
    }
    fn on_mobility(&mut self, _: SimTime, _: &MobilityTick) {
        self.0 += 1;
    }
}

/// The traced pass's subscriber stack: exact counts, per-subsystem wall
/// time, and the emitted-event total.
pub type Tracer = ((EventCounters, TimeAccountant), Emitted);

/// What one execution of a run produced.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Wall nanoseconds per phase ([`PHASES`] order). `lower` and
    /// `build` are averaged over the set-up repetitions.
    pub phases_ns: [u64; 6],
    /// The seven phase boundaries of the final (executed) repetition, in
    /// nanoseconds since the harness epoch — what the span file records.
    pub bounds_ns: [u64; 7],
    /// Simulated seconds covered (`Metrics::duration_s`).
    pub sim_s: f64,
    /// Events the queue popped.
    pub events: u64,
    /// FNV-1a over the JSON encoding of the run's `Metrics` — the
    /// `metrics_fnv` of the library's golden digests.
    pub fingerprint: u64,
    pub energy_j: f64,
    pub delivered_bits: f64,
    pub local_recoveries: u64,
    pub source_retransmissions: u64,
    /// Why the run failed a check, if it did.
    pub failure: Option<String>,
}

/// Conservation checks on harvested metrics: nothing delivered that was
/// not offered, per-node energy adds up to the total, every figure finite.
fn conservation_failure(m: &Metrics) -> Option<String> {
    let floats = [m.energy_total_j, m.energy_ack_j, m.duration_s];
    if floats
        .iter()
        .chain(&m.per_node_energy_j)
        .chain(&m.residual_j)
        .any(|v| !v.is_finite())
    {
        return Some("non-finite metric".to_string());
    }
    for f in &m.flows {
        if f.delivered_packets > u64::from(f.offered_packets) {
            return Some(format!(
                "flow {} delivered {} of {} offered",
                f.flow, f.delivered_packets, f.offered_packets
            ));
        }
    }
    let per_node: f64 = m.per_node_energy_j.iter().sum();
    if (per_node - m.energy_total_j).abs() > 1e-9 * m.energy_total_j.abs().max(1e-12) {
        return Some(format!(
            "per-node energy {per_node} J != total {} J",
            m.energy_total_j
        ));
    }
    None
}

/// Execute one run: set up `setup_reps` times (discarding all but the
/// last network), then run the last to its horizon, harvest and drop it.
/// Returns the subscriber the executed network carried, unless the build
/// was refused.
pub fn run_one<S: Subscriber>(
    spec: &RunSpec,
    setup_reps: u32,
    epoch: Instant,
    mut make_sub: impl FnMut() -> S,
) -> (RunRecord, Option<S>) {
    let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
    let reps = setup_reps.max(1);
    let (mut lower_ns, mut build_ns) = (0, 0);
    let mut last = None;
    for _ in 0..reps {
        // The previous repetition's network goes before the clock starts.
        drop(last.take());
        let t0 = Instant::now();
        let cfg = spec.lower();
        let t1 = Instant::now();
        let built = Network::try_with_subscriber(&cfg, make_sub());
        let t2 = Instant::now();
        lower_ns += ns(t0, t1);
        build_ns += ns(t1, t2);
        last = Some((built, [t0, t1, t2]));
    }
    let (built, [t0, t1, t2]) = last.expect("at least one repetition");

    let mut record = RunRecord {
        phases_ns: [0; 6],
        bounds_ns: [ns(epoch, t0), ns(epoch, t1), ns(epoch, t2), 0, 0, 0, 0],
        sim_s: 0.0,
        events: 0,
        fingerprint: 0,
        energy_j: 0.0,
        delivered_bits: 0.0,
        local_recoveries: 0,
        source_retransmissions: 0,
        failure: None,
    };
    record.phases_ns[LOWER] = lower_ns / u64::from(reps);
    record.phases_ns[BUILD] = build_ns / u64::from(reps);
    let (mut net, mut queue) = match built {
        Ok(pair) => pair,
        Err(e) => {
            record.failure = Some(format!("build refused: {e}"));
            return (record, None);
        }
    };

    let horizon = net.horizon();
    run_until(&mut net, &mut queue, horizon);
    let t3 = Instant::now();
    net.finalize(horizon);
    let t4 = Instant::now();
    // The library runner's harvest time: the drain time if every flow
    // completed, else the horizon.
    let now = if net.all_flows_completed() {
        queue.now().min(horizon)
    } else {
        horizon
    };
    let m = net.metrics(now);
    let t5 = Instant::now();
    record.events = queue.events_processed();
    let sub = net.into_subscriber();
    drop(queue);
    let t6 = Instant::now();

    for (i, t) in [t3, t4, t5, t6].into_iter().enumerate() {
        record.bounds_ns[3 + i] = ns(epoch, t);
    }
    for p in RUN_UNTIL..PHASES.len() {
        record.phases_ns[p] = record.bounds_ns[p + 1] - record.bounds_ns[p];
    }
    let mut fnv = Fnv64::default();
    fnv.write(
        serde_json::to_string(&m)
            .expect("metrics serialise")
            .as_bytes(),
    );
    record.fingerprint = fnv.finish();
    record.sim_s = m.duration_s;
    record.energy_j = m.energy_total_j;
    record.delivered_bits = m.delivered_bytes as f64 * 8.0;
    record.local_recoveries = m.local_recoveries;
    record.source_retransmissions = m.source_retransmissions;
    record.failure = conservation_failure(&m);
    (record, Some(sub))
}

/// Execute a run list once, back to back on this thread.
pub fn pass<S: Subscriber>(
    runs: &[RunSpec],
    setup_reps: u32,
    epoch: Instant,
    mut make_sub: impl FnMut() -> S,
) -> Vec<(RunRecord, Option<S>)> {
    runs.iter()
        .map(|spec| run_one(spec, setup_reps, epoch, &mut make_sub))
        .collect()
}

/// Host-time totals of one pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct PassWall {
    /// Seconds per phase, summed over the pass's runs.
    pub phases_s: [f64; 6],
}

impl PassWall {
    pub fn of<'a>(records: impl IntoIterator<Item = &'a RunRecord>) -> PassWall {
        let mut wall = PassWall::default();
        for r in records {
            for p in 0..PHASES.len() {
                wall.phases_s[p] += r.phases_ns[p] as f64 * 1e-9;
            }
        }
        wall
    }

    /// Σ (`lower` + `build`).
    pub fn setup_s(&self) -> f64 {
        self.phases_s[LOWER] + self.phases_s[BUILD]
    }

    /// Σ (`run_until` + `finalize` + `harvest` + `drop`).
    pub fn run_s(&self) -> f64 {
        self.phases_s[RUN_UNTIL..].iter().sum()
    }
}

/// The simulated results of a run list — identical in every pass of the
/// same binary and seed, so they are taken from one.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimTotals {
    pub runs: usize,
    pub sim_s: f64,
    pub events: u64,
    pub energy_j: f64,
    pub delivered_bits: f64,
    pub local_recoveries: u64,
    pub source_retransmissions: u64,
}

impl SimTotals {
    /// Totals over the executed runs that use `transport` (`None`: all).
    pub fn of<'a>(
        executed: impl IntoIterator<Item = (&'a RunSpec, &'a RunRecord)>,
        transport: Option<TransportKind>,
    ) -> SimTotals {
        let mut t = SimTotals::default();
        for (spec, r) in executed {
            if transport.is_some_and(|k| k != spec.transport) {
                continue;
            }
            t.runs += 1;
            t.sim_s += r.sim_s;
            t.events += r.events;
            t.energy_j += r.energy_j;
            t.delivered_bits += r.delivered_bits;
            t.local_recoveries += r.local_recoveries;
            t.source_retransmissions += r.source_retransmissions;
        }
        t
    }

    /// µJ per delivered bit — the paper's headline axis.
    pub fn energy_uj_per_bit(&self) -> f64 {
        ratio(self.energy_j * 1e6, self.delivered_bits)
    }

    /// Delivered kbit per simulated second (Fig. 9b's axis).
    pub fn goodput_kbps(&self) -> f64 {
        ratio(self.delivered_bits, self.sim_s) / 1000.0
    }
}

/// Fold of every run fingerprint, in run order: two commits agree on
/// `results_fnv` iff every simulated statistic of every run is identical.
pub fn results_fnv(records: &[RunRecord]) -> u64 {
    let mut fnv = Fnv64::default();
    for r in records {
        fnv.write_u64(r.fingerprint);
    }
    fnv.finish()
}
