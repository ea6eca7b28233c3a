//! Per-scenario reports: a netbench-style harvest of one run — flow
//! throughput timelines, queue-depth histograms, drop-cause and flood-cost
//! breakdowns, the alive curve and event totals — as deterministic JSON
//! plus rendered markdown.
//!
//! The split enforces the determinism contract from ARCHITECTURE.md
//! ("Event & telemetry layer"): [`ScenarioReport`] contains **only**
//! values that are a pure function of the scenario (CI diffs its JSON
//! byte-for-byte across runs), while wall-clock time accounting lives in
//! [`TimeBreakdown`], which is never serialized — [`render_markdown`]
//! prints it in a clearly host-dependent section.

use crate::config::{ConfigError, TransportKind};
use crate::metrics::Metrics;
use crate::scenario::Scenario;
use jtp_events::{
    AttemptBudget, BatteryDeath, Delivery, DropCause, DynamicsApplied, EnergyAdvert, EventCounters,
    FloodCause, FloodEnd, MobilityTick, MonitorUpdate, PacketDrop, PacketSend, SlotGrant,
    Subscriber, Subsystem, TimeAccountant,
};
use jtp_sim::SimTime;
use serde::Serialize;

/// Queue-depth histogram buckets: exact depths `0..=7`, then `8+`.
pub const QUEUE_DEPTH_BUCKETS: usize = 9;

/// Throughput-timeline resolution: windows per scenario duration.
pub const TIMELINE_WINDOWS: usize = 24;

/// Event subscriber that folds the stream into report raw material:
/// per-flow fresh-delivery times, queue depths at slot grants, per-cause
/// flood costs, plus an embedded [`EventCounters`]. Pure fold — it is a
/// function of the event stream only, so two runs of the same scenario
/// produce identical recorders.
#[derive(Clone, Debug, Default)]
pub struct ReportRecorder {
    counters: EventCounters,
    /// Fresh-delivery timestamps (seconds) per flow index.
    flow_times: Vec<Vec<f64>>,
    /// Fresh-delivery wire bytes per flow index.
    flow_bytes: Vec<u64>,
    /// Slots observed at each queue depth (last bucket = `8+`).
    queue_depth: [u64; QUEUE_DEPTH_BUCKETS],
    flood_count: [u64; FloodCause::ALL.len()],
    flood_views: [u64; FloodCause::ALL.len()],
    flood_sources: [u64; FloodCause::ALL.len()],
    flood_entries: [u64; FloodCause::ALL.len()],
}

impl ReportRecorder {
    /// A fresh recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The embedded event counters.
    pub fn counters(&self) -> &EventCounters {
        &self.counters
    }

    fn flow_slot(&mut self, flow: usize) {
        if self.flow_times.len() <= flow {
            self.flow_times.resize(flow + 1, Vec::new());
            self.flow_bytes.resize(flow + 1, 0);
        }
    }
}

impl Subscriber for ReportRecorder {
    fn on_slot(&mut self, now: SimTime, ev: &SlotGrant) {
        self.counters.on_slot(now, ev);
        let b = (ev.queue_depth as usize).min(QUEUE_DEPTH_BUCKETS - 1);
        self.queue_depth[b] += 1;
    }
    fn on_send(&mut self, now: SimTime, ev: &PacketSend) {
        self.counters.on_send(now, ev);
    }
    fn on_attempt_budget(&mut self, now: SimTime, ev: &AttemptBudget) {
        self.counters.on_attempt_budget(now, ev);
    }
    fn on_delivery(&mut self, now: SimTime, ev: &Delivery) {
        self.counters.on_delivery(now, ev);
        if ev.fresh {
            let f = ev.flow.0 as usize;
            self.flow_slot(f);
            self.flow_times[f].push(now.as_secs_f64());
            self.flow_bytes[f] += u64::from(ev.bytes);
        }
    }
    fn on_drop(&mut self, now: SimTime, ev: &PacketDrop) {
        self.counters.on_drop(now, ev);
    }
    fn on_monitor(&mut self, now: SimTime, ev: &MonitorUpdate) {
        self.counters.on_monitor(now, ev);
    }
    fn on_flood_end(&mut self, now: SimTime, ev: &FloodEnd) {
        self.counters.on_flood_end(now, ev);
        let c = ev.cause.index();
        self.flood_count[c] += 1;
        self.flood_views[c] += ev.views_refreshed;
        self.flood_sources[c] += ev.sources_repaired;
        self.flood_entries[c] += ev.entries_changed;
    }
    fn on_battery_death(&mut self, now: SimTime, ev: &BatteryDeath) {
        self.counters.on_battery_death(now, ev);
    }
    fn on_energy_advert(&mut self, now: SimTime, ev: &EnergyAdvert) {
        self.counters.on_energy_advert(now, ev);
    }
    fn on_dynamics(&mut self, now: SimTime, ev: &DynamicsApplied) {
        self.counters.on_dynamics(now, ev);
    }
    fn on_mobility(&mut self, now: SimTime, ev: &MobilityTick) {
        self.counters.on_mobility(now, ev);
    }
}

/// One flow's report row: headline numbers plus a fixed-resolution
/// throughput timeline (fresh deliveries per second in each of
/// [`TIMELINE_WINDOWS`] equal windows).
#[derive(Clone, Debug, Serialize)]
pub struct FlowReport {
    /// Flow id.
    pub flow: u16,
    /// Packets the workload offered.
    pub offered_packets: u32,
    /// Distinct packets delivered.
    pub delivered_packets: u64,
    /// Goodput over the flow's active time (kbit/s).
    pub goodput_kbps: f64,
    /// First fresh delivery (seconds), if any.
    pub first_delivery_s: Option<f64>,
    /// Last fresh delivery (seconds), if any.
    pub last_delivery_s: Option<f64>,
    /// Mean gap between consecutive fresh deliveries (seconds), if ≥ 2.
    pub mean_gap_s: Option<f64>,
    /// Largest gap between consecutive fresh deliveries (seconds) — the
    /// latency stall a reader scans for first.
    pub max_gap_s: Option<f64>,
    /// Whether the flow completed its offered load.
    pub completed: bool,
    /// `(window_end_s, deliveries_per_s)` over the scenario duration.
    pub throughput_pps: Vec<(f64, f64)>,
}

/// One queue-depth histogram bucket.
#[derive(Clone, Debug, Serialize)]
pub struct QueueDepthBucket {
    /// Bucket label (`"0"`…`"7"`, `"8+"`).
    pub depth: String,
    /// Owned slots observed at that transmit-queue depth.
    pub slots: u64,
}

/// Packets lost to one drop cause.
#[derive(Clone, Debug, Serialize)]
pub struct DropReport {
    /// Cause label (see [`DropCause::name`]).
    pub cause: String,
    /// Packets dropped.
    pub packets: u64,
}

/// Aggregate flood cost for one trigger cause.
#[derive(Clone, Debug, Serialize)]
pub struct FloodReport {
    /// Trigger label (see [`FloodCause::name`]).
    pub cause: String,
    /// Floods triggered.
    pub floods: u64,
    /// Node views refreshed.
    pub views_refreshed: u64,
    /// Source rows repaired or rebuilt.
    pub sources_repaired: u64,
    /// Distance entries whose value actually changed (exact dirt).
    pub entries_changed: u64,
}

/// Event-stream totals (the [`EventCounters`] fold, flattened for JSON).
#[derive(Clone, Debug, Serialize)]
pub struct EventTotals {
    /// TDMA slots processed.
    pub slots: u64,
    /// Slots whose owner transmitted.
    pub busy_slots: u64,
    /// Frames put on the air.
    pub sends: u64,
    /// Frames the channel lost.
    pub send_failures: u64,
    /// Data-packet endpoint arrivals (including duplicates).
    pub deliveries: u64,
    /// First-time arrivals.
    pub fresh_deliveries: u64,
    /// ARQ attempt budgets granted.
    pub attempt_budgets: u64,
    /// Rate-monitor samples.
    pub monitor_samples: u64,
    /// Battery deaths.
    pub battery_deaths: u64,
    /// Energy adverts fired.
    pub energy_adverts: u64,
    /// Dynamics actions applied.
    pub dynamics_applied: u64,
    /// Mobility ticks applied.
    pub mobility_ticks: u64,
    /// Packets dropped, all causes.
    pub total_drops: u64,
    /// Routing floods, all causes.
    pub total_floods: u64,
}

/// A per-scenario report. Every field is a pure function of the scenario
/// — serializing two runs of the same scenario yields byte-identical
/// JSON (CI's `release-gate` job asserts exactly that). Wall-clock
/// data deliberately has no field here; see [`TimeBreakdown`].
#[derive(Clone, Debug, Serialize)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Transport label (`"jtp"`, `"jnc"`, `"tcp"`, `"atp"`).
    pub transport: String,
    /// Master seed.
    pub seed: u64,
    /// Simulated duration (seconds).
    pub duration_s: f64,
    /// Distinct packets delivered.
    pub delivered_packets: u64,
    /// Packets offered across all flows.
    pub offered_packets: u64,
    /// Fraction of offered packets delivered.
    pub delivery_ratio: f64,
    /// Mean per-flow goodput (kbit/s).
    pub goodput_kbps: f64,
    /// Total energy spent (J).
    pub energy_total_j: f64,
    /// Energy per delivered bit (µJ/bit).
    pub energy_per_bit_uj: f64,
    /// First battery death (seconds), if any.
    pub first_death_s: Option<f64>,
    /// First network partition (seconds), if any.
    pub first_partition_s: Option<f64>,
    /// `(time_s, nodes_alive)` step curve.
    pub alive_curve: Vec<(f64, u32)>,
    /// Per-flow rows.
    pub flows: Vec<FlowReport>,
    /// Transmit-queue depth histogram.
    pub queue_depth: Vec<QueueDepthBucket>,
    /// Drop-cause breakdown.
    pub drops: Vec<DropReport>,
    /// Flood cost per trigger cause.
    pub floods: Vec<FloodReport>,
    /// Event-stream totals.
    pub events: EventTotals,
}

/// Wall-clock time accounting for one run. Host noise by definition —
/// kept out of [`ScenarioReport`] so deterministic JSON stays
/// deterministic; [`render_markdown`] prints it in its own section.
#[derive(Clone, Debug, Default)]
pub struct TimeBreakdown {
    /// Per-subsystem spans and wall time.
    pub time: TimeAccountant,
}

impl ReportRecorder {
    /// Assemble the deterministic report from this recorder plus the
    /// run's harvested [`Metrics`].
    pub fn into_report(
        self,
        scenario: &str,
        transport: TransportKind,
        seed: u64,
        m: &Metrics,
    ) -> ScenarioReport {
        let duration = m.duration_s;
        let mut flows = Vec::new();
        for fm in &m.flows {
            let f = fm.flow as usize;
            let times: &[f64] = self.flow_times.get(f).map(|v| v.as_slice()).unwrap_or(&[]);
            let mut mean_gap = None;
            let mut max_gap = None;
            if times.len() >= 2 {
                let span = times[times.len() - 1] - times[0];
                mean_gap = Some(span / (times.len() - 1) as f64);
                max_gap = times
                    .windows(2)
                    .map(|w| w[1] - w[0])
                    .fold(None, |acc: Option<f64>, g| {
                        Some(acc.map_or(g, |a| a.max(g)))
                    });
            }
            flows.push(FlowReport {
                flow: fm.flow,
                offered_packets: fm.offered_packets,
                delivered_packets: fm.delivered_packets,
                goodput_kbps: fm.goodput_kbps(),
                first_delivery_s: times.first().copied(),
                last_delivery_s: times.last().copied(),
                mean_gap_s: mean_gap,
                max_gap_s: max_gap,
                completed: fm.completed,
                throughput_pps: timeline(times, duration),
            });
        }
        let queue_depth = self
            .queue_depth
            .iter()
            .enumerate()
            .map(|(i, &slots)| QueueDepthBucket {
                depth: if i + 1 == QUEUE_DEPTH_BUCKETS {
                    format!("{i}+")
                } else {
                    format!("{i}")
                },
                slots,
            })
            .collect();
        let drops = DropCause::ALL
            .iter()
            .map(|&c| DropReport {
                cause: c.name().to_string(),
                packets: self.counters.drops[c.index()],
            })
            .collect();
        let floods = FloodCause::ALL
            .iter()
            .map(|&c| FloodReport {
                cause: c.name().to_string(),
                floods: self.flood_count[c.index()],
                views_refreshed: self.flood_views[c.index()],
                sources_repaired: self.flood_sources[c.index()],
                entries_changed: self.flood_entries[c.index()],
            })
            .collect();
        let c = &self.counters;
        ScenarioReport {
            scenario: scenario.to_string(),
            transport: transport_label(transport).to_string(),
            seed,
            duration_s: duration,
            delivered_packets: m.delivered_packets,
            offered_packets: m.flows.iter().map(|f| u64::from(f.offered_packets)).sum(),
            delivery_ratio: m.delivery_ratio(),
            goodput_kbps: m.avg_goodput_kbps(),
            energy_total_j: m.energy_total_j,
            energy_per_bit_uj: m.energy_per_bit_uj(),
            first_death_s: m.first_death_s,
            first_partition_s: m.first_partition_s,
            alive_curve: m.alive_curve.clone(),
            flows,
            queue_depth,
            drops,
            floods,
            events: EventTotals {
                slots: c.slots,
                busy_slots: c.busy_slots,
                sends: c.sends,
                send_failures: c.send_failures,
                deliveries: c.deliveries,
                fresh_deliveries: c.fresh_deliveries,
                attempt_budgets: c.attempt_budgets,
                monitor_samples: c.monitor_samples,
                battery_deaths: c.battery_deaths,
                energy_adverts: c.energy_adverts,
                dynamics_applied: c.dynamics_applied,
                mobility_ticks: c.mobility_ticks,
                total_drops: c.total_drops(),
                total_floods: c.total_floods(),
            },
        }
    }
}

/// Stable lowercase transport label for report keys.
pub fn transport_label(t: TransportKind) -> &'static str {
    match t {
        TransportKind::Jtp => "jtp",
        TransportKind::Jnc => "jnc",
        TransportKind::Tcp => "tcp",
        TransportKind::Atp => "atp",
        TransportKind::Cubic => "cubic",
        TransportKind::Bbr => "bbr",
    }
}

/// Bucket sorted delivery times into [`TIMELINE_WINDOWS`] equal windows
/// over `[0, duration]`, as `(window_end_s, deliveries_per_s)`.
fn timeline(times: &[f64], duration_s: f64) -> Vec<(f64, f64)> {
    if duration_s <= 0.0 {
        return Vec::new();
    }
    let w = duration_s / TIMELINE_WINDOWS as f64;
    let mut counts = [0u64; TIMELINE_WINDOWS];
    for &t in times {
        let i = ((t / w) as usize).min(TIMELINE_WINDOWS - 1);
        counts[i] += 1;
    }
    counts
        .iter()
        .enumerate()
        .map(|(i, &n)| ((i + 1) as f64 * w, n as f64 / w))
        .collect()
}

/// Run one catalog scenario under a full report stack and return the
/// deterministic report plus the (host-dependent) time breakdown, or the
/// [`ConfigError`] of a malformed scenario.
pub fn try_run_report(
    sc: &Scenario,
    transport: TransportKind,
) -> Result<(ScenarioReport, TimeBreakdown), ConfigError> {
    let cfg = sc.try_build(transport)?;
    let (m, (rec, time)) = crate::runner::try_run_subscribed(
        &cfg,
        (ReportRecorder::new(), TimeAccountant::default()),
    )?;
    let report = rec.into_report(&sc.name, transport, cfg.seed, &m);
    Ok((report, TimeBreakdown { time }))
}

/// Render a report (plus optional wall-clock accounting) as markdown.
///
/// Everything above the "Time accounting" section is deterministic; that
/// section is explicitly labelled host-dependent.
pub fn render_markdown(r: &ScenarioReport, time: Option<&TimeBreakdown>) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# Scenario report: {} ({})\n", r.scenario, r.transport);
    let _ = writeln!(out, "seed {}, {:.0} s simulated\n", r.seed, r.duration_s);
    let _ = writeln!(out, "## Summary\n");
    let _ = writeln!(out, "| metric | value |");
    let _ = writeln!(out, "|---|---|");
    let _ = writeln!(out, "| delivered packets | {} |", r.delivered_packets);
    let _ = writeln!(out, "| offered packets | {} |", r.offered_packets);
    let _ = writeln!(out, "| delivery ratio | {:.4} |", r.delivery_ratio);
    let _ = writeln!(out, "| goodput (kbit/s) | {:.3} |", r.goodput_kbps);
    let _ = writeln!(out, "| energy total (J) | {:.3} |", r.energy_total_j);
    let _ = writeln!(out, "| energy/bit (µJ) | {:.4} |", r.energy_per_bit_uj);
    if let Some(t) = r.first_death_s {
        let _ = writeln!(out, "| first battery death (s) | {t:.1} |");
    }
    if let Some(t) = r.first_partition_s {
        let _ = writeln!(out, "| first partition (s) | {t:.1} |");
    }
    let _ = writeln!(out, "\n## Flows\n");
    let _ = writeln!(
        out,
        "| flow | offered | delivered | goodput kbit/s | first s | last s | mean gap s | max gap s | done |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|");
    for f in &r.flows {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.3} | {} | {} | {} | {} | {} |",
            f.flow,
            f.offered_packets,
            f.delivered_packets,
            f.goodput_kbps,
            opt_s(f.first_delivery_s),
            opt_s(f.last_delivery_s),
            opt_s(f.mean_gap_s),
            opt_s(f.max_gap_s),
            if f.completed { "yes" } else { "no" },
        );
    }
    let _ = writeln!(
        out,
        "\n### Throughput timelines (deliveries/s per window)\n"
    );
    for f in &r.flows {
        let cells: Vec<String> = f
            .throughput_pps
            .iter()
            .map(|&(_, pps)| format!("{pps:.1}"))
            .collect();
        let _ = writeln!(out, "* flow {}: {}", f.flow, cells.join(" "));
    }
    let _ = writeln!(out, "\n## Queue depth at slot grants\n");
    let _ = writeln!(out, "| depth | slots |");
    let _ = writeln!(out, "|---|---|");
    for b in &r.queue_depth {
        let _ = writeln!(out, "| {} | {} |", b.depth, b.slots);
    }
    let _ = writeln!(out, "\n## Drops\n");
    let _ = writeln!(out, "| cause | packets |");
    let _ = writeln!(out, "|---|---|");
    for d in &r.drops {
        let _ = writeln!(out, "| {} | {} |", d.cause, d.packets);
    }
    let _ = writeln!(out, "\n## Floods\n");
    let _ = writeln!(
        out,
        "| cause | floods | views refreshed | sources repaired | entries changed |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|");
    for fl in &r.floods {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} |",
            fl.cause, fl.floods, fl.views_refreshed, fl.sources_repaired, fl.entries_changed,
        );
    }
    if !r.alive_curve.is_empty() {
        let _ = writeln!(out, "\n## Alive curve\n");
        let _ = writeln!(out, "| time s | nodes alive |");
        let _ = writeln!(out, "|---|---|");
        for &(t, n) in &r.alive_curve {
            let _ = writeln!(out, "| {t:.1} | {n} |");
        }
    }
    let e = &r.events;
    let _ = writeln!(out, "\n## Event totals\n");
    let _ = writeln!(out, "| counter | value |");
    let _ = writeln!(out, "|---|---|");
    for (k, v) in [
        ("slots", e.slots),
        ("busy slots", e.busy_slots),
        ("sends", e.sends),
        ("send failures", e.send_failures),
        ("deliveries", e.deliveries),
        ("fresh deliveries", e.fresh_deliveries),
        ("attempt budgets", e.attempt_budgets),
        ("monitor samples", e.monitor_samples),
        ("battery deaths", e.battery_deaths),
        ("energy adverts", e.energy_adverts),
        ("dynamics applied", e.dynamics_applied),
        ("mobility ticks", e.mobility_ticks),
        ("total drops", e.total_drops),
        ("total floods", e.total_floods),
    ] {
        let _ = writeln!(out, "| {k} | {v} |");
    }
    if let Some(tb) = time {
        let t = &tb.time;
        let _ = writeln!(
            out,
            "\n## Time accounting (wall clock — host-dependent, not diffed)\n"
        );
        let _ = writeln!(out, "| subsystem | spans | wall ms |");
        let _ = writeln!(out, "|---|---|---|");
        for &sys in &Subsystem::ALL {
            let _ = writeln!(
                out,
                "| {} | {} | {:.3} |",
                sys.name(),
                t.spans(sys),
                t.wall_ns(sys) as f64 / 1e6,
            );
        }
        let _ = writeln!(
            out,
            "\ndispatch total {:.3} ms (flood_plane / geometry_diff are nested \
             sub-spans of their dispatch bucket, not additive)",
            t.dispatch_wall_ns() as f64 / 1e6,
        );
    }
    out
}

fn opt_s(v: Option<f64>) -> String {
    v.map_or_else(|| "—".to_string(), |t| format!("{t:.2}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    fn small_scenario() -> Scenario {
        Scenario::catalog()
            .into_iter()
            .find(|s| s.battery.is_none() && s.mobile_mps.is_none())
            .expect("catalog has a static tally-only entry")
    }

    #[test]
    fn report_json_is_deterministic_across_runs() {
        let sc = small_scenario();
        let (a, _) = try_run_report(&sc, TransportKind::Jtp).expect("catalog lowers");
        let (b, _) = try_run_report(&sc, TransportKind::Jtp).expect("catalog lowers");
        let ja = serde_json::to_string(&a).expect("report serialises");
        let jb = serde_json::to_string(&b).expect("report serialises");
        assert_eq!(ja, jb, "report JSON must be byte-identical across runs");
        assert!(ja.contains("\"scenario\""));
    }

    #[test]
    fn report_agrees_with_metrics_and_renders() {
        let sc = small_scenario();
        let cfg = sc.try_build(TransportKind::Jtp).expect("catalog lowers");
        let m = crate::runner::run_experiment(&cfg);
        let (r, time) = try_run_report(&sc, TransportKind::Jtp).expect("catalog lowers");
        assert_eq!(r.delivered_packets, m.delivered_packets);
        assert_eq!(r.events.fresh_deliveries, m.delivered_packets);
        assert_eq!(r.flows.len(), m.flows.len());
        let slot_total: u64 = r.queue_depth.iter().map(|b| b.slots).sum();
        assert_eq!(slot_total, r.events.slots, "histogram covers every slot");
        let drop_total: u64 = r.drops.iter().map(|d| d.packets).sum();
        assert_eq!(drop_total, r.events.total_drops);
        let md = render_markdown(&r, Some(&time));
        assert!(md.contains("## Summary"));
        assert!(md.contains("## Floods"));
        assert!(md.contains("Time accounting"));
        // The deterministic half must not mention wall time.
        let md_plain = render_markdown(&r, None);
        assert!(!md_plain.contains("Time accounting"));
    }

    #[test]
    fn timeline_buckets_cover_the_duration() {
        let times = [0.1, 0.2, 5.0, 9.9];
        let tl = timeline(&times, 10.0);
        assert_eq!(tl.len(), TIMELINE_WINDOWS);
        let total: f64 = tl
            .iter()
            .map(|&(_, pps)| pps * (10.0 / TIMELINE_WINDOWS as f64))
            .sum();
        assert!((total - times.len() as f64).abs() < 1e-9);
        assert!((tl.last().unwrap().0 - 10.0).abs() < 1e-9);
    }
}
