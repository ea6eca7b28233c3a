//! The metrics the ledger declares — the same names, units and directions
//! as `BENCHMARK.json` (a test compares the two) — and how each value is
//! derived from what the harness measured. The README has the glossary.

use crate::harness::{PassWall, RunRecord, SimTotals, PHASES, RUN_UNTIL};
use crate::spans::SpanLog;
use crate::stats::{median, quartiles, ratio, Quartiles};
use crate::workloads::{transport_name, RunSpec, Workload, TRANSPORTS};
use jtp_events::{EventCounters, FloodCause, Subsystem, TimeAccountant};
use jtp_netsim::TransportKind;

/// One end-to-end metric: `(name, unit, better, bound)`, where `bound` is
/// the share of the parent's median by which it may get worse.
///
/// The driver takes each metric's spread over ten different `--seed`
/// values, so a bound has to cover how much the *inputs* move the metric,
/// not only host noise; each is at least three times the widest spread
/// measured on any workload (README, "Bounds").
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("sim_s_per_wall_s", "sim_s/s", "higher", 0.12),
    ("setup_s", "s", "lower", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("energy_uj_per_bit", "uJ/bit", "lower", 0.15),
    ("goodput_kbps", "kbit/s", "higher", 0.15),
];

/// One per-layer metric: `(name, unit, better)`. The prefix is the crate
/// the number belongs to.
pub const PER_LAYER: [(&str, &str, &str); 74] = [
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.ns_per_event", "ns", "lower"),
    ("sim.loop_share", "share", "lower"),
    ("sim.queue_hold48_ns", "ns", "lower"),
    ("sim.queue_hold4096_ns", "ns", "lower"),
    ("events.emitted", "count", "lower"),
    ("events.trace_overhead_pct", "%", "lower"),
    ("phys.gilbert_loss_prob_ns", "ns", "lower"),
    ("phys.spatial_pairs_us", "us", "lower"),
    ("mac.slots", "count", "lower"),
    ("mac.busy_slots", "count", "lower"),
    ("mac.busy_share", "share", "higher"),
    ("mac.sends", "count", "lower"),
    ("mac.send_failures", "count", "lower"),
    ("mac.attempts_per_delivery", "ratio", "lower"),
    ("mac.frame_cycle_ns", "ns", "lower"),
    ("mac.schedule_owner_ns", "ns", "lower"),
    ("routing.floods", "count", "lower"),
    ("routing.floods_dynamics", "count", "lower"),
    ("routing.floods_battery", "count", "lower"),
    ("routing.floods_advert", "count", "lower"),
    ("routing.floods_mobility", "count", "lower"),
    ("routing.sources_repaired", "count", "lower"),
    ("routing.views_refreshed", "count", "lower"),
    ("routing.entries_changed", "count", "lower"),
    ("routing.flood_plane_s", "s", "lower"),
    ("routing.flood_plane_share", "share", "lower"),
    ("routing.us_per_flood", "us", "lower"),
    ("routing.us_per_source_repaired", "us", "lower"),
    ("routing.exact_next_hop_ns", "ns", "lower"),
    ("routing.hier_next_hop_ns", "ns", "lower"),
    ("routing.exact_init_ms", "ms", "lower"),
    ("routing.hier_init_ms", "ms", "lower"),
    ("routing.exact_advert_repair_us", "us", "lower"),
    ("routing.hier_churn_repair_us", "us", "lower"),
    ("core.jtp_sim_s_per_wall_s", "sim_s/s", "higher"),
    ("core.jnc_sim_s_per_wall_s", "sim_s/s", "higher"),
    ("baselines.atp_sim_s_per_wall_s", "sim_s/s", "higher"),
    ("baselines.tcp_sim_s_per_wall_s", "sim_s/s", "higher"),
    ("baselines.cubic_sim_s_per_wall_s", "sim_s/s", "higher"),
    ("baselines.bbr_sim_s_per_wall_s", "sim_s/s", "higher"),
    ("core.jtp_events_per_sim_s", "1/sim_s", "lower"),
    ("core.jnc_events_per_sim_s", "1/sim_s", "lower"),
    ("baselines.atp_events_per_sim_s", "1/sim_s", "lower"),
    ("baselines.tcp_events_per_sim_s", "1/sim_s", "lower"),
    ("baselines.cubic_events_per_sim_s", "1/sim_s", "lower"),
    ("baselines.bbr_events_per_sim_s", "1/sim_s", "lower"),
    ("core.cache_cost_ratio", "ratio", "lower"),
    ("core.local_recoveries", "count", "higher"),
    ("core.source_retransmissions", "count", "lower"),
    ("core.energy_margin", "ratio", "higher"),
    ("netsim.lower_s", "s", "lower"),
    ("netsim.build_s", "s", "lower"),
    ("netsim.run_until_s", "s", "lower"),
    ("netsim.finalize_s", "s", "lower"),
    ("netsim.harvest_s", "s", "lower"),
    ("netsim.drop_s", "s", "lower"),
    ("netsim.slot_plane_s", "s", "lower"),
    ("netsim.slot_plane_share", "share", "lower"),
    ("netsim.ns_per_slot", "ns", "lower"),
    ("netsim.ns_per_busy_slot", "ns", "lower"),
    ("netsim.timers_s", "s", "lower"),
    ("netsim.timers_share", "share", "lower"),
    ("netsim.dynamics_s", "s", "lower"),
    ("netsim.energy_advert_s", "s", "lower"),
    ("netsim.mobility_s", "s", "lower"),
    ("netsim.geometry_diff_s", "s", "lower"),
    ("netsim.geometry_diff_share", "share", "lower"),
    ("netsim.build_rss_kb_per_node", "kB", "lower"),
    ("netsim.place_ms", "ms", "lower"),
    ("netsim.adjacency_ms", "ms", "lower"),
    ("netsim.geometry_edge_diff_us", "us", "lower"),
    ("netsim.truth_patch_us", "us", "lower"),
];

/// Named values, in emission order.
pub type Values = Vec<(String, f64)>;

/// What the untraced, measured passes of one invocation produced.
#[derive(Clone, Debug)]
pub struct Measured {
    /// Host-time totals, one per measured pass.
    pub passes: Vec<PassWall>,
    /// Run records of the last measured pass (their simulated results are
    /// the same in every pass; their per-run walls feed the per-transport
    /// rows).
    pub records: Vec<RunRecord>,
    /// `VmHWM` after the measured passes, in kB.
    pub vm_hwm_kb: u64,
}

impl Measured {
    /// Simulated seconds per second of run wall, one value per pass.
    pub fn sim_s_per_wall_s(&self) -> Quartiles {
        let sim_s: f64 = self.records.iter().map(|r| r.sim_s).sum();
        let per_pass: Vec<f64> = self
            .passes
            .iter()
            .map(|p| ratio(sim_s, p.run_s()))
            .collect();
        quartiles(&per_pass)
    }

    /// Set-up seconds, one value per pass.
    pub fn setup_s(&self) -> Quartiles {
        let per_pass: Vec<f64> = self.passes.iter().map(PassWall::setup_s).collect();
        quartiles(&per_pass)
    }
}

/// The five end-to-end metrics of a workload.
pub fn end_to_end(workload: &Workload, measured: &Measured) -> Values {
    let executed = workload.runs.iter().zip(&measured.records);
    let jtp = SimTotals::of(executed, Some(TransportKind::Jtp));
    let values = [
        measured.sim_s_per_wall_s().median,
        measured.setup_s().median,
        measured.vm_hwm_kb as f64 / 1024.0,
        jtp.energy_uj_per_bit(),
        jtp.goodput_kbps(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|((name, ..), v)| (name.to_string(), v))
        .collect()
}

/// What the traced pass of one invocation produced, summed over runs.
#[derive(Clone, Debug, Default)]
pub struct Traced {
    pub counters: EventCounters,
    pub time: TimeAccountant,
    pub emitted: u64,
    pub wall: PassWall,
    pub spans: SpanLog,
}

impl Traced {
    /// Fold in the fields of one run's counters that the ledger reports
    /// (`EventCounters` has no merge of its own).
    pub fn add_counters(&mut self, c: &EventCounters) {
        let t = &mut self.counters;
        t.slots += c.slots;
        t.busy_slots += c.busy_slots;
        t.sends += c.sends;
        t.send_failures += c.send_failures;
        t.deliveries += c.deliveries;
        t.fresh_deliveries += c.fresh_deliveries;
        for (total, n) in t.floods.iter_mut().zip(c.floods) {
            *total += n;
        }
        t.views_refreshed += c.views_refreshed;
        t.sources_repaired += c.sources_repaired;
        t.entries_changed += c.entries_changed;
    }
}

/// A run and what executing it (untraced) produced.
type Executed<'a> = (&'a RunSpec, &'a RunRecord);

/// Per-transport simulated totals and run wall.
struct TransportRow {
    totals: SimTotals,
    run_wall_s: f64,
}

fn transport_row(executed: &[Executed], kind: TransportKind) -> TransportRow {
    let run_wall_ns: u64 = executed
        .iter()
        .filter(|(spec, _)| spec.transport == kind)
        .map(|(_, r)| r.phases_ns[RUN_UNTIL..].iter().sum::<u64>())
        .sum();
    TransportRow {
        totals: SimTotals::of(executed.iter().copied(), Some(kind)),
        run_wall_s: run_wall_ns as f64 * 1e-9,
    }
}

/// Every per-layer metric of a workload except the micro rows, which the
/// caller appends. `layer_records` are the records of one untraced
/// execution of `workload.layer_runs`.
pub fn per_layer(
    workload: &Workload,
    measured: &Measured,
    layer_records: &[RunRecord],
    traced: &Traced,
    build_rss_kb_per_node: f64,
) -> Values {
    let mut out: Values = Vec::new();
    let mut put = |name: &str, v: f64| out.push((name.to_string(), v));

    // sim: the event loop, from the untraced passes and the exact count.
    let all = SimTotals::of(workload.runs.iter().zip(&measured.records), None);
    let run_until_s = median(
        &measured
            .passes
            .iter()
            .map(|p| p.phases_s[RUN_UNTIL])
            .collect::<Vec<_>>(),
    );
    put("sim.events", all.events as f64);
    put("sim.events_per_s", ratio(all.events as f64, run_until_s));
    put(
        "sim.ns_per_event",
        ratio(run_until_s * 1e9, all.events as f64),
    );
    let traced_run_until_s = traced.wall.phases_s[RUN_UNTIL];
    let share = |ns: u64| ratio(ns as f64 * 1e-9, traced_run_until_s);
    put("sim.loop_share", traced.spans.run_until_self_share());

    // events: what tracing costs.
    put("events.emitted", traced.emitted as f64);
    let untraced_run_s = median(
        &measured
            .passes
            .iter()
            .map(PassWall::run_s)
            .collect::<Vec<_>>(),
    );
    put(
        "events.trace_overhead_pct",
        (ratio(traced.wall.run_s(), untraced_run_s) - 1.0) * 100.0,
    );

    // mac: exact counts from the traced pass.
    let c = &traced.counters;
    put("mac.slots", c.slots as f64);
    put("mac.busy_slots", c.busy_slots as f64);
    put("mac.busy_share", ratio(c.busy_slots as f64, c.slots as f64));
    put("mac.sends", c.sends as f64);
    put("mac.send_failures", c.send_failures as f64);
    put(
        "mac.attempts_per_delivery",
        ratio(c.sends as f64, c.fresh_deliveries as f64),
    );

    // routing: the flood plane.
    let floods = c.total_floods();
    let flood_ns = traced.time.wall_ns(Subsystem::FloodPlane);
    put("routing.floods", floods as f64);
    for (cause, name) in [
        (FloodCause::Dynamics, "routing.floods_dynamics"),
        (FloodCause::BatteryDeath, "routing.floods_battery"),
        (FloodCause::EnergyAdvert, "routing.floods_advert"),
        (FloodCause::Mobility, "routing.floods_mobility"),
    ] {
        put(name, c.floods[cause.index()] as f64);
    }
    put("routing.sources_repaired", c.sources_repaired as f64);
    put("routing.views_refreshed", c.views_refreshed as f64);
    put("routing.entries_changed", c.entries_changed as f64);
    put("routing.flood_plane_s", flood_ns as f64 * 1e-9);
    put("routing.flood_plane_share", share(flood_ns));
    put(
        "routing.us_per_flood",
        ratio(flood_ns as f64 * 1e-3, floods as f64),
    );
    put(
        "routing.us_per_source_repaired",
        ratio(flood_ns as f64 * 1e-3, c.sources_repaired as f64),
    );

    // core / baselines: one row per transport the workload runs, in its
    // measured list or its layer-only list (0 for a transport in neither).
    let executed: Vec<Executed> = workload
        .runs
        .iter()
        .zip(&measured.records)
        .chain(workload.layer_runs.iter().zip(layer_records))
        .collect();
    let rows: Vec<(TransportKind, TransportRow)> = TRANSPORTS
        .into_iter()
        .map(|k| (k, transport_row(&executed, k)))
        .collect();
    let prefix = |k: TransportKind| match k {
        TransportKind::Jtp | TransportKind::Jnc => "core",
        _ => "baselines",
    };
    for (k, row) in &rows {
        put(
            &format!("{}.{}_sim_s_per_wall_s", prefix(*k), transport_name(*k)),
            ratio(row.totals.sim_s, row.run_wall_s),
        );
    }
    for (k, row) in &rows {
        put(
            &format!("{}.{}_events_per_sim_s", prefix(*k), transport_name(*k)),
            ratio(row.totals.events as f64, row.totals.sim_s),
        );
    }
    let (jtp, jnc) = (&rows[0].1, &rows[1].1);
    put(
        "core.cache_cost_ratio",
        ratio(jtp.run_wall_s, jnc.run_wall_s),
    );
    put("core.local_recoveries", all.local_recoveries as f64);
    put(
        "core.source_retransmissions",
        all.source_retransmissions as f64,
    );
    let best_opponent = rows[2..]
        .iter()
        .filter(|(_, row)| row.totals.runs > 0)
        .map(|(_, row)| row.totals.energy_uj_per_bit())
        .fold(f64::INFINITY, f64::min);
    put(
        "core.energy_margin",
        if best_opponent.is_finite() {
            ratio(best_opponent, jtp.totals.energy_uj_per_bit())
        } else {
            0.0
        },
    );

    // netsim: phase walls (untraced medians), dispatch buckets (traced).
    for (p, phase) in PHASES.into_iter().enumerate() {
        let per_pass: Vec<f64> = measured.passes.iter().map(|w| w.phases_s[p]).collect();
        put(&format!("netsim.{phase}_s"), median(&per_pass));
    }
    // Every subsystem but the flood plane (a routing row) is a netsim
    // bucket: `netsim.<subsystem>_s`.
    for sys in Subsystem::ALL {
        if sys != Subsystem::FloodPlane {
            put(
                &format!("netsim.{}_s", sys.name()),
                traced.time.wall_ns(sys) as f64 * 1e-9,
            );
        }
    }
    let slot_ns = traced.time.wall_ns(Subsystem::SlotPlane);
    put("netsim.slot_plane_share", share(slot_ns));
    put(
        "netsim.ns_per_slot",
        ratio(
            slot_ns as f64,
            traced.time.spans(Subsystem::SlotPlane) as f64,
        ),
    );
    put(
        "netsim.ns_per_busy_slot",
        ratio(slot_ns as f64, c.busy_slots as f64),
    );
    put(
        "netsim.timers_share",
        share(traced.time.wall_ns(Subsystem::Timers)),
    );
    put(
        "netsim.geometry_diff_share",
        share(traced.time.wall_ns(Subsystem::GeometryDiff)),
    );
    put("netsim.build_rss_kb_per_node", build_rss_kb_per_node);
    out
}

/// The Fig. 9 claim: JTP has the lowest µJ/bit **and** the highest goodput
/// of every transport among the executed runs, each aggregated over its
/// seeds. Returns what was violated.
pub fn fig9_shape_failure<'a>(
    executed: impl IntoIterator<Item = (&'a RunSpec, &'a RunRecord)> + Clone,
) -> Option<String> {
    let of = |k| SimTotals::of(executed.clone(), Some(k));
    let jtp = of(TransportKind::Jtp);
    for kind in &TRANSPORTS[1..] {
        let other = of(*kind);
        if other.runs == 0 {
            continue;
        }
        let name = transport_name(*kind);
        if jtp.energy_uj_per_bit() >= other.energy_uj_per_bit() {
            return Some(format!(
                "JTP spends {} uJ/bit, {name} only {}",
                jtp.energy_uj_per_bit(),
                other.energy_uj_per_bit()
            ));
        }
        if jtp.goodput_kbps() <= other.goodput_kbps() {
            return Some(format!(
                "JTP delivers {} kbit/s, {name} {}",
                jtp.goodput_kbps(),
                other.goodput_kbps()
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    /// The `"name": "…"` values inside the JSON array that follows `key`.
    /// `BENCHMARK.json` is scanned as text: the vendored `serde_json` has
    /// no parser.
    fn names_under(text: &str, key: &str) -> Vec<String> {
        let from = text.find(&format!("\"{key}\"")).expect("key present");
        let open = from + text[from..].find('[').expect("array opens");
        let close = open + text[open..].find(']').expect("array closes");
        text[open..close]
            .split("\"name\":")
            .skip(1)
            .map(|rest| {
                let rest = rest.trim_start().strip_prefix('"').expect("string value");
                rest[..rest.find('"').expect("string closes")].to_string()
            })
            .collect()
    }

    #[test]
    fn declared_names_are_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is declared twice");
        for (_, unit, better, bound) in END_TO_END {
            assert!(unit.len() <= 16 && ["higher", "lower"].contains(&better));
            assert!(bound > 0.0 && bound <= 0.25);
        }
        for (_, unit, better) in PER_LAYER {
            assert!(unit.len() <= 16 && ["higher", "lower"].contains(&better));
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let declared = |table: Vec<&str>| table.into_iter().map(String::from).collect::<Vec<_>>();
        assert_eq!(
            names_under(&text, "workloads"),
            declared(crate::workloads::NAMES.to_vec())
        );
        assert_eq!(
            names_under(&text, "end_to_end"),
            declared(END_TO_END.iter().map(|m| m.0).collect())
        );
        assert_eq!(
            names_under(&text, "per_layer"),
            declared(PER_LAYER.iter().map(|m| m.0).collect())
        );
        for (name, unit, better, bound) in END_TO_END {
            let line = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(text.contains(&line), "BENCHMARK.json lacks {line}");
        }
        for (name, unit, better) in PER_LAYER {
            let line =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(text.contains(&line), "BENCHMARK.json lacks {line}");
        }
    }
}
