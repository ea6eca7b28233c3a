//! The traced pass's span log: held in memory while the benchmark runs,
//! written as JSON lines at exit. The README explains how to read it.

use crate::harness::{RunRecord, PHASES, RUN_UNTIL};
use crate::json;
use crate::stats::ratio;
use jtp_events::{Subsystem, TimeAccountant};
use std::io::Write;

/// Wall time inside an aggregated span: every dispatch of one subsystem
/// during a `run_until`, folded by the library's `TimeAccountant`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
    /// Nested subsystems (`flood_plane`, `geometry_diff`) run inside a
    /// dispatch bucket that already counts their time, so — exactly as
    /// `TimeAccountant::dispatch_wall_ns` does — they are left out of
    /// the parent's self time.
    pub nested: bool,
}

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Index of the run in the workload's list.
    pub run: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub aggregate: Option<Aggregate>,
}

impl Span {
    /// Wall time the span covers: its interval, or for an aggregated span
    /// the time summed inside it.
    pub fn covered_ns(&self) -> u64 {
        match self.aggregate {
            Some(a) => a.total_ns,
            None => self.end_ns - self.start_ns,
        }
    }
}

#[derive(Clone, Debug, Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
}

impl SpanLog {
    fn push(
        &mut self,
        parent: Option<u64>,
        name: &'static str,
        run: usize,
        interval: (u64, u64),
        aggregate: Option<Aggregate>,
    ) -> u64 {
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            run,
            start_ns: interval.0,
            end_ns: interval.1,
            aggregate,
        });
        id
    }

    /// Record one executed run: a root span, one child per phase, and
    /// under `run_until` one aggregated child per subsystem.
    pub fn record_run(&mut self, run: usize, record: &RunRecord, time: &TimeAccountant) {
        let b = &record.bounds_ns;
        let root = self.push(None, "run", run, (b[0], b[6]), None);
        for (p, name) in PHASES.into_iter().enumerate() {
            let phase = self.push(Some(root), name, run, (b[p], b[p + 1]), None);
            if p != RUN_UNTIL {
                continue;
            }
            for sys in Subsystem::ALL {
                let aggregate = Aggregate {
                    count: time.spans(sys),
                    total_ns: time.wall_ns(sys),
                    nested: matches!(sys, Subsystem::FloodPlane | Subsystem::GeometryDiff),
                };
                self.push(
                    Some(phase),
                    sys.name(),
                    run,
                    (b[p], b[p + 1]),
                    Some(aggregate),
                );
            }
        }
    }

    /// A span's self time: what it covers minus what its non-nested
    /// children cover.
    pub fn self_time_ns(&self, id: u64) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id) && !s.aggregate.is_some_and(|a| a.nested))
            .map(Span::covered_ns)
            .sum();
        self.spans[id as usize]
            .covered_ns()
            .saturating_sub(children)
    }

    /// Share of the `run_until` spans that is their own time — event-queue
    /// pop/peek and the loop itself, as opposed to dispatch into a
    /// subsystem (`sim.loop_share`).
    pub fn run_until_self_share(&self) -> f64 {
        let (mut own, mut covered) = (0, 0);
        for s in self.spans.iter().filter(|s| s.name == PHASES[RUN_UNTIL]) {
            own += self.self_time_ns(s.id);
            covered += s.covered_ns();
        }
        ratio(own as f64, covered as f64)
    }

    /// Write the log as JSON lines, one span per line.
    pub fn write_jsonl(&self, path: &str, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let mut fields = vec![
                ("id", s.id.to_string()),
                (
                    "parent",
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                ),
                ("name", json::string(s.name)),
                ("workload", json::string(workload)),
                ("run", s.run.to_string()),
                ("start_ns", s.start_ns.to_string()),
                ("end_ns", s.end_ns.to_string()),
            ];
            if let Some(a) = s.aggregate {
                fields.push(("count", a.count.to_string()));
                fields.push(("total_ns", a.total_ns.to_string()));
                fields.push(("nested", a.nested.to_string()));
            }
            writeln!(out, "{}", json::object(&fields))?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jtp_events::Subscriber;

    fn record(bounds_ns: [u64; 7]) -> RunRecord {
        RunRecord {
            phases_ns: [0; 6],
            bounds_ns,
            sim_s: 1.0,
            events: 0,
            fingerprint: 0,
            energy_j: 0.0,
            delivered_bits: 0.0,
            local_recoveries: 0,
            source_retransmissions: 0,
            failure: None,
        }
    }

    #[test]
    fn self_time_subtracts_non_nested_children_only() {
        let mut time = TimeAccountant::default();
        time.on_subsystem_time(Subsystem::SlotPlane, 300);
        time.on_subsystem_time(Subsystem::SlotPlane, 100);
        time.on_subsystem_time(Subsystem::Timers, 150);
        // Nested inside the slot plane's 400 ns: must not be subtracted
        // a second time.
        time.on_subsystem_time(Subsystem::FloodPlane, 250);
        let mut log = SpanLog::default();
        log.record_run(0, &record([10, 20, 50, 1050, 1060, 1080, 1100]), &time);

        let root = &log.spans[0];
        assert_eq!((root.name, root.covered_ns()), ("run", 1090));
        // The phases tile the root exactly, so the root has no self time.
        assert_eq!(log.self_time_ns(0), 0);
        let phases: Vec<&Span> = log.spans.iter().filter(|s| s.parent == Some(0)).collect();
        assert_eq!(
            phases.iter().map(|s| s.name).collect::<Vec<_>>(),
            PHASES.to_vec()
        );
        assert_eq!(phases.iter().map(|s| s.covered_ns()).sum::<u64>(), 1090);

        let run_until = phases[RUN_UNTIL];
        assert_eq!(run_until.covered_ns(), 1000);
        // 1000 − (400 slot plane + 150 timers): the queue and loop.
        assert_eq!(log.self_time_ns(run_until.id), 450);
        assert_eq!(log.run_until_self_share(), 0.45);
        assert_eq!(time.dispatch_wall_ns(), 550);
        let slot = log
            .spans
            .iter()
            .find(|s| s.name == "slot_plane")
            .expect("slot plane span");
        assert_eq!(slot.parent, Some(run_until.id));
        assert_eq!(
            slot.aggregate,
            Some(Aggregate {
                count: 2,
                total_ns: 400,
                nested: false
            })
        );
        let flood = log
            .spans
            .iter()
            .find(|s| s.name == "flood_plane")
            .expect("flood plane span");
        assert!(flood.aggregate.expect("aggregated").nested);
    }
}
