//! Time-series instrumentation for the paper's trace figures.
//!
//! * reception timestamps per flow — Fig. 5 (short/long-term reception
//!   rate) and Fig. 8 top (instantaneous throughput),
//! * per-packet MAC attempt budgets at a chosen node — Fig. 3(c),
//! * path-monitor state at a chosen flow's receiver — Fig. 8 bottom
//!   (reported value, mean, control limits).

use jtp_events::{
    AttemptBudget, BatteryDeath, Delivery, DynamicsApplied, EnergyAdvert, FloodEnd, FloodStart,
    MobilityTick, MonitorUpdate, PacketDrop, PacketKind, PacketSend, SlotGrant, Subscriber,
};
use jtp_sim::{FlowId, NodeId, SimDuration, SimTime};

/// Streaming FNV-1a (64-bit) — the one hash behind both golden-digest
/// checksums ([`TraceLog::checksum`] and the metrics FNV in
/// `runner::try_run_digest_with`), so the algorithm and its constants live in
/// exactly one audited place.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// Fold bytes into the state.
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Fold one little-endian u64.
    pub fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// What to record.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceConfig {
    /// Record reception timestamps of every flow.
    pub receptions: bool,
    /// Record iJTP attempt budgets assigned at this node.
    pub attempts_at: Option<NodeId>,
    /// Record the rate monitor of this flow's receiver.
    pub monitor_of: Option<FlowId>,
}

/// One monitor sample (Fig. 8 bottom plots).
#[derive(Clone, Copy, Debug)]
pub struct MonitorSample {
    /// When the data packet arrived.
    pub at: SimTime,
    /// The rate reported in the packet header (min along path).
    pub reported: f64,
    /// Monitor mean x̄.
    pub mean: f64,
    /// Lower control limit.
    pub lcl: f64,
    /// Upper control limit.
    pub ucl: f64,
}

/// Collected traces.
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    /// (time, flow) for every fresh in-order-or-not delivery.
    pub receptions: Vec<(SimTime, FlowId)>,
    /// (time, attempts budget) at the traced node.
    pub attempts: Vec<(SimTime, u32)>,
    /// Monitor evolution of the traced flow.
    pub monitor: Vec<MonitorSample>,
}

impl TraceLog {
    /// Order-sensitive FNV-1a checksum of the full event stream
    /// (receptions, attempt budgets, monitor samples). Two runs with the
    /// same checksum recorded the same events at the same times in the
    /// same order — the backbone of the golden-trace regression layer.
    pub fn checksum(&self) -> u64 {
        let mut h = Fnv64::default();
        h.write_u64(self.receptions.len() as u64);
        for (t, f) in &self.receptions {
            h.write_u64(t.as_micros());
            h.write_u64(f.0 as u64);
        }
        h.write_u64(self.attempts.len() as u64);
        for (t, a) in &self.attempts {
            h.write_u64(t.as_micros());
            h.write_u64(*a as u64);
        }
        h.write_u64(self.monitor.len() as u64);
        for s in &self.monitor {
            h.write_u64(s.at.as_micros());
            h.write_u64(s.reported.to_bits());
            h.write_u64(s.mean.to_bits());
            h.write_u64(s.lcl.to_bits());
            h.write_u64(s.ucl.to_bits());
        }
        h.finish()
    }

    /// Windowed reception rate (packets/second) of `flow`, sampled every
    /// `step` over `[0, end]` with averaging window `window` — the
    /// post-processing behind Fig. 5 and Fig. 8 top plots.
    ///
    /// One pass over the log plus one pass over the sample grid: the
    /// flow's timestamps are collected once (and sorted, so hand-built
    /// logs work too — engine logs are already time-ordered) and the
    /// window `(t - window, t]` slides with two monotone cursors.
    pub fn reception_rate_series(
        &self,
        flow: FlowId,
        window: SimDuration,
        step: SimDuration,
        end: SimTime,
    ) -> Vec<(f64, f64)> {
        assert!(!window.is_zero() && !step.is_zero());
        let mut times: Vec<SimTime> = self
            .receptions
            .iter()
            .filter(|(_, f)| *f == flow)
            .map(|(t, _)| *t)
            .collect();
        times.sort_unstable();
        let mut out = Vec::new();
        let (mut lo, mut hi) = (0usize, 0usize);
        let mut t = SimTime::ZERO + window;
        while t <= end {
            let floor = t - window;
            // `hi` = first index with time > t; `lo` = first with time > floor.
            while hi < times.len() && times[hi] <= t {
                hi += 1;
            }
            while lo < hi && times[lo] <= floor {
                lo += 1;
            }
            out.push((t.as_secs_f64(), (hi - lo) as f64 / window.as_secs_f64()));
            t += step;
        }
        out
    }
}

/// The [`TraceConfig`]-filtered subscriber behind every traced run: it
/// folds the typed event stream back into the exact [`TraceLog`] the
/// bespoke plumbing used to produce, so golden-trace checksums are
/// unchanged by the event layer.
#[derive(Clone, Debug, Default)]
pub struct TraceSubscriber {
    cfg: TraceConfig,
    log: TraceLog,
}

impl TraceSubscriber {
    /// A subscriber recording per `cfg`.
    pub fn new(cfg: TraceConfig) -> Self {
        TraceSubscriber {
            cfg,
            log: TraceLog::default(),
        }
    }

    /// The log collected so far.
    pub fn log(&self) -> &TraceLog {
        &self.log
    }

    /// Consume the subscriber, keeping the log.
    pub fn into_log(self) -> TraceLog {
        self.log
    }
}

impl Subscriber for TraceSubscriber {
    fn on_attempt_budget(&mut self, now: SimTime, ev: &AttemptBudget) {
        if self.cfg.attempts_at == Some(ev.node) {
            self.log.attempts.push((now, ev.budget));
        }
    }

    fn on_delivery(&mut self, now: SimTime, ev: &Delivery) {
        if self.cfg.receptions && ev.fresh {
            self.log.receptions.push((now, ev.flow));
        }
    }

    fn on_monitor(&mut self, now: SimTime, ev: &MonitorUpdate) {
        if self.cfg.monitor_of == Some(ev.flow) {
            self.log.monitor.push(MonitorSample {
                at: now,
                reported: ev.reported,
                mean: ev.mean,
                lcl: ev.lcl,
                ucl: ev.ucl,
            });
        }
    }
}

/// Order-sensitive FNV-1a over the *entire* typed event stream — every
/// deterministic event, every field, in emission order. This is the third
/// golden surface next to `metrics_fnv` and [`TraceLog::checksum`]: the
/// reception trace only sees fresh deliveries, while this digest also pins
/// slot grants, sends, drops, floods, deaths, adverts, dynamics and
/// mobility ticks. Wall-clock subsystem spans are deliberately *not*
/// folded — they are host noise and must never reach a compared value.
///
/// Each handler folds a distinct type tag, the event time and every field
/// (times as microseconds, floats as IEEE bit patterns, enums by their
/// stable `index()`), so two equal checksums mean the same events fired at
/// the same times in the same order with the same payloads.
#[derive(Clone, Copy, Debug, Default)]
pub struct EventChecksum(Fnv64);

impl EventChecksum {
    /// The checksum over all events observed so far.
    pub fn finish(&self) -> u64 {
        self.0.finish()
    }

    fn tag(&mut self, tag: u64, now: SimTime) {
        self.0.write_u64(tag);
        self.0.write_u64(now.as_micros());
    }
}

impl Subscriber for EventChecksum {
    fn on_slot(&mut self, now: SimTime, ev: &SlotGrant) {
        self.tag(1, now);
        self.0.write_u64(ev.slot);
        self.0.write_u64(ev.owner.0 as u64);
        self.0.write_u64(ev.busy as u64);
        self.0.write_u64(ev.queue_depth as u64);
    }
    fn on_send(&mut self, now: SimTime, ev: &PacketSend) {
        self.tag(2, now);
        self.0.write_u64(ev.from.0 as u64);
        self.0.write_u64(ev.to.0 as u64);
        self.0.write_u64(matches!(ev.kind, PacketKind::Ack) as u64);
        self.0.write_u64(ev.bytes as u64);
        self.0.write_u64(ev.delivered as u64);
    }
    fn on_attempt_budget(&mut self, now: SimTime, ev: &AttemptBudget) {
        self.tag(3, now);
        self.0.write_u64(ev.node.0 as u64);
        self.0.write_u64(ev.budget as u64);
    }
    fn on_delivery(&mut self, now: SimTime, ev: &Delivery) {
        self.tag(4, now);
        self.0.write_u64(ev.flow.0 as u64);
        self.0.write_u64(ev.node.0 as u64);
        self.0.write_u64(ev.bytes as u64);
        self.0.write_u64(ev.fresh as u64);
    }
    fn on_drop(&mut self, now: SimTime, ev: &PacketDrop) {
        self.tag(5, now);
        self.0.write_u64(ev.node.0 as u64);
        self.0.write_u64(ev.cause.index() as u64);
        self.0.write_u64(ev.packets);
    }
    fn on_monitor(&mut self, now: SimTime, ev: &MonitorUpdate) {
        self.tag(6, now);
        self.0.write_u64(ev.flow.0 as u64);
        self.0.write_u64(ev.reported.to_bits());
        self.0.write_u64(ev.mean.to_bits());
        self.0.write_u64(ev.lcl.to_bits());
        self.0.write_u64(ev.ucl.to_bits());
    }
    fn on_flood_start(&mut self, now: SimTime, ev: &FloodStart) {
        self.tag(7, now);
        self.0.write_u64(ev.cause.index() as u64);
    }
    fn on_flood_end(&mut self, now: SimTime, ev: &FloodEnd) {
        self.tag(8, now);
        self.0.write_u64(ev.cause.index() as u64);
        self.0.write_u64(ev.views_refreshed);
        self.0.write_u64(ev.sources_repaired);
        self.0.write_u64(ev.entries_changed);
    }
    fn on_battery_death(&mut self, now: SimTime, ev: &BatteryDeath) {
        self.tag(9, now);
        self.0.write_u64(ev.node.0 as u64);
        self.0.write_u64(ev.alive as u64);
    }
    fn on_energy_advert(&mut self, now: SimTime, ev: &EnergyAdvert) {
        self.tag(10, now);
        self.0.write_u64(ev.changed as u64);
    }
    fn on_dynamics(&mut self, now: SimTime, ev: &DynamicsApplied) {
        self.tag(11, now);
        self.0.write_u64(ev.index as u64);
    }
    fn on_mobility(&mut self, now: SimTime, ev: &MobilityTick) {
        self.tag(12, now);
        self.0.write_u64(ev.changed_edges as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_checksum_is_order_content_and_type_sensitive() {
        let t = SimTime::from_millis(10);
        let send = PacketSend {
            from: NodeId(1),
            to: NodeId(2),
            kind: PacketKind::Data,
            bytes: 840,
            delivered: true,
        };
        let drop = PacketDrop {
            node: NodeId(2),
            cause: jtp_events::DropCause::Queue,
            packets: 1,
        };
        let mut a = EventChecksum::default();
        a.on_send(t, &send);
        a.on_drop(t, &drop);
        let mut b = EventChecksum::default();
        b.on_drop(t, &drop);
        b.on_send(t, &send);
        assert_ne!(a.finish(), b.finish(), "order must matter");
        let mut c = EventChecksum::default();
        c.on_send(t, &send);
        c.on_drop(t, &drop);
        assert_eq!(a.finish(), c.finish(), "same stream, same checksum");
        let mut d = EventChecksum::default();
        d.on_send(
            t,
            &PacketSend {
                delivered: false,
                ..send
            },
        );
        d.on_drop(t, &drop);
        assert_ne!(a.finish(), d.finish(), "fields must matter");
        let mut e = EventChecksum::default();
        e.on_send(SimTime::from_millis(11), &send);
        e.on_drop(t, &drop);
        assert_ne!(a.finish(), e.finish(), "event times must matter");
        assert_ne!(
            EventChecksum::default().finish(),
            a.finish(),
            "content must matter"
        );
    }

    #[test]
    fn rate_series_counts_window() {
        let mut log = TraceLog::default();
        // 2 packets per second for 10 s on flow 1.
        for i in 0..20 {
            log.receptions
                .push((SimTime::from_millis(i * 500 + 1), FlowId(1)));
        }
        // Noise on flow 2.
        log.receptions.push((SimTime::from_millis(100), FlowId(2)));
        let series = log.reception_rate_series(
            FlowId(1),
            SimDuration::from_secs(2),
            SimDuration::from_secs(1),
            SimTime::from_secs_f64(10.0),
        );
        // In steady state the rate reads 2 pps.
        let mid = series
            .iter()
            .find(|(t, _)| (*t - 5.0).abs() < 1e-9)
            .unwrap();
        assert!((mid.1 - 2.0).abs() < 0.51, "rate = {}", mid.1);
    }

    #[test]
    fn checksum_is_order_and_content_sensitive() {
        let mut a = TraceLog::default();
        a.receptions.push((SimTime::from_millis(10), FlowId(0)));
        a.receptions.push((SimTime::from_millis(20), FlowId(1)));
        let mut b = TraceLog::default();
        b.receptions.push((SimTime::from_millis(20), FlowId(1)));
        b.receptions.push((SimTime::from_millis(10), FlowId(0)));
        assert_ne!(a.checksum(), b.checksum(), "order must matter");
        let mut c = TraceLog::default();
        c.receptions.push((SimTime::from_millis(10), FlowId(0)));
        c.receptions.push((SimTime::from_millis(20), FlowId(1)));
        assert_eq!(a.checksum(), c.checksum(), "same stream, same checksum");
        assert_ne!(
            TraceLog::default().checksum(),
            a.checksum(),
            "content must matter"
        );
        let mut d = a.clone();
        d.attempts.push((SimTime::from_millis(5), 3));
        assert_ne!(a.checksum(), d.checksum(), "attempts feed the checksum");
    }

    #[test]
    fn rate_series_matches_naive_rescan() {
        // Pin the sliding-window rewrite against the quadratic original,
        // including unsorted logs and step/window mismatches.
        let naive = |log: &TraceLog, flow: FlowId, window: SimDuration, step: SimDuration, end| {
            let times: Vec<SimTime> = log
                .receptions
                .iter()
                .filter(|(_, f)| *f == flow)
                .map(|(t, _)| *t)
                .collect();
            let mut out = Vec::new();
            let mut t = SimTime::ZERO + window;
            while t <= end {
                let lo = t - window;
                let count = times.iter().filter(|&&x| x > lo && x <= t).count();
                out.push((t.as_secs_f64(), count as f64 / window.as_secs_f64()));
                t += step;
            }
            out
        };
        let mut log = TraceLog::default();
        let mut x = 9u64;
        for _ in 0..400 {
            // Cheap xorshift scatter; out-of-order on purpose.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            log.receptions
                .push((SimTime::from_millis(x % 30_000), FlowId((x % 3) as u16)));
        }
        for (window_ms, step_ms) in [(1000, 1000), (2500, 400), (400, 2500), (7, 13)] {
            let window = SimDuration::from_millis(window_ms);
            let step = SimDuration::from_millis(step_ms);
            let end = SimTime::from_secs_f64(31.0);
            for flow in [FlowId(0), FlowId(1), FlowId(2), FlowId(9)] {
                assert_eq!(
                    log.reception_rate_series(flow, window, step, end),
                    naive(&log, flow, window, step, end),
                    "flow {flow:?} window {window_ms} step {step_ms}"
                );
            }
        }
    }

    #[test]
    fn trace_subscriber_filters_like_the_old_plumbing() {
        use jtp_events::{AttemptBudget, Delivery, MonitorUpdate};
        let cfg = TraceConfig {
            receptions: true,
            attempts_at: Some(NodeId(2)),
            monitor_of: Some(FlowId(1)),
        };
        let mut sub = TraceSubscriber::new(cfg);
        let t = SimTime::from_millis(10);
        sub.on_delivery(
            t,
            &Delivery {
                flow: FlowId(1),
                node: NodeId(5),
                bytes: 64,
                fresh: true,
            },
        );
        sub.on_delivery(
            t,
            &Delivery {
                flow: FlowId(1),
                node: NodeId(5),
                bytes: 64,
                fresh: false,
            },
        );
        sub.on_attempt_budget(
            t,
            &AttemptBudget {
                node: NodeId(2),
                budget: 3,
            },
        );
        sub.on_attempt_budget(
            t,
            &AttemptBudget {
                node: NodeId(3),
                budget: 9,
            },
        );
        let mon = MonitorUpdate {
            flow: FlowId(1),
            reported: 2.0,
            mean: 1.5,
            lcl: 1.0,
            ucl: 2.0,
        };
        sub.on_monitor(t, &mon);
        sub.on_monitor(
            t,
            &MonitorUpdate {
                flow: FlowId(0),
                ..mon
            },
        );
        let log = sub.into_log();
        assert_eq!(
            log.receptions,
            vec![(t, FlowId(1))],
            "duplicates are not receptions"
        );
        assert_eq!(log.attempts, vec![(t, 3)], "only the traced node");
        assert_eq!(log.monitor.len(), 1, "only the traced flow");
        assert_eq!(log.monitor[0].mean, 1.5);
    }

    #[test]
    fn empty_flow_rates_are_zero() {
        let log = TraceLog::default();
        let series = log.reception_rate_series(
            FlowId(1),
            SimDuration::from_secs(1),
            SimDuration::from_secs(1),
            SimTime::from_secs_f64(3.0),
        );
        assert!(series.iter().all(|(_, r)| *r == 0.0));
        assert_eq!(series.len(), 3);
    }
}
