//! ATP-like explicit-rate transport.
//!
//! Modelled on ATP (Sundaresan et al., MobiHoc 2003) as the paper's
//! representative of explicit rate-based transports: intermediate nodes
//! stamp the bottleneck rate into data headers; the receiver averages the
//! stamps and feeds the result back **at a constant rate** whose period
//! exceeds the RTT; recovery is **end-to-end only** (SACK-style holes in
//! the feedback, retransmitted from the source). The two deliberate
//! differences from JTP — constant-rate feedback and no in-network caching
//! — are exactly the costs the paper's comparison isolates.

use jtp::packet::{compress_ranges, SeqRange};
use jtp_sim::stats::Ewma;
use jtp_sim::{FlowId, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// ATP configuration.
#[derive(Clone, Debug)]
pub struct AtpConfig {
    /// Application payload bytes per packet.
    pub payload_bytes: u16,
    /// Constant feedback period (must exceed the RTT; the assembly sets it
    /// from the topology).
    pub feedback_period: SimDuration,
    /// Rate bounds (pps).
    pub min_rate_pps: f64,
    /// Upper rate bound.
    pub max_rate_pps: f64,
    /// EWMA weight for the receiver's rate aggregation.
    pub rate_alpha: f64,
    /// Fraction of a rate increase applied per epoch (ATP increases
    /// conservatively toward the advertised rate).
    pub increase_fraction: f64,
    /// Utilisation margin on the advertised rate (< 1): ATP's
    /// delay-derived rate targets less than full saturation.
    pub utilization: f64,
}

impl Default for AtpConfig {
    fn default() -> Self {
        AtpConfig {
            payload_bytes: 800,
            feedback_period: SimDuration::from_secs(3),
            min_rate_pps: 0.1,
            max_rate_pps: 50.0,
            rate_alpha: 0.3,
            increase_fraction: 0.3,
            utilization: 0.8,
        }
    }
}

/// Data header bytes (ATP rate field + transport header).
pub const ATP_HEADER_BYTES: usize = 32;
/// Bytes of an ATP feedback packet.
pub const ATP_FEEDBACK_BYTES: usize = 64;

/// An ATP data packet.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct AtpData {
    /// Flow id.
    pub flow: FlowId,
    /// Sequence number.
    pub seq: u32,
    /// Bottleneck rate stamped by intermediate nodes (pps); starts at
    /// `f32::MAX` and is min-stamped along the path.
    pub stamped_rate: f32,
    /// Payload bytes.
    pub payload_len: u16,
}

/// ATP receiver feedback.
#[derive(Clone, PartialEq, Debug)]
pub struct AtpFeedback {
    /// Flow id.
    pub flow: FlowId,
    /// Cumulative delivery point.
    pub cum_ack: u32,
    /// Missing sequences (end-to-end SACK holes).
    pub sack: Vec<SeqRange>,
    /// Advertised sending rate (pps): the aggregated path bottleneck.
    pub rate_pps: f32,
}

/// Sender statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct AtpSenderStats {
    /// First transmissions.
    pub fresh_sent: u64,
    /// End-to-end retransmissions.
    pub retransmissions: u64,
    /// Feedback packets processed.
    pub feedbacks_received: u64,
    /// Silent-feedback rate halvings.
    pub timeout_backoffs: u64,
}

/// The ATP source endpoint.
#[derive(Clone, Debug)]
pub struct AtpSender {
    flow: FlowId,
    cfg: AtpConfig,
    total: u32,
    next_seq: u32,
    cum_ack: u32,
    outstanding: BTreeMap<u32, ()>,
    rtx_queue: VecDeque<u32>,
    rate_pps: f64,
    next_send: SimTime,
    feedback_deadline: SimTime,
    stats: AtpSenderStats,
}

impl AtpSender {
    /// Create a source transferring `total` packets.
    pub fn new(flow: FlowId, total: u32, cfg: AtpConfig) -> Self {
        let deadline = SimTime::ZERO + cfg.feedback_period * 3;
        AtpSender {
            flow,
            total,
            next_seq: 0,
            cum_ack: 0,
            outstanding: BTreeMap::new(),
            rtx_queue: VecDeque::new(),
            rate_pps: 1.0,
            next_send: SimTime::ZERO,
            feedback_deadline: deadline,
            stats: AtpSenderStats::default(),
            cfg,
        }
    }

    /// The flow this sender feeds.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Current rate (pps).
    pub fn rate(&self) -> f64 {
        self.rate_pps
    }

    /// All packets cumulatively acknowledged?
    pub fn is_complete(&self) -> bool {
        self.cum_ack >= self.total
    }

    /// Counter snapshot.
    pub fn stats(&self) -> AtpSenderStats {
        self.stats
    }

    fn has_backlog(&self) -> bool {
        !self.rtx_queue.is_empty() || self.next_seq < self.total
    }

    /// Emit at most one packet if pacing allows.
    pub fn poll_send(&mut self, now: SimTime) -> Option<AtpData> {
        if now < self.next_send || !self.has_backlog() {
            return None;
        }
        let gap = SimDuration::from_secs_f64(1.0 / self.rate_pps.max(self.cfg.min_rate_pps));
        let seq = loop {
            match self.rtx_queue.pop_front() {
                Some(s) if s >= self.cum_ack => {
                    self.stats.retransmissions += 1;
                    break Some(s);
                }
                Some(_) => continue,
                None => break None,
            }
        }
        .or_else(|| {
            (self.next_seq < self.total).then(|| {
                let s = self.next_seq;
                self.next_seq += 1;
                self.stats.fresh_sent += 1;
                s
            })
        })?;
        self.outstanding.insert(seq, ());
        self.next_send = now + gap;
        Some(AtpData {
            flow: self.flow,
            seq,
            stamped_rate: f32::MAX,
            payload_len: self.cfg.payload_bytes,
        })
    }

    /// Next instant the sender needs attention.
    pub fn next_wakeup(&self) -> SimTime {
        if self.has_backlog() {
            self.next_send.min(self.feedback_deadline)
        } else {
            self.feedback_deadline
        }
    }

    /// Process receiver feedback: adopt the advertised rate (conservative
    /// increase, immediate decrease — ATP's rule) and queue SACK holes.
    pub fn on_feedback(&mut self, now: SimTime, fb: &AtpFeedback) {
        debug_assert_eq!(fb.flow, self.flow);
        self.stats.feedbacks_received += 1;
        let advertised = (fb.rate_pps as f64).clamp(self.cfg.min_rate_pps, self.cfg.max_rate_pps);
        if advertised >= self.rate_pps {
            self.rate_pps += (advertised - self.rate_pps) * self.cfg.increase_fraction;
        } else {
            self.rate_pps = advertised;
        }
        if fb.cum_ack > self.cum_ack {
            self.cum_ack = fb.cum_ack;
            let freed: Vec<u32> = self
                .outstanding
                .range(..fb.cum_ack)
                .map(|(&s, _)| s)
                .collect();
            for s in freed {
                self.outstanding.remove(&s);
            }
        }
        for s in fb.sack.iter().flat_map(|r| r.iter()) {
            if s >= self.cum_ack && !self.rtx_queue.contains(&s) {
                self.rtx_queue.push_back(s);
            }
        }
        self.feedback_deadline = now + self.cfg.feedback_period * 3;
    }

    /// Silent feedback channel: halve the rate (ATP epochs without
    /// feedback imply the path or the reverse path degraded).
    pub fn on_timer(&mut self, now: SimTime) {
        if now < self.feedback_deadline {
            return;
        }
        self.rate_pps = (self.rate_pps * 0.5).max(self.cfg.min_rate_pps);
        self.stats.timeout_backoffs += 1;
        self.feedback_deadline = now + self.cfg.feedback_period * 3;
    }
}

/// Receiver statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct AtpReceiverStats {
    /// Distinct packets delivered.
    pub delivered_packets: u64,
    /// Payload bytes delivered.
    pub delivered_bytes: u64,
    /// Duplicates discarded.
    pub duplicates: u64,
    /// Feedback packets emitted.
    pub feedbacks_sent: u64,
}

/// The ATP destination endpoint: constant-rate feedback.
#[derive(Clone, Debug)]
pub struct AtpReceiver {
    flow: FlowId,
    cfg: AtpConfig,
    prefix: u32,
    ooo: BTreeSet<u32>,
    highest_seen: Option<u32>,
    /// Gaps observed at the previous feedback: a gap is only SNACKed once
    /// it persists across two feedback rounds, so packets merely in flight
    /// are not retransmitted spuriously.
    missing_prev: BTreeSet<u32>,
    rate_estimate: Ewma,
    last_feedback: SimTime,
    /// Deliveries since the previous feedback (achieved-rate estimate).
    delivered_since_feedback: u64,
    stats: AtpReceiverStats,
}

impl AtpReceiver {
    /// Create the receiving endpoint.
    pub fn new(flow: FlowId, cfg: AtpConfig) -> Self {
        AtpReceiver {
            flow,
            rate_estimate: Ewma::new(cfg.rate_alpha),
            cfg,
            prefix: 0,
            ooo: BTreeSet::new(),
            highest_seen: None,
            missing_prev: BTreeSet::new(),
            last_feedback: SimTime::ZERO,
            delivered_since_feedback: 0,
            stats: AtpReceiverStats::default(),
        }
    }

    /// The flow this endpoint terminates.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Counter snapshot.
    pub fn stats(&self) -> AtpReceiverStats {
        self.stats
    }

    /// Cumulative delivery point.
    pub fn cum_ack(&self) -> u32 {
        self.prefix
    }

    /// Process a data packet (records the stamped bottleneck rate).
    pub fn on_data(&mut self, _now: SimTime, data: &AtpData) {
        debug_assert_eq!(data.flow, self.flow);
        self.highest_seen = Some(self.highest_seen.map_or(data.seq, |h| h.max(data.seq)));
        let fresh = data.seq >= self.prefix && self.ooo.insert(data.seq);
        if fresh {
            self.stats.delivered_packets += 1;
            self.stats.delivered_bytes += data.payload_len as u64;
            self.delivered_since_feedback += 1;
            while self.ooo.remove(&self.prefix) {
                self.prefix += 1;
            }
        } else {
            self.stats.duplicates += 1;
        }
        if data.stamped_rate.is_finite() {
            self.rate_estimate.update(data.stamped_rate as f64);
        }
    }

    /// The constant-rate feedback timer fired: build the feedback packet.
    /// A gap is reported only after persisting across two feedback rounds
    /// (anything younger may simply still be in flight — the feedback
    /// period exceeds the RTT by design).
    pub fn poll_feedback(&mut self, now: SimTime) -> AtpFeedback {
        let elapsed_since_prev = now.since(self.last_feedback).as_secs_f64();
        self.last_feedback = now;
        self.stats.feedbacks_sent += 1;
        let gaps: BTreeSet<u32> = match self.highest_seen {
            Some(high) => (self.prefix..=high)
                .filter(|s| !self.ooo.contains(s))
                .collect(),
            None => BTreeSet::new(),
        };
        let confirmed: Vec<u32> = gaps.intersection(&self.missing_prev).copied().collect();
        self.missing_prev = gaps;
        // ATP's advertised rate approximates the *achievable* rate: what
        // the path delivered this epoch plus the stamped residual
        // headroom (real ATP derives this from per-hop delays; residual
        // idle capacity is our TDMA equivalent).
        let achieved = if elapsed_since_prev > 0.0 {
            self.delivered_since_feedback as f64 / elapsed_since_prev
        } else {
            0.0
        };
        self.delivered_since_feedback = 0;
        let residual = self.rate_estimate.get_or(self.cfg.max_rate_pps);
        let advertised = ((achieved + residual) * self.cfg.utilization).min(self.cfg.max_rate_pps);
        AtpFeedback {
            flow: self.flow,
            cum_ack: self.prefix,
            sack: compress_ranges(&confirmed),
            rate_pps: advertised as f32,
        }
    }

    /// Next regular feedback instant.
    pub fn next_feedback_at(&self) -> SimTime {
        self.last_feedback + self.cfg.feedback_period
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AtpConfig {
        AtpConfig::default()
    }

    fn data(seq: u32, rate: f32) -> AtpData {
        AtpData {
            flow: FlowId(1),
            seq,
            stamped_rate: rate,
            payload_len: 800,
        }
    }

    #[test]
    fn sender_paces_fresh_data() {
        let mut s = AtpSender::new(FlowId(1), 5, cfg());
        assert_eq!(s.poll_send(SimTime::ZERO).unwrap().seq, 0);
        assert!(s.poll_send(SimTime::ZERO).is_none());
        assert_eq!(s.stats().fresh_sent, 1);
    }

    #[test]
    fn stamped_rate_starts_unbounded() {
        let mut s = AtpSender::new(FlowId(1), 1, cfg());
        let d = s.poll_send(SimTime::ZERO).unwrap();
        assert_eq!(d.stamped_rate, f32::MAX);
    }

    #[test]
    fn receiver_advertises_achieved_plus_residual() {
        let mut r = AtpReceiver::new(FlowId(1), cfg());
        // 20 packets over 10 s (2 pps achieved), residual stamp 4 pps.
        for s in 0..20u32 {
            r.on_data(SimTime::from_secs_f64(s as f64 * 0.5), &data(s, 4.0));
        }
        let fb = r.poll_feedback(SimTime::from_secs_f64(10.0));
        // (achieved 20/10 = 2 + residual EWMA ~4) x 0.8 utilisation ≈ 4.8.
        assert!(
            (fb.rate_pps - 4.8).abs() < 1.0,
            "advertised {} != (achieved+residual)*utilization",
            fb.rate_pps
        );
        assert_eq!(fb.cum_ack, 20);
        assert!(fb.sack.is_empty());
    }

    #[test]
    fn feedback_reports_gaps_after_confirmation() {
        let mut r = AtpReceiver::new(FlowId(1), cfg());
        for s in [0u32, 1, 3, 6] {
            r.on_data(SimTime::ZERO, &data(s, 4.0));
        }
        // First round: the gaps might still be in flight — not reported.
        let fb = r.poll_feedback(SimTime::from_secs_f64(3.0));
        assert_eq!(fb.cum_ack, 2);
        assert!(fb.sack.is_empty(), "unconfirmed gaps must not be SNACKed");
        // Second round: the same gaps persist — now reported.
        let fb = r.poll_feedback(SimTime::from_secs_f64(6.0));
        assert_eq!(
            fb.sack,
            vec![SeqRange::single(2), SeqRange { start: 4, end: 5 }]
        );
    }

    #[test]
    fn gap_filled_between_rounds_is_never_snacked() {
        let mut r = AtpReceiver::new(FlowId(1), cfg());
        r.on_data(SimTime::ZERO, &data(0, 4.0));
        r.on_data(SimTime::ZERO, &data(2, 4.0));
        r.poll_feedback(SimTime::from_secs_f64(3.0));
        // Seq 1 arrives late, before the second feedback.
        r.on_data(SimTime::from_secs_f64(4.0), &data(1, 4.0));
        let fb = r.poll_feedback(SimTime::from_secs_f64(6.0));
        assert!(fb.sack.is_empty());
        assert_eq!(fb.cum_ack, 3);
    }

    #[test]
    fn sender_adopts_rate_conservatively_up_immediately_down() {
        let mut s = AtpSender::new(FlowId(1), 100, cfg());
        let up = AtpFeedback {
            flow: FlowId(1),
            cum_ack: 0,
            sack: vec![],
            rate_pps: 9.0,
        };
        s.on_feedback(SimTime::ZERO, &up);
        // 1.0 + (9-1)*0.3 = 3.4
        assert!((s.rate() - 3.4).abs() < 1e-9);
        let down = AtpFeedback {
            rate_pps: 2.0,
            ..up.clone()
        };
        s.on_feedback(SimTime::ZERO, &down);
        assert!((s.rate() - 2.0).abs() < 1e-9, "decrease is immediate");
    }

    #[test]
    fn sack_holes_retransmitted_end_to_end() {
        let mut s = AtpSender::new(FlowId(1), 5, cfg());
        let mut t = SimTime::ZERO;
        while s.poll_send(t).is_some() {
            t += SimDuration::from_secs(2);
        }
        let fb = AtpFeedback {
            flow: FlowId(1),
            cum_ack: 2,
            sack: vec![SeqRange::single(3)],
            rate_pps: 2.0,
        };
        s.on_feedback(t, &fb);
        let rtx = s.poll_send(t + SimDuration::from_secs(1)).unwrap();
        assert_eq!(rtx.seq, 3);
        assert_eq!(s.stats().retransmissions, 1);
    }

    #[test]
    fn silent_feedback_halves_rate() {
        let mut s = AtpSender::new(FlowId(1), 100, cfg());
        let fb = AtpFeedback {
            flow: FlowId(1),
            cum_ack: 0,
            sack: vec![],
            rate_pps: 8.0,
        };
        s.on_feedback(SimTime::ZERO, &fb);
        let r = s.rate();
        // Deadline = 3 * 3 s after the feedback.
        s.on_timer(SimTime::from_secs_f64(5.0));
        assert_eq!(s.rate(), r, "not due yet");
        s.on_timer(SimTime::from_secs_f64(10.0));
        assert!((s.rate() - r * 0.5).abs() < 1e-9);
        assert_eq!(s.stats().timeout_backoffs, 1);
    }

    #[test]
    fn completion() {
        let mut s = AtpSender::new(FlowId(1), 2, cfg());
        let mut t = SimTime::ZERO;
        while s.poll_send(t).is_some() {
            t += SimDuration::from_secs(2);
        }
        let fb = AtpFeedback {
            flow: FlowId(1),
            cum_ack: 2,
            sack: vec![],
            rate_pps: 2.0,
        };
        s.on_feedback(t, &fb);
        assert!(s.is_complete());
    }

    #[test]
    fn duplicate_data_counted() {
        let mut r = AtpReceiver::new(FlowId(1), cfg());
        r.on_data(SimTime::ZERO, &data(0, 4.0));
        r.on_data(SimTime::ZERO, &data(0, 4.0));
        assert_eq!(r.stats().delivered_packets, 1);
        assert_eq!(r.stats().duplicates, 1);
    }

    #[test]
    fn feedback_schedule_is_constant_rate() {
        let mut r = AtpReceiver::new(FlowId(1), cfg());
        r.poll_feedback(SimTime::from_secs_f64(3.0));
        assert_eq!(r.next_feedback_at(), SimTime::from_secs_f64(6.0));
    }
}
