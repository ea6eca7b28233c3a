//! Model-based BBR (bottleneck bandwidth and round-trip propagation time).
//!
//! Instead of reacting to loss, BBR builds an explicit path model from two
//! windowed filters — the max delivery rate over the last ~10 rounds
//! (`BtlBw`) and the min RTT over the last ~10 seconds (`RTprop`) — and
//! paces at `pacing_gain × BtlBw` while capping inflight at
//! `cwnd_gain × BDP`. The controller walks a fixed phase machine:
//!
//! ```text
//! Startup  (gain 2/ln2 ≈ 2.885)  — double the rate each round until the
//!                                  bandwidth filter stops growing ≥25%
//!                                  for 3 consecutive rounds
//! Drain    (gain 1/2.885)        — bleed the startup queue until
//!                                  inflight ≤ BDP
//! ProbeBw  (cycle 1.25, 0.75,    — steady state: probe for more
//!           1, 1, 1, 1, 1, 1)      bandwidth, then drain, then cruise;
//!                                  one gain per RTprop interval
//! ```
//!
//! Deliberate omissions (documented, not bugs): no ProbeRTT phase (the
//! simulator's paced flows never build standing queues large enough to
//! mask RTprop for 10 s), no randomized ProbeBw entry offset (the cycle
//! always starts at the probe gain — determinism beats phase
//! desynchronization here), and loss does not modulate the rate at all —
//! reliability rides the shared SACK core of [`crate::sack`] (one wire
//! format, one receiver, one scoreboard + RTO), but the path model alone
//! sets the pace.

use crate::sack::{SackScoreboard, TcpAck, TcpData};
use jtp_sim::{FlowId, SimDuration, SimTime};
use std::collections::VecDeque;

/// Startup/Drain gain: 2/ln(2).
pub const STARTUP_GAIN: f64 = 2.885;
/// ProbeBw pacing-gain cycle, one entry per RTprop interval.
pub const PROBE_BW_GAINS: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];

/// BBR baseline configuration.
#[derive(Clone, Debug)]
pub struct BbrConfig {
    /// Application payload bytes per segment (matching JTP's 800).
    pub payload_bytes: u16,
    /// Delayed-ACK factor `b` (one ACK per `b` segments).
    pub delayed_ack_every: u32,
    /// Rate bounds (pps).
    pub min_rate_pps: f64,
    /// Upper rate bound; set to the path capacity by the assembly.
    pub max_rate_pps: f64,
    /// Initial RTT estimate before any sample.
    pub initial_rtt: SimDuration,
    /// Minimum retransmission timeout.
    pub rto_min: SimDuration,
    /// Inflight cap as a multiple of the estimated BDP.
    pub cwnd_gain: f64,
    /// Bandwidth-filter window in rounds.
    pub bw_window_rounds: u64,
    /// RTprop filter window.
    pub rtt_window: SimDuration,
    /// Startup exits after this many rounds without ≥25% bandwidth growth.
    pub startup_full_bw_rounds: u32,
    /// Minimum inflight cap in packets.
    pub min_cwnd: f64,
}

impl Default for BbrConfig {
    fn default() -> Self {
        BbrConfig {
            payload_bytes: 800,
            delayed_ack_every: 2,
            min_rate_pps: 0.1,
            max_rate_pps: 50.0,
            initial_rtt: SimDuration::from_millis(500),
            rto_min: SimDuration::from_secs(1),
            cwnd_gain: 2.0,
            bw_window_rounds: 10,
            rtt_window: SimDuration::from_secs(10),
            startup_full_bw_rounds: 3,
            min_cwnd: 4.0,
        }
    }
}

/// The BBR phase machine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BbrPhase {
    /// Exponential rate search.
    Startup,
    /// Bleed the startup queue.
    Drain,
    /// Steady-state gain cycling.
    ProbeBw,
}

/// Sender statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct BbrSenderStats {
    /// First transmissions.
    pub fresh_sent: u64,
    /// Retransmissions (SACK-inferred + RTO).
    pub retransmissions: u64,
    /// RTO firings.
    pub timeouts: u64,
    /// ACKs processed.
    pub acks_received: u64,
    /// Completed sender rounds.
    pub rounds: u64,
}

/// Per-segment bookkeeping for delivery-rate sampling.
#[derive(Clone, Copy, Debug)]
struct SentState {
    sent_at: SimTime,
    delivered_at_send: u64,
}

/// The model-based BBR source.
#[derive(Clone, Debug)]
pub struct BbrSender {
    flow: FlowId,
    cfg: BbrConfig,
    board: SackScoreboard<SentState>,
    // --- path model ---
    /// Total packets known delivered (cum + SACK).
    delivered: u64,
    /// (round, bw_pps) samples for the windowed-max bandwidth filter.
    bw_samples: VecDeque<(u64, f64)>,
    min_rtt_s: f64,
    min_rtt_stamp: SimTime,
    have_rtt: bool,
    // --- rounds ---
    round: u64,
    round_end_seq: u32,
    // --- phase machine ---
    phase: BbrPhase,
    pacing_gain: f64,
    full_bw: f64,
    full_bw_rounds: u32,
    cycle_index: usize,
    cycle_stamp: SimTime,
    rate_pps: f64,
    stats: BbrSenderStats,
}

impl BbrSender {
    /// Create a source transferring `total` segments.
    pub fn new(flow: FlowId, total: u32, cfg: BbrConfig) -> Self {
        let rtt = cfg.initial_rtt.as_secs_f64();
        let mut s = BbrSender {
            flow,
            board: SackScoreboard::new(total),
            delivered: 0,
            bw_samples: VecDeque::new(),
            min_rtt_s: rtt,
            min_rtt_stamp: SimTime::ZERO,
            have_rtt: false,
            round: 0,
            round_end_seq: 0,
            phase: BbrPhase::Startup,
            pacing_gain: STARTUP_GAIN,
            full_bw: 0.0,
            full_bw_rounds: 0,
            cycle_index: 0,
            cycle_stamp: SimTime::ZERO,
            rate_pps: 1.0,
            stats: BbrSenderStats::default(),
            cfg,
        };
        s.update_rate();
        s
    }

    /// The flow this sender feeds.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Current paced rate (pps).
    pub fn rate(&self) -> f64 {
        self.rate_pps
    }

    /// Current phase.
    pub fn phase(&self) -> BbrPhase {
        self.phase
    }

    /// Current pacing gain.
    pub fn pacing_gain(&self) -> f64 {
        self.pacing_gain
    }

    /// Windowed-max bottleneck bandwidth estimate (pps); 0 before samples.
    pub fn max_bw_pps(&self) -> f64 {
        self.bw_samples
            .iter()
            .map(|&(_, bw)| bw)
            .fold(0.0, f64::max)
    }

    /// Windowed-min round-trip estimate (RTprop) in seconds.
    pub fn min_rtt_s(&self) -> f64 {
        self.min_rtt_s
    }

    /// Bandwidth-delay product of the current model, in packets.
    pub fn bdp_packets(&self) -> f64 {
        self.max_bw_pps() * self.min_rtt_s
    }

    /// Inflight cap in packets: `cwnd_gain × BDP`, floored.
    pub fn cwnd_packets(&self) -> f64 {
        (self.cfg.cwnd_gain * self.bdp_packets()).max(self.cfg.min_cwnd)
    }

    /// Packets currently outstanding and not SACKed.
    pub fn inflight(&self) -> u64 {
        self.board.inflight()
    }

    /// Everything delivered?
    pub fn is_complete(&self) -> bool {
        self.board.is_complete()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BbrSenderStats {
        self.stats
    }

    /// Retransmission timeout: twice RTprop, backed off.
    fn rto(&self) -> SimDuration {
        self.board.rto(2.0 * self.min_rtt_s, self.cfg.rto_min)
    }

    /// Emit at most one segment if pacing allows and inflight is under the
    /// cap. Retransmissions bypass the inflight cap — they replace
    /// presumed-lost packets already counted against it.
    pub fn poll_send(&mut self, now: SimTime) -> Option<TcpData> {
        if !self.board.ready(now) {
            return None;
        }
        let gap = SimDuration::from_secs_f64(1.0 / self.rate_pps.max(self.cfg.min_rate_pps));
        let cap = self.cwnd_packets();
        let (seq, rtx) = self.board.pick(|b| (b.inflight() as f64) < cap)?;
        if rtx {
            self.stats.retransmissions += 1;
        } else {
            self.stats.fresh_sent += 1;
        }
        let state = SentState {
            sent_at: now,
            delivered_at_send: self.delivered,
        };
        self.board.sent(now, seq, state, gap, self.rto());
        Some(TcpData {
            flow: self.flow,
            seq,
            sent_at: now,
            payload_len: self.cfg.payload_bytes,
        })
    }

    /// Next instant the sender wants attention. When the inflight cap (not
    /// pacing) is the binding constraint, the ACK that frees a slot drives
    /// progress; the RTO deadline is the backstop so a fully lost window
    /// can never stall the flow.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        self.board.next_wakeup()
    }

    fn record_bw_sample(&mut self, bw_pps: f64) {
        self.bw_samples.push_back((self.round, bw_pps));
        let horizon = self.round.saturating_sub(self.cfg.bw_window_rounds);
        while let Some(&(r, _)) = self.bw_samples.front() {
            if r < horizon {
                self.bw_samples.pop_front();
            } else {
                break;
            }
        }
    }

    fn advance_phase(&mut self, now: SimTime) {
        match self.phase {
            BbrPhase::Startup => {
                // Exit once the bw filter has been flat for N rounds.
                if self.full_bw_rounds >= self.cfg.startup_full_bw_rounds {
                    self.phase = BbrPhase::Drain;
                    self.pacing_gain = 1.0 / STARTUP_GAIN;
                }
            }
            BbrPhase::Drain => {
                if (self.inflight() as f64) <= self.bdp_packets().max(self.cfg.min_cwnd) {
                    self.phase = BbrPhase::ProbeBw;
                    self.cycle_index = 0;
                    self.cycle_stamp = now;
                    self.pacing_gain = PROBE_BW_GAINS[0];
                }
            }
            BbrPhase::ProbeBw => {
                if now.since(self.cycle_stamp).as_secs_f64() >= self.min_rtt_s {
                    self.cycle_index = (self.cycle_index + 1) % PROBE_BW_GAINS.len();
                    self.cycle_stamp = now;
                    self.pacing_gain = PROBE_BW_GAINS[self.cycle_index];
                }
            }
        }
    }

    fn on_round_end(&mut self) {
        self.round += 1;
        self.stats.rounds += 1;
        self.round_end_seq = self.board.next_seq();
        if self.phase == BbrPhase::Startup {
            let bw = self.max_bw_pps();
            if bw >= self.full_bw * 1.25 {
                self.full_bw = bw;
                self.full_bw_rounds = 0;
            } else {
                self.full_bw_rounds += 1;
            }
        }
    }

    /// Process an acknowledgment.
    pub fn on_ack(&mut self, now: SimTime, ack: &TcpAck) {
        debug_assert_eq!(ack.flow, self.flow);
        self.stats.acks_received += 1;

        // RTprop filter: expire the window, then take the new sample.
        let sample = now.since(ack.echo).as_secs_f64();
        if sample > 0.0 {
            let expired = now.since(self.min_rtt_stamp) > self.cfg.rtt_window;
            if !self.have_rtt || expired || sample < self.min_rtt_s {
                self.min_rtt_s = sample;
                self.min_rtt_stamp = now;
                self.have_rtt = true;
            }
        }

        // One delivery-rate sample per newly delivered segment: packets
        // delivered since it was sent over the time since it was sent.
        let freed = self.board.on_ack(ack);
        self.delivered += freed.len() as u64;
        for &(_, st) in &freed {
            let dt = now.since(st.sent_at).as_secs_f64();
            if dt > 0.0 {
                let bw = (self.delivered - st.delivered_at_send) as f64 / dt;
                self.record_bw_sample(bw);
            }
        }
        if ack.cum_ack > self.round_end_seq || self.board.is_complete() {
            self.on_round_end();
        }

        // Loss inference queues the retransmission but leaves the path
        // model untouched.
        self.board.infer_losses(ack);

        self.advance_phase(now);
        self.update_rate();
        self.board.arm_rto(now, self.rto());
    }

    fn update_rate(&mut self) {
        let bw = self.max_bw_pps();
        let r = if bw > 0.0 {
            self.pacing_gain * bw
        } else {
            // No model yet: pace the initial window over the initial RTT.
            self.pacing_gain * self.cfg.min_cwnd / self.min_rtt_s.max(1e-3)
        };
        self.rate_pps = r.clamp(self.cfg.min_rate_pps, self.cfg.max_rate_pps);
    }

    /// Fire the retransmission timer if due: earliest outstanding segment
    /// is queued for retransmission with exponential back-off. The path
    /// model is kept — BBR does not infer congestion from loss.
    pub fn on_timer(&mut self, now: SimTime) {
        if self.board.fire_rto(now) {
            self.stats.timeouts += 1;
            self.board.arm_rto(now, self.rto());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jtp::packet::SeqRange;

    fn sender(total: u32) -> BbrSender {
        BbrSender::new(FlowId(1), total, BbrConfig::default())
    }

    #[test]
    fn starts_in_startup_with_high_gain() {
        let s = sender(100);
        assert_eq!(s.phase(), BbrPhase::Startup);
        assert!((s.pacing_gain() - STARTUP_GAIN).abs() < 1e-9);
    }

    #[test]
    fn bw_filter_takes_windowed_max() {
        let mut s = sender(100);
        s.record_bw_sample(5.0);
        s.record_bw_sample(12.0);
        s.record_bw_sample(8.0);
        assert!((s.max_bw_pps() - 12.0).abs() < 1e-9);
        // Old samples age out of the round window.
        s.round += s.cfg.bw_window_rounds + 1;
        s.record_bw_sample(3.0);
        assert!((s.max_bw_pps() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn inflight_cap_blocks_fresh_sends() {
        let mut s = sender(1000);
        // No bw model yet: cwnd = min_cwnd = 4.
        let mut t = SimTime::ZERO;
        let mut sent = 0;
        for _ in 0..100 {
            if s.poll_send(t).is_some() {
                sent += 1;
            }
            t += SimDuration::from_secs(5);
        }
        assert_eq!(sent, 4, "inflight capped at min_cwnd without a model");
    }

    #[test]
    fn ack_frees_inflight_and_samples_bw() {
        let mut s = sender(100);
        let mut t = SimTime::ZERO;
        for _ in 0..4 {
            s.poll_send(t).unwrap();
            t += SimDuration::from_secs(5);
        }
        let ack = TcpAck {
            flow: FlowId(1),
            cum_ack: 2,
            sack: vec![],
            echo: SimTime::ZERO,
        };
        s.on_ack(t, &ack);
        assert_eq!(s.inflight(), 2);
        assert!(s.max_bw_pps() > 0.0);
    }

    #[test]
    fn retransmission_bypasses_inflight_cap() {
        let mut s = sender(1000);
        let mut t = SimTime::ZERO;
        for _ in 0..4 {
            s.poll_send(t).unwrap();
            t += SimDuration::from_secs(5);
        }
        // Cap reached; a SACK hole queues seq 0 for retransmission.
        let ack = TcpAck {
            flow: FlowId(1),
            cum_ack: 0,
            sack: vec![SeqRange { start: 1, end: 3 }],
            echo: SimTime::ZERO,
        };
        s.on_ack(t, &ack);
        let rtx = s.poll_send(t + SimDuration::from_secs(5)).expect("rtx");
        assert_eq!(rtx.seq, 0);
        assert_eq!(s.stats().retransmissions, 1);
    }

    #[test]
    fn rto_backstop_fires() {
        let mut s = sender(10);
        s.poll_send(SimTime::ZERO).unwrap();
        let deadline = s.next_wakeup().unwrap();
        let late = deadline + SimDuration::from_secs(30);
        s.on_timer(late);
        assert_eq!(s.stats().timeouts, 1);
        let rtx = s.poll_send(late).unwrap();
        assert_eq!(rtx.seq, 0);
    }

    #[test]
    fn completes_on_full_cum_ack() {
        let mut s = sender(2);
        let mut t = SimTime::ZERO;
        while s.poll_send(t).is_some() {
            t += SimDuration::from_secs(5);
        }
        let ack = TcpAck {
            flow: FlowId(1),
            cum_ack: 2,
            sack: vec![],
            echo: SimTime::ZERO,
        };
        s.on_ack(t, &ack);
        assert!(s.is_complete());
        assert!(s.poll_send(t + SimDuration::from_secs(1)).is_none());
    }
}
