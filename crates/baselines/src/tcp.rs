//! Rate-based TCP-SACK.
//!
//! The paper's TCP baseline removes window burstiness by pacing at the rate
//! of the Padhye et al. steady-state throughput model:
//!
//! ```text
//!               1
//! R(p) = ─────────────────────────────────────────────────────  pkts/s
//!        RTT·√(2bp/3) + t_RTO·min(1, 3·√(3bp/8))·p·(1+32p²)
//! ```
//!
//! with `b = 2` (delayed ACKs, one per two packets) and `p` the loss-event
//! rate the sender measures. Reliability is full: the receiver reports
//! gaps via SACK blocks; the sender keeps the SACK scoreboard of
//! [`crate::sack`], selectively retransmits SACK-inferred losses, and falls
//! back to an RTO with exponential back-off for tail losses. All recovery is end-to-end — this
//! is exactly what makes TCP pay `H` extra hops of energy per loss in the
//! paper's analysis.

use crate::sack::{SackScoreboard, SmoothedRtt, TcpAck, TcpData};
use jtp_sim::stats::Ewma;
use jtp_sim::{FlowId, SimDuration, SimTime};

/// TCP baseline configuration.
#[derive(Clone, Debug)]
pub struct TcpConfig {
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
    /// EWMA weight of the loss-rate estimate.
    pub loss_alpha: f64,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            payload_bytes: 800,
            delayed_ack_every: 2,
            min_rate_pps: 0.1,
            max_rate_pps: 50.0,
            initial_rtt: SimDuration::from_millis(500),
            rto_min: SimDuration::from_secs(1),
            loss_alpha: 0.1,
        }
    }
}

/// Padhye et al. steady-state TCP throughput in packets/second.
pub fn padhye_rate_pps(rtt_s: f64, rto_s: f64, p: f64, b: f64) -> f64 {
    if p <= 0.0 {
        return f64::INFINITY;
    }
    let p = p.min(1.0);
    let term1 = rtt_s * (2.0 * b * p / 3.0).sqrt();
    let term2 = rto_s * (1.0f64).min(3.0 * (3.0 * b * p / 8.0).sqrt()) * p * (1.0 + 32.0 * p * p);
    1.0 / (term1 + term2)
}

/// Sender statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct TcpSenderStats {
    /// First transmissions.
    pub fresh_sent: u64,
    /// Retransmissions (SACK-inferred + RTO).
    pub retransmissions: u64,
    /// RTO firings.
    pub timeouts: u64,
    /// ACKs processed.
    pub acks_received: u64,
}

/// The rate-based TCP-SACK source.
#[derive(Clone, Debug)]
pub struct TcpSender {
    flow: FlowId,
    cfg: TcpConfig,
    /// Outstanding segments and when they were (last) sent.
    board: SackScoreboard<SimTime>,
    rtt: SmoothedRtt,
    loss: Ewma,
    rate_pps: f64,
    stats: TcpSenderStats,
}

impl TcpSender {
    /// Create a source transferring `total` segments.
    pub fn new(flow: FlowId, total: u32, cfg: TcpConfig) -> Self {
        TcpSender {
            flow,
            board: SackScoreboard::new(total),
            rtt: SmoothedRtt::new(cfg.initial_rtt),
            loss: Ewma::new(cfg.loss_alpha),
            rate_pps: 1.0,
            stats: TcpSenderStats::default(),
            cfg,
        }
    }

    /// The flow this sender feeds.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Current paced rate (pps).
    pub fn rate(&self) -> f64 {
        self.rate_pps
    }

    /// Everything delivered?
    pub fn is_complete(&self) -> bool {
        self.board.is_complete()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TcpSenderStats {
        self.stats
    }

    /// Current retransmission timeout.
    fn rto(&self) -> SimDuration {
        self.board.rto(self.rtt.rto_base_s(), self.cfg.rto_min)
    }

    /// Emit at most one segment if pacing allows.
    pub fn poll_send(&mut self, now: SimTime) -> Option<TcpData> {
        if !self.board.ready(now) {
            return None;
        }
        let gap = SimDuration::from_secs_f64(1.0 / self.rate_pps.max(self.cfg.min_rate_pps));
        let (seq, rtx) = self.board.pick(|_| true)?;
        if rtx {
            self.stats.retransmissions += 1;
        } else {
            self.stats.fresh_sent += 1;
        }
        self.board.sent(now, seq, now, gap, self.rto());
        Some(TcpData {
            flow: self.flow,
            seq,
            sent_at: now,
            payload_len: self.cfg.payload_bytes,
        })
    }

    /// Next instant the sender wants attention (pacing or RTO).
    pub fn next_wakeup(&self) -> Option<SimTime> {
        self.board.next_wakeup()
    }

    /// Process an acknowledgment: each newly acknowledged segment is a
    /// loss-free sample of the loss EWMA, each newly inferred loss a lossy
    /// one.
    pub fn on_ack(&mut self, now: SimTime, ack: &TcpAck) {
        debug_assert_eq!(ack.flow, self.flow);
        self.stats.acks_received += 1;
        self.rtt.sample(now, ack.echo);
        for _ in 0..self.board.on_ack(ack).len() {
            self.loss.update(0.0);
        }
        for _ in 0..self.board.infer_losses(ack) {
            self.loss.update(1.0);
        }
        self.update_rate();
        self.board.arm_rto(now, self.rto());
    }

    fn update_rate(&mut self) {
        let p = self.loss.get_or(0.0).clamp(0.0, 1.0);
        let r = padhye_rate_pps(
            self.rtt.srtt_s,
            self.rto().as_secs_f64(),
            p,
            self.cfg.delayed_ack_every as f64,
        );
        self.rate_pps = r.clamp(self.cfg.min_rate_pps, self.cfg.max_rate_pps);
    }

    /// Fire the retransmission timer if due: earliest outstanding segment
    /// is declared lost, rate collapses, RTO backs off exponentially.
    pub fn on_timer(&mut self, now: SimTime) {
        if self.board.fire_rto(now) {
            self.loss.update(1.0);
            self.stats.timeouts += 1;
            self.update_rate();
            self.board.arm_rto(now, self.rto());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sack::TcpReceiver;
    use jtp::packet::SeqRange;

    fn sender(total: u32) -> TcpSender {
        TcpSender::new(FlowId(1), total, TcpConfig::default())
    }

    fn receiver() -> TcpReceiver {
        TcpReceiver::new(FlowId(1), TcpConfig::default().delayed_ack_every)
    }

    #[test]
    fn padhye_limits() {
        assert_eq!(padhye_rate_pps(0.5, 1.0, 0.0, 2.0), f64::INFINITY);
        // Rate decreases with loss.
        let r1 = padhye_rate_pps(0.5, 1.0, 0.01, 2.0);
        let r2 = padhye_rate_pps(0.5, 1.0, 0.1, 2.0);
        assert!(r1 > r2);
        // And with RTT.
        let r3 = padhye_rate_pps(1.0, 1.0, 0.01, 2.0);
        assert!(r1 > r3);
        // Sanity: p=0.01, RTT=0.5 => ~17 pps.
        assert!((10.0..30.0).contains(&r1), "r1 = {r1}");
    }

    #[test]
    fn delayed_ack_every_two() {
        let mut r = receiver();
        let d0 = TcpData {
            flow: FlowId(1),
            seq: 0,
            sent_at: SimTime::ZERO,
            payload_len: 800,
        };
        assert!(r.on_data(SimTime::ZERO, &d0).is_none(), "first: delayed");
        let d1 = TcpData { seq: 1, ..d0 };
        let ack = r.on_data(SimTime::ZERO, &d1).expect("second: ack");
        assert_eq!(ack.cum_ack, 2);
        assert!(ack.sack.is_empty());
    }

    #[test]
    fn out_of_order_acks_immediately_with_sack() {
        let mut r = receiver();
        let d = |seq| TcpData {
            flow: FlowId(1),
            seq,
            sent_at: SimTime::ZERO,
            payload_len: 800,
        };
        r.on_data(SimTime::ZERO, &d(0));
        let ack = r.on_data(SimTime::ZERO, &d(2)).expect("gap => immediate");
        assert_eq!(ack.cum_ack, 1);
        assert_eq!(ack.sack, vec![SeqRange::single(2)]);
        assert!(r.flush_ack().is_none(), "ack already emitted");
    }

    #[test]
    fn sender_paces_and_counts() {
        let mut s = sender(3);
        assert!(s.poll_send(SimTime::ZERO).is_some());
        assert!(s.poll_send(SimTime::ZERO).is_none(), "paced");
        assert_eq!(s.stats().fresh_sent, 1);
    }

    #[test]
    fn sack_infers_loss_and_retransmits() {
        let mut s = sender(5);
        let mut t = SimTime::ZERO;
        while s.poll_send(t).is_some() {
            t += SimDuration::from_secs(2);
        }
        // ACK: cum 1 (seq 0 delivered), SACK 2..=4 => seq 1 lost.
        let ack = TcpAck {
            flow: FlowId(1),
            cum_ack: 1,
            sack: vec![SeqRange { start: 2, end: 4 }],
            echo: SimTime::ZERO,
        };
        s.on_ack(t, &ack);
        let rtx = s.poll_send(t + SimDuration::from_secs(2)).unwrap();
        assert_eq!(rtx.seq, 1);
        assert_eq!(s.stats().retransmissions, 1);
    }

    #[test]
    fn loss_collapses_rate() {
        let mut s = sender(1000);
        let mut t = SimTime::ZERO;
        for _ in 0..20 {
            while s.poll_send(t).is_none() {
                t += SimDuration::from_millis(10);
            }
        }
        let r_before = {
            // Clean ACK first to establish RTT.
            let ack = TcpAck {
                flow: FlowId(1),
                cum_ack: 5,
                sack: vec![],
                echo: if t.since(SimTime::ZERO).is_zero() {
                    t
                } else {
                    SimTime::ZERO
                },
            };
            s.on_ack(t, &ack);
            s.rate()
        };
        // Lossy ACK: big SACK hole.
        let ack = TcpAck {
            flow: FlowId(1),
            cum_ack: 5,
            sack: vec![SeqRange { start: 15, end: 19 }],
            echo: SimTime::ZERO,
        };
        s.on_ack(t, &ack);
        assert!(s.rate() < r_before, "{} !< {r_before}", s.rate());
    }

    #[test]
    fn rto_fires_and_backs_off() {
        let mut s = sender(5);
        let t0 = SimTime::ZERO;
        s.poll_send(t0).unwrap();
        let deadline = s.next_wakeup().unwrap();
        // Not due yet.
        s.on_timer(t0);
        assert_eq!(s.stats().timeouts, 0);
        // Fire well past the deadline.
        let late = deadline + SimDuration::from_secs(1);
        s.on_timer(late);
        assert_eq!(s.stats().timeouts, 1);
        // Retransmission of seq 0 queued.
        let rtx = s.poll_send(late).unwrap();
        assert_eq!(rtx.seq, 0);
        assert_eq!(s.stats().retransmissions, 1);
    }

    #[test]
    fn completes_on_full_cum_ack() {
        let mut s = sender(2);
        let mut t = SimTime::ZERO;
        while s.poll_send(t).is_some() {
            t += SimDuration::from_secs(2);
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

    #[test]
    fn receiver_flush_emits_pending_ack() {
        let mut r = receiver();
        let d0 = TcpData {
            flow: FlowId(1),
            seq: 0,
            sent_at: SimTime::ZERO,
            payload_len: 800,
        };
        assert!(r.on_data(SimTime::ZERO, &d0).is_none());
        let ack = r.flush_ack().expect("pending delayed ack");
        assert_eq!(ack.cum_ack, 1);
        assert!(r.flush_ack().is_none(), "nothing further pending");
    }

    #[test]
    fn rtt_estimation_from_echo() {
        let mut s = sender(10);
        let t0 = SimTime::ZERO;
        s.poll_send(t0);
        let ack = TcpAck {
            flow: FlowId(1),
            cum_ack: 1,
            sack: vec![],
            echo: t0,
        };
        s.on_ack(SimTime::from_millis(800), &ack);
        assert!((s.rtt.srtt_s - 0.8).abs() < 1e-9);
    }
}
