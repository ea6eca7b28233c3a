//! Rate-paced CUBIC (RFC 8312).
//!
//! The modern default congestion controller of Linux/Windows, modeled as a
//! window curve driving a paced rate. After a loss event at window `W_max`
//! the window is cut to `β·W_max` and then grows along the cubic
//!
//! ```text
//! W(t) = C·(t − K)³ + W_max,      K = ∛(W_max·(1 − β)/C)
//! ```
//!
//! concave up to the old `W_max`, convex beyond it. Fast convergence
//! releases bandwidth to newer flows by remembering the previous `W_max`
//! and cutting the origin to `W_max·(1+β)/2` when the new loss happened
//! below it. The TCP-friendly region `W_est(t) = W_max·β +
//! 3·(1−β)/(1+β)·t/RTT` keeps CUBIC at least as aggressive as Reno on
//! short-RTT paths. The window is turned into a pace of `cwnd/srtt`
//! packets per second — the simulator's transports are all rate-paced, so
//! burst dynamics are deliberately out of model (as are HyStart and
//! window scaling by receive buffer).
//!
//! Reliability is the shared SACK core of [`crate::sack`]: one wire format,
//! one receiver, RFC 6675 loss inference plus an RTO with exponential
//! back-off.

use crate::sack::{SackScoreboard, SmoothedRtt, TcpAck, TcpData};
use jtp_sim::{FlowId, SimDuration, SimTime};

/// CUBIC baseline configuration.
#[derive(Clone, Debug)]
pub struct CubicConfig {
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
    /// CUBIC aggressiveness constant `C` (RFC 8312 §5).
    pub c: f64,
    /// Multiplicative-decrease factor `β` (RFC 8312: 0.7).
    pub beta: f64,
    /// Hard window cap in packets (stands in for the receive window).
    pub cwnd_cap: f64,
    /// Enable fast convergence (RFC 8312 §4.6).
    pub fast_convergence: bool,
}

impl Default for CubicConfig {
    fn default() -> Self {
        CubicConfig {
            payload_bytes: 800,
            delayed_ack_every: 2,
            min_rate_pps: 0.1,
            max_rate_pps: 50.0,
            initial_rtt: SimDuration::from_millis(500),
            rto_min: SimDuration::from_secs(1),
            c: 0.4,
            beta: 0.7,
            cwnd_cap: 256.0,
            fast_convergence: true,
        }
    }
}

/// The CUBIC window curve `W(t) = C·(t − K)³ + W_origin` in packets.
pub fn w_cubic(c: f64, t_s: f64, k_s: f64, w_origin: f64) -> f64 {
    let d = t_s - k_s;
    c * d * d * d + w_origin
}

/// The epoch constant `K = ∛((W_origin − cwnd)/C)`: the time at which the
/// cubic regrows to the origin window from the post-cut `cwnd`.
pub fn cubic_k(c: f64, w_origin: f64, cwnd: f64) -> f64 {
    ((w_origin - cwnd).max(0.0) / c).cbrt()
}

/// The TCP-friendly (Reno-tracking) window estimate of RFC 8312 §4.2.
pub fn w_est(beta: f64, w_origin: f64, t_s: f64, rtt_s: f64) -> f64 {
    w_origin * beta + 3.0 * (1.0 - beta) / (1.0 + beta) * (t_s / rtt_s.max(1e-9))
}

/// Sender statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct CubicSenderStats {
    /// First transmissions.
    pub fresh_sent: u64,
    /// Retransmissions (SACK-inferred + RTO).
    pub retransmissions: u64,
    /// RTO firings.
    pub timeouts: u64,
    /// ACKs processed.
    pub acks_received: u64,
    /// Multiplicative-decrease episodes (loss events, not lost packets).
    pub loss_events: u64,
}

/// The rate-paced CUBIC source.
#[derive(Clone, Debug)]
pub struct CubicSender {
    flow: FlowId,
    cfg: CubicConfig,
    board: SackScoreboard<SimTime>,
    rtt: SmoothedRtt,
    // --- CUBIC state ---
    cwnd: f64,
    ssthresh: f64,
    w_max: f64,
    epoch_start: Option<SimTime>,
    k_s: f64,
    w_origin: f64,
    /// Loss events with a lost seq below this are the same episode.
    recover: u32,
    rate_pps: f64,
    stats: CubicSenderStats,
}

impl CubicSender {
    /// Create a source transferring `total` segments.
    pub fn new(flow: FlowId, total: u32, cfg: CubicConfig) -> Self {
        let mut s = CubicSender {
            flow,
            board: SackScoreboard::new(total),
            rtt: SmoothedRtt::new(cfg.initial_rtt),
            cwnd: 2.0,
            ssthresh: f64::INFINITY,
            w_max: 0.0,
            epoch_start: None,
            k_s: 0.0,
            w_origin: 0.0,
            recover: 0,
            rate_pps: 1.0,
            stats: CubicSenderStats::default(),
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

    /// Current congestion window in packets.
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Slow-start threshold.
    pub fn ssthresh(&self) -> f64 {
        self.ssthresh
    }

    /// Last-loss window `W_max` (after any fast-convergence cut).
    pub fn w_max(&self) -> f64 {
        self.w_max
    }

    /// Epoch constant `K` in seconds (0 before the first loss epoch).
    pub fn k(&self) -> f64 {
        self.k_s
    }

    /// Cubic origin window of the current growth epoch.
    pub fn w_origin(&self) -> f64 {
        self.w_origin
    }

    /// Still below `ssthresh`?
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// Everything delivered?
    pub fn is_complete(&self) -> bool {
        self.board.is_complete()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CubicSenderStats {
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

    /// Start a new cubic growth epoch from the current window.
    fn begin_epoch(&mut self, now: SimTime) {
        self.epoch_start = Some(now);
        if self.cwnd < self.w_max {
            self.w_origin = self.w_max;
            self.k_s = cubic_k(self.cfg.c, self.w_max, self.cwnd);
        } else {
            // Already past the old saturation point: origin is here, pure
            // convex probing (K = 0).
            self.w_origin = self.cwnd;
            self.k_s = 0.0;
        }
    }

    /// Per-ACK window growth (RFC 8312 §4.1–4.3).
    fn grow(&mut self, now: SimTime, acked: u64) {
        for _ in 0..acked {
            if self.cwnd < self.ssthresh {
                self.cwnd = (self.cwnd + 1.0).min(self.cfg.cwnd_cap);
                continue;
            }
            if self.epoch_start.is_none() {
                self.begin_epoch(now);
            }
            let t = now.since(self.epoch_start.unwrap()).as_secs_f64();
            let rtt = self.rtt.srtt_s.max(1e-3);
            let target = w_cubic(self.cfg.c, t + rtt, self.k_s, self.w_origin);
            if target > self.cwnd {
                self.cwnd += (target - self.cwnd) / self.cwnd.max(1.0);
            }
            let est = w_est(self.cfg.beta, self.w_origin, t, rtt);
            if est > self.cwnd {
                self.cwnd = est; // TCP-friendly region
            }
            self.cwnd = self.cwnd.clamp(1.0, self.cfg.cwnd_cap);
        }
    }

    /// Multiplicative decrease on a new loss event.
    fn on_loss_event(&mut self, full_collapse: bool) {
        self.stats.loss_events += 1;
        let prior = self.cwnd;
        // Fast convergence: a loss below the previous saturation point
        // means competition — shrink the remembered origin to hand over
        // bandwidth sooner.
        if self.cfg.fast_convergence && prior < self.w_max {
            self.w_max = prior * (1.0 + self.cfg.beta) / 2.0;
        } else {
            self.w_max = prior;
        }
        self.ssthresh = (prior * self.cfg.beta).max(2.0);
        self.cwnd = if full_collapse {
            1.0
        } else {
            (prior * self.cfg.beta).max(1.0)
        };
        self.epoch_start = None;
        self.recover = self.board.next_seq();
    }

    /// Process an acknowledgment: a newly inferred loss starts a loss
    /// episode unless one is already being recovered; otherwise the window
    /// grows by the newly acknowledged segments.
    pub fn on_ack(&mut self, now: SimTime, ack: &TcpAck) {
        debug_assert_eq!(ack.flow, self.flow);
        self.stats.acks_received += 1;
        self.rtt.sample(now, ack.echo);
        let acked = self.board.on_ack(ack).len() as u64;
        let new_loss = self.board.infer_losses(ack) > 0;
        if new_loss && self.board.cum_ack() >= self.recover {
            self.on_loss_event(false);
        } else {
            self.grow(now, acked);
        }
        self.update_rate();
        self.board.arm_rto(now, self.rto());
    }

    fn update_rate(&mut self) {
        let r = self.cwnd / self.rtt.srtt_s.max(1e-3);
        self.rate_pps = r.clamp(self.cfg.min_rate_pps, self.cfg.max_rate_pps);
    }

    /// Fire the retransmission timer if due: earliest outstanding segment
    /// is declared lost, the window collapses to one packet, RTO backs off
    /// exponentially.
    pub fn on_timer(&mut self, now: SimTime) {
        if self.board.fire_rto(now) {
            self.stats.timeouts += 1;
            self.on_loss_event(true);
            self.update_rate();
            self.board.arm_rto(now, self.rto());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jtp::packet::SeqRange;

    fn sender(total: u32) -> CubicSender {
        CubicSender::new(FlowId(1), total, CubicConfig::default())
    }

    #[test]
    fn curve_passes_through_origin_at_k() {
        let c = 0.4;
        let w_max = 40.0;
        let cwnd = w_max * 0.7;
        let k = cubic_k(c, w_max, cwnd);
        assert!((w_cubic(c, k, k, w_max) - w_max).abs() < 1e-9);
        assert!((w_cubic(c, 0.0, k, w_max) - cwnd).abs() < 1e-9);
    }

    #[test]
    fn slow_start_doubles_per_rtt_worth_of_acks() {
        let mut s = sender(1000);
        assert!(s.in_slow_start());
        let before = s.cwnd();
        s.grow(SimTime::ZERO, 4);
        assert!((s.cwnd() - (before + 4.0)).abs() < 1e-9);
    }

    #[test]
    fn loss_event_applies_beta_and_fast_convergence() {
        let mut s = sender(1000);
        s.cwnd = 100.0;
        s.ssthresh = 10.0;
        s.on_loss_event(false);
        assert!((s.cwnd() - 70.0).abs() < 1e-9, "β·W = {}", s.cwnd());
        assert!((s.w_max() - 100.0).abs() < 1e-9, "no prior w_max cut");
        // Second loss below the previous saturation point: fast
        // convergence shrinks the remembered origin.
        s.cwnd = 80.0;
        s.on_loss_event(false);
        let expect = 80.0 * (1.0 + 0.7) / 2.0;
        assert!((s.w_max() - expect).abs() < 1e-9, "w_max = {}", s.w_max());
    }

    #[test]
    fn epoch_k_matches_closed_form() {
        let mut s = sender(1000);
        s.cwnd = 100.0;
        s.ssthresh = 10.0;
        s.on_loss_event(false);
        s.grow(SimTime::from_millis(10), 1);
        let expect = cubic_k(0.4, s.w_max(), 70.0);
        assert!((s.k() - expect).abs() < 1e-6, "{} vs {expect}", s.k());
    }

    #[test]
    fn window_growth_caps_at_cwnd_cap() {
        let mut s = sender(100_000);
        for i in 0..5_000u64 {
            s.grow(SimTime::from_millis(i), 1);
        }
        assert!(s.cwnd() <= s.cfg.cwnd_cap + 1e-9);
    }

    #[test]
    fn rto_collapses_to_one_packet() {
        let mut s = sender(50);
        let t0 = SimTime::ZERO;
        s.poll_send(t0).unwrap();
        let deadline = s.next_wakeup().unwrap();
        s.on_timer(deadline + SimDuration::from_secs(2));
        assert_eq!(s.stats().timeouts, 1);
        assert!((s.cwnd() - 1.0).abs() < 1e-9);
        let rtx = s.poll_send(deadline + SimDuration::from_secs(2)).unwrap();
        assert_eq!(rtx.seq, 0);
    }

    #[test]
    fn sack_loss_infers_once_per_episode() {
        let mut s = sender(20);
        let mut t = SimTime::ZERO;
        while s.poll_send(t).is_some() {
            t += SimDuration::from_secs(2);
        }
        let ack = TcpAck {
            flow: FlowId(1),
            cum_ack: 1,
            sack: vec![SeqRange { start: 3, end: 8 }],
            echo: SimTime::ZERO,
        };
        s.on_ack(t, &ack);
        assert_eq!(s.stats().loss_events, 1);
        // More SACK evidence inside the same episode: no second cut.
        let ack2 = TcpAck {
            flow: FlowId(1),
            cum_ack: 1,
            sack: vec![SeqRange { start: 3, end: 10 }],
            echo: SimTime::ZERO,
        };
        s.on_ack(t + SimDuration::from_millis(100), &ack2);
        assert_eq!(s.stats().loss_events, 1);
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
}
