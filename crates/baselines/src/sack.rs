//! The SACK core shared by TCP, CUBIC and BBR.
//!
//! CUBIC and BBR are TCP congestion controllers, so the three senders use
//! one wire format ([`TcpData`] / [`TcpAck`]), one receiver
//! ([`TcpReceiver`]: delayed ACKs, an immediate SACK on reordering) and one
//! sender-side scoreboard. The scoreboard picks retransmissions before
//! fresh data, frees segments on cumulative and SACK acknowledgment,
//! infers losses with RFC 6675's duplicate threshold and runs an RTO with
//! exponential back-off. Each sender keeps only its own congestion
//! reaction and its RTO base.

use jtp::packet::{compress_ranges, SeqRange};
use jtp_sim::{FlowId, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// IP+TCP header bytes on a data segment.
pub const TCP_HEADER_BYTES: usize = 40;
/// Bytes of a pure ACK (IP+TCP+SACK option).
pub const TCP_ACK_BYTES: usize = 52;

/// RFC 6675's duplicate threshold: an outstanding segment is presumed lost
/// only once at least this many higher segments have been SACKed. Plain
/// "below the highest SACK" misfires on mild reordering and floods the
/// path with spurious retransmissions.
const DUPTHRESH: usize = 3;

/// A TCP data segment (simulation representation).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TcpData {
    /// Flow id.
    pub flow: FlowId,
    /// Segment sequence number (packet-granularity).
    pub seq: u32,
    /// Timestamp option: when the segment left the sender.
    pub sent_at: SimTime,
    /// Payload bytes.
    pub payload_len: u16,
}

/// A TCP acknowledgment with SACK blocks.
#[derive(Clone, PartialEq, Debug)]
pub struct TcpAck {
    /// Flow id.
    pub flow: FlowId,
    /// Cumulative ACK: everything below is delivered.
    pub cum_ack: u32,
    /// SACK blocks above the cumulative ACK.
    pub sack: Vec<SeqRange>,
    /// Echoed timestamp of the newest data that triggered this ACK.
    pub echo: SimTime,
}

/// Receiver statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct TcpReceiverStats {
    /// Distinct segments delivered.
    pub delivered_packets: u64,
    /// Payload bytes delivered.
    pub delivered_bytes: u64,
    /// Duplicates discarded.
    pub duplicates: u64,
    /// ACKs emitted.
    pub acks_sent: u64,
}

/// The TCP-SACK receiver with delayed ACKs.
#[derive(Clone, Debug)]
pub struct TcpReceiver {
    flow: FlowId,
    delayed_ack_every: u32,
    prefix: u32,
    ooo: BTreeSet<u32>,
    unacked_data: u32,
    last_echo: SimTime,
    stats: TcpReceiverStats,
}

impl TcpReceiver {
    /// Create the receiving endpoint, acknowledging every
    /// `delayed_ack_every` in-order segments.
    pub fn new(flow: FlowId, delayed_ack_every: u32) -> Self {
        TcpReceiver {
            flow,
            delayed_ack_every,
            prefix: 0,
            ooo: BTreeSet::new(),
            unacked_data: 0,
            last_echo: SimTime::ZERO,
            stats: TcpReceiverStats::default(),
        }
    }

    /// The flow this endpoint terminates.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TcpReceiverStats {
        self.stats
    }

    /// Cumulative delivery point.
    pub fn cum_ack(&self) -> u32 {
        self.prefix
    }

    /// Process a data segment; returns an ACK when delayed-ACK policy says
    /// to emit one (every `b` segments, or immediately on out-of-order
    /// data, the standard fast-retransmit enabler).
    pub fn on_data(&mut self, _now: SimTime, data: &TcpData) -> Option<TcpAck> {
        debug_assert_eq!(data.flow, self.flow);
        let fresh = data.seq >= self.prefix && self.ooo.insert(data.seq);
        if fresh {
            self.stats.delivered_packets += 1;
            self.stats.delivered_bytes += data.payload_len as u64;
            while self.ooo.remove(&self.prefix) {
                self.prefix += 1;
            }
        } else {
            self.stats.duplicates += 1;
        }
        self.last_echo = data.sent_at;
        self.unacked_data += 1;
        let out_of_order = !self.ooo.is_empty();
        if out_of_order || self.unacked_data >= self.delayed_ack_every {
            Some(self.make_ack())
        } else {
            None
        }
    }

    fn make_ack(&mut self) -> TcpAck {
        self.unacked_data = 0;
        self.stats.acks_sent += 1;
        let sacked: Vec<u32> = self.ooo.iter().copied().collect();
        TcpAck {
            flow: self.flow,
            cum_ack: self.prefix,
            sack: compress_ranges(&sacked),
            echo: self.last_echo,
        }
    }

    /// Force an ACK out (delayed-ACK timer in real stacks; the assembly
    /// calls this periodically so a tail segment is never stranded).
    pub fn flush_ack(&mut self) -> Option<TcpAck> {
        (self.unacked_data > 0).then(|| self.make_ack())
    }
}

/// RFC 6298 smoothed round-trip time and variance, shared by TCP and CUBIC.
#[derive(Clone, Debug)]
pub(crate) struct SmoothedRtt {
    pub(crate) srtt_s: f64,
    rttvar_s: f64,
    have_rtt: bool,
}

impl SmoothedRtt {
    pub(crate) fn new(initial: SimDuration) -> Self {
        let srtt = initial.as_secs_f64();
        SmoothedRtt {
            srtt_s: srtt,
            rttvar_s: srtt / 2.0,
            have_rtt: false,
        }
    }

    /// Take a sample from an ACK's echoed timestamp (Karn-safe because the
    /// echo is the original transmit time of the acked segment).
    pub(crate) fn sample(&mut self, now: SimTime, echo: SimTime) {
        let sample = now.since(echo).as_secs_f64();
        if sample <= 0.0 {
            return;
        }
        if self.have_rtt {
            let err = sample - self.srtt_s;
            self.srtt_s += 0.125 * err;
            self.rttvar_s += 0.25 * (err.abs() - self.rttvar_s);
        } else {
            self.srtt_s = sample;
            self.rttvar_s = sample / 2.0;
            self.have_rtt = true;
        }
    }

    /// The RTO before back-off: `srtt + 4·rttvar`, in seconds.
    pub(crate) fn rto_base_s(&self) -> f64 {
        self.srtt_s + 4.0 * self.rttvar_s
    }
}

/// The sender-side SACK scoreboard. `M` is what a sender remembers about
/// each outstanding segment (its send time, or BBR's delivery-rate state).
#[derive(Clone, Debug)]
pub(crate) struct SackScoreboard<M: Copy> {
    total: u32,
    next_seq: u32,
    cum_ack: u32,
    /// Outstanding segments, SACKed ones included until the cumulative ACK
    /// passes them.
    outstanding: BTreeMap<u32, M>,
    sacked: BTreeSet<u32>,
    /// Keys of `outstanding` that are not in `sacked`.
    inflight: u64,
    rtx_queue: VecDeque<u32>,
    next_send: SimTime,
    rto_deadline: Option<SimTime>,
    rto_backoff: u32,
}

impl<M: Copy> SackScoreboard<M> {
    /// A scoreboard for a transfer of `total` segments.
    pub(crate) fn new(total: u32) -> Self {
        SackScoreboard {
            total,
            next_seq: 0,
            cum_ack: 0,
            outstanding: BTreeMap::new(),
            sacked: BTreeSet::new(),
            inflight: 0,
            rtx_queue: VecDeque::new(),
            next_send: SimTime::ZERO,
            rto_deadline: None,
            rto_backoff: 0,
        }
    }

    pub(crate) fn cum_ack(&self) -> u32 {
        self.cum_ack
    }

    pub(crate) fn next_seq(&self) -> u32 {
        self.next_seq
    }

    pub(crate) fn is_complete(&self) -> bool {
        self.cum_ack >= self.total
    }

    /// Segments outstanding and not SACKed.
    pub(crate) fn inflight(&self) -> u64 {
        self.inflight
    }

    fn has_backlog(&self) -> bool {
        !self.rtx_queue.is_empty() || self.next_seq < self.total
    }

    /// Pacing allows a send at `now` and there is something to send.
    pub(crate) fn ready(&self, now: SimTime) -> bool {
        now >= self.next_send && self.has_backlog()
    }

    /// The next segment to send and whether it is a retransmission.
    /// Queued retransmissions go first; an entry whose segment has since
    /// been cumulatively ACKed or SACKed is stale and skipped. A fresh
    /// segment goes only if `fresh_allowed` says so (BBR's inflight cap).
    /// It is asked only when a fresh segment is the candidate.
    pub(crate) fn pick(
        &mut self,
        fresh_allowed: impl FnOnce(&Self) -> bool,
    ) -> Option<(u32, bool)> {
        while let Some(s) = self.rtx_queue.pop_front() {
            if s >= self.cum_ack && !self.sacked.contains(&s) {
                return Some((s, true));
            }
        }
        (self.next_seq < self.total && fresh_allowed(self)).then(|| {
            self.next_seq += 1;
            (self.next_seq - 1, false)
        })
    }

    /// Record that `seq` left at `now`: it is outstanding with `meta`, the
    /// RTO is armed with `rto` unless already running, and the next send
    /// waits `gap`.
    pub(crate) fn sent(
        &mut self,
        now: SimTime,
        seq: u32,
        meta: M,
        gap: SimDuration,
        rto: SimDuration,
    ) {
        if self.outstanding.insert(seq, meta).is_none() && !self.sacked.contains(&seq) {
            self.inflight += 1;
        }
        if self.rto_deadline.is_none() {
            self.arm_rto(now, rto);
        }
        self.next_send = now + gap;
    }

    /// `base_s` seconds doubled per back-off step (capped at 64×), floored
    /// at `rto_min`.
    pub(crate) fn rto(&self, base_s: f64, rto_min: SimDuration) -> SimDuration {
        let backed = base_s * (1u64 << self.rto_backoff.min(6)) as f64;
        SimDuration::from_secs_f64(backed).max(rto_min)
    }

    /// Restart the RTO at `now + rto`, or stop it when nothing is
    /// outstanding.
    pub(crate) fn arm_rto(&mut self, now: SimTime, rto: SimDuration) {
        self.rto_deadline = if self.outstanding.is_empty() {
            None
        } else {
            Some(now + rto)
        };
    }

    /// Next instant the sender wants attention (pacing or RTO).
    pub(crate) fn next_wakeup(&self) -> Option<SimTime> {
        let pacing = self.has_backlog().then_some(self.next_send);
        match (pacing, self.rto_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Apply an ACK's cumulative point and SACK blocks. Returns the
    /// segments it newly acknowledges with their `M`: the cumulatively
    /// freed ones in sequence order, then the newly SACKed ones in block
    /// order. A segment SACKed earlier is returned again when the
    /// cumulative ACK passes it.
    pub(crate) fn on_ack(&mut self, ack: &TcpAck) -> Vec<(u32, M)> {
        let mut freed = Vec::new();
        if ack.cum_ack > self.cum_ack {
            while let Some(e) = self.outstanding.first_entry() {
                if *e.key() >= ack.cum_ack {
                    break;
                }
                if !self.sacked.contains(e.key()) {
                    self.inflight -= 1;
                }
                freed.push(e.remove_entry());
            }
            self.sacked = self.sacked.split_off(&ack.cum_ack);
            self.cum_ack = ack.cum_ack;
            self.rto_backoff = 0;
        }
        for s in ack.sack.iter().flat_map(SeqRange::iter) {
            if s >= self.cum_ack && self.sacked.insert(s) {
                if let Some(&m) = self.outstanding.get(&s) {
                    self.inflight -= 1;
                    freed.push((s, m));
                }
            }
        }
        freed
    }

    /// SACK-based loss inference (RFC 6675), run on ACKs that carry SACK
    /// blocks: queue every unSACKed outstanding segment with at least
    /// `DUPTHRESH` SACKed segments above it. Returns how many were newly
    /// queued.
    pub(crate) fn infer_losses(&mut self, ack: &TcpAck) -> usize {
        if ack.sack.is_empty() {
            return 0;
        }
        let lost: Vec<u32> = self
            .outstanding
            .keys()
            .copied()
            .filter(|s| {
                !self.sacked.contains(s)
                    && self.sacked.range((s + 1)..).nth(DUPTHRESH - 1).is_some()
            })
            .collect();
        let mut queued = 0;
        for s in lost {
            if !self.rtx_queue.contains(&s) {
                self.rtx_queue.push_back(s);
                queued += 1;
            }
        }
        queued
    }

    /// Fire the RTO if it is due at `now`: the head-of-line outstanding
    /// segment goes to the front of the retransmission queue (once), the
    /// timeout backs off and the next send is due immediately. Returns
    /// whether it fired; the caller then reacts and re-arms the timer.
    pub(crate) fn fire_rto(&mut self, now: SimTime) -> bool {
        match self.rto_deadline {
            Some(deadline) if now >= deadline => {}
            _ => return false,
        }
        let Some(&seq) = self.outstanding.keys().next() else {
            self.rto_deadline = None;
            return false;
        };
        if !self.rtx_queue.contains(&seq) {
            self.rtx_queue.push_front(seq);
        }
        self.rto_backoff += 1;
        self.next_send = now;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scoreboard with `n` segments sent at time zero.
    fn board_with_sent(total: u32, n: u32) -> SackScoreboard<SimTime> {
        let mut b = SackScoreboard::new(total);
        for _ in 0..n {
            let (seq, rtx) = b.pick(|_| true).unwrap();
            assert!(!rtx);
            b.sent(
                SimTime::ZERO,
                seq,
                SimTime::ZERO,
                SimDuration::ZERO,
                SimDuration::from_secs(1),
            );
        }
        b
    }

    fn ack(cum_ack: u32, sack: Vec<SeqRange>) -> TcpAck {
        TcpAck {
            flow: FlowId(1),
            cum_ack,
            sack,
            echo: SimTime::ZERO,
        }
    }

    #[test]
    fn two_sacked_above_a_hole_do_not_queue_a_retransmission() {
        let mut b = board_with_sent(10, 4);
        let a = ack(0, vec![SeqRange { start: 1, end: 2 }]);
        assert_eq!(b.on_ack(&a).len(), 2);
        assert_eq!(b.infer_losses(&a), 0, "2 < DUPTHRESH");
        assert!(b.rtx_queue.is_empty());
    }

    #[test]
    fn three_sacked_above_a_hole_queue_exactly_it() {
        let mut b = board_with_sent(10, 4);
        let a = ack(0, vec![SeqRange { start: 1, end: 3 }]);
        assert_eq!(b.on_ack(&a).len(), 3);
        assert_eq!(b.infer_losses(&a), 1);
        assert_eq!(b.rtx_queue, [0]);
        // The same evidence again queues nothing new.
        assert_eq!(b.infer_losses(&a), 0);
        assert_eq!(b.pick(|_| true), Some((0, true)));
    }

    #[test]
    fn stale_retransmissions_are_skipped() {
        let mut b = board_with_sent(10, 6);
        // Holes at 0 and 1, each with ≥ 3 SACKed above.
        let a = ack(0, vec![SeqRange { start: 2, end: 5 }]);
        b.on_ack(&a);
        assert_eq!(b.infer_losses(&a), 2);
        assert_eq!(b.rtx_queue, [0, 1]);
        // Seq 0 is cum-ACKed and seq 1 SACKed before either goes out.
        b.on_ack(&ack(1, vec![SeqRange { start: 1, end: 5 }]));
        assert_eq!(b.pick(|_| true), Some((6, false)), "both entries stale");
        assert!(b.rtx_queue.is_empty());
    }

    #[test]
    fn rto_requeues_head_of_line_at_front_once() {
        let mut b = board_with_sent(10, 6);
        let a = ack(0, vec![SeqRange { start: 2, end: 5 }]);
        b.on_ack(&a);
        b.infer_losses(&a);
        b.rtx_queue.retain(|&s| s != 0);
        assert_eq!(b.rtx_queue, [1]);
        let deadline = b.rto_deadline.unwrap();
        assert!(
            !b.fire_rto(deadline - SimDuration::from_millis(1)),
            "not due"
        );
        assert!(b.fire_rto(deadline));
        assert_eq!(b.rtx_queue, [0, 1], "head of line goes to the front");
        assert_eq!(b.rto_backoff, 1);
        // A second firing before the first retransmission left does not
        // queue the head twice.
        assert!(b.fire_rto(deadline));
        assert_eq!(b.rtx_queue, [0, 1]);
        assert_eq!(b.rto_backoff, 2);
    }

    #[test]
    fn freed_entries_come_cumulative_first_then_in_sack_order() {
        let mut b = board_with_sent(10, 8);
        let freed = b.on_ack(&ack(0, vec![SeqRange::single(5)]));
        assert_eq!(freed.iter().map(|&(s, _)| s).collect::<Vec<_>>(), [5]);
        let freed = b.on_ack(&ack(
            3,
            vec![SeqRange::single(7), SeqRange { start: 5, end: 6 }],
        ));
        let seqs: Vec<u32> = freed.iter().map(|&(s, _)| s).collect();
        assert_eq!(seqs, [0, 1, 2, 7, 6]);
        assert_eq!(b.inflight(), 2, "3 and 4");
    }

    /// The scan that `inflight()` replaced.
    fn inflight_by_scan<M: Copy>(b: &SackScoreboard<M>) -> u64 {
        b.outstanding
            .keys()
            .filter(|s| !b.sacked.contains(s))
            .count() as u64
    }

    #[test]
    fn inflight_count_matches_the_scan_under_random_loss_and_acks() {
        let rto = SimDuration::from_millis(40);
        for seed in 0..16 {
            let mut rng = jtp_sim::SimRng::new(seed);
            let mut b = SackScoreboard::<SimTime>::new(300);
            let mut rx = TcpReceiver::new(FlowId(1), 2);
            let mut in_flight_acks: Vec<TcpAck> = Vec::new();
            let mut now = SimTime::ZERO;
            while !b.is_complete() {
                now += SimDuration::from_millis(1);
                assert!(now < SimTime::ZERO + SimDuration::from_secs(600));
                if b.fire_rto(now) {
                    b.arm_rto(now, rto);
                }
                if let Some((seq, _)) = b.pick(|b| b.inflight() < 12) {
                    b.sent(now, seq, now, SimDuration::ZERO, rto);
                    let data = TcpData {
                        flow: FlowId(1),
                        seq,
                        sent_at: now,
                        payload_len: 100,
                    };
                    if !rng.chance(0.2) {
                        in_flight_acks.extend(rx.on_data(now, &data));
                    }
                }
                if rng.chance(0.1) {
                    in_flight_acks.extend(rx.flush_ack());
                }
                // Deliver, drop or hold back a random pending ACK, so ACKs
                // also arrive lost and out of order.
                if !in_flight_acks.is_empty() && rng.chance(0.5) {
                    let a = in_flight_acks.swap_remove(rng.below(in_flight_acks.len()));
                    if !rng.chance(0.2) {
                        let before = b.cum_ack();
                        b.on_ack(&a);
                        assert_eq!(b.inflight(), inflight_by_scan(&b));
                        b.infer_losses(&a);
                        if b.cum_ack() > before {
                            b.arm_rto(now, rto);
                        }
                    }
                }
                assert_eq!(b.inflight(), inflight_by_scan(&b), "seed {seed}");
            }
            assert_eq!(b.inflight(), 0);
        }
    }

    #[test]
    fn backoff_doubles_and_resets_on_cumulative_progress() {
        let mut b = board_with_sent(10, 2);
        let min = SimDuration::from_millis(1);
        assert_eq!(b.rto(1.0, min), SimDuration::from_secs(1));
        let deadline = b.rto_deadline.unwrap();
        assert!(b.fire_rto(deadline));
        assert_eq!(b.rto(1.0, min), SimDuration::from_secs(2));
        b.on_ack(&ack(1, vec![]));
        assert_eq!(b.rto(1.0, min), SimDuration::from_secs(1));
    }
}
