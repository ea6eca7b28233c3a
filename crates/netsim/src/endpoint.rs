//! A flow's two transport endpoints. The per-transport `match` lives here,
//! once per operation, so the network's delivery and timer handlers stay
//! transport-agnostic. A run uses one transport, so a PDU always meets the
//! endpoint of its own wire format.

use crate::payload::Payload;
use jtp::{JtpReceiver, JtpSender};
use jtp_baselines::atp::{AtpReceiver, AtpSender};
use jtp_baselines::bbr::BbrSender;
use jtp_baselines::cubic::CubicSender;
use jtp_baselines::sack::TcpReceiver;
use jtp_baselines::tcp::TcpSender;
use jtp_events::MonitorUpdate;
use jtp_sim::{SimDuration, SimTime};

/// The sending endpoint of a flow.
pub(crate) enum Sender {
    Jtp(Box<JtpSender>),
    Tcp(Box<TcpSender>),
    Atp(Box<AtpSender>),
    Cubic(Box<CubicSender>),
    Bbr(Box<BbrSender>),
}

/// The receiving endpoint of a flow: TCP, CUBIC and BBR share the SACK
/// receiver.
pub(crate) enum Receiver {
    Jtp(Box<JtpReceiver>),
    Sack(Box<TcpReceiver>),
    Atp(Box<AtpReceiver>),
}

fn mismatch(p: &Payload) -> ! {
    unreachable!("{p:?} reached an endpoint of another transport")
}

impl Sender {
    /// Process feedback; returns whether the transfer is now complete.
    #[inline]
    pub(crate) fn on_feedback(&mut self, now: SimTime, p: &Payload) -> bool {
        match (self, p) {
            (Sender::Jtp(tx), Payload::JtpAck(a)) => {
                tx.on_ack(now, a);
                tx.is_complete()
            }
            (Sender::Tcp(tx), Payload::TcpAck(a)) => {
                tx.on_ack(now, a);
                tx.is_complete()
            }
            (Sender::Cubic(tx), Payload::TcpAck(a)) => {
                tx.on_ack(now, a);
                tx.is_complete()
            }
            (Sender::Bbr(tx), Payload::TcpAck(a)) => {
                tx.on_ack(now, a);
                tx.is_complete()
            }
            (Sender::Atp(tx), Payload::AtpFeedback(fb)) => {
                tx.on_feedback(now, fb);
                tx.is_complete()
            }
            _ => mismatch(p),
        }
    }

    /// Run the sender's timers, push every PDU pacing allows onto `out`,
    /// and return when the sender next wants attention.
    #[inline]
    pub(crate) fn on_wakeup(&mut self, now: SimTime, out: &mut Vec<Payload>) -> Option<SimTime> {
        match self {
            Sender::Jtp(tx) => {
                tx.on_feedback_timeout(now);
                out.extend(std::iter::from_fn(|| tx.poll_send(now)).map(Payload::JtpData));
                Some(tx.next_wakeup())
            }
            Sender::Tcp(tx) => {
                tx.on_timer(now);
                out.extend(std::iter::from_fn(|| tx.poll_send(now)).map(Payload::TcpData));
                tx.next_wakeup()
            }
            Sender::Atp(tx) => {
                tx.on_timer(now);
                out.extend(std::iter::from_fn(|| tx.poll_send(now)).map(Payload::AtpData));
                Some(tx.next_wakeup())
            }
            Sender::Cubic(tx) => {
                tx.on_timer(now);
                out.extend(std::iter::from_fn(|| tx.poll_send(now)).map(Payload::TcpData));
                tx.next_wakeup()
            }
            Sender::Bbr(tx) => {
                tx.on_timer(now);
                out.extend(std::iter::from_fn(|| tx.poll_send(now)).map(Payload::TcpData));
                tx.next_wakeup()
            }
        }
    }

    /// The sender's half of the flow metrics: (source retransmissions,
    /// packets recovered in-network on the flow's behalf).
    pub(crate) fn retransmissions(&self) -> (u64, u64) {
        match self {
            Sender::Jtp(tx) => {
                let s = tx.stats();
                (s.source_retransmissions, s.locally_recovered)
            }
            Sender::Tcp(tx) => (tx.stats().retransmissions, 0),
            Sender::Atp(tx) => (tx.stats().retransmissions, 0),
            Sender::Cubic(tx) => (tx.stats().retransmissions, 0),
            Sender::Bbr(tx) => (tx.stats().retransmissions, 0),
        }
    }
}

impl Receiver {
    /// Deliver a data PDU. Returns whether it was new to the receiver, the
    /// feedback it triggers immediately, and JTP's rate-monitor reading.
    #[inline]
    pub(crate) fn on_data(
        &mut self,
        now: SimTime,
        p: &Payload,
    ) -> (bool, Option<Payload>, Option<MonitorUpdate>) {
        match (self, p) {
            (Receiver::Jtp(rx), Payload::JtpData(d)) => {
                let before = rx.stats().delivered_packets;
                let early = rx.on_data(now, d);
                let fresh = rx.stats().delivered_packets > before;
                let monitor = rx
                    .rate_monitor_state()
                    .map(|(lcl, mean, ucl)| MonitorUpdate {
                        flow: d.flow,
                        reported: d.rate_pps as f64,
                        mean,
                        lcl,
                        ucl,
                    });
                (fresh, early.map(Payload::JtpAck), monitor)
            }
            (Receiver::Sack(rx), Payload::TcpData(d)) => {
                let before = rx.stats().delivered_packets;
                let ack = rx.on_data(now, d);
                (
                    rx.stats().delivered_packets > before,
                    ack.map(Payload::TcpAck),
                    None,
                )
            }
            (Receiver::Atp(rx), Payload::AtpData(d)) => {
                let before = rx.stats().delivered_packets;
                rx.on_data(now, d);
                (rx.stats().delivered_packets > before, None, None)
            }
            _ => mismatch(p),
        }
    }

    /// The receiver's feedback timer: JTP and ATP send periodic feedback,
    /// the SACK receiver flushes a pending delayed ACK every `ack_flush`.
    /// Returns the feedback, if any, and when the timer next fires.
    #[inline]
    pub(crate) fn on_timer(
        &mut self,
        now: SimTime,
        ack_flush: SimDuration,
    ) -> (Option<Payload>, SimTime) {
        match self {
            Receiver::Jtp(rx) => {
                let fb =
                    (now >= rx.next_feedback_at()).then(|| Payload::JtpAck(rx.poll_feedback(now)));
                (fb, rx.next_feedback_at())
            }
            Receiver::Sack(rx) => (rx.flush_ack().map(Payload::TcpAck), now + ack_flush),
            Receiver::Atp(rx) => {
                let fb = (now >= rx.next_feedback_at())
                    .then(|| Payload::AtpFeedback(rx.poll_feedback(now)));
                (fb, rx.next_feedback_at())
            }
        }
    }

    /// The receiver's half of the flow metrics: (delivered packets,
    /// delivered bytes, feedback packets sent).
    pub(crate) fn deliveries(&self) -> (u64, u64, u64) {
        match self {
            Receiver::Jtp(rx) => {
                let s = rx.stats();
                (s.delivered_packets, s.delivered_bytes, s.feedbacks_sent)
            }
            Receiver::Sack(rx) => {
                let s = rx.stats();
                (s.delivered_packets, s.delivered_bytes, s.acks_sent)
            }
            Receiver::Atp(rx) => {
                let s = rx.stats();
                (s.delivered_packets, s.delivered_bytes, s.feedbacks_sent)
            }
        }
    }
}
