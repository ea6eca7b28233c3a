//! The routed transport unit: an end-to-end addressed packet whose payload
//! is one of the three wire formats' PDUs (JTP, TCP-SACK — which CUBIC and
//! BBR share — and ATP).

use jtp::packet::{AckPacket, DataPacket};
use jtp_baselines::atp::{AtpData, AtpFeedback, ATP_FEEDBACK_BYTES, ATP_HEADER_BYTES};
use jtp_baselines::sack::{TcpAck, TcpData, TCP_ACK_BYTES, TCP_HEADER_BYTES};
use jtp_mac::FrameKind;
use jtp_sim::{FlowId, NodeId};

/// A transport PDU from any of the five protocols.
#[derive(Clone, Debug)]
pub enum Payload {
    /// JTP data packet.
    JtpData(DataPacket),
    /// JTP feedback packet.
    JtpAck(AckPacket),
    /// TCP data segment (TCP, CUBIC or BBR).
    TcpData(TcpData),
    /// TCP acknowledgment (TCP, CUBIC or BBR).
    TcpAck(TcpAck),
    /// ATP data packet.
    AtpData(AtpData),
    /// ATP feedback packet.
    AtpFeedback(AtpFeedback),
}

impl Payload {
    /// The flow this PDU belongs to.
    pub fn flow(&self) -> FlowId {
        match self {
            Payload::JtpData(p) => p.flow,
            Payload::JtpAck(p) => p.flow,
            Payload::TcpData(p) => p.flow,
            Payload::TcpAck(p) => p.flow,
            Payload::AtpData(p) => p.flow,
            Payload::AtpFeedback(p) => p.flow,
        }
    }

    /// Data or feedback, for MAC/energy classification.
    pub fn kind(&self) -> FrameKind {
        match self {
            Payload::JtpData(_) | Payload::TcpData(_) | Payload::AtpData(_) => FrameKind::Data,
            _ => FrameKind::Ack,
        }
    }

    /// Bytes this PDU occupies on the wire (headers included).
    pub fn wire_bytes(&self) -> usize {
        match self {
            Payload::JtpData(p) => p.wire_bytes(),
            Payload::JtpAck(p) => p.wire_bytes(),
            Payload::TcpData(p) => TCP_HEADER_BYTES + p.payload_len as usize,
            Payload::TcpAck(_) => TCP_ACK_BYTES,
            Payload::AtpData(p) => ATP_HEADER_BYTES + p.payload_len as usize,
            Payload::AtpFeedback(_) => ATP_FEEDBACK_BYTES,
        }
    }
}

/// An end-to-end addressed transport packet, hop-forwarded by the nodes.
#[derive(Clone, Debug)]
pub struct TransportPacket {
    /// Originating endpoint.
    pub src_end: NodeId,
    /// Final destination endpoint.
    pub dst_end: NodeId,
    /// The PDU.
    pub payload: Payload,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes_match_paper_prototype() {
        let jd = Payload::JtpData(DataPacket {
            flow: FlowId(0),
            seq: 0,
            rate_pps: 1.0,
            loss_tolerance: 0.0,
            remaining_hops: 0,
            energy_budget_nj: 0,
            energy_used_nj: 0,
            deadline_ms: 0,
            payload_len: 800,
        });
        assert_eq!(jd.wire_bytes(), 828, "28-byte JTP header + 800 payload");
        let ja = Payload::JtpAck(AckPacket {
            flow: FlowId(0),
            cum_ack: 0,
            snack: vec![],
            locally_recovered: vec![],
            rate_pps: 1.0,
            energy_budget_nj: 0,
            timeout: jtp_sim::SimDuration::from_secs(10),
        });
        assert_eq!(ja.wire_bytes(), 200, "Table 1: 200-byte JTP ACK");
        assert_eq!(jd.kind(), FrameKind::Data);
        assert_eq!(ja.kind(), FrameKind::Ack);
    }

    #[test]
    fn tcp_ack_much_smaller_but_more_frequent() {
        let ta = Payload::TcpAck(TcpAck {
            flow: FlowId(0),
            cum_ack: 0,
            sack: vec![],
            echo: jtp_sim::SimTime::ZERO,
        });
        assert_eq!(ta.wire_bytes(), 52);
    }
}
