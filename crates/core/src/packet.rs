//! JTP packet formats.
//!
//! Figure 2 of the paper defines two headers:
//!
//! * the **JTP header**, attached to every packet, whose three novel fields
//!   are *available rate*, *loss tolerance* and *energy budget* (§2.1.1) —
//!   the optimised layout is 28 bytes;
//! * the optional **ACK header** carrying cumulative + selective negative
//!   acknowledgments (SNACK), the locally-recovered list, the receiver's
//!   feedback timeout and the new sending rate / energy budget (§2.1.2). The
//!   paper's prototype reserves 200 bytes for it (Table 1).
//!
//! The simulation exchanges the typed [`DataPacket`] / [`AckPacket`] structs
//! and charges the wire through their `wire_bytes()`, which rest on the
//! constants below. A unit test pins those constants to the layout drawn
//! here: the data header's field widths sum to [`DATA_HEADER_BYTES`], and
//! [`MAX_ACK_RANGES`] ranges after the fixed part fit the 200-byte ACK.
//!
//! ```text
//! JTP data header (28 bytes, network byte order):
//!  0      1      2             4                8
//!  +------+------+-------------+----------------+
//!  | ver  | type | flow id     | sequence num   |
//!  +------+------+-------------+----------------+
//!  | rate (f32 pps)            | loss tol (u16) | remaining hops (u16)
//!  +---------------------------+----------------+
//!  | energy budget (u32 nJ)    | energy used (u32 nJ)
//!  +---------------------------+----------------+
//!  | deadline (u32 ms)         |
//!  +---------------------------+  = 28 bytes
//! ```

use jtp_sim::{FlowId, SimDuration};

/// Wire size of the JTP data header (paper: "the JTP header is 28 bytes").
pub const DATA_HEADER_BYTES: usize = 28;
/// Wire budget for the ACK packet (paper Table 1: 200 bytes, unoptimised).
pub const ACK_PACKET_BYTES: usize = 200;
/// Fixed part of the ACK packet; the rest holds SNACK/recovered ranges.
pub const ACK_FIXED_BYTES: usize = 28;
/// Each SNACK or locally-recovered range costs 8 bytes on the wire.
pub const RANGE_BYTES: usize = 8;
/// Maximum ranges (SNACK + recovered combined) fitting the 200-byte ACK.
pub const MAX_ACK_RANGES: usize = (ACK_PACKET_BYTES - ACK_FIXED_BYTES) / RANGE_BYTES;

/// An inclusive range of sequence numbers `[start, end]`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SeqRange {
    /// First missing/recovered sequence number.
    pub start: u32,
    /// Last missing/recovered sequence number (inclusive).
    pub end: u32,
}

impl SeqRange {
    /// A single-sequence range.
    pub fn single(seq: u32) -> Self {
        SeqRange {
            start: seq,
            end: seq,
        }
    }

    /// Number of sequence numbers covered.
    pub fn len(&self) -> u32 {
        self.end - self.start + 1
    }

    /// Never empty by construction, but mirrors the std convention.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True if `seq` lies inside the range.
    pub fn contains(&self, seq: u32) -> bool {
        (self.start..=self.end).contains(&seq)
    }

    /// Iterate the covered sequence numbers.
    pub fn iter(&self) -> impl Iterator<Item = u32> {
        self.start..=self.end
    }
}

/// Compress a sorted, deduplicated slice of sequence numbers into ranges.
pub fn compress_ranges(sorted: &[u32]) -> Vec<SeqRange> {
    let mut out: Vec<SeqRange> = Vec::new();
    for &s in sorted {
        match out.last_mut() {
            Some(r) if s == r.end + 1 => r.end = s,
            Some(r) if s <= r.end => {} // duplicate
            _ => out.push(SeqRange::single(s)),
        }
    }
    out
}

/// Expand ranges back into a sorted sequence list.
pub fn expand_ranges(ranges: &[SeqRange]) -> Vec<u32> {
    let mut out = Vec::new();
    for r in ranges {
        out.extend(r.iter());
    }
    out
}

/// A JTP data packet: 28-byte header plus payload.
///
/// The three novel per-packet fields of §2.1.1 travel here:
/// `rate_pps` (available rate, min-stamped along the path), `loss_tolerance`
/// (remaining end-to-end tolerance, updated hop by hop) and
/// `energy_budget_nj`/`energy_used_nj` (the per-packet energy account).
#[derive(Clone, PartialEq, Debug)]
pub struct DataPacket {
    /// Connection this packet belongs to.
    pub flow: FlowId,
    /// Sequence number (per-flow, starting at 0).
    pub seq: u32,
    /// Minimum *effective* available rate observed so far along the path
    /// (packets/second). Stamped down by iJTP at every hop.
    pub rate_pps: f32,
    /// Remaining end-to-end loss tolerance for the rest of the path, in
    /// [0, 1]. Fig. 2 carries it as u16 fixed-point (x/65535).
    pub loss_tolerance: f64,
    /// Hops left to the destination according to the last forwarder's view.
    pub remaining_hops: u16,
    /// Energy the network may still spend on this packet (nanojoules).
    pub energy_budget_nj: u32,
    /// Energy spent on this packet so far (nanojoules).
    pub energy_used_nj: u32,
    /// Delivery deadline for real-time traffic, ms (0 = none; carried for
    /// completeness as in the paper, unused by bulk transfers).
    pub deadline_ms: u32,
    /// Application payload length in bytes (payload content is opaque to
    /// the protocol; the simulator does not materialise it).
    pub payload_len: u16,
}

impl DataPacket {
    /// Total wire size: header + payload.
    pub fn wire_bytes(&self) -> usize {
        DATA_HEADER_BYTES + self.payload_len as usize
    }
}

/// A JTP feedback packet (§2.1.2).
///
/// Carries a positive cumulative acknowledgment, a selective negative
/// acknowledgment (missing sequences the receiver still wants), the
/// locally-recovered list (sequences some cache already resent — appended by
/// iJTP as the ACK travels toward the source), and the receiver-chosen
/// transmission parameters: sending rate, energy budget and the feedback
/// timeout the sender should arm.
#[derive(Clone, PartialEq, Debug)]
pub struct AckPacket {
    /// Connection being acknowledged.
    pub flow: FlowId,
    /// All sequences `< cum_ack` are delivered or no longer wanted.
    pub cum_ack: u32,
    /// Missing sequences requested for retransmission (SNACK).
    pub snack: Vec<SeqRange>,
    /// Sequences already retransmitted by an in-network cache on the
    /// source's behalf.
    pub locally_recovered: Vec<SeqRange>,
    /// New sending rate for the source (packets/second).
    pub rate_pps: f32,
    /// New per-packet energy budget (nanojoules).
    pub energy_budget_nj: u32,
    /// The receiver's current feedback period T: if the sender hears no
    /// feedback for ~this long it must assume loss and back off (§5.1,
    /// "the value of T is used to set the sender's timeout field").
    pub timeout: SimDuration,
}

impl AckPacket {
    /// Wire size: the prototype always reserves the full 200-byte ACK
    /// packet (Table 1), so energy accounting uses that constant.
    pub fn wire_bytes(&self) -> usize {
        ACK_PACKET_BYTES
    }

    /// Sequences listed in the SNACK field, expanded.
    pub fn snack_seqs(&self) -> Vec<u32> {
        expand_ranges(&self.snack)
    }

    /// Sequences listed as locally recovered, expanded.
    pub fn recovered_seqs(&self) -> Vec<u32> {
        expand_ranges(&self.locally_recovered)
    }

    /// True if `seq` is requested in the SNACK and not already marked
    /// locally recovered.
    pub fn wants_retransmission(&self, seq: u32) -> bool {
        self.snack.iter().any(|r| r.contains(seq))
            && !self.locally_recovered.iter().any(|r| r.contains(seq))
    }

    /// Move `seq` from the SNACK set into the locally-recovered set
    /// (performed by iJTP when a cache answers the request). Returns false
    /// if `seq` was not SNACKed or was already recovered.
    pub fn mark_locally_recovered(&mut self, seq: u32) -> bool {
        if !self.wants_retransmission(seq) {
            return false;
        }
        // Remove from snack ranges (splitting as needed)…
        let mut new_snack = Vec::with_capacity(self.snack.len() + 1);
        for r in &self.snack {
            if !r.contains(seq) {
                new_snack.push(*r);
                continue;
            }
            if r.start < seq {
                new_snack.push(SeqRange {
                    start: r.start,
                    end: seq - 1,
                });
            }
            if r.end > seq {
                new_snack.push(SeqRange {
                    start: seq + 1,
                    end: r.end,
                });
            }
        }
        self.snack = new_snack;
        // …and add to the recovered ranges.
        let mut seqs = self.recovered_seqs();
        seqs.push(seq);
        seqs.sort_unstable();
        seqs.dedup();
        self.locally_recovered = compress_ranges(&seqs);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 2's data header as drawn in the module doc, field by field.
    const DATA_HEADER_FIELDS: [(&str, usize); 10] = [
        ("ver", 1),
        ("type", 1),
        ("flow id", 2),
        ("sequence num", 4),
        ("rate (f32 pps)", 4),
        ("loss tol (u16)", 2),
        ("remaining hops (u16)", 2),
        ("energy budget (u32 nJ)", 4),
        ("energy used (u32 nJ)", 4),
        ("deadline (u32 ms)", 4),
    ];

    #[test]
    fn wire_sizes_match_the_fig2_layout_and_table1_ack() {
        let doc: String = include_str!("packet.rs")
            .lines()
            .filter(|l| l.starts_with("//!"))
            .collect();
        for (name, _) in DATA_HEADER_FIELDS {
            assert!(doc.contains(name), "{name} is not in the diagram");
        }
        let header: usize = DATA_HEADER_FIELDS.iter().map(|&(_, w)| w).sum();
        assert_eq!(header, DATA_HEADER_BYTES);
        assert_eq!(DATA_HEADER_BYTES, 28);
        assert_eq!(ACK_PACKET_BYTES, 200);
        assert_eq!(MAX_ACK_RANGES, 21);
        const { assert!(ACK_FIXED_BYTES + MAX_ACK_RANGES * RANGE_BYTES <= ACK_PACKET_BYTES) };
        let ack = sample_ack();
        assert_eq!(ack.wire_bytes(), ACK_PACKET_BYTES);
    }

    fn sample_ack() -> AckPacket {
        AckPacket {
            flow: FlowId(3),
            cum_ack: 100,
            snack: vec![
                SeqRange {
                    start: 101,
                    end: 103,
                },
                SeqRange::single(110),
            ],
            locally_recovered: vec![SeqRange::single(105)],
            rate_pps: 3.25,
            energy_budget_nj: 7_000_000,
            timeout: SimDuration::from_secs(10),
        }
    }

    #[test]
    fn wants_retransmission_respects_recovered() {
        let a = sample_ack();
        assert!(a.wants_retransmission(102));
        assert!(!a.wants_retransmission(105), "already recovered");
        assert!(!a.wants_retransmission(999), "never snacked");
    }

    #[test]
    fn mark_locally_recovered_splits_ranges() {
        let mut a = sample_ack();
        assert!(a.mark_locally_recovered(102));
        // 101..=103 splits into 101 and 103.
        assert!(a.wants_retransmission(101));
        assert!(!a.wants_retransmission(102));
        assert!(a.wants_retransmission(103));
        assert!(a.recovered_seqs().contains(&102));
        // Double-marking fails.
        assert!(!a.mark_locally_recovered(102));
    }

    #[test]
    fn mark_recovered_merges_adjacent() {
        let mut a = AckPacket {
            snack: vec![SeqRange { start: 10, end: 12 }],
            locally_recovered: vec![],
            ..sample_ack()
        };
        a.mark_locally_recovered(10);
        a.mark_locally_recovered(11);
        a.mark_locally_recovered(12);
        assert_eq!(a.locally_recovered, vec![SeqRange { start: 10, end: 12 }]);
        assert!(a.snack.is_empty());
    }

    #[test]
    fn compress_and_expand_are_inverse() {
        let seqs = vec![1, 2, 3, 7, 9, 10, 11, 20];
        let ranges = compress_ranges(&seqs);
        assert_eq!(
            ranges,
            vec![
                SeqRange { start: 1, end: 3 },
                SeqRange::single(7),
                SeqRange { start: 9, end: 11 },
                SeqRange::single(20)
            ]
        );
        assert_eq!(expand_ranges(&ranges), seqs);
    }

    #[test]
    fn compress_handles_duplicates_and_empty() {
        assert!(compress_ranges(&[]).is_empty());
        assert_eq!(
            compress_ranges(&[4, 4, 5, 5]),
            vec![SeqRange { start: 4, end: 5 }]
        );
    }

    #[test]
    fn seq_range_basics() {
        let r = SeqRange { start: 5, end: 8 };
        assert_eq!(r.len(), 4);
        assert!(r.contains(5) && r.contains(8) && !r.contains(9));
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![5, 6, 7, 8]);
        assert!(!r.is_empty());
    }
}
