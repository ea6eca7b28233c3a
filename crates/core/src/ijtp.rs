//! iJTP — the hop-by-hop JTP module (§2.2.2, Algorithms 1 and 2).
//!
//! iJTP is the soft-state plug-in the MAC invokes *exactly before the
//! transmission* and *exactly after the reception* of every JTP packet. It
//! owns the node's packet cache and performs the per-packet header
//! operations:
//!
//! **PreXmit (Algorithm 1)** — on every transmission attempt:
//! 1. charge the attempt to the packet's `energy_used` account and drop the
//!    packet if it exceeds its `energy_budget` (the energy-conscious TTL),
//! 2. on the *first* attempt at this node: derive the per-hop success
//!    target from the header's loss tolerance and the remaining hop count
//!    (eq. 4), convert it to a MAC attempt budget using the link's measured
//!    loss rate (eq. 2), and update the header tolerance for the rest of
//!    the path (eq. 3),
//! 3. stamp the header's rate field with the minimum *effective* available
//!    rate so far: `min(rate, avail / avg_attempts)`.
//!
//! **PostRcv (Algorithm 2)** — after every reception:
//! * data packets are cached (LRU, §4),
//! * ACK packets have their SNACK checked against the cache: hits are
//!   re-injected toward the destination and moved into the ACK's
//!   locally-recovered field so upstream nodes and the source do not
//!   retransmit them again.

use crate::cache::{CacheStats, PacketCache};
use crate::packet::{AckPacket, DataPacket};
use crate::reliability;

/// Per-link state the MAC hands to iJTP at transmission time.
#[derive(Clone, Copy, Debug)]
pub struct LinkInfo {
    /// Estimated per-attempt loss probability on this link (MAC statistic).
    pub loss_rate: f64,
    /// Available transmission rate to this neighbour, packets/second
    /// (idle-slot statistic).
    pub avail_rate_pps: f64,
    /// Average MAC attempts per delivered frame on this link — normalises
    /// the available rate ("the available rate value must be normalized by
    /// the average number of MAC-level transmissions", §2.1.1).
    pub avg_attempts: f64,
    /// Energy one transmission attempt of this packet will cost (nJ).
    pub tx_energy_nj: u32,
    /// Links remaining to the destination *including this one*, from the
    /// node's (possibly stale) topology view.
    pub remaining_hops: u32,
}

/// Verdict of the PreXmit hook.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PreXmitVerdict {
    /// Transmit. On the first attempt, carries the MAC attempt budget for
    /// this packet on this link.
    Forward {
        /// Maximum MAC transmissions for this packet on this link (eq. 2).
        max_attempts: u32,
    },
    /// Drop: the packet's energy budget is exhausted.
    DropEnergyExhausted,
}

/// Counters for the harness.
#[derive(Clone, Copy, Debug, Default)]
pub struct IjtpStats {
    /// Packets dropped because `energy_used > energy_budget`.
    pub energy_drops: u64,
    /// Local (cache) retransmissions injected on behalf of sources.
    pub local_retransmissions: u64,
    /// ACKs processed.
    pub acks_seen: u64,
}

/// Per-node iJTP module.
#[derive(Clone, Debug)]
pub struct IjtpModule {
    cache: PacketCache,
    max_attempts_cap: u32,
    allocation: reliability::AllocationStrategy,
    stats: IjtpStats,
}

impl IjtpModule {
    /// Create with the node's cache capacity (0 = JNC, no caching) and the
    /// MAC's global attempt cap (Table 1: 5). Eviction is LRU.
    pub fn new(cache_capacity: usize, max_attempts_cap: u32) -> Self {
        Self::with_cache_policy(
            cache_capacity,
            max_attempts_cap,
            crate::cache::CachePolicy::Lru,
        )
    }

    /// Create with an explicit cache eviction policy (the paper's named
    /// future work; compared in the `ablation` harness).
    pub fn with_cache_policy(
        cache_capacity: usize,
        max_attempts_cap: u32,
        policy: crate::cache::CachePolicy,
    ) -> Self {
        IjtpModule {
            cache: PacketCache::with_policy(cache_capacity, policy),
            max_attempts_cap: max_attempts_cap.max(1),
            allocation: reliability::AllocationStrategy::EqualShare,
            stats: IjtpStats::default(),
        }
    }

    /// Select the per-hop reliability allocation strategy (§3: the paper
    /// uses the equal share; alternatives are its named future work).
    pub fn set_allocation(&mut self, strategy: reliability::AllocationStrategy) {
        self.allocation = strategy;
    }

    /// Algorithm 1. Call before *every* MAC transmission attempt of a data
    /// packet; `first_attempt` is true only for the first try of this
    /// packet at this node.
    pub fn pre_xmit_data(
        &mut self,
        packet: &mut DataPacket,
        link: &LinkInfo,
        first_attempt: bool,
    ) -> PreXmitVerdict {
        // 1: increaseEnergyUsed(packet)
        packet.energy_used_nj = packet.energy_used_nj.saturating_add(link.tx_energy_nj);
        // 2-3: budget check — the energy-conscious replacement for TTL.
        if packet.energy_used_nj > packet.energy_budget_nj {
            self.stats.energy_drops += 1;
            return PreXmitVerdict::DropEnergyExhausted;
        }
        let mut max_attempts = self.max_attempts_cap;
        if first_attempt {
            // 5-8: reliability allocation for this hop.
            let q_target = self.allocation.q_target(
                packet.loss_tolerance,
                link.remaining_hops.max(1),
                link.loss_rate,
            );
            max_attempts =
                reliability::max_attempts_for(q_target, link.loss_rate, self.max_attempts_cap);
            // Update the tolerance for the remainder of the path using the
            // success probability these attempts actually achieve, so any
            // over-achievement is not re-spent downstream.
            let q_achieved =
                reliability::achieved_success(link.loss_rate, max_attempts).max(q_target.min(1.0));
            packet.loss_tolerance = reliability::update_loss_tolerance(
                packet.loss_tolerance,
                q_achieved.max(f64::MIN_POSITIVE),
            );
            packet.remaining_hops = link.remaining_hops.saturating_sub(1) as u16;
        }
        // 10-12: stamp the minimum effective available rate.
        let effective = if link.avg_attempts > 0.0 {
            link.avail_rate_pps / link.avg_attempts
        } else {
            link.avail_rate_pps
        };
        if (effective as f32) < packet.rate_pps {
            packet.rate_pps = effective as f32;
        }
        PreXmitVerdict::Forward { max_attempts }
    }

    /// Algorithm 2, DATA branch: cache the traversing packet.
    pub fn post_rcv_data(&mut self, packet: &DataPacket) {
        self.cache.insert(packet.clone());
    }

    /// Algorithm 2, ACK branch: answer SNACK entries from the local cache.
    ///
    /// Returns the data packets to re-inject toward the destination; the
    /// ACK is modified in place (hits move from `snack` to
    /// `locally_recovered`) before it continues toward the source.
    pub fn post_rcv_ack(&mut self, ack: &mut AckPacket) -> Vec<DataPacket> {
        self.stats.acks_seen += 1;
        let mut retransmissions = Vec::new();
        for seq in ack.snack_seqs() {
            if !ack.wants_retransmission(seq) {
                continue; // already recovered by a node closer to the dest
            }
            if let Some(mut pkt) = self.cache.lookup(ack.flow, seq) {
                // Fresh delivery effort: the recovered copy starts a new
                // energy account (the original's spend is already sunk) and
                // the header rate is re-stamped from here on.
                pkt.energy_used_nj = 0;
                pkt.rate_pps = f32::MAX;
                ack.mark_locally_recovered(seq);
                self.stats.local_retransmissions += 1;
                retransmissions.push(pkt);
            }
        }
        retransmissions
    }

    /// The node's cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// iJTP counters.
    pub fn stats(&self) -> IjtpStats {
        self.stats
    }

    /// Direct cache access (tests, eviction experiments).
    pub fn cache(&self) -> &PacketCache {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jtp_sim::FlowId;

    fn pkt(seq: u32, tolerance: f64, budget_nj: u32) -> DataPacket {
        DataPacket {
            flow: FlowId(1),
            seq,
            rate_pps: f32::MAX,
            loss_tolerance: tolerance,
            remaining_hops: 4,
            energy_budget_nj: budget_nj,
            energy_used_nj: 0,
            deadline_ms: 0,
            payload_len: 800,
        }
    }

    fn link(loss: f64, hops: u32) -> LinkInfo {
        LinkInfo {
            loss_rate: loss,
            avail_rate_pps: 4.0,
            avg_attempts: 1.25,
            tx_energy_nj: 320_000, // 0.32 mJ
            remaining_hops: hops,
        }
    }

    #[test]
    fn energy_budget_drops_packet() {
        let mut m = IjtpModule::new(100, 5);
        let mut p = pkt(0, 0.0, 500_000);
        // First attempt: 320k of 500k used.
        assert!(matches!(
            m.pre_xmit_data(&mut p, &link(0.1, 3), true),
            PreXmitVerdict::Forward { .. }
        ));
        // Second attempt would reach 640k > 500k.
        assert_eq!(
            m.pre_xmit_data(&mut p, &link(0.1, 3), false),
            PreXmitVerdict::DropEnergyExhausted
        );
        assert_eq!(m.stats().energy_drops, 1);
    }

    #[test]
    fn zero_tolerance_gets_max_attempts_on_lossy_link() {
        let mut m = IjtpModule::new(100, 5);
        let mut p = pkt(0, 0.0, u32::MAX);
        match m.pre_xmit_data(&mut p, &link(0.4, 3), true) {
            PreXmitVerdict::Forward { max_attempts } => assert_eq!(max_attempts, 5),
            v => panic!("unexpected {v:?}"),
        }
    }

    #[test]
    fn tolerant_packets_get_fewer_attempts() {
        let mut m = IjtpModule::new(100, 5);
        let mut strict = pkt(0, 0.0, u32::MAX);
        let mut loose = pkt(1, 0.9, u32::MAX);
        let l = link(0.3, 2);
        let a_strict = match m.pre_xmit_data(&mut strict, &l, true) {
            PreXmitVerdict::Forward { max_attempts } => max_attempts,
            _ => unreachable!(),
        };
        let a_loose = match m.pre_xmit_data(&mut loose, &l, true) {
            PreXmitVerdict::Forward { max_attempts } => max_attempts,
            _ => unreachable!(),
        };
        assert!(a_loose < a_strict, "loose {a_loose} !< strict {a_strict}");
    }

    #[test]
    fn tolerance_field_is_consumed_along_path() {
        let mut m = IjtpModule::new(100, 5);
        let mut p = pkt(0, 0.2, u32::MAX);
        let before = p.loss_tolerance;
        m.pre_xmit_data(&mut p, &link(0.1, 4), true);
        assert!(
            p.loss_tolerance <= before,
            "tolerance grew: {before} -> {}",
            p.loss_tolerance
        );
        assert_eq!(p.remaining_hops, 3);
    }

    #[test]
    fn rate_field_is_min_stamped() {
        let mut m = IjtpModule::new(100, 5);
        let mut p = pkt(0, 0.0, u32::MAX);
        // avail 4 pps / 1.25 attempts = 3.2 effective.
        m.pre_xmit_data(&mut p, &link(0.1, 3), true);
        assert!((p.rate_pps - 3.2).abs() < 1e-6);
        // A faster link downstream must not raise the stamp.
        let fast = LinkInfo {
            avail_rate_pps: 100.0,
            ..link(0.1, 2)
        };
        m.pre_xmit_data(&mut p, &fast, true);
        assert!((p.rate_pps - 3.2).abs() < 1e-6, "min is sticky");
    }

    #[test]
    fn retry_attempts_do_not_touch_reliability_fields() {
        let mut m = IjtpModule::new(100, 5);
        let mut p = pkt(0, 0.1, u32::MAX);
        m.pre_xmit_data(&mut p, &link(0.2, 3), true);
        let (tol, hops) = (p.loss_tolerance, p.remaining_hops);
        m.pre_xmit_data(&mut p, &link(0.2, 3), false);
        assert_eq!(p.loss_tolerance, tol);
        assert_eq!(p.remaining_hops, hops);
    }

    #[test]
    fn ack_snack_answered_from_cache() {
        let mut m = IjtpModule::new(100, 5);
        m.post_rcv_data(&pkt(7, 0.0, u32::MAX));
        let mut ack = AckPacket {
            flow: FlowId(1),
            cum_ack: 7,
            snack: vec![
                crate::packet::SeqRange::single(7),
                crate::packet::SeqRange::single(9),
            ],
            locally_recovered: vec![],
            rate_pps: 2.0,
            energy_budget_nj: 1_000_000,
            timeout: jtp_sim::SimDuration::from_secs(10),
        };
        let rtx = m.post_rcv_ack(&mut ack);
        assert_eq!(rtx.len(), 1);
        assert_eq!(rtx[0].seq, 7);
        assert_eq!(rtx[0].energy_used_nj, 0, "fresh energy account");
        assert!(!ack.wants_retransmission(7), "moved to recovered");
        assert!(ack.wants_retransmission(9), "cache miss stays snacked");
        assert_eq!(m.stats().local_retransmissions, 1);
    }

    #[test]
    fn recovered_entries_not_served_twice() {
        let mut m = IjtpModule::new(100, 5);
        m.post_rcv_data(&pkt(7, 0.0, u32::MAX));
        let mut ack = AckPacket {
            flow: FlowId(1),
            cum_ack: 7,
            snack: vec![crate::packet::SeqRange::single(7)],
            locally_recovered: vec![],
            rate_pps: 2.0,
            energy_budget_nj: 1_000_000,
            timeout: jtp_sim::SimDuration::from_secs(10),
        };
        // First node on the return path serves it…
        let rtx1 = m.post_rcv_ack(&mut ack);
        assert_eq!(rtx1.len(), 1);
        // …an upstream node with the same packet cached must not.
        let mut upstream = IjtpModule::new(100, 5);
        upstream.post_rcv_data(&pkt(7, 0.0, u32::MAX));
        let rtx2 = upstream.post_rcv_ack(&mut ack);
        assert!(rtx2.is_empty(), "duplicate local retransmission");
    }

    #[test]
    fn jnc_mode_never_recovers() {
        let mut m = IjtpModule::new(0, 5);
        m.post_rcv_data(&pkt(7, 0.0, u32::MAX));
        let mut ack = AckPacket {
            flow: FlowId(1),
            cum_ack: 0,
            snack: vec![crate::packet::SeqRange::single(7)],
            locally_recovered: vec![],
            rate_pps: 2.0,
            energy_budget_nj: 1_000_000,
            timeout: jtp_sim::SimDuration::from_secs(10),
        };
        assert!(m.post_rcv_ack(&mut ack).is_empty());
        assert!(ack.wants_retransmission(7));
    }
}
