//! Property-based tests of the JTP core invariants.

use jtp::cache::CacheStats;
use jtp::packet::{compress_ranges, expand_ranges, AckPacket, DataPacket, SeqRange};
use jtp::reliability::{
    achieved_success, max_attempts_for, per_hop_success_target, update_loss_tolerance,
};
use jtp::{CachePolicy, JtpConfig, PacketCache};
use jtp_sim::{FlowId, SimDuration};
use proptest::prelude::*;
use std::collections::HashMap;

fn arb_ranges(max_len: usize) -> impl Strategy<Value = Vec<SeqRange>> {
    proptest::collection::vec((0u32..100_000, 0u32..50), 0..max_len).prop_map(|pairs| {
        // Build non-overlapping ascending ranges.
        let mut seqs: Vec<u32> = pairs
            .into_iter()
            .flat_map(|(s, l)| s..=s.saturating_add(l))
            .collect();
        seqs.sort_unstable();
        seqs.dedup();
        compress_ranges(&seqs)
    })
}

/// Reference model of `PacketCache`: the stamp-and-scan design the slab
/// and recency list replaced. Every entry carries the logical time it was
/// last manipulated; eviction scans for the smallest stamp (LRU, FIFO) or
/// the smallest `(priority, flow, seq)` (Random).
struct ModelCache {
    capacity: usize,
    policy: CachePolicy,
    clock: u64,
    map: HashMap<(u16, u32), (u64, DataPacket)>,
    stats: CacheStats,
}

/// The Random policy's FNV-style key priority.
fn model_priority(flow: u16, seq: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in flow.to_le_bytes().into_iter().chain(seq.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl ModelCache {
    fn new(capacity: usize, policy: CachePolicy) -> Self {
        ModelCache {
            capacity,
            policy,
            clock: 0,
            map: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    fn insert(&mut self, p: DataPacket) {
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        let key = (p.flow.0, p.seq);
        if self.map.insert(key, (self.clock, p)).is_none() {
            self.stats.insertions += 1;
            if self.map.len() > self.capacity {
                let policy = self.policy;
                let victim = *self
                    .map
                    .iter()
                    .min_by_key(|(&(flow, seq), &(stamp, _))| match policy {
                        CachePolicy::Random => (model_priority(flow, seq), flow, seq),
                        CachePolicy::Lru | CachePolicy::Fifo => (stamp, 0, 0),
                    })
                    .unwrap()
                    .0;
                self.map.remove(&victim);
                self.stats.evictions += 1;
            }
        }
    }

    fn lookup(&mut self, flow: u16, seq: u32) -> Option<DataPacket> {
        self.clock += 1;
        match self.map.get_mut(&(flow, seq)) {
            Some((stamp, p)) => {
                if self.policy == CachePolicy::Lru {
                    *stamp = self.clock;
                }
                self.stats.hits += 1;
                Some(p.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// compress/expand are inverses on sorted deduplicated input.
    #[test]
    fn ranges_compress_expand_inverse(mut seqs in proptest::collection::vec(any::<u32>(), 0..200)) {
        seqs.sort_unstable();
        seqs.dedup();
        let ranges = compress_ranges(&seqs);
        prop_assert_eq!(expand_ranges(&ranges), seqs);
        // Ranges are minimal: no two adjacent ranges touch.
        for w in ranges.windows(2) {
            prop_assert!(w[0].end + 1 < w[1].start);
        }
    }

    /// The attempt budget from eq. (2) really achieves the target success
    /// probability (or hits the cap).
    #[test]
    fn attempts_achieve_target(
        q in 0.0f64..0.999,
        p in 0.0f64..0.95,
        cap in 1u32..20,
    ) {
        let m = max_attempts_for(q, p, cap);
        prop_assert!(m >= 1 && m <= cap);
        let uncapped = max_attempts_for(q, p, 1000);
        if uncapped <= cap {
            prop_assert!(achieved_success(p, m) >= q - 1e-9,
                "m={} achieves {} < {}", m, achieved_success(p, m), q);
        }
    }

    /// Composing per-hop targets via eqs (3)+(4) never under-delivers the
    /// end-to-end requirement when each hop achieves its planned success.
    #[test]
    fn tolerance_composition_meets_e2e(
        e2e in 0.0f64..0.9,
        hops in 1u32..12,
    ) {
        let mut lt = e2e;
        let mut product = 1.0;
        for i in 0..hops {
            let remaining = hops - i;
            let q = per_hop_success_target(lt, remaining);
            product *= q;
            lt = update_loss_tolerance(lt, q);
            prop_assert!((0.0..=1.0).contains(&lt));
        }
        prop_assert!(product >= (1.0 - e2e) - 1e-9,
            "path success {} < required {}", product, 1.0 - e2e);
    }

    /// The loss tolerance field never grows along the path (budget is
    /// consumed, not manufactured) when hops meet their targets.
    #[test]
    fn tolerance_monotone_nonincreasing(
        e2e in 0.0f64..0.9,
        hops in 1u32..10,
        overachieve in 0.0f64..0.2,
    ) {
        let mut lt = e2e;
        for i in 0..hops {
            let remaining = hops - i;
            let q = (per_hop_success_target(lt, remaining) + overachieve).min(1.0);
            let next = update_loss_tolerance(lt, q);
            prop_assert!(next <= lt + 1e-12, "tolerance grew: {} -> {}", lt, next);
            lt = next;
        }
    }

    /// LRU cache never exceeds capacity and keeps the most recently
    /// manipulated entries.
    #[test]
    fn cache_capacity_and_recency(
        capacity in 1usize..40,
        ops in proptest::collection::vec((0u32..100, any::<bool>()), 1..300),
    ) {
        let mut cache = PacketCache::new(capacity);
        let mk = |seq: u32| DataPacket {
            flow: FlowId(1),
            seq,
            rate_pps: 1.0,
            loss_tolerance: 0.0,
            remaining_hops: 1,
            energy_budget_nj: 1,
            energy_used_nj: 0,
            deadline_ms: 0,
            payload_len: 100,
        };
        let mut last_touched = None;
        for (seq, is_insert) in ops {
            if is_insert {
                cache.insert(mk(seq));
                last_touched = Some(seq);
            } else if cache.lookup(FlowId(1), seq).is_some() {
                last_touched = Some(seq);
            }
            prop_assert!(cache.len() <= capacity);
        }
        // The most recently manipulated entry is always present.
        if let Some(seq) = last_touched {
            prop_assert!(cache.contains(FlowId(1), seq));
        }
    }

    /// The cache evicts exactly what the stamp-and-scan model evicts, under
    /// every policy: after each insert, re-insert or lookup, every key's
    /// presence, the length and the counters agree, and lookups return the
    /// most recently inserted copy of a packet.
    #[test]
    fn cache_matches_stamp_and_scan_model(
        capacity in 0usize..40,
        policy in 0usize..3,
        flows in 1u16..4,
        ops in proptest::collection::vec((any::<bool>(), 0u16..3, 0u32..50, any::<u16>()), 1..300),
    ) {
        let policy = [CachePolicy::Lru, CachePolicy::Fifo, CachePolicy::Random][policy];
        let mut cache = PacketCache::with_policy(capacity, policy);
        let mut model = ModelCache::new(capacity, policy);
        for (step, (is_insert, flow, seq, payload_len)) in ops.into_iter().enumerate() {
            let flow = flow % flows;
            if is_insert {
                let p = DataPacket {
                    flow: FlowId(flow),
                    seq,
                    rate_pps: 1.0,
                    loss_tolerance: 0.0,
                    remaining_hops: 1,
                    energy_budget_nj: 1,
                    energy_used_nj: 0,
                    deadline_ms: 0,
                    payload_len,
                };
                cache.insert(p.clone());
                model.insert(p);
            } else {
                prop_assert_eq!(
                    cache.lookup(FlowId(flow), seq),
                    model.lookup(flow, seq),
                    "step {}: lookup of ({}, {})", step, flow, seq
                );
            }
            prop_assert_eq!(cache.len(), model.map.len(), "step {}", step);
            prop_assert_eq!(cache.stats(), model.stats, "step {}", step);
            for f in 0..flows {
                for s in 0..50 {
                    prop_assert_eq!(
                        cache.contains(FlowId(f), s),
                        model.map.contains_key(&(f, s)),
                        "step {}: {:?} cap {}, key ({}, {})", step, policy, capacity, f, s
                    );
                }
            }
        }
    }

    /// mark_locally_recovered conserves the SNACK+recovered universe.
    #[test]
    fn snack_recovery_conserves_sequences(
        snack in arb_ranges(6),
        picks in proptest::collection::vec(any::<u32>(), 0..30),
    ) {
        let mut ack = AckPacket {
            flow: FlowId(1),
            cum_ack: 0,
            snack: snack.clone(),
            locally_recovered: vec![],
            rate_pps: 1.0,
            energy_budget_nj: 1,
            timeout: SimDuration::from_secs(1),
        };
        let universe: std::collections::BTreeSet<u32> =
            expand_ranges(&snack).into_iter().collect();
        for p in picks {
            ack.mark_locally_recovered(p);
        }
        let after: std::collections::BTreeSet<u32> = ack
            .snack_seqs()
            .into_iter()
            .chain(ack.recovered_seqs())
            .collect();
        prop_assert_eq!(universe, after);
        // Recovered and snack are disjoint.
        for s in ack.recovered_seqs() {
            prop_assert!(!ack.wants_retransmission(s));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A sender paced at any rate never violates its pacing gap.
    #[test]
    fn sender_pacing_gap(rate in 0.5f64..40.0, n in 2u32..40) {
        use jtp::JtpSender;
        use jtp_sim::SimTime;
        let cfg = JtpConfig {
            initial_rate_pps: rate,
            ..Default::default()
        };
        let mut s = JtpSender::new(FlowId(1), n, 0.0, cfg);
        let mut t = SimTime::ZERO;
        let mut last_emit: Option<SimTime> = None;
        let gap_us = (1e6 / rate) as u64;
        for _ in 0..(n as usize * 4) {
            if let Some(_p) = s.poll_send(t) {
                if let Some(prev) = last_emit {
                    let elapsed = t.since(prev).as_micros();
                    prop_assert!(elapsed + 1 >= gap_us,
                        "emitted after {} us, gap {} us", elapsed, gap_us);
                }
                last_emit = Some(t);
            }
            t += SimDuration::from_micros(gap_us / 3 + 1);
        }
    }
}
