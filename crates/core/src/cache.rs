//! The in-network packet cache (§4 of the paper).
//!
//! Every intermediate node temporarily stores traversing data packets so a
//! lost packet can be recovered "as close to the receiver as possible"
//! instead of from the source. Eviction is **LRU** — "the packet evicted
//! from the cache is the least recently manipulated" — where *manipulated*
//! means inserted **or** served for a retransmission request.
//!
//! The cache is soft state: nothing breaks if entries vanish (the source
//! still holds every unacknowledged packet, preserving the end-to-end
//! argument); a hit merely saves upstream transmissions.
//!
//! Storage is a slab of slots, grown on demand and recycled through a free
//! list, a `HashMap` from [`CacheKey`] to slot, and a doubly linked recency
//! list threaded through the slots, least recently manipulated at the
//! head. Inserting, re-inserting or serving an entry moves it to the tail,
//! and LRU and FIFO evict the head, so insert, evict and lookup are O(1)
//! for both. Only the Random policy scans the live entries to evict.

use crate::packet::DataPacket;
use jtp_sim::FlowId;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Key identifying a cached packet.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey {
    /// Flow the packet belongs to.
    pub flow: FlowId,
    /// Sequence number within the flow.
    pub seq: u32,
}

/// Eviction policy. The paper uses LRU and names the study of
/// alternatives as future work (§4); the alternatives are implemented
/// here so the `ablation` harness can compare them.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CachePolicy {
    /// Least-recently-manipulated (inserted or served) — the paper's
    /// choice: "it is unlikely that those packets not recently requested
    /// for retransmission would be ever requested in the future".
    #[default]
    Lru,
    /// First-in first-out: age of insertion only; serving a request does
    /// not protect an entry.
    Fifo,
    /// Evict the entry with the deterministic pseudo-random smallest
    /// priority (hash of key) — a baseline strategy with no recency
    /// signal at all.
    Random,
}

/// Counters exposed for the experiment harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Packets inserted.
    pub insertions: u64,
    /// Retransmission requests answered from the cache.
    pub hits: u64,
    /// Retransmission requests that missed.
    pub misses: u64,
    /// Entries evicted by LRU pressure.
    pub evictions: u64,
}

/// End-of-list marker for the recency links.
const NIL: u32 = u32::MAX;

/// One slab entry: a cached packet and its neighbours in recency order.
#[derive(Clone, Debug)]
struct Slot {
    packet: DataPacket,
    prev: u32,
    next: u32,
}

/// In-network cache of data packets, bounded by a packet-count capacity
/// (Table 1 default: 1000 packets), with a configurable eviction policy
/// (LRU by default, as in the paper).
#[derive(Clone, Debug)]
pub struct PacketCache {
    capacity: usize,
    policy: CachePolicy,
    /// Entry storage. A freed slot keeps its stale packet until `free`
    /// hands it out again.
    slots: Vec<Slot>,
    free: Vec<u32>,
    index: HashMap<CacheKey, u32>,
    /// Least recently manipulated entry (oldest insertion under FIFO).
    head: u32,
    /// Most recently manipulated entry.
    tail: u32,
    stats: CacheStats,
}

/// Deterministic priority for the Random policy (FNV-style key hash).
fn key_priority(k: &CacheKey) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in k
        .flow
        .0
        .to_le_bytes()
        .into_iter()
        .chain(k.seq.to_le_bytes())
    {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn key_of(packet: &DataPacket) -> CacheKey {
    CacheKey {
        flow: packet.flow,
        seq: packet.seq,
    }
}

impl PacketCache {
    /// Create an LRU cache holding at most `capacity` packets. A capacity
    /// of 0 disables caching entirely (the paper's JNC variant).
    pub fn new(capacity: usize) -> Self {
        Self::with_policy(capacity, CachePolicy::Lru)
    }

    /// Create with an explicit eviction policy.
    pub fn with_policy(capacity: usize, policy: CachePolicy) -> Self {
        PacketCache {
            capacity,
            policy,
            slots: Vec::new(),
            free: Vec::new(),
            index: HashMap::new(),
            head: NIL,
            tail: NIL,
            stats: CacheStats::default(),
        }
    }

    /// The configured eviction policy.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    fn unlink(&mut self, i: u32) {
        let Slot { prev, next, .. } = self.slots[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_back(&mut self, i: u32) {
        let slot = &mut self.slots[i as usize];
        slot.prev = self.tail;
        slot.next = NIL;
        match self.tail {
            NIL => self.head = i,
            t => self.slots[t as usize].next = i,
        }
        self.tail = i;
    }

    /// Mark slot `i` as the most recently manipulated entry.
    fn touch(&mut self, i: u32) {
        if self.tail != i {
            self.unlink(i);
            self.push_back(i);
        }
    }

    /// Insert (or refresh) a traversing packet, evicting per policy when
    /// full. Refreshing replaces the stored packet and makes it the most
    /// recently manipulated entry under every policy.
    pub fn insert(&mut self, packet: DataPacket) {
        if self.capacity == 0 {
            return;
        }
        match self.index.entry(key_of(&packet)) {
            Entry::Occupied(e) => {
                let i = *e.get();
                self.slots[i as usize].packet = packet;
                self.touch(i);
            }
            Entry::Vacant(e) => {
                let slot = Slot {
                    packet,
                    prev: NIL,
                    next: NIL,
                };
                let i = match self.free.pop() {
                    Some(i) => {
                        self.slots[i as usize] = slot;
                        i
                    }
                    None => {
                        self.slots.push(slot);
                        u32::try_from(self.slots.len() - 1).expect("cache slot index fits u32")
                    }
                };
                e.insert(i);
                self.push_back(i);
                self.stats.insertions += 1;
                if self.index.len() > self.capacity {
                    self.evict_one();
                }
            }
        }
    }

    /// Evict one entry; only called when the cache holds more than
    /// `capacity >= 1` entries, so the list is not empty.
    fn evict_one(&mut self) {
        let victim = match self.policy {
            // Lru and Fifo both evict the head; they differ in whether
            // lookups move an entry to the tail (see `lookup`).
            CachePolicy::Lru | CachePolicy::Fifo => self.head,
            // Ties on the hash fall back to the key, a total order, so the
            // victim never depends on hash-map iteration order.
            CachePolicy::Random => std::iter::successors(Some(self.head), |&i| {
                Some(self.slots[i as usize].next).filter(|&n| n != NIL)
            })
            .min_by_key(|&i| {
                let k = key_of(&self.slots[i as usize].packet);
                (key_priority(&k), k.flow, k.seq)
            })
            .expect("evicting from a non-empty cache"),
        };
        self.index
            .remove(&key_of(&self.slots[victim as usize].packet));
        self.unlink(victim);
        self.free.push(victim);
        self.stats.evictions += 1;
    }

    /// Look up a packet for retransmission. Under LRU a hit refreshes
    /// recency (the "recently manipulated" rule); FIFO/Random do not.
    pub fn lookup(&mut self, flow: FlowId, seq: u32) -> Option<DataPacket> {
        let Some(&i) = self.index.get(&CacheKey { flow, seq }) else {
            self.stats.misses += 1;
            return None;
        };
        if self.policy == CachePolicy::Lru {
            self.touch(i);
        }
        self.stats.hits += 1;
        Some(self.slots[i as usize].packet.clone())
    }

    /// Peek without affecting recency or stats (used by tests/inspection).
    pub fn contains(&self, flow: FlowId, seq: u32) -> bool {
        self.index.contains_key(&CacheKey { flow, seq })
    }

    /// Number of cached packets.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Capacity in packets.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(flow: u16, seq: u32) -> DataPacket {
        DataPacket {
            flow: FlowId(flow),
            seq,
            rate_pps: 1.0,
            loss_tolerance: 0.0,
            remaining_hops: 2,
            energy_budget_nj: 1_000_000,
            energy_used_nj: 0,
            deadline_ms: 0,
            payload_len: 800,
        }
    }

    #[test]
    fn insert_then_lookup_hits() {
        let mut c = PacketCache::new(10);
        c.insert(pkt(1, 5));
        assert!(c.contains(FlowId(1), 5));
        let got = c.lookup(FlowId(1), 5).unwrap();
        assert_eq!(got.seq, 5);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn miss_counts() {
        let mut c = PacketCache::new(10);
        assert!(c.lookup(FlowId(1), 9).is_none());
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = PacketCache::new(3);
        c.insert(pkt(1, 0));
        c.insert(pkt(1, 1));
        c.insert(pkt(1, 2));
        // Touch 0 so 1 becomes the least recently manipulated.
        c.lookup(FlowId(1), 0);
        c.insert(pkt(1, 3));
        assert!(c.contains(FlowId(1), 0), "recently touched survives");
        assert!(!c.contains(FlowId(1), 1), "LRU evicted");
        assert!(c.contains(FlowId(1), 2));
        assert!(c.contains(FlowId(1), 3));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn reinsert_refreshes_not_duplicates() {
        let mut c = PacketCache::new(2);
        c.insert(pkt(1, 0));
        c.insert(pkt(1, 1));
        c.insert(pkt(1, 0)); // refresh
        c.insert(pkt(1, 2)); // should evict 1, not 0
        assert!(c.contains(FlowId(1), 0));
        assert!(!c.contains(FlowId(1), 1));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = PacketCache::new(0);
        c.insert(pkt(1, 0));
        assert!(c.is_empty());
        assert!(c.lookup(FlowId(1), 0).is_none());
        assert_eq!(c.stats().insertions, 0);
    }

    #[test]
    fn capacity_is_respected_under_pressure() {
        let mut c = PacketCache::new(5);
        for s in 0..100 {
            c.insert(pkt(1, s));
            assert!(c.len() <= 5);
        }
        assert_eq!(c.stats().evictions, 95);
        // The five most recent survive.
        for s in 95..100 {
            assert!(c.contains(FlowId(1), s));
        }
    }

    #[test]
    fn fifo_does_not_protect_served_entries() {
        let mut c = PacketCache::with_policy(3, CachePolicy::Fifo);
        c.insert(pkt(1, 0));
        c.insert(pkt(1, 1));
        c.insert(pkt(1, 2));
        // Touch 0: under FIFO this must NOT protect it.
        c.lookup(FlowId(1), 0);
        c.insert(pkt(1, 3));
        assert!(!c.contains(FlowId(1), 0), "FIFO evicts oldest insertion");
        assert!(c.contains(FlowId(1), 1));
    }

    #[test]
    fn random_policy_respects_capacity_and_is_deterministic() {
        let mut a = PacketCache::with_policy(4, CachePolicy::Random);
        let mut b = PacketCache::with_policy(4, CachePolicy::Random);
        for s in 0..50 {
            a.insert(pkt(1, s));
            b.insert(pkt(1, s));
            assert!(a.len() <= 4);
        }
        for s in 0..50 {
            assert_eq!(a.contains(FlowId(1), s), b.contains(FlowId(1), s));
        }
        assert_eq!(a.stats().evictions, 46);
    }

    #[test]
    fn policy_accessor() {
        assert_eq!(PacketCache::new(1).policy(), CachePolicy::Lru);
        assert_eq!(
            PacketCache::with_policy(1, CachePolicy::Fifo).policy(),
            CachePolicy::Fifo
        );
    }

    #[test]
    fn flows_do_not_collide() {
        let mut c = PacketCache::new(10);
        c.insert(pkt(1, 7));
        c.insert(pkt(2, 7));
        assert!(c.lookup(FlowId(1), 7).is_some());
        assert!(c.lookup(FlowId(2), 7).is_some());
        assert_eq!(c.len(), 2);
    }
}
