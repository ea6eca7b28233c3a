//! Criterion micro-benchmarks of the hot paths: the event queue, packet
//! codecs, reliability math, LRU cache, flip-flop monitor and the TDMA
//! schedule.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use jtp::packet::{AckPacket, DataPacket, SeqRange};
use jtp::{FlipFlopMonitor, PacketCache};
use jtp_mac::TdmaSchedule;
use jtp_sim::{EventQueue, FlowId, SimDuration, SimTime};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue/schedule_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1000u64 {
                // Scatter times deterministically.
                q.schedule_at(SimTime::from_micros((i * 7919) % 100_000), i);
            }
            let mut count = 0;
            while q.pop().is_some() {
                count += 1;
            }
            black_box(count)
        })
    });
}

fn bench_codecs(c: &mut Criterion) {
    let pkt = DataPacket {
        flow: FlowId(3),
        seq: 1234,
        rate_pps: 2.5,
        loss_tolerance: 0.10,
        remaining_hops: 4,
        energy_budget_nj: 5_000_000,
        energy_used_nj: 1_200_000,
        deadline_ms: 0,
        payload_len: 800,
    };
    c.bench_function("codec/data_encode", |b| {
        b.iter(|| black_box(pkt.to_bytes()))
    });
    let bytes = pkt.to_bytes();
    c.bench_function("codec/data_decode", |b| {
        b.iter(|| black_box(DataPacket::decode(&bytes).unwrap()))
    });
    let ack = AckPacket {
        flow: FlowId(3),
        cum_ack: 100,
        snack: (0..10).map(|i| SeqRange::single(100 + i * 3)).collect(),
        locally_recovered: (0..5).map(|i| SeqRange::single(200 + i * 3)).collect(),
        rate_pps: 3.25,
        energy_budget_nj: 7_000_000,
        timeout: SimDuration::from_secs(10),
    };
    c.bench_function("codec/ack_roundtrip", |b| {
        b.iter(|| {
            let bytes = ack.to_bytes();
            black_box(AckPacket::decode(&bytes).unwrap())
        })
    });
}

fn bench_reliability(c: &mut Criterion) {
    c.bench_function("reliability/attempt_budget", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for hops in 1..8u32 {
                for p in [0.05f64, 0.2, 0.5] {
                    let q = jtp::reliability::per_hop_success_target(black_box(0.1), hops);
                    acc += jtp::reliability::max_attempts_for(q, p, 5);
                }
            }
            black_box(acc)
        })
    });
}

fn bench_cache(c: &mut Criterion) {
    let mk = |seq: u32| DataPacket {
        flow: FlowId(1),
        seq,
        rate_pps: 1.0,
        loss_tolerance: 0.0,
        remaining_hops: 1,
        energy_budget_nj: 1,
        energy_used_nj: 0,
        deadline_ms: 0,
        payload_len: 800,
    };
    c.bench_function("cache/insert_lookup_1k", |b| {
        b.iter(|| {
            let mut cache = PacketCache::new(256);
            for s in 0..1000u32 {
                cache.insert(mk(s));
                if s % 3 == 0 {
                    black_box(cache.lookup(FlowId(1), s / 2));
                }
            }
            black_box(cache.len())
        })
    });
    // Table 1's capacity, filled five times over: after the first 1 000
    // inserts every insert also evicts, the steady state of a relay on a
    // busy chain. Every lookup hits mid-list and moves the entry.
    c.bench_function("cache/steady_state_table1_5k", |b| {
        b.iter(|| {
            let mut cache = PacketCache::new(1000);
            for s in 0..5000u32 {
                cache.insert(mk(s));
                if s % 3 == 0 {
                    black_box(cache.lookup(FlowId(1), s.saturating_sub(500)));
                }
            }
            black_box(cache.len())
        })
    });
}

fn bench_monitor(c: &mut Criterion) {
    c.bench_function("monitor/flipflop_1k_samples", |b| {
        b.iter(|| {
            let mut m = FlipFlopMonitor::new(0.1, 0.1, 0.6, 3);
            for i in 0..1000 {
                let x = if i % 100 < 90 { 4.0 } else { 1.0 };
                black_box(m.observe(x + (i % 7) as f64 * 0.01));
            }
            black_box(m.mean())
        })
    });
}

fn bench_schedule(c: &mut Criterion) {
    c.bench_function("tdma/owner_10k_slots", |b| {
        b.iter(|| {
            let mut s = TdmaSchedule::new(25, SimDuration::from_millis(25), 42);
            let mut acc = 0u32;
            for slot in 0..10_000u64 {
                acc = acc.wrapping_add(s.owner(slot).0);
            }
            black_box(acc)
        })
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_codecs,
    bench_reliability,
    bench_cache,
    bench_monitor,
    bench_schedule
);
criterion_main!(benches);
