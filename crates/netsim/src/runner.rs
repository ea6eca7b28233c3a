//! Experiment execution: single runs, traced runs and multi-seed batches
//! with 95 % confidence intervals (the paper averages 10–20 independent
//! runs per point).
//!
//! Batches run replicas in parallel with scoped OS threads over a shared
//! work counter, so any number of seeds saturates every core without an
//! external thread-pool dependency. Determinism: each replica depends only
//! on its own seed, so batch results are independent of thread scheduling.

use crate::config::{ConfigError, ExperimentConfig};
use crate::metrics::Metrics;
use crate::network::Network;
use crate::trace::{TraceConfig, TraceSubscriber};
use jtp_events::{NoopSubscriber, Subscriber};
use jtp_sim::run_until;
use jtp_sim::stats::ci95_halfwidth;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run one experiment to completion and return its metrics — the
/// convenience for configurations known to be valid.
///
/// Panics on an invalid configuration; [`try_run_subscribed`] reports
/// the [`ConfigError`] instead.
pub fn run_experiment(cfg: &ExperimentConfig) -> Metrics {
    // `NoopSubscriber` monomorphizes every event emission away — this is
    // the zero-overhead hot path.
    try_run_subscribed(cfg, NoopSubscriber)
        .expect("invalid experiment configuration")
        .0
}

/// Run one experiment with an event [`Subscriber`] attached and return it
/// alongside the metrics, or the [`ConfigError`] of an invalid or
/// unplaceable configuration — the core every run goes through.
/// Subscribers observe the run; they never perturb it (enforced by the
/// subscriber-equivalence tests). A traced run passes a
/// [`TraceSubscriber`] and keeps its `into_log()`.
pub fn try_run_subscribed<S: Subscriber>(
    cfg: &ExperimentConfig,
    sub: S,
) -> Result<(Metrics, S), ConfigError> {
    let (mut net, mut queue) = Network::try_with_subscriber(cfg, sub)?;
    let horizon = net.horizon();
    run_until(&mut net, &mut queue, horizon);
    // Account any TDMA slots the idle-skipping engine elided at the tail.
    net.finalize(horizon);
    // Deterministic harvest time: if every flow completed, the drain time
    // of the queue (identical with idle-slot skipping on or off, since
    // only no-op events remain pending at completion); otherwise the
    // configured horizon — incomplete flows were active to the end.
    let now = if net.all_flows_completed() {
        queue.now().min(horizon)
    } else {
        horizon
    };
    let m = net.metrics(now);
    Ok((m, net.into_subscriber()))
}

/// A batch summary of one scalar metric across independent seeds.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Sample mean.
    pub mean: f64,
    /// 95 % confidence half-width.
    pub ci95: f64,
    /// Number of runs.
    pub runs: usize,
}

impl Summary {
    /// Summarise a sample set.
    pub fn of(samples: &[f64]) -> Summary {
        let mean = if samples.is_empty() {
            0.0
        } else {
            samples.iter().sum::<f64>() / samples.len() as f64
        };
        Summary {
            mean,
            ci95: ci95_halfwidth(samples),
            runs: samples.len(),
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.4} ± {:.4}", self.mean, self.ci95)
    }
}

/// Run `runs` independent replicas (seeds `base_seed..base_seed+runs`) in
/// parallel across all available cores, work-stealing style: threads pull
/// the next replica index from a shared atomic counter, so uneven replica
/// durations don't leave cores idle the way fixed chunking does.
pub fn run_many(cfg: &ExperimentConfig, runs: usize) -> Vec<Metrics> {
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4);
    run_many_on(cfg, runs, threads)
}

/// [`run_many`] with an explicit thread count (1 = fully sequential).
/// Results are identical for any thread count; exposed so the parallel
/// path stays testable on single-core machines.
pub fn run_many_on(cfg: &ExperimentConfig, runs: usize, threads: usize) -> Vec<Metrics> {
    assert!(runs >= 1 && threads >= 1);
    let threads = threads.min(runs);
    if threads == 1 {
        return (0..runs)
            .map(|i| {
                let mut c = cfg.clone();
                c.seed = cfg.seed.wrapping_add(i as u64);
                run_experiment(&c)
            })
            .collect();
    }
    let next = AtomicUsize::new(0);
    let out: Vec<Mutex<Option<Metrics>>> = (0..runs).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= runs {
                    break;
                }
                let mut c = cfg.clone();
                c.seed = cfg.seed.wrapping_add(i as u64);
                let m = run_experiment(&c);
                *out[i].lock().expect("replica slot") = Some(m);
            });
        }
    });
    out.into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot lock")
                .expect("all replicas ran")
        })
        .collect()
}

/// A compact, byte-stable fingerprint of one run: the headline metrics a
/// human compares, plus two checksums that pin *everything* — the full
/// metrics encoding and the trace event stream. Golden-trace regression
/// tests commit one digest line per canonical scenario; any engine change
/// that perturbs observable behaviour flips at least one field.
#[derive(Clone, Debug, PartialEq)]
pub struct GoldenDigest {
    /// Distinct packets delivered.
    pub delivered: u64,
    /// Fraction of offered packets delivered.
    pub delivery_ratio: f64,
    /// Mean per-flow goodput (kbit/s).
    pub goodput_kbps: f64,
    /// Energy per delivered bit (µJ/bit).
    pub energy_per_bit_uj: f64,
    /// FNV-1a over the full JSON encoding of [`Metrics`] (every counter,
    /// every per-node energy bit pattern).
    pub metrics_fnv: u64,
    /// [`TraceLog::checksum`](crate::trace::TraceLog::checksum) of the
    /// reception event stream.
    pub trace_checksum: u64,
}

impl GoldenDigest {
    /// One-line encoding (space-separated, fixed field order) used by the
    /// committed golden file.
    pub fn to_line(&self, name: &str) -> String {
        format!(
            "{name} delivered={} ratio={:.6} goodput={:.6} epb={:.6} metrics={:016x} trace={:016x}",
            self.delivered,
            self.delivery_ratio,
            self.goodput_kbps,
            self.energy_per_bit_uj,
            self.metrics_fnv,
            self.trace_checksum,
        )
    }
}

/// Run `cfg` with reception tracing and digest the outcome (see
/// [`GoldenDigest`]), with `extra` stacked next to the digest's reception
/// trace and handed back. The digest is computed from the trace half of
/// the stack alone, so it must be byte-identical for any `extra` — the
/// subscriber-equivalence tests and the fuzz oracle pin exactly that.
/// Pass [`NoopSubscriber`] for the plain digest, or
/// [`EventChecksum`](crate::trace::EventChecksum) for the third golden
/// surface (`events.txt`) next to the metrics FNV and reception-trace
/// checksum.
pub fn try_run_digest_with<S: Subscriber>(
    cfg: &ExperimentConfig,
    extra: S,
) -> Result<(GoldenDigest, S), ConfigError> {
    let trace = TraceSubscriber::new(TraceConfig {
        receptions: true,
        ..Default::default()
    });
    let (m, (trace, extra)) = try_run_subscribed(cfg, (trace, extra))?;
    let json = serde_json::to_string(&m).expect("metrics serialise");
    let mut fnv = crate::trace::Fnv64::default();
    fnv.write(json.as_bytes());
    let digest = GoldenDigest {
        delivered: m.delivered_packets,
        delivery_ratio: m.delivery_ratio(),
        goodput_kbps: m.avg_goodput_kbps(),
        energy_per_bit_uj: m.energy_per_bit_uj(),
        metrics_fnv: fnv.finish(),
        trace_checksum: trace.log().checksum(),
    };
    Ok((digest, extra))
}

/// Convenience: batch-run and summarise energy-per-bit and goodput, the
/// paper's two headline metrics.
pub fn summarize_runs(metrics: &[Metrics]) -> (Summary, Summary) {
    let epb: Vec<f64> = metrics
        .iter()
        .map(|m| m.energy_per_bit_uj())
        .filter(|v| v.is_finite())
        .collect();
    let gp: Vec<f64> = metrics.iter().map(|m| m.avg_goodput_kbps()).collect();
    (Summary::of(&epb), Summary::of(&gp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExperimentConfig, TransportKind};

    #[test]
    fn summary_of_samples() {
        let s = Summary::of(&[2.0, 4.0, 6.0]);
        assert!((s.mean - 4.0).abs() < 1e-12);
        assert!(s.ci95 > 0.0);
        assert_eq!(s.runs, 3);
        let empty = Summary::of(&[]);
        assert_eq!(empty.mean, 0.0);
        assert_eq!(empty.runs, 0);
        assert!(format!("{s}").contains('±'));
    }

    #[test]
    fn run_many_uses_distinct_seeds_and_is_deterministic() {
        let cfg = ExperimentConfig::linear(3)
            .transport(TransportKind::Jtp)
            .duration_s(200.0)
            .seed(55)
            .bulk_flow(20, 2.0, 0.0);
        let a = run_many(&cfg, 3);
        let b = run_many(&cfg, 3);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.mac_attempts, y.mac_attempts, "batch not reproducible");
        }
        // Replica 0 must equal a direct run with the same seed.
        let direct = run_experiment(&cfg);
        assert_eq!(a[0].mac_attempts, direct.mac_attempts);
        // Different replicas see different channel realisations.
        assert!(
            a.iter().any(|m| m.mac_attempts != a[0].mac_attempts) || a[0].delivered_packets == 0,
            "all replicas identical — seeds not varied"
        );
    }

    #[test]
    fn parallel_path_matches_sequential() {
        // Force the scoped-thread work-stealing path even on single-core
        // machines; replicas must be identical to the sequential path.
        let cfg = ExperimentConfig::linear(3)
            .transport(TransportKind::Jtp)
            .duration_s(150.0)
            .seed(60)
            .bulk_flow(15, 2.0, 0.0);
        let seq = run_many_on(&cfg, 4, 1);
        let par = run_many_on(&cfg, 4, 3);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.mac_attempts, b.mac_attempts);
            assert_eq!(a.delivered_packets, b.delivered_packets);
            assert_eq!(a.energy_total_j.to_bits(), b.energy_total_j.to_bits());
        }
    }

    #[test]
    fn summarize_runs_filters_infinite_energy() {
        let cfg = ExperimentConfig::linear(3)
            .transport(TransportKind::Jtp)
            .duration_s(150.0)
            .seed(56)
            .bulk_flow(10, 2.0, 0.0);
        let ms = run_many(&cfg, 2);
        let (epb, gp) = summarize_runs(&ms);
        assert!(epb.mean.is_finite());
        assert!(gp.mean >= 0.0);
    }

    #[test]
    fn traced_and_untraced_runs_agree() {
        let cfg = ExperimentConfig::linear(4)
            .transport(TransportKind::Jtp)
            .duration_s(300.0)
            .seed(57)
            .bulk_flow(30, 2.0, 0.0);
        let plain = run_experiment(&cfg);
        let trace = TraceSubscriber::new(TraceConfig {
            receptions: true,
            ..Default::default()
        });
        let (traced, sub) = try_run_subscribed(&cfg, trace).expect("valid config");
        let log = sub.into_log();
        assert_eq!(
            plain.mac_attempts, traced.mac_attempts,
            "tracing must not perturb"
        );
        assert_eq!(log.receptions.len() as u64, traced.delivered_packets);
    }
}
