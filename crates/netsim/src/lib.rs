//! # jtp-netsim — network assembly, workloads, metrics
//!
//! Glues the substrates into runnable experiments:
//!
//! * [`config`] — experiment descriptions with builders
//!   ([`ExperimentConfig::linear`], [`ExperimentConfig::random`], …),
//! * [`topology`] — node placement and ground-truth connectivity,
//! * [`network`] — the assembled simulation (nodes = MAC + iJTP + energy
//!   meter; TDMA slots; routing; per-protocol endpoints),
//! * [`scenario`] — the declarative scenario engine: traffic patterns ×
//!   substrate dynamics × topologies, lowered onto [`ExperimentConfig`],
//! * [`runner`] — single runs, traced runs, parallel multi-seed batches
//!   with confidence intervals, and golden-trace digests,
//! * [`metrics`] — energy-per-bit, goodput and mechanism counters,
//! * [`trace`] — time-series instrumentation for the paper's trace
//!   figures,
//! * [`report`] — netbench-style per-scenario reports (deterministic
//!   JSON + markdown) folded from the `jtp_events` subscriber stream.
//!
//! ```
//! use jtp_netsim::{ExperimentConfig, TransportKind, run_experiment};
//!
//! let cfg = ExperimentConfig::linear(4)
//!     .transport(TransportKind::Jtp)
//!     .duration_s(400.0)
//!     .seed(3)
//!     .bulk_flow(50, 5.0, 0.0);
//! let m = run_experiment(&cfg);
//! assert!(m.delivered_packets >= 50);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
mod endpoint;
pub mod fuzz;
pub mod metrics;
pub mod network;
pub mod payload;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod topology;
pub mod trace;
pub mod truth;

pub use config::{
    ConfigError, DynamicsAction, DynamicsEvent, EnergyRoutingConfig, ExperimentConfig, FlowSpec,
    MobilityConfig, RoutingBackendKind, TopologyKind, TransportKind,
};
pub use fuzz::{
    check_scenario, shrink_scenario, CaseOutcome, CaseReport, GeneratedCase, ScenarioGen,
};
pub use metrics::{FlowMetrics, Metrics};
pub use network::{cluster_spec_for, Event, Network};
pub use report::{
    render_markdown, try_run_report, FlowReport, ReportRecorder, ScenarioReport, TimeBreakdown,
};
pub use runner::{
    run_experiment, run_many, run_many_on, summarize_runs, try_run_digest_with, try_run_subscribed,
    GoldenDigest, Summary,
};
pub use scenario::{DynamicsSpec, Scenario, TrafficPattern};
pub use trace::{EventChecksum, TraceConfig, TraceLog, TraceSubscriber};
pub use truth::MaskedTruth;
