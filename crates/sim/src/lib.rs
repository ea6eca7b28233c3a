//! # jtp-sim — deterministic discrete-event simulation engine
//!
//! This crate is the substrate every other crate in the JTP reproduction runs
//! on. The paper evaluated JTP inside OPNET, a commercial discrete-event
//! simulator; this crate provides the equivalent core facilities:
//!
//! * [`time::SimTime`] / [`time::SimDuration`] — integer-microsecond
//!   simulated clock (no floating-point drift, totally ordered),
//! * [`event::EventQueue`] — a monotonic future-event list with
//!   deterministic FIFO tie-breaking for simultaneous events,
//! * [`engine`] — the generic run loop driving a [`engine::Simulation`],
//! * [`rng::SimRng`] — seedable RNG with independent derived substreams so
//!   that e.g. channel noise and workload arrivals don't perturb each other,
//! * [`stats`] — EWMA filters, Welford online moments, confidence intervals
//!   and time-weighted averages used by estimators and by the experiment
//!   harness.
//!
//! Everything is single-threaded and deterministic: running the same
//! simulation with the same seed produces byte-identical results. This is a
//! deliberate departure from async-runtime-based designs (tokio et al.): a
//! reproduction harness must be exactly repeatable, and there is no real I/O
//! to overlap. The style follows smoltcp's event-driven, poll-based idiom.
//! Parallelism lives one level up, across independent replicas (one
//! simulation per seed), never within a run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod ident;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{run_until, Simulation};
pub use event::{EventId, EventQueue};
pub use ident::{FlowId, NodeId};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
