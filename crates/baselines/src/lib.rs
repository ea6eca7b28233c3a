//! # jtp-baselines — comparison transport protocols
//!
//! The two representatives the paper evaluates JTP against (§6.1):
//!
//! * [`tcp`] — **TCP-SACK, rate-based flavour**: *"the rate of each flow is
//!   set by the well-known throughput equation of TCP \[Padhye et al.\]
//!   … we used delayed ACKs (one ACK every two packets) … The SACK version
//!   helps TCP selectively retransmit lost packets only."* Window-induced
//!   burstiness is removed (TCP-pacing-style), exactly as the paper does to
//!   make the comparison more competitive.
//! * [`atp`] — **ATP-like explicit-rate transport**: *"adjusts the sending
//!   rate based on explicit feedback collected by intermediate nodes,
//!   supports only end-to-end recovery, and has constant-rate feedback
//!   from the receiver. The feedback period is set to be larger than RTT."*
//!
//! Beyond the paper's 2007-era pair, two modern opponents give JTP a
//! contemporary comparison set:
//!
//! * [`cubic`] — **CUBIC (RFC 8312)**: the default loss-based controller
//!   of Linux/Windows; window curve `W(t) = C·(t−K)³ + W_max` with fast
//!   convergence and the TCP-friendly region, paced at `cwnd/srtt`.
//! * [`bbr`] — **BBR (model-based)**: windowed max-bandwidth / min-RTT
//!   path model, Startup→Drain→ProbeBw pacing-gain cycling, inflight
//!   capped at `cwnd_gain × BDP`; loss does not modulate the rate.
//!
//! TCP, CUBIC and BBR share one SACK core, [`sack`]: the TCP wire format,
//! one delayed-ACK receiver and one sender scoreboard with RFC 6675 loss
//! inference and an RTO. Each sender adds only its congestion reaction.
//!
//! All four support only 100 %-reliability transfers (0 % loss
//! tolerance), so the cross-protocol experiments use bulk transfers with
//! full reliability, as in the paper. None uses in-network caching or
//! per-packet MAC budgets — intermediate nodes simply forward, with the
//! MAC's default attempt cap.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atp;
pub mod bbr;
pub mod cubic;
pub mod sack;
pub mod tcp;

pub use atp::{AtpConfig, AtpFeedback, AtpReceiver, AtpSender};
pub use bbr::{BbrConfig, BbrPhase, BbrSender};
pub use cubic::{CubicConfig, CubicSender};
pub use sack::{TcpAck, TcpData, TcpReceiver};
pub use tcp::{TcpConfig, TcpSender};
