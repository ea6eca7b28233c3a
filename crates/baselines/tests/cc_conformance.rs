//! Congestion-control conformance layer for the modern opponents.
//!
//! Unlike the white-box unit tests inside `cubic.rs` / `bbr.rs`, everything
//! here drives the senders through their *public wire contract only*
//! (`poll_send` / `on_ack` / `on_timer` / `next_wakeup`) and checks the
//! results against independently computed oracles:
//!
//! * CUBIC: the RFC 8312 window curve `W(t) = C(t−K)³ + W_origin`, the
//!   closed form `K = ∛(W_max(1−β)/C)`, the Reno-friendly slope
//!   `3(1−β)/(1+β)` per RTT, and hand-scripted SACK feeds pinning the
//!   exact `W_max` / `ssthresh` / `K` produced by loss episodes — with and
//!   without fast convergence.
//! * BBR: a hand-computed delivery-rate/RTprop trace pinning the filter
//!   math exactly, and a full Startup → Drain → ProbeBw phase walk over a
//!   symmetric fixed-delay link asserting the gain schedule.
//! * Properties (deterministic proptest stand-in): windows stay in
//!   `[1, cwnd_cap]`, rates stay in `[min_rate, max_rate]`, gains come
//!   only from the published schedule, phases never regress, and pacing
//!   never stalls — every flow completes under adversarial data loss.
//!
//! The in-test link harness mirrors the engine's sender-wakeup contract
//! (`network.rs` clamps re-arms to `now + 1 ms`), so a cap-blocked BBR
//! sender whose `next_send` is stale cannot spin the loop at one instant.

use jtp::packet::SeqRange;
use jtp_baselines::bbr::{self, BbrConfig, BbrPhase, BbrSender};
use jtp_baselines::cubic::{cubic_k, w_cubic, w_est, CubicConfig, CubicSender};
use jtp_baselines::{TcpAck, TcpReceiver};
use jtp_sim::{FlowId, SimDuration, SimTime};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Harness: one sender/receiver pair over a symmetric fixed-delay link.
// ---------------------------------------------------------------------------

/// Deterministic per-(seed, seq, attempt) drop coin: `pct` percent.
fn coin(seed: u64, seq: u32, attempt: u32, pct: u8) -> bool {
    let mut z = seed ^ ((seq as u64) << 32) ^ ((attempt as u64) << 8);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z % 100) < pct as u64
}

macro_rules! link_harness {
    ($fn_name:ident, $Sender:ty, $Receiver:ty, $Config:ty, $Data:ty, $Ack:ty) => {
        /// Run `total` packets over a lossless-ACK link with one-way delay
        /// `rtt/2`. Data segments are dropped when `drop_data(seq, attempt)`
        /// says so; `inspect(&sender, now)` runs after every processed ACK.
        /// Returns the sender plus whether the flow completed before
        /// `horizon` (false also covers a stall: nothing scheduled while
        /// incomplete).
        fn $fn_name(
            cfg: $Config,
            total: u32,
            rtt: SimDuration,
            horizon: SimTime,
            mut drop_data: impl FnMut(u32, u32) -> bool,
            mut inspect: impl FnMut(&$Sender, SimTime),
        ) -> ($Sender, bool) {
            enum Ev {
                Data($Data),
                Ack($Ack),
                Flush,
            }
            let flow = FlowId(1);
            let mut s = <$Sender>::new(flow, total, cfg.clone());
            let mut r = <$Receiver>::new(flow, cfg.delayed_ack_every);
            let half = SimDuration::from_micros(rtt.as_micros() / 2);
            let flush_delay = SimDuration::from_millis(200);
            let mut q: Vec<(SimTime, u64, Ev)> = Vec::new();
            let mut next_id = 0u64;
            let mut attempts = vec![0u32; total as usize];
            // Engine-mirrored wakeup clamp: re-arms are >= last service + 1ms.
            let mut floor = SimTime::ZERO;
            loop {
                if s.is_complete() {
                    return (s, true);
                }
                let sender_at = s.next_wakeup().map(|w| w.max(floor));
                let queue_at = q
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (t, id, _))| (*t, *id))
                    .map(|(i, (t, _, _))| (*t, i));
                let (now, service_queue) = match (sender_at, queue_at) {
                    (None, None) => return (s, false), // stalled while incomplete
                    (Some(sw), None) => (sw, None),
                    (None, Some((qt, i))) => (qt, Some(i)),
                    (Some(sw), Some((qt, i))) => {
                        if qt <= sw {
                            (qt, Some(i))
                        } else {
                            (sw, None)
                        }
                    }
                };
                if now > horizon {
                    return (s, false);
                }
                match service_queue {
                    None => {
                        s.on_timer(now);
                        while let Some(d) = s.poll_send(now) {
                            let a = &mut attempts[d.seq as usize];
                            *a += 1;
                            if !drop_data(d.seq, *a) {
                                q.push((now + half, next_id, Ev::Data(d)));
                                next_id += 1;
                            }
                        }
                        floor = now + SimDuration::from_millis(1);
                    }
                    Some(i) => match q.swap_remove(i).2 {
                        Ev::Data(d) => match r.on_data(now, &d) {
                            Some(ack) => {
                                q.push((now + half, next_id, Ev::Ack(ack)));
                                next_id += 1;
                            }
                            None => {
                                q.push((now + flush_delay, next_id, Ev::Flush));
                                next_id += 1;
                            }
                        },
                        Ev::Flush => {
                            if let Some(ack) = r.flush_ack() {
                                q.push((now + half, next_id, Ev::Ack(ack)));
                                next_id += 1;
                            }
                        }
                        Ev::Ack(ack) => {
                            s.on_ack(now, &ack);
                            inspect(&s, now);
                        }
                    },
                }
            }
        }
    };
}

link_harness!(
    run_cubic,
    CubicSender,
    TcpReceiver,
    CubicConfig,
    jtp_baselines::TcpData,
    TcpAck
);
link_harness!(
    run_bbr,
    BbrSender,
    TcpReceiver,
    BbrConfig,
    jtp_baselines::TcpData,
    TcpAck
);

/// Poll a scripted sender until `n` segments left, stepping time in 250 ms
/// increments so pacing never blocks the script.
fn pump_cubic(s: &mut CubicSender, t: &mut SimTime, n: u32) {
    let mut sent = 0;
    while sent < n {
        if s.poll_send(*t).is_some() {
            sent += 1;
        } else {
            *t += SimDuration::from_millis(250);
        }
    }
}

// ---------------------------------------------------------------------------
// CUBIC analytic oracles (RFC 8312).
// ---------------------------------------------------------------------------

/// The window curve and its inverse K, checked against the closed forms on
/// a parameter grid: `K = ∛(W_max(1−β)/C)` at the post-loss window
/// `β·W_max`, the curve passes through `β·W_max` at t=0 and `W_max` at
/// t=K, and the cubic is point-symmetric around its origin.
#[test]
fn cubic_curve_matches_rfc8312_closed_forms() {
    for &c in &[0.2, 0.4, 0.7] {
        for &w_max in &[10.0, 50.0, 200.0] {
            for &beta in &[0.5, 0.7, 0.9] {
                let k = cubic_k(c, w_max, beta * w_max);
                let k_closed = (w_max * (1.0 - beta) / c).cbrt();
                assert!((k - k_closed).abs() < 1e-12, "K {k} vs closed {k_closed}");
                assert!((w_cubic(c, 0.0, k, w_max) - beta * w_max).abs() < 1e-9);
                assert!((w_cubic(c, k, k, w_max) - w_max).abs() < 1e-12);
                for &d in &[0.1, 1.0, 3.0] {
                    let above = w_cubic(c, k + d, k, w_max) - w_max;
                    let below = w_max - w_cubic(c, k - d, k, w_max);
                    assert!((above - below).abs() < 1e-9, "cubic not symmetric");
                }
            }
        }
    }
}

/// The TCP-friendly estimate grows with the Reno slope `3(1−β)/(1+β)`
/// packets per RTT from `β·W_max` (RFC 8312 §4.2).
#[test]
fn cubic_tcp_friendly_region_has_reno_slope() {
    for &beta in &[0.5, 0.7, 0.9] {
        for &w_max in &[10.0, 80.0] {
            for &rtt in &[0.05, 0.5] {
                assert!((w_est(beta, w_max, 0.0, rtt) - beta * w_max).abs() < 1e-12);
                let slope = 3.0 * (1.0 - beta) / (1.0 + beta);
                for &t in &[0.0, 1.0, 7.5] {
                    let dw = w_est(beta, w_max, t + rtt, rtt) - w_est(beta, w_max, t, rtt);
                    assert!((dw - slope).abs() < 1e-9, "slope {dw} vs {slope}");
                }
            }
        }
    }
}

/// Scripted SACK feed through the public API pinning both loss episodes:
/// the first (plain β-decrease) sets `W_max = prior`,
/// `ssthresh = cwnd = β·prior`, and the next growth epoch's K equals the
/// closed form; the second loss lands *below* the remembered saturation
/// point, so fast convergence shrinks `W_max` to `prior·(1+β)/2`.
#[test]
fn cubic_loss_episodes_pin_w_max_ssthresh_and_k() {
    let cfg = CubicConfig::default();
    let (beta, c) = (cfg.beta, cfg.c);
    let mut s = CubicSender::new(FlowId(1), 1000, cfg);
    let mut t = SimTime::ZERO;

    // Slow start: 10 segments out, one cumulative ACK for all of them.
    pump_cubic(&mut s, &mut t, 10);
    let echo = t;
    t += SimDuration::from_millis(250);
    let ack = |cum, sack: Vec<SeqRange>, echo| TcpAck {
        flow: FlowId(1),
        cum_ack: cum,
        sack,
        echo,
    };
    s.on_ack(t, &ack(10, vec![], echo));
    assert!((s.cwnd() - 12.0).abs() < 1e-9, "slow start: 2 + 10 acked");
    assert!(s.in_slow_start());

    // Five more in flight; SACK 12..=14 leaves holes at 10 and 11 —
    // DUPTHRESH is met, first loss event fires.
    pump_cubic(&mut s, &mut t, 5);
    let prior = s.cwnd();
    t += SimDuration::from_millis(250);
    s.on_ack(t, &ack(10, vec![SeqRange { start: 12, end: 14 }], echo));
    assert_eq!(s.stats().loss_events, 1);
    assert!((s.w_max() - prior).abs() < 1e-9, "no fast convergence yet");
    assert!((s.ssthresh() - prior * beta).abs() < 1e-9);
    assert!((s.cwnd() - prior * beta).abs() < 1e-9);
    assert!(!s.in_slow_start());

    // Recovery completes; the first congestion-avoidance ACK opens a new
    // epoch anchored at W_max with the closed-form K. The window was left
    // at exactly β·W_max, so K = ∛(W_max(1−β)/C).
    t += SimDuration::from_millis(250);
    s.on_ack(t, &ack(15, vec![], echo));
    assert!((s.w_origin() - prior).abs() < 1e-9);
    let k_closed = (prior * (1.0 - beta) / c).cbrt();
    assert!((s.k() - k_closed).abs() < 1e-9, "K {} vs {k_closed}", s.k());
    assert!((s.k() - cubic_k(c, prior, prior * beta)).abs() < 1e-9);

    // Second episode strictly below the saturation point: fast
    // convergence cuts the remembered origin to prior2·(1+β)/2.
    let prior2 = s.cwnd();
    assert!(prior2 > prior * beta && prior2 < s.w_max(), "precondition");
    pump_cubic(&mut s, &mut t, 5);
    t += SimDuration::from_millis(250);
    s.on_ack(t, &ack(15, vec![SeqRange { start: 17, end: 19 }], echo));
    assert_eq!(s.stats().loss_events, 2);
    assert!((s.w_max() - prior2 * (1.0 + beta) / 2.0).abs() < 1e-9);
    assert!((s.ssthresh() - prior2 * beta).abs() < 1e-9);
    assert!((s.cwnd() - prior2 * beta).abs() < 1e-9);
}

/// A retransmission timeout is a full collapse: window to one packet,
/// ssthresh floored at two.
#[test]
fn cubic_rto_collapses_to_one_packet() {
    let mut s = CubicSender::new(FlowId(1), 1, CubicConfig::default());
    let t0 = SimTime::ZERO;
    assert!(s.poll_send(t0).is_some());
    // No backlog left, so the only pending wakeup is the RTO deadline.
    let deadline = s.next_wakeup().expect("RTO armed");
    s.on_timer(deadline);
    assert_eq!(s.stats().timeouts, 1);
    assert!((s.cwnd() - 1.0).abs() < 1e-9);
    assert!((s.ssthresh() - 2.0).abs() < 1e-9, "floored at 2");
    // The lost segment is queued for immediate retransmission.
    assert_eq!(s.poll_send(deadline).expect("rtx").seq, 0);
    assert_eq!(s.stats().retransmissions, 1);
}

/// End-to-end over the lossless link: CUBIC leaves slow start territory,
/// grows past its initial window, and completes.
#[test]
fn cubic_lossless_transfer_completes_and_grows() {
    let mut hi = 0.0f64;
    let cap = CubicConfig::default().cwnd_cap;
    let (s, done) = run_cubic(
        CubicConfig::default(),
        300,
        SimDuration::from_millis(100),
        SimTime::from_secs_f64(120.0),
        |_, _| false,
        |s, _| hi = hi.max(s.cwnd()),
    );
    assert!(done && s.is_complete());
    assert_eq!(s.stats().loss_events, 0, "lossless link");
    assert!(hi > 2.0, "window never grew: {hi}");
    assert!(hi <= cap + 1e-9);
}

// ---------------------------------------------------------------------------
// BBR oracles.
// ---------------------------------------------------------------------------

/// Hand-computed delivery-rate and RTprop trace through the public API.
/// Two segments leave at t=0 and t=1 s; one ACK for both arrives at
/// t=2 s echoing the second send. The filters must then hold exactly:
/// RTprop = 1 s, samples {(2−0)/2, (2−0)/1} → BtlBw = 2 pps, BDP = 2
/// packets, inflight cap at the min_cwnd floor, and the Startup pace
/// 2.885 × 2 pps.
#[test]
fn bbr_filter_math_is_exact() {
    let cfg = BbrConfig::default();
    let mut s = BbrSender::new(FlowId(1), 100, cfg.clone());
    let d0 = s.poll_send(SimTime::ZERO).expect("first segment");
    assert_eq!(d0.seq, 0);
    let d1 = s.poll_send(SimTime::from_secs_f64(1.0)).expect("second");
    assert_eq!(d1.seq, 1);
    let now = SimTime::from_secs_f64(2.0);
    s.on_ack(
        now,
        &TcpAck {
            flow: FlowId(1),
            cum_ack: 2,
            sack: vec![],
            echo: d1.sent_at,
        },
    );
    assert!(
        (s.min_rtt_s() - 1.0).abs() < 1e-9,
        "RTprop {}",
        s.min_rtt_s()
    );
    assert!(
        (s.max_bw_pps() - 2.0).abs() < 1e-9,
        "BtlBw {}",
        s.max_bw_pps()
    );
    assert!((s.bdp_packets() - 2.0).abs() < 1e-9);
    assert!(
        (s.cwnd_packets() - cfg.min_cwnd).abs() < 1e-9,
        "floored cap"
    );
    assert_eq!(s.phase(), BbrPhase::Startup);
    assert!((s.rate() - bbr::STARTUP_GAIN * 2.0).abs() < 1e-9);
    assert_eq!(s.stats().rounds, 1, "cum_ack crossed the round edge");
}

/// Full phase walk on the lossless link: Startup (gain 2.885) until the
/// bandwidth filter plateaus, Drain (gain 1/2.885) until inflight ≤ BDP,
/// then the ProbeBw 8-slot cycle starting at 1.25 with 0.75 next — and
/// never a step backwards. RTprop must converge to the exact link RTT.
#[test]
fn bbr_walks_startup_drain_probebw_with_published_gains() {
    let rank = |p: BbrPhase| match p {
        BbrPhase::Startup => 0,
        BbrPhase::Drain => 1,
        BbrPhase::ProbeBw => 2,
    };
    let mut trace: Vec<(BbrPhase, f64)> = Vec::new();
    let (s, done) = run_bbr(
        BbrConfig::default(),
        1500,
        SimDuration::from_millis(100),
        SimTime::from_secs_f64(400.0),
        |_, _| false,
        |s, _| trace.push((s.phase(), s.pacing_gain())),
    );
    assert!(done && s.is_complete());
    assert_eq!(s.stats().retransmissions + s.stats().timeouts, 0);

    assert_eq!(trace[0].0, BbrPhase::Startup);
    assert!(
        trace.iter().any(|&(p, _)| p == BbrPhase::Drain),
        "never drained"
    );
    assert!(
        trace.iter().any(|&(p, _)| p == BbrPhase::ProbeBw),
        "never cruised"
    );
    for w in trace.windows(2) {
        assert!(rank(w[1].0) >= rank(w[0].0), "phase regressed: {w:?}");
    }
    for &(p, g) in &trace {
        match p {
            BbrPhase::Startup => assert_eq!(g, bbr::STARTUP_GAIN),
            BbrPhase::Drain => assert_eq!(g, 1.0 / bbr::STARTUP_GAIN),
            BbrPhase::ProbeBw => {
                assert!(bbr::PROBE_BW_GAINS.contains(&g), "gain {g} not in cycle")
            }
        }
    }
    let probe: Vec<f64> = trace
        .iter()
        .filter(|(p, _)| *p == BbrPhase::ProbeBw)
        .map(|&(_, g)| g)
        .collect();
    assert_eq!(probe[0], bbr::PROBE_BW_GAINS[0], "cycle starts probing up");
    assert!(probe.contains(&0.75), "drain slot of the cycle never ran");

    // The delayed-ACK echo scheme makes the immediate-ACK RTT sample the
    // link RTT exactly; flush-delayed ACKs only ever sample larger.
    assert!(
        (s.min_rtt_s() - 0.1).abs() < 1e-9,
        "RTprop {}",
        s.min_rtt_s()
    );
    // BtlBw approximates the max_rate-clamped pace.
    let bw = s.max_bw_pps();
    assert!((20.0..70.0).contains(&bw), "BtlBw {bw} implausible");
    assert!(s.stats().rounds >= 5);
}

// ---------------------------------------------------------------------------
// Properties: lawful windows/gains and no stalls under adversarial loss.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `cubic_k` inverts the curve for arbitrary parameters.
    #[test]
    fn cubic_k_inverts_the_curve(
        c in 0.1f64..1.0,
        w_max in 4.0f64..300.0,
        frac in 0.1f64..=1.0,
    ) {
        let cwnd = w_max * frac;
        let k = cubic_k(c, w_max, cwnd);
        prop_assert!(k >= 0.0);
        prop_assert!((w_cubic(c, 0.0, k, w_max) - cwnd).abs() < 1e-9 * w_max);
        prop_assert!((w_cubic(c, k, k, w_max) - w_max).abs() < 1e-12);
    }

    /// Under bounded adversarial data loss (ACKs lossless) the CUBIC
    /// window stays in `[1, cwnd_cap]` at every ACK and the flow always
    /// completes — pacing never stalls.
    #[test]
    fn cubic_window_lawful_and_never_stalls(
        seed in any::<u64>(),
        total in 1u32..28,
        pct in 0u8..40,
    ) {
        let cfg = CubicConfig::default();
        let cap = cfg.cwnd_cap;
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        let (s, done) = run_cubic(
            cfg,
            total,
            SimDuration::from_millis(120),
            SimTime::from_secs_f64(20_000.0),
            |seq, attempt| attempt <= 12 && coin(seed, seq, attempt, pct),
            |s, _| {
                lo = lo.min(s.cwnd());
                hi = hi.max(s.cwnd());
            },
        );
        prop_assert!(done, "stalled or ran past horizon (seed {seed} pct {pct})");
        prop_assert!(s.is_complete());
        if hi.is_finite() {
            prop_assert!(lo >= 1.0 - 1e-9, "window under 1: {lo}");
            prop_assert!(hi <= cap + 1e-9, "window over cap: {hi}");
        }
    }

    /// BBR under the same adversarial loss: pacing gain always comes from
    /// the published schedule, the rate respects its clamps, the phase
    /// machine never steps backwards, and the flow always completes.
    #[test]
    fn bbr_gains_rate_and_phases_lawful_and_never_stall(
        seed in any::<u64>(),
        total in 1u32..28,
        pct in 0u8..35,
    ) {
        let cfg = BbrConfig::default();
        let (min_r, max_r) = (cfg.min_rate_pps, cfg.max_rate_pps);
        let mut max_rank = 0u8;
        let (s, done) = run_bbr(
            cfg,
            total,
            SimDuration::from_millis(120),
            SimTime::from_secs_f64(20_000.0),
            |seq, attempt| attempt <= 12 && coin(seed, seq, attempt, pct),
            |s, _| {
                let g = s.pacing_gain();
                prop_assert!(
                    g == bbr::STARTUP_GAIN
                        || g == 1.0 / bbr::STARTUP_GAIN
                        || bbr::PROBE_BW_GAINS.contains(&g),
                    "off-schedule gain {g}"
                );
                let r = s.rate();
                prop_assert!((min_r - 1e-12..=max_r + 1e-12).contains(&r), "rate {r}");
                let rank = match s.phase() {
                    BbrPhase::Startup => 0,
                    BbrPhase::Drain => 1,
                    BbrPhase::ProbeBw => 2,
                };
                prop_assert!(rank >= max_rank, "phase regressed");
                max_rank = rank;
            },
        );
        prop_assert!(done, "stalled or ran past horizon (seed {seed} pct {pct})");
        prop_assert!(s.is_complete());
    }
}
