//! Golden-trace regression tests: every canonical scenario is pinned
//! byte-for-byte by committed [`GoldenDigest`] lines — one per transport
//! (JTP, TCP, ATP, CUBIC and BBR) — covering the headline metrics, an
//! FNV over the full metrics encoding and the trace-stream checksum,
//! plus a second committed file pinning the FNV checksum of the *entire*
//! typed event stream (the third golden surface). A third file pins the
//! 1000+-node `xl_catalog()` under JTP, one digest + event-checksum line
//! per entry, so the hierarchical backend's repair path is held to
//! byte-identity, not only to lawfulness. Any engine change that
//! perturbs observable behaviour — event ordering, RNG consumption, a
//! counter, a float — flips at least one digest and fails here, the same
//! way `engine_equivalence.rs` pins idle-slot skipping.
//!
//! Line order is append-only by construction: the original 48 lines
//! (JTP, then TCP, then ATP over the pre-heavy catalog) keep their exact
//! bytes and positions; the CUBIC/BBR blocks and the heavy-scenario
//! blocks only ever append after them.
//!
//! When a change is *intended* to alter results (new defaults, new
//! physics), regenerate the committed files and review the diff:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p jtp-netsim --test golden_traces
//! ```

use jtp_netsim::{
    try_run_digest_with, EventChecksum, ExperimentConfig, GoldenDigest, Scenario, TransportKind,
};

/// The committed digests, one line per (scenario, transport).
const GOLDEN: &str = include_str!("golden/digests.txt");

/// The committed event-stream checksums, same line order as the digests.
const GOLDEN_EVENTS: &str = include_str!("golden/events.txt");

/// The committed xl-catalog pins: one digest line with its event checksum
/// appended, per `xl_catalog()` entry under JTP.
const GOLDEN_XL: &str = include_str!("golden/xl.txt");

/// All five transports in golden-file order, with their line tags
/// (`None` = the untagged historical JTP lines).
const TRANSPORTS: [(TransportKind, Option<&str>); 5] = [
    (TransportKind::Jtp, None),
    (TransportKind::Tcp, Some("tcp")),
    (TransportKind::Atp, Some("atp")),
    (TransportKind::Cubic, Some("cubic")),
    (TransportKind::Bbr, Some("bbr")),
];

/// The digest and the full event-stream checksum of one run.
fn run_digest_events(cfg: &ExperimentConfig) -> (GoldenDigest, u64) {
    let (d, ev) = try_run_digest_with(cfg, EventChecksum::default()).expect("catalog lowers");
    (d, ev.finish())
}

/// Run the full golden matrix once, producing the digest lines and the
/// event-checksum lines in lockstep order: each transport block over the
/// pre-heavy catalog (historical order, byte-stable), then the heavy
/// scenarios × all five transports appended at the end.
fn current_lines() -> (Vec<String>, Vec<String>) {
    let cat = Scenario::catalog();
    let (heavy, base): (Vec<_>, Vec<_>) = cat.iter().partition(|sc| sc.name.starts_with("heavy-"));
    let mut digests = Vec::new();
    let mut events = Vec::new();
    let mut push = |sc: &Scenario, t: TransportKind, tag: Option<&str>| {
        let name = match tag {
            Some(tag) => format!("{}:{tag}", sc.name),
            None => sc.name.clone(),
        };
        let (d, ev) = run_digest_events(&sc.build(t));
        digests.push(d.to_line(&name));
        events.push(format!("{name} events={ev:016x}"));
    };
    for (t, tag) in TRANSPORTS {
        for sc in &base {
            push(sc, t, tag);
        }
    }
    for sc in &heavy {
        for (t, tag) in TRANSPORTS {
            push(sc, t, tag);
        }
    }
    (digests, events)
}

/// One line per `xl_catalog()` entry under JTP: the digest line with the
/// event-stream checksum appended.
fn xl_lines() -> Vec<String> {
    Scenario::xl_catalog()
        .iter()
        .map(|sc| {
            let (d, ev) = run_digest_events(&sc.build(TransportKind::Jtp));
            format!("{} events={ev:016x}", d.to_line(&sc.name))
        })
        .collect()
}

/// Overwrite one committed golden file (`GOLDEN_REGEN` mode).
fn regenerate(rel: &str, header: &str, lines: &[String]) {
    let path = format!("{}/tests/golden/{rel}", env!("CARGO_MANIFEST_DIR"));
    let mut body = String::from(header);
    for l in lines {
        body.push_str(l);
        body.push('\n');
    }
    std::fs::write(&path, body).expect("write golden file");
    println!("regenerated {path}");
}

fn assert_no_drift(drift: &[String]) {
    assert!(
        drift.is_empty(),
        "golden drift in {} run(s):\n{}\n\
         if intended, regenerate with GOLDEN_REGEN=1 cargo test -p \
         jtp-netsim --test golden_traces and review the diff",
        drift.len(),
        drift.join("\n")
    );
}

fn data_lines(file: &str) -> Vec<&str> {
    file.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

fn check_surface(committed: &str, lines: &[String], what: &str) -> Vec<String> {
    let committed = data_lines(committed);
    assert_eq!(
        committed.len(),
        lines.len(),
        "{what} golden file covers {} runs, catalog produces {} — \
         regenerate with GOLDEN_REGEN=1 and review the diff",
        committed.len(),
        lines.len()
    );
    committed
        .iter()
        .zip(lines)
        .filter(|(want, got)| got != want)
        .map(|(want, got)| diagnose_drift(want, got))
        .collect()
}

#[test]
fn catalog_digests_match_committed_golden_files() {
    let (digests, events) = current_lines();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        regenerate(
            "digests.txt",
            "# Golden digests of the canonical scenario catalog: JTP per scenario,\n\
             # then `name:tcp` and `name:atp` pins.\n\
             # Regenerate: GOLDEN_REGEN=1 cargo test -p jtp-netsim --test golden_traces\n\
             # Appended: `name:cubic` / `name:bbr` pins, then heavy-* x five transports.\n",
            &digests,
        );
        regenerate(
            "events.txt",
            "# FNV-1a checksums of the full typed event stream, one per run,\n\
             # same order as digests.txt (the third golden surface).\n\
             # Regenerate: GOLDEN_REGEN=1 cargo test -p jtp-netsim --test golden_traces\n",
            &events,
        );
        return;
    }
    let mut drift = check_surface(GOLDEN, &digests, "digest");
    drift.extend(check_surface(GOLDEN_EVENTS, &events, "event-checksum"));
    assert_no_drift(&drift);
}

/// The 1000+-node xl catalog (hierarchical backend, churn, mobility,
/// heavy traffic) pinned byte-for-byte under JTP.
#[test]
fn xl_catalog_digests_match_committed_golden_file() {
    let lines = xl_lines();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        regenerate(
            "xl.txt",
            "# Golden digests + event-stream checksums of Scenario::xl_catalog()\n\
             # under JTP, one line per entry.\n\
             # Regenerate: GOLDEN_REGEN=1 cargo test -p jtp-netsim --test golden_traces\n",
            &lines,
        );
        return;
    }
    assert_no_drift(&check_surface(GOLDEN_XL, &lines, "xl"));
}

/// Name the scenario and the exact digest fields that moved, so a failure
/// says *what kind* of drift happened — e.g. `trace` alone means the
/// reception stream changed while every counter survived, `metrics`
/// alone means some counter or float moved without touching deliveries,
/// and `events` alone means the wider event stream (slots, sends, drops,
/// floods…) shifted while every pinned metric survived.
fn diagnose_drift(want: &str, got: &str) -> String {
    let fields = |line: &str| -> (String, Vec<(String, String)>) {
        let mut it = line.split_whitespace();
        let name = it.next().unwrap_or("?").to_string();
        let kv = it
            .filter_map(|tok| tok.split_once('='))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        (name, kv)
    };
    let (name, want_kv) = fields(want);
    let (got_name, got_kv) = fields(got);
    let mut moved = Vec::new();
    if got_name != name {
        moved.push(format!("scenario order changed ({name} vs {got_name})"));
    }
    for (k, wv) in &want_kv {
        match got_kv.iter().find(|(gk, _)| gk == k) {
            Some((_, gv)) if gv != wv => moved.push(format!("{k}: {wv} -> {gv}")),
            None => moved.push(format!("{k}: {wv} -> (missing)")),
            _ => {}
        }
    }
    if moved.is_empty() {
        moved.push(format!("line changed shape: {want:?} vs {got:?}"));
    }
    format!("  {name}: {}", moved.join(", "))
}

/// The digest machinery itself must be a pure function of the run.
#[test]
fn digests_are_reproducible_within_a_process() {
    let sc = &Scenario::catalog()[0];
    let a = run_digest_events(&sc.build(TransportKind::Jtp));
    let b = run_digest_events(&sc.build(TransportKind::Jtp));
    assert_eq!(a, b);
    // And sensitive to the seed (astronomically unlikely to collide).
    let mut other = sc.build(TransportKind::Jtp);
    other.seed ^= 0xdead_beef;
    let c = run_digest_events(&other);
    assert_ne!(c.0, a.0, "digest blind to the seed");
    assert_ne!(c.1, a.1, "event checksum blind to the seed");
}

/// The event checksum must pin behaviour the reception trace cannot see:
/// the same deliveries through a different MAC schedule (different seed
/// but, more surgically, a changed contention pattern) flip it. Here we
/// check the cheap invariant that the new-transport digests differ from
/// each other — five distinct congestion controllers cannot produce the
/// same full event stream on the same scenario.
#[test]
fn transports_produce_distinct_event_streams() {
    let sc = &Scenario::catalog()[0];
    let mut sums = std::collections::BTreeSet::new();
    for (t, _) in TRANSPORTS {
        let (_, ev) = run_digest_events(&sc.build(t));
        sums.insert(ev);
    }
    assert_eq!(sums.len(), TRANSPORTS.len(), "event-stream collision");
}
