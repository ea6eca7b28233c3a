//! `perf_ledger` — the repo's benchmark: five workloads, five end-to-end
//! metrics, per-crate layer rows and a traced pass. See `README.md` in
//! this directory for the glossary, the layer → metric → workload table,
//! the span-file format and the compare-two-commits protocol.
//!
//! ```text
//! cargo run --release --manifest-path perf_ledger/Cargo.toml -- \
//!     --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>] \
//!     [--quick] [--repeat-check] [--json <path>] [--spans <path>]
//! ```
//!
//! One workload per process, so `VmHWM` is that workload's peak. The last
//! line of standard output is the result object the driver reads.

#![forbid(unsafe_code)]

mod harness;
mod host;
mod json;
mod ledger;
mod micro;
mod spans;
mod stats;
mod workloads;

use harness::{pass, Emitted, PassWall, RunRecord, Tracer};
use host::Host;
use jtp_events::{EventCounters, NoopSubscriber, TimeAccountant};
use jtp_netsim::TransportKind;
use ledger::{Measured, Traced, Values, END_TO_END, PER_LAYER};
use stats::Quartiles;
use std::collections::BTreeSet;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{RunSpec, Workload};

/// Fewest measured passes an invocation reports a median over.
const MIN_PASSES: usize = 3;

const USAGE: &str = "usage: perf_ledger --workload <name> [--seed <u64>] [--seconds <n>] \
[--trace <0|1>] [--quick] [--repeat-check] [--json <path>] [--spans <path>]";

#[derive(Clone, Debug)]
struct Args {
    workload: String,
    seed: u64,
    /// Measured passes repeat until this much wall time has gone by.
    seconds: f64,
    /// Report the per-layer metrics (traced pass + micro rows) instead of
    /// the end-to-end ones.
    trace: bool,
    quick: bool,
    repeat_check: bool,
    json: Option<String>,
    spans: Option<String>,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 11,
        seconds: 10.0,
        trace: false,
        quick: false,
        repeat_check: false,
        json: None,
        spans: None,
    };
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| {
            argv.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name")?,
            "--seed" => {
                let v = value("a u64")?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v:?} is not a u64"))?;
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {v:?} is not a positive number"))?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?} is neither 0 nor 1")),
                }
            }
            "--quick" => args.quick = true,
            "--repeat-check" => args.repeat_check = true,
            "--json" => args.json = Some(value("a path")?),
            "--spans" => args.spans = Some(value("a path")?),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    Ok(args)
}

/// Which runs failed a check, and why. Runs are numbered through the
/// measured list, then the layer-only list.
#[derive(Debug, Default)]
struct Failures {
    runs: BTreeSet<usize>,
    reasons: Vec<String>,
}

impl Failures {
    fn fail(&mut self, workload: &Workload, run: usize, reason: &str) {
        let spec = workload
            .runs
            .iter()
            .chain(&workload.layer_runs)
            .nth(run)
            .expect("run index within the workload's lists");
        if self.runs.insert(run) {
            self.reasons.push(format!(
                "run {run} ({} {:?} seed {}): {reason}",
                spec.scenario, spec.transport, spec.seed
            ));
        }
    }

    /// Check one pass over the measured list: a run fails on its own
    /// account, or if its fingerprint differs from the same run's in the
    /// reference pass.
    fn check_pass(
        &mut self,
        workload: &Workload,
        records: &[RunRecord],
        reference: &[RunRecord],
        what: &str,
    ) {
        for (run, (r, expected)) in records.iter().zip(reference).enumerate() {
            if let Some(reason) = &r.failure {
                self.fail(workload, run, reason);
            } else if r.fingerprint != expected.fingerprint {
                self.fail(
                    workload,
                    run,
                    &format!(
                        "{what} fingerprint {:016x} differs from the first pass's {:016x}",
                        r.fingerprint, expected.fingerprint
                    ),
                );
            }
        }
    }
}

/// One untraced pass over `runs`, records only.
fn untraced_pass(runs: &[RunSpec], setup_reps: u32, epoch: Instant) -> Vec<RunRecord> {
    pass(runs, setup_reps, epoch, || NoopSubscriber)
        .into_iter()
        .map(|(record, _)| record)
        .collect()
}

/// Measured passes with tracing off, until `seconds` have gone by (one
/// pass when `quick`), then the peak resident set.
fn measure(
    workload: &Workload,
    args: &Args,
    epoch: Instant,
    reference: &[RunRecord],
    failures: &mut Failures,
) -> Measured {
    let start = Instant::now();
    let mut passes = Vec::new();
    let records = loop {
        let records = untraced_pass(&workload.runs, workload.setup_reps, epoch);
        failures.check_pass(workload, &records, reference, "a measured pass's");
        passes.push(PassWall::of(&records));
        let enough = passes.len() >= MIN_PASSES && start.elapsed().as_secs_f64() >= args.seconds;
        if args.quick || enough {
            break records;
        }
    };
    Measured {
        passes,
        records,
        vm_hwm_kb: host::vm_hwm_kb(),
    }
}

/// One pass with the tracer attached and a single set-up per run, so the
/// recorded spans are contiguous intervals.
fn traced_pass(
    workload: &Workload,
    epoch: Instant,
    reference: &[RunRecord],
    failures: &mut Failures,
) -> Traced {
    let executed = pass(&workload.runs, 1, epoch, || -> Tracer {
        (
            (EventCounters::default(), TimeAccountant::default()),
            Emitted::default(),
        )
    });
    let mut traced = Traced::default();
    let mut records = Vec::new();
    for (run, (record, tracer)) in executed.into_iter().enumerate() {
        if let Some(((counters, time), emitted)) = tracer {
            traced.add_counters(&counters);
            traced.time.merge(&time);
            traced.emitted += emitted.0;
            traced.spans.record_run(run, &record, &time);
        }
        records.push(record);
    }
    failures.check_pass(workload, &records, reference, "the traced pass's");
    traced.wall = PassWall::of(&records);
    traced
}

/// Resident-set growth across one network build, per node, in kB.
fn build_rss_kb_per_node(workload: &Workload) -> f64 {
    let cfg = workload.runs[0].lower();
    let before = host::vm_rss_kb();
    let built = jtp_netsim::Network::try_with_subscriber(&cfg, NoopSubscriber);
    let after = host::vm_rss_kb();
    drop(built);
    after.saturating_sub(before) as f64 / cfg.topology.node_count() as f64
}

/// `values` in the declared order; an undeclared or missing name is a bug
/// in this binary and is reported, never silently dropped.
fn in_declared_order<'a>(
    declared: impl Iterator<Item = &'a str>,
    values: &Values,
) -> Result<Values, String> {
    let mut out = Vec::new();
    for name in declared {
        let v = values
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| format!("metric {name} was declared but not measured"))?;
        out.push(v.clone());
    }
    match values
        .iter()
        .find(|(n, _)| !out.iter().any(|(o, _)| o == n))
    {
        Some((n, _)) => Err(format!("metric {n} was measured but not declared")),
        None => Ok(out),
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

fn metrics_json(values: &Values) -> String {
    let fields: Vec<(&str, String)> = values
        .iter()
        .map(|(name, v)| {
            let metric = [
                ("value", json::number(*v)),
                ("unit", json::string(unit_of(name))),
            ];
            (name.as_str(), json::object(&metric))
        })
        .collect();
    json::object(&fields)
}

fn quartiles_json(q: &Quartiles) -> String {
    json::object(&[
        ("median", json::number(q.median)),
        ("q1", json::number(q.q1)),
        ("q3", json::number(q.q3)),
        ("min", json::number(q.min)),
        ("max", json::number(q.max)),
        ("n", q.n.to_string()),
    ])
}

fn print_values(title: &str, values: &Values) {
    println!("{title}");
    for (name, v) in values {
        println!("  {name:<34} {v:>18.6} {}", unit_of(name));
    }
}

fn print_quartiles(name: &str, q: &Quartiles) {
    println!(
        "  {name:<34} median {:.6} q1 {:.6} q3 {:.6} min {:.6} max {:.6} over {} passes",
        q.median, q.q1, q.q3, q.min, q.max, q.n
    );
}

/// `--repeat-check`: a second set of measured passes must agree with the
/// first within each end-to-end metric's own bound, and exactly on the
/// simulated results.
fn repeat_check_failures(first: &Values, second: &Values, fnv: (u64, u64)) -> Vec<String> {
    let mut out = Vec::new();
    if fnv.0 != fnv.1 {
        out.push(format!("results_fnv {:016x} != {:016x}", fnv.0, fnv.1));
    }
    for (((name, a), (_, b)), (.., bound)) in first.iter().zip(second).zip(END_TO_END) {
        let gap = (a - b).abs() / a.abs();
        println!("  repeat-check {name:<20} {a:.6} vs {b:.6}: gap {gap:.4}, bound {bound}");
        if gap > bound {
            out.push(format!("{name} differs by {gap:.4} > bound {bound}"));
        }
    }
    out
}

/// Everything one invocation found out.
struct Outcome {
    workload: Workload,
    host: Host,
    measured: Measured,
    end_to_end: Values,
    /// `Some` in a `--trace 1` invocation.
    per_layer: Option<Values>,
    failures: Failures,
    repeat_failures: Vec<String>,
    results_fnv: u64,
    attempted: usize,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failures.runs.is_empty() && self.repeat_failures.is_empty()
    }

    fn reasons(&self) -> impl Iterator<Item = &String> {
        self.failures.reasons.iter().chain(&self.repeat_failures)
    }

    /// Pass-to-pass spread of the timed end-to-end metrics, and of the
    /// pass wall itself.
    fn timing_quartiles(&self) -> [(&'static str, Quartiles); 3] {
        let reps = f64::from(self.workload.setup_reps);
        let pass_wall_s: Vec<f64> = self
            .measured
            .passes
            .iter()
            .map(|p| p.setup_s() * reps + p.run_s())
            .collect();
        [
            ("sim_s_per_wall_s", self.measured.sim_s_per_wall_s()),
            ("setup_s", self.measured.setup_s()),
            ("pass_wall_s", stats::quartiles(&pass_wall_s)),
        ]
    }
}

fn execute(args: &Args) -> Result<Outcome, String> {
    let workload = workloads::workload(&args.workload, args.seed, args.quick)?;
    let host = Host::probe();
    if host.debug_assertions && !args.quick {
        return Err(
            "refusing to report timings from a debug_assertions build: build with \
             --release, or pass --quick for a smoke run"
                .to_string(),
        );
    }
    println!(
        "perf_ledger workload={} seed={} seconds={} trace={} quick={} runs={} setup_reps={}",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick,
        workload.runs.len(),
        workload.setup_reps
    );
    println!(
        "host: nproc={} cpu={:?} rustc={:?} git={} debug_assertions={}",
        host.nproc, host.cpu_model, host.rustc, host.git_sha, host.debug_assertions
    );

    let rss_kb_per_node = build_rss_kb_per_node(&workload);
    let epoch = Instant::now();
    let mut failures = Failures::default();

    // Warm-up: untimed, and the reference every later pass must repeat.
    let reference = untraced_pass(&workload.runs, workload.setup_reps, epoch);
    failures.check_pass(&workload, &reference, &reference, "the warm-up pass's");
    let results_fnv = harness::results_fnv(&reference);

    let measured = measure(&workload, args, epoch, &reference, &mut failures);
    let end_to_end = ledger::end_to_end(&workload, &measured);

    let mut repeat_failures = Vec::new();
    if args.repeat_check {
        let again = measure(&workload, args, epoch, &reference, &mut failures);
        let second = ledger::end_to_end(&workload, &again);
        println!("repeat-check");
        let fnvs = (results_fnv, harness::results_fnv(&again.records));
        repeat_failures = repeat_check_failures(&end_to_end, &second, fnvs);
    }

    let mut layer_records = Vec::new();
    let mut per_layer = None;
    if args.trace {
        layer_records = untraced_pass(&workload.layer_runs, 1, epoch);
        for (i, r) in layer_records.iter().enumerate() {
            if let Some(reason) = &r.failure {
                failures.fail(&workload, workload.runs.len() + i, reason);
            }
        }
        let traced = traced_pass(&workload, epoch, &reference, &mut failures);
        let mut values = ledger::per_layer(
            &workload,
            &measured,
            &layer_records,
            &traced,
            rss_kb_per_node,
        );
        values.extend(micro::ROWS.iter().map(|(name, f)| (name.to_string(), f())));
        per_layer = Some(in_declared_order(PER_LAYER.iter().map(|m| m.0), &values)?);
        // Spans stay in memory until the measuring is over.
        if let Some(path) = &args.spans {
            traced
                .spans
                .write_jsonl(path, workload.name)
                .map_err(|e| format!("writing {path}: {e}"))?;
        }
    }

    if workload.shape_check {
        let executed = workload
            .runs
            .iter()
            .zip(&reference)
            .chain(workload.layer_runs.iter().zip(&layer_records));
        if let Some(reason) = ledger::fig9_shape_failure(executed) {
            for (run, spec) in workload.runs.iter().enumerate() {
                if spec.transport == TransportKind::Jtp {
                    failures.fail(&workload, run, &format!("Fig. 9 shape: {reason}"));
                }
            }
        }
    }

    Ok(Outcome {
        attempted: workload.runs.len() + layer_records.len(),
        workload,
        host,
        measured,
        end_to_end,
        per_layer,
        failures,
        repeat_failures,
        results_fnv,
    })
}

/// The `--json` report: everything printed, plus the host fingerprint,
/// the quartiles and one row per measured run.
fn report_json(args: &Args, o: &Outcome) -> String {
    let host = json::object(&[
        ("nproc", o.host.nproc.to_string()),
        ("cpu_model", json::string(&o.host.cpu_model)),
        ("rustc", json::string(&o.host.rustc)),
        ("git_sha", json::string(&o.host.git_sha)),
        ("debug_assertions", o.host.debug_assertions.to_string()),
    ]);
    let quartiles: Vec<(&str, String)> = o
        .timing_quartiles()
        .iter()
        .map(|(name, q)| (*name, quartiles_json(q)))
        .collect();
    let runs: Vec<String> = o
        .workload
        .runs
        .iter()
        .zip(&o.measured.records)
        .map(|(spec, r)| {
            json::object(&[
                ("scenario", json::string(&spec.scenario)),
                (
                    "transport",
                    json::string(workloads::transport_name(spec.transport)),
                ),
                ("seed", spec.seed.to_string()),
                (
                    "fingerprint",
                    json::string(&format!("{:016x}", r.fingerprint)),
                ),
                ("sim_s", json::number(r.sim_s)),
                ("events", r.events.to_string()),
                ("energy_j", json::number(r.energy_j)),
                ("delivered_bits", json::number(r.delivered_bits)),
                (
                    "phases_ns",
                    json::array(&r.phases_ns.map(|ns| ns.to_string())),
                ),
            ])
        })
        .collect();
    let reasons: Vec<String> = o.reasons().map(|r| json::string(r)).collect();
    let mut fields = vec![
        ("workload", json::string(o.workload.name)),
        ("seed", args.seed.to_string()),
        ("seconds", json::number(args.seconds)),
        ("quick", args.quick.to_string()),
        ("passes", o.measured.passes.len().to_string()),
        ("host", host),
        ("correct", o.correct().to_string()),
        ("ops_attempted", o.attempted.to_string()),
        ("ops_failed", o.failures.runs.len().to_string()),
        (
            "results_fnv",
            json::string(&format!("{:016x}", o.results_fnv)),
        ),
        ("failures", json::array(&reasons)),
        ("end_to_end", metrics_json(&o.end_to_end)),
        ("timing_quartiles", json::object(&quartiles)),
    ];
    if let Some(values) = &o.per_layer {
        fields.push(("per_layer", metrics_json(values)));
    }
    fields.push(("runs", json::array(&runs)));
    json::object(&fields) + "\n"
}

/// Print every metric by name with its unit, then — as the last line of
/// standard output — the result object the driver reads.
fn run(args: &Args) -> Result<bool, String> {
    let o = execute(args)?;
    print_values("end-to-end (measured passes, tracing off)", &o.end_to_end);
    for (name, q) in &o.timing_quartiles() {
        print_quartiles(name, q);
    }
    if let Some(values) = &o.per_layer {
        print_values("per-layer (traced pass, exact counts, micro rows)", values);
    }
    for reason in o.reasons() {
        println!("FAILED {reason}");
    }
    let failed = o.failures.runs.len();
    println!(
        "ops_attempted={} ops_failed={failed} results_fnv={:016x}",
        o.attempted, o.results_fnv
    );
    if let Some(path) = &args.json {
        std::fs::write(path, report_json(args, &o)).map_err(|e| format!("writing {path}: {e}"))?;
    }
    println!(
        "{}",
        json::object(&[
            ("correct", o.correct().to_string()),
            ("attempted", o.attempted.to_string()),
            ("failed", failed.to_string()),
            (
                "metrics",
                metrics_json(o.per_layer.as_ref().unwrap_or(&o.end_to_end))
            ),
        ])
    );
    Ok(o.correct())
}

fn main() -> ExitCode {
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| run(&args));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perf_ledger: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> impl Iterator<Item = String> + '_ {
        line.split_whitespace().map(String::from)
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a = parse_args(argv("--workload xl-static --seed 7 --seconds 12 --trace 1"))
            .expect("valid arguments");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("xl-static", 7, 12.0, true)
        );
        assert!(!a.quick && !a.repeat_check && a.json.is_none() && a.spans.is_none());
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            "",
            "--seed 3",
            "--workload",
            "--workload x --trace 2",
            "--workload x --seed -1",
            "--workload x --seconds 0",
            "--workload x --passes 5",
        ] {
            assert!(parse_args(argv(bad)).is_err(), "{bad:?} should be refused");
        }
    }

    /// A measured invocation's worth of synthetic inputs: enough to name
    /// every metric without running a simulation.
    fn emitted_names() -> (Values, Values) {
        let workload = workloads::workload("fig9-chain10", 11, true).expect("workload");
        let records: Vec<RunRecord> = workload
            .runs
            .iter()
            .map(|_| RunRecord {
                phases_ns: [1, 2, 3, 4, 5, 6],
                bounds_ns: [0; 7],
                sim_s: 100.0,
                events: 50,
                fingerprint: 1,
                energy_j: 2.0,
                delivered_bits: 4e6,
                local_recoveries: 1,
                source_retransmissions: 1,
                failure: None,
            })
            .collect();
        let measured = Measured {
            passes: vec![PassWall::of(&records)],
            records,
            vm_hwm_kb: 4096,
        };
        let mut per_layer = ledger::per_layer(&workload, &measured, &[], &Traced::default(), 0.5);
        per_layer.extend(micro::ROWS.iter().map(|(name, _)| (name.to_string(), 1.0)));
        (ledger::end_to_end(&workload, &measured), per_layer)
    }

    #[test]
    fn a_quick_traced_pass_repeats_the_untraced_fingerprints() {
        let workload = workloads::workload("fig9-chain10", 11, true).expect("workload");
        let epoch = Instant::now();
        let reference = untraced_pass(&workload.runs, 1, epoch);
        let mut failures = Failures::default();
        failures.check_pass(&workload, &reference, &reference, "the warm-up pass's");
        let traced = traced_pass(&workload, epoch, &reference, &mut failures);
        assert!(failures.runs.is_empty(), "{:?}", failures.reasons);
        assert!(traced.emitted > 0 && traced.counters.sends > 0);
        assert!(traced.time.dispatch_wall_ns() > 0);

        // Per run, the six phase spans tile the root span.
        let spans = &traced.spans.spans;
        let roots: Vec<_> = spans.iter().filter(|s| s.parent.is_none()).collect();
        assert_eq!(roots.len(), workload.runs.len());
        for root in roots {
            let phases: u64 = spans
                .iter()
                .filter(|s| s.parent == Some(root.id))
                .map(|s| s.covered_ns())
                .sum();
            assert_eq!(phases, root.covered_ns());
        }

        // A run whose results differ from the first pass's is a failed op.
        let mut tampered = reference.clone();
        tampered[1].fingerprint ^= 1;
        failures.check_pass(&workload, &tampered, &reference, "a tampered pass's");
        assert_eq!(failures.runs.iter().copied().collect::<Vec<_>>(), [1]);
        assert!(failures.reasons[0].contains("differs from the first pass's"));
    }

    #[test]
    fn emitted_names_are_exactly_the_declared_ones() {
        let (e2e, per_layer) = emitted_names();
        let declared: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(e2e.iter().map(|(n, _)| n).collect::<Vec<_>>(), declared);
        let layers = in_declared_order(PER_LAYER.iter().map(|m| m.0), &per_layer)
            .expect("per-layer names match");
        assert_eq!(layers.len(), PER_LAYER.len());
        // Every value has a unit, and the result line is well formed.
        assert!(layers.iter().all(|(n, _)| !unit_of(n).is_empty()));
        let line = metrics_json(&e2e);
        assert!(line.starts_with("{\"sim_s_per_wall_s\": {\"value\": "));
        assert!(line.ends_with("\"unit\": \"kbit/s\"}}"));
    }

    #[test]
    fn an_undeclared_or_missing_metric_is_an_error() {
        let (_, mut per_layer) = emitted_names();
        per_layer.push(("bogus".to_string(), 1.0));
        assert!(in_declared_order(PER_LAYER.iter().map(|m| m.0), &per_layer).is_err());
        per_layer.truncate(3);
        assert!(in_declared_order(PER_LAYER.iter().map(|m| m.0), &per_layer).is_err());
    }

    #[test]
    fn repeat_check_flags_gaps_beyond_the_bound() {
        let (first, _) = emitted_names();
        assert!(repeat_check_failures(&first, &first, (1, 1)).is_empty());
        let mut second = first.clone();
        second[0].1 *= 1.13; // sim_s_per_wall_s, bound 12 %
        second[3].1 *= 1.001; // energy_uj_per_bit, inside its bound
        let failed = repeat_check_failures(&first, &second, (1, 2));
        assert_eq!(failed.len(), 2, "{failed:?}");
        assert!(failed[0].starts_with("results_fnv"));
        assert!(failed[1].starts_with("sim_s_per_wall_s"));
    }
}
