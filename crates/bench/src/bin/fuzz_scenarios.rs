//! Differential scenario fuzzer driver.
//!
//! Sweeps a window of generated adversarial scenarios through
//! `jtp_netsim::fuzz`'s oracle stack (naive vs skip engine, subscriber
//! stack vs plain digest, parallel vs sequential batches, metamorphic
//! invariants, conservation checks).
//! Panics inside a case are caught and
//! reported as failures with a self-contained repro, so one bad case
//! never hides the rest of the sweep; genuine divergences are greedily
//! shrunk to a minimal still-failing scenario before being reported.
//!
//! ```text
//! cargo run --release -p jtp-bench --bin fuzz_scenarios -- \
//!     [--cases N] [--seed S] [--start I] [--repro-file PATH]
//! ```
//!
//! Exits 1 if any case diverges (CI fails the fuzz-smoke job on that and
//! uploads `--repro-file` as an artifact).

use jtp_netsim::{CaseOutcome, ScenarioGen};
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

struct FuzzArgs {
    cases: u64,
    seed: u64,
    start: u64,
    repro_file: Option<String>,
}

fn parse_args() -> Result<FuzzArgs, String> {
    let mut out = FuzzArgs {
        cases: 500,
        seed: 1,
        start: 0,
        repro_file: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--cases" => {
                out.cases = value("--cases")?
                    .parse()
                    .map_err(|e| format!("--cases: {e}"))?
            }
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--start" => {
                out.start = value("--start")?
                    .parse()
                    .map_err(|e| format!("--start: {e}"))?
            }
            "--repro-file" => out.repro_file = Some(value("--repro-file")?),
            "--help" | "-h" => {
                println!(
                    "usage: fuzz_scenarios [--cases N] [--seed S] [--start I] [--repro-file PATH]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fuzz_scenarios: {e}");
            std::process::exit(2);
        }
    };
    let gen = ScenarioGen::new(args.seed);
    let mut passed = 0u64;
    let mut rejected = 0u64;
    let mut engine_runs = 0u64;
    let mut repros: Vec<String> = Vec::new();

    println!(
        "fuzzing {} cases (seed {}, indices {}..{})",
        args.cases,
        args.seed,
        args.start,
        args.start + args.cases
    );
    for index in args.start..args.start + args.cases {
        // A panic inside the engine is itself a finding: report it with
        // the same repro shape as an oracle divergence and keep sweeping.
        let report = catch_unwind(AssertUnwindSafe(|| gen.run_case(index)));
        match report {
            Ok(r) => match &r.outcome {
                CaseOutcome::Pass { engine_runs: n } => {
                    passed += 1;
                    engine_runs += *n as u64;
                }
                CaseOutcome::Rejected { .. } => rejected += 1,
                CaseOutcome::Diverged { .. } => {
                    let repro = r.repro();
                    eprintln!("{repro}");
                    repros.push(repro);
                }
            },
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic payload");
                let case = gen.generate(index);
                let repro = format!(
                    "--- fuzz case seed={} index={index} transport={:?} ---\n\
                     PANIC: {msg}\n\
                     rerun: cargo run --release -p jtp-bench --bin fuzz_scenarios -- \
                     --seed {} --start {index} --cases 1\n\
                     scenario: {:#?}\n",
                    args.seed, case.transport, args.seed, case.scenario
                );
                eprintln!("{repro}");
                repros.push(repro);
            }
        }
        if (index + 1 - args.start).is_multiple_of(100) {
            println!(
                "  {:>6}/{} done  ({passed} passed, {rejected} rejected, {} diverged)",
                index + 1 - args.start,
                args.cases,
                repros.len()
            );
        }
    }

    println!(
        "done: {passed} passed ({engine_runs} engine runs), {rejected} rejected, {} diverged",
        repros.len()
    );
    if let Some(path) = &args.repro_file {
        if repros.is_empty() {
            let _ = std::fs::remove_file(path);
        } else {
            let mut f = std::fs::File::create(path).expect("create repro file");
            for r in &repros {
                writeln!(f, "{r}").expect("write repro file");
            }
            println!("repros written to {path}");
        }
    }
    if !repros.is_empty() {
        std::process::exit(1);
    }
}
