//! Differential scenario fuzzer: sweep a window of generated adversarial
//! scenarios through `jtp_netsim::fuzz`'s oracle stack (naive vs skip
//! engine, subscriber stack vs plain digest, parallel vs sequential
//! batches, metamorphic invariants, conservation checks).
//!
//! A panic inside a case is caught and reported as a divergence, so one
//! bad case never hides the rest of the sweep; genuine divergences are
//! greedily shrunk to a minimal still-failing scenario. Every failure is
//! printed as its [`CaseReport::repro`].
//!
//! Run: `cargo run --release -p jtp-bench --bin scenarios -- fuzz
//! [--cases N] [--seed S] [--start I] [--repro-file PATH]`
//!
//! Exits 1 if any case diverges (CI's fuzz job fails on that and uploads
//! `--repro-file` as an artifact).

use jtp_bench::Args;
use jtp_netsim::{CaseOutcome, CaseReport, ScenarioGen};
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

pub fn run(args: &Args) {
    let window = &args.fuzz;
    let gen = ScenarioGen::new(window.seed);
    // The parser rejects a window whose end overflows.
    let end = window.start + window.cases;
    let mut passed = 0u64;
    let mut rejected = 0u64;
    let mut engine_runs = 0u64;
    let mut repros: Vec<String> = Vec::new();

    println!(
        "fuzzing {} cases (seed {}, indices {}..{end})",
        window.cases, window.seed, window.start
    );
    for index in window.start..end {
        let report = catch_unwind(AssertUnwindSafe(|| gen.run_case(index)))
            .unwrap_or_else(|panic| panicked(&gen, index, panic.as_ref()));
        match &report.outcome {
            CaseOutcome::Pass { engine_runs: n } => {
                passed += 1;
                engine_runs += *n as u64;
            }
            CaseOutcome::Rejected { .. } => rejected += 1,
            CaseOutcome::Diverged { .. } => {
                let repro = report.repro();
                eprintln!("{repro}");
                repros.push(repro);
            }
        }
        let swept = index + 1 - window.start;
        if swept.is_multiple_of(100) {
            println!(
                "  {swept:>6}/{} done  ({passed} passed, {rejected} rejected, {} diverged)",
                window.cases,
                repros.len()
            );
        }
    }

    println!(
        "done: {passed} passed ({engine_runs} engine runs), {rejected} rejected, {} diverged",
        repros.len()
    );
    if let Some(path) = &window.repro_file {
        if repros.is_empty() {
            let _ = std::fs::remove_file(path);
        } else {
            let mut f = std::fs::File::create(path).expect("create repro file");
            for r in &repros {
                writeln!(f, "{r}").expect("write repro file");
            }
            println!("repros written to {}", path.display());
        }
    }
    if !repros.is_empty() {
        std::process::exit(1);
    }
}

/// A panic inside the engine is itself a finding: report it as a
/// divergence of the regenerated case, unshrunk.
fn panicked(gen: &ScenarioGen, index: u64, panic: &(dyn std::any::Any + Send)) -> CaseReport {
    let msg = panic
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or("non-string panic payload");
    let case = gen.generate(index);
    CaseReport {
        seed: gen.seed,
        index,
        transport: case.transport,
        scenario: case.scenario,
        outcome: CaseOutcome::Diverged {
            failures: vec![format!("PANIC: {msg}")],
        },
        shrunk: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panic_is_reported_through_the_case_repro() {
        let payload: Box<dyn std::any::Any + Send> = Box::new("boom");
        let report = panicked(&ScenarioGen::new(3), 7, payload.as_ref());
        assert!(report.is_failure());
        let repro = report.repro();
        assert!(
            repro.starts_with("--- fuzz case seed=3 index=7 "),
            "{repro}"
        );
        assert!(repro.contains("\nFAIL: PANIC: boom\n"), "{repro}");
        assert!(repro.contains("--seed 3 --start 7 --cases 1"), "{repro}");
    }
}
