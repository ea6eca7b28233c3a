//! Scenario-catalog sweeps and the differential fuzzer: `scenarios
//! matrix` sweeps the catalog across the five transports, `scenarios
//! report` writes per-scenario reports, `scenarios fuzz` checks generated
//! scenarios against the engine's redundant implementations.
//! `scenarios --help` lists each subcommand's flags.

mod fuzz;
mod matrix;
mod report;

use jtp_bench::{Args, Command};

const COMMANDS: [Command; 3] = [
    Command {
        sections: &["catalog", "transports"],
        ..Command::new("matrix")
    },
    Command {
        md: true,
        ..Command::new("report")
    },
    Command {
        json: false,
        fuzz: true,
        ..Command::new("fuzz")
    },
];

fn main() {
    let args = Args::parse("scenarios", &COMMANDS);
    match args.command {
        "matrix" => matrix::run(&args),
        "report" => report::run(&args),
        "fuzz" => fuzz::run(&args),
        other => unreachable!("parser accepted unknown command {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jtp_bench::FuzzWindow;
    use jtp_netsim::ScenarioGen;

    #[test]
    fn repro_rerun_line_selects_the_failing_case() {
        let repro = ScenarioGen::new(1).run_case(0).repro();
        let rerun = repro
            .lines()
            .find_map(|l| l.strip_prefix("rerun: "))
            .expect("repro has a rerun line");
        let (cargo, argv) = rerun.split_once(" -- ").expect("rerun passes binary args");
        assert!(cargo.ends_with("--bin scenarios"), "{rerun}");
        let args = Args::try_parse(
            "scenarios",
            &COMMANDS,
            argv.split_whitespace().map(String::from),
        )
        .expect("rerun line parses");
        assert_eq!(args.command, "fuzz");
        assert_eq!(
            args.fuzz,
            FuzzWindow {
                cases: 1,
                seed: 1,
                start: 0,
                repro_file: None,
            }
        );
    }
}
