//! Scenario-catalog sweeps: `scenarios matrix` sweeps the catalog across
//! the five transports, `scenarios report` writes per-scenario reports.
//! `scenarios --help` lists each subcommand's flags.

mod matrix;
mod report;

use jtp_bench::{Args, Command};

const COMMANDS: [Command; 2] = [
    Command {
        sections: &["catalog", "transports"],
        ..Command::new("matrix")
    },
    Command {
        md: true,
        ..Command::new("report")
    },
];

fn main() {
    let args = Args::parse("scenarios", &COMMANDS);
    match args.command {
        "matrix" => matrix::run(&args),
        "report" => report::run(&args),
        other => unreachable!("parser accepted unknown command {other}"),
    }
}
