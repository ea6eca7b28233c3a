//! The paper's evidence, one subcommand per figure, table or study.
//!
//! ```text
//! cargo run --release -p jtp-bench --bin paper -- <name> [--quick] [--json <path>]
//! cargo run --release -p jtp-bench --bin paper -- all [--quick]
//! ```
//!
//! Each experiment prints its tables and one `shape check: …: PASS|FAIL`
//! line per paper claim it checks. The exit code is 1 if any claim
//! printed FAIL, 2 on a usage error.

mod ablation;
mod analysis;
mod fig10;
mod fig11;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod fig7;
mod fig8;
mod fig9;
mod lifetime;
mod table2;

use jtp_bench::{Args, Claim, Command};

type Experiment = (&'static str, fn(&Args) -> Vec<Claim>);

/// Every experiment, in the order `paper all` runs them (README's
/// "Paper experiments" table lists them in the same order).
const EXPERIMENTS: [Experiment; 13] = [
    ("fig3", fig3::run),
    ("fig4", fig4::run),
    ("fig5", fig5::run),
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("fig8", fig8::run),
    ("fig9", fig9::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("table2", table2::run),
    ("analysis", analysis::run),
    ("ablation", ablation::run),
    ("lifetime", lifetime::run),
];

fn commands() -> Vec<Command> {
    // `all` takes no `--json`: there is no single file to write.
    let all = Command {
        json: false,
        ..Command::new("all")
    };
    let names = EXPERIMENTS.iter().map(|(name, _)| Command::new(name));
    names.chain([all]).collect()
}

fn run(args: &Args) -> Vec<Claim> {
    if args.command != "all" {
        let (_, experiment) = EXPERIMENTS
            .iter()
            .find(|(name, _)| *name == args.command)
            .expect("the parser only accepts known names");
        return experiment(args);
    }
    let mut claims = Vec::new();
    for (name, experiment) in EXPERIMENTS {
        println!("\n#### paper {name}");
        claims.extend(experiment(args));
    }
    let passed = claims.iter().filter(|c| c.pass).count();
    println!("\npaper all: {passed}/{} claims PASS", claims.len());
    claims
}

fn main() {
    let args = Args::parse("paper", &commands());
    if run(&args).iter().any(|c| !c.pass) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jtp_bench::render_claims;

    fn parse(args: &[&str]) -> Result<Args, (i32, String)> {
        Args::try_parse("paper", &commands(), args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = commands().iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), commands().len());
    }

    #[test]
    fn all_runs_in_the_readme_order() {
        let section = include_str!("../../../../../README.md")
            .split("\n## ")
            .find(|s| s.starts_with("Paper experiments"))
            .expect("README has a \"Paper experiments\" section");
        let listed: Vec<&str> = section
            .lines()
            .filter_map(|l| l.strip_prefix("| `")?.split('`').next())
            .collect();
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        assert_eq!(listed, names);
    }

    #[test]
    fn unknown_name_and_all_json_are_usage_errors() {
        assert_eq!(parse(&["fig12"]).unwrap_err().0, 2);
        assert_eq!(parse(&["all", "--json", "p"]).unwrap_err().0, 2);
        assert_eq!(parse(&["fig9", "--md", "x"]).unwrap_err().0, 2);
        assert!(parse(&["all", "--quick"]).unwrap().quick);
    }

    #[test]
    fn claim_printer_matches_the_legacy_lines() {
        let claims = [
            Claim::new("caches were exercised in both variants", true),
            Claim::new("back-off leaves the competing flow >= capacity", false),
        ];
        assert_eq!(
            render_claims(&claims, true),
            "\nshape check: caches were exercised in both variants: PASS\n\
             shape check: back-off leaves the competing flow >= capacity: FAIL\n"
        );
        assert_eq!(
            render_claims(&[Claim::new("JTP lowest energy/bit", true)], false),
            "shape check: JTP lowest energy/bit: PASS\n"
        );
    }
}
