//! # jtp-bench — experiment harness
//!
//! Two binaries carry the experiments: `paper <name>` runs one figure,
//! table or study of the paper (`paper all` runs every one of them), and
//! `scenarios <matrix|report|fuzz>` runs the scenario-catalog sweeps and
//! the differential fuzzer. Each experiment accepts `--quick` (reduced
//! replicas/durations for smoke runs) and `--json <path>`
//! (machine-readable results next to the human-readable tables); README's
//! "Paper experiments" section lists them. `fuzz` takes its case window
//! instead ([`FuzzWindow`]).
//!
//! The experiments print the same rows/series the paper reports; absolute
//! values differ from the paper's OPNET/JAVeLEN numbers (different radio
//! constants), but the *shape* — who wins, by what factor, where the
//! crossovers fall — is the reproduction target. Each shape is a
//! [`Claim`], printed by [`render_claims`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use jtp_netsim::FlowSpec;
use jtp_sim::{NodeId, SimDuration, SimRng};
use serde::Serialize;
use std::path::PathBuf;

/// One subcommand of an experiment binary and the flags it takes. A flag
/// the chosen subcommand does not take is a **usage error, never a silent
/// skip**: a CI job passing a flag that was renamed or dropped must turn
/// red, not upload an artifact missing the data it gates on.
#[derive(Clone, Copy, Debug)]
pub struct Command {
    /// The subcommand name, the first argument.
    pub name: &'static str,
    /// Takes `--json <path>`.
    pub json: bool,
    /// Takes `--md <path>`.
    pub md: bool,
    /// The names `--section` (repeatable) may take; empty means the
    /// subcommand takes no `--section`.
    pub sections: &'static [&'static str],
    /// Takes the [`FuzzWindow`] flags (`--cases`, `--seed`, `--start`,
    /// `--repro-file`) instead of `--quick`: the window sizes the run.
    pub fuzz: bool,
}

impl Command {
    /// A subcommand taking `--quick` and `--json <path>` only.
    pub const fn new(name: &'static str) -> Command {
        Command {
            name,
            json: true,
            md: false,
            sections: &[],
            fuzz: false,
        }
    }

    fn usage(&self) -> String {
        let sections = format!(" [--section <{}>]...", self.sections.join("|"));
        [
            (!self.fuzz, " [--quick]"),
            (self.json, " [--json <path>]"),
            (self.md, " [--md <path>]"),
            (!self.sections.is_empty(), &sections),
            (
                self.fuzz,
                " [--cases <n>] [--seed <n>] [--start <n>] [--repro-file <path>]",
            ),
        ]
        .iter()
        .filter(|(takes, _)| *takes)
        .fold(self.name.to_string(), |u, (_, f)| u + f)
    }
}

/// The window of generated cases `scenarios fuzz` sweeps: indices
/// `start..start + cases` of generator `seed`. The parser guarantees the
/// end fits in a `u64`.
#[derive(Clone, Debug, PartialEq)]
pub struct FuzzWindow {
    /// Number of cases (`--cases`, default 500).
    pub cases: u64,
    /// Generator seed (`--seed`, default 1).
    pub seed: u64,
    /// First case index (`--start`, default 0).
    pub start: u64,
    /// Where to write the repros of failing cases (`--repro-file`).
    pub repro_file: Option<PathBuf>,
}

impl Default for FuzzWindow {
    fn default() -> FuzzWindow {
        FuzzWindow {
            cases: 500,
            seed: 1,
            start: 0,
            repro_file: None,
        }
    }
}

/// Parsed command line of an experiment binary.
#[derive(Clone, Debug, Default)]
pub struct Args {
    /// The chosen subcommand's [`Command::name`].
    pub command: &'static str,
    /// Reduced replicas and durations (CI-friendly).
    pub quick: bool,
    /// Optional JSON output path.
    pub json: Option<PathBuf>,
    /// Optional markdown output path.
    pub md: Option<PathBuf>,
    /// Named sections to run (empty = all).
    pub sections: Vec<String>,
    /// The fuzz case window.
    pub fuzz: FuzzWindow,
}

impl Args {
    /// Parse `std::env::args` as `<bin> <command> [flags]` against
    /// `commands`; print the message and exit on `--help` (0) or a usage
    /// error (2).
    pub fn parse(bin: &str, commands: &[Command]) -> Args {
        Self::try_parse(bin, commands, std::env::args().skip(1)).unwrap_or_else(|(code, msg)| {
            eprintln!("{msg}");
            std::process::exit(code)
        })
    }

    /// Parse `args` (without the program name). `Err((code, message))`
    /// means print the message and exit with the code: 0 for `--help`,
    /// 2 for a usage error.
    pub fn try_parse(
        bin: &str,
        commands: &[Command],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Args, (i32, String)> {
        let usage = commands.iter().fold("usage:".to_string(), |u, c| {
            u + &format!("\n  {bin} {}", c.usage())
        });
        let mut it = args.into_iter();
        let first = it.next().unwrap_or_default();
        let Some(cmd) = commands.iter().find(|c| c.name == first) else {
            return Err(match first.as_str() {
                "--help" | "-h" => (0, usage),
                "" => (2, usage),
                _ => (2, format!("unknown command {first:?}\n{usage}")),
            });
        };
        let mut out = Args {
            command: cmd.name,
            ..Args::default()
        };
        let cmd_usage = || format!("usage: {bin} {}", cmd.usage());
        while let Some(flag) = it.next() {
            let takes = match flag.as_str() {
                "--help" | "-h" => return Err((0, cmd_usage())),
                "--quick" => !cmd.fuzz,
                "--json" => cmd.json,
                "--md" => cmd.md,
                "--section" => !cmd.sections.is_empty(),
                "--cases" | "--seed" | "--start" | "--repro-file" => cmd.fuzz,
                _ => return Err((2, format!("unknown argument {flag}"))),
            };
            if !takes {
                let msg = format!("{} does not take {flag}; {}", cmd.name, cmd_usage());
                return Err((2, msg));
            }
            if flag == "--quick" {
                out.quick = true;
                continue;
            }
            let Some(value) = it.next() else {
                let what = match flag.as_str() {
                    "--section" => "name",
                    "--cases" | "--seed" | "--start" => "number",
                    _ => "path",
                };
                return Err((2, format!("{flag} requires a {what}")));
            };
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|e| (2, format!("{flag} {value:?}: {e}")))
            };
            match flag.as_str() {
                "--json" => out.json = Some(value.into()),
                "--md" => out.md = Some(value.into()),
                "--cases" => out.fuzz.cases = number()?,
                "--seed" => out.fuzz.seed = number()?,
                "--start" => out.fuzz.start = number()?,
                "--repro-file" => out.fuzz.repro_file = Some(value.into()),
                _ if cmd.sections.contains(&value.as_str()) => out.sections.push(value),
                _ => return Err((2, format!("unknown --section {value:?}; {}", cmd_usage()))),
            }
        }
        let FuzzWindow { start, cases, .. } = out.fuzz;
        if start.checked_add(cases).is_none() {
            return Err((
                2,
                format!("--start {start} + --cases {cases} overflows u64"),
            ));
        }
        Ok(out)
    }

    /// Pick between full and quick values.
    pub fn pick<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Should the named section run? (All sections run when no
    /// `--section` was given.)
    pub fn section_enabled(&self, name: &str) -> bool {
        self.sections.is_empty() || self.sections.iter().any(|s| s == name)
    }
}

/// One paper-shape claim an experiment checks, and whether it held.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Claim {
    /// What the paper says, e.g. "JTP lowest energy/bit".
    pub text: &'static str,
    /// Whether this run reproduced it.
    pub pass: bool,
}

impl Claim {
    /// A claim and its verdict.
    pub fn new(text: &'static str, pass: bool) -> Claim {
        Claim { text, pass }
    }
}

/// The claim block as printed: one `shape check: <text>: PASS|FAIL` line
/// per claim, after a blank line when `blank_line` is set.
pub fn render_claims(claims: &[Claim], blank_line: bool) -> String {
    let mut out = String::new();
    if blank_line {
        out.push('\n');
    }
    for c in claims {
        let verdict = if c.pass { "PASS" } else { "FAIL" };
        out.push_str(&format!("shape check: {}: {verdict}\n", c.text));
    }
    out
}

/// The tail of a paper experiment: print its claims after a blank line,
/// write `results` to the `--json` path if one was given, and hand the
/// claims back.
pub fn finish<T: Serialize>(args: &Args, results: &T, claims: Vec<Claim>) -> Vec<Claim> {
    print!("{}", render_claims(&claims, true));
    maybe_write_json(args, results);
    claims
}

/// Print a fixed-width table with one row per item.
pub fn print_table<T>(title: &str, headers: &[&str], items: &[T], row: impl Fn(&T) -> Vec<String>) {
    let header = headers.iter().map(|h| h.to_string()).collect();
    let rows: Vec<Vec<String>> = std::iter::once(header)
        .chain(items.iter().map(row))
        .collect();
    let widths: Vec<usize> = (0..headers.len())
        .map(|i| {
            let cell = |r: &Vec<String>| r.get(i).map_or(0, String::len);
            rows.iter().map(cell).max().unwrap_or(0)
        })
        .collect();
    println!("\n== {title} ==");
    for (k, r) in rows.iter().enumerate() {
        let cells: Vec<String> = r
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("{}", cells.join("  "));
        if k == 0 {
            let rule = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
            println!("{}", "-".repeat(rule));
        }
    }
}

/// Serialise results to the requested JSON path, if any.
pub fn maybe_write_json<T: Serialize>(args: &Args, value: &T) {
    if let Some(path) = &args.json {
        let s = serde_json::to_string_pretty(value).expect("serialisable results");
        std::fs::write(path, s).unwrap_or_else(|e| panic!("writing {path:?}: {e}"));
        println!("\n[json results written to {path:?}]");
    }
}

/// Generate `k` random flows with distinct endpoints over `n` nodes,
/// starting uniformly in `[start_lo, start_hi]` seconds (the paper's
/// "source and destination nodes … chosen randomly").
pub fn random_flows(
    n: usize,
    k: usize,
    packets: u32,
    start_lo: f64,
    start_hi: f64,
    seed: u64,
) -> Vec<FlowSpec> {
    let mut rng = SimRng::derive(seed, "workload-flows");
    (0..k)
        .map(|_| {
            let src = rng.below(n);
            let dst = loop {
                let d = rng.below(n);
                if d != src {
                    break d;
                }
            };
            FlowSpec {
                src: NodeId(src as u32),
                dst: NodeId(dst as u32),
                start: SimDuration::from_secs_f64(rng.uniform(start_lo, start_hi)),
                packets,
                loss_tolerance: 0.0,
                initial_rate_pps: None,
            }
        })
        .collect()
}

/// Mean of a slice (0 on empty).
pub fn mean(xs: &[f64]) -> f64 {
    mean_by(xs, |&x| x)
}

/// Mean of `f` over a slice (0 on empty).
pub fn mean_by<T>(xs: &[T], f: impl Fn(&T) -> f64) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().map(f).sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_flows_have_distinct_endpoints() {
        let flows = random_flows(10, 20, 50, 900.0, 1000.0, 3);
        assert_eq!(flows.len(), 20);
        for f in &flows {
            assert_ne!(f.src, f.dst);
            let s = f.start.as_secs_f64();
            assert!((900.0..=1000.0).contains(&s));
        }
    }

    #[test]
    fn random_flows_deterministic() {
        let a = random_flows(8, 5, 10, 0.0, 10.0, 7);
        let b = random_flows(8, 5, 10, 0.0, 10.0, 7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.src, y.src);
            assert_eq!(x.dst, y.dst);
        }
    }

    #[test]
    fn mean_works() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    const COMMANDS: [Command; 4] = [
        Command::new("fig"),
        Command {
            sections: &["a"],
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

    fn parse(args: &[&str]) -> Result<Args, (i32, String)> {
        Args::try_parse("bin", &COMMANDS, args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn json_flag_requires_a_path() {
        let args = parse(&["fig", "--quick", "--json", "out.json"]).unwrap();
        assert_eq!((args.command, args.quick), ("fig", true));
        assert_eq!(args.json, Some(PathBuf::from("out.json")));
        assert_eq!(
            parse(&["fig", "--quick", "--json"]).unwrap_err(),
            (2, "--json requires a path".to_string())
        );
        assert_eq!(
            parse(&["report", "--quick", "--md"]).unwrap_err(),
            (2, "--md requires a path".to_string())
        );
        let args = parse(&["report", "--json", "a.json", "--md", "a.md"]).unwrap();
        assert_eq!(args.md, Some(PathBuf::from("a.md")));
        assert_eq!(
            parse(&["fuzz", "--repro-file"]).unwrap_err(),
            (2, "--repro-file requires a path".to_string())
        );
        for flag in ["--cases", "--seed", "--start"] {
            assert_eq!(
                parse(&["fuzz", flag]).unwrap_err(),
                (2, format!("{flag} requires a number"))
            );
        }
        let args = parse(&["fuzz", "--repro-file", "r.txt", "--start", "7"]).unwrap();
        assert_eq!(args.command, "fuzz");
        assert_eq!(
            args.fuzz,
            FuzzWindow {
                start: 7,
                repro_file: Some(PathBuf::from("r.txt")),
                ..FuzzWindow::default()
            }
        );
        assert_eq!((args.fuzz.cases, args.fuzz.seed), (500, 1));
    }

    #[test]
    fn section_flag_is_checked_against_known_sections() {
        assert_eq!(parse(&["fig", "--section", "a"]).unwrap_err().0, 2);
        assert_eq!(parse(&["matrix", "--section", "b"]).unwrap_err().0, 2);
        assert_eq!(parse(&["matrix", "--section"]).unwrap_err().0, 2);
        let args = parse(&["matrix", "--section", "a"]).unwrap();
        assert_eq!(args.sections, vec!["a".to_string()]);
        assert_eq!(parse(&["--help"]).unwrap_err().0, 0);
        assert_eq!(parse(&["fig", "--help"]).unwrap_err().0, 0);
        for bad in [
            &[][..],
            &["--quick", "fig"],
            &["fig", "--bogus"],
            &["fig", "--md", "x"],
            &["report", "--only", "grid"],
            // The fuzz window: only `fuzz` takes it, it takes nothing
            // else, its numbers are u64s and its end must fit in one.
            &["fig", "--cases", "1"],
            &["matrix", "--seed", "1"],
            &["report", "--start", "1"],
            &["fig", "--repro-file", "r.txt"],
            &["fuzz", "--quick"],
            &["fuzz", "--json", "f.json"],
            &["fuzz", "--section", "a"],
            &["fuzz", "--cases", "many"],
            &["fuzz", "--seed", "-1"],
            &["fuzz", "--start", "1.5"],
            &["fuzz", "--start", "18446744073709551615", "--cases", "2"],
            &["fuzz", "--cases", "2", "--start", "18446744073709551615"],
        ] {
            assert_eq!(parse(bad).unwrap_err().0, 2, "{bad:?}");
        }
        assert!(parse(&["fuzz", "--start", "18446744073709551614", "--cases", "1"]).is_ok());
    }

    #[test]
    fn section_selection_defaults_to_all() {
        let args = Args::default();
        assert!(args.section_enabled("mobility"));
        let picked = Args {
            sections: vec!["mobility".into()],
            ..Args::default()
        };
        assert!(picked.section_enabled("mobility"));
        assert!(!picked.section_enabled("scale"));
    }
}
