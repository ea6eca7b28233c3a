//! # jtp-bench — experiment harness
//!
//! One binary per figure/table of the paper (see DESIGN.md §4 for the
//! index). Every binary accepts `--quick` (reduced replicas/durations for
//! smoke runs) and `--json <path>` (machine-readable results next to the
//! human-readable tables).
//!
//! The binaries print the same rows/series the paper reports; absolute
//! values differ from the paper's OPNET/JAVeLEN numbers (different radio
//! constants), but the *shape* — who wins, by what factor, where the
//! crossovers fall — is the reproduction target (see EXPERIMENTS.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use jtp_netsim::{ExperimentConfig, FlowSpec};
use jtp_sim::{NodeId, SimDuration, SimRng};
use serde::Serialize;
use std::path::PathBuf;

/// Common command-line arguments of the experiment binaries.
#[derive(Clone, Debug, Default)]
pub struct Args {
    /// Reduced replicas and durations (CI-friendly).
    pub quick: bool,
    /// Optional JSON output path.
    pub json: Option<PathBuf>,
    /// Named sections to run (empty = all). Only populated by
    /// [`Args::parse_with_sections`]; the plain [`Args::parse`] rejects
    /// `--section` outright, so a binary without sections can never
    /// accept the flag and silently ignore it.
    pub sections: Vec<String>,
}

impl Args {
    /// Parse from `std::env::args`. `--section` is an error here — use
    /// [`Args::parse_with_sections`] in binaries that define sections.
    pub fn parse() -> Args {
        Self::parse_or_exit(None)
    }

    /// Parse from `std::env::args`, accepting `--section <name>`
    /// (repeatable) restricted to `known`. A request for a section this
    /// binary does not have is a **hard error, never a silent skip**: a
    /// CI job asking for a section that was renamed or dropped must
    /// turn red, not upload an artifact missing the data it gates on.
    pub fn parse_with_sections(known: &[&str]) -> Args {
        Self::parse_or_exit(Some(known))
    }

    fn parse_or_exit(known: Option<&[&str]>) -> Args {
        Self::parse_inner(std::env::args().skip(1), known).unwrap_or_else(|(code, msg)| {
            eprintln!("{msg}");
            std::process::exit(code)
        })
    }

    /// Parse `args` (without the program name). `Err((code, message))`
    /// means print the message and exit with the code: 0 for `--help`,
    /// 2 for a usage error.
    fn parse_inner(
        mut it: impl Iterator<Item = String>,
        known: Option<&[&str]>,
    ) -> Result<Args, (i32, String)> {
        let mut out = Args::default();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => out.quick = true,
                "--json" => match it.next() {
                    Some(p) => out.json = Some(PathBuf::from(p)),
                    None => return Err((2, "--json requires a path".into())),
                },
                "--section" => {
                    let Some(known) = known else {
                        return Err((
                            2,
                            "this binary has no sections; --section is not supported".into(),
                        ));
                    };
                    match it.next() {
                        Some(s) if known.iter().any(|k| *k == s) => out.sections.push(s),
                        Some(s) => {
                            return Err((
                                2,
                                format!(
                                    "unknown --section {s:?}; this binary has: {}",
                                    known.join(", ")
                                ),
                            ))
                        }
                        None => return Err((2, "--section requires a name".into())),
                    }
                }
                "--help" | "-h" => {
                    let section = if known.is_some() {
                        " [--section <name>]..."
                    } else {
                        ""
                    };
                    return Err((
                        0,
                        format!("usage: <bin> [--quick] [--json <path>]{section}"),
                    ));
                }
                other => return Err((2, format!("unknown argument {other}"))),
            }
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

/// Print a fixed-width table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map(|c| c.len()).unwrap_or(0))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&hdr));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for r in rows {
        println!("{}", fmt_row(r));
    }
}

/// Merge `{"<key>": body}` into an existing pretty-printed JSON object
/// file, or write a fresh one. Purely textual (the compat stand-ins have
/// no JSON parser), relying on the 2-space serde pretty format this crate
/// always writes: top-level keys — and only top-level keys — start a line
/// with exactly two spaces. An existing `"<key>"` section is replaced in
/// place (bounded by the next top-level key or the closing brace); every
/// other section is preserved verbatim. Non-object targets are refused
/// instead of silently corrupted.
pub fn merge_json_section(path: &std::path::Path, key: &str, body_json: &str) {
    let entry = format!("\n  \"{key}\": {}", body_json.replace('\n', "\n  "));
    let merged = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let t = existing.trim_end();
            assert!(
                t.starts_with('{') && t.ends_with('}'),
                "{path:?} is not a JSON object; refusing to merge a \"{key}\" section into it"
            );
            let inner = &t[1..t.len() - 1];
            let marker = format!("\n  \"{key}\":");
            let (before, after) = match inner.find(&marker) {
                Some(pos) => {
                    let rest = &inner[pos + marker.len()..];
                    let end = rest
                        .find("\n  \"")
                        .map(|e| pos + marker.len() + e)
                        .unwrap_or(inner.len());
                    (&inner[..pos], &inner[end..])
                }
                None => (inner, ""),
            };
            let mut out = String::from("{");
            let before = before.trim_end().trim_end_matches(',');
            if !before.trim().is_empty() {
                out.push_str(before);
                out.push(',');
            }
            out.push_str(&entry);
            let after = after.trim_end();
            if !after.trim().is_empty() {
                out.push(',');
                out.push_str(after);
            }
            out.push_str("\n}");
            out
        }
        Err(_) => format!("{{{entry}\n}}"),
    };
    std::fs::write(path, merged).unwrap_or_else(|e| panic!("writing {path:?}: {e}"));
    println!("\n[\"{key}\" section written to {path:?}]");
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

/// Attach pre-generated flows to a config.
pub fn with_flows(mut cfg: ExperimentConfig, flows: Vec<FlowSpec>) -> ExperimentConfig {
    cfg.flows = flows;
    cfg
}

/// Mean of a slice (0 on empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
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

    #[test]
    fn merge_json_section_inserts_replaces_and_preserves() {
        let dir = std::env::temp_dir().join(format!("jtp-bench-merge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("merged.json");
        let _ = std::fs::remove_file(&path);

        // Fresh file.
        merge_json_section(&path, "alpha", "{\n  \"x\": 1\n}");
        let got = std::fs::read_to_string(&path).unwrap();
        assert_eq!(got, "{\n  \"alpha\": {\n    \"x\": 1\n  }\n}");

        // Append a second section, preserving the first verbatim.
        merge_json_section(&path, "beta", "[1, 2]");
        let got = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            got,
            "{\n  \"alpha\": {\n    \"x\": 1\n  },\n  \"beta\": [1, 2]\n}"
        );

        // Replace a *non-trailing* section in place; the tail survives.
        merge_json_section(&path, "alpha", "7");
        let got = std::fs::read_to_string(&path).unwrap();
        assert_eq!(got, "{\n  \"alpha\": 7,\n  \"beta\": [1, 2]\n}");

        // Replace the trailing section.
        merge_json_section(&path, "beta", "8");
        let got = std::fs::read_to_string(&path).unwrap();
        assert_eq!(got, "{\n  \"alpha\": 7,\n  \"beta\": 8\n}");
        std::fs::remove_file(&path).unwrap();
    }

    fn parse(args: &[&str], known: Option<&[&str]>) -> Result<Args, (i32, String)> {
        Args::parse_inner(args.iter().map(|a| a.to_string()), known)
    }

    #[test]
    fn json_flag_requires_a_path() {
        let args = parse(&["--quick", "--json", "out.json"], None).unwrap();
        assert!(args.quick);
        assert_eq!(args.json, Some(PathBuf::from("out.json")));
        assert_eq!(
            parse(&["--quick", "--json"], None).unwrap_err(),
            (2, "--json requires a path".to_string())
        );
    }

    #[test]
    fn section_flag_is_checked_against_known_sections() {
        assert_eq!(parse(&["--section", "a"], None).unwrap_err().0, 2);
        assert_eq!(parse(&["--section", "b"], Some(&["a"])).unwrap_err().0, 2);
        assert_eq!(parse(&["--section"], Some(&["a"])).unwrap_err().0, 2);
        let args = parse(&["--section", "a"], Some(&["a"])).unwrap();
        assert_eq!(args.sections, vec!["a".to_string()]);
        assert_eq!(parse(&["--help"], None).unwrap_err().0, 0);
        assert_eq!(parse(&["--bogus"], None).unwrap_err().0, 2);
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
