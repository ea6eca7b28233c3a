//! Who measured: the host fingerprint every report carries, and the
//! process memory readings from `/proc/self/status`.

use std::process::Command;

/// Host and build identity recorded with every measurement (ROADMAP: a
/// number counts only on "a host whose core count and CPU are recorded").
#[derive(Clone, Debug)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_sha: String,
    pub debug_assertions: bool,
}

impl Host {
    pub fn probe() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: std::thread::available_parallelism().map_or(0, |p| p.get()),
            cpu_model,
            // The toolchain on PATH, which is the one `cargo run` built with.
            rustc: command_line("rustc", &["--version"]),
            // "unknown" outside a git checkout (the driver's checkouts
            // are plain directories).
            git_sha: command_line("git", &["rev-parse", "HEAD"]),
            debug_assertions: cfg!(debug_assertions),
        }
    }
}

/// First line a command prints, or "unknown" if it cannot run or fails.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(|l| l.trim().to_string()))
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One `kB` field of `/proc/self/status` (0 where procfs is absent).
fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set of this process so far, in kB.
pub fn vm_hwm_kb() -> u64 {
    status_kb("VmHWM:")
}

/// Current resident set of this process, in kB.
pub fn vm_rss_kb() -> u64 {
    status_kb("VmRSS:")
}
