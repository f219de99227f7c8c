//! The environment header printed above every result.

use std::path::Path;

/// Worker threads the machine offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; `none` outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "none".to_owned();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.chars().take(12).collect();
    };
    let rev = read(name).or_else(|| {
        read("packed-refs")?
            .lines()
            .find(|l| l.ends_with(name))
            .map(|l| l.split(' ').next().unwrap_or_default().to_owned())
    });
    rev.map_or_else(
        || "none".to_owned(),
        |r| r.trim().chars().take(12).collect(),
    )
}

/// A digest of the program's sources (`crates/`, the root manifest and
/// lock file), identifying the measured code where no git revision is
/// available.
pub fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![
        Path::new("Cargo.toml").into(),
        Path::new("Cargo.lock").into(),
    ];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut all = String::new();
    for f in &files {
        all.push_str(&f.to_string_lossy());
        all.push_str(&std::fs::read_to_string(f).unwrap_or_default());
    }
    crate::check::digest(&all)
}

/// Peak resident memory of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative `(steal, total)` CPU ticks of the machine, from
/// `/proc/stat`: time a hypervisor ran something else on this machine's
/// CPUs, which slows every timing here.
pub fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}
