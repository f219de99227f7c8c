//! Seeded input generation and output checks against the recorded
//! reference table (`reference.tsv`).
//!
//! Every job input is drawn from a fixed pool of numbered inputs, and the
//! reference table holds one recorded output per pool entry. A run picks
//! its inputs from the pools with the workload seed, so any seed is
//! checked job by job. `--record` regenerates a workload's table lines.

use std::collections::HashMap;
use std::sync::OnceLock;

use wsn_dse::protocol::extract_raw_field;
use wsn_dse::{coded_to_config, paper_design_space};
use wsn_node::NodeConfig;

/// SplitMix64: the benchmark's own generator, so that inputs do not
/// change when the program's random number generators do.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// The pool indices `0..pool` in a seeded order: a run takes its
    /// inputs from the front, so they are distinct up to the pool size.
    pub fn permutation(seed: u64, salt: u64, pool: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..pool).collect();
        Rng::new(seed ^ salt).shuffle(&mut order);
        order
    }
}

/// A Table V design point drawn uniformly in coded space for pool entry
/// `index` of the pool named by `salt`.
pub fn design_point(salt: u64, index: usize) -> NodeConfig {
    let mut rng = Rng::new(salt.wrapping_mul(0x1000_0000_01b3) ^ index as u64);
    let coded: Vec<f64> = (0..3).map(|_| 2.0 * rng.unit() - 1.0).collect();
    coded_to_config(&paper_design_space(), &coded).expect("coded points in [-1, 1] are valid")
}

/// 32-bit FNV-1a digest of a report, printed as 8 hex digits.
pub fn digest(report: &str) -> String {
    let mut h: u32 = 0x811c_9dc5;
    for b in report.bytes() {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    format!("{h:08x}")
}

/// The report without its top-level `"cache"` member, whose counters
/// depend on cache warmth rather than on the job.
pub fn strip_cache(report: &str) -> String {
    let Some(value) = extract_raw_field(report, "cache") else {
        return report.to_owned();
    };
    let start = value.as_ptr() as usize - report.as_ptr() as usize;
    let mut end = start + value.len();
    let mut from = report[..start]
        .rfind("\"cache\"")
        .expect("a member's key precedes its value");
    let before = report[..from].trim_end();
    let after = report[end..].trim_start();
    if before.ends_with(',') {
        from = before.len() - 1;
    } else if after.starts_with(',') {
        end = report.len() - after.len() + 1;
    }
    format!("{}{}", &report[..from], &report[end..])
}

/// The digest every check compares: the cache-stripped report's.
pub fn report_digest(report: &str) -> String {
    digest(&strip_cache(report))
}

fn table() -> &'static HashMap<(String, String), String> {
    static TABLE: OnceLock<HashMap<(String, String), String>> = OnceLock::new();
    TABLE.get_or_init(|| {
        include_str!("../reference.tsv")
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|l| {
                let mut f = l.splitn(3, '\t');
                Some((
                    (f.next()?.to_owned(), f.next()?.to_owned()),
                    f.next()?.to_owned(),
                ))
            })
            .collect()
    })
}

/// The recorded value for pool entry `index` of `kind`.
pub fn reference(kind: &str, index: usize) -> Option<&'static str> {
    table()
        .get(&(kind.to_owned(), index.to_string()))
        .map(String::as_str)
}

/// Accumulates the outcome of every output check in a run.
#[derive(Debug, Default)]
pub struct Checks {
    pub checked: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn fail(&mut self, message: String) {
        if self.failures.len() < 20 {
            self.failures.push(message);
        }
        self.checked += 1;
    }

    pub fn expect(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if ok {
            self.checked += 1;
        } else {
            self.fail(message());
        }
    }

    /// Checks a report's digest against pool entry `index` of `kind`.
    pub fn digest(&mut self, kind: &str, index: usize, report: &str) {
        let got = report_digest(report);
        match reference(kind, index) {
            Some(want) => self.expect(want == got, || {
                format!("{kind} {index}: digest {got}, recorded {want}")
            }),
            None => self.fail(format!("{kind} {index}: no recorded reference")),
        }
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_cache_removes_the_member_and_one_comma() {
        assert_eq!(
            strip_cache(r#"{"a":1,"cache":{"hits":3,"x":{}},"b":2}"#),
            r#"{"a":1,"b":2}"#
        );
        assert_eq!(strip_cache(r#"{"cache":{"hits":3},"b":2}"#), r#"{"b":2}"#);
        assert_eq!(strip_cache(r#"{"a":1,"cache":{}}"#), r#"{"a":1}"#);
        assert_eq!(strip_cache(r#"{"a":"cache"}"#), r#"{"a":"cache"}"#);
    }

    #[test]
    fn permutations_are_seeded_and_complete() {
        let a = Rng::permutation(5, 1, 100);
        assert_eq!(a, Rng::permutation(5, 1, 100));
        assert_ne!(a, Rng::permutation(6, 1, 100));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn design_points_are_valid_and_repeatable() {
        for i in 0..50 {
            let p = design_point(9, i);
            assert_eq!(p, design_point(9, i));
            NodeConfig::new(p.clock_hz, p.watchdog_s, p.tx_interval_s).unwrap();
        }
    }
}
