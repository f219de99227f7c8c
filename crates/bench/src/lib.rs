//! Shared helpers and paper reference values for the table/figure
//! regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation; this library holds the printed reference values
//! they compare against and small formatting utilities.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The paper's Eq. 9 coefficients in this workspace's term order
/// `(1, x1, x2, x3, x1², x2², x3², x1x2, x1x3, x2x3)`.
pub const PAPER_EQ9: [f64; 10] = [
    484.02, -121.79, -16.77, -208.43, 120.98, 106.69, -69.75, -34.23, -121.79, 32.54,
];

/// Table VI reference rows: `(label, clock Hz, watchdog s, interval s,
/// transmissions)`.
pub const PAPER_TABLE6: [(&str, f64, f64, f64, u64); 3] = [
    ("original", 4e6, 320.0, 5.0, 405),
    ("simulated annealing", 8e6, 60.0, 0.005, 899),
    ("genetic algorithm", 125e3, 600.0, 3.065, 894),
];

/// This binary's command-line options (`--jobs N`, `--quick`,
/// `--out PATH`), read by the `wsn_dse` CLI's parser.
///
/// # Errors
///
/// A positional argument.
pub fn cli_args() -> Result<wsn_net::args::Args, String> {
    wsn_net::args::Args::parse(&std::env::args().skip(1).collect::<Vec<_>>())
}

/// Prints a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Minimal wall-clock timing harness for the `benches/` binaries.
///
/// The workspace vendors no external crates, so the benches are plain
/// `main()` programs (`harness = false`) built on [`std::time::Instant`]:
/// one warm-up call, then repeated timed calls until a time budget is
/// spent, reporting mean and best per-iteration times.
pub mod timing {
    use std::time::{Duration, Instant};

    /// Timing summary for one benchmarked closure.
    pub struct Measurement {
        /// Bench label as printed.
        pub name: String,
        /// Number of timed iterations (>= 3).
        pub iterations: u64,
        /// Mean wall-clock time per iteration.
        pub mean: Duration,
        /// Fastest single iteration.
        pub best: Duration,
    }

    /// Runs `f` once to warm up, then repeatedly for roughly `budget`
    /// (at least 3 iterations), printing and returning the measurement.
    pub fn bench<R>(name: &str, budget: Duration, mut f: impl FnMut() -> R) -> Measurement {
        std::hint::black_box(f());
        let mut iterations = 0u64;
        let mut best = Duration::MAX;
        let mut spent = Duration::ZERO;
        while (spent < budget || iterations < 3) && iterations < 100_000 {
            let t0 = Instant::now();
            std::hint::black_box(f());
            let dt = t0.elapsed();
            best = best.min(dt);
            spent += dt;
            iterations += 1;
        }
        let mean = spent / iterations as u32;
        println!(
            "{name:<32} {iterations:>7} iters   mean {:>12}   best {:>12}",
            fmt_duration(mean),
            fmt_duration(best)
        );
        Measurement {
            name: name.to_string(),
            iterations,
            mean,
            best,
        }
    }

    /// Formats a duration with an auto-selected unit (ns/µs/ms/s).
    pub fn fmt_duration(d: Duration) -> String {
        let ns = d.as_nanos();
        if ns < 1_000 {
            format!("{ns} ns")
        } else if ns < 1_000_000 {
            format!("{:.2} µs", ns as f64 / 1e3)
        } else if ns < 1_000_000_000 {
            format!("{:.2} ms", ns as f64 / 1e6)
        } else {
            format!("{:.3} s", ns as f64 / 1e9)
        }
    }
}

/// Formats a frequency in engineering units.
pub fn fmt_hz(hz: f64) -> String {
    if hz >= 1e6 {
        format!("{:.3} MHz", hz / 1e6)
    } else if hz >= 1e3 {
        format!("{:.0} kHz", hz / 1e3)
    } else {
        format!("{hz:.0} Hz")
    }
}

/// Renders a simple ASCII line chart of `series` (label, ys) sharing an
/// x-axis, `rows` high.
pub fn ascii_chart(series: &[(&str, &[f64])], rows: usize) {
    let all: Vec<f64> = series
        .iter()
        .flat_map(|(_, ys)| ys.iter().copied())
        .filter(|v| v.is_finite())
        .collect();
    if all.is_empty() {
        println!("(no data)");
        return;
    }
    let lo = all.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = all.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    let width = series.iter().map(|(_, ys)| ys.len()).max().unwrap_or(0);
    let marks = ['#', '*', 'o', '+'];

    for row in (0..=rows).rev() {
        let mut line: Vec<char> = vec![' '; width];
        for (si, (_, ys)) in series.iter().enumerate() {
            for (x, y) in ys.iter().enumerate() {
                let bucket = ((y - lo) / span * rows as f64).round() as usize;
                if bucket == row {
                    line[x] = marks[si % marks.len()];
                }
            }
        }
        println!(
            "{:>9.2} |{}",
            lo + span * row as f64 / rows as f64,
            line.iter().collect::<String>()
        );
    }
    for (si, (label, _)) in series.iter().enumerate() {
        println!("  {} = {label}", marks[si % marks.len()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq9_matches_published_count() {
        assert_eq!(PAPER_EQ9.len(), 10);
        assert_eq!(PAPER_EQ9[0], 484.02);
    }

    #[test]
    fn table6_reference_rows() {
        assert_eq!(PAPER_TABLE6[0].4, 405);
        assert_eq!(PAPER_TABLE6[1].4, 899);
        assert_eq!(PAPER_TABLE6[2].4, 894);
    }

    #[test]
    fn hz_formatting() {
        assert_eq!(fmt_hz(8e6), "8.000 MHz");
        assert_eq!(fmt_hz(125e3), "125 kHz");
        assert_eq!(fmt_hz(80.0), "80 Hz");
    }
}
