//! The repository's benchmark: seeded user workloads, end-to-end metrics
//! with tracing off, and per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload node_dse --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

mod check;
mod engine;
mod env;
mod serve_mix;
mod stats;
mod trace;
mod workloads;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use check::Checks;
use stats::percentile;
use trace::{Span, Tracer};

/// Set-up is repeated this many times per phase; `setup_s` is the median.
const SETUP_REPEATS: usize = 11;

/// A closed loop runs until `--seconds` have passed and at least this many
/// jobs have finished, so a p90 always has ten samples beyond it.
const MIN_JOBS: usize = 100;

/// The end-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("slo_met_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, printed with `--trace 1`. A layer a workload
/// does not reach reads 0.
const PER_LAYER: [(&str, &str); 36] = [
    ("doe.calls", "count"),
    ("doe.busy_ms", "ms"),
    ("rsm.calls", "count"),
    ("rsm.busy_ms", "ms"),
    ("optim.calls", "count"),
    ("optim.busy_ms", "ms"),
    ("envelope.evals", "count"),
    ("envelope.busy_ms", "ms"),
    ("envelope.eval_p50_us", "us"),
    ("fullsim.evals", "count"),
    ("fullsim.busy_ms", "ms"),
    ("fullsim.ns_per_step", "ns"),
    ("pool.batches", "count"),
    ("pool.self_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.inserts", "count"),
    ("cache.hit_ratio", "ratio"),
    ("fleet.self_ms", "ms"),
    ("channel.packets", "count"),
    ("channel.ns_per_packet", "ns"),
    ("serve.accept_p50_ms", "ms"),
    ("serve.accept_p90_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p90_ms", "ms"),
    ("serve.exec_p50_ms.run", "ms"),
    ("serve.exec_p50_ms.simulate", "ms"),
    ("serve.exec_p50_ms.network", "ms"),
    ("serve.exec_p50_ms.pareto", "ms"),
    ("serve.degraded_served", "count"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.result_bytes", "bytes"),
    ("generator.late_p90_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Print the workload's reference-table lines instead of measuring.
    pub record: bool,
    /// `serve_mix` only: override the offered rate (jobs/s), used to find
    /// the saturated rate.
    pub rate: Option<f64>,
}

/// What one measured phase of a workload produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Latency of every job that succeeded (ms).
    pub latencies_ms: Vec<f64>,
    /// The measured window (s).
    pub window_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Successful jobs that finished within the workload's latency limit.
    pub within_limit: u64,
    pub slo_limit_ms: f64,
    /// Each repetition of the set-up (s).
    pub setup_s: Vec<f64>,
    pub checks: Checks,
    /// How late each job was sent against its schedule (ms). In a closed
    /// loop a job is due when the previous one finished.
    pub late_ms: Vec<f64>,
    /// Spans inside the measured window, when traced.
    pub spans: Vec<Span>,
    /// The measured window in tracer time (ns), when traced.
    pub window_ns: (u64, u64),
    /// Workload-specific per-layer metrics.
    pub layers: Vec<(&'static str, f64)>,
    /// Why the run's latencies cannot be trusted, if they cannot.
    pub invalid: Option<String>,
    /// Extra lines for the traced run's human-readable output.
    pub notes: Vec<String>,
}

impl Measured {
    pub fn jobs_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.window_s.max(1e-9)
    }
}

/// Drives a closed loop with `callers` caller threads: set up
/// [`SETUP_REPEATS`] times (keeping the last state), then each caller
/// runs jobs back to back, taking the next job index as it goes. `run` is
/// the timed job; `check` inspects its output outside the timed part.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop<S: Sync, T>(
    opts: &Opts,
    tracer: Option<&Arc<Tracer>>,
    slo_limit_ms: f64,
    max_jobs: usize,
    callers: usize,
    mut setup: impl FnMut() -> S,
    run: impl Fn(&S, usize) -> Result<T, String> + Sync,
    check: impl FnMut(&S, usize, T, &mut Checks) + Send,
) -> Measured {
    let mut m = Measured {
        slo_limit_ms,
        ..Measured::default()
    };
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        state = Some(setup());
        m.setup_s.push(t.elapsed().as_secs_f64());
    }
    let state = state.expect("set-up ran");

    let budget = Duration::from_secs_f64(opts.seconds);
    let next = AtomicUsize::new(0);
    let checker = Mutex::new((check, Checks::default()));
    let start = Instant::now();
    let window_start = tracer.map_or(0, |t| t.now());
    let caller = || {
        let mut own = Measured::default();
        let mut last_end = Instant::now();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= max_jobs || (start.elapsed() >= budget && i >= MIN_JOBS) {
                break own;
            }
            let t0 = Instant::now();
            own.late_ms.push((t0 - last_end).as_secs_f64() * 1e3);
            let out = run(&state, i);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            own.attempted += 1;
            let mut guard = checker.lock().unwrap_or_else(PoisonError::into_inner);
            let (check, checks) = &mut *guard;
            match out {
                Ok(out) => {
                    own.latencies_ms.push(ms);
                    own.within_limit += u64::from(ms <= slo_limit_ms);
                    check(&state, i, out, checks);
                }
                Err(e) => {
                    own.failed += 1;
                    checks.fail(format!("job {i} failed: {e}"));
                }
            }
            drop(guard);
            last_end = Instant::now();
        }
    };
    let parts = if callers <= 1 {
        vec![caller()]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..callers).map(|_| s.spawn(caller)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller thread panicked"))
                .collect()
        })
    };
    m.window_s = start.elapsed().as_secs_f64();
    for part in parts {
        m.latencies_ms.extend(part.latencies_ms);
        m.late_ms.extend(part.late_ms);
        m.attempted += part.attempted;
        m.failed += part.failed;
        m.within_limit += part.within_limit;
    }
    m.checks = checker
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .1;
    if let Some(t) = tracer {
        m.window_ns = (window_start, t.now());
        m.spans = t
            .spans()
            .into_iter()
            .filter(|s| s.start >= window_start)
            .collect();
    }
    m
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        record: false,
        rate: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?,
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--rate" => opts.rate = Some(value()?.parse().map_err(|e| format!("--rate: {e}"))?),
            "--record" => opts.record = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(opts)
}

/// Runs one phase of the chosen workload.
fn measure(opts: &Opts, tracer: Option<Arc<Tracer>>) -> Result<Measured, String> {
    Ok(match opts.workload.as_str() {
        "node_dse" => workloads::node_dse(opts, tracer),
        "fleet_city" => workloads::fleet_city(opts, tracer),
        "full_validate" => workloads::full_validate(opts, tracer),
        "serve_mix" => serve_mix::run(opts, tracer)?,
        other => return Err(format!("unknown workload {other}")),
    })
}

fn fmt_pct(samples: &[f64], p: f64) -> String {
    match percentile(samples, p) {
        Some(v) => format!("{v:.3}"),
        None => "n/a".to_owned(),
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if opts.record {
        let lines = match opts.workload.as_str() {
            "node_dse" => workloads::record_runs(),
            "fleet_city" => workloads::record_fleets(),
            "full_validate" => workloads::record_full(),
            "serve_mix" => serve_mix::record(),
            other => Err(format!("unknown workload {other}")),
        };
        match lines {
            Ok(lines) => lines.iter().for_each(|l| println!("{l}")),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={} profile={} git_rev={} src={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        env::nproc(),
        env::profile(),
        env::git_rev(),
        env::source_digest(),
    );
    let steal = env::cpu_steal();
    let result = if opts.trace {
        traced(&opts)
    } else {
        untraced(&opts)
    };
    if let (Some(a), Some(b)) = (steal, env::cpu_steal()) {
        let share = (b.0 - a.0) as f64 / (b.1 - a.1).max(1) as f64;
        println!(
            "host: {:.2}% of CPU time stolen by the hypervisor during the run",
            share * 100.0
        );
    }
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn report_checks(checks: &Checks) {
    println!(
        "checks: {} passed, {} failed",
        checks.checked - checks.failures.len() as u64,
        checks.failures.len()
    );
    for f in &checks.failures {
        println!("check failed: {f}");
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

fn untraced(opts: &Opts) -> Result<String, String> {
    let m = measure(opts, None)?;
    if let Some(why) = &m.invalid {
        return Err(format!("run invalid, latencies not reported: {why}"));
    }
    let n = m.latencies_ms.len();
    let p50 = percentile(&m.latencies_ms, 50.0);
    let p90 = percentile(&m.latencies_ms, 90.0);
    let values = [
        m.jobs_per_s(),
        p50.unwrap_or(0.0),
        p90.unwrap_or(0.0),
        m.within_limit as f64 / m.attempted.max(1) as f64,
        stats::median(&m.setup_s),
        env::peak_rss_mb(),
    ];
    for ((name, unit), value) in END_TO_END.iter().zip(values) {
        let note = match *name {
            "job_p50_ms" | "job_p90_ms" => format!("  (n={n})"),
            "slo_met_ratio" => format!("  (limit {} ms, n={})", m.slo_limit_ms, m.attempted),
            "setup_s" => format!("  (median of {})", m.setup_s.len()),
            _ => String::new(),
        };
        println!("{name:<16} {value:>12.4} {unit}{note}");
    }
    println!("ops_attempted    {:>12}", m.attempted);
    println!("ops_failed       {:>12}", m.failed);
    println!(
        "generator late p90 {} ms (n={})",
        fmt_pct(&m.late_ms, 90.0),
        m.late_ms.len()
    );
    report_checks(&m.checks);
    if p50.is_none() || p90.is_none() {
        return Err(format!("{n} successful jobs are too few for a p90"));
    }
    let metrics: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), v)| (*name, v, *unit))
        .collect();
    Ok(json_line(m.checks.ok(), m.attempted, m.failed, &metrics))
}

fn traced(opts: &Opts) -> Result<String, String> {
    let plain = measure(opts, None)?;
    let tracer = Arc::new(Tracer::default());
    let m = measure(opts, Some(Arc::clone(&tracer)))?;
    if let Some(why) = plain.invalid.as_ref().or(m.invalid.as_ref()) {
        return Err(format!("run invalid, latencies not reported: {why}"));
    }
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    let path = out_dir().join(format!("trace-{}-{}.tsv", opts.workload, opts.seed));
    trace::write_spans(&path, &m.spans).map_err(|e| format!("{}: {e}", path.display()))?;

    let mut values: Vec<(&str, f64)> = trace::layer_metrics(&m.spans);
    values.extend(m.layers.iter().copied());
    values.push((
        "generator.late_p90_ms",
        percentile(&m.late_ms, 90.0).unwrap_or(0.0),
    ));
    if !m.spans.is_empty() {
        values.push(("trace.coverage", trace::coverage(&m.spans, m.window_ns)));
    }
    values.push(("trace.overhead", plain.jobs_per_s() / m.jobs_per_s()));
    let value_of = |name: &str| {
        values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let metrics: Vec<(&str, f64, &str)> = PER_LAYER
        .iter()
        .map(|(name, unit)| (*name, value_of(name), *unit))
        .collect();
    println!(
        "traced run: {} jobs in {:.2} s ({} spans, written to {}); untraced: {} jobs in {:.2} s",
        m.attempted,
        m.window_s,
        m.spans.len(),
        path.display(),
        plain.attempted,
        plain.window_s
    );
    println!(
        "untraced job p50 {} ms / p90 {} ms (n={}); traced p50 {} ms (n={})",
        fmt_pct(&plain.latencies_ms, 50.0),
        fmt_pct(&plain.latencies_ms, 90.0),
        plain.latencies_ms.len(),
        fmt_pct(&m.latencies_ms, 50.0),
        m.latencies_ms.len()
    );
    for note in &m.notes {
        println!("{note}");
    }
    for (name, value, unit) in &metrics {
        println!("{name:<28} {value:>14.4} {unit}");
    }
    let mut checks = m.checks;
    checks.checked += plain.checks.checked;
    checks.failures.extend(plain.checks.failures);
    report_checks(&checks);
    Ok(json_line(
        checks.ok(),
        plain.attempted + m.attempted,
        plain.failed + m.failed,
        &metrics,
    ))
}

/// Where traces and the served cache directory go (ignored by git).
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Several callers share the job indices: each job runs and is
    /// checked exactly once, and a run still holds `MIN_JOBS` jobs.
    #[test]
    fn callers_take_each_job_once() {
        let opts = Opts {
            workload: String::new(),
            seed: 1,
            seconds: 0.0,
            trace: false,
            record: false,
            rate: None,
        };
        let mut seen = Vec::new();
        let m = closed_loop(
            &opts,
            None,
            f64::INFINITY,
            usize::MAX,
            2,
            || (),
            |_, i| Ok(i),
            |_, i, out, checks| {
                checks.expect(i == out, || format!("job {i} returned {out}"));
                seen.push(i);
            },
        );
        seen.sort_unstable();
        assert_eq!(seen, (0..MIN_JOBS).collect::<Vec<_>>());
        assert_eq!((m.attempted, m.failed), (MIN_JOBS as u64, 0));
        assert_eq!(m.latencies_ms.len(), MIN_JOBS);
        assert!(m.checks.ok());
    }

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn benchmark_json_names_every_metric() {
        let json = include_str!("../../BENCHMARK.json");
        let doc = wsn_dse::protocol::parse_json(json).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            match doc.get(key).unwrap() {
                wsn_dse::protocol::Json::Arr(items) => items
                    .iter()
                    .map(|m| {
                        let s = |f: &str| m.get(f).unwrap().as_str().unwrap().to_owned();
                        (s("name"), s("unit"))
                    })
                    .collect(),
                _ => panic!("{key} is not a list"),
            }
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
    }
}
