//! `serve_mix`: an open loop against an in-process `wsn_net::Server` on
//! loopback. One connection carries tagged, pipelined jobs; one thread
//! sends on a seeded Poisson schedule and one reads frames.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wsn_dse::protocol::{
    parse_json, Frame, Json, NetworkJob, ParetoJob, ProtocolError, Request, RunJob, SimulateJob,
};
use wsn_dse::DseFlow;
use wsn_net::{ServeConfig, Server};

use crate::check::{design_point, strip_cache, Checks, Rng};
use crate::env::nproc;
use crate::stats::percentile;
use crate::trace::{Layer, Tracer};
use crate::workloads::{cache_metrics, RUN_POOL};
use crate::{out_dir, Measured, Opts};

/// Offered load (jobs/s): about a third of the rate the seed sustains
/// when saturated, so that a host that loses CPU time does not push the
/// queue towards saturation (see README.md).
pub const RATE: f64 = 70.0;
/// Latency limit for `slo_met_ratio` (ms): twice the job p90 measured on
/// the seed at [`RATE`].
pub const LIMIT_MS: f64 = 90.0;
/// How long to wait for outstanding results after the last send.
const DRAIN: Duration = Duration::from_secs(60);

/// Hot `run` seeds: warmed in set-up, then drawn Zipf-like.
const HOT_SEEDS: usize = 8;
const NETWORK_NODES: u64 = 16;
const SERVE_SALT: u64 = 0x7365_7276; // "serv"
const SIM_POOL: usize = 512;
const SIM_SALT: u64 = 0x7369_6d75; // "simu"
const NET_POOL: usize = 256;
const NET_SALT: u64 = 0x6e65_7477; // "netw"
const PARETO_POOL: usize = 128;
const PARETO_SALT: u64 = 0x7061_7265; // "pare"

/// The job mix in percent of jobs sent; hot runs fill the remainder.
const MIX: [(Kind, usize); 5] = [
    (Kind::HotRun, 60),
    (Kind::FreshRun, 10),
    (Kind::Simulate, 15),
    (Kind::Network, 10),
    (Kind::Pareto, 5),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    HotRun,
    FreshRun,
    Simulate,
    Network,
    Pareto,
}

impl Kind {
    /// The request type, which is also the reference-table kind.
    fn name(self) -> &'static str {
        match self {
            Kind::HotRun | Kind::FreshRun => "run",
            Kind::Simulate => "simulate",
            Kind::Network => "network",
            Kind::Pareto => "pareto",
        }
    }
}

/// One scheduled job.
struct Planned {
    due: Duration,
    kind: Kind,
    /// Index into the kind's input pool (the flow seed for `run`).
    index: usize,
    request: Request,
}

fn request(kind: Kind, index: usize, id: String) -> Request {
    let id = Some(id);
    match kind {
        Kind::HotRun | Kind::FreshRun => Request::Run(RunJob {
            id,
            seed: index as u64,
            ..RunJob::default()
        }),
        Kind::Simulate => {
            let p = design_point(SIM_SALT, index);
            Request::Simulate(SimulateJob {
                id,
                clock: p.clock_hz,
                watchdog: p.watchdog_s,
                interval: p.tx_interval_s,
                ..SimulateJob::default()
            })
        }
        Kind::Network => {
            let p = design_point(NET_SALT, index);
            Request::Network(NetworkJob {
                id,
                nodes: NETWORK_NODES,
                fleet_seed: Rng::new(NET_SALT ^ index as u64).next_u64() % 1_000_000,
                clock: p.clock_hz,
                watchdog: p.watchdog_s,
                interval: p.tx_interval_s,
                ..NetworkJob::default()
            })
        }
        Kind::Pareto => Request::Pareto(ParetoJob {
            id,
            seed: index as u64,
            ..ParetoJob::default()
        }),
    }
}

/// The hot seeds and the run's schedule: a fixed number of jobs of each
/// kind in seeded order, at the times of a Poisson process with that
/// many arrivals in the window.
fn plan(seed: u64, rate: f64, seconds: f64) -> (Vec<usize>, Vec<Planned>) {
    let mut rng = Rng::new(seed ^ SERVE_SALT);
    let n = (rate * seconds).round().max(1.0) as usize;
    let mut kinds = Vec::with_capacity(n);
    for (kind, percent) in &MIX[1..] {
        kinds.extend(std::iter::repeat_n(*kind, n * percent / 100));
    }
    kinds.resize(n, Kind::HotRun);
    rng.shuffle(&mut kinds);
    let mut due: Vec<f64> = (0..n).map(|_| rng.unit() * seconds).collect();
    due.sort_by(f64::total_cmp);

    let runs = Rng::permutation(seed, SERVE_SALT, RUN_POOL);
    let hot = runs[..HOT_SEEDS].to_vec();
    let mut fresh = runs[HOT_SEEDS..].iter().copied().cycle();
    let zipf_total: f64 = (1..=HOT_SEEDS).map(|k| 1.0 / k as f64).sum();
    let cycle = |salt, pool| Rng::permutation(seed, salt, pool).into_iter().cycle();
    let (mut sims, mut nets, mut paretos) = (
        cycle(SIM_SALT, SIM_POOL),
        cycle(NET_SALT, NET_POOL),
        cycle(PARETO_SALT, PARETO_POOL),
    );
    let jobs = kinds
        .into_iter()
        .zip(due)
        .enumerate()
        .map(|(j, (kind, due))| {
            let index = match kind {
                Kind::HotRun => {
                    let mut u = rng.unit() * zipf_total;
                    let mut k = 0;
                    while k + 1 < HOT_SEEDS && u >= 1.0 / (k + 1) as f64 {
                        u -= 1.0 / (k + 1) as f64;
                        k += 1;
                    }
                    hot[k]
                }
                Kind::FreshRun => fresh.next().expect("cycled"),
                Kind::Simulate => sims.next().expect("cycled"),
                Kind::Network => nets.next().expect("cycled"),
                Kind::Pareto => paretos.next().expect("cycled"),
            };
            Planned {
                due: Duration::from_secs_f64(due),
                kind,
                index,
                request: request(kind, index, format!("j{j}")),
            }
        })
        .collect();
    (hot, jobs)
}

/// One frame as the reader thread received it.
struct Arrival {
    at: Instant,
    decode_ns: u64,
    bytes: usize,
    frame: Result<Frame, ProtocolError>,
}

/// A server on a loopback port, one client connection to it and the
/// connection's reader thread.
struct Conn {
    writer: TcpStream,
    frames: Receiver<Arrival>,
    reader: Option<JoinHandle<()>>,
    server: Option<JoinHandle<()>>,
    dir: PathBuf,
}

impl Conn {
    fn open(tag: usize) -> Result<Conn, String> {
        let dir = out_dir().join(format!("serve-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                workers: nproc(),
                jobs: 1,
                cache_dir: Some(dir.clone()),
                ..ServeConfig::default()
            },
        )?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let server = std::thread::spawn(move || server.run());
        let writer = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let read_half = writer.try_clone().map_err(|e| e.to_string())?;
        let (tx, frames) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut reader = BufReader::new(read_half);
            let mut line = String::new();
            loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                let at = Instant::now();
                let frame = Frame::parse(&line);
                let decode_ns = at.elapsed().as_nanos() as u64;
                let arrival = Arrival {
                    at,
                    decode_ns,
                    bytes: line.len(),
                    frame,
                };
                if tx.send(arrival).is_err() {
                    break;
                }
            }
        });
        Ok(Conn {
            writer,
            frames,
            reader: Some(reader),
            server: Some(server),
            dir,
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    fn next_frame(&self) -> Result<Arrival, String> {
        self.frames
            .recv_timeout(DRAIN)
            .map_err(|_| "no frame from the server".to_owned())
    }

    /// Sends every request at once and waits for all their reports, in
    /// request order.
    fn run_all(&mut self, requests: &[Request]) -> Result<Vec<String>, String> {
        for r in requests {
            self.send(&r.to_json())?;
        }
        let position = |id: &Option<String>| {
            requests
                .iter()
                .position(|r| r.id() == id.as_deref())
                .ok_or_else(|| format!("frame for unknown job {id:?}"))
        };
        let mut reports = vec![None; requests.len()];
        let mut left = requests.len();
        while left > 0 {
            match self.next_frame()?.frame {
                Ok(Frame::Result { id, report, .. }) => {
                    reports[position(&id)?] = Some(report);
                    left -= 1;
                }
                Ok(Frame::JobError { id, message, .. }) => {
                    return Err(format!("job {id:?} failed: {message}"))
                }
                Ok(_) => {}
                Err(e) => return Err(format!("bad frame: {e:?}")),
            }
        }
        Ok(reports
            .into_iter()
            .map(|r| r.expect("every job answered"))
            .collect())
    }

    fn stats(&mut self) -> Result<Json, String> {
        self.send(&Request::Stats.to_json())?;
        loop {
            if let Ok(Frame::Stats { raw }) = self.next_frame()?.frame {
                return parse_json(&raw).map_err(|e| format!("stats frame: {e:?}"));
            }
        }
    }

    /// Shuts the server down and waits for both threads.
    fn close(mut self) -> Result<(), String> {
        let sent = self.send(&Request::Shutdown.to_json());
        if let Some(server) = self.server.take() {
            server.join().map_err(|_| "server thread panicked")?;
        }
        let _ = self.writer.shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            reader.join().map_err(|_| "reader thread panicked")?;
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        sent
    }
}

/// The server's counter `group.field` from a `stats` frame.
fn counter(stats: &Json, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(stats, |doc, key| doc.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// When each job's frames arrived.
#[derive(Default, Clone)]
struct Timeline {
    sent: Option<Instant>,
    accepted: Option<Instant>,
    running: Option<Instant>,
    done: Option<Instant>,
    report: Option<String>,
    error: Option<String>,
    result_bytes: usize,
    decode_ns: u64,
}

/// The timeline of the job tagged `id` (`j<index>`).
fn slot<'a>(timeline: &'a mut [Timeline], id: &Option<String>) -> Option<&'a mut Timeline> {
    let index = id.as_deref()?.strip_prefix('j')?.parse::<usize>().ok()?;
    timeline.get_mut(index)
}

pub fn run(opts: &Opts, tracer: Option<Arc<Tracer>>) -> Result<Measured, String> {
    let rate = opts.rate.unwrap_or(RATE);
    let (hot, jobs) = plan(opts.seed, rate, opts.seconds);
    let mut m = Measured {
        slo_limit_ms: LIMIT_MS,
        ..Measured::default()
    };

    // Set-up: bind, connect and warm the hot set; repeated, keeping the
    // last server.
    let mut conn = None;
    for tag in 0..crate::SETUP_REPEATS {
        let t = Instant::now();
        if let Some(old) = conn.take() {
            Conn::close(old)?;
        }
        let mut c = Conn::open(tag)?;
        let warm: Vec<Request> = hot
            .iter()
            .enumerate()
            .map(|(k, &s)| request(Kind::HotRun, s, format!("w{k}")))
            .collect();
        c.run_all(&warm)?;
        m.setup_s.push(t.elapsed().as_secs_f64());
        conn = Some(c);
    }
    let mut conn = conn.expect("set-up ran");
    let before = conn.stats()?;

    // The open loop: one sender thread on the schedule, frames read here.
    let start = Instant::now();
    let mut writer = conn.writer.try_clone().map_err(|e| e.to_string())?;
    let lines: Vec<(Duration, Request)> = jobs.iter().map(|j| (j.due, j.request.clone())).collect();
    let sender = std::thread::spawn(move || -> Result<Vec<(Instant, u64)>, String> {
        let mut sent = Vec::with_capacity(lines.len());
        for (due, request) in lines {
            if let Some(wait) = (start + due).checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let at = Instant::now();
            let line = request.to_json();
            let encode_ns = at.elapsed().as_nanos() as u64;
            writer
                .write_all(format!("{line}\n").as_bytes())
                .map_err(|e| format!("send: {e}"))?;
            sent.push((at, encode_ns));
        }
        Ok(sent)
    });

    let mut timeline = vec![Timeline::default(); jobs.len()];
    let mut left = jobs.len();
    let deadline = start + Duration::from_secs_f64(opts.seconds) + DRAIN;
    while left > 0 {
        let wait = deadline.saturating_duration_since(Instant::now());
        let arrival = match conn.frames.recv_timeout(wait) {
            Ok(a) => a,
            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => break,
        };
        match arrival.frame {
            Ok(Frame::Accepted { id, .. }) => {
                if let Some(t) = slot(&mut timeline, &id) {
                    t.accepted = Some(arrival.at);
                }
            }
            Ok(Frame::Running { id, .. }) => {
                if let Some(t) = slot(&mut timeline, &id) {
                    t.running = Some(arrival.at);
                }
            }
            Ok(Frame::Result { id, report, .. }) => {
                if let Some(t) = slot(&mut timeline, &id) {
                    t.done = Some(arrival.at);
                    t.result_bytes = arrival.bytes;
                    t.decode_ns = arrival.decode_ns;
                    t.report = Some(report);
                    left -= 1;
                }
            }
            Ok(Frame::JobError { id, message, .. }) => {
                if let Some(t) = slot(&mut timeline, &id) {
                    t.done = Some(arrival.at);
                    t.error = Some(message);
                    left -= 1;
                }
            }
            _ => {}
        }
    }
    let sent = sender.join().map_err(|_| "sender thread panicked")??;
    let after = conn.stats()?;
    conn.close()?;

    // Latency from when each job was due; failures miss the limit.
    let mut last_done = start;
    for ((job, t), (sent_at, _)) in jobs.iter().zip(&mut timeline).zip(&sent) {
        let due = start + job.due;
        t.sent = Some(*sent_at);
        m.late_ms.push((*sent_at - due).as_secs_f64() * 1e3);
        m.attempted += 1;
        match (&t.report, t.done) {
            (Some(_), Some(done)) => {
                let ms = (done - due).as_secs_f64() * 1e3;
                m.latencies_ms.push(ms);
                m.within_limit += u64::from(ms <= LIMIT_MS);
                last_done = last_done.max(done);
            }
            _ => m.failed += 1,
        }
    }
    m.window_s = (last_done - start).as_secs_f64();
    // Sent at p90 more than one mean inter-arrival gap late, the
    // generator no longer offers the planned arrivals.
    let late_p90 = percentile(&m.late_ms, 90.0).unwrap_or(0.0);
    let gap_ms = 1e3 / rate;
    if late_p90 > gap_ms {
        m.invalid = Some(format!(
            "the generator fell behind schedule: p90 send lateness {late_p90:.3} ms > one mean gap ({gap_ms:.3} ms)"
        ));
    }

    check_outputs(&jobs, &timeline, &mut m.checks);
    if let Some(tracer) = &tracer {
        m.layers = layer_metrics(&jobs, &timeline, &sent, &before, &after);
        for kind in [Kind::HotRun, Kind::FreshRun] {
            let exec: Vec<f64> = jobs
                .iter()
                .zip(&timeline)
                .filter(|(j, _)| j.kind == kind)
                .filter_map(|(_, t)| Some((t.done? - t.running?).as_secs_f64() * 1e3))
                .collect();
            m.notes.push(format!(
                "{kind:?} exec p50 {} ms (n={})",
                percentile(&exec, 50.0).map_or("n/a".to_owned(), |v| format!("{v:.3}")),
                exec.len()
            ));
        }
        for (j, t) in timeline.iter().enumerate() {
            let (Some(s), Some(d)) = (t.sent, t.done) else {
                continue;
            };
            let parent = tracer.record(Layer::Request, j as u64, None, tracer.at(s), tracer.at(d));
            if let (Some(a), Some(r)) = (t.accepted, t.running) {
                tracer.record(
                    Layer::Queue,
                    j as u64,
                    Some(parent),
                    tracer.at(a),
                    tracer.at(r),
                );
                tracer.record(
                    Layer::Exec,
                    j as u64,
                    Some(parent),
                    tracer.at(r),
                    tracer.at(d),
                );
            }
        }
        m.spans = tracer.spans();
        m.window_ns = (tracer.at(start), tracer.at(last_done));
    }
    Ok(m)
}

/// Every report against the reference table, and a sample of served
/// `run` reports byte for byte against in-process `DseFlow::run`.
fn check_outputs(jobs: &[Planned], timeline: &[Timeline], checks: &mut Checks) {
    let mut compared = [0usize; 2];
    for (j, (job, t)) in jobs.iter().zip(timeline).enumerate() {
        let Some(report) = &t.report else {
            let why = t
                .error
                .as_deref()
                .unwrap_or("no result before the drain deadline");
            checks.fail(format!("job j{j} ({}): {why}", job.kind.name()));
            continue;
        };
        checks.digest(job.kind.name(), job.index, report);
        let slot = match job.kind {
            Kind::HotRun => 0,
            Kind::FreshRun => 1,
            _ => continue,
        };
        if compared[slot] < 2 {
            compared[slot] += 1;
            let local = DseFlow::paper().seed(job.index as u64).jobs(nproc()).run();
            let local = local.map(|r| strip_cache(&r.to_json()));
            checks.expect(local.as_deref() == Ok(strip_cache(report).as_str()), || {
                format!(
                    "served run j{j} (seed {}) differs from in-process DseFlow::run",
                    job.index
                )
            });
        }
    }
}

fn layer_metrics(
    jobs: &[Planned],
    timeline: &[Timeline],
    sent: &[(Instant, u64)],
    before: &Json,
    after: &Json,
) -> Vec<(&'static str, f64)> {
    let ms = |a: Option<Instant>, b: Option<Instant>| Some((b? - a?).as_secs_f64() * 1e3);
    let accepts: Vec<f64> = timeline
        .iter()
        .filter_map(|t| ms(t.sent, t.accepted))
        .collect();
    let waits: Vec<f64> = timeline
        .iter()
        .filter_map(|t| ms(t.accepted, t.running))
        .collect();
    let exec_p50 = |kinds: &[Kind]| {
        let v: Vec<f64> = jobs
            .iter()
            .zip(timeline)
            .filter(|(j, _)| kinds.contains(&j.kind))
            .filter_map(|(_, t)| ms(t.running, t.done))
            .collect();
        percentile(&v, 50.0).unwrap_or(0.0)
    };
    let results: Vec<&Timeline> = timeline.iter().filter(|t| t.report.is_some()).collect();
    let encode_us: Vec<f64> = sent.iter().map(|(_, ns)| *ns as f64 / 1e3).collect();
    let decode_us: Vec<f64> = results.iter().map(|t| t.decode_ns as f64 / 1e3).collect();
    let bytes: Vec<f64> = results.iter().map(|t| t.result_bytes as f64).collect();
    let delta = |path: &[&str]| counter(after, path).saturating_sub(counter(before, path));
    let cache = wsn_dse::CacheStats {
        hits: delta(&["cache", "hits"]) as usize,
        misses: delta(&["cache", "misses"]) as usize,
        inserts: delta(&["cache", "inserts"]) as usize,
        ..wsn_dse::CacheStats::default()
    };
    let p = |samples: &[f64], q| percentile(samples, q).unwrap_or(0.0);
    let mut out = vec![
        ("serve.accept_p50_ms", p(&accepts, 50.0)),
        ("serve.accept_p90_ms", p(&accepts, 90.0)),
        ("serve.queue_wait_p50_ms", p(&waits, 50.0)),
        ("serve.queue_wait_p90_ms", p(&waits, 90.0)),
        (
            "serve.exec_p50_ms.run",
            exec_p50(&[Kind::HotRun, Kind::FreshRun]),
        ),
        ("serve.exec_p50_ms.simulate", exec_p50(&[Kind::Simulate])),
        ("serve.exec_p50_ms.network", exec_p50(&[Kind::Network])),
        ("serve.exec_p50_ms.pareto", exec_p50(&[Kind::Pareto])),
        ("serve.degraded_served", delta(&["degraded_served"]) as f64),
        ("protocol.encode_us", p(&encode_us, 50.0)),
        ("protocol.decode_us", p(&decode_us, 50.0)),
        ("protocol.result_bytes", p(&bytes, 50.0)),
    ];
    out.extend(cache_metrics(&cache));
    out
}

/// Reference lines for the `simulate`, `network` and `pareto` pools,
/// served by one server. (`run` lines come from `node_dse`.)
pub fn record() -> Result<Vec<String>, String> {
    let mut conn = Conn::open(0)?;
    let mut lines = Vec::new();
    for (kind, pool) in [
        (Kind::Simulate, SIM_POOL),
        (Kind::Network, NET_POOL),
        (Kind::Pareto, PARETO_POOL),
    ] {
        let requests: Vec<Request> = (0..pool)
            .map(|i| request(kind, i, format!("r{i}")))
            .collect();
        for (i, report) in conn.run_all(&requests)?.iter().enumerate() {
            lines.push(format!(
                "{}\t{i}\t{}",
                kind.name(),
                crate::check::report_digest(report)
            ));
        }
    }
    conn.close()?;
    Ok(lines)
}
