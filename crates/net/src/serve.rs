//! `wsn-serve`: a long-lived DSE-as-a-service server.
//!
//! One process owns one shared warm [`wsn_dse::EvalCache`] (optionally
//! persisted), one [`wsn_dse::jobs::JobQueue`] of worker threads, and —
//! in chaos mode — one [`wsn_node::FallbackEngine`] degradation ladder.
//! Any number of clients connect over TCP and speak the
//! newline-delimited JSON protocol of [`wsn_dse::protocol`]: each job
//! request is queued and answered asynchronously with streamed
//! `accepted` / `running` / `result` / `error` frames, so a slow fleet
//! DSE never blocks a cheap simulate submitted after it (given more
//! than one worker).
//!
//! Every job runs through [`crate::execute`], the executor the `wsn_dse`
//! CLI calls too, with the server's one [`crate::ExecContext`]: served
//! reports equal the CLI's by construction, except the single-node
//! report's embedded `"cache"` counters, which describe the server's
//! shared cache rather than a private cold one.
//!
//! # Cache-sharing semantics
//!
//! Every dispatched flow gets the server's cache via
//! `shared_cache(...)` as the **last** builder step (the flow builders
//! clear whatever cache the pool holds when the template changes — that
//! must never hit the shared cache). Keys fold in the engine's cache
//! fingerprint and the scenario/fleet fingerprint, so concurrent jobs
//! with different scenarios can never poison each other, while
//! identical jobs coalesce: the second submission of the same job is
//! answered almost entirely from memory.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use harvester::VibrationProfile;
use wsn_dse::jobs::{EventSink, JobEvent, JobFn, JobQueue, JobState};
use wsn_dse::protocol::{self, ProtocolError, Request, MAX_FRAME_BYTES};
use wsn_dse::EvalCache;
use wsn_node::{NodeConfig, SystemConfig};

use crate::exec::{self, ExecContext};

/// The structured stderr warning emitted when `network` (non-DSE) is
/// given `--cache-dir`: a plain fleet evaluation needs every node's
/// full timestamp trace, which only a fresh simulation produces, so a
/// warm scalar cache cannot apply. One JSON object on one line, so
/// scripted clients can detect it instead of pattern-matching prose.
pub fn cache_dir_ignored_warning() -> String {
    "{\"warning\":\"cache_dir_ignored\",\"context\":\"network\",\"message\":\
     \"--cache-dir only applies to network --dse; a plain fleet evaluation needs \
     full per-node traces, which the scalar cache cannot supply\"}"
        .to_owned()
}

/// Server construction options.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Concurrent job workers (clamped to at least 1). Two by default:
    /// enough that a slow job does not block a fast one.
    pub workers: usize,
    /// Per-flow simulation pool threads (`0` = all cores), like the
    /// CLI's `--jobs`.
    pub jobs: usize,
    /// Directory for the crash-safe persistent cache, when any.
    pub cache_dir: Option<PathBuf>,
    /// Chaos-injection rate in `[0, 1]`; positive values wrap every
    /// job's engine in a seeded [`wsn_node::ChaosEngine`] backed by a calibrated
    /// surrogate tier (the soak-test configuration).
    pub chaos_rate: f64,
    /// Seed for the chaos plan and the surrogate calibration design.
    pub chaos_seed: u64,
    /// Default per-evaluation wall-clock budget (a request's
    /// `timeout_ms` overrides it per job).
    pub eval_timeout: Option<Duration>,
    /// Retries after the first attempt, with deterministic backoff;
    /// `None` keeps the historical two-attempt default.
    pub eval_retries: Option<u32>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            jobs: 0,
            cache_dir: None,
            chaos_rate: 0.0,
            chaos_seed: 7,
            eval_timeout: None,
            eval_retries: None,
        }
    }
}

struct ServerState {
    ctx: ExecContext,
    queue: JobQueue,
    stop: AtomicBool,
    requests: AtomicU64,
    protocol_errors: AtomicU64,
}

/// A bound, not-yet-serving `wsn-serve` instance. [`Server::run`]
/// blocks the calling thread until a client sends `shutdown`.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// prepares the shared cache, the worker queue and — when
    /// `config.chaos_rate` is not 0 — the chaos ladder with its calibrated
    /// surrogate tier.
    ///
    /// # Errors
    ///
    /// Fails on an unbindable address, an unusable cache directory, or
    /// a surrogate calibration error.
    pub fn bind(addr: &str, config: ServeConfig) -> Result<Server, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
        let cache = Arc::new(EvalCache::new());
        if let Some(dir) = &config.cache_dir {
            cache
                .persist_to(dir)
                .map_err(|e| format!("cannot attach eval cache at {}: {e}", dir.display()))?;
        }
        let ladder = if config.chaos_rate != 0.0 {
            // The soak configuration: the surrogate is calibrated over a
            // fixed 600 s paper scenario.
            let mut template = SystemConfig::paper(NodeConfig::original())
                .with_horizon(600.0)
                .with_vibration(VibrationProfile::paper_profile(75.0));
            template.trace_interval = None;
            Some(exec::chaos_ladder(
                config.chaos_seed,
                config.chaos_rate,
                &template,
            )?)
        } else {
            None
        };
        let ctx = ExecContext {
            jobs: config.jobs,
            cache,
            retry: exec::retry_policy(config.eval_retries, config.chaos_seed),
            deadline: config.eval_timeout,
            ladder,
        };
        let state = Arc::new(ServerState {
            queue: JobQueue::new(config.workers),
            ctx,
            stop: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
        });
        Ok(Server { listener, state })
    }

    /// The bound socket address (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// Propagates the OS error when the socket is gone.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a client sends `shutdown`: accepts connections,
    /// spawns one reader thread per client, then — on shutdown — stops
    /// accepting, lets running jobs finish, cancels the backlog and
    /// flushes the persistent cache.
    ///
    /// Reader threads are deliberately *not* joined: a client that
    /// never disconnects would block a join forever. They hold no job
    /// state — `queue.shutdown()` has already drained and joined the
    /// workers by the time the cache flushes, and a reader that submits
    /// after that only gets a "server is shutting down" error frame.
    pub fn run(&self) {
        for stream in self.listener.incoming() {
            if self.state.stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let state = Arc::clone(&self.state);
            std::thread::spawn(move || handle_connection(&state, stream));
        }
        self.state.queue.shutdown();
        if let Err(e) = self.state.ctx.cache.flush() {
            eprintln!("warning: final eval cache flush failed: {e}");
        }
    }
}

/// Shared, flushing line writer: frames from the reader thread and from
/// job workers interleave whole-line-atomically.
type FrameWriter = Arc<Mutex<TcpStream>>;

/// Writes `frame` and its newline with **one** `write_all`: split into
/// two writes, Nagle's algorithm would hold the newline back until the
/// peer's delayed ACK.
fn write_frame<W: Write>(writer: &Mutex<W>, frame: &str) {
    let mut line = String::with_capacity(frame.len() + 1);
    line.push_str(frame);
    line.push('\n');
    let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
    let _ = w.write_all(line.as_bytes()).and_then(|()| w.flush());
}

/// Reads one newline-terminated frame with bounded memory: bytes past
/// the frame limit are discarded (the line still drains to its
/// newline). Returns `Ok(None)` at EOF, otherwise whether the line
/// overflowed.
fn read_frame_capped(reader: &mut impl BufRead, buf: &mut String) -> std::io::Result<Option<bool>> {
    buf.clear();
    let mut raw: Vec<u8> = Vec::new();
    let mut overflow = false;
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            if raw.is_empty() && !overflow {
                return Ok(None);
            }
            break;
        }
        let (chunk, done) = match available.iter().position(|&b| b == b'\n') {
            Some(pos) => (&available[..pos], true),
            None => (available, false),
        };
        let used = chunk.len() + usize::from(done);
        if raw.len() + chunk.len() > MAX_FRAME_BYTES {
            overflow = true;
            raw.clear();
        } else {
            raw.extend_from_slice(chunk);
        }
        reader.consume(used);
        if done {
            break;
        }
    }
    *buf = String::from_utf8_lossy(&raw).into_owned();
    Ok(Some(overflow))
}

fn handle_connection(state: &Arc<ServerState>, stream: TcpStream) {
    // Every write is one whole frame, so Nagle's algorithm has nothing
    // to coalesce: it would only hold a frame back while an earlier
    // one waits for the client's delayed ACK.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let writer: FrameWriter = Arc::new(Mutex::new(stream));
    let mut reader = BufReader::new(read_half);
    let mut line = String::new();
    loop {
        match read_frame_capped(&mut reader, &mut line) {
            Err(_) | Ok(None) => break,
            Ok(Some(true)) => {
                state.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let err = ProtocolError {
                    code: "oversized_frame",
                    message: format!("frame exceeds the {MAX_FRAME_BYTES}-byte limit"),
                };
                write_frame(&writer, &err.to_frame());
                continue;
            }
            Ok(Some(false)) => {}
        }
        if line.trim().is_empty() {
            continue; // blank keep-alive lines are free
        }
        state.requests.fetch_add(1, Ordering::Relaxed);
        match Request::parse(&line) {
            Err(e) => {
                state.protocol_errors.fetch_add(1, Ordering::Relaxed);
                write_frame(&writer, &e.to_frame());
            }
            Ok(request) => {
                let shutdown = dispatch(state, &writer, request);
                if shutdown {
                    break;
                }
            }
        }
    }
}

/// Handles one parsed request; returns whether the server should stop.
fn dispatch(state: &Arc<ServerState>, writer: &FrameWriter, request: Request) -> bool {
    match request {
        Request::Stats => {
            write_frame(writer, &stats_frame(state));
            false
        }
        Request::Ping => {
            write_frame(writer, &protocol::pong_frame());
            false
        }
        Request::Cancel { job } => {
            let hit = match state.queue.cancel(job) {
                None => "unknown",
                Some(JobState::Queued) => "queued",
                Some(JobState::Running) => "running",
                Some(_) => "finished",
            };
            write_frame(writer, &protocol::cancelled_frame(job, None, hit));
            false
        }
        Request::Shutdown => {
            write_frame(writer, &protocol::shutting_down_frame());
            state.stop.store(true, Ordering::SeqCst);
            // Wake the blocking accept loop so it observes the flag.
            if let Ok(me) = writer
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .local_addr()
            {
                let _ = TcpStream::connect(me);
            }
            true
        }
        job_request => {
            let id = job_request.id().map(str::to_owned);
            let events = frame_events(Arc::clone(writer), id.clone());
            let exec_state = Arc::clone(state);
            let work: JobFn = Box::new(move || {
                exec::execute(&exec_state.ctx, &job_request).map(|report| report.to_json())
            });
            match state.queue.submit(work, events) {
                Some(job) => {
                    let depth = state.queue.depth();
                    write_frame(writer, &protocol::accepted_frame(job, id.as_deref(), depth));
                }
                None => {
                    write_frame(
                        writer,
                        &protocol::job_error_frame(0, id.as_deref(), "server is shutting down"),
                    );
                }
            }
            false
        }
    }
}

/// Adapts queue events for one job into protocol frames on `writer`.
fn frame_events(writer: FrameWriter, id: Option<String>) -> EventSink {
    Arc::new(move |event| {
        let frame = match event {
            JobEvent::Started { job } => protocol::running_frame(job, id.as_deref()),
            JobEvent::Finished {
                job,
                outcome: Ok(report),
            } => protocol::result_frame(job, id.as_deref(), &report),
            JobEvent::Finished {
                job,
                outcome: Err(message),
            } => protocol::job_error_frame(job, id.as_deref(), &message),
            JobEvent::Cancelled { job } => {
                protocol::cancelled_frame(job, id.as_deref(), "cancelled")
            }
        };
        write_frame(&writer, &frame);
    })
}

fn stats_frame(state: &ServerState) -> String {
    let q = state.queue.stats();
    let c = state.ctx.cache.stats();
    let (degraded, tiers) = match &state.ctx.ladder {
        Some(ladder) => {
            let tiers: Vec<String> = ladder
                .tier_stats()
                .iter()
                .enumerate()
                .map(|(tier, s)| s.to_json(tier))
                .collect();
            (ladder.degraded_served(), tiers.join(","))
        }
        None => (0, String::new()),
    };
    format!(
        "{{\"event\":\"stats\",\"requests\":{},\"protocol_errors\":{},\
         \"jobs\":{{\"submitted\":{},\"done\":{},\"failed\":{},\"cancelled\":{},\
         \"queued\":{},\"running\":{}}},\
         \"cache\":{{\"entries\":{},\"hits\":{},\"misses\":{},\"inserts\":{},\
         \"disk_loads\":{},\"quarantined\":{}}},\
         \"degraded_served\":{degraded},\"tiers\":[{tiers}]}}",
        state.requests.load(Ordering::Relaxed),
        state.protocol_errors.load(Ordering::Relaxed),
        q.submitted,
        q.done,
        q.failed,
        q.cancelled,
        q.queued,
        q.running,
        c.entries,
        c.hits,
        c.misses,
        c.inserts,
        c.disk_loads,
        c.quarantined,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_and_its_newline_go_out_in_one_write() {
        let writer = Mutex::new(CountingWriter::default());
        write_frame(&writer, &protocol::pong_frame());
        let writer = writer.into_inner().unwrap();
        assert_eq!(writer.writes, 1);
        assert_eq!(writer.bytes, b"{\"event\":\"pong\"}\n");
    }
}
