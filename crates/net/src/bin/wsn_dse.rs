//! `wsn_dse` — command-line front end for the reproduction.
//!
//! ```text
//! wsn_dse run       [--seed N] [--runs N] [--f0 HZ] [--horizon S] [--csv DIR] [--json]
//! wsn_dse simulate  [--clock HZ --watchdog S --interval S] [--f0 HZ] [--horizon S]
//!                   [--trace] [--json]
//! wsn_dse sweep     --factor {clock|watchdog|interval} [--samples N] [--validate]
//! wsn_dse refine    [--seed N] [--shrink F] [--runs N]
//! wsn_dse faults    [--clock HZ --watchdog S --interval S] [--fault-seed N] [--fault-rate R]
//!                   [--seeds N] [--f0 HZ] [--horizon S] [--json]
//! wsn_dse network   [--nodes N] [--fleet-seed N] [--clock HZ --watchdog S --interval S]
//!                   [--freq-spread HZ] [--phase-spread S] [--slot S] [--interference M]
//!                   [--delivery M] [--ring-radius M | --grid-pitch M] [--ideal]
//!                   [--dse] [--seed N] [--runs N] [--json]
//! wsn_dse pareto    [--fleet [--nodes N] <network options>] [--objectives LIST]
//!                   [--adaptive] [--budget N] [--batch N] [--explore A] [--front-cap N]
//!                   [--seed N] [--runs N] [--timer-space] [--f0 HZ] [--horizon S] [--json]
//! wsn_dse chaos     [--seed N] [--chaos-rate R] [--points N] [--f0 HZ] [--horizon S] [--json]
//! wsn_dse serve     [--addr HOST:PORT] [--workers N] [--cache-dir DIR] [--addr-file FILE]
//!                   [--chaos-rate R] [--chaos-seed N]
//!
//! every job command: [--engine E] [--dt S] [--fault-seed N --fault-rate R]
//! how jobs run:      [--jobs N] [--cache-dir DIR] [--eval-timeout S] [--eval-retries N]
//! ```
//!
//! The five job commands — `run`, `simulate`, `faults`, `network` and
//! `pareto` — are the job types of the serving protocol
//! ([`wsn_dse::protocol`]). Their options are read into a
//! [`wsn_dse::protocol::Request`] by the protocol's own field reader
//! (`--fault-seed 3` is the wire's `"fault_seed":3`, with the wire's
//! defaults and checks) and run by the executor the server runs,
//! [`wsn_net::execute`], so `wsn_client` against `wsn_dse serve` prints
//! the same report as the job command's `--json`. The options under
//! "how jobs run" build the [`wsn_net::ExecContext`]; `--json`, `--csv`
//! and the `--trace` CSV are output, printed from the returned report.
//! `sweep`, `refine`, `chaos` and `serve` are CLI-only.
//!
//! `run` executes the paper flow; `simulate` evaluates one
//! configuration (`--json` includes the per-transmission timestamps);
//! `faults` evaluates one under a seeded fault-injection ensemble;
//! `network` evaluates a fleet on a shared radio channel (with `--dse`,
//! it optimises the fleet's sink goodput); `pareto` runs the
//! multi-objective Pareto DSE, single-node or `--fleet`, with
//! `--adaptive` sequential DOE, an `--objectives` axis subset and the
//! `--timer-space` factor. `sweep` prints a Fig. 4 style panel, `refine`
//! runs the two-phase sequential flow, and `chaos` storms `--points`
//! design points through a chaos-injected envelope engine backed by a
//! surrogate tier, exiting 0 when every failure is isolated or absorbed.
//!
//! `--engine envelope|full` selects the engine (`full`, the mixed-signal
//! co-simulation, is orders of magnitude slower: pair it with a short
//! `--horizon`); `--dt S` sets its analogue step. `--fault-seed N
//! --fault-rate R` fail each radio transmission and each watchdog wake
//! with probability `R` and drop the vibration out `20 R` times per hour
//! for 60 s, on a schedule that is a pure function of the seed.
//!
//! `--jobs N` caps the simulation threads (0: all cores); reports are
//! bit-identical at any count (gated by `scripts/verify.sh`).
//! `--cache-dir DIR` attaches the crash-safe persistent evaluation
//! cache; cached values are bit-identical to fresh ones, so a warm
//! report matches a cold one. `--eval-timeout S` arms a per-evaluation
//! wall-clock budget and `--eval-retries N` allows N retries with
//! deterministic backoff. A valued option given without its value is an
//! error, never a silent default.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use harvester::VibrationProfile;
use numkit::rng::Rng;
use wsn_dse::protocol::{json_string, NetworkJob, ProtocolError, Request, RunJob};
use wsn_dse::{coded_to_config, paper_design_space, DseFlow, EvalCache, EvalKey, SimPool};
use wsn_net::args::Args;
use wsn_net::exec::{self, ExecContext, JobReport};
use wsn_node::{NodeConfig, SimEngine, SystemConfig};

fn usage() -> &'static str {
    "usage: wsn_dse <run|simulate|sweep|refine|faults|network|pareto|chaos|serve> [options]\n\
     \n\
     run       [--seed N] [--runs N] [--f0 HZ] [--horizon S] [--csv DIR] [--json]\n\
     simulate  [--clock HZ --watchdog S --interval S] [--f0 HZ] [--horizon S] [--trace] [--json]\n\
     sweep     --factor clock|watchdog|interval [--samples N] [--validate] <run options>\n\
     refine    [--shrink F] <run options>\n\
     faults    [--clock HZ --watchdog S --interval S] [--fault-seed N] [--fault-rate R]\n\
               [--seeds N] [--f0 HZ] [--horizon S] [--json]\n\
     network   [--nodes N] [--fleet-seed N] [--clock HZ --watchdog S --interval S]\n\
               [--freq-spread HZ] [--phase-spread S] [--slot S] [--interference M]\n\
               [--delivery M] [--ring-radius M | --grid-pitch M] [--ideal]\n\
               [--dse --seed N --runs N] [--json]\n\
     pareto    [--fleet [--nodes N] <network options>] [--objectives LIST]\n\
               [--adaptive] [--budget N] [--batch N] [--explore A] [--front-cap N]\n\
               [--seed N] [--runs N] [--timer-space] [--f0 HZ] [--horizon S] [--json]\n\
     chaos     [--seed N] [--chaos-rate R] [--points N] [--f0 HZ] [--horizon S] [--json]\n\
     serve     [--addr HOST:PORT] [--workers N] [--cache-dir DIR] [--addr-file FILE]\n\
               [--chaos-rate R] [--chaos-seed N]\n\
     \n\
     --engine envelope|full selects the simulation engine (job commands;\n\
       default envelope; full is slow — use a short --horizon);\n\
       --dt S overrides the full engine's analogue step\n\
     --fault-seed N --fault-rate R (job commands) inject deterministic\n\
       radio/watchdog/vibration faults at rate R\n\
     job commands take the options of the serving protocol's job types, with\n\
       the same defaults; a served report equals the --json one\n\
     --cache-dir DIR (run, sweep, refine, faults, network --dse, pareto, serve)\n\
       attaches the crash-safe persistent evaluation cache; warm reports match cold ones\n\
     --eval-timeout S arms a per-evaluation wall-clock budget;\n\
       --eval-retries N allows N retries with deterministic backoff\n\
     --jobs 0 (default) uses all cores; results are identical at any job count"
}

/// The `--eval-timeout` per-evaluation wall-clock budget, when given.
fn eval_deadline_from(args: &Args) -> Result<Option<Duration>, String> {
    match args.value::<f64>("eval-timeout")? {
        Some(secs) if !(secs > 0.0 && secs.is_finite()) => {
            Err("--eval-timeout: expected a positive number of seconds".to_owned())
        }
        secs => Ok(secs.map(Duration::from_secs_f64)),
    }
}

/// The execution context of this process: `--jobs`, `--eval-timeout`,
/// `--eval-retries` (backoff jitter keyed by `--seed`) and, when
/// `attach_cache`, the persistent cache of
/// `--cache-dir` (an unusable directory only costs persistence).
fn context_from(args: &Args, attach_cache: bool) -> Result<ExecContext, String> {
    let cache = Arc::new(EvalCache::new());
    if let (true, Some(dir)) = (attach_cache, args.get("cache-dir")?) {
        if let Err(e) = cache.persist_to(std::path::Path::new(dir)) {
            eprintln!(
                "warning: cannot attach eval cache at {dir}: {e}; continuing without persistence"
            );
        }
    }
    let jitter_seed = args.value("seed")?.unwrap_or(RunJob::default().seed);
    Ok(ExecContext {
        jobs: args.value("jobs")?.unwrap_or(0),
        cache,
        retry: exec::retry_policy(args.value("eval-retries")?, jitter_seed),
        deadline: eval_deadline_from(args)?,
        ladder: None,
    })
}

/// The job `command` the options describe. `--id` and `--timeout-ms`
/// are `wsn_client`'s: here they are not read, so `--eval-timeout` stays
/// the one per-evaluation budget.
fn job_request(command: &str, args: &Args) -> Result<Request, ProtocolError> {
    args.request(command, &["id", "timeout-ms"])
}

/// Runs one job command (`run`, `simulate`, `faults`, `network`,
/// `pareto`) through the shared executor and prints its report.
fn cmd_job(command: &str, args: &Args) -> Result<(), String> {
    let request = match job_request(command, args) {
        Ok(request) if request.is_job() => request,
        Err(e) if e.code != "unknown_type" => return Err(e.to_string()),
        _ => return Err(format!("unknown command {command}\n{}", usage())),
    };
    // A plain fleet evaluation needs every node's full timestamp trace,
    // which only a fresh simulation produces, and a single simulation
    // is never cached: neither attaches `--cache-dir`.
    let uses_cache = match &request {
        Request::Network(NetworkJob { dse: false, .. }) => {
            if args.get("cache-dir")?.is_some() {
                // One structured JSON line, so scripted callers can
                // detect the ignored option instead of matching prose.
                eprintln!("{}", wsn_net::serve::cache_dir_ignored_warning());
            }
            false
        }
        Request::Simulate(_) => false,
        _ => true,
    };
    let report = exec::execute(&context_from(args, uses_cache)?, &request)?;
    if args.has_flag("json") {
        println!("{}", report.to_json());
    } else {
        println!("{report}");
    }
    match (&request, &report) {
        (_, JobReport::Run(report)) => {
            if let Some(dir) = args.get("csv")? {
                let dir = std::path::Path::new(dir);
                std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
                let mut runs =
                    std::fs::File::create(dir.join("runs.csv")).map_err(|e| e.to_string())?;
                report
                    .write_runs_csv(&mut runs)
                    .map_err(|e| e.to_string())?;
                let mut designs =
                    std::fs::File::create(dir.join("designs.csv")).map_err(|e| e.to_string())?;
                report
                    .write_designs_csv(&mut designs)
                    .map_err(|e| e.to_string())?;
                println!(
                    "wrote {}/runs.csv and {}/designs.csv",
                    dir.display(),
                    dir.display()
                );
            }
        }
        (Request::Simulate(job), JobReport::Simulate(out)) if job.trace => {
            println!("time_s,voltage_v");
            for s in &out.trace {
                println!("{:.1},{:.5}", s.time, s.voltage);
            }
        }
        _ => {}
    }
    Ok(())
}

/// The flow of the `run` job the options describe: what `sweep` and
/// `refine` explore.
fn flow_from(args: &Args) -> Result<DseFlow, String> {
    match job_request("run", args).map_err(|e| e.to_string())? {
        Request::Run(job) => Ok(exec::dse_flow(&context_from(args, true)?, &job)),
        _ => unreachable!("a run request"),
    }
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let factor = match args.get("factor")? {
        Some("clock") => 0,
        Some("watchdog") => 1,
        Some("interval") => 2,
        other => {
            return Err(format!(
                "--factor must be clock|watchdog|interval, got {other:?}"
            ))
        }
    };
    let samples = args.value("samples")?.unwrap_or(21);
    let flow = flow_from(args)?;
    let design = flow.build_design().map_err(|e| e.to_string())?;
    let responses = flow.simulate_design(&design).map_err(|e| e.to_string())?;
    let surface = flow.fit(&design, &responses).map_err(|e| e.to_string())?;
    let sweep = flow
        .sweep1d(&surface, factor, samples, args.has_flag("validate"))
        .map_err(|e| e.to_string())?;
    println!("# sweep of {} (others at coded 0)", sweep.name);
    println!("coded,natural,rsm_prediction,simulated");
    for p in &sweep.points {
        match p.simulated {
            Some(sim) => println!(
                "{:.3},{:.6},{:.1},{sim:.0}",
                p.coded, p.natural, p.predicted
            ),
            None => println!("{:.3},{:.6},{:.1},", p.coded, p.natural, p.predicted),
        }
    }
    Ok(())
}

fn cmd_refine(args: &Args) -> Result<(), String> {
    let shrink = args.value("shrink")?.unwrap_or(0.35);
    let flow = flow_from(args)?;
    let first = flow.run().map_err(|e| e.to_string())?;
    println!("== phase 1 ==\n{first}\n");
    let refined = flow
        .refine(&first, shrink)
        .map_err(|e| e.to_string())?
        .doe_runs(16);
    let second = refined.run().map_err(|e| e.to_string())?;
    println!("== phase 2 (zoom {shrink}) ==\n{second}");
    Ok(())
}

/// Exercises the robustness machinery end to end: a chaos-wrapped
/// envelope engine backed by an RSM surrogate, stormed with seeded
/// failures through the fault-tolerant pool. Exits 0 as long as the
/// harness isolates or absorbs every injected failure.
fn cmd_chaos(args: &Args) -> Result<(), String> {
    let seed = args.value("seed")?.unwrap_or(7);
    let rate = args.value("chaos-rate")?.unwrap_or(0.25);
    let n_points: usize = args.value("points")?.unwrap_or(24);
    if n_points == 0 {
        return Err("--points: expected at least one storm point".to_owned());
    }
    let f0 = args.value("f0")?.unwrap_or(RunJob::default().f0);
    let horizon = args.value("horizon")?.unwrap_or(600.0);
    let ctx = context_from(args, false)?;

    let mut template = SystemConfig::paper(NodeConfig::original())
        .with_horizon(horizon)
        .with_vibration(VibrationProfile::paper_profile(f0));
    template.trace_interval = None;

    // The ladder under test: the envelope engine wrapped in a seeded
    // chaos injector, backed by a surrogate calibrated from the clean
    // envelope engine, with per-tier breakers.
    let ladder = exec::chaos_ladder(seed, rate, &template)?;
    let engine: Arc<dyn SimEngine> = ladder.clone();
    let space = paper_design_space();

    // Storm targets: seeded coded points across the Table V space.
    let mut rng = Rng::stream(seed, 0x6368_6173); // "chas"
    let points: Vec<Vec<f64>> = (0..n_points)
        .map(|_| {
            (0..space.dimension())
                .map(|_| rng.uniform(-1.0, 1.0))
                .collect()
        })
        .collect();
    let scenario = template.scenario().fingerprint();
    let keys: Vec<EvalKey> = points
        .iter()
        .map(|p| EvalKey::for_engine(engine.as_ref(), scenario, p))
        .collect();

    let mut pool = SimPool::new(ctx.jobs);
    pool.set_retry_policy(ctx.retry);
    pool.set_eval_deadline(ctx.deadline);
    // Injected panics are the experiment, not crashes: the pool catches
    // every one, so mute the default backtrace spam for the storm's
    // duration and restore the hook afterwards.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let batch = pool.evaluate_batch_partial(&keys, |i| {
        let mut cfg = template.clone();
        cfg.node = coded_to_config(&space, &points[i])?;
        Ok(engine.simulate(&cfg)?.transmissions as f64)
    });
    std::panic::set_hook(prev_hook);

    let stats = ladder.tier_stats();
    let degraded = ladder.degraded_served();
    if args.has_flag("json") {
        let tiers: Vec<String> = stats
            .iter()
            .enumerate()
            .map(|(tier, s)| s.to_json(tier))
            .collect();
        let failures: Vec<String> = batch
            .failures
            .iter()
            .map(|f| {
                format!(
                    "{{\"index\":{},\"attempts\":{},\"error\":{}}}",
                    f.index,
                    f.attempts,
                    json_string(&f.error.to_string())
                )
            })
            .collect();
        println!(
            "{{\"seed\":{seed},\"chaos_rate\":{rate},\"points\":{n_points},\
             \"succeeded\":{},\"failed\":{},\"degraded_served\":{degraded},\
             \"tiers\":[{}],\"failures\":[{}],\"cache\":{{\"hits\":{},\"misses\":{}}}}}",
            batch.succeeded(),
            batch.failures.len(),
            tiers.join(","),
            failures.join(","),
            pool.cache().hits(),
            pool.cache().misses(),
        );
    } else {
        println!("chaos storm: seed {seed}, rate {rate}, {n_points} points over {horizon} s each");
        println!(
            "outcome:     {} succeeded, {} failed, {degraded} served by a degraded tier",
            batch.succeeded(),
            batch.failures.len()
        );
        for (tier, s) in stats.iter().enumerate() {
            println!(
                "tier {tier} ({:<9}): served {:>4}, failures {:>4}, breaker-skipped {:>4}",
                s.name, s.served, s.failures, s.skipped
            );
        }
        for f in &batch.failures {
            println!(
                "failed point {:>3} after {} attempt(s): {}",
                f.index, f.attempts, f.error
            );
        }
    }
    Ok(())
}

/// Starts the long-lived DSE-as-a-service server. Announces the bound
/// address as one JSON line on stdout (and in `--addr-file`, for shell
/// harnesses racing the ephemeral port), then serves until a client
/// sends `shutdown`.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let config = wsn_net::ServeConfig {
        workers: args.value("workers")?.unwrap_or(2),
        jobs: args.value("jobs")?.unwrap_or(0),
        cache_dir: args.get("cache-dir")?.map(std::path::PathBuf::from),
        chaos_rate: args.value("chaos-rate")?.unwrap_or(0.0),
        chaos_seed: args.value("chaos-seed")?.unwrap_or(7),
        eval_timeout: eval_deadline_from(args)?,
        eval_retries: args.value("eval-retries")?,
    };
    let workers = config.workers;
    let server = wsn_net::Server::bind(args.get("addr")?.unwrap_or("127.0.0.1:0"), config)?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    println!("{{\"event\":\"serving\",\"addr\":\"{addr}\",\"workers\":{workers}}}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    if let Some(path) = args.get("addr-file")? {
        std::fs::write(path, addr.to_string()).map_err(|e| e.to_string())?;
    }
    server.run();
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let Some(command) = args.command() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let result = match command {
        "sweep" => cmd_sweep(&args),
        "refine" => cmd_refine(&args),
        "chaos" => cmd_chaos(&args),
        "serve" => cmd_serve(&args),
        job => cmd_job(job, &args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
