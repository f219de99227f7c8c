//! The one executor for every job type. The `wsn_dse` CLI, the server
//! behind `wsn_client` and the tests all turn a [`Request`] into a
//! [`JobReport`] through [`execute`], so a served report equals the
//! CLI's by construction.
//!
//! What a job computes is its [`Request`] spec (see
//! [`wsn_dse::protocol`]); how it is computed — pool threads, the
//! evaluation cache, retries, deadlines and the chaos ladder — is the
//! [`ExecContext`]. The server keeps one context for
//! its lifetime; the CLI builds one per process from its options.

use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};

use doe::{DOptimal, ModelSpec};
use harvester::VibrationProfile;
use rsm::ResponseSurface;
use wsn_dse::protocol::{
    FaultsJob, FleetOptions, NetworkJob, ParetoJob, Request, RunJob, SimulateJob,
};
use wsn_dse::robustness::{evaluate_scenarios_with, fault_robustness_with, RobustnessSummary};
use wsn_dse::{
    coded_to_config, paper_design_space, paper_design_space_with_timer, DseFlow, DseReport,
    EvalCache, RetryPolicy, SimPool, SurrogateEngine,
};
use wsn_node::{
    ChaosEngine, ChaosPlan, EngineKind, FallbackEngine, FaultCounters, FaultPlan, NodeConfig,
    SimEngine, SimOutcome, SystemConfig,
};
use wsn_pareto::{MultiObjective, NodeObjectives, ParetoDseFlow, ParetoReport};

use crate::{
    FleetDseFlow, FleetDseReport, FleetObjectives, FleetSpec, FleetTopology, NetworkReport,
    NetworkSim, RadioChannel,
};

/// How jobs are computed: everything [`execute`] needs besides the job
/// itself. None of it changes a report, except that a chaos ladder may
/// answer from its surrogate tier and the cache counters embedded in a
/// single-node report describe [`ExecContext::cache`].
#[derive(Debug, Clone)]
pub struct ExecContext {
    /// Simulation pool threads per flow (`0` = all cores).
    pub jobs: usize,
    /// The evaluation cache every flow shares, attached as each flow
    /// builder's **last** step (earlier steps clear the flow's own
    /// cache, which must never be this one).
    pub cache: Arc<EvalCache>,
    /// Retry/backoff discipline for failed evaluations.
    pub retry: RetryPolicy,
    /// Default per-evaluation wall-clock budget; a job's `timeout_ms`
    /// overrides it.
    pub deadline: Option<Duration>,
    /// When armed, the engine of every job: the chaos degradation
    /// ladder from [`chaos_ladder`].
    pub ladder: Option<Arc<FallbackEngine>>,
}

impl Default for ExecContext {
    fn default() -> Self {
        ExecContext {
            jobs: 0,
            cache: Arc::new(EvalCache::new()),
            retry: RetryPolicy::default(),
            deadline: None,
            ladder: None,
        }
    }
}

impl ExecContext {
    /// The engine a job asking for `kind` (and analogue step `dt`, `0`
    /// for the engine's own) gets: the chaos ladder when one is armed.
    fn engine(&self, kind: EngineKind, dt: f64) -> Arc<dyn SimEngine> {
        match &self.ladder {
            Some(ladder) => Arc::clone(ladder) as Arc<dyn SimEngine>,
            None if dt > 0.0 => kind.engine_with_dt(dt),
            None => kind.engine(),
        }
    }

    fn deadline(&self, timeout_ms: Option<u64>) -> Option<Duration> {
        timeout_ms.map(Duration::from_millis).or(self.deadline)
    }

    fn network_sim(&self, engine: Arc<dyn SimEngine>, timeout_ms: Option<u64>) -> NetworkSim {
        NetworkSim::new()
            .jobs(self.jobs)
            .with_engine(engine)
            .retry_policy(self.retry.clone())
            .eval_deadline(self.deadline(timeout_ms))
    }
}

/// The retry discipline: `None` keeps the default two-attempt,
/// no-backoff policy bit-identically; `Some(n)` allows `n` retries after
/// the first attempt, spaced by deterministic exponential backoff whose
/// jitter is seeded by `jitter_seed`.
pub fn retry_policy(retries: Option<u32>, jitter_seed: u64) -> RetryPolicy {
    match retries {
        None => RetryPolicy::default(),
        Some(retries) => RetryPolicy::attempts(retries + 1)
            .with_backoff(Duration::from_millis(25))
            .with_jitter(0.5, jitter_seed),
    }
}

/// Builds the chaos degradation ladder: the envelope engine wrapped in
/// a seeded chaos injector at `rate`, backed by a last-resort
/// response-surface surrogate. The surrogate is calibrated from the
/// clean envelope engine over `template` exactly like the paper flow's
/// surface: a 10-run D-optimal design seeded by `seed`, simulated and
/// fitted.
///
/// # Errors
///
/// A rate outside `[0, 1]`; design, simulation and fit errors.
pub fn chaos_ladder(
    seed: u64,
    rate: f64,
    template: &SystemConfig,
) -> Result<Arc<FallbackEngine>, String> {
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("chaos rate must be in [0, 1], got {rate}"));
    }
    let space = paper_design_space();
    let model = ModelSpec::quadratic(space.dimension());
    let design = DOptimal::new(space.dimension(), model.clone())
        .runs(10)
        .seed(seed)
        .build()
        .map_err(|e| e.to_string())?;
    let clean = EngineKind::Envelope.engine();
    let mut responses = Vec::with_capacity(design.len());
    for p in design.points() {
        let mut cfg = template.clone();
        cfg.node = coded_to_config(&space, p).map_err(|e| e.to_string())?;
        let out = clean.simulate(&cfg).map_err(|e| e.to_string())?;
        responses.push(out.transmissions as f64);
    }
    let surface = ResponseSurface::fit(&design, model, &responses).map_err(|e| e.to_string())?;
    let surrogate: Arc<dyn SimEngine> = Arc::new(SurrogateEngine::new(space, surface));
    let chaotic: Arc<dyn SimEngine> = Arc::new(ChaosEngine::new(
        EngineKind::Envelope.engine(),
        ChaosPlan::storm(seed, rate),
    ));
    Ok(Arc::new(FallbackEngine::new(vec![chaotic, surrogate])))
}

/// A fault-injection ensemble's outcome: the nominal baseline, the
/// ensemble over the fault realisations, and the fault counters of the
/// first realisation.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultsReport {
    /// The ensemble's fault plan (seed and rate).
    pub plan: FaultPlan,
    /// Simulated horizon in seconds.
    pub horizon: f64,
    /// Transmissions of the fault-free run.
    pub nominal_tx: f64,
    /// Transmissions over the realisations, one sample each.
    pub ensemble: RobustnessSummary,
    /// Fault counters of the first realisation.
    pub counters: FaultCounters,
}

impl FaultsReport {
    /// The report as one JSON document.
    pub fn to_json(&self) -> String {
        let e = &self.ensemble;
        let samples: Vec<String> = e.samples.iter().map(|s| format!("{s}")).collect();
        format!(
            "{{\"fault_seed\":{},\"fault_rate\":{},\"realisations\":{},\"nominal_tx\":{},\
             \"ensemble\":{{\"samples\":[{}],\"mean\":{},\"std_dev\":{},\"min\":{},\"max\":{},\
             \"fragility\":{:.6},\"p10\":{},\"worst_case_ratio\":{:.6}}},\"counters\":{}}}",
            self.plan.seed(),
            self.plan.tx_failure_rate(),
            e.samples.len(),
            self.nominal_tx,
            samples.join(","),
            e.mean,
            e.std_dev,
            e.min,
            e.max,
            e.fragility(),
            e.percentile(10.0),
            e.worst_case_ratio(),
            self.counters.to_json(),
        )
    }
}

impl fmt::Display for FaultsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let e = &self.ensemble;
        writeln!(
            f,
            "fault injection: seed {}, rate {}, {} realisations over {} s",
            self.plan.seed(),
            self.plan.tx_failure_rate(),
            e.samples.len(),
            self.horizon
        )?;
        writeln!(f, "nominal:     {:.0} tx", self.nominal_tx)?;
        writeln!(
            f,
            "ensemble:    mean {:.1}, min {:.0}, max {:.0}, σ {:.1}",
            e.mean, e.min, e.max, e.std_dev
        )?;
        writeln!(
            f,
            "tail:        p10 {:.1}, worst-case retention {:.3}, fragility {:.3}",
            e.percentile(10.0),
            e.worst_case_ratio(),
            e.fragility()
        )?;
        write!(f, "counters[0]: {}", self.counters)
    }
}

/// The report of one executed job.
#[derive(Debug, Clone)]
pub enum JobReport {
    /// A single-node DSE (`run`).
    Run(Box<DseReport>),
    /// One simulation (`simulate`).
    Simulate(SimOutcome),
    /// A fault-injection ensemble (`faults`).
    Faults(FaultsReport),
    /// A plain fleet evaluation (`network`).
    Network(NetworkReport),
    /// A fleet-level DSE (`network --dse`).
    FleetDse(Box<FleetDseReport>),
    /// A Pareto DSE (`pareto`).
    Pareto(ParetoReport),
}

impl JobReport {
    /// The report as one JSON document: the `--json` output of the CLI
    /// and the payload of a served `result` frame.
    pub fn to_json(&self) -> String {
        match self {
            JobReport::Run(r) => r.to_json(),
            JobReport::Simulate(r) => r.to_json(),
            JobReport::Faults(r) => r.to_json(),
            JobReport::Network(r) => r.to_json(),
            JobReport::FleetDse(r) => r.to_json(),
            JobReport::Pareto(r) => r.to_json(),
        }
    }
}

impl fmt::Display for JobReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobReport::Run(r) => write!(f, "{r}"),
            JobReport::Simulate(r) => write!(f, "{r}"),
            JobReport::Faults(r) => write!(f, "{r}"),
            JobReport::Network(r) => write!(f, "{r}"),
            JobReport::FleetDse(r) => write!(f, "{r}"),
            JobReport::Pareto(r) => write!(f, "{r}"),
        }
    }
}

/// Executes one job request.
///
/// # Errors
///
/// Any flow, engine or configuration error, as text; `Err` also for a
/// control request, which is not a job.
pub fn execute(ctx: &ExecContext, request: &Request) -> Result<JobReport, String> {
    let report = match request {
        Request::Run(job) => JobReport::Run(Box::new(
            dse_flow(ctx, job).run().map_err(|e| e.to_string())?,
        )),
        Request::Simulate(job) => JobReport::Simulate(simulate(ctx, job)?),
        Request::Faults(job) => JobReport::Faults(faults(ctx, job)?),
        Request::Network(job) => network(ctx, job)?,
        Request::Pareto(job) => JobReport::Pareto(pareto(ctx, job)?),
        _ => return Err("not a job request".to_owned()),
    };
    Ok(report)
}

fn paper_template(f0: f64, horizon: f64) -> SystemConfig {
    SystemConfig::paper(NodeConfig::original())
        .with_horizon(horizon)
        .with_vibration(VibrationProfile::paper_profile(f0))
}

/// The single-node DSE flow of a `run` job, ready to run — also the
/// flow the CLI's `sweep` and `refine` explore.
pub fn dse_flow(ctx: &ExecContext, job: &RunJob) -> DseFlow {
    DseFlow::paper()
        .with_template(paper_template(job.f0, job.horizon))
        .faults(FaultPlan::uniform(job.fault_seed, job.fault_rate))
        .seed(job.seed)
        .doe_runs(job.runs as usize)
        .jobs(ctx.jobs)
        .retry_policy(ctx.retry.clone())
        .eval_deadline(ctx.deadline(job.timeout_ms))
        .with_engine(ctx.engine(job.engine, job.dt))
        .shared_cache(Arc::clone(&ctx.cache))
}

/// One direct run under the pool's deadline discipline: cooperative
/// aborts and late completions both fail cleanly, panics are caught.
fn simulate(ctx: &ExecContext, job: &SimulateJob) -> Result<SimOutcome, String> {
    let mut cfg = paper_template(job.f0, job.horizon)
        .with_faults(FaultPlan::uniform(job.fault_seed, job.fault_rate));
    cfg.node = NodeConfig::new(job.clock, job.watchdog, job.interval).map_err(|e| e.to_string())?;
    if !job.trace {
        cfg.trace_interval = None;
    }
    let engine = ctx.engine(job.engine, job.dt);
    let deadline = ctx.deadline(job.timeout_ms);
    let timed_out = |budget: Duration| format!("evaluation timed out after {budget:?}");
    let started = Instant::now();
    let outcome = wsn_node::deadline::with_budget(deadline, || {
        std::panic::catch_unwind(AssertUnwindSafe(|| engine.simulate(&cfg)))
    });
    match outcome {
        Ok(Ok(out)) => match deadline {
            Some(budget) if started.elapsed() > budget => Err(timed_out(budget)),
            _ => Ok(out),
        },
        Ok(Err(e)) => Err(e.to_string()),
        Err(payload) if wsn_node::deadline::payload_is_deadline(payload.as_ref()) => {
            Err(timed_out(deadline.unwrap_or_default()))
        }
        Err(_) => Err("evaluation panicked".to_owned()),
    }
}

/// A nominal baseline plus `job.seeds` independent realisations of the
/// fault plan, all through one deterministic pool.
fn faults(ctx: &ExecContext, job: &FaultsJob) -> Result<FaultsReport, String> {
    let plan = FaultPlan::uniform(job.fault_seed, job.fault_rate);
    let node = NodeConfig::new(job.clock, job.watchdog, job.interval).map_err(|e| e.to_string())?;
    let mut template = paper_template(job.f0, job.horizon);
    template.trace_interval = None;

    let engine = ctx.engine(job.engine, job.dt);
    let mut pool = SimPool::new(ctx.jobs);
    pool.set_retry_policy(ctx.retry.clone());
    pool.set_eval_deadline(ctx.deadline(job.timeout_ms));
    pool.set_shared_cache(Arc::clone(&ctx.cache));
    let nominal = evaluate_scenarios_with(&engine, &pool, &template, node, &[template.scenario()])
        .map_err(|e| e.to_string())?;

    let seeds: Vec<u64> = (0..job.seeds)
        .map(|i| plan.seed().wrapping_add(i))
        .collect();
    let ensemble = fault_robustness_with(&engine, &pool, &template, node, plan, &seeds)
        .map_err(|e| e.to_string())?;

    // The ensemble memoises only the response, so one direct
    // deterministic re-run recovers the first realisation's counters.
    let mut counted = template.with_faults(plan.reseeded(seeds[0]));
    counted.node = node;
    let outcome = engine.simulate(&counted).map_err(|e| e.to_string())?;
    Ok(FaultsReport {
        plan,
        horizon: job.horizon,
        nominal_tx: nominal.samples[0],
        ensemble,
        counters: outcome.faults,
    })
}

/// The fleet `network` and `pareto --fleet` evaluate.
fn fleet_spec(
    nodes: u64,
    seed: u64,
    template: SystemConfig,
    options: &FleetOptions,
    faults: FaultPlan,
) -> FleetSpec {
    let mut channel = if options.ideal {
        RadioChannel::ideal()
    } else {
        RadioChannel::paper_default()
    };
    if let Some(slot) = options.slot {
        channel = channel.with_slot(slot);
    }
    if let Some(range) = options.interference {
        channel = channel.with_interference_range(range);
    }
    if let Some(range) = options.delivery {
        channel = channel.with_delivery_range(range);
    }
    let mut spec = FleetSpec::paper(nodes as usize)
        .with_seed(seed)
        .with_template(template)
        .with_channel(channel);
    let spreads = (
        options.freq_spread.unwrap_or(spec.freq_spread_hz),
        options.phase_spread.unwrap_or(spec.phase_spread_s),
    );
    spec = spec.with_spreads(spreads.0, spreads.1);
    if let Some(pitch_m) = options.grid_pitch {
        spec = spec.with_topology(FleetTopology::Grid { pitch_m });
    } else if let Some(radius_m) = options.ring_radius {
        spec = spec.with_topology(FleetTopology::Ring { radius_m });
    }
    if faults.is_none() {
        spec
    } else {
        spec.with_faults(faults)
    }
}

/// Evaluates (or, with `dse`, optimises) a fleet on a shared channel.
fn network(ctx: &ExecContext, job: &NetworkJob) -> Result<JobReport, String> {
    let spec = fleet_spec(
        job.nodes,
        job.fleet_seed,
        paper_template(job.f0, job.horizon),
        &job.fleet_options,
        FaultPlan::uniform(job.fault_seed, job.fault_rate),
    );
    let engine = ctx.engine(job.engine, job.dt);
    if job.dse {
        let report = FleetDseFlow::paper(spec.nodes)
            .with_spec(spec)
            .seed(job.seed)
            .doe_runs(job.runs as usize)
            .jobs(ctx.jobs)
            .retry_policy(ctx.retry.clone())
            .eval_deadline(ctx.deadline(job.timeout_ms))
            .with_engine(engine)
            .shared_cache(Arc::clone(&ctx.cache))
            .run()
            .map_err(|e| e.to_string())?;
        Ok(JobReport::FleetDse(Box::new(report)))
    } else {
        let node =
            NodeConfig::new(job.clock, job.watchdog, job.interval).map_err(|e| e.to_string())?;
        let report = ctx
            .network_sim(engine, job.timeout_ms)
            .evaluate(&spec, node)
            .map_err(|e| e.to_string())?;
        Ok(JobReport::Network(report))
    }
}

/// Multi-objective Pareto DSE over the Table V space: single-node, or
/// fleet-level with `fleet`.
fn pareto(ctx: &ExecContext, job: &ParetoJob) -> Result<ParetoReport, String> {
    let faults = FaultPlan::uniform(job.fault_seed, job.fault_rate);
    let template = paper_template(job.f0, job.horizon);
    let engine = ctx.engine(job.engine, job.dt);
    let objective: Arc<dyn MultiObjective> = if job.fleet {
        let spec = fleet_spec(
            job.nodes,
            job.fleet_seed,
            template,
            &job.fleet_options,
            faults,
        );
        Arc::new(FleetObjectives::new(spec).with_sim(ctx.network_sim(engine, job.timeout_ms)))
    } else {
        Arc::new(
            NodeObjectives::paper()
                .with_template(template.with_faults(faults))
                .with_engine(engine),
        )
    };
    let mut flow = ParetoDseFlow::new(objective)
        .seed(job.seed)
        .adaptive(job.adaptive)
        .budget(job.budget as usize)
        .doe_runs(job.runs as usize)
        .batch(job.batch as usize)
        .front_cap(job.front_cap as usize)
        .explore(job.explore)
        .jobs(ctx.jobs)
        .retry_policy(ctx.retry.clone())
        .eval_deadline(ctx.deadline(job.timeout_ms));
    if job.timer_space {
        flow = flow.with_space(paper_design_space_with_timer());
    }
    if let Some(names) = &job.objectives {
        flow = flow.objectives(names);
    }
    flow.shared_cache(Arc::clone(&ctx.cache))
        .run()
        .map_err(|e| e.to_string())
}
