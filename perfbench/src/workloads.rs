//! The three in-process closed-loop workloads: `fleet_city` with one
//! caller thread, `node_dse` and `full_validate` with one per core.

use std::sync::Arc;

use doe::Design;
use wsn_dse::{config_to_coded, CacheStats, DesignEval, DseError, DseFlow, DseReport};
use wsn_net::{FleetSpec, NetworkSim};
use wsn_node::{EngineKind, FaultCounters, NodeConfig, SimEngine, SystemConfig};

use crate::check::{design_point, reference, report_digest, Rng};
use crate::engine::TimingEngine;
use crate::env::nproc;
use crate::trace::{JobTrace, Layer, Tracer};
use crate::{closed_loop, Measured, Opts};

/// Flow seeds `0..RUN_POOL` have recorded `run` reports.
pub const RUN_POOL: usize = 4096;
const RUN_SALT: u64 = 0x6e6f_6465; // "node"
/// `node_dse` latency limit for `slo_met_ratio` (ms). Each closed-loop
/// limit is twice the job p90 measured on the seed (rounded), so the ratio
/// moves only when the latency tail doubles.
const NODE_LIMIT_MS: f64 = 60.0;

const FLEET_POOL: usize = 512;
const FLEET_SALT: u64 = 0x666c_6565; // "flee"
/// Nodes per `fleet_city` ring.
pub const FLEET_NODES: usize = 200;
/// `fleet_city` latency limit for `slo_met_ratio` (ms).
const FLEET_LIMIT_MS: f64 = 300.0;

const FULL_POOL: usize = 256;
const FULL_SALT: u64 = 0x6675_6c6c; // "full"
/// Simulated seconds per `full_validate` job.
pub const FULL_HORIZON_S: f64 = 30.0;
/// `full_validate` latency limit for `slo_met_ratio` (ms).
const FULL_LIMIT_MS: f64 = 550.0;
/// `tests/cross_engine.rs`'s tolerances.
const TX_TOLERANCE: u64 = 2;
const VOLTAGE_TOLERANCE: f64 = 0.010;

/// The installed engine of kind `kind`, wrapped for timing when traced.
fn engine(kind: EngineKind, trace: Option<&Arc<JobTrace>>) -> Arc<dyn SimEngine> {
    match trace {
        Some(t) => TimingEngine::wrap(kind.engine(), Arc::clone(t)),
        None => kind.engine(),
    }
}

/// Job `i`'s span context, when traced.
fn job_trace(tracer: Option<&Arc<Tracer>>, i: usize) -> Option<Arc<JobTrace>> {
    tracer.map(|t| JobTrace::new(t, i as u64))
}

/// `DseFlow::run` taken apart into the public stage calls it makes, each
/// timed as a layer span. The report's digest is checked against the
/// same recorded reference as the untraced `run()`, which shows the
/// stages reproduce it.
fn traced_run(flow: &DseFlow, tracer: &JobTrace) -> Result<DseReport, DseError> {
    let design = tracer.span(Layer::Doe, || flow.build_design())?;
    let responses = tracer.span(Layer::Pool, || flow.simulate_design(&design))?;
    let surface = tracer.span(Layer::Rsm, || flow.fit(&design, &responses))?;
    let d_efficiency = doe::diagnostics::d_efficiency(&design, flow.model())?;
    let original_cfg = NodeConfig::original();
    let original_coded = config_to_coded(flow.space(), &original_cfg)?;
    let optima = tracer.span(Layer::Optim, || flow.optimise(&surface))?;
    let mut candidates = vec![original_coded.clone()];
    candidates.extend(optima.iter().map(|(_, coded, _)| coded.clone()));
    let candidates = Design::from_points(flow.space().dimension(), candidates)?;
    let validated = tracer.span(Layer::Pool, || flow.simulate_design(&candidates))?;
    let eval = |label: String, config, coded, predicted, simulated: f64| DesignEval {
        label,
        config,
        coded,
        predicted,
        simulated: simulated as u64,
        faults: FaultCounters::default(),
        tier: 0,
    };
    let mut optimised = Vec::new();
    for ((label, coded, predicted), simulated) in optima.into_iter().zip(&validated[1..]) {
        let config = wsn_dse::coded_to_config(flow.space(), &coded)?;
        optimised.push(eval(label, config, coded, Some(predicted), *simulated));
    }
    Ok(DseReport {
        original: eval(
            "original".to_owned(),
            original_cfg,
            original_coded,
            None,
            validated[0],
        ),
        design,
        responses,
        surface,
        d_efficiency,
        optimised,
        cache: flow.pool().cache().stats(),
    })
}

/// One `wsn_dse run`: the paper flow at `seed`, as JSON, with the flow's
/// cache counters.
fn run_flow(
    seed: u64,
    jobs: usize,
    trace: Option<&Arc<JobTrace>>,
) -> Result<(String, CacheStats), String> {
    let flow = DseFlow::paper()
        .seed(seed)
        .jobs(jobs)
        .with_engine(engine(EngineKind::Envelope, trace));
    let report = match trace {
        Some(t) => traced_run(&flow, t),
        None => flow.run(),
    }
    .map_err(|e| e.to_string())?;
    Ok((report.to_json(), report.cache))
}

pub fn node_dse(opts: &Opts, tracer: Option<Arc<Tracer>>) -> Measured {
    let tracer = tracer.as_ref();
    let mut cache = CacheStats::default();
    let mut m = closed_loop(
        opts,
        tracer,
        NODE_LIMIT_MS,
        RUN_POOL,
        nproc(),
        || {
            let order = Rng::permutation(opts.seed, RUN_SALT, RUN_POOL);
            // Warm-up on an input outside the pool, the same for every
            // seed, so that set-up time does not depend on the seed.
            run_flow(RUN_POOL as u64, 1, None).expect("warm-up flow");
            order
        },
        |order, i| run_flow(order[i] as u64, 1, job_trace(tracer, i).as_ref()),
        |order, i, (json, stats), checks| {
            cache.hits += stats.hits;
            cache.misses += stats.misses;
            cache.inserts += stats.inserts;
            checks.digest("run", order[i], &json);
        },
    );
    m.layers = cache_metrics(&cache);
    m
}

pub fn cache_metrics(c: &CacheStats) -> Vec<(&'static str, f64)> {
    let lookups = (c.hits + c.misses) as f64;
    vec![
        ("cache.hits", c.hits as f64),
        ("cache.misses", c.misses as f64),
        ("cache.inserts", c.inserts as f64),
        (
            "cache.hit_ratio",
            if lookups > 0.0 {
                c.hits as f64 / lookups
            } else {
                0.0
            },
        ),
    ]
}

/// Pool entry `index` of `fleet_city`: a fleet seed and a design point.
fn fleet_input(index: usize) -> (u64, NodeConfig) {
    let fleet_seed = Rng::new(FLEET_SALT ^ index as u64).next_u64() % 1_000_000;
    (fleet_seed, design_point(FLEET_SALT, index))
}

/// One `wsn_dse network`: a ring fleet evaluated at a design point.
fn run_fleet(
    index: usize,
    jobs: usize,
    trace: Option<&Arc<JobTrace>>,
) -> Result<wsn_net::NetworkReport, String> {
    let (fleet_seed, design) = fleet_input(index);
    let spec = FleetSpec::paper(FLEET_NODES).with_seed(fleet_seed);
    let sim = NetworkSim::new()
        .jobs(jobs)
        .with_engine(engine(EngineKind::Envelope, trace));
    match trace {
        Some(t) => t.span(Layer::Fleet, || sim.evaluate(&spec, design)),
        None => sim.evaluate(&spec, design),
    }
    .map_err(|e| e.to_string())
}

pub fn fleet_city(opts: &Opts, tracer: Option<Arc<Tracer>>) -> Measured {
    let tracer = tracer.as_ref();
    let mut packets = 0u64;
    let mut m = closed_loop(
        opts,
        tracer,
        FLEET_LIMIT_MS,
        FLEET_POOL,
        1,
        || {
            let order = Rng::permutation(opts.seed, FLEET_SALT, FLEET_POOL);
            run_fleet(FLEET_POOL, nproc(), None).expect("warm-up fleet");
            order
        },
        |order, i| {
            run_fleet(order[i], nproc(), job_trace(tracer, i).as_ref()).map(|r| (r.to_json(), r))
        },
        |order, i, (json, report), checks| {
            packets += report.attempted();
            checks.digest("fleet", order[i], &json);
            let accounted = report.delivered() + report.collided() + report.out_of_range();
            checks.expect(report.attempted() == accounted, || {
                format!(
                    "fleet {}: attempted {} != delivered + collided + out_of_range = {accounted}",
                    order[i],
                    report.attempted()
                )
            });
        },
    );
    let fleet_self_ns = crate::trace::self_ns(&m.spans, Layer::Fleet) as f64;
    m.layers = vec![
        ("channel.packets", packets as f64),
        (
            "channel.ns_per_packet",
            if packets > 0 {
                fleet_self_ns / packets as f64
            } else {
                0.0
            },
        ),
    ];
    m
}

/// One `wsn_dse simulate --engine full` at pool entry `index`.
fn run_full(index: usize, engine: &dyn SimEngine) -> Result<wsn_node::SimOutcome, String> {
    let mut config =
        SystemConfig::paper(design_point(FULL_SALT, index)).with_horizon(FULL_HORIZON_S);
    config.trace_interval = None;
    engine.simulate(&config).map_err(|e| e.to_string())
}

pub fn full_validate(opts: &Opts, tracer: Option<Arc<Tracer>>) -> Measured {
    let tracer = tracer.as_ref();
    // One caller per core: a single compute-bound caller reads the speed of
    // whichever core it lands on, which drifts with the host's load.
    let mut m = closed_loop(
        opts,
        tracer,
        FULL_LIMIT_MS,
        usize::MAX,
        nproc(),
        || {
            let order = Rng::permutation(opts.seed, FULL_SALT, FULL_POOL);
            run_full(FULL_POOL, EngineKind::Full.engine().as_ref()).expect("warm-up");
            order
        },
        // Past the end of the pool, the permutation starts over.
        |order, i| {
            let engine = engine(EngineKind::Full, job_trace(tracer, i).as_ref());
            run_full(order[i % FULL_POOL], engine.as_ref())
        },
        |order, i, out, checks| {
            let index = order[i % FULL_POOL];
            let Some((tx, volts)) = reference("full", index).and_then(|r| {
                let (tx, v) = r.split_once(' ')?;
                Some((tx.parse::<u64>().ok()?, v.parse::<f64>().ok()?))
            }) else {
                return checks.fail(format!("full {index}: no recorded reference"));
            };
            checks.expect(
                out.transmissions.abs_diff(tx) <= TX_TOLERANCE
                    && (out.final_voltage - volts).abs() <= VOLTAGE_TOLERANCE,
                || {
                    format!(
                        "full {index}: {} tx / {:.4} V, recorded {tx} tx / {volts:.4} V",
                        out.transmissions, out.final_voltage
                    )
                },
            );
        },
    );
    let steps = FULL_HORIZON_S / wsn_node::FullSystemSim::new().dt();
    let (evals, busy_ns) = m
        .spans
        .iter()
        .filter(|s| s.layer == Layer::FullSim)
        .fold((0u64, 0u64), |(n, t), s| (n + 1, t + s.len()));
    if evals > 0 {
        m.layers = vec![(
            "fullsim.ns_per_step",
            busy_ns as f64 / (evals as f64 * steps),
        )];
    }
    m
}

/// Runs `f(0..n)` on every core and returns the results in index order.
fn par_map(
    n: usize,
    f: impl Fn(usize) -> Result<String, String> + Sync,
) -> Result<Vec<String>, String> {
    let threads = nproc();
    let mut parts: Vec<Vec<(usize, Result<String, String>)>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let f = &f;
                s.spawn(move || {
                    (t..n)
                        .step_by(threads)
                        .map(|i| (i, f(i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts = handles
            .into_iter()
            .map(|h| h.join().expect("recording thread panicked"))
            .collect();
    });
    let mut all: Vec<(usize, Result<String, String>)> = parts.into_iter().flatten().collect();
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, r)| r).collect()
}

/// Reference lines for every `run` pool seed, simulated sequentially.
pub fn record_runs() -> Result<Vec<String>, String> {
    par_map(RUN_POOL, |i| {
        let (json, _) = run_flow(i as u64, 1, None)?;
        Ok(format!("run\t{i}\t{}", report_digest(&json)))
    })
}

pub fn record_fleets() -> Result<Vec<String>, String> {
    par_map(FLEET_POOL, |i| {
        let report = run_fleet(i, 1, None)?;
        Ok(format!("fleet\t{i}\t{}", report_digest(&report.to_json())))
    })
}

pub fn record_full() -> Result<Vec<String>, String> {
    par_map(FULL_POOL, |i| {
        let out = run_full(i, EngineKind::Full.engine().as_ref())?;
        Ok(format!(
            "full\t{i}\t{} {}",
            out.transmissions, out.final_voltage
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference table holds release-build outputs. A debug build
    /// rounds some energy fields differently (`f64::powi` has unspecified
    /// precision), so the table is compared in release builds only.
    #[test]
    fn digests_do_not_change_between_one_and_many_jobs() {
        let recorded = |kind, index, digest: &str| {
            if cfg!(not(debug_assertions)) {
                assert_eq!(reference(kind, index), Some(digest));
            }
        };
        for seed in [0, 7] {
            let one = report_digest(&run_flow(seed, 1, None).unwrap().0);
            let many = report_digest(&run_flow(seed, 2, None).unwrap().0);
            assert_eq!(one, many);
            recorded("run", seed as usize, &one);
        }
        let one = report_digest(&run_fleet(3, 1, None).unwrap().to_json());
        let many = report_digest(&run_fleet(3, 2, None).unwrap().to_json());
        assert_eq!(one, many);
        recorded("fleet", 3, &one);
    }

    #[test]
    fn the_traced_stage_calls_reproduce_run() {
        let tracer = Arc::new(Tracer::default());
        for seed in [1, 2] {
            let traced = run_flow(seed, 2, job_trace(Some(&tracer), 0).as_ref()).unwrap();
            assert_eq!(traced, run_flow(seed, 2, None).unwrap());
        }
        let spans = tracer.spans();
        for layer in [Layer::Doe, Layer::Rsm, Layer::Optim] {
            assert_eq!(spans.iter().filter(|s| s.layer == layer).count(), 2);
        }
        assert_eq!(spans.iter().filter(|s| s.layer == Layer::Pool).count(), 4);
    }
}
