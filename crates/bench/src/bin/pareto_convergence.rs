//! Adaptive sequential DOE vs the paper's fixed D-optimal plan, on both
//! multi-objective flows.
//!
//! For the single-node objective vector (transmissions/h, final
//! voltage, energy) and the fleet vector (goodput, worst-node energy
//! margin, collision rate, starvation), the harness:
//!
//! 1. runs the **fixed** 10-run D-optimal `ParetoDseFlow` and takes the
//!    best scalar optimum (the first axis in maximisation space) over
//!    its design points — the yardstick the paper's one-shot plan buys
//!    with 10 engine evaluations;
//! 2. runs the **adaptive** flow (small linear seed, acquisition
//!    batches) and walks its `evaluated` list in simulation order,
//!    counting *distinct design-phase engine evaluations* until the
//!    fixed plan's optimum is met or beaten;
//! 3. records the per-round sampled-hypervolume trajectory.
//!
//! The harness asserts the headline claim — the adaptive driver reaches
//! an equal-or-better scalar optimum than the fixed plan in strictly
//! fewer engine evaluations, on **both** flows — and exits non-zero if
//! either side fails, so `scripts/verify.sh` can gate on `--quick`.
//!
//! All measurements are written as one JSON line (default
//! `BENCH_pareto.json`, override with `--out PATH`).
//!
//! Run with: `cargo run --release -p wsn-bench --bin pareto_convergence`

use std::sync::Arc;

use harvester::VibrationProfile;
use wsn_net::{FleetObjectives, FleetSpec};
use wsn_node::{NodeConfig, SystemConfig};
use wsn_pareto::{MultiObjective, NodeObjectives, ParetoDseFlow, ParetoReport};

/// Summary of one fixed-vs-adaptive comparison.
struct Verdict {
    mode: &'static str,
    fixed_evals: usize,
    fixed_best: f64,
    adaptive_evals_to_match: Option<usize>,
    adaptive_design_evals: usize,
    adaptive_best: f64,
    hypervolume: Vec<(usize, f64)>,
}

impl Verdict {
    fn holds(&self) -> bool {
        self.adaptive_evals_to_match
            .is_some_and(|n| n < self.fixed_evals)
    }

    fn row(&self) -> String {
        let rounds: Vec<String> = self
            .hypervolume
            .iter()
            .map(|(r, hv)| format!("{{\"round\":{r},\"hypervolume\":{hv}}}"))
            .collect();
        format!(
            "{{\"mode\":\"{}\",\"fixed_evals\":{},\"fixed_best\":{},\
             \"adaptive_evals_to_match\":{},\"adaptive_design_evals\":{},\
             \"adaptive_best\":{},\"rounds\":[{}]}}",
            self.mode,
            self.fixed_evals,
            self.fixed_best,
            self.adaptive_evals_to_match
                .map_or_else(|| "null".to_owned(), |n| n.to_string()),
            self.adaptive_design_evals,
            self.adaptive_best,
            rounds.join(",")
        )
    }
}

/// The best first-axis value (in maximisation space) over the report's
/// *design-phase* points, and — walked in evaluation order — how many
/// distinct design evaluations it takes to reach `target`.
fn scalar_trajectory(report: &ParetoReport, target: Option<f64>) -> (f64, Option<usize>, usize) {
    let sign = report.objectives[0].sense.sign();
    let design_rounds = report.rounds.len();
    let mut best = f64::NEG_INFINITY;
    let mut evals = 0usize;
    let mut to_match = None;
    for point in &report.evaluated {
        // Front-validation points (round == rounds.len()) ride on the
        // warm cache; only design-phase points cost engine runs.
        if point.round >= design_rounds {
            continue;
        }
        evals += 1;
        best = best.max(sign * point.objectives[0]);
        if to_match.is_none() && target.is_some_and(|t| best >= t) {
            to_match = Some(evals);
        }
    }
    (best, to_match, evals)
}

fn compare(
    mode: &'static str,
    objective: &dyn Fn() -> Arc<dyn MultiObjective>,
    budget: usize,
) -> Result<Verdict, Box<dyn std::error::Error>> {
    let fixed = ParetoDseFlow::new(objective()).doe_runs(10).run()?;
    let (fixed_best, _, fixed_evals) = scalar_trajectory(&fixed, None);

    let adaptive = ParetoDseFlow::new(objective())
        .adaptive(true)
        .budget(budget)
        .run()?;
    let (adaptive_best, to_match, design_evals) = scalar_trajectory(&adaptive, Some(fixed_best));

    Ok(Verdict {
        mode,
        fixed_evals,
        fixed_best,
        adaptive_evals_to_match: to_match,
        adaptive_design_evals: design_evals,
        adaptive_best,
        hypervolume: adaptive
            .rounds
            .iter()
            .map(|r| (r.round, r.hypervolume))
            .collect(),
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = wsn_bench::cli_args()?;
    let quick = args.has_flag("quick");
    let out = args.get("out")?.unwrap_or("BENCH_pareto.json");
    // Quick mode shortens the horizons; the comparison logic is
    // identical, so the gate still exercises the full claim.
    let (node_horizon, fleet_horizon, fleet_nodes) = if quick {
        (900.0, 600.0, 3)
    } else {
        (3600.0, 1800.0, 5)
    };

    let single = compare(
        "single",
        &|| {
            Arc::new(
                NodeObjectives::paper().with_template(
                    SystemConfig::paper(NodeConfig::original())
                        .with_horizon(node_horizon)
                        .with_vibration(VibrationProfile::paper_profile(75.0)),
                ),
            )
        },
        14,
    )?;
    let fleet = compare(
        "fleet",
        &|| {
            Arc::new(FleetObjectives::new(
                FleetSpec::paper(fleet_nodes).with_template(
                    SystemConfig::paper(NodeConfig::original())
                        .with_horizon(fleet_horizon)
                        .with_vibration(VibrationProfile::paper_profile(75.0)),
                ),
            ))
        },
        14,
    )?;

    println!("adaptive sequential DOE vs fixed 10-run D-optimal plan:");
    wsn_bench::rule(80);
    for v in [&single, &fleet] {
        println!(
            "{:8} fixed: best {:.3} in {} evals | adaptive: best {:.3}, \
             matched after {} of {} design evals",
            v.mode,
            v.fixed_best,
            v.fixed_evals,
            v.adaptive_best,
            v.adaptive_evals_to_match
                .map_or_else(|| "-".to_owned(), |n| n.to_string()),
            v.adaptive_design_evals,
        );
    }

    let line = format!(
        "{{\"bench\":\"pareto_convergence\",\"quick\":{},\"flows\":[{},{}]}}",
        quick,
        single.row(),
        fleet.row()
    );
    std::fs::write(out, format!("{line}\n"))?;
    println!("wrote {out}");

    for v in [&single, &fleet] {
        if !v.holds() {
            eprintln!(
                "pareto_convergence: adaptive flow failed to beat the fixed plan \
                 on the {} flow (matched: {:?}, fixed evals: {})",
                v.mode, v.adaptive_evals_to_match, v.fixed_evals
            );
            std::process::exit(1);
        }
    }
    println!("adaptive reached the fixed plan's optimum in strictly fewer evaluations");
    Ok(())
}
