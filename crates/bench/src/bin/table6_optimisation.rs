//! Regenerates **Table VI** — optimisation results: the original design
//! versus the Simulated-Annealing and Genetic-Algorithm optima, each
//! validated in the simulator.
//!
//! Run with: `cargo run --release -p wsn-bench --bin table6_optimisation`
//! (`-- --jobs N` limits the simulation worker threads; default: all
//! cores. The report is bit-identical at any job count.)

use wsn_bench::{fmt_hz, PAPER_TABLE6};
use wsn_dse::DseFlow;
use wsn_node::{PowerBudget, SystemConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let jobs = wsn_bench::cli_args()?.value("jobs")?.unwrap_or(0);
    let report = DseFlow::paper().jobs(jobs).run()?;

    println!("TABLE VI: optimisation results");
    wsn_bench::rule(96);
    println!(
        "{:<24} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "design", "clock", "watchdog(s)", "interval(s)", "tx (ours)", "tx (paper)"
    );
    wsn_bench::rule(96);

    let mut rows = vec![(&report.original, PAPER_TABLE6[0])];
    for (eval, reference) in report.optimised.iter().zip(&PAPER_TABLE6[1..]) {
        rows.push((eval, *reference));
    }
    for (eval, (_, p_clock, p_wd, p_int, p_tx)) in &rows {
        println!(
            "{:<24} {:>12} {:>12.0} {:>12.3} {:>10} {:>10}",
            eval.label,
            fmt_hz(eval.config.clock_hz),
            eval.config.watchdog_s,
            eval.config.tx_interval_s,
            eval.simulated,
            p_tx
        );
        println!(
            "{:<24} {:>12} {:>12.0} {:>12.3}",
            "  (paper config)",
            fmt_hz(*p_clock),
            p_wd,
            p_int
        );
    }
    wsn_bench::rule(96);

    // The static power-budget view of the same rows (see
    // `wsn_node::analysis`): which constraint binds each design.
    println!("\npower-budget analysis at the 2.8 V threshold:");
    for (eval, _) in &rows {
        let cfg = SystemConfig::paper(eval.config);
        let budget = PowerBudget::of(&cfg)?;
        println!(
            "  {:<22} harvest {:>6.1} µW, tx demand {:>10.1} µW -> {:?}-bound              (static ceiling {:.0} tx)",
            eval.label,
            budget.harvest * 1e6,
            budget.tx_demand * 1e6,
            budget.binding_constraint(eval.config.tx_interval_s),
            budget.tx_upper_bound(eval.config.tx_interval_s, 3600.0)
        );
    }

    let factor = report.best_improvement_factor();
    let paper_factor = 899.0 / 405.0;
    println!(
        "improvement over the original design: ours {factor:.2}x, paper {paper_factor:.2}x — \
         the optimised configuration roughly doubles the transmissions in both."
    );
    let (sa, ga) = (&report.optimised[0], &report.optimised[1]);
    println!(
        "SA vs GA: {} vs {} transmissions ({}）",
        sa.simulated,
        ga.simulated,
        if sa.simulated.abs_diff(ga.simulated) * 20 <= sa.simulated.max(ga.simulated) {
            "near-identical, as in the paper"
        } else {
            "different corners of a flat optimum"
        }
    );
    Ok(())
}
