//! Integration tests for the network layer: parallel determinism of the
//! fleet evaluator and exact reduction to the single-node simulator.

use harvester::VibrationProfile;
use wsn_net::{FleetSpec, NetworkSim, NodeTrace, RadioChannel};
use wsn_node::{EngineKind, NodeConfig, SystemConfig};

/// A short-horizon fleet template so the tests stay fast; everything else
/// (spreads, channel, topology) is the paper default.
fn fast_spec(nodes: usize) -> FleetSpec {
    let template = SystemConfig::paper(NodeConfig::original())
        .with_horizon(1800.0)
        .with_vibration(VibrationProfile::stepped(
            0.5886,
            vec![(0.0, 75.0), (600.0, 85.0), (1200.0, 92.0)],
        ));
    FleetSpec::paper(nodes).with_template(template)
}

/// The issue's headline acceptance test: a 16-node fleet at the paper's
/// SA-optimised design point produces a bit-identical report — struct and
/// JSON — no matter how many worker threads evaluate it.
#[test]
fn sixteen_node_fleet_is_bit_identical_across_job_counts() {
    let spec = fast_spec(16);
    let node = NodeConfig::sa_optimised();
    let reference = NetworkSim::new()
        .jobs(1)
        .evaluate(&spec, node)
        .expect("fleet evaluates");
    assert!(reference.attempted() > 0, "fleet must transmit");
    for jobs in [2, 8] {
        let run = NetworkSim::new()
            .jobs(jobs)
            .evaluate(&spec, node)
            .expect("fleet evaluates");
        assert_eq!(run, reference, "report diverged at --jobs {jobs}");
        assert_eq!(
            run.to_json(),
            reference.to_json(),
            "serialisation diverged at --jobs {jobs}"
        );
    }
}

/// A 1-node fleet over an ideal channel is exactly the single-node
/// experiment: same transmission count, every packet delivered, none
/// lost. Node 0 carries the template scenario with no clock offset, so
/// the reduction is bit-exact, not approximate.
#[test]
fn one_node_ideal_fleet_reproduces_the_single_node_run() {
    let spec = fast_spec(1).with_channel(RadioChannel::ideal());
    let node = NodeConfig::original();

    let solo = EngineKind::Envelope
        .engine()
        .simulate(&spec.system_config_for(0, node))
        .expect("single-node run");
    let fleet = NetworkSim::new()
        .evaluate(&spec, node)
        .expect("fleet evaluates");

    assert!(solo.transmissions > 0, "degenerate scenario");
    let report = &fleet.per_node[0];
    assert_eq!(report.transmissions, solo.transmissions);
    assert_eq!(report.channel.attempted, solo.transmissions);
    assert_eq!(fleet.delivered(), solo.transmissions);
    assert_eq!(fleet.collided(), 0);
    assert_eq!(fleet.out_of_range(), 0);
    assert_eq!(report.final_voltage, solo.final_voltage);
}

/// Both engines honour the same fleet contract: the full ODE engine's
/// fleet report is internally consistent and parallel-deterministic too.
/// The horizon is short and the integration step coarse — this checks the
/// contract, not ODE accuracy (cross_engine covers that).
#[test]
fn full_engine_fleet_is_parallel_deterministic() {
    let template = SystemConfig::paper(NodeConfig::original())
        .with_horizon(120.0)
        .with_vibration(VibrationProfile::stepped(0.5886, vec![(0.0, 80.0)]));
    let spec = FleetSpec::paper(2).with_template(template);
    let engine = EngineKind::Full.engine_with_dt(2e-3);
    let node = NodeConfig::original();
    let a = NetworkSim::new()
        .with_engine(engine.clone())
        .jobs(1)
        .evaluate(&spec, node)
        .expect("fleet evaluates");
    let b = NetworkSim::new()
        .with_engine(engine)
        .jobs(4)
        .evaluate(&spec, node)
        .expect("fleet evaluates");
    assert_eq!(a, b);
    assert_eq!(
        a.attempted(),
        a.delivered() + a.collided() + a.out_of_range()
    );
}

/// The production arbiter equals the quadratic `arbitrate_naive` oracle
/// on a real, heavily contended fleet: the 16-node paper ring over 900 s
/// at a 5 ms transmit interval. The oracle's traces are rebuilt from the
/// public spec — each node's own simulation, shifted by its clock offset,
/// at its topology position — so the check covers the fleet evaluator's
/// trace assembly as well as the arbiter.
#[test]
fn contended_fleet_arbitration_equals_the_naive_sweep() {
    let template = SystemConfig::paper(NodeConfig::original())
        .with_horizon(900.0)
        .with_vibration(VibrationProfile::paper_profile(75.0));
    let spec = FleetSpec::paper(16).with_template(template);
    let node = NodeConfig::new(8e6, 60.0, 0.005).expect("valid design point");
    let report = NetworkSim::new()
        .evaluate(&spec, node)
        .expect("fleet evaluates");

    let engine = EngineKind::Envelope.engine();
    let shifted: Vec<Vec<f64>> = (0..spec.nodes)
        .map(|i| {
            let out = engine
                .simulate(&spec.system_config_for(i, node))
                .expect("node simulates");
            let offset = spec.tx_offset_for(i);
            out.tx_times.iter().map(|t| t + offset).collect()
        })
        .collect();
    let traces: Vec<NodeTrace<'_>> = shifted
        .iter()
        .enumerate()
        .map(|(i, tx_times)| NodeTrace {
            position: spec.topology.position(i, spec.nodes),
            tx_times,
        })
        .collect();
    let naive = spec.channel.arbitrate_naive((0.0, 0.0), &traces);

    for (i, node_report) in report.per_node.iter().enumerate() {
        assert_eq!(node_report.channel, naive[i], "node {i} diverged");
    }
    assert!(
        report.collided() > 0,
        "the fleet must be contended for the comparison to mean anything"
    );
}
