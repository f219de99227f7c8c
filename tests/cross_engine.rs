//! Tier-1 cross-engine agreement: the accelerated envelope engine must
//! reproduce the fine-timestep mixed-signal co-simulation at the paper's
//! original design point, within documented tolerances.
//!
//! The paper justifies its fast model by validating it against the full
//! SystemC-A co-simulation; this test is the reproduction's version of
//! that argument, gated on every run (see `scripts/verify.sh`). The
//! 120 s row is kept short (the full engine integrates the ~80 Hz circuit
//! at `dt = 1e-4` s) but long enough to cover several transmissions and
//! one watchdog-free stretch of harvesting; the one-hour row is ignored
//! in debug runs and run in release by verify.sh.

use wsn_node::analysis::compare_engines;
use wsn_node::{EngineAgreement, EngineKind, NodeConfig, Scenario, SystemConfig};

/// Tolerances for both windows below. The envelope engine treats
/// transmissions as instantaneous energy withdrawals while the full
/// engine switches a resistive load for 4.5 ms, so counts may straddle
/// the horizon edge by one event; the voltage drifts by the integration
/// error of the RK4 analogue solve.
const TX_TOLERANCE: u64 = 2;
const VOLTAGE_TOLERANCE: f64 = 0.010; // 10 mV

/// Runs both engines at the paper's original design point over `horizon`
/// seconds and asserts they agree within the tolerances above.
fn assert_engines_agree(horizon: f64) -> EngineAgreement {
    let config = SystemConfig::paper(NodeConfig::original()).with_horizon(horizon);
    let agreement = compare_engines(&config, 1e-4).expect("paper config is valid");
    assert!(
        agreement.within(TX_TOLERANCE, VOLTAGE_TOLERANCE),
        "engines disagree over {horizon} s: envelope {} tx / {:.4} V, full {} tx / {:.4} V \
         (Δtx = {}, ΔV = {:.4} V)",
        agreement.envelope.transmissions,
        agreement.envelope.final_voltage,
        agreement.full.transmissions,
        agreement.full.final_voltage,
        agreement.tx_delta(),
        agreement.voltage_delta()
    );
    agreement
}

#[test]
fn engines_agree_at_the_paper_design_point() {
    let agreement = assert_engines_agree(120.0);
    assert!(
        agreement.envelope.transmissions > 10,
        "window too short to be meaningful: {} transmissions",
        agreement.envelope.transmissions
    );
    assert!(agreement.tx_relative_delta() < 0.1);
}

/// The same agreement over the paper's one-hour horizon: 36 M full-engine
/// steps at `dt = 1e-4` s, so it is ignored in debug test runs and run in
/// release by `scripts/verify.sh` (`--include-ignored`).
#[test]
#[ignore = "one simulated hour on the full engine; run in release"]
fn engines_agree_over_the_paper_hour() {
    assert_engines_agree(3600.0);
}

#[test]
fn engine_kinds_cover_both_engines() {
    // The CLI spellings round-trip and reach both engines through the
    // trait object.
    let config = SystemConfig::paper(NodeConfig::original()).with_horizon(30.0);
    for kind in EngineKind::ALL {
        let parsed: EngineKind = kind.name().parse().expect("canonical spelling parses");
        assert_eq!(parsed, kind);
        let engine = match kind {
            EngineKind::Full => kind.engine_with_dt(2e-4),
            _ => kind.engine(),
        };
        let out = engine.simulate(&config).expect("paper config is valid");
        assert!(out.transmissions > 0, "{kind}: no transmissions");
    }
}

#[test]
fn scenario_fingerprints_discriminate() {
    // The cache key space relies on scenario fingerprints: distinct
    // profiles or horizons must not collide on the happy path.
    let a = Scenario::paper(75.0);
    let b = Scenario::paper(80.0);
    let c = Scenario::new(a.vibration.clone(), 600.0);
    assert_ne!(a.fingerprint(), b.fingerprint());
    assert_ne!(a.fingerprint(), c.fingerprint());
    assert_eq!(a.fingerprint(), Scenario::paper(75.0).fingerprint());
}
