//! Property-based tests for the harvester physics: rectifier identities,
//! steady-state energy bounds and tuning monotonicity across randomly
//! drawn operating points.

use harvester::{
    DiodeBridge, HarvesterCircuit, Microgenerator, Supercapacitor, TuningMechanism,
    VibrationProfile,
};
use msim::OdeSystem;
use proptest::prelude::*;

proptest! {
    /// The closed-form average rectifier current matches trapezoidal
    /// quadrature of the transient model for arbitrary operating points.
    #[test]
    fn bridge_average_matches_quadrature(
        emf in 0.5..20.0f64,
        v_store in 0.0..5.0f64,
        r in 100.0..10_000.0f64,
    ) {
        let bridge = DiodeBridge::paper();
        let avg = bridge.averages(emf, v_store, r);
        let n = 20_000;
        let mut i_sum = 0.0;
        for k in 0..n {
            let theta = 2.0 * std::f64::consts::PI * k as f64 / n as f64;
            i_sum += bridge.transient_current(emf * theta.sin(), v_store, r);
        }
        let i_num = i_sum / n as f64;
        prop_assert!(
            (avg.current_avg - i_num).abs() <= 2e-3 * i_num.max(1e-9),
            "closed form {} vs quadrature {i_num}",
            avg.current_avg
        );
    }

    /// Rectifier power bookkeeping: source power ≥ store power ≥ 0, and
    /// conduction angle is a valid angle.
    #[test]
    fn bridge_power_ordering(
        emf in 0.0..20.0f64,
        v_store in 0.0..5.0f64,
        r in 100.0..10_000.0f64,
    ) {
        let avg = DiodeBridge::paper().averages(emf.max(1e-9), v_store, r);
        prop_assert!(avg.power_from_source >= avg.power_into_store - 1e-15);
        prop_assert!(avg.power_into_store >= 0.0);
        prop_assert!(avg.current_avg >= 0.0);
        prop_assert!((0.0..=std::f64::consts::FRAC_PI_2 + 1e-12).contains(&avg.conduction_angle));
    }

    /// Average current decreases monotonically with store voltage (a
    /// fuller capacitor accepts less charge).
    #[test]
    fn bridge_current_monotone_in_voltage(emf in 4.0..20.0f64, r in 500.0..5000.0f64) {
        let bridge = DiodeBridge::paper();
        let mut prev = f64::INFINITY;
        for i in 0..20 {
            let v = 0.25 * i as f64;
            let now = bridge.averages(emf, v, r).current_avg;
            prop_assert!(now <= prev + 1e-12, "current grew with voltage at v = {v}");
            prev = now;
        }
    }

    /// Steady-state extracted power never exceeds the resonant transfer
    /// bound `m a² / (16 ζ ω)` at any frequency or store voltage.
    #[test]
    fn steady_state_respects_power_bound(
        f_vib in 60.0..100.0f64,
        f_res in 60.0..100.0f64,
        accel in 0.1..2.0f64,
        v_store in 0.5..4.0f64,
    ) {
        let g = Microgenerator::paper();
        let ss = g.steady_state(f_vib, f_res, accel, v_store);
        let omega0 = 2.0 * std::f64::consts::PI * f_res;
        let bound = g.mass() * accel * accel / (16.0 * g.mech_damping_ratio() * omega0);
        prop_assert!(
            ss.power_mechanical <= bound * 1.01,
            "P {} exceeds bound {bound}",
            ss.power_mechanical
        );
        prop_assert!(ss.power_into_store <= ss.power_mechanical + 1e-15);
        prop_assert!(ss.velocity_amp >= 0.0 && ss.displacement_amp >= 0.0);
    }

    /// Power peaks at (or within a linewidth of) resonance.
    #[test]
    fn tuned_beats_detuned(f_res in 70.0..95.0f64, accel in 0.3..1.0f64) {
        let g = Microgenerator::paper();
        let at_resonance = g.steady_state(f_res, f_res, accel, 2.8).power_into_store;
        for detune in [3.0, 5.0, 8.0] {
            let off = g.steady_state(f_res + detune, f_res, accel, 2.8).power_into_store;
            prop_assert!(
                off <= at_resonance + 1e-12,
                "detuned by {detune} Hz out-harvested resonance"
            );
        }
    }

    /// Tuning lookup: for every target in range, the selected position's
    /// resonance is within one position-step of the target.
    #[test]
    fn lookup_table_inverse_error_bounded(target in 67.7..97.9f64) {
        let t = TuningMechanism::paper();
        let pos = t.position_for_frequency(target);
        let achieved = t.resonant_frequency(pos);
        prop_assert!(
            (achieved - target).abs() <= t.frequency_resolution(pos) + 1e-9,
            "target {target}, achieved {achieved}"
        );
    }

    /// Gap → stiffness → frequency is monotone along the whole actuator
    /// travel for arbitrary calibrations.
    #[test]
    fn calibrated_tuning_monotone(
        mass in 0.005..0.05f64,
        f_low in 40.0..80.0f64,
        span in 5.0..40.0f64,
    ) {
        let t = TuningMechanism::calibrated(mass, f_low, f_low + span).expect("valid");
        let lut = t.lookup_table();
        for w in lut.windows(2) {
            prop_assert!(w[1] > w[0]);
        }
        prop_assert!((lut[0] - f_low).abs() < 1e-6);
        prop_assert!((lut[255] - (f_low + span)).abs() < 1e-6);
    }

    /// Supercapacitor charge/discharge round-trips and never goes
    /// negative.
    #[test]
    fn storage_energy_roundtrip(v in 0.0..4.0f64, energy in 0.0..1.0f64) {
        let c = Supercapacitor::paper();
        let down = c.voltage_after_discharge(v, energy);
        prop_assert!(down >= 0.0 && down <= v + 1e-12);
        if c.energy(v) >= energy {
            let up = c.voltage_after_charge(down, energy);
            prop_assert!((up - v).abs() < 1e-9, "roundtrip {v} -> {down} -> {up}");
        }
    }

    /// Stepped vibration profiles report the correct segment frequency at
    /// arbitrary query times.
    #[test]
    fn vibration_segments_consistent(
        f0 in 40.0..90.0f64,
        df in -10.0..10.0f64,
        t_step in 1.0..100.0f64,
        query in 0.0..200.0f64,
    ) {
        prop_assume!(f0 + df > 1.0);
        let v = VibrationProfile::stepped(1.0, vec![(0.0, f0), (t_step, f0 + df)]);
        let expect = if query < t_step { f0 } else { f0 + df };
        prop_assert_eq!(v.dominant_frequency(query), expect);
        // Instantaneous acceleration is bounded by the amplitude.
        prop_assert!(v.acceleration(query).abs() <= 1.0 + 1e-12);
    }

    /// The circuit's one-entry acceleration memo is invisible: one
    /// long-lived circuit answers any sequence of `derivatives` calls
    /// (repeated times, RK4's half-step pattern, interleavings, `±0.0`,
    /// segment and blackout edges) bit for bit like a freshly built
    /// circuit asked once.
    #[test]
    fn acceleration_memo_matches_a_fresh_circuit(
        f0 in 70.0..90.0f64,
        t_step in 0.0..0.01f64,
        t0 in 0.0..0.01f64,
        h in 1e-5..1e-3f64,
        queries in prop::collection::vec(
            (0usize..10, -1e-3..1e-3f64, -0.05..0.05f64, 0.0..4.0f64),
            1..64,
        ),
    ) {
        let build = || {
            let profile = VibrationProfile::stepped(0.59, vec![(0.0, f0), (t_step, f0 + 5.0)])
                .with_blackouts(vec![(t0 + h, t0 + 2.0 * h)]);
            let mut circuit = HarvesterCircuit::paper(profile);
            circuit.set_actuator_position(circuit.tuning().position_for_frequency(f0));
            circuit
        };
        let long_lived = build();
        for (k, z, zdot, v) in queries {
            let t = match k {
                0 => 0.0,
                1 => -0.0,
                2 => t_step,
                _ => t0 + (k - 3) as f64 * 0.5 * h,
            };
            let x = [z, zdot, v];
            let (mut memo, mut fresh) = ([0.0; 3], [0.0; 3]);
            long_lived.derivatives(t, &x, &mut memo);
            build().derivatives(t, &x, &mut fresh);
            prop_assert_eq!(memo.map(f64::to_bits), fresh.map(f64::to_bits));
        }
    }
}
