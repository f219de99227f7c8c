use std::cell::Cell;

use msim::OdeSystem;

use crate::{
    DiodeBridge, LoadBank, Microgenerator, Supercapacitor, TuningMechanism, VibrationProfile,
};

/// The assembled analogue network of the harvester-powered node, exposed as
/// an [`OdeSystem`] for full mixed-signal co-simulation.
///
/// State vector layout:
///
/// | index | quantity                               |
/// |-------|----------------------------------------|
/// | 0     | proof-mass relative displacement `z` (m) |
/// | 1     | relative velocity `ż` (m/s)            |
/// | 2     | supercapacitor voltage `V` (V)         |
///
/// Digital processes steer the circuit through
/// [`set_actuator_position`](Self::set_actuator_position) (retuning) and
/// the embedded [`LoadBank`] (switching the Table III/IV consumption
/// models). This is the direct analogue of the paper's SystemC-A model.
///
/// # Example
///
/// ```
/// use harvester::{HarvesterCircuit, VibrationProfile};
/// use msim::integrate;
///
/// let mut circuit = HarvesterCircuit::paper(VibrationProfile::sine(80.0, 0.59));
/// circuit.set_actuator_position(
///     circuit.tuning().position_for_frequency(80.0),
/// );
/// let mut state = vec![0.0, 0.0, 2.8];
/// integrate::rk4_integrate(&circuit, 0.0, 0.5, &mut state, 1e-4).expect("integrates");
/// assert!(state.iter().all(|v| v.is_finite()));
/// ```
#[derive(Debug, Clone)]
pub struct HarvesterCircuit {
    generator: Microgenerator,
    tuning: TuningMechanism,
    storage: Supercapacitor,
    vibration: VibrationProfile,
    loads: LoadBank,
    actuator_position: u8,
    /// Fine-tuning resonance offset beyond the 8-bit position (Hz),
    /// produced by single motor microsteps of the fine-grain algorithm.
    fine_offset_hz: f64,
    /// Cached `ω₀²` for the current actuator position.
    omega0_sq: f64,
    /// Cached mechanical damping coefficient over mass.
    damping_per_mass: f64,
    /// Use Shockley diodes instead of the constant-drop model.
    shockley_diodes: bool,
    /// Last `(t, acceleration(t))` evaluated. RK4 asks for the base
    /// acceleration twice at `t + dt/2` and once at the step end, which is
    /// the next step's start, so one entry halves the `sin` calls. The
    /// profile is a pure function of `t` and never changes after
    /// construction, so a hit returns exactly what a fresh call would.
    accel_memo: Cell<Option<(f64, f64)>>,
}

impl HarvesterCircuit {
    /// Assembles a circuit from explicit component models.
    pub fn new(
        generator: Microgenerator,
        tuning: TuningMechanism,
        storage: Supercapacitor,
        vibration: VibrationProfile,
        loads: LoadBank,
    ) -> Self {
        let mut circuit = HarvesterCircuit {
            generator,
            tuning,
            storage,
            vibration,
            loads,
            actuator_position: 0,
            fine_offset_hz: 0.0,
            omega0_sq: 0.0,
            damping_per_mass: 0.0,
            shockley_diodes: false,
            accel_memo: Cell::new(None),
        };
        circuit.set_actuator_position(0);
        circuit
    }

    /// The paper-calibrated circuit with an empty load bank.
    pub fn paper(vibration: VibrationProfile) -> Self {
        HarvesterCircuit::new(
            Microgenerator::paper(),
            TuningMechanism::paper(),
            Supercapacitor::paper(),
            vibration,
            LoadBank::new(),
        )
    }

    /// Moves the tuning actuator, updating the cached resonance and
    /// clearing any fine-tuning offset.
    pub fn set_actuator_position(&mut self, position: u8) {
        self.actuator_position = position;
        self.fine_offset_hz = 0.0;
        self.refresh_resonance();
    }

    /// Sets the fine-tuning resonance offset (Hz) produced by single motor
    /// microsteps (Algorithm 3).
    pub fn set_fine_offset_hz(&mut self, offset_hz: f64) {
        self.fine_offset_hz = offset_hz;
        self.refresh_resonance();
    }

    fn refresh_resonance(&mut self) {
        let f_res = self.resonant_frequency().max(1.0);
        let omega0 = 2.0 * std::f64::consts::PI * f_res;
        self.omega0_sq = omega0 * omega0;
        self.damping_per_mass = self.generator.mech_damping(f_res) / self.generator.mass();
    }

    /// Current actuator position.
    pub fn actuator_position(&self) -> u8 {
        self.actuator_position
    }

    /// Current resonant frequency including the fine offset (Hz).
    pub fn resonant_frequency(&self) -> f64 {
        self.tuning.resonant_frequency(self.actuator_position) + self.fine_offset_hz
    }

    /// Selects Shockley-diode rectification for the transient model
    /// (default: constant-drop).
    pub fn set_shockley_diodes(&mut self, enabled: bool) {
        self.shockley_diodes = enabled;
    }

    /// The generator model.
    pub fn generator(&self) -> &Microgenerator {
        &self.generator
    }

    /// The tuning mechanism.
    pub fn tuning(&self) -> &TuningMechanism {
        &self.tuning
    }

    /// The storage model.
    pub fn storage(&self) -> &Supercapacitor {
        &self.storage
    }

    /// The vibration input.
    pub fn vibration(&self) -> &VibrationProfile {
        &self.vibration
    }

    /// The switchable load bank.
    pub fn loads(&self) -> &LoadBank {
        &self.loads
    }

    /// Mutable access to the load bank (digital processes switch loads).
    pub fn loads_mut(&mut self) -> &mut LoadBank {
        &mut self.loads
    }

    /// Base acceleration at `t`, served from the one-entry memo when `t`
    /// is bitwise the last time asked for.
    fn acceleration(&self, t: f64) -> f64 {
        if let Some((t_memo, accel)) = self.accel_memo.get() {
            if t_memo.to_bits() == t.to_bits() {
                return accel;
            }
        }
        let accel = self.vibration.acceleration(t);
        self.accel_memo.set(Some((t, accel)));
        accel
    }

    /// Instantaneous bridge charging current for EMF `emf` at store voltage
    /// `v` (A).
    fn bridge_current(&self, emf: f64, v: f64) -> f64 {
        let bridge: &DiodeBridge = self.generator.bridge();
        if self.shockley_diodes {
            bridge.transient_current_shockley(emf, v, self.generator.coil_resistance())
        } else {
            bridge.transient_current(emf, v, self.generator.coil_resistance())
        }
    }
}

impl OdeSystem for HarvesterCircuit {
    fn dim(&self) -> usize {
        3
    }

    fn derivatives(&self, t: f64, x: &[f64], dxdt: &mut [f64]) {
        let (z, zdot, v) = (x[0], x[1], x[2].max(0.0));
        let accel = self.acceleration(t);
        let emf = self.generator.coupling() * zdot;
        let i_bridge = self.bridge_current(emf, v);
        // The coil current opposes the motion: F = −Γ·i·sign(ż).
        let reaction = self.generator.coupling() * i_bridge * zdot.signum() / self.generator.mass();

        dxdt[0] = zdot;
        dxdt[1] = -self.damping_per_mass * zdot - self.omega0_sq * z - accel - reaction;
        dxdt[2] = self
            .storage
            .voltage_rate(i_bridge - self.loads.total_current(v) - self.storage.leakage_current(v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Load;
    use msim::integrate;

    fn tuned_circuit(f: f64) -> HarvesterCircuit {
        let mut c = HarvesterCircuit::paper(VibrationProfile::sine(f, 0.59));
        let pos = c.tuning().position_for_frequency(f);
        c.set_actuator_position(pos);
        c
    }

    #[test]
    fn tuned_circuit_charges_the_capacitor() {
        let c = tuned_circuit(80.0);
        let mut x = vec![0.0, 0.0, 2.8];
        // Simulate 5 seconds; enough for the resonance to build up.
        integrate::rk4_integrate(&c, 0.0, 5.0, &mut x, 5e-5).unwrap();
        assert!(
            x[2] > 2.8,
            "capacitor should charge at resonance, got {}",
            x[2]
        );
    }

    #[test]
    fn detuned_circuit_barely_charges() {
        let mut c = HarvesterCircuit::paper(VibrationProfile::sine(90.0, 0.59));
        c.set_actuator_position(c.tuning().position_for_frequency(75.0));
        let mut x = vec![0.0, 0.0, 2.8];
        integrate::rk4_integrate(&c, 0.0, 5.0, &mut x, 5e-5).unwrap();
        let detuned_gain = x[2] - 2.8;

        let c2 = tuned_circuit(90.0);
        let mut x2 = vec![0.0, 0.0, 2.8];
        integrate::rk4_integrate(&c2, 0.0, 5.0, &mut x2, 5e-5).unwrap();
        let tuned_gain = x2[2] - 2.8;

        assert!(
            tuned_gain > 10.0 * detuned_gain.max(0.0),
            "tuned {tuned_gain} vs detuned {detuned_gain}"
        );
    }

    #[test]
    fn active_load_discharges_the_capacitor() {
        // No vibration coupling beats a 167 Ω transmission load.
        let mut c = tuned_circuit(80.0);
        let tx = c
            .loads_mut()
            .add("tx", Load::Resistive { resistance: 167.0 })
            .unwrap();
        c.loads_mut().set_active(tx, true).unwrap();
        let mut x = vec![0.0, 0.0, 2.8];
        integrate::rk4_integrate(&c, 0.0, 1.0, &mut x, 5e-5).unwrap();
        assert!(x[2] < 2.8, "load should dominate: {}", x[2]);
    }

    #[test]
    fn retuning_changes_resonance() {
        let mut c = tuned_circuit(80.0);
        let f0 = c.resonant_frequency();
        c.set_actuator_position(255);
        assert!(c.resonant_frequency() > f0);
        assert_eq!(c.actuator_position(), 255);
    }

    #[test]
    fn steady_state_power_consistent_with_ode() {
        // The average-model steady state and the transient ODE should agree
        // on the charging rate within a factor of ~2 (different diode
        // treatments and start-up transients).
        let c = tuned_circuit(82.0);
        let ss = c
            .generator()
            .steady_state(82.0, c.resonant_frequency(), 0.59, 2.8);

        let mut x = vec![0.0, 0.0, 2.8];
        // Let the transient settle, then measure the charge rate.
        integrate::rk4_integrate(&c, 0.0, 8.0, &mut x, 5e-5).unwrap();
        let v1 = x[2];
        integrate::rk4_integrate(&c, 8.0, 18.0, &mut x, 5e-5).unwrap();
        let v2 = x[2];
        let p_ode = c.storage().energy(v2) - c.storage().energy(v1);
        let p_ode = p_ode / 10.0;
        let ratio = p_ode / ss.power_into_store.max(1e-12);
        assert!(
            ratio > 0.4 && ratio < 2.5,
            "ODE power {p_ode} vs steady-state {} (ratio {ratio})",
            ss.power_into_store
        );
    }

    #[test]
    fn shockley_mode_still_charges() {
        let mut c = tuned_circuit(80.0);
        c.set_shockley_diodes(true);
        let mut x = vec![0.0, 0.0, 2.8];
        integrate::rk4_integrate(&c, 0.0, 2.0, &mut x, 5e-5).unwrap();
        assert!(x[2] > 2.8);
    }
}
