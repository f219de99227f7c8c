//! Numerical integrators for [`OdeSystem`] values.
//!
//! Three families are provided, matching what a SystemC-A style analogue
//! solver needs:
//!
//! * [`euler_step`], [`rk4_step`] — fixed-step explicit one-step methods;
//!   RK4 is the workhorse of the full-system simulation, which steps it
//!   allocation-free through [`rk4_step_in`].
//! * [`Rkf45`] — adaptive Runge–Kutta–Fehlberg 4(5) with error control,
//!   used when the dynamics stiffness varies (e.g. during retuning
//!   transients).
//! * [`TrapezoidalNewton`] — A-stable implicit trapezoidal rule solved with
//!   a finite-difference Newton iteration, for stiff load-switching
//!   networks.

use crate::newton::newton_system;
use crate::{OdeSystem, Result, SimError};

/// Advances `x` by one explicit Euler step of size `dt`.
///
/// First-order accurate; exposed mainly as a baseline for convergence tests.
pub fn euler_step<S: OdeSystem + ?Sized>(sys: &S, t: f64, x: &mut [f64], dt: f64) {
    let n = sys.dim();
    debug_assert_eq!(x.len(), n);
    let mut k = vec![0.0; n];
    sys.derivatives(t, x, &mut k);
    for i in 0..n {
        x[i] += dt * k[i];
    }
}

/// Advances `x` by one classical fourth-order Runge–Kutta step of size `dt`.
///
/// Allocates its stage buffers on every call; stepping loops should hold
/// one scratch buffer and call [`rk4_step_in`] instead.
///
/// # Example
///
/// ```
/// use msim::{integrate, OdeSystem};
///
/// struct Decay;
/// impl OdeSystem for Decay {
///     fn dim(&self) -> usize { 1 }
///     fn derivatives(&self, _t: f64, x: &[f64], d: &mut [f64]) { d[0] = -x[0]; }
/// }
///
/// let mut x = vec![1.0];
/// integrate::rk4_step(&Decay, 0.0, &mut x, 0.1);
/// assert!((x[0] - (-0.1_f64).exp()).abs() < 1e-6);
/// ```
pub fn rk4_step<S: OdeSystem + ?Sized>(sys: &S, t: f64, x: &mut [f64], dt: f64) {
    let mut work = vec![0.0; 5 * sys.dim()];
    rk4_step_in(sys, t, x, dt, &mut work);
}

/// Advances `x` by one classical fourth-order Runge–Kutta step of size
/// `dt`, using caller-owned `work` (at least `5 * sys.dim()` values) for
/// the four stage derivatives and the stage state, so a stepping loop
/// allocates nothing per step.
///
/// The contents of `work` on entry are ignored; the result is
/// bit-identical to [`rk4_step`].
///
/// # Panics
///
/// Panics if `work` holds fewer than `5 * sys.dim()` values.
pub fn rk4_step_in<S: OdeSystem + ?Sized>(
    sys: &S,
    t: f64,
    x: &mut [f64],
    dt: f64,
    work: &mut [f64],
) {
    let n = sys.dim();
    debug_assert_eq!(x.len(), n);
    let (k1, work) = work.split_at_mut(n);
    let (k2, work) = work.split_at_mut(n);
    let (k3, work) = work.split_at_mut(n);
    let (k4, work) = work.split_at_mut(n);
    let tmp = &mut work[..n];

    sys.derivatives(t, x, k1);
    for i in 0..n {
        tmp[i] = x[i] + 0.5 * dt * k1[i];
    }
    sys.derivatives(t + 0.5 * dt, tmp, k2);
    for i in 0..n {
        tmp[i] = x[i] + 0.5 * dt * k2[i];
    }
    sys.derivatives(t + 0.5 * dt, tmp, k3);
    for i in 0..n {
        tmp[i] = x[i] + dt * k3[i];
    }
    sys.derivatives(t + dt, tmp, k4);
    for i in 0..n {
        x[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    }
}

/// Integrates `sys` from `t0` to `t1` with fixed RK4 steps of (at most) `dt`.
///
/// The final step is shortened to land exactly on `t1`, which the
/// mixed-signal scheduler relies on to synchronise analogue state with
/// digital event times.
///
/// # Errors
///
/// Returns [`SimError::NonFiniteState`] if the state stops being finite and
/// [`SimError::InvalidArgument`] for a non-positive `dt` or `t1 < t0`.
pub fn rk4_integrate<S: OdeSystem + ?Sized>(
    sys: &S,
    t0: f64,
    t1: f64,
    x: &mut [f64],
    dt: f64,
) -> Result<()> {
    if dt <= 0.0 {
        return Err(SimError::InvalidArgument("rk4_integrate: dt must be > 0"));
    }
    if t1 < t0 {
        return Err(SimError::InvalidArgument("rk4_integrate: t1 < t0"));
    }
    let mut work = vec![0.0; 5 * sys.dim()];
    let mut t = t0;
    while t < t1 {
        let step = dt.min(t1 - t);
        rk4_step_in(sys, t, x, step, &mut work);
        t += step;
        if !x.iter().all(|v| v.is_finite()) {
            return Err(SimError::NonFiniteState { time: t });
        }
    }
    Ok(())
}

/// Adaptive Runge–Kutta–Fehlberg 4(5) integrator.
///
/// Classic RKF45 with a 4th/5th order embedded pair; the step size is
/// adapted to keep the local error below `atol + rtol * |x|`.
#[derive(Debug, Clone)]
pub struct Rkf45 {
    /// Relative tolerance (default `1e-6`).
    pub rtol: f64,
    /// Absolute tolerance (default `1e-9`).
    pub atol: f64,
    /// Smallest step size before giving up (default `1e-12`).
    pub min_step: f64,
    /// Largest step size (default `f64::INFINITY`, capped by the interval).
    pub max_step: f64,
}

impl Default for Rkf45 {
    fn default() -> Self {
        Rkf45 {
            rtol: 1e-6,
            atol: 1e-9,
            min_step: 1e-12,
            max_step: f64::INFINITY,
        }
    }
}

impl Rkf45 {
    /// Creates an integrator with default tolerances.
    pub fn new() -> Self {
        Self::default()
    }

    /// Integrates from `t0` to `t1`, adapting the step size. Returns the
    /// number of accepted steps.
    ///
    /// # Errors
    ///
    /// * [`SimError::StepSizeUnderflow`] when error control cannot be
    ///   satisfied at the minimum step size.
    /// * [`SimError::NonFiniteState`] on numerical blow-up.
    /// * [`SimError::InvalidArgument`] for `t1 < t0`.
    pub fn integrate<S: OdeSystem + ?Sized>(
        &self,
        sys: &S,
        t0: f64,
        t1: f64,
        x: &mut [f64],
    ) -> Result<usize> {
        if t1 < t0 {
            return Err(SimError::InvalidArgument("rkf45: t1 < t0"));
        }
        let n = sys.dim();
        let mut t = t0;
        let mut h = ((t1 - t0) / 100.0).min(self.max_step).max(self.min_step);
        let mut steps = 0usize;

        let mut k1 = vec![0.0; n];
        let mut k2 = vec![0.0; n];
        let mut k3 = vec![0.0; n];
        let mut k4 = vec![0.0; n];
        let mut k5 = vec![0.0; n];
        let mut k6 = vec![0.0; n];
        let mut tmp = vec![0.0; n];

        while t < t1 {
            h = h.min(t1 - t);
            sys.derivatives(t, x, &mut k1);
            for i in 0..n {
                tmp[i] = x[i] + h * (1.0 / 4.0) * k1[i];
            }
            sys.derivatives(t + h / 4.0, &tmp, &mut k2);
            for i in 0..n {
                tmp[i] = x[i] + h * (3.0 / 32.0 * k1[i] + 9.0 / 32.0 * k2[i]);
            }
            sys.derivatives(t + 3.0 * h / 8.0, &tmp, &mut k3);
            for i in 0..n {
                tmp[i] = x[i]
                    + h * (1932.0 / 2197.0 * k1[i] - 7200.0 / 2197.0 * k2[i]
                        + 7296.0 / 2197.0 * k3[i]);
            }
            sys.derivatives(t + 12.0 * h / 13.0, &tmp, &mut k4);
            for i in 0..n {
                tmp[i] = x[i]
                    + h * (439.0 / 216.0 * k1[i] - 8.0 * k2[i] + 3680.0 / 513.0 * k3[i]
                        - 845.0 / 4104.0 * k4[i]);
            }
            sys.derivatives(t + h, &tmp, &mut k5);
            for i in 0..n {
                tmp[i] = x[i]
                    + h * (-8.0 / 27.0 * k1[i] + 2.0 * k2[i] - 3544.0 / 2565.0 * k3[i]
                        + 1859.0 / 4104.0 * k4[i]
                        - 11.0 / 40.0 * k5[i]);
            }
            sys.derivatives(t + h / 2.0, &tmp, &mut k6);

            // 5th-order solution and embedded error estimate.
            let mut err_norm = 0.0_f64;
            for i in 0..n {
                let x5 = x[i]
                    + h * (16.0 / 135.0 * k1[i]
                        + 6656.0 / 12825.0 * k3[i]
                        + 28561.0 / 56430.0 * k4[i]
                        - 9.0 / 50.0 * k5[i]
                        + 2.0 / 55.0 * k6[i]);
                let x4 = x[i]
                    + h * (25.0 / 216.0 * k1[i]
                        + 1408.0 / 2565.0 * k3[i]
                        + 2197.0 / 4104.0 * k4[i]
                        - 1.0 / 5.0 * k5[i]);
                let scale = self.atol + self.rtol * x[i].abs().max(x5.abs());
                err_norm = err_norm.max(((x5 - x4) / scale).abs());
                tmp[i] = x5;
            }

            if !err_norm.is_finite() {
                return Err(SimError::NonFiniteState { time: t });
            }

            if err_norm <= 1.0 {
                x.copy_from_slice(&tmp);
                t += h;
                steps += 1;
            } else if h <= self.min_step {
                return Err(SimError::StepSizeUnderflow { time: t, step: h });
            }

            // PI-free step adaptation with safety factor.
            let factor = if err_norm > 0.0 {
                (0.9 * err_norm.powf(-0.2)).clamp(0.2, 5.0)
            } else {
                5.0
            };
            h = (h * factor).clamp(self.min_step, self.max_step);
        }
        Ok(steps)
    }
}

/// Implicit trapezoidal rule solved with Newton iteration.
///
/// A-stable: suitable for stiff networks such as a supercapacitor switching
/// between a 5.8 MΩ sleep load and a 167 Ω transmission load, where explicit
/// methods would need absurdly small steps.
#[derive(Debug, Clone)]
pub struct TrapezoidalNewton {
    /// Newton residual tolerance (default `1e-10`).
    pub tol: f64,
    /// Newton iteration cap per step (default `25`).
    pub max_iter: usize,
}

impl Default for TrapezoidalNewton {
    fn default() -> Self {
        TrapezoidalNewton {
            tol: 1e-10,
            max_iter: 25,
        }
    }
}

impl TrapezoidalNewton {
    /// Creates a solver with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances `x` by one implicit trapezoidal step of size `dt`.
    ///
    /// # Errors
    ///
    /// Propagates Newton failures ([`SimError::NewtonDiverged`],
    /// [`SimError::SingularJacobian`]).
    pub fn step<S: OdeSystem + ?Sized>(
        &self,
        sys: &S,
        t: f64,
        x: &mut [f64],
        dt: f64,
    ) -> Result<()> {
        let n = sys.dim();
        let mut f0 = vec![0.0; n];
        sys.derivatives(t, x, &mut f0);
        let x0 = x.to_vec();
        // Residual: x1 - x0 - dt/2 (f(t,x0) + f(t+dt,x1)) = 0
        let sol = newton_system(
            |x1, out| {
                let mut f1 = vec![0.0; n];
                sys.derivatives(t + dt, x1, &mut f1);
                for i in 0..n {
                    out[i] = x1[i] - x0[i] - 0.5 * dt * (f0[i] + f1[i]);
                }
            },
            &x0,
            self.tol,
            self.max_iter,
        )?;
        x.copy_from_slice(&sol);
        Ok(())
    }

    /// Integrates from `t0` to `t1` with fixed implicit steps of at most
    /// `dt`, landing exactly on `t1`.
    ///
    /// # Errors
    ///
    /// Same as [`step`](Self::step), plus
    /// [`SimError::InvalidArgument`] for non-positive `dt`.
    pub fn integrate<S: OdeSystem + ?Sized>(
        &self,
        sys: &S,
        t0: f64,
        t1: f64,
        x: &mut [f64],
        dt: f64,
    ) -> Result<()> {
        if dt <= 0.0 {
            return Err(SimError::InvalidArgument("trapezoidal: dt must be > 0"));
        }
        let mut t = t0;
        while t < t1 {
            let step = dt.min(t1 - t);
            self.step(sys, t, x, step)?;
            t += step;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Decay {
        lambda: f64,
    }
    impl OdeSystem for Decay {
        fn dim(&self) -> usize {
            1
        }
        fn derivatives(&self, _t: f64, x: &[f64], d: &mut [f64]) {
            d[0] = -self.lambda * x[0];
        }
    }

    struct Oscillator {
        omega: f64,
    }
    impl OdeSystem for Oscillator {
        fn dim(&self) -> usize {
            2
        }
        fn derivatives(&self, _t: f64, x: &[f64], d: &mut [f64]) {
            d[0] = x[1];
            d[1] = -self.omega * self.omega * x[0];
        }
    }

    #[test]
    fn euler_is_first_order() {
        // Error at t=1 should shrink ~linearly with dt.
        let sys = Decay { lambda: 1.0 };
        let exact = (-1.0_f64).exp();
        let mut errs = Vec::new();
        for &dt in &[0.01, 0.005] {
            let mut x = vec![1.0];
            let mut t = 0.0;
            while t < 1.0 - 1e-12 {
                euler_step(&sys, t, &mut x, dt);
                t += dt;
            }
            errs.push((x[0] - exact).abs());
        }
        let ratio = errs[0] / errs[1];
        assert!(
            ratio > 1.7 && ratio < 2.3,
            "euler order wrong: ratio {ratio}"
        );
    }

    #[test]
    fn rk4_is_fourth_order() {
        let sys = Decay { lambda: 1.0 };
        let exact = (-1.0_f64).exp();
        let mut errs = Vec::new();
        for &dt in &[0.1, 0.05] {
            let mut x = vec![1.0];
            rk4_integrate(&sys, 0.0, 1.0, &mut x, dt).unwrap();
            errs.push((x[0] - exact).abs());
        }
        let ratio = errs[0] / errs[1];
        assert!(
            ratio > 12.0 && ratio < 20.0,
            "rk4 order wrong: ratio {ratio}"
        );
    }

    #[test]
    fn rk4_integrate_lands_exactly_on_t1() {
        let sys = Decay { lambda: 2.0 };
        let mut x = vec![1.0];
        // 0.3 is not a multiple of dt = 0.07
        rk4_integrate(&sys, 0.0, 0.3, &mut x, 0.07).unwrap();
        assert!((x[0] - (-0.6_f64).exp()).abs() < 1e-5);
    }

    #[test]
    fn rk4_energy_conservation_for_oscillator() {
        let sys = Oscillator { omega: 2.0 };
        let mut x = vec![1.0, 0.0];
        rk4_integrate(&sys, 0.0, 10.0, &mut x, 1e-3).unwrap();
        let energy = 0.5 * (x[1] * x[1] + 4.0 * x[0] * x[0]);
        assert!((energy - 2.0).abs() < 1e-6, "energy drifted: {energy}");
    }

    #[test]
    fn rkf45_matches_exact_solution() {
        let sys = Oscillator { omega: 1.0 };
        let mut x = vec![0.0, 1.0]; // x(t) = sin t
        let steps = Rkf45::new()
            .integrate(&sys, 0.0, std::f64::consts::PI, &mut x)
            .unwrap();
        assert!(steps > 0);
        assert!(x[0].abs() < 1e-5, "sin(pi) should be 0, got {}", x[0]);
        assert!(
            (x[1] + 1.0).abs() < 1e-5,
            "cos(pi) should be -1, got {}",
            x[1]
        );
    }

    #[test]
    fn rkf45_uses_fewer_steps_when_tolerance_is_loose() {
        let sys = Decay { lambda: 1.0 };
        let tight = Rkf45 {
            rtol: 1e-10,
            atol: 1e-12,
            ..Rkf45::default()
        };
        let loose = Rkf45 {
            rtol: 1e-3,
            atol: 1e-6,
            ..Rkf45::default()
        };
        let mut x1 = vec![1.0];
        let mut x2 = vec![1.0];
        let s_tight = tight.integrate(&sys, 0.0, 5.0, &mut x1).unwrap();
        let s_loose = loose.integrate(&sys, 0.0, 5.0, &mut x2).unwrap();
        assert!(s_loose < s_tight, "loose {s_loose} vs tight {s_tight}");
    }

    #[test]
    fn rkf45_rejects_reverse_interval() {
        let sys = Decay { lambda: 1.0 };
        let mut x = vec![1.0];
        assert!(Rkf45::new().integrate(&sys, 1.0, 0.0, &mut x).is_err());
    }

    #[test]
    fn trapezoidal_handles_stiff_decay() {
        // lambda = 1e6: explicit RK4 with dt=1e-3 would explode.
        let sys = Decay { lambda: 1e6 };
        let mut x = vec![1.0];
        TrapezoidalNewton::new()
            .integrate(&sys, 0.0, 1e-3, &mut x, 1e-4)
            .unwrap();
        assert!(x[0].abs() < 1.0, "stiff decay should shrink, got {}", x[0]);
        assert!(
            x[0] >= 0.0 || x[0].abs() < 0.5,
            "bounded oscillation expected"
        );
    }

    #[test]
    fn trapezoidal_second_order_accuracy() {
        let sys = Decay { lambda: 1.0 };
        let exact = (-1.0_f64).exp();
        let mut errs = Vec::new();
        for &dt in &[0.1, 0.05] {
            let mut x = vec![1.0];
            TrapezoidalNewton::new()
                .integrate(&sys, 0.0, 1.0, &mut x, dt)
                .unwrap();
            errs.push((x[0] - exact).abs());
        }
        let ratio = errs[0] / errs[1];
        assert!(
            ratio > 3.0 && ratio < 5.0,
            "trapezoidal order wrong: {ratio}"
        );
    }

    #[test]
    fn invalid_arguments_rejected() {
        let sys = Decay { lambda: 1.0 };
        let mut x = vec![1.0];
        assert!(rk4_integrate(&sys, 0.0, 1.0, &mut x, 0.0).is_err());
        assert!(rk4_integrate(&sys, 1.0, 0.0, &mut x, 0.1).is_err());
        assert!(TrapezoidalNewton::new()
            .integrate(&sys, 0.0, 1.0, &mut x, -0.1)
            .is_err());
    }

    #[test]
    fn blowup_is_detected() {
        struct Explode;
        impl OdeSystem for Explode {
            fn dim(&self) -> usize {
                1
            }
            fn derivatives(&self, _t: f64, x: &[f64], d: &mut [f64]) {
                d[0] = x[0] * x[0]; // finite-time blow-up from x0 = 1 at t = 1
            }
        }
        let mut x = vec![1.0];
        let r = rk4_integrate(&Explode, 0.0, 2.0, &mut x, 1e-3);
        assert!(matches!(r, Err(SimError::NonFiniteState { .. })));
    }
}
