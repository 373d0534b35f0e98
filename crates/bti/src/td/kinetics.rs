//! Voltage and temperature acceleration of trap capture and emission.
//!
//! Trap time constants are tabulated at the reference condition
//! (110 °C, 1.2 V stress). These functions return the *rate multipliers*
//! that convert a tabulated rate `1/τ₀` into the effective rate under an
//! arbitrary condition:
//!
//! * **Capture** (Eq. 2 structure): Arrhenius in temperature, exponential
//!   in the oxide field, and proportional to the stress duty cycle (a gate
//!   that is only stressed half the time captures at half the average
//!   rate — this is what makes AC stress milder than DC, §5.1.1).
//! * **Emission** (Eq. 4 structure): Arrhenius in temperature (with its own,
//!   lower activation energy), *boosted* exponentially by a negative gate
//!   voltage (the paper's −0.3 V knob) and *suppressed* while the gate is
//!   stressed (a filled channel keeps traps filled).

use selfheal_units::{DutyCycle, Kelvin};

use crate::condition::{DeviceCondition, Environment};
use crate::constants::{
    arrhenius_factor, reference_stress_voltage, AC_CAPTURE_RELIEF_EXPONENT,
    ACTIVATION_ENERGY_CAPTURE_EV, ACTIVATION_ENERGY_EMISSION_EV,
    FIELD_FACTOR_CAPTURE_PER_VOLT, FIELD_FACTOR_EMISSION_PER_VOLT,
    STRESS_EMISSION_SUPPRESSION_PER_VOLT,
};

use super::kernel::PhaseRates;

/// The environment-only factors of both rate multipliers, evaluated
/// once so that rates for any stress duty follow from one `powf` and a
/// few multiplies.
///
/// Everything in the capture and emission multipliers except the duty
/// cycle depends on the [`Environment`] alone: the two Arrhenius
/// factors, the capture field factor, and the emission
/// stress-suppression and recovery-boost factors. A caller that prices
/// many duties under one environment — a fleet epoch, where every chip
/// reports its own duty — evaluates those five `exp`s here once instead
/// of once per duty.
///
/// There is one formula: [`capture_rate_multiplier`],
/// [`emission_rate_multiplier`] and
/// [`PhaseRates::for_condition`] all go through this type, keep the
/// historical operation order (`duty^A · thermal · field` and
/// `thermal · (stressed + recovering)`), and so return bit-identical
/// multipliers whichever way they were reached.
///
/// # Examples
///
/// ```
/// use selfheal_bti::td::{EnvironmentRates, PhaseRates};
/// use selfheal_bti::{DeviceCondition, Environment};
/// use selfheal_units::{Celsius, DutyCycle, Volts};
///
/// let env = Environment::new(Volts::new(1.2), Celsius::new(110.0));
/// let factors = EnvironmentRates::new(env);
/// let duty = DutyCycle::new(0.3);
/// assert_eq!(
///     factors.rates(duty),
///     PhaseRates::for_condition(DeviceCondition::new(env, duty)),
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvironmentRates {
    env: Environment,
    /// Capture Arrhenius factor.
    capture_thermal: f64,
    /// Capture oxide-field factor, relative to the reference stress.
    capture_field: f64,
    /// Emission Arrhenius factor.
    emission_thermal: f64,
    /// Emission suppression while the gate is stressed (positive bias).
    stress_suppression: f64,
    /// Emission boost while the gate rests (negative bias).
    recovery_boost: f64,
}

impl EnvironmentRates {
    /// Evaluates every environment factor, so [`rates`](Self::rates)
    /// serves any duty.
    #[must_use]
    pub fn new(env: Environment) -> EnvironmentRates {
        EnvironmentRates::evaluate(env, true)
    }

    /// The factors `cond` reads and no others: an unstressed condition
    /// never reads the three stress-side factors, so they are not
    /// evaluated, and a single condition costs the same transcendental
    /// calls as it always has. A NaN duty counts as stressed: the
    /// capture guard (`duty <= 0`) lets it through to the factors.
    #[must_use]
    pub(crate) fn for_condition(cond: DeviceCondition) -> EnvironmentRates {
        let duty = cond.stress_duty().get();
        EnvironmentRates::evaluate(cond.env(), duty > 0.0 || duty.is_nan())
    }

    fn evaluate(env: Environment, stressed: bool) -> EnvironmentRates {
        let v = env.supply().get();
        let (capture_thermal, capture_field, stress_suppression) = if stressed {
            let dv = env.supply() - reference_stress_voltage();
            (
                arrhenius_factor(env.temperature(), ACTIVATION_ENERGY_CAPTURE_EV),
                (FIELD_FACTOR_CAPTURE_PER_VOLT * dv.get()).exp(),
                (-STRESS_EMISSION_SUPPRESSION_PER_VOLT * v.max(0.0)).exp(),
            )
        } else {
            // Never read: both multipliers skip their stressed terms at
            // duty 0.
            (0.0, 0.0, 0.0)
        };
        EnvironmentRates {
            env,
            capture_thermal,
            capture_field,
            emission_thermal: arrhenius_factor(env.temperature(), ACTIVATION_ENERGY_EMISSION_EV),
            stress_suppression,
            recovery_boost: (-FIELD_FACTOR_EMISSION_PER_VOLT * v.min(0.0)).exp(),
        }
    }

    /// The capture multiplier at `duty` (see [`capture_rate_multiplier`]).
    fn capture_multiplier(&self, duty: DutyCycle) -> f64 {
        let duty = duty.get();
        if duty <= 0.0 {
            return 0.0;
        }
        // Sub-linear duty response: fast fragmentary stress windows rarely
        // complete a capture (see AC_CAPTURE_RELIEF_EXPONENT).
        duty.powf(AC_CAPTURE_RELIEF_EXPONENT) * self.capture_thermal * self.capture_field
    }

    /// The emission multiplier at `duty` (see [`emission_rate_multiplier`]).
    fn emission_multiplier(&self, duty: DutyCycle) -> f64 {
        let duty = duty.get();
        // Split the interval: during the stressed fraction emission is
        // field-suppressed; during the unstressed fraction a negative supply
        // boosts it.
        let stressed_part = if duty > 0.0 {
            duty * self.stress_suppression
        } else {
            0.0
        };
        let recovering_part = (1.0 - duty) * self.recovery_boost;
        self.emission_thermal * (stressed_part + recovering_part)
    }

    /// Both multipliers at `duty`, as the kernel consumes them.
    #[must_use]
    pub fn rates(&self, duty: DutyCycle) -> PhaseRates {
        PhaseRates::from_multipliers(
            DeviceCondition::new(self.env, duty),
            self.capture_multiplier(duty),
            self.emission_multiplier(duty),
        )
    }
}

/// Multiplier on a trap's tabulated capture rate `1/τc₀` under `cond`.
///
/// Returns `0` when the device is never stressed during the interval
/// (`stress_duty == 0`): with no carriers in the channel there is nothing
/// to capture. At the reference condition (110 °C, 1.2 V, DC) the
/// multiplier is `1`. For fractional duty the response is deliberately
/// *sub-linear* (`duty³`): this is the empirical high-frequency AC relief
/// that, combined with intra-cycle emission, yields the per-device
/// AC-vs-DC degradation ratio of ≈ 0.25 needed for the paper's path-level
/// "AC ≈ half of DC" (Fig. 4). Duty here means fast gate toggling, not
/// slow activity scheduling — model slow schedules as alternating
/// [`DeviceCondition`] phases instead.
///
/// # Examples
///
/// ```
/// use selfheal_bti::td::capture_rate_multiplier;
/// use selfheal_bti::{DeviceCondition, Environment};
/// use selfheal_units::{Celsius, Volts};
///
/// let reference = DeviceCondition::dc_stress(
///     Environment::new(Volts::new(1.2), Celsius::new(110.0)));
/// assert!((capture_rate_multiplier(reference) - 1.0).abs() < 1e-12);
///
/// let sleeping = DeviceCondition::recovery(
///     Environment::new(Volts::new(0.0), Celsius::new(110.0)));
/// assert_eq!(capture_rate_multiplier(sleeping), 0.0);
/// ```
#[must_use]
pub fn capture_rate_multiplier(cond: DeviceCondition) -> f64 {
    EnvironmentRates::for_condition(cond).capture_multiplier(cond.stress_duty())
}

/// Multiplier on a trap's tabulated emission rate `1/τe₀` under `cond`.
///
/// Emission never stops entirely — passive recovery exists, it is just slow
/// (§2.2). It is accelerated by temperature and by negative gate voltage,
/// and suppressed (per unit time) in proportion to how much of the interval
/// the gate spends stressed.
///
/// At the reference recovery condition (110 °C, 0 V, no stress) the
/// multiplier is `1`.
#[must_use]
pub fn emission_rate_multiplier(cond: DeviceCondition) -> f64 {
    EnvironmentRates::for_condition(cond).emission_multiplier(cond.stress_duty())
}

/// Effective occupancy relaxation parameters for a trap with tabulated
/// time constants `(tau_c0, tau_e0)` (seconds at reference conditions)
/// under `cond`.
///
/// Returns `(p_inf, tau_eff)`: the equilibrium occupancy the trap relaxes
/// towards and the exponential time constant of that relaxation, i.e. the
/// exact solution of `dp/dt = (1−p)·rc − p·re`.
///
/// When both effective rates are zero (a cryogenic, unbiased corner case)
/// the trap is frozen: `(p_inf, ∞)` with `p_inf` unused by callers because
/// `exp(−dt/∞) = 1`.
#[must_use]
pub fn occupancy_relaxation(
    tau_c0: f64,
    tau_e0: f64,
    cond: DeviceCondition,
) -> (f64, f64) {
    // Single arithmetic source: the kernel's hoisted rates perform the
    // identical `multiplier / tau` division, so scalar and bank paths
    // cannot drift apart.
    PhaseRates::for_condition(cond).relaxation(tau_c0, tau_e0)
}

/// Convenience: the Arrhenius emission speed-up between two temperatures,
/// used by the multi-core thermal analysis to reason about "on-chip
/// heaters" (§6.2).
#[must_use]
pub fn emission_thermal_speedup(from: Kelvin, to: Kelvin) -> f64 {
    arrhenius_factor(to, ACTIVATION_ENERGY_EMISSION_EV)
        / arrhenius_factor(from, ACTIVATION_ENERGY_EMISSION_EV)
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_units::{Celsius, Volts};

    fn env(v: f64, t: f64) -> Environment {
        Environment::new(Volts::new(v), Celsius::new(t))
    }

    #[test]
    fn capture_is_unity_at_reference() {
        let m = capture_rate_multiplier(DeviceCondition::dc_stress(env(1.2, 110.0)));
        assert!((m - 1.0).abs() < 1e-12);
    }

    #[test]
    fn capture_scales_subliearly_with_duty() {
        let dc = capture_rate_multiplier(DeviceCondition::dc_stress(env(1.2, 110.0)));
        let ac = capture_rate_multiplier(DeviceCondition::ac_stress(env(1.2, 110.0)));
        // Sub-linear AC relief: 0.5^3.5 ≈ 0.088.
        assert!((ac / dc - 0.5f64.powf(3.5)).abs() < 1e-12);
    }

    #[test]
    fn capture_zero_when_unstressed() {
        assert_eq!(
            capture_rate_multiplier(DeviceCondition::recovery(env(0.0, 110.0))),
            0.0
        );
        assert_eq!(
            capture_rate_multiplier(DeviceCondition::recovery(env(-0.3, 20.0))),
            0.0
        );
    }

    #[test]
    fn capture_monotone_in_temperature_and_voltage() {
        let base = capture_rate_multiplier(DeviceCondition::dc_stress(env(1.2, 100.0)));
        let hotter = capture_rate_multiplier(DeviceCondition::dc_stress(env(1.2, 110.0)));
        let higher_v = capture_rate_multiplier(DeviceCondition::dc_stress(env(1.3, 100.0)));
        assert!(hotter > base);
        assert!(higher_v > base);
    }

    #[test]
    fn emission_is_unity_at_reference_recovery() {
        let m = emission_rate_multiplier(DeviceCondition::recovery(env(0.0, 110.0)));
        assert!((m - 1.0).abs() < 1e-12);
    }

    #[test]
    fn negative_voltage_accelerates_emission() {
        let passive = emission_rate_multiplier(DeviceCondition::recovery(env(0.0, 110.0)));
        let active = emission_rate_multiplier(DeviceCondition::recovery(env(-0.3, 110.0)));
        assert!(active > 2.0 * passive, "−0.3 V should buy a few ×: {active} vs {passive}");
    }

    #[test]
    fn temperature_accelerates_emission() {
        let cold = emission_rate_multiplier(DeviceCondition::recovery(env(0.0, 20.0)));
        let hot = emission_rate_multiplier(DeviceCondition::recovery(env(0.0, 110.0)));
        assert!(hot > 2.0 * cold);
    }

    #[test]
    fn emission_suppressed_under_dc_stress() {
        let stressed = emission_rate_multiplier(DeviceCondition::dc_stress(env(1.2, 110.0)));
        let resting = emission_rate_multiplier(DeviceCondition::recovery(env(0.0, 110.0)));
        assert!(stressed < 0.5 * resting);
    }

    #[test]
    fn ac_emission_between_dc_and_recovery() {
        let dc = emission_rate_multiplier(DeviceCondition::dc_stress(env(1.2, 110.0)));
        let ac = emission_rate_multiplier(DeviceCondition::ac_stress(env(1.2, 110.0)));
        let rec = emission_rate_multiplier(DeviceCondition::recovery(env(0.0, 110.0)));
        assert!(dc < ac && ac < rec);
    }

    #[test]
    fn relaxation_at_reference_stress_prefers_occupied() {
        // τe ≫ τc under stress ⇒ equilibrium occupancy near 1.
        let (p_inf, tau) = occupancy_relaxation(
            10.0,
            1000.0,
            DeviceCondition::dc_stress(env(1.2, 110.0)),
        );
        assert!(p_inf > 0.9, "p_inf = {p_inf}");
        assert!(tau.is_finite() && tau > 0.0);
    }

    #[test]
    fn relaxation_during_recovery_prefers_empty() {
        let (p_inf, _) = occupancy_relaxation(
            10.0,
            1000.0,
            DeviceCondition::recovery(env(-0.3, 110.0)),
        );
        assert_eq!(p_inf, 0.0, "no capture during sleep");
    }

    #[test]
    fn frozen_trap_has_infinite_tau() {
        // Unstressed and emission astronomically slow: simulate by a huge τe.
        let cond = DeviceCondition::recovery(env(0.0, 20.0));
        let (_, tau) = occupancy_relaxation(1.0, f64::INFINITY, cond);
        assert!(tau.is_infinite());
    }

    #[test]
    fn thermal_speedup_matches_arrhenius_ratio() {
        let s = emission_thermal_speedup(
            Celsius::new(20.0).to_kelvin(),
            Celsius::new(110.0).to_kelvin(),
        );
        assert!(s > 1.0);
        let inverse = emission_thermal_speedup(
            Celsius::new(110.0).to_kelvin(),
            Celsius::new(20.0).to_kelvin(),
        );
        assert!((s * inverse - 1.0).abs() < 1e-12);
    }

    /// The capture multiplier as written before the environment factors
    /// were hoisted: the reference for operation order.
    fn capture_as_written(cond: DeviceCondition) -> f64 {
        let duty = cond.stress_duty().get();
        if duty <= 0.0 {
            return 0.0;
        }
        let thermal = arrhenius_factor(cond.env().temperature(), ACTIVATION_ENERGY_CAPTURE_EV);
        let dv = cond.env().supply() - reference_stress_voltage();
        let field = (FIELD_FACTOR_CAPTURE_PER_VOLT * dv.get()).exp();
        duty.powf(AC_CAPTURE_RELIEF_EXPONENT) * thermal * field
    }

    /// The emission multiplier as written before the hoist.
    fn emission_as_written(cond: DeviceCondition) -> f64 {
        let thermal = arrhenius_factor(cond.env().temperature(), ACTIVATION_ENERGY_EMISSION_EV);
        let v = cond.env().supply().get();
        let duty = cond.stress_duty().get();
        let stressed_part = if duty > 0.0 {
            duty * (-STRESS_EMISSION_SUPPRESSION_PER_VOLT * v.max(0.0)).exp()
        } else {
            0.0
        };
        let recovering_part = (1.0 - duty) * (-FIELD_FACTOR_EMISSION_PER_VOLT * v.min(0.0)).exp();
        thermal * (stressed_part + recovering_part)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Rates derived from one environment's hoisted factors equal the
        /// per-condition evaluation and the formulas as first written, bit
        /// for bit: multipliers and the relaxation of a trap under them.
        #[test]
        fn factored_rates_are_bit_identical(
            supply in proptest::prop_oneof![
                proptest::prelude::Just(0.0),
                proptest::prelude::Just(-0.3),
                -0.5f64..1.5,
            ],
            celsius in -269.0f64..150.0,
            duty in proptest::prop_oneof![
                proptest::prelude::Just(0.0),
                proptest::prelude::Just(1.0),
                proptest::prelude::Just(f64::from_bits(1)),
                proptest::prelude::Just(f64::MIN_POSITIVE),
                proptest::prelude::Just(1e-300),
                0.0f64..1.0,
            ],
            tau_c0 in 1e-3f64..1e9,
            tau_e0 in 1e-3f64..1e9,
        ) {
            let env = env(supply, celsius);
            let duty = DutyCycle::new(duty);
            let cond = DeviceCondition::new(env, duty);
            let factored = EnvironmentRates::new(env).rates(duty);
            let direct = PhaseRates::for_condition(cond);
            proptest::prop_assert_eq!(factored.condition(), cond);
            for (got, want) in [
                (factored.capture_multiplier(), capture_as_written(cond)),
                (direct.capture_multiplier(), capture_as_written(cond)),
                (factored.emission_multiplier(), emission_as_written(cond)),
                (direct.emission_multiplier(), emission_as_written(cond)),
            ] {
                proptest::prop_assert_eq!(got.to_bits(), want.to_bits());
            }
            let (p_factored, tau_factored) = factored.relaxation(tau_c0, tau_e0);
            let (p_direct, tau_direct) = direct.relaxation(tau_c0, tau_e0);
            proptest::prop_assert_eq!(p_factored.to_bits(), p_direct.to_bits());
            proptest::prop_assert_eq!(tau_factored.to_bits(), tau_direct.to_bits());
        }
    }

    #[test]
    fn partial_duty_interpolates_capture() {
        let env25 = DeviceCondition::new(env(1.2, 110.0), DutyCycle::new(0.25));
        let m = capture_rate_multiplier(env25);
        assert!((m - 0.25f64.powf(3.5)).abs() < 1e-12);
    }
}
