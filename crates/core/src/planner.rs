//! Circadian schedule planning — the paper's §7 outlook made executable:
//! "Since the time before the next scheduled deep rejuvenation is known in
//! advance, there is a good opportunity for ... cross-layer optimization."
//!
//! Given the operating condition, a wear budget and a rejuvenation
//! technique, the planner finds the **smallest sleep share** (largest α)
//! whose steady-state peak shift stays inside the budget — i.e. how little
//! throughput must be sacrificed to hold a given margin, or conversely how
//! much margin a given rhythm buys back.

use serde::{Deserialize, Serialize};
use selfheal_bti::analytic::{AnalyticBti, CycleModel, RecoveryModel, StressModel};
use selfheal_bti::td::{PhaseRates, TrapBank};
use selfheal_bti::{DeviceCondition, Environment};
use selfheal_units::{float, Fraction, Millivolts, Ratio, Seconds};

use crate::technique::RejuvenationTechnique;

/// A planned circadian rhythm.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RejuvenationPlan {
    /// The chosen active-vs-sleep ratio.
    pub alpha: Ratio,
    /// The sleep treatment the plan assumes.
    pub technique: RejuvenationTechnique,
    /// The full day/night period.
    pub period: Seconds,
    /// Predicted worst shift over the horizon under this plan.
    pub predicted_peak: Millivolts,
}

impl RejuvenationPlan {
    /// Fraction of time the plan spends doing useful work.
    #[must_use]
    pub fn availability(&self) -> Fraction {
        self.alpha.active_fraction()
    }
}

/// The planner: first-order models plus the operating point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedulePlanner {
    stress: StressModel,
    recovery: RecoveryModel,
    active_env: Environment,
    margin: Millivolts,
}

impl SchedulePlanner {
    /// Creates a planner for a circuit operating at `active_env` with a
    /// total threshold-shift budget of `margin`.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive margin.
    #[must_use]
    pub fn new(
        stress: StressModel,
        recovery: RecoveryModel,
        active_env: Environment,
        margin: Millivolts,
    ) -> Self {
        assert!(margin.get() > 0.0, "margin must be positive");
        SchedulePlanner {
            stress,
            recovery,
            active_env,
            margin,
        }
    }

    /// A planner with the default calibrated models.
    #[must_use]
    pub fn with_default_models(active_env: Environment, margin: Millivolts) -> Self {
        SchedulePlanner::new(
            StressModel::default(),
            RecoveryModel::default(),
            active_env,
            margin,
        )
    }

    /// The planner's threshold-shift budget.
    #[must_use]
    pub fn margin(&self) -> Millivolts {
        self.margin
    }

    /// Peak shift over `horizon` when running a rhythm with ratio `alpha`
    /// and the given technique.
    #[must_use]
    pub fn predicted_peak(
        &self,
        alpha: Ratio,
        technique: RejuvenationTechnique,
        period: Seconds,
        horizon: Seconds,
    ) -> Millivolts {
        let cycles = (horizon.get() / period.get()).ceil().max(1.0) as usize;
        let model = CycleModel {
            alpha,
            period,
            active: DeviceCondition::dc_stress(self.active_env),
            sleep: DeviceCondition::recovery(technique.environment()),
        };
        let peak = float::max_of(
            model
                .run_from(AnalyticBti::new(self.stress, self.recovery), cycles)
                .into_iter()
                .map(|s| s.delta_vth.get()),
        )
        .unwrap_or(0.0);
        Millivolts::new(peak)
    }

    /// Whether running with **no** rejuvenation at all stays within the
    /// budget over the horizon (if so, no plan is needed).
    #[must_use]
    pub fn unhealed_peak(&self, horizon: Seconds) -> Millivolts {
        let mut device = AnalyticBti::new(self.stress, self.recovery);
        device.advance(DeviceCondition::dc_stress(self.active_env), horizon);
        device.delta_vth()
    }

    /// Finds the largest α (least sleep) whose predicted peak stays inside
    /// the margin over `horizon`, searching α ∈ [0.5, 64] by bisection on
    /// the sleep fraction.
    ///
    /// Returns `None` when even the most generous rhythm tried (α = 0.5,
    /// i.e. sleeping twice as long as working) cannot hold the budget —
    /// the designer must then add margin or derate the operating point.
    #[must_use]
    pub fn plan(
        &self,
        technique: RejuvenationTechnique,
        period: Seconds,
        horizon: Seconds,
    ) -> Option<RejuvenationPlan> {
        let fits = |alpha: Ratio| {
            self.predicted_peak(alpha, technique, period, horizon).get() <= self.margin.get()
        };

        let alpha_min = planner_alpha(0.5);
        let alpha_max = planner_alpha(64.0);
        if !fits(alpha_min) {
            return None;
        }
        if fits(alpha_max) {
            return Some(self.plan_for(alpha_max, technique, period, horizon));
        }

        // Bisect on the sleep fraction s = 1/(1+α): monotone in wear.
        let mut s_lo = alpha_max.sleep_fraction().get(); // too little sleep
        let mut s_hi = alpha_min.sleep_fraction().get(); // enough sleep
        for _ in 0..40 {
            let s_mid = 0.5 * (s_lo + s_hi);
            let alpha = planner_alpha(1.0 / s_mid - 1.0);
            if fits(alpha) {
                s_hi = s_mid;
            } else {
                s_lo = s_mid;
            }
        }
        let alpha = planner_alpha(1.0 / s_hi - 1.0);
        Some(self.plan_for(alpha, technique, period, horizon))
    }

    /// The margin still unspent after `consumed` mV of shift, or `None`
    /// once the budget is exhausted (the chip is already out of spec —
    /// no rhythm can plan its way back below a budget it has crossed).
    #[must_use]
    pub fn remaining_margin(&self, consumed: Millivolts) -> Option<Millivolts> {
        let left = self.margin.get() - consumed.get();
        (left > 0.0).then(|| Millivolts::new(left))
    }

    /// [`plan`](Self::plan) against the budget that remains after the
    /// chip has already consumed `consumed` mV of its margin.
    ///
    /// This is the service-path entry point: a fleet daemon holds live
    /// aging state, so the question is never "what rhythm holds a fresh
    /// chip inside the budget" but "what rhythm holds *this worn chip*
    /// inside what is left". Returns `None` when the budget is already
    /// spent or no rhythm in the search window can hold the remainder.
    #[must_use]
    pub fn plan_with_consumed(
        &self,
        consumed: Millivolts,
        technique: RejuvenationTechnique,
        period: Seconds,
        horizon: Seconds,
    ) -> Option<RejuvenationPlan> {
        let remaining = self.remaining_margin(consumed)?;
        SchedulePlanner {
            margin: remaining,
            ..self.clone()
        }
        .plan(technique, period, horizon)
    }

    /// [`plan_with_consumed`](Self::plan_with_consumed) reading the
    /// consumed margin straight off a live [`TrapBank`] view: `range` is
    /// the chip's trap slice inside a (possibly shard-sized) bank.
    ///
    /// # Panics
    ///
    /// Panics if `range` ends past the bank (as
    /// [`TrapBank::summary_range`] does).
    #[must_use]
    pub fn plan_from_bank(
        &self,
        bank: &TrapBank,
        range: std::ops::Range<usize>,
        technique: RejuvenationTechnique,
        period: Seconds,
        horizon: Seconds,
    ) -> Option<RejuvenationPlan> {
        self.plan_with_consumed(
            bank.summary_range(range).delta_vth,
            technique,
            period,
            horizon,
        )
    }

    /// The shift a chip's trap slice would reach after running `dt`
    /// under `cond`, projected forward from the live bank state (the
    /// bank itself is untouched — the projection advances a copy).
    ///
    /// # Panics
    ///
    /// Panics if `range` ends past the bank.
    #[must_use]
    pub fn predicted_shift_from_bank(
        &self,
        bank: &TrapBank,
        range: std::ops::Range<usize>,
        cond: DeviceCondition,
        dt: Seconds,
    ) -> Millivolts {
        let traps: Vec<_> = bank.iter_range(range).collect();
        let mut projection = TrapBank::from_traps(&traps);
        projection.advance_all(&PhaseRates::for_condition(cond), dt);
        projection.summary().delta_vth
    }

    /// The analytic counterpart of
    /// [`predicted_shift_from_bank`](Self::predicted_shift_from_bank):
    /// resumes the fitted stress curve at the equivalent time of
    /// `current` under `cond` and projects it `dt` forward, in closed
    /// form. This is how a tiered fleet serves `predict` for cold chips
    /// without materializing (or advancing a copy of) their frozen trap
    /// slices.
    ///
    /// A zero duty cycle inflicts nothing, so the projection is
    /// `current` itself; stress aging is monotone, so the result is
    /// never below `current`.
    #[must_use]
    pub fn predicted_shift_analytic(
        &self,
        current: Millivolts,
        cond: DeviceCondition,
        dt: Seconds,
    ) -> Millivolts {
        if cond.stress_duty().get() <= 0.0 {
            return current;
        }
        let t_eq = self.stress.equivalent_time_with_duty(current, cond);
        let projected = self.stress.delta_vth_with_duty(t_eq + dt, cond);
        Millivolts::new(projected.get().max(current.get()))
    }

    fn plan_for(
        &self,
        alpha: Ratio,
        technique: RejuvenationTechnique,
        period: Seconds,
        horizon: Seconds,
    ) -> RejuvenationPlan {
        RejuvenationPlan {
            alpha,
            technique,
            period,
            predicted_peak: self.predicted_peak(alpha, technique, period, horizon),
        }
    }
}

/// Builds a [`Ratio`] from an α value the planner derived itself.
///
/// The search keeps every candidate in `[0.5, 64]` with a sleep fraction
/// strictly inside `(0, 1)`, so construction cannot fail.
fn planner_alpha(value: f64) -> Ratio {
    match Ratio::new(value) {
        Some(alpha) => alpha,
        None => unreachable!("planner-internal α must be positive and finite, got {value}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_units::{Celsius, Hours, Volts};

    fn planner(margin: f64) -> SchedulePlanner {
        SchedulePlanner::with_default_models(
            Environment::new(Volts::new(1.2), Celsius::new(90.0)),
            Millivolts::new(margin),
        )
    }

    fn year() -> Seconds {
        Seconds::new(365.0 * 86_400.0)
    }

    fn day_period() -> Seconds {
        Hours::new(24.0).into()
    }

    #[test]
    fn plan_meets_its_own_budget() {
        let p = planner(24.0);
        let plan = p
            .plan(RejuvenationTechnique::Combined, day_period(), year())
            .expect("a combined-technique rhythm can hold 24 mV");
        assert!(plan.predicted_peak.get() <= 24.0 + 1e-6);
        assert!(plan.alpha.get() >= 0.5);
    }

    #[test]
    fn tighter_budget_needs_more_sleep() {
        let loose = planner(24.8)
            .plan(RejuvenationTechnique::Combined, day_period(), year())
            .unwrap();
        let tight = planner(22.0)
            .plan(RejuvenationTechnique::Combined, day_period(), year())
            .unwrap();
        assert!(
            tight.alpha.get() < loose.alpha.get(),
            "tight budget α {} < loose budget α {}",
            tight.alpha.get(),
            loose.alpha.get()
        );
        assert!(tight.availability().get() < loose.availability().get());
    }

    #[test]
    fn better_technique_buys_availability() {
        let margin = 24.0;
        let combined = planner(margin)
            .plan(RejuvenationTechnique::Combined, day_period(), year())
            .expect("combined holds it");
        if let Some(passive) =
            planner(margin).plan(RejuvenationTechnique::PassiveGating, day_period(), year())
        {
            assert!(
                combined.alpha.get() >= passive.alpha.get(),
                "deep rejuvenation needs no more sleep than passive gating"
            );
        }
        // Either passive can't hold the budget at all, or it needs ≥ sleep.
    }

    #[test]
    fn impossible_budgets_return_none() {
        // Even sleeping twice as long as working cannot hold 15 mV at
        // this operating point; and the permanent component alone blows a
        // sub-millivolt budget.
        for margin in [15.0, 0.5] {
            let p = planner(margin);
            assert!(p
                .plan(RejuvenationTechnique::Combined, day_period(), year())
                .is_none());
        }
    }

    #[test]
    fn generous_budget_needs_no_sleep_to_speak_of() {
        let p = planner(500.0);
        let plan = p
            .plan(RejuvenationTechnique::Combined, day_period(), year())
            .unwrap();
        assert!(plan.alpha.get() >= 60.0, "α = {}", plan.alpha.get());
        assert!(plan.availability().get() > 0.97);
    }

    #[test]
    fn unhealed_peak_exceeds_any_planned_peak() {
        let p = planner(24.0);
        let plan = p
            .plan(RejuvenationTechnique::Combined, day_period(), year())
            .unwrap();
        assert!(p.unhealed_peak(year()).get() > plan.predicted_peak.get());
    }

    #[test]
    #[should_panic(expected = "margin must be positive")]
    fn rejects_nonpositive_margin() {
        let _ = planner(0.0);
    }

    #[test]
    fn consumed_margin_shrinks_the_plan() {
        let p = planner(26.0);
        let fresh = p
            .plan(RejuvenationTechnique::Combined, day_period(), year())
            .expect("fresh chip plans");
        let worn = p
            .plan_with_consumed(
                Millivolts::new(3.0),
                RejuvenationTechnique::Combined,
                day_period(),
                year(),
            )
            .expect("3 mV of wear still leaves a feasible budget");
        assert!(
            worn.alpha.get() < fresh.alpha.get(),
            "a worn chip must sleep more: worn α {} vs fresh α {}",
            worn.alpha.get(),
            fresh.alpha.get()
        );
        // A chip past its whole budget cannot plan at all.
        assert!(p
            .plan_with_consumed(
                Millivolts::new(26.0),
                RejuvenationTechnique::Combined,
                day_period(),
                year()
            )
            .is_none());
        assert_eq!(p.remaining_margin(Millivolts::new(30.0)), None);
    }

    #[test]
    fn analytic_projection_resumes_the_stress_curve() {
        use selfheal_units::DutyCycle;

        let p = planner(30.0);
        let env = Environment::new(Volts::new(1.2), Celsius::new(90.0));
        let cond = DeviceCondition::new(env, DutyCycle::new(0.6));
        let current = Millivolts::new(8.0);
        let dt: Seconds = Hours::new(24.0).into();

        // Stressed projection grows, monotonically in dt.
        let one_day = p.predicted_shift_analytic(current, cond, dt);
        let two_days = p.predicted_shift_analytic(current, cond, Seconds::new(2.0 * dt.get()));
        assert!(one_day.get() > current.get());
        assert!(two_days.get() > one_day.get());

        // Resuming is consistent: projecting 2·dt at once equals
        // projecting dt from the dt-projection (the curve has no memory
        // beyond its equivalent time).
        let chained = p.predicted_shift_analytic(one_day, cond, dt);
        assert!(
            (chained.get() - two_days.get()).abs() < 1e-9 * two_days.get(),
            "chained {chained} vs direct {two_days}"
        );

        // Idle chips do not age.
        let idle = DeviceCondition::new(env, DutyCycle::new(0.0));
        assert_eq!(p.predicted_shift_analytic(current, idle, dt), current);
    }

    #[test]
    fn bank_views_agree_with_scalar_entry_points() {
        use rand::SeedableRng;
        use selfheal_bti::td::{TrapEnsemble, TrapEnsembleParams};

        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let device = TrapEnsemble::sample(&TrapEnsembleParams::default(), &mut rng);
        let bank = device.bank().clone();
        let p = planner(26.0);
        let via_bank = p.plan_from_bank(
            &bank,
            0..bank.len(),
            RejuvenationTechnique::Combined,
            day_period(),
            year(),
        );
        let via_consumed = p.plan_with_consumed(
            bank.summary_range(0..bank.len()).delta_vth,
            RejuvenationTechnique::Combined,
            day_period(),
            year(),
        );
        assert_eq!(via_bank, via_consumed);

        // The projection advances a copy: the bank itself must not move,
        // and the projected shift matches advancing the slice directly.
        let cond = DeviceCondition::dc_stress(Environment::new(
            Volts::new(1.2),
            Celsius::new(90.0),
        ));
        let dt: Seconds = Hours::new(24.0).into();
        let before = bank.clone();
        let projected = p.predicted_shift_from_bank(&bank, 0..bank.len(), cond, dt);
        assert_eq!(bank, before, "projection must not mutate the live bank");
        let mut direct = device.clone();
        direct.advance(cond, dt);
        assert_eq!(projected.get().to_bits(), direct.delta_vth().get().to_bits());
    }
}
