//! Property-based tests of the FPGA substrate: the stress rule, the duty
//! rule every element ages by, the two §3.2 hypotheses for *arbitrary*
//! LUT configurations, and the measurement pipeline.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use selfheal_bti::td::PhaseRateCache;
use selfheal_bti::{DeviceCondition, Environment};
use selfheal_fpga::{Chip, ChipId, Family, Lut, LutConfig, RoMode, RoutingBlock, Transistor};
use selfheal_units::{Celsius, DutyCycle, Hours, Millivolts, Seconds, Volts};

fn arb_config() -> impl Strategy<Value = LutConfig> {
    any::<[bool; 4]>().prop_map(LutConfig::new)
}

fn lut_with(config: LutConfig, seed: u64) -> Lut {
    let mut rng = StdRng::seed_from_u64(seed);
    let family = Family::commercial_40nm().without_variation();
    Lut::sample(config, &family, Millivolts::new(0.0), &mut rng)
}

fn hot() -> Environment {
    Environment::new(Volts::new(1.2), Celsius::new(110.0))
}

/// Stress (positive supply) or sleep (gated or negative supply)
/// environments across the chamber's temperature range.
fn arb_env() -> impl Strategy<Value = Environment> {
    let env = |(v, t): (f64, f64)| Environment::new(Volts::new(v), Celsius::new(t));
    prop_oneof![
        (1.0f64..1.3, 20.0f64..125.0).prop_map(env),
        (-0.3f64..=0.0, 20.0f64..125.0).prop_map(env),
    ]
}

/// The duty rule, written out independently of the crate: an element
/// visits each input for an equal share of the time, and a device's duty
/// is the share of visited inputs that stress it (0 when none are).
fn share(stressed: usize, visited: usize) -> DutyCycle {
    if visited == 0 {
        DutyCycle::new(0.0)
    } else {
        DutyCycle::new(stressed as f64 / visited as f64)
    }
}

/// Clones of `devices`, each advanced alone under `env` at the duty
/// `stressed(idx)` / `visited` gives it.
fn advanced_alone(
    devices: &[Transistor],
    stressed: impl Fn(usize) -> usize,
    visited: usize,
    env: Environment,
    dt: Seconds,
) -> Vec<Transistor> {
    devices
        .iter()
        .enumerate()
        .map(|(idx, device)| {
            let mut device = device.clone();
            device.advance(DeviceCondition::new(env, share(stressed(idx), visited)), dt);
            device
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lut_evaluates_its_truth_table(config in arb_config(), in0: bool, in1: bool) {
        let lut = lut_with(config, 1);
        let expected = config.evaluate(in0, in1);
        prop_assert_eq!(lut.evaluate(in0, in1), expected);
    }

    #[test]
    fn stress_set_is_deterministic_and_input_dependent(config in arb_config(), in0: bool, in1: bool) {
        // Hypothesis 1: with inputs fixed, the stressed set is fixed.
        let lut = lut_with(config, 2);
        let a = lut.stressed_indices(in0, in1);
        let b = lut.stressed_indices(in0, in1);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn exactly_one_buffer_device_is_stressed(config in arb_config(), in0: bool, in1: bool) {
        // The output buffer always parks at a definite level, so exactly
        // one of M7 (NMOS, index 6) / M8 (PMOS, index 7) is stressed.
        let lut = lut_with(config, 3);
        let stressed = lut.stressed_indices(in0, in1);
        let buffer_count = stressed.iter().filter(|&&i| i == 6 || i == 7).count();
        prop_assert_eq!(buffer_count, 1);
        let internal = lut.evaluate(in0, in1);
        if internal {
            prop_assert!(stressed.contains(&6), "high node stresses the NMOS");
        } else {
            prop_assert!(stressed.contains(&7), "low node stresses the PMOS");
        }
    }

    #[test]
    fn pass_devices_only_stressed_with_gate_high(config in arb_config(), in0: bool, in1: bool) {
        // Physical rule check: a stressed pass device must have its gate
        // driven high by the current inputs.
        let lut = lut_with(config, 4);
        let gate_high = [in0, !in0, in0, !in0, in1, !in1];
        for idx in lut.stressed_indices(in0, in1) {
            if idx < 6 {
                prop_assert!(gate_high[idx], "M{} stressed with gate low", idx + 1);
            }
        }
    }

    #[test]
    fn hypothesis_2_fresh_devices_stay_fresh(config in arb_config(), in0: bool, in1: bool, sleep_h in 1.0f64..50.0) {
        // Recovery "has no effect on 'fresh' (never aged) transistors".
        let mut lut = lut_with(config, 5);
        lut.advance(&[(in0, in1)], hot(), Hours::new(24.0).into(), &mut PhaseRateCache::new());
        let aged_before: Vec<bool> = lut.devices().iter().map(|d| d.is_aged()).collect();
        lut.advance(
            &[],
            Environment::new(Volts::new(-0.3), Celsius::new(110.0)),
            Seconds::new(sleep_h * 3600.0),
            &mut PhaseRateCache::new(),
        );
        for (device, was_aged) in lut.devices().iter().zip(aged_before) {
            if !was_aged {
                prop_assert!(!device.is_aged(), "{} aged during sleep", device.name());
            }
        }
    }

    #[test]
    fn path_delay_is_positive_and_grows_under_stress(config in arb_config(), in0: bool, in1: bool) {
        let mut lut = lut_with(config, 6);
        let vdd = Volts::new(1.2);
        let fresh = lut.path_delay(vdd, in0, in1);
        prop_assert!(fresh.get() > 0.0);
        lut.advance(&[(in0, in1)], hot(), Hours::new(24.0).into(), &mut PhaseRateCache::new());
        let aged = lut.path_delay(vdd, in0, in1);
        prop_assert!(aged >= fresh, "stress can only slow a path");
    }

    #[test]
    fn lut_advance_follows_the_duty_rule(
        config in arb_config(),
        visited in collection::vec((any::<bool>(), any::<bool>()), 0..3),
        env in arb_env(),
        hours in 0.1f64..48.0,
    ) {
        let mut lut = lut_with(config, 8);
        let dt = Seconds::new(hours * 3600.0);
        let stressed = |idx: usize| {
            visited
                .iter()
                .filter(|&&(in0, in1)| lut.stressed_indices(in0, in1).contains(&idx))
                .count()
        };
        let expected = advanced_alone(lut.devices(), stressed, visited.len(), env, dt);
        lut.advance(&visited, env, dt, &mut PhaseRateCache::new());
        // Debug output round-trips every f64 bit, so this is bitwise.
        prop_assert_eq!(format!("{:?}", lut.devices()), format!("{expected:?}"));
    }

    #[test]
    fn routing_advance_follows_the_duty_rule(
        seed in 0u64..10_000,
        visited in collection::vec(any::<bool>(), 0..3),
        env in arb_env(),
        hours in 0.1f64..48.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let family = Family::commercial_40nm();
        let mut block = RoutingBlock::sample(&family, Millivolts::new(0.0), &mut rng);
        let dt = Seconds::new(hours * 3600.0);
        let stressed = |idx: usize| {
            visited.iter().filter(|&&value| block.stressed_index(value) == idx).count()
        };
        let expected = advanced_alone(block.devices(), stressed, visited.len(), env, dt);
        block.advance(&visited, env, dt, &mut PhaseRateCache::new());
        prop_assert_eq!(format!("{:?}", block.devices()), format!("{expected:?}"));
    }

    #[test]
    fn lower_supply_increases_delay(config in arb_config(), droop in 0.0f64..0.3) {
        let lut = lut_with(config, 7);
        let nominal = lut.switching_delay(Volts::new(1.2), true);
        let drooped = lut.switching_delay(Volts::new(1.2 - droop), true);
        prop_assert!(drooped >= nominal);
    }
}

proptest! {
    // Chip-level properties are costlier; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn measurement_error_is_bounded_by_counter_resolution(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let chip = Chip::commercial_40nm(ChipId::new(1), &mut rng);
        let m = chip.measure(&mut rng);
        let rel = (m.cut_delay.get() - chip.true_cut_delay().get()).abs()
            / chip.true_cut_delay().get();
        // ±5 counts on ≈ 5 500, averaged 8×.
        prop_assert!(rel < 1.5e-3, "relative error {rel}");
    }

    #[test]
    fn stress_heal_cycle_is_bounded(seed in 0u64..10_000, stress_h in 4.0f64..48.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut chip = Chip::commercial_40nm(ChipId::new(2), &mut rng);
        let fresh = chip.true_cut_delay();
        chip.advance(
            RoMode::Static,
            Environment::new(Volts::new(1.2), Celsius::new(110.0)),
            Seconds::new(stress_h * 3600.0),
        );
        let aged = chip.true_cut_delay();
        chip.advance(
            RoMode::Sleep,
            Environment::new(Volts::new(-0.3), Celsius::new(110.0)),
            Seconds::new(stress_h * 900.0), // α = 4
        );
        let healed = chip.true_cut_delay();
        prop_assert!(aged > fresh);
        prop_assert!(healed < aged, "healing helps");
        prop_assert!(healed >= fresh, "healing cannot beat fresh");
    }
}
