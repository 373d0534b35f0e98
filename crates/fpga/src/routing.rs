//! Routing blocks: the buffered interconnect between LUTs on the path of
//! interest.
//!
//! The paper's POI runs "from the input of the LUT-based inverter to the
//! output of the routing blocks" (§3.2). We model one routing block per
//! stage as a buffered switch with a pull-down NMOS (`R1`) and a pull-up
//! PMOS (`R2`); the device driving the parked logic level is the one under
//! DC stress, exactly as for the LUT's output buffer.

use rand::Rng;
use serde::{Deserialize, Serialize};
use selfheal_bti::td::PhaseRateCache;
use selfheal_bti::Environment;
use selfheal_units::{Millivolts, Nanoseconds, Seconds, Volts};

use crate::family::Family;
use crate::transistor::{Polarity, Transistor};

/// One routing stage on the POI.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutingBlock {
    devices: [Transistor; 2],
}

impl RoutingBlock {
    /// Samples a fresh routing block.
    #[must_use]
    pub fn sample<R: Rng + ?Sized>(
        family: &Family,
        chip_offset: Millivolts,
        rng: &mut R,
    ) -> Self {
        let mut mk = |name: &str, pol: Polarity| {
            let local = family.variation.sample_device_offset(rng);
            let vth = family.vth_nominal + Volts::from(chip_offset) + Volts::from(local);
            Transistor::sample(
                name,
                pol,
                vth,
                family.vth_nominal,
                family.routing_device_delay,
                &family.trap_params,
                rng,
            )
        };
        RoutingBlock {
            devices: [mk("R1", Polarity::Nmos), mk("R2", Polarity::Pmos)],
        }
    }

    /// The two routing devices (`R1` NMOS, `R2` PMOS).
    #[must_use]
    pub fn devices(&self) -> &[Transistor] {
        &self.devices
    }

    /// Which device is statically stressed when the routed net is parked at
    /// `value`: the NMOS for a high net, the PMOS for a low one.
    #[must_use]
    pub fn stressed_index(&self, value: bool) -> usize {
        usize::from(!value)
    }

    /// Routing delay through the block (both devices sit on the POI).
    #[must_use]
    pub fn delay(&self, vdd: Volts) -> Nanoseconds {
        self.devices.iter().map(|d| d.delay(vdd)).sum()
    }

    /// Ages the block for `dt` while its net visits each level in
    /// `visited` for an equal share of the time: one level is DC stress,
    /// both are toggling (AC) stress, and none is sleep. Each device's
    /// stress duty is the share of visited levels that stress it.
    pub fn advance(
        &mut self,
        visited: &[bool],
        env: Environment,
        dt: Seconds,
        rates: &mut PhaseRateCache,
    ) {
        let mut stressed = [0; 2];
        for &value in visited {
            stressed[self.stressed_index(value)] += 1;
        }
        for (device, count) in self.devices.iter_mut().zip(stressed) {
            device.advance_share(count, visited.len(), env, dt, rates);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use selfheal_units::{Celsius, Hours};

    fn fresh_block() -> RoutingBlock {
        let mut rng = StdRng::seed_from_u64(4);
        let family = Family::commercial_40nm().without_variation();
        RoutingBlock::sample(&family, Millivolts::new(0.0), &mut rng)
    }

    /// 24 h at the hot stress corner, the net visiting `levels`.
    fn stress_day(block: &mut RoutingBlock, levels: &[bool]) {
        let hot = Environment::new(Volts::new(1.2), Celsius::new(110.0));
        block.advance(levels, hot, Hours::new(24.0).into(), &mut PhaseRateCache::new());
    }

    #[test]
    fn fresh_delay_matches_budget() {
        let block = fresh_block();
        assert!((block.delay(Volts::new(1.2)).get() - 0.65).abs() < 1e-12);
    }

    #[test]
    fn parked_level_picks_the_stressed_device() {
        let block = fresh_block();
        assert_eq!(block.stressed_index(true), 0, "high net stresses the NMOS R1");
        assert_eq!(block.stressed_index(false), 1, "low net stresses the PMOS R2");
    }

    #[test]
    fn static_stress_only_ages_one_device() {
        let mut block = fresh_block();
        stress_day(&mut block, &[true]);
        assert!(block.devices()[0].is_aged());
        assert!(!block.devices()[1].is_aged());
    }

    #[test]
    fn toggling_ages_both_but_less() {
        let mut parked = fresh_block();
        stress_day(&mut parked, &[true]);
        let mut toggling = fresh_block();
        stress_day(&mut toggling, &[false, true]);

        assert!(toggling.devices()[0].is_aged());
        assert!(toggling.devices()[1].is_aged());
        assert!(
            toggling.devices()[0].delta_vth().get() < parked.devices()[0].delta_vth().get(),
            "AC per-device shift is below DC"
        );
    }

    #[test]
    fn sleep_recovers_delay() {
        let mut block = fresh_block();
        stress_day(&mut block, &[false]);
        let aged = block.delay(Volts::new(1.2));
        block.advance(
            &[],
            Environment::new(Volts::new(-0.3), Celsius::new(110.0)),
            Hours::new(6.0).into(),
            &mut PhaseRateCache::new(),
        );
        assert!(block.delay(Volts::new(1.2)) < aged);
    }
}
