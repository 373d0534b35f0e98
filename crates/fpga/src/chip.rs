//! One simulated FPGA chip: fabric, process corner, circuit under test and
//! measurement pipeline.

use rand::Rng;
use selfheal_telemetry as telemetry;
use serde::{Deserialize, Serialize};
use selfheal_bti::td::PhaseRateCache;
use selfheal_bti::Environment;
use selfheal_units::{Hertz, Millivolts, Nanoseconds, Seconds};

use crate::counter::{CounterReading, FrequencyCounter};
use crate::family::Family;
use crate::ring_oscillator::{RingOscillator, RoMode};

/// Identity of a physical chip in the test population ("Chip 1"…"Chip 5"
/// in the paper's Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ChipId(u32);

impl ChipId {
    /// Creates a chip identity.
    #[must_use]
    pub const fn new(id: u32) -> Self {
        ChipId(id)
    }

    /// The raw id.
    #[must_use]
    pub const fn get(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for ChipId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Chip {}", self.0)
    }
}

/// One measurement of the CUT, as the paper's diagnostic program would log
/// it: the raw counter capture plus the derived frequency and delay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// Raw counter reading.
    pub reading: CounterReading,
    /// Oscillation frequency implied by the reading (Eq. 14).
    pub frequency: Hertz,
    /// CUT delay implied by the reading (Eq. 15).
    pub cut_delay: Nanoseconds,
}

/// A simulated 40 nm FPGA chip.
///
/// Carries its own process corner (all devices share a chip-level Vth
/// offset, plus local mismatch), its ring-oscillator CUT and the counter.
/// See the crate-level example for typical use.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Chip {
    id: ChipId,
    family: Family,
    corner_offset: Millivolts,
    ro: RingOscillator,
    counter: FrequencyCounter,
}

impl Chip {
    /// Samples a fresh chip of the given family.
    #[must_use]
    pub fn sample<R: Rng + ?Sized>(id: ChipId, family: Family, rng: &mut R) -> Self {
        let corner_offset = family.variation.sample_chip_offset(rng);
        let ro = RingOscillator::sample(&family, corner_offset, rng);
        let counter = FrequencyCounter::new(family.counter_bits, family.reference_clock);
        Chip {
            id,
            family,
            corner_offset,
            ro,
            counter,
        }
    }

    /// Samples a fresh chip of the paper's commercial 40 nm family.
    #[must_use]
    pub fn commercial_40nm<R: Rng + ?Sized>(id: ChipId, rng: &mut R) -> Self {
        Chip::sample(id, Family::commercial_40nm(), rng)
    }

    /// The chip's identity.
    #[must_use]
    pub fn id(&self) -> ChipId {
        self.id
    }

    /// The chip's family parameters.
    #[must_use]
    pub fn family(&self) -> &Family {
        &self.family
    }

    /// The chip's process-corner threshold offset.
    #[must_use]
    pub fn corner_offset(&self) -> Millivolts {
        self.corner_offset
    }

    /// The ring oscillator under test.
    #[must_use]
    pub fn ring_oscillator(&self) -> &RingOscillator {
        &self.ro
    }

    /// The CUT's true (noise-free) delay at the nominal supply — the
    /// quantity a measurement estimates.
    #[must_use]
    pub fn true_cut_delay(&self) -> Nanoseconds {
        self.ro.cut_delay(self.family.vdd_nominal)
    }

    /// The CUT's fresh delay at the nominal supply.
    #[must_use]
    pub fn fresh_cut_delay(&self) -> Nanoseconds {
        self.ro.fresh_cut_delay()
    }

    /// Number of counter captures averaged per measurement. The paper's
    /// diagnostic program reads the counter "from a certain time range
    /// that has stable values" (§4.2); averaging eight captures reduces
    /// the ±5-count jitter to well under a count, matching the paper's
    /// quoted frequency repeatability.
    pub const READS_PER_MEASUREMENT: usize = 8;

    /// Runs the diagnostic program once: enable the RO briefly at the
    /// nominal supply, capture the counter over a stable window, convert
    /// to frequency and delay.
    ///
    /// As in §4.2, "environmental factors and the voltage supply are kept
    /// constant from one reading to another", so readings are comparable
    /// across the whole schedule; the only measurement noise is the
    /// averaged residue of the counter's ±5-count repeatability.
    pub fn measure<R: Rng + ?Sized>(&self, rng: &mut R) -> Measurement {
        let fosc = self.ro.frequency(self.family.vdd_nominal);
        let reading = self.counter.read(fosc, rng);
        let mean = (f64::from(reading.count)
            + (1..Self::READS_PER_MEASUREMENT)
                .map(|_| f64::from(self.counter.read(fosc, rng).count))
                .sum::<f64>())
            / Self::READS_PER_MEASUREMENT as f64;
        let measurement = Measurement {
            reading,
            frequency: self.counter.frequency_of_count(mean),
            cut_delay: self.counter.delay_of_count(mean),
        };
        telemetry::counter!("fpga.chip.measurements", 1.0);
        // Keyed by chip: chips are measured on concurrent pool jobs, and
        // one shared gauge would hold whichever job finished last.
        let chip = self.id.get();
        telemetry::gauge!(
            &format!("fpga.chip.{chip}.ro_frequency_mhz"),
            measurement.frequency.get() / 1e6
        );
        telemetry::gauge!(
            &format!("fpga.chip.{chip}.cut_delay_ns"),
            measurement.cut_delay.get()
        );
        telemetry::event!(
            "fpga.chip.measure",
            chip = self.id.get(),
            frequency_mhz = measurement.frequency.get() / 1e6,
            cut_delay_ns = measurement.cut_delay.get(),
        );
        measurement
    }

    /// Ages the chip for `dt` in the given RO mode and environment.
    ///
    /// The phase's rate multipliers are evaluated once here and shared
    /// across every device on the chip (see `selfheal_bti::td::kernel`).
    pub fn advance(&mut self, mode: RoMode, env: Environment, dt: Seconds) {
        self.ro.advance(mode, env, dt, &mut PhaseRateCache::new());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use selfheal_units::{Celsius, Hours, Volts};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(10)
    }

    fn hot() -> Environment {
        Environment::new(Volts::new(1.2), Celsius::new(110.0))
    }

    #[test]
    fn fresh_chips_differ_due_to_variation() {
        let mut r = rng();
        let a = Chip::commercial_40nm(ChipId::new(1), &mut r);
        let b = Chip::commercial_40nm(ChipId::new(2), &mut r);
        assert_ne!(
            a.true_cut_delay(),
            b.true_cut_delay(),
            "the paper's motivation for the Recovered Delay metric"
        );
    }

    #[test]
    fn measurement_tracks_true_delay() {
        let mut r = rng();
        let chip = Chip::commercial_40nm(ChipId::new(1), &mut r);
        let m = chip.measure(&mut r);
        let err = (m.cut_delay.get() - chip.true_cut_delay().get()).abs();
        assert!(err / chip.true_cut_delay().get() < 0.005, "err = {err} ns");
        assert!(!m.reading.saturated);
    }

    #[test]
    fn stress_then_measure_shows_degradation() {
        let mut r = rng();
        let mut chip = Chip::commercial_40nm(ChipId::new(3), &mut r);
        let fresh = chip.measure(&mut r);
        chip.advance(RoMode::Static, hot(), Hours::new(24.0).into());
        let aged = chip.measure(&mut r);
        assert!(aged.frequency < fresh.frequency);
        assert!(aged.cut_delay > fresh.cut_delay);
        let deg = aged.frequency.degradation_from(fresh.frequency);
        assert!(deg > 0.01 && deg < 0.04, "degradation = {deg}");
    }

    #[test]
    fn rejuvenation_recovers_measured_delay() {
        let mut r = rng();
        let mut chip = Chip::commercial_40nm(ChipId::new(5), &mut r);
        chip.advance(RoMode::Static, hot(), Hours::new(24.0).into());
        let aged = chip.measure(&mut r);
        chip.advance(
            RoMode::Sleep,
            Environment::new(Volts::new(-0.3), Celsius::new(110.0)),
            Hours::new(6.0).into(),
        );
        let healed = chip.measure(&mut r);
        assert!(healed.cut_delay < aged.cut_delay);
    }

    #[test]
    fn id_display() {
        assert_eq!(ChipId::new(4).to_string(), "Chip 4");
        assert_eq!(ChipId::new(4).get(), 4);
    }

    #[test]
    fn fresh_delay_is_recorded_before_any_stress() {
        let mut r = rng();
        let mut chip = Chip::commercial_40nm(ChipId::new(9), &mut r);
        let fresh = chip.fresh_cut_delay();
        chip.advance(RoMode::Static, hot(), Hours::new(24.0).into());
        assert_eq!(chip.fresh_cut_delay(), fresh, "fresh baseline is immutable");
        assert!(chip.true_cut_delay() > fresh);
    }
}
