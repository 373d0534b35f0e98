//! The live fleet: sharded trap banks advanced in epochs.
//!
//! A [`FleetState`] partitions its chips into [`Shard`]s, each owning one
//! SoA [`TrapBank`] holding the concatenated trap slices of a contiguous
//! chip block. Epochs advance every shard independently on the global
//! pool; because shards are reassembled by input index and each chip's
//! traps were sampled from a `SeedSequence`-split stream, the resulting
//! state is bit-for-bit identical at any worker count — the same
//! contract the rest of the workspace pins.
//!
//! Mutations arriving over the wire (`REPORT` duty-cycle observations)
//! are folded into a running FNV chain, [`FleetState::mutation_digest`],
//! so a checkpoint can prove it captured the same request history that
//! produced it.

use std::ops::Range;

use selfheal_bti::td::{
    ChipTier, EnvironmentRates, PhaseRates, TierCounts, TierPolicy, TrapBank, TrapEnsemble,
};
use selfheal_bti::DeviceCondition;
use selfheal_runtime::{par_map_indexed, SeedSequence};
use selfheal_telemetry::{fnv1a, Fnv1a};
use selfheal_units::{DutyCycle, Millivolts, Seconds};

use crate::config::FleetConfig;

/// One chip's slot inside a shard: its trap slice, the stress duty
/// cycle it most recently reported, and its integration tier.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipSlot {
    /// The chip's trap range inside the shard's bank.
    pub traps: Range<usize>,
    /// The chip's observed stress duty cycle (DC until reported).
    pub duty: DutyCycle,
    /// The chip's integration tier. Always `Hot` in an untiered fleet;
    /// in a tiered one, `Cold` chips' bank occupancies are frozen at
    /// their demotion epoch and their shift is served analytically.
    pub tier: ChipTier,
}

/// A contiguous block of chips sharing one trap bank.
#[derive(Debug, Clone)]
pub struct Shard {
    /// Global id of the first chip in this shard.
    pub first_chip: usize,
    /// Per-chip slots, indexed by `global_id - first_chip`.
    pub chips: Vec<ChipSlot>,
    /// The concatenated trap state of every chip in the shard.
    pub bank: TrapBank,
    /// Each trap's epoch decay, reused while its chip's duty holds.
    decays: DecayCache,
}

/// The per-trap epoch decays `exp(−epoch_dt/τ)` of a shard's bank.
///
/// A decay depends only on the trap, the chip's condition and the epoch
/// length — never on occupancy. The environment and the epoch length are
/// fixed for a fleet's life, so each chip's block is keyed by the duty it
/// was computed for and recomputed only when the chip's duty no longer
/// matches. That makes every mutation path (`fold_report`, checkpoint
/// `overlay`) correct without invalidation hooks.
#[derive(Debug, Clone, Default)]
struct DecayCache {
    /// One decay per trap of the bank; empty until the shard's first
    /// epoch, so a freshly built or resumed fleet does not carry it.
    decay: Vec<f64>,
    /// Per chip: the duty bits its block was computed for, or
    /// [`STALE`] before its first computation.
    duty_bits: Vec<u64>,
}

/// The key of a block never computed: the bits of a NaN, which no
/// reported duty holds (reports carry JSON numbers, and `DutyCycle`
/// clamps them into `[0, 1]`).
const STALE: u64 = u64::MAX;

impl DecayCache {
    /// Allocates the cache for `bank` on first use, every block stale.
    fn ensure(&mut self, bank: &TrapBank, chips: usize) {
        if self.duty_bits.len() != chips {
            self.decay = vec![0.0; bank.len()];
            self.duty_bits = vec![STALE; chips];
        }
    }

    /// Recomputes chip `local`'s block unless it was computed for the
    /// chip's current duty. Returns whether it recomputed.
    fn refresh(
        &mut self,
        bank: &TrapBank,
        local: usize,
        chip: &ChipSlot,
        rates: &PhaseRates,
        dt: Seconds,
    ) -> bool {
        let key = chip.duty.get().to_bits();
        if self.duty_bits[local] == key {
            return false;
        }
        let traps = chip.traps.clone();
        bank.fill_decays(traps.clone(), rates, dt, &mut self.decay[traps]);
        self.duty_bits[local] = key;
        true
    }
}

impl Shard {
    /// Samples a fresh shard: each chip draws its ensemble from its own
    /// `seeds.rng(local_index)` stream, so the shard's contents depend
    /// only on `(config.seed, shard_index, local_index)` — never on
    /// execution order. Every chip's traps are drawn straight into one
    /// vector ([`TrapEnsemble::sample_into`]), with no per-chip bank in
    /// between, and the bank is packed from it once at its exact final
    /// size: growing it by pushes would leave up to half of every array
    /// as spare capacity for the life of the fleet.
    #[must_use]
    pub fn sample(config: &FleetConfig, shard_index: usize, seeds: &SeedSequence) -> Shard {
        let chip_range = config.shard_chip_range(shard_index);
        let mut traps = Vec::new();
        let mut chips = Vec::with_capacity(chip_range.len());
        for local in 0..chip_range.len() {
            let mut rng = seeds.rng(local as u64);
            let start = traps.len();
            TrapEnsemble::sample_into(&config.trap_params, &mut rng, &mut traps);
            chips.push(ChipSlot {
                traps: start..traps.len(),
                duty: DutyCycle::default(),
                tier: ChipTier::Hot,
            });
        }
        Shard {
            first_chip: chip_range.start,
            chips,
            bank: TrapBank::from_traps(&traps),
            decays: DecayCache::default(),
        }
    }

    /// Advances every chip in the shard by `dt` under its own observed
    /// duty cycle at the fleet's active environment, into epoch
    /// `epoch_end`, and returns how many chips' decay blocks it had to
    /// recompute. The environment is fixed for the fleet's life, so its
    /// factors ([`EnvironmentRates`]) are evaluated once per call and
    /// each chip's rates follow from its duty with one `powf`: the cost
    /// of an epoch does not grow with the number of distinct duties
    /// chips have reported.
    ///
    /// Full-resolution chips advance from the shard's cached decays
    /// ([`TrapBank::advance_range_cached`]), so an epoch pays no `exp`
    /// except for chips whose duty changed since their block was
    /// computed (and every chip on the shard's first epoch). Untiered,
    /// runs of consecutive same-duty chips advance as one range and
    /// share one rate evaluation.
    ///
    /// With a [`TierPolicy`] in force, cold chips cost one integer
    /// comparison: their occupancies stay frozen until `epoch_end`
    /// reaches their precomputed wake epoch, at which point the whole
    /// cold window replays as one fused
    /// [`advance_range`](TrapBank::advance_range) under the chip's
    /// (constant) condition. Hot chips that end the epoch outside the
    /// guard band demote; pinned chips never do. Consecutive hot, pinned
    /// or waking chips at one duty share one rate evaluation.
    pub fn advance(
        &mut self,
        config: &FleetConfig,
        dt: Seconds,
        epoch_end: u64,
        policy: Option<&TierPolicy>,
    ) -> usize {
        let env = EnvironmentRates::new(config.active_env);
        let Shard {
            chips,
            bank,
            decays,
            ..
        } = self;
        decays.ensure(bank, chips.len());
        let mut refreshed = 0;
        let Some(policy) = policy else {
            // Untiered: every chip advances at full resolution, one run
            // of consecutive same-duty chips at a time.
            let mut start = 0;
            while start < chips.len() {
                let duty = chips[start].duty;
                let end = start
                    + chips[start..]
                        .iter()
                        .take_while(|chip| chip.duty.get().to_bits() == duty.get().to_bits())
                        .count();
                let phase = env.rates(duty);
                for (local, chip) in (start..end).zip(&chips[start..end]) {
                    refreshed += usize::from(decays.refresh(bank, local, chip, &phase, dt));
                }
                let traps = chips[start].traps.start..chips[end - 1].traps.end;
                bank.advance_range_cached(traps.clone(), &phase, &decays.decay[traps]);
                start = end;
            }
            return refreshed;
        };
        let mut phase = env.rates(DutyCycle::default());
        for (local, chip) in chips.iter_mut().enumerate() {
            // The tier check comes first: at steady state almost every
            // chip is cold, and a cold epoch must stay at one integer
            // compare per chip — no condition or rate lookups.
            if let ChipTier::Cold(cold) = &chip.tier {
                if !policy.should_wake(cold, epoch_end) {
                    continue;
                }
            }
            if phase.condition().stress_duty().get().to_bits() != chip.duty.get().to_bits() {
                phase = env.rates(chip.duty);
            }
            let cond = phase.condition();
            match &chip.tier {
                ChipTier::Cold(cold) => {
                    // Rehydrate: replay the whole cold window in one
                    // fused step. The window's mean rate is already the
                    // upper bound demotion needs, so the chip can go
                    // straight back to sleep instead of burning a hot
                    // epoch. The window's length varies, so this step
                    // bypasses the decay cache.
                    let anchor = cold.anchor;
                    let window = epoch_end.saturating_sub(cold.since_epoch).max(1);
                    let elapsed = policy.cold_elapsed(cold, epoch_end);
                    bank.advance_range(chip.traps.clone(), &phase, elapsed);
                    let current = bank.summary_range(chip.traps.clone()).delta_vth;
                    chip.tier =
                        match policy.try_demote(anchor, current, window, cond, epoch_end) {
                            Some(cold) => ChipTier::Cold(cold),
                            None => ChipTier::Hot,
                        };
                }
                ChipTier::Hot => {
                    // Demotion needs the chip's observed per-epoch
                    // rate, so bracket the advance with two summary
                    // scans.
                    let previous = bank.summary_range(chip.traps.clone()).delta_vth;
                    refreshed += usize::from(decays.refresh(bank, local, chip, &phase, dt));
                    let traps = chip.traps.clone();
                    bank.advance_range_cached(traps.clone(), &phase, &decays.decay[traps]);
                    let current = bank.summary_range(chip.traps.clone()).delta_vth;
                    if let Some(cold) = policy.try_demote(previous, current, 1, cond, epoch_end)
                    {
                        chip.tier = ChipTier::Cold(cold);
                    }
                }
                ChipTier::Pinned => {
                    refreshed += usize::from(decays.refresh(bank, local, chip, &phase, dt));
                    let traps = chip.traps.clone();
                    bank.advance_range_cached(traps.clone(), &phase, &decays.decay[traps]);
                }
            }
        }
        refreshed
    }

    /// The chip's consumed margin as recorded in the bank: the ΔVth of
    /// its trap slice. For a cold chip this is the *frozen* value at its
    /// demotion epoch — use [`FleetState::chip_consumed`] for the
    /// tier-aware live value.
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of range.
    #[must_use]
    pub fn chip_delta_vth(&self, local: usize) -> Millivolts {
        self.bank.summary_range(self.chips[local].traps.clone()).delta_vth
    }
}

/// Fleet-wide aggregates computed by one full scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetAggregates {
    /// Sum of per-chip ΔVth over the fleet.
    pub total_delta_vth: Millivolts,
    /// The single worst chip's ΔVth.
    pub worst_delta_vth: Millivolts,
    /// Chips whose ΔVth has already crossed the margin.
    pub over_budget_chips: usize,
}

/// The daemon's entire mutable world: shards plus epoch bookkeeping.
#[derive(Debug, Clone)]
pub struct FleetState {
    config: FleetConfig,
    shards: Vec<Shard>,
    epoch: u64,
    mutation_digest: u64,
}

impl FleetState {
    /// Builds a fresh fleet from the configuration. Shards sample in
    /// parallel on the global pool; the result is identical at any
    /// worker count.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (see [`FleetConfig::validate`]).
    #[must_use]
    pub fn build(config: FleetConfig) -> FleetState {
        if let Err(problem) = config.validate() {
            panic!("invalid fleet config: {problem}");
        }
        let seeds = SeedSequence::new(config.seed);
        let shard_configs: Vec<FleetConfig> = vec![config.clone(); config.shards];
        let shards = par_map_indexed(shard_configs, move |index, cfg| {
            Shard::sample(&cfg, index, &seeds.child(index as u64))
        });
        let mutation_digest = fnv1a(config.cache_key().as_bytes());
        FleetState {
            config,
            shards,
            epoch: 0,
            mutation_digest,
        }
    }

    /// The configuration the fleet was built from.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The shards, in chip order.
    #[must_use]
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Completed epoch count.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Simulated time elapsed: `epoch × epoch_dt`. Computed, not
    /// accumulated, so a resumed daemon reports the exact same value as
    /// an uninterrupted one.
    #[must_use]
    pub fn sim_time(&self) -> Seconds {
        #[allow(clippy::cast_precision_loss)]
        Seconds::new(self.epoch as f64 * self.config.epoch_dt.get())
    }

    /// The running FNV chain over every folded mutation (see module
    /// docs). Captured in checkpoints; equal digests mean equal request
    /// histories.
    #[must_use]
    pub fn mutation_digest(&self) -> u64 {
        self.mutation_digest
    }

    /// Advances the whole fleet by one epoch (`config.epoch_dt` of
    /// simulated time) in parallel over shards.
    pub fn advance_epoch(&mut self) {
        let config = self.config.clone();
        let dt = config.epoch_dt;
        let policy = config.tier_policy();
        let epoch_end = self.epoch + 1;
        let shards = std::mem::take(&mut self.shards);
        let timing = selfheal_telemetry::metrics::enabled();
        let advanced = par_map_indexed(shards, move |index, mut shard| {
            // Per-shard wall time as heat gauges: under the tiered
            // integrator shard costs diverge (hot-chip-heavy shards pay
            // per-trap resolution), and straggler shards bound epoch
            // latency. The clock is telemetry-only — the advance itself
            // is identical with timing off.
            let started = timing.then(selfheal_telemetry::trace_epoch_ns);
            let refreshed = shard.advance(&config, dt, epoch_end, policy.as_ref());
            if let Some(started) = started {
                let elapsed_ns = selfheal_telemetry::trace_epoch_ns().saturating_sub(started);
                #[allow(clippy::cast_precision_loss)]
                selfheal_telemetry::metrics::gauge_set(
                    &format!("fleet.shard.{index}.epoch_us"),
                    elapsed_ns as f64 / 1e3,
                );
            }
            (shard, refreshed)
        });
        let (shards, refreshed): (Vec<Shard>, Vec<usize>) = advanced.into_iter().unzip();
        self.shards = shards;
        // Chips whose decays were recomputed: all of them on the first
        // epoch after a build or resume, then only report churn.
        #[allow(clippy::cast_precision_loss)]
        let refreshed = refreshed.iter().sum::<usize>() as f64;
        selfheal_telemetry::counter!("fleet.epoch.decay_refresh_chips", refreshed);
        self.epoch = epoch_end;
    }

    /// Locates a chip: `(shard index, local index)`.
    #[must_use]
    pub fn locate(&self, chip: usize) -> Option<(usize, usize)> {
        let shard = self.config.shard_of_chip(chip)?;
        Some((shard, chip - self.shards[shard].first_chip))
    }

    /// The shard holding `chip` together with the chip's trap range, for
    /// planner entry points that take bank views.
    #[must_use]
    pub fn chip_view(&self, chip: usize) -> Option<(&Shard, Range<usize>)> {
        let (shard, local) = self.locate(chip)?;
        let shard = &self.shards[shard];
        Some((shard, shard.chips[local].traps.clone()))
    }

    /// The duty cycle `chip` last reported (DC until reported).
    #[must_use]
    pub fn chip_duty(&self, chip: usize) -> Option<DutyCycle> {
        let (shard, local) = self.locate(chip)?;
        Some(self.shards[shard].chips[local].duty)
    }

    /// The chip's current integration tier.
    #[must_use]
    pub fn chip_tier(&self, chip: usize) -> Option<ChipTier> {
        let (shard, local) = self.locate(chip)?;
        Some(self.shards[shard].chips[local].tier)
    }

    /// The chip's consumed margin right now, tier-aware: hot and pinned
    /// chips read their exact bank slice; cold chips are served from the
    /// rate-anchored extrapolation fixed at their demotion point.
    #[must_use]
    pub fn chip_consumed(&self, chip: usize) -> Option<Millivolts> {
        let (shard, local) = self.locate(chip)?;
        let shard = &self.shards[shard];
        let slot = &shard.chips[local];
        Some(match (self.config.tier_policy(), &slot.tier) {
            (Some(policy), ChipTier::Cold(cold)) => policy.analytic_delta_vth(cold, self.epoch),
            _ => shard.bank.summary_range(slot.traps.clone()).delta_vth,
        })
    }

    /// Per-tier chip counts across the fleet (all-hot when untiered).
    #[must_use]
    pub fn tier_counts(&self) -> TierCounts {
        let mut counts = TierCounts::default();
        for shard in &self.shards {
            for chip in &shard.chips {
                counts.record(&chip.tier);
            }
        }
        counts
    }

    /// Folds a `REPORT` observation into the fleet: the chip's duty
    /// cycle is replaced (shaping its stress from the next epoch on) and
    /// the mutation digest is advanced over `(epoch, chip, duty)`.
    /// Returns `false` for a chip outside the fleet.
    ///
    /// In a tiered fleet a mutated duty is exactly the "near a decision"
    /// signal the tiers respect: a cold chip first replays its cold
    /// window under the *old* condition (the one it was demoted with),
    /// then the chip — whatever its tier was — is pinned at full
    /// resolution for the rest of the run, so its post-report trajectory
    /// is bit-identical to a never-tiered fleet's.
    pub fn fold_report(&mut self, chip: usize, duty: DutyCycle) -> bool {
        let Some((shard, local)) = self.locate(chip) else {
            return false;
        };
        if let Some(policy) = self.config.tier_policy() {
            let slot = &self.shards[shard].chips[local];
            if let ChipTier::Cold(cold) = slot.tier {
                let old_cond = DeviceCondition::new(self.config.active_env, slot.duty);
                let elapsed = policy.cold_elapsed(&cold, self.epoch);
                let traps = slot.traps.clone();
                self.shards[shard].bank.advance_range(
                    traps,
                    &PhaseRates::for_condition(old_cond),
                    elapsed,
                );
            }
            self.shards[shard].chips[local].tier = ChipTier::Pinned;
        }
        self.shards[shard].chips[local].duty = duty;
        let mut hasher = Fnv1a::new();
        hasher.write(&self.mutation_digest.to_be_bytes());
        hasher.write(&self.epoch.to_be_bytes());
        hasher.write(&(chip as u64).to_be_bytes());
        hasher.write(&duty.get().to_bits().to_be_bytes());
        self.mutation_digest = hasher.finish();
        true
    }

    /// One full scan: fleet totals, the worst chip and the count already
    /// out of budget. Cold chips contribute their analytic shift.
    #[must_use]
    pub fn aggregates(&self) -> FleetAggregates {
        let margin = self.config.margin.get();
        let policy = self.config.tier_policy();
        let mut total = 0.0f64;
        let mut worst = 0.0f64;
        let mut over = 0usize;
        for shard in &self.shards {
            for chip in &shard.chips {
                let mv = match (&policy, &chip.tier) {
                    (Some(policy), ChipTier::Cold(cold)) => {
                        policy.analytic_delta_vth(cold, self.epoch).get()
                    }
                    _ => shard.bank.summary_range(chip.traps.clone()).delta_vth.get(),
                };
                total += mv;
                if mv > worst {
                    worst = mv;
                }
                if mv >= margin {
                    over += 1;
                }
            }
        }
        FleetAggregates {
            total_delta_vth: Millivolts::new(total),
            worst_delta_vth: Millivolts::new(worst),
            over_budget_chips: over,
        }
    }

    /// A digest of the complete observable state: every occupancy bit
    /// pattern, every reported duty, the epoch and the mutation chain.
    /// Two states with equal digests answer every request identically.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        let mut hasher = Fnv1a::new();
        hasher.write(&self.epoch.to_be_bytes());
        hasher.write(&self.mutation_digest.to_be_bytes());
        for shard in &self.shards {
            for occ in shard.bank.occupancies() {
                hasher.write(&occ.to_bits().to_be_bytes());
            }
            for chip in &shard.chips {
                hasher.write(&chip.duty.get().to_bits().to_be_bytes());
                match &chip.tier {
                    ChipTier::Hot => hasher.write(&[0]),
                    ChipTier::Pinned => hasher.write(&[1]),
                    ChipTier::Cold(cold) => {
                        hasher.write(&[2]);
                        hasher.write(&cold.anchor.get().to_bits().to_be_bytes());
                        hasher.write(&cold.rate_mv_per_s.to_bits().to_be_bytes());
                        hasher.write(&cold.since_epoch.to_be_bytes());
                        hasher.write(&cold.wake_epoch.to_be_bytes());
                    }
                }
            }
        }
        hasher.finish()
    }

    /// Total traps across all shards.
    #[must_use]
    pub fn trap_count(&self) -> usize {
        self.shards.iter().map(|s| s.bank.len()).sum()
    }

    /// Overwrites the mutable state from a checkpoint: per-shard
    /// occupancies, per-chip duties and tiers, epoch and mutation
    /// digest. The caller (the checkpoint module) has already verified
    /// shapes.
    pub(crate) fn overlay(
        &mut self,
        epoch: u64,
        mutation_digest: u64,
        occupancies: &[Vec<f64>],
        duties: &[Vec<f64>],
        tiers: &[Vec<ChipTier>],
    ) {
        for (((shard, occ), duty), tier) in self
            .shards
            .iter_mut()
            .zip(occupancies)
            .zip(duties)
            .zip(tiers)
        {
            shard.bank.restore_occupancies(occ);
            for ((chip, d), t) in shard.chips.iter_mut().zip(duty).zip(tier) {
                chip.duty = DutyCycle::new(*d);
                chip.tier = *t;
            }
        }
        self.epoch = epoch;
        self.mutation_digest = mutation_digest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> FleetConfig {
        let mut config = FleetConfig::default();
        config.chips = 10;
        config.shards = 3;
        config.seed = 7;
        config.trap_params.mean_trap_count = 6.0;
        config
    }

    #[test]
    fn build_is_seed_deterministic() {
        let a = FleetState::build(tiny_config());
        let b = FleetState::build(tiny_config());
        assert_eq!(a.state_digest(), b.state_digest());
        let mut reseeded = tiny_config();
        reseeded.seed = 8;
        assert_ne!(a.state_digest(), FleetState::build(reseeded).state_digest());
    }

    #[test]
    fn epoch_advance_ages_the_fleet() {
        let mut fleet = FleetState::build(tiny_config());
        let before = fleet.aggregates().total_delta_vth;
        fleet.advance_epoch();
        fleet.advance_epoch();
        assert_eq!(fleet.epoch(), 2);
        assert_eq!(fleet.sim_time(), Seconds::new(7_200.0));
        assert!(fleet.aggregates().total_delta_vth > before);
    }

    #[test]
    fn reports_shape_aging_and_chain_the_digest() {
        let mut reported = FleetState::build(tiny_config());
        let mut untouched = FleetState::build(tiny_config());
        let d0 = reported.mutation_digest();
        assert!(reported.fold_report(4, DutyCycle::new(0.1)));
        assert_ne!(reported.mutation_digest(), d0);
        assert!(!reported.fold_report(10, DutyCycle::new(0.5)));
        reported.advance_epoch();
        untouched.advance_epoch();
        let low_duty = reported.chip_view(4).map(|(s, r)| s.bank.summary_range(r).delta_vth);
        let dc = untouched.chip_view(4).map(|(s, r)| s.bank.summary_range(r).delta_vth);
        assert!(low_duty < dc, "a 10 % duty chip must age slower than DC");
    }

    fn tiered_config() -> FleetConfig {
        let mut config = tiny_config();
        config.tiered = true;
        config.guard_band = Millivolts::new(10.0);
        config
    }

    #[test]
    fn tiered_epochs_demote_far_from_threshold_chips() {
        let mut fleet = FleetState::build(tiered_config());
        assert_eq!(fleet.tier_counts().hot, 10, "fresh fleets start all-hot");
        fleet.advance_epoch();
        let counts = fleet.tier_counts();
        assert!(
            counts.cold > 0,
            "one hour in, low-shift chips must go cold (got {counts:?})"
        );
        assert_eq!(counts.total(), 10);
        // Cold chips still serve a finite, positive consumed margin.
        for chip in 0..10 {
            let consumed = fleet.chip_consumed(chip).expect("chip resolves");
            assert!(consumed.get() >= 0.0 && consumed.get().is_finite());
        }
        // Cold epochs are frozen in the bank but the analytic value moves.
        let cold_chip = (0..10)
            .find(|&c| fleet.chip_tier(c).is_some_and(|t| t.is_cold()))
            .expect("some chip is cold");
        let before = fleet.chip_consumed(cold_chip).unwrap();
        fleet.advance_epoch();
        fleet.advance_epoch();
        let after = fleet.chip_consumed(cold_chip).unwrap();
        assert!(
            after > before,
            "a cold stressed chip keeps aging analytically ({before} -> {after})"
        );
    }

    #[test]
    fn report_rehydrates_and_pins() {
        let mut fleet = FleetState::build(tiered_config());
        fleet.advance_epoch();
        fleet.advance_epoch();
        let chip = (0..10)
            .find(|&c| fleet.chip_tier(c).is_some_and(|t| t.is_cold()))
            .expect("some chip is cold after two epochs");
        assert!(fleet.fold_report(chip, DutyCycle::new(0.3)));
        assert_eq!(fleet.chip_tier(chip), Some(ChipTier::Pinned));
        // Pinned is sticky: further epochs never demote it again.
        fleet.advance_epoch();
        assert_eq!(fleet.chip_tier(chip), Some(ChipTier::Pinned));
    }

    /// The digest's byte layout before it was hashed incrementally: the
    /// whole state copied into one buffer, then hashed in one call.
    fn digest_over_one_buffer(fleet: &FleetState) -> u64 {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&fleet.epoch.to_be_bytes());
        bytes.extend_from_slice(&fleet.mutation_digest.to_be_bytes());
        for shard in &fleet.shards {
            for occ in shard.bank.occupancies() {
                bytes.extend_from_slice(&occ.to_bits().to_be_bytes());
            }
            for chip in &shard.chips {
                bytes.extend_from_slice(&chip.duty.get().to_bits().to_be_bytes());
                match &chip.tier {
                    ChipTier::Hot => bytes.push(0),
                    ChipTier::Pinned => bytes.push(1),
                    ChipTier::Cold(cold) => {
                        bytes.push(2);
                        bytes.extend_from_slice(&cold.anchor.get().to_bits().to_be_bytes());
                        bytes.extend_from_slice(&cold.rate_mv_per_s.to_bits().to_be_bytes());
                        bytes.extend_from_slice(&cold.since_epoch.to_be_bytes());
                        bytes.extend_from_slice(&cold.wake_epoch.to_be_bytes());
                    }
                }
            }
        }
        fnv1a(&bytes)
    }

    #[test]
    fn incremental_digest_matches_the_one_buffer_layout() {
        let mut fleet = FleetState::build(tiered_config());
        assert_eq!(fleet.state_digest(), digest_over_one_buffer(&fleet));
        fleet.advance_epoch();
        fleet.advance_epoch();
        let cold = (0..10)
            .find(|&c| fleet.chip_tier(c).is_some_and(|t| t.is_cold()))
            .expect("some chip is cold after two epochs");
        let pinned = (0..10).find(|&c| c != cold).expect("a second chip");
        assert!(fleet.fold_report(pinned, DutyCycle::new(0.4)));
        fleet.advance_epoch();
        // Steady state has no hot chips left here; put one back by hand.
        let hot = (0..10)
            .find(|&c| c != cold && c != pinned)
            .expect("a third chip");
        let (shard, local) = fleet.locate(hot).expect("chip resolves");
        fleet.shards[shard].chips[local].tier = ChipTier::Hot;
        let counts = fleet.tier_counts();
        assert!(
            counts.hot > 0 && counts.pinned > 0 && counts.cold > 0,
            "the fleet must mix all three tiers (got {counts:?})"
        );
        assert_eq!(fleet.state_digest(), digest_over_one_buffer(&fleet));
    }

    #[test]
    fn sampled_banks_have_no_spare_capacity() {
        let fleet = FleetState::build(tiny_config());
        // The permanent-trap side vector is part of the capacity, so the
        // banks must actually hold some permanent traps for this to bite.
        assert!(fleet
            .shards()
            .iter()
            .any(|shard| shard.bank.iter().any(|trap| trap.is_permanent())));
        for shard in fleet.shards() {
            assert_eq!(shard.bank.capacity(), shard.bank.len());
        }
    }

    #[test]
    fn decays_refresh_on_first_epoch_and_duty_changes_only() {
        let config = tiny_config();
        let mut fleet = FleetState::build(config.clone());
        assert!(
            fleet
                .shards
                .iter()
                .all(|shard| shard.decays.decay.is_empty()),
            "a built fleet carries no decay column until its first epoch"
        );
        let epoch = |fleet: &mut FleetState| -> usize {
            let epoch_end = fleet.epoch + 1;
            fleet.epoch = epoch_end;
            fleet
                .shards
                .iter_mut()
                .map(|shard| shard.advance(&config, config.epoch_dt, epoch_end, None))
                .sum()
        };
        assert_eq!(epoch(&mut fleet), 10, "every chip on the first epoch");
        assert_eq!(epoch(&mut fleet), 0);
        assert!(fleet.fold_report(4, DutyCycle::new(0.25)));
        assert!(fleet.fold_report(5, DutyCycle::new(0.25)));
        assert_eq!(epoch(&mut fleet), 2, "only the reported chips");
        assert!(fleet.fold_report(4, DutyCycle::new(0.25)));
        assert_eq!(epoch(&mut fleet), 0, "an unchanged duty keeps its block");
    }

    /// The epoch advance without the decay cache: every full-resolution
    /// chip steps through `advance_range`, one chip at a time.
    fn advance_epoch_uncached(fleet: &mut FleetState) {
        let config = fleet.config.clone();
        let dt = config.epoch_dt;
        let policy = config.tier_policy();
        let epoch_end = fleet.epoch + 1;
        for shard in &mut fleet.shards {
            let Shard { chips, bank, .. } = shard;
            for chip in chips.iter_mut() {
                let cond = DeviceCondition::new(config.active_env, chip.duty);
                let rates = PhaseRates::for_condition(cond);
                let traps = chip.traps.clone();
                let Some(policy) = &policy else {
                    bank.advance_range(traps, &rates, dt);
                    continue;
                };
                match chip.tier {
                    ChipTier::Cold(cold) => {
                        if !policy.should_wake(&cold, epoch_end) {
                            continue;
                        }
                        let window = epoch_end.saturating_sub(cold.since_epoch).max(1);
                        let elapsed = policy.cold_elapsed(&cold, epoch_end);
                        bank.advance_range(traps.clone(), &rates, elapsed);
                        let current = bank.summary_range(traps).delta_vth;
                        chip.tier = policy
                            .try_demote(cold.anchor, current, window, cond, epoch_end)
                            .map_or(ChipTier::Hot, ChipTier::Cold);
                    }
                    ChipTier::Hot => {
                        let previous = bank.summary_range(traps.clone()).delta_vth;
                        bank.advance_range(traps.clone(), &rates, dt);
                        let current = bank.summary_range(traps).delta_vth;
                        if let Some(cold) = policy.try_demote(previous, current, 1, cond, epoch_end)
                        {
                            chip.tier = ChipTier::Cold(cold);
                        }
                    }
                    ChipTier::Pinned => {
                        bank.advance_range(traps, &rates, dt);
                    }
                }
            }
        }
        fleet.epoch = epoch_end;
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        /// Cached epochs with report churn (duty 0 included), one epoch
        /// at which every chip reports a duty of its own, and a
        /// checkpoint save → resume halfway land on the same state
        /// digest as the uncached reference, tiered and untiered.
        #[test]
        fn cached_epochs_match_the_uncached_reference(seed in 0u64..1_000_000) {
            use rand::Rng;
            const EPOCHS: u64 = 30;
            for tiered in [false, true] {
                let mut config = FleetConfig::default();
                config.chips = 3_000;
                config.shards = 5;
                config.seed = seed;
                config.trap_params.mean_trap_count = 8.0;
                config.tiered = tiered;
                config.guard_band = Millivolts::new(10.0);
                let mut cached = FleetState::build(config.clone());
                let mut reference = FleetState::build(config.clone());
                let reports = SeedSequence::new(seed ^ 0x5eed);
                let store = std::env::temp_dir().join(format!(
                    "selfheal-fleet-decay-{}-{seed}-{tiered}",
                    std::process::id()
                ));
                let _ = std::fs::remove_dir_all(&store);
                let cache = selfheal_runtime::ResultCache::at(store.clone());
                for epoch in 0..EPOCHS {
                    let mut rng = reports.rng(epoch);
                    for _ in 0..rng.gen_range(0..40) {
                        let chip = rng.gen_range(0..config.chips);
                        let duty = match rng.gen_range(0..4) {
                            0 => 0.0,
                            1 => 1.0,
                            _ => rng.gen_range(0.0..1.0),
                        };
                        cached.fold_report(chip, DutyCycle::new(duty));
                        reference.fold_report(chip, DutyCycle::new(duty));
                    }
                    if epoch == EPOCHS / 3 {
                        // Every chip at a duty no other chip holds: one
                        // rate evaluation per chip, no shared runs.
                        #[allow(clippy::cast_precision_loss)]
                        for chip in 0..config.chips {
                            let duty = (chip as f64 + rng.gen::<f64>()) / config.chips as f64;
                            cached.fold_report(chip, DutyCycle::new(duty));
                            reference.fold_report(chip, DutyCycle::new(duty));
                        }
                    }
                    cached.advance_epoch();
                    advance_epoch_uncached(&mut reference);
                    if epoch == EPOCHS / 2 {
                        let saved = crate::checkpoint::save(&cache, &cached);
                        cached = crate::checkpoint::resume(&cache, &config)
                            .expect("the checkpoint just saved resumes");
                        proptest::prop_assert_eq!(
                            saved.map(|saved| saved.state_digest),
                            Some(cached.state_digest())
                        );
                    }
                }
                let _ = std::fs::remove_dir_all(&store);
                proptest::prop_assert_eq!(cached.state_digest(), reference.state_digest());
            }
        }
    }

    /// A shard drawn straight into one trap vector holds the very bank
    /// the per-chip-ensemble path built: each chip sampled into its own
    /// `TrapEnsemble`, its traps copied back out and packed again.
    #[test]
    fn single_pass_sampling_matches_per_chip_ensembles() {
        let mut config = tiny_config();
        config.chips = 40;
        config.shards = 2;
        let seeds = SeedSequence::new(config.seed);
        for index in 0..config.shards {
            let shard_seeds = seeds.child(index as u64);
            let shard = Shard::sample(&config, index, &shard_seeds);
            let mut traps = Vec::new();
            for local in 0..config.shard_chip_range(index).len() {
                let mut rng = shard_seeds.rng(local as u64);
                let ensemble = TrapEnsemble::sample(&config.trap_params, &mut rng);
                let start = traps.len();
                traps.extend(ensemble.iter());
                assert_eq!(shard.chips[local].traps, start..traps.len());
            }
            assert!(traps.iter().any(|trap| trap.is_permanent()));
            assert_eq!(shard.bank, TrapBank::from_traps(&traps));
        }
    }

    #[test]
    fn chip_views_cover_exactly_the_fleet() {
        let fleet = FleetState::build(tiny_config());
        for chip in 0..10 {
            let (shard, range) = match fleet.chip_view(chip) {
                Some(view) => view,
                None => panic!("chip {chip} must resolve"),
            };
            assert!(range.end <= shard.bank.len());
        }
        assert!(fleet.chip_view(10).is_none());
    }
}
