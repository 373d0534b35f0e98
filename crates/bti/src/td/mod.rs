//! Stochastic Trapping/Detrapping (TD) BTI engine.
//!
//! The paper's device-level foundation is the TD model of Velamala et al.
//! (DAC 2012, the paper's ref \[15\]): threshold-voltage drift is the sum of
//! many oxide traps, each a two-state Markov system that *captures* a
//! carrier under stress (raising |Vth| by a small step) and *emits* it
//! during recovery. Aggregate behaviour — `log(1+Ct)` growth, fast-then-log
//! recovery, partial recoverability — emerges from the wide (log-uniform)
//! distribution of trap time constants; it is not baked into any formula
//! here. That makes this module a legitimate stand-in for the silicon the
//! authors measured: the analytic model of [`crate::analytic`] is *fitted*
//! to this engine's output the same way the paper fits its model to chamber
//! measurements.

mod ensemble;
pub mod kernel;
mod kinetics;
mod population;
pub mod tiered;
mod trap;

pub use ensemble::{TrapEnsemble, TrapEnsembleParams};
pub use kernel::{
    AdvanceStats, BankSummary, PhaseRateCache, PhaseRates, TrapBank, TrapIter, KERNEL_VERSION,
    LANES,
};
pub use tiered::{ChipTier, ColdChip, TierCounts, TierPolicy};
pub use population::{advance_population, sample_population, sample_population_cached};
pub use kinetics::{
    capture_rate_multiplier, emission_rate_multiplier, emission_thermal_speedup,
    occupancy_relaxation, EnvironmentRates,
};
pub use trap::Trap;
