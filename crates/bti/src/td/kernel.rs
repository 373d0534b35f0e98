//! The trap-kinetics throughput kernel: phase-level rate hoisting and a
//! structure-of-arrays trap bank.
//!
//! Every experiment in the stack bottoms out in advancing trap
//! occupancies, and the two rate multipliers that drive a step depend
//! only on the [`DeviceCondition`] — not on the trap. The scalar path
//! re-derived them per trap (two `exp` calls plus an Arrhenius factor
//! each), which is millions of redundant transcendentals per run. This
//! module restructures that hot path in three layers:
//!
//! 1. [`PhaseRates`] evaluates the multipliers **once per condition**
//!    and is threaded through every advance loop, so a 24 h stress phase
//!    over a whole chip computes its transcendentals once, not once per
//!    trap.
//! 2. [`PhaseRateCache`] memoizes `PhaseRates` across the handful of
//!    distinct conditions a fan-out produces (stressed / recovering /
//!    toggling devices under one environment), so higher layers can
//!    share one evaluation across thousands of devices. Where the
//!    distinct duties are many (a fleet of chips, each at its reported
//!    duty), [`EnvironmentRates`] evaluates the environment's factors
//!    once and each duty then costs one `powf`.
//! 3. [`TrapBank`] stores an ensemble's traps as flat arrays
//!    (structure-of-arrays) with a tight, branch-light
//!    [`advance_all`](TrapBank::advance_all) kernel and a fused
//!    single-pass [`summary`](TrapBank::summary) reduction replacing the
//!    three separate iterator passes the AoS layout required.
//!    The raw sampled emission constant is kept only for permanent traps
//!    (a side vector in trap order), since every other trap's raw and
//!    effective constants are equal.
//! 4. A caller that repeats one step under one condition — a fleet
//!    epoch — can pay the `exp` once: [`TrapBank::fill_decays`] stores
//!    each trap's `exp(−dt/τ)` and
//!    [`TrapBank::advance_range_cached`] then advances from those
//!    factors with only the rate divisions per trap.
//!
//! # Bit-exactness contract
//!
//! The kernel is **bit-for-bit identical** to the scalar
//! [`Trap::advance`] path (pinned by `tests/kernel_equivalence.rs`):
//!
//! * The bank stores `tau` values, not reciprocals, and keeps the exact
//!   `multiplier / tau` division of the scalar path — precomputing
//!   `1/tau` would change rounding.
//! * Permanent traps are **not** partitioned into a separate segment
//!   (that would reorder the `delta_vth` summation); instead the bank
//!   stores an *effective* emission time constant of `f64::INFINITY`
//!   for them, which makes `emission_mult / tau_e` an exact `0.0` —
//!   the same value the scalar path's `if permanent` branch produces —
//!   while keeping the inner loop branch-free on that axis.
//! * Each per-trap step performs the same guards in the same order as
//!   [`Trap::advance`]: zero total rate and infinite `tau` freeze the
//!   trap, the relaxation uses `exp(-dt / tau)` (not `exp(-dt * rate)`),
//!   and the result is clamped to `[0, 1]` exactly as before.
//! * Reductions accumulate in trap index order, so sums match the old
//!   sequential iterator passes to the last ulp.
//! * The cached step recomputes `p∞` exactly as
//!   [`PhaseRates::relaxation`] does and multiplies by the very factor
//!   `advance_range` would compute for the same `dt`, so it is
//!   bit-identical to `advance_range`; frozen traps are marked by a
//!   negative factor, which `exp` never yields, instead of re-deriving τ.

use serde::{Deserialize, Serialize};
use selfheal_units::{Millivolts, Seconds};

use crate::condition::DeviceCondition;

use super::kinetics::EnvironmentRates;
use super::trap::Trap;

/// Bump when the kernel's arithmetic or layout changes meaning.
///
/// Result-cache namespaces that store kernel-derived outputs (fabric
/// surveys, per-chip experiment runs) use this as their version, so a
/// kernel rewrite orphans stale entries instead of replaying them.
pub const KERNEL_VERSION: u32 = 3;

/// The decay factor [`TrapBank::fill_decays`] stores for a frozen trap
/// (infinite τ). `exp` never yields a negative number, so the marker
/// cannot collide with a live trap's factor, NaN included.
const FROZEN_DECAY: f64 = -1.0;

/// Fixed chunk width of the advance kernels, in traps.
///
/// The hot loops process the SoA columns in blocks of this many lanes
/// (one AVX-512 register of `f64`, two AVX2 registers) with a scalar
/// tail, so the per-lane divisions and multiplies autovectorize while
/// the reductions still accumulate in strict trap-index order. Exposed
/// so the equivalence tests can pin the chunk-boundary sizes
/// (`LANES − 1`, `LANES`, `LANES + 1`) explicitly.
pub const LANES: usize = 8;

/// The two condition-dependent rate multipliers, evaluated once per
/// phase instead of once per trap.
///
/// A `PhaseRates` is a pure function of its [`DeviceCondition`]; holding
/// one fixed over a phase loop is exactly equivalent to re-deriving it
/// per trap, because the per-trap arithmetic
/// (`capture_mult / tau_c0`, `emission_mult / tau_e`) is unchanged.
///
/// # Examples
///
/// ```
/// use selfheal_bti::td::PhaseRates;
/// use selfheal_bti::{DeviceCondition, Environment};
/// use selfheal_units::{Celsius, Volts};
///
/// let cond = DeviceCondition::dc_stress(Environment::new(
///     Volts::new(1.2),
///     Celsius::new(110.0),
/// ));
/// let rates = PhaseRates::for_condition(cond);
/// assert!(rates.capture_multiplier() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseRates {
    cond: DeviceCondition,
    capture_mult: f64,
    emission_mult: f64,
}

impl PhaseRates {
    /// Evaluates both rate multipliers for `cond`. To price many duties
    /// under one environment, evaluate its [`EnvironmentRates`] once
    /// and call [`EnvironmentRates::rates`] per duty instead: the
    /// multipliers are bit-identical.
    #[must_use]
    pub fn for_condition(cond: DeviceCondition) -> PhaseRates {
        EnvironmentRates::for_condition(cond).rates(cond.stress_duty())
    }

    /// Assembles rates from multipliers [`EnvironmentRates`] evaluated.
    pub(super) fn from_multipliers(
        cond: DeviceCondition,
        capture_mult: f64,
        emission_mult: f64,
    ) -> PhaseRates {
        PhaseRates {
            cond,
            capture_mult,
            emission_mult,
        }
    }

    /// The condition these rates were evaluated for.
    #[must_use]
    pub fn condition(&self) -> DeviceCondition {
        self.cond
    }

    /// The capture-rate multiplier (duty, field, and temperature).
    #[must_use]
    pub fn capture_multiplier(&self) -> f64 {
        self.capture_mult
    }

    /// The emission-rate multiplier (thermal speedup and field).
    #[must_use]
    pub fn emission_multiplier(&self) -> f64 {
        self.emission_mult
    }

    /// The equilibrium occupancy and relaxation time constant for a trap
    /// with the given time constants under these rates.
    ///
    /// This is the arithmetic core shared by the scalar path
    /// ([`super::kinetics::occupancy_relaxation`] delegates here) and
    /// the bank kernel, so there is exactly one place the rate math
    /// lives. Always inlined: with four kernels sharing it, an outlined
    /// call per trap would cost more than the arithmetic.
    #[must_use]
    #[inline(always)]
    pub fn relaxation(&self, tau_c0: f64, tau_e0: f64) -> (f64, f64) {
        let (capture_rate, total_rate) = self.capture_and_total(tau_c0, tau_e0);
        if total_rate <= 0.0 {
            // Fully frozen: nothing drives the trap in either direction.
            return (0.0, f64::INFINITY);
        }
        (capture_rate / total_rate, 1.0 / total_rate)
    }

    /// The capture rate and the total (capture + emission) rate of a
    /// trap under these rates: the first half of
    /// [`relaxation`](Self::relaxation).
    #[inline(always)]
    fn capture_and_total(&self, tau_c0: f64, tau_e0: f64) -> (f64, f64) {
        let capture_rate = self.capture_mult / tau_c0;
        let emission_rate = self.emission_mult / tau_e0;
        (capture_rate, capture_rate + emission_rate)
    }
}

/// A tiny memo table of [`PhaseRates`] keyed by condition, for a
/// handful of conditions.
///
/// An FPGA element's advance fans one environment out into at most a
/// handful of distinct conditions (stressed, recovering, and a toggling
/// duty or two), so a linear scan over a small vector beats any hashing —
/// especially since [`DeviceCondition`] carries floats and has no `Eq`.
/// The scan is linear in the conditions seen, so it does not suit many
/// distinct duties: a fleet, where every chip reports its own, evaluates
/// [`EnvironmentRates`] once per epoch and derives each duty's rates
/// from them instead.
#[derive(Debug, Clone, Default)]
pub struct PhaseRateCache {
    entries: Vec<PhaseRates>,
}

impl PhaseRateCache {
    /// An empty cache; rates populate on first use.
    #[must_use]
    pub fn new() -> PhaseRateCache {
        PhaseRateCache {
            entries: Vec::new(),
        }
    }

    /// The rates for `cond`, evaluating them on first sight.
    pub fn rates(&mut self, cond: DeviceCondition) -> PhaseRates {
        if let Some(hit) = self.entries.iter().find(|r| r.cond == cond) {
            return *hit;
        }
        let rates = PhaseRates::for_condition(cond);
        self.entries.push(rates);
        rates
    }

    /// How many distinct conditions this cache has evaluated.
    #[must_use]
    pub fn distinct_conditions(&self) -> usize {
        self.entries.len()
    }
}

/// Occupancy mass before and after an [`TrapBank::advance_all`] step.
///
/// Both sums accumulate in trap index order during the advance itself,
/// which is what lets ensemble telemetry report capture/emission deltas
/// without the two extra full-ensemble scans the old path paid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdvanceStats {
    /// Sum of occupancies entering the step.
    pub occupied_before: f64,
    /// Sum of occupancies leaving the step.
    pub occupied_after: f64,
}

/// The fused single-pass reduction over a bank's state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BankSummary {
    /// Total threshold-voltage shift: Σ occupancy · step.
    pub delta_vth: Millivolts,
    /// The permanent-trap share of [`Self::delta_vth`].
    pub permanent_delta_vth: Millivolts,
    /// Expected number of occupied traps: Σ occupancy.
    pub expected_occupied: f64,
}

/// An ensemble's traps in structure-of-arrays layout.
///
/// Parallel flat arrays keep the advance kernel's loads contiguous and
/// auto-vectorizable; [`Trap`] values are materialized on demand for
/// iteration and serialization. See the module docs for the layout
/// decisions the bit-exactness contract forces.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TrapBank {
    /// Capture time constants at reference stress (s).
    tau_c0: Vec<f64>,
    /// *Effective* emission time constants (s): the sampled value for
    /// recoverable traps, `f64::INFINITY` for permanent ones.
    tau_e: Vec<f64>,
    /// Per-trap ΔVth contribution when occupied (mV).
    step_mv: Vec<f64>,
    /// Whether each trap's capture is permanent (never emits).
    permanent: Vec<bool>,
    /// The sampled emission time constants (s) of the permanent traps
    /// only, in trap order, kept for round-tripping [`Trap`] values out
    /// of the bank. A recoverable trap's sampled constant is its
    /// `tau_e` entry, so only the ~5 % permanent traps need a copy.
    permanent_tau_e0: Vec<f64>,
    /// Current capture probability of each trap, in `[0, 1]`.
    occupancy: Vec<f64>,
}

impl TrapBank {
    /// An empty bank.
    #[must_use]
    pub fn new() -> TrapBank {
        TrapBank::default()
    }

    /// Builds a bank from materialized traps, preserving order. Every
    /// column is allocated at its exact final size.
    #[must_use]
    pub fn from_traps(traps: &[Trap]) -> TrapBank {
        let n = traps.len();
        let permanent = traps.iter().filter(|trap| trap.is_permanent()).count();
        let mut bank = TrapBank {
            tau_c0: Vec::with_capacity(n),
            tau_e: Vec::with_capacity(n),
            step_mv: Vec::with_capacity(n),
            permanent: Vec::with_capacity(n),
            permanent_tau_e0: Vec::with_capacity(permanent),
            occupancy: Vec::with_capacity(n),
        };
        for trap in traps {
            bank.push(*trap);
        }
        bank
    }

    /// Appends one trap to the bank.
    pub fn push(&mut self, trap: Trap) {
        self.tau_c0.push(trap.tau_c0().get());
        // `tau_e0()` already applies the permanent-trap freeze (INFINITY),
        // which is what makes the advance kernel branch-free on that axis.
        self.tau_e.push(trap.tau_e0().get());
        if trap.is_permanent() {
            self.permanent_tau_e0.push(trap.tau_e0_raw().get());
        }
        self.step_mv.push(trap.delta_vth_step().get());
        self.permanent.push(trap.is_permanent());
        self.occupancy.push(trap.occupancy());
    }

    /// Number of traps in the bank.
    #[must_use]
    pub fn len(&self) -> usize {
        self.occupancy.len()
    }

    /// Traps the bank is sure to hold without reallocating: the smallest
    /// capacity among its per-trap columns, and no more than the
    /// permanent-trap side vector's spare room allows were every further
    /// trap permanent. A bank with no spare room anywhere reports
    /// exactly its [`len`](TrapBank::len).
    #[must_use]
    pub fn capacity(&self) -> usize {
        let side_spare = self.permanent_tau_e0.capacity() - self.permanent_tau_e0.len();
        [
            self.tau_c0.capacity(),
            self.tau_e.capacity(),
            self.step_mv.capacity(),
            self.permanent.capacity(),
            self.occupancy.capacity(),
            self.len() + side_spare,
        ]
        .into_iter()
        .min()
        .unwrap_or(0)
    }

    /// Whether the bank holds no traps.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.occupancy.is_empty()
    }

    /// Materializes trap `index`, or `None` past the end.
    ///
    /// A permanent trap's sampled emission constant sits in the side
    /// vector at its rank among the permanent traps, which costs a scan
    /// of the `permanent` flags before it; walk whole ranges with
    /// [`iter_range`](TrapBank::iter_range) instead.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<Trap> {
        self.iter_range(index..index.saturating_add(1)).next()
    }

    /// Iterates the bank as materialized [`Trap`] values, in order.
    #[must_use]
    pub fn iter(&self) -> TrapIter<'_> {
        self.iter_range(0..self.len())
    }

    /// Iterates the traps in `range` as materialized [`Trap`] values, in
    /// order: one scan of the `permanent` flags before the range, then
    /// O(1) per trap. A range reaching past the bank stops at its end.
    #[must_use]
    pub fn iter_range(&self, range: std::ops::Range<usize>) -> TrapIter<'_> {
        let end = range.end.min(self.len());
        let index = range.start.min(end);
        let permanent_seen = self.permanent[..index].iter().filter(|&&p| p).count();
        TrapIter {
            bank: self,
            index,
            end,
            permanent_seen,
        }
    }

    /// Advances every trap by `dt` under pre-evaluated rates.
    ///
    /// This is the hot kernel: one division pair, one `exp`, and a
    /// clamp per trap — the transcendentals in the rate multipliers are
    /// already paid for in `rates`. The loop runs in [`LANES`]-wide
    /// chunks (plus a scalar tail) so the divisions and multiplies
    /// autovectorize; the occupancy sums entering and leaving the step
    /// still accumulate in strict trap index order, so callers get the
    /// telemetry deltas for free *and* bit-identical to the old scalar
    /// accumulation.
    pub fn advance_all(&mut self, rates: &PhaseRates, dt: Seconds) -> AdvanceStats {
        self.advance_range(0..self.occupancy.len(), rates, dt)
    }

    /// Advances the traps in `range` by `dt` under pre-evaluated rates,
    /// leaving every trap outside the range untouched.
    ///
    /// This is the shard-level entry point: a fleet shard stores many
    /// chips' traps contiguously in one bank and advances each chip's
    /// slice under that chip's own condition. The per-trap arithmetic is
    /// exactly [`advance_all`](TrapBank::advance_all)'s (they share the
    /// chunked span kernel), so advancing a bank chip-range by
    /// chip-range under one shared condition is bit-identical to one
    /// whole-bank advance — except that the [`AdvanceStats`] sums cover
    /// only the range.
    ///
    /// # Panics
    ///
    /// Panics if `range` ends past the bank.
    pub fn advance_range(
        &mut self,
        range: std::ops::Range<usize>,
        rates: &PhaseRates,
        dt: Seconds,
    ) -> AdvanceStats {
        assert!(range.end <= self.occupancy.len(), "range out of bounds");
        // A reversed range advances nothing, like the loop it replaced.
        let start = range.start.min(range.end);
        let end = range.end;
        // Accumulators start at -0.0 to match `Iterator::sum::<f64>()`,
        // which the scalar path these replaced folded from; the two
        // starts differ only in the sign bit of an empty bank's sum.
        let mut occupied_before = -0.0;
        let mut occupied_after = -0.0;
        if dt.is_zero_or_negative() {
            // Frozen step: both sums walk the unchanged occupancies.
            for i in start..end {
                let p = self.occupancy[i];
                occupied_before += p;
                occupied_after += p;
            }
        } else {
            advance_span(
                &self.tau_c0[start..end],
                &self.tau_e[start..end],
                &mut self.occupancy[start..end],
                rates,
                -dt.get(),
                &mut occupied_before,
                &mut occupied_after,
            );
        }
        AdvanceStats {
            occupied_before,
            occupied_after,
        }
    }

    /// Writes each trap's one-step decay factor `exp(−dt/τ)` under
    /// `rates` for the traps in `range` into `out`: the `exp` half of an
    /// [`advance_range`](TrapBank::advance_range) step, which depends only
    /// on the rates and the step length, never on occupancy. A frozen
    /// trap (infinite τ) gets a negative factor, which tells
    /// [`advance_range_cached`](TrapBank::advance_range_cached) to leave
    /// it untouched without re-deriving τ.
    ///
    /// # Panics
    ///
    /// Panics if `range` ends past the bank, if `out` is not exactly
    /// `range.len()` long, or if `dt` is not positive — a non-positive
    /// step is a frozen no-op that no decay factor reproduces.
    pub fn fill_decays(
        &self,
        range: std::ops::Range<usize>,
        rates: &PhaseRates,
        dt: Seconds,
        out: &mut [f64],
    ) {
        assert!(range.end <= self.occupancy.len(), "range out of bounds");
        assert_eq!(out.len(), range.len(), "one decay per trap in range");
        assert!(!dt.is_zero_or_negative(), "decays need a positive step");
        let neg_dt = -dt.get();
        let tau_c0 = &self.tau_c0[range.clone()];
        let tau_e = &self.tau_e[range];
        for ((decay, &tau_c0), &tau_e) in out.iter_mut().zip(tau_c0).zip(tau_e) {
            let (_, tau) = rates.relaxation(tau_c0, tau_e);
            *decay = if tau.is_infinite() {
                FROZEN_DECAY
            } else {
                (neg_dt / tau).exp()
            };
        }
    }

    /// Advances the traps in `range` by one step whose decay factors were
    /// precomputed by [`fill_decays`](TrapBank::fill_decays) under the
    /// same `rates`: `clamp(p∞ + (p − p∞)·decay, 0, 1)`, with `p∞`
    /// recomputed by [`PhaseRates::relaxation`]'s arithmetic and frozen
    /// traps (negative decay) left untouched.
    ///
    /// Under a fixed condition a step is a fixed affine map per trap, so
    /// a caller that repeats the same step (a fleet epoch) pays the `exp`
    /// and the `1/total` division once and then three divisions per trap
    /// and step. Occupancies and
    /// [`AdvanceStats`] are bit-identical to `advance_range(range, rates,
    /// dt)` with the `dt` the decays were filled for.
    ///
    /// # Panics
    ///
    /// Panics if `range` ends past the bank or `decays` is not exactly
    /// `range.len()` long.
    pub fn advance_range_cached(
        &mut self,
        range: std::ops::Range<usize>,
        rates: &PhaseRates,
        decays: &[f64],
    ) -> AdvanceStats {
        assert!(range.end <= self.occupancy.len(), "range out of bounds");
        assert_eq!(decays.len(), range.len(), "one decay per trap in range");
        let tau_c0 = &self.tau_c0[range.clone()];
        let tau_e = &self.tau_e[range.clone()];
        let occupancy = &mut self.occupancy[range];
        // -0.0 starts for `Iterator::sum` parity — see `advance_range`.
        let mut occupied_before = -0.0;
        let mut occupied_after = -0.0;
        let step = |p: f64, tau_c0: f64, tau_e: f64, decay: f64| {
            // A live trap has a positive total rate, so this is exactly
            // `relaxation`'s p∞; a frozen one discards it.
            let (capture_rate, total_rate) = rates.capture_and_total(tau_c0, tau_e);
            let p_inf = capture_rate / total_rate;
            if decay < 0.0 {
                p
            } else {
                (p_inf + (p - p_inf) * decay).clamp(0.0, 1.0)
            }
        };
        // Fixed-size lane blocks carry no bounds checks, so the lanes'
        // divisions vectorize; sums still accumulate in trap order.
        let (occ_blocks, occ_tail) = occupancy.as_chunks_mut::<LANES>();
        let (tc_blocks, tc_tail) = tau_c0.as_chunks::<LANES>();
        let (te_blocks, te_tail) = tau_e.as_chunks::<LANES>();
        let (decay_blocks, decay_tail) = decays.as_chunks::<LANES>();
        for (((occ, tc), te), decay) in occ_blocks
            .iter_mut()
            .zip(tc_blocks)
            .zip(te_blocks)
            .zip(decay_blocks)
        {
            let mut next = [0.0f64; LANES];
            for j in 0..LANES {
                next[j] = step(occ[j], tc[j], te[j], decay[j]);
            }
            for j in 0..LANES {
                occupied_before += occ[j];
                occupied_after += next[j];
            }
            *occ = next;
        }
        for (((p, &tc), &te), &decay) in occ_tail
            .iter_mut()
            .zip(tc_tail)
            .zip(te_tail)
            .zip(decay_tail)
        {
            occupied_before += *p;
            *p = step(*p, tc, te, decay);
            occupied_after += *p;
        }
        AdvanceStats {
            occupied_before,
            occupied_after,
        }
    }

    /// Advances every trap through a whole batch of phases in **one**
    /// traversal of the bank.
    ///
    /// Sequential [`advance_all`](TrapBank::advance_all) calls walk the
    /// SoA columns once per phase; past L2-sized banks every walk pays
    /// full memory traffic, which is the 100k-trap cache cliff. Here
    /// each [`LANES`]-sized chunk is carried through *all* phases while
    /// hot in cache, so the traffic is paid once per batch. Per-trap
    /// evolution is independent and the per-phase arithmetic is exactly
    /// `advance_all`'s, so the resulting occupancies are bit-identical
    /// to issuing the phases one at a time (pinned in
    /// `tests/kernel_equivalence.rs`). Zero-length phases are frozen
    /// no-ops, exactly as in `advance_all`.
    ///
    /// The returned stats sum the occupancies entering the first phase
    /// and leaving the last, both in trap index order — the same values
    /// the first and last call of the equivalent `advance_all` sequence
    /// report.
    pub fn advance_phases(&mut self, phases: &[(PhaseRates, Seconds)]) -> AdvanceStats {
        let steps: Vec<(PhaseRates, f64)> = phases
            .iter()
            .filter(|(_, dt)| !dt.is_zero_or_negative())
            .map(|&(rates, dt)| (rates, -dt.get()))
            .collect();
        // -0.0 starts for `Iterator::sum` parity — see `advance_all`.
        let mut occupied_before = -0.0;
        let mut occupied_after = -0.0;
        let n = self.occupancy.len();
        let whole = n - n % LANES;
        let mut i = 0;
        while i < whole {
            for j in 0..LANES {
                occupied_before += self.occupancy[i + j];
            }
            for &(ref rates, neg_dt) in &steps {
                let mut next = [0.0f64; LANES];
                for j in 0..LANES {
                    let p = self.occupancy[i + j];
                    let (p_inf, tau) = rates.relaxation(self.tau_c0[i + j], self.tau_e[i + j]);
                    next[j] = if tau.is_infinite() {
                        p
                    } else {
                        let decay = (neg_dt / tau).exp();
                        (p_inf + (p - p_inf) * decay).clamp(0.0, 1.0)
                    };
                }
                self.occupancy[i..i + LANES].copy_from_slice(&next);
            }
            for j in 0..LANES {
                occupied_after += self.occupancy[i + j];
            }
            i += LANES;
        }
        for k in whole..n {
            let p = self.occupancy[k];
            occupied_before += p;
            let mut value = p;
            for &(ref rates, neg_dt) in &steps {
                let (p_inf, tau) = rates.relaxation(self.tau_c0[k], self.tau_e[k]);
                if !tau.is_infinite() {
                    let decay = (neg_dt / tau).exp();
                    value = (p_inf + (value - p_inf) * decay).clamp(0.0, 1.0);
                }
            }
            self.occupancy[k] = value;
            occupied_after += value;
        }
        AdvanceStats {
            occupied_before,
            occupied_after,
        }
    }

    /// All three ensemble reductions in one ordered pass.
    ///
    /// Replaces the three separate iterator scans (`delta_vth`,
    /// `permanent_delta_vth`, `expected_occupied`) the AoS layout
    /// required; each sum accumulates in trap index order, so the
    /// results are bit-identical to the old sequential passes.
    #[must_use]
    pub fn summary(&self) -> BankSummary {
        // -0.0 starts for `Iterator::sum` parity — see `advance_all`.
        let mut delta_vth_mv = -0.0;
        let mut permanent_delta_vth_mv = -0.0;
        let mut expected_occupied = -0.0;
        for i in 0..self.occupancy.len() {
            let contribution = self.occupancy[i] * self.step_mv[i];
            delta_vth_mv += contribution;
            if self.permanent[i] {
                permanent_delta_vth_mv += contribution;
            }
            expected_occupied += self.occupancy[i];
        }
        BankSummary {
            delta_vth: Millivolts::new(delta_vth_mv),
            permanent_delta_vth: Millivolts::new(permanent_delta_vth_mv),
            expected_occupied,
        }
    }

    /// The [`summary`](TrapBank::summary) reductions restricted to the
    /// traps in `range` — per-chip aggregates out of a shard bank
    /// without materializing the chip's traps.
    ///
    /// # Panics
    ///
    /// Panics if `range` ends past the bank.
    #[must_use]
    pub fn summary_range(&self, range: std::ops::Range<usize>) -> BankSummary {
        assert!(range.end <= self.occupancy.len(), "range out of bounds");
        // -0.0 starts for `Iterator::sum` parity — see `advance_all`.
        let mut delta_vth_mv = -0.0;
        let mut permanent_delta_vth_mv = -0.0;
        let mut expected_occupied = -0.0;
        for i in range {
            let contribution = self.occupancy[i] * self.step_mv[i];
            delta_vth_mv += contribution;
            if self.permanent[i] {
                permanent_delta_vth_mv += contribution;
            }
            expected_occupied += self.occupancy[i];
        }
        BankSummary {
            delta_vth: Millivolts::new(delta_vth_mv),
            permanent_delta_vth: Millivolts::new(permanent_delta_vth_mv),
            expected_occupied,
        }
    }

    /// Raw occupancy slice, in trap order — the checkpointable mutable
    /// state of a bank (everything else is fixed at sampling time).
    #[must_use]
    pub fn occupancies(&self) -> &[f64] {
        &self.occupancy
    }

    /// Overwrites the bank's occupancies wholesale (checkpoint restore).
    ///
    /// # Panics
    ///
    /// Panics when the lengths disagree — a checkpoint for a different
    /// bank must never be spliced in silently.
    pub fn restore_occupancies(&mut self, occupancies: &[f64]) {
        assert_eq!(
            occupancies.len(),
            self.occupancy.len(),
            "occupancy snapshot length must match the bank"
        );
        self.occupancy.copy_from_slice(occupancies);
    }

    /// Empties every trap (fresh-device state).
    pub fn reset(&mut self) {
        for p in &mut self.occupancy {
            *p = 0.0;
        }
    }
}

/// The chunked hot loop shared by [`TrapBank::advance_all`] and
/// [`TrapBank::advance_range`]: [`LANES`]-wide blocks over the SoA
/// column slices with a scalar tail.
///
/// Each block first evaluates every lane's next occupancy (the lanes
/// are independent, so the divisions, multiplies and clamps
/// autovectorize), then accumulates the before/after sums and stores
/// the results in strict trap index order — bit-identical to the scalar
/// loop this replaced, whose accumulation order the `AdvanceStats`
/// contract pins.
#[allow(clippy::too_many_arguments)]
fn advance_span(
    tau_c0: &[f64],
    tau_e: &[f64],
    occupancy: &mut [f64],
    rates: &PhaseRates,
    neg_dt: f64,
    occupied_before: &mut f64,
    occupied_after: &mut f64,
) {
    let n = occupancy.len();
    let whole = n - n % LANES;
    let mut i = 0;
    while i < whole {
        let mut next = [0.0f64; LANES];
        for j in 0..LANES {
            let p = occupancy[i + j];
            let (p_inf, tau) = rates.relaxation(tau_c0[i + j], tau_e[i + j]);
            next[j] = if tau.is_infinite() {
                p
            } else {
                let decay = (neg_dt / tau).exp();
                (p_inf + (p - p_inf) * decay).clamp(0.0, 1.0)
            };
        }
        for j in 0..LANES {
            *occupied_before += occupancy[i + j];
            *occupied_after += next[j];
            occupancy[i + j] = next[j];
        }
        i += LANES;
    }
    for k in whole..n {
        let p = occupancy[k];
        *occupied_before += p;
        let (p_inf, tau) = rates.relaxation(tau_c0[k], tau_e[k]);
        if !tau.is_infinite() {
            let decay = (neg_dt / tau).exp();
            let next = (p_inf + (p - p_inf) * decay).clamp(0.0, 1.0);
            occupancy[k] = next;
            *occupied_after += next;
        } else {
            *occupied_after += p;
        }
    }
}

impl<'a> IntoIterator for &'a TrapBank {
    type Item = Trap;
    type IntoIter = TrapIter<'a>;

    fn into_iter(self) -> TrapIter<'a> {
        self.iter()
    }
}

/// Iterator over a [`TrapBank`], materializing [`Trap`] values.
#[derive(Debug, Clone)]
pub struct TrapIter<'a> {
    bank: &'a TrapBank,
    index: usize,
    end: usize,
    /// Permanent traps before `index`: the cursor into the side vector.
    permanent_seen: usize,
}

impl Iterator for TrapIter<'_> {
    type Item = Trap;

    fn next(&mut self) -> Option<Trap> {
        if self.index >= self.end {
            return None;
        }
        let bank = self.bank;
        let i = self.index;
        let tau_e0 = if bank.permanent[i] {
            self.permanent_seen += 1;
            bank.permanent_tau_e0[self.permanent_seen - 1]
        } else {
            bank.tau_e[i]
        };
        self.index += 1;
        Some(Trap::restore(
            Seconds::new(bank.tau_c0[i]),
            Seconds::new(tau_e0),
            Millivolts::new(bank.step_mv[i]),
            bank.permanent[i],
            bank.occupancy[i],
        ))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.end - self.index;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for TrapIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Environment;
    use crate::td::kinetics::{capture_rate_multiplier, emission_rate_multiplier};
    use selfheal_units::{Celsius, Millivolts, Volts};

    fn stress() -> DeviceCondition {
        DeviceCondition::dc_stress(Environment::new(Volts::new(1.2), Celsius::new(110.0)))
    }

    fn recovery() -> DeviceCondition {
        DeviceCondition::recovery(Environment::new(Volts::new(-0.3), Celsius::new(110.0)))
    }

    fn sample_traps() -> Vec<Trap> {
        vec![
            Trap::new(Seconds::new(10.0), Seconds::new(1e4), Millivolts::new(0.2), false),
            Trap::new(Seconds::new(1e3), Seconds::new(50.0), Millivolts::new(0.1), true),
            Trap::new(Seconds::new(0.5), Seconds::new(f64::INFINITY), Millivolts::new(0.3), false),
        ]
    }

    #[test]
    fn phase_rates_match_kinetics_functions() {
        let cond = stress();
        let rates = PhaseRates::for_condition(cond);
        assert_eq!(rates.capture_multiplier(), capture_rate_multiplier(cond));
        assert_eq!(rates.emission_multiplier(), emission_rate_multiplier(cond));
    }

    #[test]
    fn rate_cache_evaluates_each_condition_once() {
        let mut cache = PhaseRateCache::new();
        let a = cache.rates(stress());
        let b = cache.rates(recovery());
        let a2 = cache.rates(stress());
        assert_eq!(cache.distinct_conditions(), 2);
        assert_eq!(a, a2);
        assert_ne!(a.capture_multiplier(), b.capture_multiplier());
    }

    #[test]
    fn bank_round_trips_traps() {
        let traps = sample_traps();
        let bank = TrapBank::from_traps(&traps);
        assert_eq!(bank.len(), traps.len());
        let back: Vec<Trap> = bank.iter().collect();
        assert_eq!(back, traps);
    }

    /// Permanent traps keep their sampled emission constant in the side
    /// vector; every way out of the bank must still materialise the
    /// exact traps that went in, the `τe = ∞` recoverable trap included.
    #[test]
    fn permanent_traps_materialise_exactly() {
        let traps: Vec<Trap> = (0..7)
            .flat_map(|i| {
                let mut chip = sample_traps();
                chip.push(Trap::restore(
                    Seconds::new(1e5),
                    Seconds::new(f64::from(i) + 2.5),
                    Millivolts::new(0.4),
                    true,
                    0.5,
                ));
                let shift = i as usize % chip.len();
                chip.rotate_left(shift);
                chip
            })
            .collect();
        let bank = TrapBank::from_traps(&traps);
        assert_eq!(bank.iter().collect::<Vec<_>>(), traps);
        for (i, trap) in traps.iter().enumerate() {
            assert_eq!(bank.get(i), Some(*trap), "trap {i}");
        }
        assert_eq!(bank.get(traps.len()), None);
        assert_eq!(bank.iter_range(5..13).collect::<Vec<_>>(), traps[5..13]);
        assert_eq!(bank.iter_range(20..usize::MAX).len(), traps.len() - 20);
    }

    #[test]
    fn from_traps_sizes_every_column_exactly() {
        let traps = sample_traps();
        let bank = TrapBank::from_traps(&traps);
        assert_eq!(bank.permanent_tau_e0.len(), 1);
        assert_eq!(bank.permanent_tau_e0.capacity(), 1);
        assert_eq!(bank.capacity(), bank.len());
        // Spare room in the side vector bounds the capacity too.
        let mut roomy = bank.clone();
        roomy.tau_c0.reserve(64);
        roomy.tau_e.reserve(64);
        roomy.step_mv.reserve(64);
        roomy.permanent.reserve(64);
        roomy.occupancy.reserve(64);
        let side_spare = roomy.permanent_tau_e0.capacity() - roomy.permanent_tau_e0.len();
        assert_eq!(roomy.capacity(), roomy.len() + side_spare);
    }

    /// The τ grid of `tests/kernel_equivalence.rs`: denormal-adjacent to
    /// `f64::MAX` capture constants, `tau_e0 = ∞` emitters, permanent and
    /// recoverable, so the frozen branches (zero total rate, infinite τ)
    /// are all present.
    fn tau_grid_traps(occupancy_seed: f64) -> Vec<Trap> {
        let mut traps = Vec::new();
        for &tau_c0 in &[1e-300, 1e-12, 1.0, 1e12, 1e300, f64::MAX] {
            for &tau_e0 in &[1e-12, 1.0, 1e12, f64::INFINITY] {
                for permanent in [false, true] {
                    #[allow(clippy::cast_precision_loss)]
                    let occupancy =
                        (occupancy_seed + traps.len() as f64 * 0.618_033_988_749_895).fract();
                    traps.push(Trap::restore(
                        Seconds::new(tau_c0),
                        Seconds::new(tau_e0),
                        Millivolts::new(0.35),
                        permanent,
                        occupancy,
                    ));
                }
            }
        }
        traps
    }

    #[test]
    fn cached_advance_matches_advance_range_bitwise() {
        let ac = DeviceCondition::ac_stress(Environment::new(Volts::new(1.2), Celsius::new(110.0)));
        let frozen =
            DeviceCondition::recovery(Environment::new(Volts::new(0.0), Celsius::new(20.0)));
        let traps = tau_grid_traps(0.25);
        let mut grid_slots = 0;
        for cond in [stress(), recovery(), ac, frozen] {
            let rates = PhaseRates::for_condition(cond);
            for dt in [1e-9, 1.0, 3600.0, 1e9] {
                let dt = Seconds::new(dt);
                for len in [0, 1, LANES - 1, LANES, LANES + 1, traps.len() - 3] {
                    for start in [0, 3] {
                        let range = start..start + len;
                        let mut want = TrapBank::from_traps(&traps);
                        let mut got = want.clone();
                        let mut decays = vec![0.0; len];
                        got.fill_decays(range.clone(), &rates, dt, &mut decays);
                        // Two steps: the cached factors are reused as-is.
                        for step in 0..2 {
                            let want_stats = want.advance_range(range.clone(), &rates, dt);
                            let got_stats =
                                got.advance_range_cached(range.clone(), &rates, &decays);
                            let context =
                                format!("{cond:?} dt={dt} len={len} start={start} step={step}");
                            for (i, (w, g)) in
                                want.occupancies().iter().zip(got.occupancies()).enumerate()
                            {
                                assert_eq!(w.to_bits(), g.to_bits(), "{context}: trap {i}");
                            }
                            assert_eq!(
                                want_stats.occupied_before.to_bits(),
                                got_stats.occupied_before.to_bits(),
                                "{context}"
                            );
                            assert_eq!(
                                want_stats.occupied_after.to_bits(),
                                got_stats.occupied_after.to_bits(),
                                "{context}"
                            );
                        }
                        grid_slots += decays.iter().filter(|&&d| d < 0.0).count();
                    }
                }
            }
        }
        assert!(grid_slots > 0, "the grid must exercise frozen traps");
    }

    #[test]
    fn advance_all_matches_scalar_trap_advance() {
        let mut traps = sample_traps();
        let mut bank = TrapBank::from_traps(&traps);
        let dt = Seconds::new(3600.0);
        for cond in [stress(), recovery()] {
            let rates = PhaseRates::for_condition(cond);
            for trap in &mut traps {
                trap.advance(cond, dt);
            }
            bank.advance_all(&rates, dt);
            for (i, trap) in traps.iter().enumerate() {
                let got = bank.get(i).expect("in range").occupancy();
                assert_eq!(got.to_bits(), trap.occupancy().to_bits());
            }
        }
    }

    #[test]
    fn advance_stats_are_ordered_occupancy_sums() {
        let mut bank = TrapBank::from_traps(&sample_traps());
        let rates = PhaseRates::for_condition(stress());
        let before: f64 = bank.iter().map(|t| t.occupancy()).sum();
        let stats = bank.advance_all(&rates, Seconds::new(60.0));
        let after: f64 = bank.iter().map(|t| t.occupancy()).sum();
        assert_eq!(stats.occupied_before.to_bits(), before.to_bits());
        assert_eq!(stats.occupied_after.to_bits(), after.to_bits());
    }

    #[test]
    fn zero_dt_is_a_frozen_step() {
        let mut bank = TrapBank::from_traps(&sample_traps());
        let rates = PhaseRates::for_condition(stress());
        bank.advance_all(&rates, Seconds::new(3600.0));
        let snapshot = bank.clone();
        let stats = bank.advance_all(&rates, Seconds::new(0.0));
        assert_eq!(bank, snapshot);
        assert_eq!(stats.occupied_before, stats.occupied_after);
    }

    #[test]
    fn summary_matches_separate_passes() {
        let mut bank = TrapBank::from_traps(&sample_traps());
        bank.advance_all(&PhaseRates::for_condition(stress()), Seconds::new(3600.0));
        let summary = bank.summary();
        let delta: f64 = bank.iter().map(|t| t.contribution().get()).sum();
        let permanent: f64 = bank
            .iter()
            .filter(Trap::is_permanent)
            .map(|t| t.contribution().get())
            .sum();
        let occupied: f64 = bank.iter().map(|t| t.occupancy()).sum();
        assert_eq!(summary.delta_vth.get().to_bits(), delta.to_bits());
        assert_eq!(summary.permanent_delta_vth.get().to_bits(), permanent.to_bits());
        assert_eq!(summary.expected_occupied.to_bits(), occupied.to_bits());
    }

    #[test]
    fn ranged_advance_composes_to_whole_bank_advance() {
        let traps: Vec<Trap> = (0..3).flat_map(|_| sample_traps()).collect();
        let mut whole = TrapBank::from_traps(&traps);
        let mut ranged = whole.clone();
        let rates = PhaseRates::for_condition(stress());
        let dt = Seconds::new(3600.0);
        let stats = whole.advance_all(&rates, dt);
        let mut before = -0.0;
        let mut after = -0.0;
        for chip in 0..3 {
            let s = ranged.advance_range(chip * 3..(chip + 1) * 3, &rates, dt);
            before += s.occupied_before;
            after += s.occupied_after;
        }
        assert_eq!(whole, ranged);
        // Chunked sums re-associate, so compare to a tolerance; the
        // occupancies themselves are bit-identical (asserted above).
        assert!((stats.occupied_before - before).abs() < 1e-12);
        assert!((stats.occupied_after - after).abs() < 1e-12);
    }

    #[test]
    fn ranged_advance_leaves_outside_traps_untouched() {
        let mut bank = TrapBank::from_traps(&sample_traps());
        let rates = PhaseRates::for_condition(stress());
        bank.advance_all(&rates, Seconds::new(3600.0));
        let snapshot = bank.clone();
        bank.advance_range(1..2, &rates, Seconds::new(600.0));
        for i in [0usize, 2] {
            let got = bank.get(i).expect("in range").occupancy();
            let want = snapshot.get(i).expect("in range").occupancy();
            assert_eq!(got.to_bits(), want.to_bits(), "trap {i} moved");
        }
    }

    #[test]
    fn summary_range_matches_sub_bank_summary() {
        let traps = sample_traps();
        let mut bank = TrapBank::from_traps(&traps);
        bank.advance_all(&PhaseRates::for_condition(stress()), Seconds::new(3600.0));
        let sub = TrapBank::from_traps(&bank.iter().skip(1).collect::<Vec<_>>());
        let want = sub.summary();
        let got = bank.summary_range(1..bank.len());
        assert_eq!(got.delta_vth.get().to_bits(), want.delta_vth.get().to_bits());
        assert_eq!(got.expected_occupied.to_bits(), want.expected_occupied.to_bits());
    }

    #[test]
    fn occupancy_snapshot_round_trips() {
        let mut bank = TrapBank::from_traps(&sample_traps());
        bank.advance_all(&PhaseRates::for_condition(stress()), Seconds::new(3600.0));
        let snapshot: Vec<f64> = bank.occupancies().to_vec();
        let aged = bank.clone();
        bank.reset();
        assert_ne!(bank, aged);
        bank.restore_occupancies(&snapshot);
        assert_eq!(bank, aged);
    }

    #[test]
    #[should_panic(expected = "occupancy snapshot length")]
    fn mismatched_snapshot_is_rejected() {
        let mut bank = TrapBank::from_traps(&sample_traps());
        bank.restore_occupancies(&[0.5]);
    }

    #[test]
    fn reset_empties_every_trap() {
        let mut bank = TrapBank::from_traps(&sample_traps());
        bank.advance_all(&PhaseRates::for_condition(stress()), Seconds::new(3600.0));
        bank.reset();
        assert_eq!(bank.summary().expected_occupied, 0.0);
    }
}
