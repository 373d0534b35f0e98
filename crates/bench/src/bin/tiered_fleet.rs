//! Fleet-scale macrobenchmark: full-resolution vs tiered epoch advance.
//!
//! Builds the same fleet twice — once untiered (every chip's trap slice
//! advanced every epoch) and once with the tiered analytic/trap
//! integrator — and times steady-state epoch advances at 100k and 1M
//! chips. After a short warm-up, most chips in the tiered fleet sit in
//! the cold tier, where an epoch costs one integer wake-check instead
//! of a trap-bank traversal; the ledger tracks the wall milliseconds
//! per epoch for both variants.
//!
//! Accuracy is *not* traded for this speed inside the benchmark's
//! margin: `tests/tiered_accuracy.rs` pins the tiered fleet within the
//! guard band of the full-resolution one, and the resume suite pins its
//! determinism. This bin only measures the wall-clock gap.
//!
//! At 100k chips it also checkpoints both aged fleets into a fresh store
//! and resumes them, recording the save and resume wall time and the
//! bytes on disk (`*_checkpoint_{save_ms,resume_ms,bytes}_100000`), and
//! times the full fleet's first epoch on its own
//! (`full_first_epoch_ms_100000`): the one that fills every shard's decay
//! cache, as after a build or a resume. It also times the full fleet's
//! build (`full_build_ms_100000`) and, once every chip has reported a
//! duty of its own, its steady-state epoch
//! (`full_ms_per_epoch_reported_100000`): an epoch's cost must not grow
//! with the report history.
//!
//! ```text
//! cargo run -p selfheal-bench --release --bin tiered_fleet -- --json
//! ```

use std::time::Instant;

use rand::Rng;
use selfheal_bench::{fmt, BenchRun, Table};
use selfheal_fleet::checkpoint;
use selfheal_fleet::{FleetConfig, FleetState};
use selfheal_runtime::{ResultCache, SeedSequence};
use selfheal_units::DutyCycle;

/// Fleet sizes swept, in chips.
const SIZES: [usize; 2] = [100_000, 1_000_000];
/// The size whose checkpoint save and resume are timed.
const CHECKPOINT_CHIPS: usize = 100_000;
/// Epochs run before the clock starts. Demotion itself converges within
/// the first dozen epochs, but early cold windows are short (demotion
/// rates are still high), so wake-rehydration traffic keeps falling for
/// a few dozen more as each re-demotion earns a longer window. Forty
/// epochs lands the timed window in that steady state.
const WARMUP_EPOCHS: u64 = 40;
/// Epochs averaged for the quoted per-epoch time.
const TIMED_EPOCHS: u64 = 8;
/// Seed of the duties every chip reports before the reported-fleet
/// epochs are timed.
const REPORT_SEED: u64 = 17;

fn fleet_config(chips: usize, tiered: bool) -> FleetConfig {
    let mut config = FleetConfig::default();
    config.chips = chips;
    // Enough shards that every pool worker stays busy at either size.
    config.shards = 64;
    config.seed = 2014;
    config.trap_params.mean_trap_count = 8.0;
    config.tiered = tiered;
    config
}

/// Epoch cost of a fresh fleet: the first epoch alone (ms), which fills
/// every shard's decay cache, then the steady-state average over the
/// timed window after the warm-up.
fn ms_per_epoch(state: &mut FleetState) -> (f64, f64) {
    let started = Instant::now();
    state.advance_epoch();
    let first_ms = started.elapsed().as_secs_f64() * 1e3;
    for _ in 1..WARMUP_EPOCHS {
        state.advance_epoch();
    }
    let started = Instant::now();
    for _ in 0..TIMED_EPOCHS {
        state.advance_epoch();
    }
    #[allow(clippy::cast_precision_loss)]
    let per_epoch = started.elapsed().as_secs_f64() * 1e3 / TIMED_EPOCHS as f64;
    (first_ms, per_epoch)
}

/// Steady-state epoch cost after every chip has reported a duty of its
/// own (ms): the report history a long-lived fleet accumulates. One
/// untimed epoch first refreshes every chip's decay block.
#[allow(clippy::cast_precision_loss)]
fn ms_per_epoch_reported(state: &mut FleetState) -> f64 {
    let chips = state.config().chips;
    let mut rng = SeedSequence::new(REPORT_SEED).rng(0);
    for chip in 0..chips {
        // A duty in the chip's own slice of [0, 1): no two chips share one.
        let duty = (chip as f64 + rng.gen::<f64>()) / chips as f64;
        assert!(state.fold_report(chip, DutyCycle::new(duty)));
    }
    state.advance_epoch();
    let started = Instant::now();
    for _ in 0..TIMED_EPOCHS {
        state.advance_epoch();
    }
    started.elapsed().as_secs_f64() * 1e3 / TIMED_EPOCHS as f64
}

/// One checkpoint of an aged fleet: save and resume wall time (ms) and
/// the bytes the store holds afterwards.
struct CheckpointCost {
    save_ms: f64,
    resume_ms: f64,
    bytes: f64,
}

/// Saves `state` into a fresh store, resumes it (seed rebuild, decode,
/// overlay, digest check) and checks the resumed fleet is bit-identical.
fn checkpoint_cost(state: &FleetState, tag: &str) -> CheckpointCost {
    let store = std::env::temp_dir().join(format!(
        "selfheal-tiered-fleet-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&store);
    let cache = ResultCache::at(store.clone());
    let started = Instant::now();
    let saved = checkpoint::save(&cache, state).expect("the checkpoint store must be writable");
    let save_ms = started.elapsed().as_secs_f64() * 1e3;
    let started = Instant::now();
    let resumed = checkpoint::resume(&cache, state.config());
    let resume_ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        resumed.map(|fleet| fleet.state_digest()),
        Some(saved.state_digest),
        "the {tag} fleet must resume bit-identically"
    );
    #[allow(clippy::cast_precision_loss)]
    let bytes = saved.bytes as f64;
    let _ = std::fs::remove_dir_all(&store);
    CheckpointCost {
        save_ms,
        resume_ms,
        bytes,
    }
}

fn main() {
    let mut run = BenchRun::start("tiered_fleet");
    run.say("Fleet epoch advance: full trap resolution vs tiered integrator\n");

    let mut table = Table::new(&[
        "chips",
        "full (ms/epoch)",
        "tiered (ms/epoch)",
        "cold chips",
        "speedup",
    ]);

    let mut checkpoints = Table::new(&["fleet", "save (ms)", "resume (ms)", "on disk (MB)"]);

    for &chips in &SIZES {
        let phase = run.phase_named(format!("fleet_{chips}"));

        let started = Instant::now();
        let mut full = FleetState::build(fleet_config(chips, false));
        let build_ms = started.elapsed().as_secs_f64() * 1e3;
        let (full_first_ms, full_ms) = ms_per_epoch(&mut full);
        let full_cost = (chips == CHECKPOINT_CHIPS).then(|| checkpoint_cost(&full, "full"));
        if chips == CHECKPOINT_CHIPS {
            run.value(&format!("full_build_ms_{chips}"), build_ms);
            run.value(
                &format!("full_ms_per_epoch_reported_{chips}"),
                ms_per_epoch_reported(&mut full),
            );
        }
        drop(full);

        let mut tiered = FleetState::build(fleet_config(chips, true));
        let (_, tiered_ms) = ms_per_epoch(&mut tiered);
        let counts = tiered.tier_counts();
        let tiered_cost = (chips == CHECKPOINT_CHIPS).then(|| checkpoint_cost(&tiered, "tiered"));
        drop(tiered);
        drop(phase);

        for (variant, cost) in [("full", full_cost), ("tiered", tiered_cost)] {
            let Some(cost) = cost else { continue };
            checkpoints.row(&[
                &format!("{variant} {chips}"),
                &fmt(cost.save_ms, 1),
                &fmt(cost.resume_ms, 1),
                &fmt(cost.bytes / 1e6, 2),
            ]);
            run.value(
                &format!("{variant}_checkpoint_save_ms_{chips}"),
                cost.save_ms,
            );
            run.value(
                &format!("{variant}_checkpoint_resume_ms_{chips}"),
                cost.resume_ms,
            );
            run.value(&format!("{variant}_checkpoint_bytes_{chips}"), cost.bytes);
        }
        if chips == CHECKPOINT_CHIPS {
            run.value(&format!("full_first_epoch_ms_{chips}"), full_first_ms);
        }

        let speedup = full_ms / tiered_ms;
        #[allow(clippy::cast_precision_loss)]
        let cold_fraction = counts.cold as f64 / chips as f64;
        table.row(&[
            &chips.to_string(),
            &fmt(full_ms, 2),
            &fmt(tiered_ms, 2),
            &format!("{} ({:.0}%)", counts.cold, cold_fraction * 100.0),
            &format!("{speedup:.1}x"),
        ]);
        run.value(&format!("full_ms_per_epoch_{chips}"), full_ms);
        run.value(&format!("tiered_ms_per_epoch_{chips}"), tiered_ms);
        run.value(&format!("speedup_{chips}"), speedup);
        run.value(&format!("cold_fraction_{chips}"), cold_fraction);
    }

    run.table(&table);
    run.say(
        "\nThe tiered fleet pays trap-resolution cost only for hot/pinned chips and\n\
         wake-epoch rehydrations; a cold chip's epoch is one integer compare.\n",
    );
    run.table(&checkpoints);
    run.finish("sizes=100k,1M shards=64 traps/chip=8 warmup=40 timed=8 guard_band=10mV");
}
