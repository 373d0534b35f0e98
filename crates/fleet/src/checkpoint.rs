//! Bit-exact checkpoint/resume through the content-addressed cache.
//!
//! A checkpoint stores only what a seed rebuild cannot regenerate: the
//! occupancy vector of every shard bank, every reported duty cycle and
//! integration tier, the epoch counter and the mutation-digest chain.
//! Trap constants (τ values, step sizes, permanence) are *not* stored —
//! they come back bit-identically from [`FleetConfig::seed`], which keeps
//! a 100k-chip snapshot at one `f64` per trap instead of six.
//!
//! The bulk arrays are *packed*: each shard's occupancies, duties and
//! tiers are one lowercase-hex string of little-endian bytes (see
//! [`FleetCheckpoint`]'s `CacheRecord` impl), so a snapshot is about 16
//! hex digits per trap, while the envelope stays an ordinary JSON
//! document.
//!
//! Both directions are table-driven. The packers write each `f64` as one
//! word of eight digit pairs from `DIGIT_PAIRS` into a buffer and build
//! the `String` once; the decoder looks every digit up in
//! `NIBBLES`, ORs the results, and rejects a string with a non-digit
//! once at the end. The three `u64` digests go through the same decoder,
//! so each accepts exactly the 16 lowercase digits `u64_hex` writes. A
//! save writes the same bytes the per-`char` encoder of the first
//! version-3 release wrote (pinned by a document hash in the tests), so
//! [`CHECKPOINT_VERSION`] stays 3 and older files keep loading.
//!
//! Storage uses [`ResultCache::store_record`]/[`ResultCache::load_record`] (the
//! checkpoint-store entry points, not the memo table): a *head* record
//! under a per-config key names the latest epoch, and each epoch's
//! snapshot lives under a key that includes the mutation digest, so a
//! resumed daemon can only ever load a snapshot produced by the exact
//! request history it claims.

use selfheal_bti::td::{ChipTier, ColdChip, KERNEL_VERSION};
use selfheal_runtime::{CacheRecord, ResultCache};
use selfheal_telemetry::Json;
use selfheal_units::Millivolts;

use crate::config::FleetConfig;
use crate::state::FleetState;

/// Cache namespace for fleet checkpoints.
pub const CHECKPOINT_NAMESPACE: &str = "fleet-checkpoint";
/// Checkpoint format version (bumped on layout changes; the kernel
/// version rides in the key so kernel changes also invalidate).
/// Version 2 added per-chip integration tiers + cold-chip analytic
/// state for tiered fleets; version 3 packs the per-shard arrays into
/// hex strings.
pub const CHECKPOINT_VERSION: u32 = 3;

/// The latest-checkpoint pointer for one fleet configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointHead {
    /// Epoch of the newest snapshot.
    pub epoch: u64,
    /// That snapshot's state digest (also part of its cache key).
    pub state_digest: u64,
}

/// A full mutable-state snapshot of a fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCheckpoint {
    /// Completed epochs at capture time.
    pub epoch: u64,
    /// The mutation-digest chain at capture time.
    pub mutation_digest: u64,
    /// [`FleetState::state_digest`] at capture time, re-verified after
    /// restore.
    pub state_digest: u64,
    /// Per-shard occupancy vectors, in shard order.
    pub occupancies: Vec<Vec<f64>>,
    /// Per-shard reported duty cycles, in chip order.
    pub duties: Vec<Vec<f64>>,
    /// Per-shard chip tiers (with cold chips' analytic anchor and wake
    /// epoch), in chip order. All-hot in an untiered fleet.
    pub tiers: Vec<Vec<ChipTier>>,
}

impl FleetCheckpoint {
    /// Captures the mutable state of `fleet`.
    #[must_use]
    pub fn capture(fleet: &FleetState) -> FleetCheckpoint {
        FleetCheckpoint {
            epoch: fleet.epoch(),
            mutation_digest: fleet.mutation_digest(),
            state_digest: fleet.state_digest(),
            occupancies: fleet
                .shards()
                .iter()
                .map(|s| s.bank.occupancies().to_vec())
                .collect(),
            duties: fleet
                .shards()
                .iter()
                .map(|s| s.chips.iter().map(|c| c.duty.get()).collect())
                .collect(),
            tiers: fleet
                .shards()
                .iter()
                .map(|s| s.chips.iter().map(|c| c.tier).collect())
                .collect(),
        }
    }

    /// Rebuilds a live fleet: seed-rebuild from `config`, overlay the
    /// snapshot, then verify the recorded state digest. `None` on any
    /// shape or digest mismatch (the snapshot belongs to a different
    /// configuration or a different history).
    #[must_use]
    pub fn restore(&self, config: FleetConfig) -> Option<FleetState> {
        let mut fleet = FleetState::build(config);
        if fleet.shards().len() != self.occupancies.len()
            || fleet.shards().len() != self.duties.len()
            || fleet.shards().len() != self.tiers.len()
        {
            return None;
        }
        for (((shard, occ), duty), tier) in fleet
            .shards()
            .iter()
            .zip(&self.occupancies)
            .zip(&self.duties)
            .zip(&self.tiers)
        {
            if shard.bank.len() != occ.len()
                || shard.chips.len() != duty.len()
                || shard.chips.len() != tier.len()
            {
                return None;
            }
        }
        fleet.overlay(
            self.epoch,
            self.mutation_digest,
            &self.occupancies,
            &self.duties,
            &self.tiers,
        );
        (fleet.state_digest() == self.state_digest).then_some(fleet)
    }
}

/// What one [`save`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Saved {
    /// The state digest the snapshot recorded.
    pub state_digest: u64,
    /// Bytes published: the snapshot and the head record.
    pub bytes: u64,
}

/// Writes `fleet`'s snapshot and then advances the head pointer to it.
/// `None` when the cache is disabled (nothing captured, nothing written)
/// or when either record failed to publish.
///
/// The head is written only once the snapshot has landed, so a failed
/// save (full disk, unwritable store) leaves the head naming the last
/// snapshot that did: the next [`resume`] loads that one instead of
/// finding a head whose snapshot is missing and starting over.
pub fn save(cache: &ResultCache, fleet: &FleetState) -> Option<Saved> {
    if !cache.is_active() {
        return None;
    }
    let snapshot = FleetCheckpoint::capture(fleet);
    let head = CheckpointHead {
        epoch: snapshot.epoch,
        state_digest: snapshot.state_digest,
    };
    let snapshot_bytes = cache.store_record(
        CHECKPOINT_NAMESPACE,
        CHECKPOINT_VERSION,
        &snapshot_key(fleet.config(), head.epoch, head.state_digest),
        &snapshot,
    )?;
    let head_bytes = cache.store_record(
        CHECKPOINT_NAMESPACE,
        CHECKPOINT_VERSION,
        &head_key(fleet.config()),
        &head,
    )?;
    Some(Saved {
        state_digest: head.state_digest,
        bytes: snapshot_bytes + head_bytes,
    })
}

/// Loads the newest snapshot for `config`, if one exists.
#[must_use]
pub fn load_latest(cache: &ResultCache, config: &FleetConfig) -> Option<FleetCheckpoint> {
    let head: CheckpointHead =
        cache.load_record(CHECKPOINT_NAMESPACE, CHECKPOINT_VERSION, &head_key(config))?;
    cache.load_record(
        CHECKPOINT_NAMESPACE,
        CHECKPOINT_VERSION,
        &snapshot_key(config, head.epoch, head.state_digest),
    )
}

/// Resumes a fleet from its newest checkpoint, or `None` when no valid
/// snapshot exists (caller falls back to a fresh build).
#[must_use]
pub fn resume(cache: &ResultCache, config: &FleetConfig) -> Option<FleetState> {
    load_latest(cache, config)?.restore(config.clone())
}

/// The per-config key prefix. Includes the kernel version: a kernel
/// change invalidates every stored occupancy trajectory.
fn base_key(config: &FleetConfig) -> String {
    format!("{}|k{KERNEL_VERSION}", config.cache_key())
}

fn head_key(config: &FleetConfig) -> String {
    format!("{}|head", base_key(config))
}

fn snapshot_key(config: &FleetConfig, epoch: u64, state_digest: u64) -> String {
    format!("{}|epoch={epoch}|state={state_digest:016x}", base_key(config))
}

fn u64_hex(value: u64) -> Json {
    Json::String(format!("{value:016x}"))
}

/// The inverse of [`u64_hex`]: exactly 16 lowercase digits, big-endian.
fn hex_u64(json: &Json) -> Option<u64> {
    Some(u64::from_be_bytes(unhex(json)?.try_into().ok()?))
}

/// The lowercase hex digits.
const DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Each byte's two hex digits, high digit first.
const DIGIT_PAIRS: [[u8; 2]; 256] = {
    let mut pairs = [[0; 2]; 256];
    let mut byte = 0;
    while byte < 256 {
        pairs[byte] = [DIGITS[byte >> 4], DIGITS[byte & 0xf]];
        byte += 1;
    }
    pairs
};

/// Each byte's value as a hex digit, or `0xff` for any byte that is not
/// one of [`DIGITS`] (uppercase included: one value, one encoding).
const NIBBLES: [u8; 256] = {
    let mut nibbles = [0xff; 256];
    let mut value = 0;
    while value < 16 {
        nibbles[DIGITS[value] as usize] = value as u8;
        value += 1;
    }
    nibbles
};

/// The 16 hex digits of `word`'s little-endian bytes, as digit pairs.
fn hex_word(word: u64) -> [[u8; 2]; 8] {
    word.to_le_bytes()
        .map(|byte| DIGIT_PAIRS[usize::from(byte)])
}

/// A packed string from the digit pairs the packers wrote.
fn hex_string(pairs: Vec<[u8; 2]>) -> Json {
    match String::from_utf8(pairs.into_flattened()) {
        Ok(text) => Json::String(text),
        Err(err) => panic!("hex digits are ASCII: {err}"),
    }
}

/// The bytes of a packed string; `None` on an odd length or any digit
/// outside `0-9a-f`. Each digit goes through [`NIBBLES`]; a bad one
/// leaves its `0xff` in the running OR, checked once at the end.
fn unhex(json: &Json) -> Option<Vec<u8>> {
    let (pairs, []) = json.as_str()?.as_bytes().as_chunks::<2>() else {
        return None;
    };
    let mut seen = 0;
    let bytes = pairs
        .iter()
        .map(|&[high, low]| {
            let (high, low) = (NIBBLES[usize::from(high)], NIBBLES[usize::from(low)]);
            seen |= high | low;
            high << 4 | low
        })
        .collect();
    (seen < 16).then_some(bytes)
}

/// Reads the little-endian word at the front of `bytes`.
fn le_word(bytes: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(bytes.get(..8)?.try_into().ok()?))
}

/// `f64`s packed as their little-endian bit patterns.
fn pack_f64s(values: &[f64]) -> Json {
    let words: Vec<[[u8; 2]; 8]> = values.iter().map(|v| hex_word(v.to_bits())).collect();
    hex_string(words.into_flattened())
}

fn unpack_f64s(json: &Json) -> Option<Vec<f64>> {
    let bytes = unhex(json)?;
    let (words, []) = bytes.as_chunks::<8>() else {
        return None;
    };
    Some(
        words
            .iter()
            .map(|&word| f64::from_bits(u64::from_le_bytes(word)))
            .collect(),
    )
}

/// Tier tags in the packed stream.
const TAG_HOT: u8 = 0;
const TAG_PINNED: u8 = 1;
const TAG_COLD: u8 = 2;

/// Tiers packed as a tag byte each; a cold tag is followed by four
/// little-endian words: the anchor's and the rate's exact bit patterns,
/// then the since and wake epochs (either may be `u64::MAX`, which no
/// `f64` JSON number carries).
fn pack_tiers(tiers: &[ChipTier]) -> Json {
    let mut pairs = Vec::with_capacity(tiers.len());
    for tier in tiers {
        match tier {
            ChipTier::Hot => pairs.push(DIGIT_PAIRS[usize::from(TAG_HOT)]),
            ChipTier::Pinned => pairs.push(DIGIT_PAIRS[usize::from(TAG_PINNED)]),
            ChipTier::Cold(cold) => {
                pairs.push(DIGIT_PAIRS[usize::from(TAG_COLD)]);
                for word in [
                    cold.anchor.get().to_bits(),
                    cold.rate_mv_per_s.to_bits(),
                    cold.since_epoch,
                    cold.wake_epoch,
                ] {
                    pairs.extend(hex_word(word));
                }
            }
        }
    }
    hex_string(pairs)
}

/// Unpacks exactly `chips` tiers; `None` on an unknown tag, a truncated
/// cold record, or bytes left over.
fn unpack_tiers(json: &Json, chips: usize) -> Option<Vec<ChipTier>> {
    let bytes = unhex(json)?;
    let mut rest = bytes.as_slice();
    let mut tiers = Vec::with_capacity(chips);
    while let Some((&tag, tail)) = rest.split_first() {
        rest = tail;
        tiers.push(match tag {
            TAG_HOT => ChipTier::Hot,
            TAG_PINNED => ChipTier::Pinned,
            TAG_COLD => {
                let (record, tail) = rest.split_at_checked(32)?;
                rest = tail;
                ChipTier::Cold(ColdChip {
                    anchor: Millivolts::new(f64::from_bits(le_word(record)?)),
                    rate_mv_per_s: f64::from_bits(le_word(&record[8..])?),
                    since_epoch: le_word(&record[16..])?,
                    wake_epoch: le_word(&record[24..])?,
                })
            }
            _ => return None,
        });
    }
    (tiers.len() == chips).then_some(tiers)
}

impl CacheRecord for CheckpointHead {
    fn to_cache_json(&self) -> Json {
        #[allow(clippy::cast_precision_loss)]
        Json::object(vec![
            ("epoch".into(), Json::Number(self.epoch as f64)),
            ("state_digest".into(), u64_hex(self.state_digest)),
        ])
    }

    fn from_cache_json(json: &Json) -> Option<Self> {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        Some(CheckpointHead {
            epoch: json.get("epoch")?.as_f64()? as u64,
            state_digest: hex_u64(json.get("state_digest")?)?,
        })
    }
}

/// Packed layout: `occupancies`, `duties` and `tiers` are arrays with
/// one hex string per shard (see [`pack_f64s`] and [`pack_tiers`]). A
/// shard's tier stream must hold exactly one tier per duty.
impl CacheRecord for FleetCheckpoint {
    fn to_cache_json(&self) -> Json {
        #[allow(clippy::cast_precision_loss)]
        Json::object(vec![
            ("epoch".into(), Json::Number(self.epoch as f64)),
            ("mutation_digest".into(), u64_hex(self.mutation_digest)),
            ("state_digest".into(), u64_hex(self.state_digest)),
            (
                "occupancies".into(),
                Json::Array(self.occupancies.iter().map(|s| pack_f64s(s)).collect()),
            ),
            (
                "duties".into(),
                Json::Array(self.duties.iter().map(|s| pack_f64s(s)).collect()),
            ),
            (
                "tiers".into(),
                Json::Array(self.tiers.iter().map(|s| pack_tiers(s)).collect()),
            ),
        ])
    }

    fn from_cache_json(json: &Json) -> Option<Self> {
        let shards = |key: &str| json.get(key).and_then(Json::as_array);
        let duties = shards("duties")?
            .iter()
            .map(unpack_f64s)
            .collect::<Option<Vec<_>>>()?;
        let tiers = shards("tiers")?;
        if tiers.len() != duties.len() {
            return None;
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        Some(FleetCheckpoint {
            epoch: json.get("epoch")?.as_f64()? as u64,
            mutation_digest: hex_u64(json.get("mutation_digest")?)?,
            state_digest: hex_u64(json.get("state_digest")?)?,
            occupancies: shards("occupancies")?
                .iter()
                .map(unpack_f64s)
                .collect::<Option<Vec<_>>>()?,
            tiers: tiers
                .iter()
                .zip(&duties)
                .map(|(tier, duty)| unpack_tiers(tier, duty.len()))
                .collect::<Option<Vec<_>>>()?,
            duties,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::FleetDaemon;
    use selfheal_units::DutyCycle;

    fn tiny_config(seed: u64) -> FleetConfig {
        let mut config = FleetConfig::default();
        config.chips = 9;
        config.shards = 2;
        config.seed = seed;
        config.trap_params.mean_trap_count = 5.0;
        config
    }

    fn scratch_cache(tag: &str) -> ResultCache {
        let root = std::env::temp_dir().join(format!(
            "selfheal-fleet-ckpt-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        ResultCache::at(root)
    }

    #[test]
    fn checkpoint_round_trips_bit_exactly() {
        let mut fleet = FleetState::build(tiny_config(3));
        fleet.advance_epoch();
        assert!(fleet.fold_report(2, DutyCycle::new(0.25)));
        fleet.advance_epoch();
        let snapshot = FleetCheckpoint::capture(&fleet);
        let json = snapshot.to_cache_json();
        let reparsed = match FleetCheckpoint::from_cache_json(&json) {
            Some(ck) => ck,
            None => panic!("checkpoint JSON must round-trip"),
        };
        assert_eq!(reparsed, snapshot);
        let restored = match reparsed.restore(tiny_config(3)) {
            Some(fleet) => fleet,
            None => panic!("restore must succeed for the same config"),
        };
        assert_eq!(restored.state_digest(), fleet.state_digest());
        assert_eq!(restored.epoch(), fleet.epoch());
    }

    #[test]
    fn restore_rejects_a_different_config() {
        let mut fleet = FleetState::build(tiny_config(3));
        fleet.advance_epoch();
        let snapshot = FleetCheckpoint::capture(&fleet);
        assert!(snapshot.restore(tiny_config(4)).is_none());
    }

    #[test]
    fn save_resume_round_trips_through_the_cache() {
        let cache = scratch_cache("roundtrip");
        let config = tiny_config(5);
        let mut fleet = FleetState::build(config.clone());
        fleet.advance_epoch();
        let first = save(&cache, &fleet).expect("an active cache saves");
        assert_eq!(first.state_digest, fleet.state_digest());
        // The byte count is the two files the save published.
        let on_disk: u64 = [
            snapshot_key(&config, 1, first.state_digest),
            head_key(&config),
        ]
        .iter()
        .map(|key| {
            let path = cache.entry_path(CHECKPOINT_NAMESPACE, CHECKPOINT_VERSION, key);
            std::fs::metadata(path).map_or(0, |meta| meta.len())
        })
        .sum();
        assert!(on_disk > 0);
        assert_eq!(first.bytes, on_disk);
        let digest = |saved: Option<Saved>| saved.map(|saved| saved.state_digest);
        fleet.fold_report(0, DutyCycle::new(0.5));
        fleet.advance_epoch();
        assert_eq!(digest(save(&cache, &fleet)), Some(fleet.state_digest()));
        let resumed = match resume(&cache, &config) {
            Some(fleet) => fleet,
            None => panic!("resume must find the saved head"),
        };
        assert_eq!(resumed.epoch(), 2);
        assert_eq!(resumed.state_digest(), fleet.state_digest());
        // A different seed has no checkpoints at all.
        assert!(resume(&cache, &tiny_config(6)).is_none());
        // A disabled cache stores nothing.
        assert_eq!(save(&ResultCache::disabled(), &fleet), None);
    }

    #[test]
    fn save_under_a_regular_file_reports_nothing_saved() {
        let blocker = std::env::temp_dir().join(format!(
            "selfheal-fleet-ckpt-blocker-{}",
            std::process::id()
        ));
        std::fs::write(&blocker, b"not a directory").expect("temp dir is writable");
        let cache = ResultCache::at(blocker.join("store"));
        let mut fleet = FleetState::build(tiny_config(5));
        fleet.advance_epoch();
        assert_eq!(save(&cache, &fleet), None);
        assert!(resume(&cache, fleet.config()).is_none());
        let _ = std::fs::remove_file(&blocker);
    }

    #[test]
    fn a_failed_snapshot_leaves_the_head_on_the_last_good_one() {
        let cache = scratch_cache("failed-snapshot");
        let config = tiny_config(5);
        let mut fleet = FleetState::build(config.clone());
        fleet.advance_epoch();
        let good = save(&cache, &fleet).expect("an active cache saves");
        let good_digest = fleet.state_digest();
        fleet.fold_report(3, DutyCycle::new(0.2));
        fleet.advance_epoch();
        // A directory squatting on the next snapshot's entry path makes
        // its rename fail.
        let entry = cache.entry_path(
            CHECKPOINT_NAMESPACE,
            CHECKPOINT_VERSION,
            &snapshot_key(&config, 2, fleet.state_digest()),
        );
        std::fs::create_dir_all(entry.join("occupied")).expect("the store is writable");
        assert_eq!(save(&cache, &fleet), None);
        let head: Option<CheckpointHead> =
            cache.load_record(CHECKPOINT_NAMESPACE, CHECKPOINT_VERSION, &head_key(&config));
        assert_eq!(
            head.map(|head| (head.epoch, head.state_digest)),
            Some((1, good.state_digest))
        );
        let resumed = resume(&cache, &config).expect("the last good checkpoint resumes");
        assert_eq!(resumed.epoch(), 1);
        assert_eq!(resumed.state_digest(), good_digest);
        // The failed publish left no temp file behind.
        let leftovers: Vec<_> = std::fs::read_dir(entry.parent().expect("entries live in a dir"))
            .expect("the namespace dir exists")
            .filter_map(Result::ok)
            .filter(|file| file.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
    }

    fn tiered_config(seed: u64) -> FleetConfig {
        let mut config = tiny_config(seed);
        config.tiered = true;
        config.guard_band = Millivolts::new(10.0);
        config
    }

    /// A tiered fleet two epochs in, with one reported (pinned) chip: hot,
    /// pinned and cold chips side by side.
    fn tiered_fleet(seed: u64) -> FleetState {
        let mut fleet = FleetState::build(tiered_config(seed));
        fleet.advance_epoch();
        assert!(fleet.fold_report(1, DutyCycle::new(0.3)));
        fleet.advance_epoch();
        let counts = fleet.tier_counts();
        assert!(counts.cold > 0 && counts.pinned > 0, "{counts:?}");
        fleet
    }

    #[test]
    fn tiered_checkpoint_round_trips_bit_exactly() {
        let fleet = tiered_fleet(3);
        let mut snapshot = FleetCheckpoint::capture(&fleet);
        let reparsed = FleetCheckpoint::from_cache_json(&snapshot.to_cache_json())
            .expect("tiered checkpoint JSON must round-trip");
        assert_eq!(reparsed, snapshot);
        let restored = reparsed
            .restore(tiered_config(3))
            .expect("same config restores");
        assert_eq!(restored.state_digest(), fleet.state_digest());
        for chip in 0..9 {
            assert_eq!(restored.chip_tier(chip), fleet.chip_tier(chip));
        }

        // Words no JSON number carries: a sleep-forever wake epoch, a
        // negative-zero anchor and a subnormal rate, all bit for bit.
        let extreme = ColdChip {
            anchor: Millivolts::new(-0.0),
            rate_mv_per_s: f64::from_bits(1),
            since_epoch: u64::MAX - 1,
            wake_epoch: u64::MAX,
        };
        snapshot.tiers[0][0] = ChipTier::Cold(extreme);
        snapshot.occupancies[0][0] = f64::from_bits(0x3ff0_0000_0000_0001);
        let json = snapshot.to_cache_json();
        let reparsed = FleetCheckpoint::from_cache_json(&json).expect("extremes round-trip");
        let ChipTier::Cold(cold) = reparsed.tiers[0][0] else {
            panic!("the cold chip came back as {:?}", reparsed.tiers[0][0]);
        };
        assert_eq!(cold.anchor.get().to_bits(), (-0.0f64).to_bits());
        assert_eq!(cold.rate_mv_per_s.to_bits(), 1);
        assert_eq!(
            (cold.since_epoch, cold.wake_epoch),
            (u64::MAX - 1, u64::MAX)
        );
        assert_eq!(reparsed.occupancies[0][0].to_bits(), 0x3ff0_0000_0000_0001);
        // Equal encodings are equal bits everywhere else too.
        assert_eq!(reparsed.to_cache_json().render(), json.render());
    }

    /// The pretty-rendered payload of a tiny tiered fleet's checkpoint,
    /// with hot, pinned and cold chips and a cold record carrying a
    /// negative-zero anchor, a subnormal rate and a sleep-forever wake,
    /// hashed and compared with the hash of the bytes the version-3
    /// encoder first wrote: any byte the packers move fails here.
    #[test]
    fn checkpoint_document_bytes_are_pinned() {
        let mut snapshot = FleetCheckpoint::capture(&tiered_fleet(3));
        snapshot.tiers[1][0] = ChipTier::Cold(ColdChip {
            anchor: Millivolts::new(-0.0),
            rate_mv_per_s: f64::from_bits(1),
            since_epoch: 2,
            wake_epoch: u64::MAX,
        });
        snapshot.tiers[1][1] = ChipTier::Hot;
        let tiers = snapshot.tiers.concat();
        assert!(tiers.contains(&ChipTier::Hot) && tiers.contains(&ChipTier::Pinned));
        assert!(tiers.iter().any(|tier| matches!(tier, ChipTier::Cold(_))));
        let text = snapshot.to_cache_json().render_pretty();
        assert_eq!(
            selfheal_telemetry::fnv1a(text.as_bytes()),
            PINNED_DOCUMENT_FNV,
            "{text}"
        );
    }

    const PINNED_DOCUMENT_FNV: u64 = 0x50eb_eaf0_4e5a_4745;

    /// A `f64` bit pattern: anything, or an exponent of all ones (the
    /// infinities and every NaN payload).
    fn any_bits() -> impl proptest::Strategy<Value = u64> {
        use proptest::prelude::*;
        prop_oneof![
            any::<u64>(),
            any::<u64>().prop_map(|bits| bits | 0x7ff0_0000_0000_0000),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Each packed word is the value's bytes, least significant
        /// first, as lowercase hex; and it unpacks to the same bits.
        #[test]
        fn packed_words_are_byte_swapped_hex(
            bits in proptest::collection::vec(any_bits(), 0..40),
        ) {
            let values: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
            let packed = pack_f64s(&values);
            let expected: String = bits.iter().map(|b| format!("{:016x}", b.swap_bytes())).collect();
            proptest::prop_assert_eq!(packed.as_str(), Some(expected.as_str()));
            let unpacked: Vec<u64> = unpack_f64s(&packed)
                .expect("packed words unpack")
                .iter()
                .map(|v| v.to_bits())
                .collect();
            proptest::prop_assert_eq!(unpacked, bits);
        }
    }

    /// Stores any JSON value as a record (for planting payloads).
    struct Raw(Json);

    impl CacheRecord for Raw {
        fn to_cache_json(&self) -> Json {
            self.0.clone()
        }

        fn from_cache_json(json: &Json) -> Option<Self> {
            Some(Raw(json.clone()))
        }
    }

    /// `payload` with the string at `field[shard]` rewritten by `edit`.
    fn edit_shard(
        payload: &Json,
        field: &str,
        shard: usize,
        edit: &dyn Fn(&str) -> String,
    ) -> Json {
        let mut payload = payload.clone();
        if let Json::Object(map) = &mut payload {
            if let Some(Json::Array(shards)) = map.get_mut(field) {
                let text = shards[shard].as_str().expect("packed shards are strings");
                shards[shard] = Json::String(edit(text));
            }
        }
        payload
    }

    /// `payload` with the top-level `field` set to the string `text`.
    fn with_field(payload: &Json, field: &str, text: &str) -> Json {
        let mut payload = payload.clone();
        if let Json::Object(map) = &mut payload {
            map.insert(field.into(), Json::String(text.into()));
        }
        payload
    }

    #[test]
    fn hostile_payloads_decode_to_none_and_resume_builds_fresh() {
        let config = tiered_config(5);
        let fleet = tiered_fleet(5);
        let snapshot = FleetCheckpoint::capture(&fleet);
        let good = snapshot.to_cache_json();
        let chips = snapshot.duties[0].len();
        let hot = "00".repeat(chips - 1);
        // Each case: (what, the hostile payload, the nearest valid one).
        let cases: Vec<(&str, Json, Json)> = vec![
            (
                "odd hex length",
                edit_shard(&good, "occupancies", 0, &|s| format!("{s}0")),
                good.clone(),
            ),
            (
                "non-hex digit",
                edit_shard(&good, "occupancies", 0, &|s| format!("g{}", &s[1..])),
                edit_shard(&good, "occupancies", 0, &|s| format!("a{}", &s[1..])),
            ),
            (
                "uppercase digit",
                edit_shard(&good, "duties", 1, &|s| format!("{}A", &s[..s.len() - 1])),
                edit_shard(&good, "duties", 1, &|s| format!("{}a", &s[..s.len() - 1])),
            ),
            (
                "byte count not a multiple of 8",
                edit_shard(&good, "occupancies", 1, &|s| format!("{s}0000")),
                edit_shard(&good, "occupancies", 1, &|s| format!("{s}0000000000000000")),
            ),
            (
                "unknown tier tag",
                edit_shard(&good, "tiers", 0, &|_| format!("{hot}03")),
                edit_shard(&good, "tiers", 0, &|_| format!("{hot}01")),
            ),
            (
                "truncated cold record",
                edit_shard(&good, "tiers", 0, &|_| format!("{hot}02{}", "00".repeat(31))),
                edit_shard(&good, "tiers", 0, &|_| format!("{hot}02{}", "00".repeat(32))),
            ),
            (
                "trailing bytes",
                edit_shard(&good, "tiers", 0, &|_| format!("{hot}0000")),
                edit_shard(&good, "tiers", 0, &|_| format!("{hot}00")),
            ),
            (
                "signed digest",
                with_field(&good, "mutation_digest", "+00000000000000a"),
                with_field(&good, "mutation_digest", "000000000000000a"),
            ),
            (
                "uppercase digest",
                with_field(&good, "state_digest", "00000000000000AB"),
                with_field(&good, "state_digest", "00000000000000ab"),
            ),
            (
                "short digest",
                with_field(&good, "mutation_digest", "ab"),
                with_field(&good, "mutation_digest", "00000000000000ab"),
            ),
        ];
        for (what, hostile, valid) in cases {
            assert!(FleetCheckpoint::from_cache_json(&valid).is_some(), "{what}: control");
            assert_eq!(FleetCheckpoint::from_cache_json(&hostile), None, "{what}");

            let cache = scratch_cache("hostile");
            assert!(save(&cache, &fleet).is_some());
            cache.store_record(
                CHECKPOINT_NAMESPACE,
                CHECKPOINT_VERSION,
                &snapshot_key(&config, snapshot.epoch, snapshot.state_digest),
                &Raw(hostile),
            );
            let (daemon, resumed) = FleetDaemon::resume_or_new(config.clone(), cache, 0);
            assert!(!resumed, "{what}: resume must miss");
            assert_eq!(daemon.state().epoch(), 0, "{what}: a fresh fleet");
        }
    }

    /// The version-2 layout: one JSON number per `f64`, tiers as `"hot"`,
    /// `"pinned"` or `["cold", anchor, rate, since, wake]` in 16-digit hex.
    fn v2_payload(snapshot: &FleetCheckpoint) -> Json {
        let numbers = |shards: &[Vec<f64>]| {
            Json::Array(
                shards
                    .iter()
                    .map(|s| Json::Array(s.iter().map(|v| Json::Number(*v)).collect()))
                    .collect(),
            )
        };
        let tier = |tier: &ChipTier| match tier {
            ChipTier::Hot => Json::String("hot".into()),
            ChipTier::Pinned => Json::String("pinned".into()),
            ChipTier::Cold(cold) => Json::Array(vec![
                Json::String("cold".into()),
                u64_hex(cold.anchor.get().to_bits()),
                u64_hex(cold.rate_mv_per_s.to_bits()),
                u64_hex(cold.since_epoch),
                u64_hex(cold.wake_epoch),
            ]),
        };
        #[allow(clippy::cast_precision_loss)]
        Json::object(vec![
            ("epoch".into(), Json::Number(snapshot.epoch as f64)),
            ("mutation_digest".into(), u64_hex(snapshot.mutation_digest)),
            ("state_digest".into(), u64_hex(snapshot.state_digest)),
            ("occupancies".into(), numbers(&snapshot.occupancies)),
            ("duties".into(), numbers(&snapshot.duties)),
            (
                "tiers".into(),
                Json::Array(
                    snapshot
                        .tiers
                        .iter()
                        .map(|s| Json::Array(s.iter().map(tier).collect()))
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn a_version_2_checkpoint_misses_cleanly() {
        let config = tiered_config(7);
        let fleet = tiered_fleet(7);
        let snapshot = FleetCheckpoint::capture(&fleet);
        let cache = scratch_cache("v2");
        let head = CheckpointHead {
            epoch: snapshot.epoch,
            state_digest: snapshot.state_digest,
        };
        cache.store_record(
            CHECKPOINT_NAMESPACE,
            2,
            &snapshot_key(&config, head.epoch, head.state_digest),
            &Raw(v2_payload(&snapshot)),
        );
        cache.store_record(CHECKPOINT_NAMESPACE, 2, &head_key(&config), &head);
        assert!(load_latest(&cache, &config).is_none());
        let (daemon, resumed) = FleetDaemon::resume_or_new(config.clone(), cache, 0);
        assert!(!resumed);
        assert_eq!(daemon.state().epoch(), 0);
        // Even filed under the current version, the old layout is no
        // checkpoint.
        assert_eq!(FleetCheckpoint::from_cache_json(&v2_payload(&snapshot)), None);
    }
}
