//! Outside-in layer probes. Each probe times calls to one layer's public
//! functions — nothing inside the program is instrumented for it — on a
//! fleet built and aged exactly like the workloads' own: the workload's
//! live fleet where it has one to spare, otherwise a twin.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use selfheal::{RejuvenationTechnique, SchedulePlanner};
use selfheal_bti::td::PhaseRates;
use selfheal_bti::DeviceCondition;
use selfheal_fleet::checkpoint::{FleetCheckpoint, CHECKPOINT_NAMESPACE, CHECKPOINT_VERSION};
use selfheal_fleet::{FleetConfig, FleetDaemon, FleetState, Request, Response};
use selfheal_runtime::{CacheRecord, ResultCache, SeedSequence};
use selfheal_telemetry::{json, Json};
use selfheal_units::DutyCycle;

use crate::storm;
use crate::util::{median, median_time, timed, Ctx, Outcome, CHECKPOINT_EVERY, PRE_AGE_EPOCHS};

/// Seed-stream index of the probes' own request sample (distinct from
/// the storm clients' streams).
const PROBE_STREAM: u64 = 0x70_0be;

/// Wall times of `FleetDaemon::advance_epoch`, filed by whether the
/// epoch saved a checkpoint.
#[derive(Debug)]
pub struct EpochTimes {
    every: u64,
    /// Epochs that did not checkpoint, ms.
    pub plain_ms: Vec<f64>,
    /// Epochs that did, ms.
    pub checkpoint_ms: Vec<f64>,
}

impl EpochTimes {
    /// Times for a daemon that checkpoints every `every` epochs (0: never).
    pub fn new(every: u64) -> EpochTimes {
        EpochTimes {
            every,
            plain_ms: Vec::new(),
            checkpoint_ms: Vec::new(),
        }
    }

    /// Advances `daemon` one epoch, files its wall time and returns it in
    /// seconds.
    pub fn advance(&mut self, daemon: &mut FleetDaemon) -> f64 {
        let ((), secs) = timed(|| daemon.advance_epoch());
        if self.every > 0 && daemon.state().epoch().is_multiple_of(self.every) {
            self.checkpoint_ms.push(secs * 1e3);
        } else {
            self.plain_ms.push(secs * 1e3);
        }
        secs
    }

    /// Median wall time of an epoch that saved nothing, ms.
    pub fn epoch_ms(&self) -> f64 {
        median(&self.plain_ms)
    }

    /// Median extra wall time of a checkpointing epoch, ms.
    pub fn stall_ms(&self) -> f64 {
        let plain = self.epoch_ms();
        median(
            &self
                .checkpoint_ms
                .iter()
                .map(|t| t - plain)
                .collect::<Vec<_>>(),
        )
    }
}

/// Builds a daemon and ages it [`PRE_AGE_EPOCHS`] epochs.
pub fn aged_daemon(
    config: FleetConfig,
    cache: ResultCache,
    checkpoint_every: u64,
) -> (FleetDaemon, EpochTimes) {
    let mut daemon = FleetDaemon::new(config, cache, checkpoint_every);
    let mut epochs = EpochTimes::new(checkpoint_every);
    for _ in 0..PRE_AGE_EPOCHS {
        epochs.advance(&mut daemon);
    }
    (daemon, epochs)
}

/// A twin of the workloads' fleet for the probes: built, aged and
/// checkpointed into a fresh store on fleetd's cadence, so its newest
/// snapshot holds its current state.
pub fn twin(ctx: &Ctx) -> Result<(FleetDaemon, PathBuf, EpochTimes), String> {
    let store = ctx.fresh_dir("twin")?;
    let (daemon, epochs) = aged_daemon(
        ctx.fleet_config(ctx.chips()),
        ResultCache::at(store.clone()),
        CHECKPOINT_EVERY,
    );
    Ok((daemon, store, epochs))
}

/// Every fleet layer probe on `daemon`, whose newest snapshot in `store`
/// must hold its current state and whose aging `epochs` timed. The
/// daemon answers the probe's requests, so it ends changed. Returns the
/// client-side codec cost per kind for the budget row.
pub fn fleet_layers(
    ctx: &Ctx,
    daemon: &mut FleetDaemon,
    store: &Path,
    epochs: &EpochTimes,
    out: &mut Outcome,
) -> Result<ClientCodec, String> {
    out.metric("daemon.epoch_ms", epochs.epoch_ms(), "ms");
    out.metric("daemon.checkpoint_stall_ms", epochs.stall_ms(), "ms");
    checkpoint_layer(ctx, daemon.state(), store, out)?;
    state_layer(ctx, daemon.state(), out);
    kernel_layer(daemon.state(), out);
    Ok(request_path(ctx, daemon, out))
}

/// Per-kind client-side codec cost (request encode + reply decode), µs.
pub type ClientCodec = BTreeMap<&'static str, f64>;

/// `fleet::daemon`, `fleet::proto` and `core::planner` on `daemon`, fed
/// a sample of the storm's request mix. Returns the client-side codec
/// cost per kind for the budget row.
fn request_path(ctx: &Ctx, daemon: &mut FleetDaemon, out: &mut Outcome) -> ClientCodec {
    let config = daemon.state().config().clone();
    let chips = config.chips as u64;
    let mut rng = SeedSequence::new(ctx.seed).child(PROBE_STREAM).rng(0);
    let samples = if ctx.smoke { 200 } else { 2_000 };
    let requests: Vec<Request> = (0..samples)
        .map(|_| storm::draw(&mut rng, chips))
        .collect();

    let mut handle: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut replies = Vec::with_capacity(requests.len());
    for request in &requests {
        let (reply, secs) = timed(|| daemon.handle(request));
        handle.entry(request.kind()).or_default().push(secs * 1e6);
        out.check(storm::answers(request, &reply), || {
            format!("probed daemon answered {} with {reply:?}", request.kind())
        });
        replies.push(reply);
    }
    for (kind, times) in &handle {
        out.metric(&format!("daemon.handle_us.{kind}"), median(times), "us");
    }

    // Codec round trips of the same frames, stage by stage.
    let mut request_codec = Vec::new();
    let mut response_codec = Vec::new();
    let mut client: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (request, reply) in requests.iter().zip(&replies) {
        let (frame, encode) = timed(|| request.to_json().render().into_bytes());
        let (decoded, decode) = timed(|| Request::from_payload(&frame));
        out.check(decoded.as_ref() == Ok(request), || {
            format!("request frame did not round-trip: {request:?}")
        });
        let (payload, reply_encode) = timed(|| reply.to_payload());
        let (reply_decoded, reply_decode) = timed(|| Response::from_payload(&payload));
        out.check(reply_decoded.as_ref() == Some(reply), || {
            format!("reply frame did not round-trip: {reply:?}")
        });
        request_codec.push((encode + decode) * 1e6);
        response_codec.push((reply_encode + reply_decode) * 1e6);
        let entry = client.entry(request.kind()).or_default();
        entry.0.push(encode * 1e6);
        entry.1.push(reply_decode * 1e6);
    }
    out.metric("proto.request_codec_us", median(&request_codec), "us");
    out.metric("proto.response_codec_us", median(&response_codec), "us");

    // The planner alone, at the fleet's age.
    let planner = SchedulePlanner::with_default_models(config.active_env, config.margin);
    let mut plan_us = Vec::new();
    for request in &requests {
        if let Request::Plan { chip, .. } = request {
            let chip = usize::try_from(*chip).unwrap_or(usize::MAX);
            if let Some(consumed) = daemon.state().chip_consumed(chip) {
                let (plan, secs) = timed(|| {
                    planner.plan_with_consumed(
                        consumed,
                        RejuvenationTechnique::Combined,
                        config.period,
                        config.horizon,
                    )
                });
                std::hint::black_box(plan);
                plan_us.push(secs * 1e6);
            }
        }
    }
    out.metric("planner.plan_us", median(&plan_us), "us");

    client
        .into_iter()
        .map(|(kind, (encode, decode))| (kind, median(&encode) + median(&decode)))
        .collect()
}

/// `fleet::state`: digest, aggregates, report folding and one epoch, on a
/// private copy of `state`.
fn state_layer(ctx: &Ctx, state: &FleetState, out: &mut Outcome) {
    let reps = if ctx.smoke { 3 } else { 5 };
    out.metric(
        "state.state_digest_ms",
        median_time(reps, || {
            std::hint::black_box(state.state_digest());
        }) * 1e3,
        "ms",
    );
    out.metric(
        "state.aggregates_ms",
        median_time(reps, || {
            std::hint::black_box(state.aggregates());
        }) * 1e3,
        "ms",
    );
    let mut copy = state.clone();
    let mut rng = SeedSequence::new(ctx.seed).child(PROBE_STREAM).rng(1);
    let chips = state.config().chips as u64;
    let mut fold_us = Vec::new();
    for _ in 0..1_000 {
        let request = storm::draw_report(&mut rng, chips);
        if let Request::Report { chip, duty } = request {
            let chip = usize::try_from(chip).unwrap_or(usize::MAX);
            let (folded, secs) = timed(|| copy.fold_report(chip, duty));
            out.check(folded, || format!("fold_report refused chip {chip}"));
            fold_us.push(secs * 1e6);
        }
    }
    out.metric("state.fold_report_us", median(&fold_us), "us");
    out.metric(
        "state.advance_epoch_ms",
        median_time(reps, || copy.advance_epoch()) * 1e3,
        "ms",
    );
}

/// `bti::td::kernel`: `TrapBank::advance_all` on a copy of shard 0's bank
/// over one epoch at half duty.
fn kernel_layer(state: &FleetState, out: &mut Outcome) {
    let config = state.config();
    let mut bank = state.shards()[0].bank.clone();
    let rates =
        PhaseRates::for_condition(DeviceCondition::new(config.active_env, DutyCycle::new(0.5)));
    let per_call = median_time(200, || {
        std::hint::black_box(bank.advance_all(&rates, config.epoch_dt));
    });
    #[allow(clippy::cast_precision_loss)]
    out.metric(
        "kernel.ns_per_trap_step",
        per_call * 1e9 / bank.len().max(1) as f64,
        "ns",
    );
}

/// The checkpoint envelope exactly as the result cache writes it.
fn envelope(payload: Json) -> Json {
    Json::object(vec![
        (
            "namespace".into(),
            Json::String(CHECKPOINT_NAMESPACE.into()),
        ),
        (
            "version".into(),
            Json::Number(f64::from(CHECKPOINT_VERSION)),
        ),
        ("key".into(), Json::String("perfbench".into())),
        ("payload".into(), payload),
    ])
}

/// Parse cost of a checkpoint document, ns per byte.
fn parse_ns_per_byte(text: &str) -> Result<f64, String> {
    let (doc, secs) = timed(|| json::parse(text));
    doc.map_err(|e| format!("checkpoint document does not parse: {e:?}"))?;
    #[allow(clippy::cast_precision_loss)]
    Ok(secs * 1e9 / text.len().max(1) as f64)
}

/// `fleet::checkpoint` and `telemetry::json`: the save and resume paths
/// split into stages, on `state` and on the newest snapshot file the
/// daemon's own saves left in `store`; plus parse scaling between a
/// fifth-size fleet's document and this one.
fn checkpoint_layer(
    ctx: &Ctx,
    state: &FleetState,
    store: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    // Save path: capture → encode → write.
    let (snapshot, capture) = timed(|| FleetCheckpoint::capture(state));
    let (text, encode) = timed(|| envelope(snapshot.to_cache_json()).render_pretty());
    let scratch = ctx.fresh_dir("stage")?;
    let (written, write) = timed(|| {
        let tmp = scratch.join("snapshot.tmp");
        std::fs::write(&tmp, &text)
            .and_then(|()| std::fs::rename(&tmp, scratch.join("snapshot.json")))
    });
    written.map_err(|e| format!("write snapshot: {e}"))?;

    // Resume path on the workload's newest saved snapshot: read → parse
    // → decode and restore.
    let newest = newest_snapshot(store).ok_or("no checkpoint snapshot in the store")?;
    let (read_back, read) = timed(|| std::fs::read_to_string(&newest));
    let read_back = read_back.map_err(|e| format!("read {}: {e}", newest.display()))?;
    let (doc, parse) = timed(|| json::parse(&read_back));
    let doc = doc.map_err(|e| format!("snapshot does not parse: {e:?}"))?;
    let (restored, restore) = timed(|| {
        doc.get("payload")
            .and_then(FleetCheckpoint::from_cache_json)
            .and_then(|ck| ck.restore(state.config().clone()))
    });
    let restored = restored.ok_or("the newest snapshot does not restore")?;
    out.check(restored.state_digest() == state.state_digest(), || {
        "stage-split restore differs from the live fleet".into()
    });
    let (rendered, render) = timed(|| doc.render_pretty());
    out.check(rendered == read_back, || {
        "snapshot does not re-render byte-identically".into()
    });

    #[allow(clippy::cast_precision_loss)]
    let bytes = read_back.len() as f64;
    out.metric("checkpoint.capture_ms", capture * 1e3, "ms");
    out.metric("checkpoint.encode_ms", encode * 1e3, "ms");
    out.metric("checkpoint.write_ms", write * 1e3, "ms");
    out.metric("checkpoint.read_ms", read * 1e3, "ms");
    out.metric("checkpoint.parse_ms", parse * 1e3, "ms");
    out.metric("checkpoint.restore_ms", restore * 1e3, "ms");
    out.metric("checkpoint.bytes", bytes, "bytes");
    out.metric("json.parse_mb_s", bytes / 1e6 / parse, "MB/s");
    out.metric("json.render_mb_s", bytes / 1e6 / render, "MB/s");

    // The same document at a fifth of the fleet: a linear parser reads
    // both at the same ns/byte.
    let mut small = ctx.fleet_config(ctx.chips() / 5);
    small.shards = state.config().shards.min(small.chips);
    let mut fleet = FleetState::build(small);
    for _ in 0..PRE_AGE_EPOCHS {
        fleet.advance_epoch();
    }
    let small_text = envelope(FleetCheckpoint::capture(&fleet).to_cache_json()).render_pretty();
    drop(fleet);
    let small_ns = parse_ns_per_byte(&small_text)?;
    out.metric(
        "json.parse_scaling",
        parse * 1e9 / bytes / small_ns,
        "ratio",
    );
    Ok(())
}

/// The newest snapshot (not head) record in a checkpoint store.
pub fn newest_snapshot(store: &Path) -> Option<std::path::PathBuf> {
    let dir = store.join(CHECKPOINT_NAMESPACE);
    std::fs::read_dir(dir)
        .ok()?
        .flatten()
        .filter_map(|entry| {
            let meta = entry.metadata().ok()?;
            // Head records are a few hundred bytes; snapshots are megabytes.
            let modified = meta.modified().ok()?;
            (meta.len() > 4_096).then(|| (modified, entry.path()))
        })
        .max()
        .map(|(_, path)| path)
}

/// How many snapshots the store holds.
pub fn snapshot_count(store: &Path) -> usize {
    std::fs::read_dir(store.join(CHECKPOINT_NAMESPACE))
        .map(|dir| {
            dir.flatten()
                .filter(|e| e.metadata().is_ok_and(|m| m.len() > 4_096))
                .count()
        })
        .unwrap_or(0)
}
