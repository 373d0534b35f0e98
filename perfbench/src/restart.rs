//! `restart`: the crash-recovery cycle through `FleetDaemon`, one caller
//! and no sockets. Build the fleet, age it 24 epochs with a seeded batch
//! of `report`s folded in before each epoch and checkpoints landing at
//! epochs 8, 16 and 24 in a fresh store, then `FleetDaemon::resume_or_new`
//! from the store as a restarted process would. Both the crashed daemon
//! and the resumed one then age another 24 epochs under the same reports
//! (saves at 32, 40 and 48) and must still agree bit for bit.

use rand::rngs::StdRng;
use selfheal_fleet::{FleetDaemon, Request, Response};
use selfheal_runtime::{ResultCache, SeedSequence};

use crate::paper;
use crate::probes::{self, EpochTimes};
use crate::storm::{self, draw_report};
use crate::trace::SpanSink;
use crate::util::{
    cpu_timed, median, peak_rss_mb, quantile, timed, Ctx, Outcome, CHECKPOINT_EVERY,
    PRE_AGE_EPOCHS,
};

/// Seed-stream index of the report batches.
const REPORT_STREAM: u64 = 0x4e90;

/// Per-cycle measurements of the service: the crashed daemon's life
/// before the crash and the resumed daemon's life after it. The
/// uncrashed daemon that replays alongside for the check is not service.
#[derive(Debug, Default)]
struct Cycle {
    /// CPU time of the build, s.
    build_s: f64,
    resume_s: f64,
    /// Wall time of every service epoch, ms.
    epochs_ms: Vec<f64>,
    /// Wall time of the service: build, report folding, epochs, s.
    service_s: f64,
    /// CPU time of the same, s.
    service_cpu_s: f64,
}

impl Cycle {
    /// Service epochs per CPU second of service: the build, report
    /// folding and epochs, checkpointing ones included. CPU rather than
    /// wall time, because host steal moved the wall-time figure by up to
    /// a third between runs minutes apart on the reference VM while the
    /// CPU figure held within a few percent. The resume is left out: its
    /// JSON parse rescans the 26 MB document, so its time follows cache
    /// contention from other tenants of the host (a ten-run median moved
    /// 30 % within twenty minutes). The checkpoint stage split measures
    /// it per layer.
    fn goodput(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let epochs = self.epochs_ms.len() as f64;
        epochs / self.service_cpu_s
    }
}

/// One seeded batch of `report` requests.
fn report_batch(rng: &mut StdRng, batch: usize, chips: u64) -> Vec<Request> {
    (0..batch).map(|_| draw_report(rng, chips)).collect()
}

/// Folds `reports` into `daemon`, then advances it one epoch.
fn serve_epoch(
    daemon: &mut FleetDaemon,
    reports: &[Request],
    epochs: &mut EpochTimes,
    out: &mut Outcome,
) -> f64 {
    for request in reports {
        let reply = daemon.handle(request);
        out.attempted += 1;
        if !storm::answers(request, &reply) {
            out.failed += 1;
            out.problems.push(format!("report answered {reply:?}"));
        }
    }
    out.attempted += 1;
    epochs.advance(daemon)
}

/// Runs the `restart` workload.
#[allow(clippy::too_many_lines)]
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let config = ctx.fleet_config(ctx.chips());
    let chips = config.chips as u64;
    let batch = if ctx.smoke { 16 } else { 256 };

    // Set-up is the build alone, in CPU seconds; the cycles' own builds
    // count too. A build takes a tenth of a second, so twice the usual
    // count of them steadies the median cheaply.
    let mut builds: Vec<f64> = (0..2 * ctx.setups() + 1)
        .map(|_| cpu_timed(|| FleetDaemon::new(config.clone(), ResultCache::disabled(), 0)).1)
        .collect();
    let sink = ctx.trace.then(SpanSink::install);

    let started = std::time::Instant::now();
    let mut cycles = Vec::new();
    let mut epochs = EpochTimes::new(CHECKPOINT_EVERY);
    let mut last_live = None;
    let mut cycle_index = 0u64;
    // Whole cycles only: start another while one more fits the budget.
    #[allow(clippy::cast_precision_loss)]
    while cycles.is_empty()
        || started.elapsed().as_secs_f64() * (cycles.len() + 1) as f64 / cycles.len() as f64
            <= ctx.seconds
    {
        let store = ctx.fresh_dir("store")?;
        let cache = || ResultCache::at(store.clone());
        let mut cycle = Cycle::default();
        let mut rng = SeedSequence::new(ctx.seed)
            .child(REPORT_STREAM)
            .rng(cycle_index);
        let before: Vec<Vec<Request>> = (0..PRE_AGE_EPOCHS)
            .map(|_| report_batch(&mut rng, batch, chips))
            .collect();
        let after: Vec<Vec<Request>> = (0..PRE_AGE_EPOCHS)
            .map(|_| report_batch(&mut rng, batch, chips))
            .collect();

        // The service before the crash.
        let ((mut live, service_s), service_cpu_s) = cpu_timed(|| {
            timed(|| {
                let (mut live, build_s) =
                    cpu_timed(|| FleetDaemon::new(config.clone(), cache(), CHECKPOINT_EVERY));
                cycle.build_s = build_s;
                for reports in &before {
                    let secs = serve_epoch(&mut live, reports, &mut epochs, &mut out);
                    cycle.epochs_ms.push(secs * 1e3);
                }
                live
            })
        });
        cycle.service_s += service_s;
        cycle.service_cpu_s += service_cpu_s;
        out.check(probes::snapshot_count(&store) == 3, || {
            format!(
                "{} snapshots saved, expected 3",
                probes::snapshot_count(&store)
            )
        });

        // The crash: a new process-life resumes from the store.
        let ((mut resumed, was_resumed), resume_s) =
            timed(|| FleetDaemon::resume_or_new(config.clone(), cache(), CHECKPOINT_EVERY));
        cycle.resume_s = resume_s;
        out.attempted += 1;
        if !verify(&mut live, &mut resumed, was_resumed, &mut out) {
            out.failed += 1;
        }

        // The resumed service, then the uncrashed daemon under the same
        // reports as its reference.
        let (((), service_s), service_cpu_s) = cpu_timed(|| {
            timed(|| {
                for reports in &after {
                    let secs = serve_epoch(&mut resumed, reports, &mut epochs, &mut out);
                    cycle.epochs_ms.push(secs * 1e3);
                }
            })
        });
        cycle.service_s += service_s;
        cycle.service_cpu_s += service_cpu_s;
        for reports in &after {
            serve_epoch(&mut live, reports, &mut epochs, &mut out);
        }
        out.attempted += 1;
        if !verify(&mut live, &mut resumed, true, &mut out) {
            out.failed += 1;
        }
        drop(resumed);
        eprintln!(
            "restart cycle {cycle_index}: build {:.3} CPU s, epoch {:.2} ms, checkpoint stall \
             {:.1} ms, resume {:.3} s; {} service epochs in {:.3} s, {:.3} CPU s",
            cycle.build_s,
            epochs.epoch_ms(),
            epochs.stall_ms(),
            cycle.resume_s,
            cycle.epochs_ms.len(),
            cycle.service_s,
            cycle.service_cpu_s
        );
        cycles.push(cycle);
        last_live = Some((live, store));
        cycle_index += 1;
    }
    drop(sink);

    builds.extend(cycles.iter().map(|c| c.build_s));
    let goodput = median(&cycles.iter().map(Cycle::goodput).collect::<Vec<_>>());
    if !ctx.trace {
        out.metric("setup_s", median(&builds), "s");
        out.metric("goodput_per_s", goodput, "1/s");
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
        return Ok(out);
    }
    let mut service_ms: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.epochs_ms.iter().copied())
        .collect();
    service_ms.sort_by(f64::total_cmp);
    out.metric("traced.goodput_per_s", goodput, "1/s");
    out.metric("traced.op_p50_ms", quantile(&service_ms, 0.5), "ms");
    out.metric("traced.op_p99_ms", quantile(&service_ms, 0.99), "ms");

    // Layer probes on the last cycle's uncrashed daemon and its store.
    let (mut daemon, store) = last_live.ok_or("no cycle ran")?;
    let codec = probes::fleet_layers(ctx, &mut daemon, &store, &epochs, &mut out)?;
    storm::probe(ctx, daemon, &codec, &mut out)?;
    paper::probe(ctx, &mut out);
    out.ops_metrics();
    Ok(out)
}

/// The recovery gate: a resume happened, both digests match the crashed
/// daemon's, and both answer `stats` identically apart from the
/// per-process request count.
fn verify(
    live: &mut FleetDaemon,
    resumed: &mut FleetDaemon,
    was_resumed: bool,
    out: &mut Outcome,
) -> bool {
    let problems = out.problems.len();
    out.check(was_resumed, || {
        "resume_or_new built fresh instead of resuming".into()
    });
    out.check(
        resumed.state().state_digest() == live.state().state_digest(),
        || "resumed state digest differs".into(),
    );
    out.check(
        resumed.state().mutation_digest() == live.state().mutation_digest(),
        || "resumed mutation digest differs".into(),
    );
    match (
        live.handle(&Request::Stats),
        resumed.handle(&Request::Stats),
    ) {
        (Response::Stats(mut a), Response::Stats(b)) => {
            a.requests = b.requests;
            out.check(a == b, || {
                format!("stats differ after resume: {a:?} vs {b:?}")
            });
        }
        other => out.problems.push(format!("stats replies: {other:?}")),
    }
    out.problems.len() == problems
}
