//! `paper`: repeated uncached `PaperExperiment::paper_cadence(seed).run()`
//! — the DAC'14 campaign (five chips through the Table 1 matrix) with no
//! `ResultCache`. Set-up is five warm-up passes (pool spin-up, lazy
//! tables); the first fixes the reference outputs every later pass must
//! reproduce. Set-up and throughput are in CPU seconds: host steal moves
//! the wall time of a pass between runs minutes apart, not its CPU time.

use std::time::Instant;

use selfheal::PaperExperiment;
use selfheal_telemetry::metrics::{self, Metric};

use crate::probes;
use crate::storm;
use crate::trace::{SpanEnd, SpanSink};
use crate::util::{cpu_timed, median, peak_rss_mb, quantile, timed, Ctx, Outcome};

/// Trap steps one paper-cadence campaign advances at seed 2014.
pub const TRAP_STEPS_2014: f64 = 17_876_668.0;
const TRAP_COUNTER: &str = "bti.td.kernel.traps_advanced";
/// Warm-up passes; `setup_s` is the median of their CPU times.
const WARM_UP: usize = 5;

fn trap_counter() -> f64 {
    match metrics::snapshot().get(TRAP_COUNTER) {
        Some(Metric::Counter(value)) => *value,
        _ => 0.0,
    }
}

/// `runtime::pool` and `core::experiment` from one traced pass's spans:
/// the slowest `experiment.chip` over the mean, and the self time of the
/// `testbench.phase` spans in seconds.
fn pass_layers(spans: &[SpanEnd]) -> (f64, f64) {
    #[allow(clippy::cast_precision_loss)]
    let chips: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "experiment.chip")
        .map(|s| s.wall_ns as f64)
        .collect();
    #[allow(clippy::cast_precision_loss)]
    let mean = chips.iter().sum::<f64>() / chips.len().max(1) as f64;
    #[allow(clippy::cast_precision_loss)]
    let phase_self_s = spans
        .iter()
        .filter(|s| s.name == "testbench.phase")
        .map(|s| s.self_ns as f64 / 1e9)
        .sum();
    (chips.iter().copied().fold(0.0, f64::max) / mean, phase_self_s)
}

/// Checks the trap steps of each counted pass: equal on every pass, and
/// the known count at seed 2014.
fn check_steps(ctx: &Ctx, steps: &[f64], out: &mut Outcome) {
    out.check(
        !steps.is_empty() && steps.iter().all(|s| *s == steps[0] && *s > 0.0),
        || format!("kernel trap steps vary between passes: {steps:?}"),
    );
    if ctx.seed == 2014 {
        out.check(steps.first() == Some(&TRAP_STEPS_2014), || {
            format!("{steps:?} trap steps per campaign, expected {TRAP_STEPS_2014}")
        });
    }
}

/// The paper layers for a workload that runs no campaign of its own: one
/// traced, counted pass.
pub fn probe(ctx: &Ctx, out: &mut Outcome) {
    metrics::set_enabled(true);
    let (sink, guard) = SpanSink::install();
    let before = trap_counter();
    let outputs = PaperExperiment::paper_cadence(ctx.seed).run();
    let steps = trap_counter() - before;
    drop(guard);
    metrics::set_enabled(false);
    out.attempted += 1;
    if outputs.stresses.is_empty() || outputs.recoveries.is_empty() {
        out.failed += 1;
        out.problems.push("the probe campaign produced no series".into());
    }
    check_steps(ctx, &[steps], out);
    let (imbalance, phase_self_s) = pass_layers(&sink.drain());
    out.metric("kernel.trap_steps", steps, "count");
    out.metric("pool.chip_imbalance", imbalance, "ratio");
    out.metric("testbench.phase_self_s", phase_self_s, "s");
}

/// Runs the `paper` workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let experiment = PaperExperiment::paper_cadence(ctx.seed);
    // The traced run counts kernel work on every pass; the untraced run
    // keeps the registry off while timing and counts one extra pass.
    metrics::set_enabled(ctx.trace);
    let sink = ctx.trace.then(SpanSink::install);

    let ((reference, first_s), first_cpu_s) = cpu_timed(|| timed(|| experiment.run()));
    out.attempted += 1;
    out.check(
        !reference.stresses.is_empty() && !reference.recoveries.is_empty(),
        || "the campaign produced no series".into(),
    );
    let mut setups = vec![first_cpu_s];
    let mut warm_up_s = vec![first_s];
    let mut passes = Vec::new();
    let mut steps = Vec::new();
    let mut imbalance = Vec::new();
    let mut phase_self_s = Vec::new();
    let mut counted = trap_counter();
    if let Some((sink, _)) = &sink {
        drop(sink.drain());
    }
    let mut one_pass = |out: &mut Outcome| {
        let ((outputs, secs), cpu_s) = cpu_timed(|| timed(|| experiment.run()));
        out.attempted += 1;
        if outputs != reference {
            out.failed += 1;
            out.problems.push("a pass differs from the first pass".into());
        }
        if let Some((sink, _)) = &sink {
            let now = trap_counter();
            steps.push(now - counted);
            counted = now;
            let (chip, phase) = pass_layers(&sink.drain());
            imbalance.push(chip);
            phase_self_s.push(phase);
        }
        (secs, cpu_s)
    };
    for _ in 1..WARM_UP {
        let (secs, cpu_s) = one_pass(&mut out);
        warm_up_s.push(secs);
        setups.push(cpu_s);
    }
    let started = Instant::now();
    let mut passes_cpu_s = 0.0;
    while passes.is_empty() || started.elapsed().as_secs_f64() < ctx.seconds {
        let (secs, cpu_s) = one_pass(&mut out);
        passes.push(secs);
        passes_cpu_s += cpu_s;
    }
    drop(sink);
    // The fleet probes below run with the registry off, as on the other
    // workloads.
    metrics::set_enabled(false);
    if !ctx.trace {
        metrics::set_enabled(true);
        let before = trap_counter();
        let outputs = experiment.run();
        steps.push(trap_counter() - before);
        metrics::set_enabled(false);
        out.attempted += 1;
        if outputs != reference {
            out.failed += 1;
            out.problems
                .push("the counted pass differs from the first pass".into());
        }
    }
    check_steps(ctx, &steps, &mut out);
    let campaign_s = median(&passes);
    #[allow(clippy::cast_precision_loss)]
    let goodput = passes.len() as f64 / passes_cpu_s;
    eprintln!(
        "paper: warm-up passes {warm_up_s:.3?} s ({setups:.3?} CPU s), {} timed passes, \
         median {campaign_s:.3} s, {goodput:.3} per CPU s, {} trap steps per pass",
        passes.len(),
        steps[0]
    );

    if !ctx.trace {
        out.metric("setup_s", median(&setups), "s");
        out.metric("goodput_per_s", goodput, "1/s");
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
        return Ok(out);
    }
    passes.sort_by(f64::total_cmp);
    out.metric("traced.goodput_per_s", goodput, "1/s");
    out.metric("traced.op_p50_ms", quantile(&passes, 0.5) * 1e3, "ms");
    out.metric("traced.op_p99_ms", quantile(&passes, 0.99) * 1e3, "ms");
    out.metric("kernel.trap_steps", steps[0], "count");
    out.metric("pool.chip_imbalance", median(&imbalance), "ratio");
    out.metric("testbench.phase_self_s", median(&phase_self_s), "s");

    // The fleet layers, on a twin: this workload has no fleet of its own.
    let (mut twin, store, epochs) = probes::twin(ctx)?;
    let codec = probes::fleet_layers(ctx, &mut twin, &store, &epochs, &mut out)?;
    storm::probe(ctx, twin, &codec, &mut out)?;
    out.ops_metrics();
    Ok(out)
}
