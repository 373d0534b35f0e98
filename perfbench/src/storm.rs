//! `storm_mixed`, the socket workload, against an in-process
//! `FleetServer` with fleetd's default 4 workers, driven from this process
//! by 2 client threads, one connection each (2 = the cores of the
//! reference box). Open loop: each connection sends its own Poisson
//! stream at 100 req/s (200 req/s together) in `fleet_storm`'s mix (plan
//! 60 / predict 25 / report 13 / stats 2), against a live fleet that
//! advances 1 s epochs and checkpoints every 8 into a fresh store.
//! Latency runs from each request's due time, so a stall also charges
//! the requests queued behind it.
//!
//! The traced runs of the other workloads, which serve no requests of
//! their own, drive a short probe storm of the same shape against their
//! fleet, frozen, to measure the `fleet::server` layer.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;
use selfheal::RejuvenationTechnique;
use selfheal_fleet::{
    FleetClient, FleetDaemon, FleetServer, Request, Response, ServeSummary, ServerConfig,
};
use selfheal_runtime::{ResultCache, SeedSequence};
use selfheal_units::{DutyCycle, Seconds};

use crate::paper;
use crate::probes::{self, ClientCodec};
use crate::trace::{SpanEnd, SpanSink};
use crate::util::{cpu_timed, median, ms, peak_rss_mb, quantile, Ctx, Outcome, CHECKPOINT_EVERY};

/// Client connections (= client threads).
const CONNECTIONS: usize = 2;
/// Offered load of the open loop, all connections together.
const OFFERED_RPS: f64 = 200.0;
/// The latency limit `goodput_per_s` counts against.
const LIMIT: Duration = Duration::from_millis(50);
/// A reply later than this after its due time counts as failed.
const DEADLINE: Duration = Duration::from_secs(2);
/// Own lateness of the generator above which a send counts as late.
const LATE: Duration = Duration::from_millis(1);
/// Seed-stream index of the storm's client request streams.
const CLIENT_STREAM: u64 = 0x5707;
/// Seed-stream index of the probe storm's client request streams.
const PROBE_CLIENT_STREAM: u64 = 0x5708;
/// Length of the probe storm, s (a tenth of that in smoke mode).
const PROBE_SECONDS: f64 = 3.0;

/// Draws one request of the storm's mix.
pub fn draw(rng: &mut StdRng, chips: u64) -> Request {
    let chip = rng.gen_range(0..chips);
    let roll: f64 = rng.gen_range(0.0..1.0);
    let (plan, predict, report) = (0.60, 0.85, 0.98);
    if roll < plan {
        Request::Plan {
            chip,
            technique: RejuvenationTechnique::Combined,
            period: None,
            horizon: None,
        }
    } else if roll < predict {
        Request::Predict {
            chip,
            dt: Seconds::new(86_400.0),
        }
    } else if roll < report {
        Request::Report {
            chip,
            duty: DutyCycle::new(rng.gen_range(0.05..0.95)),
        }
    } else {
        Request::Stats
    }
}

/// Draws one `report` request.
pub fn draw_report(rng: &mut StdRng, chips: u64) -> Request {
    Request::Report {
        chip: rng.gen_range(0..chips),
        duty: DutyCycle::new(rng.gen_range(0.05..0.95)),
    }
}

/// Whether `reply` is a well-formed answer to `request`: same kind, same
/// chip, not an error.
pub fn answers(request: &Request, reply: &Response) -> bool {
    match (request, reply) {
        (Request::Plan { chip, .. }, Response::Plan { chip: got, .. })
        | (Request::Predict { chip, .. }, Response::Predict { chip: got, .. })
        | (Request::Report { chip, .. }, Response::Report { chip: got, .. }) => chip == got,
        (Request::Stats, Response::Stats(_)) => true,
        _ => false,
    }
}

/// One attempted request as the client saw it.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// From due time; `None` when no reply arrived.
    latency: Option<Duration>,
    /// Send time minus the later of due time and connection-free time:
    /// how late the generator itself ran.
    own_late: Duration,
    /// Answered correctly within the deadline.
    ok: bool,
    /// Answered with the wrong kind or an error.
    wrong: bool,
    done: Instant,
}

/// One open-loop connection's schedule: Poisson arrivals at `rate` for
/// `seconds`, as offsets from the storm's start.
fn schedule(rng: &mut StdRng, rate: f64, seconds: f64, chips: u64) -> Vec<(Duration, Request)> {
    let mut plan = Vec::new();
    let mut t = 0.0;
    loop {
        let uniform: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -uniform.ln() / rate;
        if t >= seconds {
            return plan;
        }
        plan.push((Duration::from_secs_f64(t), draw(rng, chips)));
    }
}

fn call(
    client: &mut FleetClient,
    request: &Request,
    started: Instant,
    own_late: Duration,
) -> Sample {
    let reply = client.call(request);
    let done = Instant::now();
    let latency = done - started;
    let (answered, wrong) = match &reply {
        Ok(reply) => (true, !answers(request, reply)),
        Err(_) => (false, false),
    };
    Sample {
        latency: answered.then_some(latency),
        own_late,
        ok: answered && !wrong && latency <= DEADLINE,
        wrong,
        done,
    }
}

fn connect(addr: SocketAddr, trace: Option<SeedSequence>) -> Result<FleetClient, String> {
    let mut client = FleetClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    if let Some(seeds) = trace {
        client.enable_trace(seeds);
    }
    Ok(client)
}

fn open_loop(
    addr: SocketAddr,
    start: Instant,
    plan: Vec<(Duration, Request)>,
    trace: Option<SeedSequence>,
) -> Result<Vec<Sample>, String> {
    let mut client = connect(addr, trace)?;
    let mut samples = Vec::with_capacity(plan.len());
    for (offset, request) in plan {
        let due = start + offset;
        let free = Instant::now();
        if due > free {
            std::thread::sleep(due - free);
        }
        let sent = Instant::now();
        let own_late = sent.saturating_duration_since(due.max(free));
        samples.push(call(&mut client, &request, due, own_late));
    }
    Ok(samples)
}

/// What one storm left behind.
struct Storm {
    samples: Vec<Sample>,
    /// From the storm's start to its last reply, s.
    window: f64,
    summary: ServeSummary,
    /// Spans of the traced run (empty when untraced).
    spans: Vec<SpanEnd>,
}

impl Storm {
    /// Answered latencies in ms, ascending.
    fn latencies(&self) -> Vec<f64> {
        let mut latencies: Vec<f64> = self
            .samples
            .iter()
            .filter_map(|s| s.latency)
            .map(ms)
            .collect();
        latencies.sort_by(f64::total_cmp);
        latencies
    }

    /// Requests answered correctly within [`LIMIT`] of their due time,
    /// per second of the window.
    fn goodput(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let good = self
            .samples
            .iter()
            .filter(|s| s.ok && s.latency.is_some_and(|l| l <= LIMIT))
            .count() as f64;
        good / self.window.max(f64::MIN_POSITIVE)
    }
}

/// Serves `daemon` on a fresh server and drives it with the open-loop mix
/// for `seconds`, with live epochs every `epoch_interval` if given;
/// counts and checks every reply into `out`. With `every_kind` the first
/// requests are one of each kind, so a short storm sees them all.
fn storm(
    ctx: &Ctx,
    daemon: FleetDaemon,
    epoch_interval: Option<Duration>,
    seconds: f64,
    stream: u64,
    every_kind: bool,
    out: &mut Outcome,
) -> Result<Storm, String> {
    let sink = ctx.trace.then(SpanSink::install);
    let chips = daemon.state().config().chips as u64;
    let server = FleetServer::bind(
        daemon,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: ServerConfig::default().workers,
            epoch_interval,
            max_epochs: None,
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr();
    let server = std::thread::Builder::new()
        .name("fleet-state".into())
        .spawn(move || server.run())
        .map_err(|e| format!("spawn server: {e}"))?;

    // Inputs come from the seed alone; the server only sees requests.
    let seeds = SeedSequence::new(ctx.seed).child(stream);
    let start = Instant::now() + Duration::from_millis(20);
    #[allow(clippy::cast_precision_loss)]
    let per_connection = OFFERED_RPS / CONNECTIONS as f64;
    let clients: Vec<_> = (0..CONNECTIONS)
        .map(|index| {
            let mut rng = seeds.rng(index as u64);
            let trace = ctx.trace.then(|| seeds.child(0x7e ^ index as u64));
            let mut plan = schedule(&mut rng, per_connection, seconds, chips);
            if every_kind && index == 0 {
                for (slot, request) in plan.iter_mut().zip(one_of_each()) {
                    slot.1 = request;
                }
            }
            std::thread::Builder::new()
                .name(format!("storm-client-{index}"))
                .spawn(move || open_loop(addr, start, plan, trace))
                .map_err(|e| format!("spawn client: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let mut samples = Vec::new();
    for handle in clients {
        match handle.join() {
            Ok(Ok(mut s)) => samples.append(&mut s),
            Ok(Err(e)) => out.problems.push(e),
            Err(_) => out.problems.push("client panicked".into()),
        }
    }
    let last_done = samples.iter().map(|s| s.done).max().unwrap_or(start);
    let window = last_done.saturating_duration_since(start).as_secs_f64();

    let mut control = connect(addr, None)?;
    let bye = control.call(&Request::Shutdown);
    drop(control);
    let summary = server.join().map_err(|_| "server panicked".to_string())?;
    let spans = sink.map_or_else(Vec::new, |(sink, guard)| {
        drop(guard);
        sink.drain()
    });

    // Correctness gate.
    let attempted = samples.len() as u64;
    let failed = samples.iter().filter(|s| !s.ok).count() as u64;
    out.attempted += attempted;
    out.failed += failed;
    out.check(matches!(bye, Ok(Response::Bye)), || {
        format!("shutdown answered {bye:?}")
    });
    let wrong = samples.iter().filter(|s| s.wrong).count();
    out.check(wrong == 0, || {
        format!("{wrong} replies of the wrong kind or errors")
    });
    let answered = attempted - failed;
    out.check(summary.requests >= answered, || {
        format!(
            "server counted {} requests, clients {answered} answered",
            summary.requests
        )
    });
    if epoch_interval.is_some() {
        out.check(summary.epochs > 0, || {
            "no live epoch ran during the storm".into()
        });
    }
    out.check(answered > 0, || "no request was answered".into());
    Ok(Storm {
        samples,
        window,
        summary,
        spans,
    })
}

/// One request of every kind.
fn one_of_each() -> [Request; 4] {
    [
        Request::Plan {
            chip: 0,
            technique: RejuvenationTechnique::Combined,
            period: None,
            horizon: None,
        },
        Request::Predict {
            chip: 1,
            dt: Seconds::new(86_400.0),
        },
        Request::Report {
            chip: 2,
            duty: DutyCycle::new(0.5),
        },
        Request::Stats,
    ]
}

/// Runs the `storm_mixed` workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let config = ctx.fleet_config(ctx.chips());

    // Set-up: build and pre-age, timed in CPU seconds. The daemon
    // checkpoints on fleetd's cadence from the start, as a long-running
    // fleetd would.
    let mut setups = Vec::new();
    let mut daemon = None;
    for _ in 0..ctx.setups() {
        drop(daemon.take());
        let cache = ResultCache::at(ctx.fresh_dir("store")?);
        let ((built, _), secs) =
            cpu_timed(|| probes::aged_daemon(config.clone(), cache, CHECKPOINT_EVERY));
        setups.push(secs);
        daemon = Some(built);
    }
    let daemon = daemon.ok_or("no set-up ran")?;

    // The traced run probes every layer before the storm, on a twin.
    let codec = if ctx.trace {
        let (mut twin, store, epochs) = probes::twin(ctx)?;
        let codec = probes::fleet_layers(ctx, &mut twin, &store, &epochs, &mut out)?;
        drop(twin);
        paper::probe(ctx, &mut out);
        codec
    } else {
        ClientCodec::default()
    };

    // Smoke runs last about a second: tenth-second epochs still reach a
    // checkpoint.
    let interval = Duration::from_millis(if ctx.smoke { 100 } else { 1_000 });
    let run = storm(
        ctx,
        daemon,
        Some(interval),
        ctx.seconds,
        CLIENT_STREAM,
        false,
        &mut out,
    )?;
    let latencies = run.latencies();
    let (p50, p99) = (quantile(&latencies, 0.5), quantile(&latencies, 0.99));
    let deciles: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
        .iter()
        .map(|q| format!("{:.3}", quantile(&latencies, *q)))
        .collect();
    eprintln!(
        "storm_mixed: {} requests over {:.2} s, {:.1} within {} ms per s, {} epochs, {} failed; \
         latency ms at p10/p25/p50/p75/p90/p99: {}",
        run.samples.len(),
        run.window,
        run.goodput(),
        LIMIT.as_millis(),
        run.summary.epochs,
        out.failed,
        deciles.join(" / ")
    );

    // On a shared 2-vCPU host the storm's latency is bimodal: a fast mode
    // near the execute cost and a ~2.5 ms mode whose share follows host
    // CPU steal, which also stretches the checkpoint stall that sets the
    // p99. Over ten runs p50 and p99 spread 0.2–1.4 between quartiles, so
    // they would gate on the host, not the program: the end-to-end run
    // reports the rate answered within the limit, the traced run them all.
    if !ctx.trace {
        out.metric("setup_s", median(&setups), "s");
        out.metric("goodput_per_s", run.goodput(), "1/s");
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
        return Ok(out);
    }
    out.metric("traced.goodput_per_s", run.goodput(), "1/s");
    out.metric("traced.op_p50_ms", p50, "ms");
    out.metric("traced.op_p99_ms", p99, "ms");
    server_layer("storm_mixed", &run, &codec, p50, &mut out);
    out.ops_metrics();
    Ok(out)
}

/// The `fleet::server` layer for a workload that serves no requests of
/// its own: a short traced storm of the same shape against `daemon`,
/// frozen (no epochs).
pub fn probe(
    ctx: &Ctx,
    daemon: FleetDaemon,
    codec: &ClientCodec,
    out: &mut Outcome,
) -> Result<(), String> {
    let seconds = PROBE_SECONDS / if ctx.smoke { 10.0 } else { 1.0 };
    let run = storm(
        ctx,
        daemon,
        None,
        seconds,
        PROBE_CLIENT_STREAM,
        true,
        out,
    )?;
    let p50 = quantile(&run.latencies(), 0.5);
    server_layer("probe storm", &run, codec, p50, out);
    Ok(())
}

/// `fleet::server` from a traced storm: the client, worker and execute
/// spans of each request, joined by trace id; and the load generator's
/// own lateness. Prints the budget row: each layer's median as a share of
/// the client-side p50.
fn server_layer(label: &str, run: &Storm, codec: &ClientCodec, p50_ms: f64, out: &mut Outcome) {
    #[derive(Default)]
    struct Joined {
        kind: Option<String>,
        client: Option<f64>,
        worker: Option<f64>,
        execute: Option<f64>,
    }
    let us = |ns: u64| {
        #[allow(clippy::cast_precision_loss)]
        let us = ns as f64 / 1e3;
        us
    };
    let mut by_trace: BTreeMap<u64, Joined> = BTreeMap::new();
    let mut execute_total_us = 0.0;
    for span in &run.spans {
        if span.name == "fleet.execute" {
            execute_total_us += us(span.wall_ns);
        }
        let Some(id) = span.trace_id else { continue };
        let joined = by_trace.entry(id).or_default();
        let slot = match span.name {
            "fleet.client.request" => &mut joined.client,
            "fleet.request" => &mut joined.worker,
            "fleet.execute" => &mut joined.execute,
            _ => continue,
        };
        *slot = Some(us(span.wall_ns));
        if joined.kind.is_none() {
            joined.kind.clone_from(&span.kind);
        }
    }
    let complete: Vec<&Joined> = by_trace
        .values()
        .filter(|j| j.client.is_some() && j.worker.is_some() && j.execute.is_some())
        .collect();
    out.check(!complete.is_empty(), || {
        "no request joined across client, worker and state thread".into()
    });
    let sorted = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v
    };
    let worker = sorted(complete.iter().filter_map(|j| j.worker).collect());
    let queue = sorted(
        complete
            .iter()
            .map(|j| j.worker.unwrap_or(0.0) - j.execute.unwrap_or(0.0))
            .collect(),
    );
    let remainder = sorted(
        complete
            .iter()
            .map(|j| {
                let kind = j.kind.as_deref().unwrap_or("");
                let client_codec = codec
                    .iter()
                    .find(|(k, _)| **k == kind)
                    .map_or(0.0, |(_, v)| *v);
                j.client.unwrap_or(0.0) - j.worker.unwrap_or(0.0) - client_codec
            })
            .collect(),
    );
    out.metric("server.worker_us.p50", quantile(&worker, 0.5), "us");
    out.metric("server.worker_us.p99", quantile(&worker, 0.99), "us");
    out.metric("server.queue_wait_us.p50", quantile(&queue, 0.5), "us");
    out.metric("server.queue_wait_us.p99", quantile(&queue, 0.99), "us");
    let mut budget = vec![
        (
            "client codec",
            median(&codec.values().copied().collect::<Vec<_>>()),
        ),
        ("worker", quantile(&worker, 0.5)),
        ("queue wait", quantile(&queue, 0.5)),
    ];
    for kind in ["plan", "predict", "report", "stats"] {
        let execute = sorted(
            complete
                .iter()
                .filter(|j| j.kind.as_deref() == Some(kind))
                .filter_map(|j| j.execute)
                .collect(),
        );
        out.check(!execute.is_empty(), || format!("no traced {kind} request"));
        out.metric(
            &format!("server.execute_us.{kind}.p50"),
            quantile(&execute, 0.5),
            "us",
        );
        out.metric(
            &format!("server.execute_us.{kind}.p99"),
            quantile(&execute, 0.99),
            "us",
        );
        budget.push((kind, quantile(&execute, 0.5)));
    }
    out.metric("server.remainder_us.p50", quantile(&remainder, 0.5), "us");
    budget.push(("remainder", quantile(&remainder, 0.5)));
    out.metric(
        "server.state_busy_frac",
        execute_total_us / 1e6 / run.window,
        "fraction",
    );
    #[allow(clippy::cast_precision_loss)]
    out.metric("server.requests", run.summary.requests as f64, "count");
    let late: Vec<f64> = run.samples.iter().map(|s| ms(s.own_late)).collect();
    out.metric(
        "gen.late_ms.max",
        late.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    #[allow(clippy::cast_precision_loss)]
    out.metric(
        "gen.late_frac",
        late.iter().filter(|l| **l > ms(LATE)).count() as f64 / late.len().max(1) as f64,
        "fraction",
    );

    let row: Vec<String> = budget
        .iter()
        .map(|(name, value)| format!("{name} {:.1}%", 100.0 * value / (p50_ms * 1e3)))
        .collect();
    eprintln!(
        "{label} budget, share of traced p50 {p50_ms:.3} ms: {}",
        row.join(" | ")
    );
}
