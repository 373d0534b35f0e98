//! Shared pieces: run context, the result line, order statistics and the
//! process's peak memory.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use selfheal_fleet::FleetConfig;
use selfheal_telemetry::Json;

/// Fleet size of the full benchmark: 100k chips in 64 shards at a mean of
/// 8 traps per chip (800,792 traps at seed 2014), untiered.
pub const FULL_CHIPS: usize = 100_000;
/// Fleet size of the smoke mode.
pub const SMOKE_CHIPS: usize = 2_000;
/// Epochs every fleet workload ages before it is measured: past the
/// stretch where `plan` cost still climbs with fleet age.
pub const PRE_AGE_EPOCHS: u64 = 24;
/// fleetd's default checkpoint cadence, in epochs.
pub const CHECKPOINT_EVERY: u64 = 8;

/// Everything a workload needs to know about the run it is part of.
#[derive(Debug)]
pub struct Ctx {
    /// The workload seed: every input is derived from it.
    pub seed: u64,
    /// Measured duration of the run.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Seconds-long smoke scale instead of the full fleet.
    pub smoke: bool,
    /// Private scratch directory for checkpoint stores (inside the
    /// working directory, removed when the run ends).
    pub scratch: PathBuf,
}

impl Ctx {
    /// Chips in the workload's fleet.
    pub fn chips(&self) -> usize {
        if self.smoke {
            SMOKE_CHIPS
        } else {
            FULL_CHIPS
        }
    }

    /// The benchmark fleet at `chips` chips, seeded from the run seed.
    pub fn fleet_config(&self, chips: usize) -> FleetConfig {
        let mut config = FleetConfig {
            chips,
            shards: 64.min(chips),
            seed: self.seed,
            ..FleetConfig::default()
        };
        config.trap_params.mean_trap_count = 8.0;
        config
    }

    /// How often set-up is repeated for the `setup_s` median.
    pub fn setups(&self) -> usize {
        if self.smoke || self.trace {
            1
        } else {
            5
        }
    }

    /// A fresh, empty directory under the run's scratch directory.
    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.scratch.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// The benchmark's result: one JSON line on stdout.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (wrong or error reply, missed deadline,
    /// transport failure, mismatched result).
    pub failed: u64,
    /// Correctness problems found; any makes `correct` false.
    pub problems: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Records one metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a correctness problem unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The result line. `attempted` and `failed` are written as integers.
    pub fn render(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::object(vec![
                        ("value".into(), Json::Number(*value)),
                        ("unit".into(), Json::String((*unit).to_string())),
                    ]),
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            Json::object(metrics).render()
        )
    }

    /// Adds the `ops.*` counters every traced run reports.
    pub fn ops_metrics(&mut self) {
        #[allow(clippy::cast_precision_loss)]
        {
            self.metric("ops.attempted", self.attempted as f64, "count");
            self.metric("ops.failed", self.failed as f64, "count");
        }
    }
}

/// Nearest-rank quantile (`q` in 0..=1) of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of an unordered sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Runs `f` once and returns its result with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64())
}

/// Median wall time of `reps` calls of `f`, in seconds.
pub fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps.max(1)).map(|_| timed(&mut f).1).collect();
    median(&times)
}

/// Duration in fractional milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU time this process's threads have run, in seconds, summed from
/// their scheduler statistics (`/proc/self/task/*/schedstat`, ns). Time
/// the host stole from the vCPUs is not in it, which makes it the steady
/// measure of work on a shared host. Threads that exited are not in it
/// either, so it is only taken over spans in which no thread exits.
pub fn process_cpu_s() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return f64::NAN;
    };
    let ns: u64 = tasks
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("schedstat")).ok())
        .filter_map(|stat| stat.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    #[allow(clippy::cast_precision_loss)]
    let secs = ns as f64 / 1e9;
    secs
}

/// Runs `f` once and returns its result with the CPU time it took, in
/// seconds (see [`process_cpu_s`]).
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = process_cpu_s();
    let value = f();
    (value, process_cpu_s() - before)
}
