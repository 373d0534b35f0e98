#!/usr/bin/env bash
# The local CI gauntlet, in dependency order: build everything in release
# mode, run the full test suite and the benchmark's smoke suite, run the
# domain-aware static-analysis gate, and smoke-check the perf ledger +
# regression gate.
#
# `perf_gate --smoke` deliberately runs no benchmarks: it validates that
# every committed bench_history/*.jsonl parses and that the gate's
# discrimination logic holds on synthetic data, so this script stays
# deterministic on noisy shared machines. Record fresh ledger entries
# with `perf_ledger` and gate real runs with `perf_gate --repeats N --`
# on quiet hardware.
set -euo pipefail
cd "$(dirname "$0")/.."
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT

echo "== cargo build --release" >&2
# --workspace matters: the root Cargo.toml is both workspace root and a
# package, so a bare `cargo build` builds only the root package and the
# member *bins* this script executes (fleetd, fleet_storm, perf_gate,
# the ledgered benches) would silently stay stale.
cargo build --release --workspace

echo "== cargo test" >&2
# --workspace: the root package holds the cross-crate tier-1 suites, but
# per-crate tests (fleet resume/protocol, analyzer fixtures, ...) live
# in their own crates and must run too.
cargo test -q --workspace

echo "== perfbench smoke" >&2
# The repository benchmark's own smoke suite: every workload at 2k
# chips, untraced and traced, with all of its correctness checks. The
# traced restart run reads the newest checkpoint back through
# json::parse -> from_cache_json -> restore and requires a byte-identical
# re-render, so a checkpoint format change that breaks the benchmark
# fails here.
CARGO_TARGET_DIR=.bench_build cargo test --release --manifest-path perfbench/Cargo.toml

echo "== physics golden (all_experiments)" >&2
# The physics oracle: an uncached all_experiments run must reproduce the
# committed manifest at zero tolerance. Three keys vary between
# identical runs and are skipped: the two f64 trap counters are summed
# in pool-completion order, and the pool gauges follow scheduling.
SELFHEAL_CACHE=off target/release/all_experiments --json > "$SMOKE_DIR/all_experiments.json"
target/release/manifest_diff tests/golden/all_experiments.json \
    "$SMOKE_DIR/all_experiments.json" --tolerance 0 \
    --ignore metrics.bti.td.trap_captures \
    --ignore metrics.bti.td.trap_emissions \
    --ignore metrics.runtime.pool

echo "== cargo analyzer check" >&2
# Includes the workspace dataflow pass: any deterministic root reaching
# a clock/env/IO/unseeded-RNG sink without a justified trust annotation
# is a finding, and the baseline is kept empty.
cargo analyzer check

echo "== cargo analyzer graph (smoke)" >&2
# The graph dump must stay valid JSON and see every workspace crate.
cargo analyzer graph | python3 -c '
import json, sys
g = json.load(sys.stdin)
assert len(g["crates"]) >= 10, g["crates"]
assert g["nodes"] and g["edges"] and g["roots"]
n, e, r, c = (len(g[k]) for k in ("nodes", "edges", "roots", "crates"))
print(f"analyzer graph: {n} nodes, {e} edges, {r} roots across {c} crates")
'

echo "== perf_gate --smoke" >&2
cargo run -q --release -p selfheal-bench --bin perf_gate -- --smoke

echo "== telemetry sampler smoke" >&2
# One real bench run with the streaming sampler on: the Prometheus
# status file must parse as valid text exposition (selfheal-top --check
# embeds the in-tree parser) and the time-series JSONL must carry
# strictly monotone sample timestamps.
SELFHEAL_TELEMETRY="timeseries:$SMOKE_DIR/series.jsonl" \
SELFHEAL_TELEMETRY_SAMPLE=20ms \
    target/release/telemetry_sampler --json --status "$SMOKE_DIR/status.prom" \
    > /dev/null
target/release/selfheal-top --check "$SMOKE_DIR/status.prom"
python3 - "$SMOKE_DIR/series.jsonl" <<'PY'
import json, sys
stamps = []
with open(sys.argv[1]) as fh:
    for line in fh:
        tick = json.loads(line)
        stamps.append(tick["ts_ns"])
        assert tick["metrics"], "sampler tick carries no metrics"
assert stamps, "sampler wrote no time-series ticks"
assert all(a < b for a, b in zip(stamps, stamps[1:])), "ts_ns not monotone"
print(f"timeseries: {len(stamps)} ticks, ts_ns strictly monotone")
PY

echo "== fleet daemon smoke" >&2
# End-to-end service path: fleetd on an ephemeral loopback port with a
# small fleet, an isolated checkpoint store, latency objectives, a flight
# recorder, and a Chrome-trace sink; one request of each type (plus a
# debug-dump) via fleet_storm --smoke tracing its own side, the live
# status file re-checked (including mtime freshness and the slo gauges),
# both trace halves merged into one connected flow graph, and a clean
# shutdown that must leave a final checkpoint behind.
SELFHEAL_TELEMETRY_SAMPLE=50ms \
SELFHEAL_TELEMETRY="trace:$SMOKE_DIR/fleet.daemon.trace.json" \
    target/release/fleetd --chips 256 --shards 4 --workers 2 \
    --epoch-ms 100 --checkpoint-every 0 --cache-dir "$SMOKE_DIR/fleet-cache" \
    --slo 'plan:p99<30s' --slo 'stats:p50<30s' \
    --flight-dump "$SMOKE_DIR/fleet.flight.jsonl" \
    --status "$SMOKE_DIR/fleet.prom" --addr-file "$SMOKE_DIR/fleet.addr" &
FLEETD_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE_DIR/fleet.addr" ] && break
    sleep 0.1
done
[ -s "$SMOKE_DIR/fleet.addr" ] || { echo "fleetd never published its address" >&2; exit 1; }
# Let a couple of wall-clock epochs land before poking it.
sleep 0.3
target/release/fleet_storm --smoke --connect "$(cat "$SMOKE_DIR/fleet.addr")" \
    --trace "$SMOKE_DIR/fleet.client.trace.json" --shutdown
wait "$FLEETD_PID"
target/release/selfheal-top --check --max-age 60s "$SMOKE_DIR/fleet.prom"
grep -q '^selfheal_slo_plan_p99_ok' "$SMOKE_DIR/fleet.prom" \
    || { echo "status file carries no slo gauges" >&2; exit 1; }
grep -q '^selfheal_fleet_epoch_decay_refresh_chips' "$SMOKE_DIR/fleet.prom" \
    || { echo "status file carries no decay-refresh counter" >&2; exit 1; }
# The sampler's last tick follows the final save, so its cost is there.
grep -q '^selfheal_fleet_checkpoint_bytes [1-9]' "$SMOKE_DIR/fleet.prom" \
    || { echo "status file carries no checkpoint cost" >&2; exit 1; }
# A stale status file (dead writer) must now fail the checker.
touch -d '10 minutes ago' "$SMOKE_DIR/fleet.prom"
if target/release/selfheal-top --check --max-age 60s "$SMOKE_DIR/fleet.prom" 2>/dev/null; then
    echo "selfheal-top --check --max-age accepted a stale status file" >&2; exit 1
fi
# The shutdown path dumps the flight ring: every line must be one JSON
# event, the lifecycle records must bracket the requests, and the final
# checkpoint save (written before the dump) must record its cost.
python3 - "$SMOKE_DIR/fleet.flight.jsonl" <<'PY'
import json, sys
events = []
with open(sys.argv[1]) as fh:
    for line in fh:
        events.append(json.loads(line))
kinds = [event["kind"] for event in events]
assert kinds, "flight dump is empty"
assert "lifecycle" in kinds, f"no lifecycle records in {set(kinds)}"
assert "request" in kinds, f"no request records in {set(kinds)}"
saves = [event["detail"] for event in events if event["kind"] == "checkpoint"]
assert saves, f"no checkpoint records in {set(kinds)}"
assert all(" ms=" in d and " bytes=" in d for d in saves), f"checkpoint records lack ms/bytes: {saves}"
print(f"flight dump: {len(kinds)} parseable event(s), last save: {saves[-1]}")
PY
# Merge the two trace halves: at least one rpc flow must span both pids.
target/release/trace_merge --out "$SMOKE_DIR/fleet.merged.trace.json" \
    "$SMOKE_DIR/fleet.client.trace.json" "$SMOKE_DIR/fleet.daemon.trace.json"
python3 - "$SMOKE_DIR/fleet.merged.trace.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
flows = {}
for event in doc["traceEvents"]:
    if event.get("ph") in ("s", "f"):
        flows.setdefault((event["name"], event["id"]), set()).add(event["pid"])
crossed = [k for k, pids in flows.items() if len(pids) > 1]
assert crossed, f"no flow spans both processes ({len(flows)} flow id(s))"
print(f"trace merge: {len(crossed)} cross-process flow(s) of {len(flows)}")
PY
CKPTS=$(find "$SMOKE_DIR/fleet-cache" -name '*.json' | wc -l)
[ "$CKPTS" -ge 2 ] || { echo "no final checkpoint written (found $CKPTS cache files)" >&2; exit 1; }
echo "fleet smoke: clean shutdown, $CKPTS checkpoint file(s)" >&2

echo "== fleetd unwritable checkpoint store" >&2
# A store under a regular file cannot hold a checkpoint: the daemon must
# report that its final save did not land instead of claiming it did.
touch "$SMOKE_DIR/file"
target/release/fleetd --chips 64 --shards 2 --workers 1 --max-epochs 0 \
    --cache-dir "$SMOKE_DIR/file/sub" > "$SMOKE_DIR/unwritable.log" 2>&1
grep -q 'checkpointed: false' "$SMOKE_DIR/unwritable.log" \
    || { echo "fleetd claimed a checkpoint it could not write" >&2; \
         cat "$SMOKE_DIR/unwritable.log" >&2; exit 1; }

echo "== tiered fleet smoke" >&2
# The tiered integrator end to end: a --tiered daemon serves every
# request type, checkpoints carry per-chip tier state, and a kill -9
# mid-flight resumes from the checkpointed tiers (not a fresh fleet).
# The smoke's debug-dump request persists the flight ring before the
# kill, so even a SIGKILLed daemon leaves a parseable dump behind.
target/release/fleetd --tiered --guard-band-mv 10 \
    --chips 256 --shards 4 --workers 2 \
    --epoch-ms 50 --checkpoint-every 2 --cache-dir "$SMOKE_DIR/tiered-cache" \
    --flight-dump "$SMOKE_DIR/tiered.flight.jsonl" \
    --addr-file "$SMOKE_DIR/tiered.addr" 2> "$SMOKE_DIR/tiered.first.log" &
TIERED_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE_DIR/tiered.addr" ] && break
    sleep 0.1
done
[ -s "$SMOKE_DIR/tiered.addr" ] || { echo "tiered fleetd never published its address" >&2; exit 1; }
# Enough wall-clock epochs for the checkpoint cadence to fire at least once.
sleep 0.5
target/release/fleet_storm --smoke --connect "$(cat "$SMOKE_DIR/tiered.addr")"
kill -9 "$TIERED_PID"
wait "$TIERED_PID" 2>/dev/null || true
grep -q '\[tiered, guard band' "$SMOKE_DIR/tiered.first.log" \
    || { echo "tiered fleetd did not announce tiering" >&2; exit 1; }
# SIGKILL runs no hooks; the dump on disk is the one the debug-dump
# request wrote moments before the kill, and it must still parse.
python3 - "$SMOKE_DIR/tiered.flight.jsonl" <<'PY'
import json, sys
events = [json.loads(line) for line in open(sys.argv[1])]
assert events, "flight dump is empty after kill -9"
assert all(e["seq"] >= 0 and e["kind"] for e in events)
print(f"flight dump survives kill -9: {len(events)} event(s)")
PY
rm -f "$SMOKE_DIR/tiered.addr"
target/release/fleetd --tiered --guard-band-mv 10 \
    --chips 256 --shards 4 --workers 2 \
    --epoch-ms 50 --checkpoint-every 2 --cache-dir "$SMOKE_DIR/tiered-cache" \
    --addr-file "$SMOKE_DIR/tiered.addr" 2> "$SMOKE_DIR/tiered.second.log" &
TIERED_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE_DIR/tiered.addr" ] && break
    sleep 0.1
done
[ -s "$SMOKE_DIR/tiered.addr" ] || { echo "tiered fleetd never restarted" >&2; exit 1; }
grep -q '(resumed: true)' "$SMOKE_DIR/tiered.second.log" \
    || { echo "restarted tiered fleetd did not resume from its checkpoint" >&2; \
         cat "$SMOKE_DIR/tiered.second.log" >&2; exit 1; }
target/release/fleet_storm --smoke --connect "$(cat "$SMOKE_DIR/tiered.addr")" --shutdown
wait "$TIERED_PID"
echo "tiered fleet smoke: served all request types, kill -9 resumed from tiered checkpoint" >&2

echo "ci: all gates green" >&2
