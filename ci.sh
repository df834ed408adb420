#!/usr/bin/env bash
# Tier-1 gate: build, test, lint. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release

# The round engine must be invisible in results: the full suite runs once
# with a single-worker pool and once with four workers (PROAUTH_THREADS
# defaults SimConfig::parallel to true), and must pass identically. This
# matrix includes the telemetry determinism gates — `golden_trace` (JSONL
# flight-recorder trace byte-identical across engines, n = 13 under an
# active adversary) and the telemetry-enabled `prop_engine_determinism`
# variant — in both legs.
PROAUTH_THREADS=1 cargo test -q
PROAUTH_THREADS=4 cargo test -q

cargo clippy --workspace --all-targets -- -D warnings

# Fixed-seed chaos smoke: the degradation ramp must demonstrate the (s,t)
# boundary (sub-budget guarantees hold, over-budget degrades with alarms)
# on both engines — the sweep is bit-deterministic across pool sizes.
PROAUTH_THREADS=1 cargo run -q --release -p proauth-examples --bin proauth -- chaos --n 5 --units 3 --seed 42
PROAUTH_THREADS=4 cargo run -q --release -p proauth-examples --bin proauth -- chaos --n 5 --units 3 --seed 42

# Long chaos soak (release): the same boundary contract over a longer
# horizon and several seeds, with a hard bound on re-certification latency.
cargo test -q -p proauth-tests --release --test chaos_soak -- --ignored

# Envelope-budget regression at n = 32 (release: the legacy Θ(n³) ablation
# inside is minutes-long in debug builds): evidence bundling must keep
# refresh traffic O(n²·fanout) and beat the pre-bundle encoding ≥10×.
cargo test -q -p proauth-core --release --test envelope_budget -- --ignored

# One full refresh unit at n = 64 (was infeasible pre-bundling); records
# throughput and peak RSS.
PROAUTH_E11=n64 cargo bench -p proauth-bench --bench e11_system_throughput

# §6 hierarchy smoke on both engine legs: cluster-local ULS stacks under
# the top-level PDS — setup, steady-state heartbeat co-signing across a
# refresh, authenticated cross-cluster transit with replay rejection, and
# representative crash → deterministic re-election with the joint key
# unchanged. Bit-determinism across pool sizes is asserted inside.
PROAUTH_THREADS=1 cargo test -q -p proauth-tests --release --test hierarchy
PROAUTH_THREADS=4 cargo test -q -p proauth-tests --release --test hierarchy

# The §6 headline asserted end to end (release): the hierarchy at n = 64
# sends ≥3× fewer envelopes than the feasible flat configuration over an
# identical refresh-bearing horizon.
cargo test -q -p proauth-tests --release --test hierarchy -- --ignored

# E7 smoke: partition arithmetic tables plus one end-to-end hierarchy run
# at n = 64. The full grid — flat n = 64 comparator and hierarchy runs at
# n = 128 / 256, the numbers behind BENCH_e7.json — runs with
# PROAUTH_E7=full (optionally CRITERION_JSON=BENCH_e7.json to re-emit it).
cargo bench -p proauth-bench --bench e7_partition

# Daemon smoke: n = 5 real node processes plus the chaos proxy over Unix
# sockets, 2 units (so one full proactive refresh) with delay/dup, verified
# against the in-process engine under the same chaos spec (--check:
# certified keys equal, zero forgeries, every node completes every round,
# and — no kills, no socket resets — every node-emitted output event
# bit-identical) and bounded by a hard timeout so a wedged socket loop fails
# the gate instead of hanging it. Clean shutdown is part of the check: the
# orchestrator reaps every child and exits nonzero if any hung or died.
SMOKE_LOG=$(mktemp /tmp/proauth-smoke.XXXXXX)
timeout 300 cargo run -q --release -p proauth-examples --bin proauth -- \
    daemon --n 5 --units 2 --delay 20 --dup 5 --round-ms 2000 --check | tee "$SMOKE_LOG"
grep -q "bit-identical" "$SMOKE_LOG"
rm -f "$SMOKE_LOG"

# E13 signing-service smoke on both engine legs: the open-loop workload,
# session table, nonce pool, and batch-verify window must hold their
# throughput floor (4·signed ≥ 3·offered) and flip pool hit/miss counters
# with preprocessing on/off. The full release ablation grid — preprocessing
# × batch window × n, the ≥2× headline behind BENCH_e13.json — runs with
# PROAUTH_E13=full (optionally CRITERION_JSON=BENCH_e13.json to re-emit it).
PROAUTH_THREADS=1 cargo bench -p proauth-bench --bench e13_signing_service
PROAUTH_THREADS=4 cargo bench -p proauth-bench --bench e13_signing_service

# Observability smoke, clean leg: an adaptive daemon run must serve the live
# status endpoint mid-run — beacons from every node (no "beacons":0 in the
# JSON snapshot), zero alarms — and finish with zero alarms.
OBS_DIR=$(mktemp -d /tmp/proauth-obs.XXXXXX)
timeout 300 cargo run -q --release -p proauth-examples --bin proauth -- \
    daemon --n 5 --units 2 --round-ms 500 --min-round-ms 60 --adaptive \
    --addr "unix:$OBS_DIR" > "$OBS_DIR/daemon.log" 2>&1 &
OBS_PID=$!
sleep 2
SNAP=$(cargo run -q --release -p proauth-examples --bin proauth -- \
    top --addr "unix:$OBS_DIR" --once --view json)
echo "$SNAP" | grep -q '"alarms":\[\]'
if echo "$SNAP" | grep -q '"beacons":0'; then
    echo "observability: a node never beaconed: $SNAP" >&2
    exit 1
fi
wait "$OBS_PID"
grep -q "alarms: none" "$OBS_DIR/daemon.log"
rm -rf "$OBS_DIR"

# Self-healing smoke: n = 13 over the chaos proxy with every node SIGKILLed
# once (--kill auto schedules the victims across refresh windows so share
# recovery never exceeds n-(t+1) concurrent losses) and respawned by the
# supervisor from --state-dir. The live status endpoint is scraped while the
# run is in flight: restarts must surface as node_restarted alarms in the
# JSON snapshot and the recovery-latency histogram in the Prometheus view
# must be non-empty once the first respawn heals. The run itself must still
# verify against the in-process engine (--check: certified keys equal, zero
# forgeries, every node completes every round); kills keep it to this
# contract check, since a rejoined node's log is not bit-comparable.
HEAL_DIR=$(mktemp -d /tmp/proauth-heal.XXXXXX)
timeout 600 cargo run -q --release -p proauth-examples --bin proauth -- \
    daemon --n 13 --units 4 --normal 8 --round-ms 200 --delay 5 --dup 3 \
    --kill auto --state-dir "$HEAL_DIR/state" --addr "unix:$HEAL_DIR" \
    --check > "$HEAL_DIR/daemon.log" 2>&1 &
HEAL_PID=$!
RESTART_SEEN=0
HIST_SEEN=0
for _ in $(seq 1 300); do
    kill -0 "$HEAL_PID" 2>/dev/null || break
    if [ "$RESTART_SEEN" -eq 0 ]; then
        SNAP=$(cargo run -q --release -p proauth-examples --bin proauth -- \
            top --addr "unix:$HEAL_DIR" --once --view json 2>/dev/null || true)
        echo "$SNAP" | grep -q '"kind":"node_restarted"' && RESTART_SEEN=1
    fi
    if [ "$RESTART_SEEN" -eq 1 ]; then
        PROM=$(cargo run -q --release -p proauth-examples --bin proauth -- \
            top --addr "unix:$HEAL_DIR" --once --view metrics 2>/dev/null || true)
        if echo "$PROM" | grep -q '^proauth_net_recovery_latency_ms_count [1-9]'; then
            HIST_SEEN=1
            break
        fi
    fi
    sleep 1
done
if [ "$RESTART_SEEN" -ne 1 ] || [ "$HIST_SEEN" -ne 1 ]; then
    echo "daemon-heal: status endpoint never showed a healed restart" >&2
    cat "$HEAL_DIR/daemon.log" >&2
    exit 1
fi
wait "$HEAL_PID"
grep -q "recovery latency:" "$HEAL_DIR/daemon.log"
rm -rf "$HEAL_DIR"

# Observability smoke, over-budget leg: a partition isolating 2 nodes under
# t = 1 must trip the collector's Definition-7 accounting — the run ends
# with at least the critical budget_exceeded alarm.
OBS_DIR=$(mktemp -d /tmp/proauth-obs.XXXXXX)
timeout 300 cargo run -q --release -p proauth-examples --bin proauth -- \
    daemon --n 5 --t 1 --units 2 --round-ms 500 --partition 4:12:2 \
    > "$OBS_DIR/daemon.log" 2>&1
grep -q "budget_exceeded" "$OBS_DIR/daemon.log"
rm -rf "$OBS_DIR"
