#!/usr/bin/env bash
# Bench gates: the simulation-throughput regression gate and the
# end-to-end pipelining gate.
#
# Gate 1 re-runs the stepper bench on this machine and compares against
# the committed BENCH_sim.json.
#
# Fails when any `chain_*` benchmark (the calibration hot path — the
# chain-binomial stepper at every model/population scale) regresses by
# more than 25% over the committed baseline (override with
# BENCH_REGRESSION_PCT=NN). Other suites drift with model fidelity
# choices; the chain path is the one the paper's grid burns its compute
# in, so it is the one a PR must not quietly slow down.
#
# The committed file is treated as the *baseline* and left untouched:
# the fresh capture is written to BENCH_sim.fresh.json (CI uploads it
# as an artifact so trend data survives even when the job is
# non-blocking). Single-shot wall-clock numbers on shared runners are
# noisy — the vendored criterion reports a min-over-batches statistic
# to clip spikes, and the 25% margin is sized for the residual.
#
# Also runs the end-to-end pipelining gate: bench_e2e times a full
# multi-window persisted calibration written synchronously (a stream
# advanced over the plan, writing each window inline) vs. pipelined
# (run_persisted's background writer), in paired, alternating rounds,
# and the pipelined run must be at least E2E_SPEEDUP_PCT (default 20)
# percent faster than the sync run at the same thread count. This is
# self-relative within one fresh capture — no cross-machine baseline
# involved — so it holds anywhere the store's commit latency is nonzero.
set -euo pipefail
cd "$(dirname "$0")/.."

threshold="${BENCH_REGRESSION_PCT:-25}"

if [ ! -f BENCH_sim.json ]; then
  echo "check_bench: no committed BENCH_sim.json baseline" >&2
  exit 1
fi
cp BENCH_sim.json BENCH_sim.baseline.tmp.json
trap 'mv BENCH_sim.baseline.tmp.json BENCH_sim.json' EXIT

echo "==> cargo bench -p epibench --bench bench_sim"
cargo bench -p epibench --bench bench_sim
mv BENCH_sim.json BENCH_sim.fresh.json

echo "==> comparing chain_* against committed baseline (fail > ${threshold}% slower)"
python3 - "$threshold" << 'PY'
import json, sys

threshold = float(sys.argv[1])
base = {
    b["name"]: b["mean_ns"]
    for b in json.load(open("BENCH_sim.baseline.tmp.json"))["benchmarks"]
}
fresh = {
    b["name"]: b["mean_ns"]
    for b in json.load(open("BENCH_sim.fresh.json"))["benchmarks"]
}

failed = []
checked = 0
for name, base_ns in sorted(base.items()):
    if "/chain_" not in name:
        continue
    if name not in fresh:
        failed.append(f"{name}: present in baseline but missing from fresh run")
        continue
    checked += 1
    delta = (fresh[name] / base_ns - 1.0) * 100.0
    status = "FAIL" if delta > threshold else "ok"
    print(
        f"  {status:>4}  {name}: {base_ns / 1e3:.1f} -> {fresh[name] / 1e3:.1f} µs "
        f"({delta:+.1f}%)"
    )
    if delta > threshold:
        failed.append(f"{name}: {delta:+.1f}% over baseline (limit +{threshold:.0f}%)")

if checked == 0:
    failed.append("baseline has no chain_* benchmarks to compare")
for msg in failed:
    print(f"check_bench: {msg}", file=sys.stderr)
sys.exit(1 if failed else 0)
PY
echo "bench regression gate passed (fresh capture in BENCH_sim.fresh.json)"

e2e_threshold="${E2E_SPEEDUP_PCT:-20}"

if [ ! -f BENCH_e2e.json ]; then
  echo "check_bench: no committed BENCH_e2e.json capture" >&2
  exit 1
fi
cp BENCH_e2e.json BENCH_e2e.baseline.tmp.json
trap 'mv BENCH_sim.baseline.tmp.json BENCH_sim.json; mv BENCH_e2e.baseline.tmp.json BENCH_e2e.json' EXIT

echo "==> cargo bench -p epibench --bench bench_e2e"
cargo bench -p epibench --bench bench_e2e
mv BENCH_e2e.json BENCH_e2e.fresh.json

echo "==> pipelined vs sync (fail < ${e2e_threshold}% faster at any thread count)"
python3 - "$e2e_threshold" << 'PY'
import json, sys

threshold = float(sys.argv[1])
fresh = {
    b["name"]: b["mean_ns"]
    for b in json.load(open("BENCH_e2e.fresh.json"))["benchmarks"]
}

failed = []
checked = 0
for name, sync_ns in sorted(fresh.items()):
    if not name.startswith("e2e/sync/"):
        continue
    threads = name.rsplit("/", 1)[1]
    piped = fresh.get(f"e2e/pipelined/{threads}")
    if piped is None:
        failed.append(f"{name}: no matching pipelined entry")
        continue
    checked += 1
    speedup = (1.0 - piped / sync_ns) * 100.0
    status = "FAIL" if speedup < threshold else "ok"
    print(
        f"  {status:>4}  {threads} thread(s): sync {sync_ns / 1e6:.1f} ms, "
        f"pipelined {piped / 1e6:.1f} ms ({speedup:+.1f}%)"
    )
    if speedup < threshold:
        failed.append(
            f"e2e @{threads} threads: pipelined only {speedup:+.1f}% vs sync "
            f"(floor +{threshold:.0f}%)"
        )

if checked == 0:
    failed.append("fresh e2e capture has no e2e/sync/* benchmarks")
for msg in failed:
    print(f"check_bench: {msg}", file=sys.stderr)
sys.exit(1 if failed else 0)
PY
echo "e2e pipelining gate passed (fresh capture in BENCH_e2e.fresh.json)"
