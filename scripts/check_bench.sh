#!/usr/bin/env bash
# Bench gates: the stepper and sampler regression gate on perfbench's
# layer probes, and the end-to-end pipelining gate.
#
# Gate 1 guards the calibration hot path's two lowest layers: one
# stepper day (perfbench's `engine.day_ns` probe) and one binomial draw
# (`dist.draw_ns`, about two thirds of a stepper day). The committed
# BENCH_perfbench.json holds three traced runs per benchmark workload
# (`--trace 1 --seconds 1`), each run's host record and result object
# exactly as perfbench printed them. The script reruns every captured
# workload and seed on this machine and divides each probe by the same
# run's `host.reference_ms`: perfbench's timing of a fixed reference
# computation that shares no code with the program, so a host that runs
# everything slower moves both. It fails when a workload's median
# normalized probe is more than 25% above the capture's (override with
# BENCH_REGRESSION_PCT=NN), or when any run's output checks failed
# (`correct` false).
#
# The committed file is the baseline and is left untouched: the fresh
# runs are written to BENCH_perfbench.fresh.json in the same form (CI
# uploads it as an artifact). To re-baseline, move that file over
# BENCH_perfbench.json.
#
# Gate 2 is `check_pipelining`: a ten-window persisted calibration must
# run at least E2E_SPEEDUP_PCT (default 20) percent faster pipelined
# (run_persisted's background writer) than written synchronously, at
# every thread count. It is self-relative, so no baseline is involved;
# see crates/epibench/src/bin/check_pipelining.rs.
set -euo pipefail
cd "$(dirname "$0")/.."

threshold="${BENCH_REGRESSION_PCT:-25}"

if [ ! -f BENCH_perfbench.json ]; then
  echo "check_bench: no committed BENCH_perfbench.json baseline" >&2
  exit 1
fi

echo "==> cargo build --release --offline --manifest-path perfbench/Cargo.toml"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> perfbench probes against BENCH_perfbench.json (fail > ${threshold}% slower)"
python3 - "$threshold" << 'PY'
import json, statistics, subprocess, sys

threshold = float(sys.argv[1])
PROBES = ("engine.day_ns", "dist.draw_ns")
base = json.load(open("BENCH_perfbench.json"))

failed = []
fresh = []
for run in base:
    workload, seed = run["host"]["workload"], run["host"]["seed"]
    print(f"  perfbench --workload {workload} --seed {seed} --seconds 1 --trace 1", flush=True)
    out = subprocess.run(
        ["cargo", "run", "--release", "--quiet", "--offline",
         "--manifest-path", "perfbench/Cargo.toml", "--",
         "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True,
    ).stdout.splitlines()
    try:
        fresh.append({"host": json.loads(out[0])["host"], "result": json.loads(out[-1])})
    except (IndexError, KeyError, ValueError):
        failed.append(f"{workload} seed {seed}: perfbench printed no result")
# One run per line, as perfbench printed it.
with open("BENCH_perfbench.fresh.json", "w") as f:
    f.write("[\n" + ",\n".join(json.dumps(run) for run in fresh) + "\n]\n")

def normalized(runs):
    by_probe = {}
    for run in runs:
        metrics = run["result"]["metrics"]
        reference = metrics["host.reference_ms"]["value"]
        for probe in PROBES:
            key = (run["host"]["workload"], probe)
            by_probe.setdefault(key, []).append(metrics[probe]["value"] / reference)
    return {key: statistics.median(values) for key, values in by_probe.items()}

for name, runs in (("capture", base), ("fresh", fresh)):
    for run in runs:
        if not run["result"]["correct"]:
            host = run["host"]
            failed.append(f"{name} {host['workload']} seed {host['seed']}: output checks failed")

base_norm, fresh_norm = normalized(base), normalized(fresh)
for (workload, probe), base_value in sorted(base_norm.items()):
    if (workload, probe) not in fresh_norm:
        failed.append(f"{workload} {probe}: no fresh run")
        continue
    delta = (fresh_norm[(workload, probe)] / base_value - 1.0) * 100.0
    status = "FAIL" if delta > threshold else "ok"
    print(
        f"  {status:>4}  {workload} {probe} per reference ms: "
        f"{base_value:.2f} -> {fresh_norm[(workload, probe)]:.2f} ({delta:+.1f}%)"
    )
    if delta > threshold:
        failed.append(f"{workload} {probe}: {delta:+.1f}% over the capture (limit +{threshold:.0f}%)")

if not base_norm:
    failed.append("BENCH_perfbench.json holds no runs")
for msg in failed:
    print(f"check_bench: {msg}", file=sys.stderr)
sys.exit(1 if failed else 0)
PY
echo "probe regression gate passed (fresh runs in BENCH_perfbench.fresh.json)"

echo "==> cargo run --release -p epibench --bin check_pipelining"
cargo run --release -q -p epibench --bin check_pipelining
