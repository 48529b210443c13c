#!/usr/bin/env bash
# Runs every workload once with the command recorded in BENCHMARK.json and
# prints each one's metrics (units and sample counts included). Stops with
# a non-zero exit at the first run that fails, e.g. on an integrity
# violation.
#
#   bash pipebench/run_all.sh [seed] [seconds] [trace]
set -euo pipefail
cd "$(dirname "$0")/.."
seed=${1:-1}
seconds=${2:-10}
trace=${3:-0}
mapfile -t command < <(python3 -c '
import json
for part in json.load(open("BENCHMARK.json"))["command"]:
    print(part)')
mapfile -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')
for workload in "${workloads[@]}"; do
    echo "== $workload"
    "${command[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
done
