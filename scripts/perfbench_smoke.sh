#!/usr/bin/env bash
# Benchmark smoke test for CI: build linkbench from the current sources
# and run every perfbench workload briefly, untraced and traced. Each
# run must end its stdout with a JSON result reporting "correct": true
# and "failed": 0, so an API change that stops perfbench compiling, or a
# workload whose output checks (coded_link's trial-by-trial replay
# against LinkRunner, acquire_fading's noiseless loopback, rf_cosim's
# threaded-vs-sequential stream hash) fail, breaks the build instead of
# surfacing only when the benchmark is next run. Timings are not
# checked.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"

for workload in coded_link acquire_fading rf_cosim; do
    for trace in 0 1; do
        echo "== [$workload] --trace $trace (2 s) =="
        out="$(python3 "$repo/perfbench/run.py" --workload "$workload" \
            --seed 1 --seconds 2 --trace "$trace")"
        last="$(printf '%s\n' "$out" | tail -n 1)"
        if ! printf '%s' "$last" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
ok = r.get("correct") is True and r.get("failed") == 0
print("correct=%s failed=%s" % (r.get("correct"), r.get("failed")))
sys.exit(0 if ok else 1)
'; then
            echo "error: [$workload] --trace $trace: result is not" \
                 "correct with zero failures:" >&2
            printf '%s\n' "$last" >&2
            exit 1
        fi
    done
done
echo "perfbench smoke: all workloads correct"
