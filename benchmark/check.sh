#!/usr/bin/env bash
# Self-consistency gate: is the benchmark quiet enough to be believed?
#
#   benchmark/check.sh [--smoke] [--runs N] [--record FILE]
#
# Makes the acceptance runs twice over the same code: per set, N (default
# ten) runs of every workload, each with a seed of its own, the second set
# walking the workloads in the opposite order. Prints, per workload and
# end-to-end metric, both sets' medians and spreads (distance between the
# quartiles as a share of the median), and exits non-zero if a spread other
# than setup_s's exceeds the metric's bound, if the second median is worse
# than the first by more than the bound, or if any run reports a failed
# operation. Bounds, workloads and run length come from BENCHMARK.json.
#
# --smoke makes one short run per workload and set: a plumbing check that
# takes seconds and judges failures only. --record writes both sets'
# medians and spreads, with the provenance of the runs, to FILE as JSON.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec python3 - "$here" "$@" <<'PY'
import json, statistics, subprocess, sys

here, args = sys.argv[1], sys.argv[2:]
smoke = "--smoke" in args
runs = 1 if smoke else int(args[args.index("--runs") + 1]) if "--runs" in args else 10
spec = json.load(open(f"{here}/../BENCHMARK.json"))
workloads = [w["name"] for w in spec["workloads"]]
metrics = spec["end_to_end"]

def run(workload, seed):
    cmd = [f"{here}/run.sh", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    cmd += ["--smoke"] if smoke else ["--seconds", str(spec["run_seconds"])]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])

failed_ops = 0
values = [{}, {}]  # per set: (workload, metric) -> values
for s in (0, 1):
    order = workloads if s == 0 else workloads[::-1]
    for i in range(runs):
        for w in order:
            r = run(w, 1 + s * runs + i)
            failed_ops += r["failed"] + (0 if r["correct"] else 1)
            for m in metrics:
                values[s].setdefault((w, m["name"]), []).append(r["metrics"][m["name"]]["value"])
        print(f"set {s + 1}: {i + 1}/{runs} runs of each workload done", file=sys.stderr)

def spread(v):
    if len(v) < 2:
        return 0.0
    q = statistics.quantiles(v, n=4)
    return (q[2] - q[0]) / statistics.median(v)

bad = 0
print(f"{'workload':<16} {'metric':<12} {'median 1':>12} {'spread 1':>9} {'median 2':>12} {'spread 2':>9} {'worse by':>9} {'bound':>6}")
for w in workloads:
    for m in metrics:
        a, b = values[0][(w, m["name"])], values[1][(w, m["name"])]
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(a), spread(b)
        noisy = m["name"] != "setup_s" and max(sa, sb) > m["bound"]
        verdict = "" if smoke or not (noisy or worse > m["bound"]) else "  <-- outside the bound"
        bad += bool(verdict)
        print(f"{w:<16} {m['name']:<12} {ma:>12.4f} {sa:>9.2%} {mb:>12.4f} {sb:>9.2%} {worse:>+9.2%} {m['bound']:>6.0%}{verdict}")
print(f"failed operations: {failed_ops}; pairs outside their bound: {bad}")
if "--record" in args:
    record = {"provenance": {}, "runs_per_set": runs, "seeds": [[1, runs], [runs + 1, 2 * runs]], "medians": {}}
    for w in workloads:
        detail = json.load(open(f"{here}/out/{w}.trace0.json"))
        record["provenance"][w] = detail["provenance"]
        record["medians"][w] = {
            m["name"]: {
                "unit": m["unit"],
                "set1": statistics.median(values[0][(w, m["name"])]),
                "set2": statistics.median(values[1][(w, m["name"])]),
                "spread1": spread(values[0][(w, m["name"])]),
                "spread2": spread(values[1][(w, m["name"])]),
            }
            for m in metrics
        }
    json.dump(record, open(args[args.index("--record") + 1], "w"), indent=2)
sys.exit(1 if bad or failed_ops else 0)
PY
