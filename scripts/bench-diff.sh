#!/usr/bin/env bash
# Judges a change against its parent the way the benchmark's driver does.
#
#   scripts/bench-diff.sh [--workloads a,b] [--seeds N] [--parent REV]
#
# Builds `benchmark/` twice — from the files of the parent commit, exported
# with `git archive`, and from the working tree — into separate target
# directories, then runs N (default ten) seeded pairs per workload with the
# two sides interleaved, alternating which side goes first. Workloads, run
# length, end-to-end metrics and their bounds come from BENCHMARK.json.
#
# Prints, per workload and end-to-end metric: both medians, how many of the
# N pairs the change won (ties count for neither), and the interquartile
# range of the change's N values against the most it may be, bound x the
# parent's median (an absolute limit: a change that makes a metric k times
# better has to be k times steadier in relative terms), with the share of
# that limit the change used. Exits non-zero if a median is worse than the
# parent's by more than the bound, if a spread other than setup_s's exceeds
# its limit, or if the change fails a larger share of its operations than
# the parent.
#
# The parent is HEAD while the working tree differs from it, HEAD~1 once the
# change is committed; --parent names another. Everything is left under
# target/bench-diff (ignored), so a second invocation rebuilds only what
# changed.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
exec python3 - "$root" "$@" <<'PY'
import json, os, shutil, statistics, subprocess, sys

root, args = sys.argv[1], sys.argv[2:]


def option(name, default):
    return args[args.index(name) + 1] if name in args else default


spec = json.load(open(f"{root}/BENCHMARK.json"))
known = [w["name"] for w in spec["workloads"]]
workloads = option("--workloads", ",".join(known)).split(",")
unknown = [w for w in workloads if w not in known]
if unknown:
    sys.exit(f"unknown workload(s) {unknown}; BENCHMARK.json has {known}")
seeds = int(option("--seeds", "10"))
metrics = spec["end_to_end"]


def git(*cmd):
    return subprocess.run(["git", "-C", root, *cmd], check=True, stdout=subprocess.PIPE, text=True).stdout.strip()


dirty = git("status", "--porcelain", "--untracked-files=no") != ""
parent = git("rev-parse", "--short=12", option("--parent", "HEAD" if dirty else "HEAD~1"))
work = f"{root}/target/bench-diff"
src = {"parent": f"{work}/parent-src", "change": root}

# The parent's files, and nothing of its history: no worktree to register,
# nothing to clean out of .git if a run is interrupted. Stamped with the
# time of extraction (`-m`), not the commit's: cargo rebuilds what is newer
# than its last build, and with commit times a parent target built from an
# earlier parent would be reused as this one.
shutil.rmtree(src["parent"], ignore_errors=True)
os.makedirs(src["parent"])
archive = subprocess.Popen(["git", "-C", root, "archive", parent], stdout=subprocess.PIPE)
subprocess.run(["tar", "-x", "-m", "-C", src["parent"]], stdin=archive.stdout, check=True)
if archive.wait() != 0:
    sys.exit(f"git archive {parent} failed")

binary = {}
for side in ("parent", "change"):
    target = f"{work}/{side}-target"
    print(f"building {side} ({parent if side == 'parent' else 'working tree'}) ...", file=sys.stderr)
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", f"{src[side]}/benchmark/Cargo.toml", "--target-dir", target],
        check=True, stdout=sys.stderr)
    binary[side] = f"{target}/release/sciera-e2e"


def run(side, workload, seed):
    env = dict(os.environ, SCIERA_E2E_OUT=f"{work}/{side}-out", SCIERA_E2E_COMMIT=parent if side == "parent" else "working tree")
    cmd = [binary[side], "--workload", workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, check=True, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


values = {}  # (side, workload, metric) -> one value per seed
ops = {}  # (side, workload) -> [attempted, failed]
for i in range(seeds):
    for w in workloads:
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            r = run(side, w, 1 + i)
            tally = ops.setdefault((side, w), [0, 0])
            tally[0] += r["attempted"]
            tally[1] += r["failed"] + (0 if r["correct"] else r["attempted"])
            for m in metrics:
                values.setdefault((side, w, m["name"]), []).append(r["metrics"][m["name"]]["value"])
    print(f"pair {i + 1}/{seeds} of each workload done", file=sys.stderr)


def iqr(v):
    if len(v) < 2:
        return 0.0
    q = statistics.quantiles(v, n=4)
    return q[2] - q[0]


bad = 0
print(f"parent {parent} vs {'working tree' if dirty else git('rev-parse', '--short=12', 'HEAD')}, "
      f"{seeds} interleaved pairs, seeds 1-{seeds}, {spec['run_seconds']} s each")
print(f"{'workload':<16} {'metric':<12} {'parent':>12} {'change':>12} {'by':>8} {'wins':>6} "
      f"{'parent iqr':>11} {'change iqr':>11} {'limit':>10} {'used':>6}")
for w in workloads:
    for m in metrics:
        p, c = values[("parent", w, m["name"])], values[("change", w, m["name"])]
        lower = m["better"] == "lower"
        mp, mc = statistics.median(p), statistics.median(c)
        worse = ((mc - mp) if lower else (mp - mc)) / mp
        wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        limit = m["bound"] * mp
        notes = []
        if worse > m["bound"]:
            notes.append("regression")
        if m["name"] != "setup_s" and iqr(c) > limit:
            notes.append("spread")
        bad += len(notes)
        note = f"  <-- {', '.join(notes)}" if notes else ""
        print(f"{w:<16} {m['name']:<12} {mp:>12.4f} {mc:>12.4f} {-worse:>+8.1%} {wins:>3}/{seeds:<2} "
              f"{iqr(p):>11.4f} {iqr(c):>11.4f} {limit:>10.4f} {iqr(c) / limit:>6.0%}{note}")
    (pa, pf), (ca, cf) = ops[("parent", w)], ops[("change", w)]
    failing = cf * pa > pf * ca
    bad += failing
    print(f"{w:<16} failed ops   {pf:>12} {cf:>12}   of {pa} and {ca} attempted{'  <-- more fail' if failing else ''}")
print(f"outside their bound: {bad}")
sys.exit(1 if bad else 0)
PY
