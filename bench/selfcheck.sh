#!/usr/bin/env bash
# Runs the benchmark against itself: two sets of five untraced runs of all
# four workloads on this commit, every run with its own seed. Prints, per
# workload and end-to-end metric, both set medians, their disagreement and
# the metric's bound from BENCHMARK.json, as the table README.md carries.
# Fails if any disagreement exceeds half the bound: a benchmark that cannot
# agree with itself cannot judge a change. Takes about 18 minutes.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build/selfcheck"
rm -rf "$out"
mkdir -p "$out/A" "$out/B"
seconds="$(python3 -c "import json; print(json.load(open('$root/BENCHMARK.json'))['run_seconds'])")"

seed=0
for set in A B; do
  for run in 1 2 3 4 5; do
    seed=$((seed + 1))
    for workload in echo3 churn3 failover3 stream3tcp; do
      echo "set $set run $run: $workload seed $seed" >&2
      bash "$here/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        --out "$out/$set" >"$out/$set/$workload-seed$seed.log"
    done
  done
done

python3 - "$root/BENCHMARK.json" "$out" <<'PY'
import glob, json, statistics, sys

spec = json.load(open(sys.argv[1]))
out = sys.argv[2]
bad = 0
print("| workload | metric | unit | set A median | set B median | disagreement | bound | verdict |")
print("|---|---|---|---:|---:|---:|---:|---|")
for w in (x["name"] for x in spec["workloads"]):
    sets = {}
    for s in "AB":
        runs = [json.load(open(f)) for f in sorted(glob.glob(f"{out}/{s}/{w}-seed*-trace0.json"))]
        assert len(runs) == 5, f"{w} set {s}: {len(runs)} results, want 5"
        for r in runs:
            assert r["correct"] and r["failed"] == 0, f"{w} seed {r['meta']['seed']}: {r['failed']} failed ops, {r.get('violations')}"
        sets[s] = runs
    for m in spec["end_to_end"]:
        a, b = (statistics.median(r["end_to_end"][m["name"]]["value"] for r in sets[s]) for s in "AB")
        gap = abs(b - a) / a
        ok = gap <= m["bound"] / 2
        bad += not ok
        print(f"| {w} | {m['name']} | {m['unit']} | {a:.4g} | {b:.4g} | {gap:.1%} | {m['bound']:.0%} | {'ok' if ok else 'TOO NOISY'} |")
sys.exit(1 if bad else 0)
PY
