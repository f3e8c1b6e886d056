#!/usr/bin/env bash
# Paired benchmark runs: a parent commit against this checkout.
#
#   scripts/pair.sh PARENT WORKLOAD SEED PAIRS
#   make pair PARENT=<ref|dir> WORKLOAD=<workload> SEED=<seed> [PAIRS=10]
#
# PARENT is a git ref, checked out with `git worktree` under
# .bench_build/parent (removed on exit), or a directory holding the
# parent's tree (a `git clone` or `git archive` of it), used in place.
# It runs each tree's own benchmark/run.sh untraced, PAIRS times each,
# alternating the two trees and swapping which goes first every pair
# (the box's speed drifts over minutes; a fixed order would hand one
# side the fast half). Then it runs one traced pair. It prints, per
# end-to-end metric of BENCHMARK.json: both sides' medians [q1–q3], the
# ratio of the medians, how many pairs the change won (ties count for
# neither), how many parent IQRs the medians are apart, and the median
# per-pair ratio with its sign-test interval. Last come the exact
# counters of the traced pair (benchmark/sets.go's exactCounts) side by
# side, then every other per-layer metric of it.
#
# Each run's result object and the report are kept under
# .bench_build/pair/<workload>-<seed>-<time>/. Exits non-zero if any run
# fails to produce a result.
set -euo pipefail
if [ $# -ne 4 ]; then
	echo "usage: $0 PARENT WORKLOAD SEED PAIRS" >&2
	exit 2
fi
parent_ref=$1 workload=$2 seed=$3 pairs=$4
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/pair/$workload-$seed-$(date +%Y%m%dT%H%M%S)"
mkdir -p "$out"

if [ -f "$parent_ref/benchmark/run.sh" ]; then
	parent="$(cd "$parent_ref" && pwd)"
else
	parent="$root/.bench_build/parent"
	git -C "$root" worktree remove --force "$parent" 2>/dev/null || true
	git -C "$root" worktree prune
	git -C "$root" worktree add --quiet --detach "$parent" "$parent_ref"
	trap 'git -C "$root" worktree remove --force "$parent"; git -C "$root" worktree prune' EXIT
fi
echo "pair: parent $(git -C "$parent" rev-parse --short HEAD 2>/dev/null || echo "untracked") ($parent_ref) vs this checkout; $workload, seed $seed, $pairs pairs; results in $out" >&2

# run TREE SIDE PAIR TRACE: one run of TREE's benchmark, its result line
# saved as SIDE-PAIR.json (or SIDE-traced.json).
run() {
	local tree=$1 side=$2 name=$3 trace=$4 log="$out/$2-$3.log"
	if ! bash "$tree/benchmark/run.sh" --workload "$workload" --seed "$seed" --trace "$trace" >"$log" 2>&1; then
		echo "pair: $side run $name failed; see $log" >&2
		tail -n 5 "$log" >&2
		exit 1
	fi
	tail -n 1 "$log" >"$out/$side-$name.json"
}

for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run "$parent" parent "$i" 0
		run "$root" change "$i" 0
	else
		run "$root" change "$i" 0
		run "$parent" parent "$i" 0
	fi
	echo "pair: $i/$pairs done" >&2
done
run "$parent" parent traced 1
run "$root" change traced 1

python3 - "$out" "$pairs" "$root/BENCHMARK.json" "$root/benchmark/sets.go" <<'EOF' | tee "$out/report.txt"
import json, math, re, statistics, sys

out, pairs, manifest, sets_go = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
def load(side, name):
    r = json.load(open(f"{out}/{side}-{name}.json"))
    r["metrics"] = {k: v["value"] for k, v in r["metrics"].items()}
    return r

runs = {s: [load(s, i) for i in range(1, pairs + 1)] for s in ("parent", "change")}
metrics = json.load(open(manifest))["end_to_end"]
exact = re.findall(r'"([\w.]+)"', re.search(r"var exactCounts = \[\]string\{(.*?)\}", open(sets_go).read(), re.S).group(1))

def quart(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4))

def sign_interval(rs):
    # [r_(j), r_(n+1-j)] holds the median per-pair ratio with probability
    # 1 - 2·P(Binomial(n, 1/2) < j): the largest j keeping that ≥ 95 %
    # (j = 1, the whole range, when n is too small for it).
    n = len(rs)
    below = lambda j: sum(math.comb(n, i) for i in range(j)) / 2**n
    j = 1
    while 2 * (j + 1) <= n + 1 and below(j + 1) <= 0.025:
        j += 1
    rs = sorted(rs)
    return rs[j - 1], rs[n - j], 1 - 2 * below(j)

for side, rs in runs.items():
    print(f"{side}: correct {all(r['correct'] for r in rs)}, attempted {sum(r['attempted'] for r in rs)}, failed {sum(r['failed'] for r in rs)}")
print(f"{'metric':<15} {'parent median [q1-q3]':>28} {'change median [q1-q3]':>28} {'ratio':>7} {'better':>7} {'IQRs':>6}  per-pair ratio [sign-test interval]")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    p = [r["metrics"].get(name) for r in runs["parent"]]
    c = [r["metrics"].get(name) for r in runs["change"]]
    if None in p or None in c:
        continue
    pq, cq = quart(p), quart(c)
    ratio = cq[1] / pq[1] if pq[1] else float("nan")
    wins = sum(1 for a, b in zip(p, c) if (b < a if lower else b > a))
    iqr = pq[2] - pq[0]
    apart = abs(cq[1] - pq[1]) / iqr if iqr else float("inf")
    rs = [b / a for a, b in zip(p, c) if a]
    lo, hi, cover = sign_interval(rs) if rs else (float("nan"),) * 3
    print(f"{name:<15} {pq[1]:>9.4g} [{pq[0]:.4g}-{pq[2]:.4g}]".ljust(44) +
          f" {cq[1]:>9.4g} [{cq[0]:.4g}-{cq[2]:.4g}]".ljust(29) +
          f" ×{ratio:<6.3f} {wins:>3}/{pairs:<3} {apart:>6.2f}  ×{statistics.median(rs):.3f} [{lo:.3f}–{hi:.3f}, {cover:.1%}]")
print("per pair (parent → change): " + "; ".join(
    m["name"] + " " + ", ".join(f"{a['metrics'][m['name']]:.4g}→{b['metrics'][m['name']]:.4g}" for a, b in zip(runs["parent"], runs["change"]))
    for m in metrics if all(m["name"] in r["metrics"] for r in runs["parent"] + runs["change"])))

tp, tc = load("parent", "traced")["metrics"], load("change", "traced")["metrics"]
print("traced pair, exact counters:")
for name in exact:
    a, b = tp.get(name), tc.get(name)
    print(f"  {name:<28} {a!s:>14} {b!s:>14}  {'equal' if a == b else 'DIFFERS'}")
print("traced pair, other per-layer metrics (parent, change, ratio):")
e2e = {m["name"] for m in metrics}
for name in sorted(set(tp) | set(tc)):
    if name in exact or name in e2e:
        continue
    a, b = tp.get(name), tc.get(name)
    r = f"×{b / a:.3f}" if a and b is not None else ""
    print(f"  {name:<34} {a if a is None else f'{a:.6g}':>14} {b if b is None else f'{b:.6g}':>14}  {r}")
EOF
