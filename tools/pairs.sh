#!/usr/bin/env bash
# Alternating parent/change pairs of one zero_bench workload, with the
# hypervisor's steal sampled around every run.
#
#   tools/pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD PAIRS [FIRST_SEED] [SECONDS] [OUT]
#
# Pair k runs seed FIRST_SEED + k (default 100) for SECONDS (default 15) on
# both binaries, untraced; even pairs run the parent first, odd pairs the
# change. Each run's result line goes to OUT (JSON lines, default
# pairs-WORKLOAD.jsonl) with its side, seed and steal share, read from the
# cpu line of /proc/stat before and after the run. The summary prints one row
# per pair (steal and tokens/s of each side), then, per end-to-end metric of
# BENCHMARK.json, each side's median, the parent's IQR, how many pairs the
# change won and whether the medians differ by more than the parent's IQR.
# Build each binary from its own checkout first:
#   cargo build --release --offline --manifest-path zero_bench/Cargo.toml
set -euo pipefail
[ $# -ge 4 ] || { sed -n '2,17p' "$0" >&2; exit 2; }
parent=$1 change=$2 workload=$3 pairs=$4 seed0=${5:-100} seconds=${6:-15}
out=${7:-pairs-$workload.jsonl}
bench_json="$(cd "$(dirname "$0")/.." && pwd)/BENCHMARK.json"

# Steal and total jiffies over every CPU (user through steal; guest time is
# already inside user and nice).
jiffies() { awk '/^cpu / { t = 0; for (i = 2; i <= 9; i++) t += $i; print $9, t }' /proc/stat; }

run() { # side binary seed
    local s0 t0 s1 t1 line steal
    read -r s0 t0 < <(jiffies)
    line=$("$2" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1)
    read -r s1 t1 < <(jiffies)
    steal=$(awk -v s=$((s1 - s0)) -v t=$((t1 - t0)) 'BEGIN { printf "%.4f", t ? s / t : 0 }')
    printf '{"side":"%s","seed":%d,"steal":%s,"result":%s}\n' "$1" "$3" "$steal" "$line" >> "$out"
    echo "pair $((k + 1))/$pairs: $1 seed $3 steal $steal" >&2
}

: > "$out"
for ((k = 0; k < pairs; k++)); do
    seed=$((seed0 + k))
    if ((k % 2 == 0)); then
        run parent "$parent" "$seed"
        run change "$change" "$seed"
    else
        run change "$change" "$seed"
        run parent "$parent" "$seed"
    fi
done

python3 - "$out" "$bench_json" "$workload" <<'PY'
import json, sys

runs = [json.loads(line) for line in open(sys.argv[1])]
metrics = json.load(open(sys.argv[2]))["end_to_end"]
workload = sys.argv[3]


def quantile(xs, q):
    xs = sorted(xs)
    at = q * (len(xs) - 1)
    lo = int(at)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (at - lo)


side = {s: {r["seed"]: r for r in runs if r["side"] == s} for s in ("parent", "change")}
seeds = sorted(set(side["parent"]) & set(side["change"]))
bad = [(r["side"], r["seed"]) for r in runs if not r["result"]["correct"] or r["result"]["failed"]]
if bad:
    print(f"runs with a failed check or failed operations: {bad}")


def value(s, seed, name):
    return side[s][seed]["result"]["metrics"][name]["value"]


print(f"{workload}: {len(seeds)} pairs")
print("| pair | seed | parent steal % | change steal % | parent tokens/s | change tokens/s |")
print("|---|---|---|---|---|---|")
for k, seed in enumerate(seeds):
    p, c = side["parent"][seed], side["change"][seed]
    print(f"| {k + 1} | {seed} | {100 * p['steal']:.1f} | {100 * c['steal']:.1f} "
          f"| {value('parent', seed, 'tokens_per_s'):.1f} | {value('change', seed, 'tokens_per_s'):.1f} |")
print()
print("| metric | parent median | parent IQR | change median | change vs parent | change wins | medians apart by more than the IQR |")
print("|---|---|---|---|---|---|---|")
for m in metrics:
    name, higher = m["name"], m["better"] == "higher"
    if any(name not in side[s][seed]["result"]["metrics"] for s in side for seed in seeds):
        continue
    p = [value("parent", seed, name) for seed in seeds]
    c = [value("change", seed, name) for seed in seeds]
    pm, cm = quantile(p, 0.5), quantile(c, 0.5)
    iqr = quantile(p, 0.75) - quantile(p, 0.25)
    wins = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
    rel = f"{100 * (cm / pm - 1):+.1f} %" if pm else "-"
    print(f"| {name} | {pm:.6g} | {iqr:.3g} | {cm:.6g} | {rel} | {wins}/{len(seeds)} "
          f"| {'yes' if abs(cm - pm) > iqr else 'no'} |")
print()
print(f"steal over all runs: max {100 * max(r['steal'] for r in runs):.1f} %")
PY
