#!/usr/bin/env bash
# Alternating parent/change pairs of zero_bench workloads, with the
# hypervisor's steal sampled around every run, judged by BENCHMARK.json.
#
#   tools/pairs.sh PARENT_BIN CHANGE_BIN WORKLOADS PAIRS [FIRST_SEED] [SECONDS] [OUT_DIR]
#
# WORKLOADS is one workload, several joined by commas, or `all` (every
# workload BENCHMARK.json lists); each runs its PAIRS pairs before the next
# starts. Pair k runs seed FIRST_SEED + k (default 100) for SECONDS
# (default 15) on both binaries, untraced; even pairs run the parent first,
# odd pairs the change. Each run's result line goes to
# OUT_DIR/pairs-WORKLOAD.jsonl (JSON lines, OUT_DIR default .) with its
# side, seed and steal share, read from the cpu line of /proc/stat before
# and after the run. The summary of each workload prints one row per pair
# (steal and tokens/s of each side), then, per end-to-end metric of
# BENCHMARK.json, each side's median, the parent's IQR, how many pairs the
# change won and a verdict against the metric's relative `bound`:
#   unresolved     the parent's IQR is wider than the bound and not every
#                  change run beats every parent run;
#   regressed      otherwise, the change's median is worse than the
#                  parent's by more than the bound;
#   within bound   otherwise.
# Last come the workload's row in the shape of EXPERIMENTS.md's pair
# tables and every run as `seed` + the side that ran first.
# Build each binary from its own checkout first:
#   cargo build --release --offline --manifest-path zero_bench/Cargo.toml
set -euo pipefail
[ $# -ge 4 ] || { sed -n '2,27p' "$0" >&2; exit 2; }
parent=$1 change=$2 workloads=$3 pairs=$4 seed0=${5:-100} seconds=${6:-15} out_dir=${7:-.}
bench_json="$(cd "$(dirname "$0")/.." && pwd)/BENCHMARK.json"
if [ "$workloads" = all ]; then
    workloads=$(python3 -c 'import json, sys; print(",".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$bench_json")
fi

# Steal and total jiffies over every CPU (user through steal; guest time is
# already inside user and nice).
jiffies() { awk '/^cpu / { t = 0; for (i = 2; i <= 9; i++) t += $i; print $9, t }' /proc/stat; }

run() { # side binary seed workload out
    local s0 t0 s1 t1 line steal
    read -r s0 t0 < <(jiffies)
    line=$("$2" --workload "$4" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1)
    read -r s1 t1 < <(jiffies)
    steal=$(awk -v s=$((s1 - s0)) -v t=$((t1 - t0)) 'BEGIN { printf "%.4f", t ? s / t : 0 }')
    printf '{"side":"%s","seed":%d,"steal":%s,"result":%s}\n' "$1" "$3" "$steal" "$line" >> "$5"
    echo "$4 pair $((k + 1))/$pairs: $1 seed $3 steal $steal" >&2
}

mkdir -p "$out_dir"
for workload in ${workloads//,/ }; do
    out="$out_dir/pairs-$workload.jsonl"
    : > "$out"
    for ((k = 0; k < pairs; k++)); do
        seed=$((seed0 + k))
        if ((k % 2 == 0)); then
            run parent "$parent" "$seed" "$workload" "$out"
            run change "$change" "$seed" "$workload" "$out"
        else
            run change "$change" "$seed" "$workload" "$out"
            run parent "$parent" "$seed" "$workload" "$out"
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
bad = [(r["side"], r["seed"]) for r in runs if not r["result"]["correct"]]
if bad:
    print(f"runs that failed a correctness check: {bad}")


def value(s, seed, name):
    return side[s][seed]["result"]["metrics"][name]["value"]


def failed(s):
    rs = [side[s][seed]["result"] for seed in seeds]
    return sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs)


print(f"{workload}: {len(seeds)} pairs")
print("| pair | seed | parent steal % | change steal % | parent tokens/s | change tokens/s |")
print("|---|---|---|---|---|---|")
for k, seed in enumerate(seeds):
    p, c = side["parent"][seed], side["change"][seed]
    print(f"| {k + 1} | {seed} | {100 * p['steal']:.1f} | {100 * c['steal']:.1f} "
          f"| {value('parent', seed, 'tokens_per_s'):.1f} | {value('change', seed, 'tokens_per_s'):.1f} |")
print()
print("| metric | parent median | parent IQR | change median | change vs parent | change wins | verdict (bound) |")
print("|---|---|---|---|---|---|---|")
medians = {}
for m in metrics:
    name, higher, bound = m["name"], m["better"] == "higher", m["bound"]
    if any(name not in side[s][seed]["result"]["metrics"] for s in side for seed in seeds):
        continue
    p = [value("parent", seed, name) for seed in seeds]
    c = [value("change", seed, name) for seed in seeds]
    pm, cm = quantile(p, 0.5), quantile(c, 0.5)
    iqr = quantile(p, 0.75) - quantile(p, 0.25)
    wins = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
    beats_all = min(c) > max(p) if higher else max(c) < min(p)
    worse = (pm - cm if higher else cm - pm) / pm if pm else 0.0
    if pm and iqr / abs(pm) > bound and not beats_all:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regressed"
    else:
        verdict = "within bound"
    medians[name] = (pm, cm, iqr, wins)
    rel = f"{100 * (cm / pm - 1):+.1f} %" if pm else "-"
    print(f"| {name} | {pm:.6g} | {iqr:.3g} | {cm:.6g} | {rel} | {wins}/{len(seeds)} | {verdict} ({bound:g}) |")
print()
steal = sorted(100 * r["steal"] for r in runs)
peaks = {value(s, seed, "peak_device_bytes") for s in side for seed in seeds} if "peak_device_bytes" in medians else set()
(fp, ap), (fc, ac) = failed("parent"), failed("change")
tok, p50, p90, setup = (medians.get(n) for n in ("tokens_per_s", "latency_ms_p50", "latency_ms_p90", "setup_s"))
row = [f"`{workload}`", str(len(seeds))]
if tok:
    row.append(f"{tok[0]:,.0f} → {tok[1]:,.0f} [{tok[2]:,.0f}] {tok[3]}/{len(seeds)} ({100 * (tok[1] / tok[0] - 1):+.1f} %)".replace(",", " "))
row += [f"{x[0]:.2f} → {x[1]:.2f}" if x else "-" for x in (p50, p90)]
row.append(f"{1e3 * setup[0]:.1f} → {1e3 * setup[1]:.1f}" if setup else "-")
row.append(" / ".join(f"{p:,.0f}".replace(",", " ") for p in sorted(peaks)) or "-")
row.append(f"{quantile(steal, 0.5):.2g} / {steal[-1]:.2g}")
row.append(f"{fp:,} of {ap:,} / {fc:,} of {ac:,}".replace(",", " "))
print("| workload | pairs | tokens/s [parent IQR] wins | p50 ms | p90 ms | setup ms | peak_device_bytes (every run) | steal % (median / max) | failed (parent / change) |")
print("|---|---|---|---|---|---|---|---|---|")
print("| " + " | ".join(row) + " |")
print()
every = []
for k, seed in enumerate(seeds):
    p, c = side["parent"][seed], side["change"][seed]
    first = "p" if k % 2 == 0 else "c"
    every.append(f"{seed}{first}: {value('parent', seed, 'tokens_per_s'):.0f}/{value('change', seed, 'tokens_per_s'):.0f} "
                 f"({100 * p['steal']:.1f}/{100 * c['steal']:.1f})")
print(f"- `{workload}`: " + "; ".join(every))
print()
PY
done
