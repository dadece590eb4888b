#!/usr/bin/env bash
# CI entry point: build, test, lint, then the long-running fault-injection
# stress matrix (tests marked #[ignore], e.g. randomized_fault_matrix_stress).
set -euo pipefail
cd "$(dirname "$0")"

# Everything a stage writes outside the tree goes under one scratch root,
# removed by one EXIT trap — a stage that fails under `set -e` leaks nothing.
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

echo "==> line budget (non-test lines of crates/{comm,core,serve,bench}/src; sim = crates/sim/src + src/bin/zero-sim.rs; engine = crates/core/src/engine.rs)"
# Every line outside a #[cfg(test)] item — the number ROADMAP tracks. A test
# item runs from its attribute to the `}` at the attribute's own indentation
# (or to the `;` of a one-line item), so code that follows a file's first
# test module is counted like any other.
# The ceiling is a ratchet: a change that shrinks the code lowers it to
# what it achieved; a change that needs more has to raise it on purpose.
count_non_test='
    FNR == 1 { skip = 0 }
    skip == 0 && /^[[:space:]]*#\[cfg\(test\)\]/ {
        match($0, /^[[:space:]]*/); close_re = "^" substr($0, 1, RLENGTH) "}"; skip = 1; next
    }
    skip == 1 { if ($0 ~ /\{[[:space:]]*$/) skip = 2; else if ($0 ~ /;[[:space:]]*$/) skip = 0; next }
    skip == 2 { if ($0 ~ close_re) skip = 0; next }
    { n++ }
    END { print n + 0 }'
# The counter counts what it claims: 2 lines before a test module, 3 after
# it, 1 after a one-line test item; nothing inside either.
printf '%s\n' 'fn a() {' '}' '#[cfg(test)]' 'mod tests {' '    fn t() {' '    }' '}' \
    'fn b() {' '    let _ = "}";' '}' '#[cfg(test)]' 'use x::y;' 'const C: u8 = 1;' \
    > "$scratch/counted.rs"
[ "$(awk "$count_non_test" "$scratch/counted.rs")" -eq 6 ] \
    || { echo "line counter self-test failed: code after a test module must be counted in full"; exit 1; }
# Raised 12 930 -> 13 380 once, on purpose, by the memory walk
# (core/src/footprint.rs, 359), the placement and settle rule (plan.rs,
# engine.rs) and bench_step's full-offload row; lowered to 13 375 when the
# overlapped gradient spill moved behind its reduce-scatter, and to 13 357
# when one anchor per tier move replaced its direction, issue and demand
# positions and ridden op (no memory walk stamps a demand position now),
# and to 13 257 when the plan builder came to stamp each reduce-scatter's
# settle point and record the step's charges, and the memory walk's own
# replay of the engine went; to 13 249 when the model-state charges became
# one table the engine and the memory walk share, the MD arena came to be
# sized from the plan's charges, and the dead `model_state_bytes` and the
# second `FLAT_LINK` went (the fabric's warm-up fixes for `alloc_steady`
# took 10 of the lines this freed); to 13 198 when each planned op came to
# describe what it sends once, as one per-message list that the byte,
# message and inter-node counts fold, and the `nonblocking` flag no engine
# path read went.
line_ceiling=13198
lines=0
split=""
for crate in comm core serve bench; do
    n=$(find "crates/$crate/src" -name '*.rs' -exec awk "$count_non_test" {} +)
    lines=$((lines + n))
    split="$split $crate $n"
done
# The simulator has a ceiling of its own: its CLI lives in the root package.
sim_ceiling=2240
sim=$(awk "$count_non_test" $(find crates/sim/src -name '*.rs') src/bin/zero-sim.rs)
# So has the training engine, inside the core count: it interprets the
# plan, so a schedule decision moving back into it shows up here first.
# Raised 1 223 -> 1 261: the engine interprets two new facts of the plan,
# each op's position (the settle rule) and the first step's placement.
# Lowered to 1 255: a spill is queued with its reduce-scatter, no drain;
# to 1 252 when a tier move's direction came to be read off its anchor;
# to 1 244 when the engine came to settle where the plan stamps; to 1 210
# when it came to charge the model-state table `footprint` writes, take a
# checkpoint's category from it and size its MD arena from the plan.
engine_ceiling=1210
engine=$(awk "$count_non_test" crates/core/src/engine.rs)
echo "    $lines non-test lines (ceiling $line_ceiling):$split; sim $sim (ceiling $sim_ceiling); engine $engine (ceiling $engine_ceiling)"
[ "$lines" -le "$line_ceiling" ] || { echo "line budget exceeded: lower the count or raise the ceiling deliberately"; exit 1; }
[ "$sim" -le "$sim_ceiling" ] || { echo "sim line budget exceeded: lower the count or raise sim_ceiling deliberately"; exit 1; }
[ "$engine" -le "$engine_ceiling" ] || { echo "engine line budget exceeded: lower the count or raise engine_ceiling deliberately"; exit 1; }

echo "==> cargo build --release"
cargo build --release

echo "==> zero-sim artifact gate (every committed paper artifact regenerated byte for byte)"
# The writer is cwd-relative: run every case from a scratch directory, then
# every file it wrote must equal the committed copy, and every committed
# non-BENCH_* file under results/ must be written by some case.
artifacts="$scratch/artifacts"
zero_sim="$PWD/target/release/zero-sim"
mkdir "$artifacts"
(cd "$artifacts" && "$zero_sim" > log 2>&1) || { cat "$artifacts/log"; echo "zero-sim failed"; exit 1; }
for f in "$artifacts"/results/*; do
    cmp -s "$f" "results/${f##*/}" || { echo "results/${f##*/} differs from what zero-sim writes"; exit 1; }
done
for f in results/*; do
    case "${f##*/}" in BENCH_*) continue ;; esac
    [ -e "$artifacts/$f" ] || { echo "$f is committed but no zero-sim case writes it"; exit 1; }
done

echo "==> zero-verify (schedule + balance + tiling + lint + overlap + tracecheck)"
# The schedule pass includes the balance clause: every planned fetch,
# gradient bucket, CB chunk and tier op has member counts within one
# element per unit it covers (the per-unit partition); the offload and
# compression passes below run it over their sweeps too.
cargo run -q --release -p zero-verify -- --pass schedule,tiling,lint,overlap,tracecheck

echo "==> zero-verify --pass compression (qwZ/hpZ/qgZ sweep, proved inter-node byte ratio)"
# Sweeps N in {2,4,8} x G in {2,4} x every non-empty lever combination its
# stage owns that ZeroConfig::check admits (qgZ at stage 2, 7 combinations at
# stage 3; qwZ alone runs flat, hpZ needs G < N): 30 configurations. Recomputes
# every compressed op's wire bytes independently, and gates the analytic
# stage-3 inter-node reduction at >= 3.5x with all levers on.
cargo run -q --release -p zero-verify -- --pass compression

echo "==> zero-verify --pass offload (tier prefetch windows, byte telescoping, bitwise collective stream)"
# Sweeps 38 configurations -- stages 1-3 x N x sync (overlap at stages 2-3)
# x precision, plus stages 2-3 x N in {4,8} x sync/overlap at G = 2 with every lever the
# stage owns (stage 2 rows carry qgZ only, stage 3 rows qwZ+hpZ+qgZ):
# every tier movement's prefetch window is well-formed, fetches pair
# byte-exactly with their anchor collectives (an hpZ refetch has none), spill volumes telescope against the partition, and
# offloaded plans keep a collective stream bitwise equal to tier-off. A
# checkpoint clause sweeps 13 P_a+cpu configurations (DDP and stages 1-3 x
# mp in {1,2} x sync, overlap at stages 2-3, plus one tier-enabled stage-3 row): each
# checkpoint spill pairs with one later fetch of equal bytes seeding its
# ckpt-gather, checkpoint bytes telescope from the layer count and
# interval, and the collective stream equals the on-device one.
cargo run -q --release -p zero-verify -- --pass offload

echo "==> zero-verify --pass memory (every digest plan: settle stamps, placements within budget)"
# Over every configuration schedule_digests.txt pins: each bucket
# reduce-scatter is stamped to settle where the first gather issued ahead
# behind it is consumed (or at the drain), every tier placement's walked
# peak fits its budget on every rank, and keeping the stage-3 parameter
# shard on the device costs exactly its bytes. tests/memory_accounting.rs
# holds the walked peaks equal to the engine's.
cargo run -q --release -p zero-verify -- --pass memory

echo "==> zero-verify --pass modelcheck (exhaustive protocol interleavings, explicit state budget)"
# Two protocols (socket handshake, the op desk's help-first hand-off at 2
# and 3 ops) in 6 scenarios. Prints explored-state
# counts per scenario; exhausting the budget is a hard failure (coverage
# incomplete), not a silent pass.
cargo run -q --release -p zero-verify -- --pass modelcheck --budget 500000

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test -q --release --workspace (every crate's unit and integration tests)"
# `cargo test` at the workspace root builds only the root package's tests;
# this runs the crates' own: the schedule and serve digest pins, the
# zero-core and zero-verify unit tests with their seeded mutants,
# alloc_steady, and the rest of crates/*/tests. It also runs every root
# integration test in release, each once, among them the conformance and
# fabric suites: overlap_equivalence (bitwise + exact traffic, sync vs
# overlapped), trace_conformance (spans and bytes vs plan and counters),
# offload_equivalence (tier on vs off, exact tier bytes), zero-comm's
# wire_fuzz and process_fabric (socket parity with threads), process_world
# (SIGKILL recovery matches a clean resume) and saturation (open-loop
# serving: FIFO fairness, shedding, every KV geometry bitwise).
cargo test -q --release --workspace

echo "==> zero-train --verify-offload smoke (train beyond the device budget, proved)"
# 64 KiB/rank sits between the offloaded peak and the unconstrained peak
# at this model size: the budget binds, the tracker proves peak <= budget,
# and the offload-off rerun must produce bitwise-identical losses. The
# budget also holds the parameter shard beside the step, so the banner
# names a placement where only the optimizer state and gradients cross,
# and every rank's measured peak must be the one the memory walk predicts.
offload_out="$scratch/verify-offload.txt"
cargo run -q --release --bin zero-train -- \
    --stage 3 --dp 2 --layers 2 --hidden 16 --heads 2 --seq 8 --vocab 32 \
    --batch 4 --steps 5 --device-budget 65536 --verify-offload > "$offload_out"
grep -q "^offload: placement crosses \[optimizer-state, grad-shards\]; param shard on the device" "$offload_out" \
    && grep -q "^verify-offload: PASS .*(offloaded, as walked on every rank)" "$offload_out" \
    || { echo "expected the placement banner and a walked-peak PASS:"; cat "$offload_out"; exit 1; }

echo "==> zero-train --pa-cpu smoke (P_a+cpu checkpoints cross the tier: fetch = spill > 0)"
pa_cpu_out="$scratch/pa-cpu.txt"
cargo run -q --release --bin zero-train -- \
    --stage 2 --dp 2 --mp 2 --layers 2 --hidden 16 --heads 2 --seq 8 --vocab 32 \
    --batch 4 --steps 3 --pa-cpu > "$pa_cpu_out"
pa_cpu_fetch=$(sed -n 's/.*tier traffic: fetch \([0-9]*\) B.*/\1/p' "$pa_cpu_out")
pa_cpu_spill=$(sed -n 's/.*tier traffic: .* spill \([0-9]*\) B.*/\1/p' "$pa_cpu_out")
if [ -z "$pa_cpu_fetch" ] || [ "$pa_cpu_fetch" -eq 0 ] || [ "$pa_cpu_fetch" != "$pa_cpu_spill" ]; then
    echo "expected a tier line with equal, nonzero fetch and spill bytes:"; cat "$pa_cpu_out"; exit 1
fi

echo "==> zero-train --trace smoke (emitted Chrome trace must parse)"
trace_out="$scratch/smoke-trace.json"
cargo run -q --release --bin zero-train -- \
    --stage 3 --dp 2 --steps 2 --batch 4 --overlap --trace "$trace_out"
test -s "$trace_out" || { echo "trace file missing or empty"; exit 1; }

echo "==> kill -9 smoke (real process death, bitwise-verified recovery)"
procworld_dir="$scratch/procworld"
cargo run -q --release --bin zero-train -- \
    --fabric process --stage 2 --dp 4 --layers 2 --hidden 16 --heads 2 \
    --seq 8 --vocab 32 --batch 12 --steps 20 --fp32 \
    --run-dir "$procworld_dir" --kill 2@7 --verify-recovery

echo "==> kill -9 into an indivisible world (batch 8 over 3 survivors: typed refusal, exit 1, no panic)"
indivisible_dir="$scratch/indivisible"
mkdir "$indivisible_dir"
indivisible_status=0
cargo run -q --release --bin zero-train -- \
    --fabric process --stage 2 --dp 4 --layers 2 --hidden 16 --heads 2 \
    --seq 8 --vocab 32 --batch 8 --steps 20 --fp32 \
    --run-dir "$indivisible_dir" --kill 2@7 \
    > /dev/null 2> "$indivisible_dir/stderr" || indivisible_status=$?
if [ "$indivisible_status" -ne 1 ] \
    || ! grep -q "global batch 8 does not divide evenly over a world of 3 ranks" "$indivisible_dir/stderr" \
    || grep -q "panicked" "$indivisible_dir/stderr"; then
    echo "expected exit 1 with the typed indivisible-world message, got exit $indivisible_status:"
    cat "$indivisible_dir/stderr"
    exit 1
fi
# The trainer's own leak check ran on exit; belt-and-suspenders here.
# The [-] class keeps the pattern from matching this script's own shell.
if pgrep -f -- '[-]-zero-worker' > /dev/null 2>&1; then
    echo "leaked --zero-worker rank processes detected"; exit 1
fi

echo "==> zero-serve smoke (train -> snapshot -> shard-hosted serving)"
serve_ckpt="$scratch/serve-ckpt"
cargo run -q --release --bin zero-train -- \
    --stage 3 --dp 4 --steps 4 --batch 4 --save "$serve_ckpt"
cargo run -q --release --bin zero-serve -- --snapshots "$serve_ckpt" --ranks 2 \
    > /dev/null || { echo "snapshot-backed serving failed"; exit 1; }
# >=8 concurrent requests incl. malformed ones that must get typed
# rejections; trace/traffic must reconcile byte-exactly with the plan.
cargo run -q --release --bin zero-serve -- --smoke

# The five bench stages share one harness (crates/bench/src/lib.rs): what a
# run computes is gated exactly, how long it took only at 2x the committed
# value. Time is judged by alternating zero_bench pairs, not here.
echo "==> bench_serve --smoke (batched vs serial serving, bitwise outputs)"
serve_json="$scratch/bench-serve.json"
cargo run -q --release -p zero-bench --bin bench_serve -- --smoke --out "$serve_json"
python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$serve_json" \
    || { echo "bench_serve smoke JSON does not parse"; exit 1; }

echo "==> bench_serve --arrivals (open-loop determinism gate vs committed baseline)"
# Replays the poisson:0.5 schedule and exact-compares every deterministic
# field (admitted/shed counts, tokens, batch steps, step percentiles,
# prefix hits, prefill rows, KV bytes) against the committed open_loop
# baseline row.
cargo run -q --release -p zero-bench --bin bench_serve -- \
    --arrivals poisson:0.5 --check-against results/BENCH_serve.json

echo "==> bench_serve --arrivals vs a doctored baseline (the gate must be seen to fail)"
doctored="$scratch/BENCH_serve.doctored.json"
sed 's/"batch_steps": \([0-9]*\)/"batch_steps": 1\1/' results/BENCH_serve.json > "$doctored"
if cargo run -q --release -p zero-bench --bin bench_serve -- \
    --arrivals poisson:0.5 --check-against "$doctored" > /dev/null 2>&1; then
    echo "bench_serve accepted a baseline whose batch_steps were edited"; exit 1
fi

echo "==> bench_step --smoke (the case table end to end, offload losses bitwise, no results churn)"
cargo run -q --release -p zero-bench --bin bench_step -- --smoke

echo "==> bench_step --check-against (loose time, exact bits)"
# Replays the smoke-restricted cases over the committed links at the
# committed step count: traffic and tier byte counts and the plan's
# busiest-member bytes must equal the committed rows, seconds per step
# must stay under 2x theirs.
cargo run -q --release -p zero-bench --bin bench_step -- --smoke \
    --check-against results/BENCH_step.json

echo "==> bench_matmul --smoke --check-against (GEMM, GELU, fp16, CRC and all-gather exactness + kernel-floor gate)"
# Every wrapper at the block/attention/decode/large shapes must equal
# matmul::reference bit for bit, every GELU and fp16 row its scalar
# function, and the CRC row the CRC fed one byte at a time; any block,
# decode, gelu, f16 or crc row at 2x its committed time fails: a fall back to a
# scalar chain or a byte-at-a-time CRC, to the portable 2x16 tier on a
# host whose wider tier was blessed, or to a tier loop compiled without its
# target feature (the accumulators spill). Each row ends with the kernel
# that ran; the CRC's (`clmul`, or the `table16` fallback on a CPU without
# PCLMULQDQ) is named once more below. The comm rows (a 2-rank all-gather at
# 8 B, one serving unit and 1 MB, and the 1 MB gather owner-only and balanced
# on FLAT_LINK) check the gathered bits; their time swings 3x between runs
# of one build, so it is printed beside the CRC kernel, not gated.
matmul_out="$scratch/bench-matmul.txt"
cargo run -q --release -p zero-bench --bin bench_matmul -- --smoke \
    --check-against results/BENCH_matmul.json | tee "$matmul_out"
echo "    crc kernel: $(awk '$2 == "crc" { print $NF }' "$matmul_out")"
awk '$2 == "comm" { printf "    comm %s\n", $0 }' "$matmul_out"

echo "==> zero_bench --smoke (the frozen benchmark builds --locked against the crates and stays correct)"
# zero_bench/ is its own package and may not be edited alongside the crates
# it measures: an API break against it, or a change that would rewrite its
# lock file, must fail here rather than in the benchmark pipeline. Every
# workload's own correctness gates decide the exit code.
cargo run --release --offline --locked --quiet --manifest-path zero_bench/Cargo.toml -- --smoke \
    > /dev/null

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps --workspace (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q --workspace

echo "==> cargo test -- --ignored (fault-matrix stress)"
cargo test -q -- --ignored

echo "==> zero-tensor --ignored in release (every f32 narrowed to fp16, against the branchy reference)"
# 2^32 conversions take seconds in release and minutes in a debug build,
# so they run here rather than in the debug stage above.
cargo test -q --release -p zero-tensor -- --ignored

echo "==> CI green"
