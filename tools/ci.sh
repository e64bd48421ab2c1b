#!/usr/bin/env bash
# CI gate: tier-1 verify (full build + test suite), a parallel-run
# determinism check (--run-jobs 4 must match serial byte-for-byte), a
# scale-out smoke (32-core/8-VM parallel determinism and
# checkpoint-resume byte-identity), a scale-to-256 smoke (128-core
# over-committed parallel determinism + resume byte-identity, and a
# 256-core over-committed resume byte-identity), a
# zero-allocation assertion over the measure window, an isolation
# smoke (QoS must protect the VM) and a dyn-sched smoke (migration
# must beat the static placement on the bursty mix, and resume across
# migration epochs must be byte-identical), a checked-mode
# pass (full suite with every runtime invariant checker
# enabled) plus a fault-injection smoke over the whole catalog, a
# perf-regression smoke against the committed BENCH_*.json, an
# ASan+UBSan pass over the whole tier-1 suite (memory safety of the
# registry, JSON layer, and simulator core), plus a ThreadSanitizer
# pass over the concurrency surface (thread pool + parallel sweep +
# tile-parallel event core + event queue).
#
# Usage: tools/ci.sh [--skip-tsan] [--skip-asan] [--skip-checked]
#                    [--skip-perf]
set -euo pipefail

cd "$(dirname "$0")/.."

skip_tsan=0
skip_asan=0
skip_checked=0
skip_perf=0
for arg in "$@"; do
    case "$arg" in
        --skip-tsan) skip_tsan=1 ;;
        --skip-asan) skip_asan=1 ;;
        --skip-checked) skip_checked=1 ;;
        --skip-perf) skip_perf=1 ;;
        *) echo "unknown option: $arg" >&2; exit 2 ;;
    esac
done

echo "=== tier-1: build + full test suite ==="
cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)"
(cd build && ctest --output-on-failure -j "$(nproc)")

echo "=== parallel-run determinism: --run-jobs 4 == serial ==="
# The tile-parallel event core must reproduce the serial engine
# byte-for-byte, envelope included (runJobs never enters the config
# echo, so the documents are directly comparable).
par_dir="$(mktemp -d)"
trap 'rm -rf "$par_dir"' EXIT
./build/tools/consim_run --mix "Mix 5" \
    --warmup 300000 --measure 300000 \
    --json "$par_dir/serial.json" >/dev/null
./build/tools/consim_run --mix "Mix 5" \
    --warmup 300000 --measure 300000 --run-jobs 4 \
    --json "$par_dir/par.json" >/dev/null
diff -u "$par_dir/serial.json" "$par_dir/par.json" || {
    echo "parallel-run determinism: --run-jobs 4 diverged" >&2; exit 1; }
echo "parallel-run determinism: envelopes byte-identical"

echo "=== resume equivalence: interrupted+resumed == uninterrupted ==="
# 2M simulated cycles, snapshot at 1M, deadline-trip at 1.1M, resume
# from the snapshot: the result block of the resumed run must be
# byte-identical to the uninterrupted run. (The config echo alone may
# differ — the tripped run carries the deadline knob — so compare from
# the result object onward.)
ckpt_dir="$(mktemp -d)"
trap 'rm -rf "$ckpt_dir" "$par_dir"' EXIT
./build/tools/consim_run --vm tpcw --vm jbb \
    --warmup 1000000 --measure 1000000 --watchdog 200000 \
    --json "$ckpt_dir/full.json" >/dev/null
if ./build/tools/consim_run --vm tpcw --vm jbb \
    --warmup 1000000 --measure 1000000 --watchdog 200000 \
    --deadline 1100000 --ckpt-every 1000000 \
    --ckpt-out "$ckpt_dir/trip.ckpt" >/dev/null 2>&1; then
    echo "resume equivalence: deadline run unexpectedly succeeded" >&2
    exit 1
fi
[[ -s "$ckpt_dir/trip.ckpt" ]] || {
    echo "resume equivalence: no checkpoint written" >&2; exit 1; }
./build/tools/consim_run --resume "$ckpt_dir/trip.ckpt" \
    --json "$ckpt_dir/resumed.json" >/dev/null
awk '/"result": \{/,0' "$ckpt_dir/full.json" >"$ckpt_dir/full.result"
awk '/"result": \{/,0' "$ckpt_dir/resumed.json" >"$ckpt_dir/resumed.result"
diff -u "$ckpt_dir/full.result" "$ckpt_dir/resumed.result" || {
    echo "resume equivalence: resumed result diverged" >&2; exit 1; }
echo "resume equivalence: result blocks byte-identical"

# Same contract with the tile-parallel engine on both sides: the
# interrupted run snapshots from parallel windows (boundaries only),
# and the resume itself runs parallel.
if ./build/tools/consim_run --vm tpcw --vm jbb --run-jobs 4 \
    --warmup 1000000 --measure 1000000 --watchdog 200000 \
    --deadline 1100000 --ckpt-every 1000000 \
    --ckpt-out "$ckpt_dir/trip-par.ckpt" >/dev/null 2>&1; then
    echo "resume equivalence (parallel): deadline run unexpectedly succeeded" >&2
    exit 1
fi
[[ -s "$ckpt_dir/trip-par.ckpt" ]] || {
    echo "resume equivalence (parallel): no checkpoint written" >&2; exit 1; }
diff -u "$ckpt_dir/trip.ckpt" "$ckpt_dir/trip-par.ckpt" || {
    echo "resume equivalence (parallel): snapshot diverged from serial" >&2
    exit 1; }
./build/tools/consim_run --resume "$ckpt_dir/trip-par.ckpt" --run-jobs 4 \
    --json "$ckpt_dir/resumed-par.json" >/dev/null
awk '/"result": \{/,0' "$ckpt_dir/resumed-par.json" \
    >"$ckpt_dir/resumed-par.result"
diff -u "$ckpt_dir/full.result" "$ckpt_dir/resumed-par.result" || {
    echo "resume equivalence (parallel): resumed result diverged" >&2
    exit 1; }
echo "resume equivalence (parallel): snapshots and results byte-identical"

echo "=== scale-out smoke: 32-core chip, 8 VMs ==="
# The parametric scale model must uphold the same two contracts beyond
# the paper's 16-core chip: the tile-parallel engine reproduces serial
# byte-for-byte, and an interrupted+resumed run matches uninterrupted.
scale_dir="$(mktemp -d)"
trap 'rm -rf "$ckpt_dir" "$par_dir" "$scale_dir"' EXIT
scale_args=(--mesh 8x4 --sharing 8
    --vm jbb --vm tpcw --vm tpch --vm web
    --vm jbb --vm tpcw --vm tpch --vm web
    --warmup 600000 --measure 600000 --watchdog 200000)
./build/tools/consim_run "${scale_args[@]}" \
    --json "$scale_dir/serial.json" >/dev/null
./build/tools/consim_run "${scale_args[@]}" --run-jobs 4 \
    --json "$scale_dir/par.json" >/dev/null
diff -u "$scale_dir/serial.json" "$scale_dir/par.json" || {
    echo "scale-out smoke: --run-jobs 4 diverged at 32 cores" >&2
    exit 1; }
if ./build/tools/consim_run "${scale_args[@]}" \
    --deadline 700000 --ckpt-every 600000 \
    --ckpt-out "$scale_dir/trip.ckpt" >/dev/null 2>&1; then
    echo "scale-out smoke: deadline run unexpectedly succeeded" >&2
    exit 1
fi
[[ -s "$scale_dir/trip.ckpt" ]] || {
    echo "scale-out smoke: no checkpoint written" >&2; exit 1; }
./build/tools/consim_run --resume "$scale_dir/trip.ckpt" \
    --json "$scale_dir/resumed.json" >/dev/null
awk '/"result": \{/,0' "$scale_dir/serial.json" >"$scale_dir/serial.result"
awk '/"result": \{/,0' "$scale_dir/resumed.json" >"$scale_dir/resumed.result"
diff -u "$scale_dir/serial.result" "$scale_dir/resumed.result" || {
    echo "scale-out smoke: resumed result diverged at 32 cores" >&2
    exit 1; }
echo "scale-out smoke: 32-core parallel + resume byte-identical"

echo "=== scale-to-256 smoke: 128- and 256-core chips, over-committed ==="
# The same two contracts at the consolidation-study scale: a 16x8 mesh
# running Mix 1 with 1.5x over-committed schedules (192 threads on 128
# cores, so the time-sliced context rotation is live). Short windows —
# this is a correctness smoke, not a perf point (bench/fig16_scale256
# owns the throughput numbers).
big_dir="$(mktemp -d)"
trap 'rm -rf "$ckpt_dir" "$par_dir" "$scale_dir" "$big_dir"' EXIT
big_args=(--mesh 16x8 --sharing 8
    --vm jbb --vm tpcw --vm tpch --vm web
    --vm-threads 48,48,48,48
    --warmup 10000 --measure 10000 --watchdog 20000)
./build/tools/consim_run "${big_args[@]}" \
    --json "$big_dir/serial.json" >/dev/null
./build/tools/consim_run "${big_args[@]}" --run-jobs 4 \
    --json "$big_dir/par.json" >/dev/null
diff -u "$big_dir/serial.json" "$big_dir/par.json" || {
    echo "scale-to-256 smoke: --run-jobs 4 diverged at 128 cores" >&2
    exit 1; }
if ./build/tools/consim_run "${big_args[@]}" \
    --deadline 12000 --ckpt-every 10000 \
    --ckpt-out "$big_dir/trip.ckpt" >/dev/null 2>&1; then
    echo "scale-to-256 smoke: deadline run unexpectedly succeeded" >&2
    exit 1
fi
[[ -s "$big_dir/trip.ckpt" ]] || {
    echo "scale-to-256 smoke: no checkpoint written" >&2; exit 1; }
./build/tools/consim_run --resume "$big_dir/trip.ckpt" \
    --json "$big_dir/resumed.json" >/dev/null
awk '/"result": \{/,0' "$big_dir/serial.json" >"$big_dir/serial.result"
awk '/"result": \{/,0' "$big_dir/resumed.json" >"$big_dir/resumed.result"
diff -u "$big_dir/serial.result" "$big_dir/resumed.result" || {
    echo "scale-to-256 smoke: resumed result diverged at 128 cores" >&2
    exit 1; }
echo "scale-to-256 smoke: 128-core parallel + resume byte-identical"

# The full 16x16 point: Mix 1 with 96 threads per VM (384 threads on
# 256 cores), tripped after its first snapshot and resumed. The sparse
# directory keeps System set-up and snapshots O(on-chip), so the whole
# 256-core trip-and-resume costs seconds.
huge_args=(--mesh 16x16 --sharing 16 --mix "Mix 1" --policy affinity
    --vm-threads 96,96,96,96
    --warmup 10000 --measure 10000 --watchdog 20000)
./build/tools/consim_run "${huge_args[@]}" \
    --json "$big_dir/serial256.json" >/dev/null
if ./build/tools/consim_run "${huge_args[@]}" \
    --deadline 12000 --ckpt-every 10000 \
    --ckpt-out "$big_dir/trip256.ckpt" >/dev/null 2>&1; then
    echo "scale-to-256 smoke: 256-core deadline run unexpectedly succeeded" >&2
    exit 1
fi
[[ -s "$big_dir/trip256.ckpt" ]] || {
    echo "scale-to-256 smoke: no 256-core checkpoint written" >&2; exit 1; }
./build/tools/consim_run --resume "$big_dir/trip256.ckpt" \
    --json "$big_dir/resumed256.json" >/dev/null
awk '/"result": \{/,0' "$big_dir/serial256.json" >"$big_dir/serial256.result"
awk '/"result": \{/,0' "$big_dir/resumed256.json" >"$big_dir/resumed256.result"
diff -u "$big_dir/serial256.result" "$big_dir/resumed256.result" || {
    echo "scale-to-256 smoke: resumed result diverged at 256 cores" >&2
    exit 1; }
echo "scale-to-256 smoke: 256-core resume byte-identical"

echo "=== zero-allocation: measure window allocates nothing ==="
# The pooled/arena hot paths must keep the steady state off the heap:
# the global operator-new hook counts every allocation inside the
# measure window across paper-machine, 64-core, and over-committed
# configurations, and the count must be exactly zero.
./build/tests/test_alloc_steady_state
echo "zero-allocation: measure window clean"

echo "=== isolation smoke: protected VM vs bullies, QoS bound ==="
# A protected SPECjbb VM against three 4-thread bully antagonists on a
# bandwidth-constrained 2 MB-LLC node (the fig15 scenario, shrunk).
# QoS (way partition + reserved VC + MC token buckets) must cut the
# protected VM's cycles/transaction by a real margin, and the throttle
# stalls must land on the bullies (mc_throttle_stalls present only in
# the QoS envelope, and only on bully VMs).
iso_dir="$(mktemp -d)"
trap 'rm -rf "$ckpt_dir" "$par_dir" "$scale_dir" "$iso_dir"' EXIT
# Fully-shared LLC: with the default 4-core groups the bullies never
# touch the protected VM's bank and the way restriction is pure loss.
iso_args=(--vm jbb --vm bully --vm bully --vm bully
    --vm-threads 0,4,4,4 --sharing 16 --l2 2097152 --mem-issue 96
    --warmup 300000 --measure 600000 --watchdog 200000)
iso_qos="static:vm=0,ways=2,vcs=1,tokens=1,refill=2048"
./build/tools/consim_run "${iso_args[@]}" \
    --json "$iso_dir/noqos.json" >/dev/null
./build/tools/consim_run "${iso_args[@]}" --qos "$iso_qos" \
    --json "$iso_dir/qos.json" >/dev/null
cpt() {
    grep -o '"cycles_per_transaction": *[0-9.e+]*' "$1" |
        head -n1 | sed 's/.*: *//'
}
noqos_cpt="$(cpt "$iso_dir/noqos.json")"
qos_cpt="$(cpt "$iso_dir/qos.json")"
[[ -n "$noqos_cpt" && -n "$qos_cpt" ]] || {
    echo "isolation smoke: cannot extract cycles_per_transaction" >&2
    exit 1; }
awk -v noqos="$noqos_cpt" -v qos="$qos_cpt" 'BEGIN {
    bound = noqos * 0.95;
    printf "isolation smoke: protected cy/txn %s (QoS) vs %s (no QoS," \
           " bound %.0f)\n", qos, noqos, bound;
    exit (qos + 0 < bound) ? 0 : 1;
}' || {
    echo "isolation smoke: QoS failed to protect the VM" >&2; exit 1; }
grep -q '"mc_throttle_stalls"' "$iso_dir/qos.json" || {
    echo "isolation smoke: no throttle stalls reported under QoS" >&2
    exit 1; }
if grep -q '"mc_throttle_stalls"' "$iso_dir/noqos.json"; then
    echo "isolation smoke: throttle stalls leaked into no-QoS envelope" >&2
    exit 1
fi
echo "isolation smoke: QoS bound holds, stalls land on the bullies"

echo "=== dyn-sched smoke: migration beats static on the bursty mix ==="
# The fig17 bursty scenario, single point: three 4-thread Bursty VMs
# on a sharing-2 chip with a 2 MB LLC. Contention-aware migration must
# commit more transactions than the static affinity placement over the
# same window (same measured cycles, so more transactions == lower
# aggregate cy/txn), must actually migrate, and a run interrupted and
# resumed across migration epochs must match the uninterrupted run
# byte-for-byte.
dyn_dir="$(mktemp -d)"
trap 'rm -rf "$ckpt_dir" "$par_dir" "$scale_dir" "$iso_dir" "$dyn_dir"' EXIT
dyn_args=(--vm bursty --vm bursty --vm bursty --vm-threads 4,4,4
    --sharing 2 --l2 2097152
    --warmup 200000 --measure 1200000 --watchdog 200000)
dyn_spec="contention-aware,epoch=25000"
./build/tools/consim_run "${dyn_args[@]}" \
    --json "$dyn_dir/static.json" >/dev/null
./build/tools/consim_run "${dyn_args[@]}" --dyn-sched "$dyn_spec" \
    --json "$dyn_dir/dyn.json" >/dev/null
txns() {
    grep -o '"transactions": *[0-9]*' "$1" |
        sed 's/.*: *//' | awk '{ s += $1 } END { print s }'
}
static_txns="$(txns "$dyn_dir/static.json")"
dyn_txns="$(txns "$dyn_dir/dyn.json")"
[[ -n "$static_txns" && -n "$dyn_txns" ]] || {
    echo "dyn-sched smoke: cannot extract transactions" >&2; exit 1; }
# Fixed 1% margin: the run is deterministic (seed 1 commits 930 vs
# 913 transactions, +1.9%), so host noise cannot erode the gate.
awk -v dyn="$dyn_txns" -v st="$static_txns" 'BEGIN {
    bound = st * 1.01;
    printf "dyn-sched smoke: %s txns (dynamic) vs %s (static," \
           " bound %.0f)\n", dyn, st, bound;
    exit (dyn + 0 > bound) ? 0 : 1;
}' || {
    echo "dyn-sched smoke: migration failed to beat static placement" >&2
    exit 1; }
grep -q '"dyn_migrations"' "$dyn_dir/dyn.json" || {
    echo "dyn-sched smoke: no migrations reported" >&2; exit 1; }
if grep -q '"dyn_migrations"' "$dyn_dir/static.json"; then
    echo "dyn-sched smoke: migrations leaked into the static envelope" >&2
    exit 1
fi
if ./build/tools/consim_run "${dyn_args[@]}" --dyn-sched "$dyn_spec" \
    --deadline 700000 --ckpt-every 600000 \
    --ckpt-out "$dyn_dir/trip.ckpt" >/dev/null 2>&1; then
    echo "dyn-sched smoke: deadline run unexpectedly succeeded" >&2
    exit 1
fi
[[ -s "$dyn_dir/trip.ckpt" ]] || {
    echo "dyn-sched smoke: no checkpoint written" >&2; exit 1; }
./build/tools/consim_run --resume "$dyn_dir/trip.ckpt" \
    --json "$dyn_dir/resumed.json" >/dev/null
awk '/"result": \{/,0' "$dyn_dir/dyn.json" >"$dyn_dir/dyn.result"
awk '/"result": \{/,0' "$dyn_dir/resumed.json" >"$dyn_dir/resumed.result"
diff -u "$dyn_dir/dyn.result" "$dyn_dir/resumed.result" || {
    echo "dyn-sched smoke: resumed migrating run diverged" >&2; exit 1; }
echo "dyn-sched smoke: dynamic wins, resume across migrations clean"

if [[ "$skip_checked" == 1 ]]; then
    echo "=== checked mode: skipped ==="
else
    echo "=== checked mode: full test suite under CONSIM_CHECK=full ==="
    # Death tests assert the off-level abort behaviour that checked
    # mode deliberately replaces with recoverable SimErrors.
    (cd build && CONSIM_CHECK=full ctest --output-on-failure \
        -j "$(nproc)" -E 'DeathTest')

    echo "=== fault-injection smoke: every catalog fault must be caught ==="
    ./build/tools/repro_hang --cycles 400000 --watchdog 50000 \
        --fault "wedge:core=3,at=100000" --expect-trip >/dev/null
    ./build/tools/repro_hang --cycles 600000 --watchdog 50000 \
        --fault "drop:nth=500" --expect-trip >/dev/null
    ./build/tools/repro_hang --cycles 400000 --watchdog 50000 \
        --fault "memburst:at=100000,len=200000,extra=400000" \
        --expect-trip >/dev/null
    echo "fault-injection smoke: all faults caught"
fi

if [[ "$skip_perf" == 1 ]]; then
    echo "=== perf smoke: skipped ==="
else
    echo "=== perf smoke: throughput vs committed baseline ==="
    # Single-sim throughput must stay within 15% of the most recent
    # committed BENCH_*.json, at 16 cores (the first cycles_per_sec)
    # and at 256 cores (the cores_256 section). perf_smoke reports
    # the median of three timed repetitions (the sim is
    # deterministic, so the repeats differ only by host noise) and
    # stamps the envelope with host metadata (host_cpus, cpu_model,
    # loadavg_1m) so a tripped gate can be triaged against the
    # machine it ran on. The floor is still deliberately loose — it
    # catches order-of-magnitude regressions in the event core, not
    # percent drift.
    baseline="$(ls BENCH_*.json 2>/dev/null | sort -V | tail -n1 || true)"
    if [[ -z "$baseline" ]]; then
        echo "perf smoke: no committed BENCH_*.json baseline; skipping"
    else
        ./build/bench/perf_smoke > "$ckpt_dir/perf.json"
        # cps FILE [SECTION]: the first cycles_per_sec of FILE's first
        # line, or of its SECTION object ("" when absent).
        cps() {
            local line
            line="$(head -n1 "$1")"
            if [[ -n "${2:-}" ]]; then
                line="$(grep -o "\"$2\":{[^}]*}" <<<"$line" || true)"
            fi
            grep -o '"cycles_per_sec":[0-9]*' <<<"$line" |
                head -n1 | cut -d: -f2 || true
        }
        # gate LABEL BASE CUR: fail when CUR < 85% of BASE.
        gate() {
            awk -v what="$1" -v base="$2" -v cur="$3" 'BEGIN {
                floor = base * 0.85;
                printf "perf smoke: %s %s cycles/s vs baseline %s " \
                       "(floor %.0f)\n", what, cur, base, floor;
                exit (cur + 0 < floor) ? 1 : 0;
            }' || {
                echo "perf smoke: $1 throughput dropped >15% vs" \
                     "$baseline" >&2
                exit 1; }
        }
        base_cps="$(cps "$baseline")"
        new_cps="$(cps "$ckpt_dir/perf.json")"
        [[ -n "$base_cps" && -n "$new_cps" ]] || {
            echo "perf smoke: cannot extract cycles_per_sec" >&2; exit 1; }
        gate "16 cores" "$base_cps" "$new_cps"
        base_256="$(cps "$baseline" cores_256)"
        new_256="$(cps "$ckpt_dir/perf.json" cores_256)"
        [[ -n "$new_256" ]] || {
            echo "perf smoke: cannot extract cores_256.cycles_per_sec" >&2
            exit 1; }
        if [[ -z "$base_256" ]]; then
            echo "perf smoke: $baseline has no cores_256.cycles_per_sec;" \
                 "skipping the 256-core gate"
        else
            gate "256 cores" "$base_256" "$new_256"
        fi
    fi
fi

if [[ "$skip_asan" == 1 ]]; then
    echo "=== asan+ubsan: skipped ==="
else
    echo "=== asan+ubsan: full tier-1 test suite ==="
    cmake -B build-asan -S . -DCONSIM_SAN=address,undefined >/dev/null
    cmake --build build-asan -j "$(nproc)"
    (cd build-asan && ctest --output-on-failure -j "$(nproc)")
fi

if [[ "$skip_tsan" == 1 ]]; then
    echo "=== tsan: skipped ==="
    exit 0
fi

echo "=== tsan: thread pool + parallel sweep + tile-parallel core ==="
cmake -B build-tsan -S . -DCONSIM_SAN=thread >/dev/null
cmake --build build-tsan -j "$(nproc)" \
    --target test_determinism test_event_queue test_parallel_run \
    consim_run
(cd build-tsan && ctest --output-on-failure -j "$(nproc)" \
    -R 'Determinism|CalendarQueue|ParallelRun')

# The QoS hot paths (way-mask victim scans, VC reservation, MC token
# buckets, the epoch repartitioner) must be race-free under the
# tile-parallel engine: one isolation run with workers on.
./build-tsan/tools/consim_run "${iso_args[@]}" --qos "$iso_qos" \
    --run-jobs 4 >/dev/null
echo "tsan: isolation run clean under --run-jobs 4"

# Likewise the migration paths (epoch sampling, deferred rebinds at
# the window boundary, the feedback loop): one migrating bursty run
# with workers on.
./build-tsan/tools/consim_run "${dyn_args[@]}" --dyn-sched "$dyn_spec" \
    --run-jobs 4 >/dev/null
echo "tsan: migrating run clean under --run-jobs 4"

echo "=== ci.sh: all green ==="
