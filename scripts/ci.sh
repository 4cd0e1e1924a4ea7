#!/usr/bin/env bash
# Offline CI: tier-1 verification plus a parallel-driver smoke test.
#
# Everything here works without network or registry access — the
# workspace has no external dependencies on the tier-1 path.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: build =="
cargo build --release

echo "== smoke: examples =="
# Clippy only compiles the top-level examples; run each once, so an
# example that errors or panics fails CI.
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    cargo run --release -q --example "$name" > /dev/null || {
        echo "FAIL: example $name exited non-zero" >&2
        exit 1
    }
done

echo "== lint: clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== lint: rustdoc =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== tier-1: tests (default members: the whole workspace) =="
cargo test -q

echo "== workspace tests =="
cargo test --release --workspace -q

echo "== smoke: parallel experiment driver =="
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
cargo build --release -p mcl-bench
(cd "$smoke_dir" && "$OLDPWD/target/release/repro" table2 --jobs 2 > table2_j2.txt)
(cd "$smoke_dir" && "$OLDPWD/target/release/repro" table2 --jobs 1 > table2_j1.txt)
if ! diff -q "$smoke_dir/table2_j1.txt" "$smoke_dir/table2_j2.txt"; then
    echo "FAIL: parallel and serial table2 output differ" >&2
    exit 1
fi
test -s "$smoke_dir/BENCH_repro.json" || {
    echo "FAIL: BENCH_repro.json was not written" >&2
    exit 1
}
# `repro all` frees each benchmark's traces after its last cell; a
# trace built again after an early release shows as a 73rd trace miss.
for jobs in 1 2; do
    (cd "$smoke_dir" && "$OLDPWD/target/release/repro" all 8 --jobs "$jobs" > "all8_j$jobs.txt")
    for counter in '"trace_misses":72' '"sim_misses":136'; do
        grep -q "$counter" "$smoke_dir/BENCH_repro.json" || {
            echo "FAIL: repro all 8 --jobs $jobs report lacks $counter" >&2
            exit 1
        }
    done
done
if ! diff -q "$smoke_dir/all8_j1.txt" "$smoke_dir/all8_j2.txt"; then
    echo "FAIL: parallel and serial repro all 8 output differ" >&2
    exit 1
fi

echo "== smoke: invariant checker does not change results =="
(cd "$smoke_dir" && "$OLDPWD/target/release/repro" table2 --jobs 2 --check retire > table2_checked.txt)
if ! diff -q "$smoke_dir/table2_j1.txt" "$smoke_dir/table2_checked.txt"; then
    echo "FAIL: --check retire changed table2 output" >&2
    exit 1
fi

echo "== smoke: per-cycle checker does not change results =="
# `--check cycle` single-steps every cell and validates dispatch-queue,
# transfer-buffer and register accounting plus waiter and completion
# liveness at the end of every cycle, so the engine's event structures
# are audited on all the Table 2 cells.
# The plain run fills a store; the checked runs must print the same.
# The check level is not part of any result key, so a `--check retire`
# run over that store is served entirely from disk.
(cd "$smoke_dir" && "$OLDPWD/target/release/repro" table2 8 --jobs 2 --store checked_store \
    > table2_8.txt)
(cd "$smoke_dir" && "$OLDPWD/target/release/repro" table2 8 --jobs 2 --check cycle \
    > table2_8_cycle.txt)
if ! diff -q "$smoke_dir/table2_8.txt" "$smoke_dir/table2_8_cycle.txt"; then
    echo "FAIL: --check cycle changed table2 output" >&2
    exit 1
fi
(cd "$smoke_dir" && "$OLDPWD/target/release/repro" table2 8 --jobs 2 --check retire \
    --store checked_store > table2_8_retire_store.txt)
if ! diff -q "$smoke_dir/table2_8.txt" "$smoke_dir/table2_8_retire_store.txt" \
    || ! grep -q '"disk_misses":0' "$smoke_dir/BENCH_repro.json"; then
    echo "FAIL: --check retire over a plain run's store changed output or missed entries" >&2
    exit 1
fi

echo "== smoke: selftest (differential + fault injection) =="
(cd "$smoke_dir" && "$OLDPWD/target/release/repro" selftest 8 --jobs 2)

echo "== smoke: fault-isolated driver =="
if (cd "$smoke_dir" && MCL_PANIC_CELL=1 "$OLDPWD/target/release/repro" table2 4 --keep-going \
        > keepgoing.txt 2> keepgoing.err); then
    echo "FAIL: run with an injected panic exited zero" >&2
    exit 1
fi
grep -q '"id":"panic-probe","status":"panicked"' "$smoke_dir/BENCH_repro.json" || {
    echo "FAIL: panicked cell not recorded in BENCH_repro.json" >&2
    exit 1
}
grep -q 'compress' "$smoke_dir/keepgoing.txt" || {
    echo "FAIL: --keep-going did not render the surviving sections" >&2
    exit 1
}

echo "== smoke: observability exports =="
(cd "$smoke_dir" && "$OLDPWD/target/release/repro" table2 4 > table2_noobs.txt)
cp "$smoke_dir/BENCH_repro.json" "$smoke_dir/BENCH_noobs.json"
(cd "$smoke_dir" && "$OLDPWD/target/release/repro" table2 4 --obs obs_out > table2_obs.txt)
if ! diff -q "$smoke_dir/table2_noobs.txt" "$smoke_dir/table2_obs.txt"; then
    echo "FAIL: --obs changed table2 output" >&2
    exit 1
fi
target/release/repro obs-validate "$smoke_dir/obs_out"
cycles_noobs="$(grep -o '"total_simulated_cycles":[0-9]*' "$smoke_dir/BENCH_noobs.json")"
cycles_obs="$(grep -o '"total_simulated_cycles":[0-9]*' "$smoke_dir/BENCH_repro.json")"
if [ -z "$cycles_noobs" ] || [ "$cycles_noobs" != "$cycles_obs" ]; then
    echo "FAIL: --obs changed total_simulated_cycles ($cycles_noobs vs $cycles_obs)" >&2
    exit 1
fi

echo "== smoke: critical-path explain =="
# One cell with a baseline. The binary itself enforces that the
# instrumented companion run is byte-identical to the uninstrumented
# one (it exits nonzero on any divergence), so a zero exit here IS the
# perturbation check; obs-validate re-checks the attribution identity
# and schema from the exported JSON.
(cd "$smoke_dir" && MCL_ONLY=compress "$OLDPWD/target/release/repro" explain 8 --baseline single \
    --obs explain_out > explain.txt)
grep -q 'compress:' "$smoke_dir/explain.txt" || {
    echo "FAIL: explain report missing the compress cell" >&2
    exit 1
}
test -s "$smoke_dir/explain_out/compress.critpath.json" || {
    echo "FAIL: compress.critpath.json was not written" >&2
    exit 1
}
target/release/repro obs-validate "$smoke_dir/explain_out"
grep -q '"explain":{"dir":"explain_out","baseline":"single"}' "$smoke_dir/BENCH_repro.json" || {
    echo "FAIL: explain run not recorded in BENCH_repro.json" >&2
    exit 1
}
# The exported target cycles and the rendered report must agree (both
# come from the same uninstrumented run the probe was checked against).
json_cycles="$(grep -o '"cycles":[0-9]*' "$smoke_dir/explain_out/compress.critpath.json" | head -1 | cut -d: -f2)"
grep -q "compress: ${json_cycles} cycles" "$smoke_dir/explain.txt" || {
    echo "FAIL: critpath.json cycles ($json_cycles) disagree with the rendered report" >&2
    exit 1
}

echo "== smoke: host flight recorder =="
# The recorder must be a pure observer: rendered output byte-identical
# with recording on, and the recording itself must pass obs-validate's
# flight contract (completed spans, categorized events, finite
# timestamps). The run fills a fresh result store, so every layer the
# recorder names, persist ones included, must appear in it.
(cd "$smoke_dir" && "$OLDPWD/target/release/repro" all 8 --jobs 2 > all_serial_ref.txt)
(cd "$smoke_dir" && "$OLDPWD/target/release/repro" all 8 --jobs 2 \
    --flight run.flight.json --store flight_store > all_flight.txt 2> flight.err)
if ! diff -q "$smoke_dir/all_serial_ref.txt" "$smoke_dir/all_flight.txt"; then
    echo "FAIL: --flight changed repro all output" >&2
    exit 1
fi
grep -q '"flight":{"file":"run.flight.json"}' "$smoke_dir/BENCH_repro.json" || {
    echo "FAIL: flight recording not recorded in BENCH_repro.json" >&2
    exit 1
}
for layer in workloads.build sched.prepare sched.schedule trace.pack core.simulate \
        persist.key persist.load persist.store; do
    grep -q "\"cat\":\"$layer\"" "$smoke_dir/run.flight.json" || {
        echo "FAIL: flight recording has no $layer span" >&2
        exit 1
    }
done
mkdir "$smoke_dir/flight_dir"
cp "$smoke_dir/run.flight.json" "$smoke_dir/flight_dir/"
target/release/repro obs-validate "$smoke_dir/flight_dir"

echo "== smoke: engine phase-cost profile =="
# The binary enforces the hostprof sum-to-elapsed identity and
# bit-identical statistics on every profiled cell (it exits nonzero on
# any violation); obs-validate re-checks the identity and schema from
# the exported JSON. The full 36-cell identity sweep runs inside
# `repro selftest` (hostprof-identity stage) above.
(cd "$smoke_dir" && MCL_ONLY=compress "$OLDPWD/target/release/repro" profile 8 \
    --obs hostprof_out > profile.txt)
grep -q 'compress:.*ns/live-cycle' "$smoke_dir/profile.txt" || {
    echo "FAIL: profile report missing the compress cell" >&2
    exit 1
}
test -s "$smoke_dir/hostprof_out/compress.hostprof.json" || {
    echo "FAIL: compress.hostprof.json was not written" >&2
    exit 1
}
target/release/repro obs-validate "$smoke_dir/hostprof_out"
grep -q '"check":"off"' "$smoke_dir/hostprof_out/compress.hostprof.json" || {
    echo "FAIL: compress.hostprof.json does not record check level off" >&2
    exit 1
}
grep -q '"profile":{"dir":"hostprof_out"}' "$smoke_dir/BENCH_repro.json" || {
    echo "FAIL: profile run not recorded in BENCH_repro.json" >&2
    exit 1
}

echo "== smoke: per-instruction pipetrace =="
# One cell. The binary enforces that the instrumented companion run is
# byte-identical to the uninstrumented one (probe on/off identity — it
# exits nonzero on any divergence), and the retire-exactness identity
# on the recorded lifecycle; the full 36-cell identity sweep runs
# inside `repro selftest` (pipetrace-identity stage) above. Here CI
# additionally revalidates the exports with obs-validate and
# cross-checks the exported cycle and retirement counts against
# BENCH_repro.json and the rendered report.
(cd "$smoke_dir" && MCL_ONLY=compress "$OLDPWD/target/release/repro" pipetrace 8 \
    --out pipetrace_out > pipetrace.txt)
test -s "$smoke_dir/pipetrace_out/compress.konata" || {
    echo "FAIL: compress.konata was not written" >&2
    exit 1
}
target/release/repro obs-validate "$smoke_dir/pipetrace_out"
grep -q '"pipetrace":{"dir":"pipetrace_out","range":null,"baseline":null}' "$smoke_dir/BENCH_repro.json" || {
    echo "FAIL: pipetrace run not recorded in BENCH_repro.json" >&2
    exit 1
}
# The exported target cycles must be the cycles the cell actually
# simulated, and the exported retirement count must match the rendered
# report — the retire-exactness identity, re-checked across artifacts.
pt_json="$smoke_dir/pipetrace_out/compress.pipetrace.json"
pt_cycles="$(grep -o '"cycles":[0-9]*' "$pt_json" | head -1 | cut -d: -f2)"
grep -q "\"simulated_cycles\":${pt_cycles}" "$smoke_dir/BENCH_repro.json" || {
    echo "FAIL: pipetrace.json cycles ($pt_cycles) disagree with BENCH_repro.json" >&2
    exit 1
}
pt_retired="$(grep -o '"retired":[0-9]*' "$pt_json" | head -1 | cut -d: -f2)"
grep -q "of ${pt_retired} retired" "$smoke_dir/pipetrace.txt" || {
    echo "FAIL: pipetrace.json retirements ($pt_retired) disagree with the rendered report" >&2
    exit 1
}
# Differential + ranged mode: slips vs the single-cluster baseline.
(cd "$smoke_dir" && MCL_ONLY=compress "$OLDPWD/target/release/repro" pipetrace 8 \
    --baseline single --range 100..200 --out pipetrace_diff > pipetrace_diff.txt)
grep -q '(range 100..200)' "$smoke_dir/pipetrace_diff.txt" || {
    echo "FAIL: pipetrace --range not reflected in the report" >&2
    exit 1
}
grep -q 'vs single (' "$smoke_dir/pipetrace_diff.txt" || {
    echo "FAIL: pipetrace --baseline missing from the report" >&2
    exit 1
}
target/release/repro obs-validate "$smoke_dir/pipetrace_diff"

echo "== smoke: every export kind in one directory =="
# obs-validate ignores files whose suffix matches no export kind, so a
# kind whose table entry stopped matching would pass silently. One
# directory holding every kind must be counted as seven nonzero kinds.
all_dir="$smoke_dir/all_exports"
for cmd in "table2 8 --obs $all_dir" "explain 8 --baseline single --obs $all_dir" \
        "profile 8 --obs $all_dir" "pipetrace 8 --out $all_dir"; do
    # shellcheck disable=SC2086 # word-splitting the command is intended
    (cd "$smoke_dir" && MCL_ONLY=compress "$OLDPWD/target/release/repro" $cmd > /dev/null)
done
cp "$smoke_dir/run.flight.json" "$all_dir/"
target/release/repro obs-validate "$all_dir" | tee "$smoke_dir/all_exports.txt"
for kind in 'series file' 'Chrome trace file' 'critpath attribution file' 'hostprof profile' \
        'pipetrace export' 'Konata trace' 'flight recording'; do
    grep -Eq "(^|[ :])[1-9][0-9]* ${kind}" "$smoke_dir/all_exports.txt" || {
        echo "FAIL: obs-validate counted no ${kind}(s) in a directory holding every kind" >&2
        exit 1
    }
done

echo "== smoke: chaos fault-injection campaign =="
# Every injected fault must surface as a structured error (invariant
# violation or wedge) — never silently perturb statistics. The campaign
# sweeps fault x workload x single-stepped/fast-forwarded x check level
# and the binary exits
# nonzero unless 100% of cells detect and 0% leak.
(cd "$smoke_dir" && "$OLDPWD/target/release/repro" chaos --jobs 2 > chaos.txt)
grep -q 'chaos: PASS (100% detected, 0% leaked)' "$smoke_dir/chaos.txt" || {
    echo "FAIL: chaos campaign did not report a full pass" >&2
    cat "$smoke_dir/chaos.txt" >&2
    exit 1
}
grep -q ' 0 leaked into stats; 0 broken cells' "$smoke_dir/chaos.txt" || {
    echo "FAIL: chaos campaign summary line malformed or reporting leaks" >&2
    exit 1
}

echo "== smoke: persistent result store (cold vs warm) =="
# A warm `--store` run must render byte-identical output while serving
# every simulation from disk, and every trace request from the request
# tier, so it builds no trace. The speedup guard compares the runs'
# total wall time; override with MCL_STORE_GUARD_SPEEDUP.
store_speedup_floor="${MCL_STORE_GUARD_SPEEDUP:-5.0}"
# The simulation memo keys on the trace digest with a store as without
# one, so both runs count what the plain `repro all 8` runs above count.
store_memo_counts() {
    for counter in '"sim_hits":56' '"sim_misses":136'; do
        grep -q "$counter" "$smoke_dir/BENCH_repro.json" || {
            echo "FAIL: $1 --store run report lacks $counter" >&2
            exit 1
        }
    done
}
(cd "$smoke_dir" && "$OLDPWD/target/release/repro" all 8 --jobs 1 --store result_store > all_cold.txt)
cold_wall="$(grep -o '"total_wall_seconds":[0-9.]*' "$smoke_dir/BENCH_repro.json" | head -1 | cut -d: -f2)"
store_memo_counts cold
grep -q '"disk_stores":0' "$smoke_dir/BENCH_repro.json" && {
    echo "FAIL: cold --store run persisted nothing" >&2
    exit 1
}
(cd "$smoke_dir" && "$OLDPWD/target/release/repro" all 8 --jobs 1 --store result_store > all_warm.txt)
warm_wall="$(grep -o '"total_wall_seconds":[0-9.]*' "$smoke_dir/BENCH_repro.json" | head -1 | cut -d: -f2)"
store_memo_counts warm
if ! diff -q "$smoke_dir/all_cold.txt" "$smoke_dir/all_warm.txt"; then
    echo "FAIL: warm --store run changed repro all output" >&2
    exit 1
fi
grep -q '"disk_misses":0' "$smoke_dir/BENCH_repro.json" || {
    echo "FAIL: warm --store run missed the disk cache" >&2
    exit 1
}
grep -q '"disk_quarantined":0' "$smoke_dir/BENCH_repro.json" || {
    echo "FAIL: warm --store run quarantined entries" >&2
    exit 1
}
grep -q '"disk_request_misses":0' "$smoke_dir/BENCH_repro.json" || {
    echo "FAIL: warm --store run missed the request tier" >&2
    exit 1
}
grep -q '"trace_misses":0' "$smoke_dir/BENCH_repro.json" || {
    echo "FAIL: warm --store run built traces" >&2
    exit 1
}
if grep -q '"disk_hits":0' "$smoke_dir/BENCH_repro.json"; then
    echo "FAIL: warm --store run served no cells from disk" >&2
    exit 1
fi
if ! awk -v c="$cold_wall" -v w="$warm_wall" -v f="$store_speedup_floor" \
        'BEGIN { exit !(w <= 0.000001 || c / w >= f) }'; then
    echo "FAIL: warm --store wall time (${warm_wall}s) not ${store_speedup_floor}x under cold (${cold_wall}s)" >&2
    exit 1
fi
echo "store guard OK: wall ${cold_wall}s cold vs ${warm_wall}s warm (floor ${store_speedup_floor}x), output byte-identical"

echo "== guard: disabled-probe overhead =="
# Compare min-of-3 serial `repro all` wall time against the previous
# commit. This also bounds the disabled cost of the hostprof phase
# profiler and the flight recorder (neither flag is passed here, so
# their hooks must compile to nothing / one relaxed load). Wall-clock
# comparisons on shared CI hosts are noisy, so the guard uses the min
# of three runs and a generous default tolerance (override with
# MCL_OBS_GUARD_TOLERANCE); it warns and skips when the baseline
# cannot be built (shallow clone, first commit, ...).
guard_tol="${MCL_OBS_GUARD_TOLERANCE:-0.15}"
baseline_ref="${MCL_BASELINE_REF:-HEAD~1}"
base_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"; git worktree remove --force "$base_dir/src" >/dev/null 2>&1 || true; rm -rf "$base_dir"' EXIT
min_wall() {
    # Runs `repro all 8 --jobs 1` three times with the given binary and
    # prints the minimum total_wall_seconds reported in BENCH_repro.json.
    local bin="$1" best="" wall
    for _ in 1 2 3; do
        (cd "$smoke_dir" && "$bin" all 8 --jobs 1 > /dev/null)
        wall="$(grep -o '"total_wall_seconds":[0-9.]*' "$smoke_dir/BENCH_repro.json" | head -1 | cut -d: -f2)"
        best="$(awk -v a="${best:-$wall}" -v b="$wall" 'BEGIN { print (a < b) ? a : b }')"
    done
    echo "$best"
}
if git worktree add --detach "$base_dir/src" "$baseline_ref" >/dev/null 2>&1 \
    && (cd "$base_dir/src" && CARGO_TARGET_DIR="$base_dir/target" cargo build --release -q -p mcl-bench); then
    current="$(min_wall "$PWD/target/release/repro")"
    baseline="$(min_wall "$base_dir/target/release/repro")"
    if awk -v cur="$current" -v base="$baseline" -v tol="$guard_tol" \
            'BEGIN { exit !(cur <= base * (1 + tol)) }'; then
        echo "overhead OK: ${current}s current vs ${baseline}s baseline (tolerance ${guard_tol})"
    else
        echo "FAIL: disabled-probe overhead ${current}s vs baseline ${baseline}s exceeds tolerance ${guard_tol}" >&2
        exit 1
    fi

    echo "== guard: cross-version store compatibility =="
    # A store filled by the baseline binary must serve every lookup of
    # the current one, with the output a fresh simulation renders: a
    # change to key derivation would silently orphan every existing
    # store. Skipped when either version constant moved, since old
    # entries are then deliberately no longer addressed.
    wire_versions() {
        grep -ho 'pub const \(STORE_FORMAT_VERSION\|STATS_WIRE_VERSION\): u32 = [0-9]*' \
            "$1/crates/bench/src/persist.rs" "$1/crates/core/src/stats.rs" 2>/dev/null
    }
    base_versions="$(wire_versions "$base_dir/src")"
    if [ -z "$base_versions" ] || [ "$base_versions" != "$(wire_versions .)" ]; then
        echo "WARN: store format or stats wire version differs from $baseline_ref; skipping cross-version store check" >&2
    else
        xv_dir="$smoke_dir/cross_version"
        mkdir -p "$xv_dir"
        (cd "$xv_dir" && "$base_dir/target/release/repro" all 8 --jobs 1 --store xv_store > /dev/null)
        (cd "$xv_dir" && "$OLDPWD/target/release/repro" all 8 --jobs 1 --store xv_store > all_current.txt)
        if ! diff -q "$smoke_dir/all_cold.txt" "$xv_dir/all_current.txt"; then
            echo "FAIL: serving a $baseline_ref store changed repro all output" >&2
            exit 1
        fi
        grep -q '"disk_misses":0' "$xv_dir/BENCH_repro.json" || {
            echo "FAIL: current binary missed entries of a $baseline_ref store (key derivation changed)" >&2
            exit 1
        }
        grep -q '"disk_quarantined":0' "$xv_dir/BENCH_repro.json" || {
            echo "FAIL: current binary quarantined entries of a $baseline_ref store" >&2
            exit 1
        }
        # Request entries cover the writing binary, so none of the
        # baseline's may hit: the results came through the content path.
        grep -q '"disk_request_hits":0' "$xv_dir/BENCH_repro.json" || {
            echo "FAIL: current binary hit request entries of a $baseline_ref store" >&2
            exit 1
        }
        echo "cross-version store OK: every lookup served from a $baseline_ref store through the content path, output byte-identical"
    fi
else
    echo "WARN: baseline $baseline_ref unavailable; skipping overhead guard" >&2
fi

echo "CI OK"
