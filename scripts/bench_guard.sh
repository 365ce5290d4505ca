#!/usr/bin/env bash
# Benchmark regression guard for the trace-replay fast path.
#
# Two kinds of checks:
#
#   1. A ratio invariant (machine-independent, always enforced): compiled
#      batch replay must stay >= MIN_SPEEDUP x faster per access than the
#      live generator path (BenchmarkHeadlineStreamReplay pair).
#
#   2. Absolute regressions (same-machine only): when a baseline file is
#      given, each guarded benchmark's best ns/op must not exceed the
#      baseline by more than TOLERANCE_PCT. Baselines are machine-specific,
#      so CI runs this job non-blocking; locally, record a baseline once
#      with -record and the guard catches >15% regressions on your box.
#
# Usage:
#   scripts/bench_guard.sh                      # ratio invariant only
#   scripts/bench_guard.sh -record baseline.txt # record a baseline
#   scripts/bench_guard.sh -baseline baseline.txt
set -euo pipefail

cd "$(dirname "$0")/.."

MIN_SPEEDUP="${MIN_SPEEDUP:-2.0}"
TOLERANCE_PCT="${TOLERANCE_PCT:-15}"
BENCHES='BenchmarkHeadlineStreamReplay|BenchmarkSystemStep$|BenchmarkSystemStepCompiled$'
COUNT="${COUNT:-3}"
BENCHTIME="${BENCHTIME:-1s}"

MODE="ratio"
FILE=""
case "${1:-}" in
-record)
    MODE="record"
    FILE="${2:?usage: bench_guard.sh -record FILE}"
    ;;
-baseline)
    MODE="baseline"
    FILE="${2:?usage: bench_guard.sh -baseline FILE}"
    ;;
"") ;;
*)
    echo "usage: bench_guard.sh [-record FILE | -baseline FILE]" >&2
    exit 2
    ;;
esac

OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

echo "running guarded benchmarks ($COUNT x $BENCHTIME each)..."
go test -run='^$' -bench="$BENCHES" -benchtime="$BENCHTIME" -count="$COUNT" . | tee "$OUT"

# best (minimum) ns/op per benchmark, CPU-count suffix stripped
best() {
    awk -v name="$1" '$1 ~ "^"name"(-[0-9]+)?$" { if (best == "" || $3 + 0 < best + 0) best = $3 } END { print best }' "$OUT"
}

GEN="$(best 'BenchmarkHeadlineStreamReplay/generator')"
COMPILED="$(best 'BenchmarkHeadlineStreamReplay/compiled')"
if [ -z "$GEN" ] || [ -z "$COMPILED" ]; then
    echo "bench_guard: stream replay pair missing from benchmark output" >&2
    exit 1
fi
SPEEDUP="$(awk -v g="$GEN" -v c="$COMPILED" 'BEGIN { printf "%.2f", g / c }')"
echo "stream replay: generator ${GEN} ns/access, compiled ${COMPILED} ns/access — ${SPEEDUP}x"
if awk -v s="$SPEEDUP" -v m="$MIN_SPEEDUP" 'BEGIN { exit !(s + 0 < m + 0) }'; then
    echo "bench_guard: FAIL — compiled replay is ${SPEEDUP}x the generator, floor is ${MIN_SPEEDUP}x" >&2
    exit 1
fi

if [ "$MODE" = "record" ]; then
    {
        echo "# bench_guard baseline — best ns/op per benchmark"
        echo "# host: $(uname -sm), recorded: $(date -u +%Y-%m-%dT%H:%M:%SZ)"
        for b in 'BenchmarkHeadlineStreamReplay/generator' \
            'BenchmarkHeadlineStreamReplay/compiled' \
            'BenchmarkSystemStep' 'BenchmarkSystemStepCompiled'; do
            echo "$b $(best "$b")"
        done
    } >"$FILE"
    echo "baseline written to $FILE"
    exit 0
fi

if [ "$MODE" = "baseline" ]; then
    FAILED=0
    while read -r name base; do
        case "$name" in \#* | "") continue ;; esac
        NOW="$(best "$name")"
        if [ -z "$NOW" ]; then
            echo "bench_guard: $name not in benchmark output" >&2
            FAILED=1
            continue
        fi
        if awk -v n="$NOW" -v b="$base" -v t="$TOLERANCE_PCT" \
            'BEGIN { exit !(n + 0 > b * (1 + t / 100)) }'; then
            echo "bench_guard: FAIL — $name: ${NOW} ns/op vs baseline ${base} (>${TOLERANCE_PCT}% regression)" >&2
            FAILED=1
        else
            echo "ok: $name ${NOW} ns/op (baseline ${base})"
        fi
    done <"$FILE"
    exit "$FAILED"
fi

echo "bench_guard: ratio invariant holds"
