#!/usr/bin/env bash
# Deterministic-bench regression gates.
#
# Compares a freshly generated bench report against its committed
# snapshot, dispatching on the report's "bench" field:
#
# micro_ticks (BENCH_ticks.json) — fast-forward leverage:
#   - `cycles` (simulated length of each scenario) must match EXACTLY —
#     it is fully deterministic, any drift means the simulation changed
#     without regenerating the snapshot (see bench/micro_ticks.cc);
#   - `cycles_ticked` and `spans` may grow by at most 10% — these are
#     the deterministic leverage metrics, summed over the cluster
#     engines (each ticks or skips every cycle, so a C-cluster run has
#     C x `cycles` engine-cycles; fewer skipped ones == the quiescence
#     detector got weaker);
#   - `results_match` must stay true (fast-forward on == off; for the
#     parallel_clusters scenario, 1 worker thread == N worker threads);
#   - the parallel_clusters scenario itself must be present.
#   Wall-clock fields are machine-dependent noise and are ignored.
#
# fig16_scalability (BENCH_scalability.json) — clustered scale-out:
#   every field is a pure function of the config (DESIGN.md §13's
#   determinism contract), so `cycles`, `dram_bytes`, `vl_switches`,
#   `rebalances` and `migrations` must all match EXACTLY; drift means
#   the clustered machine model changed without regenerating the
#   snapshot (see bench/fig16_scalability.cc).
#
# traffic_admission (BENCH_admission.json) — admission-control cross:
#   shed/defer/goodput under a seeded poisson stream are pure functions
#   of the config (DESIGN.md §16), so `cycles`, `arrivals`,
#   `completed`, `shed`, `deferrals`, `goodput` and `slo_violations`
#   must all match EXACTLY; drift means admission or overload behavior
#   changed without regenerating the snapshot (see
#   bench/traffic_ablation.cc's admission section).
#
# Usage: check_bench_ticks.sh <fresh.json> <committed-snapshot.json>
set -euo pipefail

fresh="${1:?usage: check_bench_ticks.sh <fresh.json> <snapshot.json>}"
snap="${2:?usage: check_bench_ticks.sh <fresh.json> <snapshot.json>}"

# A missing tool or input must be a loud failure, never a gate that
# "passes" because it compared nothing.
if ! command -v jq >/dev/null 2>&1; then
    echo "FAIL: jq not found on PATH; install jq (the gate parses the" \
         "bench JSON with it)" >&2
    exit 1
fi
if [ ! -r "$fresh" ]; then
    echo "FAIL: fresh report '$fresh' missing or unreadable; build and" \
         "run the bench binary first, e.g." \
         "'cmake --build build --target micro_ticks &&" \
         "./build/bench/micro_ticks $fresh'" >&2
    exit 1
fi
if [ ! -r "$snap" ]; then
    echo "FAIL: committed snapshot '$snap' missing or unreadable;" \
         "expected a checked-in BENCH_*.json at the repo root" >&2
    exit 1
fi

fail=0
bench=$(jq -r '.bench' "$snap")

fb=$(jq -r '.bench' "$fresh")
if [ "$fb" != "$bench" ]; then
    echo "FAIL: fresh report is bench '$fb', snapshot is '$bench'" >&2
    exit 1
fi

names=$(jq -r '.scenarios[].name' "$snap")
if [ -z "$names" ]; then
    echo "FAIL: snapshot '$snap' lists no scenarios; nothing would be" \
         "gated — regenerate it from the bench binary" >&2
    exit 1
fi

# The parallel-ticking scenario (1 vs N cycle-loop worker threads,
# DESIGN.md §15) must stay in the micro_ticks snapshot: its
# results_match and exact-cycles gates are the CI proof that the
# worker pool is deterministic. Wall-clock speedup is host-dependent
# (~1x on a single-core runner) and deliberately not gated.
if [ "$bench" = micro_ticks ] &&
   ! grep -q parallel_clusters <<<"$names"; then
    echo "FAIL: micro_ticks snapshot lacks the parallel_clusters" \
         "scenario; regenerate BENCH_ticks.json with a micro_ticks" \
         "build that includes it" >&2
    exit 1
fi

for name in $names; do
    f=$(jq -c --arg n "$name" '.scenarios[] | select(.name == $n)' "$fresh")
    if [ -z "$f" ]; then
        echo "FAIL $name: missing from fresh report" >&2
        fail=1
        continue
    fi
    s=$(jq -c --arg n "$name" '.scenarios[] | select(.name == $n)' "$snap")

    case "$bench" in
    micro_ticks)
        if [ "$(jq -r '.results_match' <<<"$f")" != "true" ]; then
            echo "FAIL $name: fast-forward changed simulation results" >&2
            fail=1
        fi

        sc=$(jq -r '.cycles' <<<"$s"); fc=$(jq -r '.cycles' <<<"$f")
        if [ "$sc" != "$fc" ]; then
            echo "FAIL $name: simulated cycles drifted ($sc -> $fc);" \
                 "regenerate BENCH_ticks.json if the change is intended" >&2
            fail=1
        fi

        for field in cycles_ticked spans; do
            sv=$(jq -r ".$field" <<<"$s"); fv=$(jq -r ".$field" <<<"$f")
            # >10% growth over the snapshot is a leverage regression.
            if [ $((fv * 10)) -gt $((sv * 11)) ]; then
                echo "FAIL $name: $field regressed >10% ($sv -> $fv)" >&2
                fail=1
            else
                echo "ok   $name: $field $sv -> $fv"
            fi
        done
        ;;
    fig16_scalability)
        for field in cycles dram_bytes vl_switches rebalances migrations; do
            sv=$(jq -r ".$field" <<<"$s"); fv=$(jq -r ".$field" <<<"$f")
            if [ "$sv" != "$fv" ]; then
                echo "FAIL $name: $field drifted ($sv -> $fv);" \
                     "regenerate BENCH_scalability.json if intended" >&2
                fail=1
            else
                echo "ok   $name: $field $sv"
            fi
        done
        ;;
    traffic_admission)
        for field in cycles arrivals completed shed deferrals goodput \
                     slo_violations; do
            sv=$(jq -r ".$field" <<<"$s"); fv=$(jq -r ".$field" <<<"$f")
            if [ "$sv" != "$fv" ]; then
                echo "FAIL $name: $field drifted ($sv -> $fv);" \
                     "regenerate BENCH_admission.json if intended" >&2
                fail=1
            else
                echo "ok   $name: $field $sv"
            fi
        done
        ;;
    *)
        echo "FAIL: unknown bench '$bench' in snapshot" >&2
        exit 1
        ;;
    esac
done

if [ "$fail" -ne 0 ]; then
    echo "deterministic bench regression detected ($bench)" >&2
    exit 1
fi
echo "bench $bench within bounds"
