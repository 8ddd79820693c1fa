#!/usr/bin/env bash
# Bench driver. Two sections:
#   E8a  geometry kernel microbenchmarks (google-benchmark) -> BENCH_geometry
#   E11  sharded service throughput (bench_service)         -> BENCH_service
#
# Usage: bench/run_benches.sh [--check [baseline-json] | --release-baseline] \
#                             [build-dir] [output-json]
#   CHC_BENCH_MIN_TIME overrides --benchmark_min_time (default 0.05;
#   older google-benchmark releases reject the "s"-suffixed form, so pass
#   whichever spelling the installed library accepts, e.g. "0.01s" in CI).
#   CHC_BENCH_REPETITIONS sets --benchmark_repetitions. It defaults to 5
#   for --release-baseline and 3 for --check (both sides of the regression
#   gate record the MEDIAN over the repetitions — single runs on a busy box
#   swing tens of percent, enough to trip the 30% gate on pure noise) and
#   to 1 for a plain capture.
#   CHC_SVC_BENCH_INSTANCES sizes the service batch (default 48).
#   CHC_SVC_CHECK_MIN_SCALING overrides the service scaling gate.
#
# --release-baseline records a committable baseline: it REFUSES to run
# unless the build dir is CMAKE_BUILD_TYPE=Release, and stamps the JSON
# with the build configuration (build type, CXX flags, CHC_LTO) and the
# host (num_cpus, CPU feature flags) so any later --check can tell
# whether a comparison is apples-to-apples.
#
# --check compares the fresh speedup_summary against the committed baseline
# (default: BENCH_geometry.json next to the repo root) and exits 1 when any
# engine bench regressed by more than 30% (fresh speedup < 0.7x baseline).
# The comparison is gated hard on build type: a fresh run whose build type
# differs from the baseline's recorded build_type is an error, not a
# warning — the diagnostics print both builds and both hosts (num_cpus,
# CPU features) so CI logs explain themselves. --check additionally gates
# the service bench's 1->4 shard scaling ratio: >= 2.0x on machines with at
# least 4 hardware threads, >= 1.3x with 2-3, and >= 0.85x (no pathological
# slowdown) on a single core.
# In check mode the default outputs are BENCH_*.fresh.json so the committed
# baselines are never overwritten.
set -euo pipefail

SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
CHECK=0
RELEASE_BASELINE=0
BASELINE="$SCRIPT_DIR/../BENCH_geometry.json"

if [[ "${1:-}" == "--check" ]]; then
  CHECK=1
  shift
  if [[ $# -gt 0 && "$1" == *.json && -f "$1" ]]; then
    BASELINE="$1"
    shift
  fi
elif [[ "${1:-}" == "--release-baseline" ]]; then
  RELEASE_BASELINE=1
  shift
fi

BUILD_DIR="${1:-build}"
if [[ "$CHECK" == 1 ]]; then
  OUT="${2:-BENCH_geometry.fresh.json}"
  SVC_OUT="BENCH_service.fresh.json"
else
  OUT="${2:-BENCH_geometry.json}"
  SVC_OUT="BENCH_service.json"
fi
MIN_TIME="${CHC_BENCH_MIN_TIME:-0.05}"
REPS="${CHC_BENCH_REPETITIONS:-}"
if [[ -z "$REPS" ]]; then
  if [[ "$RELEASE_BASELINE" == 1 ]]; then
    REPS=5
  elif [[ "$CHECK" == 1 ]]; then
    REPS=3
  else
    REPS=1
  fi
fi
BIN="$BUILD_DIR/bench/bench_geometry_micro"
SVC_BIN="$BUILD_DIR/bench/bench_service"

cache_var() {  # cache_var NAME -> value of NAME:<TYPE>=value in CMakeCache
  sed -n "s/^$1:[^=]*=//p" "$BUILD_DIR/CMakeCache.txt" 2>/dev/null | head -n1
}

BUILD_TYPE="$(cache_var CMAKE_BUILD_TYPE)"
BUILD_TYPE="${BUILD_TYPE:-unknown}"
CXX_FLAGS="$(cache_var CMAKE_CXX_FLAGS)"
CXX_FLAGS_CFG=""
if [[ "$BUILD_TYPE" != "unknown" ]]; then
  CXX_FLAGS_CFG="$(cache_var "CMAKE_CXX_FLAGS_${BUILD_TYPE^^}")"
fi
CHC_LTO_VAL="$(cache_var CHC_LTO)"
COMPILER="$(cache_var CMAKE_CXX_COMPILER)"
NUM_CPUS="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)"
# The host's vector instruction-set flags, part of the host description
# (no kernel dispatches on them); harvested from /proc/cpuinfo so the
# baseline records what the recording host had.
CPU_FEATURES=""
if [[ -r /proc/cpuinfo ]]; then
  CPU_FEATURES="$(grep -m1 '^flags' /proc/cpuinfo |
    tr ' ' '\n' | grep -E '^(sse4_1|sse4_2|avx|avx2|fma|avx512f|avx512dq)$' |
    sort -u | paste -sd, - || true)"
fi

# Numbers from a non-Release build are meaningless for comparison. A
# baseline recording refuses outright; plain runs warn and stamp the JSON
# so a stray Debug result can never be mistaken for a baseline later.
if [[ "$BUILD_TYPE" != "Release" ]]; then
  if [[ "$RELEASE_BASELINE" == 1 ]]; then
    echo "error: --release-baseline requires a Release build; $BUILD_DIR is" \
         "'$BUILD_TYPE'. Reconfigure with -DCMAKE_BUILD_TYPE=Release" \
         "(and optionally -DCHC_LTO=ON)." >&2
    exit 1
  fi
  cat >&2 <<EOW
##############################################################################
# WARNING: $BUILD_DIR is a '$BUILD_TYPE' build, not Release.
# Benchmark numbers below are NOT comparable to committed baselines.
# Reconfigure with -DCMAKE_BUILD_TYPE=Release before recording results.
##############################################################################
EOW
fi

if [[ ! -x "$BIN" ]]; then
  echo "error: $BIN not built (cmake --build $BUILD_DIR --target bench_geometry_micro)" >&2
  exit 1
fi
if [[ ! -x "$SVC_BIN" ]]; then
  echo "error: $SVC_BIN not built (cmake --build $BUILD_DIR --target bench_service)" >&2
  exit 1
fi
if [[ "$CHECK" == 1 && ! -f "$BASELINE" ]]; then
  echo "error: baseline $BASELINE not found" >&2
  exit 1
fi
if [[ "$CHECK" == 1 && "$(readlink -f "$OUT" 2>/dev/null || echo "$OUT")" == "$(readlink -f "$BASELINE")" ]]; then
  echo "error: --check output would overwrite the baseline ($BASELINE)" >&2
  exit 1
fi

BENCH_ARGS=(
  --benchmark_min_time="$MIN_TIME"
  --benchmark_out="$OUT"
  --benchmark_out_format=json
  --benchmark_counters_tabular=true
)
if [[ "$REPS" -gt 1 ]]; then
  # Aggregates only: the JSON then carries one mean/median/stddev triple per
  # benchmark instead of per-repetition iterations; the summary below picks
  # out the medians.
  BENCH_ARGS+=(
    --benchmark_repetitions="$REPS"
    --benchmark_report_aggregates_only=true
  )
fi
"$BIN" "${BENCH_ARGS[@]}"

if ! command -v python3 >/dev/null 2>&1; then
  if [[ "$CHECK" == 1 || "$RELEASE_BASELINE" == 1 ]]; then
    echo "error: --check / --release-baseline need python3" >&2
    exit 1
  fi
  echo "python3 not found: wrote raw JSON without speedup summary" >&2
  echo "wrote $OUT"
  exit 0
fi

CHC_STAMP_BUILD_TYPE="$BUILD_TYPE" \
CHC_STAMP_CXX_FLAGS="$CXX_FLAGS" \
CHC_STAMP_CXX_FLAGS_CFG="$CXX_FLAGS_CFG" \
CHC_STAMP_LTO="$CHC_LTO_VAL" \
CHC_STAMP_COMPILER="$COMPILER" \
CHC_STAMP_NUM_CPUS="$NUM_CPUS" \
CHC_STAMP_CPU_FEATURES="$CPU_FEATURES" \
python3 - "$OUT" <<'EOF'
import json, os, sys

path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)

build_type = os.environ["CHC_STAMP_BUILD_TYPE"]
doc["build_type"] = build_type
if build_type != "Release":
    doc["non_release_build"] = True
doc["build"] = {
    "build_type": build_type,
    "compiler": os.environ["CHC_STAMP_COMPILER"],
    "cxx_flags": os.environ["CHC_STAMP_CXX_FLAGS"],
    "cxx_flags_config": os.environ["CHC_STAMP_CXX_FLAGS_CFG"],
    "CHC_LTO": os.environ["CHC_STAMP_LTO"],
}
doc["host"] = {
    "num_cpus": int(os.environ["CHC_STAMP_NUM_CPUS"] or 0),
    "cpu_features": [f for f in
                     os.environ["CHC_STAMP_CPU_FEATURES"].split(",") if f],
}

# Single runs report plain iterations; repeated runs (CHC_BENCH_REPETITIONS
# > 1) report aggregates, of which the median is the robust location
# estimate on a noisy box. Medians win over iterations when both appear.
times = {}
medians = {}
for b in doc.get("benchmarks", []):
    if b.get("run_type", "iteration") == "iteration":
        times.setdefault(b["name"], (b["real_time"], b["time_unit"]))
    elif b.get("aggregate_name") == "median":
        base = b.get("run_name") or b["name"].removesuffix("_median")
        medians[base] = (b["real_time"], b["time_unit"])
times.update(medians)

speedups = {}
for name, (t, unit) in sorted(times.items()):
    if "_Reference/" not in name:
        continue
    engine = name.replace("_Reference", "")
    if engine in times:
        et, eunit = times[engine]
        assert eunit == unit
        speedups[engine] = {
            "reference_" + unit: round(t, 1),
            "engine_" + unit: round(et, 1),
            "speedup": round(t / et, 2),
        }

doc["speedup_summary"] = speedups
with open(path, "w") as f:
    json.dump(doc, f, indent=2)

width = max((len(k) for k in speedups), default=10)
print("\n== engine vs reference ==")
for name, s in speedups.items():
    print(f"{name:<{width}}  {s['speedup']:>6.2f}x")
EOF

if [[ "$CHECK" == 1 ]]; then
  python3 - "$OUT" "$BASELINE" <<'EOF'
import json, sys

fresh_path, base_path = sys.argv[1], sys.argv[2]
with open(fresh_path) as f:
    fresh_doc = json.load(f)
with open(base_path) as f:
    base_doc = json.load(f)
fresh = fresh_doc.get("speedup_summary", {})
base = base_doc.get("speedup_summary", {})


def describe(doc, label):
    build = doc.get("build", {})
    host = doc.get("host", {})
    print(f"  {label}: build_type={doc.get('build_type', 'unknown')}"
          f" CHC_LTO={build.get('CHC_LTO', '?')}"
          f" num_cpus={host.get('num_cpus', '?')}"
          f" cpu_features={','.join(host.get('cpu_features', [])) or '?'}",
          file=sys.stderr)


# Hard gate: comparing across build types is not a regression signal, it
# is a configuration bug. Fail with enough host/build context to debug a
# CI runner change from the log alone.
base_bt = base_doc.get("build_type", "unknown")
fresh_bt = fresh_doc.get("build_type", "unknown")
if fresh_bt != base_bt:
    print(f"error: build_type mismatch: fresh run is '{fresh_bt}' but the "
          f"baseline {base_path} was recorded from '{base_bt}'",
          file=sys.stderr)
    describe(fresh_doc, "fresh")
    describe(base_doc, "baseline")
    sys.exit(1)
if fresh_bt != "Release":
    print(f"error: --check requires a Release build (got '{fresh_bt}')",
          file=sys.stderr)
    describe(fresh_doc, "fresh")
    sys.exit(1)

if not base:
    print(f"error: {base_path} has no speedup_summary", file=sys.stderr)
    sys.exit(1)

THRESHOLD = 0.7  # fail on > 30% regression vs the committed baseline
regressions = []
width = max(len(k) for k in base)
print(f"\n== speedup vs baseline ({base_path}) ==")
for name in sorted(base):
    b = base[name]["speedup"]
    if name not in fresh:
        print(f"{name:<{width}}  baseline {b:>6.2f}x  fresh  MISSING")
        regressions.append(name)
        continue
    fspeed = fresh[name]["speedup"]
    ratio = fspeed / b if b > 0 else float("inf")
    flag = "" if ratio >= THRESHOLD else "  << REGRESSION"
    print(f"{name:<{width}}  baseline {b:>6.2f}x  fresh {fspeed:>6.2f}x"
          f"  ({ratio:>5.2f} of baseline){flag}")
    if ratio < THRESHOLD:
        regressions.append(name)
for name in sorted(set(fresh) - set(base)):
    print(f"{name:<{width}}  new bench (not in baseline)")

if regressions:
    describe(fresh_doc, "fresh")
    describe(base_doc, "baseline")
    print(f"\n{len(regressions)} bench(es) regressed more than 30% "
          f"vs {base_path}", file=sys.stderr)
    sys.exit(1)
print("\nno bench regressed more than 30% vs baseline")
EOF
fi

echo "wrote $OUT"

# ---------------------------------------------------------------------------
# E11: sharded service throughput. bench_service writes its own JSON; the
# --check gate reads scaling_4_over_1 out of it. The scaling requirement
# depends on the machine: a single-core runner cannot speed up by adding
# shards, so there the gate only rejects a pathological slowdown.
"$SVC_BIN" --out "$SVC_OUT"

if command -v python3 >/dev/null 2>&1; then
  python3 - "$SVC_OUT" "$BUILD_TYPE" <<'EOF'
import json, sys

path, build_type = sys.argv[1], sys.argv[2]
with open(path) as f:
    doc = json.load(f)
doc["build_type"] = build_type
if build_type != "Release":
    doc["non_release_build"] = True
with open(path, "w") as f:
    json.dump(doc, f, indent=2)
EOF
fi

if [[ "$CHECK" == 1 ]]; then
  python3 - "$SVC_OUT" <<'EOF'
import json, os, sys

path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)

scaling = doc["scaling_4_over_1"]
hw = doc.get("hardware_concurrency", 0)

override = os.environ.get("CHC_SVC_CHECK_MIN_SCALING")
if override:
    need = float(override)
elif hw >= 4:
    need = 2.0   # the acceptance bar: >= 2x instances/sec from 1 -> 4 shards
elif hw >= 2:
    need = 1.3
else:
    need = 0.85  # 1 core: sharding can't help; just forbid a big slowdown

print(f"\n== service scaling gate ==")
print(f"hardware_concurrency={hw}  scaling_4_over_1={scaling:.3f}x  "
      f"required>={need:.2f}x")
if scaling < need:
    print(f"error: service shard scaling {scaling:.3f}x below the "
          f"{need:.2f}x gate", file=sys.stderr)
    sys.exit(1)
print("service scaling gate passed")
EOF
fi
