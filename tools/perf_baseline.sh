#!/usr/bin/env bash
# Runs the perf_micro google-benchmark suite and captures the results as
# JSON for before/after comparisons of the simulation hot paths.
#
# Usage: tools/perf_baseline.sh [build-dir] [output.json]
#        tools/perf_baseline.sh --record [build-dir] [outdir]
#        tools/perf_baseline.sh --check [baseline.json] [build-dir]
#
# Plain mode runs the suite twice — once pinned to a single thread
# (QQO_THREADS=1) and once with the default pool — so the JSON records
# both the serial baseline and the parallel sweep numbers. Extra benchmark
# flags can be passed via QQO_BENCH_FILTER (a --benchmark_filter regex).
#
# --record appends a point to the repo's committed perf trajectory: it
# runs the suite at QQO_THREADS=1 with 3 repetitions and writes the best
# (minimum) time of every benchmark, normalised to ns, into
# BENCH_<date>_<shortsha>.json (schema qqo-bench-snapshot-v2, see
# DESIGN.md "Performance") in <outdir>
# (default: the repo root). The sha gets a "-dirty" suffix when tracked
# files differ from HEAD, and reads "nogit" outside a git work tree.
# Commit the file so future --check runs — and future readers of the
# history — can see how each change moved the hot paths.
#
# --check re-runs the hot-loop benchmarks and fails on regressions
# against <baseline.json>; when no baseline is given it uses the newest
# committed BENCH_*.json snapshot (outside a git work tree, e.g. in a
# `git archive` export, the newest by its date-prefixed file name). Two
# tolerances apply:
#
#   * QQO_PERF_SNAPSHOT_TOLERANCE (default 10%) gates the cross-run
#     comparison against the snapshot. Runs separated in time on a
#     shared/virtualized box see frequency and steal-time drift measured
#     at up to ~8% between windows minutes apart, so a tighter cross-run
#     gate flakes; 10% still catches the step regressions this gate
#     exists for (losing the statevector kernel's vectorization or
#     incremental sweeps is a 2-10x effect, not a 10% one).
#   * QQO_PERF_TOLERANCE (default 2%) gates the intra-run
#     BM_ObsDisarmed{Baseline,Traced} pair — disarmed tracing/metrics
#     instrumentation vs the uninstrumented kernel. The pair runs in its
#     own perf_micro call: 60 repetitions of 0.1 s with random
#     interleaving, so both sides sample the same windows, compared by the
#     median of each side's repetitions. It is always checked, even when
#     the cross-run comparison is skipped.
#
# The cross-run comparison uses best-of-repetitions rather than medians:
# scheduling noise on a shared box is one-sided (interference only ever
# slows a run down), so the minimum is the stable estimator of the code's
# true cost. The intra-run pair uses medians instead: one lucky window
# sets a minimum, and on a shared 4-vCPU VM the minima of two
# interleaved sides of an unchanged kernel differed by up to 5%, their
# medians by under 2%. On failure the suite is re-run and the minima (and
# the pair's repetitions) merged, up to QQO_PERF_CHECK_ATTEMPTS
# (default 2) passes — a real regression fails every window, noise does
# not. Snapshots carry a host fingerprint: when
# it does not match the current machine, the cross-run comparison is
# skipped with a warning (numbers from different CPUs are not
# comparable) unless QQO_PERF_ALLOW_CROSS_HOST=1.

set -euo pipefail

script_dir="$(cd -- "$(dirname -- "${BASH_SOURCE[0]}")" &>/dev/null && pwd)"
repo_root="$(cd -- "${script_dir}/.." &>/dev/null && pwd)"

host_fingerprint() {
  local model
  model="$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -1)"
  if [[ -z "${model}" ]]; then
    model="$(uname -m)"
  fi
  echo "${model} x$(nproc)"
}

require_perf_bin() {
  if [[ ! -x "${perf_bin}" ]]; then
    echo "error: ${perf_bin} not found; build first:" >&2
    echo "  cmake -B ${build_dir} -S . && cmake --build ${build_dir} -j" >&2
    exit 1
  fi
}

# Writes the --check comparison script to $1. It takes the baseline
# path, the two tolerances, and one raw google-benchmark JSON per check
# attempt; minima are merged across attempts before comparing.
write_compare_py() {
  cat > "$1" <<'PY'
import json, os, statistics, sys

baseline_path = sys.argv[1]
tolerance, snapshot_tolerance = float(sys.argv[2]), float(sys.argv[3])
current_paths = sys.argv[4:]

def load(path):
    with open(path) as f:
        return json.load(f)

# google-benchmark reports real_time in each bench's declared time_unit.
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

def raw_rows(doc):
    # (name, real_time in ns, is-median-aggregate, raw row) per compared
    # row: the repetition entries and the median aggregates.
    for bench in doc.get("benchmarks", []):
        agg = bench.get("aggregate_name", "")
        if bench.get("run_type") == "aggregate" or agg:
            if agg != "median":
                continue
            name = bench["name"].removesuffix("_median")
        else:
            name = bench["name"]
        scale = NS_PER_UNIT[bench.get("time_unit", "ns")]
        yield name, float(bench["real_time"]) * scale, bool(agg), bench

def times(doc, v1_units):
    # Accept a qqo-bench-snapshot-v2 file (rows already in ns), a v1 file,
    # a raw google-benchmark file, and the legacy merged {"serial": ...,
    # "parallel": ...} capture (serial numbers compared). v1 snapshots
    # stored each bench's real_time unscaled under the real_time_ns key,
    # so a v1 row is read in the time_unit the fresh run reports for the
    # same bench (`v1_units`).
    if doc.get("schema") == "qqo-bench-snapshot-v2":
        return {b["name"]: float(b["real_time_ns"]) for b in doc["benchmarks"]}
    if doc.get("schema") == "qqo-bench-snapshot-v1":
        return {b["name"]: float(b["real_time_ns"]) *
                NS_PER_UNIT[v1_units.get(b["name"], "ns")]
                for b in doc["benchmarks"]}
    out = {}
    for name, t, aggregate, _ in raw_rows(doc.get("serial", doc)):
        # Best of the repetition entries (noise is one-sided); the median
        # aggregate is only a fallback for legacy aggregates-only files.
        if aggregate:
            out.setdefault(name, t)
        elif name not in out or t < out[name]:
            out[name] = t
    return out

current_docs = [load(path) for path in current_paths]
current_units = {name: bench.get("time_unit", "ns")
                 for doc in current_docs
                 for name, _, _, bench in raw_rows(doc)}
base_doc = load(baseline_path)
base = times(base_doc, current_units)
cur = {}
for doc in current_docs:
    for name, t in times(doc, current_units).items():
        if name not in cur or t < cur[name]:
            cur[name] = t
failed = False

baseline_host = base_doc.get("host")
current_host = os.environ.get("QQO_PERF_HOST")
cross_host = (baseline_host is not None and current_host is not None
              and baseline_host != current_host)
if cross_host and os.environ.get("QQO_PERF_ALLOW_CROSS_HOST") != "1":
    print(f"warning: baseline host '{baseline_host}' != current host "
          f"'{current_host}'; skipping cross-run comparison "
          f"(set QQO_PERF_ALLOW_CROSS_HOST=1 to force)")
else:
    shared = sorted(set(base) & set(cur))
    if not shared:
        sys.exit("error: no common benchmarks between baseline and current run")
    for name in shared:
        ratio = cur[name] / base[name] - 1.0
        verdict = "FAIL" if ratio > snapshot_tolerance else "ok"
        failed |= ratio > snapshot_tolerance
        print(f"{verdict:4} {name}: {base[name]:.0f} -> {cur[name]:.0f} ns "
              f"({ratio:+.2%}, tolerance {snapshot_tolerance:.0%})")

# Disarmed-observability budget: traced vs untraced kernel in THIS run,
# host-relative by construction, so it runs even when the cross-run
# comparison is skipped — and at the tight intra-run tolerance, since
# interleaved repetitions put both sides in the same windows. Each side
# is the median of all its repetitions, pooled over the attempts.
def repetitions(name):
    return [t for doc in current_docs for row, t, aggregate, _ in raw_rows(doc)
            if row == name and not aggregate]

untraced_reps = repetitions("BM_ObsDisarmedBaseline")
traced_reps = repetitions("BM_ObsDisarmedTraced")
if untraced_reps and traced_reps:
    untraced = statistics.median(untraced_reps)
    traced = statistics.median(traced_reps)
    ratio = traced / untraced - 1.0
    verdict = "FAIL" if ratio > tolerance else "ok"
    failed |= ratio > tolerance
    print(f"{verdict:4} disarmed obs overhead: {untraced:.0f} -> "
          f"{traced:.0f} ns ({ratio:+.2%}, tolerance {tolerance:.0%}; "
          f"medians of {len(untraced_reps)} and {len(traced_reps)} "
          f"interleaved repetitions)")
sys.exit(1 if failed else 0)
PY
}

if [[ "${1:-}" == "--record" ]]; then
  build_dir="${2:-build}"
  outdir="${3:-${repo_root}}"
  perf_bin="${build_dir}/bench/perf_micro"
  require_perf_bin
  sha="$(git -C "${repo_root}" rev-parse --short=9 HEAD 2>/dev/null || echo nogit)"
  if [[ "${sha}" != nogit ]] && ! git -C "${repo_root}" diff --quiet HEAD --; then
    sha="${sha}-dirty"
  fi
  date_utc="$(date -u +%Y-%m-%d)"
  out_json="${outdir}/BENCH_${date_utc}_${sha}.json"
  compiler="$(sed -n 's/^CMAKE_CXX_COMPILER:[^=]*=//p' "${build_dir}/CMakeCache.txt" 2>/dev/null | head -1)"
  compiler_version="$("${compiler:-c++}" --version 2>/dev/null | head -1 || echo unknown)"
  raw_json="$(mktemp)"
  trap 'rm -f "${raw_json}"' EXIT
  filter_args=()
  if [[ -n "${QQO_BENCH_FILTER:-}" ]]; then
    filter_args+=("--benchmark_filter=${QQO_BENCH_FILTER}")
  fi
  echo "== perf_micro --record (QQO_THREADS=1, 3 repetitions) =="
  QQO_THREADS=1 "${perf_bin}" \
    --benchmark_repetitions=3 \
    --benchmark_out="${raw_json}" --benchmark_out_format=json \
    "${filter_args[@]}"
  python3 - "${raw_json}" "${out_json}" "${date_utc}" "${sha}" \
      "${compiler_version}" "$(host_fingerprint)" <<'PY'
import json, sys

raw_path, out_path, date, sha, compiler, host = sys.argv[1:7]
with open(raw_path) as f:
    raw = json.load(f)

# Best of the repetitions: noise on a shared machine only ever adds
# time, so the minimum estimates the code's true cost most stably.
best = {}
for bench in raw.get("benchmarks", []):
    if bench.get("run_type") == "aggregate":
        continue
    name = bench["name"]
    # google-benchmark reports times in each bench's declared time_unit.
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[
        bench.get("time_unit", "ns")]
    entry = {
        "name": name,
        "real_time_ns": float(bench["real_time"]) * scale,
        "cpu_time_ns": float(bench["cpu_time"]) * scale,
        "iterations": int(bench["iterations"]),
    }
    if name not in best or entry["real_time_ns"] < best[name]["real_time_ns"]:
        best[name] = entry
benchmarks = list(best.values())
if not benchmarks:
    sys.exit("error: benchmark run produced no results")

snapshot = {
    "schema": "qqo-bench-snapshot-v2",
    "date": date,
    "sha": sha,
    "compiler": compiler,
    "host": host,
    "threads": 1,
    "benchmarks": sorted(benchmarks, key=lambda b: b["name"]),
}
with open(out_path, "w") as f:
    json.dump(snapshot, f, indent=2)
    f.write("\n")
print(f"wrote {out_path} ({len(benchmarks)} benchmarks)")
PY
  exit $?
fi

if [[ "${1:-}" == "--check" ]]; then
  baseline_json="${2:-}"
  build_dir="${3:-build}"
  # No baseline path (or a build dir in its place): compare against the
  # newest committed snapshot — by commit time, since two snapshots of one
  # day sort by their sha, not by age; the name breaks exact ties. Outside
  # a work tree there is no commit time, so the date prefix of the name
  # decides.
  if [[ -z "${baseline_json}" || -d "${baseline_json}" ]]; then
    [[ -n "${baseline_json}" ]] && build_dir="${baseline_json}"
    if git -C "${repo_root}" rev-parse --is-inside-work-tree &>/dev/null; then
      baseline_json="$(git -C "${repo_root}" ls-files 'BENCH_*.json' |
        while read -r snapshot; do
          echo "$(git -C "${repo_root}" log -1 --format=%ct -- "${snapshot}") ${snapshot}"
        done | sort -k1,1n -k2 | tail -1 | cut -d' ' -f2-)"
    else
      baseline_json="$(cd "${repo_root}" && ls BENCH_*.json 2>/dev/null |
        sort | tail -1)" || true
      echo "not a git work tree; newest snapshot by name:" \
           "${baseline_json:-none}"
    fi
    if [[ -z "${baseline_json}" ]]; then
      echo "error: no committed BENCH_*.json snapshot to check against;" >&2
      echo "  capture one with: tools/perf_baseline.sh --record" >&2
      exit 1
    fi
    baseline_json="${repo_root}/${baseline_json}"
    echo "baseline: ${baseline_json}"
  fi
  perf_bin="${build_dir}/bench/perf_micro"
  tolerance="${QQO_PERF_TOLERANCE:-0.02}"
  snapshot_tolerance="${QQO_PERF_SNAPSHOT_TOLERANCE:-0.10}"
  attempts="${QQO_PERF_CHECK_ATTEMPTS:-2}"
  hot_filter="${QQO_BENCH_FILTER:-BM_SimulatedAnnealing|BM_SaSweepDensity|BM_SaDecomposeBlock|BM_SaPackWidth|BM_SaPackRoute|BM_EmbeddedAnnealSweep|BM_StatevectorQaoa|BM_StatevectorGateLayer|BM_RaceDispatch|BM_Serve|BM_DecomposeSolve|BM_DecomposeJoinOrder}"
  require_perf_bin
  if [[ ! -r "${baseline_json}" ]]; then
    echo "error: baseline ${baseline_json} not readable" >&2
    exit 1
  fi
  tmpdir="$(mktemp -d)"
  trap 'rm -rf "${tmpdir}"' EXIT
  write_compare_py "${tmpdir}/compare.py"
  current_jsons=()
  status=1
  for ((attempt = 1; attempt <= attempts; attempt++)); do
    current_json="${tmpdir}/check_${attempt}.json"
    current_jsons+=("${current_json}")
    echo "== perf_micro --check attempt ${attempt}/${attempts}" \
         "(filter: ${hot_filter}, QQO_THREADS=1) =="
    QQO_THREADS=1 "${perf_bin}" \
      --benchmark_filter="${hot_filter}" \
      --benchmark_repetitions=3 \
      --benchmark_out="${current_json}" --benchmark_out_format=json
    obs_json="${tmpdir}/obs_${attempt}.json"
    current_jsons+=("${obs_json}")
    echo "== perf_micro disarmed-observability pair, attempt" \
         "${attempt}/${attempts} (60 interleaved repetitions) =="
    QQO_THREADS=1 "${perf_bin}" \
      --benchmark_filter='^BM_ObsDisarmed(Baseline|Traced)$' \
      --benchmark_repetitions=60 --benchmark_min_time=0.1 \
      --benchmark_enable_random_interleaving=true \
      --benchmark_display_aggregates_only=true \
      --benchmark_out="${obs_json}" --benchmark_out_format=json
    if QQO_PERF_HOST="$(host_fingerprint)" \
       python3 "${tmpdir}/compare.py" "${baseline_json}" "${tolerance}" \
         "${snapshot_tolerance}" "${current_jsons[@]}"; then
      status=0
      break
    fi
    if (( attempt < attempts )); then
      echo "-- regression flagged; re-running and merging minima" \
           "(a real regression fails every window) --"
    fi
  done
  exit "${status}"
fi

build_dir="${1:-build}"
out_json="${2:-BENCH_perf.json}"
perf_bin="${build_dir}/bench/perf_micro"
require_perf_bin

filter_args=()
if [[ -n "${QQO_BENCH_FILTER:-}" ]]; then
  filter_args+=("--benchmark_filter=${QQO_BENCH_FILTER}")
fi

serial_json="$(mktemp)"
parallel_json="$(mktemp)"
trap 'rm -f "${serial_json}" "${parallel_json}"' EXIT

echo "== perf_micro, QQO_THREADS=1 (serial baseline) =="
QQO_THREADS=1 "${perf_bin}" \
  --benchmark_out="${serial_json}" --benchmark_out_format=json \
  "${filter_args[@]}"

echo
echo "== perf_micro, default thread pool =="
"${perf_bin}" \
  --benchmark_out="${parallel_json}" --benchmark_out_format=json \
  "${filter_args[@]}"

# Merge the two runs into one file keyed by thread setting.
{
  echo '{'
  echo '  "serial":'
  sed 's/^/  /' "${serial_json}"
  echo '  ,'
  echo '  "parallel":'
  sed 's/^/  /' "${parallel_json}"
  echo '}'
} > "${out_json}"

echo
echo "wrote ${out_json}"
