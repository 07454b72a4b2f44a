#!/usr/bin/env bash
# Perf-regression gate over the self-benchmark (bench_selfperf). Compares a
# freshly produced BENCH JSON against the committed baseline.
#
#   tools/check_selfperf.sh <fresh.json> [baseline.json] [--strict]
#
# Checks, per scenario row:
#  - sim_cycles must match the baseline exactly. They are deterministic, so
#    a diff means engine *behavior* changed - fine for a correctness PR,
#    but the baseline must be regenerated in the same PR
#    (build/bench_selfperf --json=BENCH_selfperf.json). Under --strict a
#    cycle diff (or a scenario-set mismatch) fails the build: determinism
#    drift must never land silently.
#  - mcycles_per_sec more than TOLERANCE (default 30) percent below the
#    baseline is flagged as a possible slowdown. Speed stays a soft warning
#    even under --strict: wall-clock numbers on shared CI runners are too
#    noisy for a hard gate (docs/performance.md).
#  - peak_rss_kb more than 10 percent above the baseline is flagged as
#    possible memory growth. This is a soft warning too: allocators and
#    standard libraries differ between compilers, and one baseline serves
#    every CI compiler.
set -u

fresh="${1:?usage: check_selfperf.sh <fresh.json> [baseline.json] [--strict]}"
baseline="${2:-BENCH_selfperf.json}"
strict=0
for arg in "$@"; do
  [ "$arg" = "--strict" ] && strict=1
done
tolerance="${TOLERANCE:-30}"

if [ ! -f "$fresh" ]; then
  echo "check_selfperf: fresh results '$fresh' not found" >&2
  exit 1
fi
if [ ! -f "$baseline" ]; then
  echo "check_selfperf: baseline '$baseline' not found" >&2
  exit 1
fi

# The python pass prefixes determinism problems (cycle drift, scenario-set
# mismatch) with "HARD " and speed or memory regressions with "soft ";
# --strict fails only on the former.
warnings=$(python3 - "$fresh" "$baseline" "$tolerance" <<'EOF'
import json, sys

fresh_path, base_path, tol = sys.argv[1], sys.argv[2], float(sys.argv[3])
fresh = {r["scenario"]: r for r in json.load(open(fresh_path))}
base = {r["scenario"]: r for r in json.load(open(base_path))}

for name, b in base.items():
    f = fresh.get(name)
    if f is None:
        print(f"HARD scenario '{name}' is in the baseline but missing from "
              f"the fresh run")
        continue
    if f["sim_cycles"] != b["sim_cycles"]:
        print(f"HARD {name}: sim_cycles {f['sim_cycles']} != baseline "
              f"{b['sim_cycles']} - engine behavior changed; regenerate "
              f"BENCH_selfperf.json in this PR")
    if b["mcycles_per_sec"] > 0:
        drop = 100.0 * (1.0 - f["mcycles_per_sec"] / b["mcycles_per_sec"])
        if drop > tol:
            print(f"soft {name}: {f['mcycles_per_sec']:.2f} Mcyc/s is "
                  f"{drop:.0f}% below the baseline "
                  f"{b['mcycles_per_sec']:.2f} (tolerance {tol:.0f}%)")
    if b.get("peak_rss_kb", 0) > 0 and "peak_rss_kb" in f:
        growth = 100.0 * (f["peak_rss_kb"] / b["peak_rss_kb"] - 1.0)
        if growth > 10:
            print(f"soft {name}: peak RSS {f['peak_rss_kb']} kB is "
                  f"{growth:.0f}% above the baseline {b['peak_rss_kb']} kB "
                  f"(tolerance 10%)")
for name in fresh:
    if name not in base:
        print(f"HARD new scenario '{name}' has no baseline row - regenerate "
              f"BENCH_selfperf.json")
EOF
)

if [ -n "$warnings" ]; then
  echo "check_selfperf: WARNINGS vs $baseline"
  echo "$warnings" | sed 's/^/  /'
  if [ "$strict" = 1 ] && echo "$warnings" | grep -q '^HARD '; then
    echo "  (--strict: failing on determinism drift)"
    exit 1
  fi
  echo "  (soft gate: not failing the build)"
else
  echo "check_selfperf: $fresh matches $baseline (tolerance ${tolerance}%)"
fi
exit 0
