#!/usr/bin/env bash
# CI entry point: strict build, full test suite, chaos determinism,
# translation-validation soundness (verify suites + bench_equivalence
# thread-determinism), static resource analysis (resources suites +
# bench_qec_resources thread-determinism), serving determinism (serve
# suites + bench_serving thread-determinism), request-lifecycle
# determinism (lifecycle suites + a chaos-armed bench_serving run whose
# schema-7 deadline/cancellation/breaker sections must be bit-identical
# across thread counts), golden-output compares (the --threads 1
# reports against bench/golden, plus trace-on vs trace-off), clang-tidy,
# then the heavy stages — a fail-points-off build (the fault-injection
# macros must compile away cleanly) and two sanitizer builds: ASan+UBSan over the language
# front-end tests (the part that chews model-corrupted input all day
# and so is the most UB-prone) plus the fail-point/harness/serve/
# lifecycle suites, and TSan over the thread-pool / parallel evaluation
# / resilience / serving tests (the part that actually runs concurrent
# code, now including the async request engine and its breakers).
#
# Tool preflight: the stages assume ccache (build caching) and
# clang-tidy (stage 9). A missing tool fails fast with an install hint
# instead of silently degrading CI coverage; pass --allow-missing-tools
# to downgrade that to a recorded skip (developer machines). Every
# skipped stage is listed in a summary at the end.
#
# Usage: scripts/check.sh [--quick] [--allow-missing-tools]
#   --quick               skip the heavy stages (developer inner loop)
#   --skip-sanitizers     legacy alias for --quick
#   --allow-missing-tools record-and-skip stages whose tool is absent
#                         instead of failing the preflight

set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_SAN=0
ALLOW_MISSING=0
for arg in "$@"; do
  case "$arg" in
    --quick|--skip-sanitizers) SKIP_SAN=1 ;;
    --allow-missing-tools) ALLOW_MISSING=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

# Stages skipped in this run, with reasons; printed as a summary at the
# end so a green run with silent gaps cannot masquerade as full coverage.
SKIPPED=()
skip_stage() {
  SKIPPED+=("$1: $2")
  echo "    SKIPPED: $2"
}

print_summary() {
  echo "==> stage-skip summary"
  if [[ ${#SKIPPED[@]} -eq 0 ]]; then
    echo "    none — every stage ran"
  else
    for entry in "${SKIPPED[@]}"; do
      echo "    - $entry"
    done
  fi
}

# --- tool preflight ---------------------------------------------------------
# Hard requirements first: nothing works without these.
for tool in cmake ctest python3; do
  if ! command -v "$tool" >/dev/null 2>&1; then
    echo "check.sh: required tool '$tool' not found on PATH" >&2
    exit 2
  fi
done
# Soft requirements: fail fast by default so CI never silently loses a
# stage; --allow-missing-tools records the skip instead.
HAVE_CCACHE=1
HAVE_TIDY=1
for tool in ccache clang-tidy; do
  if ! command -v "$tool" >/dev/null 2>&1; then
    if [[ "$ALLOW_MISSING" == "1" ]]; then
      [[ "$tool" == ccache ]] && HAVE_CCACHE=0 || HAVE_TIDY=0
      echo "check.sh: '$tool' not found; continuing (--allow-missing-tools)"
    else
      echo "check.sh: '$tool' not found on PATH." >&2
      echo "  Install it (apt-get install $tool) or re-run with" >&2
      echo "  --allow-missing-tools to record-and-skip its stage." >&2
      exit 2
    fi
  fi
done

# ccache is a build accelerator, not a stage: wire it up when present,
# record its absence so slow CI builds are explainable from the log.
LAUNCHER_ARGS=()
if [[ "$HAVE_CCACHE" == "1" ]]; then
  LAUNCHER_ARGS+=("-DCMAKE_C_COMPILER_LAUNCHER=ccache"
                  "-DCMAKE_CXX_COMPILER_LAUNCHER=ccache")
else
  SKIPPED+=("ccache: not installed; builds run uncached")
fi

echo "==> [1/12] strict build (warnings as errors)"
cmake -B build-check -S . -DQCGEN_WARNINGS_AS_ERRORS=ON \
  -DCMAKE_EXPORT_COMPILE_COMMANDS=ON "${LAUNCHER_ARGS[@]}" >/dev/null
cmake --build build-check -j "$JOBS"

echo "==> [2/12] full test suite"
ctest --test-dir build-check --output-on-failure -j "$JOBS"

echo "==> [3/12] chaos determinism (bench_chaos --quick, threads 1 vs 8)"
# The fault-injection sweep must be bit-identical at any thread count
# for a fixed (seed, samples, scenario) — including the schema-3
# trial_failures/degradations sections, which --compare keeps.
./build-check/bench/bench_chaos --quick --seed 7 --threads 1 \
  --json build-check/BENCH_chaos_t1.json >/dev/null
./build-check/bench/bench_chaos --quick --seed 7 --threads 8 \
  --json build-check/BENCH_chaos_t8.json >/dev/null
scripts/validate_bench_json.py \
  build-check/BENCH_chaos_t1.json build-check/BENCH_chaos_t8.json
scripts/validate_bench_json.py --compare \
  build-check/BENCH_chaos_t1.json build-check/BENCH_chaos_t8.json

echo "==> [4/12] translation validation (verify suites + bench_equivalence)"
# Every equivalence verdict is cross-checked against exact simulation;
# bench_equivalence exits non-zero on any false proved-equal /
# proved-different or a fix-it prove rate below 0.95, and its JSON
# artifact must be identical at any thread count (modulo timing).
ctest --test-dir build-check --output-on-failure -L verify
./build-check/bench/bench_equivalence --samples 1 --threads 1 \
  --json build-check/BENCH_equivalence_t1.json >/dev/null
./build-check/bench/bench_equivalence --samples 1 --threads 8 \
  --json build-check/BENCH_equivalence_t8.json >/dev/null
scripts/validate_bench_json.py \
  build-check/BENCH_equivalence_t1.json \
  build-check/BENCH_equivalence_t8.json
scripts/validate_bench_json.py --compare \
  build-check/BENCH_equivalence_t1.json \
  build-check/BENCH_equivalence_t8.json

echo "==> [5/12] static resource analysis (resources suites + bench_qec_resources)"
# The cost-lattice engine and its QEC ResourcePlan consumer: exact
# enumeration cross-checks, the certified qubit-reuse fix-it gate, and
# the schema-4 resource sweep, bit-identical at any thread count.
ctest --test-dir build-check --output-on-failure -L resources
./build-check/bench/bench_qec_resources --samples 1 --threads 1 \
  --json build-check/BENCH_qec_resources_t1.json >/dev/null
./build-check/bench/bench_qec_resources --samples 1 --threads 8 \
  --json build-check/BENCH_qec_resources_t8.json >/dev/null
scripts/validate_bench_json.py \
  build-check/BENCH_qec_resources_t1.json \
  build-check/BENCH_qec_resources_t8.json
scripts/validate_bench_json.py --compare \
  build-check/BENCH_qec_resources_t1.json \
  build-check/BENCH_qec_resources_t8.json

echo "==> [6/12] serving + cache determinism (serve/cache suites + bench_serving)"
# The async request engine and the content-addressed caching layer:
# admission decisions, shed/degradation events, virtual-time latency
# quantiles and the per-layer cache counters/policy-replay stats (the
# schema-6 "serving" + "cache" sections) must be bit-identical at any
# worker thread count; wall-clock latency and cache speedup live under
# "timing", which --compare strips.
ctest --test-dir build-check --output-on-failure -L serve
ctest --test-dir build-check --output-on-failure -L cache
./build-check/bench/bench_serving --quick --seed 7 --threads 1 \
  --json build-check/BENCH_serving_t1.json >/dev/null
./build-check/bench/bench_serving --quick --seed 7 --threads 8 \
  --json build-check/BENCH_serving_t8.json >/dev/null
scripts/validate_bench_json.py \
  build-check/BENCH_serving_t1.json build-check/BENCH_serving_t8.json
scripts/validate_bench_json.py --compare \
  build-check/BENCH_serving_t1.json build-check/BENCH_serving_t8.json

echo "==> [7/12] request lifecycle (lifecycle suites + chaos-armed bench_serving)"
# Deadline propagation, cooperative cancellation and per-site circuit
# breakers: the lifecycle suites replay the breaker state machine at
# several thread counts, and a bench_serving run with sustained faults
# armed bench-wide must (a) satisfy the schema-7 validator — outcome
# conservation, legal breaker transition chains — and (b) stay
# bit-identical between 1 and 8 workers. --scenario also skips the
# cache study, covering the validator's cache-optional branch.
ctest --test-dir build-check --output-on-failure -L lifecycle
./build-check/bench/bench_serving --quick --seed 7 --threads 1 \
  --scenario "qec.decode=error(1.0);retrieval.query=error(0.7)" \
  --json build-check/BENCH_lifecycle_t1.json >/dev/null
./build-check/bench/bench_serving --quick --seed 7 --threads 8 \
  --scenario "qec.decode=error(1.0);retrieval.query=error(0.7)" \
  --json build-check/BENCH_lifecycle_t8.json >/dev/null
scripts/validate_bench_json.py \
  build-check/BENCH_lifecycle_t1.json build-check/BENCH_lifecycle_t8.json
scripts/validate_bench_json.py --compare \
  build-check/BENCH_lifecycle_t1.json build-check/BENCH_lifecycle_t8.json

echo "==> [8/12] golden outputs (bench/golden, captured before the refactors)"
# The --threads 1 reports of stages [3], [5], [6] and [7], of Fig 4 and
# the topology ablation, and of a traced bench_fig3_techniques run must
# match the committed goldens outside
# "timing": a refactor that changes results identically at every thread
# count passes the t1-vs-t8 compares but not these. A PR that means to
# change behaviour re-freezes the affected golden and says so in
# CHANGES.md. The last compare is trace-on vs trace-off: with its
# "trace" section dropped, the traced report must equal the untraced one.
scripts/validate_bench_json.py --compare \
  bench/golden/BENCH_chaos.json build-check/BENCH_chaos_t1.json
scripts/validate_bench_json.py --compare \
  bench/golden/BENCH_serving.json build-check/BENCH_serving_t1.json
scripts/validate_bench_json.py --compare \
  bench/golden/BENCH_serving_chaos.json build-check/BENCH_lifecycle_t1.json
scripts/validate_bench_json.py --compare \
  bench/golden/BENCH_qec_resources.json build-check/BENCH_qec_resources_t1.json
# The QEC benches: Fig 4's effective-noise resimulation and the topology
# ablation, whose numbers come from the QEC agent's lifetime estimate.
./build-check/bench/bench_fig4_qec_dj --quick --threads 1 \
  --json build-check/BENCH_fig4_qec_dj_t1.json >/dev/null
scripts/validate_bench_json.py --compare \
  bench/golden/BENCH_fig4_qec_dj.json build-check/BENCH_fig4_qec_dj_t1.json
./build-check/bench/bench_ablation_topology --quick --threads 1 \
  --json build-check/BENCH_ablation_topology_t1.json >/dev/null
scripts/validate_bench_json.py --compare \
  bench/golden/BENCH_ablation_topology.json \
  build-check/BENCH_ablation_topology_t1.json
./build-check/bench/bench_fig3_techniques --quick --threads 1 \
  --json build-check/BENCH_fig3_traced.json \
  --trace build-check/TRACE_fig3.json >/dev/null
./build-check/bench/bench_fig3_techniques --quick --threads 1 \
  --json build-check/BENCH_fig3_untraced.json >/dev/null
scripts/validate_bench_json.py --compare \
  bench/golden/BENCH_fig3_techniques_trace.json \
  build-check/BENCH_fig3_traced.json
python3 -c 'import json, sys; d = json.load(open(sys.argv[1]));
d.pop("trace"); json.dump(d, open(sys.argv[2], "w"))' \
  build-check/BENCH_fig3_traced.json build-check/BENCH_fig3_no_trace_section.json
scripts/validate_bench_json.py --compare \
  build-check/BENCH_fig3_no_trace_section.json build-check/BENCH_fig3_untraced.json

echo "==> [9/12] clang-tidy (.clang-tidy profile)"
if [[ "$HAVE_TIDY" == "1" ]]; then
  # Project sources only; third-party and generated code stay out via
  # the explicit file list (compile_commands.json covers everything).
  mapfile -t TIDY_SOURCES < <(find src bench -name '*.cpp' | sort)
  clang-tidy -p build-check --quiet "${TIDY_SOURCES[@]}"
else
  skip_stage "[9/12] clang-tidy" "clang-tidy not installed (profile: .clang-tidy)"
fi

if [[ "$SKIP_SAN" == "1" ]]; then
  skip_stage "[10/12] fail-points-off build" "--quick"
  skip_stage "[11/12] ASan+UBSan" "--quick"
  skip_stage "[12/12] TSan" "--quick"
  print_summary
  echo "==> all checks passed (quick)"
  exit 0
fi

echo "==> [10/12] fail-points-off build (-DQCGEN_FAILPOINTS=OFF)"
# check()/trip() compile to inline no-op stubs; the dormant paths and
# their tests must build and pass without the injection machinery, and
# the RequestContext injector field (test_run_unit binds it) must still
# build.
cmake -B build-nofp -S . -DQCGEN_FAILPOINTS=OFF \
  -DQCGEN_BUILD_BENCH=OFF -DQCGEN_BUILD_EXAMPLES=OFF \
  "${LAUNCHER_ARGS[@]}" >/dev/null
cmake --build build-nofp -j "$JOBS"
ctest --test-dir build-nofp --output-on-failure -j "$JOBS" \
  -R 'test_failpoint|test_resilience|test_parallel_eval|test_serve|test_lifecycle|test_run_unit|test_degradation'

echo "==> [11/12] ASan+UBSan build, qasm/lint/qec/fuzz/chaos/resilience/serve/lifecycle/retrieval/run-unit/degradation/qec-estimate tests"
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DQCGEN_SANITIZE="address;undefined" \
  -DQCGEN_BUILD_BENCH=OFF -DQCGEN_BUILD_EXAMPLES=OFF \
  "${LAUNCHER_ARGS[@]}" >/dev/null
cmake --build build-asan -j "$JOBS"
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
    -R 'test_qasm_lexer|test_qasm_parser|test_qasm_analyzer|test_qasm_lint|test_qasm_roundtrip|test_resource_analysis|test_qec_resources|test_decoders|test_qec_logical|test_verify|test_verify_fuzz|test_fuzz_robustness|test_openqasm|test_failpoint|test_resilience|test_bench_harness|test_cache|test_serve|test_lifecycle|test_llm_retrieval|test_run_unit|test_degradation|test_qec_estimate'

echo "==> [12/12] TSan build, thread-pool / trace / parallel-eval / chaos / cache / serve / lifecycle / retrieval / run-unit / degradation / qec-estimate tests"
cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DQCGEN_SANITIZE=thread \
  -DQCGEN_BUILD_BENCH=OFF -DQCGEN_BUILD_EXAMPLES=OFF \
  "${LAUNCHER_ARGS[@]}" >/dev/null
cmake --build build-tsan -j "$JOBS"
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
    -R 'test_thread_pool|test_trace|test_parallel_eval|test_failpoint|test_resilience|test_cache|test_serve|test_lifecycle|test_llm_retrieval|test_run_unit|test_degradation|test_qec_estimate'

print_summary
echo "==> all checks passed"
