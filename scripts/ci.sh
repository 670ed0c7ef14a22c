#!/usr/bin/env bash
# The CI gate. Runs every step even after a failure so a single run
# reports everything, then prints a machine-readable PASS/FAIL table
# (one `ci-step|name|status|seconds` line per step) and exits non-zero
# if any step failed.
#
# Each step's output is also captured under _ci_logs/<step>.log; when
# $GITHUB_STEP_SUMMARY is set (GitHub Actions), the same table is
# appended there as GitHub-flavored markdown, with each bench step's
# regression verdict (including the worst offender on failure) pulled
# from its log into the Note column.
set -u -o pipefail
cd "$(dirname "$0")/.."

mkdir -p _ci_logs
declare -a STEPS=() STATUSES=() TIMES=() NOTES=()

run_step() {
  local name="$1"
  shift
  local t0=$SECONDS
  echo "==> $name: $*"
  local status log="_ci_logs/$name.log"
  if "$@" 2>&1 | tee "$log"; then status=PASS; else status=FAIL; fi
  local note=""
  case "$name" in
  bench-*)
    # the bench's own verdict line: "micro: PASS no regressions ..." or
    # "micro: FAIL ... (worst <id> <factor>x)"
    note=$(grep -E ': (PASS|FAIL) ' "$log" | tail -1 || true)
    ;;
  loc)
    # the code-size total: "loc: <n> lines in lib/"
    note=$(grep -E '^loc: ' "$log" | tail -1 || true)
    ;;
  esac
  STEPS+=("$name")
  STATUSES+=("$status")
  TIMES+=("$((SECONDS - t0))")
  NOTES+=("$note")
}

# fmt is enforced wherever ocamlformat exists (CI installs the pinned
# version); a machine without it records SKIP instead of a spurious FAIL.
if command -v ocamlformat >/dev/null 2>&1; then
  run_step fmt dune build @fmt
else
  echo "==> fmt: ocamlformat not installed, skipping"
  STEPS+=(fmt)
  STATUSES+=(SKIP)
  TIMES+=(0)
  NOTES+=("")
fi

run_step loc scripts/loc.sh
run_step build dune build
run_step tier1-tests dune runtest
run_step perfbench-selftest python3 perfbench/run.py --self-test
run_step bench-micro dune exec bench/main.exe -- --only micro --fast --check-regressions
run_step bench-macro dune exec bench/main.exe -- --only macro --fast --check-regressions
run_step bench-net dune exec bench/main.exe -- --only net --fast --check-regressions
run_step bench-verify dune exec bench/main.exe -- --only verify --fast --check-regressions
run_step bench-store dune exec bench/main.exe -- --only store --fast --check-regressions
run_step tcp-smoke dune exec bin/leopard_cli.exe -- local-cluster -n 4 --load 2000 \
  --duration 3 --min-confirmed 1000 --drain 10 --metrics-out _ci_logs/tcp-smoke.prom
run_step chaos dune exec bin/leopard_cli.exe -- chaos --fast --trace-dir _chaos
# the event-free TCP scenario as a step of its own: it heals at its first
# instant, so it is the one that shows the early exit waiting past heal
run_step chaos-tcp dune exec bin/leopard_cli.exe -- chaos --plane tcp \
  --scenario overload-burst --trace-dir _chaos

echo
fail=0
for i in "${!STEPS[@]}"; do
  printf 'ci-step|%s|%s|%ss\n' "${STEPS[$i]}" "${STATUSES[$i]}" "${TIMES[$i]}"
  [ "${STATUSES[$i]}" = FAIL ] && fail=1
done

if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
  {
    echo "## CI gate"
    echo
    echo "| Step | Status | Time | Note |"
    echo "|------|--------|-----:|------|"
    for i in "${!STEPS[@]}"; do
      case "${STATUSES[$i]}" in
      PASS) icon="✅" ;;
      FAIL) icon="❌" ;;
      *) icon="⏭️" ;;
      esac
      note=${NOTES[$i]//|/\\|}
      printf '| %s | %s %s | %ss | %s |\n' \
        "${STEPS[$i]}" "$icon" "${STATUSES[$i]}" "${TIMES[$i]}" "$note"
    done
    echo
  } >>"$GITHUB_STEP_SUMMARY"
fi

exit $fail
