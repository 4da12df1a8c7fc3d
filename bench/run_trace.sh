#!/usr/bin/env bash
# Trace smoke test: run a short traced + profiled training loop
# (examples/profiled_training) and verify the emitted trace.json is
# valid Chrome-trace JSON. Then run it again with step reports and the
# SLAPO_OP_PROFILE profiler on: every consumer must see the same rows
# (the printed table's (op, module, primitive, count) rows equal the
# first run's, the SLAPO_OP_PROFILE JSON holds them too, and the step
# reports' op counts sum to the table's total). Registered as the
# `trace_smoke` ctest.
#
# Usage: bench/run_trace.sh [build-dir]   (default: build)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="$(cd "${1:-$repo_root/build}" && pwd)"
example_bin="$build_dir/examples/profiled_training"

if [[ ! -x "$example_bin" ]]; then
    echo "error: $example_bin not built; run:" >&2
    echo "  cmake -B \"$build_dir\" -S \"$repo_root\" && cmake --build \"$build_dir\" -j" >&2
    exit 1
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

mkdir "$workdir/plain" "$workdir/consumers"
(cd "$workdir/plain" && "$example_bin" > table.txt)
(cd "$workdir/consumers" &&
    SLAPO_STEP_REPORT="$workdir/consumers/reports.jsonl" \
    SLAPO_OP_PROFILE="$workdir/consumers/op_profile.json" \
    "$example_bin" > table.txt)

trace="$workdir/plain/trace.json"
if [[ ! -s "$trace" ]]; then
    echo "error: $trace missing or empty" >&2
    exit 1
fi

# Well-formed JSON per the standard library parser, and structurally a
# Chrome trace: a traceEvents array with at least one complete span.
python3 -m json.tool "$trace" > /dev/null
python3 - "$trace" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert isinstance(events, list) and events, "no traceEvents"
phases = {e.get("ph") for e in events}
assert "X" in phases, f"no complete spans, phases seen: {phases}"
assert "M" in phases, f"no metadata rows, phases seen: {phases}"
names = {e.get("name") for e in events}
assert "trainer.step" in names, "trainer.step span missing"
print(f"trace OK: {len(events)} events, phases {sorted(p for p in phases if p)}")
PY

python3 - "$workdir" <<'PY'
import json, sys
work = sys.argv[1]

def table_rows(path):
    """(op, module, primitive) -> count from the example's printed table."""
    rows, inside = {}, False
    for line in open(path):
        if line.startswith("per-op profile"):
            inside = True
        elif inside and line.startswith("total:"):
            return rows
        elif inside and not line.startswith("op "):
            op, module, primitive, count = line.split()[:4]
            rows[(op, "" if module == "(root)" else module,
                  "" if primitive == "-" else primitive)] = int(count)
    raise AssertionError(f"no profile table in {path}")

plain = table_rows(f"{work}/plain/table.txt")
assert plain, "the plain run's table has no rows"
user = table_rows(f"{work}/consumers/table.txt")
assert user == plain, (f"user table changed with step reports and "
                       f"SLAPO_OP_PROFILE on: {len(user)} vs {len(plain)} rows")
with open(f"{work}/consumers/op_profile.json") as f:
    env = {(r["op"], r["module"], r["primitive"]): r["count"]
           for r in json.load(f)}
assert env == plain, (f"SLAPO_OP_PROFILE rows differ: {len(env)} vs "
                      f"{len(plain)} rows")
total = sum(plain.values())
reported = 0
with open(f"{work}/consumers/reports.jsonl") as f:
    for line in f:
        reported += sum(op["count"] for op in json.loads(line)["ops"])
assert reported == total, f"step reports count {reported}, table {total}"
print(f"consumers OK: {len(plain)} rows, {total} executions in the table, "
      f"the SLAPO_OP_PROFILE file and the step reports")
PY

echo "trace smoke test passed"
