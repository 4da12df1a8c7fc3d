#!/usr/bin/env bash
# Fail when a per-ISA kernel object defines a weak (W) or unique (u)
# global function symbol. Such a symbol is an out-of-line copy of an
# inline or template function that other translation units share; the linker keeps
# one copy for every caller, and if it keeps the AVX2 or AVX-512 one, a
# CPU without that ISA dies with SIGILL in code that never chose the wide
# path (docs/PERFORMANCE.md, "ISA dispatch").
#
# Usage: tests/check_isa_symbols.sh OBJECT...
set -euo pipefail

if [[ $# -eq 0 ]]; then
    echo "usage: $0 OBJECT..." >&2
    exit 2
fi

status=0
for obj in "$@"; do
    symbols="$(nm -P "$obj")"
    bad="$(awk '$2 ~ /^[Wu]$/ { print $1 }' <<< "$symbols")"
    if [[ -n "$bad" ]]; then
        echo "FAIL: $obj defines weak or unique symbols:" >&2
        c++filt <<< "$bad" | sed 's/^/  /' >&2
        status=1
    elif ! awk '$2 ~ /^[DR]$/ { print $1 }' <<< "$symbols" | grep -q 'TableE$'; then
        # Guards against checking the wrong file and passing vacuously.
        echo "FAIL: $obj defines no kernel table" >&2
        status=1
    else
        echo "ok: $obj"
    fi
done
exit $status
