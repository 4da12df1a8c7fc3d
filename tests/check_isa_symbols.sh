#!/usr/bin/env bash
# Fail when a per-ISA kernel object
#  - defines a weak (W) or unique (u) global function symbol. Such a symbol
#    is an out-of-line copy of an inline or template function that other
#    translation units share; the linker keeps one copy for every caller,
#    and if it keeps the AVX2 or AVX-512 one, a CPU without that ISA dies
#    with SIGILL in code that never chose the wide path.
#  - references an undefined (U) symbol. The kernels call nothing outside
#    their own object: a libm call such as tanhf or expf would tie their
#    bits to the C library and keep the loop scalar. The hooks a
#    -DSLAPO_SANITIZE build instruments every object with are exempt.
# See docs/PERFORMANCE.md, "ISA dispatch".
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
    weak="$(awk '$2 ~ /^[Wu]$/ { print $1 }' <<< "$symbols")"
    undefined="$(awk '$2 == "U" && $1 !~ /^__(asan|tsan|ubsan)_/ { print $1 }' \
                 <<< "$symbols")"
    if [[ -n "$weak" ]]; then
        echo "FAIL: $obj defines weak or unique symbols:" >&2
        c++filt <<< "$weak" | sed 's/^/  /' >&2
        status=1
    elif [[ -n "$undefined" ]]; then
        echo "FAIL: $obj references undefined symbols:" >&2
        c++filt <<< "$undefined" | sed 's/^/  /' >&2
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
