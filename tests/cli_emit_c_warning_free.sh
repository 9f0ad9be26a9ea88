#!/usr/bin/env bash
# Usage: cli_emit_c_warning_free.sh POLYFUSE
#
# Passes when every translation unit `POLYFUSE --emit c` prints for
# interp and conv2d at their default sizes, and for the six image
# pipelines at 1088x1920, is warning-free C under
# `cc -Wall -Wextra -Werror` (the native tier compiles it without
# -Werror, so only this gate would notice).
set -u -o pipefail
polyfuse=$1
status=0
check() {
    if ! "$polyfuse" "$@" --strategy ours --emit c |
        cc -O2 -Wall -Wextra -Werror -fsyntax-only -x c -; then
        echo "not warning-free: $*"
        status=1
    fi
}
check --workload interp
check --workload conv2d
for w in bilateral camera harris laplacian interp unsharp; do
    check --workload "$w" --rows 1088 --cols 1920
done
exit $status
