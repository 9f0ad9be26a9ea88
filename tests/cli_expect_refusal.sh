#!/usr/bin/env bash
# Usage: cli_expect_refusal.sh MESSAGE COMMAND [ARGS...]
#
# Passes when COMMAND exits with status 2 and prints MESSAGE (a fixed
# string) on stderr, and no uncaught exception ended it: no
# "terminate called" line.
set -u
msg=$1
shift
err=$("$@" 2>&1 >/dev/null)
code=$?
printf '%s\n' "$err"
if [ "$code" -ne 2 ]; then
    echo "exit status $code, expected 2"
    exit 1
fi
if grep -q 'terminate called' <<<"$err"; then
    echo "ended by an uncaught exception"
    exit 1
fi
if ! grep -qF -- "$msg" <<<"$err"; then
    echo "missing message: $msg"
    exit 1
fi
