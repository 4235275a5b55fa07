#!/usr/bin/env bash
# Runs a `cargo test` command and fails unless at least one test ran.
# A name filter that matches nothing makes cargo exit 0 with "0 passed",
# which would let a renamed or misspelled test silently drop out of CI.
#
# Usage: .github/scripts/nonempty-test.sh cargo test -q -p owl-gpu --lib oracle
set -o pipefail
log=$(mktemp)
trap 'rm -f "$log"' EXIT
"$@" 2>&1 | tee "$log" || exit
if ! grep -Eq 'test result: ok\. [1-9][0-9]* passed' "$log"; then
  echo "'$*' ran no test" >&2
  exit 1
fi
