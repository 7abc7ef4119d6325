#!/bin/sh
# Run a command twice and fail unless the two stdouts are byte-identical.
#
# Every seeded smoke in CI has the same shape: a serve (or campaign)
# must be a pure function of its inputs, so running it twice and
# diffing is the whole check.  This script is that shape, once.
#
# Usage: seeded_diff.sh [-p PREP] <command> [args...]
#   -p PREP   shell fragment run before EACH of the two runs — e.g.
#             'rm -rf spills' so both runs start from a cold spill
#             directory instead of the second restoring the first's
#             files (which would legitimately diverge).
#
# The first run's output is echoed on success so the calling step can
# grep it (capture with `> out.txt` as usual).
set -eu
prep=""
if [ "${1:-}" = "-p" ]; then
  prep="$2"
  shift 2
fi
out_a=$(mktemp)
out_b=$(mktemp)
trap 'rm -f "$out_a" "$out_b"' EXIT
sh -ec "$prep" >&2
"$@" > "$out_a"
sh -ec "$prep" >&2
"$@" > "$out_b"
diff "$out_a" "$out_b" >&2
cat "$out_a"
