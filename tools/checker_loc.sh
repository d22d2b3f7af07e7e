#!/bin/sh
# The size rule for crates/checker/src (ROADMAP item 3): code lines are
# non-blank, non-`//` lines above a file's first `#[cfg(test)]`. Prints the
# per-file table and fails when a file exceeds the cap.
set -eu
cap=900
cd "$(dirname "$0")/../crates/checker/src"
total=0
over=0
for f in *.rs; do
    n=$(awk '/^#\[cfg\(test\)\]/{t=1} !t && !/^[ \t]*$/ && !/^[ \t]*\/\//{c++} END{print c+0}' "$f")
    printf '%6d  %s\n' "$n" "$f"
    total=$((total + n))
    if [ "$n" -gt "$cap" ]; then
        over=1
        echo "        ^ over the $cap-line cap: split it"
    fi
done
printf '%6d  total\n' "$total"
exit "$over"
