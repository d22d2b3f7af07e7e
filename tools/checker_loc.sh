#!/bin/sh
# The size and layering rules for crates/checker/src (ROADMAP item 3),
# over each file's code above its first `#[cfg(test)]`.
#
# Size: code lines are the non-blank, non-`//` ones. Prints the per-file
# table and fails when a file exceeds the cap.
#
# Layering: the event stream's format lives in telemetry.rs. Outside the
# modules that own a JSON format (telemetry, campaign, profile, timeline,
# json), no code may name `serde_json`, `json!` or a stream record type.
set -eu
cap=900
owners='telemetry.rs campaign.rs profile.rs timeline.rs json.rs'
records='"run_start"|"pass_start"|"pass_end"|"exec_done"|"counterexample"|"run_end"'
cd "$(dirname "$0")/../crates/checker/src"
total=0
failed=0
for f in *.rs; do
    code=$(awk '/^#\[cfg\(test\)\]/{t=1} !t && !/^[ \t]*$/ && !/^[ \t]*\/\//{print FNR": "$0}' "$f")
    n=$(printf '%s' "$code" | grep -c '' || true)
    printf '%6d  %s\n' "$n" "$f"
    total=$((total + n))
    if [ "$n" -gt "$cap" ]; then
        failed=1
        echo "        ^ over the $cap-line cap: split it"
    fi
    case " $owners " in *" $f "*) continue ;; esac
    if leaks=$(printf '%s\n' "$code" | grep -E "serde_json|json!|$records"); then
        failed=1
        echo "        ^ names the stream's format; that is telemetry.rs's business:"
        printf '%s\n' "$leaks" | sed 's/^/          /'
    fi
done
printf '%6d  total\n' "$total"
exit "$failed"
