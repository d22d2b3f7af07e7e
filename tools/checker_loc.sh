#!/bin/sh
# The size and layering rules for crates/checker/src (ROADMAP item 3) and
# for the harness layer the systems plug into it through, over each
# file's code above its first `#[cfg(test)]`.
#
# Size: code lines are the non-blank, non-`//` ones. Prints the per-file
# tables and fails when a checker file exceeds the cap.
#
# Layering: the event stream's format lives in telemetry.rs. Outside the
# modules that own a JSON format (telemetry, campaign, profile, timeline,
# json), no code may name `serde_json`, `json!` or a stream record type.
#
# One lifecycle: the crash -> recovery lifecycle is the checker's
# (exec.rs). A system crate implements `System` and returns its workload
# as a `Script`; it may not grow an `Execution`-style trait impl or the
# hand-copied `let w2 = w.clone()` thread boilerplate again.
set -eu
cap=900
owners='telemetry.rs campaign.rs profile.rs timeline.rs json.rs'
records='"run_start"|"pass_start"|"pass_end"|"exec_done"|"counterexample"|"run_end"'
harness_layer='crates/checker/src/harness.rs
crates/kvstore/src/harness.rs crates/repldisk/src/harness.rs crates/mailboat/src/harness.rs
crates/patterns/src/lib.rs crates/patterns/src/shadow.rs crates/patterns/src/wal.rs
crates/patterns/src/txn_wal.rs crates/patterns/src/group_commit.rs crates/patterns/src/synced_log.rs'
system_crates='crates/kvstore/src crates/repldisk/src crates/mailboat/src crates/patterns/src'
cd "$(dirname "$0")/.."
failed=0

# The code lines of file $1, each prefixed with its line number.
code() {
    awk '/^#\[cfg\(test\)\]/{t=1} !t && !/^[ \t]*$/ && !/^[ \t]*\/\//{print FNR": "$0}' "$1"
}

total=0
for path in crates/checker/src/*.rs; do
    f=$(basename "$path")
    code=$(code "$path")
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

echo
echo "harness layer:"
total=0
for path in $harness_layer; do
    n=$(code "$path" | grep -c '' || true)
    printf '%6d  %s\n' "$n" "$path"
    total=$((total + n))
done
printf '%6d  total\n' "$total"
# shellcheck disable=SC2086
if copies=$(grep -rnE 'impl.* Execution<|let w2 = w\.clone\(\)' $system_crates); then
    failed=1
    echo "        ^ a system crate re-implements the lifecycle; that is exec.rs's business:"
    printf '%s\n' "$copies" | sed 's/^/          /'
fi
exit "$failed"
