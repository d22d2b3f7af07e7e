#!/bin/sh
# The size and layering rules for crates/checker/src (ROADMAP item 3),
# for the harness layer the systems plug into it through, and for the
# trusted base crates/core/src, over each file's code above its first
# `#[cfg(test)]`.
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
#
# One guard per rule: crates/core/src is the trusted base (ROADMAP item
# 9 mutates it rule by rule), so each rule of the ghost discipline is
# stated once. A `GhostError` variant that carries no `msg` is one rule
# and may be constructed at one site; a variant with a `msg` is one rule
# per text, and no text may appear twice. error.rs defines and renders
# the variants and constructs none, so it is not searched. Turning a
# spec `Outcome` into an error is `Transition::step`'s job alone.
#
# One fingerprint, one rendering: an execution's `trace_fp` is FNV-1a
# over its rendered ghost trace, kept by `perennial::Trace` as events
# arrive. So the FNV-1a prime is written in one file under crates/
# (core/src/trace.rs; everything else hashes through `perennial::Fnv1a`),
# and exec.rs renders a ghost trace at one site (a failing execution's
# or a re-run's; never to fingerprint it).
#
# One owner per execution: the runtime, the pilot, the ghost engine and
# the models built over a runtime are reached from one OS thread, so
# their state sits in the shim's owner-checked cell, not behind a lock.
# The files that hold them may not import `parking_lot::Mutex` again (a
# type real OS threads share spells its lock out in full, where it is
# declared: `NativeDisk`, `NativeTwoDisks`). And `unsafe` is written in
# three modules only: the context switch, that cell, and the counting
# allocator `scale` and tests/alloc_budget.rs measure allocations with.
#
# Dependency tracking without the garbage: a DPOR execution's runnable
# sets and footprints are appended in place to its `DepTrace`'s flat
# rows. So exec.rs (the pilot) copies no runnable set (`to_vec()`), takes
# no footprint vector of its own (`take_step_accesses`), and appends to
# the trace at one `push_runnable` and one `push_footprint` site; and
# strategy.rs holds no footprint by value: `Vec<StepAccess>` appears in
# its code only as the `&mut` buffer a footprint is appended to (a sleep
# entry shares its footprint through an `Arc<[StepAccess]>`).
#
# One table per report record: `CheckReport`'s counters and the per-pass
# counters are each one table in campaign.rs (`REPORT_COUNTERS`,
# `PASS_COUNTERS`: wire key, shard fold, field), and the report codec,
# `merge_reports`, `run_end`'s writer and reader and the dashboard all go
# through them. So in campaign.rs, telemetry.rs and dashboard.rs a
# counter's wire key is a string literal at one site per table that lists
# it: its row. Not searched: the code of other records that use the same
# key names (`exec_done`, `counterexample`, `run_start` and its env
# stamp) and the `VOLATILE_KEYS`/`TIMING_KEYS` lists. And dashboard.rs
# spells no key of the `run_end` record (the list pinned by telemetry.rs's
# key-set test): it reads the typed record.
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

echo
echo "trusted base (crates/core/src):"
engine_cap=600
total=0
base_code=""
for path in crates/core/src/*.rs; do
    code=$(code "$path" | sed "s|^|$path:|")
    n=$(printf '%s' "$code" | grep -c '' || true)
    printf '%6d  %s\n' "$n" "$(basename "$path")"
    total=$((total + n))
    if [ "$path" = crates/core/src/engine.rs ] && [ "$n" -gt "$engine_cap" ]; then
        failed=1
        echo "        ^ over the $engine_cap-line cap: a rule is being stated twice"
    fi
    [ "$path" = crates/core/src/error.rs ] || base_code="$base_code$code
"
done
printf '%6d  total\n' "$total"
# The variants of `GhostError` that have no `msg` field.
plain=$(awk '/^pub enum GhostError/{e=1; next} e && /^}/{e=0}
    e && /^    [A-Z][A-Za-z]* \{/{if (v != "" && !m) print v; v=$1; m=0}
    e && /^        msg:/{m=1}
    END{if (v != "" && !m) print v}' crates/core/src/error.rs)
for v in $plain; do
    sites=$(printf '%s' "$base_code" | grep "GhostError::$v\b" || true)
    if [ "$(printf '%s' "$sites" | grep -c '')" -gt 1 ]; then
        failed=1
        echo "        ^ GhostError::$v is constructed at more than one site:"
        printf '%s\n' "$sites" | sed 's/^/          /'
    fi
done
if twice=$(printf '%s' "$base_code" | grep -o '"[^"]* [^"]*"' | sort | uniq -d | grep .); then
    failed=1
    echo "        ^ the same message is written at more than one site:"
    printf '%s\n' "$twice" | sed 's/^/          /'
fi
if copies=$( (printf '%s' "$base_code"; code crates/spec/src/system.rs | sed 's|^|crates/spec/src/system.rs:|') |
    grep -E 'Outcome::(Undefined|Blocked)'); then
    failed=1
    echo "        ^ a spec outcome is turned into an error by hand; that is Transition::step's business:"
    printf '%s\n' "$copies" | sed 's/^/          /'
fi

echo
fnv_home=crates/core/src/trace.rs
primes=$(grep -rlE '100_?0000_?01[bB]3' crates --include='*.rs' || true)
renders=$(code crates/checker/src/exec.rs | grep -E '\.render\(\)' || true)
sites=$(printf '%s' "$renders" | grep -c '' || true)
echo "fingerprint: FNV-1a prime in [$(echo $primes)], $sites render() site(s) in exec.rs"
if [ "$primes" != "$fnv_home" ]; then
    failed=1
    echo "        ^ the FNV-1a prime belongs in $fnv_home alone: hash through perennial::Fnv1a"
fi
if [ "$sites" -ne 1 ]; then
    failed=1
    echo "        ^ exec.rs renders a ghost trace at exactly one site:"
    printf '%s\n' "$renders" | sed 's/^/          /'
fi

echo
pilot=$(code crates/checker/src/exec.rs)
copies=$(printf '%s\n' "$pilot" | grep -E 'to_vec\(\)|take_step_accesses' || true)
runnable_sites=$(printf '%s\n' "$pilot" | grep -c 'push_runnable(' || true)
footprint_sites=$(printf '%s\n' "$pilot" | grep -c 'push_footprint(' || true)
owned=$(code crates/checker/src/strategy.rs | grep 'Vec<StepAccess>' | grep -v '&mut Vec<StepAccess>' || true)
echo "dependency tracking: $runnable_sites push_runnable / $footprint_sites push_footprint site(s) in exec.rs"
if [ -n "$copies" ]; then
    failed=1
    echo "        ^ exec.rs copies a runnable set or takes a footprint vector; append to the DepTrace:"
    printf '%s\n' "$copies" | sed 's/^/          /'
fi
if [ "$runnable_sites" -ne 1 ] || [ "$footprint_sites" -ne 1 ]; then
    failed=1
    echo "        ^ the pilot appends to its DepTrace at one push_runnable and one push_footprint site"
fi
if [ -n "$owned" ]; then
    failed=1
    echo "        ^ strategy.rs holds a footprint by value; borrow the DepTrace row or share an Arc<[StepAccess]>:"
    printf '%s\n' "$owned" | sed 's/^/          /'
fi

echo
tables=crates/checker/src/campaign.rs
other_records='fn (cx_to_json|cx_from_json|counterexample|exec_done|ev_exec_done|run_start_record)[(]|impl (ExecStats|EnvStamp) |const (POOL_KEYS|VOLATILE_KEYS|TIMING_KEYS):'
# The code lines of the three record files outside the items that
# start with $other_records (up to the closing line at their indent).
record_code() {
    for path in $tables crates/checker/src/telemetry.rs crates/checker/src/dashboard.rs; do
        code "$path" | sed "s|^|$path:|" | awk -v items="$other_records" '
            { line = $0; sub(/^[^ ]*: /, "", line) }
            skip { if (line ~ ("^" indent "[]}]")) skip = 0; next }
            line ~ items { match(line, /^ */); indent = substr(line, 1, RLENGTH); skip = line !~ /;$/; next }
            { print }'
    done
}
# The wire keys of table $1's rows, one per line.
table_keys() {
    code "$tables" | awk -v t="static $1:" 'index($0, t) { on = 1; next } on && /\];/ { on = 0 } on' |
        grep -o '"[a-z_]*"' | tr -d '"'
}
keys=$( (table_keys REPORT_COUNTERS; table_keys PASS_COUNTERS) | sort | uniq -c)
echo "report tables: $(table_keys REPORT_COUNTERS | grep -c '') report and $(table_keys PASS_COUNTERS | grep -c '') pass counters"
if [ -z "$keys" ]; then
    failed=1
    echo "        ^ no REPORT_COUNTERS/PASS_COUNTERS table rows found in $tables"
fi
sites_of=$(record_code)
printf '%s\n' "$keys" | while read -r rows key; do
    [ -n "$key" ] || continue
    sites=$(printf '%s\n' "$sites_of" | grep -F "\"$key\"" || true)
    if [ "$(printf '%s' "$sites" | grep -c '')" -ne "$rows" ]; then
        echo "        ^ \"$key\" is a literal at other sites than its $rows table row(s):"
        printf '%s\n' "$sites" | sed 's/^/          /'
    fi
done | grep . && failed=1
run_end_keys=$(awk '/const RUN_END: &str = "/ { on = 1 } on { print } on && /";/ { exit }' \
    crates/checker/src/telemetry.rs | sed 's/.*= "//; s/[";\\]//g')
spelled=""
for key in $run_end_keys; do
    spelled="$spelled$(code crates/checker/src/dashboard.rs | grep -F "\"$key\"" || true)"
done
if [ -z "$run_end_keys" ] || [ -n "$spelled" ]; then
    failed=1
    echo "        ^ dashboard.rs spells a run_end key (or telemetry.rs's RUN_END list is gone):"
    printf '%s\n' "$spelled" | sed 's/^/          /'
fi

echo
unsafe_homes='crates/bench/src/count_alloc.rs crates/goose/src/coro.rs shims/parking_lot/src/owner.rs'
single_owner='crates/goose/src/sched.rs crates/core/src/engine.rs crates/core/src/lockinv.rs
crates/disk/src/single.rs crates/disk/src/buffered.rs crates/disk/src/two.rs
crates/goose/src/heap.rs crates/goose/src/net.rs crates/goose/src/fs/model.rs
crates/goose/src/fs/buffered.rs'
unsafe_files=""
for path in $(find crates shims src tests examples -name '*.rs' | sort); do
    if code "$path" | grep -qE '(^|[^_a-zA-Z`])unsafe([^_a-zA-Z`]|$)'; then
        unsafe_files="$unsafe_files $path"
    fi
done
echo "one owner: unsafe in [$(echo $unsafe_files)]"
if [ "$(echo $unsafe_files)" != "$unsafe_homes" ]; then
    failed=1
    echo "        ^ unsafe belongs in [$unsafe_homes] alone"
fi
for path in $single_owner; do
    if locks=$(code "$path" | grep -E '^[0-9]+: *use parking_lot::.*\bMutex\b'); then
        failed=1
        echo "        ^ $path imports a lock for state one OS thread owns; use parking_lot::owner::OwnerCell:"
        printf '%s\n' "$locks" | sed 's/^/          /'
    fi
done
exit "$failed"
