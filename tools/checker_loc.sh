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
# hand-copied `let w2 = w.clone()` thread boilerplate again. And a
# workload is data: a `Program` of steps the crate's one `step` function
# takes, chosen by the scenario table. So a system crate declares no
# `enum ...Workload` to match on in `make`, and no harness knob
# (`after_round`, `with_reader`) that reshapes a program from outside it.
#
# One guard per rule: crates/core/src is the trusted base (ROADMAP item
# 9 mutates it rule by rule), so each rule of the ghost discipline is
# stated once. A `GhostError` variant that carries no `msg` is one rule
# and may be constructed at one site; a variant with a `msg` is one rule
# per text, and no text may appear twice. error.rs defines and renders
# the variants and constructs none, so it is not searched. Turning a
# spec `Outcome` into an error is the transition DSL's job alone (`Step::step`).
#
# One fingerprint, one rendering: an execution's `trace_fp` is FNV-1a
# over the fixed byte encoding of its ghost events (`perennial_spec::
# Encode`), kept by `perennial::Trace` as events arrive; `Debug` renders
# a trace for a reader and nothing else. So the FNV-1a prime is written
# in one file under crates/ (spec/src/encode.rs; everything else hashes
# through `Fnv1a`); that file holds every hand-written `Encode` impl (the
# scalars, strings and containers), and every enum a trace carries gets
# its encoding from the `encode!` macro; in core/src/trace.rs, `Debug`
# formatting (`{:?}`) is written inside `Trace::render` alone; and the
# executor (exec.rs, and harness.rs's handle it reaches the ghost state
# through) renders a ghost trace at one site (a failing execution's or
# a re-run's; never to fingerprint it).
#
# One owner per execution: the runtime, the pilot, the ghost engine and
# the models built over a runtime are reached from one OS thread, so
# their state sits in the shim's owner-checked cell, not behind a lock.
# The same goes for the verified systems, which build their model locks
# once, in their constructors, and hold them by value. The files that
# hold them may not import `parking_lot::Mutex` or `RwLock` again (a
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
# Crash from a fork: the crash sweeps fork each crash job off a shared
# execution instead of re-running its prefix, and the shared execution's
# threads are never unwound. So, in crates/checker/src, `crash_all` (the
# unwind) is called from exec.rs alone; a crashed copy of a runtime and
# of a ghost engine (`restore_crashed`, `fork_crashed`) is made at one
# site in the non-test code under crates/, harness.rs's
# `AnyWorld::start`, in a world exec.rs takes from the pool's entry
# (`Worlds::world`) at one site (`run_stopping`); and no capability a
# job could carry across the fork (`Lease`, `SetLease`, `PointsTo`) has
# a `Clone` or `Copy` impl or derive in crates/core/src.
#
# Reset, don't rebuild: a world is built once per worker and reset
# between executions. So in crates/checker/src's code, outside the `fn
# make` of a harness that wraps another (`PanicOnReset`, `SpinForever`),
# `Harness::make`, `Ghost::new` and `ModelRt::with_faults` are each
# called at one site, the pool's builder (harness.rs's `fn build`), and
# the builder is called at one site, the pool's entry (`Worlds::world`),
# when the pool has no world to reuse.
#
# One driver: the executor, the job driver, the passes, the shrinker and
# the registry reach a harness through harness.rs's type-erased handle
# (`AnyHarness`, `AnyWorld`), and its worlds through the pool (`Worlds`),
# so they are compiled once, not once per harness type, and build no
# world of their own (no `.build(` of a harness in them). In exec.rs, jobs.rs, explore.rs, shrink.rs and
# scenario.rs, a `Harness<`/`System<` bound or `H::Sys` may be named only
# inside the public wrappers that erase a harness at the door, listed
# one by one in $wrappers.
#
# One table per report record: `CheckReport`'s counters and the per-pass
# counters are each one table in campaign.rs (`REPORT_COUNTERS`,
# `PASS_COUNTERS`: wire key, shard fold, field), and the report codec,
# `merge_reports`, `run_end`'s writer and reader and the dashboard all go
# through them. So in campaign.rs, telemetry.rs and dashboard.rs a
# counter's wire key is a string literal at one site per table that lists
# it: its row. Not searched: the code of other records that use the same
# key names (`exec_done`, `counterexample`, `schedule_end`, `run_start`
# and its env stamp) and the `VOLATILE_KEYS`/`TIMING_KEYS` lists. And dashboard.rs
# spells no key of the `run_end` record (the list pinned by telemetry.rs's
# key-set test): it reads the typed record.
#
# Executions without the garbage: an execution allocates nothing per
# spec step, disk block or ghost write, and its per-execution buffers
# are reused. So the spec DSL (crates/spec/src/transition.rs) boxes no
# step per combinator (no `Arc`); a spec module's `modify` updates σ in
# place (its closure takes `&mut`, never a `&` to clone from); the disk
# crate keeps its blocks in one flat buffer per platter (no
# `Vec<Block>` store); the ghost engine keeps no boxed cell value
# (`Box<dyn Any`/`CloneAny` nowhere in crates/core/src); the runtime
# copies no thread name at a spawn (no `Into<String>` name in sched.rs);
# and exec.rs allocates no decision path or `DepTrace` of its own
# (`with_capacity`, `Box::new`): it takes the OS thread's spares
# (`spare_path`, `DepTrace::spare`).
#
# One counter list: an execution's counters are one table too,
# telemetry.rs's `EXEC_COUNTERS`, which `exec_done`'s writer and reader
# and exec.rs's fork cross-check (`RunResult::difference`) iterate. So in
# crates/checker/src an `ExecStats` counter's key is a string literal only
# in a counter table's rows and in `ev_exec_done` (the reference the
# writer's bytes are tested against; profile.rs's `profile_to_json`, a
# record of its own, and the units render.rs's `pass_table` prints are not
# searched); exec.rs destructures no `ExecStats`; and in goose's sched.rs
# the runtime keeps its counters in one `SchedStats`: `RtState` declares
# no field `SchedStats` also names.
#
# One renderer: the text a reader sees (summaries, failure reports,
# profiles, the dashboard, explain timelines) is drawn in render.rs. So no
# other module of crates/checker/src imports `fmt::Write` (json.rs's hex
# digits and playback.rs's emitted Rust source aside) or defines a
# `render*`, `summary` or `describe*` function. And two shapes are drawn
# at one site each. The per-pass table is `pass_table`, which alone draws
# the share bar (`"#".repeat`); neither render.rs nor scan.rs loops over
# a run's pass records (`per_pass`, `passes`) to draw rows of its own.
# The per-scenario line is `CheckReport::summary`, and the verdict word
# `"FAIL"` is spelled at one site in crates/checker/src and scan.rs.
#
# One per-pass fold: the report's `per_pass`, the profile's `passes` and
# the dashboard's table are `PassMetrics` rows summed by metrics.rs's
# `fold_passes`. So no second row type is defined (`PassCost`, anywhere
# in the workspace's Rust); `fold_passes` is defined once, and it alone
# in crates/checker/src holds rows keyed by pass (a map from a pass or
# its rank to a row, or the fold's array of `Option<PassMetrics>`); and
# dashboard.rs takes no pass's time from its `pass_end` record
# (`Record::PassEnd`): its time column is the executions' busy time.
#
# One stream codec: `exec_done`, the record a run writes once per
# execution and a resume reads back once per execution, is written and
# read field by field through one key list. So telemetry.rs declares its
# own keys once (`static EXEC_FIELDS:`, beside `EXEC_COUNTERS`), and
# neither its writer (`fn exec_done`) nor its canonical reader (`fn
# read_exec_done`) spells a key. And the stream is flushed once per wave,
# not per record: in crates/checker/src a `flush()` call is written only
# in the sink's and the run's `fn flush` and in their two callers,
# `RunTelemetry::close` and the driver's `run_pass`.
#
# One close of the schedule phase: a resume replays the phase on the word
# of its `schedule_end` record. So the record's name is spelled twice in
# crates/checker/src, in its writer (`fn schedule_end_record`) and its
# reader (`Record`'s `fn from_json`); the driver writes it at one site
# (one `.schedule_end(` call) and the WAL loader alone takes it from the
# reader (two `Record::ScheduleEnd(` sites: the reader's and `parse_wal`'s).
# And which jobs replay is the WAL's business, not the rank's: in jobs.rs,
# `fn replays`, `fn read_back` and `fn run_or_replay` name no pass or rank.
set -eu
cap=900
owners='telemetry.rs campaign.rs profile.rs timeline.rs json.rs'
records='"run_start"|"pass_start"|"pass_end"|"exec_done"|"counterexample"|"schedule_end"|"run_end"'
harness_layer='crates/checker/src/harness.rs
crates/kvstore/src/harness.rs crates/repldisk/src/harness.rs crates/mailboat/src/harness.rs
crates/patterns/src/lib.rs crates/patterns/src/shadow.rs crates/patterns/src/wal.rs
crates/patterns/src/txn_wal.rs crates/patterns/src/group_commit.rs crates/patterns/src/synced_log.rs'
system_crates='crates/kvstore/src crates/repldisk/src crates/mailboat/src crates/patterns/src'
one_driver='exec.rs jobs.rs explore.rs shrink.rs scenario.rs'
wrappers='explore.rs:check explore.rs:replay shrink.rs:shrink_counterexample scenario.rs:new scenario.rs:add'
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
# shellcheck disable=SC2086
if knobs=$(grep -rnE 'enum [A-Za-z]*Workload\b|\b(after_round|with_reader)\b' $system_crates); then
    failed=1
    echo "        ^ a workload enum or harness knob; a workload is a Program of steps:"
    printf '%s\n' "$knobs" | sed 's/^/          /'
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
    echo "        ^ a spec outcome is turned into an error by hand; that is Step::step's business:"
    printf '%s\n' "$copies" | sed 's/^/          /'
fi

echo
fnv_home=crates/spec/src/encode.rs
primes=$(grep -rlE '100_?0000_?01[bB]3' crates --include='*.rs' || true)
renders=$(for path in crates/checker/src/exec.rs crates/checker/src/harness.rs; do
    code "$path" | grep -E '\.render\(\)' | sed "s|^|$path:|"
done)
sites=$(printf '%s' "$renders" | grep -c '' || true)
# Hand-written `Encode` impls outside $fnv_home, tests included.
encodes=$(grep -rnE 'impl.*\bEncode for\b' crates src tests examples --include='*.rs' |
    grep -v "^$fnv_home:" || true)
# `Debug` formatting in trace.rs outside the body of `fn render`.
debugs=$(code crates/core/src/trace.rs | awk '
    /^[0-9]+:     pub fn render\(/ { r = 1 }
    !r && /\{[a-z_0-9]*:#?\?\}/ { print "crates/core/src/trace.rs:" $0 }
    r && /^[0-9]+:     }/ { r = 0 }')
echo "fingerprint: FNV-1a prime in [$(echo $primes)], $sites render() site(s) in exec.rs and harness.rs"
if [ "$primes" != "$fnv_home" ]; then
    failed=1
    echo "        ^ the FNV-1a prime belongs in $fnv_home alone: hash through Fnv1a"
fi
if [ -n "$encodes" ]; then
    failed=1
    echo "        ^ an Encode impl written by hand; state an enum's encoding with perennial_spec::encode!:"
    printf '%s\n' "$encodes" | sed 's/^/          /'
fi
if [ -n "$debugs" ]; then
    failed=1
    echo "        ^ trace.rs formats with Debug outside Trace::render; a fingerprint folds Encode bytes:"
    printf '%s\n' "$debugs" | sed 's/^/          /'
fi
if [ "$sites" -ne 1 ]; then
    failed=1
    echo "        ^ the executor renders a ghost trace at exactly one site:"
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
other_records='fn (cx_to_json|cx_from_json|counterexample|exec_done|ev_exec_done|run_start_record|schedule_end_record)[(]|impl (ExecStats|EnvStamp|CxRecord|ScheduleEnd) |const (POOL_KEYS|VOLATILE_KEYS|TIMING_KEYS):|static EXEC_COUNTERS:'
# The code lines of files $2... outside the items that start with $1 (up
# to the closing line at their indent), each prefixed with its path.
code_outside() {
    items=$1
    shift
    for path in "$@"; do
        code "$path" | sed "s|^|$path:|" | awk -v items="$items" '
            { line = $0; sub(/^[^ ]*: /, "", line) }
            skip { if (line ~ ("^" indent "[]}]")) skip = 0; next }
            line ~ items { match(line, /^ */); indent = substr(line, 1, RLENGTH); skip = line !~ /;$/; next }
            { print }'
    done
}
# The code lines of the three record files outside $other_records.
record_code() {
    code_outside "$other_records" $tables crates/checker/src/telemetry.rs crates/checker/src/dashboard.rs
}
# The wire keys of the rows of table $1 (in file $2, default $tables), one per line.
table_keys() {
    code "${2:-$tables}" | awk -v t="static $1:" 'index($0, t) { on = 1; next } on && /\];/ { on = 0 } on' |
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
exec_keys=$(table_keys EXEC_COUNTERS crates/checker/src/telemetry.rs)
# Outside any counter table's rows, the reference `ev_exec_done`, the
# profile record (which names some of the same sums for its own rows) and
# the per-pass table's rows (which print some of them as units).
spelled=$(code_outside 'counters!\[|fn (ev_exec_done|profile_to_json|pass_table)[(]' crates/checker/src/*.rs |
    grep -F "$(printf '"%s"\n' $exec_keys)" || true)
destructured=$(code crates/checker/src/exec.rs | grep -E 'ExecStats \{' || true)
# The field names of struct $1 in sched.rs.
fields_of() {
    code crates/goose/src/sched.rs | awk -v s="struct $1 {" 'index($0, s) { on = 1; next }
        on && /^[0-9]+: }/ { exit }
        on && /^[0-9]+:     (pub )?[a-z_]+:/ { f = $2 == "pub" ? $3 : $2; sub(/:$/, "", f); print f }'
}
loose=$( (fields_of RtState; fields_of SchedStats) | sort | uniq -d)
echo "one counter list: $(printf '%s' "$exec_keys" | grep -c '') exec counters, RtState fields [$(echo $(fields_of RtState))]"
if [ -z "$exec_keys" ] || [ -n "$spelled" ]; then
    failed=1
    echo "        ^ an ExecStats counter is spelled outside EXEC_COUNTERS and ev_exec_done (or the table is gone):"
    printf '%s\n' "$spelled" | sed 's/^/          /'
fi
if [ -n "$destructured" ]; then
    failed=1
    echo "        ^ exec.rs lists ExecStats' fields by hand; iterate EXEC_COUNTERS:"
    printf '%s\n' "$destructured" | sed 's/^/          /'
fi
if [ -z "$(fields_of SchedStats)" ] || [ -n "$loose" ]; then
    failed=1
    echo "        ^ RtState keeps a counter of its own beside its SchedStats (or SchedStats is gone): $(echo $loose)"
fi

echo
unwinds=$(for path in crates/checker/src/*.rs; do
    [ "$path" = crates/checker/src/exec.rs ] || code "$path" | grep 'crash_all(' | sed "s|^|$path:|"
done)
copies=$(for path in $(find crates -path '*/src/*' -name '*.rs' | sort); do
    code "$path" | grep -E '(restore_crashed|fork_crashed)\(' | grep -v 'fn ' | sed "s|^|$path:|"
done)
entries=$(code crates/checker/src/exec.rs | grep -o 'worlds\.world(' | grep -c '' || true)
capabilities=$(grep -rnE -B1 'pub struct (Lease|SetLease|PointsTo)<' crates/core/src | grep -E 'derive\(.*(Clone|Copy)' || true)
capability_impls=$(grep -rnE 'impl.*(Clone|Copy) for (Lease|SetLease|PointsTo)<' crates/core/src || true)
echo "forks: $(printf '%s' "$copies" | grep -c '') crashed-copy site(s), $entries fork entry site(s) in exec.rs"
if [ -n "$unwinds" ]; then
    failed=1
    echo "        ^ crash_all unwinds live threads; only exec.rs's lifecycle may call it:"
    printf '%s\n' "$unwinds" | sed 's/^/          /'
fi
if [ "$(printf '%s' "$copies" | grep -c '')" -ne 2 ] || [ "$(printf '%s' "$copies" | grep -vc 'crates/checker/src/harness.rs')" -ne 0 ] || [ "$entries" -ne 1 ]; then
    failed=1
    echo "        ^ a crashed copy is made in AnyWorld::start alone, in a world from the pool's entry at one site in exec.rs:"
    printf '%s\n' "$copies" | sed 's/^/          /'
fi
if [ -n "$capabilities$capability_impls" ]; then
    failed=1
    echo "        ^ a capability became copyable; a fork copies the engine's state, never a capability:"
    printf '%s\n%s\n' "$capabilities" "$capability_impls" | grep . | sed 's/^/          /'
fi

# The code of crates/checker/src outside a wrapping harness's `fn make`.
built=$(code_outside 'fn make[(]' crates/checker/src/*.rs)
makes=$(printf '%s\n' "$built" | grep -F '.make(' || true)
news=$(printf '%s\n' "$built" | grep -E 'Ghost::new\(|ModelRt::with_faults\(' || true)
# A harness's builder takes the spec; a config's `build()` takes nothing.
builders=$(printf '%s\n' "$built" | grep -E '\.build\([^)]' || true)
# Calls, not lines: two on one line count twice.
calls() { printf '%s\n' "$1" | grep -oE "$2" | grep -c '' || true; }
home=$(awk '/^    fn build\(&self, spec.*\{$/ { on = 1 } on { print FILENAME ":" FNR } on && /^    }$/ { exit }' crates/checker/src/harness.rs)
outside=$(printf '%s\n' "$makes" "$news" | grep . | while IFS=: read -r path line _; do
    printf '%s\n' "$home" | grep -qx "$path:$line" || echo "$path:$line"
done)
n_makes=$(calls "$makes" '\.make\(')
n_news=$(calls "$news" 'Ghost::new\(|ModelRt::with_faults\(')
n_builders=$(calls "$builders" '\.build\([^)]')
echo "one builder: $n_makes make(), $n_news runtime/engine construction(s), $n_builders builder call(s)"
if [ "$n_makes" -ne 1 ] || [ "$n_news" -ne 2 ] || [ -n "$outside" ] || [ "$n_builders" -ne 1 ] ||
    [ "$(printf '%s' "$builders" | grep -vc '^crates/checker/src/harness.rs:')" -ne 0 ]; then
    failed=1
    echo "        ^ a world is built at one site, the pool's builder, and only when the pool (Worlds::world) has none to reuse:"
    printf '%s\n' "$makes" "$news" "$builders" | grep . | sed 's/^/          /'
fi

echo
# The lines of the one-driver files that name a harness or system type,
# outside the item or method (closed by a `}` at indent 0 or 4) of an
# allow-listed wrapper.
generic=$(for f in $one_driver; do
    code "crates/checker/src/$f" | awk -v f="$f" -v ok=" $wrappers " '
        /^[0-9]+: (    )?}/ { item = "" }
        match($0, /fn [a-z_0-9]+/) { item = substr($0, RSTART + 3, RLENGTH - 3) }
        /Harness<|System<|H::Sys/ && !index(ok, " " f ":" item " ") { print "crates/checker/src/" f ":" $0 }'
done)
echo "one driver: $(printf '%s' "$generic" | grep -c '') harness-typed line(s) outside [$wrappers]"
if [ -n "$generic" ]; then
    failed=1
    echo "        ^ the driver is compiled once: take a &dyn AnyHarness, and erase a harness in a public wrapper:"
    printf '%s\n' "$generic" | sed 's/^/          /'
fi

echo
spec_modules=$(grep -rlE 'impl (perennial_spec::)?SpecTS for' crates/*/src | sort)
garbage=$(
    code crates/spec/src/transition.rs | grep -E '\bArc\b' | sed 's|^|crates/spec/src/transition.rs:|'
    for path in $spec_modules; do
        code "$path" | grep -E 'modify\((move )?\|[a-z_]*: &[^m]' | sed "s|^|$path:|"
    done
    grep -rnE 'Vec<Block>' crates/disk/src --include='*.rs' || true
    grep -rnE 'Box<dyn (Any|CloneAny)|CloneAny' crates/core/src --include='*.rs' || true
    code crates/goose/src/sched.rs | grep -E 'Into<String>' | sed 's|^|crates/goose/src/sched.rs:|'
    code crates/checker/src/exec.rs | grep -E 'with_capacity|Box::new' |
        sed 's|^|crates/checker/src/exec.rs:|'
)
echo "no garbage: $(echo $spec_modules | wc -w) spec modules, $(printf '%s' "$garbage" | grep -c '') allocation source(s) back"
if [ -n "$garbage" ]; then
    failed=1
    echo "        ^ an execution allocates here again (a boxed combinator, a cloned σ, a block or cell"
    echo "          value of its own, a copied thread name, a fresh decision path):"
    printf '%s\n' "$garbage" | sed 's/^/          /'
fi

echo
render=crates/checker/src/render.rs
# The code lines of the checker's modules (and with $1, of scan.rs),
# each prefixed with its path.
drawn() {
    for path in crates/checker/src/*.rs ${1:+crates/bench/src/bin/scan.rs}; do
        code "$path" | sed "s|^|$path:|"
    done
}
elsewhere=$(drawn | grep -vE "^($render|crates/checker/src/(json|playback).rs):" |
    grep -E 'fmt::Write|fn (render|summary|describe)[a-z_]*[(<]' || true)
loops=$(drawn scan | grep -E "^($render|crates/bench/src/bin/scan.rs):" |
    grep -E 'for .* in .*(per_pass|\.passes)' || true)
bars=$(drawn | grep -F '"#".repeat' || true)
verdicts=$(drawn scan | grep -F '"FAIL"' || true)
tables=$(code "$render" | grep -c 'fn pass_table' || true)
echo "one renderer: $tables pass table(s), $(printf '%s' "$bars" | grep -c '') share bar(s), $(printf '%s' "$verdicts" | grep -c '') verdict site(s), $(printf '%s' "$elsewhere" | grep -c '') text line(s) outside render.rs"
if [ -n "$elsewhere" ]; then
    failed=1
    echo "        ^ a module draws text for a reader; that is render.rs's business:"
    printf '%s\n' "$elsewhere" | sed 's/^/          /'
fi
if [ "$tables" -ne 1 ] || [ "$(printf '%s' "$bars" | grep -c '')" -ne 1 ] || [ -n "$loops" ]; then
    failed=1
    echo "        ^ the per-pass table is drawn once, by render.rs's pass_table, from PassMetrics rows:"
    printf '%s\n' "$bars" "$loops" | grep . | sed 's/^/          /'
fi
if [ "$(printf '%s' "$verdicts" | grep -c '')" -ne 1 ]; then
    failed=1
    echo "        ^ the verdict word is written at one site (the per-scenario line's):"
    printf '%s\n' "$verdicts" | sed 's/^/          /'
fi

echo
rows=$(grep -rnE '(struct|enum|type|trait|union) +PassCost\b' crates src tests examples --include='*.rs' || true)
folds=$(drawn | grep -E 'fn fold_passes[(<]' || true)
keyed=$(drawn | grep -E 'Map<(Pass|u8|\(u8, *Pass\)), *PassMetrics>|Option<PassMetrics>' || true)
wall=$(code crates/checker/src/dashboard.rs | grep -F 'Record::PassEnd' || true)
echo "one per-pass fold: $(printf '%s' "$folds" | grep -c '') fold(s), $(printf '%s' "$keyed" | grep -c '') pass-keyed row site(s)"
if [ -n "$rows" ]; then
    failed=1
    echo "        ^ a second per-pass row type; the row is metrics.rs's PassMetrics:"
    printf '%s\n' "$rows" | sed 's/^/          /'
fi
if [ "$(printf '%s' "$folds" | grep -c '')" -ne 1 ] || [ "$(printf '%s' "$keyed" | grep -c '')" -ne 1 ] ||
    [ "$(printf '%s\n' "$folds" "$keyed" | grep -vc '^crates/checker/src/metrics.rs:')" -ne 0 ]; then
    failed=1
    echo "        ^ per-pass rows are folded at one site, metrics.rs's fold_passes:"
    printf '%s\n' "$folds" "$keyed" | grep . | sed 's/^/          /'
fi
if [ -n "$wall" ]; then
    failed=1
    echo "        ^ the dashboard times a pass by its pass_end record; its rows are the executions' fold:"
    printf '%s\n' "$wall" | sed 's/^/          /'
fi

echo
stream=crates/checker/src/telemetry.rs
lists=$(code "$stream" | grep -c 'static EXEC_FIELDS:' || true)
# The code lines of the items in $2 (default $stream) whose first line
# matches $1.
items_of() {
    code "${2:-$stream}" | awk -v items="$1" '
        { line = $0; sub(/^[^ ]*: /, "", line) }
        on { print; if (line ~ ("^" indent "}")) on = 0; next }
        line ~ items { match(line, /^ */); indent = substr(line, 1, RLENGTH); on = 1; print }'
}
spelled=$(items_of 'fn (exec_done|read_exec_done)[(]' | grep -E '"[a-z_]+"' | sed "s|^|$stream:|" || true)
flushes=$(for path in crates/checker/src/*.rs; do
    code "$path" | awk -v f="$(basename "$path")" '
        /^[0-9]+: (    )?}/ { item = "" }
        match($0, /fn [a-z_0-9]+/) { item = substr($0, RSTART + 3, RLENGTH - 3) }
        /flush\(\)/ && !/fn flush/ { print f ":" item ":" $0 }'
done)
stray=$(printf '%s\n' "$flushes" | grep . | grep -vE '^(telemetry.rs:(flush|close)|jobs.rs:run_pass):' || true)
echo "one stream codec: $lists exec_done key list(s), $(printf '%s' "$flushes" | grep -c '') flush() call(s)"
if [ "$lists" -ne 1 ] || [ -n "$spelled" ]; then
    failed=1
    echo "        ^ exec_done's keys are listed once, in EXEC_FIELDS, which its writer and canonical reader walk:"
    printf '%s\n' "$spelled" | grep . | sed 's/^/          /'
fi
if [ -n "$stray" ] || [ -z "$flushes" ]; then
    failed=1
    echo "        ^ the stream is flushed at a wave's end and at the close, never per record:"
    printf '%s\n' "$stray" | grep . | sed 's/^/          /'
fi

echo
unsafe_homes='crates/bench/src/count_alloc.rs crates/goose/src/coro.rs shims/parking_lot/src/owner.rs'
single_owner='crates/goose/src/sched.rs crates/core/src/engine.rs crates/core/src/lockinv.rs
crates/disk/src/single.rs crates/disk/src/buffered.rs crates/disk/src/two.rs
crates/goose/src/heap.rs crates/goose/src/net.rs crates/goose/src/fs/model.rs
crates/goose/src/fs/buffered.rs crates/kvstore/src/store.rs crates/mailboat/src/proof.rs
crates/repldisk/src/proof.rs crates/patterns/src/shadow.rs crates/patterns/src/wal.rs
crates/patterns/src/txn_wal.rs crates/patterns/src/group_commit.rs crates/patterns/src/synced_log.rs'
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
    if locks=$(code "$path" | grep -E '^[0-9]+: *use parking_lot::.*\b(Mutex|RwLock)\b'); then
        failed=1
        echo "        ^ $path imports a lock for state one OS thread owns; use parking_lot::owner::OwnerCell:"
        printf '%s\n' "$locks" | sed 's/^/          /'
    fi
done
echo
names=$(for path in crates/checker/src/*.rs; do code "$path" | grep -F '"schedule_end"' | sed "s|^|$path:|"; done)
at_home=$( (items_of 'fn schedule_end_record[(]'; items_of 'fn from_json<' ) | grep -cF '"schedule_end"' || true)
writes=$(for path in crates/checker/src/*.rs; do code "$path" | grep -F '.schedule_end(' | sed "s|^|$path:|"; done)
reads=$(for path in crates/checker/src/*.rs; do code "$path" | grep -F 'Record::ScheduleEnd(' | sed "s|^|$path:|"; done)
by_rank=$(items_of 'fn (replays|read_back|run_or_replay)[(]' crates/checker/src/jobs.rs |
    grep -E 'Pass::|\.pass\b|rank' | sed 's|^|crates/checker/src/jobs.rs:|' || true)
echo "one close of the schedule phase: $(printf '%s' "$names" | grep -c '') name site(s), $(printf '%s' "$writes" | grep -c '') write(s), $(printf '%s' "$reads" | grep -c '') read site(s)"
if [ "$(printf '%s' "$names" | grep -c '')" -ne 2 ] || [ "$at_home" -ne 2 ] ||
    [ "$(printf '%s' "$writes" | grep -c '')" -ne 1 ] || [ "$(printf '%s' "$reads" | grep -c '')" -ne 2 ]; then
    failed=1
    echo "        ^ schedule_end is named by its writer and reader, written once by the driver, taken from the reader by parse_wal alone:"
    printf '%s\n' "$names" "$writes" "$reads" | grep . | sed 's/^/          /'
fi
if [ -n "$by_rank" ]; then
    failed=1
    echo "        ^ a job replays when the WAL holds it, whatever its pass; the schedule phase replays whole:"
    printf '%s\n' "$by_rank" | sed 's/^/          /'
fi
exit "$failed"
