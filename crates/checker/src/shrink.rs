//! Counterexample shrinking: delta-debugging a failing execution down to
//! a minimal reproducer (DESIGN.md §16).
//!
//! The explorer reports the *minimum-key* counterexample, but minimum
//! key is not minimum size: a DFS prefix carries every choice the search
//! made on the way down, a nested crash sweep carries both crash points
//! even when one suffices, and a fault sweep's plan may name events the
//! failure never needed. This module takes the winning
//! [`Counterexample`] and greedily removes what it can — schedule
//! grants, crash points, fault events — re-running the execution after
//! every candidate edit and keeping the edit only if the **failure
//! fingerprint** is preserved.
//!
//! # The fingerprint-preservation invariant
//!
//! A shrink step is accepted iff the re-run still fails *and*
//! [`failure_fingerprint`] — a hash of the outcome kind plus its
//! rendered message — is unchanged. Hashing the outcome identity rather
//! than the ghost trace is deliberate: the whole point of shrinking is
//! that the path to the failure gets shorter, so the trace (and its
//! [`trace_fingerprint`]) legitimately
//! changes, while the *failure being demonstrated* must not. A shrink
//! that turns a `FinalCheckFailed("lost write")` into a
//! `Deadlock` has found a different bug, not a smaller reproducer, and
//! is rejected.
//!
//! # Why the dimensions shrink differently
//!
//! Schedule-phase grants (the DFS/corpus `schedule_prefix`) shrink by
//! classic ddmin chunk removal: any subsequence of the prefix is a valid
//! candidate, because the scheduler treats a too-short prefix as "follow
//! DFS order / the seeded RNG from here" and a clamped entry as "pick
//! the last runnable". Sweep-phase injections (crash points, fault
//! events) are not a sequence of free choices but a *set of named
//! events*, each with an absolute coordinate (grant count, disk-op
//! index, send index); removing one never invalidates the coordinates
//! of the others, so they shrink by per-event deletion plus lowering
//! crash coordinates toward zero. The two phases therefore use the same
//! accept test but different candidate generators.
//!
//! # Determinism
//!
//! Shrinking runs after exploration, sequentially, on one
//! counterexample. Since the parallel explorer reports the same winning
//! counterexample at every worker count, and every candidate re-run is
//! itself deterministic (fixed seed, schedule policy, and fault plan),
//! the shrunk counterexample and the [`ShrinkStats`] are identical under
//! `workers = 1` and `workers = 8` — pinned by
//! `tests/shrink_playback.rs`.

use crate::exec::{rerun, Counterexample, ExecOutcome};
use crate::harness::Harness;
use crate::metrics::{trace_fingerprint, OutcomeKind};
use goose_rt::fault::FaultPlan;
use perennial_spec::SpecTS;

/// Hard cap on shrink re-runs, so a pathological scenario (huge prefix,
/// expensive executions) cannot stall a campaign. Deterministic: the
/// budget is consumed in candidate order, never by wall clock.
pub const RERUN_BUDGET: u64 = 512;

/// Bookkeeping from one shrink run, attached as
/// [`CheckReport::shrink`](crate::CheckReport::shrink) and surfaced by
/// `render_failure()` and the `run_end` telemetry record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShrinkStats {
    /// Schedule grants, crash points, and fault events removed (the
    /// difference in [`cx_size`] before and after).
    pub steps_removed: u64,
    /// Greedy sweeps over all dimensions, including the final sweep
    /// that confirmed the fixpoint.
    pub rounds: u64,
    /// Candidate executions re-run (accepted + rejected, baseline
    /// included).
    pub re_runs: u64,
}

/// The canonical failure identity: outcome kind plus rendered message.
/// This is what shrinking must preserve — see the module docs for why
/// it is *not* the ghost-trace fingerprint.
pub fn failure_identity(outcome: &ExecOutcome) -> String {
    let kind = OutcomeKind::of(outcome).name();
    let msg = match outcome {
        ExecOutcome::Ok | ExecOutcome::Deadlock => String::new(),
        ExecOutcome::Violation(e) => e.to_string(),
        ExecOutcome::Ub(m)
        | ExecOutcome::Bug(m)
        | ExecOutcome::FinalCheckFailed(m)
        | ExecOutcome::HarnessPanic(m) => m.clone(),
        ExecOutcome::Wedged(budget) => format!("budget {budget}"),
    };
    format!("{kind}: {msg}")
}

/// FNV-1a hash of [`failure_identity`] — the accept test for every
/// shrink candidate, and what emitted playback tests pin.
pub fn failure_fingerprint(outcome: &ExecOutcome) -> u64 {
    trace_fingerprint(&failure_identity(outcome))
}

/// Number of injected fault events in a plan (transient I/O errors,
/// the torn-write mode, the disk failure, network faults).
pub fn fault_event_count(faults: &FaultPlan) -> usize {
    faults.transient_io.len()
        + usize::from(faults.torn.is_some())
        + usize::from(faults.disk_fail.is_some())
        + faults.net.len()
}

/// The size a shrink run minimizes: schedule grants pinned by the
/// prefix, plus crash points, plus fault events.
pub fn cx_size(cx: &Counterexample) -> usize {
    cx.schedule_prefix.len() + cx.crash_points.len() + fault_event_count(&cx.faults)
}

/// Shrinks `cx` in place: greedy rounds of crash-point dropping and
/// lowering, fault-event dropping, and ddmin schedule-prefix removal,
/// each candidate validated by re-running and comparing
/// [`failure_fingerprint`]. Runs to a fixpoint (a full round with no
/// accepted edit) or until [`RERUN_BUDGET`] is exhausted.
///
/// If the baseline re-run does not reproduce the recorded failure
/// fingerprint (it always should — replay determinism is the checker's
/// core contract), the counterexample is left untouched and the stats
/// record the single baseline re-run.
pub fn shrink_counterexample<S: SpecTS, H: Harness<S>>(
    harness: &H,
    cx: &mut Counterexample,
    max_steps: u64,
) -> ShrinkStats {
    let target = failure_fingerprint(&cx.outcome);
    let original_size = cx_size(cx) as u64;
    let mut stats = ShrinkStats::default();

    // Baseline: the unmodified counterexample must reproduce before any
    // edit is trusted.
    stats.re_runs += 1;
    let outcome = rerun(harness, cx, max_steps, false).outcome;
    if !outcome.is_failure() || failure_fingerprint(&outcome) != target {
        return stats;
    }

    // Tries one candidate; on acceptance, folds the re-run's outcome,
    // clamp depths, and trace back into the candidate and installs it.
    let attempt = |cx: &mut Counterexample,
                   candidate: &mut Counterexample,
                   stats: &mut ShrinkStats|
     -> bool {
        if stats.re_runs >= RERUN_BUDGET {
            return false;
        }
        stats.re_runs += 1;
        let r = rerun(harness, candidate, max_steps, false);
        if !r.outcome.is_failure() || failure_fingerprint(&r.outcome) != target {
            return false;
        }
        candidate.outcome = r.outcome;
        candidate.clamped = r.clamped;
        candidate.trace = r.trace;
        *cx = candidate.clone();
        true
    };

    loop {
        stats.rounds += 1;
        let mut changed = false;

        // 1. Drop crash points, last first: the nested (inside-recovery)
        //    point is the most likely to be incidental.
        let mut i = cx.crash_points.len();
        while i > 0 {
            i -= 1;
            let mut candidate = cx.clone();
            candidate.crash_points.remove(i);
            if attempt(cx, &mut candidate, &mut stats) {
                changed = true;
            }
        }

        // 2. Lower surviving crash coordinates toward zero (earlier
        //    crashes mean shorter executions). Keeps the list sorted so
        //    the injection iterator still sees ascending counts.
        for i in 0..cx.crash_points.len() {
            loop {
                let v = cx.crash_points[i];
                if v == 0 {
                    break;
                }
                let mut opts = vec![0, v / 2, v - 1];
                opts.dedup();
                let mut accepted = false;
                for smaller in opts {
                    let mut candidate = cx.clone();
                    candidate.crash_points[i] = smaller;
                    candidate.crash_points.sort_unstable();
                    if attempt(cx, &mut candidate, &mut stats) {
                        accepted = true;
                        changed = true;
                        break;
                    }
                }
                if !accepted {
                    break;
                }
            }
        }

        // 3. Drop fault events, one named event at a time.
        let io_points: Vec<u64> = cx.faults.transient_io.iter().copied().collect();
        for p in io_points {
            let mut candidate = cx.clone();
            candidate.faults.transient_io.remove(&p);
            if attempt(cx, &mut candidate, &mut stats) {
                changed = true;
            }
        }
        if cx.faults.torn.is_some() {
            let mut candidate = cx.clone();
            candidate.faults.torn = None;
            if attempt(cx, &mut candidate, &mut stats) {
                changed = true;
            }
        }
        if cx.faults.disk_fail.is_some() {
            let mut candidate = cx.clone();
            candidate.faults.disk_fail = None;
            if attempt(cx, &mut candidate, &mut stats) {
                changed = true;
            }
        }
        let net_points: Vec<u64> = cx.faults.net.keys().copied().collect();
        for p in net_points {
            let mut candidate = cx.clone();
            candidate.faults.net.remove(&p);
            if attempt(cx, &mut candidate, &mut stats) {
                changed = true;
            }
        }

        // 4. ddmin over the schedule prefix: remove chunks, halving the
        //    chunk size down to single grants.
        let mut chunk = cx.schedule_prefix.len().div_ceil(2);
        while chunk >= 1 {
            let mut i = 0;
            while i < cx.schedule_prefix.len() {
                let end = (i + chunk).min(cx.schedule_prefix.len());
                let mut candidate = cx.clone();
                candidate.schedule_prefix.drain(i..end);
                if attempt(cx, &mut candidate, &mut stats) {
                    changed = true;
                    // The suffix shifted down into position i; retry
                    // the same window.
                } else {
                    i += chunk;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }

        // 5. Normalize surviving grants toward choice index 0 (canonical
        //    "first runnable"), without changing the count.
        for i in 0..cx.schedule_prefix.len() {
            loop {
                let v = cx.schedule_prefix[i];
                if v == 0 {
                    break;
                }
                let mut opts = vec![0, v / 2, v - 1];
                opts.dedup();
                let mut accepted = false;
                for smaller in opts {
                    let mut candidate = cx.clone();
                    candidate.schedule_prefix[i] = smaller;
                    if attempt(cx, &mut candidate, &mut stats) {
                        accepted = true;
                        changed = true;
                        break;
                    }
                }
                if !accepted {
                    break;
                }
            }
        }

        if !changed || stats.re_runs >= RERUN_BUDGET {
            break;
        }
    }

    stats.steps_removed = original_size.saturating_sub(cx_size(cx) as u64);
    stats
}
