//! Edge-case coverage for the ghost engine beyond the Table 1 laws:
//! set resources, refined commits, trace contents, and report shape.

use perennial::{Ghost, GhostError, TraceEvent};
use perennial_spec::fixtures::{BufOp, BufSpec, RegOp, RegSpec};
use perennial_spec::Step;

fn ghost() -> std::sync::Arc<Ghost<RegSpec>> {
    Ghost::new(RegSpec { size: 4 })
}

// ---------------------------------------------------------------------
// Durable sets and lower-bound leases (§8.3's leasing strategy).
// ---------------------------------------------------------------------

#[test]
fn set_insert_needs_no_lease_delete_does() {
    let g = ghost();
    let (set, mut lease) = g.alloc_set::<String>(["a".to_string()]);
    // Anyone can insert (concurrent Deliver).
    g.set_insert(set, &"b".to_string()).unwrap();
    assert!(g.set_contains(set, &"b".to_string()).unwrap());
    assert_eq!(g.set_len(set).unwrap(), 2);
    // Deleting requires the lease and membership.
    g.set_delete(set, &mut lease, &"a".to_string()).unwrap();
    assert!(!g.set_contains(set, &"a".to_string()).unwrap());
    assert!(matches!(
        g.set_delete(set, &mut lease, &"ghost".to_string()),
        Err(GhostError::SetMembership { .. })
    ));
}

#[test]
fn set_lease_dies_on_crash_and_renews_once() {
    let g = ghost();
    let (set, mut lease) = g.alloc_set::<String>(["x".to_string()]);
    g.crash();
    assert!(matches!(
        g.set_delete(set, &mut lease, &"x".to_string()),
        Err(GhostError::StaleVersion { .. })
    ));
    let mut fresh = g.recover_set_lease(set).unwrap();
    assert!(matches!(
        g.recover_set_lease(set),
        Err(GhostError::LeaseAlreadyOut { .. })
    ));
    // The set contents survived the crash.
    g.set_delete(set, &mut fresh, &"x".to_string()).unwrap();
    assert_eq!(g.set_len(set).unwrap(), 0);
}

#[test]
fn set_lease_for_wrong_set_rejected() {
    let g = ghost();
    let (set_a, mut lease_a) = g.alloc_set::<u64>([1u64]);
    let (set_b, _lease_b) = g.alloc_set::<u64>([1u64]);
    let _ = set_a;
    assert!(matches!(
        g.set_delete(set_b, &mut lease_a, &1u64),
        Err(GhostError::WrongLease { .. })
    ));
}

// ---------------------------------------------------------------------
// Refined commits (commit_op_as).
// ---------------------------------------------------------------------

#[test]
fn refined_commit_must_refine_the_invocation() {
    let g = ghost();
    // RegSpec's op_refines is equality: committing a different op fails.
    let tok = g.begin_op(RegOp::Write(0, 1)).unwrap();
    assert!(matches!(
        g.commit_op_as(&tok, RegOp::Write(0, 2)),
        Err(GhostError::OpState { .. })
    ));
}

#[test]
fn commit_as_same_op_is_commit() {
    let g = ghost();
    let tok = g.begin_op(RegOp::Write(2, 9)).unwrap();
    let ret = g.commit_op_as(&tok, RegOp::Write(2, 9)).unwrap();
    g.finish_op(tok, &ret).unwrap();
    assert_eq!(g.spec_state()[&2], 9);
}

// ---------------------------------------------------------------------
// Helping edge cases.
// ---------------------------------------------------------------------

#[test]
fn stash_key_collision_rejected() {
    let g = ghost();
    let t1 = g.begin_op(RegOp::Write(0, 1)).unwrap();
    let t2 = g.begin_op(RegOp::Write(1, 2)).unwrap();
    g.stash_op(&t1, 5).unwrap();
    assert!(matches!(
        g.stash_op(&t2, 5),
        Err(GhostError::HelpKeyBusy { key: 5 })
    ));
}

#[test]
fn unstash_with_wrong_token_rejected() {
    let g = ghost();
    let t1 = g.begin_op(RegOp::Write(0, 1)).unwrap();
    let t2 = g.begin_op(RegOp::Write(1, 2)).unwrap();
    g.stash_op(&t1, 3).unwrap();
    assert!(matches!(
        g.unstash_op(&t2, 3),
        Err(GhostError::HelpTokenMissing { key: 3 })
    ));
}

#[test]
fn drop_help_outside_recovery_rejected() {
    let g = ghost();
    let tok = g.begin_op(RegOp::Write(0, 1)).unwrap();
    g.stash_op(&tok, 0).unwrap();
    assert!(matches!(g.drop_help(0), Err(GhostError::CrashToken { .. })));
}

#[test]
fn helped_op_cannot_finish() {
    // The thread that stashed died; if a zombie token somehow reached
    // finish_op after recovery helped it, the engine rejects it.
    let g = ghost();
    let tok = g.begin_op(RegOp::Write(0, 7)).unwrap();
    g.stash_op(&tok, 0).unwrap();
    g.crash();
    g.help_commit(0).unwrap();
    g.recovery_done().unwrap();
    assert!(matches!(
        g.finish_op(tok, &None),
        Err(GhostError::OpState { .. })
    ));
}

// ---------------------------------------------------------------------
// Trace contents and report shape.
// ---------------------------------------------------------------------

#[test]
fn trace_records_full_lifecycle() {
    let g = Ghost::new(BufSpec);
    let tok = g.begin_op(BufOp::Append(5)).unwrap();
    let ret = g.commit_op(&tok).unwrap();
    g.finish_op(tok, &ret).unwrap();
    g.crash();
    g.recovery_done().unwrap();

    let trace = g.with_trace(Clone::clone);
    let kinds: Vec<&'static str> = trace
        .events()
        .iter()
        .map(|e| match e {
            TraceEvent::Invoke { .. } => "invoke",
            TraceEvent::Commit { .. } => "commit",
            TraceEvent::Return { .. } => "return",
            TraceEvent::Stash { .. } => "stash",
            TraceEvent::Unstash { .. } => "unstash",
            TraceEvent::HelpCommit { .. } => "help",
            TraceEvent::Crash { .. } => "crash",
            TraceEvent::RecoveryDone { .. } => "recovered",
        })
        .collect();
    assert_eq!(
        kinds,
        vec!["invoke", "commit", "return", "crash", "recovered"]
    );
    assert_eq!(trace.commits(), 1);
    assert_eq!(trace.crashes(), 1);
    // The render is one line per event and mentions the op.
    let rendered = trace.render();
    assert_eq!(rendered.lines().count(), 5);
    assert!(rendered.contains("Append"));
}

#[test]
fn report_summary_is_informative() {
    let g = ghost();
    let tok = g.begin_op(RegOp::Write(0, 1)).unwrap();
    let ret = g.commit_op(&tok).unwrap();
    g.finish_op(tok, &ret).unwrap();
    let report = g.validate().unwrap();
    let s = report.summary();
    assert!(s.contains("1 invoked"), "{s}");
    assert!(s.contains("1 finished"), "{s}");
    assert_eq!(report.commits, 1);
    assert_eq!(report.version, 0);
}

// ---------------------------------------------------------------------
// Volatile cells: type confusion and dangling access.
// ---------------------------------------------------------------------

#[test]
fn volatile_roundtrip_and_dangling() {
    let g = ghost();
    let mut p = g.alloc_vol(String::from("v0"));
    g.write_vol(&mut p, String::from("v1")).unwrap();
    assert_eq!(g.read_vol(&p).unwrap(), "v1");
    g.crash();
    // After a crash the cell is gone; even a fresh-looking version check
    // fails first, so allocate anew.
    g.recovery_done().unwrap();
    let p2 = g.alloc_vol(7u64);
    assert_eq!(g.read_vol(&p2).unwrap(), 7);
}

#[test]
fn internal_step_respects_guards() {
    use perennial_spec::{Step, Transition};
    let g = Ghost::new(BufSpec);
    // A guard that requires a non-empty log: blocked initially.
    let guarded = Transition::guard(|s: &perennial_spec::fixtures::BufState| !s.entries.is_empty());
    assert!(matches!(
        g.internal_step(guarded.boxed()),
        Err(GhostError::SpecStep { .. })
    ));
}

// ---------------------------------------------------------------------
// Every guard's exact report, and which guard wins when a call breaks
// two rules at once. These bytes reach `failure_fingerprint` and every
// mutant's report fingerprint, so they are pinned verbatim. "Unknown"
// ids and tokens come from a second engine: the only way safe code can
// hold a capability this engine never minted.
// ---------------------------------------------------------------------

fn text<T: std::fmt::Debug>(r: Result<T, GhostError>) -> String {
    r.unwrap_err().to_string()
}

/// A spec whose every op is disabled and whose crash step is undefined.
#[derive(Debug, Clone)]
struct Stuck;

impl perennial_spec::SpecTS for Stuck {
    type State = ();
    type Op = ();
    type Ret = ();
    fn init(&self) {}
    fn op_transition(&self, _: &()) -> perennial_spec::Transition<(), ()> {
        perennial_spec::Transition::blocked().boxed()
    }
    fn crash_transition(&self) -> perennial_spec::Transition<(), ()> {
        perennial_spec::Transition::undefined().boxed()
    }
}

#[test]
fn op_token_guards_report_exactly() {
    let g = ghost();
    let foreign = ghost().begin_op(RegOp::Write(0, 1)).unwrap();
    assert_eq!(text(g.commit_op(&foreign)), "op j0: commit of unknown op");
    assert_eq!(
        text(g.commit_op_as(&foreign, RegOp::Write(0, 1))),
        "op j0: commit of unknown op"
    );
    assert_eq!(text(g.stash_op(&foreign, 1)), "op j0: stash of unknown op");
    assert_eq!(
        text(g.finish_op(foreign, &None)),
        "op j0: finish of unknown op"
    );

    let g = ghost();
    let tok = g.begin_op(RegOp::Read(0)).unwrap();
    assert_eq!(
        text(g.finish_op(tok, &Some(0))),
        "op j0: finish requires a committed op (missing linearization point?)"
    );
    let tok = g.begin_op(RegOp::Read(0)).unwrap();
    assert_eq!(
        text(g.commit_op_as(&tok, RegOp::Read(1))),
        "op j1: committed op is not a refinement of the invoked op"
    );
    g.commit_op(&tok).unwrap();
    assert_eq!(
        text(g.commit_op(&tok)),
        "op j1: commit requires the op to be pending (not stashed/committed)"
    );
    // Not pending *and* not a refinement: the phase is checked first.
    assert_eq!(
        text(g.commit_op_as(&tok, RegOp::Read(1))),
        "op j1: commit requires the op to be pending (not stashed/committed)"
    );
    assert_eq!(
        text(g.stash_op(&tok, 9)),
        "op j1: only pending ops can be stashed for helping"
    );
    assert_eq!(
        text(g.finish_op(tok, &Some(99))),
        "op j1: implementation returned Some(99) but spec produced Some(0)"
    );
}

#[test]
fn spec_step_failures_report_exactly_and_change_nothing() {
    let g = ghost();
    let tok = g.begin_op(RegOp::Read(100)).unwrap();
    assert_eq!(
        text(g.commit_op(&tok)),
        "op j0: spec step failed: spec step hit undefined behaviour"
    );
    assert_eq!(
        text(g.internal_step(perennial_spec::Transition::undefined().boxed())),
        "crash step failed: spec step hit undefined behaviour"
    );
    assert_eq!(
        text(g.internal_step(perennial_spec::Transition::blocked().boxed())),
        "crash step failed: spec step not enabled"
    );

    let g = Ghost::new(Stuck);
    let tok = g.begin_op(()).unwrap();
    assert_eq!(
        text(g.commit_op(&tok)),
        "op j0: spec step failed: spec step not enabled"
    );
    // The failed commit left the op pending: it can still be stashed.
    g.stash_op(&tok, 4).unwrap();
    g.crash();
    assert_eq!(
        text(g.help_commit(4)),
        "op j0: spec step failed: spec step not enabled"
    );
    // The failed redemption left the token in the crash invariant.
    assert!(g.has_help(4));
    assert_eq!(
        text(g.recovery_done()),
        "crash step failed: spec step hit undefined behaviour"
    );
    // The failed crash step did not spend ⇛Crashing.
    assert_eq!(g.crash_token(), perennial::CrashToken::Crashing);
}

#[test]
fn helping_and_crash_token_guards_report_exactly() {
    let g = ghost();
    let t1 = g.begin_op(RegOp::Write(0, 1)).unwrap();
    g.stash_op(&t1, 5).unwrap();
    // A busy key *and* an unknown op: the key is checked first.
    let stranger = {
        let other = ghost();
        other.begin_op(RegOp::Read(0)).unwrap();
        other.begin_op(RegOp::Read(0)).unwrap()
    };
    assert_eq!(
        text(g.stash_op(&stranger, 5)),
        "helping key 5 already holds a token"
    );
    assert_eq!(text(g.stash_op(&stranger, 6)), "op j1: stash of unknown op");

    assert_eq!(
        text(g.unstash_op(&t1, 3)),
        "no helping token stashed under key 3"
    );
    // Not in recovery *and* no such key: the crash token is checked first.
    assert_eq!(
        text(g.help_commit(77)),
        "crash token misuse: help_commit outside recovery (⇛Crashing not armed)"
    );
    assert_eq!(
        text(g.drop_help(77)),
        "crash token misuse: drop_help outside recovery (⇛Crashing not armed)"
    );
    assert_eq!(
        text(g.recovery_done()),
        "crash token misuse: recovery_done but ⇛Crashing is not armed"
    );
    g.crash();
    assert_eq!(
        text(g.begin_op(RegOp::Read(0))),
        "crash token misuse: begin_op while recovery has not spent ⇛Crashing"
    );
    assert_eq!(
        text(g.help_commit(77)),
        "no helping token stashed under key 77"
    );
    assert_eq!(
        text(g.drop_help(77)),
        "no helping token stashed under key 77"
    );
}

#[test]
fn dropped_help_aborts_the_op() {
    let g = ghost();
    let tok = g.begin_op(RegOp::Write(0, 1)).unwrap();
    g.stash_op(&tok, 2).unwrap();
    g.crash();
    assert_eq!(g.drop_help(2).unwrap(), tok.jid());
    assert!(!g.has_help(2));
    g.recovery_done().unwrap();
    let report = g.validate().unwrap();
    assert_eq!((report.aborted, report.helped), (1, 0));
    assert_eq!(g.spec_state()[&0], 0);
}

#[test]
fn volatile_guards_report_exactly_and_in_order() {
    let other = ghost();
    let mut foreign = other.alloc_vol(String::from("x"));

    let g = ghost();
    assert_eq!(text(g.read_vol(&foreign)), "unknown ghost resource 0");
    assert_eq!(
        text(g.write_vol(&mut foreign, String::new())),
        "unknown ghost resource 0"
    );
    let mine = g.alloc_vol(7u64);
    assert_eq!(
        text(g.read_vol(&foreign)),
        "ghost resource 0: type mismatch"
    );
    g.crash();
    // Stale *and* dangling (the crash cleared the table): stale wins.
    assert_eq!(
        text(g.read_vol(&mine)),
        "stale points-to: capability version 0 but execution is at 1"
    );
    assert_eq!(
        text(g.write_vol(&mut foreign, String::new())),
        "stale points-to: capability version 0 but execution is at 1"
    );
}

#[test]
fn durable_cell_guards_report_exactly_and_in_order() {
    // `other` mints ids 0 and 1 and leases at versions 0 and 1; `g` has
    // no cell at all and is at version 1.
    let other = ghost();
    let (cell0, mut lease0) = other.alloc_durable(0u64);
    let (cell1, _lease1) = other.alloc_durable(0u64);
    other.crash();
    let mut fresh0 = other.recover_lease(cell0).unwrap();
    let g = ghost();
    g.crash();

    // Foreign, stale and missing at once: wrong lease, then stale, then
    // unknown — for reads and writes alike.
    let wrong = "lease for resource 0 presented for resource 1";
    let stale = "stale lease: capability version 0 but execution is at 1";
    let unknown = "unknown ghost resource 0";
    assert_eq!(text(g.read_durable(cell1, &lease0)), wrong);
    assert_eq!(text(g.write_durable(cell1, &mut lease0, 1)), wrong);
    assert_eq!(text(g.read_durable(cell0, &lease0)), stale);
    assert_eq!(text(g.write_durable(cell0, &mut lease0, 1)), stale);
    assert_eq!(text(g.read_durable(cell0, &fresh0)), unknown);
    assert_eq!(text(g.write_durable(cell0, &mut fresh0, 1)), unknown);
    assert_eq!(text(g.read_master(cell0)), unknown);
    assert_eq!(text(g.recover_lease(cell0)), unknown);

    let (_mine, _lease) = g.alloc_durable(String::from("s"));
    assert_eq!(
        text(g.read_master(cell0)),
        "ghost resource 0: type mismatch"
    );
    assert_eq!(
        text(g.read_durable(cell0, &fresh0)),
        "ghost resource 0: type mismatch"
    );
    // A write keeps the cell's type: it does not retype the cell.
    assert_eq!(
        text(g.write_durable(cell0, &mut fresh0, 1)),
        "ghost resource 0: type mismatch"
    );
    // Allocation minted this version's lease already.
    assert_eq!(
        text(g.recover_lease(cell0)),
        "lease for resource 0 already outstanding this version"
    );
}

#[test]
fn durable_set_guards_report_exactly_and_in_order() {
    let other = ghost();
    let (set0, mut lease0) = other.alloc_set::<u64>([1u64]);
    let (set1, _lease1) = other.alloc_set::<u64>([1u64]);
    other.crash();
    let mut fresh0 = other.recover_set_lease(set0).unwrap();
    let g = ghost();
    g.crash();

    let unknown = "unknown ghost resource 0";
    assert_eq!(
        text(g.set_delete(set1, &mut lease0, &1)),
        "lease for resource 0 presented for resource 1"
    );
    assert_eq!(
        text(g.set_delete(set0, &mut lease0, &1)),
        "stale set lease: capability version 0 but execution is at 1"
    );
    assert_eq!(text(g.set_delete(set0, &mut fresh0, &1)), unknown);
    assert_eq!(text(g.set_insert(set0, &1)), unknown);
    assert_eq!(text(g.set_contains(set0, &1)), unknown);
    assert_eq!(text(g.set_len(set0)), unknown);
    assert_eq!(text(g.recover_set_lease(set0)), unknown);

    let (mine, _lease) = g.alloc_set::<u64>([]);
    assert_eq!(
        text(g.set_delete(mine, &mut fresh0, &1)),
        "durable set 0: deleting a non-member"
    );
    assert_eq!(
        text(g.recover_set_lease(mine)),
        "lease for resource 0 already outstanding this version"
    );
}

#[test]
fn validation_reports_exactly_and_is_not_sticky() {
    let g = ghost();
    let _pending = g.begin_op(RegOp::Read(0)).unwrap();
    let stashed = g.begin_op(RegOp::Read(1)).unwrap();
    g.stash_op(&stashed, 0).unwrap();
    assert_eq!(
        text(g.validate()),
        "validation failed: execution ended with 1 pending and 1 stashed ops \
         (threads neither returned nor crashed)"
    );
    g.crash();
    // Armed *and* a stashed op left: the crash token is checked first.
    assert_eq!(
        text(g.validate()),
        "validation failed: execution ended with ⇛Crashing armed (recovery never completed)"
    );
    // An unmet end-of-execution obligation is not a discipline violation.
    assert_eq!(g.first_error(), None);
    // A violation is, it beats both, and only the first one sticks.
    assert!(g.begin_op(RegOp::Read(0)).is_err());
    assert!(g.help_commit(9).is_err());
    let first = "crash token misuse: begin_op while recovery has not spent ⇛Crashing";
    assert_eq!(text(g.validate()), first);
    assert_eq!(g.first_error().unwrap().to_string(), first);
}

#[test]
fn lock_invariant_misuse_reports_exactly() {
    let inv = perennial::LockInv::new(0u8);
    assert_eq!(
        text(inv.put(1)),
        "lock invariant misuse: bundle returned while not taken"
    );
    inv.take().unwrap();
    assert_eq!(
        text(inv.take()),
        "lock invariant misuse: bundle taken while already taken (lock not actually exclusive?)"
    );
}
