//! Property-based tests for the ghost engine: random well-formed
//! op/crash sequences always validate, the abstract state tracks a
//! reference model exactly, and random *rule-breaking* sequences always
//! fail.

use perennial::{
    CrashToken, DurId, Fnv1a, Ghost, GhostError, Lease, OpToken, PointsTo, SetId, SetLease,
    TraceEvent,
};
use perennial_spec::fixtures::{RegOp, RegSpec};
use perennial_spec::Encode;
use proptest::prelude::*;
use std::collections::BTreeMap;

const NREGS: u64 = 6;

/// One scripted action against the engine.
#[derive(Debug, Clone)]
enum Action {
    /// Complete a write op correctly (begin/commit/finish).
    Write(u64, u64),
    /// Complete a read op correctly.
    Read(u64),
    /// Begin a write, stash it for helping, then crash before commit.
    CrashMidWrite(u64, u64),
    /// Crash with nothing in flight.
    Crash,
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0..NREGS, 0u64..100).prop_map(|(a, v)| Action::Write(a, v)),
        (0..NREGS).prop_map(Action::Read),
        (0..NREGS, 0u64..100).prop_map(|(a, v)| Action::CrashMidWrite(a, v)),
        Just(Action::Crash),
    ]
}

/// One engine call, legal or not: the interpreter below makes it
/// whatever state the engine is in. Indices pick among the tokens and
/// leases the script has accumulated (dead ones included).
#[derive(Debug, Clone)]
enum Call {
    Begin(u64, u64),
    Commit(usize),
    CommitAs(usize, u64),
    Finish(usize, Option<u64>),
    Stash(usize, u64),
    Unstash(usize, u64),
    Help(u64),
    DropHelp(u64),
    Crash,
    Recovered,
    ReadVol,
    WriteDurable(usize),
    RecoverLease,
    SetDelete(usize, u64),
    RecoverSetLease,
}

fn arb_call() -> impl Strategy<Value = Call> {
    let reg = || 0..NREGS + 1; // one past the end: spec-level UB
    let key = || 0u64..3;
    prop_oneof![
        (reg(), 0u64..4).prop_map(|(a, v)| Call::Begin(a, v)),
        (reg(), 0u64..4).prop_map(|(a, v)| Call::Begin(a, v)),
        (0usize..8).prop_map(Call::Commit),
        (0usize..8).prop_map(Call::Commit),
        (0usize..8, 0u64..4).prop_map(|(i, v)| Call::CommitAs(i, v)),
        (0usize..8).prop_map(|i| Call::Finish(i, None)),
        (0usize..8, 0u64..4).prop_map(|(i, v)| Call::Finish(i, Some(v))),
        (0usize..8, key()).prop_map(|(i, k)| Call::Stash(i, k)),
        (0usize..8, key()).prop_map(|(i, k)| Call::Unstash(i, k)),
        key().prop_map(Call::Help),
        key().prop_map(Call::DropHelp),
        Just(Call::Crash),
        Just(Call::Recovered),
        Just(Call::ReadVol),
        (0usize..4).prop_map(Call::WriteDurable),
        Just(Call::RecoverLease),
        (0usize..4, 0u64..3).prop_map(|(i, x)| Call::SetDelete(i, x)),
        Just(Call::RecoverSetLease),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A well-behaved interpreter of random scripts always validates,
    /// and σ equals an independently maintained reference model.
    #[test]
    fn engine_tracks_reference_model(script in proptest::collection::vec(arb_action(), 1..40)) {
        let g = Ghost::new(RegSpec { size: NREGS });
        let mut reference: BTreeMap<u64, u64> = (0..NREGS).map(|a| (a, 0)).collect();

        for action in &script {
            match action {
                Action::Write(a, v) => {
                    let tok = g.begin_op(RegOp::Write(*a, *v)).unwrap();
                    let ret = g.commit_op(&tok).unwrap();
                    g.finish_op(tok, &ret).unwrap();
                    reference.insert(*a, *v);
                }
                Action::Read(a) => {
                    let tok = g.begin_op(RegOp::Read(*a)).unwrap();
                    let ret = g.commit_op(&tok).unwrap();
                    prop_assert_eq!(ret, Some(reference[a]));
                    g.finish_op(tok, &ret).unwrap();
                }
                Action::CrashMidWrite(a, v) => {
                    let tok = g.begin_op(RegOp::Write(*a, *v)).unwrap();
                    g.stash_op(&tok, *a).unwrap();
                    g.crash();
                    // Recovery decides to complete the write (helping).
                    let (_j, _ret) = g.help_commit(*a).unwrap();
                    reference.insert(*a, *v);
                    g.recovery_done().unwrap();
                }
                Action::Crash => {
                    g.crash();
                    g.recovery_done().unwrap();
                }
            }
        }
        let report = g.validate().unwrap();
        let sigma = g.spec_state();
        prop_assert_eq!(sigma, reference);
        prop_assert_eq!(report.crashes,
            script.iter().filter(|a| matches!(a, Action::Crash | Action::CrashMidWrite(..))).count());
        // Every event kind a correct run records, helped commits included.
        let (running, folded) = g.with_trace(|t| (t.fingerprint(), fold(t.events())));
        prop_assert_eq!(running.finish(), folded);
    }

    /// After any number of crashes, a lease minted pre-crash is dead and
    /// exactly one fresh lease per resource per version can be minted.
    #[test]
    fn lease_uniqueness_per_version(crashes in 1usize..5) {
        let g = Ghost::new(RegSpec { size: 1 });
        let (cell, mut lease) = g.alloc_durable(0u64);
        for round in 0..crashes {
            g.crash();
            g.recovery_done().unwrap();
            // The old lease is dead.
            let stale = matches!(
                g.write_durable(cell, &mut lease, round as u64),
                Err(GhostError::StaleVersion { .. })
            );
            prop_assert!(stale);
            // Exactly one renewal succeeds.
            let mut fresh = g.recover_lease(cell).unwrap();
            let dup = matches!(
                g.recover_lease(cell),
                Err(GhostError::LeaseAlreadyOut { .. })
            );
            prop_assert!(dup);
            g.write_durable(cell, &mut fresh, round as u64).unwrap();
            prop_assert_eq!(g.read_master(cell).unwrap(), round as u64);
            lease = fresh;
        }
    }

    /// Uncommitted, unstashed ops cut off by a crash never affect σ.
    #[test]
    fn aborted_ops_leave_no_trace(writes in proptest::collection::vec((0..NREGS, 0u64..100), 1..10)) {
        let g = Ghost::new(RegSpec { size: NREGS });
        let mut toks = Vec::new();
        for (a, v) in &writes {
            toks.push(g.begin_op(RegOp::Write(*a, *v)).unwrap());
        }
        g.crash();
        drop(toks);
        g.recovery_done().unwrap();
        let sigma = g.spec_state();
        for a in 0..NREGS {
            prop_assert_eq!(sigma[&a], 0, "aborted write leaked into σ");
        }
        let report = g.validate().unwrap();
        prop_assert_eq!(report.aborted, writes.len());
    }

    /// Helping tokens cannot be redeemed twice, regardless of key.
    #[test]
    fn help_tokens_single_use(key in 0u64..8) {
        // Happy path on a clean engine: one redemption, validates.
        let g = Ghost::new(RegSpec { size: NREGS });
        let tok = g.begin_op(RegOp::Write(key % NREGS, 7)).unwrap();
        g.stash_op(&tok, key).unwrap();
        g.crash();
        g.help_commit(key).unwrap();
        g.recovery_done().unwrap();
        prop_assert!(g.validate().is_ok());

        // Double redemption on a second engine: fails while ⇛Crashing is
        // still armed, and — ghost errors being sticky — poisons
        // validation even after a completed recovery.
        let g = Ghost::new(RegSpec { size: NREGS });
        let tok = g.begin_op(RegOp::Write(key % NREGS, 7)).unwrap();
        g.stash_op(&tok, key).unwrap();
        g.crash();
        g.help_commit(key).unwrap();
        let missing = matches!(
            g.help_commit(key),
            Err(GhostError::HelpTokenMissing { .. })
        );
        prop_assert!(missing);
        g.recovery_done().unwrap();
        prop_assert!(g.validate().is_err());
    }

    /// The crash token is never left armed by a correct interpreter and
    /// validation always rejects an armed one.
    #[test]
    fn armed_crash_token_rejected(n_ops in 0usize..5) {
        let g = Ghost::new(RegSpec { size: NREGS });
        for i in 0..n_ops {
            let tok = g.begin_op(RegOp::Write(i as u64 % NREGS, i as u64)).unwrap();
            let ret = g.commit_op(&tok).unwrap();
            g.finish_op(tok, &ret).unwrap();
        }
        g.crash();
        prop_assert_eq!(g.crash_token(), CrashToken::Crashing);
        let rejected = matches!(g.validate(), Err(GhostError::Validation { .. }));
        prop_assert!(rejected);
        g.recovery_done().unwrap();
        prop_assert!(g.validate().is_ok());
    }

    /// Whatever a script does, legal or not, the first `Err` any call
    /// returned is the error `first_error()` and `validate()` report
    /// afterwards — and they report none when no call failed.
    #[test]
    fn first_error_returned_is_the_error_reported(script in proptest::collection::vec(arb_call(), 1..60)) {
        let mut run = Interp::new();
        let mut first: Option<GhostError> = None;
        for call in &script {
            let err = run.call(call);
            if first.is_none() {
                first = err;
            }
        }
        let g = &run.g;
        prop_assert_eq!(g.first_error(), first.clone());
        match first {
            Some(e) => prop_assert_eq!(g.validate().err(), Some(e)),
            None => {
                let unmet = matches!(g.validate(), Ok(_) | Err(GhostError::Validation { .. }));
                prop_assert!(unmet);
                prop_assert_eq!(g.first_error(), None);
            }
        }
    }

    /// The fingerprint kept as events arrive is, after every call of any
    /// script — crashes, helping and recovery, legal or not — the fold of
    /// the encodings of the events `events()` holds then, rendered one
    /// line per event, and before the first event the hash of no bytes
    /// (what an execution whose harness panicked reports).
    #[test]
    fn running_fingerprint_is_the_fold_of_the_encodings(script in proptest::collection::vec(arb_call(), 1..60)) {
        let mut run = Interp::new();
        prop_assert_eq!(run.g.with_trace(|t| t.fingerprint()), Fnv1a::default());
        prop_assert_eq!(Fnv1a::default().finish(), 0xcbf2_9ce4_8422_2325);
        prop_assert_eq!(run.g.with_trace(|t| t.events().len()), 0);
        for call in &script {
            run.call(call);
            let (running, folded, rendered, len) = run.g.with_trace(|t| {
                (t.fingerprint(), fold(t.events()), t.render(), t.events().len())
            });
            prop_assert_eq!(running.finish(), folded, "after {:?}:\n{}", call, rendered);
            prop_assert_eq!(rendered.lines().count(), len);
        }
    }

    /// The encoding tells traces apart exactly as the rendering does: of
    /// every trace two scripts pass through (after each call; failed
    /// calls record nothing, so equal traces are common), two have equal
    /// encodings if and only if they have equal renderings. So
    /// fingerprinting the encoding partitions executions as
    /// fingerprinting the rendering did.
    #[test]
    fn equal_encodings_iff_equal_renderings(
        a in proptest::collection::vec(arb_call(), 1..30),
        b in proptest::collection::vec(arb_call(), 1..30),
    ) {
        let seen: Vec<(Vec<u8>, String)> = [a, b]
            .iter()
            .flat_map(|script| {
                let mut run = Interp::new();
                let mut seen = vec![run.g.with_trace(|t| (encoding(t.events()), t.render()))];
                for call in script {
                    run.call(call);
                    seen.push(run.g.with_trace(|t| (encoding(t.events()), t.render())));
                }
                seen
            })
            .collect();
        for (enc_x, text_x) in &seen {
            for (enc_y, text_y) in &seen {
                prop_assert_eq!(enc_x == enc_y, text_x == text_y, "\n{}\nvs\n{}", text_x, text_y);
            }
        }
    }
}

type Event = TraceEvent<RegOp, Option<u64>>;

/// The encodings of `events`, concatenated.
fn encoding(events: &[Event]) -> Vec<u8> {
    let mut bytes = Vec::new();
    events.iter().for_each(|ev| ev.encode(&mut bytes));
    bytes
}

/// FNV-1a over the encodings of `events`, in one piece.
fn fold(events: &[Event]) -> u64 {
    let mut whole = Fnv1a::default();
    whole.write(&encoding(events));
    whole.finish()
}

/// An interpreter for [`Call`] scripts: makes each call against whatever
/// state the engine is in, keeping every token and lease the script has
/// accumulated, and returns the call's error if it had one.
struct Interp {
    g: std::sync::Arc<Ghost<RegSpec>>,
    toks: Vec<OpToken>,
    vol: PointsTo<u64>,
    cell: DurId<u64>,
    leases: Vec<Lease<u64>>,
    set: SetId<u64>,
    set_leases: Vec<SetLease<u64>>,
}

impl Interp {
    fn new() -> Self {
        let g = Ghost::new(RegSpec { size: NREGS });
        let vol = g.alloc_vol(0u64);
        let (cell, lease) = g.alloc_durable(0u64);
        let (set, set_lease) = g.alloc_set::<u64>([0u64, 1]);
        Interp {
            g,
            toks: Vec::new(),
            vol,
            cell,
            leases: vec![lease],
            set,
            set_leases: vec![set_lease],
        }
    }

    fn call(&mut self, call: &Call) -> Option<GhostError> {
        let Interp {
            g,
            toks,
            vol,
            cell,
            leases,
            set,
            set_leases,
        } = self;
        match call {
            Call::Begin(a, v) => match g.begin_op(RegOp::Write(*a, *v)) {
                Ok(tok) => {
                    toks.push(tok);
                    None
                }
                Err(e) => Some(e),
            },
            Call::Crash => {
                g.crash();
                None
            }
            Call::Recovered => g.recovery_done().err(),
            Call::Help(k) => g.help_commit(*k).err(),
            Call::DropHelp(k) => g.drop_help(*k).err(),
            Call::ReadVol => g.read_vol(vol).err(),
            Call::RecoverLease => match g.recover_lease(*cell) {
                Ok(l) => {
                    leases.push(l);
                    None
                }
                Err(e) => Some(e),
            },
            Call::RecoverSetLease => match g.recover_set_lease(*set) {
                Ok(l) => {
                    set_leases.push(l);
                    None
                }
                Err(e) => Some(e),
            },
            Call::WriteDurable(i) => {
                let n = leases.len();
                g.write_durable(*cell, &mut leases[i % n], 1).err()
            }
            Call::SetDelete(i, x) => {
                let n = set_leases.len();
                g.set_delete(*set, &mut set_leases[i % n], x).err()
            }
            _ if toks.is_empty() => None,
            Call::Commit(i) => g.commit_op(&toks[i % toks.len()]).err(),
            Call::CommitAs(i, v) => g
                .commit_op_as(&toks[i % toks.len()], RegOp::Write(0, *v))
                .err(),
            Call::Stash(i, k) => g.stash_op(&toks[i % toks.len()], *k).err(),
            Call::Unstash(i, k) => g.unstash_op(&toks[i % toks.len()], *k).err(),
            Call::Finish(i, ret) => {
                let tok = toks.remove(i % toks.len());
                g.finish_op(tok, ret).err()
            }
        }
    }
}
