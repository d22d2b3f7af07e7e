//! Property-based tests for the transition DSL: monad laws and
//! partiality propagation hold for arbitrary state contents, and the
//! borrowing step agrees with `run` on generated transitions.

use perennial::{Ghost, GhostError};
use perennial_spec::fixtures::{RegSpec, RegState};
use perennial_spec::system::ReplayError;
use perennial_spec::{Outcome, Transition};
use proptest::prelude::*;
use std::collections::BTreeMap;

type S = BTreeMap<u64, u64>;

fn arb_state() -> impl Strategy<Value = S> {
    proptest::collection::btree_map(0u64..16, 0u64..100, 0..8)
}

proptest! {
    // Left identity: ret(v).and_then(f) == f(v).
    #[test]
    fn monad_left_identity(s in arb_state(), v in 0u64..100, k in 0u64..16) {
        let f = move |x: u64| -> Transition<S, u64> {
            Transition::gets(move |st: &S| st.get(&k).copied().unwrap_or(0) + x)
        };
        let lhs = Transition::<S, u64>::ret(v).and_then(f);
        let rhs = f(v);
        prop_assert_eq!(lhs.run(&s), rhs.run(&s));
    }

    // Right identity: t.and_then(ret) == t.
    #[test]
    fn monad_right_identity(s in arb_state(), k in 0u64..16) {
        let t: Transition<S, u64> = Transition::gets(move |st: &S| st.get(&k).copied().unwrap_or(7));
        let lhs = t.clone().and_then(Transition::ret);
        prop_assert_eq!(lhs.run(&s), t.run(&s));
    }

    // Associativity: (t >>= f) >>= g == t >>= (|x| f(x) >>= g).
    #[test]
    fn monad_associativity(s in arb_state(), k in 0u64..16, d in 1u64..5) {
        let t: Transition<S, u64> = Transition::gets(move |st: &S| st.len() as u64 + k);
        let f = move |x: u64| -> Transition<S, u64> { Transition::ret(x + d) };
        let g = move |x: u64| -> Transition<S, u64> {
            Transition::modify(move |st: &S| {
                let mut st = st.clone();
                st.insert(x % 16, x);
                st
            })
            .map(move |()| x * 2)
        };
        let lhs = t.clone().and_then(f).and_then(g);
        let rhs = t.and_then(move |x| f(x).and_then(g));
        prop_assert_eq!(lhs.run(&s), rhs.run(&s));
    }

    // gets never mutates the state.
    #[test]
    fn gets_is_pure(s in arb_state(), k in 0u64..16) {
        let t: Transition<S, Option<u64>> = Transition::gets(move |st: &S| st.get(&k).copied());
        match t.run(&s) {
            Outcome::Ok(s2, _) => prop_assert_eq!(s2, s),
            other => prop_assert!(false, "unexpected outcome {:?}", other),
        }
    }

    // Undefined is absorbing on both sides of bind.
    #[test]
    fn undefined_absorbs(s in arb_state()) {
        let left: Transition<S, u64> =
            Transition::<S, u64>::undefined().and_then(Transition::ret);
        prop_assert_eq!(left.run(&s), Outcome::Undefined);
        let right: Transition<S, u64> =
            Transition::<S, u64>::ret(1).and_then(|_| Transition::undefined());
        prop_assert_eq!(right.run(&s), Outcome::Undefined);
    }

    // modify composes like function composition.
    #[test]
    fn modify_composes(s in arb_state(), a in 0u64..16, v1 in 0u64..100, v2 in 0u64..100) {
        let w = |a: u64, v: u64| -> Transition<S, ()> {
            Transition::modify(move |st: &S| {
                let mut st = st.clone();
                st.insert(a, v);
                st
            })
        };
        let seq = w(a, v1).and_then(move |()| w(a, v2));
        let (s2, ()) = seq.run(&s).unwrap();
        prop_assert_eq!(s2.get(&a).copied(), Some(v2));
    }

    /// The read-only combinators — `ret`, `gets`, `check`, `guard`,
    /// `skip`, and `and_then`/`map` over them — report the state
    /// unchanged rather than a copy of it.
    #[test]
    fn read_only_combinators_report_the_state_unchanged(
        s in arb_state(),
        atoms in proptest::collection::vec(arb_read(), 0..8),
    ) {
        match chain(&atoms).step(&s) {
            Ok((None, _)) | Err(_) => {}
            Ok((Some(s2), _)) => prop_assert!(false, "{:?} reported a new state {:?}", atoms, s2),
        }
    }

    /// `run` is the borrowing step with an unchanged state cloned into
    /// the outcome, and both agree with a reference interpreter that
    /// threads an owned state through every atom.
    #[test]
    fn run_is_the_borrowing_step_plus_a_clone(
        s in arb_state(),
        atoms in proptest::collection::vec(arb_atom(), 0..8),
    ) {
        let t = chain(&atoms);
        let stepped = match t.step(&s) {
            Ok((s2, v)) => Outcome::Ok(s2.unwrap_or_else(|| s.clone()), v),
            Err(ReplayError::Undefined) => Outcome::Undefined,
            Err(ReplayError::Blocked) => Outcome::Blocked,
            Err(e) => unreachable!("a transition fails with no other error: {e:?}"),
        };
        prop_assert_eq!(t.run(&s), stepped);
        prop_assert_eq!(t.run(&s), reference(&atoms, s.clone()));
    }

    /// A step whose `and_then` half is undefined or blocked after a
    /// `modify` is no step: the ghost engine reports `SpecStep` and its
    /// σ is the one it had before.
    #[test]
    fn a_partial_step_after_a_modify_leaves_sigma_untouched(
        writes in proptest::collection::vec((0u64..4, 1u64..100), 0..4),
        a in 0u64..4,
        v in 1u64..100,
        blocked in any::<bool>(),
    ) {
        let g = Ghost::new(RegSpec { size: 4 });
        for (a, v) in writes {
            g.internal_step(&write(a, v)).unwrap();
        }
        let before = g.spec_state();
        let t = write(a, v).and_then(move |()| {
            if blocked { Transition::blocked() } else { Transition::undefined() }
        });
        let err = if blocked { ReplayError::Blocked } else { ReplayError::Undefined };
        prop_assert_eq!(g.internal_step(&t), Err(GhostError::SpecStep { jid: None, err }));
        prop_assert_eq!(g.spec_state(), before);
    }
}

/// `modify` that sets register `a` to `v`.
fn write(a: u64, v: u64) -> Transition<RegState, ()> {
    Transition::modify(move |st: &RegState| {
        let mut st = st.clone();
        st.insert(a, v);
        st
    })
}

/// One link of a generated transition: each takes the value so far.
#[derive(Debug, Clone)]
enum Atom {
    Ret(u64),
    Gets(u64),
    Check(u64),
    Guard(u64),
    Skip,
    Map(u64),
    Modify(u64, u64),
    Undefined,
    Blocked,
}

fn arb_read() -> impl Strategy<Value = Atom> {
    prop_oneof![
        (0u64..100).prop_map(Atom::Ret),
        (0u64..16).prop_map(Atom::Gets),
        (0u64..16).prop_map(Atom::Check),
        (0u64..16).prop_map(Atom::Guard),
        Just(Atom::Skip),
        (0u64..100).prop_map(Atom::Map),
    ]
}

fn arb_atom() -> impl Strategy<Value = Atom> {
    prop_oneof![
        arb_read(),
        arb_read(),
        arb_read(),
        (0u64..16, 0u64..100).prop_map(|(a, v)| Atom::Modify(a, v)),
        (0u64..16, 0u64..100).prop_map(|(a, v)| Atom::Modify(a, v)),
        Just(Atom::Undefined),
        Just(Atom::Blocked),
    ]
}

/// `ret 0` followed by each atom, bound in order.
fn chain(atoms: &[Atom]) -> Transition<S, u64> {
    atoms
        .iter()
        .fold(Transition::ret(0), |t, atom| match *atom {
            Atom::Map(d) => t.map(move |x| x + d),
            Atom::Ret(v) => t.and_then(move |x| Transition::ret(x + v)),
            Atom::Gets(k) => t.and_then(move |x| {
                Transition::gets(move |st: &S| st.get(&k).copied().unwrap_or(0) + x)
            }),
            Atom::Check(k) => t.and_then(move |x| {
                Transition::check(move |st: &S| st.contains_key(&k)).map(move |()| x)
            }),
            Atom::Guard(k) => t.and_then(move |x| {
                Transition::guard(move |st: &S| !st.contains_key(&k)).map(move |()| x)
            }),
            Atom::Skip => t.and_then(|x| Transition::skip().map(move |()| x)),
            Atom::Modify(a, v) => t.and_then(move |x| write(a, v).map(move |()| x)),
            Atom::Undefined => t.and_then(|_| Transition::undefined()),
            Atom::Blocked => t.and_then(|_| Transition::blocked()),
        })
}

/// What [`chain`] computes, over an owned state.
fn reference(atoms: &[Atom], mut st: S) -> Outcome<S, u64> {
    let mut x = 0;
    for atom in atoms {
        match *atom {
            Atom::Map(d) | Atom::Ret(d) => x += d,
            Atom::Gets(k) => x += st.get(&k).copied().unwrap_or(0),
            Atom::Check(k) if !st.contains_key(&k) => return Outcome::Undefined,
            Atom::Guard(k) if st.contains_key(&k) => return Outcome::Blocked,
            Atom::Check(_) | Atom::Guard(_) | Atom::Skip => {}
            Atom::Modify(a, v) => {
                st.insert(a, v);
            }
            Atom::Undefined => return Outcome::Undefined,
            Atom::Blocked => return Outcome::Blocked,
        }
    }
    Outcome::Ok(st, x)
}
