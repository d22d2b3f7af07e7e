//! Property-based tests for the transition DSL: monad laws and
//! partiality propagation hold for arbitrary state contents, and the
//! in-place step agrees with a reference interpreter on generated
//! transitions, giving `σ` back whenever the step is not one, and
//! copying `σ` only when an update is followed by something partial.

use perennial::{Ghost, GhostError};
use perennial_spec::fixtures::{RegSpec, RegState};
use perennial_spec::system::ReplayError;
use perennial_spec::{Outcome, Step, Transition};
use proptest::prelude::*;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};

thread_local! {
    /// Copies made of an [`S`] on this thread.
    static COPIES: Cell<usize> = const { Cell::new(0) };
}

/// The generated state: a map that counts the copies made of it.
#[derive(Debug, PartialEq, Eq)]
struct S(BTreeMap<u64, u64>);

impl Clone for S {
    fn clone(&self) -> Self {
        COPIES.set(COPIES.get() + 1);
        S(self.0.clone())
    }
}

impl Deref for S {
    type Target = BTreeMap<u64, u64>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl DerefMut for S {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

/// How many copies of an [`S`] stepping `t` on `s` makes.
fn copies_stepping(t: Transition<S, u64>, s: &mut S) -> usize {
    let before = COPIES.get();
    let _ = t.step(s);
    COPIES.get() - before
}

fn arb_state() -> impl Strategy<Value = S> {
    proptest::collection::btree_map(0u64..16, 0u64..100, 0..8).prop_map(S)
}

proptest! {
    // Left identity: ret(v).and_then(f) == f(v).
    #[test]
    fn monad_left_identity(s in arb_state(), v in 0u64..100, k in 0u64..16) {
        let f = move |x: u64| Transition::gets(move |st: &S| st.get(&k).copied().unwrap_or(0) + x);
        let lhs = Transition::<S, u64>::ret(v).and_then(f);
        let rhs = f(v);
        prop_assert_eq!(lhs.run(&s), rhs.run(&s));
    }

    // Right identity: t.and_then(ret) == t.
    #[test]
    fn monad_right_identity(s in arb_state(), k in 0u64..16) {
        let t = move || Transition::gets(move |st: &S| st.get(&k).copied().unwrap_or(7));
        let lhs = t().and_then(Transition::ret);
        prop_assert_eq!(lhs.run(&s), t().run(&s));
    }

    // Associativity: (t >>= f) >>= g == t >>= (|x| f(x) >>= g).
    #[test]
    fn monad_associativity(s in arb_state(), k in 0u64..16, d in 1u64..5) {
        let t = move || Transition::gets(move |st: &S| st.len() as u64 + k);
        let f = move |x: u64| Transition::ret(x + d);
        let g = move |x: u64| {
            Transition::modify(move |st: &mut S| {
                st.insert(x % 16, x);
            })
            .map(move |()| x * 2)
        };
        let lhs = t().and_then(f).and_then(g);
        let rhs = t().and_then(move |x| f(x).and_then(g));
        prop_assert_eq!(lhs.run(&s), rhs.run(&s));
    }

    // gets never mutates the state.
    #[test]
    fn gets_is_pure(s in arb_state(), k in 0u64..16) {
        let t = Transition::gets(move |st: &S| st.get(&k).copied());
        match t.run(&s) {
            Outcome::Ok(s2, _) => prop_assert_eq!(s2, s),
            other => prop_assert!(false, "unexpected outcome {:?}", other),
        }
    }

    // Undefined is absorbing on both sides of bind.
    #[test]
    fn undefined_absorbs(s in arb_state()) {
        let left = Transition::<S, u64>::undefined().and_then(Transition::ret);
        prop_assert_eq!(left.run(&s), Outcome::Undefined);
        let right = Transition::<S, u64>::ret(1).and_then(|_| Transition::<S, u64>::undefined());
        prop_assert_eq!(right.run(&s), Outcome::Undefined);
    }

    // modify composes like function composition.
    #[test]
    fn modify_composes(s in arb_state(), a in 0u64..16, v1 in 0u64..100, v2 in 0u64..100) {
        let w = |a: u64, v: u64| {
            Transition::modify(move |st: &mut S| {
                st.insert(a, v);
            })
        };
        let seq = w(a, v1).and_then(move |()| w(a, v2));
        let (s2, ()) = seq.run(&s).unwrap();
        prop_assert_eq!(s2.get(&a).copied(), Some(v2));
    }

    /// The read-only combinators — `ret`, `gets`, `check`, `guard`,
    /// `skip`, and `and_then`/`map` over them — never copy `σ`, and
    /// neither does an update that is the step's last link.
    #[test]
    fn reads_and_a_last_update_never_copy_sigma(
        mut s in arb_state(),
        atoms in proptest::collection::vec(arb_read(), 0..8),
        update_last in any::<bool>(),
        (a, v) in (0u64..16, 0u64..100),
    ) {
        let mut atoms = atoms;
        atoms.extend(update_last.then_some(Atom::Modify(a, v)));
        prop_assert_eq!(copies_stepping(chain(&atoms), &mut s), 0, "{:?}", atoms);
    }

    /// Whatever a step updates, `σ` is copied at most once: before the
    /// first update that something partial may follow.
    #[test]
    fn a_step_copies_sigma_at_most_once(
        mut s in arb_state(),
        atoms in proptest::collection::vec(arb_atom(), 0..8),
    ) {
        let copies = copies_stepping(chain(&atoms), &mut s);
        prop_assert!(copies <= 1, "{:?} copied σ {} times", atoms, copies);
    }

    /// The step runs in place and agrees with a reference interpreter
    /// that threads an owned state through every atom; a step that is
    /// not one leaves the state exactly as it was, whatever it updated
    /// before it failed.
    #[test]
    fn the_in_place_step_agrees_with_the_reference(
        s in arb_state(),
        atoms in proptest::collection::vec(arb_atom(), 0..8),
    ) {
        let mut stepped = s.clone();
        let outcome = match chain(&atoms).step(&mut stepped) {
            Ok(v) => Outcome::Ok(stepped.clone(), v),
            Err(ReplayError::Undefined) => Outcome::Undefined,
            Err(ReplayError::Blocked) => Outcome::Blocked,
            Err(e) => unreachable!("a transition fails with no other error: {e:?}"),
        };
        if !outcome.is_ok() {
            prop_assert_eq!(&stepped, &s);
        }
        prop_assert_eq!(&outcome, &reference(&atoms, s.clone()));
        prop_assert_eq!(chain(&atoms).run(&s), outcome);
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
            g.internal_step(write(a, v).boxed()).unwrap();
        }
        let before = g.spec_state();
        let err = if blocked { ReplayError::Blocked } else { ReplayError::Undefined };
        let fail = err.clone();
        let t = write(a, v).and_then(move |()| Err::<Transition<RegState, ()>, _>(fail));
        prop_assert_eq!(g.internal_step(t.boxed()), Err(GhostError::SpecStep { jid: None, err }));
        prop_assert_eq!(g.spec_state(), before);
    }
}

/// `modify` that sets register `a` to `v`.
fn write(a: u64, v: u64) -> impl Step<RegState, Ret = ()> + Send + 'static {
    Transition::modify(move |st: &mut RegState| {
        st.insert(a, v);
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
        .fold(Transition::ret(0).boxed(), |t, atom| match *atom {
            Atom::Map(d) => t.map(move |x| x + d).boxed(),
            Atom::Ret(v) => t.and_then(move |x| Transition::ret(x + v)).boxed(),
            Atom::Gets(k) => t
                .and_then(move |x| {
                    Transition::gets(move |st: &S| st.get(&k).copied().unwrap_or(0) + x)
                })
                .boxed(),
            Atom::Check(k) => t
                .and_then(move |x| {
                    Transition::check(move |st: &S| st.contains_key(&k)).map(move |()| x)
                })
                .boxed(),
            Atom::Guard(k) => t
                .and_then(move |x| {
                    Transition::guard(move |st: &S| !st.contains_key(&k)).map(move |()| x)
                })
                .boxed(),
            Atom::Skip => t.and_then(|x| Transition::skip().map(move |()| x)).boxed(),
            Atom::Modify(a, v) => t
                .and_then(move |x| {
                    Transition::modify(move |st: &mut S| {
                        st.insert(a, v);
                    })
                    .map(move |()| x)
                })
                .boxed(),
            Atom::Undefined => t.and_then(|_| Transition::<S, u64>::undefined()).boxed(),
            Atom::Blocked => t.and_then(|_| Transition::<S, u64>::blocked()).boxed(),
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
