//! The transition DSL: `ret`, `gets`, `modify`, `undefined`, and monadic
//! composition, mirroring the Coq-embedded DSL of the paper's §3.1.

use crate::system::ReplayError;
use std::fmt;
use std::sync::Arc;

/// Result of running a [`Transition`] in a given state.
#[derive(Clone, PartialEq, Eq)]
pub enum Outcome<S, T> {
    /// The transition is enabled: it steps to the new state and returns `T`.
    Ok(S, T),
    /// The caller triggered undefined behaviour (out-of-bounds address,
    /// racy slice access, ...). Refinement only constrains executions that
    /// avoid this outcome.
    Undefined,
    /// The transition is not enabled in this state (a guard failed).
    Blocked,
}

impl<S: fmt::Debug, T: fmt::Debug> fmt::Debug for Outcome<S, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Ok(s, t) => f.debug_tuple("Ok").field(s).field(t).finish(),
            Outcome::Undefined => write!(f, "Undefined"),
            Outcome::Blocked => write!(f, "Blocked"),
        }
    }
}

impl<S, T> Outcome<S, T> {
    /// Returns `true` when the transition was enabled.
    pub fn is_ok(&self) -> bool {
        matches!(self, Outcome::Ok(..))
    }

    /// Extracts the stepped state and value, panicking on partial outcomes.
    ///
    /// # Panics
    ///
    /// Panics if the outcome is [`Outcome::Undefined`] or
    /// [`Outcome::Blocked`]; intended for tests and examples.
    pub fn unwrap(self) -> (S, T) {
        match self {
            Outcome::Ok(s, t) => (s, t),
            Outcome::Undefined => panic!("transition outcome was Undefined"),
            Outcome::Blocked => panic!("transition outcome was Blocked"),
        }
    }
}

/// The boxed step function inside a [`Transition`].
type StepFn<S, T> = dyn Fn(&S) -> Outcome<S, T> + Send + Sync;

/// A specification transition: a partial function from states to
/// (state, value) pairs.
///
/// Transitions are cheaply cloneable (internally reference counted) so a
/// spec can hand the same transition to many checker threads.
pub struct Transition<S, T> {
    run: Arc<StepFn<S, T>>,
}

impl<S, T> Clone for Transition<S, T> {
    fn clone(&self) -> Self {
        Transition {
            run: Arc::clone(&self.run),
        }
    }
}

impl<S, T> fmt::Debug for Transition<S, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Transition(..)")
    }
}

impl<S: Clone + 'static, T: 'static> Transition<S, T> {
    /// Wraps a raw step function as a transition.
    pub fn new(f: impl Fn(&S) -> Outcome<S, T> + Send + Sync + 'static) -> Self {
        Transition { run: Arc::new(f) }
    }

    /// Runs the transition in state `s`.
    pub fn run(&self, s: &S) -> Outcome<S, T> {
        (self.run)(s)
    }

    /// Simulates the transition as one spec step from `s`: the stepped
    /// state and value, or why the step is not one the spec allows. The
    /// ghost engine and [`crate::SeqReplay`] take every step through here.
    pub fn step(&self, s: &S) -> Result<(S, T), ReplayError> {
        match self.run(s) {
            Outcome::Ok(s2, v) => Ok((s2, v)),
            Outcome::Undefined => Err(ReplayError::Undefined),
            Outcome::Blocked => Err(ReplayError::Blocked),
        }
    }

    /// `ret v` — the identity transition returning `v`.
    pub fn ret(v: T) -> Self
    where
        T: Clone + Send + Sync,
    {
        Transition::new(move |s: &S| Outcome::Ok(s.clone(), v.clone()))
    }

    /// `undefined` — the caller triggered undefined behaviour.
    pub fn undefined() -> Self {
        Transition::new(|_s: &S| Outcome::Undefined)
    }

    /// `blocked` — a disabled transition (failed guard).
    pub fn blocked() -> Self {
        Transition::new(|_s: &S| Outcome::Blocked)
    }

    /// `gets f` — observes the state without changing it.
    pub fn gets(f: impl Fn(&S) -> T + Send + Sync + 'static) -> Self {
        Transition::new(move |s: &S| Outcome::Ok(s.clone(), f(s)))
    }

    /// Monadic bind: run `self`, then run the transition produced by `f`
    /// from the intermediate state.
    pub fn and_then<U: 'static>(
        self,
        f: impl Fn(T) -> Transition<S, U> + Send + Sync + 'static,
    ) -> Transition<S, U> {
        Transition::new(move |s: &S| match self.run(s) {
            Outcome::Ok(s2, v) => f(v).run(&s2),
            Outcome::Undefined => Outcome::Undefined,
            Outcome::Blocked => Outcome::Blocked,
        })
    }

    /// Maps the returned value.
    pub fn map<U: 'static>(self, f: impl Fn(T) -> U + Send + Sync + 'static) -> Transition<S, U> {
        Transition::new(move |s: &S| match self.run(s) {
            Outcome::Ok(s2, v) => Outcome::Ok(s2, f(v)),
            Outcome::Undefined => Outcome::Undefined,
            Outcome::Blocked => Outcome::Blocked,
        })
    }

    /// Replaces the returned value with unit, keeping the state change.
    pub fn ignore_ret(self) -> Transition<S, ()> {
        self.map(|_| ())
    }
}

impl<S: Clone + 'static> Transition<S, ()> {
    /// `modify f` — updates the state, returning unit.
    pub fn modify(f: impl Fn(&S) -> S + Send + Sync + 'static) -> Self {
        Transition::new(move |s: &S| Outcome::Ok(f(s), ()))
    }

    /// `check p` — undefined behaviour unless `p` holds (a UB guard).
    pub fn check(p: impl Fn(&S) -> bool + Send + Sync + 'static) -> Self {
        Transition::new(move |s: &S| {
            if p(s) {
                Outcome::Ok(s.clone(), ())
            } else {
                Outcome::Undefined
            }
        })
    }

    /// `guard p` — blocked unless `p` holds (an enabledness guard).
    pub fn guard(p: impl Fn(&S) -> bool + Send + Sync + 'static) -> Self {
        Transition::new(move |s: &S| {
            if p(s) {
                Outcome::Ok(s.clone(), ())
            } else {
                Outcome::Blocked
            }
        })
    }

    /// The identity transition (`ret ()` without the `Clone` bound on `T`).
    pub fn skip() -> Self {
        Transition::new(|s: &S| Outcome::Ok(s.clone(), ()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    type S = BTreeMap<u64, u64>;

    fn st(pairs: &[(u64, u64)]) -> S {
        pairs.iter().copied().collect()
    }

    #[test]
    fn ret_preserves_state() {
        let t: Transition<S, u64> = Transition::ret(42);
        assert_eq!(t.run(&st(&[(1, 2)])), Outcome::Ok(st(&[(1, 2)]), 42));
    }

    #[test]
    fn gets_observes_without_mutation() {
        let t: Transition<S, Option<u64>> = Transition::gets(|s: &S| s.get(&1).copied());
        assert_eq!(t.run(&st(&[(1, 5)])), Outcome::Ok(st(&[(1, 5)]), Some(5)));
        assert_eq!(t.run(&st(&[])), Outcome::Ok(st(&[]), None));
    }

    #[test]
    fn modify_updates_state() {
        let t: Transition<S, ()> = Transition::modify(|s: &S| {
            let mut s = s.clone();
            s.insert(7, 9);
            s
        });
        assert_eq!(t.run(&st(&[])), Outcome::Ok(st(&[(7, 9)]), ()));
    }

    #[test]
    fn undefined_propagates_through_bind() {
        let t: Transition<S, u64> =
            Transition::<S, u64>::undefined().and_then(|_| Transition::ret(1));
        assert_eq!(t.run(&st(&[])), Outcome::Undefined);
        let t2: Transition<S, u64> =
            Transition::<S, u64>::ret(3).and_then(|_| Transition::undefined());
        assert_eq!(t2.run(&st(&[])), Outcome::Undefined);
    }

    #[test]
    fn blocked_propagates_through_bind() {
        let t: Transition<S, ()> = Transition::<S, ()>::blocked().and_then(|_| Transition::skip());
        assert_eq!(t.run(&st(&[])), Outcome::Blocked);
    }

    #[test]
    fn check_is_ub_guard() {
        let t = Transition::<S, ()>::check(|s| s.contains_key(&1));
        assert!(t.run(&st(&[(1, 1)])).is_ok());
        assert_eq!(t.run(&st(&[])), Outcome::Undefined);
    }

    #[test]
    fn guard_is_enabledness() {
        let t = Transition::<S, ()>::guard(|s| s.is_empty());
        assert!(t.run(&st(&[])).is_ok());
        assert_eq!(t.run(&st(&[(1, 1)])), Outcome::Blocked);
    }

    #[test]
    fn step_names_why_a_step_is_not_allowed() {
        let t = Transition::<S, ()>::check(|s| s.contains_key(&1));
        assert_eq!(t.step(&st(&[(1, 1)])), Ok((st(&[(1, 1)]), ())));
        assert_eq!(t.step(&st(&[])), Err(ReplayError::Undefined));
        let t = Transition::<S, ()>::guard(|s| s.is_empty());
        assert_eq!(t.step(&st(&[(1, 1)])), Err(ReplayError::Blocked));
    }

    #[test]
    fn bind_threads_state() {
        // Figure 3's rd_write shape: lookup, then conditional modify.
        let write = |a: u64, v: u64| -> Transition<S, ()> {
            Transition::gets(move |s: &S| s.get(&a).copied()).and_then(move |mv| match mv {
                Some(_) => Transition::modify(move |s: &S| {
                    let mut s = s.clone();
                    s.insert(a, v);
                    s
                }),
                None => Transition::undefined(),
            })
        };
        assert_eq!(
            write(1, 10).run(&st(&[(1, 0)])),
            Outcome::Ok(st(&[(1, 10)]), ())
        );
        assert_eq!(write(2, 10).run(&st(&[(1, 0)])), Outcome::Undefined);
    }

    #[test]
    fn map_transforms_value_only() {
        let t: Transition<S, u64> = Transition::gets(|s: &S| s.len() as u64).map(|n| n * 2);
        assert_eq!(
            t.run(&st(&[(1, 1), (2, 2)])),
            Outcome::Ok(st(&[(1, 1), (2, 2)]), 4)
        );
    }
}
