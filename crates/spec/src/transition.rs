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

/// What one step did: `Ok((None, v))` left the state as it was and
/// returned `v`; `Ok((Some(s), v))` stepped to `s`; `Err` says why the
/// step is not one the spec allows.
type Step<S, T> = Result<(Option<S>, T), ReplayError>;

/// The boxed step function inside a [`Transition`].
type StepFn<S, T> = dyn Fn(&S) -> Step<S, T> + Send + Sync;

/// A specification transition: a partial function from states to
/// (state, value) pairs.
///
/// Transitions are cheaply cloneable (internally reference counted) so a
/// spec can hand the same transition to many checker threads. A step
/// borrows the state: the read-only combinators (`ret`, `gets`, `check`,
/// `guard`, `skip`, and `and_then`/`map` over them) report it unchanged
/// instead of cloning it, and only `modify` builds a new one.
pub struct Transition<S, T> {
    step: Arc<StepFn<S, T>>,
}

impl<S, T> Clone for Transition<S, T> {
    fn clone(&self) -> Self {
        Transition {
            step: Arc::clone(&self.step),
        }
    }
}

impl<S, T> fmt::Debug for Transition<S, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Transition(..)")
    }
}

impl<S: Clone + 'static, T: 'static> Transition<S, T> {
    /// Wraps a raw step function as a transition. Its `Outcome::Ok`
    /// state counts as a new one, whatever it holds.
    pub fn new(f: impl Fn(&S) -> Outcome<S, T> + Send + Sync + 'static) -> Self {
        Transition::borrowing(move |s: &S| match f(s) {
            Outcome::Ok(s2, v) => Ok((Some(s2), v)),
            Outcome::Undefined => Err(ReplayError::Undefined),
            Outcome::Blocked => Err(ReplayError::Blocked),
        })
    }

    /// The transition whose step is `f`.
    fn borrowing(f: impl Fn(&S) -> Step<S, T> + Send + Sync + 'static) -> Self {
        Transition { step: Arc::new(f) }
    }

    /// Runs the transition in state `s`: [`step`](Transition::step), with
    /// an unchanged state cloned into the outcome.
    pub fn run(&self, s: &S) -> Outcome<S, T> {
        match self.step(s) {
            Ok((s2, v)) => Outcome::Ok(s2.unwrap_or_else(|| s.clone()), v),
            Err(ReplayError::Blocked) => Outcome::Blocked,
            // A transition fails with no other error.
            Err(_) => Outcome::Undefined,
        }
    }

    /// Simulates the transition as one spec step from `s`, borrowing it:
    /// the new state (`None` when the step left `s` as it was) and the
    /// value, or why the step is not one the spec allows. The ghost
    /// engine and [`crate::SeqReplay`] take every step through here and
    /// assign their state only on `Ok((Some(..), _))`.
    pub fn step(&self, s: &S) -> Result<(Option<S>, T), ReplayError> {
        (self.step)(s)
    }

    /// `ret v` — the identity transition returning `v`.
    pub fn ret(v: T) -> Self
    where
        T: Clone + Send + Sync,
    {
        Transition::borrowing(move |_: &S| Ok((None, v.clone())))
    }

    /// `undefined` — the caller triggered undefined behaviour.
    pub fn undefined() -> Self {
        Transition::borrowing(|_: &S| Err(ReplayError::Undefined))
    }

    /// `blocked` — a disabled transition (failed guard).
    pub fn blocked() -> Self {
        Transition::borrowing(|_: &S| Err(ReplayError::Blocked))
    }

    /// `gets f` — observes the state without changing it.
    pub fn gets(f: impl Fn(&S) -> T + Send + Sync + 'static) -> Self {
        Transition::borrowing(move |s: &S| Ok((None, f(s))))
    }

    /// Monadic bind: run `self`, then run the transition produced by `f`
    /// from the intermediate state. Partial if either half is.
    pub fn and_then<U: 'static>(
        self,
        f: impl Fn(T) -> Transition<S, U> + Send + Sync + 'static,
    ) -> Transition<S, U> {
        Transition::borrowing(move |s: &S| match self.step(s)? {
            (None, v) => f(v).step(s),
            (Some(s2), v) => {
                let (s3, u) = f(v).step(&s2)?;
                Ok((Some(s3.unwrap_or(s2)), u))
            }
        })
    }

    /// Maps the returned value.
    pub fn map<U: 'static>(self, f: impl Fn(T) -> U + Send + Sync + 'static) -> Transition<S, U> {
        Transition::borrowing(move |s: &S| self.step(s).map(|(s2, v)| (s2, f(v))))
    }

    /// Replaces the returned value with unit, keeping the state change.
    pub fn ignore_ret(self) -> Transition<S, ()> {
        self.map(|_| ())
    }
}

impl<S: Clone + 'static> Transition<S, ()> {
    /// `modify f` — updates the state, returning unit.
    pub fn modify(f: impl Fn(&S) -> S + Send + Sync + 'static) -> Self {
        Transition::borrowing(move |s: &S| Ok((Some(f(s)), ())))
    }

    /// `check p` — undefined behaviour unless `p` holds (a UB guard).
    pub fn check(p: impl Fn(&S) -> bool + Send + Sync + 'static) -> Self {
        Transition::borrowing(move |s: &S| p(s).then_some((None, ())).ok_or(ReplayError::Undefined))
    }

    /// `guard p` — blocked unless `p` holds (an enabledness guard).
    pub fn guard(p: impl Fn(&S) -> bool + Send + Sync + 'static) -> Self {
        Transition::borrowing(move |s: &S| p(s).then_some((None, ())).ok_or(ReplayError::Blocked))
    }

    /// The identity transition (`ret ()` without the `Clone` bound on `T`).
    pub fn skip() -> Self {
        Transition::borrowing(|_: &S| Ok((None, ())))
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
        assert_eq!(t.step(&st(&[(1, 1)])), Ok((None, ())));
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
