//! The transition DSL: `ret`, `gets`, `modify`, `undefined`, and monadic
//! composition, mirroring the Coq-embedded DSL of the paper's §3.1.
//!
//! A transition is built as a value of a [`Step`] type, one combinator
//! per type (like iterator adapters), so building and running it
//! allocates nothing of its own; [`Step::boxed`] erases it into a
//! [`Transition`] where one type must name several (a spec's
//! `op_transition`). A step runs once, in place: [`Step::step`] updates
//! `σ` where it stands, and gives it back unchanged when the step turns
//! out not to be one the spec allows.

use crate::system::ReplayError;
use std::fmt;
use std::marker::PhantomData;

/// Result of running a transition in a given state.
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

/// `σ` while one step runs on it.
///
/// The rule a step keeps: `σ` moves only if the whole step is defined.
/// An update that nothing partial can follow (the last link of the
/// step, or one only `map`s follow) is made in place; any other saves
/// `σ` first, once per step, so a later `undefined` or `blocked` can put
/// it back.
pub struct Sigma<'a, S> {
    state: &'a mut S,
    /// `σ` as the step found it, once an update was made that something
    /// partial may still follow.
    saved: Option<S>,
    /// Nothing that can fail runs after the link now running.
    last: bool,
}

impl<S: Clone> Sigma<'_, S> {
    /// The state, to read.
    fn get(&self) -> &S {
        self.state
    }

    /// Updates the state in place.
    fn update(&mut self, f: impl FnOnce(&mut S)) {
        if !self.last && self.saved.is_none() {
            self.saved = Some(self.state.clone());
        }
        f(self.state);
    }
}

/// A specification transition: a partial function from states to
/// (state, value) pairs, as a one-shot value (see the module docs).
pub trait Step<S: Clone>: Sized {
    /// The value the transition returns.
    type Ret;

    /// Runs the transition as one link of a step on `sigma`.
    fn apply(self, sigma: &mut Sigma<'_, S>) -> Result<Self::Ret, ReplayError>;

    /// Simulates the transition as one spec step on `s`, in place: the
    /// value, or why the step is not one the spec allows, and then `s`
    /// is as it was. The ghost engine and [`crate::SeqReplay`] take every
    /// step through here.
    fn step(self, s: &mut S) -> Result<Self::Ret, ReplayError> {
        let mut sigma = Sigma {
            state: s,
            saved: None,
            last: true,
        };
        let ret = self.apply(&mut sigma);
        if let (Err(_), Some(saved)) = (&ret, sigma.saved) {
            *sigma.state = saved;
        }
        ret
    }

    /// Runs the transition on a copy of `s`.
    fn run(self, s: &S) -> Outcome<S, Self::Ret> {
        let mut s = s.clone();
        match self.step(&mut s) {
            Ok(v) => Outcome::Ok(s, v),
            Err(ReplayError::Blocked) => Outcome::Blocked,
            // A transition fails with no other error.
            Err(_) => Outcome::Undefined,
        }
    }

    /// Monadic bind: run `self`, then the transition `f` makes of its
    /// value, from the state `self` left. Partial if either half is. `f`
    /// may return a `Result` of a transition, `Err` naming why the step
    /// fails (`undefined`, `blocked`) where the other arm steps on.
    fn and_then<G: Step<S>, F: FnOnce(Self::Ret) -> G>(self, f: F) -> AndThen<Self, F> {
        AndThen(self, f)
    }

    /// Maps the returned value.
    fn map<U, F: FnOnce(Self::Ret) -> U>(self, f: F) -> Map<Self, F> {
        Map(self, f)
    }

    /// Erases the transition's type (one allocation when it holds any
    /// data).
    fn boxed(self) -> Transition<S, Self::Ret>
    where
        Self: Send + 'static,
    {
        Transition {
            step: Box::new(self),
        }
    }
}

/// Object-safe [`Step`], behind [`Transition`].
trait DynStep<S, T> {
    fn apply_boxed(self: Box<Self>, sigma: &mut Sigma<'_, S>) -> Result<T, ReplayError>;
}

impl<S: Clone, X: Step<S>> DynStep<S, X::Ret> for X {
    fn apply_boxed(self: Box<Self>, sigma: &mut Sigma<'_, S>) -> Result<X::Ret, ReplayError> {
        (*self).apply(sigma)
    }
}

/// A transition whose type is erased ([`Step::boxed`]). Its constructors
/// are here too, each returning the transition unboxed.
pub struct Transition<S, T> {
    step: Box<dyn DynStep<S, T> + Send>,
}

impl<S, T> fmt::Debug for Transition<S, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Transition(..)")
    }
}

impl<S: Clone, T> Step<S> for Transition<S, T> {
    type Ret = T;
    fn apply(self, sigma: &mut Sigma<'_, S>) -> Result<T, ReplayError> {
        self.step.apply_boxed(sigma)
    }
}

impl<S: Clone, T> Transition<S, T> {
    /// `ret v` — the identity transition returning `v`.
    pub fn ret(v: T) -> Ret<S, T> {
        Ret(v, PhantomData)
    }

    /// `undefined` — the caller triggered undefined behaviour.
    pub fn undefined() -> Fail<S, T> {
        Fail(ReplayError::Undefined, PhantomData)
    }

    /// `blocked` — a disabled transition (failed guard).
    pub fn blocked() -> Fail<S, T> {
        Fail(ReplayError::Blocked, PhantomData)
    }

    /// `gets f` — observes the state without changing it.
    pub fn gets<F: FnOnce(&S) -> T>(f: F) -> Gets<F> {
        Gets(f)
    }
}

impl<S: Clone> Transition<S, ()> {
    /// `modify f` — updates the state in place, returning unit.
    pub fn modify<F: FnOnce(&mut S)>(f: F) -> Modify<F> {
        Modify(f)
    }

    /// `check p` — undefined behaviour unless `p` holds (a UB guard).
    pub fn check<F: FnOnce(&S) -> bool>(p: F) -> Check<F> {
        Check(p, ReplayError::Undefined)
    }

    /// `guard p` — blocked unless `p` holds (an enabledness guard).
    pub fn guard<F: FnOnce(&S) -> bool>(p: F) -> Check<F> {
        Check(p, ReplayError::Blocked)
    }

    /// The identity transition (`ret ()`).
    pub fn skip() -> Ret<S, ()> {
        Ret((), PhantomData)
    }
}

/// [`Transition::ret`], [`Transition::skip`].
pub struct Ret<S, T>(T, PhantomData<fn(&S)>);

impl<S: Clone, T> Step<S> for Ret<S, T> {
    type Ret = T;
    fn apply(self, _: &mut Sigma<'_, S>) -> Result<T, ReplayError> {
        Ok(self.0)
    }
}

/// [`Transition::undefined`], [`Transition::blocked`].
pub struct Fail<S, T>(ReplayError, PhantomData<fn(&S) -> T>);

impl<S: Clone, T> Step<S> for Fail<S, T> {
    type Ret = T;
    fn apply(self, _: &mut Sigma<'_, S>) -> Result<T, ReplayError> {
        Err(self.0)
    }
}

/// A link that fails with the error it holds, or steps on.
impl<S: Clone, G: Step<S>> Step<S> for Result<G, ReplayError> {
    type Ret = G::Ret;
    fn apply(self, sigma: &mut Sigma<'_, S>) -> Result<G::Ret, ReplayError> {
        self?.apply(sigma)
    }
}

/// [`Transition::gets`].
pub struct Gets<F>(F);

impl<S: Clone, T, F: FnOnce(&S) -> T> Step<S> for Gets<F> {
    type Ret = T;
    fn apply(self, sigma: &mut Sigma<'_, S>) -> Result<T, ReplayError> {
        Ok((self.0)(sigma.get()))
    }
}

/// [`Transition::modify`].
pub struct Modify<F>(F);

impl<S: Clone, F: FnOnce(&mut S)> Step<S> for Modify<F> {
    type Ret = ();
    fn apply(self, sigma: &mut Sigma<'_, S>) -> Result<(), ReplayError> {
        sigma.update(self.0);
        Ok(())
    }
}

/// [`Transition::check`], [`Transition::guard`].
pub struct Check<F>(F, ReplayError);

impl<S: Clone, F: FnOnce(&S) -> bool> Step<S> for Check<F> {
    type Ret = ();
    fn apply(self, sigma: &mut Sigma<'_, S>) -> Result<(), ReplayError> {
        (self.0)(sigma.get()).then_some(()).ok_or(self.1)
    }
}

/// [`Step::and_then`].
pub struct AndThen<A, F>(A, F);

impl<S: Clone, A: Step<S>, G: Step<S>, F: FnOnce(A::Ret) -> G> Step<S> for AndThen<A, F> {
    type Ret = G::Ret;
    fn apply(self, sigma: &mut Sigma<'_, S>) -> Result<G::Ret, ReplayError> {
        // The second half may fail: the first is not the step's last link.
        let last = std::mem::replace(&mut sigma.last, false);
        let v = self.0.apply(sigma);
        sigma.last = last;
        (self.1)(v?).apply(sigma)
    }
}

/// [`Step::map`].
pub struct Map<A, F>(A, F);

impl<S: Clone, A: Step<S>, U, F: FnOnce(A::Ret) -> U> Step<S> for Map<A, F> {
    type Ret = U;
    fn apply(self, sigma: &mut Sigma<'_, S>) -> Result<U, ReplayError> {
        self.0.apply(sigma).map(self.1)
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
        let t = Transition::<S, u64>::ret(42);
        assert_eq!(t.run(&st(&[(1, 2)])), Outcome::Ok(st(&[(1, 2)]), 42));
    }

    #[test]
    fn gets_observes_without_mutation() {
        let t = || Transition::gets(|s: &S| s.get(&1).copied());
        assert_eq!(t().run(&st(&[(1, 5)])), Outcome::Ok(st(&[(1, 5)]), Some(5)));
        assert_eq!(t().run(&st(&[])), Outcome::Ok(st(&[]), None));
    }

    #[test]
    fn modify_updates_state() {
        let t = Transition::modify(|s: &mut S| {
            s.insert(7, 9);
        });
        assert_eq!(t.run(&st(&[])), Outcome::Ok(st(&[(7, 9)]), ()));
    }

    #[test]
    fn undefined_propagates_through_bind() {
        let t = Transition::<S, u64>::undefined().and_then(Transition::ret);
        assert_eq!(t.run(&st(&[])), Outcome::Undefined);
        let t2 = Transition::<S, u64>::ret(3).and_then(|_| Transition::<S, u64>::undefined());
        assert_eq!(t2.run(&st(&[])), Outcome::Undefined);
    }

    #[test]
    fn blocked_propagates_through_bind() {
        let t = Transition::<S, ()>::blocked().and_then(|()| Transition::skip());
        assert_eq!(t.run(&st(&[])), Outcome::Blocked);
    }

    #[test]
    fn check_is_ub_guard() {
        let t = || Transition::check(|s: &S| s.contains_key(&1));
        assert!(t().run(&st(&[(1, 1)])).is_ok());
        assert_eq!(t().run(&st(&[])), Outcome::Undefined);
    }

    #[test]
    fn guard_is_enabledness() {
        let t = || Transition::guard(|s: &S| s.is_empty());
        assert!(t().run(&st(&[])).is_ok());
        assert_eq!(t().run(&st(&[(1, 1)])), Outcome::Blocked);
    }

    #[test]
    fn step_names_why_a_step_is_not_allowed() {
        let t = || Transition::check(|s: &S| s.contains_key(&1));
        assert_eq!(t().step(&mut st(&[(1, 1)])), Ok(()));
        assert_eq!(t().step(&mut st(&[])), Err(ReplayError::Undefined));
        let t = Transition::guard(|s: &S| s.is_empty());
        assert_eq!(t.step(&mut st(&[(1, 1)])), Err(ReplayError::Blocked));
    }

    #[test]
    fn a_step_that_fails_after_an_update_gives_sigma_back() {
        let mut s = st(&[(1, 1)]);
        let t = Transition::modify(|s: &mut S| {
            s.insert(2, 2);
        })
        .and_then(|()| Transition::<S, ()>::blocked());
        assert_eq!(t.step(&mut s), Err(ReplayError::Blocked));
        assert_eq!(s, st(&[(1, 1)]));
    }

    #[test]
    fn bind_threads_state() {
        // Figure 3's rd_write shape: lookup, then conditional modify.
        let write = |a: u64, v: u64| {
            Transition::gets(move |s: &S| s.contains_key(&a)).and_then(move |present| {
                if !present {
                    return Err(ReplayError::Undefined);
                }
                Ok(Transition::modify(move |s: &mut S| {
                    s.insert(a, v);
                }))
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
        let t = Transition::gets(|s: &S| s.len() as u64).map(|n| n * 2);
        assert_eq!(
            t.run(&st(&[(1, 1), (2, 2)])),
            Outcome::Ok(st(&[(1, 1), (2, 2)]), 4)
        );
    }

    #[test]
    fn a_boxed_transition_steps_like_the_unboxed_one() {
        let t = |k| Transition::gets(move |s: &S| s.get(&k).copied()).map(|v| v.unwrap_or(0));
        let s = st(&[(1, 5)]);
        assert_eq!(t(1).boxed().run(&s), t(1).run(&s));
        assert_eq!(t(2).boxed().run(&s), Outcome::Ok(s.clone(), 0));
    }
}
