//! Named scenario registry: a uniform way to enumerate and run checks.
//!
//! A [`Scenario`] binds a concrete [`Harness`] behind a type-erased
//! runner closure, so heterogeneous systems (the KV store, the
//! replicated disk, the mail server, the pattern suite) can all be
//! collected into one [`ScenarioSet`], listed by name, and driven with a
//! single [`CheckConfig`] — the entry point used by `crash_hunt`, the
//! benchmark suite, and CI smoke runs.
//!
//! Names are conventionally `"<system>/<scenario>"`, e.g.
//! `"kv/cross-bucket"` or `"repldisk/write-race"`.

use crate::explore::{check_as, replay, CheckConfig, CheckReport, Counterexample, ExecOutcome};
use crate::harness::Harness;
use perennial_spec::SpecTS;
use std::fmt;
use std::sync::Arc;

/// Type-erased [`replay`] closure over a scenario's harness.
type Replayer = dyn Fn(&Counterexample, &CheckConfig) -> (ExecOutcome, String) + Send + Sync;

/// A named, runnable check scenario.
#[derive(Clone)]
pub struct Scenario {
    name: String,
    description: String,
    runner: Arc<dyn Fn(&CheckConfig) -> CheckReport + Send + Sync>,
    replayer: Arc<Replayer>,
}

impl Scenario {
    /// Wraps a harness as a named scenario.
    pub fn new<S, H>(name: impl Into<String>, description: impl Into<String>, harness: H) -> Self
    where
        S: SpecTS,
        H: Harness<S> + Send + 'static,
    {
        let name = name.into();
        let harness = Arc::new(harness);
        let (run_name, run_harness) = (name.clone(), Arc::clone(&harness));
        Scenario {
            name,
            description: description.into(),
            runner: Arc::new(move |config| check_as(&run_name, &*run_harness, config)),
            replayer: Arc::new(move |cx, config| replay(&*harness, cx, config)),
        }
    }

    /// The scenario's registry name (`"<system>/<scenario>"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// One-line human description.
    pub fn description(&self) -> &str {
        &self.description
    }

    /// Runs the full exploration over this scenario's harness, under the
    /// registry name: the report, every record of the run's stream and
    /// the resume WAL's guard all carry it.
    pub fn run(&self, config: &CheckConfig) -> CheckReport {
        (self.runner)(config)
    }

    /// Replays one pinned counterexample against this scenario's
    /// harness — the registry-level entry point behind emitted playback
    /// tests (see [`crate::playback`]), forwarding to
    /// [`replay`]. Only the counterexample's
    /// replay coordinates (pass, seed, schedule prefix, crash points,
    /// fault plan) matter; its recorded outcome/trace fields are ignored
    /// and recomputed.
    pub fn replay(&self, cx: &Counterexample, config: &CheckConfig) -> (ExecOutcome, String) {
        (self.replayer)(cx, config)
    }
}

impl fmt::Debug for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .field("description", &self.description)
            .finish_non_exhaustive()
    }
}

/// An ordered collection of scenarios with name lookup.
///
/// Registration order is preserved (it is the enumeration and reporting
/// order); names must be unique.
#[derive(Clone, Debug, Default)]
pub struct ScenarioSet {
    scenarios: Vec<Scenario>,
}

impl ScenarioSet {
    /// An empty set.
    pub fn new() -> Self {
        ScenarioSet::default()
    }

    /// Adds a scenario. Panics on duplicate names — registries are
    /// assembled statically, so a collision is a programming error.
    pub fn register(&mut self, scenario: Scenario) {
        assert!(
            self.get(scenario.name()).is_none(),
            "duplicate scenario name: {}",
            scenario.name()
        );
        self.scenarios.push(scenario);
    }

    /// Convenience: wrap and register a harness in one call.
    pub fn add<S, H>(&mut self, name: impl Into<String>, description: impl Into<String>, harness: H)
    where
        S: SpecTS,
        H: Harness<S> + Send + 'static,
    {
        self.register(Scenario::new(name, description, harness));
    }

    /// Absorbs all scenarios from another set.
    pub fn extend(&mut self, other: ScenarioSet) {
        for s in other.scenarios {
            self.register(s);
        }
    }

    /// Looks a scenario up by exact name.
    pub fn get(&self, name: &str) -> Option<&Scenario> {
        self.scenarios.iter().find(|s| s.name() == name)
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.scenarios.iter().map(|s| s.name()).collect()
    }

    /// Iterates scenarios in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Scenario> {
        self.scenarios.iter()
    }

    /// Number of registered scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the set has no scenarios.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Runs every scenario under one config, in registration order.
    pub fn run_all(&self, config: &CheckConfig) -> Vec<CheckReport> {
        self.scenarios.iter().map(|s| s.run(config)).collect()
    }
}

impl<'a> IntoIterator for &'a ScenarioSet {
    type Item = &'a Scenario;
    type IntoIter = std::slice::Iter<'a, Scenario>;
    fn into_iter(self) -> Self::IntoIter {
        self.scenarios.iter()
    }
}
