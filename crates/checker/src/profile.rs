//! Deterministic cost profiler: where a check spent its budget.
//!
//! A [`Profile`] answers the questions a campaign owner actually asks
//! when the ROADMAP's "as fast as the hardware allows" goal slips:
//! which *pass* burned the executions and steps, which *resource* the
//! schedules fought over, what the *strategy* did with its feedback,
//! and whether the *workers* were actually busy. Its per-pass table is
//! the report's own `per_pass`, and its resource table is folded from the
//! same canonical job outcomes, inside the cutoff-filtered loop of
//! `explore::aggregate`, so every count obeys the PR-1 determinism
//! contract: identical at every worker count, and unchanged by enabling
//! the profiler itself (DESIGN.md §15).
//!
//! Determinism boundary: the only wall-clock data in a profile are the
//! per-pass `busy_time_us` attribution and the [`WorkerUtilization`]
//! summary, and every such field is named by a
//! [`TIMING_KEYS`](crate::telemetry::TIMING_KEYS) member so
//! [`strip_timing`](crate::telemetry::strip_timing) over
//! [`profile_to_json`] yields the canonical, machine-independent form
//! (pinned by `tests/profile.rs`).
//!
//! The profile is a **pure side channel**: [`CheckReport::profile`](crate::CheckReport)
//! (see [`crate::CheckReport`]) is excluded from campaign JSON and
//! report fingerprints exactly like a counterexample's timeline, and
//! building it reads counters the explorer already collected — it
//! schedules no execution and emits no telemetry.

use crate::explore::CheckReport;
use crate::json::hex64;
use crate::metrics::PassMetrics;
use crate::strategy::{CoverageIntrospection, DepTrace};
use goose_rt::sched::{res, Tid};
use serde_json::{json, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// Contended-resource rows kept after ranking (the hotspot table stays
/// readable; the dropped tail is noted in the render).
const RESOURCE_TOP: usize = 12;

/// Human name of a resource id's class (the high byte of the
/// `goose_rt::sched::res` naming scheme).
pub fn resource_kind(id: u64) -> &'static str {
    const MASK: u64 = 0xff << 56;
    match id & MASK {
        x if x == res::LOCK => "lock",
        x if x == res::HEAP => "heap",
        x if x == res::RAND => "rand",
        x if x == res::ALLOC => "alloc",
        x if x == res::DISK => "disk",
        x if x == res::INSTANCE => "instance",
        x if x == res::GHOST => "ghost",
        x if x == res::DISK_FAULT_CTR => "disk-fault",
        x if x == res::NET_FAULT_CTR => "net-fault",
        _ => "other",
    }
}

/// One contended resource: how often schedules fought over it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResourceRow {
    /// Opaque resource id (`goose_rt::sched::res` naming scheme).
    pub resource: u64,
    /// Resource class (`"lock"`, `"disk"`, `"instance"`, ...).
    pub kind: &'static str,
    /// Times a thread parked on it (model locks only).
    pub lock_blocks: u64,
    /// Dependency-footprint collisions: granted steps that touched the
    /// resource in executions where ≥2 threads accessed it with a
    /// write on some side (DPOR-tracked runs only — the same footprints
    /// the sleep sets are built from).
    pub collisions: u64,
    /// Sleep-set prunes credited to the resource (the commuting steps'
    /// footprints).
    pub prunes: u64,
}

impl ResourceRow {
    /// Ranking weight for the hotspot table.
    fn weight(&self) -> u64 {
        self.lock_blocks + self.collisions + self.prunes
    }
}

/// What the schedule-phase strategy did with its feedback.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StrategyProfile {
    /// Strategy name (`exhaustive`, `dpor`, `coverage`).
    pub strategy: String,
    /// Schedules pruned as redundant (sleep-set hits).
    pub pruned: u64,
    /// Executions whose schedule was re-seeded by coverage feedback.
    pub coverage_guided: u64,
    /// Prunes attributed per resource, in resource order.
    pub prunes_by_resource: Vec<(u64, u64)>,
    /// Corpus bookkeeping (coverage-guided sessions only).
    pub coverage: Option<CoverageIntrospection>,
}

/// Worker-pool utilization: summed execution wall time (the per-pass
/// rows' busy time) against the pool's wall-clock capacity. Timing-only — machines and worker counts
/// change these numbers freely, which is why they live apart from the
/// deterministic tables.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerUtilization {
    /// Worker-thread count of the pool.
    pub workers: u64,
    /// Summed wall time of counted executions, µs.
    pub busy_us: u64,
    /// Wall time of the whole check, µs.
    pub wall_us: u64,
}

impl WorkerUtilization {
    /// Fraction of the pool's wall-clock capacity spent executing.
    pub fn utilization(&self) -> f64 {
        if self.workers == 0 || self.wall_us == 0 {
            return 0.0;
        }
        self.busy_us as f64 / (self.workers as f64 * self.wall_us as f64)
    }
}

/// A check's cost profile. See the module docs for the determinism
/// contract; construct via [`CheckConfig::profile`](crate::CheckConfig)
/// and render with [`render_profile`](crate::render_profile) or
/// [`profile_to_json`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Scenario name the profile belongs to.
    pub scenario: String,
    /// Per-pass cost attribution, in canonical rank order: the report's
    /// own `per_pass` rows.
    pub passes: Vec<PassMetrics>,
    /// Top contended resources, ranked by blocks + collisions + prunes
    /// (ties broken by resource id, so the order is deterministic).
    pub resources: Vec<ResourceRow>,
    /// Contended resources dropped by the top-N cut (never silently:
    /// the render says what it hid).
    pub resources_dropped: u64,
    /// What the schedule-phase strategy did with its feedback.
    pub strategy: StrategyProfile,
    /// Worker-pool utilization (timing-only).
    pub workers: WorkerUtilization,
}

/// One DPOR-tracked execution's footprint collisions, as `(resource,
/// touches)` in resource order: a resource collides when at least two
/// threads touched it with a write on some side — exactly the
/// non-commutable overlaps the sleep sets reason about — and every
/// granted step touching such a resource counts as one collision. This
/// is all the profiler keeps of an execution's footprints.
pub fn collisions(decisions: &[(usize, usize)], deps: &DepTrace) -> Vec<(u64, u64)> {
    let mut acc: BTreeMap<u64, (BTreeSet<Tid>, u64, bool)> = BTreeMap::new();
    for (d, accesses) in deps.footprints().enumerate() {
        let granted = deps
            .runnable(d)
            .zip(decisions.get(d))
            .and_then(|(runnable, (choice, _))| runnable.get(*choice))
            .copied();
        let Some(tid) = granted else { continue };
        for a in accesses {
            let e = acc
                .entry(a.resource)
                .or_insert_with(|| (BTreeSet::new(), 0, false));
            e.0.insert(tid);
            e.1 += 1;
            e.2 |= a.write;
        }
    }
    acc.into_iter()
        .filter(|(_, (tids, _, wrote))| tids.len() >= 2 && *wrote)
        .map(|(id, (_, touches, _))| (id, touches))
        .collect()
}

/// Accumulates a [`Profile`]'s resource table from canonical job
/// outcomes. Driven by `explore::aggregate` inside the same
/// cutoff-filtered loop that builds the report statistics, so
/// worker-count independence is inherited rather than re-proved; the
/// per-pass table is the report's own.
#[derive(Debug, Default)]
pub struct ProfileBuilder {
    resources: BTreeMap<u64, ResourceRow>,
}

impl ProfileBuilder {
    fn resource(&mut self, id: u64) -> &mut ResourceRow {
        self.resources.entry(id).or_insert_with(|| ResourceRow {
            resource: id,
            kind: resource_kind(id),
            ..ResourceRow::default()
        })
    }

    /// Folds one execution's per-lock contention counts
    /// (`ModelRt::lock_block_profile`).
    pub fn record_lock_profile(&mut self, profile: &[(u64, u64)]) {
        for (id, blocks) in profile {
            self.resource(*id).lock_blocks += blocks;
        }
    }

    /// Folds one execution's [`collisions`] into the collision table.
    pub fn record_collisions(&mut self, collisions: &[(u64, u64)]) {
        for (id, touches) in collisions {
            self.resource(*id).collisions += touches;
        }
    }

    /// Finishes the profile of `report`: merges the strategy's
    /// per-resource prune attribution into the contention table, ranks
    /// it, and attaches the report's per-pass rows and the
    /// worker-utilization summary.
    pub fn finish(mut self, report: &CheckReport, strategy: StrategyProfile) -> Profile {
        for (id, prunes) in &strategy.prunes_by_resource {
            self.resource(*id).prunes += prunes;
        }
        let mut rows: Vec<ResourceRow> = self.resources.into_values().collect();
        rows.sort_by(|a, b| {
            b.weight()
                .cmp(&a.weight())
                .then(a.resource.cmp(&b.resource))
        });
        let dropped = rows.len().saturating_sub(RESOURCE_TOP) as u64;
        rows.truncate(RESOURCE_TOP);
        let busy: Duration = report.per_pass.iter().map(|pm| pm.busy_time).sum();
        Profile {
            scenario: report.name.clone(),
            passes: report.per_pass.clone(),
            resources: rows,
            resources_dropped: dropped,
            strategy,
            workers: WorkerUtilization {
                workers: report.workers as u64,
                busy_us: busy.as_micros() as u64,
                wall_us: report.wall_time.as_micros() as u64,
            },
        }
    }
}

/// Serializes a profile. Deterministic counts are plain fields; every
/// wall-clock field is named by a `TIMING_KEYS` member (`busy_time_us`,
/// `duration_us`, `utilization`), so `strip_timing` produces the
/// canonical machine-independent form.
pub fn profile_to_json(p: &Profile) -> Value {
    json!({
        "scenario": p.scenario,
        "passes": p
            .passes
            .iter()
            .map(|pm| {
                json!({
                    "pass": pm.pass.name(),
                    "rank": pm.rank,
                    "executions": pm.executions,
                    "steps": pm.steps,
                    "steps_run": pm.steps_run,
                    "crashes": pm.crashes,
                    "lock_blocks": pm.lock_blocks,
                    "disk_ops": pm.disk_ops,
                    "net_msgs": pm.net_msgs,
                    "model_ops": pm.model_ops,
                    "wakeups": pm.wakeups,
                    "busy_time_us": (pm.busy_time.as_micros() as u64),
                })
            })
            .collect::<Vec<Value>>(),
        "resources": p
            .resources
            .iter()
            .map(|r| {
                json!({
                    "resource": hex64(r.resource),
                    "kind": r.kind,
                    "lock_blocks": r.lock_blocks,
                    "collisions": r.collisions,
                    "prunes": r.prunes,
                })
            })
            .collect::<Vec<Value>>(),
        "resources_dropped": p.resources_dropped,
        "strategy": {
            "strategy": p.strategy.strategy,
            "pruned": p.strategy.pruned,
            "coverage_guided": p.strategy.coverage_guided,
            "prunes_by_resource": p
                .strategy
                .prunes_by_resource
                .iter()
                .map(|(id, n)| json!([hex64(*id), n]))
                .collect::<Vec<Value>>(),
            "coverage": p.strategy.coverage.map(|c| {
                json!({
                    "corpus_hits": c.corpus_hits,
                    "corpus_evictions": c.corpus_evictions,
                    "saturated_waves": c.saturated_waves,
                })
            }),
        },
        "workers": {
            "workers": p.workers.workers,
            "busy_time_us": p.workers.busy_us,
            "duration_us": p.workers.wall_us,
            "utilization": p.workers.utilization(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::Pass;
    use crate::strategy::tests::{dep_trace, random_rows, Gen};
    use crate::telemetry::ExecStats;
    use goose_rt::sched::StepAccess;

    /// A report whose passes ran these executions, `(pass, steps,
    /// lock blocks)`, each 10 µs long, on `workers` workers.
    fn report(execs: &[(Pass, u64, u64)], workers: usize) -> CheckReport {
        let rows = execs.iter().map(|&(pass, steps, lock_blocks)| {
            let stats = ExecStats {
                steps,
                lock_blocks,
                ..ExecStats::default()
            };
            PassMetrics::exec(pass, &stats, false, false, Duration::from_micros(10))
        });
        CheckReport {
            name: "s".into(),
            per_pass: crate::metrics::fold_passes(rows),
            workers,
            wall_time: Duration::from_micros(100),
            ..CheckReport::default()
        }
    }

    fn finish(b: ProfileBuilder) -> Profile {
        b.finish(&CheckReport::default(), StrategyProfile::default())
    }

    #[test]
    fn the_profile_takes_the_reports_rows_and_their_busy_time() {
        let r = report(
            &[(Pass::Random, 5, 1), (Pass::Dfs, 10, 2), (Pass::Dfs, 10, 0)],
            4,
        );
        let p = ProfileBuilder::default().finish(&r, StrategyProfile::default());
        assert_eq!(p.passes, r.per_pass);
        assert_eq!(p.passes.len(), 2);
        assert_eq!(p.passes[0].pass, "dfs");
        assert_eq!(p.passes[0].executions, 2);
        assert_eq!(p.passes[0].steps, 20);
        assert_eq!(p.passes[0].lock_blocks, 2);
        assert_eq!(p.passes[1].pass, "random");
        assert_eq!(p.workers.busy_us, 30);
        assert_eq!(p.workers.workers, 4);
        assert_eq!(p.scenario, "s");
    }

    #[test]
    fn collisions_require_two_threads_and_a_write() {
        let shared = res::LOCK | 7;
        let private = res::HEAP | 9;
        let read_only = res::INSTANCE | 3;
        let deps = dep_trace(
            vec![vec![0, 1], vec![0, 1], vec![0, 1]],
            vec![
                vec![StepAccess::write(shared), StepAccess::read(read_only)],
                vec![StepAccess::read(shared), StepAccess::read(read_only)],
                vec![StepAccess::write(private)],
            ],
        );
        // Grants: thread 0, thread 1, thread 0.
        let decisions = vec![(0, 2), (1, 2), (0, 2)];
        let mut b = ProfileBuilder::default();
        b.record_collisions(&collisions(&decisions, &deps));
        let p = finish(b);
        assert_eq!(p.resources.len(), 1, "{:?}", p.resources);
        assert_eq!(p.resources[0].resource, shared);
        assert_eq!(p.resources[0].kind, "lock");
        assert_eq!(p.resources[0].collisions, 2, "both touching grants count");
    }

    /// `collisions` as it read nested rows before the flat `DepTrace`
    /// (PR 23): the reference for the flat one.
    fn collisions_nested(
        decisions: &[(usize, usize)],
        runnables: &[Vec<Tid>],
        footprints: &[Vec<StepAccess>],
    ) -> Vec<(u64, u64)> {
        let mut acc: BTreeMap<u64, (BTreeSet<Tid>, u64, bool)> = BTreeMap::new();
        for (d, accesses) in footprints.iter().enumerate() {
            let granted = runnables
                .get(d)
                .zip(decisions.get(d))
                .and_then(|(runnable, (choice, _))| runnable.get(*choice))
                .copied();
            let Some(tid) = granted else { continue };
            for a in accesses {
                let e = acc
                    .entry(a.resource)
                    .or_insert_with(|| (BTreeSet::new(), 0, false));
                e.0.insert(tid);
                e.1 += 1;
                e.2 |= a.write;
            }
        }
        acc.into_iter()
            .filter(|(_, (tids, _, wrote))| tids.len() >= 2 && *wrote)
            .map(|(id, (_, touches, _))| (id, touches))
            .collect()
    }

    #[test]
    fn collisions_over_flat_rows_equal_the_nested_rows_result() {
        let mut collided = 0;
        for seed in 0..500 {
            let mut g = Gen(seed);
            let prefix = vec![0; g.below(16)];
            let (decisions, mut runnables, mut footprints) = random_rows(&mut g, &prefix);
            match g.below(4) {
                0 => runnables.truncate(g.below(runnables.len() + 1)),
                1 => footprints.truncate(g.below(footprints.len() + 1)),
                _ => {}
            }
            let nested = collisions_nested(&decisions, &runnables, &footprints);
            let flat = collisions(&decisions, &dep_trace(runnables, footprints));
            assert_eq!(flat, nested, "seed {seed}");
            collided += usize::from(!flat.is_empty());
        }
        assert!(
            collided > 100,
            "the generator must make collisions: {collided}"
        );
    }

    #[test]
    fn resource_table_ranks_by_weight_and_notes_the_dropped_tail() {
        let mut b = ProfileBuilder::default();
        let rows: Vec<(u64, u64)> = (0..20).map(|i| (res::LOCK | i, 20 - i)).collect();
        b.record_lock_profile(&rows);
        let p = finish(b);
        assert_eq!(p.resources.len(), RESOURCE_TOP);
        assert_eq!(p.resources_dropped, 20 - RESOURCE_TOP as u64);
        assert_eq!(p.resources[0].lock_blocks, 20, "heaviest first");
    }

    #[test]
    fn profile_json_hides_all_timing_under_timing_keys() {
        let strategy = StrategyProfile {
            strategy: "exhaustive".to_string(),
            ..StrategyProfile::default()
        };
        let p = ProfileBuilder::default().finish(&report(&[(Pass::Dfs, 10, 1)], 8), strategy);
        let v = profile_to_json(&p);
        let stripped = crate::telemetry::strip_timing(&v);
        let text = serde_json::to_string(&stripped).unwrap();
        for key in ["busy_time_us", "utilization", "duration_us"] {
            assert!(!text.contains(key), "{key} survived strip_timing: {text}");
        }
        assert!(text.contains("\"executions\""), "{text}");
    }

    #[test]
    fn resource_kind_names_every_class() {
        assert_eq!(resource_kind(res::LOCK | 1), "lock");
        assert_eq!(resource_kind(res::DISK | 42), "disk");
        assert_eq!(resource_kind(res::INSTANCE), "instance");
        assert_eq!(resource_kind(res::GHOST | 2), "ghost");
        assert_eq!(resource_kind(res::NET_FAULT_CTR | 1), "net-fault");
        assert_eq!(resource_kind(0), "other");
    }
}
