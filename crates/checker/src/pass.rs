//! Exploration passes as first-class data.
//!
//! Historically a pass was a `&'static str` plus a `pass_rank` lookup;
//! [`Pass`] makes it an enum so configuration ([`PassSet`]), job keys,
//! telemetry, and report rendering all speak the same type. The rank
//! order is part of the determinism contract (DESIGN.md §9): job keys
//! are `(pass.rank(), index)` and the canonical counterexample is the
//! minimum key, so variant order here is load-bearing.

use std::fmt;
use std::str::FromStr;

/// One exploration pass, in canonical rank order.
///
/// The rank table (the major component of the job key — lower rank wins
/// counterexample selection, see DESIGN.md §9):
///
/// | rank | variant            | wire name            | phase    |
/// |-----:|--------------------|----------------------|----------|
/// |    0 | `Dfs`              | `dfs`                | schedule |
/// |    1 | `Random`           | `random`             | schedule |
/// |    2 | `CrashSweepBase`   | `crash-sweep-base`   | probe    |
/// |    3 | `CrashSweep`       | `crash-sweep`        | sweep    |
/// |    4 | `NestedCrash`      | `nested-crash-sweep` | sweep    |
/// |    5 | `RandomCrashProbe` | `random-crash-probe` | probe    |
/// |    6 | `RandomCrash`      | `random-crash`       | sweep    |
/// |    7 | `DiskFault`        | `disk-fault-sweep`   | sweep    |
/// |    8 | `TornWrite`        | `torn-write-sweep`   | sweep    |
/// |    9 | `NetFault`         | `net-fault-sweep`    | sweep    |
///
/// Schedule-phase passes explore thread interleavings with no injected
/// faults; sweep-phase passes inject crashes/faults at named
/// coordinates. The distinction matters to the shrinker: schedule-phase
/// counterexamples minimize their DFS prefix, sweep-phase ones minimize
/// injection coordinates (DESIGN.md §16).
///
/// `CrashSweepBase` and `RandomCrashProbe` are internal probe sub-passes
/// (the fault-free executions that measure a schedule's horizon before
/// the real sweep); they are not meant to be configured directly but
/// appear in reports and telemetry when their parent pass runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Pass {
    /// Bounded exhaustive DFS over schedules.
    #[default]
    Dfs,
    /// Uniform random schedule sampling.
    Random,
    /// Fault-free probe run that measures the crash-sweep horizon.
    CrashSweepBase,
    /// One crash injected at every step of the canonical schedule.
    CrashSweep,
    /// A second crash during recovery, for every first-crash point.
    NestedCrash,
    /// Fault-free probe of one random schedule (horizon measurement).
    RandomCrashProbe,
    /// A crash at a random point of a random schedule.
    RandomCrash,
    /// Transient/permanent disk-fault plans.
    DiskFault,
    /// Torn-write (partial buffer persistence) plans.
    TornWrite,
    /// Network drop/duplicate/delay plans.
    NetFault,
}

impl Pass {
    /// All passes in rank order.
    pub const ALL: [Pass; 10] = [
        Pass::Dfs,
        Pass::Random,
        Pass::CrashSweepBase,
        Pass::CrashSweep,
        Pass::NestedCrash,
        Pass::RandomCrashProbe,
        Pass::RandomCrash,
        Pass::DiskFault,
        Pass::TornWrite,
        Pass::NetFault,
    ];

    /// The schedule phase's passes, in rank order (ranks 0-1): the
    /// strategy's waves run under them, and a `schedule_end` record counts
    /// each one's jobs in this order.
    pub const SCHEDULE: [Pass; 2] = [Pass::Dfs, Pass::Random];

    /// Canonical rank: the major component of the job key.
    pub fn rank(self) -> u8 {
        match self {
            Pass::Dfs => 0,
            Pass::Random => 1,
            Pass::CrashSweepBase => 2,
            Pass::CrashSweep => 3,
            Pass::NestedCrash => 4,
            Pass::RandomCrashProbe => 5,
            Pass::RandomCrash => 6,
            Pass::DiskFault => 7,
            Pass::TornWrite => 8,
            Pass::NetFault => 9,
        }
    }

    /// Stable wire/display name (matches the historical strings, so
    /// telemetry streams and rendered reports are unchanged).
    pub fn name(self) -> &'static str {
        match self {
            Pass::Dfs => "dfs",
            Pass::Random => "random",
            Pass::CrashSweepBase => "crash-sweep-base",
            Pass::CrashSweep => "crash-sweep",
            Pass::NestedCrash => "nested-crash-sweep",
            Pass::RandomCrashProbe => "random-crash-probe",
            Pass::RandomCrash => "random-crash",
            Pass::DiskFault => "disk-fault-sweep",
            Pass::TornWrite => "torn-write-sweep",
            Pass::NetFault => "net-fault-sweep",
        }
    }
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `pad` honours width/alignment ({:<20} in report tables).
        f.pad(self.name())
    }
}

impl FromStr for Pass {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Pass::ALL
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| format!("unknown pass {s:?}"))
    }
}

impl PartialEq<&str> for Pass {
    fn eq(&self, other: &&str) -> bool {
        self.name() == *other
    }
}

impl PartialEq<Pass> for &str {
    fn eq(&self, other: &Pass) -> bool {
        *self == other.name()
    }
}

/// A set of passes (bitset over ranks).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PassSet(u16);

impl PassSet {
    /// The empty set.
    pub const fn empty() -> Self {
        PassSet(0)
    }

    /// Every pass.
    pub fn all() -> Self {
        Pass::ALL.into_iter().collect()
    }

    /// The default exploration pipeline: DFS, random sampling, crash
    /// sweep with nesting, and random crashes — fault sweeps opt in.
    pub fn defaults() -> Self {
        [
            Pass::Dfs,
            Pass::Random,
            Pass::CrashSweep,
            Pass::NestedCrash,
            Pass::RandomCrash,
        ]
        .into_iter()
        .collect()
    }

    /// Whether `p` is in the set.
    pub fn contains(self, p: Pass) -> bool {
        self.0 & (1 << p.rank()) != 0
    }

    /// Adds a pass.
    pub fn insert(&mut self, p: Pass) {
        self.0 |= 1 << p.rank();
    }

    /// Removes a pass.
    pub fn remove(&mut self, p: Pass) {
        self.0 &= !(1 << p.rank());
    }

    /// Number of passes in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates members in rank order.
    pub fn iter(self) -> impl Iterator<Item = Pass> {
        Pass::ALL.into_iter().filter(move |p| self.contains(*p))
    }
}

impl FromIterator<Pass> for PassSet {
    fn from_iter<I: IntoIterator<Item = Pass>>(iter: I) -> Self {
        let mut s = PassSet::empty();
        for p in iter {
            s.insert(p);
        }
        s
    }
}

impl fmt::Debug for PassSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_positional() {
        for (i, p) in Pass::ALL.into_iter().enumerate() {
            assert_eq!(p.rank() as usize, i);
        }
    }

    #[test]
    fn names_round_trip() {
        for p in Pass::ALL {
            assert_eq!(p.name().parse::<Pass>().unwrap(), p);
        }
        assert!("bogus".parse::<Pass>().is_err());
    }

    #[test]
    fn display_pads() {
        assert_eq!(format!("{:<10}|", Pass::Dfs), "dfs       |");
        assert_eq!(Pass::CrashSweep, "crash-sweep");
    }

    #[test]
    fn set_operations() {
        let mut s = PassSet::defaults();
        assert!(s.contains(Pass::Dfs));
        assert!(!s.contains(Pass::DiskFault));
        s.insert(Pass::DiskFault);
        s.remove(Pass::NestedCrash);
        assert!(s.contains(Pass::DiskFault));
        assert!(!s.contains(Pass::NestedCrash));
        let names: Vec<_> = s.iter().map(Pass::name).collect();
        assert_eq!(
            names,
            [
                "dfs",
                "random",
                "crash-sweep",
                "random-crash",
                "disk-fault-sweep"
            ]
        );
    }
}
