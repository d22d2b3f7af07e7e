//! Crash jobs forked off a shared execution against the same jobs run by
//! themselves (ROADMAP items 7 and 4 (a)).
//!
//! The crash sweeps run the prefix their jobs share once and fork each
//! job off it at its crash point: a fresh `make()`, the running system's
//! `snapshot()` restored into it, the crashed copy of the runtime and the
//! ghost state, then the crash hook, `boot()` and recovery. A fork must be
//! indistinguishable from the re-run it replaces. Three suites hold it to
//! that:
//!
//! - every registered scenario under `verify`'s passes (nested crashes
//!   on) at small schedule budgets, so each production `snapshot` and
//!   `restore` is exercised; debug builds also re-run a fixed sample of
//!   the forks and panic on the first field that differs;
//! - generated systems (threads × locks × buffered-disk blocks × ghost
//!   durable cells × a recovery that copies blocks), each checked twice:
//!   forked, and with forking defeated by one model-random draw in
//!   `make()`, which makes every job run by itself; the two reports must
//!   have one fingerprint;
//! - two seeded snapshot bugs, which that comparison (and the re-runs:
//!   of every failing fork, and in debug builds of a sample of the
//!   passing ones) must catch.

use goose_rt::runtime::{GLock, ModelRtExt};
use perennial::{DurId, GhostUnwrap, Lease, LockInv};
use perennial_checker::{
    check, report_fingerprint, CheckConfig, CheckConfigBuilder, CheckReport, Harness, Pass,
    PassMetrics, ScenarioSet, Script, System, World,
};
use perennial_disk::buffered::{BufferedDisk, BufferedImage};
use perennial_disk::single::{DiskImage, SingleDisk};
use perennial_spec::fixtures::{RegOp, RegSpec};
use perennial_suite::{all_mutant_scenarios, all_scenarios};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// `benchmark/`'s `verify` passes (the defaults, nested crashes on) with
/// small schedule-phase budgets: the sweeps are whole either way.
fn verify_quick() -> CheckConfigBuilder {
    CheckConfig::builder()
        .seed(7)
        .dfs_max_executions(20)
        .random_samples(2)
        .random_crash_samples(3)
        .keep_going(true)
        .max_steps(200_000)
        .workers(1)
}

/// The crash sweeps' rows of a report.
fn sweep_costs(report: &CheckReport) -> impl Iterator<Item = &PassMetrics> {
    let passes = report.per_pass.iter();
    passes.filter(|pm| pm.pass == Pass::CrashSweep || pm.pass == Pass::NestedCrash)
}

/// Whether some crash job of the report ran less than its logical steps.
fn forked(report: &CheckReport) -> bool {
    sweep_costs(report).any(|pm| pm.steps_run < pm.steps)
}

/// Runs each of `scenarios` under [`verify_quick`] and returns the names
/// of those whose crash jobs all ran their whole prefix. Debug builds
/// re-run a sample of the forks in here and panic, naming the scenario,
/// the job and the field, on a difference.
fn unforked(scenarios: &ScenarioSet) -> Vec<String> {
    let cfg = verify_quick().build();
    let mut unforked = Vec::new();
    for scenario in scenarios.iter() {
        let report = scenario.run(&cfg);
        let steps: u64 = sweep_costs(&report).map(|pm| pm.steps).sum();
        assert!(steps > 0, "{}: no crash job ran", scenario.name());
        if !forked(&report) {
            unforked.push(scenario.name().to_string());
        }
    }
    unforked
}

/// Only a base that draws model randomness before its crash points
/// shares no prefix: Mailboat's `deliver` names its file with a draw.
fn assert_forked_unless_drawing(unforked: &[String]) {
    let wrong: Vec<_> = unforked
        .iter()
        .filter(|name| !name.starts_with("mailboat/"))
        .collect();
    assert!(wrong.is_empty(), "no crash job forked in {wrong:?}");
}

#[test]
fn every_correct_scenario_forks_like_it_reruns() {
    let registry = all_scenarios();
    assert_eq!(registry.iter().count(), 18, "the registry changed size");
    assert_forked_unless_drawing(&unforked(&registry));
}

#[test]
fn every_mutant_forks_like_it_reruns() {
    let mutants = all_mutant_scenarios();
    assert_eq!(mutants.iter().count(), 28, "the registry changed size");
    assert_forked_unless_drawing(&unforked(&mutants));
}

// ---------------------------------------------------------------------
// Generated systems
// ---------------------------------------------------------------------

const SYSTEMS: u64 = 50;

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// A seeded bug in a generated system's snapshot pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SnapBug {
    None,
    /// `restore` loads the durable image but not the unflushed writes,
    /// which a crash keeps.
    DropsWriteBuffer,
    /// A counter of writes lives in a `Sys` field the snapshot leaves
    /// out, and recovery's length depends on it.
    CounterOutside,
}

/// One generated system: `cells` registers, each a primary and a backup
/// block of a buffered disk and a ghost durable cell, guarded by one of
/// `locks` model locks; each thread a few reads and writes.
#[derive(Debug, Clone)]
struct Gen {
    cells: u64,
    locks: u64,
    /// Flush after the primary write, before the commit.
    flush: bool,
    threads: Vec<Vec<RegOp>>,
    after: Vec<RegOp>,
    bug: SnapBug,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        let mut rng = Rng::new(seed);
        let cells = 1 + rng.below(2);
        let ops = |rng: &mut Rng, n: u64| -> Vec<RegOp> {
            (0..n)
                .map(|_| match rng.below(3) {
                    0 => RegOp::Read(rng.below(cells)),
                    _ => RegOp::Write(rng.below(cells), 1 + rng.below(9)),
                })
                .collect()
        };
        let threads = (0..1 + rng.below(2))
            .map(|_| {
                let n = 1 + rng.below(2);
                ops(&mut rng, n)
            })
            .collect();
        let after = ops(&mut rng, 1);
        Gen {
            cells,
            locks: 1 + rng.below(2),
            flush: rng.below(2) == 0,
            threads,
            after,
            bug: SnapBug::None,
        }
    }
}

struct GenSys {
    gen: Gen,
    disk: Arc<BufferedDisk>,
    cells: Vec<DurId<u64>>,
    /// Per lock, the leases of the cells it guards.
    lockinvs: Vec<LockInv<Vec<Lease<u64>>>>,
    locks: Vec<Arc<dyn GLock>>,
    /// Writes performed so far: durable only if the snapshot carries it.
    writes: AtomicU64,
}

fn enc(v: u64) -> Vec<u8> {
    v.to_le_bytes().to_vec()
}

fn dec(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8-byte block"))
}

impl GenSys {
    fn lock_of(&self, c: u64) -> usize {
        (c % self.gen.locks) as usize
    }

    /// The slot of cell `c`'s lease in its lock's bundle.
    fn slot_of(&self, c: u64) -> usize {
        (c / self.gen.locks) as usize
    }

    fn run(&self, w: &World<RegSpec>, op: &RegOp) {
        let c = match op {
            RegOp::Read(c) | RegOp::Write(c, _) => *c,
        };
        let lock = &self.locks[self.lock_of(c)];
        lock.acquire();
        let inv = &self.lockinvs[self.lock_of(c)];
        let mut leases = inv.take().ghost_unwrap();
        let tok = w.ghost.begin_op(op.clone()).ghost_unwrap();
        let ret = match *op {
            RegOp::Read(_) => Some(dec(&self.disk.read(c))),
            RegOp::Write(_, v) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
                self.disk.write(c, &enc(v));
                if self.gen.flush {
                    self.disk.flush();
                }
                let lease = &mut leases[self.slot_of(c)];
                w.ghost
                    .write_durable(self.cells[c as usize], lease, v)
                    .ghost_unwrap();
                None
            }
        };
        w.ghost.commit_op(&tok).ghost_unwrap();
        inv.put(leases).ghost_unwrap();
        lock.release();
        w.ghost.finish_op(tok, &ret).ghost_unwrap();
    }

    /// Per lock, the leases of its cells in cell order, each from
    /// `lease(cell index, cell)`.
    fn bundles(
        &self,
        mut lease: impl FnMut(usize, DurId<u64>) -> Lease<u64>,
    ) -> Vec<Vec<Lease<u64>>> {
        let mut bundles: Vec<Vec<Lease<u64>>> = (0..self.gen.locks).map(|_| Vec::new()).collect();
        for (c, cell) in self.cells.iter().enumerate() {
            bundles[self.lock_of(c as u64)].push(lease(c, *cell));
        }
        bundles
    }
}

impl System<RegSpec> for GenSys {
    type Durable = (BufferedImage, DiskImage, u64);

    fn snapshot(&self) -> Self::Durable {
        let writes = self.writes.load(Ordering::Relaxed);
        (self.disk.image(), self.disk.durable().image(), writes)
    }

    fn restore(&self, (disk, durable, writes): &Self::Durable) {
        match self.gen.bug {
            SnapBug::DropsWriteBuffer => self.disk.durable().restore(durable),
            _ => self.disk.restore(disk),
        }
        if self.gen.bug != SnapBug::CounterOutside {
            self.writes.store(*writes, Ordering::Relaxed);
        }
    }

    fn crash(&self) {
        self.disk.crash_torn();
    }

    /// Copies every primary block to its backup, re-mints the leases and
    /// spends the crash token, pausing once per write the system saw.
    fn recover(&self, w: &World<RegSpec>) {
        for c in 0..self.gen.cells {
            let v = self.disk.read(c);
            self.disk.write(self.gen.cells + c, &v);
        }
        self.disk.flush();
        for _ in 0..self.writes.load(Ordering::Relaxed) {
            w.rt.yield_point();
        }
        self.relet(w);
        w.ghost.recovery_done().ghost_unwrap();
    }

    fn relet(&self, w: &World<RegSpec>) {
        let bundles = self.bundles(|_, cell| w.ghost.recover_lease(cell).ghost_unwrap());
        for (inv, bundle) in self.lockinvs.iter().zip(bundles) {
            inv.reset(bundle);
        }
    }

    fn abs_check(&self, w: &World<RegSpec>) -> Result<(), String> {
        let sigma = w.ghost.spec_state();
        for c in 0..self.gen.cells {
            let (disk, spec) = (dec(&self.disk.peek(c)), sigma[&c]);
            if disk != spec {
                return Err(format!("cell {c}: disk {disk}, spec {spec}"));
            }
        }
        Ok(())
    }
}

impl Harness<RegSpec> for Gen {
    type Sys = GenSys;

    fn spec(&self) -> RegSpec {
        RegSpec { size: self.cells }
    }

    fn make(&self, w: &World<RegSpec>) -> Script<GenSys, RegSpec> {
        let disk = BufferedDisk::new(Arc::clone(&w.rt), 2 * self.cells, 8);
        let mut cells = Vec::new();
        let mut leases = Vec::new();
        for _ in 0..self.cells {
            let (cell, lease) = w.ghost.alloc_durable(0u64);
            cells.push(cell);
            leases.push(Some(lease));
        }
        let mut sys = GenSys {
            gen: self.clone(),
            disk,
            cells,
            lockinvs: Vec::new(),
            locks: (0..self.locks).map(|_| w.rt.new_glock()).collect(),
            writes: AtomicU64::new(0),
        };
        let bundles = sys.bundles(|c, _| leases[c].take().expect("one lease per cell"));
        sys.lockinvs = bundles.into_iter().map(LockInv::new).collect();
        let mut script = Script::new(sys);
        for ops in self.threads.clone() {
            script.thread("worker", move |sys, w| {
                ops.iter().for_each(|op| sys.run(w, op))
            });
        }
        let after = self.after.clone();
        script.after("after", move |sys, w| {
            after.iter().for_each(|op| sys.run(w, op))
        });
        script
    }
}

/// A harness whose `make()` draws one model-random value: no execution
/// of it can share a prefix, so its crash jobs all run by themselves. The
/// draw is made outside any step and the value is unused, so nothing an
/// execution reports changes.
struct Unshared<H>(H);

impl<H: Harness<RegSpec>> Harness<RegSpec> for Unshared<H> {
    type Sys = H::Sys;

    fn spec(&self) -> RegSpec {
        self.0.spec()
    }

    fn make(&self, w: &World<RegSpec>) -> Script<H::Sys, RegSpec> {
        let _ = w.rt.rand_u64();
        self.0.make(w)
    }
}

/// `gen` checked forked and checked with every job run by itself:
/// their report fingerprints, and whether the first forked at all. A
/// re-run that differs from its fork panics here.
fn both_ways(gen: &Gen) -> (u64, u64, bool) {
    let cfg = verify_quick().build();
    let forked_report = check(gen, &cfg);
    let alone = check(&Unshared(gen.clone()), &cfg);
    assert!(!forked(&alone), "a draw in make() leaves nothing to share");
    (
        report_fingerprint(&forked_report),
        report_fingerprint(&alone),
        forked(&forked_report),
    )
}

#[test]
fn generated_systems_fork_like_they_rerun() {
    let mut forks = 0;
    for seed in 0..SYSTEMS {
        let gen = Gen::new(seed);
        let (forked, alone, did_fork) = both_ways(&gen);
        assert_eq!(forked, alone, "seed {seed}: {gen:?}");
        forks += u64::from(did_fork);
    }
    assert_eq!(forks, SYSTEMS, "every generated system shares its prefix");
}

/// A snapshot bug must change what some fork reports: the two reports
/// differ, or a fork's re-run panics first, naming the field. Any build
/// re-runs a failing fork; a debug build also re-runs a sample of the
/// passing ones.
fn caught(bug: SnapBug) {
    let mut misses = Vec::new();
    let mut found = 0;
    for seed in 0..SYSTEMS {
        let gen = Gen {
            bug,
            ..Gen::new(seed)
        };
        let ran = std::panic::catch_unwind(|| both_ways(&gen));
        match ran {
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default();
                assert!(
                    msg.contains("differs from its re-run"),
                    "seed {seed}: {msg}"
                );
                found += 1;
            }
            Ok((forked, alone, _)) if forked != alone => found += 1,
            Ok(_) => misses.push(seed),
        }
    }
    // Not every system exposes the bug (a system that never writes has
    // nothing to lose), but most do.
    assert!(
        found >= SYSTEMS / 2,
        "{bug:?} caught on {found} systems only; missed {misses:?}"
    );
}

#[test]
fn a_snapshot_without_the_write_buffer_is_caught() {
    caught(SnapBug::DropsWriteBuffer);
}

#[test]
fn a_counter_outside_the_snapshot_is_caught() {
    caught(SnapBug::CounterOutside);
}
