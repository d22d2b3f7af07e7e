//! Figure 11: Mailboat / GoMail / CMAIL throughput vs number of cores.
//!
//! Two-part reproduction (DESIGN.md §1, hardware substitution):
//!
//! 1. **Measured**: the real closed-loop workload (§9.3: equal mix of
//!    deliveries and pickups, 100 users uniform, in-memory FS) runs
//!    single-threaded on the host, giving true request costs and the
//!    single-core ordering/ratios the paper reports (Mailboat ≈ 1.81×
//!    GoMail ≈ 1.34× CMAIL).
//! 2. **Simulated**: each server's request is decomposed into
//!    parallel/locked segments from measured per-operation costs, and
//!    the [`crate::sim`] discrete-event simulator produces the 1–12-core
//!    curves. Contention structure is what differs across servers:
//!    Mailboat serializes on per-user locks and directory mutations;
//!    GoMail additionally funnels every pickup through the global
//!    lock-file directory; CMAIL adds runtime overhead to every request.
//!
//! CMAIL's extraction overhead is *self-calibrated*: the harness measures
//! GoMail's request cost and the burn loop's ns/iteration, then sets the
//! iteration count so the single-core ratio is the paper's 1.34×.

use crate::sim::{simulate, RequestProfile, Segment, SimResult};
use goose_rt::fs::{FileSys, NativeFs};
use goose_rt::runtime::NativeRt;
use mailboat::gomail::{CMailSim, GoMail};
use mailboat::server::{mail_dirs, MailServer, Mailboat};
use mailboat::workload::{run_workload, WorkloadConfig};
use std::sync::Arc;
use std::time::Instant;

/// Fraction of a directory-mutating FS call spent inside the directory's
/// write lock (the rest — fd allocation, inode init, copying — runs in
/// parallel). A documented modelling constant.
pub const DIR_CRIT_FRAC: f64 = 0.3;

/// Serial fraction of every request charged to a global runtime lock —
/// the stand-in for §9.3's "lock contention in the runtime during
/// garbage collection" that flattens all three curves.
pub const RUNTIME_SERIAL_FRAC: f64 = 0.03;

/// Target single-core ratio GoMail / CMAIL (§9.3: "GoMail is in turn 34%
/// faster than CMAIL").
pub const CMAIL_TARGET_RATIO: f64 = 1.34;

/// Average `burn()` invocations per workload request: a delivery burns
/// once, a pickup cycle burns on pickup, each delete (≈1 in steady
/// state), and unlock — so (1 + 3) / 2 across the 50/50 mix.
pub const CMAIL_BURNS_PER_REQUEST: f64 = 2.0;

/// Figure 11 experiment configuration.
#[derive(Debug, Clone)]
pub struct Fig11Config {
    /// User mailboxes (paper: 100).
    pub users: u64,
    /// Requests for each *measured* single-core run.
    pub measure_requests: u64,
    /// Requests per simulated point.
    pub sim_requests: u64,
    /// Core counts for the simulated curves (paper: 1–12).
    pub cores: Vec<usize>,
    /// Message size in bytes.
    pub msg_len: usize,
}

impl Default for Fig11Config {
    fn default() -> Self {
        Fig11Config {
            users: 100,
            measure_requests: 250_000,
            sim_requests: 60_000,
            cores: (1..=12).collect(),
            msg_len: 256,
        }
    }
}

impl Fig11Config {
    /// A fast configuration for tests.
    pub fn quick() -> Self {
        Fig11Config {
            users: 16,
            measure_requests: 2_000,
            sim_requests: 5_000,
            cores: vec![1, 2, 4, 8],
            msg_len: 128,
        }
    }
}

/// One server's curve.
#[derive(Debug, Clone)]
pub struct Series {
    /// Server name.
    pub name: String,
    /// Measured single-core throughput (requests/second).
    pub measured_1core: f64,
    /// Simulated (cores, requests/second) points.
    pub points: Vec<(usize, f64)>,
}

/// The full Figure 11 result.
#[derive(Debug, Clone)]
pub struct Fig11Report {
    /// One series per server, in paper order.
    pub series: Vec<Series>,
    /// Calibrated CMAIL overhead iterations.
    pub cmail_overhead_iters: u64,
    /// Measured per-request costs in ns (mailboat deliver, mailboat
    /// pickup-cycle, gomail deliver, gomail pickup-cycle).
    pub costs_ns: CostModel,
}

/// Measured cost decomposition feeding the simulator.
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    /// Mailboat: one delivery.
    pub mb_deliver: u64,
    /// Mailboat: one pickup + delete-all + unlock cycle.
    pub mb_pickup: u64,
    /// GoMail: one delivery.
    pub gm_deliver: u64,
    /// GoMail: one pickup cycle (includes lock-file traffic).
    pub gm_pickup: u64,
    /// Exclusive create + close on the native FS.
    pub fs_create: u64,
    /// Hard link into a directory.
    pub fs_link: u64,
    /// Unlink from a directory.
    pub fs_delete: u64,
    /// CMAIL burn-loop cost per iteration (fractional ns ×1000).
    pub burn_per_kiter: u64,
}

fn fresh_fs(users: u64) -> Arc<NativeFs> {
    let dirs = mail_dirs(users);
    let dir_refs: Vec<&str> = dirs.iter().map(String::as_str).collect();
    NativeFs::new(&dir_refs)
}

/// Times `iters` executions of `f` over [`MEASURE_REPS`] repetitions,
/// returning the *minimum* ns per execution — the standard best-of-N
/// defence against co-tenant noise on a shared host.
fn time_per<F: FnMut(u64)>(iters: u64, mut f: F) -> u64 {
    let per_rep = (iters / MEASURE_REPS).max(1);
    let mut best = u64::MAX;
    for rep in 0..MEASURE_REPS {
        let t0 = Instant::now();
        for i in 0..per_rep {
            f(rep * per_rep + i);
        }
        best = best.min(t0.elapsed().as_nanos() as u64 / per_rep);
    }
    best.max(1)
}

/// Repetitions per measurement (best-of-N).
const MEASURE_REPS: u64 = 5;

/// Measures the per-operation and per-request costs on this host.
pub fn measure_costs(cfg: &Fig11Config) -> CostModel {
    let mut m = CostModel::default();
    let msg = vec![b'x'; cfg.msg_len];

    // FS micro-ops.
    {
        let fs = fresh_fs(cfg.users);
        let spool = fs.resolve("spool").unwrap();
        let u0 = fs.resolve("user0").unwrap();
        m.fs_create = time_per(4000, |i| {
            let fd = fs.create(spool, &format!("c{i}")).unwrap().unwrap();
            fs.close(fd).unwrap();
        });
        m.fs_link = time_per(4000, |i| {
            assert!(fs
                .link(spool, &format!("c{i}"), u0, &format!("l{i}"))
                .unwrap());
        });
        m.fs_delete = time_per(4000, |i| {
            fs.delete(u0, &format!("l{i}")).unwrap();
        });
    }

    // Mailboat request costs (single-threaded steady state).
    {
        let server = Mailboat::init(fresh_fs(cfg.users), NativeRt::new(), cfg.users).unwrap();
        m.mb_deliver = time_per(cfg.measure_requests / 2, |i| {
            server.deliver(i % cfg.users, &msg);
        });
        m.mb_pickup = time_per(cfg.measure_requests / 2, |i| {
            let u = i % cfg.users;
            server.deliver(u, &msg); // keep mailboxes non-empty
            let msgs = server.pickup(u);
            for mm in &msgs {
                server.delete(u, &mm.id);
            }
            server.unlock(u);
        })
        .saturating_sub(m.mb_deliver)
        .max(1);
    }

    // GoMail request costs.
    {
        let server = GoMail::init(fresh_fs(cfg.users), NativeRt::new(), cfg.users).unwrap();
        m.gm_deliver = time_per(cfg.measure_requests / 2, |i| {
            server.deliver(i % cfg.users, &msg);
        });
        m.gm_pickup = time_per(cfg.measure_requests / 2, |i| {
            let u = i % cfg.users;
            server.deliver(u, &msg);
            let msgs = server.pickup(u);
            for mm in &msgs {
                server.delete(u, &mm.id);
            }
            server.unlock(u);
        })
        .saturating_sub(m.gm_deliver)
        .max(1);
    }

    // Burn loop rate (for CMAIL calibration).
    {
        let c = CMailSim::init(fresh_fs(1), NativeRt::new(), 1).unwrap();
        let mut probe = c;
        probe.overhead_iters = 100_000;
        let total = {
            let t0 = Instant::now();
            for _ in 0..2000 {
                probe.deliver(0, b"x");
            }
            t0.elapsed().as_nanos() as u64 / 2000
        };
        let plain = m.gm_deliver;
        m.burn_per_kiter = ((total.saturating_sub(plain)) * 1000 / 100_000).max(1);
    }
    m
}

/// Calibrates the CMAIL overhead from the cost model alone (the unit
/// test's fixed costs; `run_fig11` re-derives it from the live GoMail
/// anchor).
pub fn calibrate_cmail(m: &CostModel) -> u64 {
    // Average GoMail request cost (50/50 mix), spread over the average
    // burn invocations per request.
    let gm_avg = (m.gm_deliver + m.gm_pickup) / 2;
    let extra_ns = (gm_avg as f64 * (CMAIL_TARGET_RATIO - 1.0) / CMAIL_BURNS_PER_REQUEST) as u64;
    (extra_ns * 1000 / m.burn_per_kiter.max(1)).max(1)
}

// Lock-id layout for the simulator.
const L_RUNTIME: usize = 0;
const L_SPOOL: usize = 1;
const L_LOCKDIR: usize = 2;
const L_BASE_USER_DIR: usize = 3;

fn l_user_dir(users: u64, u: u64) -> usize {
    L_BASE_USER_DIR + u as usize % users as usize
}

fn l_user_lock(users: u64, u: u64) -> usize {
    L_BASE_USER_DIR + users as usize + u as usize % users as usize
}

fn num_locks(users: u64) -> usize {
    L_BASE_USER_DIR + 2 * users as usize
}

fn crit(ns: u64) -> u64 {
    ((ns as f64) * DIR_CRIT_FRAC) as u64
}

fn runtime_share(total: u64) -> Segment {
    Segment::locked(((total as f64) * RUNTIME_SERIAL_FRAC) as u64, L_RUNTIME)
}

/// Builds the Mailboat request profile for request `i` of user `u`.
fn mb_profile(m: &CostModel, users: u64, u: u64, deliver: bool) -> RequestProfile {
    if deliver {
        let total = m.mb_deliver;
        let spool_crit = crit(m.fs_create) + crit(m.fs_delete);
        let user_crit = crit(m.fs_link);
        let par = total.saturating_sub(spool_crit + user_crit);
        RequestProfile {
            segments: vec![
                Segment::locked(crit(m.fs_create), L_SPOOL),
                Segment::parallel(par),
                Segment::locked(user_crit, l_user_dir(users, u)),
                Segment::locked(crit(m.fs_delete), L_SPOOL),
                runtime_share(total),
            ],
        }
    } else {
        let total = m.mb_pickup;
        RequestProfile {
            segments: vec![
                // The in-memory user lock is held for the whole cycle.
                Segment::locked(total, l_user_lock(users, u)),
                runtime_share(total),
            ],
        }
    }
}

/// Builds the GoMail request profile (adds lock-file traffic through the
/// global `locks/` directory and treats the body like Mailboat's).
fn gm_profile(m: &CostModel, users: u64, u: u64, deliver: bool) -> RequestProfile {
    if deliver {
        let total = m.gm_deliver;
        let spool_crit = crit(m.fs_create) + crit(m.fs_delete);
        let user_crit = crit(m.fs_link);
        let par = total.saturating_sub(spool_crit + user_crit);
        RequestProfile {
            segments: vec![
                Segment::locked(crit(m.fs_create), L_SPOOL),
                Segment::parallel(par),
                Segment::locked(user_crit, l_user_dir(users, u)),
                Segment::locked(crit(m.fs_delete), L_SPOOL),
                runtime_share(total),
            ],
        }
    } else {
        let total = m.gm_pickup;
        // Lock-file create and unlink both mutate the global locks/
        // directory — the scaling bottleneck file locks introduce.
        let lockfile = crit(m.fs_create) + crit(m.fs_delete);
        let body = total.saturating_sub(lockfile);
        RequestProfile {
            segments: vec![
                Segment::locked(crit(m.fs_create), L_LOCKDIR),
                Segment::locked(body, l_user_lock(users, u)),
                Segment::locked(crit(m.fs_delete), L_LOCKDIR),
                runtime_share(total),
            ],
        }
    }
}

/// Deterministic per-request user + kind choice (matches the workload's
/// 50/50 mix over uniform users).
fn req_params(i: u64, users: u64) -> (u64, bool) {
    let mut x = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xdead_beef;
    x ^= x >> 29;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 32;
    (x % users, (x >> 40) & 1 == 0)
}

/// Runs one simulated curve.
fn simulate_series(
    name: &str,
    measured_1core: f64,
    cfg: &Fig11Config,
    profile: impl Fn(u64, bool) -> RequestProfile,
) -> Series {
    let mut points = Vec::new();
    for &cores in &cfg.cores {
        let r: SimResult = simulate(cores, cfg.sim_requests, num_locks(cfg.users), |_, i| {
            let (u, deliver) = req_params(i, cfg.users);
            profile(u, deliver)
        });
        points.push((cores, r.req_per_sec()));
    }
    Series {
        name: name.to_string(),
        measured_1core,
        points,
    }
}

/// Measures single-core throughput of a real server (best of
/// [`MEASURE_REPS`] runs, for the same noise-rejection reason as
/// `time_per`).
fn measure_1core<S: MailServer + 'static>(server: Arc<S>, cfg: &Fig11Config) -> f64 {
    let wl = WorkloadConfig {
        users: cfg.users,
        total_requests: (cfg.measure_requests / MEASURE_REPS).max(1),
        msg_len: cfg.msg_len,
        seed: 42,
    };
    let mut best = 0.0f64;
    for _ in 0..MEASURE_REPS {
        best = best.max(run_workload(Arc::clone(&server), 1, &wl).req_per_sec());
    }
    best
}

/// Runs the complete Figure 11 experiment.
pub fn run_fig11(cfg: &Fig11Config) -> Fig11Report {
    let m = measure_costs(cfg);

    // Measured single-core anchors. CMAIL's burn count is calibrated
    // against the GoMail *anchor* measurement (not the earlier cost
    // probes) so the 1.34× target tracks the same run's conditions.
    let mb = Arc::new(Mailboat::init(fresh_fs(cfg.users), NativeRt::new(), cfg.users).unwrap());
    let mb_1 = measure_1core(mb, cfg);
    let gm = Arc::new(GoMail::init(fresh_fs(cfg.users), NativeRt::new(), cfg.users).unwrap());
    let gm_1 = measure_1core(gm, cfg);
    let gm_req_ns = (1e9 / gm_1) as u64;
    let extra_ns = (gm_req_ns as f64 * (CMAIL_TARGET_RATIO - 1.0) / CMAIL_BURNS_PER_REQUEST) as u64;
    let cmail_iters = (extra_ns * 1000 / m.burn_per_kiter.max(1)).max(1);
    let mut cm = CMailSim::init(fresh_fs(cfg.users), NativeRt::new(), cfg.users).unwrap();
    cm.overhead_iters = cmail_iters;
    let cm_1 = measure_1core(Arc::new(cm), cfg);

    Fig11Report {
        series: simulate_curves(cfg, &m, cmail_iters, [mb_1, gm_1, cm_1]),
        cmail_overhead_iters: cmail_iters,
        costs_ns: m,
    }
}

/// The three simulated curves, in paper order: a pure function of the
/// per-operation costs (`measured_1core` only labels each series).
/// CMAIL = GoMail profile + a parallel burn segment.
fn simulate_curves(
    cfg: &Fig11Config,
    m: &CostModel,
    cmail_iters: u64,
    measured_1core: [f64; 3],
) -> Vec<Series> {
    let burn_ns = cmail_iters * m.burn_per_kiter / 1000;
    let users = cfg.users;
    let [mb_1, gm_1, cm_1] = measured_1core;
    vec![
        simulate_series("Mailboat", mb_1, cfg, |u, d| mb_profile(m, users, u, d)),
        simulate_series("GoMail", gm_1, cfg, |u, d| gm_profile(m, users, u, d)),
        simulate_series("CMAIL", cm_1, cfg, |u, d| {
            let mut p = gm_profile(m, users, u, d);
            p.segments.push(Segment::parallel(burn_ns));
            p
        }),
    ]
}

impl Fig11Report {
    /// The measured single-core ordering of §9.3: Mailboat > GoMail >
    /// CMAIL. A stopwatch result: `harness fig11` checks it on the run
    /// it measured; no unit test asserts it.
    pub fn measured_order_holds(&self) -> bool {
        let faster = |pair: &[Series]| pair[0].measured_1core > pair[1].measured_1core;
        self.series.windows(2).all(faster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scaling shape on fixed per-operation costs: no stopwatch, so
    /// the same numbers on any host under any load.
    #[test]
    fn fig11_quick_has_paper_shape() {
        let costs = CostModel {
            mb_deliver: 9_000,
            mb_pickup: 12_000,
            gm_deliver: 11_000,
            gm_pickup: 22_000,
            fs_create: 2_500,
            fs_link: 1_500,
            fs_delete: 1_200,
            burn_per_kiter: 300,
        };
        let cfg = Fig11Config::quick();
        let series = simulate_curves(&cfg, &costs, calibrate_cmail(&costs), [0.0; 3]);
        assert_eq!(series.len(), 3);
        // Simulated curves increase with cores but sublinearly, and keep
        // the paper's order at every core count.
        for s in &series {
            let t1 = s.points.first().unwrap().1;
            let (n_last, t_last) = *s.points.last().unwrap();
            assert!(t_last > t1, "{} did not scale at all", s.name);
            assert!(
                t_last < t1 * n_last as f64,
                "{} scaled superlinearly?",
                s.name
            );
        }
        for (i, &cores) in cfg.cores.iter().enumerate() {
            let at = |s: &Series| s.points[i].1;
            assert!(
                at(&series[0]) > at(&series[1]) && at(&series[1]) > at(&series[2]),
                "order broken at {cores} cores"
            );
        }
    }
}
