//! A durable append log over the deferred-durability file system — the
//! verified artifact exercising the §6.2 extension ([`goose_rt::fs::BufferedFs`]).
//!
//! With a buffer cache, appends are volatile until `fsync`; the spec
//! therefore has a group-commit shape: a durability watermark advanced
//! by an internal step adjacent to the physical `fsync`, and a crash
//! transition truncating the un-synced suffix. Unlike group commit,
//! the volatile suffix lives in the *kernel* (the FS buffer cache)
//! rather than in user memory — the system under test holds no volatile
//! state of its own beyond its file descriptor.
//!
//! Records are length-prefixed; recovery re-opens the durable file and
//! trusts only whole records (a torn length prefix cannot occur because
//! fsync granularity in the model is whole-file, but the parser defends
//! against short tails anyway, since a real kernel could persist a
//! prefix).

use goose_rt::fs::buffered::BufferedFsImage;
use goose_rt::fs::{BufferedFs, DirH, Fd, FileSys};
use goose_rt::runtime::{GLock, ModelRtExt};
use parking_lot::owner::OwnerCell;
use perennial::GhostUnwrap;
use perennial_checker::{Harness, Program, Script, System, World};
use perennial_spec::{SpecTS, Step, Transition};
use std::sync::Arc;
use SlStep::{Append, AppendSynced, ReadAll};

/// Abstract state of the synced log.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SlState {
    /// All appended records, in order.
    pub records: Vec<Vec<u8>>,
    /// How many leading records are durable (fsynced).
    pub persisted: usize,
}

/// Operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlOp {
    /// Append a record (volatile until the next sync).
    Append(Vec<u8>),
    /// Append a record and make everything durable before returning.
    AppendSynced(Vec<u8>),
    /// Read the whole logical log.
    ReadAll,
}

/// Return values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlRet {
    /// Acknowledgement.
    Done,
    /// `ReadAll` result.
    Records(Vec<Vec<u8>>),
}

perennial_spec::encode! {
    enum SlOp { Append(r), AppendSynced(r), ReadAll }
}
perennial_spec::encode! {
    enum SlRet { Done, Records(rs) }
}

/// The synced-log specification.
#[derive(Debug, Clone, Default)]
pub struct SlSpec;

impl SlSpec {
    /// The internal sync transition: everything buffered becomes durable.
    pub fn sync_transition() -> Transition<SlState, ()> {
        Transition::modify(|s: &mut SlState| s.persisted = s.records.len()).boxed()
    }
}

impl SpecTS for SlSpec {
    type State = SlState;
    type Op = SlOp;
    type Ret = SlRet;

    fn init(&self) -> SlState {
        SlState::default()
    }

    fn op_transition(&self, op: &SlOp) -> Transition<SlState, SlRet> {
        match op.clone() {
            SlOp::Append(r) => Transition::modify(move |s: &mut SlState| s.records.push(r))
                .map(|()| SlRet::Done)
                .boxed(),
            // AppendSynced is Append plus the sync step; since the op is
            // atomic at the spec level, the watermark lands at the end.
            SlOp::AppendSynced(r) => Transition::modify(move |s: &mut SlState| {
                s.records.push(r);
                s.persisted = s.records.len();
            })
            .map(|()| SlRet::Done)
            .boxed(),
            SlOp::ReadAll => {
                Transition::gets(|s: &SlState| SlRet::Records(s.records.clone())).boxed()
            }
        }
    }

    fn crash_transition(&self) -> Transition<SlState, ()> {
        Transition::modify(|s: &mut SlState| s.records.truncate(s.persisted)).boxed()
    }
}

/// Deliberate bugs for mutation tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlMutant {
    /// The correct system.
    None,
    /// `AppendSynced` skips the physical fsync (acknowledged durability
    /// that a machine crash loses).
    SkipFsync,
    /// `AppendSynced` fsyncs the file but never synced the directory
    /// entry at init (the orphan-inode hazard).
    SkipDirSync,
}

/// The instrumented synced log.
pub struct SyncedLog {
    mutant: SlMutant,
    fs: Arc<BufferedFs>,
    dir: DirH,
    lock: Arc<dyn GLock>,
    /// The append descriptor (volatile: re-created at boot).
    fd: OwnerCell<Option<Fd>>,
}

const LOG_FILE: &str = "log";

fn encode(rec: &[u8]) -> Vec<u8> {
    let mut out = (rec.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(rec);
    out
}

fn decode(data: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 4 <= data.len() {
        let len = u32::from_le_bytes(data[i..i + 4].try_into().unwrap()) as usize;
        if i + 4 + len > data.len() {
            break; // torn tail: ignore
        }
        out.push(data[i + 4..i + 4 + len].to_vec());
        i += 4 + len;
    }
    out
}

impl SyncedLog {
    /// Creates the log object; the file itself is created/anchored by
    /// [`SyncedLog::boot`].
    pub fn new(w: &World<SlSpec>, fs: Arc<BufferedFs>, mutant: SlMutant) -> Self {
        let dir = fs.resolve("d").expect("log dir");
        SyncedLog {
            mutant,
            fs,
            dir,
            lock: w.rt.new_glock(),
            fd: OwnerCell::new(None),
        }
    }

    fn fd(&self) -> Fd {
        self.fd.lock().expect("boot() not called")
    }

    /// Appends a record without syncing (fast, volatile).
    pub fn append(&self, w: &World<SlSpec>, rec: &[u8]) {
        let tok = w.ghost.begin_op(SlOp::Append(rec.to_vec())).ghost_unwrap();
        self.lock.acquire();
        // The physical append is the linearization point.
        self.fs.append(self.fd(), &encode(rec)).expect("append");
        let ret = w.ghost.commit_op(&tok).ghost_unwrap();
        self.lock.release();
        w.ghost.finish_op(tok, &ret).ghost_unwrap();
    }

    /// Appends a record and makes the whole log durable.
    pub fn append_synced(&self, w: &World<SlSpec>, rec: &[u8]) {
        let tok = w
            .ghost
            .begin_op(SlOp::AppendSynced(rec.to_vec()))
            .ghost_unwrap();
        self.lock.acquire();
        self.fs.append(self.fd(), &encode(rec)).expect("append");
        if self.mutant == SlMutant::SkipFsync {
            // Mutant: acknowledge durability without the fsync.
            let ret = w.ghost.commit_op(&tok).ghost_unwrap();
            self.lock.release();
            w.ghost.finish_op(tok, &ret).ghost_unwrap();
            return;
        }
        // The fsync is the durability (and linearization) point: the
        // commit — which advances the spec watermark — is adjacent.
        self.fs.fsync(self.fd()).expect("fsync");
        let ret = w.ghost.commit_op(&tok).ghost_unwrap();
        self.lock.release();
        w.ghost.finish_op(tok, &ret).ghost_unwrap();
    }

    /// Explicitly syncs the buffered suffix (the group-commit move).
    pub fn sync(&self, w: &World<SlSpec>) {
        self.lock.acquire();
        self.fs.fsync(self.fd()).expect("fsync");
        w.ghost
            .internal_step(SlSpec::sync_transition())
            .ghost_unwrap();
        self.lock.release();
    }

    /// Reads the whole logical log.
    pub fn read_all(&self, w: &World<SlSpec>) -> Vec<Vec<u8>> {
        let tok = w.ghost.begin_op(SlOp::ReadAll).ghost_unwrap();
        self.lock.acquire();
        let data = self.fs.read_file(self.dir, LOG_FILE, 64).expect("read log");
        let recs = decode(&data);
        let ret = w.ghost.commit_op(&tok).ghost_unwrap();
        self.lock.release();
        w.ghost
            .finish_op(tok, &SlRet::Records(recs.clone()))
            .ghost_unwrap();
        match ret {
            SlRet::Records(_) => recs,
            SlRet::Done => unreachable!("read committed an append transition"),
        }
    }
}

impl System<SlSpec> for SyncedLog {
    type Durable = BufferedFsImage;

    /// The file system, unsynced data included: `crash` reverts it to the
    /// durable image. The descriptor is re-opened by `boot`.
    fn snapshot(&self) -> BufferedFsImage {
        self.fs.image()
    }

    fn restore(&self, snap: &BufferedFsImage) {
        self.fs.restore(snap);
    }

    /// Rebuilds volatile state at boot: the append fd.
    ///
    /// The Goose file subset has no `open(O_APPEND)` (§6.2's "a selection
    /// of system calls"), so reopening an existing log recreates the
    /// inode with identical bytes and **re-anchors it durably** —
    /// without the re-anchor, the durable directory entry would keep
    /// pointing at the *old* inode and every later `fsync` would persist
    /// bytes no entry names (the orphan-inode hazard the `SkipDirSync`
    /// mutant demonstrates).
    fn boot(&self, _: &World<SlSpec>) {
        let fd = match self.fs.create(self.dir, LOG_FILE).expect("create") {
            Some(fd) => fd, // first boot: fresh file
            None => {
                // Reopen: read, unlink, recreate, replay. At boot the
                // volatile image equals the durable one, so replaying
                // and re-anchoring changes no observable state.
                let data = self
                    .fs
                    .read_file(self.dir, LOG_FILE, 1 << 16)
                    .expect("read existing log");
                self.fs
                    .delete(self.dir, LOG_FILE)
                    .expect("unlink for reopen");
                let fd = self
                    .fs
                    .create(self.dir, LOG_FILE)
                    .expect("recreate")
                    .expect("fresh after unlink");
                if !data.is_empty() {
                    self.fs.append(fd, &data).expect("replay bytes");
                }
                fd
            }
        };
        if self.mutant != SlMutant::SkipDirSync {
            self.fs.fsync(fd).expect("anchor fsync");
            self.fs.dir_sync(self.dir).expect("anchor dir sync");
        }
        *self.fd.lock() = Some(fd);
    }

    /// Crash transition for the file system: revert the volatile image
    /// to the durable one.
    fn crash(&self) {
        self.fs.crash();
    }

    /// Recovery: nothing to repair (the durable image *is* the state);
    /// spend the crash token, whose transition truncates σ to the
    /// watermark.
    fn recover(&self, w: &World<SlSpec>) {
        w.ghost.recovery_done().ghost_unwrap();
    }

    /// AbsR at quiescence: the volatile file decodes to σ's records and
    /// the durable image decodes to a prefix of at least `persisted`.
    fn abs_check(&self, w: &World<SlSpec>) -> Result<(), String> {
        let sigma = w.ghost.spec_state();
        let vol = self
            .fs
            .peek_file("d", LOG_FILE)
            .map(|d| decode(&d))
            .unwrap_or_default();
        if vol != sigma.records {
            return Err(format!(
                "AbsR violated: file has {} records, spec has {}",
                vol.len(),
                sigma.records.len()
            ));
        }
        let dur = self
            .fs
            .peek_durable_file("d", LOG_FILE)
            .map(|d| decode(&d))
            .unwrap_or_default();
        if dur.len() < sigma.persisted {
            return Err(format!(
                "durability violated: {} durable records, watermark {}",
                dur.len(),
                sigma.persisted
            ));
        }
        if !sigma
            .records
            .starts_with(&dur[..dur.len().min(sigma.records.len())])
        {
            return Err("durable image is not a prefix of the logical log".into());
        }
        Ok(())
    }
}

/// One step of a synced-log program: the spec's operations, each record
/// given as static bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlStep {
    /// `append(rec)`.
    Append(&'static [u8]),
    /// `append_synced(rec)`.
    AppendSynced(&'static [u8]),
    /// `read_all()`.
    ReadAll,
}

/// A writer mixing unsynced and synced appends, and a reader; after
/// recovery, everything the spec says survived is readable and a synced
/// append still lands.
pub static APPEND_SYNC: Program<SlStep> = Program {
    threads: &[
        (
            "writer",
            &[Append(b"v1"), AppendSynced(b"d1"), Append(b"v2")],
        ),
        ("reader", &[ReadAll]),
    ],
    after: &[ReadAll, AppendSynced(b"post"), ReadAll],
};

/// Checker harness for the synced log: a mutant and the program it runs.
pub struct SlHarness {
    /// Which mutant to run.
    pub mutant: SlMutant,
    /// The workload.
    pub program: &'static Program<SlStep>,
}

/// Takes one step of a synced-log program.
pub fn step(sys: &SyncedLog, w: &World<SlSpec>, s: &SlStep) {
    match *s {
        Append(rec) => sys.append(w, rec),
        AppendSynced(rec) => sys.append_synced(w, rec),
        ReadAll => _ = sys.read_all(w),
    }
}

impl Harness<SlSpec> for SlHarness {
    type Sys = SyncedLog;

    fn spec(&self) -> SlSpec {
        SlSpec
    }

    fn make(&self, w: &World<SlSpec>) -> Script<SyncedLog, SlSpec> {
        let fs = BufferedFs::new(Arc::clone(&w.rt), &["d"]);
        let mut script = Script::new(SyncedLog::new(w, fs, self.mutant));
        script.program(self.program, step);
        script
    }

    fn name(&self) -> &str {
        "synced log (deferred durability)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let recs: Vec<Vec<u8>> = vec![b"a".to_vec(), b"longer record".to_vec(), vec![]];
        let mut bytes = Vec::new();
        for r in &recs {
            bytes.extend(encode(r));
        }
        assert_eq!(decode(&bytes), recs);
    }

    #[test]
    fn decode_ignores_torn_tail() {
        let mut bytes = encode(b"whole");
        bytes.extend_from_slice(&100u32.to_le_bytes());
        bytes.extend_from_slice(b"short");
        assert_eq!(decode(&bytes), vec![b"whole".to_vec()]);
    }
}
