//! The ghost-instrumented Mailboat — the runtime analog of the paper's
//! Mailboat proof (§8.3).
//!
//! Proof structure, matching the paper:
//!
//! - **MsgsInv**: per-user durable *sets* of message IDs mirror the
//!   mailbox directories; the spec state σ carries the authoritative
//!   contents. Deliveries linearize at the atomic `link` into the
//!   mailbox; pickups at the directory listing; deletes at the unlink.
//! - **Lower-bound leases** (`lease(dir, ⊇N)`): the mailbox lock
//!   protects only *deletion* rights — a [`perennial::SetLease`] held
//!   across Pickup…Unlock — while concurrent deliveries insert freely,
//!   exactly §8.3's leasing strategy.
//! - **TmpInv**: spool temporaries belong to recovery after a crash;
//!   `Recover` deletes them all. Their contents never matter (§8.3: the
//!   inode content permission stays out of the invariant).
//! - **HeapInv**: in model mode a delivery can read its message from a
//!   Goose heap slice; a caller mutating that slice concurrently is
//!   undefined behaviour caught by the two-phase-write race detector —
//!   the §8.3 "exploiting undefined behaviour" argument, executable.

use crate::spec::{MailOp, MailRet, MailSpec, MailState};
use goose_rt::fs::{DirH, FileSys, ModelFs};
use goose_rt::heap::{Heap, Slice};
use goose_rt::net::ModelNet;
use goose_rt::runtime::{GLock, ModelRtExt};
use parking_lot::owner::OwnerCell;
use parking_lot::RwLock;
use perennial::{GhostUnwrap, LockInv, SetId, SetLease};
use perennial_checker::{System, World};
use std::sync::Arc;

/// Deliberate bugs for mutation tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MbMutant {
    /// The correct system.
    None,
    /// Write messages directly into the mailbox, no spool (a concurrent
    /// or post-crash pickup can observe a partial message).
    NoSpool,
    /// Commit the delivery when the spool file is written, before the
    /// link (a crash in between loses a committed message).
    CommitAtSpool,
    /// Recovery forgets to clean the spool.
    SkipRecoveryCleanup,
    /// Delete without holding the pickup lock.
    DeleteWithoutLock,
    /// The network courier delivers every received request without
    /// deduplicating by request id: a plan-duplicated message lands
    /// twice. Invisible to crash sweeps — only the net-fault sweep's
    /// `Duplicate` plans expose it.
    NetNoDedup,
}

/// Model-mode chunk sizes (small, to exercise the chunk loops without
/// exploding the schedule space).
const MODEL_WRITE_CHUNK: usize = 4;
const MODEL_READ_CHUNK: u64 = 3;

/// The instrumented Mailboat.
pub struct VerifiedMailboat {
    mutant: MbMutant,
    fs: Arc<ModelFs>,
    /// The process's Goose heap (the §8.3 slice-race workload reads a
    /// message out of it) and its network endpoint (the courier
    /// workload's request channel): volatile, lost with the process.
    heap: Arc<Heap>,
    net: Arc<ModelNet>,
    spool: DirH,
    users: Vec<DirH>,
    sets: Vec<SetId<String>>,
    lockinvs: Vec<Arc<LockInv<SetLease<String>>>>,
    locks: RwLock<Vec<Arc<dyn GLock>>>,
    /// While a user is locked (Pickup…Unlock), their deletion lease
    /// lives here.
    sessions: Vec<OwnerCell<Option<SetLease<String>>>>,
}

impl VerifiedMailboat {
    /// Sets up ghost resources over a fresh model file system whose
    /// directory layout is `spool` plus `user0..userN`.
    pub fn new(w: &World<MailSpec>, fs: Arc<ModelFs>, users: u64, mutant: MbMutant) -> Self {
        let spool = fs.resolve("spool").expect("spool dir");
        let mut user_dirs = Vec::new();
        let mut sets = Vec::new();
        let mut lockinvs = Vec::new();
        let mut sessions = Vec::new();
        for u in 0..users {
            user_dirs.push(fs.resolve(&format!("user{u}")).expect("user dir"));
            let (set, lease) = w.ghost.alloc_set::<String>(Vec::<String>::new());
            sets.push(set);
            lockinvs.push(Arc::new(LockInv::new(lease)));
            sessions.push(OwnerCell::new(None));
        }
        VerifiedMailboat {
            mutant,
            fs,
            heap: Heap::new(Arc::clone(&w.rt)),
            net: ModelNet::new(Arc::clone(&w.rt)),
            spool,
            users: user_dirs,
            sets,
            lockinvs,
            locks: RwLock::new(Vec::new()),
            sessions,
        }
    }

    /// The process's heap (workloads allocate message slices in it).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// The process's network endpoint.
    pub fn net(&self) -> &ModelNet {
        &self.net
    }

    fn lock(&self, user: u64) -> Arc<dyn GLock> {
        Arc::clone(&self.locks.read()[user as usize])
    }

    fn fresh_name(&self, w: &World<MailSpec>, prefix: &str) -> String {
        format!("{prefix}{:016x}", w.rt.rand_u64())
    }

    /// `Deliver` with the message available as plain bytes.
    pub fn deliver(&self, w: &World<MailSpec>, user: u64, msg: &str) {
        let tok = w
            .ghost
            .begin_op(MailOp::Deliver(user, msg.to_string()))
            .ghost_unwrap();
        self.deliver_body(w, user, msg, None, &tok);
        w.ghost.finish_op(tok, &MailRet::Unit).ghost_unwrap();
    }

    /// `Deliver` reading the message out of a slice of the process's
    /// Goose heap chunk by chunk — the §8.3 configuration where a caller
    /// racing on the slice is undefined behaviour.
    pub fn deliver_slice(&self, w: &World<MailSpec>, user: u64, slice: Slice, expected: &str) {
        let tok = w
            .ghost
            .begin_op(MailOp::Deliver(user, expected.to_string()))
            .ghost_unwrap();
        self.deliver_body(w, user, expected, Some(slice), &tok);
        w.ghost.finish_op(tok, &MailRet::Unit).ghost_unwrap();
    }

    fn deliver_body(
        &self,
        w: &World<MailSpec>,
        user: u64,
        msg: &str,
        heap_src: Option<Slice>,
        tok: &perennial::OpToken,
    ) {
        let udir = self.users[user as usize];

        if self.mutant == MbMutant::NoSpool {
            // Mutant: write straight into the mailbox. Commit at the
            // create (when the name appears in the directory).
            let (id, fd) = loop {
                let id = self.fresh_name(w, "m");
                if let Some(fd) = self.fs.create(udir, &id).expect("create") {
                    break (id, fd);
                }
            };
            w.ghost
                .set_insert(self.sets[user as usize], &id)
                .ghost_unwrap();
            w.ghost
                .commit_op_as(tok, MailOp::DeliverAs(user, msg.to_string(), id.clone()))
                .ghost_unwrap();
            self.write_chunks(w, fd, msg, heap_src);
            self.fs.close(fd).expect("close");
            return;
        }

        // Spool phase (§8.2): fresh temporary name by random retry.
        let (tmp, fd) = loop {
            let tmp = self.fresh_name(w, "t");
            if let Some(fd) = self.fs.create(self.spool, &tmp).expect("spool create") {
                break (tmp, fd);
            }
        };
        self.write_chunks(w, fd, msg, heap_src);
        self.fs.close(fd).expect("spool close");

        if self.mutant == MbMutant::CommitAtSpool {
            // Mutant: premature linearization — the message is only in
            // the spool, not yet in any mailbox.
            let id = self.fresh_name(w, "m");
            w.ghost
                .commit_op_as(tok, MailOp::DeliverAs(user, msg.to_string(), id.clone()))
                .ghost_unwrap();
            if self
                .fs
                .link(self.spool, &tmp, udir, &id)
                .expect("mailbox link")
            {
                w.ghost
                    .set_insert(self.sets[user as usize], &id)
                    .ghost_unwrap();
            }
            self.fs.delete(self.spool, &tmp).expect("spool unlink");
            return;
        }

        // Install phase: the successful link is the linearization point;
        // the ghost set insert and the commit are adjacent to it.
        loop {
            let id = self.fresh_name(w, "m");
            if self
                .fs
                .link(self.spool, &tmp, udir, &id)
                .expect("mailbox link")
            {
                w.ghost
                    .set_insert(self.sets[user as usize], &id)
                    .ghost_unwrap();
                w.ghost
                    .commit_op_as(tok, MailOp::DeliverAs(user, msg.to_string(), id))
                    .ghost_unwrap();
                break;
            }
        }
        self.fs.delete(self.spool, &tmp).expect("spool unlink");
    }

    fn write_chunks(
        &self,
        _w: &World<MailSpec>,
        fd: goose_rt::fs::Fd,
        msg: &str,
        heap_src: Option<Slice>,
    ) {
        match heap_src {
            None => {
                for chunk in msg.as_bytes().chunks(MODEL_WRITE_CHUNK) {
                    self.fs.append(fd, chunk).expect("append");
                }
            }
            Some(slice) => {
                // Read the caller's slice chunk by chunk (each read is an
                // atomic heap step; racy mutation by the caller is UB).
                let len = self.heap.slice_len(slice);
                let mut off = 0u64;
                while off < len {
                    let n = (MODEL_WRITE_CHUNK as u64).min(len - off);
                    let chunk = self.heap.slice_read(slice, off, n);
                    self.fs.append(fd, &chunk).expect("append");
                    off += n;
                }
            }
        }
    }

    /// `Pickup`: acquires the user lock, takes the deletion lease into
    /// the session, and linearizes at the directory listing.
    pub fn pickup(&self, w: &World<MailSpec>, user: u64) -> Vec<(String, String)> {
        let tok = w.ghost.begin_op(MailOp::Pickup(user)).ghost_unwrap();
        self.lock(user).acquire();
        let lease = self.lockinvs[user as usize].take().ghost_unwrap();

        let udir = self.users[user as usize];
        // The listing is the linearization point: the spec's mailbox
        // snapshot corresponds to exactly the names present now. Files
        // are immutable once linked and deletes are excluded by the
        // lock, so reading the contents afterwards observes the same
        // snapshot (concurrent deliveries linearize after us).
        let names = self.fs.list(udir).expect("mailbox list");
        let ret = w.ghost.commit_op(&tok).ghost_unwrap();

        let mut out = Vec::with_capacity(names.len());
        for id in names {
            let contents = self
                .fs
                .read_file(udir, &id, MODEL_READ_CHUNK)
                .expect("read message");
            out.push((id, String::from_utf8(contents).expect("utf8 message")));
        }
        *self.sessions[user as usize].lock() = Some(lease);
        w.ghost
            .finish_op(tok, &MailRet::Msgs(out.clone()))
            .ghost_unwrap();
        match ret {
            MailRet::Msgs(_) => out,
            MailRet::Unit => unreachable!("pickup committed a unit transition"),
        }
    }

    /// `Delete`: unlink a picked-up message; requires the session lease
    /// (i.e. the pickup lock), whose set-delete checks membership and
    /// version.
    pub fn delete(&self, w: &World<MailSpec>, user: u64, id: &str) {
        let tok = w
            .ghost
            .begin_op(MailOp::Delete(user, id.to_string()))
            .ghost_unwrap();
        let mut lease = if self.mutant == MbMutant::DeleteWithoutLock {
            // Mutant: grab the deletion lease without holding the lock.
            self.lockinvs[user as usize].take().ghost_unwrap()
        } else {
            self.sessions[user as usize]
                .lock()
                .take()
                .expect("delete without a pickup session")
        };
        let udir = self.users[user as usize];
        // The unlink is the linearization point; set-delete and commit
        // are adjacent.
        self.fs.delete(udir, id).expect("mailbox delete");
        w.ghost
            .set_delete(self.sets[user as usize], &mut lease, &id.to_string())
            .ghost_unwrap();
        let ret = w.ghost.commit_op(&tok).ghost_unwrap();
        if self.mutant == MbMutant::DeleteWithoutLock {
            self.lockinvs[user as usize].put(lease).ghost_unwrap();
        } else {
            *self.sessions[user as usize].lock() = Some(lease);
        }
        w.ghost.finish_op(tok, &ret).ghost_unwrap();
    }

    /// `Unlock`: return the deletion lease to the lock invariant and
    /// release the lock.
    pub fn unlock(&self, w: &World<MailSpec>, user: u64) {
        let tok = w.ghost.begin_op(MailOp::Unlock(user)).ghost_unwrap();
        let ret = w.ghost.commit_op(&tok).ghost_unwrap();
        let lease = self.sessions[user as usize]
            .lock()
            .take()
            .expect("unlock without a pickup session");
        self.lockinvs[user as usize].put(lease).ghost_unwrap();
        self.lock(user).release();
        w.ghost.finish_op(tok, &ret).ghost_unwrap();
    }
}

impl System<MailSpec> for VerifiedMailboat {
    /// Rebuilds volatile state at boot: fresh locks, empty sessions.
    fn boot(&self, w: &World<MailSpec>) {
        *self.locks.write() = (0..self.users.len()).map(|_| w.rt.new_glock()).collect();
        for s in &self.sessions {
            *s.lock() = None;
        }
    }

    /// Crash: open descriptors, heap contents and in-flight messages are
    /// lost; file data is durable.
    fn crash(&self) {
        self.fs.crash();
        self.heap.crash();
        self.net.crash();
    }

    /// `Recover` (§8.2/§8.3): delete spool temporaries (TmpInv gives
    /// recovery the right), re-establish the per-user lock invariants
    /// with fresh lower-bound leases, and spend the crash token.
    fn recover(&self, w: &World<MailSpec>) {
        if self.mutant != MbMutant::SkipRecoveryCleanup {
            let names = self.fs.list(self.spool).expect("spool list");
            for name in names {
                self.fs.delete(self.spool, &name).expect("spool cleanup");
            }
        }
        for (u, set) in self.sets.iter().enumerate() {
            let lease = w.ghost.recover_set_lease(*set).ghost_unwrap();
            self.lockinvs[u].reset(lease);
        }
        w.ghost.recovery_done().ghost_unwrap();
    }

    /// AbsR at quiescence: every mailbox directory matches σ (names and
    /// contents), and the spool is empty (TmpInv).
    fn abs_check(&self, w: &World<MailSpec>) -> Result<(), String> {
        let sigma: MailState = w.ghost.spec_state();
        for (u, _) in self.users.iter().enumerate() {
            let dir = format!("user{u}");
            let names = self.fs.peek_list(&dir).unwrap_or_default();
            let mbox = sigma.get(&(u as u64)).cloned().unwrap_or_default();
            let spec_names: Vec<String> = mbox.keys().cloned().collect();
            if names != spec_names {
                return Err(format!(
                    "AbsR violated: user{u} dir has {names:?}, spec has {spec_names:?}"
                ));
            }
            for (id, contents) in &mbox {
                let data = self
                    .fs
                    .peek_file(&dir, id)
                    .ok_or_else(|| format!("message {id} missing from user{u}"))?;
                if data != contents.as_bytes() {
                    return Err(format!(
                        "AbsR violated: user{u}/{id} has {:?}, spec has {contents:?}",
                        String::from_utf8_lossy(&data)
                    ));
                }
            }
        }
        let spool = self.fs.peek_list("spool").unwrap_or_default();
        if !spool.is_empty() {
            return Err(format!("TmpInv violated: spool not cleaned: {spool:?}"));
        }
        Ok(())
    }
}
