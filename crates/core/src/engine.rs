//! The ghost engine: Perennial's capability discipline as an executable,
//! runtime-checked object.
//!
//! One [`Ghost`] instance accompanies one checked execution, on the OS
//! thread that runs it. Every method is one *atomic step* of ghost state:
//! it borrows the whole state for its length (an owner-checked cell, not
//! a lock — an execution's virtual threads share one OS thread, and no
//! method yields), mirroring Iris's rule that invariants open and close
//! around a single atomic step. The engine plays three roles:
//!
//! 1. **Capability bookkeeping** — versioned volatile cells, durable
//!    master/lease cells, durable sets, helping tokens, the crash token.
//! 2. **Online refinement** — `commit_op` simulates the spec transition
//!    against `source(σ)` the moment the implementation linearizes, and
//!    `finish_op` checks the value actually returned; any divergence is an
//!    immediate verification failure.
//! 3. **Crash semantics** — `crash()` bumps the version (invalidating all
//!    volatile capabilities and leases, §5.2/§5.3), aborts in-flight
//!    uncommitted operations that were not stashed for helping, and arms
//!    the `⇛Crashing` token that recovery must spend (§5.5).

use crate::error::{GhostError, GhostResult};
use crate::resource::{check_version, DurId, Lease, Leased, PointsTo, SetId, SetItem, SetLease};
use crate::trace::{Trace, TraceEvent};
use crate::validate::Report;
use parking_lot::owner::{OwnerCell, OwnerGuard};
use perennial_spec::{Jid, SpecTS, Transition};
use std::any::Any;
use std::collections::{BTreeSet, HashMap};
use std::marker::PhantomData;
use std::sync::Arc;

/// Ownership of a pending spec-level operation: the paper's `j ⇛ op`.
///
/// Not `Clone`: holding the Rust value is holding the capability.
#[derive(Debug)]
pub struct OpToken {
    jid: Jid,
}

impl OpToken {
    /// The operation instance this token names.
    pub fn jid(&self) -> Jid {
        self.jid
    }
}

/// State of the spec-level crash token (§5.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashToken {
    /// No crash outstanding.
    Idle,
    /// `⇛Crashing`: a crash happened; recovery must simulate the spec
    /// crash transition before normal operation resumes.
    Crashing,
    /// `⇛Done`: recovery spent the token; normal operation may resume.
    Done,
}

#[derive(Debug, Clone, PartialEq)]
enum OpPhase<Ret> {
    Pending,
    Stashed { key: u64 },
    Committed { ret: Ret },
    Helped { ret: Ret },
    Finished,
    Aborted,
}

struct OpRecord<S: SpecTS> {
    op: S::Op,
    phase: OpPhase<S::Ret>,
}

/// A type-erased cell value.
type Value = Box<dyn Any + Send>;

struct Inner<S: SpecTS> {
    version: u64,
    state: S::State,
    ops: HashMap<Jid, OpRecord<S>>,
    /// Helping tokens stashed in the crash invariant: key → jid.
    help: HashMap<u64, Jid>,
    crash_token: CrashToken,
    next_jid: u64,
    next_res: u64,
    /// Volatile cells. No version per cell: a crash clears the table, so
    /// existence implies currency; the capability carries the version.
    vol: HashMap<u64, Value>,
    dur: HashMap<u64, Leased<Value>>,
    /// Durable sets, members kept as their [`SetItem::encode`] bytes.
    sets: HashMap<u64, Leased<BTreeSet<Vec<u8>>>>,
    trace: Trace<S::Op, S::Ret>,
    first_error: Option<GhostError>,
    /// Ghost-engine calls made so far. The explorer diffs this around
    /// each scheduler grant to learn whether the step touched ghost
    /// state (many mutators push no trace event, so trace length is not
    /// a usable signal).
    op_count: u64,
}

// ----------------------------------------------------------------------
// The guards: each rule of the discipline is stated once, here (or in
// `resource.rs` for the two a capability can check by itself), and each
// names the one `GhostError` it reports. The public methods below are
// their rule plus calls into these, in the order the guards are tried.
// DESIGN.md §4 has the rule → guard → error → test table.
// ----------------------------------------------------------------------

/// This id names a cell of `table`.
fn cell<C>(table: &mut HashMap<u64, C>, id: u64) -> GhostResult<&mut C> {
    table.get_mut(&id).ok_or(GhostError::UnknownResource { id })
}

/// The cell under `id` holds a `T`.
fn typed<T: Clone + 'static>(value: &Value, id: u64) -> GhostResult<T> {
    let held = value.downcast_ref::<T>();
    held.cloned().ok_or(GhostError::TypeMismatch { id })
}

impl<S: SpecTS> Inner<S> {
    /// `j`'s record; a `j` this engine never minted is reported as `msg`.
    fn op(&mut self, jid: Jid, msg: &'static str) -> GhostResult<&mut OpRecord<S>> {
        let unknown = GhostError::OpState { jid, msg };
        self.ops.get_mut(&jid).ok_or(unknown)
    }

    /// `j`'s record, which must still hold `j ⇛ op` unspent and with its
    /// thread (neither stashed nor committed), or `spent` is reported.
    fn pending_op(
        &mut self,
        jid: Jid,
        unknown: &'static str,
        spent: &'static str,
    ) -> GhostResult<&mut OpRecord<S>> {
        let rec = self.op(jid, unknown)?;
        if rec.phase != OpPhase::Pending {
            return Err(GhostError::OpState { jid, msg: spent });
        }
        Ok(rec)
    }

    /// Table 1, *refinement* and *crash refinement*: simulates `t` as
    /// one spec step against `source(σ)` on `jid`'s behalf (`None` for
    /// the crash step and internal steps). `σ` moves only if it is one.
    fn simulate<R: 'static>(
        &mut self,
        jid: Option<Jid>,
        t: &Transition<S::State, R>,
    ) -> GhostResult<R> {
        let not_a_step = |err| GhostError::SpecStep { jid, err };
        let (state, ret) = t.step(&self.state).map_err(not_a_step)?;
        self.state = state;
        Ok(ret)
    }

    /// `⇛Crashing` must be armed: only recovery may do this.
    fn in_recovery(&self, msg: &'static str) -> GhostResult<()> {
        if self.crash_token != CrashToken::Crashing {
            return Err(GhostError::CrashToken { msg });
        }
        Ok(())
    }

    /// The `j` whose token is stashed under `key` (and is `owner`, when
    /// a thread claims the token as its own).
    fn stashed(&self, key: u64, owner: Option<Jid>) -> GhostResult<Jid> {
        match self.help.get(&key) {
            Some(&jid) if owner.is_none_or(|o| o == jid) => Ok(jid),
            _ => Err(GhostError::HelpTokenMissing { key }),
        }
    }

    /// Table 1's lease rule: the lease presented governs resource `id`,
    /// and was minted for the current version.
    fn governs(&self, what: &'static str, id: u64, lease_id: u64, minted: u64) -> GhostResult<()> {
        if lease_id != id {
            return Err(GhostError::WrongLease { id, lease_id });
        }
        check_version(what, minted, self.version)
    }

    /// Moves `j`'s token to `phase`, once the call's guards have passed.
    fn set_phase(&mut self, jid: Jid, phase: OpPhase<S::Ret>) {
        if let Some(rec) = self.ops.get_mut(&jid) {
            rec.phase = phase;
        }
    }

    /// The next resource id, and the version a capability for it gets.
    fn fresh(&mut self) -> (u64, u64) {
        let id = self.next_res;
        self.next_res += 1;
        (id, self.version)
    }

    /// `commit_op` (`refined` absent: commit as invoked) and
    /// `commit_op_as`.
    fn commit(&mut self, spec: &S, jid: Jid, refined: Option<S::Op>) -> GhostResult<S::Ret> {
        let invoked = &self
            .pending_op(
                jid,
                "commit of unknown op",
                "commit requires the op to be pending (not stashed/committed)",
            )?
            .op;
        let op = refined.unwrap_or_else(|| invoked.clone());
        if !spec.op_refines(invoked, &op) {
            let msg = "committed op is not a refinement of the invoked op";
            return Err(GhostError::OpState { jid, msg });
        }
        let ret = self.simulate(Some(jid), &spec.op_transition(&op))?;
        let committed = OpRecord {
            op: op.clone(),
            phase: OpPhase::Committed { ret: ret.clone() },
        };
        self.ops.insert(jid, committed);
        self.trace.push(TraceEvent::Commit {
            jid,
            op,
            ret: ret.clone(),
        });
        Ok(ret)
    }
}

/// The ghost engine for one checked execution.
pub struct Ghost<S: SpecTS> {
    spec: Arc<S>,
    inner: OwnerCell<Inner<S>>,
}

impl<S: SpecTS> Ghost<S> {
    /// Creates an engine with the spec's initial abstract state.
    pub fn new(spec: S) -> Arc<Self> {
        let state = spec.init();
        Arc::new(Ghost {
            spec: Arc::new(spec),
            inner: OwnerCell::new(Inner {
                version: 0,
                state,
                ops: HashMap::new(),
                help: HashMap::new(),
                crash_token: CrashToken::Idle,
                next_jid: 0,
                next_res: 0,
                vol: HashMap::new(),
                dur: HashMap::new(),
                sets: HashMap::new(),
                trace: Trace::default(),
                first_error: None,
                op_count: 0,
            }),
        })
    }

    /// The spec this engine refines against.
    pub fn spec(&self) -> &S {
        &self.spec
    }

    /// Borrows the engine's state, counting the call. Panics from an OS
    /// thread other than the one that built the engine, and if a step is
    /// already in progress (see [`Ghost::with_trace`]). The contract: every public
    /// method counts at least once and [`Ghost::op_count`] itself never
    /// does, so the counter over-approximates ghost activity
    /// (conservative for dependency tracking).
    ///
    /// Who depends on it: the checker's `ExecPilot::step_done` reads the
    /// counter around each scheduler grant and asks only whether it
    /// *moved*; that bit puts the thread's ghost tag into the step's
    /// footprint. A method that stopped counting, or `op_count` starting
    /// to, would change DPOR's footprints — and with them the `hunt`
    /// workload's execution counts and the DPOR pins in
    /// `tests/fingerprint_pin.rs`. The unit test below holds each method
    /// to it.
    fn step_lock(&self) -> OwnerGuard<'_, Inner<S>> {
        let mut g = self.inner.lock();
        g.op_count += 1;
        g
    }

    /// One atomic ghost step that can break the discipline: runs `rule`
    /// over the borrowed state, and makes its error sticky if it is the first.
    fn step<T>(&self, rule: impl FnOnce(&mut Inner<S>) -> GhostResult<T>) -> GhostResult<T> {
        let mut g = self.step_lock();
        let result = rule(&mut g);
        if let (Err(err), None) = (&result, &g.first_error) {
            g.first_error = Some(err.clone());
        }
        result
    }

    /// Ghost-engine calls made so far (dependency tracking; see
    /// `Inner::op_count`).
    pub fn op_count(&self) -> u64 {
        self.inner.lock().op_count
    }

    /// Current execution version (bumped by every crash).
    pub fn version(&self) -> u64 {
        self.step_lock().version
    }

    /// A snapshot of `source(σ)`, the current abstract state.
    pub fn spec_state(&self) -> S::State {
        self.step_lock().state.clone()
    }

    /// Current crash-token state.
    pub fn crash_token(&self) -> CrashToken {
        self.step_lock().crash_token
    }

    /// First discipline violation observed, if any (sticky).
    pub fn first_error(&self) -> Option<GhostError> {
        self.step_lock().first_error.clone()
    }

    // ------------------------------------------------------------------
    // Refinement resources (§4): j ⇛ op, source(σ).
    // ------------------------------------------------------------------

    /// Mints `j ⇛ op` for a newly invoked operation.
    pub fn begin_op(&self, op: S::Op) -> GhostResult<OpToken> {
        self.step(|g| {
            if g.crash_token == CrashToken::Crashing {
                let msg = "begin_op while recovery has not spent ⇛Crashing";
                return Err(GhostError::CrashToken { msg });
            }
            let jid = Jid(g.next_jid);
            g.next_jid += 1;
            let invoked = OpRecord {
                op: op.clone(),
                phase: OpPhase::Pending,
            };
            g.ops.insert(jid, invoked);
            g.trace.push(TraceEvent::Invoke { jid, op });
            Ok(OpToken { jid })
        })
    }

    /// Simulates the spec step for `tok`'s operation at its linearization
    /// point, replacing `j ⇛ op` with `j ⇛ ret v` (Table 1, *refinement*).
    pub fn commit_op(&self, tok: &OpToken) -> GhostResult<S::Ret> {
        self.step(|g| g.commit(&self.spec, tok.jid, None))
    }

    /// Like [`Ghost::commit_op`] but commits a *refined* operation that
    /// resolves implementation-chosen nondeterminism (checked against
    /// [`SpecTS::op_refines`]).
    pub fn commit_op_as(&self, tok: &OpToken, refined: S::Op) -> GhostResult<S::Ret> {
        self.step(|g| g.commit(&self.spec, tok.jid, Some(refined)))
    }

    /// Consumes `j ⇛ ret v` when the implementation returns, checking the
    /// returned value matches the committed spec value.
    pub fn finish_op(&self, tok: OpToken, actual: &S::Ret) -> GhostResult<()> {
        let jid = tok.jid;
        self.step(|g| {
            let rec = g.op(jid, "finish of unknown op")?;
            let OpPhase::Committed { ret } = &rec.phase else {
                let msg = "finish requires a committed op (missing linearization point?)";
                return Err(GhostError::OpState { jid, msg });
            };
            if ret != actual {
                return Err(GhostError::RetMismatch {
                    jid,
                    spec: format!("{ret:?}"),
                    actual: format!("{actual:?}"),
                });
            }
            let ret = ret.clone();
            rec.phase = OpPhase::Finished;
            g.trace.push(TraceEvent::Return { jid, ret });
            Ok(())
        })
    }

    /// Simulates an *internal* spec transition (no external I/O), e.g.
    /// group commit's background flush moving buffered transactions to the
    /// persisted prefix.
    pub fn internal_step(&self, t: &Transition<S::State, ()>) -> GhostResult<()> {
        self.step(|g| g.simulate(None, t))
    }

    // ------------------------------------------------------------------
    // Recovery helping (§5.4).
    // ------------------------------------------------------------------

    /// Stores `j ⇛ op` in the crash invariant under `key`, so recovery may
    /// complete the operation if a crash intervenes.
    pub fn stash_op(&self, tok: &OpToken, key: u64) -> GhostResult<()> {
        let jid = tok.jid;
        self.step(|g| {
            if g.help.contains_key(&key) {
                return Err(GhostError::HelpKeyBusy { key });
            }
            let rec = g.pending_op(
                jid,
                "stash of unknown op",
                "only pending ops can be stashed for helping",
            )?;
            rec.phase = OpPhase::Stashed { key };
            g.help.insert(key, jid);
            g.trace.push(TraceEvent::Stash { jid, key });
            Ok(())
        })
    }

    /// Takes `j ⇛ op` back out of the crash invariant (the no-crash path:
    /// the thread finishes its own operation).
    pub fn unstash_op(&self, tok: &OpToken, key: u64) -> GhostResult<()> {
        self.step(|g| {
            let jid = g.stashed(key, Some(tok.jid))?;
            g.help.remove(&key);
            g.set_phase(jid, OpPhase::Pending);
            g.trace.push(TraceEvent::Unstash { jid, key });
            Ok(())
        })
    }

    /// Whether a helping token is stashed under `key`.
    pub fn has_help(&self, key: u64) -> bool {
        self.step_lock().help.contains_key(&key)
    }

    /// Recovery redeems the helping token under `key`, committing the
    /// crashed thread's operation on its behalf (§5.4).
    ///
    /// Only legal while `⇛Crashing` is armed: helping is how recovery
    /// justifies its repairs.
    pub fn help_commit(&self, key: u64) -> GhostResult<(Jid, S::Ret)> {
        self.step(|g| {
            g.in_recovery("help_commit outside recovery (⇛Crashing not armed)")?;
            let jid = g.stashed(key, None)?;
            let op = g.op(jid, "helping token names an unknown op")?.op.clone();
            let ret = g.simulate(Some(jid), &self.spec.op_transition(&op))?;
            g.help.remove(&key);
            g.set_phase(jid, OpPhase::Helped { ret: ret.clone() });
            g.trace.push(TraceEvent::HelpCommit {
                jid,
                op,
                ret: ret.clone(),
            });
            Ok((jid, ret))
        })
    }

    /// Drops the helping token under `key` without committing: recovery
    /// decided the crashed operation never took effect (legal — the caller
    /// never observed a return).
    pub fn drop_help(&self, key: u64) -> GhostResult<Jid> {
        self.step(|g| {
            g.in_recovery("drop_help outside recovery (⇛Crashing not armed)")?;
            let jid = g.stashed(key, None)?;
            g.help.remove(&key);
            g.set_phase(jid, OpPhase::Aborted);
            Ok(jid)
        })
    }

    // ------------------------------------------------------------------
    // Crash and recovery (§5.1, §5.5).
    // ------------------------------------------------------------------

    /// A crash: bumps the version, invalidates all volatile capabilities
    /// and leases, aborts unstashed in-flight uncommitted ops, and arms
    /// `⇛Crashing`. Crashes during recovery collapse into the already
    /// armed token (the whole sequence simulates one spec crash step).
    pub fn crash(&self) {
        let mut g = self.step_lock();
        g.version += 1;
        g.vol.clear();
        g.dur.values_mut().for_each(Leased::revoke);
        g.sets.values_mut().for_each(Leased::revoke);
        let mut aborted = Vec::new();
        for (jid, rec) in g.ops.iter_mut() {
            if rec.phase == OpPhase::Pending {
                rec.phase = OpPhase::Aborted;
                aborted.push(*jid);
            }
        }
        aborted.sort();
        g.crash_token = CrashToken::Crashing;
        let new_version = g.version;
        g.trace.push(TraceEvent::Crash {
            new_version,
            aborted,
        });
    }

    /// Recovery spends `⇛Crashing`: simulates the spec crash transition
    /// and moves the token to `⇛Done` (Table 1, *crash refinement*).
    pub fn recovery_done(&self) -> GhostResult<()> {
        self.step(|g| {
            g.in_recovery("recovery_done but ⇛Crashing is not armed")?;
            g.simulate(None, &self.spec.crash_transition())?;
            g.crash_token = CrashToken::Done;
            let version = g.version;
            g.trace.push(TraceEvent::RecoveryDone { version });
            Ok(())
        })
    }

    // ------------------------------------------------------------------
    // Volatile cells (§5.2 versioned memory).
    // ------------------------------------------------------------------

    /// Allocates a volatile cell, returning `p ↦ₙ v` for the current
    /// version.
    pub fn alloc_vol<T: Clone + Send + 'static>(&self, v: T) -> PointsTo<T> {
        let mut g = self.step_lock();
        let (id, version) = g.fresh();
        g.vol.insert(id, Box::new(v));
        PointsTo {
            id,
            version,
            _marker: PhantomData,
        }
    }

    /// Reads through a points-to capability (version checked).
    pub fn read_vol<T: Clone + Send + 'static>(&self, p: &PointsTo<T>) -> GhostResult<T> {
        self.step(|g| {
            check_version("points-to", p.version, g.version)?;
            typed(cell(&mut g.vol, p.id)?, p.id)
        })
    }

    /// Writes through a points-to capability (version checked; requires a
    /// mutable borrow of the capability, the runtime analog of consuming
    /// and re-producing `p ↦ v`).
    pub fn write_vol<T: Clone + Send + 'static>(
        &self,
        p: &mut PointsTo<T>,
        v: T,
    ) -> GhostResult<()> {
        self.step(|g| {
            check_version("points-to", p.version, g.version)?;
            *cell(&mut g.vol, p.id)? = Box::new(v);
            Ok(())
        })
    }

    // ------------------------------------------------------------------
    // Durable cells: master/lease (§5.3 recovery leases).
    // ------------------------------------------------------------------

    /// Allocates a durable cell. The master copy is stored in the crash
    /// invariant (implicitly — the engine holds it); the returned lease
    /// conveys mutation rights for the current version.
    pub fn alloc_durable<T: Clone + Send + 'static>(&self, v: T) -> (DurId<T>, Lease<T>) {
        let mut g = self.step_lock();
        let (id, version) = g.fresh();
        g.dur.insert(id, Leased::new(Box::new(v) as Value, version));
        (
            DurId {
                id,
                _marker: PhantomData,
            },
            Lease {
                id,
                version,
                _marker: PhantomData,
            },
        )
    }

    /// Reads a durable cell through its lease (version checked).
    pub fn read_durable<T: Clone + Send + 'static>(
        &self,
        id: DurId<T>,
        lease: &Lease<T>,
    ) -> GhostResult<T> {
        self.step(|g| {
            g.governs("lease", id.id, lease.id, lease.version)?;
            typed(&cell(&mut g.dur, id.id)?.value, id.id)
        })
    }

    /// Reads a durable cell's master copy from the crash invariant.
    ///
    /// Recovery does this to learn the pre-crash durable state (§5.3: the
    /// master copy records the value so that recovery can use it).
    pub fn read_master<T: Clone + Send + 'static>(&self, id: DurId<T>) -> GhostResult<T> {
        self.step(|g| typed(&cell(&mut g.dur, id.id)?.value, id.id))
    }

    /// Writes a durable cell: requires *both* the master copy (named by
    /// `id`, borrowed from the crash invariant) and the current-version
    /// lease — Table 1's lease rule.
    pub fn write_durable<T: Clone + Send + 'static>(
        &self,
        id: DurId<T>,
        lease: &mut Lease<T>,
        v: T,
    ) -> GhostResult<()> {
        self.step(|g| {
            g.governs("lease", id.id, lease.id, lease.version)?;
            cell(&mut g.dur, id.id)?.value = Box::new(v);
            Ok(())
        })
    }

    /// Synthesizes a fresh lease for the new version from the master copy
    /// — Table 1's `d[a] ↦ₙ v ⟹ d[a] ↦ₙ₊₁ v ∗ leaseₙ₊₁(d[a], v)`.
    ///
    /// At most one lease per resource per version.
    pub fn recover_lease<T: Clone + Send + 'static>(&self, id: DurId<T>) -> GhostResult<Lease<T>> {
        let id = id.id;
        self.step(|g| {
            let version = g.version;
            cell(&mut g.dur, id)?.mint(id, version)?;
            Ok(Lease {
                id,
                version,
                _marker: PhantomData,
            })
        })
    }

    // ------------------------------------------------------------------
    // Durable sets with lower-bound leases (§8.3).
    // ------------------------------------------------------------------

    /// Allocates a durable set; the returned lower-bound lease conveys
    /// deletion rights for the current version.
    pub fn alloc_set<T: SetItem>(
        &self,
        init: impl IntoIterator<Item = T>,
    ) -> (SetId<T>, SetLease<T>) {
        let mut g = self.step_lock();
        let (id, version) = g.fresh();
        let members = init.into_iter().map(|x| x.encode()).collect();
        g.sets.insert(id, Leased::new(members, version));
        (
            SetId {
                id,
                _marker: PhantomData,
            },
            SetLease {
                id,
                version,
                _marker: PhantomData,
            },
        )
    }

    /// Inserts into a durable set. *No lease required*: the lower-bound
    /// lease only constrains deletion, so concurrent inserters (Mailboat's
    /// `Deliver`) proceed without the mailbox lock.
    pub fn set_insert<T: SetItem>(&self, id: SetId<T>, item: &T) -> GhostResult<()> {
        self.step(|g| {
            cell(&mut g.sets, id.id)?.value.insert(item.encode());
            Ok(())
        })
    }

    /// Deletes from a durable set. Requires the current-version
    /// lower-bound lease and membership.
    pub fn set_delete<T: SetItem>(
        &self,
        id: SetId<T>,
        lease: &mut SetLease<T>,
        item: &T,
    ) -> GhostResult<()> {
        let id = id.id;
        self.step(|g| {
            g.governs("set lease", id, lease.id, lease.version)?;
            if !cell(&mut g.sets, id)?.value.remove(&item.encode()) {
                return Err(GhostError::SetMembership { id });
            }
            Ok(())
        })
    }

    /// Whether `item` is currently a member (readable by anyone; the
    /// master copy lives in the crash invariant).
    pub fn set_contains<T: SetItem>(&self, id: SetId<T>, item: &T) -> GhostResult<bool> {
        self.step(|g| Ok(cell(&mut g.sets, id.id)?.value.contains(&item.encode())))
    }

    /// Number of members (recovery uses this to audit cleanup).
    pub fn set_len<T: SetItem>(&self, id: SetId<T>) -> GhostResult<usize> {
        self.step(|g| Ok(cell(&mut g.sets, id.id)?.value.len()))
    }

    /// Synthesizes a fresh lower-bound lease after a crash; at most one
    /// per version.
    pub fn recover_set_lease<T: SetItem>(&self, id: SetId<T>) -> GhostResult<SetLease<T>> {
        let id = id.id;
        self.step(|g| {
            let version = g.version;
            cell(&mut g.sets, id)?.mint(id, version)?;
            Ok(SetLease {
                id,
                version,
                _marker: PhantomData,
            })
        })
    }

    // ------------------------------------------------------------------
    // End-of-execution validation (Theorem 2 obligations).
    // ------------------------------------------------------------------

    /// Validates the end-of-execution obligations and returns a report.
    ///
    /// Checks: no sticky discipline violation; the crash token is not left
    /// armed (every crash was followed by a completed recovery); every
    /// finished op was committed with a matching value (enforced online;
    /// re-counted here). An unmet obligation is returned, not made
    /// sticky: it is a fact about where the execution stopped, not a
    /// broken rule.
    pub fn validate(&self) -> Result<Report, GhostError> {
        let g = self.step_lock();
        if let Some(err) = &g.first_error {
            return Err(err.clone());
        }
        if g.crash_token == CrashToken::Crashing {
            return Err(GhostError::Validation {
                msg: "execution ended with ⇛Crashing armed (recovery never completed)".into(),
            });
        }
        let mut finished = 0usize;
        let mut helped = 0usize;
        let mut aborted = 0usize;
        let mut committed_unreturned = 0usize;
        let mut pending = 0usize;
        let mut stashed = 0usize;
        for rec in g.ops.values() {
            match rec.phase {
                OpPhase::Finished => finished += 1,
                OpPhase::Helped { .. } => helped += 1,
                OpPhase::Aborted => aborted += 1,
                OpPhase::Committed { .. } => committed_unreturned += 1,
                OpPhase::Pending => pending += 1,
                OpPhase::Stashed { .. } => stashed += 1,
            }
        }
        if pending > 0 || stashed > 0 {
            return Err(GhostError::Validation {
                msg: format!(
                    "execution ended with {pending} pending and {stashed} stashed ops \
                     (threads neither returned nor crashed)"
                ),
            });
        }
        Ok(Report {
            version: g.version,
            ops_invoked: g.ops.len(),
            finished,
            helped,
            aborted,
            committed_unreturned,
            crashes: g.trace.crashes(),
            commits: g.trace.commits(),
        })
    }

    /// Reads the refinement trace in place — its events, its running
    /// fingerprint, its rendering for a failure report — as one ghost
    /// step: `read` runs with the engine's state borrowed and must not call
    /// back into this engine (it would panic).
    pub fn with_trace<R>(&self, read: impl FnOnce(&Trace<S::Op, S::Ret>) -> R) -> R {
        read(&self.step_lock().trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perennial_spec::fixtures::{RegOp, RegSpec};

    /// The `op_count` contract (see `step_lock`): each public method
    /// moves the counter, failing or not; reading the counter does not.
    #[test]
    fn every_public_method_counts_and_op_count_does_not() {
        let g = Ghost::new(RegSpec { size: 4 });
        let mut last = g.op_count();
        assert_eq!(g.op_count(), last, "op_count counted itself");
        let mut moved = |what: &str| {
            let now = g.op_count();
            assert!(now > last, "{what} did not count as ghost activity");
            assert_eq!(g.op_count(), now, "op_count counted itself");
            last = now;
        };

        let _ = g.version();
        moved("version");
        let _ = g.spec_state();
        moved("spec_state");
        let _ = g.crash_token();
        moved("crash_token");
        let _ = g.first_error();
        moved("first_error");
        g.with_trace(|_| ());
        moved("with_trace");
        let _ = g.validate();
        moved("validate");

        let tok = g.begin_op(RegOp::Write(0, 1)).unwrap();
        moved("begin_op");
        g.stash_op(&tok, 0).unwrap();
        moved("stash_op");
        let _ = g.has_help(0);
        moved("has_help");
        g.unstash_op(&tok, 0).unwrap();
        moved("unstash_op");
        g.commit_op(&tok).unwrap();
        moved("commit_op");
        g.finish_op(tok, &None).unwrap();
        moved("finish_op");
        let tok = g.begin_op(RegOp::Write(1, 1)).unwrap();
        moved("begin_op");
        g.commit_op_as(&tok, RegOp::Write(1, 1)).unwrap();
        moved("commit_op_as");
        g.internal_step(&Transition::skip()).unwrap();
        moved("internal_step");

        let mut p = g.alloc_vol(0u64);
        moved("alloc_vol");
        g.read_vol(&p).unwrap();
        moved("read_vol");
        g.write_vol(&mut p, 1).unwrap();
        moved("write_vol");
        let (cell, mut lease) = g.alloc_durable(0u64);
        moved("alloc_durable");
        g.read_durable(cell, &lease).unwrap();
        moved("read_durable");
        g.write_durable(cell, &mut lease, 1).unwrap();
        moved("write_durable");
        g.read_master(cell).unwrap();
        moved("read_master");
        let (set, mut set_lease) = g.alloc_set::<u64>([1u64]);
        moved("alloc_set");
        g.set_insert(set, &2).unwrap();
        moved("set_insert");
        g.set_contains(set, &2).unwrap();
        moved("set_contains");
        g.set_len(set).unwrap();
        moved("set_len");
        g.set_delete(set, &mut set_lease, &2).unwrap();
        moved("set_delete");

        let a = g.begin_op(RegOp::Write(2, 1)).unwrap();
        let b = g.begin_op(RegOp::Write(3, 1)).unwrap();
        g.stash_op(&a, 1).unwrap();
        g.stash_op(&b, 2).unwrap();
        moved("stash_op");
        g.crash();
        moved("crash");
        g.help_commit(1).unwrap();
        moved("help_commit");
        g.drop_help(2).unwrap();
        moved("drop_help");
        g.recover_lease(cell).unwrap();
        moved("recover_lease");
        g.recover_set_lease(set).unwrap();
        moved("recover_set_lease");
        g.recovery_done().unwrap();
        moved("recovery_done");
        // A call that fails is ghost activity too.
        assert!(g.recovery_done().is_err());
        moved("a failing call");
    }
}
