//! Goose: the simulated Go-like runtime the paper's systems run on (§6).
//!
//! The original Goose is a translator from a subset of Go to a Coq model.
//! Without a proof assistant, this crate implements the *model itself* as
//! an executable substrate with two personalities:
//!
//! - **model mode** — [`sched::ModelRt`] schedules virtual threads one
//!   atomic primitive at a time, so the checker controls interleavings
//!   and can crash the "process" at any step boundary. The heap
//!   ([`heap::Heap`]) implements the paper's racy-access-is-UB semantics
//!   via two-phase writes, and the file system ([`fs::ModelFs`])
//!   implements the §6.2 crash model (descriptors and memory lost, file
//!   data durable).
//! - **native mode** — [`runtime::NativeRt`] + [`fs::NativeFs`] run the
//!   same system code on real threads and a concurrent in-memory tmpfs
//!   analog for the throughput experiments (§9.3).
//!
//! System code is written against [`runtime::Runtime`] +
//! [`fs::FileSys`] so one implementation serves both modes — the
//! reproduction's analog of "the same Go source is both translated to Coq
//! and compiled by the Go toolchain".

#![deny(unsafe_code)]

// The one module allowed `unsafe`: stacks and the context switch.
#[allow(unsafe_code)]
mod coro;
pub mod fault;
pub mod fs;
pub mod heap;
pub mod net;
pub mod runtime;
pub mod sched;
pub mod trace;

pub use fault::{
    retry_with_backoff, FaultPlan, FaultSurface, IoError, IoResult, NetFault, TornMode,
    DEFAULT_IO_ATTEMPTS,
};
pub use fs::{BufferedFs, DirH, Fd, FileSys, FsError, FsResult, ModelFs, NativeFs};
pub use heap::{HVal, Heap, Ptr, Slice};
pub use net::ModelNet;
pub use runtime::{GLock, ModelRtExt, ModelRuntime, NativeRt, Runtime};
pub use sched::{
    quiet_worker_panics, res, shared_pilot, splitmix64, CrashSignal, LockId, ModelRt, PanicKind,
    Pilot, PilotCell, SchedStats, SharedPilot, StepAccess, StepBudgetSignal, StepResult, Tid,
    UbSignal,
};
pub use trace::{ExecTrace, TraceEvent, TraceKind};
