//! Mailboat: the paper's flagship application (§8) — a crash-safe,
//! concurrent mail server storing messages Maildir-style in the file
//! system — plus the baselines of its evaluation (§9.3).
//!
//! Module map:
//!
//! - [`spec`] — the abstract mailbox specification (§8.1);
//! - [`server`] — the [`server::MailServer`] trait and the plain
//!   Mailboat implementation (§8.2), used in native mode by benches and
//!   examples;
//! - [`proof`] — the ghost-instrumented variant (the §8.3 proof as
//!   executable discipline), with [`harness`] plugging it into the
//!   checker;
//! - [`gomail`] — the GoMail and simulated-CMAIL baselines of Figure 11;
//! - [`workload`] — the §9.3 closed-loop workload generator;
//! - [`smtp`] — unverified SMTP/POP3 session state machines;
//! - [`net`] — TCP listeners serving those sessions over real sockets.

#![deny(unsafe_code)]

pub mod gomail;
pub mod harness;
pub mod net;
pub mod proof;
pub mod server;
pub mod smtp;
pub mod spec;
pub mod workload;

pub use gomail::{CMailSim, GoMail};
pub use harness::{mutant_scenarios, scenarios, MbHarness, MbWorkload};
pub use net::{LineClient, MailListener, Protocol};
pub use proof::{MbMutant, VerifiedMailboat};
pub use server::{mail_dirs, MailServer, Mailboat, Message};
pub use spec::{MailOp, MailRet, MailSpec};
pub use workload::{run_workload, WorkloadConfig, WorkloadResult};
