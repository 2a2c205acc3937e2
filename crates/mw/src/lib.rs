//! `mw-framework` — an in-process reproduction of the MW master–worker
//! framework the paper builds on (Linderoth et al., Univ. of Wisconsin),
//! including the extra hierarchy level the paper adds: each worker fronts a
//! *server* that fans out to `Ns` *client* simulations (Figs 3.1–3.2, 4.3).
//!
//! The paper's deployment uses MPI ranks on a cluster; here workers are OS
//! threads fed over `crossbeam` channels, or worker processes behind the
//! frame protocol (see `DESIGN.md` — substitutions). The communication
//! topology is preserved: workers never talk to each other, only to the
//! master.
//!
//! There is one way to put work on a worker: hand a batch of stream
//! extensions to a `stoch-eval` `SamplingBackend` (`extend_batch`). The
//! engine, the scheduler, and the §3.4 scale-up all dispatch this way. A
//! vertex's `Ns` sampling clients are modelled as an `Ns`-fold sampling
//! rate on one stream (an extension of `Ns·dt`), which gives the vertex
//! estimate the paper's `σ0²/(Ns·dt)` variance.
//!
//! * [`alloc`] — the processor-allocation arithmetic of Table 3.3.
//! * [`pool`] — the supervised worker pool (spawn/submit/call/stats,
//!   liveness detection, respawn, graceful failure).
//! * [`faults`] — deterministic fault injection ([`faults::FaultPlan`],
//!   `NSX_FAULTS`) for chaos-testing the supervision layer.
//! * [`backend`] — the pool-backed [`backend::ThreadedBackend`]
//!   implementation of `stoch-eval`'s `SamplingBackend` seam: whole
//!   sampling rounds fan out over the workers, with retry/timeout recovery
//!   and serial degradation when the pool is lost (DESIGN.md §9).
//! * [`resilience`] — straggler hedging ([`resilience::HedgePolicy`],
//!   `NSX_HEDGE`), heartbeat liveness, and jittered respawn backoff
//!   (DESIGN.md §16), shared by the pool, backend, and transport layers.
//! * [`transport`] — the process-level distribution seam (DESIGN.md §12): a
//!   versioned, CRC-guarded frame protocol over Unix-domain sockets to real
//!   worker *processes* ([`transport::ProcessBackend`]), with in-process
//!   channels as the second [`transport::Transport`] implementation and
//!   master-side network-fault injection.
//!
//! (The §3.4 scale-up experiment lives in the `repro-bench` crate.)
//!
//! Losing a worker must never take down or wedge a run, so production code
//! in this crate is forbidden from `unwrap`/`expect` on recoverable paths
//! (the lints below); worker loss is a value ([`pool::WorkerLost`]), not a
//! panic.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod alloc;
pub mod backend;
pub mod faults;
pub mod pool;
pub mod resilience;
pub mod transport;

pub use alloc::Allocation;
pub use backend::ThreadedBackend;
pub use faults::{Delay, FaultPlan, WorkerFault};
pub use pool::{
    default_respawn_budget, JobHandle, MwPool, RetryPolicy, ShutdownError, WorkerLost, WorkerStats,
};
pub use resilience::{BackoffPolicy, HeartbeatPolicy, HedgePolicy, P2Quantile};
pub use transport::{ProcessBackend, ProcessPool, Transport, TransportError};
