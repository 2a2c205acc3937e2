//! Multi-process master–worker execution: a pool of real worker *processes*
//! connected over Unix-domain sockets, and a [`SamplingBackend`] that ships
//! stream extensions to them over the wire format of [`super::frame`].
//!
//! # Supervision (DESIGN.md §9, over a wire)
//!
//! Worker death shows up as socket EOF or a broken pipe; the pool reaps the
//! child, respawns a fresh incarnation while the respawn budget lasts, and
//! reports every job that was riding the dead link as lost so the backend
//! can re-dispatch from its master-side backups — bit-identically, because
//! the backups carry the RNG state. When the budget is exhausted and no
//! worker is alive the pool is *failed* and the backend degrades to inline
//! execution, exactly like the threaded backend, surfacing through
//! [`SamplingBackend::degraded`] and `mw.backend.degraded`.
//!
//! Unlike threads, a wire cannot distinguish a lost frame from a slow
//! worker, so the process backend always enforces a per-attempt timeout:
//! [`RetryPolicy::timeout`] when set, [`DEFAULT_ATTEMPT_TIMEOUT`] otherwise.
//!
//! # Service-level resilience (DESIGN.md §16)
//!
//! Three policies from [`crate::resilience`] harden the transport beyond
//! crash recovery:
//!
//! * **Heartbeat liveness** (`NSX_HEARTBEAT`, on by default): the pool
//!   sends a `Ping` frame on any link silent past the interval; a link
//!   whose ping goes unanswered past the timeout is buried and its jobs
//!   re-dispatched, so a wedged worker or half-dead socket is detected in
//!   bounded time instead of wedging a rendezvous until the attempt
//!   timeout.
//! * **Reconnect backoff** (`NSX_RESPAWN_BACKOFF`, on by default): repeated
//!   respawns of one slot are deferred by a jittered exponential delay —
//!   skipped, not slept, so no caller blocks — with dispatch allowed to
//!   force past the deferral as a last resort rather than degrade inline.
//! * **Straggler hedging** (`NSX_HEDGE`, off by default): a job in flight
//!   past a P²-tracked latency quantile is speculatively re-dispatched from
//!   its master-side backup to another worker; first answer wins, the loser
//!   is forgotten. Because both legs run the identical stream clone, the
//!   result bits cannot differ — hedging trims tail latency only.
//!
//! # Determinism
//!
//! Streams cross the wire via `save_state`/`load_state`, which are
//! bit-exact; workers run the same `extend` the master would. Submission
//! order is preserved by slot bookkeeping on the master. Therefore
//! `NSX_TRANSPORT=process` results are `f64::to_bits`-identical to inproc
//! and serial runs — the property `dist_scaleup` and the distributed CI
//! legs assert.
//!
//! Streams whose type has no [`SampleStream::wire_id`] cannot be expressed
//! on the wire; the backend runs those batches in-process (counted in
//! `mw.transport.inline_jobs`). That is a capability limit, not a fault, so
//! it does **not** set the degraded flag.

use super::worker::{ensure_linked, WORKER_FAULTS_ENV, WORKER_SOCKET_ENV};
use super::{wire, FaultedTransport, Frame, FrameKind, SocketTransport, Transport, TransportError};
use crate::faults::FaultPlan;
use crate::pool::{default_respawn_budget, RetryPolicy};
use crate::resilience::{BackoffPolicy, HeartbeatPolicy, HedgePolicy, P2Quantile};
use obs::{Counter, MetricsRegistry};
use std::collections::{HashMap, VecDeque};
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use stoch_eval::backend::{SamplingBackend, StreamJob};
use stoch_eval::codec::{Reader, Writer};
use stoch_eval::objective::SampleStream;

/// Per-attempt timeout when [`RetryPolicy::timeout`] is `None`. A dropped
/// frame produces no disconnect — only silence — so the process transport
/// cannot run without an attempt deadline.
pub const DEFAULT_ATTEMPT_TIMEOUT: Duration = Duration::from_secs(5);

/// How long to wait for a spawned worker to connect and say `Hello`.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// How long `Drop` waits for workers to exit after `Shutdown` before
/// killing them.
const SHUTDOWN_GRACE: Duration = Duration::from_millis(500);

/// Cap on one blocking wait inside [`ProcessPool::collect`]. The wait
/// targets a single link, so this bounds how long a frame arriving on a
/// *different* link can sit in the kernel before the next nonblocking sweep
/// picks it up.
const WAIT_SLICE: Duration = Duration::from_millis(5);

/// Cap on unanswered job bytes per link. The master writes jobs before it
/// reads any result, so without a cap a large batch fills the worker's
/// socket buffer, the worker blocks writing results the master is not yet
/// reading, and the master's blocking write never returns. Kept well below
/// the kernel's default socket buffer; jobs beyond it wait on the master
/// and ship as results come back.
pub const MAX_INFLIGHT_BYTES: usize = 64 * 1024;

/// Uniquifies socket paths across pools within one master process.
static SOCKET_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Wire/transport metric handles. Names: `mw.transport.frames_sent`,
/// `frames_received`, `bytes_sent`, `bytes_received`, `corrupt`,
/// `reconnects`, `stale`, `unsupported`, `inline_jobs`,
/// `heartbeat_deaths`, plus the shared fault-tolerance series
/// `mw.retry.attempts`, `mw.retry.timeouts`, `mw.backend.degraded`,
/// `mw.hedge.launched`, `mw.hedge.wins`.
struct TransportObs {
    frames_sent: Arc<Counter>,
    frames_received: Arc<Counter>,
    bytes_sent: Arc<Counter>,
    bytes_received: Arc<Counter>,
    corrupt: Arc<Counter>,
    reconnects: Arc<Counter>,
    stale: Arc<Counter>,
    unsupported: Arc<Counter>,
    inline_jobs: Arc<Counter>,
    heartbeat_deaths: Arc<Counter>,
    retry_attempts: Arc<Counter>,
    retry_timeouts: Arc<Counter>,
    degraded: Arc<Counter>,
    hedge_launched: Arc<Counter>,
    hedge_wins: Arc<Counter>,
}

impl TransportObs {
    fn register(registry: &MetricsRegistry) -> Self {
        TransportObs {
            frames_sent: registry.counter("mw.transport.frames_sent"),
            frames_received: registry.counter("mw.transport.frames_received"),
            bytes_sent: registry.counter("mw.transport.bytes_sent"),
            bytes_received: registry.counter("mw.transport.bytes_received"),
            corrupt: registry.counter("mw.transport.corrupt"),
            reconnects: registry.counter("mw.transport.reconnects"),
            stale: registry.counter("mw.transport.stale"),
            unsupported: registry.counter("mw.transport.unsupported"),
            inline_jobs: registry.counter("mw.transport.inline_jobs"),
            heartbeat_deaths: registry.counter("mw.transport.heartbeat_deaths"),
            retry_attempts: registry.counter("mw.retry.attempts"),
            retry_timeouts: registry.counter("mw.retry.timeouts"),
            degraded: registry.counter("mw.backend.degraded"),
            hedge_launched: registry.counter("mw.hedge.launched"),
            hedge_wins: registry.counter("mw.hedge.wins"),
        }
    }
}

/// What the pool knows about one job seq it accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PollOutcome {
    /// The worker answered with a result payload (see `wire::decode_result`).
    Result(Vec<u8>),
    /// The worker refused the job with a typed error message (unknown wire
    /// id, undecodable state). The job itself is intact master-side.
    Refused(String),
    /// The link carrying the job died before answering. Re-dispatch.
    Lost,
}

/// One master⇄worker-process link.
struct WorkerLink {
    transport: Option<FaultedTransport<SocketTransport>>,
    child: Option<Child>,
    incarnation: u32,
    /// Jobs dispatched on this link and not yet resolved or forgotten:
    /// `(seq, encoded frame bytes)`.
    pending: Vec<(u64, usize)>,
    /// When the last frame arrived on this link (liveness evidence).
    last_heard: Instant,
    /// An unanswered heartbeat probe: `(ping seq, when it was sent)`.
    outstanding_ping: Option<(u64, Instant)>,
    /// Respawn deferral gate ([`BackoffPolicy`]); `None` when the slot is
    /// not waiting out a backoff.
    not_before: Option<Instant>,
}

impl WorkerLink {
    fn vacant() -> Self {
        WorkerLink {
            transport: None,
            child: None,
            incarnation: 0,
            pending: Vec::new(),
            last_heard: Instant::now(),
            outstanding_ping: None,
            not_before: None,
        }
    }

    /// Encoded bytes of the jobs this link has not answered yet.
    fn inflight_bytes(&self) -> usize {
        self.pending.iter().map(|&(_, bytes)| bytes).sum()
    }
}

struct Inner {
    workers: Vec<WorkerLink>,
    respawn_budget: u64,
    next_seq: u64,
    rr: usize,
    failed: bool,
    /// Outcomes drained off the sockets (or synthesized on link death) that
    /// no caller has claimed yet, keyed by seq.
    completed: HashMap<u64, PollOutcome>,
}

/// A supervised pool of worker processes. Jobs are opaque payload byte
/// vectors (the [`wire`] job schema); results come back keyed by the seq
/// assigned at submission.
pub struct ProcessPool {
    inner: Mutex<Inner>,
    faults: FaultPlan,
    obs: Option<Arc<TransportObs>>,
    /// Ping/Pong liveness schedule (`NSX_HEARTBEAT`, DESIGN.md §16).
    heartbeat: HeartbeatPolicy,
    /// Respawn deferral schedule (`NSX_RESPAWN_BACKOFF`, DESIGN.md §16).
    backoff: BackoffPolicy,
}

impl ProcessPool {
    /// Spawn `n_workers` worker processes (re-executions of the current
    /// binary — see [`super::worker`]). Workers that fail to spawn consume
    /// respawn budget; a pool that cannot field a single worker is *failed*
    /// from birth and the backend above it degrades to inline execution
    /// rather than erroring.
    pub fn with_options(
        n_workers: usize,
        faults: FaultPlan,
        respawn_budget: u64,
        registry: Option<&MetricsRegistry>,
    ) -> Self {
        ensure_linked();
        let obs = registry.map(|r| Arc::new(TransportObs::register(r)));
        let mut inner = Inner {
            workers: Vec::with_capacity(n_workers),
            respawn_budget,
            next_seq: 0,
            rr: 0,
            failed: false,
            completed: HashMap::new(),
        };
        for idx in 0..n_workers.max(1) {
            let mut link = WorkerLink::vacant();
            match spawn_worker(idx, 0, &faults) {
                Ok((transport, child)) => {
                    link.transport = Some(transport);
                    link.child = Some(child);
                }
                Err(_) => {
                    // Count the failed spawn against the budget like any
                    // other worker loss; revival is attempted at dispatch.
                    inner.respawn_budget = inner.respawn_budget.saturating_sub(1);
                }
            }
            inner.workers.push(link);
        }
        update_failed(&mut inner);
        ProcessPool {
            inner: Mutex::new(inner),
            faults,
            obs,
            heartbeat: HeartbeatPolicy::from_env(),
            backoff: BackoffPolicy::from_env(),
        }
    }

    /// Override the heartbeat schedule (tests and exhibits; production uses
    /// `NSX_HEARTBEAT`).
    pub fn with_heartbeat(mut self, heartbeat: HeartbeatPolicy) -> Self {
        self.heartbeat = heartbeat;
        self
    }

    /// Override the respawn backoff schedule (tests and exhibits; production
    /// uses `NSX_RESPAWN_BACKOFF`).
    pub fn with_backoff(mut self, backoff: BackoffPolicy) -> Self {
        self.backoff = backoff;
        self
    }

    /// Spawn with faults from `NSX_FAULTS` and the default respawn budget.
    pub fn new(n_workers: usize) -> Self {
        Self::with_options(
            n_workers,
            FaultPlan::from_env(),
            default_respawn_budget(n_workers),
            None,
        )
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of worker slots (not all necessarily alive).
    pub fn n_workers(&self) -> usize {
        self.lock().workers.len()
    }

    /// Worker slots with a live link right now.
    pub fn alive_workers(&self) -> usize {
        self.lock()
            .workers
            .iter()
            .filter(|w| w.transport.is_some())
            .count()
    }

    /// OS pids of the currently live worker processes.
    pub fn worker_pids(&self) -> Vec<u32> {
        self.lock()
            .workers
            .iter()
            .filter(|w| w.transport.is_some())
            .filter_map(|w| w.child.as_ref().map(Child::id))
            .collect()
    }

    /// True when no worker is alive and the respawn budget is exhausted.
    pub fn is_failed(&self) -> bool {
        self.lock().failed
    }

    /// Dispatch job payloads, taken in order from the front of `payloads`,
    /// round-robin over live links (reviving dead ones while budget lasts).
    /// Each link gets its share of the batch as one coalesced frame run:
    /// one write per link, whatever the batch size.
    ///
    /// Returns the seqs of the payloads shipped, in order. A payload that
    /// would push every live link past [`MAX_INFLIGHT_BYTES`] stays in
    /// `payloads`, with everything behind it, until results come back.
    /// `None` when no worker could take the work — the caller should run it
    /// inline. A run whose write fails reports its seqs as
    /// [`PollOutcome::Lost`], like every job riding a dead link.
    pub fn submit(&self, payloads: &mut VecDeque<Vec<u8>>) -> Option<Vec<u64>> {
        let mut inner = self.lock();
        let n = inner.workers.len();
        let mut load: Vec<usize> = inner
            .workers
            .iter()
            .map(WorkerLink::inflight_bytes)
            .collect();
        let mut runs: Vec<Vec<Frame>> = (0..n).map(|_| Vec::new()).collect();
        let mut seqs = Vec::new();
        let mut no_worker = false;
        while let Some(payload) = payloads.front() {
            let len = Frame::encoded_len_for(payload.len());
            let mut chosen = None;
            // Pass 0 respects respawn backoff deferrals; pass 1, run only
            // when no link is alive, forces revival past them — a pool that
            // still has budget must field a worker rather than let the
            // backend degrade to inline forever.
            for pass in 0..2 {
                let force = pass == 1;
                let mut alive = false;
                for _ in 0..n {
                    let idx = inner.rr % n;
                    inner.rr = inner.rr.wrapping_add(1);
                    if inner.workers[idx].transport.is_none() {
                        self.revive_opts(&mut inner, idx, force);
                    }
                    if inner.workers[idx].transport.is_none() {
                        continue;
                    }
                    alive = true;
                    if load[idx] == 0 || load[idx] + len <= MAX_INFLIGHT_BYTES {
                        chosen = Some(idx);
                        break;
                    }
                }
                if alive {
                    break;
                }
                no_worker = pass == 1;
            }
            // Every live link is full (wait for results), or none is alive.
            let Some(idx) = chosen else { break };
            let Some(payload) = payloads.pop_front() else {
                break;
            };
            let seq = inner.next_seq;
            inner.next_seq += 1;
            load[idx] += len;
            seqs.push(seq);
            runs[idx].push(Frame::new(FrameKind::Job, seq, payload));
        }
        for (idx, run) in runs.iter().enumerate() {
            if run.is_empty() {
                continue;
            }
            let sent = match &mut inner.workers[idx].transport {
                Some(t) => t.send(run),
                None => Err(TransportError::Closed),
            };
            match sent {
                Ok(()) => {
                    let link = &mut inner.workers[idx];
                    link.pending
                        .extend(run.iter().map(|f| (f.seq, f.encoded_len())));
                    if let Some(o) = &self.obs {
                        o.frames_sent.add(run.len() as u64);
                        o.bytes_sent
                            .add(run.iter().map(Frame::encoded_len).sum::<usize>() as u64);
                    }
                }
                Err(_) => {
                    self.bury(&mut inner, idx);
                    for f in run {
                        inner.completed.insert(f.seq, PollOutcome::Lost);
                    }
                    self.revive(&mut inner, idx);
                }
            }
        }
        update_failed(&mut inner);
        if seqs.is_empty() && no_worker {
            None
        } else {
            Some(seqs)
        }
    }

    /// Wait up to `max_wait` for outcomes for any of `interested`, draining
    /// sockets as results arrive. Outcomes for seqs outside `interested`
    /// (other callers sharing the pool) stay parked in the pool; outcomes
    /// for seqs nobody tracks any more are counted as stale and dropped by
    /// the caller.
    ///
    /// The wait is event-driven, not polled: after a nonblocking sweep of
    /// every link with outstanding work, the pool blocks directly on the
    /// link carrying the oldest in-flight seq (jobs complete roughly in
    /// dispatch order), so a healthy round trip costs the worker's compute
    /// time plus syscall overhead — not a timer tick.
    pub fn collect(&self, interested: &[u64], max_wait: Duration) -> Vec<(u64, PollOutcome)> {
        let deadline = Instant::now() + max_wait;
        loop {
            let mut inner = self.lock();
            // Nonblocking sweep: pick up everything already buffered.
            for idx in 0..inner.workers.len() {
                if !inner.workers[idx].pending.is_empty() {
                    self.service_link(&mut inner, idx, Duration::ZERO);
                }
            }
            self.check_heartbeats(&mut inner);
            let mut got = Vec::new();
            for seq in interested {
                if let Some(outcome) = inner.completed.remove(seq) {
                    got.push((*seq, outcome));
                }
            }
            let now = Instant::now();
            if !got.is_empty() || now >= deadline {
                return got;
            }
            let target = inner
                .workers
                .iter()
                .enumerate()
                .filter(|(_, w)| w.transport.is_some())
                .filter_map(|(i, w)| w.pending.first().map(|&(s, _)| (i, s)))
                .min_by_key(|&(_, s)| s)
                .map(|(i, _)| i);
            match target {
                Some(idx) => {
                    // WAIT_SLICE caps the wait so frames landing on other
                    // links are swept up promptly on the next pass.
                    let slice = deadline.saturating_duration_since(now).min(WAIT_SLICE);
                    self.service_link(&mut inner, idx, slice);
                }
                None => {
                    // Nothing in flight on any live link; an outcome can
                    // only appear through another caller's dispatch.
                    drop(inner);
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }

    /// Abandon a seq: the caller stopped waiting for it (per-attempt
    /// timeout). A straggling result arriving later is counted as stale.
    pub fn forget(&self, seq: u64) {
        let mut inner = self.lock();
        inner.completed.remove(&seq);
        for link in &mut inner.workers {
            link.pending.retain(|&(s, _)| s != seq);
        }
    }

    /// Heartbeat liveness sweep (DESIGN.md §16): bury links whose Ping has
    /// gone unanswered past the timeout, and probe links that have been
    /// silent past the interval. Any received frame refreshes `last_heard`,
    /// so links with steady result traffic are never probed. Runs on every
    /// `collect` pass — a pool nobody is collecting from is not monitored,
    /// which is fine: dispatch revives dead links on demand anyway.
    fn check_heartbeats(&self, inner: &mut Inner) {
        if !self.heartbeat.enabled {
            return;
        }
        let now = Instant::now();
        for idx in 0..inner.workers.len() {
            if inner.workers[idx].transport.is_none() {
                continue;
            }
            if let Some((_, sent)) = inner.workers[idx].outstanding_ping {
                if now.duration_since(sent) >= self.heartbeat.timeout {
                    // Unanswered probe: the worker is wedged or the link is
                    // half-dead. Bury it so pending jobs re-dispatch.
                    if let Some(o) = &self.obs {
                        o.heartbeat_deaths.inc();
                    }
                    self.bury(inner, idx);
                    self.revive(inner, idx);
                    update_failed(inner);
                }
                continue;
            }
            if now.duration_since(inner.workers[idx].last_heard) < self.heartbeat.interval {
                continue;
            }
            let seq = inner.next_seq;
            let frame = Frame::new(FrameKind::Ping, seq, Vec::new());
            let link = &mut inner.workers[idx];
            let sent = match &mut link.transport {
                Some(t) => t.send(std::slice::from_ref(&frame)),
                None => continue,
            };
            match sent {
                Ok(()) => {
                    inner.next_seq += 1;
                    inner.workers[idx].outstanding_ping = Some((seq, now));
                    if let Some(o) = &self.obs {
                        o.frames_sent.inc();
                        o.bytes_sent.add(frame.encoded_len() as u64);
                    }
                }
                Err(_) => {
                    self.bury(inner, idx);
                    self.revive(inner, idx);
                    update_failed(inner);
                }
            }
        }
    }

    /// Receive from link `idx`: one wait of up to `first_wait`, then drain
    /// whatever else is already buffered without blocking. A link error
    /// buries the worker and attempts a revival.
    fn service_link(&self, inner: &mut Inner, idx: usize, first_wait: Duration) {
        let mut wait = first_wait;
        loop {
            let link = &mut inner.workers[idx];
            let Some(t) = &mut link.transport else { return };
            match t.recv_timeout(wait) {
                Ok(Some(frame)) => {
                    self.accept_frame(inner, idx, frame);
                    wait = Duration::ZERO;
                }
                Ok(None) => return,
                Err(e) => {
                    if matches!(e, TransportError::Corrupt(_)) {
                        if let Some(o) = &self.obs {
                            o.corrupt.inc();
                        }
                    }
                    self.bury(inner, idx);
                    self.revive(inner, idx);
                    update_failed(inner);
                    return;
                }
            }
        }
    }

    /// Route one frame received on link `idx` into `completed`.
    fn accept_frame(&self, inner: &mut Inner, idx: usize, frame: Frame) {
        if let Some(o) = &self.obs {
            o.frames_received.inc();
            o.bytes_received.add(frame.encoded_len() as u64);
        }
        let link = &mut inner.workers[idx];
        // Any frame is proof of life, whatever its kind.
        link.last_heard = Instant::now();
        let claimed = {
            let before = link.pending.len();
            link.pending.retain(|&(s, _)| s != frame.seq);
            link.pending.len() != before
        };
        match frame.kind {
            FrameKind::Result if claimed => {
                inner
                    .completed
                    .insert(frame.seq, PollOutcome::Result(frame.payload));
            }
            FrameKind::Error if claimed => {
                let msg = String::from_utf8_lossy(&frame.payload).into_owned();
                inner.completed.insert(frame.seq, PollOutcome::Refused(msg));
            }
            FrameKind::Pong => {
                // A pong (even a stale one) clears the outstanding probe;
                // `last_heard` above already restarts the quiet-time clock.
                link.outstanding_ping = None;
            }
            FrameKind::Hello => {} // late duplicate hello; ignore
            _ => {
                // Stale (forgotten seq) or nonsensical kind.
                if let Some(o) = &self.obs {
                    o.stale.inc();
                }
            }
        }
    }

    /// Tear down a dead link: reap the child and surface every pending seq
    /// as [`PollOutcome::Lost`].
    fn bury(&self, inner: &mut Inner, idx: usize) {
        let link = &mut inner.workers[idx];
        link.transport = None;
        link.outstanding_ping = None;
        if let Some(mut child) = link.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let lost = std::mem::take(&mut link.pending);
        for (seq, _) in lost {
            inner.completed.insert(seq, PollOutcome::Lost);
        }
    }

    /// Respawn worker slot `idx` (next incarnation) while budget remains,
    /// honoring the jittered reconnect backoff (DESIGN.md §16).
    fn revive(&self, inner: &mut Inner, idx: usize) {
        self.revive_opts(inner, idx, false);
    }

    /// [`revive`](Self::revive) with backoff control: `force` ignores an
    /// active deferral (used as dispatch's last resort). A deferred revival
    /// does **not** consume respawn budget — the slot is skipped this pass
    /// and tried again later, so waiting costs nothing.
    fn revive_opts(&self, inner: &mut Inner, idx: usize, force: bool) {
        if inner.respawn_budget == 0 || inner.workers[idx].transport.is_some() {
            return;
        }
        let incarnation = inner.workers[idx].incarnation + 1;
        let now = Instant::now();
        let delay = self.backoff.delay_for(idx, incarnation);
        let not_before = *inner.workers[idx].not_before.get_or_insert(now + delay);
        if !force && now < not_before {
            return;
        }
        inner.respawn_budget -= 1;
        if let Ok((transport, child)) = spawn_worker(idx, incarnation, &self.faults) {
            let link = &mut inner.workers[idx];
            link.transport = Some(transport);
            link.child = Some(child);
            link.incarnation = incarnation;
            link.last_heard = Instant::now();
            link.outstanding_ping = None;
            link.not_before = None;
            if let Some(o) = &self.obs {
                o.reconnects.inc();
            }
        } else if self.backoff.enabled {
            // Spawn failed (budget already charged): re-arm the deferral so
            // a dying host is not hammered in a tight loop.
            inner.workers[idx].not_before = Some(now + delay.max(self.backoff.base));
        } else {
            inner.workers[idx].not_before = None;
        }
    }
}

fn update_failed(inner: &mut Inner) {
    if inner.respawn_budget == 0 && inner.workers.iter().all(|w| w.transport.is_none()) {
        inner.failed = true;
    }
}

impl Drop for ProcessPool {
    fn drop(&mut self) {
        let mut inner = self.lock();
        for link in &mut inner.workers {
            if let Some(t) = &mut link.transport {
                let _ = t.send(&[Frame::new(FrameKind::Shutdown, 0, Vec::new())]);
            }
        }
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        for link in &mut inner.workers {
            let Some(mut child) = link.child.take() else {
                continue;
            };
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
    }
}

/// Spawn one worker process and complete the connect + `Hello` handshake.
fn spawn_worker(
    idx: usize,
    incarnation: u32,
    faults: &FaultPlan,
) -> std::io::Result<(FaultedTransport<SocketTransport>, Child)> {
    let fault = faults.fault_for(idx, incarnation);
    let path = socket_path(idx, incarnation);
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path)?;
    listener.set_nonblocking(true)?;

    let exe = std::env::current_exe()?;
    let mut cmd = Command::new(exe);
    cmd.env(WORKER_SOCKET_ENV, &path)
        // Env hygiene: the worker must not re-enter process transport,
        // re-apply plan-level chaos, or write checkpoints of its own.
        .env_remove("NSX_TRANSPORT")
        .env_remove("NSX_FAULTS")
        .env_remove("NSX_BACKEND")
        .env_remove("NSX_CHECKPOINT")
        .env_remove(WORKER_FAULTS_ENV)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    let directives = fault.to_worker_directives();
    if !directives.is_empty() {
        cmd.env(WORKER_FAULTS_ENV, directives);
    }
    let mut child = cmd.spawn().inspect_err(|_| {
        let _ = std::fs::remove_file(&path);
    })?;

    let mut accept = || -> std::io::Result<std::os::unix::net::UnixStream> {
        let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
        loop {
            match listener.accept() {
                Ok((stream, _)) => return Ok(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if child.try_wait()?.is_some() {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::BrokenPipe,
                            "worker exited before connecting",
                        ));
                    }
                    if Instant::now() >= deadline {
                        return Err(std::io::ErrorKind::TimedOut.into());
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(e),
            }
        }
    };
    let stream = match accept() {
        Ok(s) => s,
        Err(e) => {
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::fs::remove_file(&path);
            return Err(e);
        }
    };
    // The rendezvous point is single-use; unlink it now so nothing can
    // connect to a stale path and no cleanup is owed at shutdown.
    drop(listener);
    let _ = std::fs::remove_file(&path);

    let mut transport = SocketTransport::new(stream)?;
    match transport.recv_timeout(HANDSHAKE_TIMEOUT) {
        Ok(Some(f)) if f.kind == FrameKind::Hello => {}
        _ => {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "worker did not say hello",
            ));
        }
    }
    Ok((FaultedTransport::new(transport, fault.net), child))
}

fn socket_path(idx: usize, incarnation: u32) -> PathBuf {
    let unique = SOCKET_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "nsx-{}-{}-w{}i{}.sock",
        std::process::id(),
        unique,
        idx,
        incarnation
    ))
}

/// Worker-process count for the shared pool: `NSX_WORKERS` verbatim when
/// set, otherwise hardware parallelism capped at 8 (processes are heavier
/// than threads; tests sharing the global pool don't need more).
pub fn default_process_workers() -> usize {
    if std::env::var("NSX_WORKERS").is_ok() {
        crate::backend::default_workers()
    } else {
        crate::backend::default_workers().min(8)
    }
}

static SHARED: OnceLock<Arc<ProcessBackend>> = OnceLock::new();

/// One extension riding the wire, or queued on the master for room on a
/// link (then `seq` and `dispatched` are set when it ships).
struct PendingJob<S> {
    idx: usize,
    slot: usize,
    dt: f64,
    backup: S,
    seq: u64,
    attempt: u32,
    dispatched: Instant,
    /// A speculative duplicate dispatched when the primary straggled past
    /// the hedge threshold: `(its seq, when it shipped)`. First answer
    /// wins; the loser is forgotten (DESIGN.md §16).
    hedge: Option<(u64, Instant)>,
}

/// The bookkeeping of one `extend_batch` call.
struct Batch<S> {
    /// Shipped jobs, keyed by primary seq.
    pending: HashMap<u64, PendingJob<S>>,
    /// Jobs waiting for room under [`MAX_INFLIGHT_BYTES`], in order, and
    /// their encoded payloads (same order).
    queue: VecDeque<PendingJob<S>>,
    payloads: VecDeque<Vec<u8>>,
    /// Finished jobs by batch index.
    out: Vec<Option<StreamJob<S>>>,
}

/// A [`SamplingBackend`] that runs batches on [`ProcessPool`] workers over
/// the frame protocol, surviving worker-process loss and network faults
/// (see module docs).
pub struct ProcessBackend {
    pool: ProcessPool,
    retry: RetryPolicy,
    degraded: AtomicBool,
    /// Straggler hedging policy (`NSX_HEDGE`, DESIGN.md §16).
    hedge: HedgePolicy,
    /// P² estimator over completed round-trip latencies (seconds), feeding
    /// the hedge threshold.
    latency: Mutex<P2Quantile>,
}

impl ProcessBackend {
    /// Spawn a dedicated pool of `n_workers` processes, faults from
    /// `NSX_FAULTS`.
    pub fn new(n_workers: usize) -> Self {
        Self::with_options(
            n_workers,
            FaultPlan::from_env(),
            RetryPolicy::default(),
            default_respawn_budget(n_workers),
            None,
        )
    }

    /// Full-control constructor mirroring `ThreadedBackend::with_options`.
    pub fn with_options(
        n_workers: usize,
        faults: FaultPlan,
        retry: RetryPolicy,
        respawn_budget: u64,
        registry: Option<&MetricsRegistry>,
    ) -> Self {
        let hedge = HedgePolicy::from_env();
        ProcessBackend {
            pool: ProcessPool::with_options(n_workers, faults, respawn_budget, registry),
            retry,
            degraded: AtomicBool::new(false),
            hedge,
            latency: Mutex::new(P2Quantile::new(hedge.quantile)),
        }
    }

    /// Override the hedging policy (tests and exhibits; production uses
    /// `NSX_HEDGE`). Resets the latency estimator to the new quantile.
    pub fn with_hedge(mut self, hedge: HedgePolicy) -> Self {
        self.hedge = hedge;
        self.latency = Mutex::new(P2Quantile::new(hedge.quantile));
        self
    }

    /// The backend's hedging policy.
    pub fn hedge_policy(&self) -> HedgePolicy {
        self.hedge
    }

    /// Override the pool's heartbeat schedule (tests and exhibits;
    /// production uses `NSX_HEARTBEAT`).
    pub fn with_heartbeat(mut self, heartbeat: HeartbeatPolicy) -> Self {
        self.pool.heartbeat = heartbeat;
        self
    }

    /// Override the pool's respawn backoff schedule (tests and exhibits;
    /// production uses `NSX_RESPAWN_BACKOFF`).
    pub fn with_backoff(mut self, backoff: BackoffPolicy) -> Self {
        self.pool.backoff = backoff;
        self
    }

    /// The process-wide shared backend, sized by [`default_process_workers`]
    /// on first use — engines selecting `NSX_TRANSPORT=process` without
    /// custom options all share these worker processes.
    pub fn shared() -> Arc<ProcessBackend> {
        Arc::clone(SHARED.get_or_init(|| Arc::new(ProcessBackend::new(default_process_workers()))))
    }

    /// The underlying process pool.
    pub fn pool(&self) -> &ProcessPool {
        &self.pool
    }

    /// The backend's retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    fn obs(&self) -> Option<&Arc<TransportObs>> {
        self.pool.obs.as_ref()
    }

    fn note_degraded(&self) {
        if !self.degraded.swap(true, Ordering::SeqCst) {
            if let Some(o) = self.obs() {
                o.degraded.inc();
            }
        }
    }

    /// Feed one completed round-trip latency to the hedge estimator.
    fn observe_latency(&self, d: Duration) {
        if !self.hedge.enabled {
            return;
        }
        let mut est = self.latency.lock().unwrap_or_else(|e| e.into_inner());
        est.observe(d.as_secs_f64());
    }

    /// Current in-flight latency beyond which a job should be hedged, if
    /// hedging is active and warmed up.
    fn hedge_after(&self) -> Option<Duration> {
        if !self.hedge.enabled {
            return None;
        }
        let est = self.latency.lock().unwrap_or_else(|e| e.into_inner());
        self.hedge.hedge_after(est.count(), est.estimate())
    }

    fn extend_inline<S: SampleStream>(mut jobs: Vec<StreamJob<S>>) -> Vec<StreamJob<S>> {
        for job in &mut jobs {
            job.stream.extend(job.dt);
        }
        jobs
    }

    /// Serialize one job's stream into a wire payload; `None` when the
    /// stream cannot save its state.
    fn encode_job<S: SampleStream>(
        wire_id: &str,
        slot: usize,
        dt: f64,
        stream: &S,
    ) -> Option<Vec<u8>> {
        let mut w = Writer::new();
        stream.save_state(&mut w).ok()?;
        Some(wire::encode_job(wire_id, slot as u64, dt, &w.into_bytes()))
    }

    /// Queue `p` to ship; a stream that cannot be serialized finishes
    /// inline (with the degraded flag set).
    fn enqueue<S: SampleStream>(&self, wire_id: &str, p: PendingJob<S>, b: &mut Batch<S>) {
        match Self::encode_job(wire_id, p.slot, p.dt, &p.backup) {
            Some(payload) => {
                b.queue.push_back(p);
                b.payloads.push_back(payload);
            }
            None => {
                self.note_degraded();
                Self::finish_inline(p, &mut b.out);
            }
        }
    }

    /// Ship queued jobs while the links have room. A job's attempt clock
    /// starts here, when it actually leaves the master. When no worker can
    /// take work the queue finishes inline (with the degraded flag set).
    fn ship<S: SampleStream>(&self, b: &mut Batch<S>) {
        if b.queue.is_empty() {
            return;
        }
        match self.pool.submit(&mut b.payloads) {
            Some(seqs) => {
                let now = Instant::now();
                for seq in seqs {
                    let Some(mut p) = b.queue.pop_front() else {
                        break;
                    };
                    p.seq = seq;
                    p.dispatched = now;
                    b.pending.insert(seq, p);
                }
            }
            None => {
                self.note_degraded();
                b.payloads.clear();
                for p in std::mem::take(&mut b.queue) {
                    Self::finish_inline(p, &mut b.out);
                }
            }
        }
    }

    /// Complete `p` inline from its backup.
    fn finish_inline<S: SampleStream>(p: PendingJob<S>, out: &mut [Option<StreamJob<S>>]) {
        let mut stream = p.backup;
        stream.extend(p.dt);
        out[p.idx] = Some(StreamJob {
            slot: p.slot,
            dt: p.dt,
            stream,
        });
    }

    /// One leg of a (possibly hedged) job died or returned garbage. While
    /// the other leg is still in flight, keep waiting on it alone: a dead
    /// hedge costs nothing, and a dead primary *promotes* the hedge to
    /// primary without burning a retry attempt (the hedge carries the same
    /// stream clone, so the answer is the same bits either way). With no
    /// live leg left, the normal retry path applies.
    fn settle_lost_leg<S: SampleStream>(
        &self,
        wire_id: &str,
        mut p: PendingJob<S>,
        from_hedge: bool,
        b: &mut Batch<S>,
    ) {
        if from_hedge {
            p.hedge = None;
            b.pending.insert(p.seq, p);
        } else if let Some((h, shipped)) = p.hedge.take() {
            p.seq = h;
            p.dispatched = shipped;
            b.pending.insert(h, p);
        } else {
            self.retry_or_inline(wire_id, p, b);
        }
    }

    /// Queue a lost/expired job for another attempt if attempts and
    /// workers remain, otherwise finish it inline.
    fn retry_or_inline<S: SampleStream>(&self, wire_id: &str, p: PendingJob<S>, b: &mut Batch<S>) {
        let next_attempt = p.attempt + 1;
        if next_attempt <= self.retry.max_attempts && !self.pool.is_failed() {
            if let Some(o) = self.obs() {
                o.retry_attempts.inc();
            }
            let backoff = self.retry.backoff_before(next_attempt);
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
            let retry = PendingJob {
                attempt: next_attempt,
                hedge: None,
                ..p
            };
            self.enqueue(wire_id, retry, b);
            return;
        }
        Self::finish_inline(p, &mut b.out);
    }
}

impl<S: SampleStream + 'static> SamplingBackend<S> for ProcessBackend {
    fn extend_batch(&self, jobs: Vec<StreamJob<S>>) -> Vec<StreamJob<S>> {
        // Streams without a wire identity cannot be shipped: execute
        // in-process. This is a capability limit of the stream type, not a
        // transport failure — no degradation note.
        let Some(wire_id) = S::wire_id() else {
            if let Some(o) = self.obs() {
                o.inline_jobs.add(jobs.len() as u64);
            }
            return Self::extend_inline(jobs);
        };
        if self.degraded.load(Ordering::SeqCst) || self.pool.is_failed() {
            self.note_degraded();
            return Self::extend_inline(jobs);
        }
        let n = jobs.len();
        let mut b = Batch {
            pending: HashMap::with_capacity(n),
            queue: VecDeque::with_capacity(n),
            payloads: VecDeque::with_capacity(n),
            out: (0..n).map(|_| None).collect(),
        };
        let now = Instant::now();
        for (idx, job) in jobs.into_iter().enumerate() {
            let p = PendingJob {
                idx,
                slot: job.slot,
                dt: job.dt,
                backup: job.stream,
                seq: 0,
                attempt: 1,
                dispatched: now,
                hedge: None,
            };
            self.enqueue(wire_id, p, &mut b);
        }
        let limit = self.retry.timeout.unwrap_or(DEFAULT_ATTEMPT_TIMEOUT);
        loop {
            self.ship(&mut b);
            if b.pending.is_empty() && b.queue.is_empty() {
                break;
            }
            let interested: Vec<u64> = b
                .pending
                .keys()
                .copied()
                .chain(b.pending.values().filter_map(|p| p.hedge.map(|(s, _)| s)))
                .collect();
            for (seq, outcome) in self.pool.collect(&interested, Duration::from_millis(20)) {
                // Resolve the seq to its pending entry: primary seqs are the
                // map keys; hedge seqs need a scan (batches are small).
                let key = if b.pending.contains_key(&seq) {
                    seq
                } else {
                    match b
                        .pending
                        .iter()
                        .find(|(_, p)| p.hedge.is_some_and(|(s, _)| s == seq))
                        .map(|(k, _)| *k)
                    {
                        Some(k) => k,
                        None => continue,
                    }
                };
                let Some(p) = b.pending.remove(&key) else {
                    continue;
                };
                let from_hedge = seq != p.seq;
                match outcome {
                    PollOutcome::Result(payload) => {
                        match decode_stream::<S>(&payload, p.slot) {
                            Some(stream) => {
                                // First answer wins; the loser's eventual
                                // reply is forgotten and counted stale.
                                // Either way the stream bits are those the
                                // backup would have produced — hedging can
                                // only change *when*, never *what*.
                                if from_hedge {
                                    if let Some(o) = self.obs() {
                                        o.hedge_wins.inc();
                                    }
                                    self.pool.forget(p.seq);
                                    if let Some((_, shipped)) = p.hedge {
                                        self.observe_latency(shipped.elapsed());
                                    }
                                } else {
                                    if let Some((h, _)) = p.hedge {
                                        self.pool.forget(h);
                                    }
                                    self.observe_latency(p.dispatched.elapsed());
                                }
                                b.out[p.idx] = Some(StreamJob {
                                    slot: p.slot,
                                    dt: p.dt,
                                    stream,
                                });
                            }
                            // An undecodable or misrouted result is treated
                            // as a lost attempt, never a guessed sample.
                            None => self.settle_lost_leg(wire_id, p, from_hedge, &mut b),
                        }
                    }
                    PollOutcome::Refused(_) => {
                        // The worker's registry refused the job; running it
                        // on this pool will never work. Finish inline.
                        if let Some(o) = self.obs() {
                            o.unsupported.inc();
                        }
                        if from_hedge {
                            self.pool.forget(p.seq);
                        } else if let Some((h, _)) = p.hedge {
                            self.pool.forget(h);
                        }
                        Self::finish_inline(p, &mut b.out);
                    }
                    PollOutcome::Lost => self.settle_lost_leg(wire_id, p, from_hedge, &mut b),
                }
            }
            // Per-attempt deadlines: abandon expired seqs and re-dispatch.
            // A hedged job's clock is its primary dispatch; expiry abandons
            // both legs (the hedge shipped even later).
            let expired: Vec<u64> = b
                .pending
                .values()
                .filter(|p| p.dispatched.elapsed() >= limit)
                .map(|p| p.seq)
                .collect();
            for seq in expired {
                let Some(p) = b.pending.remove(&seq) else {
                    continue;
                };
                if let Some(o) = self.obs() {
                    o.retry_timeouts.inc();
                }
                self.pool.forget(seq);
                if let Some((h, _)) = p.hedge {
                    self.pool.forget(h);
                }
                self.retry_or_inline(wire_id, p, &mut b);
            }
            // Straggler hedging (DESIGN.md §16): primaries in flight past
            // the quantile-tracked threshold get a speculative duplicate of
            // the same stream clone on another worker, when a link has
            // room for it.
            if let Some(after) = self.hedge_after() {
                let candidates: Vec<u64> = b
                    .pending
                    .values()
                    .filter(|p| p.hedge.is_none() && p.dispatched.elapsed() >= after)
                    .map(|p| p.seq)
                    .collect();
                for seq in candidates {
                    let Some(p) = b.pending.get_mut(&seq) else {
                        continue;
                    };
                    let hseq = Self::encode_job(wire_id, p.slot, p.dt, &p.backup)
                        .and_then(|payload| self.pool.submit(&mut VecDeque::from([payload])))
                        .and_then(|seqs| seqs.first().copied());
                    if let Some(hseq) = hseq {
                        if let Some(o) = self.obs() {
                            o.hedge_launched.inc();
                        }
                        p.hedge = Some((hseq, Instant::now()));
                    }
                }
            }
        }
        b.out
            .into_iter()
            .map(|o| {
                o.unwrap_or_else(|| {
                    // Unreachable: every branch above fills its slot.
                    panic!("process backend dropped a batch slot")
                })
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "process"
    }

    fn degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst) || self.pool.is_failed()
    }
}

/// Decode a result payload back into a stream, checking the slot echo.
fn decode_stream<S: SampleStream>(payload: &[u8], slot: usize) -> Option<S> {
    let res = wire::decode_result(payload).ok()?;
    if res.slot != slot as u64 {
        return None;
    }
    let mut r = Reader::new(&res.state);
    let stream = S::load_state(&mut r).ok()?;
    r.finish().ok()?;
    Some(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stoch_eval::backend::SerialBackend;
    use stoch_eval::functions::Rosenbrock;
    use stoch_eval::noise::ConstantNoise;
    use stoch_eval::objective::StochasticObjective;
    use stoch_eval::sampler::Noisy;

    type Stream = <Noisy<Rosenbrock, ConstantNoise> as StochasticObjective>::Stream;

    fn jobs_at(obj: &Noisy<Rosenbrock, ConstantNoise>, n: usize) -> Vec<StreamJob<Stream>> {
        (0..n)
            .map(|i| StreamJob {
                slot: i,
                dt: 1.0 + i as f64,
                stream: obj.open(&[i as f64, 0.5], 100 + i as u64),
            })
            .collect()
    }

    fn assert_batches_identical(a: &[StreamJob<Stream>], b: &[StreamJob<Stream>]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.slot, y.slot);
            assert_eq!(x.dt, y.dt);
            let (ea, eb) = (x.stream.estimate(), y.stream.estimate());
            assert_eq!(ea.value.to_bits(), eb.value.to_bits());
            assert_eq!(ea.std_err.to_bits(), eb.std_err.to_bits());
            assert_eq!(ea.time.to_bits(), eb.time.to_bits());
        }
    }

    #[test]
    fn process_backend_matches_serial_bit_for_bit() {
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(5.0));
        let serial = SerialBackend.extend_batch(jobs_at(&obj, 6));
        let backend = ProcessBackend::with_options(
            2,
            FaultPlan::none(),
            RetryPolicy::default(),
            default_respawn_budget(2),
            None,
        );
        let procd = backend.extend_batch(jobs_at(&obj, 6));
        assert_batches_identical(&serial, &procd);
        assert!(!SamplingBackend::<Stream>::degraded(&backend));
    }

    #[test]
    fn worker_process_death_is_survived_bit_for_bit() {
        let reg = MetricsRegistry::new();
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(3.0));
        let serial = SerialBackend.extend_batch(jobs_at(&obj, 10));
        let backend = ProcessBackend::with_options(
            2,
            FaultPlan::none().kill(0, 1),
            RetryPolicy::default(),
            default_respawn_budget(2),
            Some(&reg),
        );
        let procd = backend.extend_batch(jobs_at(&obj, 10));
        assert_batches_identical(&serial, &procd);
        assert!(!SamplingBackend::<Stream>::degraded(&backend));
        assert!(reg.counter("mw.transport.reconnects").get() >= 1);
    }

    #[test]
    fn dropped_frames_are_retried_bit_for_bit() {
        let reg = MetricsRegistry::new();
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(2.0));
        let serial = SerialBackend.extend_batch(jobs_at(&obj, 6));
        // Outbound job frame 1 to worker 0 vanishes; the per-attempt
        // timeout recovers it from the master-side backup.
        let backend = ProcessBackend::with_options(
            2,
            FaultPlan::none().net_drop(0, 1),
            RetryPolicy {
                timeout: Some(Duration::from_millis(300)),
                ..RetryPolicy::default()
            },
            default_respawn_budget(2),
            Some(&reg),
        );
        let procd = backend.extend_batch(jobs_at(&obj, 6));
        assert_batches_identical(&serial, &procd);
        assert!(reg.counter("mw.retry.timeouts").get() >= 1);
        assert!(!SamplingBackend::<Stream>::degraded(&backend));
    }

    #[test]
    fn no_spawnable_workers_degrades_to_inline() {
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(1.0));
        let serial = SerialBackend.extend_batch(jobs_at(&obj, 4));
        // Kill the only worker before any job with no respawn budget: the
        // pool fails and the batch must complete inline, identically.
        let backend = ProcessBackend::with_options(
            1,
            FaultPlan::none().kill(0, 0),
            RetryPolicy::default(),
            0,
            None,
        );
        let procd = backend.extend_batch(jobs_at(&obj, 4));
        assert_batches_identical(&serial, &procd);
        assert!(SamplingBackend::<Stream>::degraded(&backend));
    }

    #[test]
    fn hedged_dispatch_beats_a_straggler_bit_for_bit() {
        let reg = MetricsRegistry::new();
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(4.0));
        let serial = SerialBackend.extend_batch(jobs_at(&obj, 8));
        // Worker 0 sleeps 150 ms before every job (a permanent straggler);
        // with an aggressive hedge policy its jobs are speculatively
        // re-dispatched and the batch still matches serial bit-for-bit.
        let backend = ProcessBackend::with_options(
            2,
            FaultPlan::none().delay(0, 0, 150),
            RetryPolicy::default(),
            default_respawn_budget(2),
            Some(&reg),
        )
        .with_hedge(HedgePolicy::parse("on:q=0.5:factor=1:min_ms=10:warmup=3").unwrap());
        for _ in 0..3 {
            let procd = backend.extend_batch(jobs_at(&obj, 8));
            assert_batches_identical(&SerialBackend.extend_batch(jobs_at(&obj, 8)), &procd);
        }
        let procd = backend.extend_batch(jobs_at(&obj, 8));
        assert_batches_identical(&serial, &procd);
        assert!(!SamplingBackend::<Stream>::degraded(&backend));
        assert!(reg.counter("mw.hedge.launched").get() >= 1);
        assert!(reg.counter("mw.hedge.wins").get() >= 1);
    }

    #[test]
    fn heartbeat_buries_a_wedged_worker_and_recovers() {
        let reg = MetricsRegistry::new();
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(2.0));
        let serial = SerialBackend.extend_batch(jobs_at(&obj, 3));
        // The sole worker's first incarnation wedges for 30 s on every job;
        // the heartbeat declares it dead in ~interval+timeout, well before
        // the 5 s attempt deadline, and the healthy respawn answers the
        // re-dispatch bit-identically.
        let backend = ProcessBackend::with_options(
            1,
            FaultPlan::none().delay(0, 0, 30_000),
            RetryPolicy::default(),
            default_respawn_budget(1),
            Some(&reg),
        )
        .with_heartbeat(HeartbeatPolicy::parse("on:interval_ms=100:timeout_ms=300").unwrap());
        let start = Instant::now();
        let procd = backend.extend_batch(jobs_at(&obj, 3));
        assert_batches_identical(&serial, &procd);
        assert!(!SamplingBackend::<Stream>::degraded(&backend));
        assert!(reg.counter("mw.transport.heartbeat_deaths").get() >= 1);
        assert!(reg.counter("mw.transport.reconnects").get() >= 1);
        // Recovery must beat the 5 s attempt timeout by a wide margin.
        assert!(start.elapsed() < Duration::from_secs(4));
    }

    #[test]
    fn repeated_revivals_defer_with_backoff_but_dispatch_forces_through() {
        // Unit-level check of the deferral bookkeeping: a slot on its second
        // respawn is deferred by revive() but submit()'s forced pass still
        // fields a worker instead of letting the backend degrade.
        let pool = ProcessPool::with_options(1, FaultPlan::none(), 8, None)
            .with_backoff(BackoffPolicy::parse("on:base_ms=60000:cap_ms=60000").unwrap());
        {
            let mut inner = pool.lock();
            // Simulate two prior deaths: incarnation 1 already used.
            inner.workers[0].incarnation = 1;
            pool.bury(&mut inner, 0);
            pool.revive(&mut inner, 0);
            // Deferred: no transport, budget untouched by the deferral.
            assert!(inner.workers[0].transport.is_none());
            assert_eq!(inner.respawn_budget, 8);
            assert!(inner.workers[0].not_before.is_some());
        }
        // Dispatch forces past the deferral rather than failing.
        let mut w = Writer::new();
        let local = stoch_eval::sampler::GaussianStream::new(1.0, 1.0, 3);
        local.save_state(&mut w).unwrap();
        let payload = wire::encode_job("gaussian.v1", 0, 1.0, &w.into_bytes());
        let shipped = pool.submit(&mut VecDeque::from([payload])).unwrap();
        assert_eq!(shipped.len(), 1);
        assert_eq!(pool.alive_workers(), 1);
    }

    #[test]
    fn submit_holds_jobs_past_the_inflight_cap() {
        let pool = ProcessPool::with_options(1, FaultPlan::none(), 1, None);
        let mut w = Writer::new();
        let local = stoch_eval::sampler::GaussianStream::new(1.0, 1.0, 3);
        local.save_state(&mut w).unwrap();
        let payload = wire::encode_job("gaussian.v1", 0, 1.0, &w.into_bytes());
        let frame_len = Frame::encoded_len_for(payload.len());
        let mut payloads: VecDeque<Vec<u8>> = (0..2000).map(|_| payload.clone()).collect();
        let shipped = pool.submit(&mut payloads).unwrap();
        assert_eq!(shipped.len(), MAX_INFLIGHT_BYTES / frame_len);
        assert_eq!(payloads.len(), 2000 - shipped.len());
        // Nothing fits until results come back.
        assert_eq!(pool.submit(&mut payloads), Some(Vec::new()));
        let mut answered = 0;
        let deadline = Instant::now() + Duration::from_secs(30);
        while answered < shipped.len() && Instant::now() < deadline {
            answered += pool.collect(&shipped, Duration::from_millis(20)).len();
        }
        assert_eq!(answered, shipped.len());
        assert_eq!(pool.submit(&mut payloads).unwrap().len(), shipped.len());
    }

    #[test]
    fn large_batch_completes_bit_for_bit() {
        // 5000 jobs are far more than two socket buffers hold: without the
        // in-flight cap the master blocks writing jobs while the workers
        // block writing results.
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(5.0));
        let serial = SerialBackend.extend_batch(jobs_at(&obj, 5000));
        let backend = ProcessBackend::with_options(
            2,
            FaultPlan::none(),
            RetryPolicy::default(),
            default_respawn_budget(2),
            None,
        );
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let procd = backend.extend_batch(jobs_at(&obj, 5000));
            let degraded = SamplingBackend::<Stream>::degraded(&backend);
            let _ = tx.send((procd, degraded));
        });
        let (procd, degraded) = rx
            .recv_timeout(Duration::from_secs(120))
            .expect("5000-job batch did not finish within 120 s");
        worker.join().unwrap();
        assert_batches_identical(&serial, &procd);
        assert!(!degraded);
    }

    #[test]
    fn shared_backend_is_one_pool() {
        let a = ProcessBackend::shared();
        let b = ProcessBackend::shared();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.pool().n_workers() >= 1);
    }
}
