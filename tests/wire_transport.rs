//! Distributed transport (DESIGN.md §12): the wire between master and
//! worker processes must be *corruption-evident* and *result-invisible*.
//!
//! Corruption-evident: any damaged byte stream — truncated, bit-flipped,
//! duplicated, reordered — surfaces as a typed condition (a pending partial
//! frame, [`TransportError::Corrupt`], a stale result), never as a silently
//! wrong sample. Result-invisible: running any simplex-family method over
//! `NSX_TRANSPORT=process` is `f64::to_bits`-identical to in-process
//! execution, under network chaos, and composed with checkpoint/resume.

use mw_framework::transport::{
    channel_pair, Frame, FrameKind, SocketTransport, Transport, TransportError,
};
use noisy_simplex::prelude::*;
use proptest::prelude::*;
use std::io::Write as IoWrite;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::time::Duration;
use stoch_eval::functions::{Rosenbrock, Sphere};
use stoch_eval::noise::ConstantNoise;
use stoch_eval::objective::StochasticObjective;
use stoch_eval::sampler::Noisy;

// ---------------------------------------------------------------------------
// Wire-level corruption properties
// ---------------------------------------------------------------------------

const KINDS: [FrameKind; 7] = [
    FrameKind::Hello,
    FrameKind::Job,
    FrameKind::Result,
    FrameKind::Error,
    FrameKind::Shutdown,
    FrameKind::Ping,
    FrameKind::Pong,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary frames cross both transports intact, in order.
    #[test]
    fn frames_survive_both_transports(
        kind_idx in 0usize..KINDS.len(),
        seq in 0u64..=u64::MAX,
        payload in proptest::collection::vec(0u8..=255, 0..512),
    ) {
        let frame = Frame::new(KINDS[kind_idx], seq, payload);

        let (mut a, mut b) = channel_pair();
        a.send(std::slice::from_ref(&frame)).unwrap();
        prop_assert_eq!(
            b.recv_timeout(Duration::from_secs(1)).unwrap().unwrap(),
            frame.clone()
        );

        let (x, y) = UnixStream::pair().unwrap();
        let (mut x, mut y) = (
            SocketTransport::new(x).unwrap(),
            SocketTransport::new(y).unwrap(),
        );
        x.send(std::slice::from_ref(&frame)).unwrap();
        prop_assert_eq!(
            y.recv_timeout(Duration::from_secs(1)).unwrap().unwrap(),
            frame
        );
    }

    /// Streaming reassembly is boundary-blind: however a sequence of frames
    /// is sliced into chunks — mid-header, mid-payload, mid-CRC, several
    /// frames coalesced into one read — [`FrameBuffer`] yields exactly the
    /// original frames in order, with nothing left pending.
    #[test]
    fn frame_buffer_reassembles_across_arbitrary_chunk_boundaries(
        specs in proptest::collection::vec((0usize..KINDS.len(), 0u64..=u64::MAX, 0usize..96), 1..6),
        cut_fracs in proptest::collection::vec(0.0f64..1.0, 0..24),
    ) {
        use mw_framework::transport::FrameBuffer;
        // Payload bytes derived from the seq so the strategy stays flat
        // (kind, seq, len) while payload content still varies per frame.
        let frames: Vec<Frame> = specs
            .iter()
            .map(|&(k, seq, len)| {
                let payload = (0..len).map(|i| (seq ^ i as u64) as u8).collect();
                Frame::new(KINDS[k], seq, payload)
            })
            .collect();
        let bytes: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();

        // Arbitrary chunking: cut positions anywhere in the byte stream.
        let mut cuts: Vec<usize> = cut_fracs
            .iter()
            .map(|f| (f * bytes.len() as f64) as usize)
            .collect();
        cuts.push(0);
        cuts.push(bytes.len());
        cuts.sort_unstable();
        cuts.dedup();

        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        for pair in cuts.windows(2) {
            fb.extend(&bytes[pair[0]..pair[1]]);
            while let Some(frame) = fb.try_frame().unwrap() {
                got.push(frame);
            }
        }
        prop_assert_eq!(&got, &frames);
        prop_assert_eq!(fb.pending_bytes(), 0);

        // Degenerate chunking: one byte at a time.
        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        for b in &bytes {
            fb.extend(std::slice::from_ref(b));
            while let Some(frame) = fb.try_frame().unwrap() {
                got.push(frame);
            }
        }
        prop_assert_eq!(&got, &frames);
        prop_assert_eq!(fb.pending_bytes(), 0);
    }

    /// A truncated byte stream never yields a frame: the tail stays pending
    /// until the peer hangs up, which reports `Closed` — the master then
    /// re-dispatches from its backups.
    #[test]
    fn truncated_streams_never_yield_a_frame(
        seq in 0u64..=u64::MAX,
        payload in proptest::collection::vec(0u8..=255, 1..256),
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = Frame::new(FrameKind::Result, seq, payload).encode();
        // Cut strictly inside the frame.
        let cut = 1 + ((bytes.len() - 2) as f64 * cut_frac) as usize;

        let (raw, peer) = UnixStream::pair().unwrap();
        let mut transport = SocketTransport::new(peer).unwrap();
        let mut raw = raw;
        raw.write_all(&bytes[..cut]).unwrap();
        prop_assert_eq!(
            transport.recv_timeout(Duration::from_millis(5)).unwrap(),
            None
        );
        drop(raw);
        prop_assert_eq!(
            transport.recv_timeout(Duration::from_millis(50)),
            Err(TransportError::Closed)
        );
    }

    /// A single flipped bit anywhere in a frame is never accepted: the
    /// receiver reports a typed corruption error, or keeps waiting for
    /// bytes that never come (a length-field flip) — but no frame comes out.
    #[test]
    fn bit_flips_never_produce_a_frame(
        seq in 0u64..=u64::MAX,
        payload in proptest::collection::vec(0u8..=255, 0..128),
        flip_frac in 0.0f64..1.0,
        flip_bit in 0usize..8,
    ) {
        let mut bytes = Frame::new(FrameKind::Job, seq, payload).encode();
        let pos = ((bytes.len() - 1) as f64 * flip_frac) as usize;
        bytes[pos] ^= 1 << flip_bit;

        let (raw, peer) = UnixStream::pair().unwrap();
        let mut transport = SocketTransport::new(peer).unwrap();
        let mut raw = raw;
        raw.write_all(&bytes).unwrap();
        drop(raw);
        let got = transport.recv_timeout(Duration::from_millis(50));
        prop_assert!(
            matches!(got, Err(TransportError::Corrupt(_)) | Err(TransportError::Closed) | Ok(None)),
            "flipped bit {flip_bit} at byte {pos} produced {got:?}"
        );
    }
}

/// A duplicated `Job` frame is executed twice and answered twice with the
/// same seq — duplicate *suppression* is the master pool's job (the second
/// result is stale), not the worker's, which keeps the worker stateless.
#[test]
fn duplicated_job_frames_are_answered_per_copy() {
    use mw_framework::transport::worker::serve;
    use mw_framework::WorkerFault;
    use stoch_eval::codec::Writer;
    use stoch_eval::objective::SampleStream;
    use stoch_eval::sampler::GaussianStream;

    let (mut master, worker) = channel_pair();
    let t = std::thread::spawn(move || serve(worker, WorkerFault::default()));

    let stream = GaussianStream::new(1.0, 2.0, 99);
    let mut w = Writer::new();
    stream.save_state(&mut w).unwrap();
    let payload = mw_framework::transport::wire::encode_job("gaussian.v1", 0, 1.5, &w.into_bytes());
    let job = Frame::new(FrameKind::Job, 5, payload);

    // Hello first, then the same job twice.
    let hello = master
        .recv_timeout(Duration::from_secs(5))
        .unwrap()
        .unwrap();
    assert_eq!(hello.kind, FrameKind::Hello);
    master.send(std::slice::from_ref(&job)).unwrap();
    master.send(std::slice::from_ref(&job)).unwrap();
    let first = master
        .recv_timeout(Duration::from_secs(5))
        .unwrap()
        .unwrap();
    let second = master
        .recv_timeout(Duration::from_secs(5))
        .unwrap()
        .unwrap();
    assert_eq!(first.kind, FrameKind::Result);
    assert_eq!(first.seq, 5);
    // Same deterministic job → bit-identical duplicate answer.
    assert_eq!(second, first);
    master
        .send(&[Frame::new(FrameKind::Shutdown, 0, vec![])])
        .unwrap();
    assert_eq!(t.join().unwrap(), 0);
}

// ---------------------------------------------------------------------------
// Engine-level determinism across the wire
// ---------------------------------------------------------------------------

fn term() -> Termination {
    Termination {
        tolerance: Some(1e-6),
        max_time: Some(300.0),
        max_iterations: Some(60),
    }
}

fn methods() -> Vec<SimplexMethod> {
    vec![
        SimplexMethod::Det(Det::new()),
        SimplexMethod::Mn(MaxNoise::with_k(2.0)),
        SimplexMethod::Pc(PointComparison::new()),
        SimplexMethod::PcMn(PcMn::new()),
    ]
}

fn with_cfg(m: &SimplexMethod, f: impl FnOnce(&mut SimplexConfig)) -> SimplexMethod {
    let mut m = m.clone();
    match &mut m {
        SimplexMethod::Det(x) => f(&mut x.cfg),
        SimplexMethod::Mn(x) => f(&mut x.cfg),
        SimplexMethod::Pc(x) => f(&mut x.cfg),
        SimplexMethod::PcMn(x) => f(&mut x.cfg),
        SimplexMethod::Anderson(x) => f(&mut x.cfg),
    }
    m
}

fn assert_identical(label: &str, a: &RunResult, b: &RunResult) {
    let bits = |v: f64| v.to_bits();
    assert_eq!(a.best_point, b.best_point, "{label}: best_point");
    assert_eq!(
        bits(a.best_observed),
        bits(b.best_observed),
        "{label}: best_observed"
    );
    assert_eq!(a.iterations, b.iterations, "{label}: iterations");
    assert_eq!(bits(a.elapsed), bits(b.elapsed), "{label}: elapsed");
    assert_eq!(
        bits(a.total_sampling),
        bits(b.total_sampling),
        "{label}: total_sampling"
    );
    assert_eq!(a.stop, b.stop, "{label}: stop reason");
    let (pa, pb) = (a.trace.points(), b.trace.points());
    assert_eq!(pa.len(), pb.len(), "{label}: trace length");
    for (i, (x, y)) in pa.iter().zip(pb).enumerate() {
        assert_eq!(bits(x.time), bits(y.time), "{label}: trace[{i}].time");
        assert_eq!(
            bits(x.best_observed),
            bits(y.best_observed),
            "{label}: trace[{i}].best_observed"
        );
        assert_eq!(x.step, y.step, "{label}: trace[{i}].step");
    }
}

fn check_process_matches_serial<F: StochasticObjective>(
    objective: &F,
    d: usize,
    seed: u64,
    faults: Option<FaultPlan>,
) {
    let init = init::random_uniform(d, -3.0, 3.0, seed);
    for m in &methods() {
        let serial = with_cfg(m, |c| {
            c.transport = TransportChoice::Inproc;
            c.backend = BackendChoice::Serial;
        });
        let wired = with_cfg(m, |c| {
            c.transport = TransportChoice::Process;
            c.backend = BackendChoice::Threaded { workers: 2 };
            c.faults = faults.clone();
            if faults.is_some() {
                c.retry = RetryPolicy {
                    max_attempts: 5,
                    timeout: Some(Duration::from_millis(500)),
                    backoff: Duration::ZERO,
                };
            }
        });
        let ra = serial.run(objective, init.clone(), term(), TimeMode::Parallel, seed);
        let rb = wired.run(objective, init.clone(), term(), TimeMode::Parallel, seed);
        let label = format!("{} over process transport", m.name());
        assert_identical(&label, &ra, &rb);
        assert!(
            !rb.notes.contains(&RunNote::TransportDegraded)
                && !rb.notes.contains(&RunNote::DegradedToSerial),
            "{label}: survivable conditions must not degrade the run, got {:?}",
            rb.notes
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Clean wire: every method, oracle streams.
    #[test]
    fn process_transport_matches_serial_on_oracle_streams(seed in 1u64..10_000) {
        let obj = Noisy::new(Sphere::new(2), ConstantNoise(1.0));
        check_process_matches_serial(&obj, 2, seed, None);
    }

    /// Clean wire: every method, empirical streams (batch statistics cross
    /// the wire too).
    #[test]
    fn process_transport_matches_serial_on_empirical_streams(seed in 1u64..10_000) {
        let obj = Noisy::empirical(Rosenbrock::new(3), ConstantNoise(2.0), 0.25);
        check_process_matches_serial(&obj, 3, seed, None);
    }

    /// Network chaos: a worker killed mid-run, an outbound frame dropped,
    /// another delayed, two reordered — all survivable, all invisible in
    /// the results.
    #[test]
    fn process_transport_survives_network_chaos(seed in 1u64..10_000) {
        let obj = Noisy::new(Sphere::new(2), ConstantNoise(1.0));
        let plan = FaultPlan::none()
            .kill(0, 2)
            .net_drop(1, 1)
            .net_delay(0, 0, 2)
            .reorder(1, 3);
        check_process_matches_serial(&obj, 2, seed, Some(plan));
    }
}

// ---------------------------------------------------------------------------
// Composition with checkpoint/resume (DESIGN.md §11 + §12)
// ---------------------------------------------------------------------------

fn tmp_ckpt(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, AtomicOrdering::Relaxed);
    std::env::temp_dir().join(format!("nsx_wire_{tag}_{}_{n}.bin", std::process::id()))
}

fn cleanup(path: &Path) {
    for suffix in ["", ".1", ".tmp"] {
        let mut p = path.as_os_str().to_os_string();
        p.push(suffix);
        let _ = std::fs::remove_file(PathBuf::from(p));
    }
}

/// A run checkpointed and truncated *over the wire*, then resumed *over the
/// wire*, matches the uninterrupted in-process run bit for bit: snapshots
/// are transport-agnostic because the streams they persist are.
#[test]
fn checkpoint_resume_composes_with_process_transport() {
    let obj = Noisy::new(Sphere::new(2), ConstantNoise(1.0));
    let seed = 11;
    let init = init::random_uniform(2, -3.0, 3.0, seed);
    let base = SimplexMethod::Mn(MaxNoise::with_k(2.0));

    let golden_m = with_cfg(&base, |c| {
        c.transport = TransportChoice::Inproc;
        c.backend = BackendChoice::Serial;
    });
    let golden = golden_m.run(&obj, init.clone(), term(), TimeMode::Parallel, seed);
    assert!(golden.iterations > 4, "run too short to truncate");

    let path = tmp_ckpt("proc");
    let wired_m = with_cfg(&base, |c| {
        c.transport = TransportChoice::Process;
        c.backend = BackendChoice::Threaded { workers: 2 };
        c.checkpoint = Some(CheckpointConfig {
            path: path.clone(),
            every: 2,
            retain: true,
        });
    });
    let trunc_term = Termination {
        max_iterations: Some(4),
        ..term()
    };
    let truncated = wired_m.run(&obj, init, trunc_term, TimeMode::Parallel, seed);
    assert!(truncated.iterations <= 5, "truncated run overshot the cut");

    let resumed = wired_m
        .resume_with_metrics(&obj, &path, Some(term()), None)
        .unwrap_or_else(|e| panic!("resume over process transport failed: {e}"));
    cleanup(&path);

    assert_identical("mn checkpoint+wire", &golden, &resumed);
    // NoiseSuspect is a property of the sampled noise (it fires under an
    // NSX_NOISE chaos distribution), not of the wire, so it is the one note
    // a clean wired resume may carry.
    assert!(
        resumed.notes.iter().all(|n| *n == RunNote::NoiseSuspect),
        "clean wired resume must carry no transport notes, got {:?}",
        resumed.notes
    );
}
