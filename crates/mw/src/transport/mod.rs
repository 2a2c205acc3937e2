//! The transport seam: how master and workers exchange frames (DESIGN.md
//! §12).
//!
//! The paper's MW deployment runs master and workers as separate MPI ranks
//! on a cluster; everything in this workspace so far substitutes threads and
//! channels. This module cuts that substitution at a seam: a [`Transport`]
//! moves opaque [`Frame`]s between a master endpoint and one worker
//! endpoint, and two implementations are provided —
//!
//! * [`ChannelTransport`] — the existing in-process story: frames travel as
//!   encoded bytes over a `crossbeam` channel pair (the codec still runs, so
//!   the wire format is exercised without any OS plumbing);
//! * [`SocketTransport`] — a Unix-domain socket to a real worker *process*
//!   spawned by [`ProcessPool`], which is how `BENCH_dist.json` shows
//!   scale-up past a single process's thread count.
//!
//! The frame format reuses the PR-5 checkpoint codec (`stoch-eval::codec`):
//! little-endian fields, `f64` as raw bits, length-prefixed payloads, and a
//! trailing CRC-32 — see [`frame`]. Stream state crosses the wire via
//! `SampleStream::save_state`/`load_state`, which are bit-exact, so a job
//! executed in another process returns the same bits the calling thread
//! would have produced; see [`wire`].
//!
//! Network chaos is injected master-side by [`FaultedTransport`], driven by
//! the `netdelay`/`netdrop`/`partition`/`reorder` directives of
//! [`crate::faults::FaultPlan`]. Lost frames are recovered by the
//! per-attempt timeout + retry machinery in [`ProcessBackend`], which
//! re-dispatches from master-side stream backups exactly like the threaded
//! backend — so every survivable fault plan is invisible in the results.

pub mod frame;
pub mod inproc;
pub mod process;
pub mod socket;
pub mod wire;
pub mod worker;

pub use frame::{Frame, FrameBuffer, FrameError, FrameKind, WIRE_VERSION};
pub use inproc::{channel_pair, ChannelTransport};
pub use process::{ProcessBackend, ProcessPool};
pub use socket::SocketTransport;

use crate::faults::NetFault;
use std::time::Duration;

/// A transport-layer failure. Corruption is always *typed* — a damaged
/// frame can make a link unusable, never a silently wrong sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer is gone: socket EOF, broken pipe, or a dropped channel.
    /// For a worker link this is the process-level analogue of
    /// [`crate::pool::WorkerLost`].
    Closed,
    /// An I/O error other than disconnection.
    Io(std::io::ErrorKind),
    /// The byte stream failed frame validation (bad magic, version, CRC,
    /// ...). The link is desynchronized and must be torn down; the master
    /// recovers by respawning the worker and retrying from backups.
    Corrupt(FrameError),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed => write!(f, "transport peer disconnected"),
            TransportError::Io(kind) => write!(f, "transport I/O error: {kind:?}"),
            TransportError::Corrupt(e) => write!(f, "corrupt frame on transport: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<FrameError> for TransportError {
    fn from(e: FrameError) -> Self {
        TransportError::Corrupt(e)
    }
}

/// Moves frames between one master endpoint and one worker endpoint.
///
/// Implementations deliver frames reliably and in order on a healthy link
/// (both sides of the seam are stream-oriented); unreliability is modelled
/// explicitly by [`FaultedTransport`], and recovery lives one layer up in
/// [`ProcessBackend`]'s retry loop.
pub trait Transport: Send {
    /// Send `frames` in order, as one write where the link allows: the
    /// byte stream is the concatenation of their encodings, whatever the
    /// batching. [`TransportError::Closed`] when the peer is gone.
    fn send(&mut self, frames: &[Frame]) -> Result<(), TransportError>;

    /// Receive the next frame, waiting at most `timeout`. `Ok(None)` on
    /// timeout (the link is healthy, nothing arrived yet).
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Frame>, TransportError>;
}

impl<T: Transport + ?Sized> Transport for Box<T> {
    fn send(&mut self, frames: &[Frame]) -> Result<(), TransportError> {
        (**self).send(frames)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Frame>, TransportError> {
        (**self).recv_timeout(timeout)
    }
}

/// Wraps a transport with outbound [`NetFault`] injection: delayed, dropped,
/// partitioned (black-holed window), or reordered sends. Inbound frames are
/// untouched — the partition is *half-open*, the nastier case for a master
/// that must decide whether a silent worker is dead or unreachable.
///
/// Faults are keyed by each frame's own send index, so a batch suffers
/// exactly what the same frames sent one by one would: the worker sees the
/// same frames in the same order.
pub struct FaultedTransport<T> {
    inner: T,
    net: NetFault,
    sent: u64,
    /// A frame held back by `reorder`: delivered after the next frame that
    /// goes out. If none does it is never delivered — a reorder at the
    /// tail of a burst degenerates to a drop, which the retry layer absorbs.
    held: Option<Frame>,
}

impl<T: Transport> FaultedTransport<T> {
    /// Wrap `inner`, injecting `net` on outbound frames (counted from the
    /// next send).
    pub fn new(inner: T, net: NetFault) -> Self {
        FaultedTransport {
            inner,
            net,
            sent: 0,
            held: None,
        }
    }

    /// Outbound frames attempted so far (including swallowed ones).
    pub fn sent(&self) -> u64 {
        self.sent
    }
}

impl<T: Transport> Transport for FaultedTransport<T> {
    fn send(&mut self, frames: &[Frame]) -> Result<(), TransportError> {
        let first = self.sent;
        self.sent += frames.len() as u64;
        if self.net.is_none() {
            return self.inner.send(frames);
        }
        // Apply each frame's fault by its own send index, forwarding the
        // survivors together and flushing them before any injected delay so
        // the delay lands where it would have between single sends.
        let mut out: Vec<Frame> = Vec::with_capacity(frames.len() + 1);
        for (idx, frame) in (first..).zip(frames) {
            if self.net.swallows(idx) {
                // Dropped or partitioned: the bytes never leave the master.
                // The caller sees success — exactly what a lost datagram
                // looks like.
                continue;
            }
            if let Some(d) = self.net.delay_for(idx) {
                if !out.is_empty() {
                    self.inner.send(&out)?;
                    out.clear();
                }
                std::thread::sleep(d);
            }
            if self.net.reorder_at == Some(idx) {
                self.held = Some(frame.clone());
                continue;
            }
            out.push(frame.clone());
            out.extend(self.held.take());
        }
        if out.is_empty() {
            return Ok(());
        }
        self.inner.send(&out)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Frame>, TransportError> {
        self.inner.recv_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::Delay;

    /// Drain everything `rx` has received, as seqs.
    fn received(rx: &mut ChannelTransport) -> Vec<u64> {
        std::iter::from_fn(|| {
            rx.recv_timeout(Duration::from_millis(50))
                .unwrap()
                .map(|f| f.seq)
        })
        .collect()
    }

    fn job(seq: u64) -> Frame {
        Frame::new(FrameKind::Job, seq, vec![seq as u8])
    }

    /// Send jobs `0..n` through a `FaultedTransport` in `send` calls of the
    /// given sizes; return the seqs the far end receives.
    fn delivered(net: NetFault, batches: &[usize]) -> Vec<u64> {
        let (mut a, b) = channel_pair();
        let mut faulted = FaultedTransport::new(b, net);
        let mut seq = 0u64;
        for &len in batches {
            let frames: Vec<Frame> = (seq..seq + len as u64).map(job).collect();
            faulted.send(&frames).unwrap();
            seq += len as u64;
        }
        assert_eq!(faulted.sent(), seq);
        received(&mut a)
    }

    #[test]
    fn faulted_transport_drops_delays_and_reorders() {
        let (mut a, b) = channel_pair();
        let net = NetFault {
            drop_at: Some(1),
            reorder_at: Some(2),
            ..NetFault::default()
        };
        let mut faulted = FaultedTransport::new(b, net);
        for seq in 0..4u64 {
            faulted.send(&[job(seq)]).unwrap();
        }
        // Frame 1 dropped; frame 2 held and delivered after frame 3.
        assert_eq!(received(&mut a), vec![0, 3, 2]);
    }

    #[test]
    fn partition_black_holes_a_window() {
        let (mut a, b) = channel_pair();
        let net = NetFault {
            partition: Some((1, 2)),
            ..NetFault::default()
        };
        let mut faulted = FaultedTransport::new(b, net);
        for seq in 0..4u64 {
            faulted
                .send(&[Frame::new(FrameKind::Job, seq, vec![])])
                .unwrap();
        }
        assert_eq!(received(&mut a), vec![0, 3]);
        assert_eq!(faulted.sent(), 4);
    }

    #[test]
    fn batching_is_invisible_under_every_net_fault() {
        let faults = [
            NetFault::default(),
            NetFault {
                drop_at: Some(1),
                ..NetFault::default()
            },
            NetFault {
                partition: Some((2, 3)),
                ..NetFault::default()
            },
            NetFault {
                reorder_at: Some(2),
                ..NetFault::default()
            },
            // The last frame of the first four-frame batch: held across
            // the send boundary and delivered after the next batch's head.
            NetFault {
                reorder_at: Some(3),
                ..NetFault::default()
            },
            // The last frame of all: held with no successor, so never sent.
            NetFault {
                reorder_at: Some(7),
                ..NetFault::default()
            },
            NetFault {
                delay: Some(Delay {
                    after: 5,
                    millis: 1,
                }),
                drop_at: Some(6),
                reorder_at: Some(4),
                ..NetFault::default()
            },
        ];
        for net in faults {
            let one_by_one = delivered(net, &[1; 8]);
            for batches in [&[8][..], &[4, 4], &[3, 5], &[2, 1, 5]] {
                assert_eq!(
                    delivered(net, batches),
                    one_by_one,
                    "{net:?} split {batches:?}"
                );
            }
        }
        assert_eq!(
            delivered(
                NetFault {
                    reorder_at: Some(3),
                    ..NetFault::default()
                },
                &[4, 4]
            ),
            vec![0, 1, 2, 4, 3, 5, 6, 7]
        );
        assert_eq!(
            delivered(
                NetFault {
                    reorder_at: Some(7),
                    ..NetFault::default()
                },
                &[8]
            ),
            vec![0, 1, 2, 3, 4, 5, 6]
        );
    }

    #[test]
    fn serve_answers_a_batch_in_order() {
        use stoch_eval::objective::SampleStream;
        use stoch_eval::sampler::GaussianStream;

        let (mut master, worker) = channel_pair();
        let handle = std::thread::spawn(move || {
            worker::serve(worker, crate::faults::WorkerFault::default())
        });
        let hello = master.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(hello.map(|f| f.kind), Some(FrameKind::Hello));

        let streams: Vec<GaussianStream> = (0..40u64)
            .map(|i| GaussianStream::new(i as f64, 1.0, i))
            .collect();
        let frames: Vec<Frame> = streams
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut w = stoch_eval::codec::Writer::new();
                s.save_state(&mut w).unwrap();
                let payload = wire::encode_job("gaussian.v1", i as u64, 2.0, &w.into_bytes());
                Frame::new(FrameKind::Job, 1000 + i as u64, payload)
            })
            .collect();
        master.send(&frames).unwrap();
        for (i, mut local) in streams.into_iter().enumerate() {
            let reply = master
                .recv_timeout(Duration::from_secs(5))
                .unwrap()
                .unwrap();
            assert_eq!(reply.kind, FrameKind::Result);
            assert_eq!(reply.seq, 1000 + i as u64);
            local.extend(2.0);
            let mut w = stoch_eval::codec::Writer::new();
            local.save_state(&mut w).unwrap();
            let res = wire::decode_result(&reply.payload).unwrap();
            assert_eq!(res.slot, i as u64);
            assert_eq!(res.state, w.into_bytes());
        }
        master
            .send(&[Frame::new(FrameKind::Shutdown, 0, vec![])])
            .unwrap();
        assert_eq!(handle.join().unwrap(), worker::exit::OK);
    }
}
