//! In-process [`Transport`]: frames travel as *encoded bytes* over a
//! `crossbeam` channel pair and are re-parsed by [`FrameBuffer`] on the
//! receiving side.
//!
//! Running the codec even when both endpoints share an address space is
//! deliberate: the in-process transport exercises exactly the byte format
//! the socket transport ships, so `NSX_TRANSPORT=inproc` and
//! `NSX_TRANSPORT=process` differ only in the OS plumbing — which is the
//! point of the determinism comparison in `dist_scaleup`.

use super::{Frame, FrameBuffer, Transport, TransportError};
use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::time::Duration;

/// One endpoint of an in-process byte-stream link.
pub struct ChannelTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    buf: FrameBuffer,
}

/// Create a connected pair of in-process transports. Frames sent on one
/// endpoint arrive on the other, in order, after a full encode/decode round
/// trip through the wire format.
pub fn channel_pair() -> (ChannelTransport, ChannelTransport) {
    let (a_tx, b_rx) = unbounded();
    let (b_tx, a_rx) = unbounded();
    (
        ChannelTransport {
            tx: a_tx,
            rx: a_rx,
            buf: FrameBuffer::new(),
        },
        ChannelTransport {
            tx: b_tx,
            rx: b_rx,
            buf: FrameBuffer::new(),
        },
    )
}

impl Transport for ChannelTransport {
    fn send(&mut self, frames: &[Frame]) -> Result<(), TransportError> {
        let mut bytes = Vec::with_capacity(frames.iter().map(Frame::encoded_len).sum());
        for frame in frames {
            frame.encode_into(&mut bytes);
        }
        self.tx.send(bytes).map_err(|_| TransportError::Closed)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Frame>, TransportError> {
        // A frame may already be buffered from a previous chunk.
        if let Some(frame) = self.buf.try_frame()? {
            return Ok(Some(frame));
        }
        if timeout.is_zero() {
            // Nonblocking poll: drain whatever is queued, no waiting.
            loop {
                match self.rx.try_recv() {
                    Ok(bytes) => {
                        self.buf.extend(&bytes);
                        if let Some(frame) = self.buf.try_frame()? {
                            return Ok(Some(frame));
                        }
                    }
                    Err(TryRecvError::Empty) => return Ok(None),
                    Err(TryRecvError::Disconnected) => return Err(TransportError::Closed),
                }
            }
        }
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            match self.rx.recv_timeout(left) {
                Ok(bytes) => {
                    self.buf.extend(&bytes);
                    if let Some(frame) = self.buf.try_frame()? {
                        return Ok(Some(frame));
                    }
                    // Partial frame: keep waiting for the rest of the bytes
                    // within the same deadline.
                }
                Err(RecvTimeoutError::Timeout) => return Ok(None),
                // Any complete frame was already returned after the last
                // extend; leftover buffered bytes are a truncated tail from a
                // peer that died mid-write.
                Err(RecvTimeoutError::Disconnected) => return Err(TransportError::Closed),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::FrameKind;

    #[test]
    fn frames_round_trip_in_order() {
        let (mut a, mut b) = channel_pair();
        for seq in 0..5u64 {
            a.send(&[Frame::new(FrameKind::Job, seq, vec![seq as u8; 3])])
                .unwrap();
        }
        for seq in 0..5u64 {
            let f = b.recv_timeout(Duration::from_millis(100)).unwrap().unwrap();
            assert_eq!(f.seq, seq);
            assert_eq!(f.payload, vec![seq as u8; 3]);
        }
        assert_eq!(b.recv_timeout(Duration::from_millis(1)).unwrap(), None);
    }

    #[test]
    fn both_directions_work() {
        let (mut a, mut b) = channel_pair();
        a.send(&[Frame::new(FrameKind::Job, 1, vec![1])]).unwrap();
        b.send(&[Frame::new(FrameKind::Result, 2, vec![2])])
            .unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_millis(100))
                .unwrap()
                .unwrap()
                .seq,
            1
        );
        assert_eq!(
            a.recv_timeout(Duration::from_millis(100))
                .unwrap()
                .unwrap()
                .seq,
            2
        );
    }

    #[test]
    fn dropped_peer_reports_closed() {
        let (mut a, b) = channel_pair();
        drop(b);
        assert_eq!(
            a.recv_timeout(Duration::from_millis(1)),
            Err(TransportError::Closed)
        );
        assert_eq!(
            a.send(&[Frame::new(FrameKind::Shutdown, 0, vec![])]),
            Err(TransportError::Closed)
        );
    }
}
