//! [`Transport`] over a connected Unix-domain socket — the real wire between
//! the master and a worker *process*.
//!
//! The socket is a byte stream with no message boundaries, so the receive
//! side reassembles frames with [`FrameBuffer`] across arbitrarily split
//! reads. Worker death shows up here as EOF (`read` returning 0) or a broken
//! pipe on write, both surfaced as [`TransportError::Closed`] — the
//! process-level analogue of the channel-disconnect signal the threaded pool
//! uses for death detection.

use super::{Frame, FrameBuffer, Transport, TransportError};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// The floor for `set_read_timeout`: zero means "block forever" to the OS,
/// which is the opposite of what a zero remaining deadline wants.
const MIN_READ_TIMEOUT: Duration = Duration::from_millis(1);

/// One endpoint of a Unix-domain socket link.
pub struct SocketTransport {
    stream: UnixStream,
    buf: FrameBuffer,
    /// Scratch for `read` calls.
    chunk: [u8; 64 * 1024],
    /// Reused encode buffer: one `send` is one `write_all` of it.
    wbuf: Vec<u8>,
}

impl SocketTransport {
    /// Wrap a connected stream. The stream is switched to blocking mode with
    /// per-call read timeouts managed by [`recv_timeout`](Transport::recv_timeout).
    pub fn new(stream: UnixStream) -> std::io::Result<Self> {
        stream.set_nonblocking(false)?;
        Ok(SocketTransport {
            stream,
            buf: FrameBuffer::new(),
            chunk: [0u8; 64 * 1024],
            wbuf: Vec::new(),
        })
    }

    /// Connect to a listening socket at `path`.
    pub fn connect(path: &std::path::Path) -> std::io::Result<Self> {
        SocketTransport::new(UnixStream::connect(path)?)
    }

    fn map_io(e: std::io::Error) -> TransportError {
        match e.kind() {
            std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::UnexpectedEof => TransportError::Closed,
            kind => TransportError::Io(kind),
        }
    }

    /// Drain everything the kernel has buffered without blocking, then try
    /// to assemble a frame. This is the fast path for pools multiplexing
    /// many links: polling a quiet link costs one `read` returning
    /// `WouldBlock`, not a timed wait.
    fn recv_nonblocking(&mut self) -> Result<Option<Frame>, TransportError> {
        self.stream.set_nonblocking(true).map_err(Self::map_io)?;
        let mut status = Ok(());
        loop {
            match self.stream.read(&mut self.chunk) {
                Ok(0) => {
                    status = Err(TransportError::Closed);
                    break;
                }
                Ok(n) => self.buf.extend(&self.chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    status = Err(Self::map_io(e));
                    break;
                }
            }
        }
        let _ = self.stream.set_nonblocking(false);
        match self.buf.try_frame()? {
            // Deliver a buffered frame even when the peer also closed; the
            // next call reports the hangup.
            Some(frame) => Ok(Some(frame)),
            None => status.map(|()| None),
        }
    }
}

impl Transport for SocketTransport {
    fn send(&mut self, frames: &[Frame]) -> Result<(), TransportError> {
        self.wbuf.clear();
        for frame in frames {
            frame.encode_into(&mut self.wbuf);
        }
        self.stream.write_all(&self.wbuf).map_err(Self::map_io)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Frame>, TransportError> {
        if let Some(frame) = self.buf.try_frame()? {
            return Ok(Some(frame));
        }
        if timeout.is_zero() {
            return self.recv_nonblocking();
        }
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline
                .saturating_duration_since(Instant::now())
                .max(MIN_READ_TIMEOUT);
            self.stream
                .set_read_timeout(Some(left))
                .map_err(Self::map_io)?;
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err(TransportError::Closed),
                Ok(n) => {
                    self.buf.extend(&self.chunk[..n]);
                    if let Some(frame) = self.buf.try_frame()? {
                        return Ok(Some(frame));
                    }
                    // Partial frame; keep reading within the deadline.
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if Instant::now() >= deadline {
                        return Ok(None);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(Self::map_io(e)),
            }
            if Instant::now() >= deadline && self.buf.try_frame()?.is_none() {
                return Ok(None);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::FrameKind;

    fn socket_pair() -> (SocketTransport, SocketTransport) {
        let (a, b) = UnixStream::pair().unwrap();
        (
            SocketTransport::new(a).unwrap(),
            SocketTransport::new(b).unwrap(),
        )
    }

    #[test]
    fn frames_cross_the_socket() {
        let (mut a, mut b) = socket_pair();
        a.send(&[Frame::new(FrameKind::Job, 7, vec![1, 2, 3])])
            .unwrap();
        let f = b.recv_timeout(Duration::from_secs(1)).unwrap().unwrap();
        assert_eq!(f.seq, 7);
        assert_eq!(f.payload, vec![1, 2, 3]);
        assert_eq!(b.recv_timeout(Duration::from_millis(5)).unwrap(), None);
    }

    #[test]
    fn split_writes_reassemble() {
        let (a, mut b) = socket_pair();
        let frame = Frame::new(FrameKind::Result, 9, vec![0xAB; 100]);
        let bytes = frame.encode();
        let mut raw = a.stream.try_clone().unwrap();
        let t = std::thread::spawn(move || {
            for chunk in bytes.chunks(7) {
                raw.write_all(chunk).unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let got = b.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
        t.join().unwrap();
        assert_eq!(got, frame);
    }

    #[test]
    fn peer_hangup_is_closed() {
        let (a, mut b) = socket_pair();
        drop(a);
        assert_eq!(
            b.recv_timeout(Duration::from_millis(10)),
            Err(TransportError::Closed)
        );
    }

    #[test]
    fn zero_timeout_is_a_nonblocking_poll() {
        let (mut a, mut b) = socket_pair();
        let t0 = Instant::now();
        assert_eq!(b.recv_timeout(Duration::ZERO).unwrap(), None);
        assert!(t0.elapsed() < Duration::from_millis(20));
        a.send(&[Frame::new(FrameKind::Job, 1, vec![9])]).unwrap();
        // Unix-socket writes land synchronously, but give slow CI a beat.
        std::thread::sleep(Duration::from_millis(2));
        let f = b.recv_timeout(Duration::ZERO).unwrap().unwrap();
        assert_eq!(f.seq, 1);
    }

    #[test]
    fn corrupt_bytes_are_typed() {
        let (a, mut b) = socket_pair();
        let mut raw = a.stream.try_clone().unwrap();
        raw.write_all(&[0xFF; 64]).unwrap();
        assert!(matches!(
            b.recv_timeout(Duration::from_millis(50)),
            Err(TransportError::Corrupt(_))
        ));
    }
}
