//! A tiny hand-rolled binary codec for checkpoint state.
//!
//! The build environment is offline (no serde), so durable run state is
//! serialized with an explicit little-endian writer/reader pair. The format
//! is deliberately primitive: fixed-width integers, `f64` as raw IEEE-754
//! bits (so restored values are *bit-identical*, including `-0.0` and
//! payload NaNs), and length-prefixed nested blocks. Integrity and
//! versioning are handled one layer up (`noisy-simplex::checkpoint` frames
//! payloads with a magic, a version, and a CRC-32); this module only
//! guarantees that a well-formed byte string round-trips exactly and a
//! malformed one yields a typed [`CodecError`] instead of a panic.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fmt;

/// A decoding (or unsupported-operation) failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The reader ran out of bytes mid-field.
    Eof {
        /// Bytes the field needed.
        needed: usize,
        /// Bytes remaining in the buffer.
        have: usize,
    },
    /// A tag byte did not name a known variant.
    Tag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A decoded value failed a structural sanity check.
    Invalid {
        /// What was being decoded.
        what: &'static str,
    },
    /// Bytes remained after a decode that should have consumed everything.
    Trailing {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
    /// The stream type does not implement state persistence.
    Unsupported {
        /// The type (or operation) lacking support.
        what: &'static str,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Eof { needed, have } => {
                write!(
                    f,
                    "unexpected end of payload: needed {needed} bytes, have {have}"
                )
            }
            CodecError::Tag { what, tag } => write!(f, "unknown tag {tag} while decoding {what}"),
            CodecError::Invalid { what } => write!(f, "invalid encoded value for {what}"),
            CodecError::Trailing { remaining } => {
                write!(f, "{remaining} trailing bytes after decode")
            }
            CodecError::Unsupported { what } => {
                write!(f, "state persistence is not supported by {what}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Little-endian binary writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its raw IEEE-754 bits (exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append an `Option<f64>` (presence byte + bits).
    pub fn put_opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.put_u8(1);
                self.put_f64(x);
            }
            None => self.put_u8(0),
        }
    }

    /// Append an `Option<u64>` (presence byte + value).
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.put_u8(1);
                self.put_u64(x);
            }
            None => self.put_u8(0),
        }
    }

    /// Append a length-prefixed `f64` slice.
    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_f64(v);
        }
    }

    /// Append a length-prefixed byte block.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }
}

/// Little-endian binary reader over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Eof {
                needed: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn take_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `bool` (rejecting bytes other than 0/1).
    pub fn take_bool(&mut self) -> Result<bool, CodecError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::Tag { what: "bool", tag }),
        }
    }

    /// Read a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    /// Read a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Read a little-endian `i64`.
    pub fn take_i64(&mut self) -> Result<i64, CodecError> {
        Ok(self.take_u64()? as i64)
    }

    /// Read an `f64` from raw bits.
    pub fn take_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Read an `Option<f64>`.
    pub fn take_opt_f64(&mut self) -> Result<Option<f64>, CodecError> {
        match self.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.take_f64()?)),
            tag => Err(CodecError::Tag {
                what: "Option<f64>",
                tag,
            }),
        }
    }

    /// Read an `Option<u64>`.
    pub fn take_opt_u64(&mut self) -> Result<Option<u64>, CodecError> {
        match self.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.take_u64()?)),
            tag => Err(CodecError::Tag {
                what: "Option<u64>",
                tag,
            }),
        }
    }

    /// Read a length-prefixed `f64` vector. The declared length is bounded
    /// by the remaining bytes, so a corrupt length cannot trigger a huge
    /// allocation.
    pub fn take_f64_vec(&mut self) -> Result<Vec<f64>, CodecError> {
        let n = self.take_u64()? as usize;
        if n.checked_mul(8)
            .is_none_or(|bytes| bytes > self.remaining())
        {
            return Err(CodecError::Eof {
                needed: n.saturating_mul(8),
                have: self.remaining(),
            });
        }
        let mut vs = Vec::with_capacity(n);
        for _ in 0..n {
            vs.push(self.take_f64()?);
        }
        Ok(vs)
    }

    /// Read a length-prefixed byte block.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.take_u64()? as usize;
        self.take(n)
    }

    /// Assert that every byte was consumed.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::Trailing {
                remaining: self.remaining(),
            });
        }
        Ok(())
    }
}

/// The reflected CRC-32 (IEEE 802.3) polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables: `t[0]` is the classic byte-at-a-time table,
/// and `t[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so eight
/// input bytes fold into the register with eight independent lookups.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                (c >> 1) ^ CRC32_POLY
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) of `data`.
///
/// Slicing-by-8: every wire frame is checksummed twice (encode and verify),
/// so the sum sits on the process transport's hot path.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_every_primitive() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_i64(-42);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_opt_f64(None);
        w.put_opt_f64(Some(2.5));
        w.put_opt_u64(Some(9));
        w.put_f64_slice(&[1.0, f64::INFINITY]);
        w.put_bytes(b"abc");
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 7);
        assert!(r.take_bool().unwrap());
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.take_i64().unwrap(), -42);
        assert_eq!(r.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.take_f64().unwrap().is_nan());
        assert_eq!(r.take_opt_f64().unwrap(), None);
        assert_eq!(r.take_opt_f64().unwrap(), Some(2.5));
        assert_eq!(r.take_opt_u64().unwrap(), Some(9));
        let vs = r.take_f64_vec().unwrap();
        assert_eq!(vs[0], 1.0);
        assert!(vs[1].is_infinite());
        assert_eq!(r.take_bytes().unwrap(), b"abc");
        r.finish().unwrap();
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let mut w = Writer::new();
        w.put_u64(5);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..4]);
        assert!(matches!(r.take_u64(), Err(CodecError::Eof { .. })));
    }

    #[test]
    fn corrupt_length_prefix_cannot_overallocate() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX); // absurd element count
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.take_f64_vec(), Err(CodecError::Eof { .. })));
    }

    #[test]
    fn bad_tags_are_rejected() {
        let bytes = [3u8];
        assert!(matches!(
            Reader::new(&bytes).take_bool(),
            Err(CodecError::Tag { .. })
        ));
        assert!(matches!(
            Reader::new(&bytes).take_opt_f64(),
            Err(CodecError::Tag { .. })
        ));
    }

    #[test]
    fn trailing_bytes_detected() {
        let r = Reader::new(&[0u8; 3]);
        assert_eq!(r.finish(), Err(CodecError::Trailing { remaining: 3 }));
    }

    /// Reference CRC-32, one bit at a time: the oracle the table-driven
    /// version must match bit for bit.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC32_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_table_matches_bitwise_oracle() {
        // Every length 0..=1100, from every start offset 0..8 so the
        // eight-byte chunking meets every alignment and remainder.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..1108)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        for off in 0..8 {
            for len in 0..=1100 {
                let s = &data[off..off + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "offset {off} length {len}");
            }
        }
        let ones = [0xFFu8; 64];
        assert_eq!(crc32(&ones), crc32_bitwise(&ones));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the ASCII digits "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Sensitivity: one flipped bit changes the sum.
        assert_ne!(crc32(b"hello"), crc32(b"hellp"));
    }
}
