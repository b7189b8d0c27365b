//! Manual little-endian binary codec.
//!
//! The workspace's zero-dependency rule forbids serde, so every type that
//! participates in recovery writes itself through [`Enc`] and reads itself
//! back through [`Dec`]. The format is deliberately boring: fixed-width
//! little-endian integers, `u32`-length-prefixed byte strings, one tag byte
//! per enum variant. Floats travel as raw IEEE-754 bits so a value round
//! trips bit-identically (the crash oracle compares views for *bit*
//! identity, not approximate equality).

use std::fmt;

/// Decoding failure: either the buffer ended mid-value or a tag/length was
/// out of the format's vocabulary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ran out before the value was complete.
    Eof,
    /// Structurally well-formed bytes that decode to an impossible value
    /// (unknown enum tag, invalid UTF-8, a schema that fails validation...).
    Invalid(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Eof => write!(f, "unexpected end of record"),
            WireError::Invalid(why) => write!(f, "invalid record contents: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only encoder over a byte buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// A fresh, empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty encoder that writes into `buf`'s allocation (its old
    /// content is discarded) — hot paths hand one buffer back and forth
    /// with [`Enc::finish`] instead of allocating per record.
    pub fn reusing(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Self { buf }
    }

    /// Consume the encoder, yielding the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write a single byte (used for enum tags and bools).
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `i64`, little-endian two's complement.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Write an `f64` as its raw IEEE-754 bit pattern (exact round trip).
    pub fn f64_bits(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Write a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Write `v` verbatim, with no length prefix (already-encoded bytes).
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Cursor-style decoder over a byte slice; the mirror of [`Enc`].
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Decode from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed — decoders should end here.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Eof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a bool; any byte other than 0/1 is invalid.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::Invalid(format!("bool byte {b}"))),
        }
    }

    /// Read an `f64` from its raw bit pattern.
    pub fn f64_bits(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec()).map_err(|e| WireError::Invalid(format!("utf8: {e}")))
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        self.take(len)
    }
}

/// Encode a sequence with a `u32` count prefix.
pub fn enc_seq<T>(e: &mut Enc, items: &[T], mut f: impl FnMut(&mut Enc, &T)) {
    e.u32(items.len() as u32);
    for item in items {
        f(e, item);
    }
}

/// Decode a sequence written by [`enc_seq`]. The count is sanity-capped
/// against the remaining buffer so a corrupt length can't trigger a huge
/// allocation before the `Eof` would surface naturally.
pub fn dec_seq<T>(
    d: &mut Dec<'_>,
    mut f: impl FnMut(&mut Dec<'_>) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let n = d.u32()? as usize;
    if n > d.remaining() {
        return Err(WireError::Eof);
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(f(d)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        let mut e = Enc::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 1);
        e.i64(-42);
        e.bool(true);
        e.bool(false);
        e.f64_bits(-0.0);
        e.f64_bits(f64::NAN);
        e.str("hello — unicode ✓");
        e.bytes(&[0, 255, 1]);
        let buf = e.finish();

        let mut d = Dec::new(&buf);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.i64().unwrap(), -42);
        assert!(d.bool().unwrap());
        assert!(!d.bool().unwrap());
        assert_eq!(d.f64_bits().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(d.f64_bits().unwrap().is_nan());
        assert_eq!(d.str().unwrap(), "hello — unicode ✓");
        assert_eq!(d.bytes().unwrap(), &[0, 255, 1]);
        assert!(d.is_done());
    }

    #[test]
    fn truncation_yields_eof_not_panic() {
        let mut e = Enc::new();
        e.str("payload");
        e.u64(9);
        let buf = e.finish();
        for cut in 0..buf.len() {
            let mut d = Dec::new(&buf[..cut]);
            // Whichever read hits the cut must return Eof, never panic.
            let r = d.str().and_then(|_| d.u64().map(|_| ()));
            assert!(r.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn bad_bool_and_bad_utf8_are_invalid() {
        let mut d = Dec::new(&[9]);
        assert!(matches!(d.bool(), Err(WireError::Invalid(_))));
        let mut e = Enc::new();
        e.bytes(&[0xFF, 0xFE]);
        let buf = e.finish();
        let mut d = Dec::new(&buf);
        assert!(matches!(d.str(), Err(WireError::Invalid(_))));
    }

    #[test]
    fn seq_round_trip_and_hostile_count() {
        let mut e = Enc::new();
        enc_seq(&mut e, &[1u64, 2, 3], |e, v| e.u64(*v));
        let buf = e.finish();
        let mut d = Dec::new(&buf);
        assert_eq!(dec_seq(&mut d, |d| d.u64()).unwrap(), vec![1, 2, 3]);

        // A corrupt huge count must fail fast instead of allocating.
        let mut e = Enc::new();
        e.u32(u32::MAX);
        let buf = e.finish();
        let mut d = Dec::new(&buf);
        assert_eq!(dec_seq(&mut d, |d| d.u64()), Err(WireError::Eof));
    }
}
