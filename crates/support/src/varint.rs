//! LEB128-style variable-length integers.
//!
//! Each byte carries 7 payload bits, with the high bit marking continuation.
//! This is the byte-level encoding of GBWT record bodies and seed dumps.

use crate::error::{Error, Result};

/// Maximum encoded length of a `u64` varint (ceil(64 / 7) bytes).
pub const MAX_VARINT_LEN: usize = 10;

/// Appends the varint encoding of `value` to `out` and returns the number of
/// bytes written.
///
/// ```
/// let mut buf = Vec::new();
/// let n = mg_support::varint::write_u64(&mut buf, 300);
/// assert_eq!(n, 2);
/// assert_eq!(buf, [0xAC, 0x02]);
/// ```
pub fn write_u64(out: &mut Vec<u8>, mut value: u64) -> usize {
    let start = out.len();
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
    out.len() - start
}

/// Decodes a varint from the front of `input`, returning the value and the
/// number of bytes consumed.
///
/// # Errors
///
/// Returns [`Error::UnexpectedEof`] if `input` ends mid-varint and
/// [`Error::VarintOverflow`] if the encoding exceeds 64 bits.
#[inline]
pub fn read_u64(input: &[u8]) -> Result<(u64, usize)> {
    // Most values in every format here (deltas, counts, small offsets) fit
    // seven bits: answer those without entering the loop.
    match input.first() {
        Some(&byte) if byte < 0x80 => Ok((u64::from(byte), 1)),
        _ => read_u64_multibyte(input),
    }
}

/// The general decode loop behind [`read_u64`].
fn read_u64_multibyte(input: &[u8]) -> Result<(u64, usize)> {
    let mut value = 0u64;
    let mut shift = 0u32;
    for (i, &byte) in input.iter().enumerate() {
        if i >= MAX_VARINT_LEN {
            return Err(Error::VarintOverflow);
        }
        let payload = (byte & 0x7F) as u64;
        if shift == 63 && payload > 1 {
            return Err(Error::VarintOverflow);
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    Err(Error::UnexpectedEof { context: "varint" })
}

/// A cursor for decoding a sequence of varints from a byte slice.
///
/// ```
/// # fn main() -> mg_support::Result<()> {
/// let mut buf = Vec::new();
/// mg_support::varint::write_u64(&mut buf, 7);
/// mg_support::varint::write_u64(&mut buf, 1_000_000);
/// let mut cur = mg_support::varint::Cursor::new(&buf);
/// assert_eq!(cur.read_u64()?, 7);
/// assert_eq!(cur.read_u64()?, 1_000_000);
/// assert!(cur.is_at_end());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Creates a cursor at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Returns `true` if all bytes have been consumed.
    pub fn is_at_end(&self) -> bool {
        self.pos >= self.data.len()
    }

    /// Number of bytes left to decode. Decoders use this to clamp
    /// pre-allocations driven by untrusted element counts: a count no
    /// remaining input could possibly encode is corruption, not a reason
    /// to reserve gigabytes.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Decodes the next unsigned varint.
    ///
    /// # Errors
    ///
    /// Same conditions as [`read_u64`].
    #[inline]
    pub fn read_u64(&mut self) -> Result<u64> {
        let (v, n) = read_u64(&self.data[self.pos..])?;
        self.pos += n;
        Ok(v)
    }

    /// Reads `len` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnexpectedEof`] if fewer than `len` bytes remain.
    pub fn read_bytes(&mut self, len: usize) -> Result<&'a [u8]> {
        if len > self.data.len() - self.pos {
            return Err(Error::UnexpectedEof { context: "bytes" });
        }
        let slice = &self.data[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_byte_values() {
        for v in 0..128u64 {
            let mut buf = Vec::new();
            assert_eq!(write_u64(&mut buf, v), 1);
            assert_eq!(read_u64(&buf).unwrap(), (v, 1));
        }
    }

    #[test]
    fn known_encodings() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 300);
        assert_eq!(buf, [0xAC, 0x02]);
        buf.clear();
        write_u64(&mut buf, u64::MAX);
        assert_eq!(buf.len(), MAX_VARINT_LEN);
        assert_eq!(read_u64(&buf).unwrap(), (u64::MAX, MAX_VARINT_LEN));
    }

    #[test]
    fn truncated_input_errors() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 1 << 40);
        let err = read_u64(&buf[..2]).unwrap_err();
        assert!(matches!(err, Error::UnexpectedEof { .. }));
    }

    #[test]
    fn overlong_encoding_errors() {
        // Eleven continuation bytes can never be a valid u64.
        let buf = [0x80u8; 11];
        assert!(matches!(read_u64(&buf), Err(Error::VarintOverflow)));
        // Ten bytes whose top payload overflows bit 63.
        let mut buf = [0x80u8; 10];
        buf[9] = 0x7F;
        assert!(matches!(read_u64(&buf), Err(Error::VarintOverflow)));
    }

    #[test]
    fn cursor_sequence() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 5);
        write_u64(&mut buf, 77);
        buf.extend_from_slice(b"ACGT");
        write_u64(&mut buf, 1 << 50);
        let mut cur = Cursor::new(&buf);
        assert_eq!(cur.read_u64().unwrap(), 5);
        assert_eq!(cur.read_u64().unwrap(), 77);
        assert_eq!(cur.read_bytes(4).unwrap(), b"ACGT");
        assert_eq!(cur.read_u64().unwrap(), 1 << 50);
        assert!(cur.is_at_end());
        assert!(cur.read_u64().is_err());
    }

    #[test]
    fn cursor_read_bytes_past_end_errors() {
        let mut cur = Cursor::new(b"abc");
        assert!(cur.read_bytes(4).is_err());
        // Position unchanged after a failed read.
        assert_eq!(cur.position(), 0);
        assert_eq!(cur.read_bytes(3).unwrap(), b"abc");
    }

    proptest! {
        #[test]
        fn prop_u64_roundtrip(v: u64) {
            let mut buf = Vec::new();
            let n = write_u64(&mut buf, v);
            prop_assert_eq!(buf.len(), n);
            prop_assert_eq!(read_u64(&buf).unwrap(), (v, n));
        }

        #[test]
        fn prop_sequence_roundtrip(values in proptest::collection::vec(any::<u64>(), 0..200)) {
            let mut buf = Vec::new();
            for &v in &values {
                write_u64(&mut buf, v);
            }
            let mut cur = Cursor::new(&buf);
            for &v in &values {
                prop_assert_eq!(cur.read_u64().unwrap(), v);
            }
            prop_assert!(cur.is_at_end());
        }

        #[test]
        fn prop_encoding_is_minimal_length(v: u64) {
            let mut buf = Vec::new();
            let n = write_u64(&mut buf, v);
            let expect = (mg_support_bit_len(v).max(1)).div_ceil(7) as usize;
            prop_assert_eq!(n, expect);
        }
    }

    fn mg_support_bit_len(v: u64) -> u32 {
        64 - v.leading_zeros()
    }
}
