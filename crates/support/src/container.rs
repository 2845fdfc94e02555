//! A tagged, checksummed binary container format.
//!
//! This is the on-disk skeleton shared by the `.mgz` pangenome files
//! (GBZ analog) and the seed-dump `.bin` files: a fixed header with magic
//! bytes and a format version, followed by sections. Each section carries a
//! 32-bit tag, a byte length, a payload, and an FNV-1a checksum of the
//! payload. Readers can skip unknown sections, which keeps the formats
//! forward-compatible.

use std::io::{Read, Write};

use crate::error::{Error, Result};

/// Magic bytes opening every miniGiraffe container.
pub const MAGIC: [u8; 4] = *b"MGZ\0";
/// Current container format version.
pub const FORMAT_VERSION: u32 = 1;

/// FNV-1a 64-bit hash, used as the section checksum.
///
/// ```
/// assert_eq!(mg_support::container::fnv1a(b""), 0xcbf29ce484222325);
/// ```
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for &b in data {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

fn write_u32(w: &mut impl Write, v: u32) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn write_u64_raw(w: &mut impl Write, v: u64) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn read_u32(r: &mut impl Read) -> Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)
        .map_err(|_| Error::UnexpectedEof { context: "u32" })?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64_raw(r: &mut impl Read) -> Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)
        .map_err(|_| Error::UnexpectedEof { context: "u64" })?;
    Ok(u64::from_le_bytes(buf))
}

/// Writes containers section by section.
///
/// ```
/// # fn main() -> mg_support::Result<()> {
/// use mg_support::container::{ContainerWriter, ContainerReader};
///
/// let mut bytes = Vec::new();
/// {
///     let mut w = ContainerWriter::new(&mut bytes, *b"TEST")?;
///     w.section(0x10, b"payload")?;
///     w.finish()?;
/// }
/// let mut r = ContainerReader::new(&bytes[..], *b"TEST")?;
/// let (tag, data) = r.next_section()?.expect("one section");
/// assert_eq!(tag, 0x10);
/// assert_eq!(data, b"payload");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ContainerWriter<W: Write> {
    inner: W,
    sections: u32,
    finished: bool,
}

impl<W: Write> ContainerWriter<W> {
    /// Starts a container, writing the header immediately.
    ///
    /// `kind` is a 4-byte type discriminator (e.g. `*b"GBWT"`), letting a
    /// reader reject a file of the wrong kind before parsing sections.
    ///
    /// # Errors
    ///
    /// Returns any underlying IO error.
    pub fn new(mut inner: W, kind: [u8; 4]) -> Result<Self> {
        inner.write_all(&MAGIC)?;
        inner.write_all(&kind)?;
        write_u32(&mut inner, FORMAT_VERSION)?;
        Ok(ContainerWriter {
            inner,
            sections: 0,
            finished: false,
        })
    }

    /// Appends one section.
    ///
    /// # Errors
    ///
    /// Returns any underlying IO error.
    pub fn section(&mut self, tag: u32, payload: &[u8]) -> Result<()> {
        assert!(!self.finished, "section after finish");
        write_u32(&mut self.inner, tag)?;
        write_u64_raw(&mut self.inner, payload.len() as u64)?;
        self.inner.write_all(payload)?;
        write_u64_raw(&mut self.inner, fnv1a(payload))?;
        self.sections += 1;
        Ok(())
    }

    /// Writes the end-of-container marker and flushes.
    ///
    /// # Errors
    ///
    /// Returns any underlying IO error.
    pub fn finish(mut self) -> Result<W> {
        write_u32(&mut self.inner, END_TAG)?;
        write_u64_raw(&mut self.inner, self.sections as u64)?;
        self.inner.flush()?;
        self.finished = true;
        Ok(self.inner)
    }
}

/// Sentinel tag closing a container.
const END_TAG: u32 = 0xFFFF_FFFF;

/// The payload of `section` if it carries `tag`.
fn expect_tag<T>(section: Option<(u32, T)>, tag: u32) -> Result<T> {
    match section {
        Some((found, payload)) if found == tag => Ok(payload),
        Some((found, _)) => Err(Error::BadTag {
            found,
            expected: Some(tag),
        }),
        None => Err(Error::UnexpectedEof { context: "expected section" }),
    }
}

/// Reads containers section by section, verifying checksums.
#[derive(Debug)]
pub struct ContainerReader<R: Read> {
    inner: R,
    sections_read: u32,
    done: bool,
}

impl<R: Read> ContainerReader<R> {
    /// Opens a container, validating magic, kind, and version.
    ///
    /// # Errors
    ///
    /// [`Error::BadMagic`] if the magic or kind bytes mismatch,
    /// [`Error::UnsupportedVersion`] for an unknown format version, plus IO
    /// errors.
    pub fn new(mut inner: R, kind: [u8; 4]) -> Result<Self> {
        let mut magic = [0u8; 4];
        inner
            .read_exact(&mut magic)
            .map_err(|_| Error::UnexpectedEof { context: "magic" })?;
        if magic != MAGIC {
            return Err(Error::BadMagic);
        }
        let mut got_kind = [0u8; 4];
        inner
            .read_exact(&mut got_kind)
            .map_err(|_| Error::UnexpectedEof { context: "kind" })?;
        if got_kind != kind {
            return Err(Error::BadMagic);
        }
        let version = read_u32(&mut inner)?;
        if version != FORMAT_VERSION {
            return Err(Error::UnsupportedVersion(version));
        }
        Ok(ContainerReader {
            inner,
            sections_read: 0,
            done: false,
        })
    }

    /// Reads the next section header: `(tag, payload length)`, or `None`
    /// at the end-of-container marker (whose section count is checked).
    fn next_header(&mut self) -> Result<Option<(u32, usize)>> {
        if self.done {
            return Ok(None);
        }
        let tag = read_u32(&mut self.inner)?;
        if tag == END_TAG {
            let count = read_u64_raw(&mut self.inner)?;
            if count != self.sections_read as u64 {
                return Err(Error::Corrupt(format!(
                    "trailer says {count} sections, read {}",
                    self.sections_read
                )));
            }
            self.done = true;
            return Ok(None);
        }
        let len = read_u64_raw(&mut self.inner)?;
        let len = usize::try_from(len)
            .map_err(|_| Error::Corrupt(format!("section length {len} overflows usize")))?;
        Ok(Some((tag, len)))
    }

    /// Reads the stored checksum that follows a payload and compares it.
    fn verify(&mut self, payload: &[u8]) -> Result<()> {
        let stored = read_u64_raw(&mut self.inner)?;
        let computed = fnv1a(payload);
        if stored != computed {
            return Err(Error::ChecksumMismatch { stored, computed });
        }
        self.sections_read += 1;
        Ok(())
    }

    /// Reads the next section, or `None` at the end-of-container marker.
    ///
    /// # Errors
    ///
    /// [`Error::ChecksumMismatch`] if a payload is corrupt,
    /// [`Error::Corrupt`] if the trailer section count disagrees, plus
    /// EOF/IO errors.
    pub fn next_section(&mut self) -> Result<Option<(u32, Vec<u8>)>> {
        let Some((tag, len)) = self.next_header()? else {
            return Ok(None);
        };
        // The length is untrusted: read through `take` and let the buffer
        // grow with the bytes that actually arrive, so a hostile length
        // fails with UnexpectedEof instead of aborting on a huge upfront
        // allocation. Genuine payloads still land in one buffer.
        let mut payload = Vec::with_capacity(len.min(1 << 20));
        let got = (&mut self.inner)
            .take(len as u64)
            .read_to_end(&mut payload)?;
        if got < len {
            return Err(Error::UnexpectedEof { context: "section payload" });
        }
        self.verify(&payload)?;
        Ok(Some((tag, payload)))
    }

    /// Reads the next section and checks it has the expected tag.
    ///
    /// # Errors
    ///
    /// [`Error::BadTag`] on a tag mismatch or a premature end marker, plus
    /// the conditions of [`ContainerReader::next_section`].
    pub fn expect_section(&mut self, tag: u32) -> Result<Vec<u8>> {
        expect_tag(self.next_section()?, tag)
    }

    /// Consumes the end-of-container marker and verifies nothing follows:
    /// an extra section, a truncated trailer, or trailing garbage all
    /// surface as errors. Readers that know their full section list call
    /// this last so a damaged tail cannot pass silently.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] on trailing sections or bytes, plus the
    /// conditions of [`ContainerReader::next_section`].
    pub fn expect_end(mut self) -> Result<()> {
        match self.next_section()? {
            Some((tag, _)) => Err(Error::Corrupt(format!(
                "unexpected trailing section {tag:#06x}"
            ))),
            None => {
                let mut probe = [0u8; 1];
                match self.inner.read(&mut probe) {
                    Ok(0) => Ok(()),
                    Ok(_) => Err(Error::Corrupt("trailing garbage after end marker".into())),
                    Err(e) => Err(e.into()),
                }
            }
        }
    }

}

impl<'a> ContainerReader<&'a [u8]> {
    /// [`ContainerReader::next_section`] over an in-memory image, lending
    /// the payload out of the image instead of copying it. The image's own
    /// length bounds the untrusted section length.
    fn next_section_borrowed(&mut self) -> Result<Option<(u32, &'a [u8])>> {
        let Some((tag, len)) = self.next_header()? else {
            return Ok(None);
        };
        if len > self.inner.len() {
            return Err(Error::UnexpectedEof { context: "section payload" });
        }
        let (payload, rest) = self.inner.split_at(len);
        self.inner = rest;
        self.verify(payload)?;
        Ok(Some((tag, payload)))
    }

    /// [`ContainerReader::expect_section`] over an in-memory image,
    /// lending the payload out of the image instead of copying it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ContainerReader::expect_section`].
    pub fn expect_section_borrowed(&mut self, tag: u32) -> Result<&'a [u8]> {
        expect_tag(self.next_section_borrowed()?, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(sections: &[(u32, Vec<u8>)]) -> Vec<(u32, Vec<u8>)> {
        let mut bytes = Vec::new();
        let mut w = ContainerWriter::new(&mut bytes, *b"TEST").unwrap();
        for (tag, payload) in sections {
            w.section(*tag, payload).unwrap();
        }
        w.finish().unwrap();
        let mut r = ContainerReader::new(&bytes[..], *b"TEST").unwrap();
        let mut out = Vec::new();
        while let Some(section) = r.next_section().unwrap() {
            out.push(section);
        }
        out
    }

    #[test]
    fn empty_container() {
        assert!(roundtrip(&[]).is_empty());
    }

    #[test]
    fn several_sections() {
        let sections = vec![
            (1, b"hello".to_vec()),
            (2, Vec::new()),
            (1, vec![0u8; 10_000]),
        ];
        assert_eq!(roundtrip(&sections), sections);
    }

    #[test]
    fn wrong_kind_rejected() {
        let mut bytes = Vec::new();
        let w = ContainerWriter::new(&mut bytes, *b"AAAA").unwrap();
        w.finish().unwrap();
        assert!(matches!(
            ContainerReader::new(&bytes[..], *b"BBBB"),
            Err(Error::BadMagic)
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let bytes = b"NOPExxxx\x01\x00\x00\x00".to_vec();
        assert!(matches!(
            ContainerReader::new(&bytes[..], *b"xxxx"),
            Err(Error::BadMagic)
        ));
    }

    #[test]
    fn unsupported_version_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(b"TEST");
        bytes.extend_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            ContainerReader::new(&bytes[..], *b"TEST"),
            Err(Error::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn corrupt_payload_detected() {
        let mut bytes = Vec::new();
        let mut w = ContainerWriter::new(&mut bytes, *b"TEST").unwrap();
        w.section(7, b"payload-data").unwrap();
        w.finish().unwrap();
        // Flip a byte inside the payload (header is 12 bytes, section header 12).
        bytes[12 + 12 + 3] ^= 0xFF;
        let mut r = ContainerReader::new(&bytes[..], *b"TEST").unwrap();
        assert!(matches!(
            r.next_section(),
            Err(Error::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncated_container_errors() {
        let mut bytes = Vec::new();
        let mut w = ContainerWriter::new(&mut bytes, *b"TEST").unwrap();
        w.section(7, b"hello world").unwrap();
        w.finish().unwrap();
        let truncated = &bytes[..bytes.len() - 6];
        let mut r = ContainerReader::new(truncated, *b"TEST").unwrap();
        // First section is intact.
        assert!(r.next_section().unwrap().is_some());
        // Trailer is gone.
        assert!(r.next_section().is_err());
    }

    #[test]
    fn expect_section_enforces_tag() {
        let mut bytes = Vec::new();
        let mut w = ContainerWriter::new(&mut bytes, *b"TEST").unwrap();
        w.section(1, b"a").unwrap();
        w.finish().unwrap();
        let mut r = ContainerReader::new(&bytes[..], *b"TEST").unwrap();
        assert!(matches!(
            r.expect_section(2),
            Err(Error::BadTag {
                found: 1,
                expected: Some(2)
            })
        ));
    }

    #[test]
    fn fnv_reference_values() {
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(sections in proptest::collection::vec(
            (any::<u32>().prop_filter("not end tag", |t| *t != END_TAG),
             proptest::collection::vec(any::<u8>(), 0..300)),
            0..20,
        )) {
            prop_assert_eq!(roundtrip(&sections), sections);
        }
    }
}
