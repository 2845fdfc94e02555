//! The serving wire protocol: length-prefixed frames.
//!
//! Every message is one frame: a 1-byte kind tag, a little-endian `u32`
//! payload length, then the payload. The framing is deliberately dumb —
//! no compression, no negotiation — because the interesting state (the
//! index, the arenas, the warm caches) lives on the server, and the protocol
//! only has to move FASTQ bytes in and GAF bytes out.
//!
//! Decoding is push-based: [`FrameDecoder`] accumulates whatever byte
//! slices the transport produces and yields complete frames. Anything that
//! cannot be a valid frame — an unknown kind tag, a length above
//! [`MAX_FRAME`], a payload that does not parse — is a typed
//! [`ProtoError`], never a panic: a server sharing a port with the open
//! internet treats every inbound byte as hostile.

use std::fmt;
use std::io::{self, Write};

/// Largest accepted payload, in bytes (64 MiB). A length field above this
/// is rejected as soon as the header is readable, before any buffering.
pub const MAX_FRAME: u32 = 64 << 20;

/// Bytes of frame header: kind tag + little-endian payload length.
pub const HEADER_LEN: usize = 5;

/// What one served job reports in its `DONE` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSummary {
    /// Reads mapped by the job.
    pub reads: u64,
    /// Chunks the executor dispatched for the job.
    pub chunks: u64,
    /// GAF bytes streamed for the job.
    pub gaf_bytes: u64,
    /// Microseconds between admission and the first chunk dispatch.
    pub queue_wait_us: u64,
    /// Microseconds between admission and `DONE`.
    pub latency_us: u64,
}

/// One protocol message. Client→server kinds are `Ping`, `Submit`,
/// `Stats`, and `Shutdown`; the rest are server→client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Liveness probe.
    Ping,
    /// Submit one mapping job: a read-set name plus FASTQ bytes.
    Submit {
        /// Names the job; becomes the GAF read-name prefix.
        name: String,
        /// The raw FASTQ payload.
        fastq: Vec<u8>,
    },
    /// Request the server's statistics snapshot.
    Stats,
    /// Ask the server to drain: finish accepted jobs, reject new ones,
    /// then exit.
    Shutdown,
    /// Reply to `Ping`.
    Pong,
    /// The job was admitted under this server-assigned id.
    Accept {
        /// Server-assigned job id.
        job: u64,
    },
    /// The job was refused; the payload says why.
    Busy {
        /// Human-readable rejection reason.
        reason: String,
    },
    /// One chunk of a job's GAF output.
    Gaf {
        /// The job this chunk belongs to.
        job: u64,
        /// GAF lines (UTF-8, newline-terminated).
        data: Vec<u8>,
    },
    /// The job finished; every `Gaf` frame for it has been sent.
    Done {
        /// The finished job.
        job: u64,
        /// Aggregate figures for the job.
        summary: JobSummary,
    },
    /// The job failed; no further frames for it will follow.
    Error {
        /// The failed job.
        job: u64,
        /// Human-readable failure description.
        message: String,
    },
    /// Reply to `Stats`: a JSON document.
    StatsReply {
        /// The statistics snapshot, as JSON.
        json: String,
    },
}

const KIND_PING: u8 = 0x01;
const KIND_SUBMIT: u8 = 0x02;
const KIND_STATS: u8 = 0x03;
const KIND_SHUTDOWN: u8 = 0x04;
const KIND_PONG: u8 = 0x81;
const KIND_ACCEPT: u8 = 0x82;
const KIND_BUSY: u8 = 0x83;
const KIND_GAF: u8 = 0x84;
const KIND_DONE: u8 = 0x85;
const KIND_ERROR: u8 = 0x86;
const KIND_STATS_REPLY: u8 = 0x87;

/// Why a byte sequence was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The buffer ends mid-frame (only from the strict one-shot
    /// [`decode_frame`]; the push decoder just waits for more bytes).
    Truncated,
    /// The header announces a payload above [`MAX_FRAME`].
    Oversized {
        /// The announced payload length.
        len: u32,
    },
    /// The kind tag is not part of the protocol.
    UnknownKind(u8),
    /// The payload of a known kind does not parse.
    Malformed(&'static str),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "frame truncated"),
            ProtoError::Oversized { len } => {
                write!(f, "frame payload of {len} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            ProtoError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            ProtoError::Malformed(what) => write!(f, "malformed frame payload: {what}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Ping => KIND_PING,
            Frame::Submit { .. } => KIND_SUBMIT,
            Frame::Stats => KIND_STATS,
            Frame::Shutdown => KIND_SHUTDOWN,
            Frame::Pong => KIND_PONG,
            Frame::Accept { .. } => KIND_ACCEPT,
            Frame::Busy { .. } => KIND_BUSY,
            Frame::Gaf { .. } => KIND_GAF,
            Frame::Done { .. } => KIND_DONE,
            Frame::Error { .. } => KIND_ERROR,
            Frame::StatsReply { .. } => KIND_STATS_REPLY,
        }
    }

    /// Appends the frame (header + payload) to `out`, building it in
    /// place: the header is reserved, the payload appended, the length
    /// patched. Several frames appended to one buffer go out as one write.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = begin_frame(out, self.kind());
        match self {
            Frame::Ping | Frame::Stats | Frame::Shutdown | Frame::Pong => {}
            Frame::Submit { name, fastq } => {
                out.extend_from_slice(&(name.len() as u16).to_le_bytes());
                out.extend_from_slice(name.as_bytes());
                out.extend_from_slice(fastq);
            }
            Frame::Accept { job } => out.extend_from_slice(&job.to_le_bytes()),
            Frame::Busy { reason } => out.extend_from_slice(reason.as_bytes()),
            Frame::Gaf { job, data } => {
                out.extend_from_slice(&job.to_le_bytes());
                out.extend_from_slice(data);
            }
            Frame::Done { job, summary } => {
                for v in [
                    *job,
                    summary.reads,
                    summary.chunks,
                    summary.gaf_bytes,
                    summary.queue_wait_us,
                    summary.latency_us,
                ] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Frame::Error { job, message } => {
                out.extend_from_slice(&job.to_le_bytes());
                out.extend_from_slice(message.as_bytes());
            }
            Frame::StatsReply { json } => out.extend_from_slice(json.as_bytes()),
        }
        end_frame(out, start);
    }

    /// Appends a `GAF` frame for `job` whose data is whatever `render`
    /// appends to the buffer, and returns how many data bytes that was.
    /// The bytes equal `Frame::Gaf { job, data }.encode()` without `data`
    /// ever existing as a buffer of its own — the renderer writes straight
    /// into the bytes that go on the wire.
    pub fn encode_gaf_with(
        out: &mut Vec<u8>,
        job: u64,
        render: impl FnOnce(&mut Vec<u8>),
    ) -> usize {
        let start = begin_frame(out, KIND_GAF);
        out.extend_from_slice(&job.to_le_bytes());
        let data_start = out.len();
        render(out);
        let data_len = out.len() - data_start;
        end_frame(out, start);
        data_len
    }

    /// Serializes the frame (header + payload) into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Writes the frame to `w` as one `write_all` (so a mutex around `w`
    /// keeps frames atomic under concurrent writers).
    pub fn write_to<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&self.encode())?;
        w.flush()
    }
}

/// Appends a header for `kind` with the length still zero; returns where
/// the frame starts, for [`end_frame`].
fn begin_frame(out: &mut Vec<u8>, kind: u8) -> usize {
    let start = out.len();
    out.push(kind);
    out.extend_from_slice(&[0; 4]);
    start
}

/// Patches the length of the frame begun at `start` to cover everything
/// appended since.
fn end_frame(out: &mut [u8], start: usize) {
    let len = u32::try_from(out.len() - start - HEADER_LEN)
        .expect("frame payload fits the u32 length field");
    out[start + 1..start + HEADER_LEN].copy_from_slice(&len.to_le_bytes());
}

fn read_u64(payload: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&payload[at..at + 8]);
    u64::from_le_bytes(b)
}

fn parse_payload(kind: u8, payload: &[u8]) -> Result<Frame, ProtoError> {
    match kind {
        KIND_PING | KIND_STATS | KIND_SHUTDOWN | KIND_PONG => {
            if !payload.is_empty() {
                return Err(ProtoError::Malformed("control frame carries a payload"));
            }
            Ok(match kind {
                KIND_PING => Frame::Ping,
                KIND_STATS => Frame::Stats,
                KIND_SHUTDOWN => Frame::Shutdown,
                _ => Frame::Pong,
            })
        }
        KIND_SUBMIT => {
            if payload.len() < 2 {
                return Err(ProtoError::Malformed("submit shorter than its name length"));
            }
            let name_len = usize::from(u16::from_le_bytes([payload[0], payload[1]]));
            if payload.len() < 2 + name_len {
                return Err(ProtoError::Malformed("submit name overruns the payload"));
            }
            let name = std::str::from_utf8(&payload[2..2 + name_len])
                .map_err(|_| ProtoError::Malformed("submit name is not UTF-8"))?
                .to_string();
            Ok(Frame::Submit { name, fastq: payload[2 + name_len..].to_vec() })
        }
        KIND_ACCEPT => {
            if payload.len() != 8 {
                return Err(ProtoError::Malformed("accept payload is not 8 bytes"));
            }
            Ok(Frame::Accept { job: read_u64(payload, 0) })
        }
        KIND_BUSY => {
            let reason = std::str::from_utf8(payload)
                .map_err(|_| ProtoError::Malformed("busy reason is not UTF-8"))?
                .to_string();
            Ok(Frame::Busy { reason })
        }
        KIND_GAF => {
            if payload.len() < 8 {
                return Err(ProtoError::Malformed("gaf frame shorter than its job id"));
            }
            Ok(Frame::Gaf { job: read_u64(payload, 0), data: payload[8..].to_vec() })
        }
        KIND_DONE => {
            if payload.len() != 48 {
                return Err(ProtoError::Malformed("done payload is not 48 bytes"));
            }
            Ok(Frame::Done {
                job: read_u64(payload, 0),
                summary: JobSummary {
                    reads: read_u64(payload, 8),
                    chunks: read_u64(payload, 16),
                    gaf_bytes: read_u64(payload, 24),
                    queue_wait_us: read_u64(payload, 32),
                    latency_us: read_u64(payload, 40),
                },
            })
        }
        KIND_ERROR => {
            if payload.len() < 8 {
                return Err(ProtoError::Malformed("error frame shorter than its job id"));
            }
            let message = std::str::from_utf8(&payload[8..])
                .map_err(|_| ProtoError::Malformed("error message is not UTF-8"))?
                .to_string();
            Ok(Frame::Error { job: read_u64(payload, 0), message })
        }
        KIND_STATS_REPLY => {
            let json = std::str::from_utf8(payload)
                .map_err(|_| ProtoError::Malformed("stats reply is not UTF-8"))?
                .to_string();
            Ok(Frame::StatsReply { json })
        }
        other => Err(ProtoError::UnknownKind(other)),
    }
}

/// Strict one-shot decode: parses one frame from the front of `buf` and
/// returns it with the bytes consumed. An incomplete buffer is
/// [`ProtoError::Truncated`].
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), ProtoError> {
    if buf.len() < HEADER_LEN {
        // An unknown kind or oversized length is reportable from however
        // much of the header we have.
        if let Some(&kind) = buf.first() {
            if !known_kind(kind) {
                return Err(ProtoError::UnknownKind(kind));
            }
        }
        return Err(ProtoError::Truncated);
    }
    let kind = buf[0];
    if !known_kind(kind) {
        return Err(ProtoError::UnknownKind(kind));
    }
    let len = u32::from_le_bytes([buf[1], buf[2], buf[3], buf[4]]);
    if len > MAX_FRAME {
        return Err(ProtoError::Oversized { len });
    }
    let total = HEADER_LEN + len as usize;
    if buf.len() < total {
        return Err(ProtoError::Truncated);
    }
    let frame = parse_payload(kind, &buf[HEADER_LEN..total])?;
    Ok((frame, total))
}

fn known_kind(kind: u8) -> bool {
    matches!(
        kind,
        KIND_PING
            | KIND_SUBMIT
            | KIND_STATS
            | KIND_SHUTDOWN
            | KIND_PONG
            | KIND_ACCEPT
            | KIND_BUSY
            | KIND_GAF
            | KIND_DONE
            | KIND_ERROR
            | KIND_STATS_REPLY
    )
}

/// Incremental frame decoder: push transport bytes in, pull frames out.
///
/// A decode error is sticky — the stream has lost framing, so the
/// connection must be dropped, which is what every caller does.
///
/// # Examples
///
/// ```
/// use mg_server::protocol::{Frame, FrameDecoder};
///
/// let bytes = Frame::Accept { job: 7 }.encode();
/// let mut dec = FrameDecoder::new();
/// // Feed one byte at a time: no frame until the last byte lands.
/// for (i, b) in bytes.iter().enumerate() {
///     dec.push(&[*b]);
///     let got = dec.next_frame().unwrap();
///     if i + 1 < bytes.len() {
///         assert_eq!(got, None);
///     } else {
///         assert_eq!(got, Some(Frame::Accept { job: 7 }));
///     }
/// }
/// ```
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    start: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends transport bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact lazily: drop consumed prefix once it dominates the
        // buffer, so long sessions don't grow without bound.
        if self.start > 4096 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pulls the next complete frame, `Ok(None)` when more bytes are
    /// needed.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, ProtoError> {
        match decode_frame(&self.buf[self.start..]) {
            Ok((frame, used)) => {
                self.start += used;
                Ok(Some(frame))
            }
            Err(ProtoError::Truncated) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Bytes buffered but not yet consumed by a decoded frame.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames() -> Vec<Frame> {
        vec![
            Frame::Ping,
            Frame::Stats,
            Frame::Shutdown,
            Frame::Pong,
            Frame::Submit { name: "set-a".into(), fastq: b"@r\nACGT\n+\nIIII\n".to_vec() },
            Frame::Submit { name: String::new(), fastq: Vec::new() },
            Frame::Accept { job: u64::MAX },
            Frame::Busy { reason: "pending queue full (4 jobs)".into() },
            Frame::Gaf { job: 3, data: b"read.0\t4\t0\t4\t+\n".to_vec() },
            Frame::Done {
                job: 9,
                summary: JobSummary {
                    reads: 100,
                    chunks: 7,
                    gaf_bytes: 12345,
                    queue_wait_us: 42,
                    latency_us: 99999,
                },
            },
            Frame::Error { job: 5, message: "corrupt FASTQ".into() },
            Frame::StatsReply { json: "{\"jobs\": {}}".into() },
        ]
    }

    #[test]
    fn every_frame_round_trips() {
        for frame in frames() {
            let bytes = frame.encode();
            let (back, used) = decode_frame(&bytes).unwrap();
            assert_eq!(back, frame);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn decoder_reassembles_a_concatenated_stream() {
        let all = frames();
        let mut stream = Vec::new();
        for f in &all {
            stream.extend_from_slice(&f.encode());
        }
        let mut dec = FrameDecoder::new();
        // Push in awkward 3-byte slices.
        for chunk in stream.chunks(3) {
            dec.push(chunk);
        }
        let mut got = Vec::new();
        while let Some(f) = dec.next_frame().unwrap() {
            got.push(f);
        }
        assert_eq!(got, all);
        assert_eq!(dec.pending_bytes(), 0);
    }

    #[test]
    fn unknown_kind_is_rejected_immediately() {
        let mut dec = FrameDecoder::new();
        dec.push(&[0x7f]);
        assert_eq!(dec.next_frame(), Err(ProtoError::UnknownKind(0x7f)));
    }

    #[test]
    fn oversized_length_is_rejected_from_the_header() {
        let mut bytes = vec![KIND_GAF];
        bytes.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert_eq!(decode_frame(&bytes), Err(ProtoError::Oversized { len: MAX_FRAME + 1 }));
    }

    #[test]
    fn truncated_and_malformed_payloads_are_errors_not_panics() {
        // DONE with a short payload.
        let mut bytes = vec![KIND_DONE];
        bytes.extend_from_slice(&8u32.to_le_bytes());
        bytes.extend_from_slice(&[0; 8]);
        assert_eq!(
            decode_frame(&bytes),
            Err(ProtoError::Malformed("done payload is not 48 bytes"))
        );
        // SUBMIT whose name length overruns the payload.
        let mut bytes = vec![KIND_SUBMIT];
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&100u16.to_le_bytes());
        bytes.extend_from_slice(b"ab");
        assert_eq!(
            decode_frame(&bytes),
            Err(ProtoError::Malformed("submit name overruns the payload"))
        );
        // PING with a payload.
        let mut bytes = vec![KIND_PING];
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(0);
        assert!(matches!(decode_frame(&bytes), Err(ProtoError::Malformed(_))));
    }

    #[test]
    fn decoder_compacts_consumed_bytes() {
        let mut dec = FrameDecoder::new();
        let ping = Frame::Ping.encode();
        for _ in 0..5000 {
            dec.push(&ping);
            assert_eq!(dec.next_frame().unwrap(), Some(Frame::Ping));
        }
        assert_eq!(dec.pending_bytes(), 0);
        // The internal buffer was compacted along the way (the lazy
        // threshold is 4 KiB), not grown to 5000 frames (~30 KiB).
        assert!(dec.buf.len() < 8192, "buffer grew to {}", dec.buf.len());
    }
}
