//! Length-prefixed TCP framing of the plan server.
//!
//! The [`serve`](crate::serve) front-end and its client exchange opaque
//! request/response batches in one shape, and the frame layer lives here
//! exactly once:
//!
//! ```text
//! tag      u64 big-endian   (request correlation id)
//! length   u64 big-endian   (payload bytes that follow)
//! payload  `length` bytes   (opaque to this layer)
//! ```
//!
//! A frame says nothing about what the payload *means*; validation (the
//! request codec) belongs to the layer above, which is why a malformed
//! payload is a recoverable application event while a malformed *frame*
//! tears down the connection — after a framing violation there is no way to
//! know where the next frame starts.
//!
//! Readers must pass a payload cap: a length prefix is attacker-(or bit-rot-)
//! controlled input, and the cap is what turns "allocate 2^63 bytes" into a
//! typed [`FrameError::Oversized`].
//!
//! # Example
//!
//! ```
//! use hidwa_core::wire::{read_frame, write_frame};
//!
//! let mut pipe: Vec<u8> = Vec::new();
//! write_frame(&mut pipe, 7, b"payload").unwrap();
//! let (tag, payload) = read_frame(&mut pipe.as_slice(), 1024).unwrap();
//! assert_eq!((tag, payload.as_slice()), (7, &b"payload"[..]));
//! ```

use std::io::{Read, Write};

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying socket or stream operation failed (including EOF in
    /// the middle of a header or payload).
    Io(std::io::Error),
    /// The length prefix exceeds the reader's payload cap — the peer is not
    /// speaking this protocol (or the stream is corrupt), so the connection
    /// cannot be resynchronised.
    Oversized {
        /// Length the prefix claimed.
        len: u64,
        /// Cap the reader enforces.
        cap: u64,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(error) => write!(f, "frame I/O error: {error}"),
            Self::Oversized { len, cap } => {
                write!(f, "frame payload of {len} bytes exceeds the {cap}-byte cap")
            }
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(error) => Some(error),
            Self::Oversized { .. } => None,
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(error: std::io::Error) -> Self {
        Self::Io(error)
    }
}

/// Appends one `tag · length · payload` frame to an in-memory buffer
/// without any I/O.
///
/// This is the building block both senders share: the blocking
/// [`write_frame`] wraps it around a single `write_all`, and the pipelined
/// client / reactor write paths accumulate several frames in one buffer so
/// a burst of responses leaves in one syscall.
pub fn append_frame(buffer: &mut Vec<u8>, tag: u64, payload: &[u8]) {
    buffer.reserve(16 + payload.len());
    buffer.extend_from_slice(&tag.to_be_bytes());
    buffer.extend_from_slice(&(payload.len() as u64).to_be_bytes());
    buffer.extend_from_slice(payload);
}

/// Writes one `tag · length · payload` frame and flushes the writer.
///
/// Header and payload go out as a single `write_all`: request/response
/// frames are latency-sensitive, and three small writes on a TCP stream
/// interact pathologically with Nagle's algorithm and delayed ACKs
/// (~40 ms stalls per round trip).
///
/// # Errors
/// [`std::io::Error`] when the writer fails; a frame is only considered sent
/// once the flush returns.
pub fn write_frame(writer: &mut impl Write, tag: u64, payload: &[u8]) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(16 + payload.len());
    append_frame(&mut frame, tag, payload);
    writer.write_all(&frame)?;
    writer.flush()
}

/// Reads one frame, enforcing `cap` on the payload length *before*
/// allocating anything.
///
/// # Errors
/// * [`FrameError::Io`] — the stream failed or ended mid-frame,
/// * [`FrameError::Oversized`] — the length prefix exceeds `cap`.
pub fn read_frame(reader: &mut impl Read, cap: u64) -> Result<(u64, Vec<u8>), FrameError> {
    let mut header = [0u8; 16];
    reader.read_exact(&mut header)?;
    let tag = u64::from_be_bytes(header[..8].try_into().expect("8-byte half"));
    let len = u64::from_be_bytes(header[8..].try_into().expect("8-byte half"));
    if len > cap {
        return Err(FrameError::Oversized { len, cap });
    }
    let mut payload = vec![0u8; usize::try_from(len).expect("cap fits usize")];
    reader.read_exact(&mut payload)?;
    Ok((tag, payload))
}

/// Incremental, I/O-free frame assembly for nonblocking readers.
///
/// A readiness-driven connection receives bytes in whatever chunks the
/// kernel hands it — half a header, three frames and a prefix, one byte at a
/// time.  The decoder is the state machine that turns that stream back into
/// frames: header-partial → payload-partial → complete, over and over, with
/// the exact semantics of the blocking [`read_frame`]:
///
/// * the payload cap is enforced as soon as the 16 header bytes are
///   assembled, **before** any payload allocation (`cap-before-allocate`);
/// * frames come out in stream order, byte-identical to what repeated
///   [`read_frame`] calls would return (property-tested against it over
///   random chunk boundaries in `crates/core/tests/wire_decoder.rs`);
/// * a violation is sticky — after [`FrameError::Oversized`] the stream has
///   no findable next boundary, so every later [`feed`](Self::feed) repeats
///   the error and the connection must be dropped.
///
/// # Example
///
/// ```
/// use hidwa_core::wire::FrameDecoder;
///
/// let mut wire: Vec<u8> = Vec::new();
/// hidwa_core::wire::write_frame(&mut wire, 7, b"payload").unwrap();
/// let mut decoder = FrameDecoder::new(1024);
/// let mut frames = Vec::new();
/// // Delivered as two arbitrary chunks:
/// decoder.feed(&wire[..5], &mut frames).unwrap();
/// assert!(frames.is_empty() && decoder.mid_frame());
/// decoder.feed(&wire[5..], &mut frames).unwrap();
/// assert_eq!(frames, vec![(7, b"payload".to_vec())]);
/// assert!(!decoder.mid_frame());
/// ```
#[derive(Debug)]
pub struct FrameDecoder {
    cap: u64,
    /// Header bytes assembled so far (meaningful while `payload_need` is
    /// `None`).
    header: [u8; 16],
    header_filled: usize,
    /// `Some(len)` once a header committed to a payload of `len` bytes.
    payload_need: Option<usize>,
    payload: Vec<u8>,
    tag: u64,
    /// A framing violation observed earlier; replayed on every later feed.
    poisoned: Option<(u64, u64)>,
}

impl FrameDecoder {
    /// A decoder enforcing `cap` on every frame's payload length.
    #[must_use]
    pub fn new(cap: u64) -> Self {
        Self {
            cap,
            header: [0u8; 16],
            header_filled: 0,
            payload_need: None,
            payload: Vec::new(),
            tag: 0,
            poisoned: None,
        }
    }

    /// Whether the decoder sits in the middle of a frame (a partial header
    /// or a partial payload).  This is what idle-timeout enforcement keys
    /// on: a peer that stalls *mid-frame* is a slow-loris, a peer idle
    /// *between* frames is just quiet.
    #[must_use]
    pub fn mid_frame(&self) -> bool {
        self.header_filled > 0 || self.payload_need.is_some()
    }

    /// Feeds one received chunk, appending every frame it completes (in
    /// stream order) to `frames`.
    ///
    /// # Errors
    /// [`FrameError::Oversized`] when a header's length prefix exceeds the
    /// cap — raised the moment the header is complete, before any payload
    /// byte arrives or is allocated, and sticky thereafter.
    pub fn feed(
        &mut self,
        mut chunk: &[u8],
        frames: &mut Vec<(u64, Vec<u8>)>,
    ) -> Result<(), FrameError> {
        if let Some((len, cap)) = self.poisoned {
            return Err(FrameError::Oversized { len, cap });
        }
        while !chunk.is_empty() || self.payload_need == Some(0) {
            match self.payload_need {
                None => {
                    let take = (16 - self.header_filled).min(chunk.len());
                    self.header[self.header_filled..self.header_filled + take]
                        .copy_from_slice(&chunk[..take]);
                    self.header_filled += take;
                    chunk = &chunk[take..];
                    if self.header_filled < 16 {
                        break;
                    }
                    self.tag = u64::from_be_bytes(self.header[..8].try_into().expect("8 bytes"));
                    let len = u64::from_be_bytes(self.header[8..].try_into().expect("8 bytes"));
                    if len > self.cap {
                        self.poisoned = Some((len, self.cap));
                        return Err(FrameError::Oversized { len, cap: self.cap });
                    }
                    self.header_filled = 0;
                    let need = usize::try_from(len).expect("cap fits usize");
                    self.payload_need = Some(need);
                    self.payload = Vec::with_capacity(need);
                }
                Some(need) => {
                    let take = (need - self.payload.len()).min(chunk.len());
                    self.payload.extend_from_slice(&chunk[..take]);
                    chunk = &chunk[take..];
                    if self.payload.len() == need {
                        self.payload_need = None;
                        frames.push((self.tag, std::mem::take(&mut self.payload)));
                    } else {
                        break;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_back_to_back() {
        let mut pipe: Vec<u8> = Vec::new();
        write_frame(&mut pipe, 1, b"first").unwrap();
        write_frame(&mut pipe, u64::MAX, b"").unwrap();
        write_frame(&mut pipe, 2, &[0xAB; 300]).unwrap();
        let mut reader = pipe.as_slice();
        assert_eq!(
            read_frame(&mut reader, 1024).unwrap(),
            (1, b"first".to_vec())
        );
        assert_eq!(read_frame(&mut reader, 1024).unwrap(), (u64::MAX, vec![]));
        assert_eq!(read_frame(&mut reader, 1024).unwrap(), (2, vec![0xAB; 300]));
        assert!(matches!(
            read_frame(&mut reader, 1024),
            Err(FrameError::Io(_))
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut pipe: Vec<u8> = Vec::new();
        pipe.extend_from_slice(&3u64.to_be_bytes());
        pipe.extend_from_slice(&u64::MAX.to_be_bytes());
        match read_frame(&mut pipe.as_slice(), 1024) {
            Err(FrameError::Oversized { len, cap }) => {
                assert_eq!((len, cap), (u64::MAX, 1024));
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn truncated_header_and_payload_error() {
        // Header cut short.
        assert!(matches!(
            read_frame(&mut &[1u8, 2, 3][..], 1024),
            Err(FrameError::Io(_))
        ));
        // Payload cut short.
        let mut pipe: Vec<u8> = Vec::new();
        write_frame(&mut pipe, 9, b"whole payload").unwrap();
        pipe.truncate(pipe.len() - 4);
        assert!(matches!(
            read_frame(&mut pipe.as_slice(), 1024),
            Err(FrameError::Io(_))
        ));
        let shown = format!(
            "{} / {}",
            FrameError::Oversized { len: 9, cap: 4 },
            FrameError::from(std::io::Error::other("boom"))
        );
        assert!(shown.contains("9 bytes") && shown.contains("boom"));
    }
}
