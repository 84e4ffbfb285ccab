//! The sealed envelope shared by every binary format the crate writes:
//! fleet checkpoints (`HIDWAFLT`), the search index (`HIDWASRC`) and
//! plan-server envelopes (`HIDWAPLQ`/`HIDWAPLR`).
//!
//! ```text
//! magic    8 bytes   names the format
//! version  u16       the format's revision
//! body     …         format-specific, big-endian
//! seal     u64       FNV-1a 64 over every preceding byte
//! ```
//!
//! `start` writes magic and version, `seal` appends the seal.  `open`
//! checks length, then magic, then version, then seal, and returns the
//! body; the `take_*` readers consume it with bounds checks and `finish`
//! refuses trailing bytes.  Every failure is a [`SealError`]: no input
//! makes this module panic.  The formats on top keep only their body
//! layout and invariants.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Magic plus version.
const HEAD: usize = 8 + 2;

/// The trailing FNV-1a 64 seal.
const SEAL: usize = 8;

/// Why sealed bytes failed to open or decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealError {
    /// The input ended before the envelope or its body was complete.
    Truncated,
    /// The leading magic is not the expected format's.
    BadMagic,
    /// The format version is one this build does not understand.
    UnsupportedVersion(u16),
    /// The bytes are complete but fail the seal, or a field leaves its
    /// domain.
    Corrupt(&'static str),
}

impl std::fmt::Display for SealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "envelope truncated"),
            Self::BadMagic => write!(f, "not the expected envelope (bad magic)"),
            Self::UnsupportedVersion(version) => {
                write!(f, "unsupported envelope version {version}")
            }
            Self::Corrupt(what) => write!(f, "envelope corrupt: {what}"),
        }
    }
}

impl std::error::Error for SealError {}

/// FNV-1a 64-bit digest: the envelope seal, and the crate's fingerprint
/// hash.  Not cryptographic (the threat model is bit rot and truncation,
/// not forgery), but any single-bit flip changes it.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_from(0xCBF2_9CE4_8422_2325, bytes)
}

/// FNV-1a 64 continued from the digest `hash` of some bytes over `bytes`.
fn fnv1a64_from(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// [`fnv1a64`] of a blob [`seal`] returned, read off its seal: the seal
/// digests every byte before it, so the blob's digest is the seal
/// continued over its own 8 bytes.
///
/// # Panics
/// If `sealed` is shorter than a seal.
#[must_use]
pub(crate) fn digest(sealed: &[u8]) -> u64 {
    let seal = &sealed[sealed.len() - SEAL..];
    let sum = u64::from_be_bytes(seal.try_into().expect("a seal is 8 bytes"));
    fnv1a64_from(sum, seal)
}

/// Starts an envelope: `magic` then `version`.  Append the body, then
/// [`seal`] it.
#[must_use]
pub(crate) fn start(magic: &[u8; 8], version: u16) -> BytesMut {
    let mut out = BytesMut::new();
    out.put_slice(magic);
    out.put_u16(version);
    out
}

/// Appends the seal over every byte written so far.
#[must_use]
pub(crate) fn seal(mut out: BytesMut) -> Bytes {
    let seal = fnv1a64(&out);
    out.put_u64(seal);
    out.freeze()
}

/// Appends `text` as a `u32` length plus its UTF-8 bytes.
pub(crate) fn put_string(out: &mut BytesMut, text: &str) {
    out.put_u32(text.len() as u32);
    out.put_slice(text.as_bytes());
}

/// Checks length, magic, version and seal, in that order, and returns the
/// body between version and seal.  `min_body` is the fixed body head every
/// well-formed blob carries: shorter input is `Truncated` before any other
/// check.
///
/// # Errors
/// `Truncated`, `BadMagic`, `UnsupportedVersion`, or `Corrupt` on a seal
/// mismatch.
pub(crate) fn open(
    raw: &[u8],
    magic: &[u8; 8],
    version: u16,
    min_body: usize,
) -> Result<Bytes, SealError> {
    if raw.len() < HEAD + min_body + SEAL {
        return Err(SealError::Truncated);
    }
    if raw[..8] != magic[..] {
        return Err(SealError::BadMagic);
    }
    let found = u16::from_be_bytes([raw[8], raw[9]]);
    if found != version {
        return Err(SealError::UnsupportedVersion(found));
    }
    let (body, seal) = raw.split_at(raw.len() - SEAL);
    if fnv1a64(body) != u64::from_be_bytes(seal.try_into().expect("8-byte seal")) {
        return Err(SealError::Corrupt("checksum mismatch"));
    }
    Ok(Bytes::from(body[HEAD..].to_vec()))
}

fn need(input: &Bytes, bytes: usize) -> Result<(), SealError> {
    if input.remaining() < bytes {
        return Err(SealError::Truncated);
    }
    Ok(())
}

// The checked reads fail with `Truncated` when the body ends too early.

/// Reads one byte.
pub(crate) fn take_u8(input: &mut Bytes) -> Result<u8, SealError> {
    need(input, 1)?;
    Ok(input.get_u8())
}

/// Reads a big-endian `u16`.
pub(crate) fn take_u16(input: &mut Bytes) -> Result<u16, SealError> {
    need(input, 2)?;
    Ok(input.get_u16())
}

/// Reads a big-endian `u32`.
pub(crate) fn take_u32(input: &mut Bytes) -> Result<u32, SealError> {
    need(input, 4)?;
    Ok(input.get_u32())
}

/// Reads a big-endian `u64`.
pub(crate) fn take_u64(input: &mut Bytes) -> Result<u64, SealError> {
    need(input, 8)?;
    Ok(input.get_u64())
}

/// Reads an `f64` from its big-endian IEEE-754 bits.
pub(crate) fn take_f64(input: &mut Bytes) -> Result<f64, SealError> {
    take_u64(input).map(f64::from_bits)
}

/// Reads a string written by [`put_string`]; bytes that are not UTF-8 are
/// `Corrupt`.
pub(crate) fn take_string(input: &mut Bytes) -> Result<String, SealError> {
    let len = take_u32(input)? as usize;
    need(input, len)?;
    String::from_utf8(input.split_to(len).to_vec())
        .map_err(|_| SealError::Corrupt("string not UTF-8"))
}

/// Refuses bytes left over once the body has been decoded (`Corrupt`).
pub(crate) fn finish(input: &Bytes) -> Result<(), SealError> {
    if input.remaining() != 0 {
        return Err(SealError::Corrupt("trailing bytes after payload"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_known_answers() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn a_sealed_blob_digests_through_its_seal() {
        use crate::fleet::{ChurnSpec, DriverFleetSpec, FleetConfig, PolicyKind};
        use crate::partition::Objective;
        use crate::population::ChurnModel;
        use crate::search::{ObjectiveSpace, SearchCheckpoint, SearchSpec};
        use crate::serve::codec::{self, ModelId, PlanRequest, Request, Response, WireContext};
        use crate::sweep::SweepRunner;
        use hidwa_units::TimeSpan;
        // Bare envelopes of every body length up to 33 KB, in steps.
        let mut blobs: Vec<Vec<u8>> = (0..34)
            .map(|kb| {
                let mut out = start(b"EXAMPLE!", 1);
                out.put_slice(&vec![kb as u8; kb * 1000 + kb % 7]);
                seal(out).to_vec()
            })
            .collect();
        // And one blob of each format: a churned fleet checkpoint, a search
        // index, and plan-query and answer envelopes.
        let fleet = FleetConfig::new(6)
            .with_horizon(TimeSpan::from_seconds(0.5))
            .with_churn(ChurnSpec::new(
                ChurnModel::with_rate(0.3),
                PolicyKind::Hysteresis,
            ));
        blobs.push(fleet.run_until(&SweepRunner::serial(), 6).save().to_vec());
        let base = DriverFleetSpec::new(6).with_horizon(TimeSpan::from_seconds(0.5));
        let spec = SearchSpec::new(base, ObjectiveSpace::new());
        blobs.push(SearchCheckpoint::new(&spec).save());
        blobs.push(
            codec::encode_requests(&[Request::Plan(PlanRequest {
                model: ModelId::ImuGesture,
                context: WireContext::of(codec::WireLink::WiR),
                objective: Objective::Latency,
            })])
            .to_vec(),
        );
        blobs.push(codec::encode_responses(&[Response::Infeasible("none".into())]).to_vec());
        for blob in &blobs {
            assert_eq!(digest(blob), fnv1a64(blob), "{} bytes", blob.len());
        }
    }

    #[test]
    fn open_checks_length_before_magic() {
        let blob = seal(start(b"EXAMPLE!", 1));
        assert_eq!(open(&blob, b"EXAMPLE!", 1, 0).map(|body| body.len()), Ok(0));
        assert_eq!(open(&blob, b"FOREIGN!", 1, 0), Err(SealError::BadMagic));
        assert_eq!(open(&blob, b"FOREIGN!", 1, 4), Err(SealError::Truncated));
    }
}
