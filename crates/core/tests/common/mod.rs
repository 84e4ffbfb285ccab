//! The one corruption sweep of the sealed envelope (`hidwa_core::sealed`),
//! shared by the fleet-checkpoint, search-index and serve-codec suites.
//! Each check asserts the exact typed error the envelope must raise, so a
//! format's own suite keeps only its body layout and invariants.

// Each suite runs the checks it needs.
#![allow(dead_code)]

use hidwa_core::sealed::{fnv1a64, SealError};

/// Every sealed format's magic: a blob carrying any magic but its own is
/// `BadMagic`, so no format can be mistaken for another.
const MAGICS: [&[u8; 8]; 4] = [b"HIDWAFLT", b"HIDWASRC", b"HIDWAPLQ", b"HIDWAPLR"];

/// Recomputes the trailing seal after a deliberate mutation, so the
/// mutation — not the seal — is what the decoder has to catch.
pub fn reseal(blob: &mut [u8]) {
    let split = blob.len() - 8;
    let seal = fnv1a64(&blob[..split]);
    blob[split..].copy_from_slice(&seal.to_be_bytes());
}

/// A well-formed sealed blob and the decoder of its format.
pub struct Sweep<T, E> {
    blob: Vec<u8>,
    decode: fn(&[u8]) -> Result<T, E>,
}

impl<T, E: From<SealError> + PartialEq + std::fmt::Debug> Sweep<T, E> {
    /// # Panics
    /// If `blob` does not decode.
    pub fn new(blob: &[u8], decode: fn(&[u8]) -> Result<T, E>) -> Self {
        assert!(decode(blob).is_ok(), "the sweep starts from a valid blob");
        Self {
            blob: blob.to_vec(),
            decode,
        }
    }

    fn error(&self, input: &[u8]) -> Option<E> {
        (self.decode)(input).err()
    }

    fn version(&self) -> u16 {
        u16::from_be_bytes([self.blob[8], self.blob[9]])
    }

    /// Every check below.
    pub fn all(&self) {
        self.prefixes();
        self.bit_flips();
        self.version_bump();
        self.foreign_magic();
    }

    /// Every prefix, the empty input included, is refused: one too short
    /// for magic, version and seal as `Truncated`, a longer one as
    /// `Truncated` or a checksum mismatch.
    pub fn prefixes(&self) {
        let truncated = Some(E::from(SealError::Truncated));
        let mismatch = Some(E::from(SealError::Corrupt("checksum mismatch")));
        for cut in 0..self.blob.len() {
            let error = self.error(&self.blob[..cut]);
            assert!(
                error == truncated || (cut >= 18 && error == mismatch),
                "{cut}-byte prefix of a {}-byte blob: {error:?}",
                self.blob.len()
            );
        }
    }

    /// A single-bit flip in every byte (the flipped bit rotates through
    /// all eight lanes) is refused with the error of the field it hits:
    /// magic → `BadMagic`, version → `UnsupportedVersion`, body or seal →
    /// a checksum mismatch.
    pub fn bit_flips(&self) {
        for position in 0..self.blob.len() {
            let bit = 1u8 << (position % 8);
            let mut flipped = self.blob.clone();
            flipped[position] ^= bit;
            let expected = match position {
                0..=7 => SealError::BadMagic,
                8 => SealError::UnsupportedVersion(self.version() ^ (u16::from(bit) << 8)),
                9 => SealError::UnsupportedVersion(self.version() ^ u16::from(bit)),
                _ => SealError::Corrupt("checksum mismatch"),
            };
            assert_eq!(
                self.error(&flipped),
                Some(E::from(expected)),
                "bit flip in byte {position}"
            );
        }
    }

    /// The next version with a recomputed seal is `UnsupportedVersion`.
    pub fn version_bump(&self) {
        let next = self.version() + 1;
        let mut bumped = self.blob.clone();
        bumped[8..10].copy_from_slice(&next.to_be_bytes());
        reseal(&mut bumped);
        assert_eq!(
            self.error(&bumped),
            Some(E::from(SealError::UnsupportedVersion(next)))
        );
    }

    /// Every other format's magic with a recomputed seal is `BadMagic`.
    pub fn foreign_magic(&self) {
        for magic in MAGICS
            .into_iter()
            .filter(|magic| self.blob[..8] != magic[..])
        {
            let mut foreign = self.blob.clone();
            foreign[..8].copy_from_slice(magic);
            reseal(&mut foreign);
            assert_eq!(
                self.error(&foreign),
                Some(E::from(SealError::BadMagic)),
                "magic {:?}",
                String::from_utf8_lossy(magic)
            );
        }
    }
}
