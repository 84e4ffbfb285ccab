//! The checkpoint transport: how shard workers ship
//! [`FleetCheckpoint`](super::super::FleetCheckpoint) blobs back to the
//! coordinator.
//!
//! A transport is the *only* thing that crosses the process boundary — the
//! blobs themselves are the self-validating binary checkpoints of
//! [`super::super::checkpoint`], so a transport needs no understanding of
//! their contents.  One implementation ships: [`SpoolTransport`], a spool
//! **directory** on a filesystem both sides can reach.  Publication is
//! atomic (write to a temp name, `fsync`, `rename` into place), so a reader
//! either sees a complete blob or no blob at all; a worker killed mid-write
//! leaves only an ignored temp file.  The blobs survive a coordinator
//! restart, which is what makes driver runs resumable.
//!
//! The [`Transport`] trait is what executors publish through, and
//! [`Transport::worker_flags`] closes the loop: a transport knows which CLI
//! flags a spawned worker needs to construct its own end (see the worker
//! protocol in [`super`]).
//!
//! # Example
//!
//! ```
//! use hidwa_core::fleet::driver::transport::{SpoolTransport, Transport};
//!
//! let dir = std::env::temp_dir().join(format!("hidwa-spool-doc-{}", std::process::id()));
//! let spool = SpoolTransport::create(&dir).unwrap();
//! assert!(spool.fetch(0).unwrap().is_none());
//! spool.publish(0, b"blob bytes").unwrap();
//! assert_eq!(spool.fetch(0).unwrap().as_deref(), Some(&b"blob bytes"[..]));
//! assert_eq!(spool.worker_flags(), vec!["--spool".to_string(), dir.display().to_string()]);
//! std::fs::remove_dir_all(&dir).ok();
//! ```

use std::io::Write;
use std::path::{Path, PathBuf};

/// Why a transport operation failed.
#[derive(Debug)]
pub enum TransportError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(error) => write!(f, "transport I/O error: {error}"),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(error) => Some(error),
        }
    }
}

impl From<std::io::Error> for TransportError {
    fn from(error: std::io::Error) -> Self {
        Self::Io(error)
    }
}

/// How checkpoint blobs move between shard workers and the coordinator.
///
/// The contract every implementation must honour:
///
/// * **Atomic publication** — a concurrent [`fetch`](Self::fetch) returns
///   either the complete blob or `None`, never a prefix.  A publisher killed
///   mid-[`publish`](Self::publish) must leave nothing a `fetch` can see.
/// * **Last write wins** — re-publishing a shard replaces its blob.
/// * **No interpretation** — blobs are opaque bytes; validation (checksum,
///   config fingerprint, range) is the coordinator's job, which is why a
///   corrupt blob is a *recoverable* driver event, not a transport error.
pub trait Transport: Send + Sync {
    /// Makes `blob` visible to the coordinator as shard `shard`'s result.
    ///
    /// # Errors
    /// [`TransportError`] when the blob could not be durably published; the
    /// shard then counts as missing and the driver re-runs it.
    fn publish(&self, shard: usize, blob: &[u8]) -> Result<(), TransportError>;

    /// Returns shard `shard`'s published blob, or `None` if none is visible.
    ///
    /// # Errors
    /// [`TransportError`] on I/O failure (distinct from "no blob yet").
    fn fetch(&self, shard: usize) -> Result<Option<Vec<u8>>, TransportError>;

    /// Removes shard `shard`'s published blob (used by the coordinator to
    /// drop a corrupt or stale blob before re-running the shard).  Removing
    /// a blob that does not exist is not an error.
    ///
    /// # Errors
    /// [`TransportError`] on I/O failure.
    fn discard(&self, shard: usize) -> Result<(), TransportError>;

    /// The CLI flags a spawned worker process needs to construct its end of
    /// this transport (`--spool <dir>`; see the normative worker protocol in
    /// [`super`]).
    fn worker_flags(&self) -> Vec<String>;
}

/// Filesystem spool-directory transport.
///
/// Layout inside the directory (normative, also documented in
/// `ARCHITECTURE.md` and `DEPLOYMENT.md`):
///
/// * `shard-<index>.ckpt` — a complete, published checkpoint blob.
/// * `shard-<index>.ckpt.tmp-<pid>` — an in-flight write.  Readers must
///   ignore every name that is not exactly `shard-<index>.ckpt`; the writer
///   renames the temp file into place only after the bytes are written and
///   synced, and `rename(2)` within one directory is atomic on POSIX
///   filesystems.
///
/// The coordinator conventionally places the directory at
/// `<spool_root>/<run_fingerprint>/` (see
/// [`FleetDriver::spool_in`](super::FleetDriver::spool_in)) so blobs from a
/// differently-configured run can never collide with the current one.
#[derive(Debug, Clone)]
pub struct SpoolTransport {
    dir: PathBuf,
}

impl SpoolTransport {
    /// Opens (creating if needed) the spool directory `dir`.
    ///
    /// # Errors
    /// [`std::io::Error`] when the directory cannot be created.
    pub fn create(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The spool directory blobs are published into.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of shard `shard`'s published blob (`shard-<index>.ckpt`).
    #[must_use]
    pub fn blob_path(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("shard-{shard}.ckpt"))
    }

    fn temp_path(&self, shard: usize) -> PathBuf {
        self.dir
            .join(format!("shard-{shard}.ckpt.tmp-{}", std::process::id()))
    }

    /// Fault-injection helper: writes the temp file a killed-mid-write
    /// worker would leave behind, **without** renaming it into place.  A
    /// [`fetch`](Transport::fetch) must not see it — which the fault
    /// tests assert.  Returns the temp path so tests can clean it up.
    ///
    /// # Errors
    /// [`std::io::Error`] when the temp file cannot be written.
    pub fn write_partial(&self, shard: usize, blob: &[u8]) -> std::io::Result<PathBuf> {
        let temp = self.temp_path(shard);
        std::fs::write(&temp, blob)?;
        Ok(temp)
    }
}

impl Transport for SpoolTransport {
    fn publish(&self, shard: usize, blob: &[u8]) -> Result<(), TransportError> {
        let temp = self.temp_path(shard);
        {
            let mut file = std::fs::File::create(&temp)?;
            file.write_all(blob)?;
            // Durability before visibility: the rename must never expose a
            // name whose bytes could still be lost to a crash.
            file.sync_all()?;
        }
        std::fs::rename(&temp, self.blob_path(shard))?;
        Ok(())
    }

    fn fetch(&self, shard: usize) -> Result<Option<Vec<u8>>, TransportError> {
        match std::fs::read(self.blob_path(shard)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(error) if error.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(error) => Err(error.into()),
        }
    }

    fn discard(&self, shard: usize) -> Result<(), TransportError> {
        match std::fs::remove_file(self.blob_path(shard)) {
            Ok(()) => Ok(()),
            Err(error) if error.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(error) => Err(error.into()),
        }
    }

    fn worker_flags(&self) -> Vec<String> {
        vec!["--spool".to_string(), self.dir.display().to_string()]
    }
}
