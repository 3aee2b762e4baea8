//! Typed errors for the trace-file subsystem.

use std::fmt;
use std::io;

/// Everything that can go wrong reading, writing or verifying a trace
/// file or corpus store.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceFileError {
    /// An underlying I/O operation failed.
    Io(io::Error),
    /// The bytes are not a trace file, or violate the format: bad magic,
    /// failed CRC, truncated block, stale seek index, … `what` says which
    /// structure, `detail` what was wrong with it.
    Corrupt {
        /// The structure that failed to parse (`"block 3"`, `"seek
        /// index"`, `"footer"`, …).
        what: String,
        /// What was wrong with it.
        detail: String,
    },
    /// The file is a hytlb trace, but of a version the reader given it
    /// does not read.
    UnsupportedVersion {
        /// The version the file declares.
        found: u32,
        /// The version the reader reads: 1 for the legacy reader, 2 for
        /// the block-format reader.
        expected: u32,
    },
    /// A corpus-store operation referenced an entry that does not exist
    /// or disagrees with the manifest.
    Store {
        /// What the store operation expected and did not find.
        detail: String,
    },
}

impl TraceFileError {
    /// Builds a [`TraceFileError::Corrupt`] naming the offending
    /// structure.
    #[must_use]
    pub fn corrupt(what: impl Into<String>, detail: impl Into<String>) -> Self {
        TraceFileError::Corrupt { what: what.into(), detail: detail.into() }
    }

    /// `true` when the error reports malformed bytes (as opposed to an
    /// I/O failure or a missing store entry).
    #[must_use]
    pub fn is_corrupt(&self) -> bool {
        matches!(self, TraceFileError::Corrupt { .. } | TraceFileError::UnsupportedVersion { .. })
    }
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "trace file I/O failed: {e}"),
            TraceFileError::Corrupt { what, detail } => {
                write!(f, "corrupt trace file ({what}): {detail}")
            }
            TraceFileError::UnsupportedVersion { found, expected } => {
                write!(
                    f,
                    "unsupported trace-file version {found} (this reader reads version {expected})"
                )
            }
            TraceFileError::Store { detail } => write!(f, "trace store: {detail}"),
        }
    }
}

impl std::error::Error for TraceFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceFileError::Io(e) => Some(e),
            TraceFileError::Corrupt { .. }
            | TraceFileError::UnsupportedVersion { .. }
            | TraceFileError::Store { .. } => None,
        }
    }
}

impl From<io::Error> for TraceFileError {
    fn from(e: io::Error) -> Self {
        // A short read while parsing a declared structure is corruption
        // (truncated file), not an environment failure; everything else
        // stays an I/O error.
        if e.kind() == io::ErrorKind::UnexpectedEof {
            TraceFileError::corrupt("stream", "truncated mid-structure")
        } else {
            TraceFileError::Io(e)
        }
    }
}

impl From<TraceFileError> for io::Error {
    fn from(e: TraceFileError) -> Self {
        match e {
            TraceFileError::Io(inner) => inner,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Shorthand for results in this crate.
pub type Result<T> = std::result::Result<T, TraceFileError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_structure() {
        let e = TraceFileError::corrupt("block 3", "payload CRC mismatch");
        assert!(e.to_string().contains("block 3"));
        assert!(e.is_corrupt());
        assert!(!TraceFileError::Store { detail: "x".into() }.is_corrupt());
    }

    #[test]
    fn unexpected_eof_maps_to_corrupt() {
        let e: TraceFileError = io::Error::new(io::ErrorKind::UnexpectedEof, "eof").into();
        assert!(e.is_corrupt());
        let e: TraceFileError = io::Error::new(io::ErrorKind::PermissionDenied, "no").into();
        assert!(!e.is_corrupt());
    }

    #[test]
    fn converts_to_io_invalid_data() {
        let io_err: io::Error = TraceFileError::UnsupportedVersion { found: 9, expected: 2 }.into();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidData);
    }
}
