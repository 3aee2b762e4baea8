//! File-level structures of the `HYTLBTR2` format: magic, JSON header,
//! seek index and footer.
//!
//! A trace file looks like:
//!
//! ```text
//! "HYTLBTR2"  (8 bytes)
//! header_len  (u32 LE, ≤ 1 MiB)
//! header      (JSON-encoded TraceMeta, header_len bytes)
//! block record …                 ── see crate::block
//! block record …
//! "IDX2" entry_count entries crc ── seek index, one entry per block
//! index_offset accesses blocks crc "HYTLBEND"   ── 36-byte footer
//! ```
//!
//! The footer is fixed-size and sits at EOF, so a seekable reader finds
//! the index in two seeks without scanning blocks. Streaming readers
//! ignore both: blocks are self-delimiting and stop at `"IDX2"`.

use std::io::Read;

use crate::crc32::crc32;
use crate::error::{Result, TraceFileError};

/// Leading magic of a version-2 trace file.
pub const FILE_MAGIC: [u8; 8] = *b"HYTLBTR2";

/// Trailing magic closing the footer; its presence at EOF marks a file
/// whose writer ran to completion.
pub const END_MAGIC: [u8; 8] = *b"HYTLBEND";

/// Magic opening the seek index, in the position a block magic would
/// occupy, so streaming readers detect end-of-blocks.
pub const INDEX_MAGIC: [u8; 4] = *b"IDX2";

/// The version this build reads and writes.
pub const FORMAT_VERSION: u32 = 2;

/// Upper bound on the JSON header, so a corrupt length prefix cannot
/// drive a giant allocation.
pub const MAX_HEADER_BYTES: u32 = 1 << 20;

/// Encoded size of one seek-index entry.
pub const INDEX_ENTRY_BYTES: u64 = 8 + 8 + 8 + 4;

/// Encoded size of the footer.
pub const FOOTER_BYTES: u64 = 8 + 8 + 8 + 4 + 8;

/// Descriptive metadata stored in the JSON header of every trace file.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TraceMeta {
    /// Format version (always [`FORMAT_VERSION`] for files this build
    /// writes).
    pub version: u32,
    /// Workload label (`"gups"`, `"mcf"`, …) as printed by
    /// `WorkloadKind::label`.
    pub workload: String,
    /// Footprint in 4 KiB pages the trace was generated against.
    pub footprint_pages: u64,
    /// Generator seed.
    pub seed: u64,
    /// Accesses per block the writer targets (the last block may be
    /// shorter).
    pub block_accesses: u32,
}

impl TraceMeta {
    /// Metadata for a new recording with the default block size.
    #[must_use]
    pub fn new(workload: impl Into<String>, footprint_pages: u64, seed: u64) -> Self {
        TraceMeta {
            version: FORMAT_VERSION,
            workload: workload.into(),
            footprint_pages,
            seed,
            block_accesses: crate::block::DEFAULT_BLOCK_ACCESSES,
        }
    }
}

/// One seek-index entry: where a block lives and what it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// Byte offset of the block's magic from the start of the file.
    pub offset: u64,
    /// Global index of the block's first access.
    pub first_access: u64,
    /// The block's first address (duplicated from the block header so
    /// address-range queries never touch the block).
    pub first_address: u64,
    /// Accesses in the block.
    pub count: u32,
}

/// The fixed-size footer at EOF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footer {
    /// Byte offset of [`INDEX_MAGIC`] from the start of the file.
    pub index_offset: u64,
    /// Total accesses across all blocks.
    pub accesses: u64,
    /// Total number of blocks.
    pub blocks: u64,
}

/// Summary a reader can produce without decoding any block.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct TraceInfo {
    /// Header metadata.
    pub workload: String,
    /// Footprint in pages, from the header.
    pub footprint_pages: u64,
    /// Generator seed, from the header.
    pub seed: u64,
    /// Target accesses per block, from the header.
    pub block_accesses: u32,
    /// Total accesses, from the footer.
    pub accesses: u64,
    /// Total blocks, from the footer.
    pub blocks: u64,
    /// Size of the file in bytes.
    pub file_bytes: u64,
    /// `8 × accesses / file_bytes`: how much smaller than raw LE u64s.
    pub compression_ratio: f64,
}

/// Serializes `meta` and returns the complete file prelude: magic,
/// length prefix and JSON header.
pub fn encode_header(meta: &TraceMeta) -> Result<Vec<u8>> {
    let json = serde_json::to_vec(meta)
        .map_err(|e| TraceFileError::Store { detail: format!("header serialize: {e}") })?;
    if json.len() as u64 > u64::from(MAX_HEADER_BYTES) {
        return Err(TraceFileError::Store { detail: "header exceeds 1 MiB".into() });
    }
    let mut out = Vec::with_capacity(8 + 4 + json.len());
    out.extend_from_slice(&FILE_MAGIC);
    out.extend_from_slice(&(json.len() as u32).to_le_bytes());
    out.extend_from_slice(&json);
    Ok(out)
}

/// Reads and validates the file prelude, returning the metadata and the
/// number of bytes consumed.
pub fn read_header<R: Read>(reader: &mut R) -> Result<(TraceMeta, u64)> {
    let mut magic = [0u8; 8];
    reader.read_exact(&mut magic)?;
    if magic == *b"HYTLBTR1" {
        return Err(TraceFileError::UnsupportedVersion { found: 1, expected: FORMAT_VERSION });
    }
    if magic != FILE_MAGIC {
        return Err(TraceFileError::corrupt("file magic", "not a HYTLBTR2 trace file"));
    }
    let mut len_bytes = [0u8; 4];
    reader.read_exact(&mut len_bytes)?;
    let header_len = u32::from_le_bytes(len_bytes);
    if header_len > MAX_HEADER_BYTES {
        return Err(TraceFileError::corrupt(
            "header",
            format!("declared length {header_len} exceeds the 1 MiB bound"),
        ));
    }
    let mut json = vec![0u8; header_len as usize];
    reader.read_exact(&mut json)?;
    let text = std::str::from_utf8(&json)
        .map_err(|_| TraceFileError::corrupt("header", "header is not UTF-8"))?;
    let meta: TraceMeta = serde_json::from_str(text)
        .map_err(|e| TraceFileError::corrupt("header", format!("bad JSON: {e}")))?;
    if meta.version != FORMAT_VERSION {
        return Err(TraceFileError::UnsupportedVersion {
            found: meta.version,
            expected: FORMAT_VERSION,
        });
    }
    if meta.block_accesses == 0 || meta.block_accesses > crate::block::MAX_BLOCK_ACCESSES {
        return Err(TraceFileError::corrupt(
            "header",
            format!("block_accesses {} out of range", meta.block_accesses),
        ));
    }
    Ok((meta, 8 + 4 + u64::from(header_len)))
}

/// Encodes the seek index: magic, entry count, fixed-size entries and a
/// CRC over everything after the magic.
#[must_use]
pub fn encode_index(entries: &[IndexEntry]) -> Vec<u8> {
    let body = INDEX_ENTRY_BYTES as usize * entries.len();
    let mut out = Vec::with_capacity(4 + 4 + body + 4);
    out.extend_from_slice(&INDEX_MAGIC);
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for e in entries {
        out.extend_from_slice(&e.offset.to_le_bytes());
        out.extend_from_slice(&e.first_access.to_le_bytes());
        out.extend_from_slice(&e.first_address.to_le_bytes());
        out.extend_from_slice(&e.count.to_le_bytes());
    }
    let crc = crc32(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Reads the seek index *after* its magic has already been consumed
/// (streaming readers peek the magic to know blocks ended).
/// `max_entries` bounds the allocation; pass the block count from the
/// footer, or a limit derived from the file size.
pub fn read_index_body<R: Read>(reader: &mut R, max_entries: u64) -> Result<Vec<IndexEntry>> {
    let mut count_bytes = [0u8; 4];
    reader.read_exact(&mut count_bytes)?;
    let entry_count = u32::from_le_bytes(count_bytes);
    if u64::from(entry_count) > max_entries {
        return Err(TraceFileError::corrupt(
            "seek index",
            format!("declares {entry_count} entries, more than the file can hold"),
        ));
    }
    let body_len = INDEX_ENTRY_BYTES as usize * entry_count as usize;
    let mut body = vec![0u8; body_len];
    reader.read_exact(&mut body)?;
    let mut crc_bytes = [0u8; 4];
    reader.read_exact(&mut crc_bytes)?;
    let mut crc = crate::crc32::Crc32::new();
    crc.update(&count_bytes);
    crc.update(&body);
    if crc.finish() != u32::from_le_bytes(crc_bytes) {
        return Err(TraceFileError::corrupt("seek index", "CRC mismatch"));
    }
    let mut entries = Vec::with_capacity(entry_count as usize);
    for chunk in body.chunks_exact(INDEX_ENTRY_BYTES as usize) {
        entries.push(IndexEntry {
            offset: u64::from_le_bytes(chunk[0..8].try_into().expect("8-byte slice")),
            first_access: u64::from_le_bytes(chunk[8..16].try_into().expect("8-byte slice")),
            first_address: u64::from_le_bytes(chunk[16..24].try_into().expect("8-byte slice")),
            count: u32::from_le_bytes(chunk[24..28].try_into().expect("4-byte slice")),
        });
    }
    Ok(entries)
}

/// Encodes the 36-byte footer.
#[must_use]
pub fn encode_footer(footer: &Footer) -> Vec<u8> {
    let mut out = Vec::with_capacity(FOOTER_BYTES as usize);
    out.extend_from_slice(&footer.index_offset.to_le_bytes());
    out.extend_from_slice(&footer.accesses.to_le_bytes());
    out.extend_from_slice(&footer.blocks.to_le_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&END_MAGIC);
    out
}

/// Parses and validates a 36-byte footer.
pub fn parse_footer(bytes: &[u8]) -> Result<Footer> {
    if bytes.len() != FOOTER_BYTES as usize {
        return Err(TraceFileError::corrupt("footer", "short footer"));
    }
    if bytes[28..36] != END_MAGIC {
        return Err(TraceFileError::corrupt(
            "footer",
            "missing HYTLBEND trailer (file truncated or writer never finished)",
        ));
    }
    let crc = u32::from_le_bytes(bytes[24..28].try_into().expect("4-byte slice"));
    if crc32(&bytes[..24]) != crc {
        return Err(TraceFileError::corrupt("footer", "CRC mismatch"));
    }
    Ok(Footer {
        index_offset: u64::from_le_bytes(bytes[0..8].try_into().expect("8-byte slice")),
        accesses: u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice")),
        blocks: u64::from_le_bytes(bytes[16..24].try_into().expect("8-byte slice")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrips() {
        let meta = TraceMeta::new("gups", 1 << 21, 42);
        let bytes = encode_header(&meta).unwrap();
        let mut cursor = &bytes[..];
        let (back, consumed) = read_header(&mut cursor).unwrap();
        assert_eq!(back, meta);
        assert_eq!(consumed, bytes.len() as u64);
    }

    #[test]
    fn legacy_magic_reports_version_1() {
        let mut cursor = &b"HYTLBTR1xxxx"[..];
        match read_header(&mut cursor) {
            Err(e @ TraceFileError::UnsupportedVersion { found: 1, expected: 2 }) => assert_eq!(
                e.to_string(),
                "unsupported trace-file version 1 (this reader reads version 2)"
            ),
            other => panic!("expected UnsupportedVersion {{ 1 }}, got {other:?}"),
        }
    }

    #[test]
    fn oversized_header_length_is_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&FILE_MAGIC);
        bytes.extend_from_slice(&(MAX_HEADER_BYTES + 1).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        let mut cursor = &bytes[..];
        let err = read_header(&mut cursor).unwrap_err();
        assert!(err.is_corrupt(), "{err}");
    }

    #[test]
    fn index_roundtrips_and_detects_flips() {
        let entries = vec![
            IndexEntry { offset: 12, first_access: 0, first_address: 4096, count: 3 },
            IndexEntry { offset: 90, first_access: 3, first_address: 8192, count: 7 },
        ];
        let mut bytes = encode_index(&entries);
        let mut cursor = &bytes[4..];
        assert_eq!(read_index_body(&mut cursor, 10).unwrap(), entries);

        bytes[10] ^= 0x40;
        let mut cursor = &bytes[4..];
        let err = read_index_body(&mut cursor, 10).unwrap_err();
        assert!(err.is_corrupt(), "{err}");
    }

    #[test]
    fn footer_roundtrips_and_detects_truncation() {
        let footer = Footer { index_offset: 777, accesses: 12_345, blocks: 4 };
        let bytes = encode_footer(&footer);
        assert_eq!(bytes.len() as u64, FOOTER_BYTES);
        assert_eq!(parse_footer(&bytes).unwrap(), footer);
        assert!(parse_footer(&bytes[..35]).is_err());
        let mut flipped = bytes.clone();
        flipped[3] ^= 1;
        assert!(parse_footer(&flipped).unwrap_err().is_corrupt());
    }
}
