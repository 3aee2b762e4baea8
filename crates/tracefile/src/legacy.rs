//! Reading the legacy `HYTLBTR1` format and converting it to v2.
//!
//! The v1 format is frozen: nothing writes it any more, and this module is
//! the only code that reads it. A v1 file is the magic `HYTLBTR1`, a
//! little-endian `u32` header length, a JSON header (`workload`,
//! `footprint_pages`, `accesses`, `seed`) and then `accesses` raw
//! little-endian u64 addresses — simple, but 8 bytes per access and with
//! nothing to catch corruption. [`LegacyReader`] streams it with bounded
//! memory (an 8 KiB read buffer, never a full `Vec` of the trace, whatever
//! the header declares) and [`convert`] re-encodes it block-by-block into
//! v2, which is what `hytlb-tracectl convert` runs.

use std::io::Read;

use crate::error::{Result, TraceFileError};
use crate::format::{TraceMeta, MAX_HEADER_BYTES};
use crate::writer::{TraceWriter, WriteSummary};

/// Leading magic of a version-1 trace file.
pub const LEGACY_MAGIC: [u8; 8] = *b"HYTLBTR1";

/// The v1 JSON header.
#[derive(Debug, Clone, serde::Deserialize)]
struct LegacyHeader {
    workload: String,
    footprint_pages: u64,
    accesses: u64,
    seed: u64,
}

/// Streaming reader over a legacy `HYTLBTR1` file.
#[derive(Debug)]
pub struct LegacyReader<R: Read> {
    src: R,
    workload: String,
    footprint_pages: u64,
    seed: u64,
    declared: u64,
    yielded: u64,
    buf: [u8; 8192],
    buf_len: usize,
    buf_pos: usize,
    failed: bool,
}

impl<R: Read> LegacyReader<R> {
    /// Opens a legacy stream, consuming and validating the magic and
    /// header. The declared header length is bounded at 1 MiB so a
    /// corrupt prefix cannot drive a giant allocation.
    pub fn new(mut src: R) -> Result<Self> {
        let mut magic = [0u8; 8];
        src.read_exact(&mut magic)?;
        if magic == crate::format::FILE_MAGIC {
            return Err(TraceFileError::UnsupportedVersion { found: 2, expected: 1 });
        }
        if magic != LEGACY_MAGIC {
            return Err(TraceFileError::corrupt("file magic", "not a HYTLBTR1 trace file"));
        }
        let mut len_bytes = [0u8; 4];
        src.read_exact(&mut len_bytes)?;
        let header_len = u32::from_le_bytes(len_bytes);
        if header_len > MAX_HEADER_BYTES {
            return Err(TraceFileError::corrupt(
                "header",
                format!("declared length {header_len} exceeds the 1 MiB bound"),
            ));
        }
        let mut json = vec![0u8; header_len as usize];
        src.read_exact(&mut json)?;
        let text = std::str::from_utf8(&json)
            .map_err(|_| TraceFileError::corrupt("header", "header is not UTF-8"))?;
        let header: LegacyHeader = serde_json::from_str(text)
            .map_err(|e| TraceFileError::corrupt("header", format!("bad JSON: {e}")))?;
        Ok(LegacyReader {
            src,
            workload: header.workload,
            footprint_pages: header.footprint_pages,
            seed: header.seed,
            declared: header.accesses,
            yielded: 0,
            buf: [0u8; 8192],
            buf_len: 0,
            buf_pos: 0,
            failed: false,
        })
    }

    /// Workload label from the header.
    #[must_use]
    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// Footprint in pages from the header.
    #[must_use]
    pub fn footprint_pages(&self) -> u64 {
        self.footprint_pages
    }

    /// Generator seed from the header.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Accesses the header declares (the payload may disagree; the
    /// iterator errors if it runs short).
    #[must_use]
    pub fn declared_accesses(&self) -> u64 {
        self.declared
    }

    /// v2 metadata equivalent to this legacy header.
    #[must_use]
    pub fn meta(&self) -> TraceMeta {
        TraceMeta::new(self.workload.clone(), self.footprint_pages, self.seed)
    }

    fn refill(&mut self) -> std::io::Result<usize> {
        self.buf_pos = 0;
        self.buf_len = 0;
        // Fill as much of the buffer as the source will give, so the
        // tail can be checked for 8-byte alignment.
        while self.buf_len < self.buf.len() {
            let n = self.src.read(&mut self.buf[self.buf_len..])?;
            if n == 0 {
                break;
            }
            self.buf_len += n;
        }
        Ok(self.buf_len)
    }
}

impl<R: Read> Iterator for LegacyReader<R> {
    type Item = Result<u64>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.yielded >= self.declared {
            return None;
        }
        if self.buf_pos == self.buf_len {
            if let Err(e) = self.refill() {
                self.failed = true;
                return Some(Err(e.into()));
            }
        }
        // `refill` stops short of a full (8-byte-aligned) buffer only at
        // end of input, so fewer than 8 bytes left means the payload ran
        // out.
        let left = self.buf_len - self.buf_pos;
        if left < 8 {
            self.failed = true;
            let detail = if left == 0 {
                format!(
                    "payload ends after {} of {} declared accesses",
                    self.yielded, self.declared
                )
            } else {
                "payload is not a whole number of u64s".into()
            };
            return Some(Err(TraceFileError::corrupt("legacy payload", detail)));
        }
        let chunk = &self.buf[self.buf_pos..self.buf_pos + 8];
        self.buf_pos += 8;
        self.yielded += 1;
        Some(Ok(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"))))
    }
}

/// What [`convert`] produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvertSummary {
    /// Totals of the v2 file written.
    pub written: WriteSummary,
    /// Size of the legacy payload alone (`8 × accesses`), for ratio
    /// reporting.
    pub legacy_payload_bytes: u64,
}

/// Streams a legacy `HYTLBTR1` file into a v2 `HYTLBTR2` file, block
/// size taken from `block_accesses` (`None` → default). Memory stays
/// bounded at one block regardless of trace size.
pub fn convert<R: Read, W: std::io::Write>(
    legacy: R,
    sink: W,
    block_accesses: Option<u32>,
) -> Result<ConvertSummary> {
    let mut reader = LegacyReader::new(legacy)?;
    let mut meta = reader.meta();
    if let Some(block) = block_accesses {
        meta.block_accesses = block;
    }
    let mut writer = TraceWriter::new(sink, &meta)?;
    for address in reader.by_ref() {
        writer.push(address?)?;
    }
    let written = writer.finish()?;
    Ok(ConvertSummary { written, legacy_payload_bytes: written.accesses * 8 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::TraceReader;

    /// Builds a v1 file by hand: magic, header length, JSON header, raw
    /// u64s.
    fn legacy_bytes(workload: &str, accesses: &[u64]) -> Vec<u8> {
        let mut out = legacy_header(workload, accesses.len() as u64);
        for a in accesses {
            out.extend_from_slice(&a.to_le_bytes());
        }
        out
    }

    /// A v1 prelude declaring `declared` accesses, with no payload.
    fn legacy_header(workload: &str, declared: u64) -> Vec<u8> {
        let json = format!(
            "{{\"workload\":\"{workload}\",\"footprint_pages\":4096,\"accesses\":{declared},\"seed\":9}}"
        );
        let mut out = Vec::new();
        out.extend_from_slice(&LEGACY_MAGIC);
        out.extend_from_slice(&(json.len() as u32).to_le_bytes());
        out.extend_from_slice(json.as_bytes());
        out
    }

    /// Addresses the reader yields before it stops, and the error it
    /// stopped on, if any.
    fn drain(reader: LegacyReader<&[u8]>) -> (u64, Option<TraceFileError>) {
        let mut yielded = 0;
        for item in reader {
            match item {
                Ok(_) => yielded += 1,
                Err(e) => return (yielded, Some(e)),
            }
        }
        (yielded, None)
    }

    #[test]
    fn legacy_reader_streams_the_payload() {
        // Several 8 KiB refills, and a file that declares no accesses.
        for n in [3000u64, 0] {
            let addresses: Vec<u64> = (0..n).map(|i| i * 4096 + i % 4096).collect();
            let bytes = legacy_bytes("gups", &addresses);
            let reader = LegacyReader::new(&bytes[..]).unwrap();
            assert_eq!(reader.workload(), "gups");
            assert_eq!(reader.footprint_pages(), 4096);
            assert_eq!(reader.seed(), 9);
            assert_eq!(reader.declared_accesses(), n);
            let back: Result<Vec<u64>> = reader.collect();
            assert_eq!(back.unwrap(), addresses);
        }
    }

    #[test]
    fn truncated_legacy_payload_errors() {
        let addresses: Vec<u64> = (0..100u64).map(|i| i * 8).collect();
        let full = legacy_bytes("mcf", &addresses);
        let one = legacy_bytes("one", &[7]);
        let cases = [
            // 2.5 accesses short.
            (full[..full.len() - 20].to_vec(), 97, "not a whole number of u64s"),
            // Half an access: its 4 bytes must not become an address.
            (one[..one.len() - 4].to_vec(), 0, "not a whole number of u64s"),
            // Two whole accesses short.
            (full[..full.len() - 16].to_vec(), 98, "98 of 100"),
            // A header that declares u64::MAX accesses over an empty
            // payload must fail, not try to reserve them.
            (legacy_header("liar", u64::MAX), 0, "0 of 18446744073709551615"),
        ];
        for (bytes, good, message) in cases {
            let (yielded, err) = drain(LegacyReader::new(&bytes[..]).unwrap());
            let err = err.expect("a short payload must error");
            assert_eq!(yielded, good, "{err}");
            assert!(err.is_corrupt(), "{err}");
            assert!(err.to_string().contains(message), "{err}");
            assert!(convert(&bytes[..], Vec::new(), None).unwrap_err().is_corrupt());
        }
    }

    #[test]
    fn bad_legacy_prelude_is_rejected() {
        let mut oversized = Vec::new();
        oversized.extend_from_slice(&LEGACY_MAGIC);
        oversized.extend_from_slice(&(MAX_HEADER_BYTES + 1).to_le_bytes());
        for bytes in [oversized, b"NOTATRACE___".to_vec()] {
            let err = LegacyReader::new(&bytes[..]).unwrap_err();
            assert!(err.is_corrupt(), "{err}");
        }
    }

    #[test]
    fn v2_magic_is_reported_as_wrong_version() {
        let bytes = b"HYTLBTR2rest";
        match LegacyReader::new(&bytes[..]) {
            Err(e @ TraceFileError::UnsupportedVersion { found: 2, expected: 1 }) => assert_eq!(
                e.to_string(),
                "unsupported trace-file version 2 (this reader reads version 1)"
            ),
            other => panic!("expected UnsupportedVersion {{ 2 }}, got {other:?}"),
        }
    }

    #[test]
    fn convert_roundtrips_and_shrinks() {
        // Page-local walk: v2 should be much smaller than 8 B/access.
        let addresses: Vec<u64> = (0..5000u64).map(|i| (i / 7) * 4096 + (i * 131) % 4096).collect();
        let legacy = legacy_bytes("graph500", &addresses);
        let mut v2 = Vec::new();
        let summary = convert(&legacy[..], &mut v2, Some(512)).unwrap();
        assert_eq!(summary.written.accesses, 5000);
        assert_eq!(summary.legacy_payload_bytes, 5000 * 8);
        assert!(summary.written.bytes < summary.legacy_payload_bytes / 2);

        let reader = TraceReader::new(&v2[..]).unwrap();
        assert_eq!(reader.meta().workload, "graph500");
        assert_eq!(reader.meta().footprint_pages, 4096);
        assert_eq!(reader.meta().seed, 9);
        let back: Result<Vec<u64>> = reader.addresses().collect();
        assert_eq!(back.unwrap(), addresses);
    }

    /// The most addresses a v1 file can honestly yield: what its header
    /// declares, capped by the whole u64s its payload holds.
    fn honest_bound(bytes: &[u8], declared: u64) -> u64 {
        let header_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let payload = bytes.len() - 12 - header_len;
        declared.min(payload as u64 / 8)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Arbitrary bytes, bytes behind a valid magic, and arbitrary cuts
        /// of a valid file: neither the reader nor `convert` panics, and
        /// neither yields more addresses than the file really holds.
        #[test]
        fn hostile_input_never_panics_or_over_yields(
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..256),
            addresses in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..300),
            cut_permille in 0usize..=1000,
        ) {
            let mut behind_magic = LEGACY_MAGIC.to_vec();
            behind_magic.extend_from_slice(&noise);
            let valid = legacy_bytes("fuzz", &addresses);
            let cut = valid[..valid.len() * cut_permille / 1000].to_vec();
            let mut noisy_payload = legacy_header("fuzz", addresses.len() as u64);
            noisy_payload.extend_from_slice(&noise);
            for bytes in [noise.clone(), behind_magic, cut, noisy_payload] {
                let Ok(reader) = LegacyReader::new(&bytes[..]) else { continue };
                let bound = honest_bound(&bytes, reader.declared_accesses());
                let (yielded, err) = drain(reader);
                proptest::prop_assert!(yielded <= bound, "{yielded} > {bound}");
                proptest::prop_assert!(err.is_some() || yielded == bound);
                if let Ok(summary) = convert(&bytes[..], Vec::new(), Some(64)) {
                    proptest::prop_assert_eq!(summary.written.accesses, yielded);
                }
            }
        }
    }
}
