//! The on-disk format: records, columnar blocks and the footer index.
//!
//! A store file is a sequence of self-delimiting, individually
//! checksummed **blocks**, followed by a **footer index** describing
//! every block and column segment, so readers can seek straight to one
//! column of one block without touching anything else:
//!
//! ```text
//! ┌──────────┬───────┬───────┬─────┬──────────────────────────────┐
//! │ "PCHSTO1" │ block │ block │ ... │ footer  crc  len  "PCEN"    │
//! └──────────┴───────┴───────┴─────┴──────────────────────────────┘
//! ```
//!
//! Each block holds one batch of [`StoreRecord`]s laid out **by
//! column**: every field of every record in the batch is gathered into
//! its own delta/zigzag/varint-encoded, independently compressed
//! segment (see [`crate::varint`] and [`crate::compress`]). A partial
//! read — "give me the area column" — decompresses only the requested
//! segments.
//!
//! ```text
//! block := "PCBK" header_len header crc32(header) seg₀ … seg₉ crc32(segs)
//! header := records ncols (raw_len comp_len)×ncols        (varints)
//! ```
//!
//! Corruption handling: the footer is written on flush, *after* its
//! blocks, and carries its own CRC; a reader that finds the trailer
//! missing or mismatched (a crash mid-append) falls back to scanning
//! blocks from the front, keeping every block whose header and body
//! CRCs verify and dropping the torn tail. Committed records are never
//! lost; a partially written block is never served. Every reader checks
//! a block's body against its CRC before decoding any of its columns.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};

use pchls_cdfg::{graph_fingerprint, Cdfg};
use pchls_core::{SweepPoint, SynthesisConstraints};
use pchls_sched::Schedule;

use crate::compress::{compress, decompress};
use crate::crc::crc32;
use crate::varint::{get_delta_column, get_u64, put_delta_column, put_u64};

/// First bytes of every store file (format version 1 baked in).
pub(crate) const FILE_MAGIC: &[u8; 8] = b"PCHSTO1\n";
/// Leads every block.
pub(crate) const BLOCK_MAGIC: u32 = u32::from_le_bytes(*b"PCBK");
/// Leads the footer.
pub(crate) const FOOTER_MAGIC: u32 = u32::from_le_bytes(*b"PCFT");
/// Last four bytes of a cleanly flushed file.
pub(crate) const TRAILER_MAGIC: u32 = u32::from_le_bytes(*b"PCEN");

/// Number of columns per block.
pub(crate) const COLUMN_COUNT: usize = 10;

/// Human-readable column names, in on-disk order (`pchls store stat`
/// reports per-column sizes under these names).
pub(crate) const COLUMN_NAMES: [&str; COLUMN_COUNT] = [
    "fingerprint",
    "latency_bound",
    "budget_digest",
    "feasible",
    "power_bound",
    "area",
    "latency",
    "peak_power",
    "units",
    "trace",
];

pub(crate) const COL_FINGERPRINT: usize = 0;
pub(crate) const COL_LATENCY_BOUND: usize = 1;
pub(crate) const COL_BUDGET_DIGEST: usize = 2;
pub(crate) const COL_FEASIBLE: usize = 3;
pub(crate) const COL_POWER_BOUND: usize = 4;
pub(crate) const COL_AREA: usize = 5;
pub(crate) const COL_LATENCY: usize = 6;
pub(crate) const COL_PEAK_POWER: usize = 7;
pub(crate) const COL_UNITS: usize = 8;
pub(crate) const COL_TRACE: usize = 9;

/// The content-addressed identity of one synthesis outcome: *what* was
/// synthesized ([`graph_fingerprint`]) under *which constraints* (the
/// latency bound and the budget's semantic digest,
/// [`pchls_sched::PowerBudget::digest`]). Two requests with equal keys
/// produce byte-identical results, so the store may answer either from
/// one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StoreKey {
    /// Structural fingerprint of the dataflow graph.
    pub fingerprint: u64,
    /// The latency constraint `T`.
    pub latency_bound: u32,
    /// Semantic digest of the power budget over `0..latency_bound`.
    pub budget_digest: u64,
}

impl StoreKey {
    /// The key of `constraints` against an already-computed graph
    /// fingerprint.
    #[must_use]
    pub fn new(fingerprint: u64, constraints: &SynthesisConstraints) -> StoreKey {
        StoreKey {
            fingerprint,
            latency_bound: constraints.latency,
            budget_digest: constraints.budget.digest(constraints.latency),
        }
    }

    /// The key of `constraints` applied to `graph` (fingerprints the
    /// graph first).
    #[must_use]
    pub fn for_graph(graph: &Cdfg, constraints: &SynthesisConstraints) -> StoreKey {
        StoreKey::new(graph_fingerprint(graph), constraints)
    }
}

/// One materialized design outcome — the persisted form of a
/// [`SweepPoint`] plus the schedule trace, keyed by [`StoreKey`].
///
/// Floating-point fields are stored as raw IEEE-754 bits so a record
/// read back converts to a `SweepPoint` that serializes byte-identically
/// to the fresh synthesis output it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreRecord {
    /// What this outcome answers for.
    pub key: StoreKey,
    /// Whether synthesis succeeded at this point.
    pub feasible: bool,
    /// `f64::to_bits` of the reported power bound (the budget's peak
    /// within the horizon).
    pub power_bound_bits: u64,
    /// Functional-unit area (0 when infeasible).
    pub area: u64,
    /// Achieved latency in cycles (0 when infeasible).
    pub latency: u32,
    /// `f64::to_bits` of the achieved peak power (0 when infeasible).
    pub peak_power_bits: u64,
    /// Functional-unit instance count (0 when infeasible).
    pub units: u64,
    /// Opaque schedule trace ([`trace_bytes`]); may be empty when the
    /// producer had no design in hand (e.g. an infeasible point).
    pub trace: Vec<u8>,
}

impl StoreRecord {
    /// Builds the persisted form of `point` under `key`, carrying
    /// `trace` (use [`trace_bytes`] on the design's schedule, or empty).
    #[must_use]
    pub fn from_point(key: StoreKey, point: &SweepPoint, trace: Vec<u8>) -> StoreRecord {
        StoreRecord {
            key,
            feasible: point.is_feasible(),
            power_bound_bits: point.power_bound.to_bits(),
            area: point.area.unwrap_or(0),
            latency: point.latency.unwrap_or(0),
            peak_power_bits: point.peak_power.map_or(0, f64::to_bits),
            units: point.units.unwrap_or(0) as u64,
            trace,
        }
    }

    /// Reconstructs the [`SweepPoint`] this record persisted. The
    /// benchmark name is not stored (it is implied by the fingerprint);
    /// the caller supplies it from the graph in hand.
    #[must_use]
    pub fn to_point(&self, benchmark: &str) -> SweepPoint {
        SweepPoint {
            benchmark: benchmark.to_owned(),
            latency_bound: self.key.latency_bound,
            power_bound: f64::from_bits(self.power_bound_bits),
            area: self.feasible.then_some(self.area),
            latency: self.feasible.then_some(self.latency),
            peak_power: self.feasible.then(|| f64::from_bits(self.peak_power_bits)),
            units: self.feasible.then_some(self.units as usize),
        }
    }
}

/// Encodes a schedule as the record's trace column: the operation
/// count, then every start cycle in operation order (delta/zigzag
/// varints — schedules are near-sorted, so this is small).
#[must_use]
pub fn trace_bytes(schedule: &Schedule) -> Vec<u8> {
    let starts = schedule.starts();
    let mut out = Vec::with_capacity(starts.len() + 4);
    put_u64(&mut out, starts.len() as u64);
    let words: Vec<u64> = starts.iter().map(|&s| u64::from(s)).collect();
    put_delta_column(&mut out, &words);
    out
}

/// Decodes a trace column back into start cycles. `None` for malformed
/// bytes (including any start exceeding `u32`).
#[must_use]
pub fn trace_starts(bytes: &[u8]) -> Option<Vec<u32>> {
    let mut pos = 0usize;
    let count = usize::try_from(get_u64(bytes, &mut pos)?).ok()?;
    let words = get_delta_column(&bytes[pos..], count)?;
    words.iter().map(|&w| u32::try_from(w).ok()).collect()
}

/// Everything a reader needs to address one block without re-reading
/// its header: where it lives, how many records it holds, and the
/// (raw, compressed) size of every column segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BlockMeta {
    /// File offset of the block magic.
    pub offset: u64,
    /// File offset of the first column segment byte.
    pub body_offset: u64,
    /// Records in this block.
    pub records: u32,
    /// Per-column (raw_len, comp_len).
    pub columns: Vec<(u32, u32)>,
}

impl BlockMeta {
    /// File offset one past this block (after the body CRC).
    pub(crate) fn end(&self) -> u64 {
        self.body_offset + u64::from(self.body_bytes()) + 4
    }

    /// Total compressed bytes across all segments.
    pub(crate) fn body_bytes(&self) -> u32 {
        self.columns.iter().map(|&(_, c)| c).sum()
    }

    /// File offset and compressed length of column `col`.
    pub(crate) fn column_span(&self, col: usize) -> (u64, u32) {
        let before: u64 = self.columns[..col].iter().map(|&(_, c)| u64::from(c)).sum();
        (self.body_offset + before, self.columns[col].1)
    }
}

/// Serializes `records` into one block placed at file offset `offset`;
/// returns the bytes and the matching metadata.
///
/// # Panics
///
/// Panics on an empty batch — callers gate this (an empty block would
/// be indistinguishable from padding).
pub(crate) fn encode_block(records: &[StoreRecord], offset: u64) -> (Vec<u8>, BlockMeta) {
    assert!(!records.is_empty(), "blocks hold at least one record");
    let column = |f: &dyn Fn(&StoreRecord) -> u64| -> Vec<u8> {
        let words: Vec<u64> = records.iter().map(f).collect();
        let mut raw = Vec::new();
        put_delta_column(&mut raw, &words);
        raw
    };
    let mut raws: Vec<Vec<u8>> = Vec::with_capacity(COLUMN_COUNT);
    raws.push(column(&|r| r.key.fingerprint));
    raws.push(column(&|r| u64::from(r.key.latency_bound)));
    raws.push(column(&|r| r.key.budget_digest));
    raws.push(records.iter().map(|r| u8::from(r.feasible)).collect());
    raws.push(column(&|r| r.power_bound_bits));
    raws.push(column(&|r| r.area));
    raws.push(column(&|r| u64::from(r.latency)));
    raws.push(column(&|r| r.peak_power_bits));
    raws.push(column(&|r| r.units));
    let mut trace = Vec::new();
    for r in records {
        put_u64(&mut trace, r.trace.len() as u64);
    }
    for r in records {
        trace.extend_from_slice(&r.trace);
    }
    raws.push(trace);

    let segments: Vec<Vec<u8>> = raws.iter().map(|raw| compress(raw)).collect();
    let columns: Vec<(u32, u32)> = raws
        .iter()
        .zip(&segments)
        .map(|(raw, seg)| (raw.len() as u32, seg.len() as u32))
        .collect();

    let mut header = Vec::new();
    put_u64(&mut header, records.len() as u64);
    put_u64(&mut header, COLUMN_COUNT as u64);
    for &(raw, comp) in &columns {
        put_u64(&mut header, u64::from(raw));
        put_u64(&mut header, u64::from(comp));
    }

    let mut bytes = Vec::new();
    bytes.extend_from_slice(&BLOCK_MAGIC.to_le_bytes());
    put_u64(&mut bytes, header.len() as u64);
    bytes.extend_from_slice(&header);
    bytes.extend_from_slice(&crc32(&header).to_le_bytes());
    let body_offset = offset + bytes.len() as u64;
    let mut body = Vec::new();
    for seg in &segments {
        body.extend_from_slice(seg);
    }
    bytes.extend_from_slice(&body);
    bytes.extend_from_slice(&crc32(&body).to_le_bytes());

    let meta = BlockMeta {
        offset,
        body_offset,
        records: records.len() as u32,
        columns,
    };
    (bytes, meta)
}

/// Reads `len` bytes at `offset`. An EOF inside the range comes back as
/// `Ok(None)` (the caller treats it as a torn tail, not an I/O fault).
pub(crate) fn read_at(file: &mut File, offset: u64, len: usize) -> io::Result<Option<Vec<u8>>> {
    file.seek(SeekFrom::Start(offset))?;
    let mut buf = vec![0u8; len];
    let mut filled = 0usize;
    while filled < len {
        match file.read(&mut buf[filled..]) {
            Ok(0) => return Ok(None),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Some(buf))
}

/// Parses and validates the block header at `offset`. `Ok(None)` means
/// "no valid block here" — wrong magic, bad CRC, truncated, or a body
/// extending past `file_len` — which a recovery scan treats as the end
/// of the committed data.
pub(crate) fn parse_block_header(
    file: &mut File,
    offset: u64,
    file_len: u64,
) -> io::Result<Option<BlockMeta>> {
    // Magic + the header-length varint (≤ 5 bytes for any sane header).
    let prefix_len = 9usize.min(file_len.saturating_sub(offset) as usize);
    let Some(prefix) = read_at(file, offset, prefix_len)? else {
        return Ok(None);
    };
    if prefix.len() < 6 || prefix[..4] != BLOCK_MAGIC.to_le_bytes() {
        return Ok(None);
    }
    let mut pos = 4usize;
    let Some(header_len) = get_u64(&prefix, &mut pos) else {
        return Ok(None);
    };
    // A header describes ≤ COLUMN_COUNT columns; anything huge is junk.
    if header_len == 0 || header_len > 4096 {
        return Ok(None);
    }
    let header_at = offset + pos as u64;
    let Some(header_and_crc) = read_at(file, header_at, header_len as usize + 4)? else {
        return Ok(None);
    };
    let (header, crc) = header_and_crc.split_at(header_len as usize);
    if crc32(header) != u32::from_le_bytes(crc.try_into().expect("4 crc bytes")) {
        return Ok(None);
    }
    let mut hpos = 0usize;
    let (Some(records), Some(ncols)) = (get_u64(header, &mut hpos), get_u64(header, &mut hpos))
    else {
        return Ok(None);
    };
    if records == 0 || records > u64::from(u32::MAX) || ncols != COLUMN_COUNT as u64 {
        return Ok(None);
    }
    let mut columns = Vec::with_capacity(COLUMN_COUNT);
    for _ in 0..COLUMN_COUNT {
        let (Some(raw), Some(comp)) = (get_u64(header, &mut hpos), get_u64(header, &mut hpos))
        else {
            return Ok(None);
        };
        if raw > u64::from(u32::MAX) || comp > u64::from(u32::MAX) {
            return Ok(None);
        }
        columns.push((raw as u32, comp as u32));
    }
    if hpos != header.len() {
        return Ok(None);
    }
    let meta = BlockMeta {
        offset,
        body_offset: header_at + header_len + 4,
        records: records as u32,
        columns,
    };
    if meta.end() > file_len {
        return Ok(None);
    }
    Ok(Some(meta))
}

/// Reads one block's body in a single pass and checks it against its
/// CRC. `Ok(None)` marks a body that fails its checksum or runs past
/// the end of the file; no reader decodes a byte of such a block.
pub(crate) fn read_body(file: &mut File, meta: &BlockMeta) -> io::Result<Option<Vec<u8>>> {
    let len = meta.body_bytes() as usize;
    let Some(mut body) = read_at(file, meta.body_offset, len + 4)? else {
        return Ok(None);
    };
    let crc = body.split_off(len);
    let ok = crc32(&body) == u32::from_le_bytes(crc.try_into().expect("4 crc bytes"));
    Ok(ok.then_some(body))
}

/// Decompresses the requested columns of a block body returned by
/// [`read_body`]; unrequested segments are never decompressed. `None`
/// marks a corrupt segment.
pub(crate) fn body_columns(meta: &BlockMeta, body: &[u8], cols: &[usize]) -> Option<Vec<Vec<u8>>> {
    cols.iter()
        .map(|&col| {
            let (at, comp_len) = meta.column_span(col);
            let at = (at - meta.body_offset) as usize;
            let segment = body.get(at..at + comp_len as usize)?;
            decompress(segment, meta.columns[col].0 as usize)
        })
        .collect()
}

/// Decodes the three key columns into per-row [`StoreKey`]s.
pub(crate) fn decode_keys(
    meta: &BlockMeta,
    fingerprint: &[u8],
    latency_bound: &[u8],
    budget_digest: &[u8],
) -> Option<Vec<StoreKey>> {
    let n = meta.records as usize;
    let fp = get_delta_column(fingerprint, n)?;
    let lat = get_delta_column(latency_bound, n)?;
    let dig = get_delta_column(budget_digest, n)?;
    (0..n)
        .map(|i| {
            Some(StoreKey {
                fingerprint: fp[i],
                latency_bound: u32::try_from(lat[i]).ok()?,
                budget_digest: dig[i],
            })
        })
        .collect()
}

/// Decodes all ten columns into full records. `None` on any
/// inconsistency between columns and the header's record count.
pub(crate) fn decode_records(meta: &BlockMeta, raws: &[Vec<u8>]) -> Option<Vec<StoreRecord>> {
    let n = meta.records as usize;
    let keys = decode_keys(
        meta,
        &raws[COL_FINGERPRINT],
        &raws[COL_LATENCY_BOUND],
        &raws[COL_BUDGET_DIGEST],
    )?;
    let feasible = &raws[COL_FEASIBLE];
    if feasible.len() != n || feasible.iter().any(|&b| b > 1) {
        return None;
    }
    let power = get_delta_column(&raws[COL_POWER_BOUND], n)?;
    let area = get_delta_column(&raws[COL_AREA], n)?;
    let latency = get_delta_column(&raws[COL_LATENCY], n)?;
    let peak = get_delta_column(&raws[COL_PEAK_POWER], n)?;
    let units = get_delta_column(&raws[COL_UNITS], n)?;
    let trace_col = &raws[COL_TRACE];
    let mut pos = 0usize;
    let mut trace_lens = Vec::with_capacity(n);
    for _ in 0..n {
        trace_lens.push(usize::try_from(get_u64(trace_col, &mut pos)?).ok()?);
    }
    let mut records = Vec::with_capacity(n);
    for i in 0..n {
        let trace = trace_col.get(pos..pos + trace_lens[i])?.to_vec();
        pos += trace_lens[i];
        records.push(StoreRecord {
            key: keys[i],
            feasible: feasible[i] == 1,
            power_bound_bits: power[i],
            area: area[i],
            latency: u32::try_from(latency[i]).ok()?,
            peak_power_bits: peak[i],
            units: units[i],
            trace,
        });
    }
    (pos == trace_col.len()).then_some(records)
}

/// Serializes the footer index over `blocks` (magic + varint body + CRC
/// + length + trailer magic), ready to append at the data end.
pub(crate) fn encode_footer(blocks: &[BlockMeta]) -> Vec<u8> {
    let mut body = Vec::new();
    put_u64(&mut body, blocks.len() as u64);
    for b in blocks {
        put_u64(&mut body, b.offset);
        put_u64(&mut body, b.body_offset - b.offset);
        put_u64(&mut body, u64::from(b.records));
        put_u64(&mut body, b.columns.len() as u64);
        for &(raw, comp) in &b.columns {
            put_u64(&mut body, u64::from(raw));
            put_u64(&mut body, u64::from(comp));
        }
    }
    let total: u64 = blocks.iter().map(|b| u64::from(b.records)).sum();
    put_u64(&mut body, total);

    let mut out = Vec::with_capacity(body.len() + 16);
    out.extend_from_slice(&FOOTER_MAGIC.to_le_bytes());
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&TRAILER_MAGIC.to_le_bytes());
    out
}

/// Attempts to load the footer index from the tail of a `file_len`-byte
/// file. `Ok(None)` — clean miss (torn or absent footer) — sends the
/// caller down the recovery scan.
pub(crate) fn read_footer(file: &mut File, file_len: u64) -> io::Result<Option<Vec<BlockMeta>>> {
    // trailer magic (4) + body length (4) + crc (4) + footer magic (4).
    if file_len < FILE_MAGIC.len() as u64 + 16 {
        return Ok(None);
    }
    let Some(tail) = read_at(file, file_len - 8, 8)? else {
        return Ok(None);
    };
    if tail[4..8] != TRAILER_MAGIC.to_le_bytes() {
        return Ok(None);
    }
    let body_len = u64::from(u32::from_le_bytes(tail[..4].try_into().expect("4 bytes")));
    let footer_start = match file_len.checked_sub(16 + body_len) {
        Some(s) if s >= FILE_MAGIC.len() as u64 => s,
        _ => return Ok(None),
    };
    let Some(footer) = read_at(file, footer_start, (body_len + 12) as usize)? else {
        return Ok(None);
    };
    if footer[..4] != FOOTER_MAGIC.to_le_bytes() {
        return Ok(None);
    }
    let body = &footer[4..4 + body_len as usize];
    let crc = u32::from_le_bytes(
        footer[4 + body_len as usize..8 + body_len as usize]
            .try_into()
            .expect("4 crc bytes"),
    );
    if crc32(body) != crc {
        return Ok(None);
    }

    let mut pos = 0usize;
    let Some(count) = get_u64(body, &mut pos) else {
        return Ok(None);
    };
    let mut blocks = Vec::new();
    for _ in 0..count {
        let (Some(offset), Some(prefix), Some(records), Some(ncols)) = (
            get_u64(body, &mut pos),
            get_u64(body, &mut pos),
            get_u64(body, &mut pos),
            get_u64(body, &mut pos),
        ) else {
            return Ok(None);
        };
        if ncols != COLUMN_COUNT as u64 || records == 0 || records > u64::from(u32::MAX) {
            return Ok(None);
        }
        let mut columns = Vec::with_capacity(COLUMN_COUNT);
        for _ in 0..COLUMN_COUNT {
            let (Some(raw), Some(comp)) = (get_u64(body, &mut pos), get_u64(body, &mut pos)) else {
                return Ok(None);
            };
            if raw > u64::from(u32::MAX) || comp > u64::from(u32::MAX) {
                return Ok(None);
            }
            columns.push((raw as u32, comp as u32));
        }
        let meta = BlockMeta {
            offset,
            body_offset: offset + prefix,
            records: records as u32,
            columns,
        };
        if meta.end() > footer_start {
            return Ok(None);
        }
        blocks.push(meta);
    }
    let total: u64 = blocks.iter().map(|b| u64::from(b.records)).sum();
    if get_u64(body, &mut pos) != Some(total) || pos != body.len() {
        return Ok(None);
    }
    Ok(Some(blocks))
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_record(i: u64) -> StoreRecord {
        StoreRecord {
            key: StoreKey {
                fingerprint: 0xdead_beef_0000 + i / 3,
                latency_bound: 10 + (i % 3) as u32,
                budget_digest: 0x1111_2222 + i % 5,
            },
            feasible: !i.is_multiple_of(4),
            power_bound_bits: (25.0 + i as f64).to_bits(),
            area: 100 + i * 7,
            latency: 9 + (i % 3) as u32,
            peak_power_bits: (20.0 + i as f64 / 2.0).to_bits(),
            units: 3 + i % 4,
            trace: (0..i % 11).map(|b| b as u8).collect(),
        }
    }

    fn temp_file(bytes: &[u8]) -> (std::path::PathBuf, File) {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "pchls-format-test-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, bytes).unwrap();
        let file = File::options().read(true).open(&path).unwrap();
        (path, file)
    }

    #[test]
    fn block_round_trips_through_bytes() {
        let records: Vec<StoreRecord> = (0..50).map(sample_record).collect();
        let (bytes, meta) = encode_block(&records, 8);
        assert_eq!(meta.end() - meta.offset, bytes.len() as u64);

        let mut file_bytes = FILE_MAGIC.to_vec();
        file_bytes.extend_from_slice(&bytes);
        let (path, mut file) = temp_file(&file_bytes);
        let parsed = parse_block_header(&mut file, 8, file_bytes.len() as u64)
            .unwrap()
            .expect("valid header");
        assert_eq!(parsed, meta);
        let body = read_body(&mut file, &parsed)
            .unwrap()
            .expect("body checksum");
        let all: Vec<usize> = (0..COLUMN_COUNT).collect();
        let raws = body_columns(&parsed, &body, &all).unwrap();
        let back = decode_records(&parsed, &raws).expect("decodable");
        assert_eq!(back, records);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn partial_reads_touch_only_requested_columns() {
        let records: Vec<StoreRecord> = (0..40).map(sample_record).collect();
        let (mut bytes, meta) = encode_block(&records, 8);

        // Corrupt the trace segment; key/area decodes must still succeed
        // because they never touch it.
        let (trace_at, trace_len) = meta.column_span(COL_TRACE);
        let trace_at = (trace_at - meta.offset) as usize;
        for b in &mut bytes[trace_at..trace_at + trace_len as usize] {
            *b ^= 0xff;
        }
        let body = &bytes[(meta.body_offset - meta.offset) as usize..bytes.len() - 4];
        let raws = body_columns(
            &meta,
            body,
            &[
                COL_FINGERPRINT,
                COL_LATENCY_BOUND,
                COL_BUDGET_DIGEST,
                COL_AREA,
            ],
        )
        .expect("untouched columns decode");
        let keys = decode_keys(&meta, &raws[0], &raws[1], &raws[2]).unwrap();
        assert_eq!(keys.len(), 40);
        assert_eq!(keys[7], records[7].key);
        let areas = get_delta_column(&raws[3], 40).unwrap();
        assert_eq!(areas[13], records[13].area);
        // The corrupted column itself is rejected cleanly.
        assert_eq!(body_columns(&meta, body, &[COL_TRACE]), None);
    }

    #[test]
    fn footer_round_trips_and_rejects_corruption() {
        let blocks: Vec<BlockMeta> = (0..3)
            .map(|i| {
                let records: Vec<StoreRecord> = (0..10 + i).map(sample_record).collect();
                encode_block(&records, 8 + i * 1000).1
            })
            .collect();
        let footer = encode_footer(&blocks);
        let mut file_bytes = vec![0u8; 8 + 3000];
        file_bytes[..8].copy_from_slice(FILE_MAGIC);
        file_bytes.extend_from_slice(&footer);
        let (path, mut file) = temp_file(&file_bytes);
        let loaded = read_footer(&mut file, file_bytes.len() as u64)
            .unwrap()
            .expect("clean footer");
        assert_eq!(loaded, blocks);
        drop(file);

        // Any single corrupted footer byte must fail closed to a scan.
        let footer_start = file_bytes.len() - footer.len();
        for i in (footer_start..file_bytes.len()).step_by(7) {
            let mut corrupt = file_bytes.clone();
            corrupt[i] ^= 0x40;
            let (p2, mut f2) = temp_file(&corrupt);
            assert_eq!(
                read_footer(&mut f2, corrupt.len() as u64).unwrap(),
                None,
                "corruption at byte {i} accepted"
            );
            drop(f2);
            std::fs::remove_file(p2).unwrap();
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn record_converts_to_the_exact_sweep_point() {
        let point = SweepPoint {
            benchmark: "hal".into(),
            latency_bound: 17,
            power_bound: 25.0,
            area: Some(609),
            latency: Some(16),
            peak_power: Some(24.7),
            units: Some(6),
        };
        let key = StoreKey {
            fingerprint: 42,
            latency_bound: 17,
            budget_digest: 7,
        };
        let rec = StoreRecord::from_point(key, &point, vec![1, 2, 3]);
        assert_eq!(rec.to_point("hal"), point);

        let infeasible = SweepPoint {
            area: None,
            latency: None,
            peak_power: None,
            units: None,
            ..point
        };
        let rec = StoreRecord::from_point(key, &infeasible, Vec::new());
        assert!(!rec.feasible);
        assert_eq!(rec.to_point("hal"), infeasible);
    }

    #[test]
    fn trace_round_trips_schedule_starts() {
        let schedule = Schedule::new(vec![0, 0, 1, 3, 3, 7, 2]);
        let bytes = trace_bytes(&schedule);
        assert_eq!(trace_starts(&bytes), Some(vec![0, 0, 1, 3, 3, 7, 2]));
        assert_eq!(trace_starts(&bytes[..bytes.len() - 1]), None, "truncated");
        assert_eq!(trace_starts(&[]), None);
    }
}
