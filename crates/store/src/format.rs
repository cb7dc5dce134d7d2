//! The on-disk format: records, row blocks and the footer index.
//!
//! A store file is the file magic, a sequence of self-delimiting,
//! individually checksummed **blocks**, and a **footer index** listing
//! every block, so an open needs no scan:
//!
//! ```text
//! ┌───────────┬───────┬───────┬─────┬─────────────────────────────┐
//! │ "PCHSTO3" │ block │ block │ ... │ footer  crc  len  "PCEN"    │
//! └───────────┴───────┴───────┴─────┴─────────────────────────────┘
//! ```
//!
//! Each block holds one batch of [`StoreRecord`]s as **rows**, one
//! after another. A row is the record's fixed-width little-endian
//! fields, then a varint trace length and the trace bytes:
//!
//! ```text
//! block  := "PCBK" records:u32 body_len:u32 crc32(records body_len) body crc32(body)
//! row    := fingerprint:u64 latency_bound:u32 budget_digest:u64 feasible:u8
//!           power_bound:u64 area:u64 latency:u32 peak_power:u64 units:u64
//!           trace_len:varint trace
//! footer := "PCFT" count (offset records body_len)×count       (varints)
//! ```
//!
//! Corruption handling: the footer is written on flush, *after* its
//! blocks, and carries its own CRC; a reader that finds the trailer
//! missing or mismatched (a crash mid-append) falls back to scanning
//! blocks from the front, keeping every block whose header and body
//! CRCs verify and dropping the torn tail. Committed records are never
//! lost; a partially written block is never served. Every reader goes
//! through [`read_block`], which checks a block's magic, header CRC,
//! header fields and body CRC before decoding any of its rows.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};

use pchls_cdfg::{graph_fingerprint, Cdfg};
use pchls_core::{SweepPoint, SynthesisConstraints};
use pchls_sched::Schedule;

use crate::crc::crc32;
use crate::varint::{get_delta_column, get_u64, put_delta_column, put_u64};

/// First bytes of every store file (format version 3 baked in).
///
/// Format 3 has format 2's layout. It exists because a format-2 file
/// holds `peak_power` values summed in `f64` (`8.100000000000001`),
/// while a cold run now reports the exact quanta sum (`8.1`); serving
/// the old bits would break "a store answer equals a cold run byte for
/// byte", so a format-2 file is refused like a format-1 one.
pub(crate) const FILE_MAGIC: &[u8; 8] = b"PCHSTO3\n";
/// Leads every block.
pub(crate) const BLOCK_MAGIC: u32 = u32::from_le_bytes(*b"PCBK");
/// Leads the footer.
pub(crate) const FOOTER_MAGIC: u32 = u32::from_le_bytes(*b"PCFT");
/// Last four bytes of a cleanly flushed file.
pub(crate) const TRAILER_MAGIC: u32 = u32::from_le_bytes(*b"PCEN");

/// Block magic, record count, body length and the header CRC.
const BLOCK_HEADER_LEN: u64 = 16;
/// The smallest row: the fixed fields plus a one-byte zero trace length.
const MIN_ROW_LEN: u64 = 8 + 4 + 8 + 1 + 8 + 8 + 4 + 8 + 8 + 1;

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

/// Encodes a schedule as a record's trace: the operation count, then
/// every start cycle in operation order (delta/zigzag varints —
/// schedules are near-sorted, so this is small).
#[must_use]
pub fn trace_bytes(schedule: &Schedule) -> Vec<u8> {
    let starts = schedule.starts();
    let mut out = Vec::with_capacity(starts.len() + 4);
    put_u64(&mut out, starts.len() as u64);
    let words: Vec<u64> = starts.iter().map(|&s| u64::from(s)).collect();
    put_delta_column(&mut out, &words);
    out
}

/// Decodes a trace back into start cycles. `None` for malformed
/// bytes (including any start exceeding `u32`).
#[must_use]
pub fn trace_starts(bytes: &[u8]) -> Option<Vec<u32>> {
    let mut pos = 0usize;
    let count = usize::try_from(get_u64(bytes, &mut pos)?).ok()?;
    let words = get_delta_column(&bytes[pos..], count)?;
    words.iter().map(|&w| u32::try_from(w).ok()).collect()
}

/// Where one block lives and how big it is: everything a reader needs
/// to address it without re-reading its header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockMeta {
    /// File offset of the block magic.
    pub offset: u64,
    /// Records (rows) in this block.
    pub records: u32,
    /// Bytes of rows between the header and the body CRC.
    pub body_len: u32,
}

impl BlockMeta {
    /// Checks a block's header fields: at least one record, and a body
    /// long enough to hold that many rows. `None` marks junk.
    fn new(offset: u64, records: u64, body_len: u64) -> Option<BlockMeta> {
        let plausible = records > 0
            && body_len <= u64::from(u32::MAX)
            && records
                .checked_mul(MIN_ROW_LEN)
                .is_some_and(|min| min <= body_len);
        plausible.then_some(BlockMeta {
            offset,
            records: records as u32,
            body_len: body_len as u32,
        })
    }

    /// File offset one past this block (after the body CRC).
    pub(crate) fn end(&self) -> u64 {
        self.offset + BLOCK_HEADER_LEN + u64::from(self.body_len) + 4
    }
}

/// Serializes `records` into one block placed at file offset `offset`;
/// returns the bytes and the matching metadata.
///
/// # Panics
///
/// Panics on an empty batch — callers gate this (an empty block would
/// be indistinguishable from padding) — or on rows past 4 GiB.
pub(crate) fn encode_block(records: &[StoreRecord], offset: u64) -> (Vec<u8>, BlockMeta) {
    assert!(!records.is_empty(), "blocks hold at least one record");
    let mut body = Vec::with_capacity(records.len() * MIN_ROW_LEN as usize);
    for r in records {
        put_row(&mut body, r);
    }
    let meta = BlockMeta::new(offset, records.len() as u64, body.len() as u64)
        .expect("a block's rows fit in 4 GiB");
    let mut header = meta.records.to_le_bytes().to_vec();
    header.extend_from_slice(&meta.body_len.to_le_bytes());

    let mut bytes = Vec::with_capacity(BLOCK_HEADER_LEN as usize + body.len() + 4);
    bytes.extend_from_slice(&BLOCK_MAGIC.to_le_bytes());
    bytes.extend_from_slice(&header);
    bytes.extend_from_slice(&crc32(&header).to_le_bytes());
    bytes.extend_from_slice(&body);
    bytes.extend_from_slice(&crc32(&body).to_le_bytes());
    (bytes, meta)
}

fn put_row(out: &mut Vec<u8>, r: &StoreRecord) {
    out.extend_from_slice(&r.key.fingerprint.to_le_bytes());
    out.extend_from_slice(&r.key.latency_bound.to_le_bytes());
    out.extend_from_slice(&r.key.budget_digest.to_le_bytes());
    out.push(u8::from(r.feasible));
    out.extend_from_slice(&r.power_bound_bits.to_le_bytes());
    out.extend_from_slice(&r.area.to_le_bytes());
    out.extend_from_slice(&r.latency.to_le_bytes());
    out.extend_from_slice(&r.peak_power_bits.to_le_bytes());
    out.extend_from_slice(&r.units.to_le_bytes());
    put_u64(out, r.trace.len() as u64);
    out.extend_from_slice(&r.trace);
}

/// The next `N` bytes of `bytes[*pos..]`, advancing `pos`.
fn take<const N: usize>(bytes: &[u8], pos: &mut usize) -> Option<[u8; N]> {
    let chunk = bytes.get(*pos..)?.get(..N)?.try_into().ok()?;
    *pos += N;
    Some(chunk)
}

fn decode_row(body: &[u8], pos: &mut usize) -> Option<StoreRecord> {
    let fingerprint = u64::from_le_bytes(take(body, pos)?);
    let latency_bound = u32::from_le_bytes(take(body, pos)?);
    let budget_digest = u64::from_le_bytes(take(body, pos)?);
    let feasible = match take(body, pos)? {
        [0] => false,
        [1] => true,
        _ => return None,
    };
    let power_bound_bits = u64::from_le_bytes(take(body, pos)?);
    let area = u64::from_le_bytes(take(body, pos)?);
    let latency = u32::from_le_bytes(take(body, pos)?);
    let peak_power_bits = u64::from_le_bytes(take(body, pos)?);
    let units = u64::from_le_bytes(take(body, pos)?);
    let trace_len = usize::try_from(get_u64(body, pos)?).ok()?;
    let trace = body.get(*pos..)?.get(..trace_len)?.to_vec();
    *pos += trace_len;
    Some(StoreRecord {
        key: StoreKey {
            fingerprint,
            latency_bound,
            budget_digest,
        },
        feasible,
        power_bound_bits,
        area,
        latency,
        peak_power_bits,
        units,
        trace,
    })
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

/// The block header `header` (its 16 bytes) read at `offset`: `None`
/// unless its magic and CRC hold and its fields are plausible.
fn decode_header(header: &[u8], offset: u64) -> Option<BlockMeta> {
    let word = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4 bytes"));
    if word(0) != BLOCK_MAGIC || word(12) != crc32(&header[4..12]) {
        return None;
    }
    BlockMeta::new(offset, word(4).into(), word(8).into())
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
    if offset + BLOCK_HEADER_LEN > file_len {
        return Ok(None);
    }
    let Some(header) = read_at(file, offset, BLOCK_HEADER_LEN as usize)? else {
        return Ok(None);
    };
    Ok(decode_header(&header, offset).filter(|m| m.end() <= file_len))
}

/// Reads the block `meta` addresses in a single pass and checks it
/// whole — magic, header CRC, header fields equal to `meta`'s, body
/// CRC — before decoding its rows. `Ok(None)` marks a block that fails
/// a check, runs past the end of the file or does not decode; no reader
/// sees a row of such a block.
pub(crate) fn read_block(
    file: &mut File,
    meta: &BlockMeta,
) -> io::Result<Option<Vec<StoreRecord>>> {
    let len = meta.body_len as usize;
    let Some(bytes) = read_at(file, meta.offset, BLOCK_HEADER_LEN as usize + len + 4)? else {
        return Ok(None);
    };
    let (header, rest) = bytes.split_at(BLOCK_HEADER_LEN as usize);
    if decode_header(header, meta.offset) != Some(*meta) {
        return Ok(None);
    }
    let (body, crc) = rest.split_at(len);
    if crc32(body) != u32::from_le_bytes(crc.try_into().expect("4 crc bytes")) {
        return Ok(None);
    }
    let mut pos = 0usize;
    let rows: Option<Vec<StoreRecord>> = (0..meta.records)
        .map(|_| decode_row(body, &mut pos))
        .collect();
    Ok(rows.filter(|_| pos == body.len()))
}

/// Serializes the footer index over `blocks` (magic + varint body + CRC
/// + length + trailer magic), ready to append at the data end.
pub(crate) fn encode_footer(blocks: &[BlockMeta]) -> Vec<u8> {
    let mut body = Vec::new();
    put_u64(&mut body, blocks.len() as u64);
    for b in blocks {
        put_u64(&mut body, b.offset);
        put_u64(&mut body, u64::from(b.records));
        put_u64(&mut body, u64::from(b.body_len));
    }

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
        let (Some(offset), Some(records), Some(body_len)) = (
            get_u64(body, &mut pos),
            get_u64(body, &mut pos),
            get_u64(body, &mut pos),
        ) else {
            return Ok(None);
        };
        match BlockMeta::new(offset, records, body_len) {
            Some(meta) if meta.end() <= footer_start => blocks.push(meta),
            _ => return Ok(None),
        }
    }
    Ok((pos == body.len()).then_some(blocks))
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
        let back = read_block(&mut file, &parsed)
            .unwrap()
            .expect("body checksum and rows");
        assert_eq!(back, records);
        std::fs::remove_file(path).unwrap();
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
