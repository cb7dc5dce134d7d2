//! The [`Store`] handle: open/recover, append, indexed lookups, scans,
//! `stat`/`verify`/`compact`.

use std::collections::HashMap;
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crate::format::{
    encode_block, encode_footer, parse_block_header, read_at, read_block, read_footer, BlockMeta,
    StoreKey, StoreRecord, FILE_MAGIC,
};

/// Name of the store file inside a store directory.
pub const STORE_FILE_NAME: &str = "results.pchls";

/// Records per block written by [`Store::compact`] (appends write the
/// caller's batch as one block, whatever its size).
const COMPACT_BLOCK_RECORDS: usize = 512;

/// A size/health snapshot of a store (the `pchls store stat` payload).
#[derive(Debug, Clone, PartialEq)]
pub struct StoreStat {
    /// Blocks on disk.
    pub blocks: usize,
    /// Total records, including superseded duplicates.
    pub records: u64,
    /// Records reachable through the key index (last write per key).
    pub live_records: u64,
    /// Size of the store file in bytes.
    pub file_bytes: u64,
    /// Whether the last open had to recover by scanning (torn footer).
    pub recovered: bool,
}

/// Handles into the process-wide metrics registry, resolved once per
/// store open so the hot paths record without touching the registry
/// lock.
#[derive(Debug, Clone)]
struct StoreObs {
    read: Arc<pchls_obs::Histogram>,
    append: Arc<pchls_obs::Histogram>,
    compact: Arc<pchls_obs::Histogram>,
}

impl StoreObs {
    fn new() -> StoreObs {
        let global = pchls_obs::global();
        StoreObs {
            read: global.histogram("pchls_store_read_seconds"),
            append: global.histogram("pchls_store_append_seconds"),
            compact: global.histogram("pchls_store_compact_seconds"),
        }
    }
}

/// A persistent, append-only result store (see the crate docs for the
/// format). One handle owns the file; share across threads behind a
/// `Mutex` (lookups mutate the block cache, so methods take `&mut`).
#[derive(Debug)]
pub struct Store {
    file: File,
    path: PathBuf,
    blocks: Vec<BlockMeta>,
    /// key → (block, row) of the *last* write for that key.
    index: HashMap<StoreKey, (u32, u32)>,
    /// The block the last [`Store::get`] decoded, kept for the next
    /// lookup. One block at most: a long-running server keeps its
    /// answers in its own bounded tiers, not here.
    cached: Option<(u32, Vec<StoreRecord>)>,
    /// Where the next block (and the footer) begins.
    data_end: u64,
    /// Blocks appended since the footer was last written.
    dirty: bool,
    recovered: bool,
    /// The first block that failed its checks ([`read_block`]) when the
    /// index was built. While set, lookups refuse to answer: the block's
    /// keys, and any older records it superseded, cannot be trusted.
    corrupt: Option<u32>,
    obs: StoreObs,
}

impl Store {
    /// Opens (creating as needed) the store under directory `dir`.
    ///
    /// A torn file — crash between an append and its footer flush — is
    /// recovered by scanning: every block whose checksums verify is
    /// kept, the torn tail is ignored, and the next append overwrites
    /// it.
    ///
    /// # Errors
    ///
    /// I/O failures, or a file that is not a pchls store at all.
    pub fn open(dir: &Path) -> io::Result<Store> {
        std::fs::create_dir_all(dir)?;
        Store::open_file(dir.join(STORE_FILE_NAME))
    }

    /// Opens a store by explicit file path (the directory form
    /// [`Store::open`] is what the CLI and serve expose).
    ///
    /// # Errors
    ///
    /// As [`Store::open`].
    pub(crate) fn open_file(path: PathBuf) -> io::Result<Store> {
        let mut file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let file_len = file.metadata()?.len();
        if file_len == 0 {
            let mut store = Store {
                file,
                path,
                blocks: Vec::new(),
                index: HashMap::new(),
                cached: None,
                data_end: FILE_MAGIC.len() as u64,
                dirty: false,
                recovered: false,
                corrupt: None,
                obs: StoreObs::new(),
            };
            use std::io::{Seek, SeekFrom, Write};
            store.file.seek(SeekFrom::Start(0))?;
            store.file.write_all(FILE_MAGIC)?;
            store.write_footer()?;
            return Ok(store);
        }
        let magic = read_at(&mut file, 0, FILE_MAGIC.len())?;
        if magic.as_deref() != Some(FILE_MAGIC.as_slice()) {
            let what = match magic.as_deref() {
                Some([b'P', b'C', b'H', b'S', b'T', b'O', version, b'\n']) => format!(
                    "a format-{} pchls store; this build reads format 3 only \
                     (delete it, the results recompute)",
                    char::from(*version)
                ),
                _ => "not a pchls store".to_owned(),
            };
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} is {what}", path.display()),
            ));
        }

        let (blocks, recovered) = match read_footer(&mut file, file_len)? {
            Some(blocks) => (blocks, false),
            None => (scan_blocks(&mut file, file_len)?, true),
        };
        let mut store = Store {
            file,
            path,
            data_end: blocks
                .last()
                .map_or(FILE_MAGIC.len() as u64, BlockMeta::end),
            blocks,
            index: HashMap::new(),
            cached: None,
            dirty: recovered,
            recovered,
            corrupt: None,
            obs: StoreObs::new(),
        };
        store.build_index()?;
        Ok(store)
    }

    /// Path of the underlying store file.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of live records (distinct keys).
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether a record for `key` is present.
    #[must_use]
    pub fn contains(&self, key: &StoreKey) -> bool {
        self.index.contains_key(key)
    }

    /// Whether the last open recovered from a torn footer by scanning.
    #[must_use]
    pub fn recovered(&self) -> bool {
        self.recovered
    }

    /// The record stored under `key` (the last one appended for it).
    ///
    /// # Errors
    ///
    /// I/O failures, or a block of this store that fails its header or
    /// body checks (`verify` names it).
    pub fn get(&mut self, key: &StoreKey) -> io::Result<Option<StoreRecord>> {
        if let Some(block) = self.corrupt {
            return Err(corrupt_block(block));
        }
        let Some(&(block, row)) = self.index.get(key) else {
            return Ok(None);
        };
        let start = Instant::now();
        let _span = pchls_obs::span!("store.read");
        let cached = match self.cached.take() {
            Some((b, records)) if b == block => records,
            _ => self.read_block_records(block)?,
        };
        let record = cached[row as usize].clone();
        self.cached = Some((block, cached));
        self.obs.read.record(start.elapsed());
        Ok(Some(record))
    }

    /// Appends one batch of records as a new block and indexes them
    /// (later appends supersede earlier records with equal keys). The
    /// footer is *not* rewritten — call [`Store::flush`] to commit it;
    /// until then a crash costs only this append (recovery re-scans).
    ///
    /// # Errors
    ///
    /// I/O failures; the store is unchanged logically (a torn block is
    /// invisible to the next open).
    pub fn append(&mut self, records: &[StoreRecord]) -> io::Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let start = Instant::now();
        let mut span = pchls_obs::span!("store.append");
        span.arg("records", records.len());
        use std::io::{Seek, SeekFrom, Write};
        let (bytes, meta) = encode_block(records, self.data_end);
        self.file.seek(SeekFrom::Start(self.data_end))?;
        self.file.write_all(&bytes)?;
        let block = self.blocks.len() as u32;
        for (row, r) in records.iter().enumerate() {
            self.index.insert(r.key, (block, row as u32));
        }
        self.data_end = meta.end();
        self.blocks.push(meta);
        self.dirty = true;
        self.obs.append.record(start.elapsed());
        Ok(())
    }

    /// Rewrites the footer index and truncates any stale tail, making
    /// the current contents instantly loadable (no recovery scan).
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.dirty {
            return Ok(());
        }
        self.write_footer()?;
        self.dirty = false;
        self.recovered = false;
        Ok(())
    }

    fn write_footer(&mut self) -> io::Result<()> {
        use std::io::{Seek, SeekFrom, Write};
        let footer = encode_footer(&self.blocks);
        self.file.seek(SeekFrom::Start(self.data_end))?;
        self.file.write_all(&footer)?;
        self.file.set_len(self.data_end + footer.len() as u64)?;
        self.file.sync_data()
    }

    /// Every live record, in file order of its winning write. The full
    /// "warm read" path: every block is read and decoded, without
    /// populating the lookup cache (so repeated calls measure disk +
    /// decode, not a memoized copy).
    ///
    /// # Errors
    ///
    /// As [`Store::get`].
    pub fn scan_records(&mut self) -> io::Result<Vec<StoreRecord>> {
        let mut out = Vec::with_capacity(self.index.len());
        for block in 0..self.blocks.len() as u32 {
            let records = self.read_block_records(block)?;
            for (row, record) in records.into_iter().enumerate() {
                if self.index.get(&record.key) == Some(&(block, row as u32)) {
                    out.push(record);
                }
            }
        }
        Ok(out)
    }

    /// Size accounting from the block index (no block bodies are read).
    ///
    /// # Errors
    ///
    /// I/O failure querying the file length.
    pub fn stat(&self) -> io::Result<StoreStat> {
        Ok(StoreStat {
            blocks: self.blocks.len(),
            records: self.blocks.iter().map(|b| u64::from(b.records)).sum(),
            live_records: self.index.len() as u64,
            file_bytes: self.file.metadata()?.len(),
            recovered: self.recovered,
        })
    }

    /// Full integrity pass: re-scans every block from the front
    /// (header CRC, body CRC, full row decode), cross-checks the
    /// result against the in-memory index, and — when the store is
    /// clean — against the on-disk footer.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first inconsistency.
    pub fn verify(&mut self) -> Result<StoreStat, String> {
        let io_err = |e: io::Error| format!("i/o error during verify: {e}");
        let file_len = self.file.metadata().map_err(io_err)?.len();
        let mut scanned: Vec<BlockMeta> = Vec::new();
        let mut records = 0u64;
        let mut index: HashMap<StoreKey, (u32, u32)> = HashMap::new();
        let mut pos = FILE_MAGIC.len() as u64;
        while let Some(meta) = parse_block_header(&mut self.file, pos, file_len).map_err(io_err)? {
            let block = scanned.len() as u32;
            let Some(decoded) = read_block(&mut self.file, &meta).map_err(io_err)? else {
                return Err(format!(
                    "block {block} body fails its checksum or does not decode"
                ));
            };
            for (row, r) in decoded.iter().enumerate() {
                index.insert(r.key, (block, row as u32));
            }
            records += u64::from(meta.records);
            pos = meta.end();
            scanned.push(meta);
        }
        if scanned != self.blocks {
            return Err(format!(
                "index mismatch: footer lists {} block(s), a clean scan finds {}",
                self.blocks.len(),
                scanned.len()
            ));
        }
        if index != self.index {
            return Err("key index does not round-trip through a rescan".into());
        }
        if !self.dirty {
            match read_footer(&mut self.file, file_len).map_err(io_err)? {
                Some(footer_blocks) if footer_blocks == scanned => {}
                Some(_) => return Err("footer disagrees with the scanned blocks".into()),
                None => return Err("flushed store has no readable footer".into()),
            }
        }
        let mut stat = self.stat().map_err(io_err)?;
        stat.records = records;
        Ok(stat)
    }

    /// Drops superseded duplicate records by rewriting the file with
    /// only the live ones (atomic: written beside the store, then
    /// renamed over it). Returns how many records were dropped.
    ///
    /// # Errors
    ///
    /// I/O failures; the original file is left untouched on error.
    pub fn compact(&mut self) -> io::Result<u64> {
        let start = Instant::now();
        let _span = pchls_obs::span!("store.compact");
        let live = self.scan_records()?;
        let before: u64 = self.blocks.iter().map(|b| u64::from(b.records)).sum();
        let dropped = before - live.len() as u64;

        let mut bytes = FILE_MAGIC.to_vec();
        let mut blocks = Vec::new();
        for chunk in live.chunks(COMPACT_BLOCK_RECORDS) {
            let (block_bytes, meta) = encode_block(chunk, bytes.len() as u64);
            bytes.extend_from_slice(&block_bytes);
            blocks.push(meta);
        }
        bytes.extend_from_slice(&encode_footer(&blocks));

        let tmp = self.path.with_extension("pchls.tmp");
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, &self.path)?;
        *self = Store::open_file(std::mem::take(&mut self.path))?;
        self.obs.compact.record(start.elapsed());
        Ok(dropped)
    }

    fn read_block_records(&mut self, block: u32) -> io::Result<Vec<StoreRecord>> {
        let meta = self.blocks[block as usize];
        read_block(&mut self.file, &meta)?.ok_or_else(|| corrupt_block(block))
    }

    /// Builds the key index by checking every block whole ([`read_block`])
    /// and decoding its rows. A block that fails a check is not indexed;
    /// it marks the store corrupt instead.
    fn build_index(&mut self) -> io::Result<()> {
        for block in 0..self.blocks.len() as u32 {
            let Some(records) = read_block(&mut self.file, &self.blocks[block as usize])? else {
                self.corrupt.get_or_insert(block);
                continue;
            };
            for (row, r) in records.iter().enumerate() {
                self.index.insert(r.key, (block, row as u32));
            }
        }
        Ok(())
    }
}

impl Drop for Store {
    /// Best-effort footer flush — an unflushed store is still fully
    /// recoverable, just slower to open.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

fn corrupt_block(block: u32) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("store block {block} is corrupt (run `pchls store verify`)"),
    )
}

/// Sequentially scans blocks from the front, keeping every block whose
/// header and body checksums verify and stopping at the first that does
/// not — the recovery path for torn files.
fn scan_blocks(file: &mut File, file_len: u64) -> io::Result<Vec<BlockMeta>> {
    let mut blocks = Vec::new();
    let mut pos = FILE_MAGIC.len() as u64;
    while let Some(meta) = parse_block_header(file, pos, file_len)? {
        if read_block(file, &meta)?.is_none() {
            break;
        }
        pos = meta.end();
        blocks.push(meta);
    }
    Ok(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pchls-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn record(fp: u64, latency: u32, digest: u64, area: u64) -> StoreRecord {
        StoreRecord {
            key: StoreKey {
                fingerprint: fp,
                latency_bound: latency,
                budget_digest: digest,
            },
            feasible: area != 0,
            power_bound_bits: (area as f64 / 10.0).to_bits(),
            area,
            latency: latency.saturating_sub(1),
            peak_power_bits: (area as f64 / 11.0).to_bits(),
            units: area % 7,
            trace: vec![area as u8; (area % 5) as usize],
        }
    }

    #[test]
    fn empty_store_round_trips() {
        let dir = temp_dir("empty");
        {
            let store = Store::open(&dir).unwrap();
            assert!(store.is_empty());
        }
        let mut store = Store::open(&dir).unwrap();
        assert_eq!(store.len(), 0);
        assert!(!store.recovered());
        assert_eq!(store.scan_records().unwrap(), Vec::new());
        let stat = store.verify().unwrap();
        assert_eq!((stat.blocks, stat.records), (0, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_flush_reopen_get() {
        let dir = temp_dir("roundtrip");
        let records: Vec<StoreRecord> = (0..30)
            .map(|i| record(i / 5, 10 + (i % 5) as u32, 7, 100 + i))
            .collect();
        {
            let mut store = Store::open(&dir).unwrap();
            store.append(&records[..20]).unwrap();
            store.append(&records[20..]).unwrap();
            store.flush().unwrap();
        }
        let mut store = Store::open(&dir).unwrap();
        assert!(!store.recovered(), "flushed store loads via footer");
        assert_eq!(store.len(), 30);
        for r in &records {
            assert_eq!(store.get(&r.key).unwrap().as_ref(), Some(r));
        }
        assert!(store
            .get(&StoreKey {
                fingerprint: 999,
                latency_bound: 1,
                budget_digest: 1
            })
            .unwrap()
            .is_none());
        let stat = store.verify().unwrap();
        assert_eq!((stat.blocks, stat.records, stat.live_records), (2, 30, 30));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unflushed_appends_are_recovered_by_scanning() {
        let dir = temp_dir("unflushed");
        let records: Vec<StoreRecord> = (0..10).map(|i| record(1, 10 + i as u32, 3, 50)).collect();
        {
            let mut store = Store::open(&dir).unwrap();
            store.append(&records).unwrap();
            // Drop flushes; simulate the crash by truncating the footer
            // off afterwards.
        }
        let path = dir.join(STORE_FILE_NAME);
        let bytes = std::fs::read(&path).unwrap();
        // Chop increasing amounts of the footer off; every prefix that
        // still contains the full block must recover all 10 records.
        let footer_len = crate::format::encode_footer(&[]).len(); // minimum footer size
        assert!(footer_len >= 16);
        for cut in 1..=footer_len {
            std::fs::write(&path, &bytes[..bytes.len() - cut]).unwrap();
            let mut store = Store::open(&dir).unwrap();
            assert!(store.recovered(), "cut {cut} must force a scan");
            assert_eq!(store.len(), 10, "cut {cut}");
            assert_eq!(store.scan_records().unwrap().len(), 10);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn later_appends_supersede_and_compact_drops_them() {
        let dir = temp_dir("supersede");
        let mut store = Store::open(&dir).unwrap();
        store
            .append(&[record(5, 10, 1, 100), record(6, 10, 1, 200)])
            .unwrap();
        store.append(&[record(5, 10, 1, 150)]).unwrap(); // supersedes
        assert_eq!(store.len(), 2);
        assert_eq!(
            store.get(&record(5, 10, 1, 0).key).unwrap().unwrap().area,
            150
        );
        let scanned = store.scan_records().unwrap();
        assert_eq!(scanned.len(), 2, "scan sees live records only");
        assert_eq!(store.stat().unwrap().records, 3, "one superseded on disk");

        let dropped = store.compact().unwrap();
        assert_eq!(dropped, 1);
        assert_eq!(store.len(), 2);
        assert_eq!(store.stat().unwrap().records, 2);
        assert_eq!(
            store.get(&record(5, 10, 1, 0).key).unwrap().unwrap().area,
            150
        );
        store.verify().unwrap();

        // And the compacted file reloads cleanly.
        drop(store);
        let mut store = Store::open(&dir).unwrap();
        assert_eq!(store.len(), 2);
        store.verify().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn alien_file_is_rejected() {
        let dir = temp_dir("alien");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(STORE_FILE_NAME), b"definitely not a store file").unwrap();
        let err = Store::open(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An older-format file is refused with `InvalidData` naming its
    /// version, and left untouched.
    fn assert_refused_by_version(version: u8) {
        let dir = temp_dir(&format!("format{version}"));
        std::fs::create_dir_all(&dir).unwrap();
        let mut bytes = format!("PCHSTO{version}\n").into_bytes();
        bytes.extend_from_slice(&[0; 64]);
        std::fs::write(dir.join(STORE_FILE_NAME), &bytes).unwrap();
        let err = Store::open(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains(&format!("format-{version}")),
            "{err}"
        );
        assert_eq!(std::fs::read(dir.join(STORE_FILE_NAME)).unwrap(), bytes);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn format_1_file_is_refused_naming_its_version() {
        assert_refused_by_version(1);
    }

    #[test]
    fn format_2_file_is_refused_naming_its_version() {
        assert_refused_by_version(2);
    }

    #[test]
    fn lookups_cache_one_block_and_appends_leave_it_alone() {
        let dir = temp_dir("cache");
        let mut store = Store::open(&dir).unwrap();
        let cached_block = |store: &Store| store.cached.as_ref().map(|(block, _)| *block);
        let big: Vec<StoreRecord> = (0..40)
            .map(|i| record(1, 10 + i, 2, 100 + u64::from(i)))
            .collect();
        store.append(&big).unwrap();
        assert_eq!(cached_block(&store), None, "appends do not fill the cache");
        for (i, old) in big.iter().enumerate() {
            assert_eq!(store.get(&old.key).unwrap().as_ref(), Some(old));
            assert_eq!(cached_block(&store), Some(0));
            let small = record(2, 10, i as u64, 200 + i as u64);
            store.append(std::slice::from_ref(&small)).unwrap();
            assert_eq!(cached_block(&store), Some(0), "an append keeps the cache");
            assert_eq!(store.get(&small.key).unwrap(), Some(small));
            assert_eq!(cached_block(&store), Some(i as u32 + 1));
            assert_eq!(store.cached.as_ref().unwrap().1.len(), 1);
        }
        assert_eq!(store.stat().unwrap().blocks, 41);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_block_with_a_corrupt_header_is_refused() {
        // One bit of the second block's magic flipped: the footer still
        // lists the block and its body still passes its CRC.
        let dir = temp_dir("header");
        let (a, b) = (record(1, 10, 1, 100), record(2, 10, 1, 200));
        let second = {
            let mut store = Store::open(&dir).unwrap();
            store.append(std::slice::from_ref(&a)).unwrap();
            store.append(std::slice::from_ref(&b)).unwrap();
            store.flush().unwrap();
            store.blocks[1].offset as usize
        };
        let path = dir.join(STORE_FILE_NAME);
        let mut bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[second..second + 4], b"PCBK");
        bytes[second] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        let mut store = Store::open(&dir).unwrap();
        for r in [&a, &b] {
            assert!(store.get(&r.key).is_err(), "a lookup was answered");
        }
        assert!(store.compact().is_err(), "compact rewrote a corrupt block");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            bytes,
            "compact touched the file"
        );
        assert!(store.verify().is_err());
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The exact bytes of a flushed 3-record, 2-block store. A change to
    /// the layout shows up here first; bless it on purpose with
    /// `PCHLS_BLESS_GOLDEN=1 cargo test -p pchls-store format_3_bytes`.
    #[test]
    fn format_3_bytes_match_the_golden() {
        let dir = temp_dir("golden");
        {
            let mut store = Store::open(&dir).unwrap();
            store
                .append(&[
                    record(0xfeed, 17, 0xbeef, 609),
                    record(0xfeed, 10, 0xbeef, 0),
                ])
                .unwrap();
            store.append(&[record(0xcafe, 12, 0xd00d, 1548)]).unwrap();
            store.flush().unwrap();
        }
        let bytes = std::fs::read(dir.join(STORE_FILE_NAME)).unwrap();
        let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/format3.bin");
        if std::env::var_os("PCHLS_BLESS_GOLDEN").is_some() {
            std::fs::write(&golden, &bytes).unwrap();
        }
        assert_eq!(
            bytes,
            std::fs::read(&golden).unwrap(),
            "store layout changed"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
