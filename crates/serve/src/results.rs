//! The two result cache tiers in front of synthesis.
//!
//! The compile cache ([`crate::CompileCache`]) amortizes *compilation*;
//! this module amortizes the *synthesis outcome itself*, which is safe
//! because the engine is deterministic: one `(graph_fingerprint,
//! latency_bound, budget_digest)` key ([`StoreKey`]) names exactly one
//! result for a fixed [`SynthesisOptions`](pchls_core::SynthesisOptions)
//! configuration (a service applies one options value to every request,
//! so the key never needs to carry it; callers mixing options must use
//! separate store directories).
//!
//! * **Tier 1** — a bounded in-memory LRU of [`StoreRecord`]s. A hit
//!   skips compile *and* synthesis. The service runs one tier **per
//!   shard** (keys shard by fingerprint, so shards never contend).
//! * **Tier 2** (optional) — a persistent [`pchls_store::Store`] behind
//!   a [`StoreHandle`] **shared across shards** (the store file is one
//!   per directory; sharding it would split the on-disk index for no
//!   contention win — disk I/O is off the hot path anyway). Lookups
//!   that miss memory read the store under its lock; completed results
//!   are handed to one **write-behind** thread over a channel, so
//!   workers never block on disk. A restarted service re-opens the
//!   store and answers previously-seen points warm, byte-identical,
//!   without compiling anything.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use pchls_store::{Store, StoreKey, StoreRecord};

/// Counter snapshot of the in-memory result tier.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct ResultCacheStats {
    /// Lookups answered from memory.
    pub hits: u64,
    /// Lookups that found nothing in memory.
    pub misses: u64,
    /// Entries dropped by the LRU bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Approximate bytes held by resident entries.
    pub entry_bytes: u64,
    /// Sum over evictions of the victim's idle age in LRU ticks.
    pub eviction_age_sum: u64,
    /// Idle age (ticks) of the most recent eviction victim.
    pub last_eviction_age: u64,
}

impl ResultCacheStats {
    /// Fraction of lookups answered from memory; `0.0` before any.
    #[must_use]
    pub(crate) fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }

    /// Mean idle age (ticks) of eviction victims; `0.0` before any.
    #[must_use]
    pub(crate) fn mean_eviction_age(&self) -> f64 {
        if self.evictions == 0 {
            0.0
        } else {
            self.eviction_age_sum as f64 / self.evictions as f64
        }
    }

    /// Per-shard snapshots summed into a service-wide one.
    #[must_use]
    pub(crate) fn merged(
        snapshots: impl IntoIterator<Item = ResultCacheStats>,
    ) -> ResultCacheStats {
        snapshots
            .into_iter()
            .fold(ResultCacheStats::default(), |a, b| ResultCacheStats {
                hits: a.hits + b.hits,
                misses: a.misses + b.misses,
                evictions: a.evictions + b.evictions,
                entries: a.entries + b.entries,
                entry_bytes: a.entry_bytes + b.entry_bytes,
                eviction_age_sum: a.eviction_age_sum + b.eviction_age_sum,
                last_eviction_age: a.last_eviction_age.max(b.last_eviction_age),
            })
    }
}

/// Counter snapshot of the persistent tier (all zero when no store is
/// configured).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct StoreTierStats {
    /// Lookups answered by the on-disk store.
    pub hits: u64,
    /// Lookups that reached the store and found nothing.
    pub misses: u64,
    /// Records handed to the write-behind thread and appended.
    pub appends: u64,
}

/// Approximate resident size of one cached record.
fn record_bytes(record: &StoreRecord) -> u64 {
    (std::mem::size_of::<StoreRecord>() + record.trace.len()) as u64
}

#[derive(Debug)]
struct ResultSlot {
    record: StoreRecord,
    bytes: u64,
    last_used: u64,
}

#[derive(Debug, Default)]
struct ResultInner {
    map: HashMap<StoreKey, ResultSlot>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    entry_bytes: u64,
    eviction_age_sum: u64,
    last_eviction_age: u64,
}

#[derive(Debug, Default)]
struct StoreCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    appends: AtomicU64,
}

/// One persistent store plus its write-behind thread, shareable by any
/// number of [`ResultTier`]s (the service gives each shard a tier over
/// the same handle).
#[derive(Debug)]
pub(crate) struct StoreHandle {
    store: Arc<Mutex<Store>>,
    /// Feed to the write-behind thread; dropped to initiate shutdown.
    sender: Mutex<Option<Sender<StoreRecord>>>,
    writer: Mutex<Option<JoinHandle<()>>>,
    counters: Arc<StoreCounters>,
}

impl StoreHandle {
    /// Opens (or recovers) the store under `dir` and starts its
    /// write-behind thread.
    ///
    /// # Errors
    ///
    /// Opening or recovering the store failed.
    pub(crate) fn open(dir: &Path) -> io::Result<Arc<StoreHandle>> {
        let store = Arc::new(Mutex::new(Store::open(dir)?));
        let counters = Arc::new(StoreCounters::default());
        let (tx, rx) = std::sync::mpsc::channel::<StoreRecord>();
        let writer = {
            let store = Arc::clone(&store);
            let counters = Arc::clone(&counters);
            std::thread::Builder::new()
                .name("pchls-store-writer".into())
                .spawn(move || write_behind(&rx, &store, &counters))
                .expect("spawn store writer")
        };
        Ok(Arc::new(StoreHandle {
            store,
            sender: Mutex::new(Some(tx)),
            writer: Mutex::new(Some(writer)),
            counters,
        }))
    }

    /// Whether the on-disk index knows `key` — an index probe only, no
    /// record read, no counter movement. The admission layer uses this
    /// to classify requests into the hit lane.
    #[must_use]
    pub(crate) fn contains(&self, key: &StoreKey) -> bool {
        self.store.lock().expect("store lock").contains(key)
    }

    fn lookup(&self, key: &StoreKey) -> Option<StoreRecord> {
        let found = self
            .store
            .lock()
            .expect("store lock")
            .get(key)
            .unwrap_or_default();
        match found {
            Some(record) => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                Some(record)
            }
            None => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn enqueue(&self, record: StoreRecord) {
        let sender = self.sender.lock().expect("sender lock");
        if let Some(tx) = sender.as_ref() {
            // The writer owning the receiver only exits once this
            // sender is dropped, so a send cannot fail while it is
            // held here.
            let _ = tx.send(record);
        }
    }

    /// Counter snapshot of the persistent tier.
    #[must_use]
    pub(crate) fn stats(&self) -> StoreTierStats {
        StoreTierStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            appends: self.counters.appends.load(Ordering::Relaxed),
        }
    }

    /// Stops the write-behind thread (draining everything queued) and
    /// flushes the store's footer so the next open needs no recovery
    /// scan. Idempotent — safe to call once per sharing tier.
    pub(crate) fn shutdown(&self) {
        drop(self.sender.lock().expect("sender lock").take());
        if let Some(writer) = self.writer.lock().expect("writer lock").take() {
            let _ = writer.join();
        }
        let _ = self.store.lock().expect("store lock").flush();
    }
}

/// The two-tier result cache: memory LRU in front, optional persistent
/// store behind, write-behind appends.
#[derive(Debug)]
pub(crate) struct ResultTier {
    inner: Mutex<ResultInner>,
    cap: usize,
    store: Option<Arc<StoreHandle>>,
}

impl ResultTier {
    /// A tier over an already-open (possibly shared) store handle.
    #[must_use]
    pub(crate) fn with_store(cap: usize, store: Option<Arc<StoreHandle>>) -> ResultTier {
        ResultTier {
            inner: Mutex::new(ResultInner::default()),
            cap: cap.max(1),
            store,
        }
    }

    /// Whether `key` would be answered without synthesis — resident in
    /// memory or present in the store's index. Moves no counters and no
    /// LRU state: this is the admission layer's lane classifier, and a
    /// probe that shifted hit rates would make stats lie.
    #[must_use]
    pub(crate) fn contains(&self, key: &StoreKey) -> bool {
        if self
            .inner
            .lock()
            .expect("result cache lock")
            .map
            .contains_key(key)
        {
            return true;
        }
        self.store.as_ref().is_some_and(|s| s.contains(key))
    }

    /// Looks `key` up in memory, then (on miss) in the store. A store
    /// hit is promoted into the memory tier.
    pub(crate) fn lookup(&self, key: &StoreKey) -> Option<StoreRecord> {
        {
            let mut inner = self.inner.lock().expect("result cache lock");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(slot) = inner.map.get_mut(key) {
                slot.last_used = tick;
                let record = slot.record.clone();
                inner.hits += 1;
                return Some(record);
            }
            inner.misses += 1;
        }
        let record = self.store.as_ref()?.lookup(key)?;
        self.insert_memory(record.clone());
        Some(record)
    }

    /// Records a completed result in memory and (write-behind) on disk.
    pub(crate) fn insert(&self, record: StoreRecord) {
        if let Some(store) = &self.store {
            store.enqueue(record.clone());
        }
        self.insert_memory(record);
    }

    fn insert_memory(&self, record: StoreRecord) {
        let mut inner = self.inner.lock().expect("result cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        let bytes = record_bytes(&record);
        let slot = ResultSlot {
            record,
            bytes,
            last_used: tick,
        };
        let key = slot.record.key;
        if let Some(old) = inner.map.insert(key, slot) {
            inner.entry_bytes -= old.bytes;
        }
        inner.entry_bytes += bytes;
        if inner.map.len() > self.cap {
            // The fresh insert carries the newest tick and is never the
            // victim (cap ≥ 1 ⇒ at least two entries here).
            let (&victim, age, victim_bytes) = inner
                .map
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, s)| (k, tick - s.last_used, s.bytes))
                .expect("over-cap map is non-empty");
            inner.map.remove(&victim);
            inner.entry_bytes -= victim_bytes;
            inner.evictions += 1;
            inner.eviction_age_sum += age;
            inner.last_eviction_age = age;
        }
    }

    /// Counter snapshots of both tiers. With a shared store handle the
    /// store counters are service-wide — sum only the memory side
    /// across shards.
    pub(crate) fn stats(&self) -> (ResultCacheStats, StoreTierStats) {
        let inner = self.inner.lock().expect("result cache lock");
        let memory = ResultCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.map.len(),
            entry_bytes: inner.entry_bytes,
            eviction_age_sum: inner.eviction_age_sum,
            last_eviction_age: inner.last_eviction_age,
        };
        let store = self
            .store
            .as_ref()
            .map_or_else(StoreTierStats::default, |s| s.stats());
        (memory, store)
    }

    /// Stops the write-behind thread (draining everything queued) and
    /// flushes the store's footer so the next open needs no recovery
    /// scan. Idempotent; also run on drop. With a shared handle, the
    /// first tier to shut down stops the writer for all of them — the
    /// service does this only after every worker has been joined.
    pub(crate) fn shutdown(&self) {
        if let Some(store) = &self.store {
            store.shutdown();
        }
    }
}

impl Drop for ResultTier {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The write-behind loop: drain whatever is queued, append it as one
/// block, repeat until the channel closes.
fn write_behind(rx: &Receiver<StoreRecord>, store: &Mutex<Store>, counters: &StoreCounters) {
    while let Ok(first) = rx.recv() {
        let mut batch = vec![first];
        while let Ok(more) = rx.try_recv() {
            batch.push(more);
        }
        let mut store = store.lock().expect("store lock");
        if store.append(&batch).is_ok() {
            counters
                .appends
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pchls-tier-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn record(i: u64) -> StoreRecord {
        StoreRecord {
            key: StoreKey {
                fingerprint: i,
                latency_bound: 10,
                budget_digest: 1,
            },
            feasible: true,
            power_bound_bits: 0,
            area: i,
            latency: 9,
            peak_power_bits: 0,
            units: 1,
            trace: vec![0; i as usize % 3],
        }
    }

    #[test]
    fn memory_tier_lru_counts_hits_sizes_and_eviction_ages() {
        let tier = ResultTier::with_store(2, None);
        tier.insert(record(1));
        tier.insert(record(2));
        assert!(tier.lookup(&record(1).key).is_some());
        tier.insert(record(3)); // evicts record 2 (LRU)
        assert!(tier.lookup(&record(2).key).is_none());
        assert!(tier.lookup(&record(1).key).is_some());
        let (mem, store) = tier.stats();
        assert_eq!((mem.hits, mem.misses, mem.evictions), (2, 1, 1));
        assert_eq!(mem.entries, 2);
        assert!(mem.entry_bytes >= 2 * std::mem::size_of::<StoreRecord>() as u64);
        assert!(mem.last_eviction_age > 0, "victim had aged ticks");
        assert!(mem.mean_eviction_age() > 0.0);
        assert!(mem.hit_rate() > 0.6 && mem.hit_rate() < 0.7);
        assert_eq!(store, StoreTierStats::default());
    }

    #[test]
    fn persistent_tier_answers_after_a_restart() {
        let dir = temp_dir("restart");
        {
            let tier = ResultTier::with_store(8, Some(StoreHandle::open(&dir).unwrap()));
            for i in 0..5 {
                tier.insert(record(i));
            }
            tier.shutdown();
            let (_, store) = tier.stats();
            assert_eq!(store.appends, 5);
        }
        // A fresh tier (cold memory) finds everything in the store.
        let tier = ResultTier::with_store(8, Some(StoreHandle::open(&dir).unwrap()));
        for i in 0..5 {
            assert_eq!(tier.lookup(&record(i).key), Some(record(i)), "record {i}");
        }
        assert!(tier.lookup(&record(99).key).is_none());
        let (mem, store) = tier.stats();
        assert_eq!((store.hits, store.misses), (5, 1));
        // Store hits were promoted: looking up again hits memory.
        assert!(tier.lookup(&record(0).key).is_some());
        let (mem2, store2) = tier.stats();
        assert_eq!(mem2.hits, mem.hits + 1);
        assert_eq!(store2.hits, store.hits);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn contains_probes_both_tiers_without_moving_counters() {
        let dir = temp_dir("contains");
        {
            let warm = ResultTier::with_store(4, Some(StoreHandle::open(&dir).unwrap()));
            warm.insert(record(1));
        } // drop flushes record 1 to disk

        let tier = ResultTier::with_store(4, Some(StoreHandle::open(&dir).unwrap()));
        tier.insert(record(2));
        assert!(tier.contains(&record(2).key), "memory-resident");
        assert!(tier.contains(&record(1).key), "on disk only");
        assert!(!tier.contains(&record(9).key));
        let (mem, disk) = tier.stats();
        // One insert, zero lookups: contains moved nothing.
        assert_eq!((mem.hits, mem.misses), (0, 0));
        assert_eq!((disk.hits, disk.misses), (0, 0));
        drop(tier);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shards_share_one_store_handle() {
        let dir = temp_dir("shared");
        let handle = StoreHandle::open(&dir).unwrap();
        let shard_a = ResultTier::with_store(4, Some(Arc::clone(&handle)));
        let shard_b = ResultTier::with_store(4, Some(Arc::clone(&handle)));
        shard_a.insert(record(1));
        shard_b.insert(record(2));
        shard_a.shutdown(); // idempotent, drains the shared writer
        shard_b.shutdown();
        assert_eq!(handle.stats().appends, 2, "both shards' writes landed");
        // A fresh tier over the same directory sees both records.
        drop((shard_a, shard_b));
        let fresh = ResultTier::with_store(4, Some(StoreHandle::open(&dir).unwrap()));
        assert!(fresh.lookup(&record(1).key).is_some());
        assert!(fresh.lookup(&record(2).key).is_some());
        drop(fresh);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
