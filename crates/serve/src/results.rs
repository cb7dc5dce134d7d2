//! The two result cache tiers in front of synthesis.
//!
//! The compile cache ([`crate::cache`]) amortizes *compilation*;
//! this module amortizes the *synthesis outcome itself*, which is safe
//! because the engine is deterministic: one `(graph_fingerprint,
//! latency_bound, budget_digest)` key ([`StoreKey`]) names exactly one
//! result. Every store writer — the service, `batch --store` and
//! `sweep --store` — synthesizes under the paper-default
//! [`SynthesisOptions`](pchls_core::SynthesisOptions), so the key needs
//! no options field.
//!
//! * **Tier 1** — a bounded in-memory [`Lru`] of [`StoreRecord`]s, the
//!   same LRU the compile cache uses. A hit skips compile *and*
//!   synthesis. The service runs one tier **per shard** (keys shard by
//!   fingerprint, so shards never contend).
//! * **Tier 2** (optional) — a persistent [`pchls_store::Store`] behind
//!   a [`StoreHandle`] **shared across shards** (the store file is one
//!   per directory; sharding it would split the on-disk index for no
//!   contention win — disk I/O is off the hot path anyway). Lookups
//!   that miss memory read the store under its lock; completed results
//!   are handed to one **write-behind** thread over a channel, so
//!   workers never block on disk. When the last tier lets go of the
//!   handle, its drop drains that thread and flushes the store footer.
//!   A restarted service re-opens the store and answers previously-seen
//!   points warm, byte-identical, without compiling anything.
//!
//! Both tiers count into the service's [`MetricsRegistry`]: the
//! `pchls_result_tier_*` series for memory, `pchls_store_tier_*` and
//! `pchls_store_appends_total` for the store.

use std::io;
use std::path::Path;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use pchls_obs::{Counter, MetricsRegistry};
use pchls_store::{Store, StoreKey, StoreRecord};

use crate::lru::Lru;

/// Lookups answered from memory.
pub(crate) const HITS: &str = "pchls_result_tier_hits_total";
/// Lookups that found nothing in memory.
pub(crate) const MISSES: &str = "pchls_result_tier_misses_total";
/// Entries dropped by the LRU bound.
pub(crate) const EVICTIONS: &str = "pchls_result_tier_evictions_total";
/// Sum over evictions of the victim's idle age in LRU ticks.
pub(crate) const EVICTION_AGES: &str = "pchls_result_tier_eviction_age_ticks_total";
/// Lookups answered by the on-disk store.
pub(crate) const STORE_HITS: &str = "pchls_store_tier_hits_total";
/// Lookups that reached the store and found nothing.
pub(crate) const STORE_MISSES: &str = "pchls_store_tier_misses_total";
/// Records the write-behind thread appended to the store.
pub(crate) const STORE_APPENDS: &str = "pchls_store_appends_total";

/// Approximate resident size of one cached record.
fn record_bytes(record: &StoreRecord) -> u64 {
    (std::mem::size_of::<StoreRecord>() + record.trace.len()) as u64
}

/// One persistent store plus its write-behind thread, shareable by any
/// number of [`ResultTier`]s (the service gives each shard a tier over
/// the same handle). Dropping the last reference drains the queue and
/// flushes the store's footer, so the next open needs no recovery scan.
#[derive(Debug)]
pub(crate) struct StoreHandle {
    store: Arc<Mutex<Store>>,
    /// Feed to the write-behind thread; dropped to stop it.
    sender: Option<Sender<StoreRecord>>,
    writer: Option<JoinHandle<()>>,
    hits: Counter,
    misses: Counter,
}

impl StoreHandle {
    /// Opens (or recovers) the store under `dir` and starts its
    /// write-behind thread, counting into `metrics`.
    ///
    /// # Errors
    ///
    /// Opening or recovering the store failed.
    pub(crate) fn open(dir: &Path, metrics: &MetricsRegistry) -> io::Result<Arc<StoreHandle>> {
        let store = Arc::new(Mutex::new(Store::open(dir)?));
        let (tx, rx) = std::sync::mpsc::channel::<StoreRecord>();
        let writer = {
            let store = Arc::clone(&store);
            let appends = metrics.counter(STORE_APPENDS);
            std::thread::Builder::new()
                .name("pchls-store-writer".into())
                .spawn(move || write_behind(&rx, &store, &appends))
                .expect("spawn store writer")
        };
        Ok(Arc::new(StoreHandle {
            store,
            sender: Some(tx),
            writer: Some(writer),
            hits: metrics.counter(STORE_HITS),
            misses: metrics.counter(STORE_MISSES),
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
        if found.is_some() {
            &self.hits
        } else {
            &self.misses
        }
        .inc();
        found
    }

    fn enqueue(&self, record: StoreRecord) {
        if let Some(tx) = &self.sender {
            // The writer owning the receiver only exits once this
            // sender is dropped, so a send cannot fail while it is
            // held here.
            let _ = tx.send(record);
        }
    }
}

impl Drop for StoreHandle {
    /// Stops the write-behind thread (draining everything queued) and
    /// flushes the store's footer.
    fn drop(&mut self) {
        drop(self.sender.take());
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
        if let Ok(mut store) = self.store.lock() {
            let _ = store.flush();
        }
    }
}

/// The two-tier result cache: memory LRU in front, optional persistent
/// store behind, write-behind appends.
#[derive(Debug)]
pub(crate) struct ResultTier {
    memory: Mutex<Lru<StoreKey, StoreRecord>>,
    hits: Counter,
    misses: Counter,
    store: Option<Arc<StoreHandle>>,
}

impl ResultTier {
    /// A tier of `cap` in-memory results over an already-open (possibly
    /// shared) store handle, counting into `metrics`.
    #[must_use]
    pub(crate) fn with_store(
        cap: usize,
        store: Option<Arc<StoreHandle>>,
        metrics: &MetricsRegistry,
    ) -> ResultTier {
        ResultTier {
            memory: Mutex::new(Lru::new(
                cap,
                metrics.counter(EVICTIONS),
                metrics.counter(EVICTION_AGES),
            )),
            hits: metrics.counter(HITS),
            misses: metrics.counter(MISSES),
            store,
        }
    }

    fn memory(&self) -> std::sync::MutexGuard<'_, Lru<StoreKey, StoreRecord>> {
        self.memory.lock().expect("result cache lock")
    }

    /// Whether `key` would be answered without synthesis — resident in
    /// memory or present in the store's index. Moves no counters and no
    /// LRU state: this is the admission layer's lane classifier, and a
    /// probe that shifted hit rates would make stats lie.
    #[must_use]
    pub(crate) fn contains(&self, key: &StoreKey) -> bool {
        // Release the memory lock before probing the store.
        let resident = self.memory().contains(key);
        resident || self.store.as_ref().is_some_and(|s| s.contains(key))
    }

    /// Looks `key` up in memory, then (on miss) in the store. A store
    /// hit is promoted into the memory tier.
    pub(crate) fn lookup(&self, key: &StoreKey) -> Option<StoreRecord> {
        if let Some(record) = self.memory().get(key) {
            self.hits.inc();
            return Some(record.clone());
        }
        self.misses.inc();
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
        let bytes = record_bytes(&record);
        self.memory().insert(record.key, record, bytes);
    }

    /// Resident in-memory results and their approximate bytes.
    pub(crate) fn resident(&self) -> (usize, u64) {
        self.memory().resident()
    }
}

/// The write-behind loop: drain whatever is queued, append it as one
/// block, repeat until the channel closes.
fn write_behind(rx: &Receiver<StoreRecord>, store: &Mutex<Store>, appends: &Counter) {
    while let Ok(first) = rx.recv() {
        let mut batch = vec![first];
        while let Ok(more) = rx.try_recv() {
            batch.push(more);
        }
        let mut store = store.lock().expect("store lock");
        if store.append(&batch).is_ok() {
            appends.add(batch.len() as u64);
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

    /// A tier of `cap` results over a fresh handle on `dir`.
    fn stored_tier(cap: usize, dir: &Path, metrics: &MetricsRegistry) -> ResultTier {
        let handle = StoreHandle::open(dir, metrics).unwrap();
        ResultTier::with_store(cap, Some(handle), metrics)
    }

    /// The current values of `names` in `metrics`.
    fn counts<const N: usize>(metrics: &MetricsRegistry, names: [&str; N]) -> [u64; N] {
        names.map(|name| metrics.counter(name).get())
    }

    #[test]
    fn memory_tier_lru_counts_hits_sizes_and_eviction_ages() {
        let metrics = MetricsRegistry::new();
        let tier = ResultTier::with_store(2, None, &metrics);
        tier.insert(record(1)); // tick 1
        tier.insert(record(2)); // tick 2
        assert!(tier.lookup(&record(1).key).is_some()); // tick 3
        tier.insert(record(3)); // tick 4 evicts record 2, idle since tick 2
        assert!(tier.lookup(&record(2).key).is_none());
        assert!(tier.lookup(&record(1).key).is_some());
        assert_eq!(
            counts(&metrics, [HITS, MISSES, EVICTIONS, EVICTION_AGES]),
            [2, 1, 1, 2]
        );
        let (entries, bytes) = tier.resident();
        assert_eq!(entries, 2);
        assert!(bytes >= 2 * std::mem::size_of::<StoreRecord>() as u64);
        assert_eq!(
            counts(&metrics, [STORE_HITS, STORE_MISSES, STORE_APPENDS]),
            [0, 0, 0]
        );
    }

    #[test]
    fn persistent_tier_answers_after_a_restart() {
        let dir = temp_dir("restart");
        {
            let metrics = MetricsRegistry::new();
            let tier = stored_tier(8, &dir, &metrics);
            for i in 0..5 {
                tier.insert(record(i));
            }
            // The tier held the last handle: dropping it drains the
            // write-behind queue.
            drop(tier);
            assert_eq!(metrics.counter(STORE_APPENDS).get(), 5);
        }
        // A fresh tier (cold memory) finds everything in the store.
        let metrics = MetricsRegistry::new();
        let tier = stored_tier(8, &dir, &metrics);
        for i in 0..5 {
            assert_eq!(tier.lookup(&record(i).key), Some(record(i)), "record {i}");
        }
        assert!(tier.lookup(&record(99).key).is_none());
        assert_eq!(counts(&metrics, [STORE_HITS, STORE_MISSES]), [5, 1]);
        // Store hits were promoted: looking up again hits memory.
        let memory_hits = metrics.counter(HITS).get();
        assert!(tier.lookup(&record(0).key).is_some());
        assert_eq!(counts(&metrics, [HITS, STORE_HITS]), [memory_hits + 1, 5]);
        drop(tier);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn contains_probes_both_tiers_without_moving_counters() {
        let dir = temp_dir("contains");
        stored_tier(4, &dir, &MetricsRegistry::new()).insert(record(1));
        // The dropped tier flushed record 1 to disk.

        let metrics = MetricsRegistry::new();
        let tier = stored_tier(4, &dir, &metrics);
        tier.insert(record(2));
        assert!(tier.contains(&record(2).key), "memory-resident");
        assert!(tier.contains(&record(1).key), "on disk only");
        assert!(!tier.contains(&record(9).key));
        // One insert, zero lookups: contains moved nothing.
        assert_eq!(
            counts(&metrics, [HITS, MISSES, STORE_HITS, STORE_MISSES]),
            [0, 0, 0, 0]
        );
        drop(tier);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shards_share_one_store_handle() {
        let dir = temp_dir("shared");
        let metrics = MetricsRegistry::new();
        let handle = StoreHandle::open(&dir, &metrics).unwrap();
        let shard_a = ResultTier::with_store(4, Some(Arc::clone(&handle)), &metrics);
        let shard_b = ResultTier::with_store(4, Some(handle), &metrics);
        shard_a.insert(record(1));
        // Dropping one shard's tier leaves the shared writer running.
        drop(shard_a);
        shard_b.insert(record(2));
        drop(shard_b);
        assert_eq!(
            metrics.counter(STORE_APPENDS).get(),
            2,
            "both shards' writes landed"
        );
        // A fresh tier over the same directory sees both records.
        let fresh = stored_tier(4, &dir, &MetricsRegistry::new());
        assert!(fresh.lookup(&record(1).key).is_some());
        assert!(fresh.lookup(&record(2).key).is_some());
        drop(fresh);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
