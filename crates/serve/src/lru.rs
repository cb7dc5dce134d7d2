//! The one bounded LRU map behind both serve caches: the compile cache
//! ([`crate::cache`]) and the result tier's memory side
//! ([`crate::results`]).
//!
//! Every [`get`](Lru::get) and [`insert`](Lru::insert) advances a tick
//! and stamps the touched entry with it, so entries carry distinct
//! ticks. An insert that pushes the map over its cap evicts the entry
//! with the smallest tick; the fresh entry holds the newest tick and is
//! never the victim. Evictions and the victims' idle ages (ticks since
//! their last touch) count into registry counters handed in at
//! construction, which every shard's copy of the cache shares.

use std::collections::HashMap;
use std::hash::Hash;

use pchls_obs::Counter;

#[derive(Debug)]
struct Entry<V> {
    value: V,
    /// Approximate resident bytes, as the caller sized them.
    bytes: u64,
    /// Tick of the last `get` or `insert` that touched this entry.
    last_used: u64,
}

/// A map holding at most `cap` entries, evicted least recently used.
#[derive(Debug)]
pub(crate) struct Lru<K, V> {
    map: HashMap<K, Entry<V>>,
    cap: usize,
    tick: u64,
    bytes: u64,
    evictions: Counter,
    eviction_ages: Counter,
}

impl<K: Copy + Eq + Hash, V> Lru<K, V> {
    /// An empty map of at most `cap` entries (clamped to ≥ 1) that
    /// counts evictions and the sum of victim ages into the given
    /// counters.
    pub(crate) fn new(cap: usize, evictions: Counter, eviction_ages: Counter) -> Lru<K, V> {
        Lru {
            map: HashMap::new(),
            cap: cap.max(1),
            tick: 0,
            bytes: 0,
            evictions,
            eviction_ages,
        }
    }

    /// The value under `key`, marked as just used.
    pub(crate) fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let entry = self.map.get_mut(key)?;
        entry.last_used = self.tick;
        Some(&entry.value)
    }

    /// Whether `key` is resident. Touches nothing.
    pub(crate) fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Stores `value` (sized `bytes`) under `key`, replacing any entry
    /// there, then evicts the least recently used entry if the map is
    /// over its cap.
    pub(crate) fn insert(&mut self, key: K, value: V, bytes: u64) {
        self.tick += 1;
        let fresh = Entry {
            value,
            bytes,
            last_used: self.tick,
        };
        if let Some(old) = self.map.insert(key, fresh) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        if self.map.len() > self.cap {
            let victim = *self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
                .expect("an over-cap map is non-empty");
            let evicted = self.map.remove(&victim).expect("the victim is resident");
            self.bytes -= evicted.bytes;
            self.evictions.inc();
            self.eviction_ages.add(self.tick - evicted.last_used);
        }
    }

    /// Resident entries and their approximate bytes.
    pub(crate) fn resident(&self) -> (usize, u64) {
        (self.map.len(), self.bytes)
    }
}
