//! The content-addressed compiled-graph cache.
//!
//! Clients of a long-running synthesis service resubmit the same
//! dataflow graphs over and over — the whole point of the session API
//! is that compiling ([`Engine::try_compile`]) is the expensive step
//! worth amortizing. This cache keys compiled graphs by
//! [`graph_fingerprint`] — a stable, structural, insertion-order-
//! insensitive 64-bit hash — so *any* client submitting a structurally
//! identical graph shares one [`Arc<CompiledGraph>`], no matter how the
//! graph reached the service (benchmark name, inline text, different
//! process).
//!
//! Three properties matter for correctness and are enforced here:
//!
//! * **Collision-checked**: a fingerprint match is only a bucket hint;
//!   the cache verifies full [`Cdfg`] equality before sharing an entry.
//!   Two different graphs colliding on the hash simply occupy two slots
//!   of one bucket.
//! * **Coalesced compiles**: when N clients submit the same uncached
//!   graph concurrently, exactly one compile runs; the other N−1 block
//!   on the same [`OnceLock`] cell and share the result ([`CacheLookup::Coalesced`]).
//! * **Bounded**: at most `cap` entries live in the map, evicted least-
//!   recently-used. Evicting an in-flight entry is safe — waiters hold
//!   their own [`Arc`] to the cell and still complete.
//!
//! [`Engine::try_compile`]: pchls_core::Engine::try_compile

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use pchls_cdfg::Cdfg;
use pchls_core::{CompiledGraph, Engine, SynthesisError};
use serde::{Deserialize, Serialize};

/// What one compile request costs: a shared compiled graph, or the
/// compile-time error (also cached, so repeated bad submissions stay
/// cheap).
pub(crate) type CompileOutcome = Result<Arc<CompiledGraph>, SynthesisError>;

/// How a [`CompileCache::get_or_compile_keyed`] call was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CacheLookup {
    /// The graph was cached and compiled: zero work.
    Hit,
    /// The graph was in the cache but its compile was still in flight:
    /// this call joined the existing compile instead of starting one.
    Coalesced,
    /// The graph was not cached: this call inserted the entry (and
    /// typically runs the compile).
    Miss,
}

/// Counter snapshot of a [`CompileCache`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct CacheStats {
    /// Lookups satisfied by a completed cached compile.
    pub hits: u64,
    /// Lookups that inserted a new entry.
    pub misses: u64,
    /// Lookups that joined an in-flight compile of the same graph.
    pub coalesced: u64,
    /// Entries removed by the LRU bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Approximate bytes held by resident entries (graph structure
    /// estimate — compiled artifacts scale with it).
    pub entry_bytes: u64,
    /// Sum over evictions of the victim's idle age in LRU ticks.
    pub eviction_age_sum: u64,
    /// Idle age (ticks) of the most recent eviction victim.
    pub last_eviction_age: u64,
}

impl CacheStats {
    /// Fraction of lookups served without compiling (completed hits
    /// over all lookups); `0.0` before any lookup.
    #[must_use]
    pub(crate) fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses + self.coalesced;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }

    /// Mean idle age (ticks) of eviction victims; `0.0` before any
    /// eviction. Together with `entry_bytes` this distinguishes a
    /// too-small cache (young victims) from natural turnover.
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
    pub(crate) fn merged(snapshots: impl IntoIterator<Item = CacheStats>) -> CacheStats {
        snapshots.into_iter().fold(
            CacheStats {
                hits: 0,
                misses: 0,
                coalesced: 0,
                evictions: 0,
                entries: 0,
                entry_bytes: 0,
                eviction_age_sum: 0,
                last_eviction_age: 0,
            },
            |a, b| CacheStats {
                hits: a.hits + b.hits,
                misses: a.misses + b.misses,
                coalesced: a.coalesced + b.coalesced,
                evictions: a.evictions + b.evictions,
                entries: a.entries + b.entries,
                entry_bytes: a.entry_bytes + b.entry_bytes,
                eviction_age_sum: a.eviction_age_sum + b.eviction_age_sum,
                last_eviction_age: a.last_eviction_age.max(b.last_eviction_age),
            },
        )
    }
}

/// Approximate resident footprint of one slot, from the graph structure
/// it keys on (nodes dominate; the compiled artifact is proportional).
fn approx_slot_bytes(graph: &Cdfg) -> u64 {
    (graph.nodes().len() * 96 + graph.edges().len() * 32 + 64) as u64
}

/// One cached (or in-flight) compile.
#[derive(Debug)]
struct Slot {
    /// The exact graph this slot answers for (full-equality verify).
    graph: Cdfg,
    /// The compile result, filled exactly once; waiters block on it.
    cell: Arc<OnceLock<CompileOutcome>>,
    /// LRU tick of the last lookup that touched this slot.
    last_used: u64,
    /// Approximate resident bytes ([`approx_slot_bytes`]).
    bytes: u64,
}

#[derive(Debug, Default)]
struct Inner {
    /// fingerprint → slots whose graphs share that fingerprint.
    map: HashMap<u64, Vec<Slot>>,
    /// Total slots across all buckets.
    len: usize,
    /// Monotone lookup clock for LRU ordering.
    tick: u64,
    hits: u64,
    misses: u64,
    coalesced: u64,
    evictions: u64,
    entry_bytes: u64,
    eviction_age_sum: u64,
    last_eviction_age: u64,
}

/// A bounded, thread-safe, content-addressed LRU cache of compiled
/// graphs: collision-checked fingerprint addressing, coalesced
/// in-flight compiles, LRU eviction (see the module-level docs above
/// for the full guarantees).
#[derive(Debug)]
pub(crate) struct CompileCache {
    inner: Mutex<Inner>,
    cap: usize,
}

impl CompileCache {
    /// A cache holding at most `cap` compiled graphs (clamped to ≥ 1).
    #[must_use]
    pub(crate) fn new(cap: usize) -> CompileCache {
        CompileCache {
            inner: Mutex::new(Inner::default()),
            cap: cap.max(1),
        }
    }

    pub(crate) fn get_or_compile_keyed(
        &self,
        engine: &Engine,
        fingerprint: u64,
        graph: &Cdfg,
    ) -> (CompileOutcome, CacheLookup) {
        let (cell, lookup) = {
            let mut inner = self.inner.lock().expect("cache lock");
            inner.tick += 1;
            let tick = inner.tick;
            let bucket = inner.map.entry(fingerprint).or_default();
            // Fingerprint equality is a hint; the slot's stored graph is
            // the collision check.
            if let Some(slot) = bucket.iter_mut().find(|s| s.graph == *graph) {
                slot.last_used = tick;
                let lookup = if slot.cell.get().is_some() {
                    CacheLookup::Hit
                } else {
                    CacheLookup::Coalesced
                };
                let cell = Arc::clone(&slot.cell);
                match lookup {
                    CacheLookup::Hit => inner.hits += 1,
                    _ => inner.coalesced += 1,
                }
                (cell, lookup)
            } else {
                let cell = Arc::new(OnceLock::new());
                let bytes = approx_slot_bytes(graph);
                bucket.push(Slot {
                    graph: graph.clone(),
                    cell: Arc::clone(&cell),
                    last_used: tick,
                    bytes,
                });
                inner.len += 1;
                inner.misses += 1;
                inner.entry_bytes += bytes;
                if inner.len > self.cap {
                    evict_lru(&mut inner);
                }
                (cell, CacheLookup::Miss)
            }
        };
        // Exactly one caller runs the closure; everyone else blocks
        // here until the result lands, then clones the Arc.
        let outcome = cell
            .get_or_init(|| engine.try_compile(graph).map(Arc::new))
            .clone();
        (outcome, lookup)
    }

    /// Counter snapshot (consistent: taken under the cache lock).
    pub(crate) fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            coalesced: inner.coalesced,
            evictions: inner.evictions,
            entries: inner.len,
            entry_bytes: inner.entry_bytes,
            eviction_age_sum: inner.eviction_age_sum,
            last_eviction_age: inner.last_eviction_age,
        }
    }
}

/// Removes the least-recently-used slot. Called right after an insert
/// pushed `len` over `cap`, so at least two slots exist and the fresh
/// insert (carrying the newest tick) is never the victim.
fn evict_lru(inner: &mut Inner) {
    let victim = inner
        .map
        .iter()
        .flat_map(|(&fp, bucket)| bucket.iter().map(move |s| (fp, s.last_used)))
        .min_by_key(|&(_, used)| used);
    if let Some((fp, used)) = victim {
        let bucket = inner.map.get_mut(&fp).expect("victim bucket exists");
        let idx = bucket
            .iter()
            .position(|s| s.last_used == used)
            .expect("victim slot exists");
        let slot = bucket.remove(idx);
        if bucket.is_empty() {
            inner.map.remove(&fp);
        }
        inner.len -= 1;
        inner.evictions += 1;
        inner.entry_bytes -= slot.bytes;
        let age = inner.tick - slot.last_used;
        inner.eviction_age_sum += age;
        inner.last_eviction_age = age;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pchls_cdfg::{benchmarks, graph_fingerprint};
    use pchls_fulib::paper_library;

    fn engine() -> Engine {
        Engine::new(paper_library())
    }

    /// A lookup keyed on the graph's own fingerprint.
    fn get_or_compile(
        cache: &CompileCache,
        engine: &Engine,
        graph: &Cdfg,
    ) -> (CompileOutcome, CacheLookup) {
        cache.get_or_compile_keyed(engine, graph_fingerprint(graph), graph)
    }

    #[test]
    fn second_lookup_is_a_hit_sharing_the_same_arc() {
        let engine = engine();
        let cache = CompileCache::new(4);
        let g = benchmarks::hal();
        let (a, first) = get_or_compile(&cache, &engine, &g);
        let (b, second) = get_or_compile(&cache, &engine, &g);
        assert_eq!(first, CacheLookup::Miss);
        assert_eq!(second, CacheLookup::Hit);
        assert!(Arc::ptr_eq(&a.unwrap(), &b.unwrap()), "hit must share");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!(s.hit_rate() > 0.49 && s.hit_rate() < 0.51);
    }

    #[test]
    fn lru_eviction_keeps_the_hot_entry() {
        let engine = engine();
        let cache = CompileCache::new(2);
        let (hal, cosine, ar) = (
            benchmarks::hal(),
            benchmarks::cosine(),
            benchmarks::ar_filter(),
        );
        let _ = get_or_compile(&cache, &engine, &hal);
        let _ = get_or_compile(&cache, &engine, &cosine);
        // Touch hal so cosine is the LRU victim when ar arrives.
        let _ = get_or_compile(&cache, &engine, &hal);
        let _ = get_or_compile(&cache, &engine, &ar);
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(
            get_or_compile(&cache, &engine, &hal).1,
            CacheLookup::Hit,
            "hot entry survived"
        );
        assert_eq!(
            get_or_compile(&cache, &engine, &cosine).1,
            CacheLookup::Miss,
            "cold entry was evicted"
        );
    }

    #[test]
    fn concurrent_identical_submissions_compile_once() {
        let engine = engine();
        let cache = CompileCache::new(4);
        let g = benchmarks::elliptic();
        let compiled: Vec<Arc<CompiledGraph>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let (engine, cache, g) = (&engine, &cache, &g);
                    s.spawn(move || get_or_compile(cache, engine, g).0.unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for c in &compiled[1..] {
            assert!(
                Arc::ptr_eq(&compiled[0], c),
                "all callers share one compile"
            );
        }
        let s = cache.stats();
        assert_eq!(s.misses, 1, "one insert");
        assert_eq!(s.hits + s.coalesced, 7, "everyone else joined or hit");
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn compile_errors_are_cached_too() {
        use pchls_cdfg::OpKind;
        use pchls_fulib::{ModuleLibrary, ModuleSpec};
        // A library without a multiplier cannot compile hal.
        let lib = ModuleLibrary::new([
            ModuleSpec::new("add", [OpKind::Add], 87, 1, 2.5),
            ModuleSpec::new("sub", [OpKind::Sub], 87, 1, 2.5),
            ModuleSpec::new("comp", [OpKind::Comp], 8, 1, 2.5),
            ModuleSpec::new("input", [OpKind::Input], 16, 1, 0.2),
            ModuleSpec::new("output", [OpKind::Output], 16, 1, 1.7),
        ])
        .unwrap();
        let engine = Engine::new(lib);
        let cache = CompileCache::new(4);
        let g = benchmarks::hal();
        let (first, _) = get_or_compile(&cache, &engine, &g);
        let (second, lookup) = get_or_compile(&cache, &engine, &g);
        assert!(matches!(first, Err(SynthesisError::Uncovered { .. })));
        assert_eq!(first.err(), second.err());
        assert_eq!(lookup, CacheLookup::Hit, "the error is served from cache");
    }

    #[test]
    fn entry_bytes_and_eviction_ages_are_tracked() {
        let engine = engine();
        let cache = CompileCache::new(1);
        assert_eq!(cache.stats().entry_bytes, 0);
        let _ = get_or_compile(&cache, &engine, &benchmarks::hal());
        let one_entry = cache.stats().entry_bytes;
        assert!(one_entry > 0);
        // Cap 1: the second insert evicts hal after one intervening
        // tick, so the victim's idle age is exactly 1.
        let _ = get_or_compile(&cache, &engine, &benchmarks::cosine());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 1);
        assert!(s.entry_bytes > 0);
        assert_eq!(s.last_eviction_age, 1);
        assert!((s.mean_eviction_age() - 1.0).abs() < 1e-12);
        // Bytes track what is resident, not a running total: cycling
        // hal back in restores exactly its original footprint.
        let _ = get_or_compile(&cache, &engine, &benchmarks::hal());
        assert_eq!(cache.stats().entry_bytes, one_entry);
    }

    #[test]
    fn fingerprint_collision_bucket_still_distinguishes_graphs() {
        // Force both graphs through the same bucket path by checking
        // that two different graphs never share an entry even when the
        // cache is big enough for both.
        let engine = engine();
        let cache = CompileCache::new(4);
        let a = get_or_compile(&cache, &engine, &benchmarks::hal())
            .0
            .unwrap();
        let b = get_or_compile(&cache, &engine, &benchmarks::cosine())
            .0
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().entries, 2);
    }
}
