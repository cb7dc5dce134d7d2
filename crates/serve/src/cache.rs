//! The content-addressed compiled-graph cache.
//!
//! Clients of a long-running synthesis service resubmit the same
//! dataflow graphs over and over — the whole point of the session API
//! is that compiling ([`Engine::try_compile`]) is the expensive step
//! worth amortizing. This cache keys compiled graphs by
//! [`graph_fingerprint`] — a stable 64-bit hash of the graph as
//! spelled, node ids included, edge order left out — so *any* client
//! submitting the same spelling shares one [`Arc<CompiledGraph>`], no
//! matter how the graph reached the service (benchmark name, its
//! `dump` text, different process). A relabelled spelling keys its own
//! slot: node ids can change the answer.
//!
//! Three properties matter for correctness and are enforced here:
//!
//! * **Collision-checked**: each fingerprint owns one slot, and a hit
//!   must match the slot's graph by full [`Cdfg`] equality. A different
//!   graph under the same fingerprint replaces the slot and counts as a
//!   miss, so a collision costs a recompile, never a wrong answer.
//! * **Coalesced compiles**: when N clients submit the same uncached
//!   graph concurrently, exactly one compile runs; the other N−1 block
//!   on the same [`OnceLock`] cell and share the result (counted as
//!   coalesced).
//! * **Bounded**: at most `cap` entries live in the [`Lru`], evicted
//!   least-recently-used. Evicting an in-flight entry is safe — waiters
//!   hold their own [`Arc`] to the cell and still complete.
//!
//! Hits, misses, coalesced joins, evictions and victim ages count into
//! the service's [`MetricsRegistry`] under the `pchls_compile_cache_*`
//! series, shared by every shard's cache.
//!
//! [`Engine::try_compile`]: pchls_core::Engine::try_compile
//! [`graph_fingerprint`]: pchls_cdfg::graph_fingerprint

use std::sync::{Arc, Mutex, OnceLock};

use pchls_cdfg::Cdfg;
use pchls_core::{CompiledGraph, Engine, SynthesisError};
use pchls_obs::{Counter, MetricsRegistry};

use crate::lru::Lru;

/// Lookups satisfied by a completed cached compile.
pub(crate) const HITS: &str = "pchls_compile_cache_hits_total";
/// Lookups that inserted a new slot (and run its compile).
pub(crate) const MISSES: &str = "pchls_compile_cache_misses_total";
/// Lookups that joined an in-flight compile of the same graph.
pub(crate) const COALESCED: &str = "pchls_compile_cache_coalesced_total";
/// Slots removed by the LRU bound.
pub(crate) const EVICTIONS: &str = "pchls_compile_cache_evictions_total";
/// Sum over evictions of the victim's idle age in LRU ticks.
pub(crate) const EVICTION_AGES: &str = "pchls_compile_cache_eviction_age_ticks_total";

/// What one compile request costs: a shared compiled graph, or the
/// compile-time error (also cached, so repeated bad submissions stay
/// cheap).
pub(crate) type CompileOutcome = Result<Arc<CompiledGraph>, SynthesisError>;

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
}

/// A bounded, thread-safe, content-addressed LRU cache of compiled
/// graphs (see the module docs for the guarantees).
#[derive(Debug)]
pub(crate) struct CompileCache {
    slots: Mutex<Lru<u64, Slot>>,
    hits: Counter,
    misses: Counter,
    coalesced: Counter,
}

impl CompileCache {
    /// A cache holding at most `cap` compiled graphs (clamped to ≥ 1),
    /// counting into `metrics`.
    #[must_use]
    pub(crate) fn new(cap: usize, metrics: &MetricsRegistry) -> CompileCache {
        CompileCache {
            slots: Mutex::new(Lru::new(
                cap,
                metrics.counter(EVICTIONS),
                metrics.counter(EVICTION_AGES),
            )),
            hits: metrics.counter(HITS),
            misses: metrics.counter(MISSES),
            coalesced: metrics.counter(COALESCED),
        }
    }

    /// The compiled `graph`, filed under `fingerprint`: shared from the
    /// cache, joined while in flight, or compiled here.
    pub(crate) fn get_or_compile_keyed(
        &self,
        engine: &Engine,
        fingerprint: u64,
        graph: &Cdfg,
    ) -> CompileOutcome {
        let cell = {
            let mut slots = self.slots.lock().expect("cache lock");
            match slots.get(&fingerprint) {
                Some(slot) if slot.graph == *graph => {
                    if slot.cell.get().is_some() {
                        self.hits.inc();
                    } else {
                        self.coalesced.inc();
                    }
                    Arc::clone(&slot.cell)
                }
                // Not cached, or a different graph under this
                // fingerprint: a fresh slot takes its place.
                _ => {
                    self.misses.inc();
                    let cell = Arc::new(OnceLock::new());
                    let slot = Slot {
                        graph: graph.clone(),
                        cell: Arc::clone(&cell),
                    };
                    slots.insert(fingerprint, slot, approx_slot_bytes(graph));
                    cell
                }
            }
        };
        // Exactly one caller runs the closure; everyone else blocks
        // here until the result lands, then clones the Arc.
        cell.get_or_init(|| engine.try_compile(graph).map(Arc::new))
            .clone()
    }

    /// Resident compiled graphs and their approximate bytes.
    pub(crate) fn resident(&self) -> (usize, u64) {
        self.slots.lock().expect("cache lock").resident()
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

    /// A cache of `cap` graphs counting into its own registry.
    fn cache(cap: usize) -> (CompileCache, MetricsRegistry) {
        let metrics = MetricsRegistry::new();
        (CompileCache::new(cap, &metrics), metrics)
    }

    /// `[hits, misses, coalesced, evictions]` as the registry counts them.
    fn counts(metrics: &MetricsRegistry) -> [u64; 4] {
        [HITS, MISSES, COALESCED, EVICTIONS].map(|name| metrics.counter(name).get())
    }

    /// A lookup keyed on the graph's own fingerprint.
    fn get_or_compile(cache: &CompileCache, engine: &Engine, graph: &Cdfg) -> CompileOutcome {
        cache.get_or_compile_keyed(engine, graph_fingerprint(graph), graph)
    }

    #[test]
    fn second_lookup_is_a_hit_sharing_the_same_arc() {
        let engine = engine();
        let (cache, metrics) = cache(4);
        let g = benchmarks::hal();
        let a = get_or_compile(&cache, &engine, &g).unwrap();
        assert_eq!(counts(&metrics), [0, 1, 0, 0]);
        let b = get_or_compile(&cache, &engine, &g).unwrap();
        assert_eq!(counts(&metrics), [1, 1, 0, 0]);
        assert!(Arc::ptr_eq(&a, &b), "hit must share");
        assert_eq!(cache.resident().0, 1);
    }

    #[test]
    fn lru_eviction_keeps_the_hot_entry() {
        let engine = engine();
        let (cache, metrics) = cache(2);
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
        assert_eq!(counts(&metrics), [1, 3, 0, 1]);
        assert_eq!(cache.resident().0, 2);
        let _ = get_or_compile(&cache, &engine, &hal);
        assert_eq!(counts(&metrics), [2, 3, 0, 1], "hot entry survived");
        let _ = get_or_compile(&cache, &engine, &cosine);
        assert_eq!(counts(&metrics), [2, 4, 0, 2], "cold entry was evicted");
    }

    #[test]
    fn concurrent_identical_submissions_compile_once() {
        let engine = engine();
        let (cache, metrics) = cache(4);
        let g = benchmarks::elliptic();
        let compiled: Vec<Arc<CompiledGraph>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let (engine, cache, g) = (&engine, &cache, &g);
                    s.spawn(move || get_or_compile(cache, engine, g).unwrap())
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
        let [hits, misses, coalesced, _] = counts(&metrics);
        assert_eq!(misses, 1, "one insert");
        assert_eq!(hits + coalesced, 7, "everyone else joined or hit");
        assert_eq!(cache.resident().0, 1);
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
        let (cache, metrics) = cache(4);
        let g = benchmarks::hal();
        let first = get_or_compile(&cache, &engine, &g);
        let second = get_or_compile(&cache, &engine, &g);
        assert!(matches!(first, Err(SynthesisError::Uncovered { .. })));
        assert_eq!(first.err(), second.err());
        assert_eq!(
            counts(&metrics),
            [1, 1, 0, 0],
            "the error is served from cache"
        );
    }

    #[test]
    fn entry_bytes_and_eviction_ages_are_tracked() {
        let engine = engine();
        let (cache, metrics) = cache(1);
        assert_eq!(cache.resident(), (0, 0));
        let _ = get_or_compile(&cache, &engine, &benchmarks::hal());
        let (_, one_entry) = cache.resident();
        assert!(one_entry > 0);
        // Cap 1: cosine's lookup and insert evict hal, inserted two
        // ticks before.
        let _ = get_or_compile(&cache, &engine, &benchmarks::cosine());
        assert_eq!(counts(&metrics)[3], 1);
        assert_eq!(metrics.counter(EVICTION_AGES).get(), 2);
        let (entries, bytes) = cache.resident();
        assert_eq!(entries, 1);
        assert!(bytes > 0);
        // Bytes track what is resident, not a running total: cycling
        // hal back in restores exactly its original footprint.
        let _ = get_or_compile(&cache, &engine, &benchmarks::hal());
        assert_eq!(cache.resident().1, one_entry);
    }

    #[test]
    fn colliding_fingerprints_never_share_a_compile() {
        // Two different graphs filed under one fingerprint: the second
        // replaces the first's slot and counts as a miss.
        let engine = engine();
        let (cache, metrics) = cache(4);
        let (hal, cosine) = (benchmarks::hal(), benchmarks::cosine());
        let a = cache.get_or_compile_keyed(&engine, 42, &hal).unwrap();
        let b = cache.get_or_compile_keyed(&engine, 42, &cosine).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!((a.name(), b.name()), ("hal", "cosine"));
        assert_eq!(counts(&metrics), [0, 2, 0, 0]);
        assert_eq!(cache.resident().0, 1, "one slot per fingerprint");
        let c = cache.get_or_compile_keyed(&engine, 42, &hal).unwrap();
        assert!(!Arc::ptr_eq(&b, &c));
        assert_eq!(c.name(), "hal");
        assert_eq!(counts(&metrics), [0, 3, 0, 0]);
    }
}
