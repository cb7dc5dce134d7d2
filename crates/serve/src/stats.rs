//! Service metrics: the [`ServiceStats`] snapshot the wire protocol
//! exposes, and its human-readable one-line rendering. Latencies are
//! recorded in [`pchls_obs::Histogram`]s, the wait-free fixed-bucket
//! histogram shared by the serve tier, the store and the kernel.

use serde::{Deserialize, Serialize};

use pchls_obs::{Histogram, HistogramSummary};

/// Latency summary of one priority lane (or any single histogram).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LaneSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Median latency in seconds, bucketed.
    pub p50_secs: f64,
    /// 99th percentile in seconds, bucketed.
    pub p99_secs: f64,
    /// 99.9th percentile in seconds, bucketed.
    pub p999_secs: f64,
    /// Largest observation in seconds (exact).
    pub max_secs: f64,
}

impl From<HistogramSummary> for LaneSnapshot {
    fn from(s: HistogramSummary) -> LaneSnapshot {
        LaneSnapshot {
            count: s.count,
            p50_secs: s.p50_secs,
            p99_secs: s.p99_secs,
            p999_secs: s.p999_secs,
            max_secs: s.max_secs,
        }
    }
}

impl LaneSnapshot {
    /// The dashboard summary of `h`, in this crate's serializable shape.
    #[must_use]
    pub fn of(h: &Histogram) -> LaneSnapshot {
        h.summary().into()
    }
}

/// One consistent snapshot of a running service, serializable onto the
/// wire (the protocol's `Stats` message payload).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Requests accepted into the queues since start. Counts queued jobs
    /// only: a wire line answered inline with an error never reaches a
    /// queue, so [`failed`](ServiceStats::failed) can exceed this.
    pub requests: u64,
    /// Requests answered with a synthesis point (feasible or not).
    pub completed: u64,
    /// Requests answered with an error: queued jobs that failed (bad
    /// constraints, unknown graph, compile failure) and wire lines the
    /// front end answers inline (unparseable, over-long, unknown op).
    pub failed: u64,
    /// Requests cancelled by the client or their deadline.
    pub cancelled: u64,
    /// Requests refused with an `overloaded` error because a shard's
    /// lane was past its admission bound.
    pub shed: u64,
    /// Requests refused with a `rate_limited` error by a connection's
    /// token bucket.
    pub rate_limited: u64,
    /// Jobs currently waiting across all shards and lanes.
    pub queue_depth: usize,
    /// Worker threads serving the queues (all shards, both lanes).
    pub workers: usize,
    /// Independent shards (each: compile cache + result tier + lanes +
    /// workers), addressed by `graph_fingerprint`.
    pub shards: usize,
    /// Compiled graphs currently resident in the cache.
    pub cache_entries: usize,
    /// Cache lookups served by a completed compile.
    pub cache_hits: u64,
    /// Cache lookups that inserted (and compiled) a new entry.
    pub cache_misses: u64,
    /// Cache lookups that joined an in-flight compile.
    pub cache_coalesced: u64,
    /// Cache entries dropped by the LRU bound.
    pub cache_evictions: u64,
    /// `cache_hits / (cache_hits + cache_misses + cache_coalesced)`.
    pub cache_hit_rate: f64,
    /// Approximate bytes resident in the compile cache.
    pub cache_entry_bytes: u64,
    /// Mean idle age (LRU ticks) of compile-cache eviction victims;
    /// `0.0` before any eviction.
    pub cache_mean_eviction_age: f64,
    /// Results resident in the in-memory result tier.
    pub result_entries: usize,
    /// Requests answered from the in-memory result tier (tier 1 —
    /// no compile, no synthesis).
    pub result_hits: u64,
    /// Result-tier lookups that missed memory.
    pub result_misses: u64,
    /// Result entries dropped by the LRU bound.
    pub result_evictions: u64,
    /// Approximate bytes resident in the result tier.
    pub result_entry_bytes: u64,
    /// Mean idle age (LRU ticks) of result-tier eviction victims.
    pub result_mean_eviction_age: f64,
    /// `result_hits / (result_hits + result_misses)`.
    pub result_hit_rate: f64,
    /// Requests answered by the persistent store (tier 2 — disk read,
    /// no compile, no synthesis). Zero when no store is configured.
    pub store_hits: u64,
    /// Store lookups that found no record on disk.
    pub store_misses: u64,
    /// Records appended to the store by the write-behind thread.
    pub store_appends: u64,
    /// Always 0. Serve answers every result-tier miss cold; the field
    /// stays only because the frozen benchmark still reads it
    /// (`perfbench/src/edit_loop.rs:314`, `serve_mix.rs:822`).
    #[serde(default)]
    pub patched: u64,
    /// Median request latency (accept → response) in seconds, bucketed.
    pub p50_latency_secs: f64,
    /// 99th-percentile request latency in seconds, bucketed.
    pub p99_latency_secs: f64,
    /// 99.9th-percentile request latency in seconds, bucketed.
    pub p999_latency_secs: f64,
    /// Largest request latency in seconds (exact, not bucketed).
    pub max_latency_secs: f64,
    /// Latency of requests that rode the hit lane (classified as
    /// result-tier hits at admission).
    pub hit_lane: LaneSnapshot,
    /// Latency of requests that rode the synth lane.
    pub synth_lane: LaneSnapshot,
}

/// The one-line service summary printed when a serve loop exits (and,
/// with `--stats-interval`, periodically while it runs): request
/// disposition, the global latency tail (p50/p99/p99.9 and the exact
/// max), both priority lanes, the compile cache's hit rate and where
/// answers came from: the result tier and the store tier.
#[must_use]
pub fn render_serve_stats(stats: &ServiceStats) -> String {
    let ms = |secs: f64| format!("{:.1}ms", secs * 1e3);
    let lane = |snap: &LaneSnapshot| {
        format!(
            "{} @ p50 {} p99.9 {} max {}",
            snap.count,
            ms(snap.p50_secs),
            ms(snap.p999_secs),
            ms(snap.max_secs)
        )
    };
    format!(
        "pchls serve: {} requests ({} ok, {} failed, {} cancelled, {} shed, {} rate-limited) | \
         {} shard(s), {} worker(s) | latency p50 {} p99 {} p99.9 {} max {} | \
         hit lane {} | synth lane {} | compile cache {:.1}% hit | result tier {:.1}% hit | \
         store tier {} of {} hit",
        stats.requests,
        stats.completed,
        stats.failed,
        stats.cancelled,
        stats.shed,
        stats.rate_limited,
        stats.shards,
        stats.workers,
        ms(stats.p50_latency_secs),
        ms(stats.p99_latency_secs),
        ms(stats.p999_latency_secs),
        ms(stats.max_latency_secs),
        lane(&stats.hit_lane),
        lane(&stats.synth_lane),
        stats.cache_hit_rate * 100.0,
        stats.result_hit_rate * 100.0,
        stats.store_hits,
        stats.store_hits + stats.store_misses,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn lane_snapshot_mirrors_the_histogram_summary() {
        let h = Histogram::new();
        h.record(Duration::from_micros(100));
        h.record(Duration::from_micros(777_777));
        let snap = LaneSnapshot::of(&h);
        assert_eq!(snap.count, 2);
        assert!((snap.max_secs - 0.777_777).abs() < 1e-9);
        assert!(snap.p50_secs <= snap.p99_secs && snap.p99_secs <= snap.p999_secs);
    }

    #[test]
    fn stats_round_trip_through_json() {
        let s = ServiceStats {
            requests: 10,
            completed: 8,
            failed: 1,
            cancelled: 1,
            shed: 3,
            rate_limited: 2,
            queue_depth: 0,
            workers: 4,
            shards: 2,
            cache_entries: 2,
            cache_hits: 7,
            cache_misses: 2,
            cache_coalesced: 1,
            cache_evictions: 0,
            cache_hit_rate: 0.7,
            cache_entry_bytes: 4096,
            cache_mean_eviction_age: 0.0,
            result_entries: 3,
            result_hits: 4,
            result_misses: 6,
            result_evictions: 1,
            result_entry_bytes: 512,
            result_mean_eviction_age: 2.0,
            result_hit_rate: 0.4,
            store_hits: 2,
            store_misses: 4,
            store_appends: 5,
            patched: 0,
            p50_latency_secs: 0.004,
            p99_latency_secs: 0.125,
            p999_latency_secs: 0.5,
            max_latency_secs: 0.61,
            hit_lane: LaneSnapshot {
                count: 6,
                p50_secs: 0.001,
                p99_secs: 0.002,
                p999_secs: 0.004,
                max_secs: 0.003,
            },
            synth_lane: LaneSnapshot {
                count: 4,
                p50_secs: 0.02,
                p99_secs: 0.125,
                p999_secs: 0.5,
                max_secs: 0.61,
            },
        };
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"hit_lane\""), "{json}");
        let back: ServiceStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn render_covers_disposition_lanes_and_tiers() {
        // Built via JSON (the struct has no Default).
        let zero = r#"{"requests":9,"completed":7,"failed":0,"cancelled":0,"shed":2,
            "rate_limited":0,"queue_depth":0,"workers":2,"shards":1,"cache_entries":0,
            "cache_hits":0,"cache_misses":0,"cache_coalesced":0,"cache_evictions":0,
            "cache_hit_rate":0.0,"cache_entry_bytes":0,"cache_mean_eviction_age":0.0,
            "result_entries":0,"result_hits":0,"result_misses":0,"result_evictions":0,
            "result_entry_bytes":0,"result_mean_eviction_age":0.0,"result_hit_rate":0.0,
            "store_hits":3,"store_misses":1,"store_appends":0,"p50_latency_secs":0.001,
            "p99_latency_secs":0.002,"p999_latency_secs":0.004,"max_latency_secs":0.005,
            "hit_lane":{"count":0,"p50_secs":0.0,"p99_secs":0.0,"p999_secs":0.0,"max_secs":0.0},
            "synth_lane":{"count":0,"p50_secs":0.0,"p99_secs":0.0,"p999_secs":0.0,"max_secs":0.0}}"#;
        let s: ServiceStats = serde_json::from_str(zero).unwrap();
        let line = render_serve_stats(&s);
        assert!(line.starts_with("pchls serve: 9 requests"), "{line}");
        assert!(line.contains("2 shed"), "{line}");
        assert!(line.contains("latency p50 1.0ms"), "{line}");
        assert!(line.contains("compile cache 0.0% hit"), "{line}");
        assert!(line.ends_with("| store tier 3 of 4 hit"), "{line}");
    }
}
