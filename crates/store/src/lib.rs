//! `pchls-store` — a persistent, content-addressed result store for
//! synthesis outcomes.
//!
//! Power-constrained sweeps re-ask the same question constantly: *for
//! this graph, at this latency bound, under this power budget, what
//! came out?* The answer is deterministic (the engine is a pure
//! function of its inputs), so it is worth keeping. This crate stores
//! design outcomes on disk keyed by content, not by name:
//!
//! * [`StoreKey`] = `(graph_fingerprint, latency_bound, budget_digest)`
//!   — the hash of the graph as spelled from
//!   [`pchls_cdfg::graph_fingerprint`] (name and node ids included,
//!   since a relabelled graph can get another design) plus
//!   [`PowerBudget::digest`](pchls_sched::PowerBudget::digest), so two
//!   *spellings* of the same budget (a constant vs. an equivalent step
//!   list) share one record, and renaming or relabelling a graph does
//!   not.
//! * [`StoreRecord`] — the outcome: feasibility, applied power bound,
//!   area, achieved latency, peak power, unit count, and an optional
//!   delta-encoded schedule trace ([`trace_bytes`]/[`trace_starts`]).
//!   Floats are stored as IEEE-754 bits, so a record read back
//!   reconstructs a [`SweepPoint`](pchls_core::SweepPoint) that is
//!   **byte-identical** to fresh synthesis output.
//!
//! # On-disk format (see `DESIGN.md` §7 for the full layout)
//!
//! One append-only file, `results.pchls`, holding self-delimiting
//! **blocks**. Each block stores one appended batch as rows: every
//! record's fixed-width fields, then its trace. A fixed block header
//! (record count, body length) carries its own CRC, and the body a
//! second one. A **footer index** at the end of the file lists every
//! block for O(1) open; if a crash tears the footer off,
//! [`Store::open`] recovers by scanning blocks forward and keeps every
//! record whose checksums verify — committed data is never lost, torn
//! tails are never served. A block body that fails its checksum is
//! never decoded: lookups on a store holding one return an error. A
//! file written by an older format version is refused, never
//! misparsed; the results it held recompute.
//!
//! # Example
//!
//! ```
//! use pchls_store::{Store, StoreKey, StoreRecord};
//!
//! let dir = std::env::temp_dir().join(format!("store-doc-{}", std::process::id()));
//! let mut store = Store::open(&dir).unwrap();
//! let record = StoreRecord {
//!     key: StoreKey { fingerprint: 0xfeed, latency_bound: 12, budget_digest: 0xbeef },
//!     feasible: true,
//!     power_bound_bits: 40.0f64.to_bits(),
//!     area: 11,
//!     latency: 10,
//!     peak_power_bits: 38.5f64.to_bits(),
//!     units: 4,
//!     trace: Vec::new(),
//! };
//! store.append(std::slice::from_ref(&record)).unwrap();
//! store.flush().unwrap();
//!
//! // Reopen: the footer index makes this O(blocks), and lookups are
//! // content-addressed.
//! let mut reopened = Store::open(&dir).unwrap();
//! assert_eq!(reopened.get(&record.key).unwrap(), Some(record));
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod crc;
mod format;
mod store;
mod varint;

pub use format::{trace_bytes, trace_starts, StoreKey, StoreRecord};
pub use store::{Store, StoreStat, STORE_FILE_NAME};
