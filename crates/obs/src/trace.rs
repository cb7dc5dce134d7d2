//! The tracing side: a lock-free, bounded, per-thread ring of spans
//! and point events behind one process-global on/off flag.
//!
//! # Disabled path
//!
//! [`span!`](crate::span) and [`event!`](crate::event) cost **one
//! relaxed atomic load** while tracing is off — no interning, no
//! clock read, no allocation. The kernel keeps its instrumentation
//! compiled in at all times. Nothing asserts the disabled-path cost
//! today; `perfbench` times the kernel with tracing off, and the
//! rand200 golden-trace test pins traced output to untraced bytes.
//!
//! # Memory model
//!
//! Every recording thread owns a [`TraceBuffer`]: a preallocated slab
//! of fixed-width event slots made of plain `AtomicU64` words (no
//! `unsafe` anywhere). A writer reserves a slot with a CAS on the
//! length, fills the slot's payload words with relaxed stores, and
//! *commits* by writing the slot's first word — which is never zero
//! for a committed event — with release ordering. A reader
//! acquire-loads the commit word and skips uncommitted slots, so a
//! snapshot taken mid-write observes only whole events.
//!
//! The buffer is **bounded and drop-new**: once full, further events
//! increment a drop counter instead of overwriting history, so
//! tracing can stay enabled in production with a hard memory ceiling
//! (`capacity × 14 words × 8 bytes` per thread) and an honest record
//! of what was lost.
//!
//! Span names and string argument values are interned process-wide;
//! events carry `u32` ids, and a [`TraceSnapshot`] resolves them back
//! to strings at export time.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// `u64` words per event slot: commit word, tid, start, dur, span id,
/// parent id, then [`MAX_ARGS`] (key, value) pairs.
const WORDS: usize = 6 + 2 * MAX_ARGS;

/// Arguments one event can carry.
pub const MAX_ARGS: usize = 4;

/// Default per-thread capacity in events (≈ 450 KiB per thread).
const DEFAULT_CAPACITY: usize = 4096;

/// What one recorded event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A scoped span with a duration.
    Span,
    /// A zero-duration point event.
    Instant,
}

/// One argument value: a number or an interned string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgValue {
    /// A plain integer.
    U64(u64),
    /// An interned string id (resolve via [`TraceSnapshot::name`]).
    Str(u32),
}

/// One decoded event, as a snapshot hands it out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Interned name id.
    pub name: u32,
    /// Span or instant.
    pub kind: EventKind,
    /// Recording thread (small dense ids, assigned at first use).
    pub tid: u64,
    /// Start time in nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (`0` for instants).
    pub dur_ns: u64,
    /// Process-unique span id (`0` for instants).
    pub id: u64,
    /// Enclosing span's id, `0` at top level.
    pub parent: u64,
    /// Up to [`MAX_ARGS`] key → value pairs (keys are interned ids).
    pub args: Vec<(u32, ArgValue)>,
}

/// The raw, pre-interned form a writer records.
#[derive(Debug, Clone, Copy)]
pub struct RawEvent {
    /// Interned name id (must be non-zero).
    pub name: u32,
    /// Span or instant.
    pub kind: EventKind,
    /// Recording thread id.
    pub tid: u64,
    /// Start in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Span id (`0` for instants).
    pub id: u64,
    /// Parent span id (`0` for none).
    pub parent: u64,
    /// `(key id, value)` pairs; unused slots hold `None`.
    pub args: [Option<(u32, ArgValue)>; MAX_ARGS],
}

/// A bounded, lock-free ring of trace events (see the module docs for
/// the commit protocol). Safe for concurrent writers and a concurrent
/// snapshot reader; the global tracer gives each thread its own.
#[derive(Debug)]
pub struct TraceBuffer {
    slots: Box<[AtomicU64]>,
    capacity: usize,
    len: AtomicUsize,
    dropped: AtomicU64,
}

impl TraceBuffer {
    /// A buffer holding at most `capacity` events.
    #[must_use]
    pub fn new(capacity: usize) -> TraceBuffer {
        let capacity = capacity.max(1);
        TraceBuffer {
            slots: (0..capacity * WORDS).map(|_| AtomicU64::new(0)).collect(),
            capacity,
            len: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Event capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records one event; returns `false` (and counts the drop) when
    /// the buffer is full. Never blocks, never allocates.
    pub fn push(&self, ev: &RawEvent) -> bool {
        debug_assert!(ev.name != 0, "name id 0 is the uncommitted marker");
        let reserved = self
            .len
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < self.capacity).then_some(n + 1)
            });
        let Ok(slot) = reserved else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        let base = slot * WORDS;
        let w = &self.slots[base..base + WORDS];
        w[1].store(ev.tid, Ordering::Relaxed);
        w[2].store(ev.start_ns, Ordering::Relaxed);
        w[3].store(ev.dur_ns, Ordering::Relaxed);
        w[4].store(ev.id, Ordering::Relaxed);
        w[5].store(ev.parent, Ordering::Relaxed);
        for (i, arg) in ev.args.iter().enumerate() {
            let (key, value) = match arg {
                Some((key, ArgValue::U64(v))) => (u64::from(*key) << 32 | 1, *v),
                Some((key, ArgValue::Str(s))) => (u64::from(*key) << 32 | 2, u64::from(*s)),
                None => (0, 0),
            };
            w[6 + 2 * i].store(key, Ordering::Relaxed);
            w[7 + 2 * i].store(value, Ordering::Relaxed);
        }
        // Commit: the first word is zero until the whole slot is
        // written, and non-zero after (name ids start at 1).
        let kind = match ev.kind {
            EventKind::Span => 1,
            EventKind::Instant => 2,
        };
        w[0].store(u64::from(ev.name) << 32 | kind, Ordering::Release);
        true
    }

    /// Decodes every committed event, in reservation order. Slots
    /// reserved but not yet committed by a concurrent writer are
    /// skipped.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        let n = self.len.load(Ordering::Acquire).min(self.capacity);
        let mut out = Vec::with_capacity(n);
        for slot in 0..n {
            let base = slot * WORDS;
            let w = &self.slots[base..base + WORDS];
            let head = w[0].load(Ordering::Acquire);
            if head == 0 {
                continue; // reserved, not yet committed
            }
            let kind = match head & 0xffff_ffff {
                1 => EventKind::Span,
                _ => EventKind::Instant,
            };
            let mut args = Vec::new();
            for i in 0..MAX_ARGS {
                let key = w[6 + 2 * i].load(Ordering::Relaxed);
                let value = w[7 + 2 * i].load(Ordering::Relaxed);
                let id = (key >> 32) as u32;
                match key & 0xffff_ffff {
                    1 => args.push((id, ArgValue::U64(value))),
                    2 => args.push((id, ArgValue::Str(value as u32))),
                    _ => {}
                }
            }
            out.push(TraceEvent {
                name: (head >> 32) as u32,
                kind,
                tid: w[1].load(Ordering::Relaxed),
                start_ns: w[2].load(Ordering::Relaxed),
                dur_ns: w[3].load(Ordering::Relaxed),
                id: w[4].load(Ordering::Relaxed),
                parent: w[5].load(Ordering::Relaxed),
                args,
            });
        }
        out
    }

    /// Empties the buffer and its drop counter. Callers must quiesce
    /// writers first (the global tracer resets only while disabled);
    /// the commit words are cleared so a later snapshot can never mix
    /// epochs.
    pub fn reset(&self) {
        for slot in 0..self.capacity {
            self.slots[slot * WORDS].store(0, Ordering::Relaxed);
        }
        self.dropped.store(0, Ordering::Relaxed);
        self.len.store(0, Ordering::Release);
    }
}

/// The string interner: names and string argument values map to dense
/// non-zero `u32` ids; `names[id - 1]` resolves an id back.
#[derive(Default)]
struct Interner {
    ids: HashMap<String, u32>,
    names: Vec<String>,
}

/// Everything process-global the tracer owns.
struct Tracer {
    interner: Mutex<Interner>,
    /// Every thread's buffer, registered at that thread's first record.
    buffers: Mutex<Vec<Arc<TraceBuffer>>>,
    epoch: Instant,
    next_tid: AtomicU64,
    next_span: AtomicU64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        interner: Mutex::new(Interner::default()),
        buffers: Mutex::new(Vec::new()),
        epoch: Instant::now(),
        next_tid: AtomicU64::new(1),
        next_span: AtomicU64::new(1),
    })
}

thread_local! {
    static THREAD: RefCell<Option<ThreadState>> = const { RefCell::new(None) };
}

/// Per-thread recording state.
struct ThreadState {
    buffer: Arc<TraceBuffer>,
    tid: u64,
    /// The open-span stack: the top is the parent of the next span.
    stack: Vec<u64>,
}

/// Whether tracing is currently on. This is the whole disabled-path
/// cost: one relaxed load.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns tracing on or off, process-wide. Spans already open keep
/// recording their close; new spans observe the flag at entry.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Interns `name`, returning its non-zero id.
pub fn intern(name: &str) -> u32 {
    let t = tracer();
    let mut interner = t.interner.lock().expect("trace interner lock");
    if let Some(&id) = interner.ids.get(name) {
        return id;
    }
    interner.names.push(name.to_owned());
    let id = u32::try_from(interner.names.len()).expect("fewer than 2^32 interned strings");
    interner.ids.insert(name.to_owned(), id);
    id
}

/// Nanoseconds since the trace epoch.
#[must_use]
pub fn now_ns() -> u64 {
    instant_ns(Instant::now())
}

/// Converts an `Instant` to nanoseconds since the trace epoch (clamped
/// to zero for instants predating it).
#[must_use]
pub fn instant_ns(t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(tracer().epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `f` with the current thread's recording state, registering the
/// thread's buffer on first use.
fn with_thread<R>(f: impl FnOnce(&mut ThreadState) -> R) -> R {
    THREAD.with(|cell| {
        let mut state = cell.borrow_mut();
        let state = state.get_or_insert_with(|| {
            let t = tracer();
            let buffer = Arc::new(TraceBuffer::new(DEFAULT_CAPACITY));
            t.buffers
                .lock()
                .expect("trace buffer registry lock")
                .push(Arc::clone(&buffer));
            ThreadState {
                buffer,
                tid: t.next_tid.fetch_add(1, Ordering::Relaxed),
                stack: Vec::new(),
            }
        });
        f(state)
    })
}

/// A scoped span: created by [`span!`](crate::span), records itself on
/// drop. Inert (a no-op shell) while tracing is disabled.
#[must_use = "a span measures the scope it lives in"]
pub struct SpanGuard {
    /// `None` while tracing is disabled.
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    name: u32,
    start_ns: u64,
    id: u64,
    parent: u64,
    args: [Option<(u32, ArgValue)>; MAX_ARGS],
}

impl SpanGuard {
    /// Opens a span (called by the [`span!`](crate::span) macro, which
    /// supplies a per-callsite interned-id cache).
    pub fn enter(name: &'static str, cache: &AtomicU32) -> SpanGuard {
        if !enabled() {
            return SpanGuard { active: None };
        }
        let name = cached_id(name, cache);
        let t = tracer();
        let id = t.next_span.fetch_add(1, Ordering::Relaxed);
        let parent = with_thread(|state| {
            let parent = state.stack.last().copied().unwrap_or(0);
            state.stack.push(id);
            parent
        });
        SpanGuard {
            active: Some(ActiveSpan {
                name,
                start_ns: now_ns(),
                id,
                parent,
                args: [None; MAX_ARGS],
            }),
        }
    }

    /// Attaches an argument (first [`MAX_ARGS`] stick; extras are
    /// dropped). A no-op on a disabled span.
    pub fn arg(&mut self, key: &'static str, value: impl Into<Arg>) {
        if let Some(active) = &mut self.active {
            let value = match value.into() {
                Arg::U64(v) => ArgValue::U64(v),
                Arg::Str(s) => ArgValue::Str(intern(s)),
            };
            if let Some(slot) = active.args.iter_mut().find(|a| a.is_none()) {
                *slot = Some((intern(key), value));
            }
        }
    }

    /// This span's process-unique id (`0` while disabled) — the parent
    /// of manual child records.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.active.as_ref().map_or(0, |a| a.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let end = now_ns();
        with_thread(|state| {
            // Pop our own frame (robust to a mismatched stack if a
            // guard crossed threads — never pop someone else's frame).
            if state.stack.last() == Some(&active.id) {
                state.stack.pop();
            }
            state.buffer.push(&RawEvent {
                name: active.name,
                kind: EventKind::Span,
                tid: state.tid,
                start_ns: active.start_ns,
                dur_ns: end.saturating_sub(active.start_ns),
                id: active.id,
                parent: active.parent,
                args: active.args,
            });
        });
    }
}

/// An argument value at the recording call site.
pub enum Arg {
    /// A plain integer.
    U64(u64),
    /// A string (interned on record).
    Str(&'static str),
}

impl From<u64> for Arg {
    fn from(v: u64) -> Arg {
        Arg::U64(v)
    }
}

impl From<u32> for Arg {
    fn from(v: u32) -> Arg {
        Arg::U64(u64::from(v))
    }
}

impl From<usize> for Arg {
    fn from(v: usize) -> Arg {
        Arg::U64(v as u64)
    }
}

impl From<&'static str> for Arg {
    fn from(v: &'static str) -> Arg {
        Arg::Str(v)
    }
}

/// Resolves a per-callsite cached interned id.
fn cached_id(name: &'static str, cache: &AtomicU32) -> u32 {
    match cache.load(Ordering::Relaxed) {
        0 => {
            let id = intern(name);
            cache.store(id, Ordering::Relaxed);
            id
        }
        id => id,
    }
}

/// Records a point event (called by [`event!`](crate::event)).
pub fn record_event(name: &'static str, cache: &AtomicU32, args: &[(&'static str, Arg)]) {
    if !enabled() {
        return;
    }
    let name = cached_id(name, cache);
    let mut packed = [None; MAX_ARGS];
    for (slot, (key, value)) in packed.iter_mut().zip(args) {
        let value = match value {
            Arg::U64(v) => ArgValue::U64(*v),
            Arg::Str(s) => ArgValue::Str(intern(s)),
        };
        *slot = Some((intern(key), value));
    }
    let start_ns = now_ns();
    with_thread(|state| {
        state.buffer.push(&RawEvent {
            name,
            kind: EventKind::Instant,
            tid: state.tid,
            start_ns,
            dur_ns: 0,
            id: 0,
            parent: state.stack.last().copied().unwrap_or(0),
            args: packed,
        });
    });
}

/// Records a span retroactively, from explicit timestamps — for work
/// whose start and end live on different threads (a served request is
/// accepted on the reactor and finished on a worker). No-op while
/// disabled.
pub fn record_span(name: &str, start: Instant, end: Instant, args: &[(&'static str, Arg)]) {
    if !enabled() {
        return;
    }
    let name = intern(name);
    let mut packed = [None; MAX_ARGS];
    for (slot, (key, value)) in packed.iter_mut().zip(args) {
        let value = match value {
            Arg::U64(v) => ArgValue::U64(*v),
            Arg::Str(s) => ArgValue::Str(intern(s)),
        };
        *slot = Some((intern(key), value));
    }
    let start_ns = instant_ns(start);
    let id = tracer().next_span.fetch_add(1, Ordering::Relaxed);
    with_thread(|state| {
        state.buffer.push(&RawEvent {
            name,
            kind: EventKind::Span,
            tid: state.tid,
            start_ns,
            dur_ns: instant_ns(end).saturating_sub(start_ns),
            id,
            parent: 0,
            args: packed,
        });
    });
}

/// A consistent copy of everything recorded so far, with the interner
/// table needed to resolve names.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// Every committed event across all threads, sorted by start time.
    pub events: Vec<TraceEvent>,
    /// Events lost to full buffers.
    pub dropped: u64,
    /// Interned strings; id `n` resolves to `names[n - 1]`.
    pub names: Vec<String>,
}

impl TraceSnapshot {
    /// Resolves an interned id (`"?"` for an id this snapshot has never
    /// seen).
    #[must_use]
    pub fn name(&self, id: u32) -> &str {
        (id > 0)
            .then(|| self.names.get(id as usize - 1))
            .flatten()
            .map_or("?", String::as_str)
    }

    /// Total recorded duration of every span named `name` (children
    /// count toward their parents too — this sums raw span durations).
    #[must_use]
    pub fn total_named(&self, name: &str) -> Duration {
        let Some(id) = self.names.iter().position(|n| n == name) else {
            return Duration::ZERO;
        };
        let id = id as u32 + 1;
        Duration::from_nanos(
            self.events
                .iter()
                .filter(|e| e.name == id && e.kind == EventKind::Span)
                .map(|e| e.dur_ns)
                .sum(),
        )
    }

    /// Number of events named `name`.
    #[must_use]
    pub fn count_named(&self, name: &str) -> usize {
        let Some(id) = self.names.iter().position(|n| n == name) else {
            return 0;
        };
        let id = id as u32 + 1;
        self.events.iter().filter(|e| e.name == id).count()
    }
}

/// Snapshots every thread's buffer (committed events only, merged and
/// sorted by start time) plus the interner table. Safe to call while
/// tracing runs; concurrent half-written events are simply absent.
#[must_use]
pub fn snapshot() -> TraceSnapshot {
    let t = tracer();
    let buffers = t.buffers.lock().expect("trace buffer registry lock");
    let mut events = Vec::new();
    let mut dropped = 0;
    for buffer in buffers.iter() {
        events.extend(buffer.events());
        dropped += buffer.dropped();
    }
    drop(buffers);
    events.sort_by_key(|e| (e.start_ns, e.id));
    let names = t
        .interner
        .lock()
        .expect("trace interner lock")
        .names
        .clone();
    TraceSnapshot {
        events,
        dropped,
        names,
    }
}

/// Clears every thread's buffer and drop counter. Call only while
/// tracing is disabled and recording threads are quiescent — events
/// being recorded concurrently with the reset may be lost (never
/// torn).
pub fn reset() {
    let t = tracer();
    for buffer in t.buffers.lock().expect("trace buffer registry lock").iter() {
        buffer.reset();
    }
}

/// Opens a scoped span recording into the calling thread's buffer:
/// `span!("fds.refit")`, optionally with arguments —
/// `span!("serve.request", "id" => 7u64, "lane" => "hit")`. Returns a
/// [`SpanGuard`] measuring until end of scope. One relaxed atomic load
/// when tracing is off.
#[macro_export]
macro_rules! span {
    ($name:literal $(, $key:literal => $value:expr)* $(,)?) => {{
        static __PCHLS_OBS_ID: ::std::sync::atomic::AtomicU32 =
            ::std::sync::atomic::AtomicU32::new(0);
        #[allow(unused_mut)]
        let mut __pchls_obs_guard = $crate::SpanGuard::enter($name, &__PCHLS_OBS_ID);
        $( __pchls_obs_guard.arg($key, $value); )*
        __pchls_obs_guard
    }};
}

/// Records a zero-duration point event: `event!("serve.shed", "id" =>
/// 7u64)`. One relaxed atomic load when tracing is off.
#[macro_export]
macro_rules! event {
    ($name:literal $(, $key:literal => $value:expr)* $(,)?) => {{
        static __PCHLS_OBS_ID: ::std::sync::atomic::AtomicU32 =
            ::std::sync::atomic::AtomicU32::new(0);
        $crate::trace::record_event(
            $name,
            &__PCHLS_OBS_ID,
            &[$( ($key, $crate::trace::Arg::from($value)) ),*],
        );
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_round_trips_events() {
        let buf = TraceBuffer::new(8);
        let ev = RawEvent {
            name: 3,
            kind: EventKind::Span,
            tid: 1,
            start_ns: 100,
            dur_ns: 50,
            id: 9,
            parent: 4,
            args: [
                Some((5, ArgValue::U64(42))),
                Some((6, ArgValue::Str(7))),
                None,
                None,
            ],
        };
        assert!(buf.push(&ev));
        let events = buf.events();
        assert_eq!(events.len(), 1);
        let got = &events[0];
        assert_eq!((got.name, got.kind), (3, EventKind::Span));
        assert_eq!(
            (got.start_ns, got.dur_ns, got.id, got.parent),
            (100, 50, 9, 4)
        );
        assert_eq!(
            got.args,
            vec![(5, ArgValue::U64(42)), (6, ArgValue::Str(7))]
        );
    }

    #[test]
    fn full_buffer_drops_new_events_and_counts_them() {
        let buf = TraceBuffer::new(2);
        let ev = RawEvent {
            name: 1,
            kind: EventKind::Instant,
            tid: 0,
            start_ns: 0,
            dur_ns: 0,
            id: 0,
            parent: 0,
            args: [None; MAX_ARGS],
        };
        assert!(buf.push(&ev));
        assert!(buf.push(&ev));
        assert!(!buf.push(&ev));
        assert!(!buf.push(&ev));
        assert_eq!(buf.events().len(), 2);
        assert_eq!(buf.dropped(), 2);
        buf.reset();
        assert_eq!(buf.events().len(), 0);
        assert_eq!(buf.dropped(), 0);
        assert!(buf.push(&ev));
    }

    #[test]
    fn disabled_spans_record_nothing() {
        assert!(!enabled());
        let before = snapshot().events.len();
        {
            let _span = span!("test.disabled", "k" => 1u64);
            event!("test.disabled.event");
        }
        assert_eq!(snapshot().events.len(), before);
    }
}
