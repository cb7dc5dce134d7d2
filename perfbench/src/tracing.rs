//! The traced run's span bookkeeping. The workload drains the process
//! tracer's per-thread rings at quiescent points — between designs,
//! sweeps, edits, or chunks of wire requests whose replies are all in —
//! so no thread is recording while the rings are copied and reset. Each
//! drain folds every span into per-name totals and self times (duration
//! minus the time its children cover), pairs each wire request's
//! client-side span with the service's, keeps the first events as a
//! Chrome trace, and counts every event the run lost.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::Mutex;

use pchls_obs::trace::{ArgValue, EventKind, TraceSnapshot};

/// Name of the bench-side span around one wire request, from its due
/// time to its reply. It shares the request id with the service's own
/// `serve.request` span, which is subtracted as its child.
pub const REQUEST_SPAN: &str = "bench.request";

/// Per-name span totals.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// One wire request seen from both ends: the client's `bench.request`
/// span and the service's `serve.request` span with the same id.
#[derive(Debug, Clone, Copy)]
pub struct RequestTimes {
    pub id: u64,
    /// From due (or send) time to the reply's arrival at the client.
    pub client_ns: u64,
    /// From acceptance to completion inside the service.
    pub served_ns: u64,
    /// Whether the service answered on its hit lane.
    pub hit_lane: bool,
}

impl RequestTimes {
    /// Wire and queueing time outside the service, in µs.
    pub fn overhead_us(&self) -> f64 {
        (self.client_ns as f64 - self.served_ns as f64) / 1e3
    }
}

/// A `serve.request` span awaiting its `bench.request`.
#[derive(Clone, Copy)]
struct Served {
    dur_ns: u64,
    hit_lane: bool,
}

#[derive(Default)]
struct State {
    totals: BTreeMap<String, SpanTotals>,
    /// Child time and child count already seen, by parent span id, for
    /// parents not yet folded (children always commit first).
    pending_children: HashMap<u64, (u64, u64)>,
    /// `serve.request` spans by request id, awaiting their
    /// `bench.request`.
    served: HashMap<u64, Served>,
    /// `bench.request` spans whose `serve.request` never arrived.
    unmatched_requests: u64,
    requests: Vec<RequestTimes>,
    /// Recent top-level program spans per thread as (start, end), for
    /// the retroactive `serve.request` spans that enclose them.
    roots: HashMap<u64, Vec<(u64, u64)>>,
    /// Durations of each `store.*` span in µs, for exact percentiles.
    samples: BTreeMap<String, Vec<f64>>,
    /// The run's first events, for the Chrome trace.
    chrome: TraceSnapshot,
    /// Events the rings refused because they were full.
    overflowed: u64,
}

/// How long an unclaimed top-level span waits for an enclosing
/// `serve.request` (longer than any request).
const ROOT_HORIZON_NS: u64 = 60_000_000_000;

/// Events kept for the Chrome trace (the start of the run).
const CHROME_EVENTS: usize = 20_000;

/// The traced run's accumulator.
#[derive(Default)]
pub struct Collector {
    state: Mutex<State>,
}

impl Collector {
    /// Starts over empty rings; spans are recorded only while
    /// [`record`](Collector::record) is on.
    pub fn start() -> Collector {
        pchls_obs::trace::reset();
        Collector::default()
    }

    /// Turns span recording on or off (the workloads record their timed
    /// window only, not set-up or the output check).
    pub fn record(&self, on: bool) {
        pchls_obs::trace::set_enabled(on);
    }

    /// Folds everything recorded so far into the totals and empties the
    /// rings, with recording paused as the tracer requires. Call only at
    /// a quiescent point, where every thread that records has closed its
    /// spans: a reset under a running writer would lose its event
    /// without counting it.
    pub fn drain(&self) {
        let was_on = pchls_obs::trace::enabled();
        pchls_obs::trace::set_enabled(false);
        let snapshot = pchls_obs::trace::snapshot();
        pchls_obs::trace::reset();
        pchls_obs::trace::set_enabled(was_on);
        self.fold(&snapshot);
    }

    /// Drains once more and turns tracing off.
    pub fn finish(&self) {
        self.drain();
        pchls_obs::trace::set_enabled(false);
    }

    fn fold(&self, snap: &TraceSnapshot) {
        let mut st = self.state.lock().expect("trace collector lock");
        st.overflowed += snap.dropped;
        let room = CHROME_EVENTS.saturating_sub(st.chrome.events.len());
        if room > 0 {
            st.chrome
                .events
                .extend(snap.events.iter().take(room).cloned());
            st.chrome.names.clone_from(&snap.names);
        }
        let id_key = snap
            .names
            .iter()
            .position(|n| n == "id")
            .map(|i| i as u32 + 1);
        let arg_id = |args: &[(u32, ArgValue)]| {
            args.iter().find_map(|&(k, v)| match v {
                ArgValue::U64(id) if Some(k) == id_key => Some(id),
                _ => None,
            })
        };
        let spans = snap.events.iter().filter(|e| e.kind == EventKind::Span);
        // Children first: in one snapshot a parent may precede its
        // children by start time, so collect child time before
        // computing any self time.
        for e in spans.clone() {
            if e.parent != 0 {
                let pending = st.pending_children.entry(e.parent).or_default();
                pending.0 += e.dur_ns;
                pending.1 += 1;
            }
            let name = snap.name(e.name);
            if name == "serve.request" {
                if let Some(id) = arg_id(&e.args) {
                    let hit_lane = on_hit_lane(&e.args, snap);
                    let served = Served {
                        dur_ns: e.dur_ns,
                        hit_lane,
                    };
                    st.served.insert(id, served);
                }
            } else if e.parent == 0 && !bench_side(name) {
                let end = e.start_ns + e.dur_ns;
                st.roots.entry(e.tid).or_default().push((e.start_ns, end));
            }
        }
        for e in spans {
            let name = snap.name(e.name).to_owned();
            let mut children = st.pending_children.remove(&e.id).map_or(0, |(ns, _)| ns);
            if name == REQUEST_SPAN {
                let served = arg_id(&e.args).and_then(|id| Some((id, st.served.remove(&id)?)));
                match served {
                    Some((id, served)) => {
                        children += served.dur_ns;
                        st.requests.push(RequestTimes {
                            id,
                            client_ns: e.dur_ns,
                            served_ns: served.dur_ns,
                            hit_lane: served.hit_lane,
                        });
                    }
                    None => st.unmatched_requests += 1,
                }
            }
            if name == "serve.request" {
                // Recorded after the fact on the worker, so the kernel,
                // compile and store spans it ran have no parent: claim
                // the ones on its thread inside its interval.
                let (start, end) = (e.start_ns, e.start_ns + e.dur_ns);
                if let Some(roots) = st.roots.get_mut(&e.tid) {
                    roots.retain(|&(s, f)| {
                        let inside = s >= start && f <= end;
                        if inside {
                            children += f - s;
                        }
                        !inside && f + ROOT_HORIZON_NS > start
                    });
                }
            }
            if name.starts_with("store.") {
                st.samples
                    .entry(name.clone())
                    .or_default()
                    .push(e.dur_ns as f64 / 1e3);
            }
            let t = st.totals.entry(name).or_default();
            t.count += 1;
            t.total_ns += e.dur_ns;
            t.self_ns += e.dur_ns.saturating_sub(children);
        }
    }

    pub fn totals(&self) -> BTreeMap<String, SpanTotals> {
        self.state
            .lock()
            .expect("trace collector lock")
            .totals
            .clone()
    }

    /// Durations in µs of the `store.read` or `store.append` spans.
    pub fn samples(&self, key: &str) -> Vec<f64> {
        self.state
            .lock()
            .expect("trace collector lock")
            .samples
            .get(key)
            .cloned()
            .unwrap_or_default()
    }

    /// Every wire request whose client and service spans both arrived.
    pub fn requests(&self) -> Vec<RequestTimes> {
        self.state
            .lock()
            .expect("trace collector lock")
            .requests
            .clone()
    }

    /// Every event the run lost: those the full rings refused, children
    /// whose parent never arrived, and wire requests seen from one end
    /// only. Meaningful after [`finish`](Collector::finish).
    pub fn lost(&self) -> u64 {
        let (overflowed, orphans, one_sided) = self.losses();
        overflowed + orphans + one_sided
    }

    /// [`lost`](Collector::lost) by kind: events the full rings refused,
    /// children whose parent never arrived, and requests seen from one
    /// end only.
    pub fn losses(&self) -> (u64, u64, u64) {
        let st = self.state.lock().expect("trace collector lock");
        let orphans = st.pending_children.values().map(|&(_, n)| n).sum();
        let one_sided = st.unmatched_requests + st.served.len() as u64;
        (st.overflowed, orphans, one_sided)
    }

    /// The start of the run as Chrome trace-event JSON.
    pub fn chrome_trace(&self) -> String {
        pchls_obs::chrome_trace_json(&self.state.lock().expect("trace collector lock").chrome)
    }
}

/// Whether a `serve.request` span's `lane` argument is `hit`.
fn on_hit_lane(args: &[(u32, ArgValue)], snap: &TraceSnapshot) -> bool {
    args.iter().any(|&(k, v)| match v {
        ArgValue::Str(s) => snap.name(k) == "lane" && snap.name(s) == "hit",
        ArgValue::U64(_) => false,
    })
}

/// Whether a span was recorded by the benchmark rather than the
/// program.
fn bench_side(name: &str) -> bool {
    name.starts_with("bench.")
}

/// Self time of every program span name as a share of all the
/// program's traced self time. Bench-side spans get no share: work the
/// program fans out to other threads is not their child, so their self
/// time overlaps the program's.
pub fn shares(totals: &BTreeMap<String, SpanTotals>) -> BTreeMap<String, f64> {
    let program = |(name, _): &(&String, &SpanTotals)| !bench_side(name);
    let all: u64 = totals.iter().filter(program).map(|(_, t)| t.self_ns).sum();
    totals
        .iter()
        .filter(program)
        .map(|(name, t)| {
            (
                name.clone(),
                crate::util::ratio(t.self_ns as f64, all as f64),
            )
        })
        .collect()
}

/// The per-layer self-time table, one row per span name, largest self
/// time first.
pub fn render_table(totals: &BTreeMap<String, SpanTotals>) -> String {
    let shares = shares(totals);
    let mut rows: Vec<(&String, &SpanTotals)> = totals.iter().collect();
    rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
    let mut out = format!(
        "{:<24} {:>9} {:>12} {:>12} {:>8}\n",
        "span", "count", "total_ms", "self_ms", "share"
    );
    for (name, t) in rows {
        let share = shares
            .get(name)
            .map_or_else(|| "-".to_owned(), |s| format!("{:.2}%", s * 100.0));
        let _ = writeln!(
            out,
            "{:<24} {:>9} {:>12.3} {:>12.3} {:>8}",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            share
        );
    }
    out
}
