//! `pchls-perfbench`: the pchls benchmark. Three workloads drive pchls
//! only through its public functions — `explore` (one designer calling
//! the library), `serve-mix` (independent clients hitting a shared TCP
//! service with a result store) and `edit-loop` (one designer editing a
//! graph and resubmitting it over the wire) — and report end-to-end
//! metrics with tracing off, or per-layer metrics from a traced run.
//!
//! ```text
//! pchls-perfbench --workload explore --seed 1 --seconds 20 --trace 0
//! pchls-perfbench report                      # every record, one row each
//! pchls-perfbench selfcheck --seed 1 --seconds 5
//! ```
//!
//! The last line of a run's standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Each run also
//! writes a record with a host descriptor under `perfbench/out/`.

mod check;
mod client;
mod edit_loop;
mod explore;
mod inputs;
mod serve_mix;
mod speed;
mod tracing;
mod util;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pchls_core::SynthesisStats;
use serde_json::Value;

use crate::speed::{process_cpu, Speed};
use crate::tracing::{Collector, RequestTimes};
use crate::util::{median, metrics_json, Metric, Metrics, Obj};

/// Where records, traces and scratch stores go, relative to the
/// checkout root the benchmark runs from.
const OUT_DIR: &str = "perfbench/out";

/// Set-ups per run, at the fewest; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// A run keeps setting up until this much time has gone into it, so a
/// set-up of milliseconds is timed often enough for a steady median.
const SETUP_MIN_TIME: Duration = Duration::from_secs(1);

/// The end-to-end metrics every workload reports with tracing off.
/// Each workload gives the latency, tail, throughput and quality names
/// its own meaning (see `perfbench/README.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("area_geomean", "area"),
];

/// The kernel and compile phases whose self time the traced run splits
/// out.
pub const PHASES: &[&str] = &[
    "kernel.score",
    "kernel.topk",
    "kernel.commit",
    "kernel.bootstrap",
    "kernel.patch",
    "fds.palap",
    "fds.refit",
    "engine.compile",
    "cdfg.diff",
];

/// The per-layer metrics a traced run reports. A layer a workload does
/// not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cdfg.parse_us", "us"),
    ("cdfg.fingerprint_us", "us"),
    ("cdfg.diff_us", "us"),
    ("core.compile_ms", "ms"),
    ("core.compiles", "count"),
    ("core.synthesize_ms", "ms"),
    ("core.decisions", "count"),
    ("core.rejected", "count"),
    ("core.backtracks", "count"),
    ("core.fast_commits", "count"),
    ("core.accept_ratio", "ratio"),
    ("core.incremental_hits", "count"),
    ("core.incremental_fallbacks", "count"),
    ("par.synth_ms", "ms"),
    ("par.kernel_speedup", "ratio"),
    ("par.cpu_util_synth", "ratio"),
    ("par.cpu_util_sweep", "ratio"),
    ("serve.hot_p50_ms", "ms"),
    ("serve.hot_p99_ms", "ms"),
    ("serve.disk_p50_ms", "ms"),
    ("serve.disk_p99_ms", "ms"),
    ("serve.cold_p50_ms", "ms"),
    ("serve.cold_p99_ms", "ms"),
    ("serve.nearmiss_p50_ms", "ms"),
    ("serve.nearmiss_p99_ms", "ms"),
    ("serve.result_tier_hit_ratio", "ratio"),
    ("serve.store_tier_hit_ratio", "ratio"),
    ("serve.compile_cache_hit_ratio", "ratio"),
    ("serve.patch_ratio", "ratio"),
    ("serve.result_tier_hits", "count"),
    ("serve.store_tier_hits", "count"),
    ("serve.patched", "count"),
    ("serve.hit_lane_p50_ms", "ms"),
    ("serve.hit_lane_p99_ms", "ms"),
    ("serve.synth_lane_p50_ms", "ms"),
    ("serve.synth_lane_p99_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.rate_limited", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.error_frac", "ratio"),
    ("serve.gen_lag_p99_ms", "ms"),
    ("serve.sat_wall_rps", "1/s"),
    ("store.read_p50_us", "us"),
    ("store.read_p99_us", "us"),
    ("store.reads", "count"),
    ("store.append_p50_us", "us"),
    ("store.append_p99_us", "us"),
    ("store.appends", "count"),
    ("store.open_ms", "ms"),
    ("store.file_bytes", "bytes"),
    ("net.overhead_us", "us"),
    ("trace.dropped_events", "count"),
];

/// Counts two runs of one seed must reproduce exactly.
const DETERMINISTIC: &[&str] = &[
    "core.compiles",
    "core.decisions",
    "core.rejected",
    "core.backtracks",
    "core.fast_commits",
    "core.incremental_hits",
    "core.incremental_fallbacks",
    "serve.result_tier_hits",
    "serve.store_tier_hits",
    "serve.patched",
    "store.appends",
];

pub const WORKLOADS: &[&str] = &["explore", "serve-mix", "edit-loop"];

/// What one run of a workload is asked to do.
pub struct Ctx<'a> {
    pub seed: u64,
    pub seconds: u64,
    /// Present in the traced run.
    pub collector: Option<&'a Collector>,
    /// Process start, the origin of the first set-up's time.
    pub started: Instant,
    /// Scratch directory of this run (result stores).
    pub scratch: PathBuf,
}

impl Ctx<'_> {
    pub fn traced(&self) -> bool {
        self.collector.is_some()
    }

    /// Brackets the timed window of a traced run.
    pub fn record(&self, on: bool) {
        if let Some(c) = self.collector {
            c.record(on);
        }
    }

    /// Marks a quiescent point of a traced run, where every thread that
    /// records spans has closed them: the spans so far are folded and the
    /// tracer's rings emptied. A no-op in an untraced run.
    pub fn quiesce(&self) {
        if let Some(c) = self.collector {
            c.drain();
        }
    }

    /// Runs `setup` at least [`SETUP_REPS`] times and until
    /// [`SETUP_MIN_TIME`] has gone into it, keeping the last result. Set-up
    /// is CPU-bound, so each repetition is timed by the CPU time of every
    /// thread of the process, at the reference speed (see `speed.rs`); the
    /// first repetition counts from process start.
    pub fn set_up<S>(&self, mut setup: impl FnMut() -> S) -> (S, Vec<Duration>) {
        let mut speed = Speed::new();
        let mut reps: Vec<(Instant, Duration)> = Vec::with_capacity(SETUP_REPS);
        let mut kept = None;
        while reps.len() < SETUP_REPS || reps.iter().map(|r| r.1).sum::<Duration>() < SETUP_MIN_TIME
        {
            // Tear the previous set-up down before timing the next one.
            drop(kept.take());
            let (at, cpu0) = if reps.is_empty() {
                (self.started, Duration::ZERO)
            } else {
                (Instant::now(), process_cpu())
            };
            kept = Some(setup());
            reps.push((at, process_cpu() - cpu0));
            speed.probe();
        }
        let times = reps
            .iter()
            .map(|&(at, cpu)| Duration::from_secs_f64(speed.scaled_ms(at, cpu) / 1e3))
            .collect();
        (kept.expect("at least one set-up"), times)
    }
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    pub setup: Vec<Duration>,
    pub attempted: u64,
    pub failed: u64,
    /// The first failure messages, for the record.
    pub errors: Vec<String>,
    pub e2e: Metrics,
    pub layers: Metrics,
    /// Service workers and shards, when the workload runs a service.
    pub service: Option<(usize, usize)>,
}

impl Outcome {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 10 {
            self.errors.push(why);
        }
    }
}

/// Records `value` under `name` with the unit the metric tables fix.
pub fn put(metrics: &mut Metrics, name: &str, value: f64) {
    let unit = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .unwrap_or_else(|| panic!("metric `{name}` is in neither table"));
    metrics.insert(name.to_owned(), Metric { value, unit });
}

/// `per_10s` scaled to a run of `seconds` (at least 1), so the work of a
/// run is fixed by its length, never by how fast the host is.
pub fn scaled(per_10s: usize, seconds: u64) -> usize {
    ((per_10s as f64 * seconds as f64 / 10.0).round() as usize).max(1)
}

/// The kernel's effort counters, summed over `designs`.
pub fn put_kernel_counts<'a>(l: &mut Metrics, designs: impl Iterator<Item = &'a SynthesisStats>) {
    let mut sum = SynthesisStats::default();
    for s in designs {
        sum.decisions += s.decisions;
        sum.rejected_candidates += s.rejected_candidates;
        sum.backtracks += s.backtracks;
        sum.fast_commits += s.fast_commits;
    }
    put(l, "core.decisions", sum.decisions as f64);
    put(l, "core.rejected", sum.rejected_candidates as f64);
    put(l, "core.backtracks", sum.backtracks as f64);
    put(l, "core.fast_commits", sum.fast_commits as f64);
    let attempts = (sum.decisions + sum.rejected_candidates) as f64;
    put(
        l,
        "core.accept_ratio",
        util::ratio(sum.decisions as f64, attempts),
    );
}

/// The session's replay counters, read before a timed window so the
/// window's deltas can be reported after it.
pub struct ReplayCounters {
    hits: u64,
    fallbacks: u64,
}

impl ReplayCounters {
    const HITS: &'static str = "pchls_session_incremental_hits_total";
    const FALLBACKS: &'static str = "pchls_session_incremental_fallbacks_total";

    pub fn read() -> ReplayCounters {
        let global = pchls_obs::global();
        ReplayCounters {
            hits: global.counter(Self::HITS).get(),
            fallbacks: global.counter(Self::FALLBACKS).get(),
        }
    }

    pub fn put_deltas(&self, l: &mut Metrics) {
        let now = ReplayCounters::read();
        put(l, "core.incremental_hits", (now.hits - self.hits) as f64);
        put(
            l,
            "core.incremental_fallbacks",
            (now.fallbacks - self.fallbacks) as f64,
        );
    }
}

/// Observations so far in a histogram of the global registry.
pub fn global_observations(name: &str) -> u64 {
    pchls_obs::global().histogram(name).count()
}

struct Args {
    /// Required for a run; `selfcheck` runs every workload without it.
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w} (one of {WORKLOADS:?})"));
        }
    }
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Runs one workload once and returns its outcome with `setup_s` and
/// `peak_rss_mb` filled in and every per-layer name present.
fn run_workload(name: &str, ctx: &Ctx<'_>) -> Outcome {
    let mut out = match name {
        "explore" => explore::run(ctx),
        "serve-mix" => serve_mix::run(ctx),
        "edit-loop" => edit_loop::run(ctx),
        _ => unreachable!("workload names are validated"),
    };
    let setup: Vec<f64> = out.setup.iter().map(Duration::as_secs_f64).collect();
    put(&mut out.e2e, "setup_s", median(&setup));
    put(&mut out.e2e, "peak_rss_mb", util::peak_rss_mb());
    if let Some(c) = ctx.collector {
        c.finish();
        phase_metrics(&mut out.layers, c);
        put(&mut out.layers, "trace.dropped_events", c.lost() as f64);
    }
    for &(name, _) in PER_LAYER {
        if !out.layers.contains_key(name) {
            put(&mut out.layers, name, 0.0);
        }
    }
    out
}

/// Self time and share of the kernel/compile phases, plus exact store
/// percentiles from their spans.
fn phase_metrics(layers: &mut Metrics, collector: &Collector) {
    let totals = collector.totals();
    let shares = tracing::shares(&totals);
    for phase in PHASES {
        let self_ms = totals.get(*phase).map_or(0.0, |t| t.self_ns as f64 / 1e6);
        let share = shares.get(*phase).copied().unwrap_or(0.0);
        layers.insert(
            format!("phase.{phase}.self_ms"),
            Metric {
                value: self_ms,
                unit: "ms",
            },
        );
        layers.insert(
            format!("phase.{phase}.share"),
            Metric {
                value: share,
                unit: "ratio",
            },
        );
    }
    for (span, p50, p99) in [
        ("store.read", "store.read_p50_us", "store.read_p99_us"),
        ("store.append", "store.append_p50_us", "store.append_p99_us"),
    ] {
        let samples = collector.samples(span);
        if !samples.is_empty() {
            put(layers, p50, util::quantile(&samples, 0.5));
            put(layers, p99, util::quantile(&samples, 0.99));
        }
    }
}

/// In-service latency percentiles per lane, from the service's own
/// `serve.request` spans of `requests`.
pub fn put_lane_layers(layers: &mut Metrics, requests: &[RequestTimes]) {
    for (hit_lane, p50, p99) in [
        (true, "serve.hit_lane_p50_ms", "serve.hit_lane_p99_ms"),
        (false, "serve.synth_lane_p50_ms", "serve.synth_lane_p99_ms"),
    ] {
        let served: Vec<f64> = requests
            .iter()
            .filter(|r| r.hit_lane == hit_lane)
            .map(|r| r.served_ns as f64 / 1e6)
            .collect();
        if !served.is_empty() {
            put(layers, p50, util::quantile(&served, 0.5));
            put(layers, p99, util::quantile(&served, 0.99));
        }
    }
}

/// Host descriptor stamped on every record.
fn host(args: &Args, out: &Outcome) -> Value {
    let (workers, shards) = out.service.unwrap_or((0, 0));
    Obj::new()
        .put("nproc", nproc())
        .put(
            "pchls_threads",
            std::env::var("PCHLS_THREADS").unwrap_or_default(),
        )
        .put("service_workers", workers)
        .put("service_shards", shards)
        .put("git_rev", util::git_rev())
        .put(
            "build_profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .put("workload", args.workload.clone().unwrap_or_default())
        .put("seed", args.seed)
        .put("seconds", args.seconds)
        .put("trace", args.trace)
        .value()
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Pins the kernel's thread count to the host's core count, explicitly
/// and before anything reads it, so the workload never changes silently
/// with an inherited environment.
fn pin_threads() {
    // Single-threaded here: nothing else reads the environment yet.
    std::env::set_var("PCHLS_THREADS", nproc().to_string());
}

fn record_path(workload: &str, seed: u64, trace: bool) -> PathBuf {
    Path::new(OUT_DIR).join(format!(
        "{workload}-seed{seed}-trace{}.json",
        u8::from(trace)
    ))
}

fn run(args: &Args, started: Instant) -> Result<bool, String> {
    let workload = args.workload.as_deref().ok_or("--workload is required")?;
    let scratch = Path::new(OUT_DIR).join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let collector = args.trace.then(Collector::start);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        collector: collector.as_ref(),
        started,
        scratch: scratch.clone(),
    };
    let out = run_workload(workload, &ctx);
    let _ = std::fs::remove_dir_all(&scratch);
    let correct = out.failed == 0;
    for e in &out.errors {
        eprintln!("FAILED: {e}");
    }

    let base = format!("{workload}-seed{}", args.seed);
    let mut record = Obj::new()
        .put("schema", "pchls-perfbench-v1")
        .put("host", host(args, &out))
        .put("correct", correct)
        .put("attempted", out.attempted)
        .put("failed", out.failed)
        .put(
            "errors",
            Value::Array(out.errors.iter().map(|e| Value::Str(e.clone())).collect()),
        )
        .put(
            "setup_reps_s",
            Value::Array(
                out.setup
                    .iter()
                    .map(|d| Value::Float(d.as_secs_f64()))
                    .collect(),
            ),
        )
        .put("end_to_end", metrics_json(&out.e2e))
        .put("per_layer", metrics_json(&out.layers));
    if let Some(c) = &collector {
        let table = tracing::render_table(&c.totals());
        let overhead = tracing_overhead(workload, args, &out.e2e);
        let (overflowed, orphans, one_sided) = c.losses();
        let mut text = format!(
            "# {base}: per-layer self time (traced run)\n{table}\n\
             # lost events: {overflowed} refused by full rings, {orphans} children \
             without their parent, {one_sided} requests seen from one end\n"
        );
        if let Some(o) = &overhead {
            text.push_str(&format!("\n# tracing overhead vs the untraced record\n{o}"));
        }
        eprint!("{text}");
        write(
            &Path::new(OUT_DIR).join(format!("{base}.layers.txt")),
            &text,
        )?;
        write(
            &Path::new(OUT_DIR).join(format!("{base}.trace.json")),
            &c.chrome_trace(),
        )?;
        record = record.put("tracing_overhead", overhead.unwrap_or_default());
    }
    let record = util::to_json(record.value(), true);
    write(&record_path(workload, args.seed, args.trace), &record)?;

    let shown = if args.trace { &out.layers } else { &out.e2e };
    for (name, m) in shown {
        eprintln!("{:<34} {:>14.6} {}", name, m.value, m.unit);
    }
    let line = Obj::new()
        .put("correct", correct)
        .put("attempted", out.attempted)
        .put("failed", out.failed)
        .put("metrics", metrics_json(shown))
        .value();
    println!("{}", util::to_json(line, false));
    Ok(correct)
}

/// Traced-vs-untraced difference of each end-to-end metric, when an
/// untraced record of the same workload, seed and length exists.
fn tracing_overhead(workload: &str, args: &Args, traced: &Metrics) -> Option<String> {
    let text = std::fs::read_to_string(record_path(workload, args.seed, false)).ok()?;
    let record = serde_json::parse(&text).ok()?;
    let seconds = record.get("host").and_then(|h| h.get("seconds"));
    if seconds != Some(&Value::Int(i128::from(args.seconds))) {
        return None;
    }
    let untraced = record.get("end_to_end")?;
    let mut out = String::new();
    for (name, m) in traced {
        let Some(Value::Float(base)) = untraced.get(name).and_then(|v| v.get("value")) else {
            continue;
        };
        out.push_str(&format!(
            "{name:<20} untraced {base:>12.4} traced {:>12.4} ({:+.2}%)\n",
            m.value,
            util::ratio(m.value - base, *base) * 100.0
        ));
    }
    Some(out)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `report`: every record under the output directory, one row per
/// workload run, every metric by name with its unit.
fn report() -> Result<(), String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(OUT_DIR)
        .map_err(|e| format!("{OUT_DIR}: {e} (run a workload first)"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.extension().is_some_and(|x| x == "json")
                && !p.to_string_lossy().ends_with(".trace.json")
        })
        .collect();
    paths.sort();
    for path in paths {
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let Ok(record) = serde_json::parse(&text) else {
            continue;
        };
        let field = |v: Option<&Value>| match v {
            Some(Value::Str(s)) => s.clone(),
            Some(Value::Int(i)) => i.to_string(),
            Some(Value::Bool(b)) => b.to_string(),
            _ => "?".into(),
        };
        let host = record.get("host");
        let mut row = format!(
            "{} seed={} trace={} correct={} nproc={} threads={} rev={} |",
            field(host.and_then(|h| h.get("workload"))),
            field(host.and_then(|h| h.get("seed"))),
            field(host.and_then(|h| h.get("trace"))),
            field(record.get("correct")),
            field(host.and_then(|h| h.get("nproc"))),
            field(host.and_then(|h| h.get("pchls_threads"))),
            field(host.and_then(|h| h.get("git_rev")))
                .chars()
                .take(10)
                .collect::<String>(),
        );
        let traced = matches!(host.and_then(|h| h.get("trace")), Some(Value::Bool(true)));
        let section = if traced { "per_layer" } else { "end_to_end" };
        for (name, m) in record
            .get(section)
            .and_then(Value::as_object)
            .unwrap_or(&[])
        {
            let value = match m.get("value") {
                Some(Value::Float(f)) => format!("{f:.6}"),
                Some(Value::Int(i)) => i.to_string(),
                _ => "?".into(),
            };
            row.push_str(&format!(" {name}={value} {};", field(m.get("unit"))));
        }
        println!("{row}");
    }
    Ok(())
}

/// `selfcheck`: runs each workload (or the one named) twice with one
/// seed and compares the counts that must repeat exactly, plus the
/// design-quality metric.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let (seed, seconds) = (args.seed, args.seconds);
    let mut ok = true;
    let chosen: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    for workload in chosen {
        let mut runs: Vec<BTreeMap<String, f64>> = Vec::new();
        for _ in 0..2 {
            let scratch = Path::new(OUT_DIR).join(format!("scratch-{}", std::process::id()));
            std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
            let ctx = Ctx {
                seed,
                seconds,
                collector: None,
                started: Instant::now(),
                scratch: scratch.clone(),
            };
            let out = run_workload(workload, &ctx);
            let _ = std::fs::remove_dir_all(&scratch);
            if out.failed > 0 {
                eprintln!("{workload}: {} failed op(s): {:?}", out.failed, out.errors);
                ok = false;
            }
            let mut counts: BTreeMap<String, f64> = DETERMINISTIC
                .iter()
                .map(|&n| (n.to_owned(), out.layers[n].value))
                .collect();
            counts.insert("area_geomean".into(), out.e2e["area_geomean"].value);
            runs.push(counts);
        }
        for (name, first) in &runs[0] {
            let second = runs[1][name];
            let same = first.to_bits() == second.to_bits();
            ok &= same;
            println!(
                "{workload:<10} {name:<28} {first:>16} {second:>16} {}",
                if same { "equal" } else { "DIFFERENT" }
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let started = Instant::now();
    pin_threads();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("report") => report().map(|()| true),
        Some("selfcheck") => parse_args(&args[1..]).and_then(|a| {
            std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
            selfcheck(&a)
        }),
        _ => parse_args(&args).and_then(|a| {
            std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
            run(&a, started)
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("pchls-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
