//! `pchls` — command-line front end for the power-constrained high-level
//! synthesis library.
//!
//! ```text
//! pchls benchmarks
//! pchls dump <graph> [--dot]
//! pchls synth <graph> -T <cycles> (-P <power> | --budget <file>) [--library <file>] [--hdl] [--profile]
//! pchls sweep <graph> -T <cycles> [--steps <n>] [--budget <file>] [--store <dir>]
//! pchls batch <graph> --points <file> [--budget <file>] [--store <dir>]
//! pchls battery <graph> -T <cycles> (-P <power> | --budget <file>) [--capacity <charge>]
//! pchls serve (--stdio | --addr <host:port>) [--workers <n>] [--shards <n>] [--cache-cap <n>] [--queue-cap <n>]
//!             [--shed-depth <n>] [--rate <req/s>] [--burst <n>] [--max-line-bytes <n>] [--store <dir>]
//!             [--stats-interval <secs>] [--metrics]
//! pchls simulate <graph> -T <cycles> -P <power> --set name=value ...
//! pchls vcd <graph> -T <cycles> -P <power> --set name=value ... [--out <file>]
//! pchls store (stat|verify|compact) <dir>
//! ```
//!
//! `<graph>` is either a built-in benchmark name (`hal`, `cosine`,
//! `elliptic`, `ar`, `fir16`, `fft_bfly`) or a path to a `.dfg` file in
//! the textual CDFG format.
//!
//! `--budget <file>` replaces the scalar `-P` bound with a
//! **time-varying power envelope**: a JSON object of one of the shapes
//! `{"constant": 25.0}`, `{"steps": [[0, 30.0], [8, 12.0]]}` (each
//! `[cycle, bound]` step holds until the next), or
//! `{"per_cycle": [30.0, 30.0, 12.0, …]}` (exactly one bound per cycle
//! of `-T`). Validation rejects NaN, negative and wrong-horizon budgets
//! with the offending line number. Under `sweep`, the envelope is swept
//! over *scale factors* instead of a scalar power grid; under `batch`,
//! the points file's `P` column becomes the per-point scale factor.
//!
//! Every synthesis-shaped command compiles the graph once through the
//! session API ([`Engine::compile`]) and reuses the compiled artifacts
//! for all constraint points it evaluates — `batch` amortizes one
//! compile across a whole file of `(T, P<)` points.
//!
//! `--store <dir>` points `batch`/`sweep`/`serve` at a **persistent
//! result store** (`pchls-store`): constraint points already
//! materialized under the same graph fingerprint and budget digest are
//! read back instead of re-synthesized, and everything fresh is
//! appended, so an interrupted run resumes where it stopped and a
//! restarted service answers warm. `pchls store stat|verify|compact`
//! inspects and maintains a store directory.
//!
//! `--trace-out <file>` on `synth`/`batch` enables the `pchls-obs`
//! tracer for the run and writes every recorded span (compile, scoring,
//! ledger fits, FDS refits, TopK, commit) as Chrome trace-event JSON —
//! load the file in Perfetto or `chrome://tracing`. On `serve`,
//! `--stats-interval <secs>` prints the one-line stats summary to
//! stderr periodically from the reactor's timer wheel, and `--metrics`
//! dumps the Prometheus-style exposition at exit; live scrapes go
//! through the protocol's `metrics` op.

use std::collections::BTreeMap;
use std::process::ExitCode;

use pchls::battery::battery_report;
use pchls::cdfg::{benchmarks, parse_cdfg, write_cdfg, Cdfg, GraphStats, Interpreter};
use pchls::core::{
    CompiledGraph, Engine, PowerBudget, Session, SweepPoint, SweepResult, SweepSpec,
    SynthesisConstraints, SynthesisOptions, SynthesisRequest, MAX_LATENCY,
};
use pchls::fulib::{paper_library, parse_library, ModuleLibrary};
use pchls::rtl::{simulate, to_structural_hdl, Datapath};
use pchls::serve::{render_serve_stats, serve_stdio, serve_tcp, Service, ServiceConfig};
use pchls::store::{trace_bytes, Store, StoreKey, StoreRecord, StoreStat, STORE_FILE_NAME};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  pchls benchmarks
  pchls dump <graph> [--dot|--stats]
  pchls synth <graph> -T <cycles> (-P <power> | --budget <file>) [--library <file>] [--hdl] [--profile] [--gantt] [--refine] [--optimize] [--trace-out <file>]
  pchls sweep <graph> -T <cycles> [--steps <n>] [--budget <file>] [--store <dir>]   # with --budget, sweeps envelope scale factors
  pchls batch <graph> --points <file> [--budget <file>] [--store <dir>] [--trace-out <file>]   # one `T P` pair per line; with --budget, P scales the envelope
  pchls battery <graph> -T <cycles> (-P <power> | --budget <file>) [--capacity <charge>]
  pchls serve (--stdio | --addr <host:port>) [--workers <n>] [--shards <n>] [--cache-cap <n>] [--queue-cap <n>]
              [--shed-depth <n>] [--rate <req/s>] [--burst <n>] [--max-line-bytes <n>] [--store <dir>]
              [--stats-interval <secs>] [--metrics]
  pchls simulate <graph> -T <cycles> -P <power> --set name=value ...
  pchls vcd <graph> -T <cycles> -P <power> --set name=value ... [--out <file>]
  pchls store (stat|verify|compact) <dir>

budget files are JSON: {\"constant\": 25.0} | {\"steps\": [[0,30.0],[8,12.0]]} | {\"per_cycle\": [30.0,...]}
--store <dir> resumes batch/sweep from (and appends to) a persistent result store; serve uses it as a second cache tier
--trace-out <file> records kernel phase spans and writes Chrome trace-event JSON (open in Perfetto / chrome://tracing)
--stats-interval <secs> makes serve print its one-line stats summary to stderr every <secs> seconds; --metrics dumps the
Prometheus-style text exposition to stderr at exit (live scrape: send {\"op\":\"metrics\"} over the wire)";

/// Executes a parsed command line, returning the text to print.
fn run(args: &[String]) -> Result<String, String> {
    let (cmd, rest) = args.split_first().ok_or("missing command")?;
    match cmd.as_str() {
        "benchmarks" => Ok(list_benchmarks()),
        "dump" => dump(rest),
        "synth" => synth(rest),
        "sweep" => sweep(rest),
        "batch" => batch(rest),
        "battery" => battery(rest),
        "serve" => serve(rest),
        "store" => store_admin(rest),
        "simulate" => run_simulation(rest),
        "vcd" => run_vcd(rest),
        other => Err(format!("unknown command `{other}`")),
    }
}

fn list_benchmarks() -> String {
    let mut s = String::from("built-in benchmark graphs:\n");
    for g in benchmarks::all() {
        let hist: Vec<String> = g
            .op_histogram()
            .into_iter()
            .map(|(k, c)| format!("{c}x{}", k.symbol()))
            .collect();
        s.push_str(&format!(
            "  {:<10} {:>3} nodes  ({})\n",
            g.name(),
            g.len(),
            hist.join(" ")
        ));
    }
    s
}

/// Loads a graph by benchmark name or from a `.dfg` file.
fn load_graph(spec: &str) -> Result<Cdfg, String> {
    if let Some(g) = benchmarks::all().into_iter().find(|g| g.name() == spec) {
        return Ok(g);
    }
    if std::path::Path::new(spec).exists() {
        let text = std::fs::read_to_string(spec).map_err(|e| format!("reading {spec}: {e}"))?;
        return parse_cdfg(&text).map_err(|e| format!("parsing {spec}: {e}"));
    }
    Err(format!(
        "`{spec}` is neither a built-in benchmark nor an existing file"
    ))
}

fn load_library(flags: &Flags) -> Result<ModuleLibrary, String> {
    match flags.options.get("library") {
        None => Ok(paper_library()),
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            parse_library(&text).map_err(|e| format!("parsing {path}: {e}"))
        }
    }
}

/// Minimal flag parser: positionals, `--flag`, `--key value` / `-K value`
/// and repeatable `--set name=value`.
#[derive(Debug, Default)]
struct Flags {
    positionals: Vec<String>,
    switches: Vec<String>,
    options: BTreeMap<String, String>,
    sets: Vec<(String, i64)>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-T" | "--latency" => {
                let v = it.next().ok_or("-T needs a value")?;
                f.options.insert("latency".into(), v.clone());
            }
            "-P" | "--power" => {
                let v = it.next().ok_or("-P needs a value")?;
                f.options.insert("power".into(), v.clone());
            }
            "--library" | "--steps" | "--out" | "--points" | "--addr" | "--workers"
            | "--cache-cap" | "--queue-cap" | "--budget" | "--capacity" | "--store"
            | "--shards" | "--shed-depth" | "--rate" | "--burst" | "--max-line-bytes"
            | "--trace-out" | "--stats-interval" => {
                let key = a.trim_start_matches('-').to_owned();
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                f.options.insert(key, v.clone());
            }
            "--set" => {
                let v = it.next().ok_or("--set needs name=value")?;
                let (name, value) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--set expects name=value, got `{v}`"))?;
                let value: i64 = value
                    .parse()
                    .map_err(|_| format!("`{value}` is not an integer"))?;
                f.sets.push((name.to_owned(), value));
            }
            s if s.starts_with("--") => f.switches.push(s.trim_start_matches('-').to_owned()),
            _ => f.positionals.push(a.clone()),
        }
    }
    Ok(f)
}

/// Arms the process tracer when `--trace-out <file>` is present and
/// returns the target path; the caller writes the snapshot out with
/// [`write_trace`] once the traced work is done.
fn trace_out(flags: &Flags) -> Option<String> {
    let path = flags.options.get("trace-out").cloned();
    if path.is_some() {
        pchls::obs::set_enabled(true);
    }
    path
}

/// Writes everything the tracer recorded to `path` as Chrome
/// trace-event JSON (Perfetto / `chrome://tracing` open it directly).
fn write_trace(path: &str) -> Result<(), String> {
    let snapshot = pchls::obs::snapshot();
    std::fs::write(path, pchls::obs::chrome_trace_json(&snapshot))
        .map_err(|e| format!("writing trace {path}: {e}"))?;
    eprintln!(
        "trace: {} span(s)/event(s) ({} dropped) written to {path}",
        snapshot.events.len(),
        snapshot.dropped
    );
    Ok(())
}

/// Opens (creating as needed) the `--store <dir>` result store, when
/// the flag is present.
fn open_store(flags: &Flags) -> Result<Option<Store>, String> {
    match flags.options.get("store") {
        None => Ok(None),
        Some(dir) => Store::open(std::path::Path::new(dir))
            .map(Some)
            .map_err(|e| format!("opening store {dir}: {e}")),
    }
}

/// The `-T <cycles>` flag, validated against the cycle range every
/// entry point shares (`1 ..= MAX_LATENCY`).
fn required_latency(flags: &Flags) -> Result<u32, String> {
    let latency: u32 = flags
        .options
        .get("latency")
        .ok_or("missing -T <cycles>")?
        .parse()
        .map_err(|_| "-T <cycles> must be a positive integer")?;
    if latency == 0 || latency > MAX_LATENCY {
        return Err(format!("-T must be between 1 and {MAX_LATENCY} cycles"));
    }
    Ok(latency)
}

fn required_f64(flags: &Flags, key: &str, flag: &str) -> Result<f64, String> {
    flags
        .options
        .get(key)
        .ok_or_else(|| format!("missing {flag}"))?
        .parse()
        .map_err(|_| format!("{flag} must be a number"))
}

/// The `(T, P<)` pair of a command line, validated so the constraints
/// constructor can never panic on user input.
fn required_constraints(flags: &Flags) -> Result<SynthesisConstraints, String> {
    let latency = required_latency(flags)?;
    let power = required_f64(flags, "power", "-P <power>")?;
    if power.is_nan() || power < 0.0 {
        return Err("-P must be a non-negative power bound".into());
    }
    Ok(SynthesisConstraints::new(latency, power))
}

/// The constraint point of a `synth`-shaped command: `-T` plus either a
/// `--budget` envelope file or the scalar `-P` bound.
fn budget_or_scalar_constraints(flags: &Flags) -> Result<SynthesisConstraints, String> {
    let latency = required_latency(flags)?;
    match load_budget(flags, Some(latency))? {
        Some(budget) => Ok(SynthesisConstraints::new(latency, budget)),
        None => required_constraints(flags),
    }
}

/// Loads and validates the `--budget <file>` envelope, when the flag is
/// present. With a horizon, wrong-horizon shapes are rejected too
/// (`batch` passes `None` and re-checks per point, since each point has
/// its own `T`).
fn load_budget(flags: &Flags, latency: Option<u32>) -> Result<Option<PowerBudget>, String> {
    let Some(path) = flags.options.get("budget") else {
        return Ok(None);
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse_budget_json(&text, latency)
        .map(Some)
        .map_err(|e| format!("{path}: {e}"))
}

/// 1-based line numbers of every JSON number token in `text`, in
/// document order. The parsed value tree preserves object order, so a
/// depth-first walk visits numbers in exactly this order — which lets
/// the validators below point at the offending *line* of the budget
/// file, matching the `batch` points-file error style.
fn number_token_lines(text: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut line = 1usize;
    let mut in_string = false;
    let mut in_number = false;
    for ch in text.chars() {
        if ch == '\n' {
            line += 1;
            in_number = false;
            continue;
        }
        if in_string {
            if ch == '"' {
                in_string = false;
            }
            continue;
        }
        match ch {
            '"' => {
                in_string = true;
                in_number = false;
            }
            '-' | '0'..='9' => {
                if !in_number {
                    out.push(line);
                    in_number = true;
                }
            }
            // Number continuations ('e'/'E' only start numbers inside
            // one; bare words never register because tokens are opened
            // only by '-' or a digit).
            '.' | 'e' | 'E' | '+' => {}
            _ => in_number = false,
        }
    }
    out
}

/// Numeric view of a parsed JSON scalar.
fn as_number(v: &serde::Value) -> Option<f64> {
    match v {
        serde::Value::Int(i) => Some(*i as f64),
        serde::Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Parses and validates a `--budget` JSON envelope: NaN, negative, and
/// (when a horizon is given) wrong-horizon budgets are rejected with
/// the offending line number.
fn parse_budget_json(text: &str, latency: Option<u32>) -> Result<PowerBudget, String> {
    // NaN/Infinity are not JSON; catch them up front so the error names
    // the line instead of surfacing a generic parse failure.
    for (i, l) in text.lines().enumerate() {
        let lower = l.to_lowercase();
        for tok in ["nan", "inf"] {
            if lower.contains(tok) {
                return Err(format!(
                    "line {}: `{}` is not a valid power bound (bounds must be finite, \
                     non-negative numbers)",
                    i + 1,
                    l.trim()
                ));
            }
        }
    }
    let value: serde::Value =
        serde_json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let shape_err = || {
        "budget must be a JSON object with exactly one of `constant`, `steps`, `per_cycle`"
            .to_string()
    };
    let fields = value.as_object().ok_or_else(shape_err)?;
    let [(key, inner)] = fields else {
        return Err(shape_err());
    };
    let num_lines = number_token_lines(text);
    let line_of = |num_idx: usize| num_lines.get(num_idx).copied().unwrap_or(1);
    let check_bound = |b: f64, num_idx: usize| -> Result<f64, String> {
        if b.is_nan() || b < 0.0 {
            Err(format!(
                "line {}: power bound {b} must be non-negative",
                line_of(num_idx)
            ))
        } else {
            Ok(b)
        }
    };
    // The walk below exists to attach *line numbers* to the common
    // mistakes; the construction at the end funnels the accepted
    // document through the `PowerBudget` deserializer — the
    // authoritative validator shared with the `pchls-serve` wire layer
    // — so the CLI can never accept a budget the service would reject.
    match key.as_str() {
        "constant" => {
            let b = as_number(inner).ok_or("`constant` must be a number")?;
            check_bound(b, 0)?;
        }
        "steps" => {
            let arr = inner.as_array().ok_or("`steps` must be an array")?;
            if arr.is_empty() {
                return Err("`steps` must contain at least one [cycle, bound] pair".into());
            }
            let mut steps: Vec<(u32, f64)> = Vec::with_capacity(arr.len());
            for (i, item) in arr.iter().enumerate() {
                let err_line = line_of(2 * i);
                let pair = item
                    .as_array()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| format!("line {err_line}: each step must be [cycle, bound]"))?;
                // Integer-*typed*, matching the wire deserializer's
                // `u32` exactly — `0.0` is rejected in both places.
                let serde::Value::Int(raw_cycle) = pair[0] else {
                    return Err(format!(
                        "line {err_line}: step cycle must be a non-negative integer"
                    ));
                };
                let cycle = u32::try_from(raw_cycle).map_err(|_| {
                    format!("line {err_line}: step cycle must be a non-negative integer")
                })?;
                if let Some(t) = latency {
                    if cycle >= t {
                        return Err(format!(
                            "line {err_line}: step at cycle {cycle} is at or past the latency \
                             bound {t}"
                        ));
                    }
                }
                if let Some(&(prev, _)) = steps.last() {
                    if cycle <= prev {
                        return Err(format!(
                            "line {err_line}: step cycles must be strictly increasing \
                             ({prev} then {cycle})"
                        ));
                    }
                }
                let bound = as_number(&pair[1])
                    .ok_or_else(|| format!("line {err_line}: step bound must be a number"))?;
                steps.push((cycle, check_bound(bound, 2 * i + 1)?));
            }
        }
        "per_cycle" => {
            let arr = inner.as_array().ok_or("`per_cycle` must be an array")?;
            if arr.is_empty() {
                return Err("`per_cycle` must contain at least one bound".into());
            }
            let mut bounds = Vec::with_capacity(arr.len());
            for (i, item) in arr.iter().enumerate() {
                let b = as_number(item).ok_or_else(|| {
                    format!("line {}: per-cycle bound must be a number", line_of(i))
                })?;
                bounds.push(check_bound(b, i)?);
            }
            if let Some(t) = latency {
                if bounds.len() != t as usize {
                    let key_line = text
                        .lines()
                        .position(|l| l.contains("per_cycle"))
                        .map_or(1, |i| i + 1);
                    return Err(format!(
                        "line {key_line}: per-cycle budget covers {} cycle(s) but -T is {t}",
                        bounds.len()
                    ));
                }
            }
        }
        other => {
            return Err(format!(
                "unknown budget kind `{other}` (expected `constant`, `steps` or `per_cycle`)"
            ))
        }
    }
    serde::Deserialize::from_value(&value).map_err(|e| format!("invalid budget: {e}"))
}

fn dump(args: &[String]) -> Result<String, String> {
    let flags = parse_flags(args)?;
    let spec = flags.positionals.first().ok_or("missing graph")?;
    let g = load_graph(spec)?;
    if flags.switches.iter().any(|s| s == "dot") {
        Ok(g.to_dot())
    } else if flags.switches.iter().any(|s| s == "stats") {
        Ok(GraphStats::of(&g).to_report())
    } else {
        Ok(write_cdfg(&g))
    }
}

fn synth(args: &[String]) -> Result<String, String> {
    let flags = parse_flags(args)?;
    let spec = flags.positionals.first().ok_or("missing graph")?;
    let g = load_graph(spec)?;
    let lib = load_library(&flags)?;
    let trace_path = trace_out(&flags);
    let engine = Engine::new(lib);
    let compiled = if flags.switches.iter().any(|s| s == "optimize") {
        let c = engine.compile_optimized(&g).map_err(|e| e.to_string())?;
        let stats = c.optimize_stats().expect("optimized compile keeps stats");
        eprintln!(
            "optimize: merged {} duplicate op(s), eliminated {} dead op(s)",
            stats.merged, stats.eliminated
        );
        c
    } else {
        engine.try_compile(&g).map_err(|e| e.to_string())?
    };
    let session = engine.session(&compiled);
    let (g, lib) = (compiled.graph(), engine.library());
    let constraints = budget_or_scalar_constraints(&flags)?;
    let design = if flags.switches.iter().any(|s| s == "refine") {
        session.synthesize_refined(constraints, &SynthesisOptions::default())
    } else {
        session.synthesize(constraints, &SynthesisOptions::default())
    }
    .map_err(|e| e.to_string())?;

    let mut out = format!("{}: {}\n", g.name(), design.summary());
    for (i, inst) in design.binding.instances().iter().enumerate() {
        let m = lib.module(inst.module());
        out.push_str(&format!(
            "  fu{i}: {:<10} area {:>4}  {} op(s)\n",
            m.name(),
            m.area(),
            inst.ops().len()
        ));
    }
    let regs = design.registers(g);
    let ic = design.interconnect(g);
    out.push_str(&format!(
        "  registers: {}   extra mux inputs: {}\n",
        regs.count(),
        ic.total()
    ));
    if flags.switches.iter().any(|s| s == "profile") {
        out.push_str("\nper-cycle power profile (| marks each cycle's budget bound):\n");
        out.push_str(
            &design
                .power_profile()
                .to_ascii_budget(40, &design.constraints.budget),
        );
    }
    if flags.switches.iter().any(|s| s == "gantt") {
        out.push_str("\nschedule:\n");
        out.push_str(&pchls::bind::gantt(
            g,
            lib,
            &design.binding,
            &design.schedule,
            &design.timing,
        ));
    }
    if flags.switches.iter().any(|s| s == "hdl") {
        out.push('\n');
        out.push_str(&to_structural_hdl(g, &design, lib));
    }
    if let Some(path) = trace_path {
        write_trace(&path)?;
    }
    Ok(out)
}

/// Runs `spec` through the session, resuming from the `--store` result
/// store when one is given: grid points already materialized for this
/// graph fingerprint and budget digest are read back instead of
/// re-synthesized, and the fresh raw points are appended for the next
/// run (outcome columns only — sweeps keep no schedule trace). The
/// enveloped result is identical to a storeless sweep either way,
/// because the envelope pass reruns over the merged raw grid.
fn sweep_with_store(
    flags: &Flags,
    session: &Session<'_>,
    compiled: &CompiledGraph,
    spec: &SweepSpec,
) -> Result<SweepResult, String> {
    let options = SynthesisOptions::default();
    let Some(mut store) = open_store(flags)? else {
        return Ok(session.sweep(spec, &options));
    };
    let mut keys = Vec::with_capacity(spec.len());
    let mut cached: Vec<Option<SweepPoint>> = Vec::with_capacity(spec.len());
    for i in 0..spec.len() {
        let key = StoreKey::for_graph(compiled.graph(), &spec.constraints(i));
        cached.push(
            store
                .get(&key)
                .map_err(|e| format!("reading store: {e}"))?
                .map(|r| r.to_point(compiled.name())),
        );
        keys.push(key);
    }
    let (result, fresh) = session.sweep_resumable(spec, &options, &cached);
    let records: Vec<StoreRecord> = fresh
        .iter()
        .map(|(i, p)| StoreRecord::from_point(keys[*i], p, Vec::new()))
        .collect();
    store
        .append(&records)
        .and_then(|()| store.flush())
        .map_err(|e| format!("writing store: {e}"))?;
    eprintln!(
        "store: {} of {} point(s) resumed from {}",
        spec.len() - fresh.len(),
        spec.len(),
        store.path().display()
    );
    Ok(result)
}

fn sweep(args: &[String]) -> Result<String, String> {
    let flags = parse_flags(args)?;
    let spec = flags.positionals.first().ok_or("missing graph")?;
    let g = load_graph(spec)?;
    let lib = load_library(&flags)?;
    let latency = required_latency(&flags)?;
    let steps: usize = flags
        .options
        .get("steps")
        .map_or(Ok(12), |s| s.parse())
        .map_err(|_| "--steps must be a positive integer")?;
    let engine = Engine::new(lib);
    let compiled = engine.try_compile(&g).map_err(|e| e.to_string())?;
    let session = engine.session(&compiled);
    if let Some(budget) = load_budget(&flags, Some(latency))? {
        // Envelope mode: sweep scale factors — "how much of the
        // envelope can the supply actually deliver" — instead of a
        // scalar power grid.
        let steps = steps.max(2);
        let scales: Vec<f64> = (0..steps)
            .map(|i| 0.25 + (1.5 - 0.25) * i as f64 / (steps - 1) as f64)
            .collect();
        let result = sweep_with_store(
            &flags,
            &session,
            &compiled,
            &SweepSpec::budget_scale(latency, budget, scales.clone()),
        )?;
        let mut out = format!(
            "{} at T={latency} (envelope scale sweep):\n scale    peak    area\n",
            result.benchmark
        );
        for (p, s) in result.points.iter().zip(&scales) {
            match p.area {
                Some(a) => out.push_str(&format!("{s:>6.2} {:>7.1} {:>7}\n", p.power_bound, a)),
                None => out.push_str(&format!("{s:>6.2} {:>7.1}   (infeasible)\n", p.power_bound)),
            }
        }
        return Ok(out);
    }
    let grid = session.auto_power_grid(steps);
    let result = sweep_with_store(
        &flags,
        &session,
        &compiled,
        &SweepSpec::power(latency, grid),
    )?;
    let mut out = format!("{} at T={latency}:\npower    area\n", result.benchmark);
    for p in result.points {
        match p.area {
            Some(a) => out.push_str(&format!("{:>6.1} {:>7}\n", p.power_bound, a)),
            None => out.push_str(&format!("{:>6.1}   (infeasible)\n", p.power_bound)),
        }
    }
    Ok(out)
}

/// Parses one `T P` constraint point per line (blank lines and `#`
/// comments skipped).
fn parse_points(text: &str) -> Result<Vec<SynthesisConstraints>, String> {
    let mut points = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split_whitespace();
        let (Some(t), Some(p), None) = (fields.next(), fields.next(), fields.next()) else {
            return Err(format!("line {}: expected `T P`, got `{line}`", lineno + 1));
        };
        let t: u32 = t
            .parse()
            .map_err(|_| format!("line {}: `{t}` is not a latency", lineno + 1))?;
        // Validate the parsed values here, with the line number: the
        // constraints constructor asserts on nonsense and a malformed
        // points file must be a clean error, not a panic.
        if t == 0 || t > MAX_LATENCY {
            return Err(format!(
                "line {}: latency must be between 1 and {MAX_LATENCY} cycles",
                lineno + 1
            ));
        }
        let p: f64 = p
            .parse()
            .map_err(|_| format!("line {}: `{p}` is not a power bound", lineno + 1))?;
        if p.is_nan() || p < 0.0 {
            return Err(format!(
                "line {}: power bound `{p}` must be non-negative",
                lineno + 1
            ));
        }
        points.push(SynthesisConstraints::new(t, p));
    }
    if points.is_empty() {
        return Err("points file contains no `T P` pairs".into());
    }
    Ok(points)
}

/// `pchls batch <graph> --points <file>`: one compile, many constraint
/// points through [`pchls::core::Session::batch`], one JSON line per
/// point (in file order). With `--budget <file>`, each point's `P`
/// column is reinterpreted as a **scale factor** on the envelope
/// (`T 1.0` = the envelope as written, `T 0.5` = half of it).
fn batch(args: &[String]) -> Result<String, String> {
    let flags = parse_flags(args)?;
    let spec = flags.positionals.first().ok_or("missing graph")?;
    let g = load_graph(spec)?;
    let lib = load_library(&flags)?;
    let path = flags
        .options
        .get("points")
        .ok_or("missing --points <file>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let points = parse_points(&text)?;
    let points = match load_budget(&flags, None)? {
        None => points,
        Some(budget) => points
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                budget
                    .check_horizon(c.latency)
                    .map_err(|e| format!("point {} (T={}): {e}", i + 1, c.latency))?;
                // The scalar column scales the envelope for this point.
                Ok(SynthesisConstraints::new(
                    c.latency,
                    budget.scaled(c.max_power()),
                ))
            })
            .collect::<Result<Vec<_>, String>>()?,
    };

    let trace_path = trace_out(&flags);
    let engine = Engine::new(lib);
    let compiled = engine.try_compile(&g).map_err(|e| e.to_string())?;
    let session = engine.session(&compiled);
    let out_points: Vec<SweepPoint> = match open_store(&flags)? {
        None => session
            .batch(points.into_iter().map(SynthesisRequest::new))
            .iter()
            .map(|r| r.to_point(compiled.name()))
            .collect(),
        Some(mut store) => {
            // Resume: answer materialized points from the store, run
            // only the rest, and append those for the next run.
            let keys: Vec<StoreKey> = points
                .iter()
                .map(|c| StoreKey::for_graph(compiled.graph(), c))
                .collect();
            let mut slots: Vec<Option<SweepPoint>> = Vec::with_capacity(points.len());
            for key in &keys {
                slots.push(
                    store
                        .get(key)
                        .map_err(|e| format!("reading store: {e}"))?
                        .map(|r| r.to_point(compiled.name())),
                );
            }
            let missing: Vec<usize> = (0..points.len()).filter(|&i| slots[i].is_none()).collect();
            let fresh = session.batch(
                missing
                    .iter()
                    .map(|&i| SynthesisRequest::new(points[i].clone())),
            );
            let mut records = Vec::with_capacity(fresh.len());
            for (&i, r) in missing.iter().zip(&fresh) {
                let point = r.to_point(compiled.name());
                let trace = r
                    .outcome
                    .as_ref()
                    .map(|d| trace_bytes(&d.schedule))
                    .unwrap_or_default();
                records.push(StoreRecord::from_point(keys[i], &point, trace));
                slots[i] = Some(point);
            }
            store
                .append(&records)
                .and_then(|()| store.flush())
                .map_err(|e| format!("writing store: {e}"))?;
            eprintln!(
                "store: {} of {} point(s) resumed from {}",
                keys.len() - missing.len(),
                keys.len(),
                store.path().display()
            );
            slots
                .into_iter()
                .map(|s| s.expect("every point is cached or freshly run"))
                .collect()
        }
    };

    if let Some(path) = trace_path {
        write_trace(&path)?;
    }
    let mut out = String::new();
    for p in &out_points {
        let line = serde_json::to_string(p).map_err(|e| format!("serializing point: {e}"))?;
        out.push_str(&line);
        out.push('\n');
    }
    Ok(out)
}

/// `pchls battery <graph> -T <cycles> (-P <power> | --budget <file>)`:
/// synthesizes the power-constrained design at the point, the
/// power-oblivious design at the same latency, and prints a
/// [`BatteryReport`](pchls::battery::BatteryReport) — how many complete
/// schedule executions each battery model (ideal, Peukert,
/// rate-capacity) survives on each profile, and the lifetime extension
/// the constrained design buys. This is the paper's end-to-end claim,
/// runnable from the command line.
fn battery(args: &[String]) -> Result<String, String> {
    let flags = parse_flags(args)?;
    let spec = flags.positionals.first().ok_or("missing graph")?;
    let g = load_graph(spec)?;
    let lib = load_library(&flags)?;
    let constraints = budget_or_scalar_constraints(&flags)?;
    let capacity: f64 = match flags.options.get("capacity") {
        None => 20_000.0,
        Some(v) => v
            .parse::<f64>()
            .ok()
            .filter(|c| c.is_finite() && *c > 0.0)
            .ok_or("--capacity must be a positive charge")?,
    };

    let engine = Engine::new(lib);
    let compiled = engine.try_compile(&g).map_err(|e| e.to_string())?;
    let session = engine.session(&compiled);
    let opts = SynthesisOptions::default();
    let constrained = session
        .synthesize(constraints.clone(), &opts)
        .map_err(|e| e.to_string())?;
    // The power-oblivious reference is the ASAP/fastest-modules design —
    // the spiky Figure 1 (top) profile the paper's motivation starts
    // from — not another area-min synthesis run.
    let oblivious = session
        .unconstrained(constraints.latency, pchls::fulib::SelectionPolicy::Fastest)
        .map_err(|e| e.to_string())?;

    let flat = constrained.power_profile();
    let spiky = oblivious.power_profile();
    let report = battery_report(capacity, spiky.per_cycle(), flat.per_cycle());

    let mut out = format!(
        "{} at T={} under {}:\n  power-oblivious: {}\n  power-constrained: {}\n\n",
        compiled.name(),
        constraints.latency,
        constraints.budget.describe(),
        oblivious.summary(),
        constrained.summary(),
    );
    out.push_str(&report.to_text(flat.per_cycle().len(), spiky.per_cycle().len()));
    Ok(out)
}

/// `pchls serve`: the long-running synthesis service (JSON-lines
/// protocol over stdio or TCP; see `pchls-serve`). Returns at stdin EOF
/// in `--stdio` mode; serves forever in `--addr` mode.
fn serve(args: &[String]) -> Result<String, String> {
    let flags = parse_flags(args)?;
    let stdio = flags.switches.iter().any(|s| s == "stdio");
    let addr = flags.options.get("addr");
    if stdio == addr.is_some() {
        return Err("serve needs exactly one of --stdio or --addr <host:port>".into());
    }
    let usize_option = |key: &str, default: usize| -> Result<usize, String> {
        flags.options.get(key).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("--{key} must be a non-negative integer"))
        })
    };
    let f64_option = |key: &str, default: f64| -> Result<f64, String> {
        flags.options.get(key).map_or(Ok(default), |v| {
            v.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x >= 0.0)
                .ok_or_else(|| format!("--{key} must be a non-negative number"))
        })
    };
    let defaults = ServiceConfig::default();
    let config = ServiceConfig {
        workers: usize_option("workers", defaults.workers)?,
        shards: usize_option("shards", defaults.shards)?,
        cache_cap: usize_option("cache-cap", defaults.cache_cap)?,
        queue_cap: usize_option("queue-cap", defaults.queue_cap)?,
        shed_depth: usize_option("shed-depth", defaults.shed_depth)?,
        rate_per_sec: f64_option("rate", defaults.rate_per_sec)?,
        burst: f64_option("burst", defaults.burst)?,
        max_line_bytes: usize_option("max-line-bytes", defaults.max_line_bytes)?,
        store_dir: flags.options.get("store").map(std::path::PathBuf::from),
        stats_interval: usize_option("stats-interval", defaults.stats_interval as usize)? as u64,
        ..defaults
    };
    if config.max_line_bytes == 0 {
        return Err("--max-line-bytes must be at least 1".into());
    }
    let lib = load_library(&flags)?;
    let service = Service::try_start(Engine::new(lib), config)
        .map_err(|e| format!("opening result store: {e}"))?;
    match addr {
        None => serve_stdio(&service).map_err(|e| format!("serving stdio: {e}"))?,
        Some(addr) => {
            let listener =
                std::net::TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
            let local = listener.local_addr().map_err(|e| e.to_string())?;
            eprintln!("pchls serve: listening on {local}");
            serve_tcp(&service, &listener).map_err(|e| format!("serving {local}: {e}"))?;
        }
    }
    // Final stats to stderr — stdout is (or was) the protocol channel.
    eprintln!("{}", render_serve_stats(&service.stats()));
    if flags.switches.iter().any(|s| s == "metrics") {
        eprint!("{}", service.metrics_text());
    }
    Ok(String::new())
}

/// `pchls store (stat|verify|compact) <dir>`: inspects and maintains a
/// persistent result store directory (the `--store` target of
/// `batch`/`sweep`/`serve`).
fn store_admin(args: &[String]) -> Result<String, String> {
    let flags = parse_flags(args)?;
    let [action, dir] = flags.positionals.as_slice() else {
        return Err(
            "store needs an action and a directory: store (stat|verify|compact) <dir>".into(),
        );
    };
    let path = std::path::Path::new(dir);
    // Opening creates an empty store; an admin command pointed at the
    // wrong directory must report that, not silently materialize one.
    if !path.join(STORE_FILE_NAME).exists() {
        return Err(format!(
            "`{dir}` contains no result store ({STORE_FILE_NAME} missing)"
        ));
    }
    let mut store = Store::open(path).map_err(|e| format!("opening store {dir}: {e}"))?;
    match action.as_str() {
        "stat" => {
            let stat = store.stat().map_err(|e| format!("reading store: {e}"))?;
            Ok(render_store_stat(&stat, store.path()))
        }
        "verify" => {
            let stat = store
                .verify()
                .map_err(|e| format!("store is corrupt: {e}"))?;
            Ok(format!(
                "ok: {} record(s) in {} block(s) verified ({} live)\n",
                stat.records, stat.blocks, stat.live_records
            ))
        }
        "compact" => {
            let before = store.stat().map_err(|e| format!("reading store: {e}"))?;
            let dropped = store.compact().map_err(|e| format!("compacting: {e}"))?;
            let after = store.stat().map_err(|e| format!("reading store: {e}"))?;
            Ok(format!(
                "dropped {dropped} superseded record(s): {} -> {} bytes\n",
                before.file_bytes, after.file_bytes
            ))
        }
        other => Err(format!(
            "unknown store action `{other}` (expected stat, verify or compact)"
        )),
    }
}

/// The `pchls store stat` report: totals, compression ratio and
/// per-column byte accounting.
fn render_store_stat(stat: &StoreStat, path: &std::path::Path) -> String {
    let mut out = format!(
        "{}:\n  records: {} ({} live)\n  blocks: {}\n  file: {} bytes\n  \
         columns: {} -> {} bytes ({:.2}x compression)\n",
        path.display(),
        stat.records,
        stat.live_records,
        stat.blocks,
        stat.file_bytes,
        stat.raw_bytes,
        stat.compressed_bytes,
        stat.compression_ratio()
    );
    if stat.recovered {
        out.push_str("  recovered: yes (torn tail was scanned around)\n");
    }
    out.push_str("  per-column bytes (raw -> compressed):\n");
    for c in &stat.columns {
        out.push_str(&format!(
            "    {:<14} {:>8} -> {:>8}\n",
            c.name, c.raw_bytes, c.compressed_bytes
        ));
    }
    out
}

fn run_simulation(args: &[String]) -> Result<String, String> {
    let flags = parse_flags(args)?;
    let spec = flags.positionals.first().ok_or("missing graph")?;
    let g = load_graph(spec)?;
    let lib = load_library(&flags)?;
    let constraints = required_constraints(&flags)?;
    let stim: pchls::cdfg::Stimulus = flags.sets.iter().cloned().collect();

    let engine = Engine::new(lib);
    let compiled = engine.try_compile(&g).map_err(|e| e.to_string())?;
    let design = engine
        .session(&compiled)
        .synthesize(constraints, &SynthesisOptions::default())
        .map_err(|e| e.to_string())?;
    let dp = Datapath::build(&g, &design, engine.library());
    let run = simulate(&g, &dp, &stim).map_err(|e| e.to_string())?;
    let reference = Interpreter::new(&g).run(&stim).map_err(|e| e.to_string())?;
    let mut out = format!(
        "simulated {} on the synthesized datapath ({} cycles):\n",
        g.name(),
        dp.latency()
    );
    for (name, value) in &run.outputs {
        let check = if reference[name] == *value {
            "ok"
        } else {
            "MISMATCH"
        };
        out.push_str(&format!("  {name} = {value}   [{check} vs reference]\n"));
    }
    if run.outputs == reference {
        out.push_str("datapath matches the reference interpreter\n");
    } else {
        return Err("datapath diverged from the reference interpreter".into());
    }
    Ok(out)
}

fn run_vcd(args: &[String]) -> Result<String, String> {
    let flags = parse_flags(args)?;
    let spec = flags.positionals.first().ok_or("missing graph")?;
    let g = load_graph(spec)?;
    let lib = load_library(&flags)?;
    let constraints = required_constraints(&flags)?;
    let stim: pchls::cdfg::Stimulus = flags.sets.iter().cloned().collect();

    let engine = Engine::new(lib);
    let compiled = engine.try_compile(&g).map_err(|e| e.to_string())?;
    let design = engine
        .session(&compiled)
        .synthesize(constraints, &SynthesisOptions::default())
        .map_err(|e| e.to_string())?;
    let dp = Datapath::build(&g, &design, engine.library());
    let wave = pchls::rtl::trace(&g, &dp, &stim).map_err(|e| e.to_string())?;
    let vcd = pchls::rtl::to_vcd(&wave, g.name());
    match flags.options.get("out") {
        Some(path) => {
            std::fs::write(path, &vcd).map_err(|e| format!("writing {path}: {e}"))?;
            Ok(format!("wrote {} ({} bytes)\n", path, vcd.len()))
        }
        None => Ok(vcd),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn benchmarks_lists_all_graphs() {
        let out = run(&argv("benchmarks")).unwrap();
        for name in ["hal", "cosine", "elliptic", "ar", "fir16", "fft_bfly"] {
            assert!(out.contains(name), "{name} missing from\n{out}");
        }
    }

    #[test]
    fn dump_round_trips_through_the_parser() {
        let out = run(&argv("dump hal")).unwrap();
        let g = parse_cdfg(&out).unwrap();
        assert_eq!(g.name(), "hal");
    }

    #[test]
    fn dump_dot_emits_graphviz() {
        let out = run(&argv("dump hal --dot")).unwrap();
        assert!(out.starts_with("digraph hal"));
    }

    #[test]
    fn synth_reports_design() {
        let out = run(&argv("synth hal -T 17 -P 25")).unwrap();
        assert!(out.contains("area="));
        assert!(out.contains("registers:"));
    }

    #[test]
    fn synth_with_profile_and_hdl() {
        let out = run(&argv("synth hal -T 17 -P 25 --profile --hdl")).unwrap();
        assert!(out.contains("power profile"));
        assert!(out.contains("endmodule"));
    }

    #[test]
    fn synth_rejects_infeasible_constraints() {
        let err = run(&argv("synth hal -T 17 -P 1")).unwrap_err();
        assert!(err.contains("infeasible"));
    }

    #[test]
    fn sweep_prints_a_curve() {
        let out = run(&argv("sweep hal -T 17 --steps 5")).unwrap();
        assert!(out.lines().count() >= 6);
    }

    #[test]
    fn simulate_cross_checks() {
        let cmd = "simulate hal -T 17 -P 25 --set x=2 --set y=5 --set u=7 \
                   --set dx=3 --set a=100 --set three=3";
        let out = run(&argv(cmd)).unwrap();
        assert!(out.contains("matches the reference interpreter"));
        assert!(out.contains("x1 = 5"));
    }

    #[test]
    fn synth_with_gantt_shows_units() {
        let out = run(&argv("synth hal -T 17 -P 25 --gantt")).unwrap();
        assert!(out.contains("unit"));
        assert!(out.contains("fu0"));
    }

    #[test]
    fn synth_with_optimize_runs_cse() {
        let out = run(&argv("synth hal -T 17 -P 25 --optimize")).unwrap();
        assert!(out.contains("area="));
    }

    #[test]
    fn vcd_emits_a_document() {
        let cmd = "vcd hal -T 17 -P 25 --set x=2 --set y=5 --set u=7 \
                   --set dx=3 --set a=100 --set three=3";
        let out = run(&argv(cmd)).unwrap();
        assert!(out.contains("$enddefinitions $end"));
        assert!(out.contains("$var real 64"));
    }

    #[test]
    fn batch_emits_one_json_line_per_point() {
        let dir = std::env::temp_dir().join("pchls-batch-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("points.txt");
        std::fs::write(
            &path,
            "# paper corners, one infeasible\n17 25\n10 40\n17 1.0\n",
        )
        .unwrap();
        let out = run(&argv(&format!("batch hal --points {}", path.display()))).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "one JSON line per point:\n{out}");
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"benchmark\":\"hal\""), "{line}");
        }
        assert!(lines[0].contains("\"area\":"), "{}", lines[0]);
        assert!(
            lines[2].contains("\"area\":null"),
            "infeasible point: {}",
            lines[2]
        );
    }

    #[test]
    fn batch_rejects_malformed_points() {
        let dir = std::env::temp_dir().join("pchls-batch-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad_points.txt");
        std::fs::write(&path, "17 25 extra\n").unwrap();
        let err = run(&argv(&format!("batch hal --points {}", path.display()))).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        assert!(run(&argv("batch hal")).unwrap_err().contains("--points"));
    }

    #[test]
    fn batch_reports_invalid_values_with_line_numbers_instead_of_panicking() {
        let dir = std::env::temp_dir().join("pchls-batch-test");
        std::fs::create_dir_all(&dir).unwrap();
        // Values that parse as numbers but violate the constraint
        // domain used to reach the asserting constructor and abort the
        // process; they must be line-numbered errors.
        for (name, content, needle) in [
            ("zero_latency.txt", "17 25\n0 25\n", "line 2"),
            ("negative_power.txt", "17 25\n10 40\n17 -5\n", "line 3"),
            ("nan_power.txt", "17 NaN\n", "line 1"),
            ("huge_latency.txt", "17 25\n4000000000 25\n", "line 2"),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, content).unwrap();
            let err =
                run(&argv(&format!("batch hal --points {}", path.display()))).expect_err(name);
            assert!(err.contains(needle), "{name}: `{err}` missing `{needle}`");
        }
    }

    #[test]
    fn synth_rejects_out_of_domain_constraints_cleanly() {
        assert!(run(&argv("synth hal -T 0 -P 25"))
            .unwrap_err()
            .contains("-T"));
        assert!(run(&argv("synth hal -T 17 -P -3"))
            .unwrap_err()
            .contains("-P"));
        assert!(run(&argv("sweep hal -T 0")).unwrap_err().contains("-T"));
        // A latency past `MAX_LATENCY` must be refused before the kernel
        // sizes per-cycle ledger rows (64 GiB at 4e9 cycles).
        assert!(run(&argv("synth hal -T 4000000000 -P 25"))
            .unwrap_err()
            .contains("-T"));
        assert!(run(&argv("sweep hal -T 4000000000"))
            .unwrap_err()
            .contains("-T"));
    }

    fn budget_dir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("pchls-budget-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn synth_accepts_a_stepwise_budget_file() {
        let path = budget_dir().join("steps.json");
        std::fs::write(&path, "{\"steps\": [[0, 40.0], [9, 12.0]]}\n").unwrap();
        let out = run(&argv(&format!(
            "synth hal -T 17 --budget {} --profile",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("area="), "{out}");
        // The profile overlay names the per-cycle bound of both phases.
        assert!(
            out.contains("(P<40.0)") && out.contains("(P<12.0)"),
            "{out}"
        );
    }

    #[test]
    fn constant_budget_file_matches_the_scalar_flag() {
        let path = budget_dir().join("constant.json");
        std::fs::write(&path, "{\"constant\": 25.0}\n").unwrap();
        let via_budget = run(&argv(&format!(
            "synth hal -T 17 --budget {}",
            path.display()
        )));
        let via_scalar = run(&argv("synth hal -T 17 -P 25"));
        assert_eq!(via_budget.unwrap(), via_scalar.unwrap());
    }

    #[test]
    fn budget_validation_errors_carry_line_numbers() {
        for (name, content, needle) in [
            (
                "negative.json",
                "{\"per_cycle\": [30.0,\n  -5.0,\n  20.0]}\n",
                "line 2",
            ),
            ("nan.json", "{\"constant\":\n  NaN}\n", "line 2"),
            (
                "late_step.json",
                "{\"steps\": [[0, 30.0],\n  [40, 10.0]]}\n",
                "line 2",
            ),
            (
                "unordered.json",
                "{\"steps\": [[5, 30.0],\n  [2, 10.0]]}\n",
                "line 2",
            ),
            ("wrong_kind.json", "{\"bogus\": 1.0}\n", "bogus"),
            ("empty_steps.json", "{\"steps\": []}\n", "at least one"),
        ] {
            let path = budget_dir().join(name);
            std::fs::write(&path, content).unwrap();
            let err = run(&argv(&format!(
                "synth hal -T 17 --budget {}",
                path.display()
            )))
            .expect_err(name);
            assert!(err.contains(needle), "{name}: `{err}` missing `{needle}`");
        }
        // Wrong horizon: a 3-cycle envelope against -T 17.
        let path = budget_dir().join("short.json");
        std::fs::write(&path, "{\"per_cycle\": [30.0, 20.0, 10.0]}\n").unwrap();
        let err = run(&argv(&format!(
            "synth hal -T 17 --budget {}",
            path.display()
        )))
        .unwrap_err();
        assert!(err.contains("3 cycle(s)") && err.contains("17"), "{err}");
    }

    #[test]
    fn batch_budget_edge_cases_error_instead_of_panicking() {
        let dir = budget_dir();
        let points = dir.join("one_point.txt");
        std::fs::write(&points, "17 1.0\n").unwrap();
        // Empty per_cycle envelopes must be clean errors even on the
        // batch path, which validates without a fixed horizon.
        let empty = dir.join("empty_pc.json");
        std::fs::write(&empty, "{\"per_cycle\": []}\n").unwrap();
        let err = run(&argv(&format!(
            "batch hal --points {} --budget {}",
            points.display(),
            empty.display()
        )))
        .unwrap_err();
        assert!(err.contains("at least one"), "{err}");
        // An `inf` scale factor over a zero-bound budget must stay a
        // valid (all-zero ⇒ infeasible) constraint, not a NaN panic.
        let zero = dir.join("zero.json");
        std::fs::write(&zero, "{\"constant\": 0.0}\n").unwrap();
        let inf_points = dir.join("inf_point.txt");
        std::fs::write(&inf_points, "17 inf\n").unwrap();
        let out = run(&argv(&format!(
            "batch hal --points {} --budget {}",
            inf_points.display(),
            zero.display()
        )))
        .unwrap();
        assert!(out.contains("\"area\":null"), "{out}");
    }

    #[test]
    fn budget_files_accepted_by_the_cli_parse_on_the_wire_too() {
        // parse_budget_json exists only to attach line numbers; the
        // PowerBudget deserializer stays the authoritative validator,
        // so acceptance must agree in both directions on this corpus.
        for (doc, ok) in [
            ("{\"constant\": 25.0}", true),
            ("{\"steps\": [[0, 30.0], [8, 12.0]]}", true),
            ("{\"per_cycle\": [1.0, 2.0]}", true),
            // Float-spelled step cycles are integer-typed on the wire;
            // the CLI must not be more lenient.
            ("{\"steps\": [[0.0, 30.0]]}", false),
            ("{\"per_cycle\": []}", false),
            ("{\"steps\": []}", false),
            ("{\"constant\": -1.0}", false),
        ] {
            let cli = parse_budget_json(doc, None);
            let wire: Result<PowerBudget, _> = serde_json::from_str(doc);
            assert_eq!(cli.is_ok(), ok, "{doc}: cli {cli:?}");
            assert_eq!(
                cli.is_ok(),
                wire.is_ok(),
                "{doc}: cli {cli:?} wire {wire:?}"
            );
        }
    }

    #[test]
    fn sweep_with_budget_scans_scale_factors() {
        let path = budget_dir().join("sweep.json");
        std::fs::write(&path, "{\"steps\": [[0, 40.0], [9, 12.0]]}\n").unwrap();
        let out = run(&argv(&format!(
            "sweep hal -T 17 --steps 4 --budget {}",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("envelope scale sweep"), "{out}");
        assert!(out.lines().count() >= 6, "{out}");
    }

    #[test]
    fn batch_with_budget_scales_the_envelope_per_point() {
        let dir = budget_dir();
        let budget = dir.join("batch.json");
        std::fs::write(&budget, "{\"steps\": [[0, 40.0], [9, 12.0]]}\n").unwrap();
        let points = dir.join("scales.txt");
        std::fs::write(&points, "17 1.0\n17 0.1\n").unwrap();
        let out = run(&argv(&format!(
            "batch hal --points {} --budget {}",
            points.display(),
            budget.display()
        )))
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out}");
        // Full scale is feasible; a 10% envelope is not.
        assert!(
            lines[0].contains("\"area\":") && !lines[0].contains("null"),
            "{}",
            lines[0]
        );
        assert!(lines[1].contains("\"area\":null"), "{}", lines[1]);
        // A step past some point's horizon is a per-point error.
        let short = dir.join("short_points.txt");
        std::fs::write(&short, "5 1.0\n").unwrap();
        let err = run(&argv(&format!(
            "batch hal --points {} --budget {}",
            short.display(),
            budget.display()
        )))
        .unwrap_err();
        assert!(err.contains("point 1") && err.contains("cycle 9"), "{err}");
    }

    /// A scratch directory wiped at the start of the test, so reruns
    /// never resume from a previous process's store.
    fn store_scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn batch_with_store_resumes_and_is_byte_identical() {
        let dir = store_scratch("pchls-cli-store-batch");
        let points = dir.join("points.txt");
        std::fs::write(&points, "17 25\n10 40\n17 1.0\n").unwrap();
        let store_dir = dir.join("store");
        let cmd = format!(
            "batch hal --points {} --store {}",
            points.display(),
            store_dir.display()
        );
        let plain = run(&argv(&format!("batch hal --points {}", points.display()))).unwrap();
        let cold = run(&argv(&cmd)).unwrap();
        assert_eq!(cold, plain, "--store changed batch output");
        // The second run answers every point from the store, and still
        // prints the same bytes.
        let warm = run(&argv(&cmd)).unwrap();
        assert_eq!(warm, plain);
        let mut store = Store::open(&store_dir).unwrap();
        assert_eq!(store.len(), 3, "one record per point");
        assert!(!store.recovered(), "batch must flush the footer");
        // The two feasible points persisted their schedule trace.
        let with_trace = store
            .scan_records()
            .unwrap()
            .iter()
            .filter(|r| !r.trace.is_empty())
            .count();
        assert_eq!(with_trace, 2);
    }

    #[test]
    fn sweep_with_store_resumes_and_matches_plain_sweep() {
        let dir = store_scratch("pchls-cli-store-sweep");
        let store_dir = dir.join("store");
        let cmd = format!("sweep hal -T 17 --steps 5 --store {}", store_dir.display());
        let plain = run(&argv("sweep hal -T 17 --steps 5")).unwrap();
        assert_eq!(
            run(&argv(&cmd)).unwrap(),
            plain,
            "--store changed the curve"
        );
        assert_eq!(run(&argv(&cmd)).unwrap(), plain, "resumed sweep diverged");
        let store = Store::open(&store_dir).unwrap();
        assert!(store.len() >= 5, "raw grid points were persisted");
    }

    #[test]
    fn store_admin_reports_stat_verify_and_compact() {
        let dir = store_scratch("pchls-cli-store-admin");
        let points = dir.join("points.txt");
        std::fs::write(&points, "17 25\n10 40\n").unwrap();
        let store_dir = dir.join("store");
        run(&argv(&format!(
            "batch hal --points {} --store {}",
            points.display(),
            store_dir.display()
        )))
        .unwrap();

        let stat = run(&argv(&format!("store stat {}", store_dir.display()))).unwrap();
        assert!(stat.contains("records: 2 (2 live)"), "{stat}");
        assert!(stat.contains("per-column bytes"), "{stat}");
        let verify = run(&argv(&format!("store verify {}", store_dir.display()))).unwrap();
        assert!(verify.starts_with("ok: 2 record(s)"), "{verify}");

        // Re-appending an existing record supersedes it; compact drops
        // the stale copy.
        {
            let mut store = Store::open(&store_dir).unwrap();
            let first = store.scan_records().unwrap().remove(0);
            store.append(std::slice::from_ref(&first)).unwrap();
            store.flush().unwrap();
        }
        let compacted = run(&argv(&format!("store compact {}", store_dir.display()))).unwrap();
        assert!(
            compacted.starts_with("dropped 1 superseded record(s)"),
            "{compacted}"
        );
        let stat = run(&argv(&format!("store stat {}", store_dir.display()))).unwrap();
        assert!(stat.contains("records: 2 (2 live)"), "{stat}");
    }

    #[test]
    fn store_admin_validates_its_arguments() {
        let err = run(&argv("store stat")).unwrap_err();
        assert!(err.contains("stat|verify|compact"), "{err}");
        let missing = std::env::temp_dir().join("pchls-cli-store-missing");
        let _ = std::fs::remove_dir_all(&missing);
        let err = run(&argv(&format!("store stat {}", missing.display()))).unwrap_err();
        assert!(err.contains("no result store"), "{err}");
        let dir = store_scratch("pchls-cli-store-badaction");
        let store_dir = dir.join("store");
        drop(Store::open(&store_dir).unwrap());
        let err = run(&argv(&format!("store frobnicate {}", store_dir.display()))).unwrap_err();
        assert!(err.contains("frobnicate"), "{err}");
    }

    #[test]
    fn battery_reports_the_model_trio() {
        let out = run(&argv("battery hal -T 20 -P 10")).unwrap();
        for needle in [
            "power-oblivious",
            "power-constrained",
            "ideal",
            "peukert",
            "rate-capacity",
        ] {
            assert!(out.contains(needle), "`{needle}` missing from\n{out}");
        }
        // The flattened profile must extend lifetime on the weak cell.
        let rc_line = out.lines().find(|l| l.contains("rate-capacity")).unwrap();
        let ext: f64 = rc_line
            .split_whitespace()
            .last()
            .unwrap()
            .trim_end_matches('x')
            .parse()
            .unwrap();
        assert!(ext > 1.0, "{rc_line}");
        // Flag validation.
        assert!(run(&argv("battery hal -T 20 -P 10 --capacity zero"))
            .unwrap_err()
            .contains("--capacity"));
        assert!(run(&argv("battery hal -T 20")).unwrap_err().contains("-P"));
    }

    #[test]
    fn serve_validates_its_flags() {
        // Exactly one transport must be chosen.
        let err = run(&argv("serve")).unwrap_err();
        assert!(err.contains("--stdio") && err.contains("--addr"), "{err}");
        let err = run(&argv("serve --stdio --addr 127.0.0.1:0")).unwrap_err();
        assert!(err.contains("exactly one"), "{err}");
        let err = run(&argv("serve --addr 127.0.0.1:0 --workers two")).unwrap_err();
        assert!(err.contains("--workers"), "{err}");
        let err = run(&argv("serve --addr not-an-address")).unwrap_err();
        assert!(err.contains("binding"), "{err}");
        // Admission knobs validate before any socket is touched.
        let err = run(&argv("serve --stdio --shards x")).unwrap_err();
        assert!(err.contains("--shards"), "{err}");
        let err = run(&argv("serve --stdio --shed-depth -3")).unwrap_err();
        assert!(err.contains("--shed-depth"), "{err}");
        let err = run(&argv("serve --stdio --rate fast")).unwrap_err();
        assert!(err.contains("--rate"), "{err}");
        let err = run(&argv("serve --stdio --burst -1")).unwrap_err();
        assert!(err.contains("--burst"), "{err}");
        let err = run(&argv("serve --stdio --max-line-bytes 0")).unwrap_err();
        assert!(err.contains("--max-line-bytes"), "{err}");
    }

    #[test]
    fn missing_arguments_are_reported() {
        assert!(run(&argv("synth hal -T 17")).unwrap_err().contains("-P"));
        assert!(run(&argv("synth hal -P 25")).unwrap_err().contains("-T"));
        assert!(run(&argv("synth")).unwrap_err().contains("graph"));
        assert!(run(&[]).unwrap_err().contains("command"));
        assert!(run(&argv("frobnicate")).unwrap_err().contains("frobnicate"));
    }

    #[test]
    fn unknown_graph_is_reported() {
        let err = run(&argv("dump nonexistent")).unwrap_err();
        assert!(err.contains("nonexistent"));
    }

    #[test]
    fn set_parsing_rejects_garbage() {
        let err = run(&argv("simulate hal -T 17 -P 25 --set x")).unwrap_err();
        assert!(err.contains("name=value"));
    }
}
