//! `pchls` — command-line front end for the power-constrained high-level
//! synthesis library.
//!
//! The synopsis is the `USAGE` text below; `pchls` run without a
//! command prints it. Each command reads only the flags its usage line
//! names, and a command line with any other flag, or with a positional
//! too many, is refused with that text.
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
//! restarted service answers warm. `batch` and `sweep` resume through
//! one helper and write the same records, schedule traces included. `pchls store stat|verify|compact`
//! inspects and maintains a store directory.
//!
//! `--trace-out <file>` on `synth`/`batch` enables the `pchls-obs`
//! tracer for the run and writes every recorded span (compile,
//! bootstrap, scoring, the palap and window-refit passes, top-k
//! selection, commit)
//! as Chrome trace-event JSON — load the file in Perfetto or
//! `chrome://tracing`. On `serve`, `--stats-interval <secs>` prints the
//! one-line stats summary to stderr periodically from the reactor loop,
//! and `--metrics` dumps the Prometheus-style exposition at exit; live
//! scrapes go through the protocol's `metrics` op.

use std::collections::BTreeMap;
use std::ops::{Bound, RangeBounds};
use std::process::ExitCode;

use pchls::battery::battery_report;
use pchls::cdfg::{benchmarks, parse_cdfg, write_cdfg, Cdfg, GraphStats, Interpreter};
use pchls::core::{
    CompiledGraph, Engine, PowerBudget, Session, SweepPoint, SweepSpec, SynthesisConstraints,
    SynthesisOptions, SynthesisRequest,
};
use pchls::fulib::{paper_library, parse_library, units, ModuleLibrary};
use pchls::rtl::{simulate, to_structural_hdl, Datapath};
use pchls::serve::{render_serve_stats, serve_stdio, serve_tcp, Service, ServiceConfig};
use pchls::store::{trace_bytes, Store, StoreKey, StoreRecord, StoreStat, STORE_FILE_NAME};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match outcome(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(text) => {
            eprintln!("{text}");
            ExitCode::FAILURE
        }
    }
}

/// Runs a command line: the text to print, or what its failure prints on
/// stderr. That is one `error:` line, followed by the usage text only
/// when the command line itself is malformed ([`parse_command`]); a
/// command that fails while it runs (a corrupt store, an infeasible
/// point) prints its one line.
fn outcome(args: &[String]) -> Result<String, String> {
    let (handler, flags) = parse_command(args).map_err(|msg| format!("error: {msg}\n{USAGE}"))?;
    handler(&flags).map_err(|msg| format!("error: {msg}"))
}

const USAGE: &str = "\
usage:
  pchls benchmarks
  pchls dump <graph> [--dot|--stats]
  pchls synth <graph> -T <cycles> (-P <power> | --budget <file>) [--library <file>] [--hdl] [--profile] [--gantt] [--refine | --explain] [--optimize] [--trace-out <file>]
  pchls sweep <graph> -T <cycles> [--steps <n>] [--budget <file>] [--store <dir>] [--library <file>]   # with --budget, sweeps envelope scale factors
  pchls batch <graph> --points <file> [--budget <file>] [--store <dir>] [--trace-out <file>] [--library <file>]   # one `T P` pair per line; with --budget, P scales the envelope
  pchls battery <graph> -T <cycles> (-P <power> | --budget <file>) [--capacity <charge>] [--library <file>]
  pchls serve (--stdio | --addr <host:port>) [--workers <n>] [--shards <n>] [--cache-cap <n>] [--queue-cap <n>]
              [--rate <req/s>] [--burst <n>] [--max-line-bytes <n>] [--store <dir>]
              [--stats-interval <secs>] [--metrics] [--library <file>]
  pchls simulate <graph> -T <cycles> -P <power> --set name=value ... [--library <file>]
  pchls vcd <graph> -T <cycles> -P <power> --set name=value ... [--out <file>] [--library <file>]
  pchls store (stat|verify|compact) <dir>

budget files are JSON: {\"constant\": 25.0} | {\"steps\": [[0,30.0],[8,12.0]]} | {\"per_cycle\": [30.0,...]}
--store <dir> resumes batch/sweep from (and appends to) a persistent result store; serve uses it as a second cache tier
--trace-out <file> records kernel phase spans and writes Chrome trace-event JSON (open in Perfetto / chrome://tracing)
--stats-interval <secs> makes serve print its one-line stats summary to stderr every <secs> seconds; --metrics dumps the
Prometheus-style text exposition to stderr at exit (live scrape: send {\"op\":\"metrics\"} over the wire)";

/// A command: given its parsed command line, the text to print.
type Handler = fn(&Flags) -> Result<String, String>;

/// What a command reads from its command line: how many positionals,
/// the flags that take a value (`--set` may repeat) and the switches.
/// Anything else on the line makes it malformed.
struct Shape(usize, &'static [&'static str], &'static [&'static str]);

/// Every command: its name, handler and shape. Each `USAGE` line names
/// exactly its command's flags.
#[rustfmt::skip]
const COMMANDS: &[(&str, Handler, Shape)] = &[
    ("benchmarks", list_benchmarks, Shape(0, &[], &[])),
    ("dump", dump, Shape(1, &[], &["--dot", "--stats"])),
    ("synth", synth, Shape(1, &["-T", "-P", "--budget", "--library", "--trace-out"],
        &["--hdl", "--profile", "--gantt", "--refine", "--explain", "--optimize"])),
    ("sweep", sweep, Shape(1, &["-T", "--steps", "--budget", "--store", "--library"], &[])),
    ("batch", batch, Shape(1, &["--points", "--budget", "--store", "--trace-out", "--library"],
        &[])),
    ("battery", battery, Shape(1, &["-T", "-P", "--budget", "--capacity", "--library"], &[])),
    ("simulate", run_simulation, Shape(1, &["-T", "-P", "--set", "--library"], &[])),
    ("vcd", run_vcd, Shape(1, &["-T", "-P", "--set", "--library", "--out"], &[])),
    ("serve", serve, Shape(0, &["--addr", "--workers", "--shards", "--cache-cap", "--queue-cap",
        "--rate", "--burst", "--max-line-bytes", "--store", "--stats-interval", "--library"],
        &["--stdio", "--metrics"])),
    ("store", store_admin, Shape(2, &[], &[])),
];

/// The command a command line names, with its flags parsed against the
/// command's shape.
fn parse_command(args: &[String]) -> Result<(Handler, Flags), String> {
    let (name, rest) = args.split_first().ok_or("missing command")?;
    let (_, handler, shape) = COMMANDS
        .iter()
        .find(|(command, ..)| command == name)
        .ok_or_else(|| format!("unknown command `{name}`"))?;
    Ok((*handler, parse_flags(rest, shape)?))
}

/// Executes a command line, returning the text to print.
#[cfg(test)]
fn run(args: &[String]) -> Result<String, String> {
    let (handler, flags) = parse_command(args)?;
    handler(&flags)
}

fn list_benchmarks(_: &Flags) -> Result<String, String> {
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
    Ok(s)
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
    match flags.values.get("--library") {
        None => Ok(paper_library()),
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            parse_library(&text).map_err(|e| format!("parsing {path}: {e}"))
        }
    }
}

/// The graph and library a command names, compiled once. With
/// `optimize` the optimizer runs first and its report goes to stderr.
fn open_graph(flags: &Flags, optimize: bool) -> Result<(Engine, CompiledGraph), String> {
    let spec = flags.positionals.first().ok_or("missing graph")?;
    let g = load_graph(spec)?;
    let engine = Engine::new(load_library(flags)?);
    let compiled = if optimize {
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
    Ok((engine, compiled))
}

/// A parsed command line: its positionals, the switches it sets, the
/// value of each value flag and every `--set name=value` stimulus, in
/// order.
#[derive(Debug, Default)]
struct Flags {
    positionals: Vec<String>,
    switches: Vec<&'static str>,
    values: BTreeMap<&'static str, String>,
    sets: Vec<(String, i64)>,
}

impl Flags {
    /// Whether the command line sets `switch`.
    fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    /// The number `flag` sets, or `default` without it. A value that does
    /// not parse or falls outside `range` is refused as "`flag` must be
    /// `what`".
    fn number<N: std::str::FromStr + PartialOrd>(
        &self,
        flag: &str,
        default: N,
        range: impl RangeBounds<N>,
        what: &str,
    ) -> Result<N, String> {
        match self.values.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .ok()
                .filter(|n| range.contains(n))
                .ok_or_else(|| format!("{flag} must be {what}")),
        }
    }
}

/// Parses `args` against a command's shape: any flag the command does
/// not read, a value flag given twice (`--set` aside) or a positional
/// past its count is an error.
fn parse_flags(
    args: &[String],
    Shape(positionals, values, switches): &Shape,
) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !a.starts_with('-') {
            if f.positionals.len() == *positionals {
                return Err(format!("unexpected argument `{a}`"));
            }
            f.positionals.push(a.clone());
        } else if let Some(&flag) = values.iter().find(|&&v| v == a) {
            let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
            if flag == "--set" {
                let (name, value) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--set expects name=value, got `{v}`"))?;
                let value: i64 = value
                    .parse()
                    .map_err(|_| format!("`{value}` is not an integer"))?;
                f.sets.push((name.to_owned(), value));
            } else if f.values.insert(flag, v.clone()).is_some() {
                return Err(format!("{a} given twice"));
            }
        } else if let Some(&switch) = switches.iter().find(|&&s| s == a) {
            f.switches.push(switch);
        } else {
            return Err(format!("unknown flag `{a}`"));
        }
    }
    Ok(f)
}

/// Arms the process tracer when `--trace-out <file>` is present and
/// returns the target path; the caller writes the snapshot out with
/// [`write_trace`] once the traced work is done.
fn trace_out(flags: &Flags) -> Option<String> {
    let path = flags.values.get("--trace-out").cloned();
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
    match flags.values.get("--store") {
        None => Ok(None),
        Some(dir) => Store::open(std::path::Path::new(dir))
            .map(Some)
            .map_err(|e| format!("opening store {dir}: {e}")),
    }
}

/// The `-T <cycles>` flag, validated by the latency rule.
fn required_latency(flags: &Flags) -> Result<u32, String> {
    let latency: u32 = flags
        .values
        .get("-T")
        .ok_or("missing -T <cycles>")?
        .parse()
        .map_err(|_| "-T <cycles> must be a positive integer")?;
    SynthesisConstraints::check_latency(latency).map_err(|e| format!("-T: {e}"))
}

/// The `(T, P<)` pair of a command line, validated so the constraints
/// constructor can never panic on user input.
fn required_constraints(flags: &Flags) -> Result<SynthesisConstraints, String> {
    let latency = required_latency(flags)?;
    let power: f64 = flags
        .values
        .get("-P")
        .ok_or("missing -P <power>")?
        .parse()
        .map_err(|_| "-P <power> must be a number")?;
    let budget = PowerBudget::try_constant(power).map_err(|e| format!("-P: {e}"))?;
    Ok(SynthesisConstraints::new(latency, budget))
}

/// The constraint point of a `synth`-shaped command: `-T` plus either a
/// `--budget` envelope file or the scalar `-P` bound, never both.
fn budget_or_scalar_constraints(flags: &Flags) -> Result<SynthesisConstraints, String> {
    if flags.values.contains_key("-P") && flags.values.contains_key("--budget") {
        return Err("-P and --budget both bound the power; give one".into());
    }
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
    let Some(path) = flags.values.get("--budget") else {
        return Ok(None);
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse_budget_json(&text, latency)
        .map(Some)
        .map_err(|e| format!("{path}: {e}"))
}

/// 1-based line numbers of every JSON number token in `text`, in
/// document order — the order in which a `BudgetError` counts the
/// number it rejects, which is how an error finds its *line* of the
/// budget file, matching the `batch` points-file error style.
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

/// Parses a `--budget` JSON envelope. [`PowerBudget::from_json`]
/// decides validity (and, given a horizon, the fit to `-T`); this only
/// finds the line to report: the rejected number's, or the budget-kind
/// key's when no single number is at fault.
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
    PowerBudget::from_json(&value, latency).map_err(|e| {
        let line = match (e.element, value.as_object()) {
            (Some(i), _) => Some(number_token_lines(text).get(i).copied().unwrap_or(1)),
            (None, Some([(key, _)])) => Some(
                text.lines()
                    .position(|l| l.contains(key.as_str()))
                    .map_or(1, |i| i + 1),
            ),
            (None, _) => None,
        };
        match line {
            Some(line) => format!("line {line}: {e}"),
            None => e.message,
        }
    })
}

fn dump(flags: &Flags) -> Result<String, String> {
    let spec = flags.positionals.first().ok_or("missing graph")?;
    let g = load_graph(spec)?;
    if flags.has("--dot") {
        Ok(g.to_dot())
    } else if flags.has("--stats") {
        Ok(GraphStats::of(&g).to_report())
    } else {
        Ok(write_cdfg(&g))
    }
}

fn synth(flags: &Flags) -> Result<String, String> {
    let trace_path = trace_out(flags);
    let (engine, compiled) = open_graph(flags, flags.has("--optimize"))?;
    let session = engine.session(&compiled);
    let (g, lib) = (compiled.graph(), engine.library());
    let constraints = budget_or_scalar_constraints(flags)?;
    let refine = flags.has("--refine");
    let explain = flags.has("--explain");
    if refine && explain {
        return Err("--explain reports one kernel run; it cannot be combined with --refine".into());
    }
    let mut interval = None;
    let design = if refine {
        session.synthesize_refined(constraints, &SynthesisOptions::default())
    } else if explain {
        let (outcome, run) =
            session.synthesize_with_interval(constraints, &SynthesisOptions::default());
        interval = Some(run);
        outcome
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
    match interval {
        None => {}
        Some(None) => out.push_str("power interval: none (envelope budget)\n"),
        Some(Some(run)) => {
            let hi = if run.is_bounded() {
                units(run.hi).to_string()
            } else {
                "∞".to_owned()
            };
            out.push_str(&format!(
                "power interval: this design answers every constant bound P in [{}, {hi})\n",
                units(run.lo)
            ));
        }
    }
    if flags.has("--profile") {
        out.push_str("\nper-cycle power profile (| marks each cycle's budget bound):\n");
        out.push_str(
            &design
                .power_profile()
                .to_ascii_under(40, &design.constraints.budget),
        );
    }
    if flags.has("--gantt") {
        out.push_str("\nschedule:\n");
        out.push_str(&pchls::bind::gantt(
            g,
            lib,
            &design.binding,
            &design.schedule,
            &design.timing,
        ));
    }
    if flags.has("--hdl") {
        out.push('\n');
        out.push_str(&to_structural_hdl(g, &design, lib));
    }
    if let Some(path) = trace_path {
        write_trace(&path)?;
    }
    Ok(out)
}

/// Answers `points` from the `--store` result store: every point
/// already materialized for this graph fingerprint and budget digest is
/// read back, the misses run through one [`Session::batch`], and their
/// records (schedule traces included) are appended for the next run.
/// Returns one raw point per constraint, in order — what a storeless
/// batch would print, and what [`SweepSpec::envelope`] finishes into a
/// storeless sweep's curve.
fn resume_from_store(
    store: &mut Store,
    session: &Session<'_>,
    compiled: &CompiledGraph,
    points: &[SynthesisConstraints],
) -> Result<Vec<SweepPoint>, String> {
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
        points.len() - missing.len(),
        points.len(),
        store.path().display()
    );
    Ok(slots
        .into_iter()
        .map(|s| s.expect("every point is cached or freshly run"))
        .collect())
}

fn sweep(flags: &Flags) -> Result<String, String> {
    let (engine, compiled) = open_graph(flags, false)?;
    let session = engine.session(&compiled);
    let latency = required_latency(flags)?;
    let steps = flags.number("--steps", 12, 2.., "an integer of at least 2")?;
    let spec = match load_budget(flags, Some(latency))? {
        // Envelope mode: sweep scale factors — "how much of the
        // envelope can the supply actually deliver" — instead of a
        // scalar power grid.
        Some(budget) => {
            let scales: Vec<f64> = (0..steps)
                .map(|i| 0.25 + (1.5 - 0.25) * i as f64 / (steps - 1) as f64)
                .collect();
            SweepSpec::budget_scale(latency, budget, scales)
        }
        None => SweepSpec::power(latency, session.auto_power_grid(steps)),
    };
    let points = match open_store(flags)? {
        None => session
            .sweep(&spec, &SynthesisOptions::default())
            .into_points(),
        Some(mut store) => {
            let constraints: Vec<SynthesisConstraints> =
                (0..spec.len()).map(|i| spec.constraints(i)).collect();
            spec.envelope(resume_from_store(
                &mut store,
                &session,
                &compiled,
                &constraints,
            )?)
        }
    };
    let name = compiled.name();
    if let SweepSpec::BudgetScale { scales, .. } = &spec {
        let mut out =
            format!("{name} at T={latency} (envelope scale sweep):\n scale    peak    area\n");
        for (p, s) in points.iter().zip(scales) {
            match p.area {
                Some(a) => out.push_str(&format!("{s:>6.2} {:>7.1} {:>7}\n", p.power_bound, a)),
                None => out.push_str(&format!("{s:>6.2} {:>7.1}   (infeasible)\n", p.power_bound)),
            }
        }
        return Ok(out);
    }
    let mut out = format!("{name} at T={latency}:\npower    area\n");
    for p in points {
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
        let at = |e: String| format!("line {}: {e}", lineno + 1);
        let t: u32 = t
            .parse()
            .map_err(|_| at(format!("`{t}` is not a latency")))?;
        let t = SynthesisConstraints::check_latency(t).map_err(at)?;
        let p: f64 = p
            .parse()
            .map_err(|_| at(format!("`{p}` is not a power bound")))?;
        let p = PowerBudget::try_constant(p).map_err(|e| at(e.message))?;
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
fn batch(flags: &Flags) -> Result<String, String> {
    let trace_path = trace_out(flags);
    let (engine, compiled) = open_graph(flags, false)?;
    let session = engine.session(&compiled);
    let path = flags
        .values
        .get("--points")
        .ok_or("missing --points <file>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let points = parse_points(&text)?;
    let points = match load_budget(flags, None)? {
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
    let out_points: Vec<SweepPoint> = match open_store(flags)? {
        None => session
            .batch(points.into_iter().map(SynthesisRequest::new))
            .iter()
            .map(|r| r.to_point(compiled.name()))
            .collect(),
        Some(mut store) => resume_from_store(&mut store, &session, &compiled, &points)?,
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
fn battery(flags: &Flags) -> Result<String, String> {
    let (engine, compiled) = open_graph(flags, false)?;
    let session = engine.session(&compiled);
    let constraints = budget_or_scalar_constraints(flags)?;
    let positive = (Bound::Excluded(0.0), Bound::Excluded(f64::INFINITY));
    let capacity = flags.number("--capacity", 20_000.0, positive, "a positive charge")?;
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

    let flat = constrained.power_profile().per_cycle();
    let spiky = oblivious.power_profile().per_cycle();
    let report = battery_report(capacity, &spiky, &flat);

    let mut out = format!(
        "{} at T={} under {}:\n  power-oblivious: {}\n  power-constrained: {}\n\n",
        compiled.name(),
        constraints.latency,
        constraints.budget.describe(),
        oblivious.summary(),
        constrained.summary(),
    );
    out.push_str(&report.to_text(flat.len(), spiky.len()));
    Ok(out)
}

/// `pchls serve`: the long-running synthesis service (JSON-lines
/// protocol over stdio or TCP; see `pchls-serve`). Returns at stdin EOF
/// in `--stdio` mode; serves forever in `--addr` mode.
fn serve(flags: &Flags) -> Result<String, String> {
    let stdio = flags.has("--stdio");
    let addr = flags.values.get("--addr");
    if stdio == addr.is_some() {
        return Err("serve needs exactly one of --stdio or --addr <host:port>".into());
    }
    let count = "a non-negative integer";
    let rate = "a non-negative number";
    let defaults = ServiceConfig::default();
    let config = ServiceConfig {
        workers: flags.number("--workers", defaults.workers, .., count)?,
        shards: flags.number("--shards", defaults.shards, .., count)?,
        cache_cap: flags.number("--cache-cap", defaults.cache_cap, .., count)?,
        queue_cap: flags.number("--queue-cap", defaults.queue_cap, .., count)?,
        rate_per_sec: flags.number("--rate", defaults.rate_per_sec, 0.0..f64::INFINITY, rate)?,
        burst: flags.number("--burst", defaults.burst, 0.0..f64::INFINITY, rate)?,
        max_line_bytes: flags.number(
            "--max-line-bytes",
            defaults.max_line_bytes,
            1..,
            "a positive integer",
        )?,
        store_dir: flags.values.get("--store").map(std::path::PathBuf::from),
        stats_interval: flags.number("--stats-interval", defaults.stats_interval, .., count)?,
        ..defaults
    };
    let lib = load_library(flags)?;
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
    if flags.has("--metrics") {
        eprint!("{}", service.metrics_text());
    }
    Ok(String::new())
}

/// `pchls store (stat|verify|compact) <dir>`: inspects and maintains a
/// persistent result store directory (the `--store` target of
/// `batch`/`sweep`/`serve`).
fn store_admin(flags: &Flags) -> Result<String, String> {
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

/// The `pchls store stat` report: record, block and file-size totals.
fn render_store_stat(stat: &StoreStat, path: &std::path::Path) -> String {
    let mut out = format!(
        "{}:\n  records: {} ({} live)\n  blocks: {}\n  file: {} bytes\n",
        path.display(),
        stat.records,
        stat.live_records,
        stat.blocks,
        stat.file_bytes,
    );
    if stat.recovered {
        out.push_str("  recovered: yes (torn tail was scanned around)\n");
    }
    out
}

/// The prologue `simulate` and `vcd` share: synthesizes the required
/// constraint point and builds its datapath. Returns the compiled graph,
/// the datapath and the `--set` stimulus.
fn synthesized_datapath(
    flags: &Flags,
) -> Result<(CompiledGraph, Datapath, pchls::cdfg::Stimulus), String> {
    let (engine, compiled) = open_graph(flags, false)?;
    let constraints = required_constraints(flags)?;
    let stim = flags.sets.iter().cloned().collect();
    let design = engine
        .session(&compiled)
        .synthesize(constraints, &SynthesisOptions::default())
        .map_err(|e| e.to_string())?;
    let dp = Datapath::build(compiled.graph(), &design, engine.library());
    Ok((compiled, dp, stim))
}

fn run_simulation(flags: &Flags) -> Result<String, String> {
    let (compiled, dp, stim) = synthesized_datapath(flags)?;
    let g = compiled.graph();
    let run = simulate(g, &dp, &stim).map_err(|e| e.to_string())?;
    let reference = Interpreter::new(g).run(&stim).map_err(|e| e.to_string())?;
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

fn run_vcd(flags: &Flags) -> Result<String, String> {
    let (compiled, dp, stim) = synthesized_datapath(flags)?;
    let g = compiled.graph();
    let wave = pchls::rtl::trace(g, &dp, &stim).map_err(|e| e.to_string())?;
    let vcd = pchls::rtl::to_vcd(&wave, g.name());
    match flags.values.get("--out") {
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
    fn synth_explain_reports_the_power_interval() {
        for (cmd, line, inside) in [
            (
                "synth elliptic -T 22 -P 17.5",
                "power interval: this design answers every constant bound P in [16.2, 18.7)",
                ["16.2", "18.6"],
            ),
            (
                "synth hal -T 17 -P 25",
                "power interval: this design answers every constant bound P in [15, ∞)",
                ["15", "1e9"],
            ),
        ] {
            let plain = run(&argv(cmd)).unwrap();
            let explained = run(&argv(&format!("{cmd} --explain"))).unwrap();
            assert!(explained.lines().any(|l| l == line), "{explained}");
            // The flag adds that one line and changes nothing else.
            let rest: String = explained
                .lines()
                .filter(|l| *l != line)
                .map(|l| format!("{l}\n"))
                .collect();
            assert_eq!(rest, plain);
            // Any bound inside the interval prints the same design.
            let graph_t = cmd.rsplit_once(" -P ").unwrap().0;
            for p in inside {
                assert_eq!(
                    run(&argv(&format!("{graph_t} -P {p}"))).unwrap(),
                    plain,
                    "P={p}"
                );
            }
        }
    }

    #[test]
    fn synth_explain_names_envelope_budgets_and_refuses_refine() {
        let path = budget_dir().join("explain_steps.json");
        std::fs::write(&path, "{\"steps\": [[0, 40.0], [5, 15.0]]}\n").unwrap();
        let out = run(&argv(&format!(
            "synth hal -T 10 --budget {} --explain",
            path.display()
        )))
        .unwrap();
        assert!(
            out.lines()
                .any(|l| l == "power interval: none (envelope budget)"),
            "{out}"
        );
        let err = run(&argv("synth hal -T 17 -P 25 --explain --refine")).unwrap_err();
        assert!(err.contains("--refine"), "{err}");
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
        let mut store = Store::open(&store_dir).unwrap();
        assert_eq!(store.len(), 5, "one raw record per grid point");
        // Every feasible record carries the schedule of a direct
        // synthesis at its point, as batch and serve records do.
        let engine = Engine::new(paper_library());
        let compiled = engine.compile(&benchmarks::hal());
        let session = engine.session(&compiled);
        let mut feasible = 0;
        for p in session.auto_power_grid(5) {
            let c = SynthesisConstraints::new(17, p);
            let record = store
                .get(&StoreKey::for_graph(compiled.graph(), &c))
                .unwrap()
                .expect("every grid point was stored");
            if let Ok(design) = session.synthesize(c, &SynthesisOptions::default()) {
                feasible += 1;
                assert_eq!(
                    pchls::store::trace_starts(&record.trace).as_deref(),
                    Some(design.schedule.starts()),
                    "P={p}"
                );
            }
        }
        assert!(feasible > 0);
    }

    #[test]
    fn sweep_resumes_points_a_batch_stored() {
        let dir = store_scratch("pchls-cli-store-shared");
        let store_dir = dir.join("store");
        let engine = Engine::new(paper_library());
        let grid = engine
            .session(&engine.compile(&benchmarks::hal()))
            .auto_power_grid(5);
        // `{}` prints the shortest string that parses back to the same
        // `f64`, so the batch stores these points under the sweep's keys.
        let points = dir.join("points.txt");
        std::fs::write(&points, format!("17 {}\n17 {}\n", grid[1], grid[3])).unwrap();
        run(&argv(&format!(
            "batch hal --points {} --store {}",
            points.display(),
            store_dir.display()
        )))
        .unwrap();
        let cmd = format!("sweep hal -T 17 --steps 5 --store {}", store_dir.display());
        assert_eq!(
            run(&argv(&cmd)).unwrap(),
            run(&argv("sweep hal -T 17 --steps 5")).unwrap()
        );
        let store = Store::open(&store_dir).unwrap();
        assert_eq!(store.len(), 5, "the sweep reran a point the batch stored");
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
        assert!(stat.contains("blocks: 1\n"), "{stat}");
        let file_bytes = std::fs::metadata(store_dir.join(STORE_FILE_NAME))
            .unwrap()
            .len();
        assert!(
            stat.contains(&format!("file: {file_bytes} bytes")),
            "{stat}"
        );
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
    fn a_runtime_error_prints_one_line_without_the_usage() {
        let dir = store_scratch("pchls-cli-corrupt-compact");
        let points = dir.join("points.txt");
        std::fs::write(&points, "17 25\n").unwrap();
        let store_dir = dir.join("store");
        run(&argv(&format!(
            "batch hal --points {} --store {}",
            points.display(),
            store_dir.display()
        )))
        .unwrap();
        // Flip a bit halfway between the block magic and the footer's.
        let file = store_dir.join(STORE_FILE_NAME);
        let mut bytes = std::fs::read(&file).unwrap();
        let find = |magic: &[u8]| bytes.windows(4).rposition(|w| w == magic).unwrap();
        let mid = (find(b"PCBK") + find(b"PCFT")) / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&file, bytes).unwrap();
        let err = outcome(&argv(&format!("store compact {}", store_dir.display()))).unwrap_err();
        assert_eq!(err.lines().count(), 1, "{err}");
        assert!(err.starts_with("error: compacting: "), "{err}");
    }

    #[test]
    fn a_malformed_command_line_prints_the_usage() {
        for line in [
            "synth hal -T 17 -P 25 --bogus",
            "frobnicate",
            "synth hal -T",
        ] {
            let err = outcome(&argv(line)).unwrap_err();
            assert!(err.starts_with("error: "), "{err}");
            assert!(err.ends_with(USAGE), "{line}: {err}");
        }
        let err = outcome(&argv("synth hal -T 17 -P 25 --bogus")).unwrap_err();
        assert!(err.starts_with("error: unknown flag `--bogus`\n"), "{err}");
    }

    #[test]
    fn a_line_outside_its_commands_shape_prints_the_usage() {
        for (line, message) in [
            ("synth hal -T 17 -P 25 -X 5 junk", "unknown flag `-X`"),
            ("synth hal -T 17 -P 25 junk", "unexpected argument `junk`"),
            ("benchmarks --dot", "unknown flag `--dot`"),
            ("dump hal --library x.lib", "unknown flag `--library`"),
            ("sweep hal -T 17 -P 5", "unknown flag `-P`"),
            (
                "simulate hal -T 17 -P 25 --budget f.json --set x=2 --set y=5 --set u=7 \
                 --set dx=3 --set a=100 --set three=3",
                "unknown flag `--budget`",
            ),
            (
                "synth hal --latency 17 --power 25",
                "unknown flag `--latency`",
            ),
            ("store stat dir extra", "unexpected argument `extra`"),
            ("synth hal -T 17 -P 1 -P 25", "-P given twice"),
        ] {
            let err = outcome(&argv(line)).unwrap_err();
            assert!(
                err.starts_with(&format!("error: {message}\n")),
                "{line}: {err}"
            );
            assert!(err.ends_with(USAGE), "{line}: {err}");
        }
    }

    #[test]
    fn usage_lines_name_exactly_the_flags_each_command_reads() {
        let mut lines: BTreeMap<&str, String> = BTreeMap::new();
        let mut current = "";
        for line in USAGE.lines().skip(1).take_while(|l| !l.is_empty()) {
            let line = line.split(" #").next().unwrap();
            if let Some(rest) = line.strip_prefix("  pchls ") {
                current = rest.split_whitespace().next().unwrap();
            }
            lines.entry(current).or_default().push_str(line);
        }
        // One usage line per command; indexing below finds each one.
        assert_eq!(lines.len(), COMMANDS.len(), "{lines:?}");
        for (name, _, Shape(_, values, switches)) in COMMANDS {
            let named: std::collections::BTreeSet<&str> = lines[name]
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter(|t| t.starts_with('-'))
                .collect();
            let read = values.iter().chain(switches.iter()).copied().collect();
            assert_eq!(named, read, "{name}");
        }
    }

    #[test]
    fn a_scalar_bound_and_a_budget_file_are_not_both_taken() {
        let path = budget_dir().join("both.json");
        std::fs::write(&path, "{\"constant\": 25.0}\n").unwrap();
        for command in ["synth", "battery"] {
            let line = format!("{command} hal -T 17 -P 25 --budget {}", path.display());
            let err = run(&argv(&line)).unwrap_err();
            assert!(err.contains("-P") && err.contains("--budget"), "{err}");
        }
    }

    #[test]
    fn a_sweep_of_fewer_than_two_steps_is_refused() {
        for steps in ["0", "1", "-1", "two"] {
            let err = run(&argv(&format!("sweep hal -T 17 --steps {steps}"))).unwrap_err();
            assert!(err.contains("--steps"), "{steps}: {err}");
        }
        let out = run(&argv("sweep hal -T 17 --steps 2")).unwrap();
        assert_eq!(out.lines().count(), 4, "{out}");
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

    /// Budget documents the tests above hand the CLI, both valid and
    /// not: the seeds the hostile-input property mutates.
    const BUDGET_CORPUS: &[&str] = &[
        "{\"constant\": 25.0}",
        "{\"steps\": [[0, 30.0], [8, 12.0]]}",
        "{\"per_cycle\": [1.0, 2.0]}",
        "{\"per_cycle\": [30.0,\n  -5.0,\n  20.0]}\n",
        "{\"steps\": [[0, 30.0],\n  [40, 10.0]]}\n",
        "{\"steps\": [[5, 30.0],\n  [2, 10.0]]}\n",
        "{\"steps\": [[0.0, 30.0]]}",
        "{\"steps\": []}",
        "{\"bogus\": 1.0}",
    ];

    /// Spliced into documents: numbers past every range, wrong types
    /// and stray structure.
    const HOSTILE_TOKENS: &[&str] = &[
        "-1",
        "-0",
        "0.0",
        "1e999",
        "-1e999",
        "4294967296",
        "1e308",
        "[]",
        "{}",
        "null",
        "\"x\"",
        "[0, 1.0]",
        ",",
        "]",
        "99999999999999999999999999999999999999999",
    ];

    /// A power bound from raw bits, weighted towards the values a
    /// validator must refuse or survive.
    fn hostile_power(bits: u64) -> f64 {
        match bits % 8 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -((bits >> 3) as f64),
            4 => f64::MAX,
            5 => -0.0,
            6 => (bits >> 3) as f64 / 1e3,
            _ => f64::from_bits(bits),
        }
    }

    /// `doc` after `edits`: each replaces, deletes or inserts at a
    /// position picked by its first value.
    fn mutate(doc: &str, edits: &[(u64, u64)]) -> String {
        let mut chars: Vec<char> = doc.chars().collect();
        for &(at, what) in edits {
            let at = (at % (chars.len() as u64 + 1)) as usize;
            let token = HOSTILE_TOKENS[(what % HOSTILE_TOKENS.len() as u64) as usize];
            match what % 3 {
                0 if at < chars.len() => {
                    chars.remove(at);
                }
                1 if at < chars.len() => {
                    chars.splice(at..=at, token.chars());
                }
                _ => {
                    chars.splice(at..at, token.chars());
                }
            }
        }
        chars.into_iter().collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// No latency, power bound or budget document panics the one
        /// validator: each is refused or accepted, and every accepted
        /// point builds with `SynthesisConstraints::new`.
        #[test]
        fn hostile_constraint_inputs_are_refused_or_build(
            raw_latency in proptest::any::<u64>(),
            power_bits in proptest::any::<u64>(),
            seed in proptest::any::<u64>(),
            edits in proptest::collection::vec(
                (proptest::any::<u64>(), proptest::any::<u64>()),
                0usize..4,
            ),
        ) {
            let latency = if raw_latency.is_multiple_of(2) {
                (raw_latency >> 1) as u32 % (pchls::core::MAX_LATENCY + 2)
            } else {
                (raw_latency >> 32) as u32
            };
            let power = hostile_power(power_bits);
            let latency_ok = SynthesisConstraints::check_latency(latency).is_ok();
            proptest::prop_assert_eq!(
                latency_ok,
                (1..=pchls::core::MAX_LATENCY).contains(&latency)
            );
            let scalar = PowerBudget::try_constant(power);
            proptest::prop_assert_eq!(scalar.is_ok(), power >= 0.0, "P={}", power);
            if let Ok(budget) = scalar {
                let point = SynthesisConstraints::try_new(latency, budget);
                proptest::prop_assert_eq!(point.is_ok(), latency_ok);
                if latency_ok {
                    let _ = SynthesisConstraints::new(latency, power);
                }
            }
            // The points file reads the same pair through the same rules.
            let points = parse_points(&format!("{latency} {power}\n"));
            proptest::prop_assert_eq!(points.is_ok(), latency_ok && power >= 0.0);

            let doc = mutate(BUDGET_CORPUS[(seed % BUDGET_CORPUS.len() as u64) as usize], &edits);
            let horizon = latency_ok.then_some(latency);
            let Ok(value) = serde_json::parse(&doc) else {
                return Ok(());
            };
            let read = PowerBudget::from_json(&value, horizon);
            let wire: Result<PowerBudget, _> = serde::Deserialize::from_value(&value);
            if let Ok(budget) = &read {
                proptest::prop_assert!(wire.is_ok(), "{}", doc);
                if let Some(t) = horizon {
                    proptest::prop_assert!(budget.check_horizon(t).is_ok(), "{}", doc);
                    let _ = SynthesisConstraints::new(t, budget.clone());
                }
            }
            // The CLI only adds a line to the same verdict (its NaN/Inf
            // pre-scan may refuse a document the parser never sees).
            let cli = parse_budget_json(&doc, horizon);
            proptest::prop_assert!(cli.is_err() || read.is_ok(), "{}: {:?}", doc, cli);
        }
    }
}
