//! Host-time benchmark of the XRBench simulator.
//!
//! ```sh
//! bash perfbench/run.sh --workload session-1024 --seed 0 --seconds 20 --trace 0
//! ```
//!
//! One invocation runs one workload in its own process: it sets the
//! workload up several times (timing each set-up), then repeats the
//! workload for `--seconds` of host time, checking every run's output
//! and reporting the median of each end-to-end metric. With
//! `--trace 1` it alternates plain runs with traced runs, in which
//! the benchmark times each call into a layer's public functions
//! itself (the program carries no tracing), and reports the per-layer
//! metrics instead. The metric names and units come from
//! `BENCHMARK.json`; the last line of standard output is the result
//! object, everything else goes to standard error.

mod fleet;
mod measure;
mod session;
mod sweep;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use measure::{median, since, tail};
use xrbench_analysis::analyze_run_document;
use xrbench_core::RunDocument;

/// The simulator seed `--seed 0` maps to: the repository's default
/// `SimConfig` seed, for which the pinned output digests hold.
pub const BASE_SEED: u64 = 0xC0FF_EE00;
/// The metric declarations, relative to the repository root.
const SPEC: &str = "BENCHMARK.json";
/// Set-ups per invocation; `setup_s` is their median.
const SETUPS: usize = 9;
/// Timed runs made even when one run outlasts `--seconds`.
const MIN_RUNS: usize = 3;

/// Exact work counters of one run, in a fixed order. Two runs of the
/// same inputs must produce identical counters.
pub type Counters = Vec<(&'static str, u64)>;

/// Host cost of one timed run.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    /// Wall seconds.
    pub wall_s: f64,
    /// User + system CPU seconds, reaped children included.
    pub cpu_s: f64,
}

/// Calibration passes on each side of a run.
const PASSES: usize = 3;

/// Runs `f` between calibration passes, returning its result and the
/// factor that rescales its times to the reference machine speed: the
/// nominal pass time over the median pass time around the run.
fn calibrated<T>(calibrator: &mut measure::Calibrator, f: impl FnOnce() -> T) -> (T, f64) {
    let mut passes: Vec<f64> = (0..PASSES).map(|_| calibrator.pass()).collect();
    let out = f();
    passes.extend((0..PASSES).map(|_| calibrator.pass()));
    (out, measure::CALIB_REF_S / median(&passes))
}

/// Runs `f`, measuring its wall and CPU time.
pub fn clock<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let cpu0 = measure::cpu_s();
    let (out, wall_s) = measure::timed(f);
    (
        out,
        Cost {
            wall_s,
            cpu_s: measure::cpu_s() - cpu0,
        },
    )
}

/// Per-layer samples collected by traced runs, by metric name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<String, Vec<f64>>);

impl Layers {
    /// Records one sample of a per-layer metric.
    pub fn add(&mut self, name: impl Into<String>, value: f64) {
        self.0.entry(name.into()).or_default().push(value);
    }

    /// Records exact counters as per-layer metrics, as `(counter,
    /// metric)` name pairs.
    pub fn counters(&mut self, map: &[(&str, &str)], counters: &Counters) {
        for &(counter, metric) in map {
            let value = counters
                .iter()
                .find(|(n, _)| *n == counter)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("no counter {counter}"));
            self.add(metric, value as f64);
        }
    }

    /// The median sample of a metric, if any was recorded.
    pub fn median(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|v| median(v))
    }
}

/// One benchmark workload: prepared inputs plus the checks on its
/// outputs.
pub trait Workload {
    /// One plain run of the program. Only the program's own work is
    /// inside the returned cost; the output is checked afterwards and
    /// summarised as counters.
    fn run(&mut self) -> Result<(Cost, Counters), String>;

    /// The same work as [`Workload::run`], with each call into a layer
    /// timed separately. Returns the traced wall seconds and the
    /// counters, which must equal the plain run's.
    fn run_traced(&mut self, layers: &mut Layers) -> Result<(f64, Counters), String>;

    /// The work units one run completes (simulated events, or sweep
    /// points), from its counters.
    fn work(&self, counters: &Counters) -> u64;

    /// Checks the first run's counters against pinned values (default
    /// seed) and against a second code path (every seed).
    fn verify(&mut self, counters: &Counters) -> Result<(), String>;

    /// Per-layer metrics measured once, after the traced runs, and any
    /// that combine traced and plain medians.
    fn finish_layers(&mut self, _layers: &mut Layers, _plain_wall_s: f64) -> Result<(), String> {
        Ok(())
    }

    /// Whether run times are rescaled by the calibration passes around
    /// each run.
    fn calibrated(&self) -> bool {
        true
    }

    /// Peak resident set in MiB, over the runs so far, of the process
    /// doing the work.
    fn peak_rss_mib(&self) -> f64 {
        measure::peak_rss_mib(None).map_or(0.0, |(_, mib)| mib)
    }
}

/// Parses and analyzes a run document as the CLI does before running
/// it, recording both calls as per-layer samples. The run goes ahead
/// whatever the analyzer's verdict, as a non-strict CLI run does: the
/// session workloads oversubscribe their system on purpose.
pub fn load_document(text: &str, layers: &mut Layers) -> Result<RunDocument, String> {
    let (doc, parse_s) = measure::timed(|| RunDocument::from_json_str(text));
    let doc = doc.map_err(|e| format!("run document: {e}"))?;
    let (analysis, analyze_s) = measure::timed(|| analyze_run_document(&doc));
    std::hint::black_box(analysis);
    layers.add("core.parse_s", parse_s);
    layers.add("analysis.analyze_s", analyze_s);
    Ok(doc)
}

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    xrbench: PathBuf,
    work_dir: PathBuf,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut workload = None;
        let mut seed = 0u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        let mut xrbench = None;
        let mut work_dir = PathBuf::from(".bench_build/perfbench");
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("invalid {flag} `{value}`: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                "--xrbench" => xrbench = Some(value.into()),
                "--work-dir" => work_dir = value.into(),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        // Fleet documents carry the seed as a JSON number, exact only
        // below 2^53.
        if seed >= (1 << 52) {
            return Err(format!("--seed {seed} is out of range (below 2^52)"));
        }
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err(format!("--seconds must be positive, got {seconds}"));
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            xrbench: xrbench.ok_or("--xrbench is required")?,
            work_dir,
        })
    }

    /// The simulator seed this run's inputs are generated from.
    fn sim_seed(&self) -> u64 {
        BASE_SEED + self.seed
    }
}

/// A metric declared in `BENCHMARK.json`.
struct MetricDecl {
    name: String,
    unit: String,
}

/// Reads the end-to-end and per-layer metric declarations.
fn declared_metrics(spec: &Path) -> Result<(Vec<MetricDecl>, Vec<MetricDecl>), String> {
    let text = std::fs::read_to_string(spec)
        .map_err(|e| format!("cannot read {}: {e}", spec.display()))?;
    let value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", spec.display()))?;
    let list = |key: &str| -> Result<Vec<MetricDecl>, String> {
        let serde_json::Value::Object(fields) = &value else {
            return Err(format!("{}: not an object", spec.display()));
        };
        let Some((_, serde_json::Value::Array(items))) = fields.iter().find(|(k, _)| k == key)
        else {
            return Err(format!("{}: no `{key}` list", spec.display()));
        };
        items
            .iter()
            .map(|item| {
                let field = |f: &str| match item {
                    serde_json::Value::Object(kv) => kv
                        .iter()
                        .find(|(k, _)| k == f)
                        .and_then(|(_, v)| v.as_str())
                        .map(str::to_string),
                    _ => None,
                };
                Ok(MetricDecl {
                    name: field("name").ok_or(format!("`{key}` entry without a name"))?,
                    unit: field("unit").ok_or(format!("`{key}` entry without a unit"))?,
                })
            })
            .collect()
    };
    Ok((list("end_to_end")?, list("per_layer")?))
}

fn build_workload(args: &Args, layers: &mut Layers) -> Result<Box<dyn Workload>, String> {
    let seed = args.sim_seed();
    let pinned = args.seed == 0;
    Ok(match args.workload.as_str() {
        "session-1024" => Box::new(session::Session::setup(
            session::Variant::Greedy1024,
            seed,
            pinned,
            layers,
        )?),
        "session-edf-256" => Box::new(session::Session::setup(
            session::Variant::Edf256,
            seed,
            pinned,
            layers,
        )?),
        "fleet-sharded-65k" => Box::new(fleet::Fleet::setup(
            seed,
            pinned,
            &args.xrbench,
            &args.work_dir,
            layers,
        )?),
        "sweep-figure5" => Box::new(sweep::Sweep::setup(seed, pinned, layers)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// Renders a metric value with all its digits (integers bare).
fn json_number(value: f64) -> Result<String, String> {
    if !value.is_finite() {
        return Err(format!("non-finite metric value {value}"));
    }
    Ok(if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    })
}

fn summarize(name: &str, samples: &[f64]) {
    let tail = tail(samples).map_or(String::new(), |(p, v)| format!(" p{p}={v:.6}"));
    let (lo, hi) = samples
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    eprintln!(
        "perfbench: {name:<14} median={:.6}{tail} min={lo:.6} max={hi:.6} n={}",
        median(samples),
        samples.len()
    );
}

fn run(args: &Args) -> Result<String, String> {
    let (end_to_end, per_layer) = declared_metrics(Path::new(SPEC))?;
    let started = Instant::now();

    let mut layers = Layers::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut workload = None;
    let mut calibrator = measure::Calibrator::new();
    for _ in 0..SETUPS {
        let (built, scale) = calibrated(&mut calibrator, || {
            measure::timed(|| build_workload(args, &mut layers))
        });
        workload = Some(built.0?);
        setup_s.push(built.1 * scale);
    }
    let mut workload = workload.expect("at least one set-up");
    let calibrate = workload.calibrated();

    // The timed loop. Under --trace 1 plain and traced runs alternate,
    // so both see the same machine conditions.
    let deadline = Instant::now();
    let mut plain: Vec<(Cost, f64)> = Vec::new();
    let mut traced_wall: Vec<f64> = Vec::new();
    let mut first: Option<Counters> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first_error = None;
    let mut work = 0u64;
    while attempted < MIN_RUNS as u64 || since(deadline) < args.seconds {
        let traced = args.trace && attempted % 2 == 1;
        attempted += 1;
        let outcome = if traced {
            workload
                .run_traced(&mut layers)
                .map(|(wall, c)| (None, wall, c))
        } else {
            let (outcome, scale) = if calibrate {
                calibrated(&mut calibrator, || workload.run())
            } else {
                (workload.run(), 1.0)
            };
            outcome.map(|(cost, c)| (Some((cost, scale)), cost.wall_s, c))
        };
        let outcome = outcome.and_then(|(cost, wall, counters)| match &first {
            None => Ok((cost, wall, counters)),
            Some(f) if *f == counters => Ok((cost, wall, counters)),
            Some(f) => Err(format!(
                "{} run counters {counters:?} differ from the first run's {f:?}",
                if traced { "traced" } else { "plain" }
            )),
        });
        match outcome {
            Ok((cost, wall, counters)) => {
                match cost {
                    Some(cost) => plain.push(cost),
                    None => traced_wall.push(wall),
                }
                if first.is_none() {
                    work = workload.work(&counters);
                    first = Some(counters);
                }
            }
            Err(e) => {
                failed += 1;
                eprintln!("perfbench: run {attempted} failed: {e}");
                first_error.get_or_insert(e);
            }
        }
    }
    let peak_rss_mib = workload.peak_rss_mib();

    let mut correct = failed == 0;
    match &first {
        Some(counters) => {
            eprintln!("perfbench: counters {counters:?}");
            if let Err(e) = workload.verify(counters) {
                eprintln!("perfbench: output check failed: {e}");
                // A wrong output makes every run that produced it wrong.
                failed = attempted;
                correct = false;
            }
        }
        None => correct = false,
    }
    if plain.is_empty() {
        return Err(first_error.unwrap_or_else(|| "no plain run succeeded".to_string()));
    }
    let walls: Vec<f64> = plain.iter().map(|(c, _)| c.wall_s).collect();
    let plain_wall = median(&walls);

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    if args.trace {
        if traced_wall.is_empty() {
            return Err(first_error.unwrap_or_else(|| "no traced run succeeded".to_string()));
        }
        workload.finish_layers(&mut layers, plain_wall)?;
        layers.add("trace.overhead_s", median(&traced_wall) - plain_wall);
        for (name, samples) in &layers.0 {
            if !per_layer.iter().any(|d| d.name == *name) {
                return Err(format!("metric `{name}` is not declared in per_layer"));
            }
            summarize(name, samples);
        }
        for decl in &per_layer {
            // A layer this workload never calls reads as zero.
            values.insert(&decl.name, layers.median(&decl.name).unwrap_or(0.0));
        }
    } else {
        // Times are rescaled to the reference machine speed run by run;
        // the raw wall is printed for comparison.
        summarize("raw_wall_s", &walls);
        let scaled: Vec<f64> = plain.iter().map(|(c, k)| c.wall_s * k).collect();
        let cpu: Vec<f64> = plain.iter().map(|(c, k)| c.cpu_s * k).collect();
        let rates: Vec<f64> = scaled.iter().map(|w| work as f64 / w).collect();
        for (name, samples) in [
            ("wall_s", &scaled),
            ("cpu_s", &cpu),
            ("work_per_s", &rates),
            ("setup_s", &setup_s),
        ] {
            summarize(name, samples);
            values.insert(name, median(samples));
        }
        eprintln!("perfbench: peak_rss_mib   {peak_rss_mib:.3}");
        values.insert("peak_rss_mib", peak_rss_mib);
    }

    let decls = if args.trace { &per_layer } else { &end_to_end };
    let mut metrics = Vec::with_capacity(decls.len());
    for decl in decls {
        let value = values
            .get(decl.name.as_str())
            .ok_or_else(|| format!("metric `{}` was not measured", decl.name))?;
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            decl.name,
            json_number(*value)?,
            decl.unit
        ));
    }
    eprintln!(
        "perfbench: {} attempted={attempted} failed={failed} correct={correct} total={:.1}s",
        args.workload,
        since(started)
    );
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let result = Args::parse().and_then(|args| run(&args));
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            ExitCode::FAILURE
        }
    }
}
