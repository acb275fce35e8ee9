//! `gate shard`: the [`crate::fleet_scale`] workload at
//! [`SHARD_GATED_USERS`] (1,048,576) users through the real `xrbench`
//! binary, once in a single process (`run-fleet DOC --out ref.json`)
//! and once split across 8 child processes (`run-fleet DOC --shards 8
//! --out multi.json`), plus one standalone child (`--shard 0/8`) for
//! its self-reported peak RSS. The binary is found next to
//! this one (build `-p xrbench-cli --release` first) or at
//! `$XRBENCH_BIN`. Bounds: see [`crate::gate`].

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use serde_json::Value;
use xrbench_fleet::fleet_to_json;

use super::{json_bound, json_object, Gate, Kind};
use crate::fleet_scale::{
    fleet, ENERGY_J, ENGINES, LATENCY_S, SHARD_GATED_USERS, USERS_PER_SESSION,
};

/// The committed baseline this leg gates against and blesses.
const FILE: &str = "BENCH_PR9.json";
/// The distributed throughput floor (ev/s).
const FLOOR: &str = "floor_events_per_sec_1048576";
/// The shard child's peak-RSS cap (MiB).
const MAX_RSS: &str = "max_shard_rss_mib";
/// Every committed field this leg reads (checked against the
/// committed files by the `gate` tests).
#[cfg(test)]
pub(crate) const READS: &[(&str, &str)] = &[(FILE, FLOOR), (FILE, MAX_RSS)];

/// Shards the distributed run splits the fleet into.
const NUM_SHARDS: u32 = 8;
/// Fraction of the measured throughput proposed as the floor when
/// blessing: loose enough for CI runners several times slower.
const BLESS_FRACTION: f64 = 0.10;
/// The blessed RSS cap proposal: this many times the measured child
/// peak, but never under [`RSS_BLESS_MIN_MIB`].
const RSS_BLESS_FACTOR: f64 = 4.0;
const RSS_BLESS_MIN_MIB: f64 = 256.0;
/// Scratch directory for the run document and the two reports.
const SCRATCH_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/gate_shard");

/// `$XRBENCH_BIN`, or the `xrbench` next to this binary.
fn xrbench_bin() -> Option<PathBuf> {
    if let Ok(explicit) = std::env::var("XRBENCH_BIN") {
        let p = PathBuf::from(explicit);
        return p.is_file().then_some(p);
    }
    let sibling = std::env::current_exe().ok()?.with_file_name("xrbench");
    sibling.is_file().then_some(sibling)
}

/// Runs `xrbench args`, returning (stdout, elapsed seconds); a failed
/// child fails the leg.
fn run_xrbench(gate: &Gate, bin: &Path, args: &[&str]) -> (String, f64) {
    let start = Instant::now();
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| gate.abort(&format!("cannot spawn {}: {e}", bin.display())));
    let elapsed = start.elapsed().as_secs_f64();
    if !out.status.success() {
        gate.abort(&format!(
            "`xrbench {}` exited with {}:\n{}",
            args.join(" "),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    (String::from_utf8_lossy(&out.stdout).into_owned(), elapsed)
}

/// A top-level number of a JSON document, NaN when absent.
fn field(doc: &Value, name: &str) -> f64 {
    doc.get(name).as_f64().unwrap_or(f64::NAN)
}

/// Runs the leg.
pub fn run() -> ExitCode {
    let mut gate = Gate::new("shard", FILE);
    let Some(bin) = xrbench_bin() else {
        gate.abort(
            "no `xrbench` binary found (build it first: \
             `cargo build -p xrbench-cli --release --locked`, or set XRBENCH_BIN)",
        );
    };

    // The fleet leg's workload on its 16-engine uniform system, 16×
    // larger.
    let scratch = PathBuf::from(SCRATCH_DIR);
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    let doc_path = scratch.join("fleet_1m.json");
    let doc = format!(
        "{{\n  \"kind\": \"fleet\",\n  \"hardware\": {{ \"uniform\": {{ \"engines\": {ENGINES}, \
         \"latency_s\": {LATENCY_S}, \"energy_j\": {ENERGY_J} }} }},\n  \"fleet\": {}\n}}\n",
        fleet_to_json(&fleet(SHARD_GATED_USERS)),
    );
    std::fs::write(&doc_path, &doc).expect("write fleet document");
    let doc_arg = doc_path.to_str().expect("scratch path is utf-8");
    let ref_path = scratch.join("ref.json");
    let multi_path = scratch.join("multi.json");
    let (ref_arg, multi_arg) = (ref_path.to_str().unwrap(), multi_path.to_str().unwrap());
    let shards_arg = NUM_SHARDS.to_string();

    let (_, single_s) = run_xrbench(&gate, &bin, &["run-fleet", doc_arg, "--out", ref_arg]);
    let (_, multi_s) = run_xrbench(
        &gate,
        &bin,
        &[
            "run-fleet",
            doc_arg,
            "--shards",
            &shards_arg,
            "--out",
            multi_arg,
        ],
    );
    let reference = std::fs::read_to_string(&ref_path).expect("read reference report");
    let multi = std::fs::read_to_string(&multi_path).expect("read sharded report");
    let report = serde_json::from_str(&reference).unwrap_or(Value::Null);
    let (users, sessions, events) = (
        field(&report, "num_users"),
        field(&report, "num_sessions"),
        field(&report, "events"),
    );
    let (single_eps, multi_eps) = (events / single_s, events / multi_s);
    gate.note(&format!(
        "single  | {users:>8} users | {sessions:>6} sessions | {events:>10} events | \
         {single_eps:>12.0} ev/s"
    ));
    gate.note(&format!(
        "sharded | {users:>8} users | {NUM_SHARDS} procs    | {events:>10} events | \
         {multi_eps:>12.0} ev/s"
    ));

    let (child, child_s) = run_xrbench(
        &gate,
        &bin,
        &["run-fleet", doc_arg, "--shard", &format!("0/{NUM_SHARDS}")],
    );
    let child_rss = field(
        &serde_json::from_str(&child).unwrap_or(Value::Null),
        "peak_rss_mib",
    );
    gate.note(&format!(
        "child 0/{NUM_SHARDS} | peak RSS {child_rss:.1} MiB | {child_s:.1} s"
    ));

    let name = format!("1-vs-{NUM_SHARDS}-process report byte identity");
    gate.holds(name, reference == multi);
    let gated = Ok(f64::from(SHARD_GATED_USERS));
    gate.check(Kind::AtLeast, "gated fleet users", gated, users, "");
    let floor = gate.committed(
        Kind::AtLeast,
        FLOOR,
        &format!("{NUM_SHARDS}-process throughput"),
        multi_eps,
        multi_eps * BLESS_FRACTION,
        " ev/s",
    );
    let rss_cap = gate.committed(
        Kind::AtMost,
        MAX_RSS,
        "shard-child peak RSS",
        child_rss,
        (child_rss * RSS_BLESS_FACTOR).max(RSS_BLESS_MIN_MIB),
        " MiB",
    );

    let mut fields = vec![
        ("bench", "\"shard_scale\"".into()),
        ("users", format!("{users:.0}")),
        ("users_per_session", USERS_PER_SESSION.to_string()),
        ("sessions", format!("{sessions:.0}")),
        ("shards", NUM_SHARDS.to_string()),
        ("events", format!("{events:.0}")),
        ("single_process_events_per_sec", format!("{single_eps:.0}")),
        ("sharded_events_per_sec", format!("{multi_eps:.0}")),
    ];
    if child_rss.is_finite() {
        fields.push(("shard_child_peak_rss_mib", format!("{child_rss:.0}")));
    }
    fields.push((MAX_RSS, json_bound(&rss_cap)));
    fields.push((FLOOR, json_bound(&floor)));
    let table = format!(
        "| leg | processes | events | events/sec |\n|---|---:|---:|---:|\n\
         | single | 1 | {events} | {single_eps:.0} |\n\
         | sharded | {NUM_SHARDS} | {events} | {multi_eps:.0} |\n"
    );
    gate.finish(
        &json_object(&fields),
        "Shard gate (1,048,576-user distributed fleet)",
        &table,
    )
}
