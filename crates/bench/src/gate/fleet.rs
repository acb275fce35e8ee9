//! `gate fleet`: the [`crate::fleet_scale`] workload (independent
//! 32-user device sessions grouped by built-in scenario) through
//! `xrbench_fleet::run_fleet` at 2,048 / 16,384 / 65,536 users, a
//! faulted 2,048-user leg under [`crate::fleet_scale::fault_process`],
//! worker-count byte identity of both, and the process peak RSS (it
//! stays O(workers × groups) because no per-request vector is kept).
//! Bounds: see [`crate::gate`].

use std::process::ExitCode;
use std::time::Instant;

use xrbench_fleet::{run_fleet, FleetReport, FleetRunConfig, FleetSpec};

use super::{json_bound, json_object, json_rows, Gate, Kind};
use crate::fleet_scale::{
    faulted_fleet, fleet, provider, FAULTED_USERS, GATED_USERS, USERS_PER_SESSION,
};

/// The committed baseline this leg gates against and blesses.
const FILE: &str = "BENCH_PR4.json";
/// The 65,536-user throughput floor (ev/s).
const FLOOR: &str = "floor_events_per_sec_65536";
/// The process peak-RSS cap (MiB).
const MAX_RSS: &str = "max_rss_mib";
/// The faulted leg's pinned drop totals.
const PREEMPTED: &str = "fault_drops_preempted_2048";
const DEVICE_LOST: &str = "fault_drops_device_lost_2048";
/// Every committed field this leg reads (checked against the
/// committed files by the `gate` tests).
#[cfg(test)]
pub(crate) const READS: &[(&str, &str)] = &[
    (FILE, FLOOR),
    (FILE, MAX_RSS),
    (FILE, PREEMPTED),
    (FILE, DEVICE_LOST),
];

/// Fleet sizes measured; the last is gated.
const USER_COUNTS: [u32; 3] = [2_048, 16_384, GATED_USERS];
/// Sessions the gated fleet must cover.
const GATED_SESSIONS: f64 = 2_048.0;
/// Fraction of the measured throughput proposed as the floor when
/// blessing: loose enough for CI runners several times slower.
const BLESS_FRACTION: f64 = 0.10;
/// The blessed RSS cap proposal: this many times the measured peak,
/// but never under [`RSS_BLESS_MIN_MIB`] (allocator jitter).
const RSS_BLESS_FACTOR: f64 = 4.0;
const RSS_BLESS_MIN_MIB: f64 = 256.0;

/// Peak resident set size of this process in MiB (Linux `VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One timed run of `spec` on `workers` workers.
fn timed_run(spec: &FleetSpec, workers: usize) -> (FleetReport, f64) {
    let config = FleetRunConfig {
        workers,
        ..FleetRunConfig::default()
    };
    let start = Instant::now();
    let report = run_fleet(spec, &provider(), &config);
    (report, start.elapsed().as_secs_f64())
}

/// Whether `spec`'s report at 2 and 8 workers matches `one_worker`.
fn worker_invariant(spec: &FleetSpec, one_worker: &FleetReport) -> bool {
    let json = one_worker.to_json();
    [2, 8]
        .iter()
        .all(|&w| timed_run(spec, w).0.to_json() == json)
}

/// Runs the leg.
pub fn run() -> ExitCode {
    let mut gate = Gate::new("fleet", FILE);
    let default_workers = FleetRunConfig::default().workers;

    let small = fleet(USER_COUNTS[0]);
    let small_identical = worker_invariant(&small, &timed_run(&small, 1).0);
    let name = format!("{}-user report identical at 1/2/8 workers", USER_COUNTS[0]);
    gate.holds(name, small_identical);

    // The fault timelines are seed-derived, so the faulted report is as
    // worker-invariant as the fault-free one and its drop totals are
    // machine-independent constants.
    let faulted_spec = faulted_fleet(FAULTED_USERS);
    let faulted = timed_run(&faulted_spec, 1).0;
    let name = format!("faulted {FAULTED_USERS}-user report identical at 1/2/8 workers");
    gate.holds(name, worker_invariant(&faulted_spec, &faulted));
    let (preempted, device_lost) = (faulted.drops.preempted, faulted.drops.device_lost);
    gate.note(&format!(
        "faulted {FAULTED_USERS:>6} users | {:>5} sessions | drops: {preempted} preempted, \
         {device_lost} device-lost",
        faulted.num_sessions
    ));
    for (field, reason, drops) in [
        (PREEMPTED, "Preempted", preempted),
        (DEVICE_LOST, "DeviceLost", device_lost),
    ] {
        let drops = drops as f64;
        let name = format!("faulted {reason} drops are nonzero");
        gate.check(Kind::AtLeast, name, Ok(1.0), drops, "");
        let what = format!("faulted {reason} drops");
        let _pinned = gate.committed(Kind::Exact, field, &what, drops, drops, "");
    }

    // Context sizes: one default-worker run each.
    let mut rows = Vec::new();
    for &users in &USER_COUNTS[..USER_COUNTS.len() - 1] {
        let (r, elapsed) = timed_run(&fleet(users), default_workers);
        rows.push((users, r.num_sessions, r.events, r.events as f64 / elapsed));
    }

    // The gated size: 1- and 8-worker runs must match; the best of
    // those and a default-worker run is the measured throughput.
    let gated_spec = fleet(GATED_USERS);
    let runs = [1, 8, default_workers].map(|w| timed_run(&gated_spec, w));
    let name = format!("{GATED_USERS}-user report identical at 1 and 8 workers");
    gate.holds(name, runs[0].0.to_json() == runs[1].0.to_json());
    let gated = &runs[2].0;
    let gated_eps = runs
        .iter()
        .map(|(r, t)| r.events as f64 / t)
        .fold(0.0, f64::max);
    let users = gated.num_users as f64;
    gate.check(
        Kind::AtLeast,
        "gated fleet users",
        Ok(f64::from(GATED_USERS)),
        users,
        "",
    );
    let sessions = gated.num_sessions as f64;
    gate.check(
        Kind::AtLeast,
        "gated fleet sessions",
        Ok(GATED_SESSIONS),
        sessions,
        "",
    );
    rows.push((GATED_USERS, gated.num_sessions, gated.events, gated_eps));

    let floor = gate.committed(
        Kind::AtLeast,
        FLOOR,
        &format!("{GATED_USERS}-user throughput"),
        gated_eps,
        gated_eps * BLESS_FRACTION,
        " ev/s",
    );
    // Peak RSS covers every run above: the process's worst moment.
    let rss = peak_rss_mib().unwrap_or(f64::NAN);
    let rss_cap = gate.committed(
        Kind::AtMost,
        MAX_RSS,
        "peak RSS",
        rss,
        (rss * RSS_BLESS_FACTOR).max(RSS_BLESS_MIN_MIB),
        " MiB",
    );

    let mut table =
        String::from("| users | sessions | events | events/sec |\n|---:|---:|---:|---:|\n");
    let mut fleets = Vec::new();
    for (users, sessions, events, eps) in &rows {
        gate.note(&format!(
            "{users:>6} users | {sessions:>5} sessions | {events:>9} events | {eps:>12.0} ev/s"
        ));
        table.push_str(&format!("| {users} | {sessions} | {events} | {eps:.0} |\n"));
        fleets.push(format!(
            "{{\"users\": {users}, \"sessions\": {sessions}, \"events\": {events}, \
             \"events_per_sec\": {eps:.0}}}"
        ));
    }
    let mut fields = vec![
        ("bench", "\"fleet_scale\"".into()),
        ("users_per_session", USERS_PER_SESSION.to_string()),
        ("groups", gated.num_groups.to_string()),
        ("scheduler", "\"latency-greedy\"".into()),
        ("fleets", json_rows(&fleets)),
        (PREEMPTED, preempted.to_string()),
        (DEVICE_LOST, device_lost.to_string()),
    ];
    if rss.is_finite() {
        fields.push(("peak_rss_mib", format!("{rss:.0}")));
    }
    fields.push((MAX_RSS, json_bound(&rss_cap)));
    fields.push((FLOOR, json_bound(&floor)));
    let title = "Fleet gate (65,536-user fleet throughput & memory)";
    gate.finish(&json_object(&fields), title, &table)
}
