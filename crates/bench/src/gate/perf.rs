//! `gate perf`: event throughput of `Simulator::run_session` on the
//! [`crate::session_scale`] workload at 1 / 32 / 256 / 1024 users under
//! `LatencyGreedy`, plus 256 users under `SlackAwareEdf`, each against
//! the reference loop (`Simulator::run_session_reference`) measured in
//! the same run. Bounds: see [`crate::gate`].

use std::process::ExitCode;
use std::time::Instant;

use xrbench_sim::{LatencyGreedy, Scheduler, SimConfig, Simulator, SlackAwareEdf};

use super::{json_bound, json_object, json_rows, Baseline, Gate, Kind};
use crate::session_scale::{mixed_session, provider, ENGINES, LATENCY_S, STAGGER_S};

/// The committed baseline this leg gates against and blesses.
const FILE: &str = "BENCH_PR8.json";
/// The PR 3 heap-engine baseline the committed floor must triple.
const PR3_FILE: &str = "BENCH_PR3.json";
/// The 1024-user throughput floor (ev/s), in both files.
const FLOOR: &str = "floor_events_per_sec_1024";
/// Every committed field this leg reads (checked against the
/// committed files by the `gate` tests).
#[cfg(test)]
pub(crate) const READS: &[(&str, &str)] = &[(FILE, FLOOR), (PR3_FILE, FLOOR)];

/// Session sizes measured; the last is gated.
const USER_COUNTS: [u32; 4] = [1, 32, 256, 1024];
/// Session size of the `SlackAwareEdf` row.
const SLACK_USERS: u32 = 256;
/// Both same-run bounds: the engine vs the reference loop.
const SPEEDUP_FLOOR: f64 = 5.0;
/// The committed floor must be at least this multiple of PR 3's.
const PR3_MULTIPLE: f64 = 3.0;
/// Fraction of the measured 1024-user throughput proposed as the floor
/// when blessing: loose enough for CI runners several times slower.
const BLESS_FRACTION: f64 = 0.10;

struct Row {
    users: u32,
    scheduler: &'static str,
    events: u64,
    events_per_sec: f64,
    reference_per_sec: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.events_per_sec / self.reference_per_sec
    }

    fn json(&self) -> String {
        format!(
            "{{\"users\": {}, \"events\": {}, \"events_per_sec\": {:.0}, \
             \"naive_events_per_sec\": {:.0}, \"speedup\": {:.2}}}",
            self.users,
            self.events,
            self.events_per_sec,
            self.reference_per_sec,
            self.speedup()
        )
    }
}

/// Runs `f` `reps` times and returns (events of one run, best
/// events/sec), where `f` returns the run's completions.
fn measure(reps: u32, arrivals: u64, mut f: impl FnMut() -> u64) -> (u64, f64) {
    let mut best = f64::INFINITY;
    let mut events = 0;
    for _ in 0..reps {
        let start = Instant::now();
        events = arrivals + f();
        best = best.min(start.elapsed().as_secs_f64() / events as f64);
    }
    (events, 1.0 / best)
}

fn measure_session(gate: &Gate, users: u32, scheduler: &dyn Fn() -> Box<dyn Scheduler>) -> Row {
    let provider = provider();
    let config = SimConfig::default();
    let sim = Simulator::new(config);
    let session = mixed_session(users);
    let arrivals = session.generate(config.seed, config.duration_s).len() as u64;
    // More repetitions where runs are cheap, fewer at scale.
    let (reps, reference_reps) = if users >= 256 { (2, 1) } else { (5, 2) };
    let (events, events_per_sec) = measure(reps, arrivals, || {
        let r = sim.run_session(&session, &provider, scheduler().as_mut());
        r.per_user.iter().map(|(_, u)| u.records.len() as u64).sum()
    });
    let (_, reference_per_sec) = measure(reference_reps, arrivals, || {
        let r = sim.run_session_reference(&session, &provider, scheduler().as_mut());
        r.per_user.iter().map(|(_, u)| u.records.len() as u64).sum()
    });
    let row = Row {
        users,
        scheduler: scheduler().name(),
        events,
        events_per_sec,
        reference_per_sec,
    };
    gate.note(&format!(
        "{users:>5} users | {events:>8} events | {events_per_sec:>12.0} ev/s | reference \
         {reference_per_sec:>12.0} ev/s | speedup {:.1}x ({})",
        row.speedup(),
        row.scheduler
    ));
    row
}

/// Runs the leg.
pub fn run() -> ExitCode {
    let mut gate = Gate::new("perf", FILE);
    let rows: Vec<Row> = USER_COUNTS
        .iter()
        .map(|&users| measure_session(&gate, users, &|| Box::new(LatencyGreedy::new())))
        .collect();
    let slack = measure_session(&gate, SLACK_USERS, &|| Box::new(SlackAwareEdf::new()));
    let gated = rows.last().expect("measured at least one session");

    let pr3_floor = Baseline::committed(PR3_FILE).number(FLOOR);
    let floor = gate.committed(
        Kind::AtLeast,
        FLOOR,
        "1024-user throughput",
        gated.events_per_sec,
        gated.events_per_sec * BLESS_FRACTION,
        " ev/s",
    );
    gate.check(
        Kind::AtLeast,
        format!("{FILE} {FLOOR} vs {PR3_MULTIPLE}x {PR3_FILE}'s"),
        pr3_floor.clone().map(|f| f * PR3_MULTIPLE),
        floor.clone().unwrap_or(f64::NAN),
        " ev/s",
    );
    for row in [gated, &slack] {
        let name = format!(
            "{}-user {} speedup over the reference loop",
            row.users, row.scheduler
        );
        gate.check(Kind::AtLeast, name, Ok(SPEEDUP_FLOOR), row.speedup(), "x");
    }

    let report = json_object(&[
        ("bench", "\"session_scale\"".into()),
        ("engine", "\"calendar-queue\"".into()),
        ("pr3_floor_events_per_sec_1024", json_bound(&pr3_floor)),
        ("tentpole_speedup", PR3_MULTIPLE.to_string()),
        ("engines", ENGINES.to_string()),
        ("latency_ms", (LATENCY_S * 1e3).to_string()),
        ("stagger_ms", (STAGGER_S * 1e3).to_string()),
        ("scheduler", "\"latency-greedy\"".into()),
        (
            "sessions",
            json_rows(&rows.iter().map(Row::json).collect::<Vec<_>>()),
        ),
        ("slack_edf", slack.json()),
        (FLOOR, json_bound(&floor)),
    ]);
    let mut table = String::from(
        "| users | scheduler | events | events/sec | reference ev/s | speedup |\n\
         |---:|---|---:|---:|---:|---:|\n",
    );
    for row in rows.iter().chain([&slack]) {
        table.push_str(&format!(
            "| {} | {} | {} | {:.0} | {:.0} | {:.1}x |\n",
            row.users,
            row.scheduler,
            row.events,
            row.events_per_sec,
            row.reference_per_sec,
            row.speedup()
        ));
    }
    gate.finish(&report, "Perf gate (1024-user session throughput)", &table)
}
