//! The committed performance gates, driven by one binary:
//!
//! ```sh
//! cargo run -p xrbench-bench --release --bin gate --locked -- perf
//! cargo run -p xrbench-bench --release --bin gate --locked -- fleet
//! cargo build -p xrbench-cli --release --locked   # the shard leg drives it
//! cargo run -p xrbench-bench --release --bin gate --locked -- shard
//! ```
//!
//! Each leg runs its own workload and judges the measurements against
//! a list of [`Check`]s. This module owns what the legs share: how a
//! committed baseline is read ([`Baseline`]), how a bound is blessed
//! ([`bless`]), where the measured report lands ([`Gate::finish`]) and
//! how a verdict is printed and turned into the exit code.
//!
//! Every bound the gates enforce, in one place. "Committed" bounds are
//! read from the repo-root baseline file named in the second column;
//! the rest are constants of the leg.
//!
//! | leg | baseline | check | kind | bound |
//! |---|---|---|---|---|
//! | `perf` | `BENCH_PR8.json` | 1024-user session throughput | at least | committed `floor_events_per_sec_1024` |
//! | `perf` | `BENCH_PR3.json` | that committed floor | at least | 3× `BENCH_PR3.json`'s `floor_events_per_sec_1024` |
//! | `perf` | — | 1024-user speedup over the reference loop | at least | 5× |
//! | `perf` | — | 256-user `SlackAwareEdf` speedup over the reference loop | at least | 5× |
//! | `fleet` | — | 2,048-user report at 2 and 8 workers vs 1 worker | holds | byte-identical |
//! | `fleet` | — | faulted 2,048-user report at 2 and 8 workers vs 1 worker | holds | byte-identical |
//! | `fleet` | — | faulted `Preempted` and `DeviceLost` drops | at least | 1 each |
//! | `fleet` | `BENCH_PR4.json` | faulted drops | exact | committed `fault_drops_preempted_2048`, `fault_drops_device_lost_2048` |
//! | `fleet` | — | 65,536-user report at 8 workers vs 1 worker | holds | byte-identical |
//! | `fleet` | — | gated fleet size | at least | 65,536 users, 2,048 sessions |
//! | `fleet` | `BENCH_PR4.json` | 65,536-user throughput | at least | committed `floor_events_per_sec_65536` |
//! | `fleet` | `BENCH_PR4.json` | process peak RSS | at most | committed `max_rss_mib` |
//! | `shard` | — | 8-process report vs single-process report | holds | byte-identical |
//! | `shard` | — | gated fleet size | at least | 1,048,576 users |
//! | `shard` | `BENCH_PR9.json` | 8-process throughput | at least | committed `floor_events_per_sec_1048576` |
//! | `shard` | `BENCH_PR9.json` | standalone shard child peak RSS | at most | committed `max_shard_rss_mib` |
//!
//! A committed bound that is missing or not a number fails its check.
//! Throughput is events (arrivals plus completions) per wall-clock
//! second; the floors are deliberately loose absolute bounds, the
//! ratios hold on any machine, and the exact counts are seed-derived.
//!
//! Every run writes its measurements to `target/<baseline>` (the CI
//! artifact) and prints them to stdout; each check prints one stderr
//! line, `FAIL — …` naming the bound or the measured-vs-bound delta,
//! and a row of the `$GITHUB_STEP_SUMMARY` table. Any failed check
//! makes the exit code 1.
//!
//! With `XRBENCH_BLESS=1` the leg also rewrites its repo-root baseline
//! from the measurements, under the one rule in [`bless`]: a floor only
//! rises and a cap only falls. A run with a failed check blesses
//! nothing. The shard leg finds the `xrbench` binary next to its own
//! or at `$XRBENCH_BIN`.

use std::path::PathBuf;
use std::process::ExitCode;

use serde_json::Value;

pub mod fleet;
pub mod perf;
pub mod shard;

/// How a [`Check`] compares its measurement with its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Passes when measured ≥ bound: floors, ratios, sizes.
    AtLeast,
    /// Passes when measured ≤ bound: memory caps.
    AtMost,
    /// Passes when measured == bound: seed-derived counts.
    Exact,
    /// Passes when a property holds (measured 1, bound 1): byte identity.
    Holds,
}

/// One gated bound and the measurement judged against it. A missing
/// bound (`Err` says why) or a NaN measurement fails.
#[derive(Debug)]
pub struct Check {
    name: String,
    kind: Kind,
    bound: Result<f64, String>,
    measured: f64,
    unit: &'static str,
}

impl Check {
    /// A check named `name`; `unit` suffixes bound and measurement,
    /// e.g. `" ev/s"` or `"x"`.
    pub fn new(
        kind: Kind,
        name: impl Into<String>,
        bound: Result<f64, String>,
        measured: f64,
        unit: &'static str,
    ) -> Self {
        let name = name.into();
        Self {
            name,
            kind,
            bound,
            measured,
            unit,
        }
    }

    /// The verdict.
    pub fn passed(&self) -> bool {
        match (self.kind, &self.bound) {
            (_, Err(_)) => false,
            (Kind::AtLeast, Ok(bound)) => self.measured >= *bound,
            (Kind::AtMost, Ok(bound)) => self.measured <= *bound,
            (Kind::Exact | Kind::Holds, Ok(bound)) => self.measured == *bound,
        }
    }

    /// (bound, measured, delta) as printed; delta only for floors and caps.
    fn columns(&self) -> (String, String, Option<String>) {
        let quantity = |v: f64| format!("{}{}", number(v), self.unit);
        let bound = self
            .bound
            .as_ref()
            .map_or("missing".into(), |b| quantity(*b));
        let delta = match (self.kind, &self.bound) {
            (Kind::AtLeast | Kind::AtMost, Ok(b)) => {
                Some(format!("{:+.1}%", (self.measured / b - 1.0) * 100.0))
            }
            _ => None,
        };
        (bound, quantity(self.measured), delta)
    }

    /// The stderr line: `FAIL — ` when the check fails, its name, and
    /// the measured-vs-bound detail.
    pub fn line(&self) -> String {
        let (bound, measured, delta) = self.columns();
        let detail = match (self.kind, &self.bound, delta) {
            (_, Err(why), _) => why.clone(),
            (Kind::Holds, ..) if self.passed() => "holds".into(),
            (Kind::Holds, ..) => "does not hold".into(),
            (_, _, Some(delta)) => {
                format!("measured {measured} vs bound {bound} (measured-vs-bound: {delta})")
            }
            _ => format!("measured {measured} vs committed {bound}"),
        };
        let verdict = if self.passed() { "" } else { "FAIL — " };
        format!("{verdict}{}: {detail}", self.name)
    }

    /// The step-summary row: `| check | bound | measured | delta | verdict |`.
    pub fn row(&self) -> String {
        let (mut bound, mut measured, delta) = self.columns();
        if self.kind == Kind::Holds {
            (bound, measured) = ("—".into(), "—".into());
        }
        let delta = delta.unwrap_or_else(|| "—".into());
        let verdict = if self.passed() {
            "✅ pass"
        } else {
            "❌ FAIL"
        };
        format!(
            "| {} | {bound} | {measured} | {delta} | {verdict} |",
            self.name
        )
    }
}

/// Renders a gate number: whole or large values without decimals,
/// small fractional ones with two, NaN as `n/a`.
fn number(v: f64) -> String {
    if v.is_nan() {
        "n/a".into()
    } else if v.fract() == 0.0 || v.abs() >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

/// The bless rule: the bound a check of `kind` gets when re-blessed
/// from `proposed`. A floor only rises and a cap only falls, so
/// blessing can tighten a gate but never loosen it; an exact pin takes
/// the proposal outright, as does a bound with nothing committed yet.
pub fn bless(kind: Kind, committed: Option<f64>, proposed: f64) -> f64 {
    match (kind, committed) {
        (Kind::AtLeast, Some(committed)) => committed.max(proposed),
        (Kind::AtMost, Some(committed)) => committed.min(proposed),
        _ => proposed,
    }
}

/// The repository root: gate paths never depend on the working
/// directory.
fn repo_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// A committed baseline file, parsed once.
#[derive(Debug)]
pub struct Baseline {
    file: &'static str,
    value: Option<Value>,
}

impl Baseline {
    /// Reads the repo-root `file`.
    pub fn committed(file: &'static str) -> Self {
        let text = std::fs::read_to_string(repo_root().join(file)).unwrap_or_default();
        Self::parse(file, &text)
    }

    /// A baseline parsed from `text`, reported as `file`.
    pub fn parse(file: &'static str, text: &str) -> Self {
        let value = serde_json::from_str(text).ok();
        Self { file, value }
    }

    /// The numeric top-level `field`.
    ///
    /// # Errors
    ///
    /// The message a check fails with when the file is missing or
    /// malformed, or the field is absent or not a number.
    pub fn number(&self, field: &str) -> Result<f64, String> {
        let value = self.value.as_ref().and_then(|v| v.get(field).as_f64());
        value.ok_or_else(|| {
            format!(
                "cannot read {field} from committed {} (XRBENCH_BLESS=1 establishes a baseline)",
                self.file
            )
        })
    }
}

/// One leg's run: its committed baseline, whether it blesses, and the
/// checks judged so far.
#[derive(Debug)]
pub struct Gate {
    leg: &'static str,
    baseline: Baseline,
    bless: bool,
    checks: Vec<Check>,
}

impl Gate {
    /// Starts leg `leg` against the repo-root baseline `file`; blesses
    /// when `XRBENCH_BLESS=1`.
    pub fn new(leg: &'static str, file: &'static str) -> Self {
        let bless = std::env::var("XRBENCH_BLESS").is_ok_and(|v| v == "1");
        let baseline = Baseline::committed(file);
        Self {
            leg,
            baseline,
            bless,
            checks: Vec::new(),
        }
    }

    /// Prints a progress line under the leg's name.
    pub fn note(&self, message: &str) {
        eprintln!("gate {}: {message}", self.leg);
    }

    /// Prints a FAIL line and exits 1, for a leg that cannot go on.
    pub fn abort(&self, message: &str) -> ! {
        self.note(&format!("FAIL — {message}"));
        std::process::exit(1);
    }

    /// Judges a check against a bound that is not the leg's baseline.
    pub fn check(
        &mut self,
        kind: Kind,
        name: impl Into<String>,
        bound: Result<f64, String>,
        measured: f64,
        unit: &'static str,
    ) {
        self.checks
            .push(Check::new(kind, name, bound, measured, unit));
    }

    /// Judges a property.
    pub fn holds(&mut self, name: impl Into<String>, holds: bool) {
        self.check(Kind::Holds, name, Ok(1.0), f64::from(u8::from(holds)), "");
    }

    /// Judges `what` against the committed `field` — when blessing,
    /// against [`bless`] of it and `proposed` — and returns that bound
    /// for the report.
    pub fn committed(
        &mut self,
        kind: Kind,
        field: &str,
        what: &str,
        measured: f64,
        proposed: f64,
        unit: &'static str,
    ) -> Result<f64, String> {
        let committed = self.baseline.number(field);
        let bound = if self.bless {
            Ok(bless(kind, committed.ok(), proposed))
        } else {
            committed
        };
        let name = format!("{what} ({field})");
        self.checks
            .push(Check::new(kind, name, bound.clone(), measured, unit));
        bound
    }

    /// Writes `report` (the measurements, laid out like the committed
    /// baseline) to `target/<baseline>` and stdout, prints every
    /// check's line, appends `title`, the leg's `table` and the check
    /// rows to the step summary, and blesses the repo-root baseline if
    /// asked to and every check passed.
    pub fn finish(self, report: &str, title: &str, table: &str) -> ExitCode {
        let file = self.baseline.file;
        let measured_out = repo_root().join("target").join(file);
        let _ = std::fs::create_dir_all(repo_root().join("target"));
        std::fs::write(&measured_out, report)
            .unwrap_or_else(|e| panic!("write {}: {e}", measured_out.display()));
        println!("{report}");

        let mut summary = format!(
            "## {title}\n\n{table}\n| gate | bound | measured | delta | verdict |\n\
             |---|---:|---:|---:|---|\n"
        );
        for check in &self.checks {
            self.note(&check.line());
            summary.push_str(&check.row());
            summary.push('\n');
        }
        crate::ci::append_step_summary(&summary);

        let failed = self.checks.iter().filter(|c| !c.passed()).count();
        if failed > 0 {
            self.note(&format!("FAIL ({failed} of {} checks)", self.checks.len()));
            return ExitCode::FAILURE;
        }
        if self.bless {
            std::fs::write(repo_root().join(file), report)
                .unwrap_or_else(|e| panic!("write committed {file}: {e}"));
            self.note(&format!("blessed {file}"));
        }
        self.note(&format!("PASS ({} checks)", self.checks.len()));
        ExitCode::SUCCESS
    }
}

/// Lays `fields` (each a key and its rendered JSON value) out as the
/// baseline files are: one field per line.
pub fn json_object(fields: &[(&str, String)]) -> String {
    let lines: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

/// A JSON array value for [`json_object`], one row per line.
pub fn json_rows(rows: &[String]) -> String {
    format!("[\n    {}\n  ]", rows.join(",\n    "))
}

/// A bound as a JSON number rounded to an integer, `null` if missing.
pub fn json_bound(bound: &Result<f64, String>) -> String {
    bound.as_ref().map_or("null".into(), |b| format!("{b:.0}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLOOR: f64 = 207_861.0;

    fn at(kind: Kind, measured: f64) -> Check {
        Check::new(kind, "floor_x", Ok(FLOOR), measured, " ev/s")
    }

    #[test]
    fn floors_and_caps_pass_at_the_bound_and_fail_one_ulp_past_it() {
        for (kind, worse) in [
            (Kind::AtLeast, FLOOR.next_down()),
            (Kind::AtMost, FLOOR.next_up()),
        ] {
            assert!(at(kind, FLOOR).passed(), "{kind:?}");
            let failed = at(kind, worse);
            assert!(!failed.passed(), "{kind:?}");
            assert!(failed.line().starts_with("FAIL — floor_x: measured "));
            assert!(failed.row().ends_with("| ❌ FAIL |"));
            // An unavailable measurement (NaN) fails too.
            assert!(!at(kind, f64::NAN).passed());
        }
        let passed = at(Kind::AtLeast, FLOOR * 2.0);
        assert_eq!(
            passed.line(),
            "floor_x: measured 415722 ev/s vs bound 207861 ev/s (measured-vs-bound: +100.0%)"
        );
        assert_eq!(
            passed.row(),
            "| floor_x | 207861 ev/s | 415722 ev/s | +100.0% | ✅ pass |"
        );
    }

    #[test]
    fn exact_checks_pin_fault_drop_counts() {
        let field = "fault_drops_preempted_2048";
        let committed = Baseline::parse("B.json", r#"{"fault_drops_preempted_2048": 237}"#);
        let pinned =
            |measured| Check::new(Kind::Exact, field, committed.number(field), measured, "");
        assert!(pinned(237.0).passed());
        for off in [236.0, 238.0] {
            assert_eq!(
                pinned(off).line(),
                format!("FAIL — {field}: measured {off} vs committed 237")
            );
        }
        let broken = Check::new(Kind::Holds, "identity", Ok(1.0), 0.0, "");
        assert_eq!(broken.line(), "FAIL — identity: does not hold");
    }

    #[test]
    fn bless_is_monotone() {
        for proposed in [0.0, FLOOR / 2.0, FLOOR, FLOOR * 3.0, f64::NAN] {
            let floor = bless(Kind::AtLeast, Some(FLOOR), proposed);
            assert!(
                floor >= FLOOR && (proposed.is_nan() || floor >= proposed),
                "floor fell to {floor}"
            );
            let cap = bless(Kind::AtMost, Some(256.0), proposed);
            assert!(
                cap <= 256.0 && (proposed.is_nan() || cap <= proposed),
                "cap rose to {cap}"
            );
        }
        assert_eq!(bless(Kind::AtLeast, None, 5.0), 5.0);
        assert_eq!(bless(Kind::Exact, Some(237.0), 240.0), 240.0);
    }

    #[test]
    fn missing_or_non_numeric_bound_fails() {
        let baseline = Baseline::parse("B.json", r#"{"max_rss_mib": "256"}"#);
        for field in ["max_rss_mib", "floor_events_per_sec_65536"] {
            let check = Check::new(Kind::AtMost, field, baseline.number(field), 11.0, " MiB");
            assert!(!check.passed());
            assert!(check
                .line()
                .starts_with(&format!("FAIL — {field}: cannot read {field}")));
        }
        assert!(Baseline::parse("B.json", "{")
            .number("max_rss_mib")
            .is_err());
    }

    #[test]
    fn every_committed_bound_the_legs_read_is_numeric() {
        let reads = [perf::READS, fleet::READS, shard::READS].concat();
        for (file, field) in &reads {
            let value = Baseline::committed(file).number(field);
            assert!(value.is_ok_and(|v| v > 0.0), "{file}: {field}");
        }
        let mut files: Vec<&str> = reads.iter().map(|(file, _)| *file).collect();
        files.dedup();
        assert_eq!(
            files,
            [
                "BENCH_PR8.json",
                "BENCH_PR3.json",
                "BENCH_PR4.json",
                "BENCH_PR9.json"
            ]
        );
    }
}
