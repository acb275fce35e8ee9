//! # xrbench-bench
//!
//! Figure/table regeneration binaries and Criterion benchmarks for the
//! XRBench reproduction.
//!
//! Binaries (run with `cargo run -p xrbench-bench --release --bin <name>`):
//!
//! * `figure5` — score breakdowns for accelerators A–M × {4K, 8K} PEs
//!   across all usage scenarios (Figure 5 a–h), plus the §4.2.1/§4.4
//!   claim checks.
//! * `figure6` — the AR Gaming timeline deep dive on accelerator J
//!   (Figure 6) demonstrating why utilization is the wrong metric.
//! * `figure7` — the ES→GE cascading-probability sweep on accelerators
//!   B and J (Figure 7).
//! * `figure8` — the real-time score sigmoid for k ∈ {0, 1, 15, 50}
//!   (appendix Figure 8).
//! * `tables` — Tables 1/7 (models), 2 (scenarios), 3 (input sources),
//!   and 5 (accelerators) as the implementation sees them.
//! * `gate` — the committed performance gates, one leg per argument:
//!   `gate perf` (session throughput against the reference loop),
//!   `gate fleet` (a 65,536-user fleet: worker-count byte identity,
//!   pinned fault drops, throughput and peak RSS) and `gate shard` (a
//!   1,048,576-user fleet split across 8 `xrbench` child processes).
//!   Each writes `target/BENCH_PR{8,4,9}.json` and exits non-zero when
//!   a bound fails; the bounds are listed in [`gate`].
//!
//! Criterion benches (`cargo bench -p xrbench-bench`):
//!
//! * `costmodel` — analytical-model evaluation throughput.
//! * `runtime` — end-to-end simulation throughput per scenario.
//! * `figures` — full figure-regeneration timings.
//! * `ablations` — scheduler, bandwidth, and drop-policy ablations
//!   called out in DESIGN.md.
//! * `session_scale` — multi-user session throughput (the interactive
//!   counterpart of `gate perf`).
//! * `fleet_scale` — fleet execution throughput (the interactive
//!   counterpart of `gate fleet`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Formats a score table row of four unit scores plus overall.
pub fn fmt_scores(rt: f64, en: f64, qoe: f64, overall: f64) -> String {
    format!("rt={rt:5.2} en={en:5.2} qoe={qoe:5.2} overall={overall:5.2}")
}

pub mod gate;

/// CI affordances shared by the gate legs.
pub mod ci {
    use std::io::Write as _;

    /// Appends a markdown fragment to the GitHub Actions job summary
    /// (the file named by `$GITHUB_STEP_SUMMARY`), so gate verdicts
    /// and their measured-vs-floor deltas are readable straight from
    /// the run page. A silent no-op outside Actions or when the file
    /// cannot be written — the gate's stderr output remains the
    /// source of truth.
    pub fn append_step_summary(markdown: &str) {
        let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else {
            return;
        };
        if path.is_empty() {
            return;
        }
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&path)
        {
            let _ = writeln!(f, "{markdown}");
        }
    }
}

/// The PR-3 session-scale workload, shared by `gate perf` and the
/// `session_scale` Criterion bench so interactive
/// profiling measures exactly what the gate enforces.
pub mod session_scale {
    use xrbench_sim::UniformProvider;
    use xrbench_workload::{ScenarioCatalog, ScenarioSpec, SessionSpec};

    /// Engines in the shared system: enough for real dispatch
    /// pressure without the run degenerating into pure drops.
    pub const ENGINES: usize = 16;
    /// Uniform per-inference latency (seconds).
    pub const LATENCY_S: f64 = 0.001;
    /// Uniform per-inference energy (joules).
    pub const ENERGY_J: f64 = 0.001;
    /// Per-user join stagger (seconds).
    pub const STAGGER_S: f64 = 0.002;

    /// The evaluated system for the session-scale workload.
    pub fn provider() -> UniformProvider {
        UniformProvider::new(ENGINES, LATENCY_S, ENERGY_J)
    }

    /// `users` concurrent tenants cycling through all built-in
    /// scenarios, joining [`STAGGER_S`] apart.
    pub fn mixed_session(users: u32) -> SessionSpec {
        let specs: Vec<ScenarioSpec> = ScenarioCatalog::builtin().iter().cloned().collect();
        SessionSpec::mixed(format!("scale-{users}"), &specs, users, STAGGER_S)
    }
}

/// The PR-4 fleet-scale workload, shared by `gate fleet`, `gate shard`
/// and the `fleet_scale` Criterion bench so interactive
/// profiling measures exactly what the gate enforces: independent
/// 32-user devices, grouped by built-in scenario, on 16-engine
/// systems.
pub mod fleet_scale {
    use xrbench_fleet::FleetSpec;
    use xrbench_sim::{FaultProcess, ThrottleSpec, UniformProvider};
    use xrbench_workload::{ScenarioCatalog, SessionSpec};

    /// Engines per device (same system as [`crate::session_scale`]).
    pub const ENGINES: usize = 16;
    /// Uniform per-inference latency (seconds).
    pub const LATENCY_S: f64 = 0.001;
    /// Uniform per-inference energy (joules).
    pub const ENERGY_J: f64 = 0.001;
    /// Concurrent users per device session.
    pub const USERS_PER_SESSION: u32 = 32;
    /// Per-user join stagger within a device session (seconds).
    pub const STAGGER_S: f64 = 0.002;
    /// The gated fleet size: 65,536 users across 2,048 sessions.
    pub const GATED_USERS: u32 = 65_536;
    /// The distributed-sharding gate's fleet size: 1,048,576 users
    /// across 32,768 sessions (`gate shard`, PR 9).
    pub const SHARD_GATED_USERS: u32 = 1_048_576;
    /// The fault-injection leg's fleet size (kept small: the leg pins
    /// exact drop-reason totals, not throughput).
    pub const FAULTED_USERS: u32 = 2_048;

    /// The evaluated per-device system.
    pub fn provider() -> UniformProvider {
        UniformProvider::new(ENGINES, LATENCY_S, ENERGY_J)
    }

    /// The availability process applied to every device group in the
    /// gate's fault-injection leg: moderate churn plus preemption and
    /// a thermal-throttle wave, intense enough that both `Preempted`
    /// and `DeviceLost` drop reasons are guaranteed nonzero at
    /// [`FAULTED_USERS`] scale.
    pub fn fault_process() -> FaultProcess {
        FaultProcess {
            failure_rate_per_s: 0.5,
            mean_downtime_s: 0.05,
            preemption_rate_per_s: 1.0,
            mean_preemption_s: 0.02,
            throttle: Some(ThrottleSpec {
                period_s: 1.0,
                duty: 0.3,
                factor: 0.5,
            }),
        }
    }

    fn build(total_users: u32, faults: Option<FaultProcess>) -> FleetSpec {
        assert!(
            total_users > 0 && total_users.is_multiple_of(USERS_PER_SESSION),
            "fleet size must be a positive multiple of {USERS_PER_SESSION}, got {total_users}"
        );
        let sessions = total_users / USERS_PER_SESSION;
        let catalog = ScenarioCatalog::builtin();
        let n = catalog.iter().count() as u32;
        let label = if faults.is_some() {
            "faulted-fleet"
        } else {
            "fleet"
        };
        let mut fleet = FleetSpec::new(format!("{label}-{total_users}"));
        for (i, spec) in catalog.iter().enumerate() {
            let i = i as u32;
            let replicas = sessions / n + u32::from(i < sessions % n);
            if replicas == 0 {
                continue;
            }
            let session = SessionSpec::uniform(
                format!("{}-device", spec.name),
                spec.clone(),
                USERS_PER_SESSION,
                STAGGER_S,
            );
            fleet = match faults {
                Some(f) => fleet.group_faulted(spec.name.clone(), session, replicas, f),
                None => fleet.group(spec.name.clone(), session, replicas),
            };
        }
        fleet
    }

    /// A fleet of `total_users / 32` independent 32-user device
    /// sessions, split into one device group per built-in scenario
    /// (sessions distributed as evenly as group order allows).
    ///
    /// # Panics
    ///
    /// Panics if `total_users` is not a positive multiple of
    /// [`USERS_PER_SESSION`].
    pub fn fleet(total_users: u32) -> FleetSpec {
        build(total_users, None)
    }

    /// [`fleet`] with [`fault_process`] applied to every device
    /// group, for the gate's fault-injection leg.
    ///
    /// # Panics
    ///
    /// Panics if `total_users` is not a positive multiple of
    /// [`USERS_PER_SESSION`].
    pub fn faulted_fleet(total_users: u32) -> FleetSpec {
        build(total_users, Some(fault_process()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_workload_hits_the_gated_size() {
        let f = fleet_scale::fleet(fleet_scale::GATED_USERS);
        assert_eq!(f.total_users(), 65_536);
        assert_eq!(f.total_sessions(), 2_048);
        assert_eq!(f.num_groups(), 7);
    }

    #[test]
    fn faulted_fleet_applies_the_fault_process_to_every_group() {
        let f = fleet_scale::faulted_fleet(fleet_scale::FAULTED_USERS);
        assert_eq!(f.total_users(), 2_048);
        assert!(f
            .groups
            .iter()
            .all(|g| g.faults == Some(fleet_scale::fault_process())));
    }

    #[test]
    fn small_fleets_skip_empty_groups() {
        let f = fleet_scale::fleet(fleet_scale::USERS_PER_SESSION * 3);
        assert_eq!(f.total_sessions(), 3);
        assert_eq!(f.num_groups(), 3);
    }

    #[test]
    fn fmt_scores_is_stable() {
        assert_eq!(
            fmt_scores(1.0, 0.5, 0.25, 0.125),
            "rt= 1.00 en= 0.50 qoe= 0.25 overall= 0.12"
        );
    }
}
