//! The `fleet-sharded-65k` workload: 65,536 users in 2,048 32-user
//! device sessions (one group per built-in scenario, every other
//! group under `fleet_scale::fault_process()`), run through the real
//! binary as `xrbench run-fleet DOC --shards 4 --max-procs 2` with one
//! worker per process.
//!
//! It is the only workload that crosses process boundaries: each
//! child parses and analyzes the document, runs its shard through the
//! engine's fold mode and the scoring fold, and encodes a ShardState
//! the coordinator decodes and merges.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use xrbench_bench::fleet_scale::{fault_process, ENERGY_J, ENGINES, LATENCY_S, STAGGER_S};
use xrbench_core::{FleetRun, RunDocument};
use xrbench_fleet::{
    fleet_to_json, merge_fleet_shards, plan_shards, replica_seed, run_fleet_shard, FleetRunConfig,
    FleetSpec, ShardState,
};
use xrbench_sim::{CostProvider, LatencyGreedy, Scheduler, SimConfig, Simulator};
use xrbench_workload::{ScenarioCatalog, SessionSpec};

use crate::measure::{digest_bytes, peak_rss_mib, timed};
use crate::session;
use crate::{clock, load_document, Cost, Counters, Layers, Workload};

const USERS: u32 = 65_536;
const USERS_PER_SESSION: u32 = 32;
const SHARDS: u32 = 4;
const MAX_PROCS: u32 = 2;
/// The shard whose jobs are re-run in process to split the scoring
/// fold from the engine: it spans a fault-free and a faulted group.
const FOLD_SHARD: u32 = 1;
/// Report digest of the default seed.
const PINNED_DIGEST: u64 = 0x93ba_512d_dd59_bea4;

/// A prepared fleet workload.
pub struct Fleet {
    pinned: bool,
    xrbench: PathBuf,
    doc_path: PathBuf,
    run: FleetRun,
    system: Box<dyn CostProvider + Send + Sync>,
    /// The first plain run's report, compared byte for byte with the
    /// in-process run.
    report: Option<String>,
    /// Standalone child wall seconds per shard, over traced runs.
    child_s: Vec<Vec<f64>>,
    /// Peak RSS over plain runs, coordinator and children.
    peak_rss_mib: f64,
}

/// The fleet: 2,048 sessions over the built-in scenarios, faults on
/// odd-numbered groups.
fn fleet_spec() -> FleetSpec {
    let catalog = ScenarioCatalog::builtin();
    let n = catalog.iter().count() as u32;
    let sessions = USERS / USERS_PER_SESSION;
    let mut fleet = FleetSpec::new(format!("bench-fleet-{USERS}"));
    for (i, spec) in catalog.iter().enumerate() {
        let i = i as u32;
        let replicas = sessions / n + u32::from(i < sessions % n);
        let session = SessionSpec::uniform(
            format!("{}-device", spec.name),
            spec.clone(),
            USERS_PER_SESSION,
            STAGGER_S,
        );
        fleet = if i % 2 == 1 {
            fleet.group_faulted(spec.name.clone(), session, replicas, fault_process())
        } else {
            fleet.group(spec.name.clone(), session, replicas)
        };
    }
    fleet
}

/// Reads a `u64` counter at `path` from a report's JSON tree; absent
/// fields (fault drops print only when nonzero) read as zero.
fn report_u64(value: &serde_json::Value, path: &[&str]) -> Result<u64, String> {
    let mut v = value;
    for key in path {
        let serde_json::Value::Object(fields) = v else {
            return Err(format!("report field {path:?} is not in an object"));
        };
        match fields.iter().find(|(k, _)| k == key) {
            Some((_, next)) => v = next,
            None => return Ok(0),
        }
    }
    let n = v
        .as_f64()
        .ok_or(format!("report field {path:?} is not a number"))?;
    Ok(n as u64)
}

/// The exact counters of a fleet report.
fn counters(report: &str) -> Result<Counters, String> {
    let value = serde_json::from_str(report).map_err(|e| format!("unreadable report: {e}"))?;
    let get = |path: &[&str]| report_u64(&value, path);
    Ok(vec![
        ("sessions", get(&["num_sessions"])?),
        ("requests", get(&["total_requests"])?),
        ("events", get(&["events"])?),
        ("drops.superseded", get(&["drops", "superseded"])?),
        ("drops.upstream", get(&["drops", "upstream_dropped"])?),
        ("drops.starved", get(&["drops", "starved"])?),
        ("drops.preempted", get(&["drops", "preempted"])?),
        ("drops.device_lost", get(&["drops", "device_lost"])?),
        ("report_digest", digest_bytes(report.as_bytes())),
    ])
}

/// Runs the binary, returning its standard output.
fn xrbench(bin: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new(bin)
        .args(args)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    if !out.status.success() {
        return Err(format!(
            "`xrbench {}` exited with {}: {}",
            args.join(" "),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("non-UTF-8 output: {e}"))
}

/// Runs the sharded coordinator, returning its standard output and the
/// peak RSS in MiB over the coordinator (its VmHWM, sampled every
/// 10 ms while it runs) and its children (as it reports them).
fn coordinator(bin: &Path, args: &[&str]) -> Result<(String, f64), String> {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    let (mut out, mut err) = (
        child.stdout.take().expect("piped stdout"),
        child.stderr.take().expect("piped stderr"),
    );
    let (status, stdout, stderr, own_peak) = std::thread::scope(|s| {
        let stdout = s.spawn(move || {
            let mut b = String::new();
            out.read_to_string(&mut b).map(|_| b)
        });
        let stderr = s.spawn(move || {
            let mut b = String::new();
            err.read_to_string(&mut b).map(|_| b)
        });
        let mut own_peak = 0.0f64;
        let status = loop {
            // Until the child has exec'd it still shares this process's
            // memory, so only readings under its own name count.
            if let Some((name, mib)) = peak_rss_mib(Some(child.id())) {
                if name == "xrbench" {
                    own_peak = own_peak.max(mib);
                }
            }
            match child.try_wait() {
                Ok(Some(status)) => break Ok(status),
                Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break Err(e);
                }
            }
        };
        let join =
            |h: std::thread::ScopedJoinHandle<'_, _>| h.join().expect("pipe reader panicked");
        (status, join(stdout), join(stderr), own_peak)
    });
    let status = status.map_err(|e| format!("waiting for xrbench: {e}"))?;
    let stderr = stderr.map_err(|e| format!("reading xrbench stderr: {e}"))?;
    if !status.success() {
        return Err(format!(
            "`xrbench {}` exited with {status}: {}",
            args.join(" "),
            stderr.trim()
        ));
    }
    let stdout = stdout.map_err(|e| format!("reading xrbench stdout: {e}"))?;
    let children_peak = stderr
        .lines()
        .find_map(|l| l.strip_prefix("xrbench: max shard-child peak RSS: "))
        .and_then(|v| v.trim_end_matches(" MiB").parse::<f64>().ok())
        .ok_or("the coordinator reported no shard-child peak RSS")?;
    Ok((stdout, own_peak.max(children_peak)))
}

impl Fleet {
    /// Builds the fleet document, writes it, parses and analyzes it as
    /// each child will, and checks the binary is there.
    pub fn setup(
        seed: u64,
        pinned: bool,
        xrbench: &Path,
        work_dir: &Path,
        layers: &mut Layers,
    ) -> Result<Self, String> {
        let text = format!(
            "{{\n  \"kind\": \"fleet\",\n  \"seed\": {seed},\n  \"workers\": 1,\n  \
             \"hardware\": {{ \"uniform\": {{ \"engines\": {ENGINES}, \"latency_s\": {LATENCY_S}, \
             \"energy_j\": {ENERGY_J} }} }},\n  \"fleet\": {}\n}}\n",
            fleet_to_json(&fleet_spec()),
        );
        std::fs::create_dir_all(work_dir)
            .map_err(|e| format!("cannot create {}: {e}", work_dir.display()))?;
        let doc_path = work_dir.join(format!("fleet-{seed}.json"));
        std::fs::write(&doc_path, &text)
            .map_err(|e| format!("cannot write {}: {e}", doc_path.display()))?;
        let doc = load_document(&text, layers)?;
        let RunDocument::Fleet(run) = doc else {
            return Err("not a fleet document".to_string());
        };
        if !xrbench.is_file() {
            return Err(format!("no xrbench binary at {}", xrbench.display()));
        }
        Ok(Self {
            pinned,
            xrbench: xrbench.to_path_buf(),
            doc_path,
            system: run.system.build(),
            run,
            report: None,
            child_s: vec![Vec::new(); SHARDS as usize],
            peak_rss_mib: 0.0,
        })
    }

    fn doc_arg(&self) -> Result<&str, String> {
        self.doc_path
            .to_str()
            .ok_or_else(|| "document path is not UTF-8".to_string())
    }

    /// Times one shard's `run_fleet_shard` against the same sessions
    /// run through the engine's fold mode with a no-op sink; the
    /// difference is the scoring fold and accumulators. The no-op runs
    /// also give the sim-layer split for those sessions.
    fn fold_layers(&self, layers: &mut Layers) -> Result<(), String> {
        let spec = &self.run.fleet;
        let config = FleetRunConfig {
            sim: self.run.params.harness().sim_config(),
            workers: 1,
            recovery: self.run.recovery,
            ..FleetRunConfig::default()
        };
        let (_, shard_s) =
            timed(|| run_fleet_shard(spec, self.system.as_ref(), &config, FOLD_SHARD, SHARDS));
        let plan = plan_shards(spec, SHARDS);
        let jobs: Vec<(u32, u32)> = plan.shards[FOLD_SHARD as usize]
            .iter()
            .flat_map(|p| {
                (p.replica_start..p.replica_start + p.replica_count).map(|r| (p.group, r))
            })
            .collect();
        let base = config.sim;
        let seed = |g, r| replica_seed(base.seed, g, r);
        let (requests, generate_s) = timed(|| {
            jobs.iter()
                .map(|&(g, r)| {
                    let session = &spec.groups[g as usize].session;
                    session.generate(seed(g, r), base.duration_s).len() as u64
                })
                .sum::<u64>()
        });
        let mut total: Option<Counters> = None;
        let (_, run_s) = timed(|| {
            for &(g, r) in &jobs {
                let group = &spec.groups[g as usize];
                let sim = Simulator::new(SimConfig {
                    seed: seed(g, r),
                    duration_s: base.duration_s,
                });
                let mut scheduler = LatencyGreedy::new();
                let mut executed = 0u64;
                let mut sink = |_: u32, _: &xrbench_sim::ExecRecord| executed += 1;
                let result = match &group.faults {
                    Some(f) => sim.run_session_folded_faulted(
                        &group.session,
                        self.system.as_ref(),
                        &mut scheduler,
                        f,
                        config.recovery,
                        &mut sink,
                    ),
                    None => sim.run_session_folded(
                        &group.session,
                        self.system.as_ref(),
                        &mut scheduler,
                        &mut sink,
                    ),
                };
                let s = session::counters(&result, executed, 0);
                match &mut total {
                    None => total = Some(s),
                    Some(t) => t.iter_mut().zip(&s).for_each(|(a, b)| a.1 += b.1),
                }
            }
        });
        let total = total.ok_or("the fold shard has no sessions")?;
        if requests != total[0].1 {
            return Err(format!(
                "loadgen made {requests} requests for shard {FOLD_SHARD}, the engine counted {}",
                total[0].1
            ));
        }
        session::split_layers(layers, generate_s, run_s, requests, total[2].1);
        session::sim_layers(layers, &total);
        layers.add("fleet.fold_s", shard_s - run_s);
        Ok(())
    }
}

impl Workload for Fleet {
    fn run(&mut self) -> Result<(Cost, Counters), String> {
        let doc = self.doc_arg()?.to_string();
        let (out, cost) = clock(|| {
            coordinator(
                &self.xrbench,
                &[
                    "run-fleet",
                    &doc,
                    "--shards",
                    &SHARDS.to_string(),
                    "--max-procs",
                    &MAX_PROCS.to_string(),
                ],
            )
        });
        let (out, peak) = out?;
        self.peak_rss_mib = self.peak_rss_mib.max(peak);
        let c = counters(&out)?;
        self.report.get_or_insert(out);
        Ok((cost, c))
    }

    /// Runs the four children one at a time, then decodes, re-encodes
    /// and merges their states in process, as the coordinator does.
    fn run_traced(&mut self, layers: &mut Layers) -> Result<(f64, Counters), String> {
        let doc = self.doc_arg()?.to_string();
        let mut texts = Vec::with_capacity(SHARDS as usize);
        let mut traced_s = 0.0;
        for k in 0..SHARDS {
            let (text, child_s) = timed(|| {
                xrbench(
                    &self.xrbench,
                    &["run-fleet", &doc, "--shard", &format!("{k}/{SHARDS}")],
                )
            });
            texts.push(text?);
            self.child_s[k as usize].push(child_s);
            layers.add(format!("fleet.child_s.{k}"), child_s);
            traced_s += child_s;
        }
        let bytes: usize = texts.iter().map(|t| t.trim().len()).sum();
        let (states, decode_s) = timed(|| {
            texts
                .iter()
                .map(|t| ShardState::from_json(t.trim()))
                .collect::<Result<Vec<_>, _>>()
        });
        let states = states.map_err(|e| format!("unreadable shard state: {e}"))?;
        let (encoded, encode_s) =
            timed(|| states.iter().map(ShardState::to_json).collect::<Vec<_>>());
        for (k, (e, t)) in encoded.iter().zip(&texts).enumerate() {
            if e != t.trim() {
                return Err(format!(
                    "shard {k} state does not re-encode to its own bytes"
                ));
            }
        }
        let (report, merge_s) = timed(|| {
            merge_fleet_shards(
                &self.run.fleet,
                &self.system.label(),
                LatencyGreedy::new().name(),
                &states,
            )
        });
        let report = report.map_err(|e| format!("merging shard states: {e}"))?;
        let report = report.to_json() + "\n";
        let c = counters(&report)?;
        traced_s += decode_s + merge_s;
        layers.add("fleet.state_bytes", bytes as f64);
        layers.add("fleet.decode_s", decode_s);
        layers.add("fleet.encode_s", encode_s);
        layers.add("fleet.merge_s", merge_s);
        layers.add("fleet.sessions", c[0].1 as f64);
        let rss = states
            .iter()
            .filter_map(|s| s.peak_rss_mib)
            .fold(0.0, f64::max);
        layers.add("fleet.child_peak_rss_mib", rss);
        Ok((traced_s, c))
    }

    fn work(&self, counters: &Counters) -> u64 {
        counters[2].1
    }

    fn verify(&mut self, counters: &Counters) -> Result<(), String> {
        if self.pinned && counters[8].1 != PINNED_DIGEST {
            return Err(format!(
                "default-seed report digest {:#x} differs from the pinned {PINNED_DIGEST:#x}",
                counters[8].1
            ));
        }
        let report = self.report.as_deref().ok_or("no plain run succeeded")?;
        let reference = self
            .run
            .params
            .harness()
            .run_fleet_with_recovery(&self.run.fleet, self.system.as_ref(), 2, self.run.recovery)
            .to_json()
            + "\n";
        if reference != report {
            return Err("the sharded report differs from the in-process run_fleet".to_string());
        }
        Ok(())
    }

    fn finish_layers(&mut self, layers: &mut Layers, plain_wall_s: f64) -> Result<(), String> {
        let child: Vec<f64> = self
            .child_s
            .iter()
            .map(|v| crate::measure::median(v))
            .collect();
        let (min, max) = child.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &c| {
            (lo.min(c), hi.max(c))
        });
        layers.add("fleet.child_imbalance", max / min);
        layers.add(
            "fleet.supervise_idle_s",
            f64::from(MAX_PROCS) * plain_wall_s - child.iter().sum::<f64>(),
        );
        self.fold_layers(layers)
    }

    /// A run keeps both cores busy for seconds while other tenants'
    /// load changes underneath it; single-core passes between runs do
    /// not track that, and measured (2 vCPUs, 10 seeds) they widened the
    /// spread of the fleet's medians from about 8% raw to over 20%.
    fn calibrated(&self) -> bool {
        false
    }

    fn peak_rss_mib(&self) -> f64 {
        self.peak_rss_mib
    }
}
