//! The `sweep-figure5` workload: the paper's Figure 5 grid as one
//! in-process sweep document — Table 5 accelerators A–M ×
//! `pe_scaling` {1.0, 0.5} at 8192 PEs × {latency-greedy,
//! round-robin, slack-edf} × recovery {drop, requeue} × the seven
//! Table 2 scenarios: 1,092 points, of which 546 evaluate and 546 are
//! memo-cache hits (scenario workloads cannot observe recovery).
//!
//! It is the only workload that uses the analytical cost model: every
//! evaluation builds an `AcceleratorSystem` for one of the 26
//! hardware points.

use std::collections::BTreeSet;

use xrbench_core::{RunDocument, SweepDocument, SweepOptions, SystemSpec};
use xrbench_workload::ScenarioCatalog;

use crate::measure::{digest_bytes, median, timed};
use crate::{clock, load_document, Cost, Counters, Layers, Workload};

/// Evaluated and cache-hit points for every seed.
const EVALUATED: u64 = 546;
/// Report digest of the default seed.
const PINNED_DIGEST: u64 = 0xdc98_1956_b26f_113d;

/// A prepared sweep workload.
pub struct Sweep {
    pinned: bool,
    doc: SweepDocument,
    /// The first run's report, compared with the sharded path's.
    report: Option<String>,
}

impl Sweep {
    /// Builds the sweep document, parses it and analyzes every
    /// (hardware point × workload) cell.
    pub fn setup(seed: u64, pinned: bool, layers: &mut Layers) -> Result<Self, String> {
        let workloads: Vec<String> = ScenarioCatalog::builtin()
            .iter()
            .enumerate()
            .map(|(i, s)| format!("{{\"name\": \"s{i}\", \"scenario\": \"{}\"}}", s.name))
            .collect();
        let text = format!(
            "{{\"kind\": \"sweep\", \"name\": \"figure5\", \"seed\": {seed}, \
             \"accelerators\": [\"A\", \"B\", \"C\", \"D\", \"E\", \"F\", \"G\", \"H\", \"I\", \
             \"J\", \"K\", \"L\", \"M\"], \"base_pes\": 8192, \"pe_scaling\": [1.0, 0.5], \
             \"schedulers\": [\"latency-greedy\", \"round-robin\", \"slack-edf\"], \
             \"recovery\": [\"drop\", \"requeue\"], \"workloads\": [{}]}}",
            workloads.join(", ")
        );
        let doc = load_document(&text, layers)?;
        let RunDocument::Sweep(doc) = doc else {
            return Err("not a sweep document".to_string());
        };
        Ok(Self {
            pinned,
            doc,
            report: None,
        })
    }

    /// One straight-through sweep: its report and the cache split.
    fn sweep(&self) -> Result<(String, u64, u64), String> {
        let outcome = self
            .doc
            .run_with(&SweepOptions::default())
            .map_err(|e| format!("sweep failed: {e}"))?;
        let report = outcome.report.ok_or("sweep stopped early")?;
        Ok((
            report.to_json(),
            outcome.stats.evaluated as u64,
            outcome.stats.cache_hits as u64,
        ))
    }

    fn counters(&mut self, report: String, evaluated: u64, cache_hits: u64) -> Counters {
        let c = vec![
            ("points", self.doc.points().len() as u64),
            ("evaluated", evaluated),
            ("cache_hits", cache_hits),
            ("report_digest", digest_bytes(report.as_bytes())),
        ];
        self.report.get_or_insert(report);
        c
    }
}

impl Workload for Sweep {
    fn run(&mut self) -> Result<(Cost, Counters), String> {
        let (out, cost) = clock(|| self.sweep());
        let (report, evaluated, cache_hits) = out?;
        Ok((cost, self.counters(report, evaluated, cache_hits)))
    }

    /// Times the point evaluations and the report rendering apart, and
    /// builds each hardware point once to weigh the system builds the
    /// evaluations repeat.
    fn run_traced(&mut self, layers: &mut Layers) -> Result<(f64, Counters), String> {
        let (outcome, eval_s) = timed(|| self.doc.run_with(&SweepOptions::default()));
        let outcome = outcome.map_err(|e| format!("sweep failed: {e}"))?;
        let report = outcome.report.ok_or("sweep stopped early")?;
        let (json, json_s) = timed(|| report.to_json());

        let hardware = self.doc.hardware_points();
        let mut build_s = Vec::with_capacity(hardware.len());
        for &(id, pes) in &hardware {
            let (system, t) = timed(|| SystemSpec::Accelerator { id, pes }.build());
            std::hint::black_box(system);
            build_s.push(t);
        }
        // Every evaluated point builds its hardware point's system:
        // replay the memo cache to count them per hardware point.
        let mut seen = BTreeSet::new();
        let mut builds_s = 0.0;
        for point in self.doc.points() {
            if seen.insert(self.doc.cache_key(&point)) {
                let hw = hardware
                    .iter()
                    .position(|&h| h == (point.accelerator, point.pes))
                    .ok_or("point outside the hardware axis")?;
                builds_s += build_s[hw];
            }
        }
        let (evaluated, cache_hits) = (
            outcome.stats.evaluated as u64,
            outcome.stats.cache_hits as u64,
        );
        if seen.len() as u64 != evaluated {
            return Err(format!(
                "{} distinct cache keys but {evaluated} evaluations",
                seen.len()
            ));
        }
        let points = outcome.stats.points as f64;
        layers.add("accel.build_s", median(&build_s));
        layers.add(
            "accel.build_max_s",
            build_s.iter().copied().fold(0.0, f64::max),
        );
        layers.add("accel.builds", evaluated as f64);
        layers.add("accel.share", builds_s / eval_s);
        layers.add("core.sweep_eval_s", eval_s);
        layers.add("core.sweep_evaluated", evaluated as f64);
        layers.add("core.sweep_cache_hits", cache_hits as f64);
        layers.add("core.sweep_hit_ratio", cache_hits as f64 / points);
        layers.add("core.report_json_s", json_s);
        let traced_s = eval_s + json_s + build_s.iter().sum::<f64>();
        Ok((traced_s, self.counters(json, evaluated, cache_hits)))
    }

    fn work(&self, counters: &Counters) -> u64 {
        counters[0].1
    }

    fn verify(&mut self, counters: &Counters) -> Result<(), String> {
        if counters[1].1 != EVALUATED || counters[2].1 != EVALUATED {
            return Err(format!(
                "expected {EVALUATED} evaluated and {EVALUATED} cache hits, got {counters:?}"
            ));
        }
        if self.pinned && counters[3].1 != PINNED_DIGEST {
            return Err(format!(
                "default-seed report digest {:#x} differs from the pinned {PINNED_DIGEST:#x}",
                counters[3].1
            ));
        }
        // The sharded path (two shards merged in process) must
        // reproduce the straight run byte for byte.
        let states = [self.doc.run_shard(0, 2), self.doc.run_shard(1, 2)];
        let merged = self
            .doc
            .merge_shards(&states)
            .map_err(|e| format!("merging sweep shards: {e}"))?
            .to_json();
        if Some(&merged) != self.report.as_ref() {
            return Err("the 2-shard sweep report differs from the straight run".to_string());
        }
        Ok(())
    }
}
