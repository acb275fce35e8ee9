//! The session workloads: one `Simulator::run_session` over a mixed
//! multi-user session on the 16-engine uniform system of
//! `xrbench_bench::session_scale`, one simulated second, records
//! collected.
//!
//! * `session-1024`: 1024 users under `LatencyGreedy`, the scheduler
//!   with a closed-form dispatch kernel; loadgen and its global sort
//!   are about a third of the run.
//! * `session-edf-256`: 256 users under `SlackAwareEdf`, the one
//!   scheduler without a kernel, so the engine takes its slow path.

use xrbench_bench::session_scale::{mixed_session, ENERGY_J, ENGINES, LATENCY_S};
use xrbench_core::{RunDocument, SchedulerSpec};
use xrbench_sim::{CostProvider, ExecRecord, SessionSimResult, SimConfig, Simulator};
use xrbench_workload::spec::session_to_json;
use xrbench_workload::SessionSpec;

use crate::measure::{timed, Digest};
use crate::{clock, load_document, Cost, Counters, Layers, Workload};

/// Which session workload.
#[derive(Debug, Clone, Copy)]
pub enum Variant {
    /// `session-1024`.
    Greedy1024,
    /// `session-edf-256`.
    Edf256,
}

impl Variant {
    fn users(self) -> u32 {
        match self {
            Variant::Greedy1024 => 1024,
            Variant::Edf256 => 256,
        }
    }

    fn scheduler(self) -> &'static str {
        match self {
            Variant::Greedy1024 => "latency-greedy",
            Variant::Edf256 => "slack-edf",
        }
    }

    /// Counters of the default seed, in [`counters`] order.
    fn pinned(self) -> Counters {
        match self {
            Variant::Greedy1024 => vec![
                ("requests", 112_458),
                ("executed", 44_580),
                ("events", 157_038),
                ("drops.superseded", 67_546),
                ("drops.upstream", 0),
                ("drops.starved", 0),
                ("drops.preempted", 0),
                ("drops.device_lost", 0),
                ("records_digest", 4_996_873_809_392_183_417),
            ],
            Variant::Edf256 => vec![
                ("requests", 28_060),
                ("executed", 20_056),
                ("events", 48_116),
                ("drops.superseded", 7_785),
                ("drops.upstream", 0),
                ("drops.starved", 0),
                ("drops.preempted", 0),
                ("drops.device_lost", 0),
                ("records_digest", 8_662_252_246_710_216_980),
            ],
        }
    }
}

/// A prepared session workload.
pub struct Session {
    variant: Variant,
    pinned: bool,
    sim: Simulator,
    session: SessionSpec,
    scheduler: SchedulerSpec,
    system: Box<dyn CostProvider + Send + Sync>,
}

/// Folds one record into a per-user digest.
fn digest_record(d: &mut Digest, r: &ExecRecord) {
    for w in [
        r.model as u64,
        r.frame_id,
        r.sensor_frame,
        r.engine as u64,
        r.t_req.to_bits(),
        r.t_deadline.to_bits(),
        r.t_start.to_bits(),
        r.t_end.to_bits(),
        r.energy_j.to_bits(),
    ] {
        d.word(w);
    }
}

/// Combines per-user `(user, records digest)` pairs in user order.
fn combine(per_user: impl Iterator<Item = (u32, u64)>) -> u64 {
    let mut d = Digest::default();
    for (user, h) in per_user {
        d.word(u64::from(user));
        d.word(h);
    }
    d.value()
}

/// The exact counters of a session result whose records digest is
/// `records_digest`. Arrivals are every streamed frame, triggered or
/// not; events are arrivals plus completions, as `perf_gate` counts
/// them.
pub fn counters(result: &SessionSimResult, executed: u64, records_digest: u64) -> Counters {
    let mut c = [0u64; 6];
    for (_, r) in &result.per_user {
        for s in r.stats.values() {
            c[0] += s.total_frames + s.untriggered_frames;
            c[1] += s.dropped_superseded;
            c[2] += s.dropped_upstream;
            c[3] += s.dropped_starved;
            c[4] += s.dropped_preempted;
            c[5] += s.dropped_device_lost;
        }
    }
    vec![
        ("requests", c[0]),
        ("executed", executed),
        ("events", c[0] + executed),
        ("drops.superseded", c[1]),
        ("drops.upstream", c[2]),
        ("drops.starved", c[3]),
        ("drops.preempted", c[4]),
        ("drops.device_lost", c[5]),
        ("records_digest", records_digest),
    ]
}

/// Counters of a run that collected its records.
fn collected_counters(result: &SessionSimResult) -> Counters {
    let mut executed = 0;
    let digest = combine(result.per_user.iter().map(|(user, r)| {
        let mut d = Digest::default();
        for rec in &r.records {
            digest_record(&mut d, rec);
        }
        executed += r.records.len() as u64;
        (*user, d.value())
    }));
    counters(result, executed, digest)
}

/// Records the sim-layer counters shared by every workload that runs
/// sessions.
pub fn sim_layers(layers: &mut Layers, c: &Counters) {
    layers.counters(
        &[
            ("events", "sim.events"),
            ("drops.superseded", "sim.drops.superseded"),
            ("drops.upstream", "sim.drops.upstream"),
            ("drops.starved", "sim.drops.starved"),
            ("drops.preempted", "sim.drops.preempted"),
            ("drops.device_lost", "sim.drops.device_lost"),
        ],
        c,
    );
}

/// Records the loadgen/engine split: `sim.run_s` includes the
/// request generation the simulator performs internally, which
/// `workload.generate_s` times on its own.
pub fn split_layers(layers: &mut Layers, generate_s: f64, run_s: f64, requests: u64, events: u64) {
    let dispatch_s = run_s - generate_s;
    layers.add("workload.generate_s", generate_s);
    layers.add("workload.requests", requests as f64);
    layers.add("workload.share", generate_s / run_s);
    layers.add("sim.run_s", run_s);
    layers.add("sim.dispatch_s", dispatch_s);
    layers.add("sim.ns_per_event", dispatch_s / events as f64 * 1e9);
}

impl Session {
    /// Builds the session run document, parses and analyzes it, and
    /// builds its system.
    pub fn setup(
        variant: Variant,
        seed: u64,
        pinned: bool,
        layers: &mut Layers,
    ) -> Result<Self, String> {
        let doc = format!(
            "{{\"kind\": \"session\", \"seed\": {seed}, \"scheduler\": \"{}\", \
             \"hardware\": {{\"uniform\": {{\"engines\": {ENGINES}, \"latency_s\": {LATENCY_S}, \
             \"energy_j\": {ENERGY_J}}}}}, \"session\": {}}}",
            variant.scheduler(),
            session_to_json(&mixed_session(variant.users())),
        );
        let doc = load_document(&doc, layers)?;
        let RunDocument::Session(run) = doc else {
            return Err("not a session document".to_string());
        };
        Ok(Self {
            variant,
            pinned,
            sim: Simulator::new(SimConfig {
                seed: run.params.seed.ok_or("document lost its seed")?,
                ..SimConfig::default()
            }),
            system: run.system.build(),
            scheduler: run.scheduler,
            session: run.session,
        })
    }

    fn simulate(&self) -> SessionSimResult {
        let mut scheduler = self.scheduler.build();
        self.sim
            .run_session(&self.session, self.system.as_ref(), scheduler.as_mut())
    }
}

impl Workload for Session {
    fn run(&mut self) -> Result<(Cost, Counters), String> {
        let (result, cost) = clock(|| self.simulate());
        Ok((cost, collected_counters(&result)))
    }

    fn run_traced(&mut self, layers: &mut Layers) -> Result<(f64, Counters), String> {
        let config = self.sim.config();
        let (requests, generate_s) =
            timed(|| self.session.generate(config.seed, config.duration_s).len() as u64);
        let (result, run_s) = timed(|| self.simulate());
        let c = collected_counters(&result);
        if requests != c[0].1 {
            return Err(format!(
                "loadgen made {requests} requests, the engine counted {}",
                c[0].1
            ));
        }
        split_layers(layers, generate_s, run_s, requests, c[2].1);
        sim_layers(layers, &c);
        Ok((generate_s + run_s, c))
    }

    fn work(&self, counters: &Counters) -> u64 {
        counters[2].1
    }

    fn verify(&mut self, counters: &Counters) -> Result<(), String> {
        if self.pinned && *counters != self.variant.pinned() {
            return Err(format!(
                "default-seed counters {counters:?} differ from the pinned {:?}",
                self.variant.pinned()
            ));
        }
        // The folding path must see the same records in the same
        // per-user order and end with the same stats.
        let mut digests: Vec<(u32, Digest)> = self
            .session
            .users
            .iter()
            .map(|u| (u.user, Digest::default()))
            .collect();
        digests.sort_by_key(|&(u, _)| u);
        let mut executed = 0u64;
        let mut scheduler = self.scheduler.build();
        let result = self.sim.run_session_folded(
            &self.session,
            self.system.as_ref(),
            scheduler.as_mut(),
            &mut |user, rec| {
                let i = digests
                    .binary_search_by_key(&user, |&(u, _)| u)
                    .expect("record of a session user");
                digest_record(&mut digests[i].1, rec);
                executed += 1;
            },
        );
        let folded = self::counters(
            &result,
            executed,
            combine(digests.iter().map(|&(u, d)| (u, d.value()))),
        );
        if folded != *counters {
            return Err(format!(
                "folded-path counters {folded:?} differ from the collected run's {counters:?}"
            ));
        }
        Ok(())
    }
}
