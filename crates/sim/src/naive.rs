//! The reference event loop, kept for differential testing and the
//! `gate perf` before/after measurement.
//!
//! This is the simulator's original event loop, written for
//! readability rather than speed: it re-sorts the completion list on
//! every iteration, linearly scans the whole waiting set per event,
//! rebuilds the scheduler's [`PendingView`] slice per pick, and never
//! retires resolved entries — super-linear in the number of events.
//! The production engine (`crate::engine`) must produce
//! **bit-identical** results; `tests/runtime_properties.rs` proves it
//! on randomized sessions, fault-free and faulted, and
//! `crates/bench/src/gate/perf.rs` measures the speedup.
//!
//! ## Fault injection
//!
//! With a [`FaultCtx`] the loop applies due fault events between
//! completions and arrivals. A `Down` event takes the engine out of
//! the free set, tells the scheduler, and revokes the dispatch running
//! on it: the revoked completion stays in the list (it still marks an
//! event time) but resolves nothing, and the engine rejoins on `Up`.
//! The revoked frame is recovered per [`RecoveryPolicy`]. `Drop`
//! resolves it as dropped for its dependents; `Requeue` and `Migrate`
//! put it back in the ready queue unless a newer frame of the same
//! model is already queued, `Migrate` carrying only the remaining-work
//! fraction. `Capacity` events set the throttle factor new dispatches
//! are stretched by. Because a dispatch may be revoked, faulted runs
//! emit stats and records at completion, processing due completions in
//! the engine's total `(t, key, sensor_frame, token)` order.
//!
//! The module is `#[doc(hidden)]` rather than `#[cfg(test)]` because
//! the differential property tests and the perf gate live outside this
//! crate; it is not part of the supported API.

use std::collections::BTreeMap;

use xrbench_models::ModelId;
use xrbench_workload::{ScenarioSpec, SessionRequest};

use crate::engine::FaultCtx;
use crate::fault::{FaultAction, FaultKind, RecoveryPolicy};
use crate::provider::{CostProvider, NUM_MODELS};
use crate::result::{DropReason, ExecRecord, ModelStats, SimResult};
use crate::scheduler::{PendingView, Scheduler};
use crate::simulator::{trigger_all, Resolution, SimConfig, EPS};

/// One dispatched inference awaiting its completion event.
struct Completion {
    t_end: f64,
    /// The engine's dense tie-break key: spec index × models + model.
    key: usize,
    /// Dispatch sequence number, the last tie-break.
    token: u64,
    engine: usize,
    /// Set when a fault revoked the dispatch.
    revoked: bool,
    p: SessionRequest,
    t_start: f64,
    /// Remaining-work fraction the dispatch carried.
    frac: f64,
    energy_j: f64,
}

impl Completion {
    fn order(&self, other: &Self) -> std::cmp::Ordering {
        self.t_end
            .total_cmp(&other.t_end)
            .then(self.key.cmp(&other.key))
            .then(self.p.req.sensor_frame.cmp(&other.p.req.sensor_frame))
            .then(self.token.cmp(&other.token))
    }
}

/// The original O(n²) event loop over user-tagged requests (`requests`
/// must be sorted by `t_req`; sessions pass their merged stream,
/// collected), with optional fault injection. Returns one
/// [`SimResult`] per user.
pub(crate) fn run_tagged_naive(
    config: SimConfig,
    specs: &[(u32, &ScenarioSpec)],
    requests: Vec<SessionRequest>,
    provider: &dyn CostProvider,
    scheduler: &mut dyn Scheduler,
    duration_s: f64,
    faults: Option<FaultCtx<'_>>,
) -> BTreeMap<u32, SimResult> {
    assert!(provider.num_engines() > 0, "provider must expose engines");

    type Key = (u32, ModelId);
    let deps: BTreeMap<Key, Vec<(ModelId, f64)>> = specs
        .iter()
        .flat_map(|&(user, spec)| {
            spec.models.iter().map(move |m| {
                (
                    (user, m.model),
                    m.deps
                        .iter()
                        .map(|d| (d.upstream, d.trigger_probability))
                        .collect(),
                )
            })
        })
        .collect();
    let user_index: BTreeMap<u32, usize> = specs
        .iter()
        .enumerate()
        .map(|(i, &(user, _))| (user, i))
        .collect();

    let mut stats: BTreeMap<Key, ModelStats> = specs
        .iter()
        .flat_map(|&(user, spec)| {
            spec.models
                .iter()
                .map(move |m| ((user, m.model), ModelStats::default()))
        })
        .collect();

    // Runtime data structures.
    let num_engines = provider.num_engines();
    let mut engine_free_at = vec![0.0_f64; num_engines];
    let mut engine_up = vec![true; num_engines];
    let mut capacity = vec![1.0_f64; num_engines];
    let fault_events = faults.as_ref().map_or(&[][..], |f| f.timeline.events());
    let mut fault_cursor = 0;
    // Ready requests with their remaining-work fraction.
    let mut ready: Vec<(SessionRequest, f64)> = Vec::new();
    // (user, upstream model, sensor frame) -> resolution.
    let mut resolved: BTreeMap<(u32, ModelId, u64), Resolution> = BTreeMap::new();
    // Dependents that arrived before their upstream resolved.
    let mut waiting: Vec<SessionRequest> = Vec::new();
    let mut completions: Vec<Completion> = Vec::new();
    let mut next_token = 0u64;
    let mut records: BTreeMap<u32, Vec<ExecRecord>> =
        specs.iter().map(|&(user, _)| (user, Vec::new())).collect();

    let mut arrivals = requests.into_iter().peekable();
    let mut now = 0.0_f64;

    loop {
        // 1. Process completions due now (resolve dependents; faulted
        //    runs also emit their stats and records here).
        //    A never-ending (NaN) completion may sort anywhere, so
        //    every due one is taken, not just a due prefix.
        completions.sort_by(Completion::order);
        while let Some(i) = completions.iter().position(|c| c.t_end <= now + EPS) {
            let c = completions.remove(i);
            if c.revoked {
                continue;
            }
            let (user, model) = (c.p.user, c.p.req.model);
            resolved.insert((user, model, c.p.req.sensor_frame), Resolution::Completed);
            if faults.is_some() {
                emit(&c, &mut stats, &mut records);
            }
        }

        // 1b. Apply fault events due now.
        while fault_events
            .get(fault_cursor)
            .is_some_and(|ev| ev.t <= now + EPS)
        {
            let ev = fault_events[fault_cursor];
            fault_cursor += 1;
            let engine = ev.engine as usize;
            if engine >= num_engines {
                continue;
            }
            match ev.action {
                FaultAction::Down(kind) => {
                    if !engine_up[engine] {
                        continue;
                    }
                    engine_up[engine] = false;
                    scheduler.on_engine_down(engine, now);
                    let Some(c) = completions
                        .iter_mut()
                        .find(|c| c.engine == engine && !c.revoked)
                    else {
                        continue;
                    };
                    c.revoked = true;
                    engine_free_at[engine] = now;
                    let key = (c.p.user, c.p.req.model);
                    let policy = faults.as_ref().expect("fault events imply a ctx").policy;
                    match policy {
                        RecoveryPolicy::Drop => {
                            let reason = match kind {
                                FaultKind::Failure => DropReason::DeviceLost,
                                FaultKind::Preemption => DropReason::Preempted,
                            };
                            stats.entry(key).or_default().record_drop(reason);
                            resolved
                                .insert((key.0, key.1, c.p.req.sensor_frame), Resolution::Dropped);
                        }
                        RecoveryPolicy::Requeue | RecoveryPolicy::Migrate => {
                            if ready.iter().any(|(q, _)| (q.user, q.req.model) == key) {
                                // Freshness drops the revoked frame.
                                stats
                                    .entry(key)
                                    .or_default()
                                    .record_drop(DropReason::Superseded);
                            } else {
                                let frac = if policy == RecoveryPolicy::Migrate {
                                    ((c.t_end - now) / (c.t_end - c.t_start)).clamp(0.0, 1.0)
                                        * c.frac
                                } else {
                                    1.0
                                };
                                ready.push((c.p.clone(), frac));
                            }
                        }
                    }
                }
                FaultAction::Up => engine_up[engine] = true,
                FaultAction::Capacity(c) => capacity[engine] = c,
            }
        }

        // 2. Ingest arrivals due now.
        while arrivals.peek().is_some_and(|p| p.req.t_req <= now + EPS) {
            let p = arrivals.next().expect("peeked");
            let key = (p.user, p.req.model);
            stats.entry(key).or_default().total_frames += 1;
            if deps.get(&key).is_some_and(|d| !d.is_empty()) {
                // Freshness: a newer dependent frame supersedes an
                // older one still waiting for its upstream.
                drop_older(&mut waiting, |w| w, &p, &mut stats);
                waiting.push(p);
            } else {
                drop_older(&mut ready, |(q, _)| q, &p, &mut stats);
                ready.push((p, 1.0));
            }
        }

        // 3. Resolve waiting dependents whose upstream is decided.
        let mut i = 0;
        while i < waiting.len() {
            let user = waiting[i].user;
            let model = waiting[i].req.model;
            let sf = waiting[i].req.sensor_frame;
            let dep_list = &deps[&(user, model)];
            let all = dep_list
                .iter()
                .map(|(up, _)| resolved.get(&(user, *up, sf)).copied())
                .collect::<Option<Vec<_>>>();
            match all {
                None => {
                    i += 1; // upstream still in flight
                }
                Some(res) => {
                    let p = waiting.remove(i);
                    if res.contains(&Resolution::Dropped) {
                        let st = stats.entry((user, model)).or_default();
                        st.record_drop(DropReason::UpstreamDropped);
                    } else if trigger_all(config.seed, user, &p.req, dep_list) {
                        drop_older(&mut ready, |(q, _)| q, &p, &mut stats);
                        ready.push((p, 1.0));
                    } else {
                        // Legitimately deactivated: not streamed
                        // work for QoE purposes.
                        let st = stats.entry((user, model)).or_default();
                        st.untriggered_frames += 1;
                        st.total_frames -= 1;
                        resolved.insert((user, model, sf), Resolution::Dropped);
                    }
                }
            }
        }

        // 4. Dispatch ready requests onto free engines.
        loop {
            let free: Vec<usize> = (0..num_engines)
                .filter(|&e| engine_up[e] && engine_free_at[e] <= now + EPS)
                .collect();
            if free.is_empty() || ready.is_empty() {
                break;
            }
            let views: Vec<PendingView> = ready
                .iter()
                .map(|(p, _)| PendingView {
                    user: p.user,
                    model: p.req.model,
                    frame_id: p.req.frame_id,
                    t_req: p.req.t_req,
                    t_deadline: p.req.t_deadline,
                })
                .collect();
            let Some((ri, engine)) = scheduler.select(&views, &free, provider, now) else {
                break;
            };
            assert!(ri < ready.len(), "scheduler returned bad request index");
            assert!(
                free.contains(&engine),
                "scheduler returned busy engine {engine}"
            );
            let (p, frac) = ready.remove(ri);
            let cost = provider.cost(p.req.model, engine);
            // Faulted dispatches pay the remaining-work fraction,
            // stretched by the engine's current throttle (both exactly
            // 1.0 fault-free).
            let t_end = now + cost.latency_s * frac / capacity[engine];
            engine_free_at[engine] = t_end;
            let c = Completion {
                t_end,
                key: user_index[&p.user] * NUM_MODELS + p.req.model as usize,
                token: next_token,
                engine,
                revoked: false,
                p,
                t_start: now,
                frac,
                energy_j: cost.energy_j * frac,
            };
            next_token += 1;
            if faults.is_none() {
                emit(&c, &mut stats, &mut records);
            }
            completions.push(c);
        }

        // 5. Advance to the next event. Fault events count only while
        //    work is pending: with nothing queued, in flight, or
        //    arriving, the remaining toggles are no-ops.
        let mut next = f64::INFINITY;
        if let Some(p) = arrivals.peek() {
            next = next.min(p.req.t_req);
        }
        for c in &completions {
            if c.t_end > now + EPS {
                next = next.min(c.t_end);
            }
        }
        let work_pending =
            arrivals.peek().is_some() || !completions.is_empty() || !ready.is_empty();
        if let Some(ev) = fault_events.get(fault_cursor).filter(|_| work_pending) {
            next = next.min(ev.t);
        }
        if next.is_infinite() {
            break;
        }
        now = next;
    }

    // Sub-epsilon completions still due when the loop ended did run;
    // faulted runs emit them now.
    if faults.is_some() {
        completions.sort_by(Completion::order);
        for c in completions.iter().filter(|c| !c.revoked) {
            emit(c, &mut stats, &mut records);
        }
    }

    // Anything still waiting at drain time had an upstream that
    // never resolved within the run; count as dropped.
    for p in waiting.iter().chain(ready.iter().map(|(p, _)| p)) {
        stats
            .entry((p.user, p.req.model))
            .or_default()
            .record_drop(DropReason::Starved);
    }

    // Assemble one SimResult per user.
    let mut out = BTreeMap::new();
    for &(user, _) in specs {
        let mut recs = records.remove(&user).unwrap_or_default();
        recs.sort_by(|a, b| a.t_start.total_cmp(&b.t_start));
        let user_stats: BTreeMap<ModelId, ModelStats> = stats
            .iter()
            .filter(|((u, _), _)| *u == user)
            .map(|((_, m), st)| (*m, st.clone()))
            .collect();
        out.insert(
            user,
            SimResult {
                records: recs,
                stats: user_stats,
                num_engines,
                duration_s,
            },
        );
    }
    out
}

/// Counts an executed inference and keeps its record.
fn emit(
    c: &Completion,
    stats: &mut BTreeMap<(u32, ModelId), ModelStats>,
    records: &mut BTreeMap<u32, Vec<ExecRecord>>,
) {
    let st = stats.entry((c.p.user, c.p.req.model)).or_default();
    st.executed_frames += 1;
    if c.t_end > c.p.req.t_deadline {
        st.missed_deadlines += 1;
    }
    records.entry(c.p.user).or_default().push(ExecRecord {
        model: c.p.req.model,
        frame_id: c.p.req.frame_id,
        sensor_frame: c.p.req.sensor_frame,
        engine: c.engine,
        t_req: c.p.req.t_req,
        t_deadline: c.p.req.t_deadline,
        t_start: c.t_start,
        t_end: c.t_end,
        energy_j: c.energy_j,
    });
}

/// Drops any not-yet-started older frame of the same (user, model)
/// (freshness policy), updating drop stats.
fn drop_older<T>(
    queue: &mut Vec<T>,
    pending: impl Fn(&T) -> &SessionRequest,
    newer: &SessionRequest,
    stats: &mut BTreeMap<(u32, ModelId), ModelStats>,
) {
    queue.retain(|entry| {
        let p = pending(entry);
        let stale = p.user == newer.user
            && p.req.model == newer.req.model
            && p.req.frame_id < newer.req.frame_id;
        if stale {
            let st = stats.entry((p.user, p.req.model)).or_default();
            st.record_drop(DropReason::Superseded);
        }
        !stale
    });
}
