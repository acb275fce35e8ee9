//! Property-based tests over the runtime: frame conservation,
//! schedule validity, cost-model monotonicity under randomized
//! configurations, and the differential proofs that the production
//! calendar-queue engine is bit-identical to the reference (naive)
//! event loop across every shipped scheduler, record mode, and
//! recovery policy, fault-free and faulted.

use proptest::prelude::*;

use xrbench::costmodel::{evaluate_layers, Dataflow, HardwareConfig, Layer};
use xrbench::models::{zoo, InputSource, ModelId};
use xrbench::prelude::*;
use xrbench::sim::{
    ExecRecord, FailoverAware, FaultProcess, InferenceCost, RecoveryPolicy, SimResult,
    TableProvider, UniformProvider,
};
use xrbench::workload::{DependencyKind, InferenceRequest};

fn scenario_strategy() -> impl Strategy<Value = UsageScenario> {
    prop::sample::select(UsageScenario::ALL.to_vec())
}

/// Splitmix64 step — a tiny local generator so randomized *structure*
/// (model sets, dependency edges, rates) is derived deterministically
/// from one proptest-drawn seed.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pick(state: &mut u64, n: usize) -> usize {
    (mix(state) % n as u64) as usize
}

/// A randomized, builder-validated scenario: 2–6 models with random
/// rates and random (acyclic, sometimes probabilistic) dependency
/// edges onto earlier models.
fn random_spec(state: &mut u64, name: &str) -> ScenarioSpec {
    let mut pool: Vec<ModelId> = ModelId::ALL.to_vec();
    let count = 2 + pick(state, 5);
    let mut chosen: Vec<ModelId> = Vec::with_capacity(count);
    for _ in 0..count {
        chosen.push(pool.swap_remove(pick(state, pool.len())));
    }
    let mut b = ScenarioBuilder::new(name);
    for (i, &m) in chosen.iter().enumerate() {
        let max_fps = match m.driving_source() {
            InputSource::Microphone => 3.0,
            InputSource::Camera | InputSource::Lidar => 60.0,
        };
        let fps = [1.0_f64, 3.0, 15.0, 30.0, 45.0, 60.0][pick(state, 6)].min(max_fps);
        b = b.model(m, fps);
        // Maybe depend on one earlier model (keeps the graph acyclic).
        if i > 0 && pick(state, 10) < 6 {
            let up = chosen[pick(state, i)];
            let probability = [0.2, 0.5, 1.0][pick(state, 3)];
            let kind = if probability < 1.0 {
                DependencyKind::Control
            } else {
                DependencyKind::Data
            };
            b = b.dependency(m, up, kind, probability);
        }
    }
    b.build().expect("randomized spec is builder-valid")
}

/// All five shipped schedulers — the differential suites must cover
/// every one. Each declares a dispatch kernel, so on fault-free runs
/// these suites compare every kernel against its scheduler's `select`,
/// which the reference loop calls.
const NUM_SCHEDULERS: usize = 5;

/// A heterogeneous system drawn from `st`: per-`(model, engine)`
/// latencies from a small palette, so exact ties between engines are
/// common, and a last engine several times slower than the rest, so it
/// misses deadlines the fast engines still meet.
fn random_table(st: &mut u64, engines: usize) -> TableProvider {
    let palette = [0.0004, 0.002, 0.002, 0.009, 0.035];
    let slow = [3.0, 10.0, 40.0][pick(st, 3)];
    TableProvider::from_fn(engines, |_, e| {
        let latency = palette[pick(st, palette.len())];
        InferenceCost {
            latency_s: if e + 1 == engines {
                latency * slow
            } else {
                latency
            },
            energy_j: 0.001,
        }
    })
}

fn scheduler_for(idx: usize) -> Box<dyn Scheduler> {
    match idx % NUM_SCHEDULERS {
        0 => Box::new(LatencyGreedy::new()),
        1 => Box::new(RoundRobin::new()),
        2 => Box::new(SlackAwareEdf::new()),
        3 => Box::new(LeastLoaded::new()),
        _ => Box::new(FailoverAware::new()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn frame_conservation_holds(
        scenario in scenario_strategy(),
        engines in 1usize..5,
        latency_ms in 0.05_f64..80.0,
        seed in 0u64..5000,
    ) {
        let provider = UniformProvider::new(engines, latency_ms / 1e3, 0.001);
        let sim = Simulator::new(SimConfig { duration_s: 1.0, seed });
        let result = sim.run(&scenario.spec(), &provider, &mut LatencyGreedy::new());
        for (model, st) in &result.stats {
            // Every triggered frame either executed or dropped.
            prop_assert_eq!(
                st.total_frames,
                st.executed_frames + st.dropped_frames,
                "{} violates conservation",
                model
            );
            prop_assert!(st.missed_deadlines <= st.executed_frames);
        }
        // Executed records match the stats.
        for (model, st) in &result.stats {
            let recs = result.records_for(*model).count() as u64;
            prop_assert_eq!(recs, st.executed_frames);
        }
    }

    #[test]
    fn occupancy_condition_holds_for_any_scheduler_load(
        scenario in scenario_strategy(),
        engines in 1usize..5,
        latency_ms in 0.05_f64..60.0,
        seed in 0u64..5000,
        round_robin in any::<bool>(),
    ) {
        let provider = UniformProvider::new(engines, latency_ms / 1e3, 0.001);
        let sim = Simulator::new(SimConfig { duration_s: 1.0, seed });
        let spec = scenario.spec();
        let result = if round_robin {
            sim.run(&spec, &provider, &mut RoundRobin::new())
        } else {
            sim.run(&spec, &provider, &mut LatencyGreedy::new())
        };
        for e in 0..engines {
            let mut recs: Vec<_> = result.records.iter().filter(|r| r.engine == e).collect();
            recs.sort_by(|a, b| a.t_start.total_cmp(&b.t_start));
            for w in recs.windows(2) {
                prop_assert!(w[1].t_start >= w[0].t_end - 1e-12, "overlap on engine {}", e);
            }
        }
    }

    #[test]
    fn faster_engines_never_reduce_scores(
        scenario in scenario_strategy(),
        latency_ms in 0.5_f64..40.0,
        speedup in 1.1_f64..4.0,
    ) {
        let h = Harness::new();
        let slow = UniformProvider::new(2, latency_ms / 1e3, 0.001);
        let fast = UniformProvider::new(2, latency_ms / speedup / 1e3, 0.001);
        let rs = h.run_scenario(scenario, &slow);
        let rf = h.run_scenario(scenario, &fast);
        // Faster hardware can shuffle which frames drop under jitter,
        // so allow small noise; the trend must hold.
        prop_assert!(
            rf.overall() >= rs.overall() - 0.05,
            "speedup {:.2} lowered score {:.3} -> {:.3}",
            speedup, rs.overall(), rf.overall()
        );
    }

    #[test]
    fn cost_model_latency_monotone_in_pes(
        model in prop::sample::select(ModelId::ALL.to_vec()),
        df in prop::sample::select(Dataflow::ALL.to_vec()),
        shift in 0u32..3,
    ) {
        let layers = zoo::build(model);
        let small = HardwareConfig::with_pes(1024 << shift);
        let large = HardwareConfig::with_pes(2048 << shift);
        let ls = evaluate_layers(&layers, df, &small).latency_s();
        let ll = evaluate_layers(&layers, df, &large).latency_s();
        prop_assert!(ll <= ls * 1.001, "{model}/{df}: {ll} > {ls}");
    }

    #[test]
    fn cost_model_energy_insensitive_to_pes_scale(
        model in prop::sample::select(ModelId::ALL.to_vec()),
        df in prop::sample::select(Dataflow::ALL.to_vec()),
    ) {
        // Energy is dominated by work, not array size: doubling PEs
        // must not change energy by more than ~2x in either direction.
        let layers = zoo::build(model);
        let e4 = evaluate_layers(&layers, df, &HardwareConfig::with_pes(4096)).energy_j();
        let e8 = evaluate_layers(&layers, df, &HardwareConfig::with_pes(8192)).energy_j();
        prop_assert!(e8 / e4 < 2.0 && e4 / e8 < 2.0, "{model}/{df}: {e4} vs {e8}");
    }

    #[test]
    fn single_layer_monotone_in_work(
        k in 1u64..256,
        c in 1u64..256,
        y in 1u64..64,
        scale in 2u64..4,
    ) {
        let hw = HardwareConfig::with_pes(4096);
        let small = Layer::conv2d("s", k, c, y, y, 3, 3);
        let big = Layer::conv2d("b", k * scale, c, y, y, 3, 3);
        let small = [small];
        let big = [big];
        for df in Dataflow::ALL {
            let cs = evaluate_layers(&small, df, &hw);
            let cb = evaluate_layers(&big, df, &hw);
            prop_assert!(cb.latency_s() >= cs.latency_s() - 1e-12);
            prop_assert!(cb.energy_j() > cs.energy_j());
        }
    }
}

proptest! {
    // The differential suite runs more cases than the structural
    // properties above: the acceptance bar is ≥ 100 randomized
    // sessions proving new-engine ≡ naive-loop.
    #![proptest_config(ProptestConfig::with_cases(112))]

    #[test]
    fn calendar_engine_is_bit_identical_to_naive_loop(
        structure in 0u64..u64::MAX,
        seed in 0u64..5000,
    ) {
        // The fault-free differential: on randomized builder-generated
        // multi-user sessions — mixed scenarios, random rates,
        // probabilistic cascades, every shipped scheduler, under- and
        // over-provisioned systems — the production engine must
        // reproduce the reference event loop's output exactly
        // (records, stats, drop causes, everything
        // `SessionSimResult: PartialEq` sees).
        let mut st = structure;
        let spec_count = 1 + pick(&mut st, 3);
        let specs: Vec<ScenarioSpec> = (0..spec_count)
            .map(|i| random_spec(&mut st, &format!("rand-{i}")))
            .collect();
        let users = 1 + pick(&mut st, 6) as u32;
        let stagger = [0.0, 0.003, 0.017, 0.25][pick(&mut st, 4)];
        let session = SessionSpec::mixed("differential", &specs, users, stagger);
        let engines = 1 + pick(&mut st, 4);
        let latency = [0.0003, 0.002, 0.009, 0.035][pick(&mut st, 4)];
        let provider = UniformProvider::new(engines, latency, 0.001);
        let sched_idx = pick(&mut st, NUM_SCHEDULERS);
        let sim = Simulator::new(SimConfig { duration_s: 1.0, seed });
        let fast = sim.run_session(&session, &provider, scheduler_for(sched_idx).as_mut());
        let slow = sim.run_session_reference(
            &session,
            &provider,
            scheduler_for(sched_idx).as_mut(),
        );
        prop_assert_eq!(
            fast,
            slow,
            "engines diverge: {} users, {} engines, {}s latency, scheduler {}",
            users,
            engines,
            latency,
            sched_idx % NUM_SCHEDULERS
        );
        // Fold must stream the same records Collect keeps, in the same
        // order, with the same stats.
        let mut folded: Vec<(u32, ExecRecord)> = Vec::new();
        let fold = sim.run_session_folded(
            &session,
            &provider,
            scheduler_for(sched_idx).as_mut(),
            &mut |user, rec| folded.push((user, rec.clone())),
        );
        let collected: Vec<(u32, ExecRecord)> = fast
            .per_user
            .iter()
            .flat_map(|(u, r)| r.records.iter().map(move |rec| (*u, rec.clone())))
            .collect();
        let mut by_user = folded.clone();
        by_user.sort_by_key(|&(u, _)| u);
        prop_assert_eq!(by_user, collected, "folded records diverge from collected");
        for ((u, r), (uf, rf)) in fast.per_user.iter().zip(fold.per_user.iter()) {
            prop_assert_eq!(u, uf);
            prop_assert_eq!(&r.stats, &rf.stats, "fold mode changed stats");
        }
    }

    #[test]
    fn calendar_engine_matches_naive_loop_on_heterogeneous_engines(
        structure in 0u64..u64::MAX,
        seed in 0u64..5000,
    ) {
        // The fault-free differential on unequal engines. With equal
        // engines "the fastest free engine meets the deadline" and
        // "some free engine meets it" always agree; drawn per-engine
        // latencies with ties and a slow engine make them differ, which
        // is what the slack-aware kernel's closed form must get right.
        let mut st = structure;
        let spec_count = 1 + pick(&mut st, 3);
        let specs: Vec<ScenarioSpec> = (0..spec_count)
            .map(|i| random_spec(&mut st, &format!("hrand-{i}")))
            .collect();
        let users = 1 + pick(&mut st, 6) as u32;
        let stagger = [0.0, 0.003, 0.017][pick(&mut st, 3)];
        let session = SessionSpec::mixed("heterogeneous", &specs, users, stagger);
        let engines = 2 + pick(&mut st, 4);
        let provider = random_table(&mut st, engines);
        let sim = Simulator::new(SimConfig { duration_s: 1.0, seed });
        for sched_idx in 0..NUM_SCHEDULERS {
            let fast = sim.run_session(&session, &provider, scheduler_for(sched_idx).as_mut());
            let slow = sim.run_session_reference(
                &session,
                &provider,
                scheduler_for(sched_idx).as_mut(),
            );
            prop_assert_eq!(
                fast,
                slow,
                "engines diverge: {} users, {} engines, scheduler {}",
                users,
                engines,
                sched_idx
            );
        }
    }

    #[test]
    fn calendar_engine_matches_naive_loop_under_faults(
        structure in 0u64..u64::MAX,
        seed in 0u64..5000,
    ) {
        // The faulted differential: on randomized sessions with engine
        // churn, preemption, and throttling, the production engine must
        // reproduce the reference loop exactly under every recovery
        // policy and every shipped scheduler, in both record modes.
        let mut st = structure;
        let spec_count = 1 + pick(&mut st, 2);
        let specs: Vec<ScenarioSpec> = (0..spec_count)
            .map(|i| random_spec(&mut st, &format!("frand-{i}")))
            .collect();
        let users = 1 + pick(&mut st, 4) as u32;
        let session = SessionSpec::mixed("faulted-differential", &specs, users, 0.003);
        let engines = 2 + pick(&mut st, 3);
        let latency = [0.0008, 0.004, 0.02][pick(&mut st, 3)];
        let provider = UniformProvider::new(engines, latency, 0.001);
        let faults = FaultProcess {
            failure_rate_per_s: 1.0 + (pick(&mut st, 4) as f64),
            mean_downtime_s: 0.01 + 0.02 * pick(&mut st, 4) as f64,
            preemption_rate_per_s: pick(&mut st, 3) as f64 * 2.0,
            mean_preemption_s: 0.01,
            throttle: if pick(&mut st, 2) == 0 {
                None
            } else {
                Some(xrbench::sim::ThrottleSpec { period_s: 0.3, duty: 0.4, factor: 0.5 })
            },
        };
        let sched_idx = pick(&mut st, NUM_SCHEDULERS);
        let policy = RecoveryPolicy::ALL[pick(&mut st, RecoveryPolicy::ALL.len())];
        let sim = Simulator::new(SimConfig { duration_s: 1.0, seed });
        let fast = sim.run_session_faulted(
            &session,
            &provider,
            scheduler_for(sched_idx).as_mut(),
            &faults,
            policy,
        );
        let slow = sim.run_session_faulted_reference(
            &session,
            &provider,
            scheduler_for(sched_idx).as_mut(),
            &faults,
            policy,
        );
        prop_assert_eq!(
            &fast,
            &slow,
            "faulted engines diverge: {} users, {} engines, {}s latency, \
             scheduler {}, policy {}",
            users,
            engines,
            latency,
            sched_idx % NUM_SCHEDULERS,
            policy
        );
        // Fold mode under faults streams at completion: nondecreasing
        // in `t_end`, and per user the stable start-time sort of the
        // stream is the reference loop's record vector.
        let mut folded: Vec<(u32, ExecRecord)> = Vec::new();
        let fold = sim.run_session_folded_faulted(
            &session,
            &provider,
            scheduler_for(sched_idx).as_mut(),
            &faults,
            policy,
            &mut |user, rec| folded.push((user, rec.clone())),
        );
        prop_assert!(
            folded.windows(2).all(|w| w[0].1.t_end <= w[1].1.t_end),
            "faulted fold stream is not in completion order"
        );
        for ((u, r), (uf, rf)) in slow.per_user.iter().zip(fold.per_user.iter()) {
            prop_assert_eq!(u, uf);
            let mut stream: Vec<ExecRecord> = folded
                .iter()
                .filter(|(user, _)| user == u)
                .map(|(_, rec)| rec.clone())
                .collect();
            stream.sort_by(|a, b| a.t_start.total_cmp(&b.t_start));
            prop_assert_eq!(&stream, &r.records, "faulted fold stream diverges for user {}", u);
            prop_assert_eq!(&r.stats, &rf.stats, "faulted fold changed stats for user {}", u);
        }
    }
}

/// A stream over four camera models whose deadlines hit the slack-aware
/// rule's edges: a deadline salvageable only through the `1e-15`
/// tolerance, positive and negative NaN, and both infinities. Hand
/// tracking always has an infinite deadline.
fn edge_requests() -> Vec<InferenceRequest> {
    use ModelId::{DepthEstimation, EyeSegmentation, HandTracking, ObjectDetection};
    let inf = f64::INFINITY;
    let mut reqs = vec![
        (0.0, HandTracking, inf),
        (0.0, DepthEstimation, 0.1 - 5e-16),
        (0.0, EyeSegmentation, f64::NAN),
        (0.0, ObjectDetection, 1.0),
        (0.01, EyeSegmentation, -f64::NAN),
        (0.01, ObjectDetection, f64::NEG_INFINITY),
    ];
    let models = [
        HandTracking,
        EyeSegmentation,
        DepthEstimation,
        ObjectDetection,
    ];
    let slack = [0.05, f64::NAN, inf, 0.3, f64::NEG_INFINITY, -f64::NAN, 0.12];
    for i in 0..32 {
        let t = 0.02 + 0.03 * i as f64;
        let deadline = match models[i % 4] {
            HandTracking => inf,
            _ => t + slack[i % slack.len()],
        };
        reqs.push((t, models[i % 4], deadline));
    }
    let mut next_frame = [0u64; 11];
    reqs.into_iter()
        .map(|(t_req, model, t_deadline)| {
            let frame = &mut next_frame[model as usize];
            *frame += 1;
            InferenceRequest {
                model,
                frame_id: *frame,
                sensor_frame: *frame,
                t_req,
                t_deadline,
            }
        })
        .collect()
}

/// Four engines: hand tracking runs at `hand_on_0` on engine 0, depth
/// estimation takes exactly 0.1 s on engines 0–2, engine 3 is slow.
fn edge_provider(hand_on_0: f64) -> TableProvider {
    use ModelId::{DepthEstimation, HandTracking};
    TableProvider::from_fn(4, |model, e| InferenceCost {
        latency_s: match (model, e) {
            (HandTracking, 0) => hand_on_0,
            (DepthEstimation, 3) => 0.3,
            (DepthEstimation, _) => 0.1,
            (_, 3) => 0.08,
            _ => 0.004,
        },
        energy_j: 0.001,
    })
}

fn edge_spec() -> ScenarioSpec {
    use ModelId::{DepthEstimation, EyeSegmentation, HandTracking, ObjectDetection};
    ScenarioBuilder::new("edges")
        .model(HandTracking, 30.0)
        .model(EyeSegmentation, 30.0)
        .model(DepthEstimation, 30.0)
        .model(ObjectDetection, 30.0)
        .build()
        .expect("valid edge spec")
}

/// Runs the edge stream through the engine and the reference loop and
/// returns both results as text: NaN fields defeat `PartialEq`, and
/// `Debug` prints every float exactly, so equal text is equal output.
/// The engine's result comes back too.
fn edge_run(provider: &TableProvider, idx: usize) -> (String, String, SimResult) {
    let sim = Simulator::new(SimConfig {
        duration_s: 1.0,
        seed: 7,
    });
    let spec = edge_spec();
    let fast = sim.run_requests(
        &spec,
        edge_requests(),
        provider,
        scheduler_for(idx).as_mut(),
    );
    let slow = sim.run_requests_reference(
        &spec,
        edge_requests(),
        provider,
        scheduler_for(idx).as_mut(),
    );
    (format!("{fast:?}"), format!("{slow:?}"), fast)
}

/// Four engines where engine 0 costs `latency` (a NaN or infinity)
/// for every model, so every scheduler places work on it.
fn nan_engine_provider(latency: f64) -> TableProvider {
    TableProvider::from_fn(4, |model, e| InferenceCost {
        latency_s: if e == 0 {
            latency
        } else {
            edge_provider(0.006).cost(model, e).latency_s
        },
        energy_j: 0.001,
    })
}

#[test]
fn engine_matches_naive_loop_on_nan_and_infinite_edges() {
    // NaN, infinite, and tolerance-edge deadlines under every
    // scheduler.
    for idx in 0..NUM_SCHEDULERS {
        let (fast, slow, result) = edge_run(&edge_provider(0.006), idx);
        assert_eq!(
            fast, slow,
            "engines diverge on edge deadlines, scheduler {idx}"
        );
        let ran = result.records.len();
        assert!(ran > 30, "edge stream barely ran: {ran} records");
    }
    // A NaN-latency engine: a dispatch there never completes, so the
    // engine stays busy for the rest of the run in both loops. Negative
    // NaN ranks fastest under `total_cmp`, so every scheduler places
    // work on it; positive NaN ranks slowest.
    for latency in [-f64::NAN, f64::NAN] {
        for idx in 0..NUM_SCHEDULERS {
            let (fast, slow, result) = edge_run(&nan_engine_provider(latency), idx);
            assert_eq!(
                fast, slow,
                "engines diverge with a {latency} engine, scheduler {idx}"
            );
            let on_nan = result.records.iter().filter(|r| r.t_end.is_nan()).count();
            if latency.is_sign_negative() {
                assert_eq!(on_nan, 1, "scheduler {idx} must use the NaN engine once");
            }
        }
    }
    // Slack-aware EDF with a NaN latency for hand tracking alone: a
    // kernel that judged hand tracking against it would find nothing
    // salvageable.
    let (fast, slow, _) = edge_run(&edge_provider(-f64::NAN), 2);
    assert_eq!(
        fast, slow,
        "slack-aware kernel diverges with a NaN-latency engine"
    );
}

#[test]
fn engine_matches_naive_loop_on_never_ending_dispatches() {
    // NaN and infinite latencies in sessions with cascades, fault-free
    // and faulted. A never-ending dispatch never resolves its
    // dependents, and a negative-NaN one sorts first without blocking
    // the completions behind it. Under faults, outages revoke
    // never-ending dispatches and recover them per policy (a migrated
    // NaN dispatch carries a NaN remaining-work fraction), and the ones
    // still open at the end are emitted in the total completion order.
    let specs = [edge_spec(), UsageScenario::ArAssistant.spec()];
    let session = SessionSpec::mixed("never-ending", &specs, 4, 0.003);
    let faults = FaultProcess {
        failure_rate_per_s: 4.0,
        mean_downtime_s: 0.03,
        preemption_rate_per_s: 2.0,
        mean_preemption_s: 0.01,
        throttle: None,
    };
    let sim = Simulator::new(SimConfig {
        duration_s: 1.0,
        seed: 11,
    });
    for latency in [-f64::NAN, f64::NAN, f64::INFINITY] {
        let provider = nan_engine_provider(latency);
        for idx in 0..NUM_SCHEDULERS {
            let fast = sim.run_session(&session, &provider, scheduler_for(idx).as_mut());
            let slow = sim.run_session_reference(&session, &provider, scheduler_for(idx).as_mut());
            assert_eq!(
                format!("{fast:?}"),
                format!("{slow:?}"),
                "engines diverge with a {latency} engine, scheduler {idx}"
            );
            for policy in RecoveryPolicy::ALL {
                let run = |reference: bool| {
                    let mut sched = scheduler_for(idx);
                    let r = if reference {
                        sim.run_session_faulted_reference(
                            &session,
                            &provider,
                            sched.as_mut(),
                            &faults,
                            policy,
                        )
                    } else {
                        sim.run_session_faulted(
                            &session,
                            &provider,
                            sched.as_mut(),
                            &faults,
                            policy,
                        )
                    };
                    format!("{r:?}")
                };
                assert_eq!(
                    run(false),
                    run(true),
                    "faulted engines diverge with a {latency} engine, scheduler {idx}, {policy}"
                );
            }
        }
    }
}
