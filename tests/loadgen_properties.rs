//! Property tests for the load generator (Definitions 7 and 8),
//! exercised across *random* scenario specs from `ScenarioBuilder` —
//! not just the seven built-ins:
//!
//! * request-time jitter stays within `±Jt` of the nominal frame time;
//! * deadlines are un-jittered (they sit exactly on the sensor's
//!   frame grid) and monotone per model;
//! * frame ids are gapless per model (`0, 1, 2, ...`);
//! * the lazily merged stream is exactly the eager reference: every
//!   request drawn up front, each user's requests shifted by its
//!   offset, then one comparator sort.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xrbench::models::ModelId;
use xrbench::prelude::*;
use xrbench::workload::{source_spec, InferenceRequest, SessionRequest};

/// A random valid scenario: a non-empty subset of the model zoo, each
/// at a random rate the driving sensor can actually deliver
/// (`fps = sensor_fps / divisor`).
fn random_spec(selector: u64, divisors: u64) -> ScenarioSpec {
    let mut b = ScenarioBuilder::new(format!("random-{selector:x}"));
    let mut any = false;
    for (i, model) in ModelId::ALL.into_iter().enumerate() {
        // Bit i of the selector decides membership.
        if selector >> i & 1 == 1 {
            let d = ((divisors >> (i * 5)) & 0x1F) % 6 + 1;
            let d = d as f64;
            let fps = source_spec(model.driving_source()).fps / d;
            b = b.model(model, fps);
            any = true;
        }
    }
    if !any {
        // Empty subset: fall back to a single-model scenario.
        b = b.model(ModelId::HandTracking, 30.0);
    }
    b.build().expect("random spec is valid by construction")
}

/// A random valid scenario whose `spec.models` order is shuffled, so
/// spec positions and `ModelId` order disagree.
fn shuffled_spec(st: &mut u64) -> ScenarioSpec {
    let mut models: Vec<(u64, ModelId)> = Vec::new();
    for m in ModelId::ALL {
        if pick(st, 2) == 0 {
            models.push((pick(st, 1000), m));
        }
    }
    if models.is_empty() {
        models.push((0, ModelId::GazeEstimation));
    }
    models.sort_unstable();
    let mut b = ScenarioBuilder::new("shuffled");
    for (_, model) in models {
        let divisor = [1.0, 1.0, 2.0, 4.0 / 3.0, 6.0][pick(st, 5) as usize];
        b = b.model(model, source_spec(model.driving_source()).fps / divisor);
    }
    b.build().expect("shuffled spec is valid by construction")
}

/// A small deterministic generator for test structure.
fn pick(st: &mut u64, n: u64) -> u64 {
    *st = st
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    (*st >> 33) % n
}

/// The eager reference for one scenario: each model's requests drawn
/// in a plain loop over `k` (Definitions 7–8, Box–Muller jitter), then
/// a stable sort by `t_req` — ties stay in spec position order.
fn eager_scenario(seed: u64, spec: &ScenarioSpec, duration_s: f64) -> Vec<InferenceRequest> {
    let mut out = Vec::new();
    for sm in &spec.models {
        let src = source_spec(sm.model.driving_source());
        let mut rng =
            StdRng::seed_from_u64(seed ^ (sm.model as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let ratio = src.fps / sm.target_fps;
        let (linit, jt) = (src.init_latency_ms / 1e3, src.jitter_ms / 1e3);
        for k in 0..(sm.target_fps * duration_s).ceil() as u64 {
            let sensor_frame = (k as f64 * ratio).floor() as u64;
            let next_frame = ((k + 1) as f64 * ratio).floor() as u64;
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let jitter = 2.0 * jt * ((0.5 + 0.25 * z).clamp(0.0, 1.0) - 0.5);
            out.push(InferenceRequest {
                model: sm.model,
                frame_id: k,
                sensor_frame,
                t_req: linit + sensor_frame as f64 / src.fps + jitter,
                t_deadline: linit + next_frame as f64 / src.fps,
            });
        }
    }
    out.sort_by(|a, b| a.t_req.total_cmp(&b.t_req));
    out
}

/// The eager reference for a session: per-user eager generation,
/// shifted by the user's offset, then one sort by
/// `(t_req, user, model, frame_id)`.
fn eager_session(session: &SessionSpec, seed: u64, duration_s: f64) -> Vec<SessionRequest> {
    let mut out = Vec::new();
    for u in &session.users {
        let user_seed = seed ^ u64::from(u.user).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        for mut req in eager_scenario(user_seed, &u.spec, duration_s) {
            req.t_req += u.start_offset_s;
            req.t_deadline += u.start_offset_s;
            out.push(SessionRequest { user: u.user, req });
        }
    }
    out.sort_by(|a, b| {
        a.req
            .t_req
            .total_cmp(&b.req.t_req)
            .then(a.user.cmp(&b.user))
            .then(a.req.model.cmp(&b.req.model))
            .then(a.req.frame_id.cmp(&b.req.frame_id))
    });
    out
}

/// Counts adjacent exact `t_req` ties.
fn ties<T>(items: &[T], t: impl Fn(&T) -> f64) -> usize {
    items.windows(2).filter(|w| t(&w[0]) == t(&w[1])).count()
}

fn per_model(reqs: &[InferenceRequest]) -> Vec<(ModelId, Vec<&InferenceRequest>)> {
    ModelId::ALL
        .into_iter()
        .map(|m| (m, reqs.iter().filter(|r| r.model == m).collect::<Vec<_>>()))
        .filter(|(_, v)| !v.is_empty())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn jitter_bounded_by_jt_for_any_builder_spec(
        selector in 1u64..(1 << 11),
        divisors in any::<u64>(),
        seed in 0u64..10_000,
        duration_ds in 1u32..30,
    ) {
        let spec = random_spec(selector, divisors);
        let duration = f64::from(duration_ds) / 10.0;
        let reqs = LoadGenerator::new(seed).generate(&spec, duration);
        for r in &reqs {
            let src = source_spec(r.model.driving_source());
            // Definition 7: Treq = Linit + frame/FPS + 2·Jt·(Dist−0.5),
            // with Dist ∈ [0, 1] ⇒ |Treq − nominal| ≤ Jt.
            let nominal = src.init_latency_ms / 1e3 + r.sensor_frame as f64 / src.fps;
            prop_assert!(
                (r.t_req - nominal).abs() <= src.jitter_ms / 1e3 + 1e-12,
                "{}: jitter {} exceeds Jt {}",
                r.model,
                (r.t_req - nominal).abs(),
                src.jitter_ms / 1e3
            );
        }
    }

    #[test]
    fn deadlines_unjittered_and_monotone(
        selector in 1u64..(1 << 11),
        divisors in any::<u64>(),
        seed in 0u64..10_000,
    ) {
        let spec = random_spec(selector, divisors);
        let reqs = LoadGenerator::new(seed).generate(&spec, 1.0);
        for (model, rs) in per_model(&reqs) {
            let src = source_spec(model.driving_source());
            let linit = src.init_latency_ms / 1e3;
            let mut sorted = rs.clone();
            sorted.sort_by_key(|r| r.frame_id);
            for w in sorted.windows(2) {
                // Definition 8: deadlines advance with consumed frames.
                prop_assert!(
                    w[1].t_deadline > w[0].t_deadline,
                    "{model}: deadline not monotone"
                );
            }
            for r in &sorted {
                // Un-jittered: Tdl sits exactly on the sensor grid.
                let frames = (r.t_deadline - linit) * src.fps;
                prop_assert!(
                    (frames - frames.round()).abs() < 1e-6,
                    "{model}: deadline {} off the frame grid",
                    r.t_deadline
                );
                // And it is the *next* consumed frame: strictly after
                // the un-jittered arrival.
                let nominal = linit + r.sensor_frame as f64 / src.fps;
                prop_assert!(r.t_deadline > nominal, "{model}: deadline not in the future");
            }
        }
    }

    #[test]
    fn frame_ids_gapless_per_model(
        selector in 1u64..(1 << 11),
        divisors in any::<u64>(),
        seed in 0u64..10_000,
        duration_ds in 1u32..25,
    ) {
        let spec = random_spec(selector, divisors);
        let duration = f64::from(duration_ds) / 10.0;
        let reqs = LoadGenerator::new(seed).generate(&spec, duration);
        for (model, rs) in per_model(&reqs) {
            let mut ids: Vec<u64> = rs.iter().map(|r| r.frame_id).collect();
            ids.sort_unstable();
            let expect: Vec<u64> = (0..ids.len() as u64).collect();
            prop_assert_eq!(&ids, &expect, "{} has frame-id gaps", model);
            // And the count honors the target rate over the duration.
            let target = spec.model(model).unwrap().target_fps;
            prop_assert_eq!(
                ids.len() as u64,
                (target * duration).ceil() as u64,
                "{} emitted the wrong number of requests",
                model
            );
        }
    }

    #[test]
    fn sensor_frames_monotone_per_model(
        selector in 1u64..(1 << 11),
        divisors in any::<u64>(),
        seed in 0u64..10_000,
    ) {
        // Consumed sensor frames never repeat or regress: the skip
        // pattern is strictly increasing.
        let spec = random_spec(selector, divisors);
        let reqs = LoadGenerator::new(seed).generate(&spec, 1.0);
        for (model, rs) in per_model(&reqs) {
            let mut sorted = rs.clone();
            sorted.sort_by_key(|r| r.frame_id);
            for w in sorted.windows(2) {
                prop_assert!(
                    w[1].sensor_frame > w[0].sensor_frame,
                    "{model}: sensor frames not strictly increasing"
                );
            }
        }
    }

    #[test]
    fn session_streams_inherit_loadgen_properties(
        users in 1u32..6,
        stagger_ms in 0u32..100,
        seed in 0u64..10_000,
    ) {
        // The merged multi-user stream preserves per-user jitter
        // bounds and gapless frame ids after the offset shift.
        let spec = UsageScenario::VrGaming.spec();
        let stagger = f64::from(stagger_ms) / 1e3;
        let session = SessionSpec::uniform("prop", spec, users, stagger);
        let merged = session.generate(seed, 1.0);
        for u in 0..users {
            let offset = f64::from(u) * stagger;
            for sr in merged.iter().filter(|r| r.user == u) {
                let src = source_spec(sr.req.model.driving_source());
                let nominal =
                    offset + src.init_latency_ms / 1e3 + sr.req.sensor_frame as f64 / src.fps;
                prop_assert!((sr.req.t_req - nominal).abs() <= src.jitter_ms / 1e3 + 1e-12);
            }
            let mut ht: Vec<u64> = merged
                .iter()
                .filter(|r| r.user == u && r.req.model == ModelId::HandTracking)
                .map(|r| r.req.frame_id)
                .collect();
            ht.sort_unstable();
            let expect: Vec<u64> = (0..ht.len() as u64).collect();
            prop_assert_eq!(ht, expect);
        }
    }

    #[test]
    fn merged_scenario_stream_matches_the_eager_reference(
        structure in any::<u64>(),
        seed in 0u64..10_000,
        duration_ds in 1u32..40,
    ) {
        // Single-scenario order: (t_req, position in spec.models), the
        // order a stable sort gives — spec positions are shuffled
        // against ModelId order so the two tie-breaks disagree.
        let mut st = structure;
        let spec = shuffled_spec(&mut st);
        let duration = f64::from(duration_ds) / 10.0;
        let streamed = LoadGenerator::new(seed).generate(&spec, duration);
        prop_assert_eq!(streamed, eager_scenario(seed, &spec, duration));
    }

    #[test]
    fn merged_session_stream_matches_the_eager_reference(
        structure in any::<u64>(),
        seed in 0u64..10_000,
        duration_ds in 1u32..25,
    ) {
        // Session order: (t_req, user, ModelId, frame_id), over one to
        // six users with zero stagger, equal nonzero offsets, a regular
        // stagger, or arbitrary (non-monotone) join times.
        let mut st = structure;
        let specs: Vec<ScenarioSpec> = (0..1 + pick(&mut st, 3)).map(|_| shuffled_spec(&mut st)).collect();
        let users = 1 + pick(&mut st, 6) as u32;
        let mut session = SessionSpec::new("merge");
        for u in 0..users {
            let offset = match pick(&mut st, 4) {
                0 => 0.0,
                1 => 0.125,
                2 => f64::from(u) * 0.003,
                _ => pick(&mut st, 500) as f64 * 1e-3,
            };
            session = session.with_user(specs[u as usize % specs.len()].clone(), offset);
        }
        let duration = f64::from(duration_ds) / 10.0;
        let streamed = session.generate(seed, duration);
        prop_assert_eq!(streamed, eager_session(&session, seed, duration));
    }
}

/// Exact `t_req` ties are real: at seed 0, gaze estimation and eye
/// segmentation (both 60 FPS on the eye camera) have their jitter
/// clamped to the same bound on frame 20. The two merge rules break the
/// tie differently, and both match their eager reference.
#[test]
fn clamped_jitter_ties_follow_each_merge_rule() {
    use ModelId::{EyeSegmentation, GazeEstimation};
    let spec = ScenarioBuilder::new("tie")
        .model(GazeEstimation, 60.0)
        .model(EyeSegmentation, 60.0)
        .build()
        .expect("valid tie spec");
    let scenario = LoadGenerator::new(0).generate(&spec, 1.0);
    assert_eq!(scenario, eager_scenario(0, &spec, 1.0));
    let at = |m: ModelId| {
        scenario
            .iter()
            .position(|r| r.model == m && r.frame_id == 20)
            .expect("frame 20")
    };
    let (ge, es) = (at(GazeEstimation), at(EyeSegmentation));
    assert_eq!(
        scenario[ge].t_req, scenario[es].t_req,
        "the pinned tie is gone"
    );
    assert_eq!(ties(&scenario, |r| r.t_req), 1);
    // Spec position: gaze estimation was added first.
    assert_eq!(es, ge + 1);

    // User 0 of a session draws the same stream; ModelId order puts
    // eye segmentation first.
    let session = SessionSpec::uniform("tie", spec, 2, 0.0);
    let merged = session.generate(0, 1.0);
    assert_eq!(merged, eager_session(&session, 0, 1.0));
    let user0: Vec<&SessionRequest> = merged.iter().filter(|r| r.user == 0).collect();
    let (ge, es) = (
        user0
            .iter()
            .position(|r| r.req.model == GazeEstimation && r.req.frame_id == 20),
        user0
            .iter()
            .position(|r| r.req.model == EyeSegmentation && r.req.frame_id == 20),
    );
    assert_eq!(ge, es.map(|i| i + 1));
}
