//! The merged request stream: lazy per-`(user, model)` request streams
//! merged into one time-ordered arrival sequence.
//!
//! Every model of every user drives its own jittered per-frame stream
//! (Box 1, Definitions 7–8). A consumer only ever needs those streams
//! in merged time order, one request at a time, so [`MergedStream`]
//! draws each request only when the merge reaches it instead of
//! materializing and sorting all of them.
//!
//! **Why a windowed merge is exact.** For every source of Table 3,
//! `2·Jt` is smaller than the frame period, and a stream's consumed
//! sensor frames strictly increase, so each stream is strictly
//! increasing in `t_req` (the merge asserts it). Time is cut into
//! windows of width `W`, and every stream is indexed in the ring bucket
//! `⌊(t − t₀)/W⌋ mod ring` of its next request. Visiting the windows in
//! order, the merge drains the current bucket's streams for every
//! request inside the window, sorts that small batch by the total key
//! below, and emits it. The window index is a monotone function of
//! `t_req`, so batches never overlap in time and their concatenation is
//! the total order. `W` is at most half the smallest inter-request gap
//! (`period − 2·Jt`), so consecutive requests of a stream always land
//! in different windows and a batch holds at most one request per
//! stream. It shrinks (down to a sixteenth of the gap) as streams are
//! added, which keeps a batch near 64 requests; `W` only tunes speed,
//! never the order.
//!
//! **Tie-break.** Exact `t_req` ties happen: two same-sensor models
//! can both have their jitter clamped to `±Jt` on the same frame.
//! Session streams order by `(t_req, user, ModelId, frame_id)`;
//! single-scenario streams by `(t_req, position in spec.models)` — the
//! order a stable sort by `t_req` gives. Both are realized as
//! `(t_req, tie, frame_id, stream index)` with a per-stream `tie` word.
//!
//! **Memory.** The merge holds the stream state (`users × models`
//! lanes), the ring, and one window's batch — independent of the run
//! duration and of the request count. Every buffer is sized at
//! construction and never grows.

use crate::loadgen::{InferenceRequest, ModelStream};
use crate::session::SessionRequest;

/// End of a bucket list.
const NONE: u32 = u32::MAX;

/// Bounds on the windows per smallest inter-request gap. At least two,
/// so consecutive requests of one stream always fall in different
/// windows.
const MIN_WINDOWS_PER_GAP: f64 = 2.0;
const MAX_WINDOWS_PER_GAP: f64 = 16.0;

/// Lanes per window: a window is cut to hold about this many requests.
const LANES_PER_WINDOW: f64 = 64.0;

/// Upper bound on the ring length (streams slower than a lap simply
/// stay in their bucket for another lap).
const MAX_RING: usize = 1 << 12;

/// Maps an `f64` to a `u64` whose unsigned order equals
/// `f64::total_cmp` order.
#[inline]
fn time_bits(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// One stream and its next, not yet emitted, request.
#[derive(Debug, Clone)]
struct Lane {
    stream: ModelStream,
    user: u32,
    tie: u64,
    head: InferenceRequest,
    /// The window of `head`; `u64::MAX` once the stream is exhausted.
    head_window: u64,
}

/// A time-ordered merge of lazily drawn request streams — the arrival
/// sequence of a scenario ([`LoadGenerator::stream`]) or a session
/// ([`SessionSpec::stream`]). See the module docs for the ordering
/// argument.
///
/// [`LoadGenerator::stream`]: crate::LoadGenerator::stream
/// [`SessionSpec::stream`]: crate::SessionSpec::stream
#[derive(Debug, Clone)]
pub struct MergedStream {
    lanes: Vec<Lane>,
    /// First lane of each ring bucket, and each lane's successor in
    /// its bucket (intrusive lists: re-bucketing never allocates).
    bucket: Vec<u32>,
    link: Vec<u32>,
    mask: u64,
    /// `1 / W`, and the time of window 0.
    inv_width: f64,
    origin: f64,
    /// The last window drained.
    window: u64,
    /// Windows drained in a row without a request.
    idle: usize,
    /// Lanes with requests left.
    live: usize,
    /// The window being drained: its lanes, each packed as
    /// `time_bits(t_req) << 64 | lane` and sorted.
    batch: Vec<u128>,
    /// The drained window's requests in the total order, and how many
    /// have been handed out.
    out: Vec<SessionRequest>,
    taken: usize,
}

impl MergedStream {
    /// Merges `streams`, each given as `(user, tie, stream)`. Equal
    /// `t_req`s order by `tie`, then frame id, then position in
    /// `streams`.
    ///
    /// # Panics
    ///
    /// Panics if a stream's two-sided jitter `2·Jt` reaches its frame
    /// period: such a stream could go backwards.
    pub(crate) fn new(streams: Vec<(u32, u64, ModelStream)>) -> Self {
        assert!(streams.len() < NONE as usize, "too many request streams");
        let mut lanes = Vec::with_capacity(streams.len());
        let (mut min_gap, mut max_gap) = (f64::INFINITY, 0.0_f64);
        for (user, tie, mut stream) in streams {
            if let Some(head) = stream.next_request() {
                assert!(
                    stream.min_gap_s() > 0.0,
                    "requests for {} (user {user}) must have strictly increasing \
                     frame_id and sensor_frame, and t_req: its jitter spans a frame period",
                    head.model
                );
                min_gap = min_gap.min(stream.min_gap_s());
                max_gap = max_gap.max(stream.max_gap_s());
                lanes.push(Lane {
                    stream,
                    user,
                    tie,
                    head,
                    head_window: 0,
                });
            }
        }
        let per_gap =
            (lanes.len() as f64 / LANES_PER_WINDOW).clamp(MIN_WINDOWS_PER_GAP, MAX_WINDOWS_PER_GAP);
        let width = min_gap / per_gap;
        let ring = (((max_gap / width).ceil().min(MAX_RING as f64) as usize) + 2)
            .next_power_of_two()
            .min(MAX_RING);
        let origin = lanes
            .iter()
            .map(|l| l.head.t_req)
            .fold(f64::INFINITY, f64::min);
        let mut merged = Self {
            bucket: vec![NONE; ring],
            link: vec![NONE; lanes.len()],
            mask: ring as u64 - 1,
            inv_width: 1.0 / width,
            origin,
            window: 0,
            idle: 0,
            live: lanes.len(),
            batch: Vec::with_capacity(lanes.len()),
            out: Vec::with_capacity(lanes.len()),
            taken: 0,
            lanes,
        };
        for i in 0..merged.lanes.len() {
            let w = merged.window_of(merged.lanes[i].head.t_req);
            merged.lanes[i].head_window = w;
            merged.insert(i as u32, w);
        }
        // One before the earliest window: the first drain takes it.
        let first = merged.lanes.iter().map(|l| l.head_window).min();
        merged.window = first.unwrap_or(0).wrapping_sub(1);
        merged
    }

    /// The window holding time `t` (monotone in `t`).
    #[inline]
    fn window_of(&self, t: f64) -> u64 {
        ((t - self.origin) * self.inv_width) as u64
    }

    #[inline]
    fn insert(&mut self, lane: u32, window: u64) {
        let b = (window & self.mask) as usize;
        self.link[lane as usize] = self.bucket[b];
        self.bucket[b] = lane;
    }

    /// Drains the next window: its requests replace `out`, in the total
    /// order, and each of its lanes draws its next request. After a
    /// full lap of empty windows it jumps straight to the earliest
    /// pending one instead.
    fn drain_window(&mut self) {
        self.batch.clear();
        self.out.clear();
        self.taken = 0;
        let w = self.window.wrapping_add(1);
        self.window = w;
        let b = (w & self.mask) as usize;
        let mut cur = std::mem::replace(&mut self.bucket[b], NONE);
        while cur != NONE {
            let next = self.link[cur as usize];
            let lane = &self.lanes[cur as usize];
            if lane.head_window == w {
                self.batch
                    .push(u128::from(time_bits(lane.head.t_req)) << 64 | u128::from(cur));
            } else {
                // Due a lap or more later.
                self.insert(cur, lane.head_window);
            }
            cur = next;
        }
        if self.batch.is_empty() {
            self.idle += 1;
            if self.idle > self.bucket.len() {
                self.idle = 0;
                let earliest = self.lanes.iter().map(|l| l.head_window).min();
                self.window = earliest.unwrap_or(w).wrapping_sub(1);
            }
            return;
        }
        self.idle = 0;
        self.batch.sort_unstable();
        self.order_ties();
        for k in 0..self.batch.len() {
            let lane = &self.lanes[self.batch[k] as usize];
            self.out.push(SessionRequest {
                user: lane.user,
                req: lane.head.clone(),
            });
        }
        for k in 0..self.batch.len() {
            self.advance(self.batch[k] as u32);
        }
    }

    /// Exact `t_req` ties are rare: orders each tied run of the sorted
    /// batch by the full key.
    fn order_ties(&mut self) {
        let mut i = 1;
        while i < self.batch.len() {
            let t = self.batch[i - 1] >> 64;
            if self.batch[i] >> 64 != t {
                i += 1;
                continue;
            }
            let start = i - 1;
            while i < self.batch.len() && self.batch[i] >> 64 == t {
                i += 1;
            }
            // The rest of the total key: `(tie, frame_id, lane)`.
            let lanes = &self.lanes;
            self.batch[start..i].sort_unstable_by_key(|&k| {
                let lane = &lanes[k as u32 as usize];
                (lane.tie, lane.head.frame_id, k as u32)
            });
        }
    }

    /// Draws lane `i`'s next request and files it under its window.
    ///
    /// # Panics
    ///
    /// Panics if the stream goes backwards: the merge (and the engine's
    /// freshness policy) rely on strictly increasing per-stream
    /// `frame_id`, `sensor_frame` and `t_req`.
    fn advance(&mut self, i: u32) {
        let lane = &mut self.lanes[i as usize];
        let Some(next) = lane.stream.next_request() else {
            lane.head_window = u64::MAX;
            self.live -= 1;
            return;
        };
        assert!(
            next.frame_id > lane.head.frame_id
                && next.sensor_frame > lane.head.sensor_frame
                && next.t_req > lane.head.t_req,
            "requests for {} (user {}) must have strictly increasing \
             frame_id and sensor_frame, and t_req",
            next.model,
            lane.user
        );
        let t = next.t_req;
        lane.head = next;
        let w = self.window_of(t);
        // At least two windows per gap: the next request is always in
        // a later window.
        assert!(w > self.window, "request stream outpaced its merge window");
        self.lanes[i as usize].head_window = w;
        self.insert(i, w);
    }
}

impl Iterator for MergedStream {
    type Item = SessionRequest;

    #[inline]
    fn next(&mut self) -> Option<SessionRequest> {
        while self.taken == self.out.len() {
            if self.live == 0 {
                return None;
            }
            self.drain_window();
        }
        let req = self.out[self.taken].clone();
        self.taken += 1;
        Some(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ScenarioModel, UsageScenario};
    use crate::sources::source_spec;
    use crate::{LoadGenerator, SessionSpec};
    use xrbench_models::ModelId;

    #[test]
    fn a_single_stream_comes_out_in_frame_order() {
        let sm = ScenarioModel {
            model: ModelId::KeywordDetection,
            target_fps: 3.0,
            deps: Vec::new(),
        };
        let src = source_spec(sm.model.driving_source());
        let merged = MergedStream::new(vec![(0, 0, ModelStream::new(5, &sm, src, 4.0, 0.0))]);
        let frames: Vec<u64> = merged.map(|r| r.req.frame_id).collect();
        assert_eq!(frames, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn far_apart_users_skip_the_idle_gap() {
        // A user joining ten minutes in leaves ~10⁶ empty windows; the
        // merge must jump them, and still emit everything in order.
        let spec = UsageScenario::VrGaming.spec();
        let session = SessionSpec::new("gap")
            .with_user(spec.clone(), 0.0)
            .with_user(spec, 600.0);
        let reqs: Vec<SessionRequest> = session.stream(1, 1.0).collect();
        assert_eq!(reqs.len(), 2 * 165);
        assert!(reqs.windows(2).all(|w| w[0].req.t_req <= w[1].req.t_req));
        assert!(reqs[..165].iter().all(|r| r.user == 0));
    }

    #[test]
    fn window_batches_never_outgrow_the_lane_count() {
        let spec = UsageScenario::SocialInteractionA.spec();
        let mut merged = LoadGenerator::new(3).stream(&spec, 2.0);
        let (lanes, out) = (merged.lanes.len(), merged.out.capacity());
        while merged.next().is_some() {
            assert!(merged.batch.len() <= lanes);
        }
        assert_eq!(merged.batch.capacity(), lanes);
        assert_eq!(merged.out.capacity(), out);
    }

    #[test]
    #[should_panic(expected = "strictly increasing frame_id and sensor_frame")]
    fn a_repeated_sensor_frame_panics() {
        // A target rate a hair above the sensor's (within the builder's
        // tolerance) consumes sensor frame 0 twice.
        let sm = ScenarioModel {
            model: ModelId::HandTracking,
            target_fps: 60.0 * (1.0 + 1e-10),
            deps: Vec::new(),
        };
        let src = source_spec(sm.model.driving_source());
        let merged = MergedStream::new(vec![(0, 0, ModelStream::new(9, &sm, src, 1.0, 0.0))]);
        for _ in merged {}
    }

    #[test]
    #[should_panic(expected = "strictly increasing frame_id and sensor_frame")]
    fn a_stream_that_goes_backwards_panics() {
        // Jitter beyond the frame period could reorder the stream, so
        // the merge refuses it before emitting anything.
        let sm = ScenarioModel {
            model: ModelId::HandTracking,
            target_fps: 60.0,
            deps: Vec::new(),
        };
        let mut src = source_spec(sm.model.driving_source());
        src.jitter_ms = 500.0;
        let merged = MergedStream::new(vec![(0, 0, ModelStream::new(9, &sm, src, 1.0, 0.0))]);
        for _ in merged {}
    }
}
