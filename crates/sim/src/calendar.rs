//! Bucketed completion calendar (calendar queue) for the production
//! event engine.
//!
//! Completions in flight at any instant are bounded by the engine
//! count (plus a handful of degenerate sub-epsilon stragglers), so the
//! calendar holds `O(engines)` events — a regime where a classic
//! calendar queue beats a binary heap: insertion is an O(1) append
//! into the bucket at `⌊t / width⌋ mod NUM_BUCKETS`, and extraction
//! scans only the occupied buckets (tracked in one `u64` bitmask).
//!
//! **Bucket width derivation.** The width is sized so the in-flight
//! completion span spreads across the ring instead of piling into one
//! bucket: the first event pushed with a positive span past the drain
//! floor sets `width = span / (NUM_BUCKETS / 4)`, and whenever a later
//! event lands more than a full ring ahead of the drain floor the
//! width doubles until the ring covers it again (a rebuild touches at
//! most `O(engines)` queued events, so it amortizes to nothing).
//! Correctness never depends on the width — bucket indices wrap, and
//! every drain/minimum operation inspects the actual event times — so
//! the width only tunes how many non-due events a drain walks past.
//!
//! **Determinism.** Events drained for one timestamp cohort are
//! returned in arbitrary bucket order and then sorted by the total
//! [`CompletionEv`] order `(t, key, sensor_frame, token)` — exactly
//! the order the PR 3 binary heap popped them in — with an in-place
//! unstable sort (no two events compare equal: the dispatch token is
//! unique). No iteration order ever depends on addresses, hashing, or
//! wall-clock state, so the module passes the determinism lint with
//! zero allowlist entries.

use std::cmp::Ordering;

/// A completion event in the calendar.
///
/// `key` is the dense `(user, model)` key; `token` is the dispatch
/// sequence number, which both totalizes the ordering and lets the
/// engine-free side effect fire exactly once per dispatch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompletionEv {
    pub(crate) t: f64,
    pub(crate) key: u32,
    pub(crate) sensor_frame: u64,
    pub(crate) engine: u32,
    pub(crate) token: u64,
}

impl PartialEq for CompletionEv {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for CompletionEv {}

impl PartialOrd for CompletionEv {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CompletionEv {
    fn cmp(&self, other: &Self) -> Ordering {
        // Total deterministic order: time, then (user, model) via the
        // dense key, then sensor frame, then dispatch token.
        self.t
            .total_cmp(&other.t)
            .then_with(|| self.key.cmp(&other.key))
            .then_with(|| self.sensor_frame.cmp(&other.sensor_frame))
            .then_with(|| self.token.cmp(&other.token))
    }
}

/// Ring size: one `u64` occupancy bitmask covers the whole ring.
const NUM_BUCKETS: usize = 64;

/// The bucketed completion calendar. See the module docs for the
/// width derivation and the determinism argument.
pub(crate) struct CalendarQueue {
    buckets: Vec<Vec<CompletionEv>>,
    /// Bitmask of non-empty buckets.
    occupied: u64,
    /// Bucket width in seconds; `0.0` until the first positive-span
    /// push derives it.
    width: f64,
    /// The largest drain bound seen — new events land at or after it.
    floor_t: f64,
    len: usize,
}

impl CalendarQueue {
    /// A calendar pre-sized for `expected` concurrently-queued events
    /// (the engine count). Every bucket can hold the *entire* expected
    /// in-flight window — bucketing depends on the evolving width, so
    /// any one bucket may transiently receive every queued event —
    /// which keeps steady-state pushes off the allocator entirely.
    pub(crate) fn with_capacity(expected: usize) -> Self {
        let per_bucket = expected + 8;
        Self {
            buckets: (0..NUM_BUCKETS)
                .map(|_| Vec::with_capacity(per_bucket))
                .collect(),
            occupied: 0,
            width: 0.0,
            floor_t: 0.0,
            len: 0,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn bucket_of(&self, t: f64) -> usize {
        if self.width == 0.0 {
            0
        } else {
            // Saturating f64 → u64 cast keeps degenerate times finite
            // and deterministic; wrapping by the ring size is the
            // calendar-queue "year" construction.
            (t / self.width) as u64 as usize % NUM_BUCKETS
        }
    }

    /// Inserts an event: O(1) append, plus a rare O(len) width rebuild
    /// when the in-flight span outgrows the ring.
    pub(crate) fn push(&mut self, ev: CompletionEv) {
        let span = ev.t - self.floor_t;
        if span > 0.0 {
            if self.width == 0.0 {
                self.width = span / (NUM_BUCKETS / 4) as f64;
                self.rebuild();
            } else if span > self.width * NUM_BUCKETS as f64 {
                while span > self.width * NUM_BUCKETS as f64 {
                    self.width *= 2.0;
                }
                self.rebuild();
            }
        }
        let b = self.bucket_of(ev.t);
        self.buckets[b].push(ev);
        self.occupied |= 1 << b;
        self.len += 1;
    }

    /// Re-buckets every queued event after a width change. Touches at
    /// most the in-flight window (O(engines) events).
    fn rebuild(&mut self) {
        if self.len == 0 {
            return;
        }
        for b in 0..NUM_BUCKETS {
            let mut i = 0;
            while i < self.buckets[b].len() {
                let target = self.bucket_of(self.buckets[b][i].t);
                if target == b {
                    i += 1;
                } else {
                    let ev = self.buckets[b].swap_remove(i);
                    self.buckets[target].push(ev);
                    // The swapped-in event (if any) is examined next
                    // iteration; events moved into `target` are either
                    // already correct there or behind `b` and settled.
                }
            }
        }
        self.occupied = 0;
        for b in 0..NUM_BUCKETS {
            if !self.buckets[b].is_empty() {
                self.occupied |= 1 << b;
            }
        }
    }

    /// Moves every event with `t <= bound` onto `out` (unsorted — the
    /// caller sorts the appended range by the total [`CompletionEv`]
    /// order) and advances the drain floor.
    pub(crate) fn drain_due(&mut self, bound: f64, out: &mut Vec<CompletionEv>) {
        if bound > self.floor_t {
            self.floor_t = bound;
        }
        if self.len == 0 {
            return;
        }
        let mut mask = self.occupied;
        while mask != 0 {
            let b = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let bucket = &mut self.buckets[b];
            let mut i = 0;
            while i < bucket.len() {
                if bucket[i].t <= bound {
                    out.push(bucket.swap_remove(i));
                    self.len -= 1;
                } else {
                    i += 1;
                }
            }
            if bucket.is_empty() {
                self.occupied &= !(1 << b);
            }
        }
    }

    /// Moves every queued event onto `out` (unsorted), including ones
    /// no finite bound drains: infinite and NaN times.
    pub(crate) fn drain_all(&mut self, out: &mut Vec<CompletionEv>) {
        let mut mask = self.occupied;
        while mask != 0 {
            let b = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            out.append(&mut self.buckets[b]);
        }
        self.occupied = 0;
        self.len = 0;
    }

    /// The earliest queued event time, scanning the occupied buckets
    /// (O(engines) — the calendar never holds more than the in-flight
    /// window).
    pub(crate) fn next_time(&self) -> Option<f64> {
        if self.len == 0 {
            return None;
        }
        let mut best = f64::INFINITY;
        let mut mask = self.occupied;
        while mask != 0 {
            let b = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            for ev in &self.buckets[b] {
                if ev.t < best {
                    best = ev.t;
                }
            }
        }
        Some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: f64, token: u64) -> CompletionEv {
        CompletionEv {
            t,
            key: (token % 7) as u32,
            sensor_frame: token / 2,
            engine: (token % 3) as u32,
            token,
        }
    }

    #[test]
    fn drains_in_heap_order_after_sort() {
        let mut q = CalendarQueue::with_capacity(4);
        let times = [0.005, 0.001, 0.003, 0.001, 0.0042, 0.002];
        for (i, &t) in times.iter().enumerate() {
            q.push(ev(t, i as u64));
        }
        let mut due = Vec::new();
        q.drain_due(0.003, &mut due);
        due.sort_unstable();
        let drained: Vec<u64> = due.iter().map(|e| e.token).collect();
        assert_eq!(drained, [1, 3, 5, 2]);
        assert_eq!(q.next_time(), Some(0.0042));
        q.drain_due(1.0, &mut due);
        assert!(q.is_empty());
        assert_eq!(q.next_time(), None);
    }

    #[test]
    fn width_rebuild_preserves_contents() {
        let mut q = CalendarQueue::with_capacity(4);
        q.push(ev(0.001, 0));
        // 6 orders of magnitude beyond the initial span: forces the
        // doubling rebuild path.
        q.push(ev(1000.0, 1));
        q.push(ev(0.002, 2));
        let mut due = Vec::new();
        q.drain_due(0.0015, &mut due);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].token, 0);
        q.drain_due(2000.0, &mut due);
        assert_eq!(due.len(), 3);
    }

    #[test]
    fn equal_times_order_by_key_frame_token() {
        let a = CompletionEv {
            t: 1.0,
            key: 2,
            sensor_frame: 5,
            engine: 0,
            token: 9,
        };
        let b = CompletionEv {
            t: 1.0,
            key: 2,
            sensor_frame: 5,
            engine: 1,
            token: 10,
        };
        assert!(a < b);
        assert!(a == a);
    }
}
