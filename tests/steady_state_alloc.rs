//! Proves the production engine's steady-state loop is allocation-free
//! (PR 8 acceptance): a counting global allocator wraps the system
//! allocator, and a folded session run asserts that **zero** heap
//! allocations happen between a post-warm-up checkpoint and a
//! pre-teardown checkpoint taken inside the record sink.
//!
//! The engine pre-sizes its state from spec-derived bounds (calendar
//! buckets and free set from the engine count, queues and dispatch
//! tables from the dense `users × models` key space), the merged
//! arrival stream pre-sizes its window batch from the stream count, and
//! `Vec` growth retains capacity, so any transient growth happens in
//! the warm-up prefix; after that every event is served from pre-sized
//! storage.
//!
//! The same allocator tracks live heap bytes, which bounds a folded
//! session's peak memory by `users × models`: running eight times as
//! long must not raise the peak.
//!
//! This file deliberately holds a single `#[test]` so no concurrent
//! test can allocate on another thread inside the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use xrbench::sim::{
    LatencyGreedy, Scheduler, SimConfig, Simulator, SlackAwareEdf, UniformProvider,
};
use xrbench::workload::{ScenarioCatalog, ScenarioSpec, SessionSpec};

/// Counts every allocation routed through the global allocator.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
static TRACE: AtomicU64 = AtomicU64::new(0);
static TRACE_SIZES: [AtomicU64; 16] = [const { AtomicU64::new(0) }; 16];

fn grow(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: defers entirely to the system allocator; the counters are
// relaxed atomics with no effect on allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let n = ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        if TRACE.load(Ordering::Relaxed) == 1 {
            TRACE_SIZES[(n % 16) as usize].store(layout.size() as u64, Ordering::Relaxed);
        }
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let n = ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        if TRACE.load(Ordering::Relaxed) == 1 {
            TRACE_SIZES[(n % 16) as usize].store(1_000_000 + new_size as u64, Ordering::Relaxed);
        }
        if new_size > layout.size() {
            grow(new_size - layout.size());
        } else {
            shrink(layout.size() - new_size);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_loop_does_not_allocate() {
    // Two dispatch kernels: LatencyGreedy's pick tree and
    // SlackAwareEdf's per-model EDF lists, which must never grow past
    // their set-up capacity.
    assert_window_allocation_free("latency-greedy", &|| Box::new(LatencyGreedy::new()));
    assert_window_allocation_free("slack-edf", &|| Box::new(SlackAwareEdf::new()));
    assert_peak_heap_independent_of_duration();
}

/// The folded-session mix of [`assert_window_allocation_free`]: a mixed
/// multi-user session over every built-in scenario on eight engines.
fn probe_session(users: u32) -> (SessionSpec, UniformProvider) {
    let specs: Vec<ScenarioSpec> = ScenarioCatalog::builtin().iter().cloned().collect();
    let session = SessionSpec::mixed("alloc-probe", &specs, users, 0.002);
    (session, UniformProvider::new(8, 0.001, 0.001))
}

/// Peak live heap bytes above the starting level while `f` runs.
fn peak_heap_bytes(f: impl FnOnce()) -> u64 {
    let base = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(base, Ordering::Relaxed);
    f();
    PEAK_BYTES.load(Ordering::Relaxed) - base
}

/// A folded session's memory is bounded by `users × models`, not by
/// its request count: eight times the duration (and requests) may not
/// raise the peak live heap by more than a few KiB.
fn assert_peak_heap_independent_of_duration() {
    let (session, provider) = probe_session(64);
    let peak = |duration_s: f64| {
        let sim = Simulator::new(SimConfig {
            duration_s,
            ..SimConfig::default()
        });
        let mut records = 0u64;
        let bytes = peak_heap_bytes(|| {
            sim.run_session_folded(
                &session,
                &provider,
                &mut LatencyGreedy::new(),
                &mut |_, _| records += 1,
            );
        });
        (bytes, records)
    };
    let (short, short_records) = peak(1.0);
    let (long, long_records) = peak(8.0);
    eprintln!("peak live heap: {short} B over {short_records} records (1 s), {long} B over {long_records} records (8 s)");
    assert!(
        long_records > 7 * short_records,
        "the 8 s run must do ~8x the work"
    );
    assert!(
        long <= short + 8 * 1024,
        "folded-session peak heap grows with duration: {short} B at 1 s, {long} B at 8 s"
    );
}

/// Runs a folded session under `scheduler()` twice and asserts the
/// second run allocates nothing between its checkpoints.
fn assert_window_allocation_free(name: &str, scheduler: &dyn Fn() -> Box<dyn Scheduler>) {
    // A mixed multi-user session over every built-in scenario:
    // dependencies, cascades, supersession, and the kernel dispatch
    // fast path are all on the measured path.
    let (session, provider) = probe_session(64);
    let config = SimConfig::default();
    let sim = Simulator::new(config);

    // Sizing pass: learn the record count so the checkpoints can sit
    // at fixed fractions of the run.
    let mut total = 0u64;
    sim.run_session_folded(&session, &provider, scheduler().as_mut(), &mut |_, _| {
        total += 1
    });
    assert!(
        total > 1000,
        "{name}: alloc probe needs a substantial run, got {total} records"
    );

    // Measured pass: warm-up ends at half the run (transient Vec
    // growth retains capacity, so it is confined to the prefix), and
    // the window closes just before teardown.
    let warmup_end = total / 2;
    let window_end = total * 9 / 10;
    let mut seen = 0u64;
    let mut at_warmup = 0u64;
    let mut at_end = 0u64;
    let mut sched = scheduler();
    sim.run_session_folded(&session, &provider, sched.as_mut(), &mut |_, _| {
        seen += 1;
        if seen == warmup_end {
            at_warmup = ALLOCATIONS.load(Ordering::Relaxed);
            TRACE.store(1, Ordering::Relaxed);
        } else if seen == window_end {
            at_end = ALLOCATIONS.load(Ordering::Relaxed);
            TRACE.store(0, Ordering::Relaxed);
        }
    });
    assert!(seen == total, "{name}: replay diverged: {seen} != {total}");
    let sizes: Vec<u64> = TRACE_SIZES
        .iter()
        .map(|s| s.load(Ordering::Relaxed))
        .filter(|&s| s != 0)
        .collect();
    eprintln!("{name}: window alloc sizes (realloc = 1e6 + size): {sizes:?}");
    assert!(
        at_warmup > 0 && at_end > 0,
        "{name}: checkpoints never fired"
    );
    assert_eq!(
        at_end - at_warmup,
        0,
        "{name}: steady-state loop allocated {} times between {}% and {}% of the run",
        at_end - at_warmup,
        100 * warmup_end / total,
        100 * window_end / total,
    );
}
