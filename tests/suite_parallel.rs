//! Workspace smoke test for the parallel suite runner: `run_suite`
//! must actually fan work across more than one worker thread. (The
//! serial-versus-parallel equivalence checks are unit tests in
//! `crates/core/src/suite.rs`, where the serial reference lives.)

use std::collections::HashSet;
use std::sync::{Condvar, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

use xrbench::prelude::*;
use xrbench::sim::UniformProvider;

/// Wraps a provider and makes the first cost query of each worker
/// *rendezvous*: it blocks until `quorum` distinct threads have
/// arrived (or a timeout expires). This makes "the parallel runner
/// really uses multiple workers" a deterministic observation instead
/// of a scheduling race — a single worker could otherwise drain the
/// whole job queue before a second one is ever scheduled.
struct ThreadRendezvous<P> {
    inner: P,
    quorum: usize,
    seen: Mutex<HashSet<ThreadId>>,
    arrived: Condvar,
}

impl<P> ThreadRendezvous<P> {
    fn new(inner: P, quorum: usize) -> Self {
        Self {
            inner,
            quorum,
            seen: Mutex::new(HashSet::new()),
            arrived: Condvar::new(),
        }
    }

    fn distinct_threads(&self) -> usize {
        self.seen.lock().expect("probe lock").len()
    }
}

impl<P: CostProvider> CostProvider for ThreadRendezvous<P> {
    fn num_engines(&self) -> usize {
        self.inner.num_engines()
    }

    fn label(&self) -> String {
        self.inner.label()
    }

    fn cost(&self, model: xrbench::models::ModelId, engine: usize) -> InferenceCost {
        let mut seen = self.seen.lock().expect("probe lock");
        let newly_arrived = seen.insert(std::thread::current().id());
        if newly_arrived {
            self.arrived.notify_all();
            // Hold each newly-arrived worker (once) until the quorum
            // shows up, so the first worker cannot race through every
            // job alone. The one-shot timeout keeps the suite bounded
            // if the runner ever regresses to a single worker — the
            // assertion below then reports it.
            let deadline = Duration::from_secs(10);
            while seen.len() < self.quorum {
                let (guard, timeout) = self
                    .arrived
                    .wait_timeout(seen, deadline)
                    .expect("probe lock");
                seen = guard;
                if timeout.timed_out() {
                    break;
                }
            }
        }
        drop(seen);
        self.inner.cost(model, engine)
    }
}

#[test]
fn parallel_suite_uses_more_than_one_worker_thread() {
    let probe = ThreadRendezvous::new(UniformProvider::new(2, 0.001, 0.001), 2);
    let report = run_suite(&Harness::new(), &probe, 3);
    assert_eq!(report.scenarios.len(), 7);
    assert!(
        probe.distinct_threads() > 1,
        "expected >1 worker thread, saw {}",
        probe.distinct_threads()
    );
}
