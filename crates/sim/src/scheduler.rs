//! Pluggable inference dispatchers/schedulers.

use xrbench_models::ModelId;

use crate::provider::CostProvider;

/// A read-only view of one dispatchable (ready) request, handed to
/// schedulers.
///
/// The simulator maintains the view slice incrementally across picks
/// (in ready-queue insertion order) rather than rebuilding it, and the
/// free-engine slice is a sorted, incrementally-maintained set —
/// implementations may rely on both orderings being stable and
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingView {
    /// The originating user (0 for single-scenario runs; session runs
    /// tag each user so schedulers can balance across tenants).
    pub user: u32,
    /// The model to run.
    pub model: ModelId,
    /// Model-local frame index.
    pub frame_id: u64,
    /// When the input data arrived.
    pub t_req: f64,
    /// The processing deadline.
    pub t_deadline: f64,
}

/// A closed-form description of a scheduler's `select` behavior, used
/// by the engine's fast dispatch path (see
/// [`Scheduler::dispatch_kernel`]).
///
/// Each variant names a *request order* (how the next ready request is
/// chosen) and an *engine rule* (how the engine for it is chosen),
/// plus any evolving state the rule carries. The request orders are
/// the two deterministic total orders every shipped scheduler uses:
///
/// * **EDF** — `(t_deadline, t_req, model, user)` under
///   `f64::total_cmp`;
/// * **FIFO** — `(t_req, model, user)` under `f64::total_cmp`.
///
/// Because the ready queue holds at most one entry per
/// `(user, model)`, both orders are strict total orders and the
/// minimum is unique — which is what lets the engine replace the
/// per-pick linear scan with an indexed argmin and still reproduce
/// `select`'s picks bit-for-bit. [`DispatchKernel::EdfSlackFastestEngine`]
/// is the one variant whose request choice also depends on the
/// engines: it takes the EDF-least request among those its fastest
/// free engine can still finish in time (see the variant's docs).
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum DispatchKernel {
    /// EDF request order; engine = minimal `(latency, engine id)`
    /// among the free engines ([`LatencyGreedy`]).
    EdfFastestEngine,
    /// FIFO request order; engine = first free engine at or above the
    /// rotation cursor, else the lowest free engine; the cursor then
    /// advances to `(engine + 1) % max(1, engine + 1).max(free count)`
    /// ([`RoundRobin`]).
    FifoRotatingEngine {
        /// The rotation cursor (next engine id to try).
        next_engine: usize,
    },
    /// FIFO request order; engine = minimal `(accumulated load,
    /// engine id)` among the free engines, where each dispatch adds
    /// its expected latency to the chosen engine's load
    /// ([`LeastLoaded`]).
    FifoLeastLoadedEngine {
        /// Accumulated dispatched latency per engine id (entries
        /// beyond the vector's length read as `0.0`).
        loads: Vec<f64>,
    },
    /// EDF request order; engine = minimal `(observed outages,
    /// latency, engine id)` among the free engines
    /// ([`FailoverAware`]). Outage counts only change via
    /// [`Scheduler::on_engine_down`], so on the fault-free path the
    /// rule is static for the whole run.
    EdfFewestOutagesEngine {
        /// Outages observed per engine id (entries beyond the
        /// vector's length read as `0`).
        outages: Vec<u64>,
    },
    /// EDF request order restricted to *salvageable* requests, each on
    /// its model's fastest free engine ([`SlackAwareEdf`]). The closed
    /// form of `select`:
    ///
    /// * **Fastest engine per model.** For model *m*, *e_m* is the
    ///   first free engine in *m*'s `(latency, engine id)` order (under
    ///   `f64::total_cmp`) whose latency is not NaN; *L_m* is its
    ///   latency.
    /// * **Salvageable.** Request *r* of model *m* is salvageable iff
    ///   `now + L_m <= r.t_deadline + 1e-15` — `select`'s own
    ///   expression. Feasibility is monotone in latency and a NaN
    ///   latency is never feasible, so *r* has a feasible free engine
    ///   iff *e_m* is feasible, and the fastest feasible engine is
    ///   *e_m*. A NaN deadline is never salvageable.
    /// * **Pick.** The EDF-least salvageable request runs on its
    ///   *e_m*. If nothing is salvageable, the EDF-least request runs
    ///   on the first free engine of its model's order, NaN latencies
    ///   included (`select`'s fallback).
    ///
    /// Within one model the salvageable requests form a suffix of the
    /// EDF order once NaN deadlines are set aside (negative NaNs sort
    /// first under `total_cmp`, positive NaNs last), so the engine
    /// keeps one EDF-sorted list per model and finds each model's
    /// candidate by binary search. The rule is stateless.
    EdfSlackFastestEngine,
}

/// An inference dispatcher: repeatedly asked to pick one
/// `(ready-request, free-engine)` pair until it returns `None` or
/// resources run out.
///
/// Implementations must be deterministic for reproducible runs (the
/// conformance harness in `tests/scheduler_conformance.rs` checks
/// this for every shipped scheduler). Returning an index out of range
/// is a programming error and makes the simulator panic.
pub trait Scheduler {
    /// Picks the next dispatch as `(index into ready, engine id)`,
    /// or `None` to leave the remaining engines idle until the next
    /// event.
    fn select(
        &mut self,
        ready: &[PendingView],
        free_engines: &[usize],
        provider: &dyn CostProvider,
        now: f64,
    ) -> Option<(usize, usize)>;

    /// A short name for reports.
    fn name(&self) -> &'static str;

    /// Notifies the scheduler that `engine` just went offline (device
    /// churn or preemption). Stateless schedulers can ignore this; the
    /// default does nothing. Called by the engine loop before the
    /// revoked work is re-resolved, so a failover-aware policy can bias
    /// future placements away from flaky engines.
    fn on_engine_down(&mut self, _engine: usize, _now: f64) {}

    /// Declares a closed-form [`DispatchKernel`] equivalent to this
    /// scheduler's `select`, or `None` (the default) for opaque
    /// policies.
    ///
    /// Returning `Some` is a **promise**: on fault-free runs the
    /// engine may skip `select` entirely and drive dispatch through an
    /// indexed kernel that reproduces the declared policy's picks
    /// exactly. Any carried state (rotation cursor, load accumulators,
    /// outage counts) is snapshotted here at run start and handed back
    /// through [`Scheduler::absorb_kernel`] at run end, so back-to-back
    /// runs on one scheduler instance behave as if `select` had been
    /// called throughout. Two caveats: a kernel-driven run may query
    /// provider costs for *any* `(ready model, engine)` pair while a
    /// `select`-driven run only queries the pairs it inspects (only
    /// observable with panicking partial [`CostProvider`]s), and
    /// faulted runs always use `select` (kernels cannot observe
    /// mid-run outages).
    fn dispatch_kernel(&self) -> Option<DispatchKernel> {
        None
    }

    /// Hands back the kernel state as evolved by a kernel-driven run
    /// (see [`Scheduler::dispatch_kernel`]). The default discards it,
    /// which is correct for stateless policies.
    fn absorb_kernel(&mut self, _kernel: DispatchKernel) {}
}

/// The paper's default for cost-model/simulator runs: dispatch the
/// most urgent ready request (earliest deadline) to the idle engine
/// with the minimal expected latency for that model.
#[derive(Debug, Clone, Default)]
pub struct LatencyGreedy {
    _private: (),
}

impl LatencyGreedy {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for LatencyGreedy {
    fn select(
        &mut self,
        ready: &[PendingView],
        free_engines: &[usize],
        provider: &dyn CostProvider,
        _now: f64,
    ) -> Option<(usize, usize)> {
        if ready.is_empty() || free_engines.is_empty() {
            return None;
        }
        // Most urgent request first, on the fastest idle engine.
        let (ri, req) = ready
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| edf_order(a, b))
            .expect("ready is non-empty");
        Some((ri, fastest_engine(req.model, free_engines, provider)))
    }

    fn name(&self) -> &'static str {
        "latency-greedy"
    }

    fn dispatch_kernel(&self) -> Option<DispatchKernel> {
        Some(DispatchKernel::EdfFastestEngine)
    }
}

/// The paper's round-robin style scheduler for real systems: requests
/// are served in arrival order and engines are used in rotation.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    next_engine: usize,
}

impl RoundRobin {
    /// Creates the scheduler starting at engine 0.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for RoundRobin {
    fn select(
        &mut self,
        ready: &[PendingView],
        free_engines: &[usize],
        _provider: &dyn CostProvider,
        _now: f64,
    ) -> Option<(usize, usize)> {
        if ready.is_empty() || free_engines.is_empty() {
            return None;
        }
        // Oldest request first.
        let (ri, _) = ready
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| fifo_order(a, b))
            .expect("ready is non-empty");
        // Next engine in rotation among the free ones.
        let engine = free_engines
            .iter()
            .copied()
            .find(|&e| e >= self.next_engine)
            .unwrap_or(free_engines[0]);
        self.next_engine = (engine + 1) % usize::max(1, engine + 1).max(free_engines.len());
        Some((ri, engine))
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn dispatch_kernel(&self) -> Option<DispatchKernel> {
        Some(DispatchKernel::FifoRotatingEngine {
            next_engine: self.next_engine,
        })
    }

    fn absorb_kernel(&mut self, kernel: DispatchKernel) {
        if let DispatchKernel::FifoRotatingEngine { next_engine } = kernel {
            self.next_engine = next_engine;
        }
    }
}

/// Slack-aware earliest-deadline-first: walks the ready queue in EDF
/// order and dispatches the first request that can still *meet* its
/// deadline on some free engine (on the fastest such engine). Requests
/// that are already lost causes on every free engine don't block
/// salvageable ones behind them; if nothing is salvageable, the most
/// urgent request runs on the fastest engine to limit the overrun.
///
/// `select` is the literal rule. Fault-free runs use its closed form,
/// [`DispatchKernel::EdfSlackFastestEngine`]: a request is salvageable
/// iff its model's fastest free engine with a non-NaN latency meets
/// the deadline, so the pick is the EDF-least such request on that
/// engine. NaN latencies are never feasible and NaN deadlines never
/// salvageable; both still take part in the everything-is-late
/// fallback.
#[derive(Debug, Clone, Default)]
pub struct SlackAwareEdf {
    _private: (),
}

impl SlackAwareEdf {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Deterministic EDF ordering: deadline, then arrival, model, user.
fn edf_order(a: &PendingView, b: &PendingView) -> std::cmp::Ordering {
    a.t_deadline.total_cmp(&b.t_deadline).then(fifo_order(a, b))
}

/// Deterministic FIFO ordering: arrival, then model, then user.
fn fifo_order(a: &PendingView, b: &PendingView) -> std::cmp::Ordering {
    a.t_req
        .total_cmp(&b.t_req)
        .then(a.model.cmp(&b.model))
        .then(a.user.cmp(&b.user))
}

/// The free engine with minimal latency for `model` (ties by id).
fn fastest_engine(model: ModelId, free_engines: &[usize], provider: &dyn CostProvider) -> usize {
    free_engines
        .iter()
        .copied()
        .min_by(|&a, &b| {
            provider
                .cost(model, a)
                .latency_s
                .total_cmp(&provider.cost(model, b).latency_s)
                .then(a.cmp(&b))
        })
        .expect("free_engines is non-empty")
}

impl Scheduler for SlackAwareEdf {
    fn select(
        &mut self,
        ready: &[PendingView],
        free_engines: &[usize],
        provider: &dyn CostProvider,
        now: f64,
    ) -> Option<(usize, usize)> {
        if ready.is_empty() || free_engines.is_empty() {
            return None;
        }
        let mut order: Vec<usize> = (0..ready.len()).collect();
        order.sort_by(|&a, &b| edf_order(&ready[a], &ready[b]));
        // First salvageable request in EDF order, on its fastest
        // deadline-meeting engine.
        for &ri in &order {
            let req = &ready[ri];
            let feasible: Vec<usize> = free_engines
                .iter()
                .copied()
                .filter(|&e| now + provider.cost(req.model, e).latency_s <= req.t_deadline + 1e-15)
                .collect();
            if !feasible.is_empty() {
                return Some((ri, fastest_engine(req.model, &feasible, provider)));
            }
        }
        // Everything is late: limit damage on the most urgent one.
        let ri = order[0];
        Some((ri, fastest_engine(ready[ri].model, free_engines, provider)))
    }

    fn name(&self) -> &'static str {
        "slack-edf"
    }

    fn dispatch_kernel(&self) -> Option<DispatchKernel> {
        Some(DispatchKernel::EdfSlackFastestEngine)
    }
}

/// Load-balancing dispatcher: serves requests in arrival order and
/// sends each to the free engine with the least *accumulated* busy
/// time for this run (ties by engine id) — the classic least-loaded
/// policy a multi-tenant session dispatcher would use.
#[derive(Debug, Clone, Default)]
pub struct LeastLoaded {
    /// Accumulated dispatched latency per engine id.
    loads: Vec<f64>,
}

impl LeastLoaded {
    /// Creates the scheduler with all engines unloaded.
    pub fn new() -> Self {
        Self::default()
    }

    fn load(&self, engine: usize) -> f64 {
        self.loads.get(engine).copied().unwrap_or(0.0)
    }
}

impl Scheduler for LeastLoaded {
    fn select(
        &mut self,
        ready: &[PendingView],
        free_engines: &[usize],
        provider: &dyn CostProvider,
        _now: f64,
    ) -> Option<(usize, usize)> {
        if ready.is_empty() || free_engines.is_empty() {
            return None;
        }
        // Oldest request first (FIFO across users).
        let (ri, req) = ready
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| fifo_order(a, b))
            .expect("ready is non-empty");
        let engine = free_engines
            .iter()
            .copied()
            .min_by(|&a, &b| self.load(a).total_cmp(&self.load(b)).then(a.cmp(&b)))
            .expect("free_engines is non-empty");
        if self.loads.len() <= engine {
            self.loads.resize(engine + 1, 0.0);
        }
        self.loads[engine] += provider.cost(req.model, engine).latency_s;
        Some((ri, engine))
    }

    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn dispatch_kernel(&self) -> Option<DispatchKernel> {
        Some(DispatchKernel::FifoLeastLoadedEngine {
            loads: self.loads.clone(),
        })
    }

    fn absorb_kernel(&mut self, kernel: DispatchKernel) {
        if let DispatchKernel::FifoLeastLoadedEngine { loads } = kernel {
            self.loads = loads;
        }
    }
}

/// Churn-hardened dispatcher for dynamic fleets: serves requests in
/// EDF order (like [`LatencyGreedy`]) but places each on the free
/// engine with the fewest *observed outages* this run, breaking ties
/// by expected latency and then engine id. On static hardware no
/// outage is ever observed, so every tie breaks by latency and the
/// policy degenerates to latency-greedy placement.
#[derive(Debug, Clone, Default)]
pub struct FailoverAware {
    /// Outages observed per engine id (grown on demand).
    outages: Vec<u64>,
}

impl FailoverAware {
    /// Creates the scheduler with no outages observed.
    pub fn new() -> Self {
        Self::default()
    }

    fn outage_count(&self, engine: usize) -> u64 {
        self.outages.get(engine).copied().unwrap_or(0)
    }
}

impl Scheduler for FailoverAware {
    fn select(
        &mut self,
        ready: &[PendingView],
        free_engines: &[usize],
        provider: &dyn CostProvider,
        _now: f64,
    ) -> Option<(usize, usize)> {
        if ready.is_empty() || free_engines.is_empty() {
            return None;
        }
        // Most urgent request first, on the most reliable idle engine.
        let (ri, req) = ready
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| edf_order(a, b))
            .expect("ready is non-empty");
        let engine = free_engines
            .iter()
            .copied()
            .min_by(|&a, &b| {
                self.outage_count(a)
                    .cmp(&self.outage_count(b))
                    .then(
                        provider
                            .cost(req.model, a)
                            .latency_s
                            .total_cmp(&provider.cost(req.model, b).latency_s),
                    )
                    .then(a.cmp(&b))
            })
            .expect("free_engines is non-empty");
        Some((ri, engine))
    }

    fn name(&self) -> &'static str {
        "failover-aware"
    }

    fn dispatch_kernel(&self) -> Option<DispatchKernel> {
        Some(DispatchKernel::EdfFewestOutagesEngine {
            outages: self.outages.clone(),
        })
    }

    fn absorb_kernel(&mut self, kernel: DispatchKernel) {
        if let DispatchKernel::EdfFewestOutagesEngine { outages } = kernel {
            self.outages = outages;
        }
    }

    fn on_engine_down(&mut self, engine: usize, _now: f64) {
        if self.outages.len() <= engine {
            self.outages.resize(engine + 1, 0);
        }
        self.outages[engine] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::{InferenceCost, TableProvider, UniformProvider};

    fn view(model: ModelId, deadline: f64) -> PendingView {
        PendingView {
            user: 0,
            model,
            frame_id: 0,
            t_req: 0.0,
            t_deadline: deadline,
        }
    }

    #[test]
    fn greedy_picks_earliest_deadline() {
        let p = UniformProvider::new(2, 0.001, 0.0);
        let ready = vec![
            view(ModelId::HandTracking, 0.05),
            view(ModelId::EyeSegmentation, 0.01),
        ];
        let mut s = LatencyGreedy::new();
        let (ri, _) = s.select(&ready, &[0, 1], &p, 0.0).unwrap();
        assert_eq!(ri, 1);
    }

    #[test]
    fn greedy_picks_fastest_engine() {
        let mut p = TableProvider::new(2);
        p.set(
            ModelId::HandTracking,
            0,
            InferenceCost {
                latency_s: 0.010,
                energy_j: 0.0,
            },
        );
        p.set(
            ModelId::HandTracking,
            1,
            InferenceCost {
                latency_s: 0.002,
                energy_j: 0.0,
            },
        );
        let ready = vec![view(ModelId::HandTracking, 0.05)];
        let mut s = LatencyGreedy::new();
        let (_, engine) = s.select(&ready, &[0, 1], &p, 0.0).unwrap();
        assert_eq!(engine, 1);
    }

    #[test]
    fn greedy_returns_none_when_starved() {
        let p = UniformProvider::new(1, 0.001, 0.0);
        let mut s = LatencyGreedy::new();
        assert!(s.select(&[], &[0], &p, 0.0).is_none());
        assert!(s
            .select(&[view(ModelId::HandTracking, 1.0)], &[], &p, 0.0)
            .is_none());
    }

    #[test]
    fn round_robin_rotates_engines() {
        let p = UniformProvider::new(3, 0.001, 0.0);
        let mut s = RoundRobin::new();
        let ready = vec![view(ModelId::HandTracking, 1.0)];
        let (_, e0) = s.select(&ready, &[0, 1, 2], &p, 0.0).unwrap();
        let (_, e1) = s.select(&ready, &[0, 1, 2], &p, 0.0).unwrap();
        assert_ne!(e0, e1);
    }

    #[test]
    fn slack_edf_skips_lost_causes_for_salvageable_work() {
        // Request A's deadline is already unmeetable (1 ms latency,
        // deadline 0.5 ms away); request B can still make it. B must
        // be dispatched first even though A's deadline is earlier.
        let p = UniformProvider::new(1, 0.001, 0.0);
        let ready = vec![
            view(ModelId::HandTracking, 0.0005),
            view(ModelId::EyeSegmentation, 0.002),
        ];
        let mut s = SlackAwareEdf::new();
        let (ri, _) = s.select(&ready, &[0], &p, 0.0).unwrap();
        assert_eq!(ri, 1, "salvageable request must jump the lost cause");
    }

    #[test]
    fn slack_edf_prefers_deadline_meeting_engine() {
        // The fast engine meets the deadline, the slow one does not.
        let mut p = TableProvider::new(2);
        p.set(
            ModelId::HandTracking,
            0,
            InferenceCost {
                latency_s: 0.050,
                energy_j: 0.0,
            },
        );
        p.set(
            ModelId::HandTracking,
            1,
            InferenceCost {
                latency_s: 0.002,
                energy_j: 0.0,
            },
        );
        let ready = vec![view(ModelId::HandTracking, 0.010)];
        let mut s = SlackAwareEdf::new();
        let (_, engine) = s.select(&ready, &[0, 1], &p, 0.0).unwrap();
        assert_eq!(engine, 1);
    }

    #[test]
    fn slack_edf_still_dispatches_when_everything_is_late() {
        let p = UniformProvider::new(1, 0.010, 0.0);
        let ready = vec![view(ModelId::HandTracking, 0.001)];
        let mut s = SlackAwareEdf::new();
        assert!(s.select(&ready, &[0], &p, 0.0).is_some());
    }

    #[test]
    fn least_loaded_balances_accumulated_work() {
        let p = UniformProvider::new(2, 0.004, 0.0);
        let ready = vec![view(ModelId::HandTracking, 1.0)];
        let mut s = LeastLoaded::new();
        let (_, e0) = s.select(&ready, &[0, 1], &p, 0.0).unwrap();
        assert_eq!(e0, 0, "first dispatch goes to engine 0");
        // Engine 0 now carries 4 ms of load; even though it is free
        // again, the next dispatch must go to engine 1.
        let (_, e1) = s.select(&ready, &[0, 1], &p, 0.0).unwrap();
        assert_eq!(e1, 1);
        // Loads now equal; ties break to the lower id.
        let (_, e2) = s.select(&ready, &[0, 1], &p, 0.0).unwrap();
        assert_eq!(e2, 0);
    }

    #[test]
    fn least_loaded_serves_oldest_request_first() {
        let p = UniformProvider::new(1, 0.001, 0.0);
        let mut a = view(ModelId::HandTracking, 1.0);
        a.t_req = 0.5;
        let b = view(ModelId::EyeSegmentation, 1.0); // t_req = 0.0
        let mut s = LeastLoaded::new();
        let (ri, _) = s.select(&[a, b], &[0], &p, 0.6).unwrap();
        assert_eq!(ri, 1);
    }

    #[test]
    fn schedulers_have_names() {
        assert_eq!(LatencyGreedy::new().name(), "latency-greedy");
        assert_eq!(RoundRobin::new().name(), "round-robin");
        assert_eq!(SlackAwareEdf::new().name(), "slack-edf");
        assert_eq!(LeastLoaded::new().name(), "least-loaded");
        assert_eq!(FailoverAware::new().name(), "failover-aware");
    }

    #[test]
    fn failover_aware_avoids_flaky_engines() {
        // Engine 0 is faster but has a recorded outage; engine 1 is
        // clean and must win despite the latency disadvantage.
        let mut p = TableProvider::new(2);
        p.set(
            ModelId::HandTracking,
            0,
            InferenceCost {
                latency_s: 0.001,
                energy_j: 0.0,
            },
        );
        p.set(
            ModelId::HandTracking,
            1,
            InferenceCost {
                latency_s: 0.005,
                energy_j: 0.0,
            },
        );
        let ready = vec![view(ModelId::HandTracking, 1.0)];
        let mut s = FailoverAware::new();
        let (_, before) = s.select(&ready, &[0, 1], &p, 0.0).unwrap();
        assert_eq!(before, 0, "without outages the fast engine wins");
        s.on_engine_down(0, 0.5);
        let (_, after) = s.select(&ready, &[0, 1], &p, 0.0).unwrap();
        assert_eq!(after, 1, "observed outage demotes engine 0");
    }
}
