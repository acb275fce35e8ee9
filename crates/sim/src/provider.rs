//! The interface between the runtime and the evaluated ML system.

use std::cell::Cell;

use xrbench_models::ModelId;

/// Number of unit models, used to size every dense `(model, engine)`
/// and `(user, model)` table in this crate.
pub(crate) const NUM_MODELS: usize = ModelId::ALL.len();

/// The cost of running one inference of a model on one engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferenceCost {
    /// End-to-end execution latency in seconds (excluding queuing).
    pub latency_s: f64,
    /// Energy consumed by the inference in joules.
    pub energy_j: f64,
}

/// The evaluated ML system: a set of compute engines
/// (sub-accelerators) with per-model execution costs.
///
/// Implementations may be analytical cost models, measurement tables,
/// or adapters to real hardware. Engines are identified by dense
/// indices `0..num_engines()`.
///
/// **Non-finite latencies.** A dispatch whose latency is NaN or `+∞`
/// never completes: its engine stays busy for the rest of the run,
/// dependents waiting on its frame never resolve, and its record
/// carries the NaN or infinite `t_end`. It still counts as executed —
/// at dispatch on fault-free runs, and at the end of the run on
/// faulted ones unless an outage revokes it first. A NaN `t_end` never
/// counts as a missed deadline (`NaN > t_deadline` is false). The
/// production engine and the reference loop implement exactly this.
pub trait CostProvider {
    /// Number of independent compute engines.
    fn num_engines(&self) -> usize;

    /// A human-readable label for the whole system (used in reports).
    fn label(&self) -> String {
        "system".to_string()
    }

    /// A short human-readable engine label (e.g. `"WS@2048"`).
    fn engine_label(&self, engine: usize) -> String {
        format!("engine{engine}")
    }

    /// The cost of running `model` on `engine`.
    fn cost(&self, model: ModelId, engine: usize) -> InferenceCost;
}

/// A provider where every model costs the same on every engine —
/// useful for tests and scheduler experiments.
#[derive(Debug, Clone)]
pub struct UniformProvider {
    engines: usize,
    cost: InferenceCost,
}

impl UniformProvider {
    /// Creates a provider with `engines` identical engines, each
    /// running any model in `latency_s` seconds for `energy_j` joules.
    ///
    /// # Panics
    ///
    /// Panics if `engines == 0` or `latency_s <= 0`.
    pub fn new(engines: usize, latency_s: f64, energy_j: f64) -> Self {
        assert!(engines > 0, "need at least one engine");
        assert!(latency_s > 0.0, "latency must be positive");
        Self {
            engines,
            cost: InferenceCost {
                latency_s,
                energy_j,
            },
        }
    }
}

impl CostProvider for UniformProvider {
    fn num_engines(&self) -> usize {
        self.engines
    }

    fn cost(&self, _model: ModelId, _engine: usize) -> InferenceCost {
        self.cost
    }
}

/// A provider backed by an explicit `(model, engine) → cost` table.
///
/// Costs are stored densely (`model as usize * engines + engine`), so
/// [`CostProvider::cost`] is a single array index on the simulator's
/// hot dispatch path rather than a hash probe.
#[derive(Debug, Clone, Default)]
pub struct TableProvider {
    engines: usize,
    labels: Vec<String>,
    table: Vec<Option<InferenceCost>>,
}

impl TableProvider {
    /// Creates an empty table over `engines` engines.
    ///
    /// # Panics
    ///
    /// Panics if `engines == 0`.
    pub fn new(engines: usize) -> Self {
        assert!(engines > 0, "need at least one engine");
        Self {
            engines,
            labels: (0..engines).map(|i| format!("engine{i}")).collect(),
            table: vec![None; NUM_MODELS * engines],
        }
    }

    /// Creates a fully-populated table by evaluating `f` for every
    /// `(model, engine)` pair — the one-shot way to snapshot an
    /// analytical cost model into a dense lookup table.
    ///
    /// # Panics
    ///
    /// Panics if `engines == 0`.
    pub fn from_fn(engines: usize, mut f: impl FnMut(ModelId, usize) -> InferenceCost) -> Self {
        let mut p = Self::new(engines);
        for model in ModelId::ALL {
            for engine in 0..engines {
                p.set(model, engine, f(model, engine));
            }
        }
        p
    }

    /// Sets the cost of `model` on `engine`.
    ///
    /// # Panics
    ///
    /// Panics if `engine` is out of range.
    pub fn set(&mut self, model: ModelId, engine: usize, cost: InferenceCost) -> &mut Self {
        assert!(engine < self.engines, "engine index out of range");
        self.table[model as usize * self.engines + engine] = Some(cost);
        self
    }

    /// Sets a human-readable label for an engine.
    ///
    /// # Panics
    ///
    /// Panics if `engine` is out of range.
    pub fn set_label(&mut self, engine: usize, label: impl Into<String>) -> &mut Self {
        assert!(engine < self.engines, "engine index out of range");
        self.labels[engine] = label.into();
        self
    }

    /// The registered cost of `model` on `engine`, if any — the
    /// non-panicking probe validators use to check a table covers the
    /// models a workload dispatches.
    pub fn try_cost(&self, model: ModelId, engine: usize) -> Option<InferenceCost> {
        if engine >= self.engines {
            return None;
        }
        self.table[model as usize * self.engines + engine]
    }
}

impl CostProvider for TableProvider {
    fn num_engines(&self) -> usize {
        self.engines
    }

    fn engine_label(&self, engine: usize) -> String {
        self.labels[engine].clone()
    }

    /// # Panics
    ///
    /// Panics if no cost was registered for `(model, engine)` — a
    /// benchmark must know the cost of every model it dispatches.
    fn cost(&self, model: ModelId, engine: usize) -> InferenceCost {
        // `try_cost` bound-checks before indexing: an out-of-range
        // engine must not alias another model's dense slot.
        self.try_cost(model, engine)
            .unwrap_or_else(|| panic!("no cost registered for {model} on engine {engine}"))
    }
}

/// A memoizing dense snapshot of any [`CostProvider`].
///
/// The simulator's event loop (and most schedulers) ask for the same
/// `(model, engine)` costs over and over — once per dispatch and once
/// per scheduling decision. `DenseCostCache` wraps an arbitrary
/// provider and caches each answer in a flat
/// `Vec<Cell<Option<InferenceCost>>>` indexed by
/// `model as usize * num_engines + engine`, so every repeat lookup is
/// an array index regardless of how expensive the underlying provider
/// is (analytical cost models re-evaluate whole layer stacks per
/// call).
///
/// Entries are filled lazily on first use, which preserves the
/// underlying provider's behavior for pairs that are never queried
/// (e.g. a [`TableProvider`] panics only for pairs that are actually
/// dispatched). The wrapped provider must be pure — returning
/// different costs for the same pair across calls already breaks the
/// simulator's determinism contract.
pub struct DenseCostCache<'a> {
    inner: &'a dyn CostProvider,
    engines: usize,
    cells: Vec<Cell<Option<InferenceCost>>>,
}

impl<'a> DenseCostCache<'a> {
    /// Wraps `inner`, caching lazily.
    pub fn new(inner: &'a dyn CostProvider) -> Self {
        let engines = inner.num_engines();
        Self {
            inner,
            engines,
            cells: vec![Cell::new(None); NUM_MODELS * engines],
        }
    }
}

impl std::fmt::Debug for DenseCostCache<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DenseCostCache")
            .field("label", &self.inner.label())
            .field("engines", &self.engines)
            .finish()
    }
}

impl CostProvider for DenseCostCache<'_> {
    fn num_engines(&self) -> usize {
        self.engines
    }

    fn label(&self) -> String {
        self.inner.label()
    }

    fn engine_label(&self, engine: usize) -> String {
        self.inner.engine_label(engine)
    }

    fn cost(&self, model: ModelId, engine: usize) -> InferenceCost {
        if engine >= self.engines {
            // Out-of-range engines are forwarded so the wrapped
            // provider's own diagnostics (or tolerance) apply.
            return self.inner.cost(model, engine);
        }
        let cell = &self.cells[model as usize * self.engines + engine];
        match cell.get() {
            Some(cost) => cost,
            None => {
                let cost = self.inner.cost(model, engine);
                cell.set(Some(cost));
                cost
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_provider_same_cost_everywhere() {
        let p = UniformProvider::new(3, 0.002, 0.01);
        assert_eq!(p.num_engines(), 3);
        for e in 0..3 {
            let c = p.cost(ModelId::HandTracking, e);
            assert_eq!(c.latency_s, 0.002);
            assert_eq!(c.energy_j, 0.01);
        }
    }

    #[test]
    fn table_provider_round_trips() {
        let mut p = TableProvider::new(2);
        p.set(
            ModelId::EyeSegmentation,
            1,
            InferenceCost {
                latency_s: 0.005,
                energy_j: 0.02,
            },
        );
        p.set_label(1, "OS@2048");
        assert_eq!(p.cost(ModelId::EyeSegmentation, 1).latency_s, 0.005);
        assert_eq!(p.engine_label(1), "OS@2048");
        assert_eq!(p.engine_label(0), "engine0");
    }

    #[test]
    #[should_panic(expected = "engine index out of range")]
    fn table_provider_set_label_out_of_range_panics_with_diagnostic() {
        // Regression: `set_label` used to index `labels` directly and
        // die with a raw slice-bounds panic instead of the same
        // "engine index out of range" assertion `set` raises.
        let mut p = TableProvider::new(2);
        p.set_label(2, "ghost");
    }

    #[test]
    #[should_panic(expected = "no cost registered")]
    fn table_provider_missing_entry_panics() {
        let p = TableProvider::new(1);
        let _ = p.cost(ModelId::HandTracking, 0);
    }

    #[test]
    #[should_panic(expected = "no cost registered")]
    fn table_provider_out_of_range_engine_panics() {
        // An out-of-range engine must not alias another model's dense
        // slot.
        let mut p = TableProvider::new(2);
        for m in ModelId::ALL {
            for e in 0..2 {
                p.set(
                    m,
                    e,
                    InferenceCost {
                        latency_s: 0.001,
                        energy_j: 0.0,
                    },
                );
            }
        }
        let _ = p.cost(ModelId::HandTracking, 2);
    }

    #[test]
    fn table_provider_from_fn_fills_every_pair() {
        let p = TableProvider::from_fn(3, |m, e| InferenceCost {
            latency_s: (m as usize + 1) as f64 * 1e-3,
            energy_j: e as f64,
        });
        for m in ModelId::ALL {
            for e in 0..3 {
                let c = p.cost(m, e);
                assert_eq!(c.latency_s, (m as usize + 1) as f64 * 1e-3);
                assert_eq!(c.energy_j, e as f64);
            }
        }
    }

    #[test]
    fn dense_cache_returns_inner_costs_and_memoizes() {
        use std::cell::Cell;

        struct Counting {
            calls: Cell<u64>,
        }
        impl CostProvider for Counting {
            fn num_engines(&self) -> usize {
                2
            }
            fn cost(&self, model: ModelId, engine: usize) -> InferenceCost {
                self.calls.set(self.calls.get() + 1);
                InferenceCost {
                    latency_s: (model as usize + 1) as f64 * 1e-3 + engine as f64,
                    energy_j: 0.5,
                }
            }
        }

        let inner = Counting {
            calls: Cell::new(0),
        };
        let cache = DenseCostCache::new(&inner);
        assert_eq!(cache.num_engines(), 2);
        for _ in 0..5 {
            for m in ModelId::ALL {
                for e in 0..2 {
                    assert_eq!(cache.cost(m, e), inner.cost(m, e));
                }
            }
        }
        // 5 rounds × direct comparison calls (110) + one fill per pair.
        assert_eq!(inner.calls.get(), 5 * 22 + 22);
    }

    #[test]
    fn dense_cache_forwards_labels() {
        let mut p = TableProvider::new(2);
        p.set_label(1, "OS@4096");
        let cache = DenseCostCache::new(&p);
        assert_eq!(cache.engine_label(1), "OS@4096");
        assert_eq!(cache.label(), p.label());
    }

    #[test]
    #[should_panic(expected = "at least one engine")]
    fn zero_engines_rejected() {
        let _ = UniformProvider::new(0, 0.001, 0.0);
    }
}
