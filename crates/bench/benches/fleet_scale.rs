//! Criterion bench for fleet execution throughput — the PR-4 scale
//! axis. `gate fleet` is the committed pass/fail version of the same
//! measurement; this bench is for interactive profiling
//! (`cargo bench -p xrbench-bench fleet_scale`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use xrbench_bench::fleet_scale::{fleet, provider};
use xrbench_fleet::{run_fleet, FleetRunConfig};

fn bench_fleet_scale(c: &mut Criterion) {
    let system = provider();
    let config = FleetRunConfig::default();
    let mut g = c.benchmark_group("fleet_scale");
    for users in [1_024u32, 4_096] {
        let spec = fleet(users);
        g.bench_with_input(BenchmarkId::from_parameter(users), &spec, |b, s| {
            b.iter(|| run_fleet(black_box(s), &system, &config));
        });
    }
    g.finish();
}

fn bench_worker_scaling(c: &mut Criterion) {
    // The same 1,024-user fleet under 1 / 2 / 8 workers: the report is
    // bit-identical across rows, only the wall clock moves.
    let system = provider();
    let spec = fleet(1_024);
    let mut g = c.benchmark_group("fleet_worker_scaling_1024_users");
    for workers in [1usize, 2, 8] {
        let config = FleetRunConfig {
            workers,
            ..FleetRunConfig::default()
        };
        g.bench_with_input(BenchmarkId::from_parameter(workers), &config, |b, cfg| {
            b.iter(|| run_fleet(black_box(&spec), &system, cfg));
        });
    }
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_fleet_scale, bench_worker_scaling);
criterion_main!(benches);
