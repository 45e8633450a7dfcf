//! Criterion microbenchmark behind Table 5: local sketch-fold throughput
//! of the sum-aggregation checker for every evaluated configuration.

use ccheck::config::table5_configs;
use ccheck::sketch::Sketch;
use ccheck::SumChecker;
use ccheck_workloads::{uniform_ints, zipf_pairs};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_fold(c: &mut Criterion) {
    let n = 100_000usize;
    let keys = zipf_pairs(42, 1_000_000, 0..n);
    let values = uniform_ints(43, u64::MAX, 0..n);
    let pairs: Vec<(u64, u64)> = keys
        .into_iter()
        .zip(values)
        .map(|((k, _), v)| (k, v))
        .collect();

    let mut group = c.benchmark_group("sum_checker_fold");
    group.throughput(Throughput::Elements(n as u64));
    for cfg in table5_configs() {
        let checker = SumChecker::new(cfg, 7);
        group.bench_function(BenchmarkId::from_parameter(cfg.label()), |b| {
            b.iter(|| {
                let mut sketch = checker.sketch();
                sketch.update_iter(std::hint::black_box(&pairs).iter().copied());
                std::hint::black_box(sketch.table()[0]);
            })
        });
    }
    group.finish();
}

fn bench_end_to_end_local(c: &mut Criterion) {
    // Full local check (fold both sides + compare digests) at 10k pairs.
    let n = 10_000usize;
    let input = zipf_pairs(1, 100_000, 0..n);
    let mut agg = std::collections::HashMap::new();
    for &(k, v) in &input {
        *agg.entry(k).or_insert(0u64) += v;
    }
    let output: Vec<(u64, u64)> = agg.into_iter().collect();

    let mut group = c.benchmark_group("sum_checker_digest_compare");
    group.throughput(Throughput::Elements(n as u64));
    for cfg in [table5_configs()[0], table5_configs()[6]] {
        let checker = SumChecker::new(cfg, 7);
        group.bench_function(BenchmarkId::from_parameter(cfg.label()), |b| {
            b.iter(|| {
                let digest = |side: &[(u64, u64)]| {
                    let mut sketch = checker.sketch();
                    sketch.update_iter(std::hint::black_box(side).iter().copied());
                    sketch.finalize()
                };
                assert_eq!(digest(&input), digest(&output));
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fold, bench_end_to_end_local);
criterion_main!(benches);
