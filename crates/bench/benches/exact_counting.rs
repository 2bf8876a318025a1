//! Criterion: exact counting latency (the GFlow/GQL series of Figs. 8–9)
//! under both semantics.

use alss_datasets::by_name;
use alss_datasets::queries::unlabeled_pool;
use alss_matching::{count_homomorphisms, count_isomorphisms, Budget};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_exact(c: &mut Criterion) {
    let data = by_name("yeast", 0.1, 0).expect("dataset");
    let queries = unlabeled_pool(&data, &[4, 6], 2, 0.0, 5);
    let mut group = c.benchmark_group("exact_count");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.sample_size(10);
    for q in &queries {
        let n = q.num_nodes();
        group.bench_with_input(BenchmarkId::new("hom_seq", n), q, |b, q| {
            b.iter(|| {
                let budget = Budget::new(100_000_000);
                black_box(count_homomorphisms(&data, q, &budget).unwrap_or(0))
            })
        });
        group.bench_with_input(BenchmarkId::new("iso_seq", n), q, |b, q| {
            b.iter(|| {
                let budget = Budget::new(100_000_000);
                black_box(count_isomorphisms(&data, q, &budget).unwrap_or(0))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_exact);
criterion_main!(benches);
