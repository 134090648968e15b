//! Wall-clock benchmark of the register-cache (LRU, all-to-all comparator
//! model).

use asdr_core::arch::RegCache;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_regcache(c: &mut Criterion) {
    // van der Corput stream: realistic mixed reuse distances
    let stream: Vec<u64> = (1u64..4097).map(|i| i.trailing_zeros() as u64 * 131 + i % 7).collect();

    // names spelled out so `tests/baseline_names.rs` can find them
    for (name, cap) in [
        ("regcache_access_cap2", 2usize),
        ("regcache_access_cap8", 8),
        ("regcache_access_cap16", 16),
    ] {
        c.bench_function(name, |b| {
            let mut cache = RegCache::new(cap);
            let mut i = 0;
            b.iter(|| {
                let hit = cache.access(black_box(stream[i % stream.len()]));
                i += 1;
                black_box(hit)
            })
        });
    }
}

criterion_group!(benches, bench_regcache);
criterion_main!(benches);
