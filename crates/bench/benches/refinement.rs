//! Center-refinement benchmark: queries without and with a warm
//! cross-query distance cache. Both return bit-identical answers (see
//! `tests/refinement_modes.rs`); this measures what the cache saves.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gpssn_core::{DistanceCacheConfig, EngineConfig, GpSsnEngine, GpSsnQuery};
use gpssn_ssn::{DatasetKind, SpatialSocialNetwork};

const SCALE: f64 = 0.1;

fn engine(ssn: &SpatialSocialNetwork, cache: Option<DistanceCacheConfig>) -> GpSsnEngine<'_> {
    GpSsnEngine::build(
        ssn,
        EngineConfig {
            distance_cache: cache,
            ..Default::default()
        },
    )
}

/// A handful of refinement-heavy queries (large radius and group size
/// push more centers past the bound phase into exact verification).
fn workload() -> Vec<GpSsnQuery> {
    [3u32, 11, 27, 42]
        .into_iter()
        .map(|user| GpSsnQuery {
            tau: 5,
            radius: 3.0,
            ..GpSsnQuery::with_defaults(user)
        })
        .collect()
}

/// Cold vs warm distance cache. "cold" rebuilds nothing —
/// the cache is simply absent — while "warm" replays the workload
/// against a cache already populated by a priming pass, the cross-query
/// batch scenario the cache exists for.
fn bench_cache(c: &mut Criterion) {
    let ssn = DatasetKind::Uni.build(SCALE, 42);
    let queries = workload();
    let mut group = c.benchmark_group("refinement_cache");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.sample_size(10);

    let uncached = engine(&ssn, None);
    group.bench_function("disabled", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(uncached.query(q));
            }
        });
    });

    let cached = engine(&ssn, Some(DistanceCacheConfig::default()));
    let mut tallies = (0u64, 0u64);
    for q in &queries {
        let out = cached.query(q); // priming pass
        tallies.0 += out.metrics.cache.ball_hits + out.metrics.cache.dist_hits;
        tallies.1 += out.metrics.cache.ball_misses + out.metrics.cache.dist_misses;
    }
    group.bench_function("warm", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(cached.query(q));
            }
        });
    });
    // One steady-state replay to report the hit rate Criterion can't.
    let mut hits = 0u64;
    let mut misses = 0u64;
    for q in &queries {
        let cs = cached.query(q).metrics.cache;
        hits += cs.ball_hits + cs.dist_hits;
        misses += cs.ball_misses + cs.dist_misses;
    }
    eprintln!(
        "refinement_cache: priming pass {}h/{}m, steady state {}h/{}m (hit rate {:.1}%)",
        tallies.0,
        tallies.1,
        hits,
        misses,
        100.0 * hits as f64 / (hits + misses).max(1) as f64
    );
    group.finish();
}

criterion_group!(benches, bench_cache);
criterion_main!(benches);
