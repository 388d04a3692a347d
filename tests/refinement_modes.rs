//! PR 2 acceptance properties: parallel center refinement and the
//! cross-query distance cache are *bit-identical* to the sequential,
//! uncached engine — same users, same POIs, same `maxdist` down to the
//! last mantissa bit — across a randomized ≥200-query corpus. Eviction
//! pressure (a cache too small to hold anything for long) must also
//! change nothing: a hit only ever returns what the miss path would
//! have recomputed.
//!
//! The same corpus drives a differential oracle over the query modes:
//! every pruning switch (alone and all together) and the tight MBR test
//! on both backends, top-1, and the sampler must agree with the default
//! exact query on the optimum's value.

use gpssn::core::algorithm::{DistanceBackend, EngineConfig, QueryOptions};
use gpssn::core::query::check_answer;
use gpssn::core::{DistanceCacheConfig, GpSsnAnswer, GpSsnEngine, GpSsnQuery, QueryBudget};
use gpssn::index::{PivotSelectConfig, SocialIndexConfig};
use gpssn::ssn::{synthetic, SpatialSocialNetwork, SyntheticConfig};

fn small_cfg(seed: u64, cache: Option<DistanceCacheConfig>) -> EngineConfig {
    EngineConfig {
        num_road_pivots: 3,
        num_social_pivots: 3,
        social_index: SocialIndexConfig {
            leaf_size: 8,
            fanout: 3,
            ..Default::default()
        },
        pivot_select: PivotSelectConfig {
            seed,
            ..Default::default()
        },
        distance_cache: cache,
        ..Default::default()
    }
}

/// The query corpus: a parameter grid over a few seeds, ≥200 queries in
/// total (mirrors the equivalence suite's shape so both feasible and
/// infeasible cases are exercised).
fn corpus(ssn: &SpatialSocialNetwork, seed: u64) -> Vec<GpSsnQuery> {
    let m = ssn.social().num_users() as u32;
    let mut qs = Vec::new();
    for (qi, &tau) in [1usize, 2, 3].iter().enumerate() {
        for (gi, &gamma) in [0.2, 0.5, 0.8].iter().enumerate() {
            for &theta in &[0.2, 0.6] {
                for &radius in &[1.0, 2.0, 3.0] {
                    let user = (seed as u32 + qi as u32 * 7 + gi as u32 * 3) % m;
                    qs.push(GpSsnQuery {
                        user,
                        tau,
                        gamma,
                        theta,
                        radius,
                    });
                }
            }
        }
    }
    qs
}

/// Bitwise answer comparison: users, POIs, and the exact bit pattern of
/// the objective. `f64::to_bits` makes "equal up to rounding" failures
/// impossible to paper over.
fn assert_bit_identical(a: &Option<GpSsnAnswer>, b: &Option<GpSsnAnswer>, what: &str) {
    match (a, b) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            assert_eq!(x.users, y.users, "{what}: user groups differ");
            assert_eq!(x.pois, y.pois, "{what}: POI sets differ");
            assert_eq!(
                x.maxdist.to_bits(),
                y.maxdist.to_bits(),
                "{what}: maxdist bits differ ({} vs {})",
                x.maxdist,
                y.maxdist
            );
        }
        _ => panic!(
            "{what}: feasibility differs ({:?} vs {:?})",
            a.as_ref().map(|x| x.maxdist),
            b.as_ref().map(|x| x.maxdist)
        ),
    }
}

/// Value comparison: feasibility, and `maxdist` at most `max_ulps`
/// apart (0 = bitwise). The optimum's value is unique, but two centers
/// can tie on it, and the pruning switches change which of them is
/// verified first — so the group may legitimately differ.
fn assert_same_value(a: Option<&GpSsnAnswer>, b: Option<&GpSsnAnswer>, max_ulps: u64, what: &str) {
    match (a, b) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            let ulps = x.maxdist.to_bits().abs_diff(y.maxdist.to_bits());
            assert!(
                ulps <= max_ulps,
                "{what}: optimum differs by {ulps} ulps ({} vs {})",
                x.maxdist,
                y.maxdist
            );
        }
        _ => panic!(
            "{what}: feasibility differs ({:?} vs {:?})",
            a.map(|x| x.maxdist),
            b.map(|x| x.maxdist)
        ),
    }
}

/// Every pruning switch off alone, all four off together, and the
/// tight MBR test on — each a configuration that must not move the
/// optimum — with the ulps it may move the optimum's last bits by.
///
/// Switches that enlarge the candidate set (interest and
/// social-distance pruning) can flip `verify_center` from per-user
/// distance sweeps to per-POI sweeps, which sum the same shortest path
/// in the opposite order: on this corpus the optimum then moves by up
/// to 2 ulps. Every other row is bitwise.
fn switch_rows() -> Vec<(&'static str, QueryOptions, u64)> {
    let d = QueryOptions::default;
    vec![
        (
            "no interest pruning",
            QueryOptions {
                use_interest_pruning: false,
                ..d()
            },
            4,
        ),
        (
            "no social-distance pruning",
            QueryOptions {
                use_social_distance_pruning: false,
                ..d()
            },
            4,
        ),
        (
            "no matching pruning",
            QueryOptions {
                use_matching_pruning: false,
                ..d()
            },
            0,
        ),
        (
            "no delta pruning",
            QueryOptions {
                use_delta_pruning: false,
                ..d()
            },
            0,
        ),
        (
            "no pruning",
            QueryOptions {
                use_interest_pruning: false,
                use_social_distance_pruning: false,
                use_matching_pruning: false,
                use_delta_pruning: false,
                ..d()
            },
            4,
        ),
        (
            "tight MBR test",
            QueryOptions {
                use_tight_mbr_test: true,
                ..d()
            },
            0,
        ),
    ]
}

fn threads_opts(threads: usize) -> QueryOptions {
    QueryOptions {
        refine_threads: threads,
        ..Default::default()
    }
}

fn backend_opts(backend: DistanceBackend) -> QueryOptions {
    QueryOptions {
        distance_backend: backend,
        ..Default::default()
    }
}

#[test]
fn ch_backend_is_bit_identical_to_dijkstra() {
    let mut checked = 0usize;
    let mut answered = 0usize;
    let mut ch_engaged = 0usize;
    let mut sampled = 0usize;
    let unlimited = QueryBudget::unlimited();
    for seed in 0..4u64 {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.004), seed);
        let engine = GpSsnEngine::build(&ssn, small_cfg(seed, None));
        for q in corpus(&ssn, seed) {
            let dij = engine.query_with_options(&q, &backend_opts(DistanceBackend::Dijkstra));
            let ch = engine.query_with_options(&q, &backend_opts(DistanceBackend::Ch));
            assert_bit_identical(&dij.answer, &ch.answer, "CH backend vs Dijkstra");
            assert_eq!(
                dij.metrics.ch_batches, 0,
                "Dijkstra backend must not touch the CH oracle"
            );
            ch_engaged += (ch.metrics.ch_batches > 0) as usize;
            checked += 1;
            answered += dij.answer.is_some() as usize;

            // Differential oracle: the default exact answer is the
            // reference for every other configuration and mode.
            let exact = ch.answer.as_ref();
            for backend in [DistanceBackend::Dijkstra, DistanceBackend::Ch] {
                for (name, row, max_ulps) in switch_rows() {
                    let opts = QueryOptions {
                        distance_backend: backend,
                        ..row
                    };
                    let out = engine.query_with_options(&q, &opts);
                    let what = format!("{name}, {backend:?}");
                    assert_same_value(out.answer.as_ref(), exact, max_ulps, &what);
                }
            }
            let statically_infeasible = engine
                .try_query_with_options(&q, &QueryOptions::default(), &unlimited)
                .is_err();
            if statically_infeasible {
                continue;
            }
            let top1 = engine
                .try_query_top_k(&q, 1, &QueryOptions::default(), &unlimited)
                .expect("top-1 runs");
            assert_same_value(top1.answers.first(), exact, 0, "top-1 vs exact");
            let approx = engine
                .try_query_approximate(&q, 64, 7, &unlimited)
                .expect("sampled query runs");
            if let Some(a) = &approx.answer {
                check_answer(&ssn, &q, a).expect("sampled answer violates Definition 5");
                let e = exact.expect("sampler answered where exact found nothing");
                // The sampler prices users by sweeps from their homes,
                // the exact verifier often by sweeps from the POIs (see
                // `switch_rows`), so "beating" the optimum must exceed
                // those few ulps.
                assert!(
                    a.maxdist.to_bits() + 4 >= e.maxdist.to_bits(),
                    "sampled ({}) beat exact ({})",
                    a.maxdist,
                    e.maxdist
                );
                sampled += 1;
            }
        }
    }
    assert!(
        sampled >= 10,
        "the sampler barely answered ({sampled} queries)"
    );
    assert!(checked >= 200, "stress corpus too small: {checked}");
    assert!(answered >= 10, "too few feasible cases: {answered}");
    assert!(
        ch_engaged >= 10,
        "the CH oracle barely engaged ({ch_engaged} queries) — the test proves nothing"
    );
}

#[test]
fn ch_less_index_falls_back_to_dijkstra() {
    // An engine whose road index skipped CH construction still serves
    // queries under the default `DistanceBackend::Ch`: the backend
    // degrades to Dijkstra silently and reports zero CH batches.
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.004), 7);
    let mut chless_cfg = small_cfg(7, None);
    chless_cfg.road_index.build_ch = false;
    let chless = GpSsnEngine::build(&ssn, chless_cfg);
    let full = GpSsnEngine::build(&ssn, small_cfg(7, None));
    for q in corpus(&ssn, 7) {
        let a = chless.query(&q);
        let b = full.query_with_options(&q, &backend_opts(DistanceBackend::Dijkstra));
        assert_bit_identical(&a.answer, &b.answer, "CH-less fallback vs Dijkstra");
        assert_eq!(
            a.metrics.ch_batches, 0,
            "a CH-less index cannot have served CH batches"
        );
    }
}

#[test]
fn parallel_refinement_is_bit_identical_to_sequential() {
    // Cache off so this test isolates the threading dimension.
    let mut checked = 0usize;
    let mut answered = 0usize;
    for seed in 0..4u64 {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.004), seed);
        let engine = GpSsnEngine::build(&ssn, small_cfg(seed, None));
        for q in corpus(&ssn, seed) {
            let seq = engine.query_with_options(&q, &threads_opts(1));
            let par4 = engine.query_with_options(&q, &threads_opts(4));
            let par_auto = engine.query_with_options(&q, &threads_opts(0));
            assert_bit_identical(&seq.answer, &par4.answer, "4 threads vs sequential");
            assert_bit_identical(&seq.answer, &par_auto.answer, "auto threads vs sequential");
            checked += 1;
            answered += seq.answer.is_some() as usize;
        }
    }
    assert!(checked >= 200, "stress corpus too small: {checked}");
    assert!(answered >= 10, "too few feasible cases: {answered}");
}

#[test]
fn cache_never_changes_answers() {
    for seed in 0..3u64 {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.004), seed);
        let cached =
            GpSsnEngine::build(&ssn, small_cfg(seed, Some(DistanceCacheConfig::default())));
        let uncached = GpSsnEngine::build(&ssn, small_cfg(seed, None));
        // Two passes over the corpus: the second runs against a warm
        // cache, so hits (not just misses) are compared against the
        // cache-free engine.
        for pass in 0..2 {
            for q in corpus(&ssn, seed) {
                let a = cached.query(&q);
                let b = uncached.query(&q);
                assert_bit_identical(&a.answer, &b.answer, "cached vs uncached");
                if pass == 1 {
                    // Warm pass: hits must actually be happening, or this
                    // test proves nothing about the hit path.
                    let c = a.metrics.cache;
                    assert!(
                        c.ball_hits + c.dist_hits > 0 || a.answer.is_none(),
                        "warm pass produced no cache hits for {q:?}: {c:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn eviction_pressure_never_changes_answers() {
    // A cache this small is evicting almost constantly; every lookup
    // pattern (miss, hit, hit-after-evict-and-recompute) must still
    // produce the bit pattern the uncached engine computes.
    let tiny = DistanceCacheConfig {
        ball_capacity: 2,
        dist_capacity: 8,
        shards: 1,
    };
    for seed in 0..3u64 {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.004), seed);
        let squeezed = GpSsnEngine::build(&ssn, small_cfg(seed, Some(tiny.clone())));
        let uncached = GpSsnEngine::build(&ssn, small_cfg(seed, None));
        for q in corpus(&ssn, seed) {
            let a = squeezed.query(&q);
            let b = uncached.query(&q);
            assert_bit_identical(&a.answer, &b.answer, "tiny cache vs uncached");
        }
    }
}

#[test]
fn parallel_and_cached_together_match_the_plain_engine() {
    // The full production configuration (cache on, 4 refinement
    // threads) against the simplest one (no cache, one thread).
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.004), 11);
    let fast = GpSsnEngine::build(&ssn, small_cfg(11, Some(DistanceCacheConfig::default())));
    let plain = GpSsnEngine::build(&ssn, small_cfg(11, None));
    for q in corpus(&ssn, 11) {
        let a = fast.query_with_options(&q, &threads_opts(4));
        let b = plain.query_with_options(&q, &threads_opts(1));
        assert_bit_identical(&a.answer, &b.answer, "parallel+cached vs plain");
    }
}

#[test]
fn repeated_queries_report_a_rising_hit_rate() {
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.004), 5);
    let engine = GpSsnEngine::build(&ssn, small_cfg(5, Some(DistanceCacheConfig::default())));
    let q = GpSsnQuery {
        user: 1,
        tau: 2,
        gamma: 0.3,
        theta: 0.2,
        radius: 3.0,
    };
    let cold = engine.query(&q);
    let warm = engine.query(&q);
    let (c, w) = (cold.metrics.cache, warm.metrics.cache);
    // The warm run re-asks exactly the cold run's questions, so every
    // ball and distance it needs is resident.
    assert!(
        w.ball_hits >= c.ball_hits && w.dist_hits >= c.dist_hits,
        "warm run lost hits: cold {c:?} warm {w:?}"
    );
    assert!(
        w.ball_hits + w.dist_hits > 0,
        "identical repeat query missed the cache entirely: {w:?}"
    );
    assert!(w.hit_rate() > 0.0, "hit rate not reported: {w:?}");
    assert_bit_identical(&cold.answer, &warm.answer, "warm repeat vs cold");
}
