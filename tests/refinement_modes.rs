//! The cross-query distance cache and the CH backend are *bit-identical*
//! to the uncached Dijkstra engine — same users, same POIs, same
//! `maxdist` down to the last mantissa bit — across a randomized
//! ≥200-query corpus. Eviction
//! pressure (a cache too small to hold anything for long) must also
//! change nothing: a hit only ever returns what the miss path would
//! have recomputed.
//!
//! The same corpus drives a differential oracle over the query modes:
//! every pruning switch (alone and all together) and the tight MBR test
//! on both backends, with the cache on and off, top-1, and the sampler
//! must agree with the default exact query on the optimum's value, bit
//! for bit: road lengths are grid values, so `maxdist` has one value
//! however its distances were computed.

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

/// Value comparison: feasibility, and the bits of `maxdist`. The
/// optimum's value is unique, but two centers can tie on it, and the
/// pruning switches change which of them is verified first — so the
/// group may legitimately differ.
fn assert_same_value(a: Option<&GpSsnAnswer>, b: Option<&GpSsnAnswer>, what: &str) {
    match (a, b) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            assert_eq!(
                x.maxdist.to_bits(),
                y.maxdist.to_bits(),
                "{what}: optimum differs ({} vs {})",
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
/// optimum. Switches that enlarge the candidate set (interest and
/// social-distance pruning) can flip `verify_center` from per-user
/// distance sweeps to per-POI sweeps; both sum a shortest path to the
/// same bits.
fn switch_rows() -> Vec<(&'static str, QueryOptions)> {
    let d = QueryOptions::default;
    vec![
        (
            "no interest pruning",
            QueryOptions {
                use_interest_pruning: false,
                ..d()
            },
        ),
        (
            "no social-distance pruning",
            QueryOptions {
                use_social_distance_pruning: false,
                ..d()
            },
        ),
        (
            "no matching pruning",
            QueryOptions {
                use_matching_pruning: false,
                ..d()
            },
        ),
        (
            "no delta pruning",
            QueryOptions {
                use_delta_pruning: false,
                ..d()
            },
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
        ),
        (
            "tight MBR test",
            QueryOptions {
                use_tight_mbr_test: true,
                ..d()
            },
        ),
    ]
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
        // One warm cache shared by every row below, so values stored by
        // per-user rows are served to per-POI columns and back.
        let cached =
            GpSsnEngine::build(&ssn, small_cfg(seed, Some(DistanceCacheConfig::default())));
        for q in corpus(&ssn, seed) {
            let dij = engine.query_with_options(&q, &backend_opts(DistanceBackend::Dijkstra));
            let ch = engine.query_with_options(&q, &backend_opts(DistanceBackend::Ch));
            assert_bit_identical(&dij.answer, &ch.answer, "CH backend vs Dijkstra");
            assert_eq!(
                dij.metrics.backend_served.ch_batches, 0,
                "Dijkstra backend must not touch the CH oracle"
            );
            ch_engaged += (ch.metrics.backend_served.ch_batches > 0) as usize;
            checked += 1;
            answered += dij.answer.is_some() as usize;

            // Differential oracle: the default exact answer is the
            // reference for every other configuration and mode.
            let exact = ch.answer.as_ref();
            for backend in [DistanceBackend::Dijkstra, DistanceBackend::Ch] {
                for (name, row) in switch_rows() {
                    let opts = QueryOptions {
                        distance_backend: backend,
                        ..row
                    };
                    let out = engine.query_with_options(&q, &opts);
                    let what = format!("{name}, {backend:?}");
                    assert_same_value(out.answer.as_ref(), exact, &what);
                    let warm = cached.query_with_options(&q, &opts);
                    assert_bit_identical(&warm.answer, &out.answer, &format!("{what}, cache on"));
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
            assert_same_value(top1.answers.first(), exact, "top-1 vs exact");
            let approx = engine
                .try_query_approximate(&q, 64, 7, &unlimited)
                .expect("sampled query runs");
            if let Some(a) = &approx.answer {
                check_answer(&ssn, &q, a).expect("sampled answer violates Definition 5");
                let e = exact.expect("sampler answered where exact found nothing");
                assert!(
                    a.maxdist >= e.maxdist,
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

/// Top-1 and exact agree bit for bit on a larger corpus (Uni at scale
/// 0.01). The two modes verify centers against different bounds, so
/// they can price the optimum's distances through different sweeps —
/// per-user rows in one, per-POI columns in the other. Before road
/// lengths were grid values, one query of this corpus (user 139) got an
/// optimum whose last bits differed between the modes.
#[test]
fn top_1_matches_exact_bitwise_at_scale_0_01() {
    let seed = 1;
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), seed);
    let engine = GpSsnEngine::build(&ssn, small_cfg(seed, None));
    let unlimited = QueryBudget::unlimited();
    let opts = QueryOptions::default();
    let m = ssn.social().num_users() as u32;
    let mut feasible = 0usize;
    for i in 0..180u32 {
        let q = GpSsnQuery {
            user: (i * 7919 + 1) % m,
            tau: 2 + i as usize % 3,
            gamma: 0.3,
            theta: 0.3,
            radius: 1.0 + f64::from(i % 3),
        };
        let exact = engine
            .try_query_with_options(&q, &opts, &unlimited)
            .expect("exact query runs");
        let top1 = engine
            .try_query_top_k(&q, 1, &opts, &unlimited)
            .expect("top-1 runs");
        let what = format!("top-1 vs exact, {q:?}");
        assert_same_value(top1.answers.first(), exact.answer.as_ref(), &what);
        feasible += exact.answer.is_some() as usize;
    }
    assert!(feasible >= 150, "too few feasible cases: {feasible}");
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
            a.metrics.backend_served.ch_batches, 0,
            "a CH-less index cannot have served CH batches"
        );
    }
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
