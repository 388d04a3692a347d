//! Tests for the extension features beyond the paper's core algorithm:
//! approximate refinement by subset sampling (the paper's stated future
//! work) and top-k GP-SSN answers.

use gpssn::core::query::check_answer;
use gpssn::core::{
    EngineConfig, GpSsnAnswer, GpSsnEngine, GpSsnError, GpSsnQuery, QueryBudget, QueryOptions,
};
use gpssn::index::SocialIndexConfig;
use gpssn::ssn::{synthetic, SpatialSocialNetwork, SyntheticConfig};

fn engine(ssn: &SpatialSocialNetwork) -> GpSsnEngine<'_> {
    GpSsnEngine::build(
        ssn,
        EngineConfig {
            num_road_pivots: 3,
            num_social_pivots: 3,
            social_index: SocialIndexConfig {
                leaf_size: 16,
                fanout: 4,
                ..Default::default()
            },
            ..Default::default()
        },
    )
}

/// The sampled answer, `None` for a statically infeasible query.
fn approximate(
    eng: &GpSsnEngine,
    q: &GpSsnQuery,
    samples: usize,
    seed: u64,
) -> Option<GpSsnAnswer> {
    match eng.try_query_approximate(q, samples, seed, &QueryBudget::unlimited()) {
        Ok(out) => out.answer,
        Err(GpSsnError::Infeasible { .. }) => None,
        Err(e) => panic!("{e}"),
    }
}

/// The top-`k` answers, empty for a statically infeasible query.
fn top_k(eng: &GpSsnEngine, q: &GpSsnQuery, k: usize) -> Vec<GpSsnAnswer> {
    let unlimited = QueryBudget::unlimited();
    match eng.try_query_top_k(q, k, &QueryOptions::default(), &unlimited) {
        Ok(out) => out.answers,
        Err(GpSsnError::Infeasible { .. }) => Vec::new(),
        Err(e) => panic!("{e}"),
    }
}

#[test]
fn approximate_answers_validate_and_bound_exact() {
    for seed in 0..5u64 {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.008), seed);
        let eng = engine(&ssn);
        let q = GpSsnQuery {
            user: 1,
            tau: 2,
            gamma: 0.3,
            theta: 0.3,
            radius: 2.5,
        };
        let exact = eng.query(&q).answer;
        let approx = approximate(&eng, &q, 32, seed);
        if let Some(a) = &approx {
            check_answer(&ssn, &q, a).expect("approximate answer violates Definition 5");
            if let Some(e) = &exact {
                assert!(
                    a.maxdist + 1e-9 >= e.maxdist,
                    "approximate ({}) beat exact ({})",
                    a.maxdist,
                    e.maxdist
                );
            } else {
                panic!("approximate found an answer where exact found none");
            }
        }
    }
}

#[test]
fn approximate_usually_finds_feasible_queries() {
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.02), 4);
    let eng = engine(&ssn);
    let mut exact_hits = 0;
    let mut approx_hits = 0;
    for user in [1u32, 5, 9, 13, 21] {
        let q = GpSsnQuery {
            user,
            tau: 3,
            gamma: 0.3,
            theta: 0.3,
            radius: 2.5,
        };
        if eng.query(&q).answer.is_some() {
            exact_hits += 1;
            if approximate(&eng, &q, 64, 7).is_some() {
                approx_hits += 1;
            }
        }
    }
    assert!(exact_hits > 0, "fixture produced no feasible queries");
    assert!(
        approx_hits * 2 >= exact_hits,
        "sampling missed too often: {approx_hits}/{exact_hits}"
    );
}

#[test]
fn top_k_is_sorted_valid_and_starts_at_the_optimum() {
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.015), 11);
    let eng = engine(&ssn);
    let q = GpSsnQuery {
        user: 2,
        tau: 2,
        gamma: 0.3,
        theta: 0.3,
        radius: 2.5,
    };
    let single = eng.query(&q).answer;
    let top = top_k(&eng, &q, 5);
    if let Some(best) = &single {
        assert!(!top.is_empty());
        assert!(
            (top[0].maxdist - best.maxdist).abs() < 1e-6,
            "top-1 ({}) differs from the optimum ({})",
            top[0].maxdist,
            best.maxdist
        );
    }
    for w in top.windows(2) {
        assert!(w[0].maxdist <= w[1].maxdist + 1e-9, "top-k not sorted");
    }
    for ans in &top {
        check_answer(&ssn, &q, ans).expect("top-k answer violates Definition 5");
    }
    // Distinct (S, R) pairs.
    for i in 0..top.len() {
        for j in (i + 1)..top.len() {
            assert!(
                top[i].users != top[j].users || top[i].pois != top[j].pois,
                "duplicate answers in top-k"
            );
        }
    }
}

#[test]
fn top_k_matches_exhaustive_oracle() {
    use gpssn::core::exact_baseline_top_k;
    for seed in 60..64u64 {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.006), seed);
        let eng = engine(&ssn);
        let q = GpSsnQuery {
            user: 0,
            tau: 2,
            gamma: 0.3,
            theta: 0.3,
            radius: 2.0,
        };
        let expected = exact_baseline_top_k(&ssn, &q, 4);
        let got = top_k(&eng, &q, 4);
        assert_eq!(
            expected.len(),
            got.len(),
            "seed {seed}: answer counts differ"
        );
        for (e, g) in expected.iter().zip(got.iter()) {
            assert!(
                (e.maxdist - g.maxdist).abs() < 1e-6,
                "seed {seed}: objective ranks differ: {} vs {}",
                e.maxdist,
                g.maxdist
            );
        }
    }
}

#[test]
fn top_1_matches_query_across_seeds() {
    for seed in 30..34u64 {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.008), seed);
        let eng = engine(&ssn);
        let q = GpSsnQuery {
            user: 0,
            tau: 2,
            gamma: 0.35,
            theta: 0.3,
            radius: 2.0,
        };
        let single = eng.query(&q).answer;
        let top = top_k(&eng, &q, 1);
        match (single, top.first()) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert!((a.maxdist - b.maxdist).abs() < 1e-6, "seed {seed} mismatch")
            }
            other => panic!("seed {seed}: feasibility mismatch {other:?}"),
        }
    }
}
