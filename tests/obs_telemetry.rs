//! PR 4 acceptance properties for the telemetry layer.
//!
//! 1. **Fig. 7 parity** — the Prometheus exposition path carries exactly
//!    the same pruning counters as the legacy [`PruningStats`] returned
//!    per query: bitwise-equal u64 sums, and a `PruningStats`
//!    reconstructed from the exposition text reproduces every Fig. 7
//!    power accessor bit-for-bit.
//! 2. **Chrome trace validity** — a traced query emits `trace_event`
//!    JSON our own minimal parser accepts, with the query → prune →
//!    refine → verify_center → distance-layer span levels present and
//!    `verify_center` spans parented under a refinement span.
//! 3. **Batch-merge determinism** — two identical batch runs on fresh
//!    engines produce identical counter maps, regardless of how the OS
//!    interleaves the worker threads (per-thread registries merged in
//!    chunk order).
//! 4. **Cache counter agreement** — the distance cache's lifetime
//!    counters equal the summed per-query cache lookups, and the
//!    published hit-rate gauge is the hit share of those lookups.

use gpssn::core::algorithm::{EngineConfig, QueryOptions};
use gpssn::core::{
    CacheStats, DistanceCacheConfig, GpSsnEngine, GpSsnQuery, PruningStats, QueryBudget,
};
use gpssn::index::{PivotSelectConfig, SocialIndexConfig};
use gpssn::obs::{chrome_trace_json, json, Obs};
use gpssn::ssn::{synthetic, SpatialSocialNetwork, SyntheticConfig};
use std::sync::Arc;

fn small_cfg(seed: u64, obs: Option<Arc<Obs>>) -> EngineConfig {
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
        // No cross-query cache: its hit/miss split depends on thread
        // interleaving, which would make the determinism test vacuous.
        distance_cache: None,
        obs,
        ..Default::default()
    }
}

/// The usual parameter-grid corpus (mirrors the refinement suite).
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

/// Value of the counter whose rendered id is exactly `id` in a
/// Prometheus exposition. Panics when the series is absent — a missing
/// series in these tests means the instrumentation regressed.
fn prom_counter(text: &str, id: &str) -> u64 {
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(id) {
            if let Some(v) = rest.strip_prefix(' ') {
                return v.trim().parse().expect("counter value parses as u64");
            }
        }
    }
    panic!("series {id:?} not found in exposition:\n{text}");
}

#[test]
fn fig7_counters_match_legacy_pruning_stats_bitwise() {
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 7);
    let obs = Arc::new(Obs::with_metrics());
    let engine = GpSsnEngine::build(&ssn, small_cfg(7, Some(obs.clone())));
    let opts = QueryOptions {
        collect_stats: true,
        ..Default::default()
    };

    // Legacy path: sum the per-query PruningStats structs.
    let mut legacy = PruningStats::default();
    for q in corpus(&ssn, 7) {
        let out = engine.query_with_options(&q, &opts);
        let s = &out.metrics.stats;
        legacy.users_total += s.users_total;
        legacy.users_pruned_index += s.users_pruned_index;
        legacy.users_pruned_object += s.users_pruned_object;
        legacy.users_pruned_by_distance += s.users_pruned_by_distance;
        legacy.users_pruned_by_interest += s.users_pruned_by_interest;
        legacy.pois_total += s.pois_total;
        legacy.pois_pruned_index += s.pois_pruned_index;
        legacy.pois_pruned_object += s.pois_pruned_object;
        legacy.pois_pruned_by_distance += s.pois_pruned_by_distance;
        legacy.pois_pruned_by_matching += s.pois_pruned_by_matching;
        legacy.pairs_total_estimate += s.pairs_total_estimate;
        legacy.pairs_refined += s.pairs_refined;
        legacy.candidate_users += s.candidate_users;
        legacy.candidate_pois += s.candidate_pois;
    }
    assert!(legacy.users_total > 0, "corpus produced no feasible query");

    // Exposition path: reconstruct the same struct from the Prometheus
    // text. `pairs_total_estimate` is an f64 estimate, not a counter —
    // carried over so `pair_power()` still checks `pairs_refined`.
    let text = obs.base_registry().snapshot().to_prometheus();
    let exposed = PruningStats {
        users_total: prom_counter(&text, "gpssn_users_scanned_total") as usize,
        users_pruned_index: prom_counter(&text, "gpssn_pruned_users_total{stage=\"index\"}")
            as usize,
        users_pruned_object: prom_counter(&text, "gpssn_pruned_users_total{stage=\"object\"}")
            as usize,
        users_pruned_by_distance: prom_counter(
            &text,
            "gpssn_pruned_users_total{stage=\"distance\"}",
        ) as usize,
        users_pruned_by_interest: prom_counter(
            &text,
            "gpssn_pruned_users_total{stage=\"interest\"}",
        ) as usize,
        pois_total: prom_counter(&text, "gpssn_pois_scanned_total") as usize,
        pois_pruned_index: prom_counter(&text, "gpssn_pruned_pois_total{stage=\"index\"}") as usize,
        pois_pruned_object: prom_counter(&text, "gpssn_pruned_pois_total{stage=\"object\"}")
            as usize,
        pois_pruned_by_distance: prom_counter(&text, "gpssn_pruned_pois_total{stage=\"distance\"}")
            as usize,
        pois_pruned_by_matching: prom_counter(&text, "gpssn_pruned_pois_total{stage=\"matching\"}")
            as usize,
        pairs_total_estimate: legacy.pairs_total_estimate,
        pairs_refined: prom_counter(&text, "gpssn_pairs_refined_total"),
        candidate_users: prom_counter(&text, "gpssn_candidate_users_total") as usize,
        candidate_pois: prom_counter(&text, "gpssn_candidate_pois_total") as usize,
    };

    // Counters agree bitwise.
    assert_eq!(
        exposed, legacy,
        "exposition counters diverge from legacy sums"
    );

    // And therefore every Fig. 7 power accessor agrees exactly.
    let powers = [
        (
            "social_index",
            legacy.social_index_power(),
            exposed.social_index_power(),
        ),
        (
            "social_object",
            legacy.social_object_power(),
            exposed.social_object_power(),
        ),
        (
            "road_index",
            legacy.road_index_power(),
            exposed.road_index_power(),
        ),
        (
            "road_object",
            legacy.road_object_power(),
            exposed.road_object_power(),
        ),
        (
            "social_distance",
            legacy.social_distance_power(),
            exposed.social_distance_power(),
        ),
        (
            "interest",
            legacy.interest_power(),
            exposed.interest_power(),
        ),
        (
            "road_distance",
            legacy.road_distance_power(),
            exposed.road_distance_power(),
        ),
        (
            "matching",
            legacy.matching_power(),
            exposed.matching_power(),
        ),
        ("pair", legacy.pair_power(), exposed.pair_power()),
    ];
    for (name, a, b) in powers {
        assert_eq!(a.to_bits(), b.to_bits(), "{name} power differs: {a} vs {b}");
    }
}

#[test]
fn chrome_trace_is_valid_json_with_expected_span_levels() {
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 11);
    let obs = Arc::new(Obs::full());
    let engine = GpSsnEngine::build(&ssn, small_cfg(11, Some(obs.clone())));

    // A handful of queries is enough to exercise every span level while
    // staying far below the ring-buffer capacity.
    for q in corpus(&ssn, 11).into_iter().take(12) {
        let _ = engine.query(&q);
    }
    let records = obs.tracer().records();
    assert_eq!(obs.tracer().dropped(), 0, "ring buffer overflowed");

    // Every span level of the query lifecycle is present, including at
    // least one distance-layer span (`ball` always; `ch_p2p` /
    // `dijkstra_batch` depending on which backend served).
    let has = |name: &str| records.iter().any(|r| r.name == name);
    for required in [
        "query",
        "prune_social",
        "prune_road",
        "refine",
        "verify_center",
    ] {
        assert!(has(required), "span {required:?} missing from trace");
    }
    assert!(
        has("ball") || has("ch_p2p") || has("dijkstra_batch"),
        "no distance-layer span in trace"
    );

    // Every verify_center span is parented under a refinement span.
    let refine_ids: std::collections::HashSet<u64> = records
        .iter()
        .filter(|r| r.name == "refine" || r.name == "refine_fallback")
        .map(|r| r.id)
        .collect();
    let mut verified = 0usize;
    for r in records.iter().filter(|r| r.name == "verify_center") {
        assert!(
            refine_ids.contains(&r.parent),
            "verify_center span {} parented under {} (not a refinement span)",
            r.id,
            r.parent
        );
        verified += 1;
    }
    assert!(verified > 0, "no verify_center span recorded");

    // The Chrome export parses with our own JSON parser and carries the
    // span tree in `args`.
    let doc = json::parse(&chrome_trace_json(&records)).expect("trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert_eq!(events.len(), records.len());
    for (ev, rec) in events.iter().zip(&records) {
        assert_eq!(ev.get("name").and_then(|v| v.as_str()), Some(rec.name));
        assert_eq!(ev.get("ph").and_then(|v| v.as_str()), Some("X"));
        let args = ev.get("args").expect("args object");
        assert_eq!(args.get("id").and_then(|v| v.as_f64()), Some(rec.id as f64));
        assert_eq!(
            args.get("parent").and_then(|v| v.as_f64()),
            Some(rec.parent as f64)
        );
    }
}

#[test]
fn batch_counter_merge_is_deterministic_across_runs() {
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 13);
    let queries = corpus(&ssn, 13);
    let budget = QueryBudget::unlimited();

    let run = |threads: usize| {
        let obs = Arc::new(Obs::with_metrics());
        let engine = GpSsnEngine::build(&ssn, small_cfg(13, Some(obs.clone())));
        let results = engine.try_query_batch(&queries, threads, &QueryOptions::default(), &budget);
        assert!(results.iter().all(|r| r.is_ok()));
        obs.base_registry().snapshot()
    };

    let a = run(4);
    let b = run(4);
    assert!(!a.counters.is_empty(), "batch recorded no counters");
    // Two runs over the same corpus merge per-thread registries into
    // identical counter maps (histograms carry wall-clock durations and
    // are excluded; their counts are checked against the query total).
    assert_eq!(a.counters, b.counters, "batch counters not reproducible");

    // The threaded merge equals a sequential run's direct accumulation.
    let seq = run(1);
    assert_eq!(
        a.counters, seq.counters,
        "threaded merge diverges from sequential accumulation"
    );

    assert_eq!(
        a.counter("gpssn_queries_total", &[("path", "exact")]),
        queries.len() as u64
    );
    let cpu = a
        .histogram("gpssn_query_cpu_ns", &[("path", "exact")])
        .expect("per-query CPU histogram present");
    assert_eq!(cpu.count, queries.len() as u64);
}

#[test]
fn top_k_queries_record_per_query_metrics() {
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 13);
    let obs = Arc::new(Obs::with_metrics());
    let engine = GpSsnEngine::build(&ssn, small_cfg(13, Some(obs.clone())));
    let queries: Vec<GpSsnQuery> = corpus(&ssn, 13).into_iter().take(12).collect();
    let mut pairs = 0u64;
    for q in &queries {
        let out = engine
            .try_query_top_k(q, 3, &QueryOptions::default(), &QueryBudget::unlimited())
            .unwrap();
        assert_eq!(out.metrics.stats.users_total, ssn.social().num_users());
        pairs += out.metrics.stats.pairs_refined;
    }
    let snap = obs.base_registry().snapshot();
    let n = queries.len() as u64;
    assert_eq!(snap.counter("gpssn_queries_total", &[("path", "top_k")]), n);
    let completions: u64 = snap
        .counters
        .iter()
        .filter(|(id, _)| id.name == "gpssn_query_completions_total")
        .map(|(_, v)| v)
        .sum();
    assert_eq!(completions, n, "one completion class per top-k query");
    let cpu = snap
        .histogram("gpssn_query_cpu_ns", &[("path", "top_k")])
        .expect("per-query CPU histogram for top-k");
    assert_eq!(cpu.count, n);
    assert!(pairs > 0, "the fixture refined nothing");
    assert_eq!(snap.counter("gpssn_pairs_refined_total", &[]), pairs);
}

#[test]
fn cache_lifetime_counters_match_the_per_query_lookups() {
    // One definition of a dist-cache hit: a row or column counts all of
    // its values as hits when fully resident and all as misses when it
    // falls back to a batch — per query and over the cache's lifetime.
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.004), 3);
    let obs = Arc::new(Obs::with_metrics());
    let engine = GpSsnEngine::build(
        &ssn,
        EngineConfig {
            distance_cache: Some(DistanceCacheConfig::default()),
            ..small_cfg(3, Some(obs.clone()))
        },
    );
    let mut sum = CacheStats::default();
    for _pass in 0..2 {
        for q in corpus(&ssn, 3) {
            let c = engine.query(&q).metrics.cache;
            sum.ball_hits += c.ball_hits;
            sum.ball_misses += c.ball_misses;
            sum.dist_hits += c.dist_hits;
            sum.dist_misses += c.dist_misses;
        }
    }
    assert!(
        sum.dist_hits > 0 && sum.dist_misses > 0,
        "the corpus must both hit and miss the dist cache: {sum:?}"
    );
    let life = engine.distance_cache().unwrap().lifetime_stats();
    assert_eq!(
        (life.ball_hits, life.ball_misses),
        (sum.ball_hits, sum.ball_misses),
        "ball lifetime counters vs per-query sums"
    );
    assert_eq!(
        (life.dist_hits, life.dist_misses),
        (sum.dist_hits, sum.dist_misses),
        "dist lifetime counters vs per-query sums"
    );

    engine.publish_cache_metrics();
    let snap = obs.base_registry().snapshot();
    let lookups = |kind: &str, result: &str| {
        snap.counter(
            "gpssn_cache_lookups_total",
            &[("kind", kind), ("result", result)],
        )
    };
    let hits = lookups("ball", "hit") + lookups("dist", "hit");
    let total = hits + lookups("ball", "miss") + lookups("dist", "miss");
    assert_eq!(
        snap.gauge("gpssn_cache_hit_rate", &[]),
        Some(hits as f64 / total as f64),
        "the published hit rate must be the hit share of the lookups"
    );
}

#[test]
fn build_stage_histograms_and_witness_counters_are_recorded() {
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 19);
    let obs = Arc::new(Obs::with_metrics());
    let _engine = GpSsnEngine::build(&ssn, small_cfg(19, Some(obs.clone())));
    let snap = obs.base_registry().snapshot();
    // Every stage of the build pipeline lands one observation in the
    // gpssn_build_stage_ns histogram.
    for stage in [
        "road_pivots",
        "social_pivots",
        "poi_augment",
        "rstar_str",
        "node_aggregate",
        "ch_contract",
        "user_tables",
        "leaf_partition",
        "leaf_nodes",
        "tree_levels",
    ] {
        let h = snap
            .histogram("gpssn_build_stage_ns", &[("stage", stage)])
            .unwrap_or_else(|| panic!("build stage {stage:?} not recorded"));
        assert_eq!(h.count, 1, "stage {stage:?} recorded {} times", h.count);
    }
    // The CH contraction reused its witness workspaces: every candidate
    // simulation resets the search, and all but the first per workspace
    // recycle previously-touched state instead of reallocating.
    let resets = snap.counter("gpssn_build_witness_resets_total", &[]);
    let recycles = snap.counter("gpssn_build_witness_recycles_total", &[]);
    assert!(resets > 0, "no witness searches ran during the build");
    assert!(recycles > 0, "witness workspaces were never recycled");
    assert!(recycles <= resets);
    assert!(snap.counter("gpssn_build_ch_shortcuts_total", &[]) > 0);

    // A build without a metrics sink records nothing (and still works).
    let quiet = GpSsnEngine::build(&ssn, small_cfg(19, None));
    assert!(quiet.obs_handle().is_none());
}
